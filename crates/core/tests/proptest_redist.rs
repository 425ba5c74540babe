//! Property tests for [`distconv_core::redistribution_volume`]'s `O(P)`
//! fast form, on the in-tree `proptest_mini` harness (replay a failing
//! case with `DISTCONV_PROPTEST_SEED=<seed from the failure report>`).
//!
//! The load-bearing property is the first one: the fast form
//! `Σ_c |in_win(c)| − |own out ∩ own in|` must equal the literal
//! `O(P²)` pairwise sum of [`ShardGeometry`] window intersections over
//! arbitrary chains — halos, strides, `P_c > 1` replication and all.
//! The zero-on-identical-grids and swap-symmetry properties only hold
//! in the *pointwise* (`1×1` kernel, stride 1, `P_c = 1`) setting where
//! a rank's next-layer `In` window coincides with its own `Out` window;
//! halos and `c`-replication create genuine traffic even on an
//! unchanged grid, so those tests pin the restricted claim on purpose.
//!
//! [`ShardGeometry`]: distconv_core::distribution::ShardGeometry

use distconv_core::distribution::{out_range, shard_geometry};
use distconv_core::{redistribution_volume, NetworkPlan};
use distconv_cost::{Conv2dProblem, DistPlan, MachineSpec, Planner};
use distconv_par::proptest_mini::{check, Config, Gen};

/// A random producer layer with power-of-two-ish dims so small machines
/// factor, covering halos (`nr, ns ∈ {1,3}`) and non-square spatial
/// extents.
fn arb_prev(g: &mut Gen) -> Conv2dProblem {
    let dims = [1usize, 2, 4, 8];
    Conv2dProblem::new(
        dims[g.usize_in(0, 2)],   // nb
        dims[g.usize_in(1, 3)],   // nk
        dims[g.usize_in(1, 3)],   // nc
        2 * g.usize_in(2, 4),     // nh
        2 * g.usize_in(2, 4),     // nw
        1 + 2 * g.usize_in(0, 1), // nr ∈ {1,3}
        1 + 2 * g.usize_in(0, 1), // ns ∈ {1,3}
        1,
        1,
    )
}

/// A random consumer layer whose input domain is exactly `prev`'s
/// output domain (`N_c = N_k(prev)`, input pixels = output pixels),
/// with random stride/kernel when they tile evenly and a pointwise
/// fallback otherwise.
fn arb_next(g: &mut Gen, prev: &Conv2dProblem) -> Conv2dProblem {
    let nk = [2usize, 4, 8][g.usize_in(0, 2)];
    let (sw, nr) = (g.usize_in(1, 2), 1 + 2 * g.usize_in(0, 1));
    let (sh, ns) = (g.usize_in(1, 2), 1 + 2 * g.usize_in(0, 1));
    let fit = |n: usize, s: usize, r: usize| {
        (n >= r && (n - r).is_multiple_of(s)).then(|| (n - r) / s + 1)
    };
    match (fit(prev.nw, sw, nr), fit(prev.nh, sh, ns)) {
        (Some(nw), Some(nh)) => Conv2dProblem::new(prev.nb, nk, prev.nk, nh, nw, nr, ns, sw, sh),
        _ => Conv2dProblem::new(prev.nb, nk, prev.nk, prev.nh, prev.nw, 1, 1, 1, 1),
    }
}

/// Every grid/regime candidate the tuned planner would consider for
/// `p` — empty when the machine cannot factor this layer (the property
/// closure skips such draws). Also checks that tuning `p` as a
/// one-layer network picks the planner's own grid and tiling.
fn candidates(p: Conv2dProblem, machine: MachineSpec) -> Vec<DistPlan> {
    if let Ok(best) = Planner::new(p, machine).plan() {
        let tuned = NetworkPlan::plan_tuned(&[p], machine).unwrap().layers[0];
        assert_eq!((tuned.grid, tuned.t), (best.grid, best.t), "{p:?}");
    }
    Planner::new(p, machine).enumerate().unwrap_or_default()
}

/// The literal `O(P²)` definition: for every producer on the
/// `i_c = 0` plane and every *other* consumer, the intersection of the
/// producer's final `Out` range with the consumer's
/// [`shard_geometry`] `In` region.
fn pairwise_volume(prev: &DistPlan, next: &DistPlan) -> u128 {
    let procs = prev.grid.total();
    let mut vol = 0u128;
    for producer in 0..procs {
        let geom = shard_geometry(prev, producer);
        if geom.coords[2] != 0 {
            continue;
        }
        let out_win = out_range(prev, geom.coords);
        for consumer in 0..procs {
            if consumer == producer {
                continue;
            }
            let in_win = shard_geometry(next, consumer).in_region;
            if let Some(i) = out_win.intersect(&in_win) {
                vol += i.len() as u128;
            }
        }
    }
    vol
}

#[test]
fn fast_form_equals_pairwise_shard_geometry_sum() {
    check("redist_fast_equals_pairwise", Config::with_cases(48), |g| {
        let prev = arb_prev(g);
        let next = arb_next(g, &prev);
        let machine = MachineSpec::new([2usize, 4, 8][g.usize_in(0, 2)], 1 << 22);
        let (pc, nc) = (candidates(prev, machine), candidates(next, machine));
        if pc.is_empty() || nc.is_empty() {
            return; // machine does not factor this draw
        }
        let a = &pc[g.usize_in(0, pc.len() - 1)];
        let b = &nc[g.usize_in(0, nc.len() - 1)];
        assert_eq!(
            redistribution_volume(a, b),
            pairwise_volume(a, b),
            "prev={prev:?} grid={:?}  next={next:?} grid={:?}",
            a.grid,
            b.grid
        );
    });
}

#[test]
fn zero_when_consecutive_grids_identical_pointwise() {
    // Pointwise stride-1 layers with P_c = 1: a rank's next-layer In
    // window is exactly its own Out window, so an unchanged grid moves
    // nothing. (With halos or P_c > 1 an unchanged grid still pays
    // real traffic — deliberately out of scope here.)
    check("redist_zero_identical_grids", Config::with_cases(32), |g| {
        let k = [2usize, 4, 8][g.usize_in(0, 2)];
        let p = Conv2dProblem::new(
            [1usize, 2, 4][g.usize_in(0, 2)],
            k,
            k, // c = k so the layer chains with itself
            2 * g.usize_in(2, 4),
            2 * g.usize_in(2, 4),
            1,
            1,
            1,
            1,
        );
        let machine = MachineSpec::new([2usize, 4, 8][g.usize_in(0, 2)], 1 << 22);
        for cand in candidates(p, machine) {
            if cand.grid.pc == 1 {
                assert_eq!(
                    redistribution_volume(&cand, &cand),
                    0,
                    "identical grid {:?} on {p:?}",
                    cand.grid
                );
            }
        }
    });
}

#[test]
fn symmetric_under_grid_swap_pointwise() {
    // Same pointwise P_c = 1 setting: In ≡ Out windows on both sides,
    // so vol(A→B) = N − Σ_r |out_A(r) ∩ out_B(r)| = vol(B→A).
    check("redist_swap_symmetry", Config::with_cases(32), |g| {
        let k = [2usize, 4, 8][g.usize_in(0, 2)];
        let p = Conv2dProblem::new(
            [1usize, 2, 4][g.usize_in(0, 2)],
            k,
            k,
            2 * g.usize_in(2, 4),
            2 * g.usize_in(2, 4),
            1,
            1,
            1,
            1,
        );
        let machine = MachineSpec::new([2usize, 4, 8][g.usize_in(0, 2)], 1 << 22);
        let cands: Vec<DistPlan> = candidates(p, machine)
            .into_iter()
            .filter(|c| c.grid.pc == 1)
            .collect();
        if cands.is_empty() {
            return;
        }
        let a = &cands[g.usize_in(0, cands.len() - 1)];
        let b = &cands[g.usize_in(0, cands.len() - 1)];
        assert_eq!(
            redistribution_volume(a, b),
            redistribution_volume(b, a),
            "grids {:?} vs {:?} on {p:?}",
            a.grid,
            b.grid
        );
    });
}
