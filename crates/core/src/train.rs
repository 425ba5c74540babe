//! Distributed weight-gradient computation — the training-step
//! extension of the paper's algorithm.
//!
//! The brief announcement covers the forward convolution; a training
//! step also needs `dKer[k,c,r,s] = Σ_{b,w,h} dOut[b,k,w,h] ·
//! In[b,c,σ_w·w+r,σ_h·h+s]`. The paper's distribution extends to it
//! naturally, which is exactly the property that makes the algorithm
//! attractive for training:
//!
//! * `dOut` arrives in `Out`'s layout — already resident, replicated
//!   along `c` (every `c`-fiber member holds identical values).
//! * `In` tiles are re-broadcast along the `k` fiber with the same
//!   rotating-owner schedule as the forward pass — but only once per
//!   `(bhw\text{-tile}, c)` step (the gradient sums over `k` locally),
//!   so the backward `In` traffic is the forward traffic divided by
//!   `W_k/T_k`.
//! * Each rank accumulates a partial `dKer` over its `(b,w,h)`
//!   sub-range; partials are disjoint in `(k,c)` across `(i_k, i_c)`
//!   groups and summed across the `bhw` fiber by a **reduce-scatter
//!   whose chunks are exactly the initial `Ker` distribution** — so
//!   the gradient lands shard-aligned with the weights it updates, and
//!   no further movement is needed for the optimizer step.
//!
//! Traffic: `in_bcast/(W_k/T_k) + (P_bhw−1)·W_k·W_c·N_r·N_s` per fiber —
//! computed exactly by [`expected_backward_volumes`] and pinned against
//! measured counters in tests.

use crate::distribution::{distribute, in_c_dist, ker_c_dist, RankData};
use crate::layout::{forward_layer, LayerShards, RankLayout};
use crate::network::{window_max_rel_err, CoreError};
use distconv_conv::kernels::{grad_ker, out_shape, workload};
use distconv_cost::DistPlan;
use distconv_simnet::{Machine, MachineConfig, Rank, StatsSnapshot};
use distconv_tensor::{conv_input_region, Range4, Scalar, Shape4, Tensor4};

/// Seed-offset for the upstream gradient `dOut` (matches the baselines
/// crate so cross-scheme comparisons share workloads).
pub const DOUT_SEED_XOR: u64 = 0x5A5A_1234_9876_0F0F;

/// Exact expected inter-rank traffic of the backward (gradient) pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackwardVolumes {
    /// `In` tile broadcasts (one per `(bhw`-tile`, c)` step).
    pub in_bcast: u128,
    /// `dKer` reduce-scatter along the `bhw` fibers.
    pub grad_reduce: u128,
}

impl BackwardVolumes {
    /// Total expected backward volume.
    pub fn total(&self) -> u128 {
        self.in_bcast + self.grad_reduce
    }
}

/// Compute the exact expected backward volumes for `plan`.
pub fn expected_backward_volumes(plan: &DistPlan) -> BackwardVolumes {
    let p = &plan.problem;
    let (w, t, g) = (plan.w, plan.t, plan.grid);
    let procs = g.total();
    let steps_bhw = (w.wb / t.tb) as u128 * (w.ww / t.tw) as u128 * (w.wh / t.th) as u128;
    let steps_c = (w.wc / t.tc) as u128;
    let in_tile = (t.tb * t.tc) as u128
        * distconv_tensor::conv_input_extent(t.tw, p.sw, p.nr) as u128
        * distconv_tensor::conv_input_extent(t.th, p.sh, p.ns) as u128;
    let k_fibers = (procs / g.pk) as u128;
    let in_bcast = k_fibers * steps_bhw * steps_c * (g.pk as u128 - 1) * in_tile;
    // Direct reduce-scatter on each bhw fiber: every member sends the
    // full dKer slice minus its own chunk; per fiber that sums to
    // (P_bhw − 1) · W_k·W_c·N_r·N_s.
    let slice = (w.wk * w.wc * p.nr * p.ns) as u128;
    let bhw_fibers = (procs / g.pbhw()) as u128;
    let grad_reduce = bhw_fibers * (g.pbhw() as u128 - 1) * slice;
    BackwardVolumes {
        in_bcast,
        grad_reduce,
    }
}

/// Report of a distributed training step (forward + weight gradient).
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// The executed plan.
    pub plan: DistPlan,
    /// Measured counters for the *whole* step (forward + backward).
    pub stats: StatsSnapshot,
    /// Expected forward volumes (same model as [`crate::expected_volumes`]).
    pub expected_forward: crate::ExpectedVolumes,
    /// Expected backward volumes.
    pub expected_backward: BackwardVolumes,
    /// Forward output verified against the sequential reference.
    pub forward_verified: bool,
    /// Gradient shards verified against the sequential [`grad_ker`].
    pub grad_verified: bool,
    /// Largest per-rank peak memory (elements).
    pub max_peak_mem: u64,
    /// Simulated α–β time (volume-based estimate).
    pub sim_time: f64,
    /// Lamport communication makespan.
    pub makespan: f64,
}

impl TrainReport {
    /// Measured inter-rank volume for the full step.
    pub fn measured_volume(&self) -> u64 {
        self.stats.total_elems()
    }

    /// Expected total for the full step.
    pub fn expected_total(&self) -> u128 {
        self.expected_forward.total() + self.expected_backward.total()
    }
}

/// Run one distributed training step (forward + dKer) under `plan`.
///
/// The forward pass is the Sec. 2.2 algorithm verbatim (including the
/// final `Out` reduction when `P_c > 1`); the backward pass follows the
/// module-level description. Both are verified against sequential
/// references.
///
/// The step inputs — weights, activations and upstream gradient — are
/// all regenerable from `seed`, exactly the checkpointed state a real
/// trainer restores, so [`crate::recover()`] can restart it after a
/// crash; pass `|_| None` as its re-plan, since a training step never
/// degrades.
pub fn run_training_step<T: Scalar>(
    plan: DistPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<TrainReport, CoreError> {
    let procs = plan.grid.total();
    let report =
        Machine::try_run::<T, _, _>(procs, cfg, |rank| train_rank_body::<T>(rank, &plan, seed))?;

    // --- Verification against sequential references. ---
    let p = plan.problem;
    let (input, ker) = workload::<T>(&p, seed);
    let reference_out = distconv_conv::kernels::conv2d_direct_par(&p, &input, &ker);
    let d_out = Tensor4::<T>::random(out_shape(&p), seed ^ DOUT_SEED_XOR);
    let reference_grad = grad_ker(&p, &input, &d_out);
    let tol = {
        let terms = (p.nc * p.nr * p.ns).max(p.nbhw()) as f64;
        let eps = if std::mem::size_of::<T>() == 4 {
            1e-6
        } else {
            1e-13
        };
        eps * terms * 8.0
    };

    let mut forward_ok = true;
    let mut grad_ok = true;
    for out in &report.results {
        if let Some(slice) = &out.out_slice {
            let rng = crate::distribution::out_range(&plan, out.coords);
            if window_max_rel_err(&reference_out, rng, slice) > tol {
                forward_ok = false;
            }
        }
        // Every rank holds a dKer shard aligned with its Ker shard.
        if window_max_rel_err(&reference_grad, out.grad_range, &out.grad_shard) > tol {
            grad_ok = false;
        }
    }
    if !forward_ok || !grad_ok {
        return Err(CoreError::VerificationFailed {
            max_rel_err: f64::NAN,
        });
    }

    Ok(TrainReport {
        plan,
        expected_forward: crate::expected_volumes(&plan),
        expected_backward: expected_backward_volumes(&plan),
        forward_verified: forward_ok,
        grad_verified: grad_ok,
        max_peak_mem: report.peak_mem.iter().copied().max().unwrap_or(0),
        sim_time: report.sim_time,
        makespan: report.makespan,
        stats: report.stats,
    })
}

/// Per-rank result of a training step.
pub struct TrainRankOut<T> {
    /// Grid coordinates.
    pub coords: [usize; 5],
    /// Final `Out` slice (only on `i_c = 0` ranks).
    pub out_slice: Option<Tensor4<T>>,
    /// This rank's `dKer` shard (aligned with its `Ker` shard).
    pub grad_shard: Tensor4<T>,
    /// Global `Ker` range of the shard.
    pub grad_range: Range4,
}

fn train_rank_body<T: Scalar>(rank: &Rank<T>, plan: &DistPlan, seed: u64) -> TrainRankOut<T> {
    let p = plan.problem;
    let (w, t) = (plan.w, plan.t);
    assert_eq!(t.tc, 1, "the distributed schedule requires T_c = 1");
    let RankData {
        coords,
        bhw_pos: _,
        mut out_slice,
        out_origin,
        in_shard,
        in_origin,
        in_c_range: _,
        ker_shard,
        ker_origin,
        ker_c_range,
    } = distribute::<T>(plan, rank.id(), seed);
    let _shard_lease = rank
        .mem()
        .lease_or_panic((out_slice.len() + in_shard.len() + ker_shard.len()) as u64);

    let layout = RankLayout::new(plan, rank);
    let (ik, ic) = (layout.ik(), layout.ic());
    let in_dist = in_c_dist(plan);
    let ker_dist = ker_c_dist(plan);

    // Local dOut slice: same layout as Out, materialized from the seed
    // (in training it would arrive from the downstream layer in place).
    let d_out = Tensor4::<T>::random_window(
        Shape4::new(w.wb, w.wk, w.ww, w.wh),
        seed ^ DOUT_SEED_XOR,
        out_origin,
        out_shape(&p),
    );
    let _dout_lease = rank.mem().lease_or_panic(d_out.len() as u64);

    let (sb, sh, sw) = (w.wb / t.tb, w.wh / t.th, w.ww / t.tw);

    // ---------------- Forward pass (Sec. 2.2 verbatim). ----------------
    let shards = LayerShards {
        in_shard: &in_shard,
        in_origin,
        ker_shard: &ker_shard,
        ker_origin,
        out_origin,
    };
    forward_layer(plan, rank, &layout, &shards, &mut out_slice);

    // ---------------- Backward pass: dKer. ----------------
    // Partial gradient over this rank's (b,w,h) sub-range, full (Wk, Wc).
    let mut grad_partial = Tensor4::<T>::zeros(Shape4::new(w.wk, w.wc, p.nr, p.ns));
    let _grad_lease = rank.mem().lease_or_panic(grad_partial.len() as u64);
    for jb in 0..sb {
        for jw in 0..sw {
            for jh in 0..sh {
                for ct in 0..w.wc {
                    // Tile over the full local k range (j[1] spans all of
                    // Wk at once: dKer sums over k locally, no reload).
                    let out_rng = Range4::new(
                        [
                            out_origin[0] + jb * t.tb,
                            out_origin[1],
                            out_origin[2] + jw * t.tw,
                            out_origin[3] + jh * t.th,
                        ],
                        [
                            out_origin[0] + jb * t.tb + t.tb,
                            out_origin[1] + w.wk,
                            out_origin[2] + jw * t.tw + t.tw,
                            out_origin[3] + jh * t.th + t.th,
                        ],
                    );
                    let gc = ic * w.wc + ct;
                    let in_owner = in_dist.owner(ct);
                    let in_rng = conv_input_region(out_rng, gc, gc + 1, p.sw, p.sh, p.nr, p.ns);
                    let mut in_buf = if ik == in_owner {
                        in_shard.pack_range(in_rng.relative_to(in_origin))
                    } else {
                        vec![T::zero(); in_rng.len()]
                    };
                    let _l_in = rank.mem().lease_or_panic(in_buf.len() as u64);
                    layout.k_comm.bcast(in_owner, &mut in_buf);
                    let in_tile = Tensor4::from_vec(in_rng.shape(), in_buf);
                    accumulate_grad(
                        &p,
                        &mut grad_partial,
                        ct,
                        out_rng.relative_to(out_origin),
                        &d_out,
                        &in_tile,
                    );
                }
            }
        }
    }
    // Reduce-scatter along the bhw fiber with Ker-distribution chunks.
    let counts: Vec<usize> = (0..plan.grid.pbhw())
        .map(|i| ker_dist.len(i) * w.wk * p.nr * p.ns)
        .collect();
    // Pack grad_partial in bhw-fiber chunk order: chunk i = channels
    // ker_dist.range(i), all (k, r, s). Layout [Wk, Wc, r, s] packs by
    // channel ranges via pack_range per chunk.
    let mut flat = Vec::with_capacity(grad_partial.len());
    for i in 0..plan.grid.pbhw() {
        let (lo, hi) = ker_dist.range(i);
        if lo < hi {
            flat.extend(
                grad_partial.pack_range(Range4::new([0, lo, 0, 0], [w.wk, hi, p.nr, p.ns])),
            );
        }
    }
    let mine = layout.bhw_comm.reduce_scatter(&flat, &counts);
    let (gc_lo, gc_hi) = ker_c_range;
    let grad_range = Range4::new(
        [ker_origin[0], ker_origin[1], 0, 0],
        [
            ker_origin[0] + w.wk,
            ker_origin[1] + (gc_hi - gc_lo),
            p.nr,
            p.ns,
        ],
    );
    let grad_shard = Tensor4::from_vec(Shape4::new(w.wk, gc_hi - gc_lo, p.nr, p.ns), mine);

    TrainRankOut {
        coords,
        out_slice: if ic == 0 { Some(out_slice) } else { None },
        grad_shard,
        grad_range,
    }
}

/// `grad[k, ct, r, s] += Σ_{b,w,h∈tile} dOut[tile]·In[tile]`.
fn accumulate_grad<T: Scalar>(
    p: &distconv_cost::Conv2dProblem,
    grad: &mut Tensor4<T>,
    ct: usize,
    out_local: Range4,
    d_out: &Tensor4<T>,
    in_tile: &Tensor4<T>,
) {
    let [tb, tk, tw, th] = out_local.extents();
    for k in 0..tk {
        for r in 0..p.nr {
            for s in 0..p.ns {
                let mut acc = grad[[out_local.lo[1] + k, ct, r, s]];
                for b in 0..tb {
                    for w in 0..tw {
                        for h in 0..th {
                            let o = [
                                out_local.lo[0] + b,
                                out_local.lo[1] + k,
                                out_local.lo[2] + w,
                                out_local.lo[3] + h,
                            ];
                            acc += d_out[o] * in_tile[[b, 0, p.sw * w + r, p.sh * h + s]];
                        }
                    }
                }
                grad[[out_local.lo[1] + k, ct, r, s]] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_cost::{Conv2dProblem, MachineSpec, Planner};

    fn train(p: Conv2dProblem, procs: usize) -> TrainReport {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap();
        run_training_step::<f64>(plan, 77, MachineConfig::default()).expect("verified")
    }

    #[test]
    fn training_step_verified_single_rank() {
        let r = train(Conv2dProblem::square(2, 4, 4, 4, 3), 1);
        assert!(r.forward_verified && r.grad_verified);
        assert_eq!(r.measured_volume(), 0);
    }

    #[test]
    fn training_step_verified_multi_rank() {
        for procs in [2usize, 4, 8] {
            let r = train(Conv2dProblem::square(4, 8, 8, 4, 3), procs);
            assert!(r.forward_verified && r.grad_verified, "P={procs}");
            assert_eq!(
                r.measured_volume() as u128,
                r.expected_total(),
                "P={procs}: measured vs expected"
            );
        }
    }

    #[test]
    fn training_step_strided() {
        let r = train(Conv2dProblem::new(2, 4, 4, 4, 4, 3, 3, 2, 2), 4);
        assert!(r.forward_verified && r.grad_verified);
        assert_eq!(r.measured_volume() as u128, r.expected_total());
    }

    #[test]
    fn backward_in_traffic_cheaper_than_forward() {
        // The gradient pass broadcasts In once per (bhw-tile, c), the
        // forward once per (bhw-tile, k-tile, c).
        let p = Conv2dProblem::square(4, 16, 8, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .plan()
            .unwrap();
        let fwd = crate::expected_volumes(&plan);
        let bwd = expected_backward_volumes(&plan);
        let k_steps = (plan.w.wk / plan.t.tk) as u128;
        assert_eq!(bwd.in_bcast * k_steps, fwd.in_bcast);
    }

    #[test]
    fn grad_lands_shard_aligned() {
        // After the step, each rank's gradient range equals its Ker
        // shard range — no extra movement for the optimizer update.
        let p = Conv2dProblem::square(2, 8, 8, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
            .plan()
            .unwrap();
        let procs = plan.grid.total();
        let report = Machine::run::<f64, _, _>(procs, MachineConfig::default(), |rank| {
            train_rank_body::<f64>(rank, &plan, 3)
        });
        for out in &report.results {
            // Must match the distribution module's Ker shard for the rank.
            let grid = crate::distribution::plan_grid(&plan);
            let id = grid.index_of(out.coords.as_ref());
            let rd = distribute::<f64>(&plan, id, 3);
            assert_eq!(
                out.grad_range.lo,
                [rd.ker_origin[0], rd.ker_origin[1], 0, 0]
            );
            assert_eq!(out.grad_shard.shape(), rd.ker_shard.shape());
        }
    }

    #[test]
    fn training_step_recovers_from_injected_crash() {
        use distconv_simnet::FaultPlan;
        let p = Conv2dProblem::square(4, 8, 8, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
            .plan()
            .unwrap();
        let clean = run_training_step::<f64>(plan, 77, MachineConfig::default()).unwrap();
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_crash(1, 4),
            ..MachineConfig::default()
        };
        let done = crate::recover(
            &plan,
            cfg,
            |p, c| run_training_step::<f64>(*p, 77, c),
            |_| None,
        )
        .expect("must recover");
        let r = &done.value;
        assert!(done.recovery.recovered());
        assert_eq!(done.recovery.attempts, 1);
        assert!(r.forward_verified && r.grad_verified);
        assert_eq!(r.measured_volume(), clean.measured_volume());
        assert!(done.recovery.wasted_elems > 0);
    }

    #[test]
    fn replicated_grid_trains_correctly() {
        let p = Conv2dProblem::square(2, 4, 16, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .with_forced_pc(2)
            .plan()
            .unwrap();
        let r = run_training_step::<f64>(plan, 5, MachineConfig::default()).expect("ok");
        assert!(r.forward_verified && r.grad_verified);
        assert_eq!(r.measured_volume() as u128, r.expected_total());
    }
}
