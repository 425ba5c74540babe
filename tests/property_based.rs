//! Property-based integration tests: the system's core invariants
//! under randomized problems, partitions and machines. Runs on the
//! in-tree `distconv::par::proptest_mini` harness (replay a failing
//! case with `DISTCONV_PROPTEST_SEED=<seed from the failure report>`).

use distconv::conv::gvm::GvmExecutor;
use distconv::conv::kernels::{conv2d_direct, conv_tile, out_shape, workload};
use distconv::core::{execute, RunOptions};
use distconv::cost::brute::{brute_eq4, brute_eq4_conforming, property5_holds};
use distconv::cost::closed_form::{ml_deflate, solve_table1};
use distconv::cost::exact::{eq3_cost_int, eq3_footprint_g};
use distconv::cost::simplified::InnerLoop;
use distconv::cost::{Conv2dProblem, MachineSpec, Partition, Planner, Tiling};
use distconv::par::proptest_mini::{check, Config, Gen};
use distconv::simnet::MachineConfig;
use distconv::tensor::{assert_close, Tensor4};

/// Random small conv problems (kept tiny: the references are O(N^7)).
fn arb_problem(g: &mut Gen) -> Conv2dProblem {
    Conv2dProblem::new(
        g.usize_in(1, 3), // nb
        g.usize_in(1, 6), // nk
        g.usize_in(1, 6), // nc
        g.usize_in(1, 5), // nh
        g.usize_in(1, 5), // nw
        g.usize_in(1, 3), // nr
        g.usize_in(1, 3), // ns
        g.usize_in(1, 2), // sw
        g.usize_in(1, 2), // sh
    )
}

/// The oracle against the paper's seven-loop nest run as one tile over
/// the whole problem from zero: the same sums in the same order, so
/// bitwise equal.
#[test]
fn direct_equals_conv_tile() {
    check("direct_equals_conv_tile", Config::with_cases(48), |g| {
        let p = arb_problem(g);
        let seed = g.u64();
        let (input, ker) = workload::<f64>(&p, seed);
        let a = conv2d_direct(&p, &input, &ker);
        let mut b = Tensor4::zeros(out_shape(&p));
        conv_tile(&p, &mut b, &input, &ker);
        assert_eq!(a.as_slice(), b.as_slice(), "direct vs conv_tile {p:?}");
    });
}

#[test]
fn gvm_correct_for_random_divisor_tilings() {
    check(
        "gvm_correct_for_random_divisor_tilings",
        Config::with_cases(48),
        |g| {
            let p = arb_problem(g);
            let seed = g.u64();
            // Whole-problem partition, largest proper divisor tiles.
            let w = Partition::new(p.nb, p.nk, p.nc, p.nh, p.nw);
            let half = |n: usize| if n.is_multiple_of(2) { n / 2 } else { n };
            let t = Tiling::new(half(p.nb), half(p.nk), 1, half(p.nh), half(p.nw));
            let ex = GvmExecutor::new(p, w, t, InnerLoop::C, None).unwrap();
            let (input, ker) = workload::<f64>(&p, seed);
            let (out, meas) = ex.execute_all(&input, &ker).unwrap();
            let reference = conv2d_direct(&p, &input, &ker);
            assert_close(out.as_slice(), reference.as_slice(), 1e-10, "gvm");
            // Stride 1 ⇒ exact model equality; otherwise bounded by it.
            let model = eq3_cost_int(&p, &w, &t).unwrap();
            let measured = meas[0].total_traffic();
            if p.sw == 1 && p.sh == 1 {
                assert_eq!(measured, model);
            } else {
                assert!(measured <= model);
            }
        },
    );
}

#[test]
fn ml_deflation_always_fits() {
    check("ml_deflation_always_fits", Config::with_cases(48), |g| {
        let p = arb_problem(g);
        let mexp = g.u32_in(8, 21);
        let m = (1u64 << mexp) as f64;
        let m_l = ml_deflate(m, &p);
        assert!(m_l <= m);
        // Identity: M_L + 3K√M_L == M (when not floored at 1).
        if m_l > 1.0 {
            let k = p.k_const();
            let recon = m_l + 3.0 * k * m_l.sqrt();
            assert!((recon - m).abs() / m < 1e-9);
        }
    });
}

/// The Property-(5) check for one concrete (problem, procs, M_L) point;
/// shared by the randomized sweep and the pinned regression below.
fn check_property5_or_certified_gap(p: Conv2dProblem, procs: usize, mexp: u32) {
    // The paper proves Property (5) for the continuous relaxation.
    // On the *integer* problem, divisor constraints can exclude
    // every conforming point (found by this very test — see
    // EXPERIMENTS.md E4). So: either the integer optimum conforms,
    // or the conforming search certifies that no conforming point
    // matches it.
    let m_l = (1u64 << mexp) as f64;
    if let Some(b) = brute_eq4(&p, procs, m_l, InnerLoop::C) {
        if !property5_holds(&p, &b.vars) {
            match brute_eq4_conforming(&p, procs, m_l, InnerLoop::C) {
                None => {} // no conforming feasible point at all
                Some(c) => assert!(
                    c.cost > b.cost * (1.0 + 1e-12),
                    "conforming point {:?} matches the optimum — real violation!",
                    c.vars
                ),
            }
        }
        // And the closed form lower-bounds the integer optimum.
        let cf = solve_table1(&p, procs, m_l);
        assert!(cf.cost <= b.cost * (1.0 + 1e-9));
    }
}

#[test]
fn property5_or_certified_integrality_gap() {
    check(
        "property5_or_certified_integrality_gap",
        Config::with_cases(48),
        |g| {
            let p = arb_problem(g);
            let procs = g.usize_in(1, 8);
            let mexp = g.u32_in(5, 17);
            check_property5_or_certified_gap(p, procs, mexp);
        },
    );
}

/// Pinned regression: this exact point once tripped the Property-(5)
/// sweep (migrated from the historical proptest regression file so the
/// counterexample is exercised on every run, not only when the random
/// sweep rediscovers it).
#[test]
fn property5_regression_nb2_nk6_nc6() {
    let p = Conv2dProblem::new(2, 6, 6, 3, 5, 1, 1, 1, 1);
    check_property5_or_certified_gap(p, 8, 5);
}

#[test]
fn footprint_monotone_in_tiles() {
    check("footprint_monotone_in_tiles", Config::with_cases(48), |g| {
        let p = arb_problem(g);
        // g is monotone: growing any tile dimension cannot shrink the
        // footprint.
        let t1 = Tiling::new(1, 1, 1, 1, 1);
        let t2 = Tiling::new(p.nb, p.nk, p.nc, p.nh, p.nw);
        assert!(eq3_footprint_g(&p, &t1) <= eq3_footprint_g(&p, &t2));
    });
}

#[test]
fn distributed_equals_sequential() {
    // The distributed runs spawn threads; keep the case count modest.
    check(
        "distributed_equals_sequential",
        Config::with_cases(16),
        |g| {
            let p = arb_problem(g);
            let procs = 1usize << g.u32_in(0, 3);
            let seed = g.u64();
            let Ok(plan) = Planner::new(p, MachineSpec::new(procs, 1 << 22)).plan() else {
                // Not all random problems factor over all P — that is the
                // planner's documented Unfactorable case, not a bug.
                return;
            };
            let cfg = MachineConfig::default();
            let r = execute::<f64>(&plan.into(), seed, cfg, RunOptions::default())
                .expect("distributed result must match reference")
                .report;
            assert!(r.verified);
            assert_eq!(r.measured_total(), r.expected_total());
        },
    );
}
