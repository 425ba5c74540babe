//! Overlap equivalence proptests: for random shapes, grids, seeds and
//! (reliable) fault plans, the double-buffered **overlapped** pipelines
//! must produce bit-identical outputs and identical algorithmic traffic
//! counters to the **blocking** paths — for all four distmm algorithms
//! and the distributed CNN executor, including under crash/recovery.
//!
//! Runs on the in-tree `distconv_par::proptest_mini` harness: a failing
//! case prints its seed, and `DISTCONV_PROPTEST_SEED=<seed>` replays
//! exactly that case.

use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_distmm::{
    cannon_rank_body, dns3d_rank_body, s25d_rank_body, summa_rank_body, MatmulDims,
};
use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_par::{CommMode, LocalKernel};
use distconv_simnet::{FaultPlan, Machine, MachineConfig, Rank, RunReport};
use distconv_tensor::Matrix;

// Each case runs two full machines per algorithm; keep sizes small.
const CASES: u32 = 30;

/// A reliable (or no-op) link-fault plan — the class under which the
/// transport guarantees bit-identical delivery, so both comm modes must
/// also agree under it.
fn gen_plan(g: &mut Gen) -> FaultPlan {
    if g.usize_in(0, 3) == 0 {
        return FaultPlan::default();
    }
    let mut plan = FaultPlan::reliable(g.u64());
    if g.bool() {
        plan = plan.with_drops(g.f64_unit() * 0.3);
    }
    if g.bool() {
        plan = plan.with_dups(g.f64_unit() * 0.3);
    }
    if g.bool() {
        plan = plan.with_reorders(g.f64_unit() * 0.3);
    }
    plan
}

/// Run `body` in both comm modes under `plan`; results must be bitwise
/// identical and the algorithmic (non-fault) counters exactly equal.
fn assert_modes_agree<F>(p: usize, plan: FaultPlan, body: F)
where
    F: Fn(&Rank<f64>, LocalKernel, CommMode) -> Matrix<f64> + Send + Sync + Copy,
{
    let cfg = MachineConfig {
        faults: plan,
        ..MachineConfig::default()
    };
    let kernel = LocalKernel::from_env();
    let run = |mode: CommMode| -> RunReport<Matrix<f64>> {
        Machine::run::<f64, _, _>(p, cfg, move |rank| body(rank, kernel, mode))
    };
    let blocking = run(CommMode::Blocking);
    let overlapped = run(CommMode::Overlapped);
    for (r, (b, o)) in blocking
        .results
        .iter()
        .zip(overlapped.results.iter())
        .enumerate()
    {
        let bb: Vec<u64> = b.as_slice().iter().map(|x| x.to_bits()).collect();
        let ob: Vec<u64> = o.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bb, ob, "rank {r} bitwise mismatch under {plan:?}");
    }
    assert_eq!(
        blocking.stats.total_msgs(),
        overlapped.stats.total_msgs(),
        "message count must not change with comm mode under {plan:?}"
    );
    assert_eq!(
        blocking.stats.per_rank_msgs, overlapped.stats.per_rank_msgs,
        "per-rank message counts must match under {plan:?}"
    );
    assert_eq!(
        blocking.stats.per_rank_elems, overlapped.stats.per_rank_elems,
        "per-rank volumes must match under {plan:?}"
    );
}

#[test]
fn cannon_overlap_equivalent() {
    check(
        "cannon_overlap_equivalent",
        Config::with_cases(CASES),
        |g| {
            let q = g.usize_in(1, 3);
            let d = MatmulDims::new(g.usize_in(1, 16), g.usize_in(1, 16), g.usize_in(1, 16));
            let plan = gen_plan(g);
            assert_modes_agree(q * q, plan, move |rank, kernel, mode| {
                cannon_rank_body(rank, &d, q, kernel, mode)
            });
        },
    );
}

#[test]
fn summa_overlap_equivalent() {
    check("summa_overlap_equivalent", Config::with_cases(CASES), |g| {
        let pr = g.usize_in(1, 3);
        let pc = g.usize_in(1, 3);
        let d = MatmulDims::new(g.usize_in(1, 16), g.usize_in(1, 16), g.usize_in(1, 16));
        let plan = gen_plan(g);
        assert_modes_agree(pr * pc, plan, move |rank, kernel, mode| {
            summa_rank_body(rank, &d, pr, pc, kernel, mode)
        });
    });
}

#[test]
fn s25d_overlap_equivalent() {
    check("s25d_overlap_equivalent", Config::with_cases(CASES), |g| {
        let p1 = g.usize_in(1, 2);
        let c = g.usize_in(1, 3);
        let d = MatmulDims::new(g.usize_in(1, 12), g.usize_in(2, 12), g.usize_in(1, 12));
        let plan = gen_plan(g);
        assert_modes_agree(c * p1 * p1, plan, move |rank, kernel, mode| {
            s25d_rank_body(rank, &d, p1, c, kernel, mode)
        });
    });
}

#[test]
fn dns3d_overlap_equivalent() {
    check("dns3d_overlap_equivalent", Config::with_cases(CASES), |g| {
        let p1 = g.usize_in(1, 2);
        let d = MatmulDims::new(g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
        let plan = gen_plan(g);
        assert_modes_agree(p1 * p1 * p1, plan, move |rank, kernel, mode| {
            dns3d_rank_body(rank, &d, p1, kernel, mode)
        });
    });
}

/// Plan a random small CNN layer; `None` if the planner rejects it.
fn gen_cnn_plan(g: &mut Gen) -> Option<(distconv_cost::DistPlan, u64)> {
    let nb = [1usize, 2, 4][g.usize_in(0, 2)];
    let nk = [2usize, 4, 8][g.usize_in(0, 2)];
    let nc = [2usize, 4, 8][g.usize_in(0, 2)];
    let hw = [4usize, 6, 8][g.usize_in(0, 2)];
    let rs = [1usize, 3][g.usize_in(0, 1)];
    let procs = [2usize, 4, 8][g.usize_in(0, 2)];
    let p = Conv2dProblem::square(nb, nk, nc, hw, rs);
    let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
        .plan()
        .ok()?;
    Some((plan, g.u64()))
}

#[test]
fn gvm_executor_overlap_equivalent() {
    use distconv_core::{execute, RunOptions};
    check(
        "gvm_executor_overlap_equivalent",
        Config::with_cases(CASES),
        |g| {
            let Some((plan, seed)) = gen_cnn_plan(g) else {
                return;
            };
            let fault_plan = gen_plan(g);
            let cfg = MachineConfig {
                faults: fault_plan,
                ..MachineConfig::default()
            };
            let plan = plan.into();
            let run = |comm: CommMode| {
                let opts = RunOptions {
                    verify: false,
                    comm,
                };
                execute::<f64>(&plan, seed, cfg, opts).expect("run failed")
            };
            let (b, o) = (run(CommMode::Blocking), run(CommMode::Overlapped));
            assert_eq!(b.outputs.len(), o.outputs.len(), "output ranks differ");
            for ((bc, bo, bs), (oc, oo, os)) in b.outputs.iter().zip(&o.outputs) {
                assert_eq!((bc, bo), (oc, oo), "output placement differs between modes");
                let bb: Vec<u64> = bs.as_slice().iter().map(|x| x.to_bits()).collect();
                let ob: Vec<u64> = os.as_slice().iter().map(|x| x.to_bits()).collect();
                assert_eq!(bb, ob, "rank {bc:?} Out slice bitwise mismatch");
            }
            let (br, or) = (&b.report, &o.report);
            assert_eq!(
                br.stats.per_rank_msgs, or.stats.per_rank_msgs,
                "per-rank message counts must match"
            );
            assert_eq!(
                br.stats.per_rank_elems, or.stats.per_rank_elems,
                "per-rank volumes must match"
            );
        },
    );
}

#[test]
fn gvm_executor_overlap_equivalent_under_crash_recovery() {
    use distconv_core::{execute, recover, NetworkPlan, RunOptions};
    check(
        "gvm_executor_overlap_equivalent_under_crash_recovery",
        Config::with_cases(10),
        |g| {
            let Some((plan, seed)) = gen_cnn_plan(g) else {
                return;
            };
            let procs = plan.grid.total();
            // Crash one rank at a random early send; recovery restarts
            // with rank faults cleared, so both modes converge to the
            // same fault-free final run.
            let faults =
                FaultPlan::reliable(g.u64()).with_crash(g.usize_in(0, procs - 1), g.u64() % 5 + 1);
            let cfg = MachineConfig {
                faults,
                // Survivors of the crashed attempt sit in the deadlock
                // trap until this expires; keep each retry cheap.
                recv_timeout: std::time::Duration::from_millis(500),
                ..MachineConfig::default()
            };
            let net = NetworkPlan::from(plan);
            let machine = |p| MachineSpec::new(p, plan.machine.mem);
            let run = |comm: CommMode| {
                let opts = RunOptions { verify: true, comm };
                recover(
                    &net,
                    cfg,
                    |n, c| execute::<f64>(n, seed, c, opts),
                    |p| NetworkPlan::plan_tuned(&[plan.problem], machine(p)).ok(),
                )
                .expect("recovery failed")
                .value
                .report
            };
            let blocking = run(CommMode::Blocking);
            let overlapped = run(CommMode::Overlapped);
            assert!(blocking.verified && overlapped.verified);
            assert_eq!(
                blocking.stats.per_rank_msgs, overlapped.stats.per_rank_msgs,
                "per-rank message counts must match after recovery"
            );
            assert_eq!(
                blocking.stats.per_rank_elems, overlapped.stats.per_rank_elems,
                "per-rank volumes must match after recovery"
            );
        },
    );
}
