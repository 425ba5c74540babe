//! Pipeline fault-transparency proptests: for random shapes, grids,
//! seeds and (reliable) fault plans, the double-buffered pipelines of
//! all four distmm algorithms and the distributed CNN executor must
//! produce bit-identical outputs and identical algorithmic traffic
//! counters to the same pipeline on a fault-free machine — including
//! after crash/recovery.
//!
//! Runs on the in-tree `distconv_par::proptest_mini` harness: a failing
//! case prints its seed, and `DISTCONV_PROPTEST_SEED=<seed>` replays
//! exactly that case.

use distconv_core::NetworkRun;
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_distmm::{
    cannon_rank_body, dns3d_rank_body, s25d_rank_body, summa_rank_body, MatmulDims,
};
use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_simnet::{FaultPlan, Machine, MachineConfig, Rank, StatsSnapshot};
use distconv_tensor::Matrix;

// Each case runs two full machines per algorithm; keep sizes small.
const CASES: u32 = 30;

/// A reliable (or no-op) link-fault plan — the class under which the
/// transport guarantees bit-identical delivery.
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

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The algorithmic (non-fault) counters must match the fault-free run.
fn assert_same_counters(faulty: &StatsSnapshot, clean: &StatsSnapshot, plan: &FaultPlan) {
    assert_eq!(
        faulty.per_rank_msgs, clean.per_rank_msgs,
        "per-rank message counts must match under {plan:?}"
    );
    assert_eq!(
        faulty.per_rank_elems, clean.per_rank_elems,
        "per-rank volumes must match under {plan:?}"
    );
}

/// Run `body` under `plan` and on a fault-free machine; results must be
/// bitwise identical and the algorithmic counters exactly equal.
fn assert_fault_transparent<F>(p: usize, plan: FaultPlan, body: F)
where
    F: Fn(&Rank<f64>) -> Matrix<f64> + Send + Sync + Copy,
{
    let run = |faults: FaultPlan| {
        let cfg = MachineConfig {
            faults,
            ..MachineConfig::default()
        };
        Machine::run::<f64, _, _>(p, cfg, body)
    };
    let faulty = run(plan);
    let clean = run(FaultPlan::default());
    for (r, (f, c)) in faulty.results.iter().zip(&clean.results).enumerate() {
        assert_eq!(
            bits(f.as_slice()),
            bits(c.as_slice()),
            "rank {r} bitwise mismatch under {plan:?}"
        );
    }
    assert_same_counters(&faulty.stats, &clean.stats, &plan);
}

/// Every output slice of `faulty` must sit where `clean`'s does and be
/// bitwise equal to it, with the same algorithmic counters.
fn assert_same_run(faulty: &NetworkRun<f64>, clean: &NetworkRun<f64>, plan: &FaultPlan) {
    assert_eq!(
        faulty.outputs.len(),
        clean.outputs.len(),
        "output ranks differ"
    );
    for ((fc, fo, fs), (cc, co, cs)) in faulty.outputs.iter().zip(&clean.outputs) {
        assert_eq!(
            (fc, fo),
            (cc, co),
            "output placement differs under {plan:?}"
        );
        assert_eq!(
            bits(fs.as_slice()),
            bits(cs.as_slice()),
            "rank {fc:?} Out slice bitwise mismatch under {plan:?}"
        );
    }
    assert_same_counters(&faulty.report.stats, &clean.report.stats, plan);
}

#[test]
fn cannon_pipeline_fault_transparent() {
    check(
        "cannon_pipeline_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let q = g.usize_in(1, 3);
            let d = MatmulDims::new(g.usize_in(1, 16), g.usize_in(1, 16), g.usize_in(1, 16));
            let plan = gen_plan(g);
            assert_fault_transparent(q * q, plan, move |rank| cannon_rank_body(rank, &d, q));
        },
    );
}

#[test]
fn summa_pipeline_fault_transparent() {
    check(
        "summa_pipeline_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let pr = g.usize_in(1, 3);
            let pc = g.usize_in(1, 3);
            let d = MatmulDims::new(g.usize_in(1, 16), g.usize_in(1, 16), g.usize_in(1, 16));
            let plan = gen_plan(g);
            assert_fault_transparent(pr * pc, plan, move |rank| summa_rank_body(rank, &d, pr, pc));
        },
    );
}

#[test]
fn s25d_pipeline_fault_transparent() {
    check(
        "s25d_pipeline_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p1 = g.usize_in(1, 2);
            let c = g.usize_in(1, 3);
            let d = MatmulDims::new(g.usize_in(1, 12), g.usize_in(2, 12), g.usize_in(1, 12));
            let plan = gen_plan(g);
            assert_fault_transparent(c * p1 * p1, plan, move |rank| {
                s25d_rank_body(rank, &d, p1, c)
            });
        },
    );
}

#[test]
fn dns3d_pipeline_fault_transparent() {
    check(
        "dns3d_pipeline_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p1 = g.usize_in(1, 2);
            let d = MatmulDims::new(g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
            let plan = gen_plan(g);
            assert_fault_transparent(p1 * p1 * p1, plan, move |rank| {
                dns3d_rank_body(rank, &d, p1)
            });
        },
    );
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
fn gvm_executor_pipeline_fault_transparent() {
    use distconv_core::{execute, RunOptions};
    check(
        "gvm_executor_pipeline_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let Some((plan, seed)) = gen_cnn_plan(g) else {
                return;
            };
            let fault_plan = gen_plan(g);
            let plan = plan.into();
            let run = |faults: FaultPlan| {
                let cfg = MachineConfig {
                    faults,
                    ..MachineConfig::default()
                };
                execute::<f64>(&plan, seed, cfg, RunOptions { verify: false }).expect("run failed")
            };
            assert_same_run(&run(fault_plan), &run(FaultPlan::default()), &fault_plan);
        },
    );
}

#[test]
fn gvm_executor_pipeline_fault_transparent_under_crash_recovery() {
    use distconv_core::{execute, recover, NetworkPlan, RunOptions};
    check(
        "gvm_executor_pipeline_fault_transparent_under_crash_recovery",
        Config::with_cases(10),
        |g| {
            let Some((plan, seed)) = gen_cnn_plan(g) else {
                return;
            };
            let procs = plan.grid.total();
            // Crash one rank at a random early send; recovery restarts
            // with rank faults cleared, so the final attempt must equal
            // the fault-free run.
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
            let opts = RunOptions::default();
            let recovered = recover(
                &net,
                cfg,
                |n, c| execute::<f64>(n, seed, c, opts),
                |p| NetworkPlan::plan_tuned(&[plan.problem], machine(p)).ok(),
            )
            .expect("recovery failed");
            assert!(
                recovered.degraded.is_none(),
                "a transient crash never degrades"
            );
            let clean =
                execute::<f64>(&net, seed, MachineConfig::default(), opts).expect("fault-free run");
            assert!(recovered.value.report.verified && clean.report.verified);
            assert_same_run(&recovered.value, &clean, &faults);
        },
    );
}
