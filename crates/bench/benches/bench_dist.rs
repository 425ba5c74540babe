//! Wall-clock bench: the full distributed CNN algorithm (E6/E8/E9) —
//! end-to-end wall time of plan + distribute + execute + reduce, and
//! the regime ablation (planner's grid vs forced 2D grid).

use distconv_baselines::run_data_parallel;
use distconv_bench::Suite;
use distconv_core::{execute, NetworkPlan, NetworkRun, RunOptions};
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_simnet::MachineConfig;
use std::hint::black_box;

/// One unverified run of `plan` with workload `seed`.
fn run(plan: &NetworkPlan, seed: u64) -> NetworkRun<f32> {
    let opts = RunOptions { verify: false };
    execute::<f32>(plan, seed, MachineConfig::default(), opts).expect("executor run")
}

fn layer() -> Conv2dProblem {
    Conv2dProblem::square(4, 16, 16, 8, 3)
}

fn bench_distconv() {
    let mut g = Suite::new("distconv_end_to_end");
    for procs in [4usize, 8, 16] {
        let plan = Planner::new(layer(), MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap()
            .into();
        g.bench(format!("ranks/{procs}"), move || black_box(run(&plan, 7)));
    }
    g.finish();
}

fn bench_regime_ablation() {
    // Same layer and P, optimizer grid vs forced-Pc=1 grid: the cost of
    // ignoring the paper's Case-2 option.
    let p = Conv2dProblem::square(4, 8, 32, 4, 3);
    let mut g = Suite::new("regime_ablation");
    let free = Planner::new(p, MachineSpec::new(16, 1 << 22))
        .plan()
        .unwrap()
        .into();
    let forced = Planner::new(p, MachineSpec::new(16, 1 << 22))
        .with_forced_pc(1)
        .plan()
        .unwrap()
        .into();
    g.bench("planner_choice", move || black_box(run(&free, 9)));
    g.bench("forced_pc1", move || black_box(run(&forced, 9)));
    g.finish();
}

fn bench_vs_data_parallel() {
    let p = layer();
    let mut g = Suite::new("vs_data_parallel");
    let plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
        .plan()
        .unwrap()
        .into();
    g.bench("distconv_p4", move || black_box(run(&plan, 11)));
    g.bench("data_parallel_p4", move || {
        black_box(
            run_data_parallel(p, 4, 11, true, MachineConfig::default()).expect("data_parallel run"),
        )
    });
    g.finish();
}

fn main() {
    bench_distconv();
    bench_regime_ablation();
    bench_vs_data_parallel();
}
