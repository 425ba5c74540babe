//! Experiment drivers, one `eN_*` function per DESIGN.md §4 entry.

pub mod analytic;
pub mod chaos;
pub mod faults;
pub mod simulated;
pub mod trace;

pub use analytic::{e1_table1, e2_table2, e4_property5, e5_ml_deflation, e8_regime_sweep};
pub use chaos::{e16_chaos_sweep, e16_degraded_recovery, E16_CHAOS_SEED};
pub use faults::{e13_fault_sweep, E13_FAULT_SEED};
pub use simulated::{
    autotune_nets, e10_scaling, e11_alpha_beta, e12_network, e15_scale_sweep, e17_autotune,
    e3_gvm_exactness, e6_distributed, e7_matmul_analogy, e9_baselines, e9_baselines_analytic,
};
pub use trace::{e14_sample_trace, e14_trace_conformance, validate_chrome_trace};

use distconv_core::{
    execute, mark_recovery, recover, CoreError, NetworkPlan, NetworkRun, Recovered, RunOptions,
};
use distconv_cost::{Conv2dProblem, DistPlan, MachineSpec, Planner};
use distconv_simnet::MachineConfig;

/// The per-layer greedy baseline the whole-network tuner is measured
/// against: each layer's own [`Planner::plan`] pick, chained by
/// [`NetworkPlan::from_layers`]. Panics if a layer cannot be planned.
pub fn greedy_chain(layers: &[Conv2dProblem], machine: MachineSpec) -> NetworkPlan {
    let picks = layers
        .iter()
        .map(|&p| Planner::new(p, machine).plan().unwrap());
    NetworkPlan::from_layers(picks.collect()).unwrap()
}

/// Run one planned layer as a one-layer network with workload `seed`,
/// verified against the sequential reference when `verify`. Panics if
/// the machine fails or the result is wrong: an experiment's table
/// would be meaningless either way.
fn run_layer(plan: DistPlan, seed: u64, cfg: MachineConfig, verify: bool) -> NetworkRun<f64> {
    execute::<f64>(&plan.into(), seed, cfg, RunOptions { verify }).unwrap_or_else(|e| panic!("{e}"))
}

/// A verified one-layer run under [`recover`], degrading onto a
/// re-plan over the survivors, accounted by [`mark_recovery`]; also
/// returns the checkpoint redistribution onto the survivor plan.
fn run_layer_recovering(
    plan: DistPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<(Recovered<NetworkPlan, NetworkRun<f64>>, u64), CoreError> {
    let net = NetworkPlan::from(plan);
    let machine = |p| MachineSpec::new(p, plan.machine.mem);
    let mut done = recover(
        &net,
        cfg,
        |n, c| execute::<f64>(n, seed, c, RunOptions::default()),
        |p| NetworkPlan::plan_tuned(&[plan.problem], machine(p)).ok(),
    )?;
    let redist = mark_recovery(&net, &mut done);
    Ok((done, redist))
}
