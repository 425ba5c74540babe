//! Quickstart: plan one layer, run it on the simulated machine, and
//! compare predicted against measured communication.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distconv::core::{execute, NetworkPlan, RunOptions};
use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
use distconv::simnet::MachineConfig;

fn main() {
    // A ResNet-shaped layer, scaled to run in a second: batch 4,
    // 32 -> 32 features, 16x16 output, 3x3 kernel, stride 1.
    let problem = Conv2dProblem::new(4, 32, 32, 16, 16, 3, 3, 1, 1);
    // 16 simulated ranks, 2^20 words (4 MiB of f32) each.
    let machine = MachineSpec::new(16, 1 << 20);

    // Step 1+2 (paper Sec. 2.1): solve the two-level tile-size
    // optimization and pick the processor grid.
    let plan = Planner::new(problem, machine)
        .plan()
        .expect("feasible plan");
    println!("layer            : {problem:?}");
    println!(
        "grid  Pb,Pk,Pc,Ph,Pw : {}x{}x{}x{}x{}  (regime: {})",
        plan.grid.pb,
        plan.grid.pk,
        plan.grid.pc,
        plan.grid.ph,
        plan.grid.pw,
        plan.regime.name()
    );
    println!(
        "work  Wb,Wk,Wc,Wh,Ww : {},{},{},{},{}",
        plan.w.wb, plan.w.wk, plan.w.wc, plan.w.wh, plan.w.ww
    );
    println!(
        "tiles Tb,Tk,Tc,Th,Tw : {},{},{},{},{}",
        plan.t.tb, plan.t.tk, plan.t.tc, plan.t.th, plan.t.tw
    );
    println!(
        "predicted (Eq.10)    : cost_I {:.0} + cost_C {:.0} = cost_D {:.0} elems/rank",
        plan.predicted.cost_i, plan.predicted.cost_c, plan.predicted.cost_d
    );

    // Step 3+4 (Sec. 2.2): distribute, execute with the rotating
    // broadcast schedule, reduce, and verify against the sequential
    // reference. A single layer runs as a one-layer network.
    let report = execute::<f32>(
        &NetworkPlan::from(plan),
        42,
        MachineConfig::default(),
        RunOptions::default(),
    )
    .expect("distributed result must match the sequential reference")
    .report;

    println!();
    println!("verified             : {}", report.verified);
    println!(
        "measured traffic     : {} elems total ({:.0} per rank)",
        report.measured_total(),
        report.measured_total() as f64 / 16.0
    );
    println!(
        "schedule model       : {} elems (exact match: {})",
        report.expected_total(),
        report.expected_total() == report.measured_total()
    );
    println!(
        "peak memory          : {} elems/rank (Eq.11 budget: {:.0})",
        report.max_peak_mem, plan.predicted.footprint_gd
    );
    println!("simulated comm time  : {:.3} ms", report.sim_time * 1e3);

    assert!(report.verified);
    assert_eq!(report.measured_total(), report.expected_total());
}
