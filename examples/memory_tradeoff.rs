//! The memory/communication trade-off: sweep the per-rank memory M_D
//! at fixed P and watch the planner's grid move through the 2D →
//! replicated (2.5D/3D) regimes while predicted and *measured* volumes
//! fall — the CNN incarnation of the matmul trade-off the paper builds
//! on.
//!
//! ```sh
//! cargo run --release --example memory_tradeoff
//! ```

use distconv::core::{execute, RunOptions};
use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
use distconv::simnet::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::default();
    // Channel-heavy layer at P = 16 so replication along c pays off.
    let p = Conv2dProblem::new(4, 32, 32, 8, 8, 3, 3, 1, 1);
    let procs = 16;
    println!("layer {p:?}, P = {procs}\n");
    println!(
        "{:>8} {:>14} {:>4} {:>8} {:>12} {:>12} {:>10}",
        "M_D", "grid", "Pc", "regime", "pred cost_D", "measured", "peak mem"
    );
    for shift in [11usize, 12, 13, 14, 16, 18, 20] {
        let mem = 1usize << shift;
        match Planner::new(p, MachineSpec::new(procs, mem)).plan() {
            Ok(plan) => {
                let r = execute::<f32>(&plan.into(), 7, cfg, RunOptions::default())?.report;
                let g = plan.grid;
                println!(
                    "{:>8} {:>14} {:>4} {:>8} {:>12.0} {:>12} {:>10}",
                    format!("2^{shift}"),
                    format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
                    g.pc,
                    plan.regime.name(),
                    plan.predicted.cost_d,
                    r.measured_total(),
                    r.max_peak_mem,
                );
            }
            Err(e) => println!("{:>8} infeasible: {e}", format!("2^{shift}")),
        }
    }
    println!(
        "\nReading: more memory → the planner replicates Out along c (Pc > 1),\n\
         trading memory for lower broadcast volume, exactly as 2.5D/3D matmul\n\
         trades replicated C copies for narrower panel broadcasts."
    );
    Ok(())
}
