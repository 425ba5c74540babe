//! The memory/communication Pareto frontier: all non-dominated
//! (memory, communication) points over the feasible processor grids of
//! one layer — and a measured run at each point proving the predicted
//! trade-off is real.
//!
//! ```sh
//! cargo run --release --example pareto_frontier [procs]
//! ```

use distconv::core::{execute, RunOptions};
use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
use distconv::simnet::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::default();
    let procs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let p = Conv2dProblem::new(4, 32, 32, 8, 8, 3, 3, 1, 1);
    let planner = Planner::new(p, MachineSpec::new(procs, 1 << 24));
    let frontier = planner.pareto_frontier();

    println!("layer {p:?}, P = {procs}");
    println!(
        "{} feasible grids, {} on the Pareto frontier\n",
        planner.enumerate().len(),
        frontier.len()
    );
    println!(
        "{:>18} {:>4} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "grid (b,k,c,h,w)", "Pc", "regime", "memory g_D", "pred cost_D", "measured", "verified"
    );
    for plan in &frontier {
        let g = plan.grid;
        let r = execute::<f32>(&(*plan).into(), 3, cfg, RunOptions::default())?.report;
        println!(
            "{:>18} {:>4} {:>8} {:>12.0} {:>12.0} {:>12} {:>9}",
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
            g.pc,
            plan.regime.name(),
            plan.predicted.footprint_gd,
            plan.predicted.cost_d,
            r.measured_total(),
            r.verified,
        );
    }
    println!(
        "\nReading: each row needs more per-rank memory than the one above and\n\
         moves strictly less data — the 2D → 2.5D → 3D replication knob as a\n\
         queryable set. Pick the point matching your machine's memory, not just\n\
         the global optimum."
    );
    Ok(())
}
