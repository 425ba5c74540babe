//! A multi-layer network, forward pass, fully distributed: each layer
//! gets its own grid, chosen by the whole-network tuner, and the
//! activations are redistributed between grids. Shows the per-layer volumes, the redistribution tax,
//! and the end-to-end verification against a chained sequential
//! reference.
//!
//! ```sh
//! cargo run --release --example network_forward [procs]
//! ```

use distconv::core::{run_network, NetworkPlan};
use distconv::cost::{Conv2dProblem, MachineSpec};
use distconv::simnet::MachineConfig;

fn main() {
    let procs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    // A VGG-flavoured 4-layer chain, simulator-scaled:
    // 16×16 → 14×14 → 12×12 → 10×10 outputs, channels 4→16→32→32→16.
    let layers = vec![
        Conv2dProblem::new(2, 16, 4, 16, 16, 3, 3, 1, 1),
        Conv2dProblem::new(2, 32, 16, 14, 14, 3, 3, 1, 1),
        Conv2dProblem::new(2, 32, 32, 12, 12, 3, 3, 1, 1),
        Conv2dProblem::new(2, 16, 32, 10, 10, 3, 3, 1, 1),
    ];

    let plan = NetworkPlan::plan_tuned(&layers, MachineSpec::new(procs, 1 << 22))
        .expect("network plannable");
    println!("P = {procs}\n");
    println!(
        "{:<8} {:>24} {:>8} {:>14} {:>14}",
        "layer", "grid (b,k,c,h,w)", "regime", "fwd volume", "redist after"
    );
    for (i, lp) in plan.layers.iter().enumerate() {
        let g = lp.grid;
        let fwd = distconv::core::expected_volumes(lp).total();
        let redist = plan
            .redist_volumes
            .get(i)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<8} {:>24} {:>8} {:>14} {:>14}",
            format!("conv{i}"),
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
            lp.regime.name(),
            fwd,
            redist
        );
    }

    let r = run_network::<f32>(&plan, 7, MachineConfig::default()).expect("verified");
    println!();
    println!("verified end-to-end : {}", r.verified);
    println!(
        "measured total      : {} elems (expected {}, exact match {})",
        r.stats.total_elems(),
        r.expected_total(),
        r.stats.total_elems() as u128 == r.expected_total()
    );
    println!(
        "redistribution share: {:.1}% of total traffic",
        100.0 * r.expected_redist as f64 / r.expected_total() as f64
    );
    println!("peak memory         : {} elems/rank", r.max_peak_mem);
    println!(
        "\nReading: per-layer grids differ (early layers split pixels,\n\
         late layers split channels/features), and the activation redistribution\n\
         between grids is a real, measured cost the single-layer theory does not\n\
         model — reported here as a first-class line item."
    );
}
