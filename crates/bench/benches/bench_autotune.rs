//! Wall-clock bench: the whole-network autotuner — greedy per-layer
//! planning vs the candidate-grid DP with exactly-costed inter-layer
//! redistribution, plus executed forward passes under both plans.
//!
//! The headline derived field, `speedup_tuned_over_greedy`, is the
//! ratio of summed predicted network costs (greedy / tuned) over the
//! E17 net zoo at the sweep scales — ≥ 1.0 by construction (the DP
//! contains the greedy path), and what `bench_compare --validate`
//! guards on the committed `BENCH_autotune.json`.
//!
//! `cargo bench -p distconv-bench --bench bench_autotune -- --json
//! [PATH]` writes the `distconv-bench-v1` trajectory (default
//! `BENCH_autotune.json`).

use distconv_bench::{autotune_nets, bench_report_json, greedy_chain, BenchRecord, Suite};
use distconv_core::{run_network, NetworkPlan};
use distconv_cost::MachineSpec;
use distconv_simnet::{Backend, MachineConfig};
use distconv_trace::TraceConfig;
use std::hint::black_box;

/// Planning cost: the greedy per-layer pass vs the DP (candidate
/// enumeration + O(P) redistribution costing per transition) at a
/// mid-size P.
fn bench_planning(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("autotune_planning");
    for (name, layers) in autotune_nets() {
        let machine = MachineSpec::new(256, 1 << 22);
        let l = layers.clone();
        g.bench(format!("plan_greedy/{name}"), move || {
            greedy_chain(black_box(&l), machine)
        });
        let l = layers.clone();
        g.bench(format!("plan_tuned/{name}"), move || {
            NetworkPlan::plan_tuned(black_box(&l), machine).unwrap()
        });
    }
    records.extend(g.finish());
}

/// Executed forward passes under both plans on the event backend, at a
/// P where the tuned plan genuinely differs from the greedy one.
fn bench_execution(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("autotune_exec");
    let (name, layers) = &autotune_nets()[0]; // expand: tuned differs at P=4
    let machine = MachineSpec::new(4, 1 << 22);
    let cfg = MachineConfig {
        backend: Backend::Event,
        trace: TraceConfig::off(),
        ..MachineConfig::default()
    };
    for (label, plan) in [
        ("run_greedy", greedy_chain(layers, machine)),
        (
            "run_tuned",
            NetworkPlan::plan_tuned(layers, machine).unwrap(),
        ),
    ] {
        let moved = plan
            .layers
            .iter()
            .map(|l| distconv_core::expected_volumes(l).total())
            .sum::<u128>()
            + plan.total_redist();
        g.bench_throughput(format!("{label}/{name}"), Some(moved as u64), move || {
            let r = run_network::<f32>(black_box(&plan), 41, cfg).expect("verified");
            black_box(r.stats.total_msgs())
        });
    }
    records.extend(g.finish());
}

/// Deterministic headline: summed predicted network cost, greedy over
/// tuned, across the E17 zoo and sweep scales.
fn predicted_speedup(derived: &mut Vec<(String, f64)>) {
    let (mut greedy_sum, mut tuned_sum) = (0.0f64, 0.0f64);
    for (name, layers) in autotune_nets() {
        for procs in [4usize, 16, 64, 256, 1024] {
            let machine = MachineSpec::new(procs, 1 << 22);
            let g = greedy_chain(&layers, machine);
            let t = NetworkPlan::plan_tuned(&layers, machine).unwrap();
            greedy_sum += g.predicted_total_cost();
            tuned_sum += t.predicted_total_cost();
            if procs == 64 {
                derived.push((
                    format!("redist_saved_frac_{name}_p64"),
                    1.0 - t.total_redist() as f64 / g.total_redist().max(1) as f64,
                ));
            }
        }
    }
    let speedup = greedy_sum / tuned_sum;
    println!("\npredicted network cost, greedy over tuned (zoo aggregate): {speedup:.4}x");
    derived.push(("speedup_tuned_over_greedy".into(), speedup));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_autotune.json".to_string())
    });

    let mut records = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();
    bench_planning(&mut records);
    bench_execution(&mut records);
    predicted_speedup(&mut derived);

    if let Some(path) = json_path {
        let derived_refs: Vec<(&str, f64)> =
            derived.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let json = bench_report_json(&records, &derived_refs);
        std::fs::write(&path, json + "\n").expect("write bench json");
        println!("wrote {path}");
    }
}
