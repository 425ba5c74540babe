//! Wall-clock bench: the dynamic-batching serving layer — raw batch
//! dispatch cost per model, then an end-to-end server run measuring
//! request latency percentiles and closed-loop saturation throughput.
//!
//! The headline derived fields are `serving_p50_ms` / `serving_p95_ms`
//! / `serving_p99_ms` (per-request latency under paced `Nb`-sized
//! waves) and `serving_saturation_rps` (completed requests per second
//! with every tenant queue kept full) — what `bench_compare --validate
//! --require serving` guards on the committed `BENCH_serving.json`.
//!
//! `cargo bench -p distconv-bench --bench bench_serving -- --json
//! [PATH]` writes the `distconv-bench-v1` trajectory (default
//! `BENCH_serving.json` at the workspace root).

use distconv_bench::wallbench::BenchConfig;
use distconv_bench::{autotune_nets, write_json_report, BenchRecord, Suite};
use distconv_core::{dispatch_batch, NetworkPlan};
use distconv_cost::MachineSpec;
use distconv_serve::{ModelSpec, ServeConfig, Server};
use distconv_simnet::{Backend, MachineConfig};
use distconv_trace::TraceConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The simulated cluster every model plans against: 4 ranks, 2^22
/// words each — the scale where the tuned plans genuinely differ from
/// greedy ones and a batch executes in milliseconds.
const PROCS: usize = 4;
const MEM: usize = 1 << 22;

fn sim_cfg() -> MachineConfig {
    MachineConfig {
        backend: Backend::Event,
        trace: TraceConfig::off(),
        ..MachineConfig::default()
    }
}

/// Raw cost of one verified batch dispatch (plan → distribute →
/// execute → reduce, plus per-sample digesting) for each E17 net.
fn bench_dispatch(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("serving_dispatch");
    for (name, layers) in autotune_nets() {
        let machine = MachineSpec::new(PROCS, MEM);
        let plan = NetworkPlan::plan_tuned(&layers, machine).unwrap();
        let nb = layers[0].nb as u64;
        let cfg = sim_cfg();
        g.bench_throughput(format!("dispatch_batch/{name}"), Some(nb), move || {
            let run = dispatch_batch::<f64>(black_box(&plan), 41, cfg).expect("verified");
            black_box(run.digests.len())
        });
    }
    records.extend(g.finish());
}

fn tenants() -> Vec<ModelSpec> {
    autotune_nets()
        .into_iter()
        .map(|(name, layers)| ModelSpec {
            name: name.to_string(),
            layers,
            machine: MachineSpec::new(PROCS, MEM),
        })
        .collect()
}

/// Paced load: one full `Nb` wave at a time against a single-tenant
/// server, drained between waves — the percentiles measure service
/// latency (batch formation + dispatch), not queueing depth.
fn latency_percentiles(derived: &mut Vec<(String, f64)>) {
    let waves = if BenchConfig::from_env().quick { 2 } else { 8 };
    let spec = tenants().remove(0);
    let nb = spec.layers[0].nb;
    let server = Server::start(
        vec![spec],
        ServeConfig {
            latency_budget: Duration::from_millis(25),
            queue_capacity: 64,
            clusters: 1,
            machine: sim_cfg(),
        },
    )
    .expect("plannable");
    for wave in 0..waves {
        for slot in 0..nb {
            server
                .submit(0, 1000 + (wave * nb + slot) as u64)
                .expect("under capacity");
        }
        assert!(server.drain(Duration::from_secs(120)), "wave drain timeout");
    }
    let (report, results, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(results.len(), waves * nb);
    let m = &report.models[0];
    println!(
        "\nserving latency (paced, {} waves of Nb={nb}): p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        waves, m.p50_ms, m.p95_ms, m.p99_ms
    );
    derived.push(("serving_p50_ms".into(), m.p50_ms));
    derived.push(("serving_p95_ms".into(), m.p95_ms));
    derived.push(("serving_p99_ms".into(), m.p99_ms));
}

/// Closed-loop saturation: every tenant's queue is filled up front and
/// two clusters drain them flat out — completed requests over the
/// submit→drain wall time is the saturation throughput.
fn saturation_scan(derived: &mut Vec<(String, f64)>) {
    let per_model = if BenchConfig::from_env().quick { 8 } else { 32 };
    let models = tenants();
    let n_models = models.len();
    let server = Server::start(
        models,
        ServeConfig {
            latency_budget: Duration::from_millis(25),
            queue_capacity: per_model.max(64),
            clusters: 2,
            machine: sim_cfg(),
        },
    )
    .expect("plannable");
    let t = Instant::now();
    for i in 0..per_model {
        for model in 0..n_models {
            server
                .submit(model, 5000 + (model * per_model + i) as u64)
                .expect("under capacity");
        }
    }
    assert!(server.drain(Duration::from_secs(600)), "drain timeout");
    let wall_s = t.elapsed().as_secs_f64();
    let (report, _, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(report.total_completed(), per_model * n_models);
    assert_eq!(report.total_rejected(), 0);
    let conf = report.conformance();
    assert!(conf.pass(), "{:?}", conf.failures());
    let rps = report.total_completed() as f64 / wall_s;
    println!(
        "serving saturation ({n_models} tenants x {per_model} reqs, 2 clusters): {rps:.1} req/s"
    );
    derived.push(("serving_saturation_rps".into(), rps));
}

fn main() {
    let mut records = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();
    bench_dispatch(&mut records);
    latency_percentiles(&mut derived);
    saturation_scan(&mut derived);

    let derived: Vec<(&str, f64)> = derived.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_json_report("BENCH_serving.json", &records, &derived);
}
