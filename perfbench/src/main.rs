//! The repository benchmark. Drives one workload through the library's
//! public entry points, checks the outputs, and prints every metric by
//! name with its unit; the last stdout line is a JSON summary.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_open|serve_sat|serve_chaos|net_scale|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the
//! per-layer ones, timed from outside around calls into each crate.
//! See `perfbench/README.md` for what each metric means and which
//! end-to-end metric each layer metric should move.

mod probes;
mod stats;
mod workloads;

use stats::{median, percentile, sorted};
use workloads::{Engine, WindowOut, Workload};

use distconv_par::SplitMix64;
use distconv_serve::ModelReport;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("slo_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("comm_elems_per_op", "elems"),
];

/// Per-layer metrics (`--trace 1`), with units. Layers are crate names.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("serve.submit_us", "us"),
    ("serve.fill_ratio", "ratio"),
    ("serve.partial_share", "share"),
    ("serve.wait_ms", "ms"),
    ("serve.replays_per_batch", "count"),
    ("serve.degraded_share", "share"),
    ("serve.gen_late_ms", "ms"),
    ("core.dispatch_ms", "ms"),
    ("core.oracle_ms", "ms"),
    ("core.oracle_share", "share"),
    ("core.redist_elems_per_op", "elems"),
    ("simnet.msgs_per_op", "count"),
    ("simnet.spinup_ms", "ms"),
    ("simnet.residual_ms", "ms"),
    ("simnet.us_per_msg", "us"),
    ("conv.kernel_ms", "ms"),
    ("conv.kernel_gflops", "GFLOP/s"),
    ("conv.oracle_gflops", "GFLOP/s"),
    ("cost.plan_ms", "ms"),
    ("cost.replan_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Knobs the library reads from the environment, pinned so that every
/// run measures the same configuration. Every other `DISTCONV_*`
/// variable is removed: `DISTCONV_THREADS` unset lets the thread-budget
/// arbiter share the cores among ranks, and the serving knobs are set
/// in code.
const PINNED_ENV: [(&str, &str); 5] = [
    ("DISTCONV_BACKEND", "event"),
    ("DISTCONV_LOCAL_KERNEL", "fast"),
    ("DISTCONV_COMM", "overlapped"),
    ("DISTCONV_SIMD", "auto"),
    // serve_chaos injects hundreds of crashes; a backtrace for each
    // would dominate its run time.
    ("RUST_BACKTRACE", "0"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn pin_environment() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("DISTCONV_"))
        .collect();
    // Single-threaded here: nothing else reads the environment yet.
    for k in stale {
        std::env::remove_var(k);
    }
    for (k, v) in PINNED_ENV {
        std::env::set_var(k, v);
    }
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("host", host.trim().to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", commit()),
        ("simd", distconv_tensor::simd::active().name().to_string()),
        (
            "kernel",
            distconv_par::LocalKernel::from_env().name().to_string(),
        ),
        (
            "comm",
            distconv_par::CommMode::from_env().name().to_string(),
        ),
        ("backend", "event".to_string()),
        (
            "threads",
            format!("{nproc} cores shared by rank pools (DISTCONV_THREADS unset)"),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "")))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Run every workload, one child process each (so that `peak_rss_mb`
/// is per workload), passing the other flags through.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for wl in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", wl.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload run");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(wl: Workload, setup_s: f64, w: &WindowOut) -> Vec<f64> {
    vec![
        setup_s,
        w.latency_ms(50.0),
        w.latency_ms(90.0),
        w.ops_per_s(),
        w.cpu_ms_per_op(),
        w.slo_share(wl.slo_ms()),
        w.peak_rss_mb,
        w.comm_elems_per_op,
    ]
}

fn per_layer(base: &WindowOut, traced: &WindowOut, probe: &probes::Probes) -> Vec<f64> {
    let ms = &probe.models;
    let sum = |f: fn(&probes::ModelProbe) -> f64| ms.iter().map(f).sum::<f64>();
    let avg = |f| sum(f) / ms.len() as f64;
    let (dispatch, oracle, kernel) = (
        avg(|m| m.dispatch_ms),
        avg(|m| m.oracle_ms),
        avg(|m| m.kernel_ms),
    );
    let residual = dispatch - oracle - kernel - probe.spinup_ms;
    // Ops per run: requests of a full batch, or one net_scale pass.
    let ops_per_run = if traced.report.is_some() {
        sum(|m| m.nb as f64)
    } else {
        1.0
    };

    // Serving-layer tallies; all zero on net_scale, which bypasses it.
    let (mut fill, mut partial, mut wait, mut replays, mut degraded) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(report) = &traced.report {
        let total = |f: fn(&ModelReport) -> f64| report.models.iter().map(f).sum::<f64>();
        let batches = total(|m| m.batches as f64);
        let slots: usize = report
            .models
            .iter()
            .zip(ms)
            .map(|(r, p)| r.batches * p.nb)
            .sum();
        fill = total(|m| m.completed as f64) / slots as f64;
        partial = total(|m| m.partial_flushes as f64) / batches;
        replays = total(|m| m.replays as f64) / batches;
        degraded = total(|m| m.degraded_batches as f64) / batches;
        let waits = traced
            .samples
            .iter()
            .map(|o| o.latency_ms - ms[o.model].dispatch_ms);
        wait = median(waits.collect());
    }
    let base_ops = base.ops_per_s();
    vec![
        median(traced.submit_us.clone()),
        fill,
        partial,
        wait,
        replays,
        degraded,
        percentile(&sorted(traced.gen_late_ms.clone()), 99.0),
        dispatch,
        oracle,
        oracle / dispatch,
        sum(|m| m.redist_elems) / ops_per_run,
        sum(|m| m.msgs) / ops_per_run,
        probe.spinup_ms,
        residual,
        residual * 1e3 / avg(|m| m.msgs),
        kernel,
        sum(|m| m.flops) / sum(|m| m.kernel_ms) / 1e6,
        sum(|m| m.flops) / sum(|m| m.oracle_ms) / 1e6,
        avg(|m| m.plan_ms),
        avg(|m| m.replan_ms),
        (base_ops - traced.ops_per_s()) / base_ops,
    ]
}

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Report the first few panics in full, then only count them:
/// serve_chaos crashes a rank in every batch, and each crash takes the
/// rank's peers down with it.
fn count_panics() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if PANICS.fetch_add(1, Ordering::Relaxed) < 3 {
            report(info);
        }
    }));
}

fn main() -> ExitCode {
    pin_environment();
    count_panics();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(wl) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    println!("provenance {}", provenance());
    println!(
        "workload {} seed {} seconds {} trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let mut rng = SplitMix64::new(args.seed);
    let mut problems: Vec<String> = Vec::new();
    let setup = |rng: &mut SplitMix64, problems: &mut Vec<String>| -> Option<(Engine, f64)> {
        match workloads::setup(wl, rng) {
            Ok((engine, took)) => Some((engine, took.as_secs_f64())),
            Err(e) => {
                problems.push(format!("set-up: {e}"));
                None
            }
        }
    };
    // Set up several times; the last engine is driven.
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        let Some((e, secs)) = setup(&mut rng, &mut problems) else {
            break;
        };
        setups.push(secs);
        if let Some(old) = engine.replace(e) {
            problems.extend(workloads::retire(wl, old));
        }
    }

    let window = Duration::from_secs_f64(args.seconds);
    let mut windows: Vec<WindowOut> = Vec::new();
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut values = vec![0.0; names.len()];
    if let Some(engine) = engine {
        if !args.trace {
            let w = workloads::run_window(wl, engine, window, false, &mut rng);
            values = end_to_end(wl, median(setups), &w);
            windows.push(w);
        } else {
            // Half the time untraced, half traced: their throughput gap
            // is the tracing overhead. Probes run after both windows.
            let base = workloads::run_window(wl, engine, window / 2, false, &mut rng);
            if let Some((e, _)) = setup(&mut rng, &mut problems) {
                let traced = workloads::run_window(wl, e, window / 2, true, &mut rng);
                let probe = probes::run(wl, &mut rng);
                values = per_layer(&base, &traced, &probe);
                windows.push(traced);
            }
            windows.push(base);
        }
    }

    let attempted: usize = windows.iter().map(|w| w.attempted).sum();
    let mut failed: usize = windows.iter().map(|w| w.failed).sum();
    problems.extend(windows.iter().flat_map(|w| w.problems.iter().cloned()));
    for w in &windows {
        let lat = sorted(w.samples.iter().map(|o| o.latency_ms).collect());
        eprintln!(
            "perfbench: {} ops, latency p50 {:.2} p90 {:.2} p99 {:.2} max {:.2} ms; \
             generator lateness p99 {:.3} ms",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 90.0),
            percentile(&lat, 99.0),
            percentile(&lat, 100.0),
            percentile(&sorted(w.gen_late_ms.clone()), 99.0),
        );
        for (i, slice) in w.slices.iter().enumerate() {
            let lat = sorted(
                w.samples
                    .iter()
                    .filter(|o| o.slice == i)
                    .map(|o| o.latency_ms)
                    .collect(),
            );
            eprintln!(
                "perfbench:   slice {i}: {} ops, p50 {:.2} ms, {:.2} ops/s, {:.3} CPU ms/op",
                slice.issued,
                percentile(&lat, 50.0),
                slice.issued as f64 / slice.secs,
                slice.cpu_ms / slice.issued as f64
            );
        }
    }
    let panics = PANICS.load(Ordering::Relaxed);
    if panics > 0 {
        eprintln!("perfbench: {panics} rank panics (injected crashes and their fallout)");
    }
    for (&(name, unit), &v) in names.iter().zip(&values) {
        if !v.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
        println!("metric {name} {v} {unit}");
    }
    if windows.is_empty() || attempted == 0 {
        problems.push("no op was attempted".into());
    }
    if !problems.is_empty() {
        failed = failed.max(1);
    }
    for p in &problems {
        eprintln!("perfbench: gate: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let metrics: Vec<String> = names
        .iter()
        .zip(&values)
        .map(|(&(name, unit), &v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &all {
            assert!(is_name(name), "{name:?} must match [A-Za-z0-9_.-]+");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit:?}"
            );
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "names are unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = json.matches("\"name\"").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for name in END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        for wl in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", wl.name())),
                "{wl:?} missing"
            );
        }
    }
}
