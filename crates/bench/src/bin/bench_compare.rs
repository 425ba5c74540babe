//! Compare (or validate) `BENCH_*.json` bench-trajectory files.
//!
//! ```text
//! bench_compare --validate FILE [--require SUBSTR]...
//!                                      # schema + sanity checks, exit 1 on failure
//! bench_compare OLD.json NEW.json      # per-case speedup table
//! ```
//!
//! Each `--require SUBSTR` demands that some `suite/label` case key
//! contains `SUBSTR` — CI uses this to pin the presence of the
//! `fast_simd` and `oracle_nets` records in `BENCH_kernels.json`.
//! Validation also enforces the `direct_par` regression guard — for
//! every `…/direct_par` case with a sibling `…/direct` case whose
//! recorded work reaches `PAR_MADD_CUTOFF`, `direct_par` must not be
//! slower by more than 10% — uniformly in quick and full mode, plus
//! the autotune and serving derived-field guards. Below the cutoff both
//! labels run the same serial code, so their ratio is host noise and
//! the pair is reported, not judged.
//!
//! Usually invoked through `scripts/bench_compare.sh`. Files are the
//! `distconv-bench-v1` schema written by
//! `cargo bench --bench bench_kernels -- --json`.

use distconv_conv::kernels::PAR_MADD_CUTOFF;
use distconv_cost::json::JsonValue;
use std::process::ExitCode;

struct Case {
    key: String,
    median_ns: f64,
    flops: Option<f64>,
    gflops: Option<f64>,
}

struct Report {
    quick: bool,
    cases: Vec<Case>,
    derived: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some("distconv-bench-v1") => {}
        other => return Err(format!("{path}: unsupported schema {other:?}")),
    }
    let quick = v.get("quick").and_then(|q| q.as_f64()).unwrap_or(0.0) != 0.0;
    let records = v
        .get("records")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{path}: missing records array"))?;
    let mut cases = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let suite = r
            .get("suite")
            .and_then(|s| s.as_str())
            .ok_or_else(|| format!("{path}: record {i} missing suite"))?;
        let label = r
            .get("label")
            .and_then(|s| s.as_str())
            .ok_or_else(|| format!("{path}: record {i} missing label"))?;
        let median_ns = r
            .get("median_ns")
            .and_then(|m| m.as_f64())
            .ok_or_else(|| format!("{path}: record {i} missing median_ns"))?;
        if median_ns <= 0.0 {
            return Err(format!("{path}: record {i} non-positive median_ns"));
        }
        cases.push(Case {
            key: format!("{suite}/{label}"),
            median_ns,
            flops: r.get("flops").and_then(|f| f.as_f64()),
            gflops: r.get("gflops").and_then(|g| g.as_f64()),
        });
    }
    let derived = match v.get("derived") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, val)| val.as_f64().map(|x| (k.clone(), x)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Report {
        quick,
        cases,
        derived,
    })
}

/// Suites where both `direct` and `direct_par` appear, on work at or
/// above `PAR_MADD_CUTOFF`, may see the parallel kernel at most this
/// factor slower than the serial one.
const DIRECT_PAR_SLOWDOWN_LIMIT: f64 = 1.10;

fn validate(path: &str, require: &[String]) -> Result<(), String> {
    let rep = load(path)?;
    if rep.cases.is_empty() {
        return Err(format!("{path}: no bench records"));
    }
    for want in require {
        if !rep.cases.iter().any(|c| c.key.contains(want.as_str())) {
            return Err(format!(
                "{path}: no case key contains required substring {want:?}"
            ));
        }
    }
    // The direct_par guard applies uniformly: quick mode shortens the
    // measurement but the serial-fallback cutoff it polices is just as
    // visible there, and skipping it let CI quick runs mask a real
    // regression.
    check_direct_par_guard(path, &rep)?;
    check_autotune_guard(path, &rep)?;
    check_serving_guard(path, &rep)?;
    println!(
        "{path}: ok — {} records{}, derived: {}",
        rep.cases.len(),
        if rep.quick { " (quick mode)" } else { "" },
        if rep.derived.is_empty() {
            "none".to_string()
        } else {
            rep.derived
                .iter()
                .map(|(k, v)| format!("{k}={v:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    Ok(())
}

/// The satellite regression guard: `direct_par` must never be slower
/// than `direct` by more than [`DIRECT_PAR_SLOWDOWN_LIMIT`] in any
/// suite that records both, where the work (`flops / 2` multiply-adds;
/// a chained record's total) reaches `PAR_MADD_CUTOFF`. Below it,
/// `conv2d_direct_par` runs the same plane body on a one-thread pool,
/// so the two labels time one serial code path and a ratio past the
/// limit only measures the host. A record without `flops` is judged.
fn check_direct_par_guard(path: &str, rep: &Report) -> Result<(), String> {
    for c in &rep.cases {
        let Some(suite) = c.key.strip_suffix("/direct_par") else {
            continue;
        };
        let direct_key = format!("{suite}/direct");
        let Some(d) = rep.cases.iter().find(|o| o.key == direct_key) else {
            continue;
        };
        let ratio = c.median_ns / d.median_ns;
        if c.flops.is_some_and(|f| f / 2.0 < PAR_MADD_CUTOFF as f64) {
            println!(
                "{path}: {key} vs {direct_key}: {ratio:.2}x (not judged: \
                 below PAR_MADD_CUTOFF, both run the serial kernel)",
                key = c.key
            );
            continue;
        }
        if ratio > DIRECT_PAR_SLOWDOWN_LIMIT {
            return Err(format!(
                "{path}: {key} is {ratio:.2}x slower than {direct_key} \
                 (limit {DIRECT_PAR_SLOWDOWN_LIMIT:.2}x) on work above \
                 PAR_MADD_CUTOFF, where direct_par runs on the pool; \
                 re-measure or fix the cutoff",
                key = c.key,
            ));
        }
        println!(
            "{path}: {key} vs {direct_key}: {ratio:.2}x (ok)",
            key = c.key
        );
    }
    Ok(())
}

/// The autotuner acceptance guard: when a file carries the
/// `speedup_tuned_over_greedy` derived field (BENCH_autotune.json), it
/// must be ≥ 1.0 — the network DP contains the greedy path, so a value
/// below 1 means the tuner regressed into actively losing to greedy
/// planning. Derived fields are deterministic predicted-cost ratios,
/// so this holds in quick mode too.
fn check_autotune_guard(path: &str, rep: &Report) -> Result<(), String> {
    let key = "speedup_tuned_over_greedy";
    if let Some((_, v)) = rep.derived.iter().find(|(k, _)| k == key) {
        if *v < 1.0 {
            return Err(format!(
                "{path}: derived {key} = {v:.4} < 1.0 — the tuned network \
                 plan must never cost more than the greedy one (the DP \
                 includes the greedy path); the planner or DP regressed"
            ));
        }
        println!("{path}: derived {key} = {v:.4} (>= 1.0, ok)");
    }
    Ok(())
}

/// The serving acceptance guard: when a file carries the serving
/// latency percentiles (BENCH_serving.json), they must be ordered
/// (p50 ≤ p95 ≤ p99, all positive) and the saturation throughput must
/// be positive. Percentile ordering is a property of the estimator,
/// not the machine, so this holds in quick mode too.
fn check_serving_guard(path: &str, rep: &Report) -> Result<(), String> {
    let find = |key: &str| rep.derived.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    let Some(p50) = find("serving_p50_ms") else {
        return Ok(());
    };
    let p95 = find("serving_p95_ms")
        .ok_or_else(|| format!("{path}: serving_p50_ms present but serving_p95_ms missing"))?;
    let p99 = find("serving_p99_ms")
        .ok_or_else(|| format!("{path}: serving_p50_ms present but serving_p99_ms missing"))?;
    let rps = find("serving_saturation_rps")
        .ok_or_else(|| format!("{path}: serving percentiles present but saturation rps missing"))?;
    if !(p50 > 0.0 && p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "{path}: serving percentiles disordered: p50={p50:.3} p95={p95:.3} p99={p99:.3} \
             (need 0 < p50 <= p95 <= p99)"
        ));
    }
    if rps <= 0.0 {
        return Err(format!(
            "{path}: serving_saturation_rps = {rps:.3} must be positive — the saturation \
             scan found no sustainable offered load"
        ));
    }
    println!(
        "{path}: serving p50/p95/p99 = {p50:.3}/{p95:.3}/{p99:.3} ms, \
         saturation {rps:.1} req/s (ok)"
    );
    Ok(())
}

fn compare(old_path: &str, new_path: &str) -> Result<(), String> {
    let old = load(old_path)?;
    let new = load(new_path)?;
    if old.quick || new.quick {
        eprintln!("warning: comparing quick-mode timings — speedups are meaningless");
    }
    println!(
        "| {:<44} | {:>10} | {:>10} | {:>8} |",
        "case", "old", "new", "speedup"
    );
    println!(
        "|{}|{}|{}|{}|",
        "-".repeat(46),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(10)
    );
    let mut matched = 0;
    for n in &new.cases {
        let Some(o) = old.cases.iter().find(|o| o.key == n.key) else {
            println!(
                "| {:<44} | {:>10} | {:>10} | {:>8} |",
                n.key,
                "-",
                ms(n.median_ns),
                "new"
            );
            continue;
        };
        matched += 1;
        println!(
            "| {:<44} | {:>10} | {:>10} | {:>7.2}x |",
            n.key,
            ms(o.median_ns),
            ms(n.median_ns),
            o.median_ns / n.median_ns
        );
        if let (Some(og), Some(ng)) = (o.gflops, n.gflops) {
            let _ = (og, ng); // GFLOP/s implied by the time ratio; kept in the files
        }
    }
    for o in &old.cases {
        if !new.cases.iter().any(|n| n.key == o.key) {
            println!(
                "| {:<44} | {:>10} | {:>10} | {:>8} |",
                o.key,
                ms(o.median_ns),
                "-",
                "gone"
            );
        }
    }
    for (k, nv) in &new.derived {
        match old.derived.iter().find(|(ok, _)| ok == k) {
            Some((_, ov)) => println!("derived {k}: {ov:.3} -> {nv:.3}"),
            None => println!("derived {k}: {nv:.3} (new)"),
        }
    }
    if matched == 0 {
        return Err("no common cases between the two files".into());
    }
    Ok(())
}

fn ms(ns: f64) -> String {
    if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{:.2} ms", ns / 1e6)
    }
}

/// Parse trailing `--require SUBSTR` pairs after `--validate FILE`.
fn parse_requires(rest: &[String]) -> Result<Vec<String>, String> {
    let mut require = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag != "--require" {
            return Err(format!(
                "unexpected argument {flag:?} (want --require SUBSTR)"
            ));
        }
        match it.next() {
            Some(s) => require.push(s.clone()),
            None => return Err("--require needs a substring argument".into()),
        }
    }
    Ok(require)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, path, rest @ ..] if flag == "--validate" => {
            parse_requires(rest).and_then(|require| validate(path, &require))
        }
        [old, new] => compare(old, new),
        _ => Err(
            "usage: bench_compare --validate FILE [--require SUBSTR]... \
             | bench_compare OLD.json NEW.json"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::FAILURE
        }
    }
}
