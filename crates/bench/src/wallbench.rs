//! A tiny wall-clock bench runner: the in-tree replacement for
//! `criterion` (hermeticity policy, DESIGN.md).
//!
//! Each `benches/bench_*.rs` target is a plain `main()` (the manifests
//! keep `harness = false`) that builds [`Suite`]s and times closures.
//! Compared to criterion this keeps: named groups, per-case labels,
//! warmup, multiple timed batches with min/median reporting, and a
//! throughput column. It drops: statistical regression analysis, HTML
//! reports, and saved baselines — for this repo the benches are
//! *relative* ablations (blocked vs parallel, optimal vs bad tiles),
//! where a median over a few batches answers the question.
//!
//! Environment knobs:
//!
//! * `DISTCONV_BENCH_QUICK=1` — one warmup + one batch of one
//!   iteration per case. CI uses this as a "benches still run" smoke
//!   test; timings are meaningless in this mode.
//! * `DISTCONV_BENCH_BATCHES=<n>` — timed batches per case (default 7).
//! * `DISTCONV_BENCH_MIN_MS=<n>` — target milliseconds per batch
//!   (default 40): iterations per batch are auto-calibrated so one
//!   batch runs at least this long.

use distconv_cost::json::{JsonArray, JsonObject};
use distconv_cost::ToJson;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Resolved runner settings (see module docs for the env knobs).
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Timed batches per case; the median batch is reported.
    pub batches: u32,
    /// Target wall time per batch, used to calibrate iterations.
    pub min_batch: Duration,
    /// Smoke mode: one iteration, one batch.
    pub quick: bool,
}

impl BenchConfig {
    /// Read configuration from the environment.
    pub fn from_env() -> Self {
        let quick = std::env::var("DISTCONV_BENCH_QUICK").is_ok_and(|v| v != "0");
        let batches = std::env::var("DISTCONV_BENCH_BATCHES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(7);
        let min_ms = std::env::var("DISTCONV_BENCH_MIN_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(40u64);
        BenchConfig {
            batches: batches.max(1),
            min_batch: Duration::from_millis(min_ms.max(1)),
            quick,
        }
    }
}

/// A named group of benchmark cases, printed as a table on [`Suite::finish`].
pub struct Suite {
    name: String,
    cfg: BenchConfig,
    rows: Vec<Row>,
}

struct Row {
    label: String,
    iters: u64,
    median_ns: f64,
    min_ns: f64,
    throughput: Option<u64>,
    flops: Option<u64>,
}

/// One finished measurement, as returned by [`Suite::finish`] — the
/// machine-readable twin of a printed table row, serializable via
/// [`ToJson`] for bench-trajectory files (`BENCH_*.json`).
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Suite (group) name.
    pub suite: String,
    /// Case label within the suite.
    pub label: String,
    /// Iterations per timed batch.
    pub iters: u64,
    /// Median per-iteration wall time over the batches, nanoseconds.
    pub median_ns: f64,
    /// Fastest per-iteration wall time, nanoseconds.
    pub min_ns: f64,
    /// Elements processed per iteration, if declared.
    pub elems: Option<u64>,
    /// Floating-point operations per iteration, if declared.
    pub flops: Option<u64>,
}

impl BenchRecord {
    /// Median throughput in GFLOP/s, if `flops` was declared.
    pub fn gflops(&self) -> Option<f64> {
        self.flops.map(|f| f as f64 / (self.median_ns / 1e9) / 1e9)
    }
}

impl ToJson for BenchRecord {
    fn to_json(&self) -> String {
        let mut o = JsonObject::new()
            .field_str("suite", &self.suite)
            .field_str("label", &self.label)
            .field_usize("iters", self.iters as usize)
            .field_f64("median_ns", self.median_ns)
            .field_f64("min_ns", self.min_ns);
        if let Some(e) = self.elems {
            o = o.field_usize("elems", e as usize);
        }
        if let Some(f) = self.flops {
            o = o.field_usize("flops", f as usize);
            o = o.field_f64("gflops", self.gflops().unwrap());
        }
        o.finish()
    }
}

/// The workspace root, where the committed `BENCH_*.json` files live.
/// `cargo bench` runs each bench from its package directory
/// (`crates/bench`), so relative defaults would land there instead.
const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Handle a bench binary's `--json [PATH]` flag: write the run in the
/// `BENCH_*.json` trajectory schema to `PATH`, or to `default_file` at
/// the workspace root when no path follows the flag. No-op without the
/// flag.
pub fn write_json_report(default_file: &str, records: &[BenchRecord], derived: &[(&str, f64)]) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = json_path_from(&args, default_file) {
        let json = bench_report_json(records, derived);
        std::fs::write(&path, json + "\n").expect("write bench json");
        println!("wrote {}", path.display());
    }
}

/// The `--json [PATH]` target: `None` without the flag, `PATH` when
/// given, else `default_file` at the workspace root.
fn json_path_from(args: &[String], default_file: &str) -> Option<PathBuf> {
    let i = args.iter().position(|a| a == "--json")?;
    Some(match args.get(i + 1).filter(|a| !a.starts_with("--")) {
        Some(path) => PathBuf::from(path),
        None => Path::new(WORKSPACE_ROOT).join(default_file),
    })
}

/// Where a bench ran, in the format of perfbench's provenance line: a
/// one-line JSON object with the host name, the core count, the active
/// micro-kernel ISA path and the commit of the checkout: `<sha>`,
/// `<sha>-dirty` on a tree with uncommitted changes, or `unknown`.
pub fn provenance() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonObject::new()
        .field_str("host", host.trim())
        .field_usize("nproc", nproc)
        .field_str("simd", distconv_tensor::simd::active().name())
        .field_str("commit", &commit_of(Path::new(WORKSPACE_ROOT)))
        .finish()
}

/// The commit checked out at `dir`, as `git` names it: `<sha>` on a
/// clean tree, `<sha>-dirty` when `git diff --quiet HEAD` reports
/// changes (a BENCH file regenerated inside a change measured that
/// change, not its parent), `unknown` when git cannot tell.
fn commit_of(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
    };
    let Some(head) = git(&["rev-parse", "HEAD"]).filter(|o| o.status.success()) else {
        return "unknown".into();
    };
    let sha = String::from_utf8_lossy(&head.stdout).trim().to_string();
    match git(&["diff", "--quiet", "HEAD"]).and_then(|o| o.status.code()) {
        Some(0) => sha,
        Some(1) => format!("{sha}-dirty"),
        _ => "unknown".into(),
    }
}

/// Serialize a bench run to the `BENCH_*.json` trajectory schema:
/// `{schema, quick, provenance: {...}, derived: {...}, records: [...]}`.
/// `quick` is recorded so consumers can refuse to compare smoke-mode
/// timings, and [`provenance`] so they can tell hosts and commits apart.
fn bench_report_json(records: &[BenchRecord], derived: &[(&str, f64)]) -> String {
    let mut arr = JsonArray::new();
    for r in records {
        arr = arr.push_json(r);
    }
    let mut dobj = JsonObject::new();
    for (k, v) in derived {
        dobj = dobj.field_f64(k, *v);
    }
    JsonObject::new()
        .field_str("schema", "distconv-bench-v1")
        .field_usize("quick", BenchConfig::from_env().quick as usize)
        .field_json("provenance", &RawJson(provenance()))
        .field_json("derived", &RawJson(dobj.finish()))
        .field_json("records", &RawJson(arr.finish()))
        .finish()
}

struct RawJson(String);

impl ToJson for RawJson {
    fn to_json(&self) -> String {
        self.0.clone()
    }
}

impl Suite {
    /// Start a group named `name` with environment-derived settings.
    pub fn new(name: impl Into<String>) -> Self {
        Suite {
            name: name.into(),
            cfg: BenchConfig::from_env(),
            rows: Vec::new(),
        }
    }

    /// Time `f`, reporting per-iteration cost under `label`.
    pub fn bench<R, F: FnMut() -> R>(&mut self, label: impl Into<String>, f: F) -> &mut Self {
        self.bench_throughput(label, None, f)
    }

    /// Like [`Suite::bench`], additionally reporting `elems/s` derived
    /// from `elems` processed per iteration.
    pub fn bench_throughput<R, F: FnMut() -> R>(
        &mut self,
        label: impl Into<String>,
        elems: Option<u64>,
        f: F,
    ) -> &mut Self {
        self.bench_case(label, elems, None, f)
    }

    /// Like [`Suite::bench`], additionally reporting GFLOP/s derived
    /// from `flops` floating-point operations per iteration — the
    /// column that makes kernel ablations comparable across shapes.
    pub fn bench_flops<R, F: FnMut() -> R>(
        &mut self,
        label: impl Into<String>,
        flops: u64,
        f: F,
    ) -> &mut Self {
        self.bench_case(label, None, Some(flops), f)
    }

    fn bench_case<R, F: FnMut() -> R>(
        &mut self,
        label: impl Into<String>,
        elems: Option<u64>,
        flops: Option<u64>,
        mut f: F,
    ) -> &mut Self {
        let label = label.into();
        // Warmup + calibration: run batches of growing size until one
        // takes min_batch; that size is the measured batch size.
        let mut iters: u64 = 1;
        if !self.cfg.quick {
            loop {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                let el = t.elapsed();
                if el >= self.cfg.min_batch || iters >= 1 << 24 {
                    break;
                }
                // Aim past the target so the next probe usually ends it.
                let factor = (self.cfg.min_batch.as_secs_f64() / el.as_secs_f64().max(1e-9))
                    .clamp(1.5, 100.0);
                iters = ((iters as f64 * factor).ceil() as u64).max(iters + 1);
            }
        }
        let batches = if self.cfg.quick { 1 } else { self.cfg.batches };
        let mut samples: Vec<f64> = (0..batches)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        self.rows.push(Row {
            label,
            iters,
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            throughput: elems,
            flops,
        });
        self
    }

    /// Print the group's table to stdout and return the measurements
    /// as [`BenchRecord`]s (for `BENCH_*.json` emission; callers that
    /// only want the table simply drop the return value).
    pub fn finish(&mut self) -> Vec<BenchRecord> {
        println!("\n## {}", self.name);
        println!(
            "| {:<28} | {:>12} | {:>12} | {:>8} | {:>14} | {:>10} |",
            "case", "median/iter", "min/iter", "iters", "throughput", "GFLOP/s"
        );
        println!(
            "|{}|{}|{}|{}|{}|{}|",
            "-".repeat(30),
            "-".repeat(14),
            "-".repeat(14),
            "-".repeat(10),
            "-".repeat(16),
            "-".repeat(12)
        );
        let records: Vec<BenchRecord> = self
            .rows
            .drain(..)
            .map(|r| BenchRecord {
                suite: self.name.clone(),
                label: r.label,
                iters: r.iters,
                median_ns: r.median_ns,
                min_ns: r.min_ns,
                elems: r.throughput,
                flops: r.flops,
            })
            .collect();
        for r in &records {
            let tp = r
                .elems
                .map(|e| {
                    let per_sec = e as f64 / (r.median_ns / 1e9);
                    format!("{} elem/s", human(per_sec))
                })
                .unwrap_or_else(|| "-".into());
            let gf = r
                .gflops()
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "-".into());
            println!(
                "| {:<28} | {:>12} | {:>12} | {:>8} | {:>14} | {:>10} |",
                r.label,
                human_ns(r.median_ns),
                human_ns(r.min_ns),
                r.iters,
                tp,
                gf
            );
        }
        records
    }
}

fn human_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn human(x: f64) -> String {
    if x < 1e3 {
        format!("{x:.0}")
    } else if x < 1e6 {
        format!("{:.1}K", x / 1e3)
    } else if x < 1e9 {
        format!("{:.1}M", x / 1e6)
    } else {
        format!("{:.2}G", x / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_each_case_once_per_batch() {
        let mut s = Suite::new("test");
        s.cfg = BenchConfig {
            batches: 3,
            min_batch: Duration::from_millis(1),
            quick: true,
        };
        let mut calls = 0u64;
        s.bench("counted", || calls += 1);
        assert_eq!(calls, 1, "quick mode: no warmup, single 1-iter batch");
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.rows[0].iters, 1);
    }

    #[test]
    fn calibration_reaches_min_batch() {
        let mut s = Suite::new("test");
        s.cfg = BenchConfig {
            batches: 2,
            min_batch: Duration::from_millis(2),
            quick: false,
        };
        s.bench("spin", || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(s.rows[0].iters > 1, "cheap op must be batched up");
        assert!(s.rows[0].median_ns > 0.0);
    }

    #[test]
    fn flops_column_and_records() {
        let mut s = Suite::new("g");
        s.cfg = BenchConfig {
            batches: 1,
            min_batch: Duration::from_millis(1),
            quick: true,
        };
        s.bench_flops("case", 2_000_000_000, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let recs = s.finish();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].suite, "g");
        assert_eq!(recs[0].flops, Some(2_000_000_000));
        // ≥1 ms per iter at 2 GFLOP ⇒ well under 2000 GFLOP/s.
        let g = recs[0].gflops().unwrap();
        assert!(g > 0.0 && g < 2000.0, "{g}");
    }

    #[test]
    fn report_json_parses_back() {
        use distconv_cost::json::JsonValue;
        let rec = BenchRecord {
            suite: "s".into(),
            label: "l".into(),
            iters: 3,
            median_ns: 1.5e6,
            min_ns: 1.0e6,
            elems: None,
            flops: Some(1_000_000),
        };
        let j = bench_report_json(&[rec], &[("speedup", 3.5)]);
        let v = JsonValue::parse(&j).expect("valid json");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("distconv-bench-v1"));
        assert_eq!(
            v.get("derived")
                .and_then(|d| d.get("speedup"))
                .unwrap()
                .as_f64(),
            Some(3.5)
        );
        let recs = v.get("records").unwrap().as_array().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("label").unwrap().as_str(), Some("l"));
        let gf = recs[0].get("gflops").unwrap().as_f64().unwrap();
        assert!((gf - (1e6 / 1.5e-3 / 1e9)).abs() < 1e-9);
    }

    #[test]
    fn commit_is_marked_dirty_and_unknown_outside_git() {
        let dir = std::env::temp_dir().join(format!("wallbench-commit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(commit_of(&dir), "unknown");
        let git = |args: &[&str]| {
            let ok = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=t", "-c", "user.email=t@t"])
                .args(args)
                .output()
                .is_ok_and(|o| o.status.success());
            assert!(ok, "git {args:?}");
        };
        std::fs::write(dir.join("f"), "1").unwrap();
        git(&["init", "-q"]);
        git(&["add", "f"]);
        git(&["commit", "-q", "-m", "c"]);
        let clean = commit_of(&dir);
        assert_eq!(clean.len(), 40, "{clean}");
        assert!(clean.bytes().all(|b| b.is_ascii_hexdigit()), "{clean}");
        std::fs::write(dir.join("f"), "2").unwrap();
        assert_eq!(commit_of(&dir), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_default_path_is_at_the_workspace_root() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(json_path_from(&args(&["bench"]), "BENCH_x.json"), None);
        let default = json_path_from(&args(&["bench", "--json"]), "BENCH_x.json").unwrap();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(default, root.join("BENCH_x.json"));
        assert!(
            root.join("Cargo.lock").is_file(),
            "{} is not the workspace root",
            root.display()
        );
        // A following flag is not a path.
        let flagged = json_path_from(&args(&["bench", "--json", "--bench"]), "BENCH_x.json");
        assert_eq!(flagged, Some(default));
        let given = json_path_from(&args(&["bench", "--json", "/tmp/out.json"]), "BENCH_x.json");
        assert_eq!(given, Some(PathBuf::from("/tmp/out.json")));
    }

    #[test]
    fn humanizers() {
        assert_eq!(human_ns(12.34), "12.3 ns");
        assert_eq!(human_ns(12_340.0), "12.34 µs");
        assert_eq!(human_ns(12_340_000.0), "12.34 ms");
        assert_eq!(human(1500.0), "1.5K");
        assert_eq!(human(2.5e7), "25.0M");
    }
}
