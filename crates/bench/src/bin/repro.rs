//! Print the reproduction's experiment tables by id (DESIGN.md §4):
//!
//! ```text
//! repro <id>... | all
//! repro trace [--json] [--export PATH] [--schema PATH]
//! ```
//!
//! `tests/goldens/<id>.txt` pins each id's stdout; `all` runs every id in
//! E-number order. `trace` prints the E14 conformance report, as JSON
//! with `--json`; `--export` writes the sample run's Chrome trace to
//! PATH, and `--schema` validates that trace against the schema at PATH.
//! Exit codes: 0 ok, 1 conformance failure, 2 a schema or file failure
//! or a usage error. A usage error lists the ids.

use distconv_bench::*;
use std::process::ExitCode;
use Run::{Tables, Trace};

/// What an id prints: its tables, or the E14 report and exit status.
enum Run {
    Tables(&'static [fn() -> Table]),
    Trace,
}

/// Every experiment id, in E-number order. Each names its golden.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", Tables(&[e1_table1])),
    ("table2", Tables(&[e2_table2, e4_property5])),
    ("eq3", Tables(&[e3_gvm_exactness])),
    ("ml", Tables(&[e5_ml_deflation])),
    ("dist", Tables(&[e6_distributed])),
    ("analogy", Tables(&[e7_matmul_analogy])),
    ("regimes", Tables(&[e8_regime_sweep])),
    ("baselines", Tables(&[e9_baselines, e9_baselines_analytic])),
    ("scaling", Tables(&[e10_scaling])),
    ("time", Tables(&[e11_alpha_beta])),
    ("network", Tables(&[e12_network])),
    ("faults", Tables(&[e13_fault_sweep])),
    ("trace", Trace),
    ("scale", Tables(&[e15_scale_sweep])),
    ("chaos", Tables(&[e16_chaos_sweep, e16_degraded_recovery])),
    ("autotune", Tables(&[e17_autotune])),
];

#[derive(Default, PartialEq)]
struct TraceFlags {
    json: bool,
    export: Option<String>,
    schema: Option<String>,
}

/// E14's exit status; a file or schema failure is the error (status 2).
fn trace(flags: &TraceFlags) -> Result<u8, String> {
    let rep = e14_trace_conformance();
    if flags.json {
        println!("{}", rep.to_json());
    } else {
        println!("{rep}");
    }
    if flags.export.is_some() || flags.schema.is_some() {
        let trace = e14_sample_trace();
        let chrome = trace.to_chrome_json();
        if !flags.json {
            println!("\nPer-rank span metrics (representative layer, P=8):");
            println!("{}", trace.metrics_table());
        }
        if let Some(path) = &flags.export {
            std::fs::write(path, &chrome).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} events to {path}", trace.len());
        }
        if let Some(path) = &flags.schema {
            let schema = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let n = validate_chrome_trace(&chrome, &schema)
                .map_err(|e| format!("schema FAILED: {e}"))?;
            eprintln!("schema ok: {n} events validated against {path}");
        }
    }
    for row in rep.failures() {
        eprintln!("conformance FAILED: {}", row.name);
    }
    Ok(u8::from(!rep.pass()))
}

/// The runs `args` select, in order, and the trace flags.
fn parse(args: &[String]) -> Result<(Vec<&'static Run>, TraceFlags), String> {
    let (mut runs, mut flags) = (Vec::new(), TraceFlags::default());
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let mut path = || args.next().cloned().ok_or(format!("{a} needs a path"));
        match (a.as_str(), EXPERIMENTS.iter().find(|e| e.0 == a)) {
            ("--json", _) => flags.json = true,
            ("--export", _) => flags.export = Some(path()?),
            ("--schema", _) => flags.schema = Some(path()?),
            ("all", _) => runs.extend(EXPERIMENTS.iter().map(|e| &e.1)),
            (_, Some(e)) => runs.push(&e.1),
            (_, None) => return Err(format!("unknown id or flag {a:?}")),
        }
    }
    if runs.is_empty() {
        return Err("no id given".into());
    }
    if flags != TraceFlags::default() && !runs.iter().any(|r| matches!(r, Trace)) {
        return Err("--json, --export and --schema apply to `trace` only".into());
    }
    Ok((runs, flags))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (runs, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!("repro: {e}\nusage: repro <id>... | all");
            eprintln!("       repro trace [--json] [--export PATH] [--schema PATH]");
            eprintln!("ids, in E-number order: {}", ids.join(" "));
            return ExitCode::from(2);
        }
    };
    let status = runs.iter().map(|run| match run {
        Tables(tables) => {
            tables.iter().for_each(|table| println!("{}", table()));
            0
        }
        Trace => trace(&flags).unwrap_or_else(|e| {
            eprintln!("repro trace: {e}");
            2
        }),
    });
    ExitCode::from(status.max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_id_has_a_golden_and_every_golden_an_id() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens");
        let mut goldens: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|name| name.strip_suffix(".txt").map(Into::into))
            .collect();
        goldens.sort();
        let mut ids: Vec<String> = super::EXPERIMENTS.iter().map(|e| e.0.into()).collect();
        ids.sort();
        assert_eq!(ids, goldens);
    }
}
