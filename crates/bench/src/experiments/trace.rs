//! **E14 / observability**: the cost-model conformance suite and the
//! Chrome trace-event export, driven over the golden shapes.
//!
//! Every row compares a *measured* quantity (the simulator's traffic
//! counters, or the per-rank span trace) against an *analytic*
//! prediction (the per-algorithm closed forms, the exact schedule
//! model, the Eq. 10 aggregate). A communication-volume regression
//! fails the suite with the offending row's name — not a diffed table.

use super::run_layer;
use distconv_baselines::{run_data_parallel, run_filter_parallel, run_spatial_parallel};
use distconv_cost::json::JsonValue;
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_distmm::{run_25d, run_cannon, run_dns3d, run_summa, MatmulDims};
use distconv_simnet::{MachineConfig, RunError};
use distconv_trace::{ConformanceReport, RunTrace};

/// The conv golden shapes the conformance suite sweeps (a subset of the
/// E6 layers — enough to cover balanced, deep and strided schedules).
fn conformance_layers() -> Vec<(&'static str, Conv2dProblem, Vec<usize>)> {
    vec![
        (
            "sim/mid",
            Conv2dProblem::square(4, 16, 16, 8, 3),
            vec![4, 8, 16],
        ),
        ("sim/deep", Conv2dProblem::square(4, 32, 32, 4, 3), vec![8]),
        (
            "sim/strided",
            Conv2dProblem::new(4, 16, 16, 8, 8, 3, 3, 2, 2),
            vec![8],
        ),
    ]
}

/// Prefix every row of `rep` with `label/` so suite-level reports stay
/// unambiguous when the same check runs on several shapes.
fn prefixed(mut rep: ConformanceReport, label: &str) -> ConformanceReport {
    for row in &mut rep.rows {
        row.name = format!("{label}/{}", row.name);
    }
    rep
}

/// Run the full conformance suite: the distributed CNN algorithm on the
/// golden shapes, all four distmm algorithms, and the three baselines —
/// every measured volume against its analytic prediction, every rank's
/// trace against the machine's counters.
pub fn e14_trace_conformance() -> ConformanceReport {
    let mut rep = ConformanceReport::new();

    for (name, p, proc_list) in conformance_layers() {
        for procs in proc_list {
            let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
                .plan()
                .unwrap();
            let r = run_layer(plan, 23, MachineConfig::default(), true);
            let conf = r.conformance(&plan.into());
            rep.extend(prefixed(conf, &format!("{name}/P{procs}")));
        }
    }

    let cfg = MachineConfig::default();
    let bp = Conv2dProblem::square(8, 4, 4, 8, 3);
    let others = || -> Result<[ConformanceReport; 7], RunError> {
        Ok([
            run_summa(MatmulDims::new(30, 20, 25), 2, 3, cfg)?.conformance("summa"),
            run_cannon(MatmulDims::new(7, 11, 13), 3, cfg)?.conformance("cannon"),
            run_dns3d(MatmulDims::new(24, 18, 30), 2, cfg)?.conformance("dns3d"),
            run_25d(MatmulDims::new(24, 16, 32), 2, 2, cfg)?.conformance("s25d"),
            run_data_parallel(bp, 4, 3, true, cfg)?.conformance(),
            run_spatial_parallel(bp, 4, 7, cfg)?.conformance(),
            run_filter_parallel(bp, 4, 13, cfg)?.conformance(),
        ])
    };
    for other in others().expect("fault-free distmm and baseline runs") {
        rep.extend(other);
    }

    rep
}

/// Run the representative conv layer once and return its trace — the
/// sample the exporter, schema validation and metrics table all use.
pub fn e14_sample_trace() -> RunTrace {
    let plan = Planner::new(
        Conv2dProblem::square(4, 16, 16, 8, 3),
        MachineSpec::new(8, 1 << 20),
    )
    .plan()
    .unwrap();
    run_layer(plan, 23, MachineConfig::default(), true).trace
}

/// Validate an exported Chrome trace against the committed schema
/// (`tests/goldens/trace_schema.json`). Returns the number of events
/// checked; the error names the first offending event and field.
///
/// The schema is a plain JSON document naming the required top-level
/// fields, the required per-event fields, the allowed phases and the
/// allowed event names — enough to catch an exporter regression without
/// an external JSON-Schema engine (the build stays hermetic).
pub fn validate_chrome_trace(trace_json: &str, schema_json: &str) -> Result<usize, String> {
    let schema = JsonValue::parse(schema_json).map_err(|e| format!("schema unparsable: {e}"))?;
    let trace = JsonValue::parse(trace_json).map_err(|e| format!("trace unparsable: {e}"))?;

    let str_list = |key: &str| -> Result<Vec<String>, String> {
        schema
            .get(key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("schema missing list {key:?}"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("schema {key:?} holds a non-string"))
            })
            .collect()
    };
    let required_top = str_list("required_top")?;
    let event_required = str_list("event_required")?;
    let phases = str_list("phases")?;
    let names = str_list("names")?;
    let args_required = str_list("args_required")?;

    for key in &required_top {
        if trace.get(key).is_none() {
            return Err(format!("trace missing top-level field {key:?}"));
        }
    }
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        for key in &event_required {
            if ev.get(key).is_none() {
                return Err(format!("event {i} missing field {key:?}"));
            }
        }
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        if !phases.iter().any(|p| p == ph) {
            return Err(format!("event {i} has unknown phase {ph:?}"));
        }
        let name = ev.get("name").and_then(|n| n.as_str()).unwrap_or("");
        if !names.iter().any(|n| n == name) {
            return Err(format!("event {i} has unknown name {name:?}"));
        }
        // Complete events carry a duration; instants carry a scope.
        let extra = if ph == "X" { "dur" } else { "s" };
        if ev.get(extra).is_none() {
            return Err(format!("event {i} ({name}, ph {ph:?}) missing {extra:?}"));
        }
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i} missing args"))?;
        for key in &args_required {
            if args.get(key).is_none() {
                return Err(format!("event {i} args missing {key:?}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schema text as committed — kept in sync by the CI step that
    /// validates `repro trace --schema tests/goldens/trace_schema.json`.
    const SCHEMA: &str = include_str!("../../../../tests/goldens/trace_schema.json");

    #[test]
    fn sample_trace_validates_against_committed_schema() {
        let trace = e14_sample_trace();
        assert!(!trace.is_empty(), "tracing is on by default");
        let n = validate_chrome_trace(&trace.to_chrome_json(), SCHEMA).expect("schema valid");
        assert_eq!(n, trace.len());
    }

    #[test]
    fn validator_names_the_broken_field() {
        let bad = r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"compute","cat":"d","ph":"Q","pid":0,"tid":0,"ts":1,"args":{"step":0,"elems":0}}]}"#;
        let err = validate_chrome_trace(bad, SCHEMA).unwrap_err();
        assert!(err.contains("phase"), "{err}");
    }

    #[test]
    fn conformance_suite_passes() {
        let rep = e14_trace_conformance();
        assert!(rep.pass(), "conformance failures:\n{rep}");
        assert!(
            rep.rows.len() > 30,
            "suite unexpectedly small: {}",
            rep.rows.len()
        );
    }
}
