//! E13 — fault sweep: the distributed CNN algorithm under injected
//! network faults. Demonstrates the robustness contract: under
//! reliable delivery every link-fault plan yields **bit-identical**
//! results and the exact fault-free algorithmic volume, with the
//! recovery machinery's cost reported in separate overhead columns;
//! an injected crash is detected and the step re-run to the same
//! answer.

use super::{run_layer, run_layer_recovering};
use crate::table::{fnum, inum, Table};
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_simnet::{FaultPlan, MachineConfig};
use std::time::Duration;

/// One pinned seed for the whole sweep: every row is reproducible, and
/// the chaos CI job replays exactly this table.
pub const E13_FAULT_SEED: u64 = 0xC0DE_FA17;

/// **E13 / fault sweep**: one layer, one grid, a ladder of fault plans.
pub fn e13_fault_sweep() -> Table {
    let mut t = Table::new(
        "E13 — fault sweep: one layer under injected faults (reliable delivery)",
        &[
            "fault plan",
            "volume",
            "retrans",
            "dropped",
            "acks",
            "dups",
            "makespan",
            "recovered",
            "retry elems",
        ],
    );
    let p = Conv2dProblem::square(4, 8, 8, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
        .plan()
        .unwrap();

    let s = E13_FAULT_SEED;
    let cases: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::default()),
        ("drop 10%", FaultPlan::reliable(s).with_drops(0.10)),
        ("drop 30%", FaultPlan::reliable(s).with_drops(0.30)),
        ("dup 20%", FaultPlan::reliable(s).with_dups(0.20)),
        (
            "delay 20% ×5α",
            FaultPlan::reliable(s).with_delays(0.20, 5.0),
        ),
        ("reorder 20%", FaultPlan::reliable(s).with_reorders(0.20)),
        (
            "drop+dup+reorder 15%",
            FaultPlan::reliable(s)
                .with_drops(0.15)
                .with_dups(0.15)
                .with_reorders(0.15),
        ),
        (
            "straggler r1 ×4",
            FaultPlan::reliable(s).with_straggler(1, 4.0),
        ),
        ("crash r0 @send 3", FaultPlan::reliable(s).with_crash(0, 3)),
    ];

    let baseline = run_layer(plan, 11, MachineConfig::default(), true).report;
    for (name, fp) in cases {
        let cfg = MachineConfig {
            recv_timeout: Duration::from_millis(500),
            faults: fp,
            ..MachineConfig::default()
        };
        let (done, _) =
            run_layer_recovering(plan, 11, cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (rec, r) = (&done.recovery, &done.value.report);
        assert!(r.verified, "{name}: result diverged from the reference");
        assert_eq!(
            r.measured_total(),
            baseline.measured_total(),
            "{name}: algorithmic volume must be fault-independent"
        );
        if fp.is_noop() {
            assert!(
                r.stats.fault.is_zero(),
                "{name}: no-op plan must inject nothing"
            );
        }
        if fp.crash.is_some() {
            assert!(
                rec.recovered(),
                "{name}: crash must be detected and retried"
            );
        }
        let f = &r.stats.fault;
        t.row(vec![
            name.to_string(),
            r.measured_total().to_string(),
            inum(f.retrans_msgs as u128),
            inum(f.dropped_msgs as u128),
            inum(f.ack_msgs as u128),
            inum(f.dup_msgs as u128),
            fnum(r.makespan),
            if rec.recovered() {
                format!("yes ({}x)", rec.attempts)
            } else {
                "no".into()
            },
            rec.wasted_elems.to_string(),
        ]);
    }
    t.note("every row's volume equals the fault-free baseline: retransmit/ack traffic is");
    t.note("accounted separately and never leaks into the Table 1/2 volume counters.");
    t.note(format!(
        "fault seed {s:#x}; all rows deterministic and replayable."
    ));
    t
}
