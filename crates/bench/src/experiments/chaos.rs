//! E16 — chaos at scale: randomized fault plans at P ∈ {256, 1024} on
//! the discrete-event backend, plus the degraded-recovery scenario (a
//! persistent crash exhausts the step retries and the run finishes on a
//! re-planned survivor grid). Every fault plan is derived from one
//! pinned seed, so the whole sweep is bit-reproducible and golden-pinned
//! in CI — "randomized" means *sampled*, never *nondeterministic*.

use super::{run_layer, run_layer_recovering};
use crate::table::{fnum, inum, Table};
use distconv_core::expected_volumes;
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_par::rng::SplitMix64;
use distconv_simnet::{Backend, FaultPlan, MachineConfig};
use distconv_trace::TraceConfig;
use std::time::Duration;

/// One pinned seed for the whole chaos sweep: every sampled fault plan
/// is a pure function of it, so CI replays exactly this table.
pub const E16_CHAOS_SEED: u64 = 0xC4A0_5CA1;

/// Sample a reliable-mode fault plan from `rng`. Probabilities are kept
/// ≤ 20% so the ARQ overhead stays bounded at P = 1024 (a drop rate is
/// per *wire*, and a thousand-rank broadcast tree has a lot of wires).
fn sample_plan(rng: &mut SplitMix64) -> FaultPlan {
    let mut plan = FaultPlan::reliable(rng.next_u64());
    if rng.bool() {
        plan = plan.with_drops(rng.next_f64() * 0.2);
    }
    if rng.bool() {
        plan = plan.with_dups(rng.next_f64() * 0.2);
    }
    if rng.bool() {
        plan = plan.with_delays(rng.next_f64() * 0.2, rng.next_f64() * 4.0);
    }
    if rng.bool() {
        plan = plan.with_reorders(rng.next_f64() * 0.2);
    }
    plan
}

/// **E16 / chaos sweep**: the E15 layer at P ∈ {256, 1024} on the event
/// backend, fault-free and under sampled fault plans. Results must stay
/// bit-exact (verified at P = 256, element-exact traffic at both) with
/// all fault overhead in the separate counters.
pub fn e16_chaos_sweep() -> Table {
    let mut t = Table::new(
        "E16 — chaos at scale: sampled fault plans on the event backend",
        &[
            "P",
            "fault plan",
            "volume",
            "retrans",
            "dropped",
            "acks",
            "dups",
            "makespan",
            "verified",
        ],
    );
    let p = Conv2dProblem::square(8, 64, 32, 16, 3);
    let mut rng = SplitMix64::new(E16_CHAOS_SEED);
    for procs in [256usize, 1024] {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap();
        let mut cases: Vec<(String, FaultPlan)> = vec![("none".into(), FaultPlan::default())];
        for i in 0..3 {
            let fp = sample_plan(&mut rng);
            cases.push((
                format!(
                    "#{i}: drop {:.0}% dup {:.0}% delay {:.0}% reorder {:.0}%",
                    fp.drop_prob * 100.0,
                    fp.dup_prob * 100.0,
                    fp.delay_prob * 100.0,
                    fp.reorder_prob * 100.0
                ),
                fp,
            ));
        }

        let mut baseline_volume = None;
        for (name, fp) in cases {
            let cfg = MachineConfig {
                backend: Backend::Event,
                trace: TraceConfig::off(),
                recv_timeout: Duration::from_millis(500),
                faults: fp,
                ..MachineConfig::default()
            };
            // Verification replays the sequential reference per run; do
            // it where it is cheap and lean on the element-exact traffic
            // identity plus backend equivalence at P = 1024.
            let verify = procs <= 256;
            let r = run_layer(plan, 23, cfg, verify).report;
            assert_eq!(
                r.measured_total(),
                expected_volumes(&plan).total(),
                "P={procs} {name}: volume must stay element-exact under faults"
            );
            let base = *baseline_volume.get_or_insert(r.measured_total());
            assert_eq!(
                r.measured_total(),
                base,
                "P={procs} {name}: algorithmic volume must be fault-independent"
            );
            if fp.is_noop() {
                assert!(r.stats.fault.is_zero(), "P={procs}: no-op plan injected");
            }
            let f = &r.stats.fault;
            t.row(vec![
                procs.to_string(),
                name,
                inum(r.measured_total()),
                inum(f.retrans_msgs as u128),
                inum(f.dropped_msgs as u128),
                inum(f.ack_msgs as u128),
                inum(f.dup_msgs as u128),
                fnum(r.makespan),
                if verify { "yes" } else { "traffic" }.to_string(),
            ]);
        }
    }
    t.note("every row's volume equals its fault-free baseline: ARQ retransmit/ack");
    t.note("traffic is accounted separately and never leaks into the volume counters.");
    t.note(format!(
        "chaos seed {E16_CHAOS_SEED:#x}; all fault plans sampled from it, bit-reproducible."
    ));
    t
}

/// **E16 / degraded recovery**: a persistent crash survives every
/// checkpoint/restart retry; the driver re-plans over the survivors,
/// redistributes the checkpoint (volume reported separately, like ARQ
/// overhead), and finishes verified on the shrunken grid.
pub fn e16_degraded_recovery() -> Table {
    let mut t = Table::new(
        "E16 — degraded recovery: persistent crash, retries exhausted, grid shrunk",
        &[
            "scenario",
            "old grid",
            "new grid",
            "dead",
            "attempts",
            "retry elems",
            "redist elems",
            "volume",
            "conformance",
        ],
    );
    let p = Conv2dProblem::square(4, 8, 8, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
        .plan()
        .unwrap();
    for (name, crash_rank, at_send) in [
        ("crash r0 @send 2", 0usize, 2u64),
        ("crash r5 @send 2", 5, 2),
    ] {
        let cfg = MachineConfig {
            backend: Backend::Event,
            recv_timeout: Duration::from_millis(500),
            faults: FaultPlan::reliable(E16_CHAOS_SEED).with_persistent_crash(crash_rank, at_send),
            ..MachineConfig::default()
        };
        let (done, redist) =
            run_layer_recovering(plan, 11, cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (rec, r) = (&done.recovery, &done.value);
        let (shrunk, _) = done.degraded.as_ref().expect("degraded plan");
        assert!(
            rec.degraded() && rec.recovered() && r.report.verified,
            "{name}: must finish verified on a shrunken grid"
        );
        let conf = r.conformance(shrunk);
        assert!(conf.pass(), "{name}: conformance at P' failed:\n{conf}");
        let gridfmt = |g: &distconv_cost::planner::GridShape| {
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw)
        };
        t.row(vec![
            name.to_string(),
            gridfmt(&plan.grid),
            gridfmt(&shrunk.layers[0].grid),
            format!("{:?}", rec.dead_ranks),
            rec.attempts.to_string(),
            inum(rec.wasted_elems as u128),
            inum(redist as u128),
            inum(r.report.measured_total()),
            "pass".to_string(),
        ]);
    }
    t.note("the post-shrink run verifies against the sequential reference and its");
    t.note("traffic passes conformance at P' — correctness degrades to fewer ranks,");
    t.note("never to wrong answers.");
    t
}
