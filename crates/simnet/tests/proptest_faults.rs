//! Property-based chaos tests: every collective, run under a randomized
//! fault plan in reliable-delivery mode, must produce **bit-identical**
//! results and identical algorithmic traffic counters to the fault-free
//! run — drops, duplicates, delays and reorders are absorbed entirely by
//! the transport layer and surface only in the separate
//! [`FaultTraffic`](distconv_simnet::FaultTraffic) counters.
//!
//! Runs on the in-tree `distconv_par::proptest_mini` harness: a failing
//! case prints its seed, and `DISTCONV_PROPTEST_SEED=<seed>` replays
//! exactly that case.

use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_simnet::{Communicator, FaultPlan, Machine, MachineConfig, Rank};

// Each case spawns two machines (clean + faulty); keep ranks moderate.
const CASES: u32 = 100;

/// A randomized link-fault plan that is safe to run collectives under:
/// either a true no-op (exercising the zero-overhead fast path) or a
/// reliable-mode plan with random drop/dup/delay/reorder probabilities.
/// Never crashes or unreliable drops — those are failure tests, not
/// equivalence tests.
fn gen_plan(g: &mut Gen) -> FaultPlan {
    if g.usize_in(0, 7) == 0 {
        return FaultPlan::default();
    }
    let mut plan = FaultPlan::reliable(g.u64());
    if g.bool() {
        plan = plan.with_drops(g.f64_unit() * 0.4);
    }
    if g.bool() {
        plan = plan.with_dups(g.f64_unit() * 0.4);
    }
    if g.bool() {
        plan = plan.with_delays(g.f64_unit() * 0.4, g.f64_unit() * 8.0);
    }
    if g.bool() {
        plan = plan.with_reorders(g.f64_unit() * 0.4);
    }
    plan
}

/// Run `body` fault-free and under `plan`; the results and the
/// algorithmic (non-fault) counters must match exactly, and the fault
/// counters must obey the plan: retransmits happen iff drops do.
fn assert_fault_transparent<R, F>(p: usize, plan: FaultPlan, body: F)
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn(&Rank<f64>) -> R + Send + Sync + Copy,
{
    let clean = Machine::run::<f64, _, _>(p, MachineConfig::default(), body);
    let cfg = MachineConfig {
        faults: plan,
        ..MachineConfig::default()
    };
    let faulty = Machine::run::<f64, _, _>(p, cfg, body);

    assert_eq!(
        clean.results, faulty.results,
        "results must be bit-identical under {plan:?}"
    );
    assert_eq!(
        clean.stats.total_msgs(),
        faulty.stats.total_msgs(),
        "algorithmic message count must be fault-independent under {plan:?}"
    );
    assert_eq!(
        clean.stats.total_elems(),
        faulty.stats.total_elems(),
        "algorithmic volume must be fault-independent under {plan:?}"
    );
    assert_eq!(
        clean.stats.per_rank_elems, faulty.stats.per_rank_elems,
        "per-rank volumes must be fault-independent under {plan:?}"
    );

    assert!(
        clean.stats.fault.is_zero(),
        "fault-free run leaked overhead"
    );
    let f = &faulty.stats.fault;
    if plan.is_noop() {
        assert!(f.is_zero(), "no-op plan must inject nothing: {f:?}");
    }
    if plan.drop_prob == 0.0 {
        assert_eq!(f.retrans_msgs, 0, "retransmits without drops: {f:?}");
        assert_eq!(f.dropped_msgs, 0, "drops without drop_prob: {f:?}");
    }
    // Every recorded data drop forced a retransmit (ack drops add more).
    assert!(
        f.retrans_msgs >= f.dropped_msgs,
        "dropped data without retransmission: {f:?}"
    );
    if f.retrans_msgs == 0 {
        assert_eq!(f.dropped_msgs, 0, "drops must trigger retransmits: {f:?}");
    }
    if plan.dup_prob == 0.0 {
        assert_eq!(f.dup_msgs, 0, "duplicates without dup_prob: {f:?}");
    }
}

#[test]
fn bcast_is_fault_transparent() {
    check(
        "bcast_is_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let root = g.usize_in(0, p - 1);
            let len = g.usize_in(1, 40);
            let plan = gen_plan(g);
            assert_fault_transparent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let mut buf = if comm.me() == root {
                    (0..len).map(|i| (i * 3 + 1) as f64).collect()
                } else {
                    vec![0.0; len]
                };
                comm.bcast(root, &mut buf);
                buf
            });
        },
    );
}

#[test]
fn reduce_is_fault_transparent() {
    check(
        "reduce_is_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let root = g.usize_in(0, p - 1);
            let len = g.usize_in(1, 40);
            let seed = g.u64();
            let plan = gen_plan(g);
            assert_fault_transparent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let mut buf: Vec<f64> = (0..len)
                    .map(|i| ((seed ^ (rank.id() as u64 * 37 + i as u64)) % 64) as f64)
                    .collect();
                comm.reduce(root, &mut buf);
                buf
            });
        },
    );
}

#[test]
fn allreduce_is_fault_transparent() {
    check(
        "allreduce_is_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let len = g.usize_in(1, 40);
            let seed = g.u64();
            let plan = gen_plan(g);
            assert_fault_transparent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let mut buf: Vec<f64> = (0..len)
                    .map(|i| ((seed ^ (rank.id() as u64 * 31 + i as u64)) % 64) as f64)
                    .collect();
                comm.allreduce(&mut buf);
                buf
            });
        },
    );
}

#[test]
fn allgather_is_fault_transparent() {
    check(
        "allgather_is_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let len = g.usize_in(1, 20);
            let plan = gen_plan(g);
            assert_fault_transparent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let mine: Vec<f64> = (0..len + comm.me())
                    .map(|i| (comm.me() * 1000 + i) as f64)
                    .collect();
                comm.allgather_varying(&mine)
            });
        },
    );
}

#[test]
fn reduce_scatter_is_fault_transparent() {
    check(
        "reduce_scatter_is_fault_transparent",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let chunk = g.usize_in(1, 9);
            let plan = gen_plan(g);
            assert_fault_transparent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let buf: Vec<f64> = (0..chunk * p).map(|i| (rank.id() + i) as f64).collect();
                let counts = vec![chunk; p];
                comm.reduce_scatter(&buf, &counts)
            });
        },
    );
}
