//! Property-based backend-equivalence chaos tests: the same collective,
//! under the same randomized fault plan, run on the thread backend and
//! on the discrete-event backend, must be **bitwise indistinguishable**
//! — results, the full [`StatsSnapshot`](distconv_simnet::StatsSnapshot)
//! (algorithmic counters *and* the separate
//! [`FaultTraffic`](distconv_simnet::FaultTraffic) overhead), and the
//! canonical trace digest. Fault decisions are pure functions of
//! `(seed, src, dst, wire, attempt)` and retransmit timing is virtual,
//! so nothing observable may depend on which scheduler ran the ranks.
//!
//! Runs on the in-tree `distconv_par::proptest_mini` harness: a failing
//! case prints its seed, and `DISTCONV_PROPTEST_SEED=<seed>` replays
//! exactly that case.

use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_simnet::{Backend, Communicator, FaultPlan, Machine, MachineConfig, Rank};

// Each case spawns two machines (thread + event); keep ranks moderate.
const CASES: u32 = 60;

/// A randomized reliable-mode fault plan (or occasionally a no-op),
/// including the rank-level faults the link-equivalence suite avoids:
/// a straggler is fine here because both backends must agree on its
/// effect, and skewed delays exercise the virtual-time ARQ backoff.
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

/// Run `body` on both backends under `plan`; everything observable must
/// be bitwise identical.
fn assert_backend_equivalent<R, F>(p: usize, plan: FaultPlan, body: F)
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn(&Rank<f64>) -> R + Send + Sync + Copy,
{
    let cfg = |backend| MachineConfig {
        faults: plan,
        backend,
        ..MachineConfig::default()
    };
    let thread = Machine::run::<f64, _, _>(p, cfg(Backend::Thread), body);
    let event = Machine::run::<f64, _, _>(p, cfg(Backend::Event), body);

    assert_eq!(
        thread.results, event.results,
        "results must be backend-independent under {plan:?}"
    );
    // The whole snapshot: algorithmic counters AND fault overhead
    // (retransmits, acks, dup suppressions, injected delay).
    assert_eq!(
        thread.stats, event.stats,
        "counters must be backend-independent under {plan:?}"
    );
    assert_eq!(
        thread.trace.digest(),
        event.trace.digest(),
        "canonical trace must be backend-independent under {plan:?}"
    );
}

#[test]
fn bcast_is_backend_equivalent_under_faults() {
    check(
        "bcast_is_backend_equivalent_under_faults",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let root = g.usize_in(0, p - 1);
            let len = g.usize_in(1, 40);
            let plan = gen_plan(g);
            assert_backend_equivalent(p, plan, move |rank| {
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
fn allreduce_is_backend_equivalent_under_faults() {
    check(
        "allreduce_is_backend_equivalent_under_faults",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let len = g.usize_in(1, 40);
            let seed = g.u64();
            let plan = gen_plan(g);
            assert_backend_equivalent(p, plan, move |rank| {
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
fn reduce_scatter_is_backend_equivalent_under_faults() {
    check(
        "reduce_scatter_is_backend_equivalent_under_faults",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let chunk = g.usize_in(1, 9);
            let plan = gen_plan(g);
            assert_backend_equivalent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let buf: Vec<f64> = (0..chunk * p).map(|i| (rank.id() + i) as f64).collect();
                let counts = vec![chunk; p];
                comm.reduce_scatter(&buf, &counts)
            });
        },
    );
}

#[test]
fn straggler_skew_is_backend_equivalent() {
    // A straggler only stretches virtual time; both backends must agree
    // on results, counters, and the canonical schedule.
    check(
        "straggler_skew_is_backend_equivalent",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(2, 5);
            let slow = g.usize_in(0, p - 1);
            let factor = 1.0 + g.f64_unit() * 9.0;
            let len = g.usize_in(1, 20);
            let plan = gen_plan(g).with_straggler(slow, factor);
            assert_backend_equivalent(p, plan, move |rank| {
                let comm = Communicator::world(rank);
                let mut buf: Vec<f64> = (0..len).map(|i| (rank.id() * 17 + i) as f64).collect();
                comm.allreduce(&mut buf);
                buf
            });
        },
    );
}
