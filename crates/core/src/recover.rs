//! The one recovery policy for a distributed run — a layer, a training
//! step or a served batch: bounded restarts after a fault-injected rank
//! crash, then, when the crash is persistent, one run on a plan over the
//! surviving ranks. See [`recover`], and [`mark_recovery`] for what a
//! checkpointed forward run pays on top.

use crate::distribution::shard_geometry;
use crate::network::{CoreError, NetworkPlan, NetworkRun};
use distconv_cost::DistPlan;
use distconv_simnet::MachineConfig;
use distconv_tensor::Range4;
use distconv_trace::{RunTrace, SpanEvent, SpanKind};

/// Maximum checkpoint/restart attempts for a crash-injected step.
pub const MAX_STEP_RETRIES: u32 = 3;

/// A plan [`recover`] can shrink: it only needs the rank count.
pub trait Ranks {
    /// Ranks the plan runs on.
    fn ranks(&self) -> usize;
}

impl Ranks for DistPlan {
    fn ranks(&self) -> usize {
        self.grid.total()
    }
}

impl Ranks for NetworkPlan {
    fn ranks(&self) -> usize {
        self.layers[0].grid.total()
    }
}

/// What recovery did on the way to a result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Aborted attempts before the one that succeeded.
    pub attempts: u32,
    /// Elements the aborted attempts moved — the retry cost, kept out
    /// of the successful run's counters so its volume tables still
    /// match the fault-free run.
    pub wasted_elems: u64,
    /// Ranks declared dead (crashed / OOM'd — *not* merely starved)
    /// when the retries ran out. Empty unless the run degraded.
    pub dead_ranks: Vec<usize>,
}

impl Recovery {
    /// Whether a crashed attempt was detected and the run re-done.
    pub fn recovered(&self) -> bool {
        self.attempts > 0
    }

    /// Whether the run finished on a plan over fewer ranks.
    pub fn degraded(&self) -> bool {
        !self.dead_ranks.is_empty()
    }
}

/// A result [`recover`] reached.
#[derive(Clone, Debug)]
pub struct Recovered<P, R> {
    /// The successful attempt's result.
    pub value: R,
    /// What it took to get there.
    pub recovery: Recovery,
    /// The survivor plan and the pruned machine configuration the run
    /// finished on; `None` unless it degraded.
    pub degraded: Option<(P, MachineConfig)>,
}

/// Run `attempt(plan, cfg)` until it succeeds or the policy gives up.
///
/// A fault-injected rank crash restarts the attempt up to
/// [`MAX_STEP_RETRIES`] times from its inputs (all regenerable from its
/// seed) with transient rank faults cleared, modelling a replaced
/// process on the same faulty network. Any other error returns at once.
/// A *persistent* crash survives the clearing; once the retries are
/// spent, `replan(p)` is asked for the same work over `p` ranks, from
/// the survivor count `P′` downward (`P′` itself may be unplannable,
/// e.g. a prime that does not factor the problem). The first plan found
/// runs once more, without the faults that no longer exist on the
/// shrunken machine, and comes back with its configuration so a
/// long-lived caller can keep running there instead of rediscovering
/// the dead rank. A caller that must not degrade passes `|_| None` and
/// gets the last machine error back.
pub fn recover<P: Ranks, R>(
    plan: &P,
    mut cfg: MachineConfig,
    mut attempt: impl FnMut(&P, MachineConfig) -> Result<R, CoreError>,
    mut replan: impl FnMut(usize) -> Option<P>,
) -> Result<Recovered<P, R>, CoreError> {
    let mut recovery = Recovery::default();
    let err = loop {
        let err = match attempt(plan, cfg) {
            Ok(value) => {
                return Ok(Recovered {
                    value,
                    recovery,
                    degraded: None,
                })
            }
            Err(CoreError::Machine(e)) if e.has_injected_crash() => e,
            Err(e) => return Err(e),
        };
        recovery.attempts += 1;
        recovery.wasted_elems += err.wasted_elems;
        if recovery.attempts > MAX_STEP_RETRIES {
            break err;
        }
        cfg.faults = cfg.faults.without_rank_faults();
    };

    // Retries exhausted with the crash still firing: the rank is gone
    // for good. A smaller feasible plan beats no run at all.
    let dead = err.dead_ranks();
    let survivors = plan.ranks().saturating_sub(dead.len());
    let Some(shrunk) = (1..=survivors).rev().find_map(&mut replan) else {
        return Err(CoreError::Machine(err));
    };
    // The dead rank does not exist on the shrunken machine: drop its
    // faults rather than crash an innocent renumbered rank.
    cfg.faults.crash = None;
    cfg.faults.straggler = cfg.faults.straggler.filter(|s| s.rank < shrunk.ranks());
    recovery.dead_ranks = dead;
    let value = attempt(&shrunk, cfg)?;
    Ok(Recovered {
        value,
        recovery,
        degraded: Some((shrunk, cfg)),
    })
}

/// Account a recovered forward run of `plan` as a checkpointed restart:
/// returns the elements of checkpoint state the survivors fetched from
/// peers to restart on the survivor plan (0 unless it degraded) — kept
/// apart from both the run's algorithmic counters and the aborted
/// attempts' traffic, like ARQ overhead — and marks on rank 0 of the
/// run's trace one restart per aborted attempt (the wasted traffic on
/// the last) and, when it degraded, the death verdicts and that
/// redistribution.
pub fn mark_recovery<T>(
    plan: &NetworkPlan,
    done: &mut Recovered<NetworkPlan, NetworkRun<T>>,
) -> u64 {
    let redist_elems = done.degraded.as_ref().map_or(0, |(shrunk, _)| {
        checkpoint_redistribution(
            &plan.layers[0],
            &shrunk.layers[0],
            &done.recovery.dead_ranks,
        )
    });
    mark_trace(&mut done.value.trace, &done.recovery, redist_elems);
    redist_elems
}

/// Checkpoint redistribution onto a shrunken grid: survivor `j`
/// restarts as new rank `j`. Its checkpoint shard covers its *old*
/// global region; whatever the new shard needs beyond the overlap must
/// be fetched from peers (every element is held by some survivor —
/// shards are pure functions of seed and global coordinates).
fn checkpoint_redistribution(old_plan: &DistPlan, new_plan: &DistPlan, dead: &[usize]) -> u64 {
    let missing = |new: Range4, old: Range4| new.len() - new.intersect(&old).map_or(0, |r| r.len());
    let survivors = (0..old_plan.grid.total()).filter(|r| !dead.contains(r));
    let mut redist_elems = 0u64;
    for (new_rank, old_rank) in survivors.enumerate().take(new_plan.grid.total()) {
        let old = shard_geometry(old_plan, old_rank);
        let new = shard_geometry(new_plan, new_rank);
        redist_elems += missing(new.in_region, old.in_region) as u64;
        redist_elems += missing(new.ker_region, old.ker_region) as u64;
    }
    redist_elems
}

/// Timeline markers on rank 0 for what recovery did: one restart per
/// aborted attempt (the wasted traffic on the last), and when the run
/// degraded, the death verdicts and the redistribution onto the
/// shrunken grid.
fn mark_trace(trace: &mut RunTrace, rec: &Recovery, redist_elems: u64) {
    let mut mark = |kind, step: u32, peer, elems| {
        let event = SpanEvent {
            kind,
            step: step.into(),
            peer,
            tag: 0,
            elems,
            start_ns: 0,
            dur_ns: 0,
        };
        trace.push(0, event);
    };
    for attempt in 0..rec.attempts {
        let last = attempt + 1 == rec.attempts;
        let elems = if last { rec.wasted_elems } else { 0 };
        mark(SpanKind::CheckpointRestore, attempt, None, elems);
    }
    if rec.degraded() {
        for &d in &rec.dead_ranks {
            mark(SpanKind::FailureDetect, rec.attempts, Some(d), 0);
        }
        mark(SpanKind::Redistribute, rec.attempts, None, redist_elems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_simnet::{FailureKind, FaultPlan, RankFailure, RunError};

    /// A plan that is only its rank count.
    impl Ranks for usize {
        fn ranks(&self) -> usize {
            *self
        }
    }

    /// Rank `dead` crashed, rank 0 starved waiting on it, and `wasted`
    /// elements moved before the run died.
    fn crash(dead: usize, wasted: u64) -> CoreError {
        let failure = |rank, kind| RankFailure {
            rank,
            kind,
            message: String::new(),
        };
        CoreError::Machine(RunError {
            failures: vec![
                failure(0, FailureKind::Deadlock),
                failure(dead, FailureKind::Crash),
            ],
            fault_seed: 7,
            wasted_msgs: 1,
            wasted_elems: wasted,
        })
    }

    /// Rank 2 crashes (for good if `persistent`); `straggler` is slow.
    fn faulty(persistent: bool, straggler: usize) -> MachineConfig {
        let faults = FaultPlan::default().with_straggler(straggler, 2.0);
        let faults = match persistent {
            true => faults.with_persistent_crash(2, 1),
            false => faults.with_crash(2, 1),
        };
        MachineConfig {
            faults,
            ..MachineConfig::default()
        }
    }

    type Outcome = Result<Recovered<usize, usize>, CoreError>;

    /// `recover` over a plan of `ranks` ranks whose attempt fails with
    /// `fail(ranks, faults)` or else yields its rank count, and whose
    /// re-plan succeeds at `plannable` ranks or fewer. Also returns
    /// every attempt's `(ranks, faults)` and every re-plan request.
    fn drive(
        ranks: usize,
        cfg: MachineConfig,
        plannable: usize,
        mut fail: impl FnMut(usize, FaultPlan) -> Option<CoreError>,
    ) -> (Outcome, Vec<(usize, FaultPlan)>, Vec<usize>) {
        let (mut runs, mut asked) = (Vec::new(), Vec::new());
        let out = recover(
            &ranks,
            cfg,
            |&p, cfg| {
                runs.push((p, cfg.faults));
                fail(p, cfg.faults).map_or(Ok(p), Err)
            },
            |p| {
                asked.push(p);
                (p <= plannable).then_some(p)
            },
        );
        (out, runs, asked)
    }

    /// Fails while a crash is configured, wasting `wasted(ranks)`.
    fn crashing(wasted: fn(usize) -> u64) -> impl FnMut(usize, FaultPlan) -> Option<CoreError> {
        move |p, faults| faults.crash.map(|c| crash(c.rank, wasted(p)))
    }

    #[test]
    fn first_try_success_aborts_nothing() {
        let (out, runs, asked) = drive(4, MachineConfig::default(), 4, |_, _| None);
        let out = out.unwrap();
        assert_eq!((out.value, runs.len()), (4, 1));
        assert_eq!(out.recovery, Recovery::default());
        assert!(!out.recovery.recovered() && !out.recovery.degraded());
        assert!(out.degraded.is_none() && asked.is_empty());
    }

    #[test]
    fn transient_crash_retries_once_and_sums_wasted_elements() {
        let (out, runs, asked) = drive(4, faulty(false, 1), 4, crashing(|_| 40));
        let out = out.unwrap();
        assert_eq!(
            (out.value, out.recovery.attempts, out.recovery.wasted_elems),
            (4, 1, 40)
        );
        assert!(out.recovery.recovered() && !out.recovery.degraded());
        assert!(out.degraded.is_none() && asked.is_empty());
        // Only the crashed process was replaced: the straggler stays.
        assert_eq!(runs[1].1.crash, None);
        assert_eq!(runs[1].1.straggler, runs[0].1.straggler);
    }

    #[test]
    fn persistent_crash_degrades_to_the_first_plannable_survivor_count() {
        // 8 ranks, rank 2 dead: 7 survivors, but 7, 6 and 5 do not
        // plan, so the run finishes on 4 — where a straggler on rank 5
        // does not exist, and one on rank 1 does.
        let (out, runs, asked) = drive(8, faulty(true, 5), 4, crashing(|p| 10 + p as u64));
        let out = out.unwrap();
        let tries = MAX_STEP_RETRIES + 1;
        assert_eq!(out.recovery.attempts, tries);
        assert_eq!(out.recovery.wasted_elems, 18 * u64::from(tries));
        assert_eq!(out.recovery.dead_ranks, vec![2]);
        assert!(out.recovery.recovered() && out.recovery.degraded());
        assert_eq!(asked, vec![7, 6, 5, 4]);
        let ranks: Vec<usize> = runs.iter().map(|r| r.0).collect();
        assert_eq!(ranks, vec![8, 8, 8, 8, 4]);
        let (plan, cfg) = out.degraded.unwrap();
        assert_eq!((out.value, plan), (4, 4));
        assert_eq!((cfg.faults.crash, cfg.faults.straggler), (None, None));

        let (out, ..) = drive(8, faulty(true, 1), 4, crashing(|_| 1));
        let (_, cfg) = out.unwrap().degraded.unwrap();
        assert_eq!(cfg.faults.straggler.map(|s| s.rank), Some(1));
    }

    #[test]
    fn unplannable_survivors_return_the_last_machine_error() {
        let mut attempt = 0;
        let (out, runs, asked) = drive(4, faulty(true, 0), 0, |_, _| {
            attempt += 1;
            Some(crash(2, attempt))
        });
        let tries = u64::from(MAX_STEP_RETRIES + 1);
        assert_eq!(out.unwrap_err(), crash(2, tries));
        assert_eq!((runs.len() as u64, asked), (tries, vec![3, 2, 1]));
    }

    #[test]
    fn non_crash_errors_return_at_once() {
        let wrong = CoreError::VerificationFailed { max_rel_err: 1.0 };
        let (out, runs, asked) = drive(4, faulty(false, 0), 4, |_, _| Some(wrong.clone()));
        assert_eq!(out.unwrap_err(), wrong);
        assert!(runs.len() == 1 && asked.is_empty());
    }
}
