//! The machine: run a closure on each of `P` ranks, collect results,
//! statistics and peak memory. The thread backend gives every rank its
//! own OS thread; the event backend runs them as coroutines on the
//! calling thread (see [`crate::event`]).
//!
//! [`Machine::try_run`] is the non-panicking entry point: it aggregates
//! *every* rank failure (fault-injected crash, deadlock trap, memory
//! over-commit, user panic) into one [`RunError`] carrying rank ids and
//! the fault seed, so callers can implement recovery (see
//! checkpoint/restart in `distconv-core`). [`Machine::run`] is the
//! panicking convenience wrapper; its panic message enumerates every
//! failed rank, since multi-rank failures are the common case under
//! collectives.

use crate::channel::unbounded;
use crate::event::{Backend, EventScheduler};
use crate::fault::{FaultPlan, CRASH_MARKER};
use crate::memory::MemoryTracker;
use crate::rank::{Msg, Packet, Rank, RankId};
use crate::stats::{CostParams, Stats, StatsSnapshot, TimingSnapshot};
use distconv_trace::{RunTrace, TraceConfig, Tracer};
use std::sync::Arc;
use std::time::Duration;

/// Machine-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Per-rank memory capacity in elements (`None` = unmetered).
    pub mem_capacity: Option<u64>,
    /// Deadlock-trap timeout for blocking receives on the thread
    /// backend, counted from a receive's first park. The event backend
    /// detects deadlock exactly and never reads it.
    pub recv_timeout: Duration,
    /// α–β parameters for simulated-time reporting.
    pub cost: CostParams,
    /// Deterministic fault-injection plan (default: all-zero no-op —
    /// the transport takes the exact fault-free code path).
    pub faults: FaultPlan,
    /// Structured span tracing (default: on, per-rank ring buffers;
    /// see `distconv_trace`).
    pub trace: TraceConfig,
    /// Execution backend (default: thread-per-rank, overridable via
    /// `DISTCONV_BACKEND`; see [`crate::event`]).
    pub backend: Backend,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_capacity: None,
            recv_timeout: Duration::from_secs(30),
            cost: CostParams::default(),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
            backend: Backend::from_env(),
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank return values, indexed by rank id.
    pub results: Vec<R>,
    /// Communication counters for the whole run.
    pub stats: StatsSnapshot,
    /// Per-rank peak live memory (elements) — compare against Eq. 11.
    pub peak_mem: Vec<u64>,
    /// Simulated communication time under the configured α–β model:
    /// the per-rank volume-based estimate (`max_r α·msgs_r + β·elems_r`).
    pub sim_time: f64,
    /// Lamport makespan: the largest per-rank logical clock at exit.
    /// Unlike `sim_time`, this respects the *dependency structure* of
    /// the schedule (tree depths, serialized shifts), making it the
    /// better who-wins metric for latency-sensitive comparisons.
    pub makespan: f64,
    /// Wall-clock comm-wait/compute breakdown, summed over ranks.
    /// Host-dependent — reported for benching, never for correctness.
    pub timing: TimingSnapshot,
    /// Per-rank structured span trace (empty when tracing is disabled).
    /// Wall-clock fields are host-dependent; the canonical view
    /// (`RunTrace::canonical`) is deterministic.
    pub trace: RunTrace,
}

impl<R> RunReport<R> {
    /// Largest per-rank peak memory.
    pub fn max_peak_mem(&self) -> u64 {
        self.peak_mem.iter().copied().max().unwrap_or(0)
    }
}

/// How a rank died, classified from its panic payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A fault-injected crash (see [`crate::fault::CrashAt`]).
    Crash,
    /// The deadlock trap fired: a receive starved past the timeout.
    Deadlock,
    /// Memory capacity exceeded.
    OutOfMemory,
    /// Any other panic out of the rank body.
    Other,
}

/// One rank's failure: id, classification and the original panic text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFailure {
    /// The rank that failed.
    pub rank: RankId,
    /// Failure classification (from the panic message).
    pub kind: FailureKind,
    /// The original panic payload, verbatim.
    pub message: String,
}

/// Aggregate of every rank failure in one run, with the fault seed for
/// replay. `Display` lists all of them — no failure is swallowed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunError {
    /// Every failed rank, sorted by rank id.
    pub failures: Vec<RankFailure>,
    /// The fault seed the machine ran with (replay handle).
    pub fault_seed: u64,
    /// Messages recorded before the run died — the wasted (retry) cost
    /// a checkpoint/restart layer must account for.
    pub wasted_msgs: u64,
    /// Elements recorded before the run died.
    pub wasted_elems: u64,
}

impl RunError {
    /// True iff at least one failure is a fault-injected crash — the
    /// transient kind that checkpoint/restart recovery can retry.
    pub fn has_injected_crash(&self) -> bool {
        self.failures.iter().any(|f| f.kind == FailureKind::Crash)
    }

    /// Ids of all failed ranks.
    pub fn failed_ranks(&self) -> Vec<RankId> {
        self.failures.iter().map(|f| f.rank).collect()
    }

    /// Ids of the ranks that actually *died* (crashed / OOMed /
    /// panicked), excluding ranks that merely starved waiting on them —
    /// the set the degraded-recovery layer must replace, as opposed to
    /// the starved ranks it can simply restart.
    pub fn dead_ranks(&self) -> Vec<RankId> {
        self.failures
            .iter()
            .filter(|f| f.kind != FailureKind::Deadlock)
            .map(|f| f.rank)
            .collect()
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rank(s) failed (fault seed {:#x}):",
            self.failures.len(),
            self.fault_seed
        )?;
        for fail in &self.failures {
            write!(
                f,
                "\n  rank {} [{:?}]: {}",
                fail.rank, fail.kind, fail.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

/// Render a panic payload for aggregation (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn classify(message: &str) -> FailureKind {
    if message.contains(CRASH_MARKER) {
        FailureKind::Crash
    } else if message.contains("deadlock trap") || message.contains("mailbox disconnected") {
        FailureKind::Deadlock
    } else if message.contains("out of memory") {
        FailureKind::OutOfMemory
    } else {
        FailureKind::Other
    }
}

/// The simulated distributed-memory machine.
pub struct Machine;

impl Machine {
    /// Run `body` on `p` ranks and collect results: one OS thread per
    /// rank on [`Backend::Thread`], coroutines on the calling thread on
    /// [`Backend::Event`].
    ///
    /// Ranks communicate only through their [`Rank`] handles.
    /// Every rank failure is collected — a failed run returns a
    /// [`RunError`] enumerating all of them (ranks blocked on a dead
    /// peer are released by the deadlock trap and reported too).
    ///
    /// Type parameters: `T` — message element type; `R` — per-rank
    /// result.
    pub fn try_run<T, R, F>(p: usize, cfg: MachineConfig, body: F) -> Result<RunReport<R>, RunError>
    where
        T: Msg,
        R: Send,
        F: Fn(&Rank<T>) -> R + Send + Sync,
    {
        assert!(p > 0, "machine needs at least one rank");
        // A malformed plan (NaN skew, probability outside [0, 1]) is a
        // programming error that would otherwise silently bias every
        // fault decision; fail loudly before spawning anything.
        if let Err(e) = cfg.faults.validate() {
            panic!("invalid FaultPlan: {e}");
        }
        // Register the rank threads with the shared thread budget so
        // per-rank kernel pools size themselves to cores/P instead of
        // oversubscribing (released when the run finishes). The event
        // backend runs one rank at a time, so it registers a single
        // rank and each body's kernels keep the full core budget.
        let event = cfg.backend == Backend::Event;
        let _budget = distconv_par::budget::enter_ranks(if event { 1 } else { p });
        let sched = event.then(|| Arc::new(EventScheduler::new(p)));
        let stats = Arc::new(Stats::new(p));
        let tracer: Option<Arc<Tracer>> = cfg
            .trace
            .enabled
            .then(|| Arc::new(Tracer::new(p, cfg.trace.capacity)));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..p).map(|_| unbounded::<Packet<T>>()).unzip();
        let senders = Arc::new(senders);
        let trackers: Vec<MemoryTracker> = (0..p)
            .map(|id| MemoryTracker::new(id, cfg.mem_capacity))
            .collect();

        let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
        let clocks: Vec<std::sync::atomic::AtomicU64> = (0..p)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        let panics: std::sync::Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> =
            std::sync::Mutex::new(Vec::new());

        let ranks: Vec<Rank<T>> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                Rank::new(
                    id,
                    p,
                    Arc::clone(&senders),
                    rx,
                    Arc::clone(&stats),
                    trackers[id].clone(),
                    &cfg,
                    tracer.clone(),
                    sched.clone(),
                )
            })
            .collect();
        let run_rank = |rank: Rank<T>, slot: &mut Option<R>| {
            let id = rank.id();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&rank))) {
                Ok(r) => {
                    // Release any reorder-held packets before the rank
                    // retires (a crashed rank's are lost).
                    rank.flush_holdbacks();
                    *slot = Some(r);
                }
                Err(e) => panics
                    .lock()
                    .expect("rank bodies never panic holding the panic list")
                    .push((id, e)),
            }
            clocks[id].store(rank.clock().to_bits(), std::sync::atomic::Ordering::Relaxed);
            // Hand the floor off even when the body panicked — otherwise
            // one crashed rank would wedge the run.
            if let Some(s) = &sched {
                s.retire(id);
            }
        };

        match &sched {
            // Event backend: every rank body is a coroutine on this
            // thread, resumed in the scheduler's order.
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Some(s) => {
                let run_rank = &run_rank;
                let bodies: Vec<_> = ranks
                    .into_iter()
                    .zip(results.iter_mut())
                    .map(|(rank, slot)| move || run_rank(rank, slot))
                    .collect();
                crate::coro::run_all(bodies, || s.pick());
            }
            _ => std::thread::scope(|scope| {
                for (rank, slot) in ranks.into_iter().zip(results.iter_mut()) {
                    let run_rank = &run_rank;
                    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
                    let sched = &sched;
                    scope.spawn(move || {
                        // Portable event backend: wait for the
                        // scheduler's first dispatch before the body runs.
                        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
                        if let Some(s) = &sched {
                            s.start(rank.id());
                        }
                        run_rank(rank, slot);
                    });
                }
                // Rank threads never panic (they catch), so the scope's
                // implicit join always succeeds.
            }),
        }

        let panics = panics.into_inner().unwrap();
        if !panics.is_empty() {
            let mut failures: Vec<RankFailure> = panics
                .iter()
                .map(|(id, payload)| {
                    let message = payload_text(payload.as_ref());
                    RankFailure {
                        rank: *id,
                        kind: classify(&message),
                        message,
                    }
                })
                .collect();
            failures.sort_by_key(|f| f.rank);
            let partial = stats.snapshot();
            return Err(RunError {
                failures,
                fault_seed: cfg.faults.seed,
                wasted_msgs: partial.total_msgs(),
                wasted_elems: partial.total_elems(),
            });
        }

        let snapshot = stats.snapshot();
        let sim_time = snapshot.simulated_time(&cfg.cost);
        let makespan = clocks
            .iter()
            .map(|c| f64::from_bits(c.load(std::sync::atomic::Ordering::Relaxed)))
            .fold(0.0, f64::max);
        // All rank threads have joined, so the Arc is unique again; a
        // disabled tracer yields an empty (but correctly-shaped) trace.
        let trace = tracer
            .map(|t| {
                Arc::try_unwrap(t)
                    .map(Tracer::into_run_trace)
                    .unwrap_or_else(|_| RunTrace::empty(p))
            })
            .unwrap_or_else(|| RunTrace::empty(p));
        Ok(RunReport {
            results: results
                .into_iter()
                .map(|r| r.expect("rank completed"))
                .collect(),
            peak_mem: trackers.iter().map(|t| t.peak()).collect(),
            stats: snapshot,
            sim_time,
            makespan,
            timing: stats.timing(),
            trace,
        })
    }

    /// Panicking convenience wrapper over [`Machine::try_run`]: on
    /// failure, panics with a message enumerating *every* failed rank
    /// (id, classification, original panic text).
    pub fn run<T, R, F>(p: usize, cfg: MachineConfig, body: F) -> RunReport<R>
    where
        T: Msg,
        R: Send,
        F: Fn(&Rank<T>) -> R + Send + Sync,
    {
        match Self::try_run(p, cfg, body) {
            Ok(report) => report,
            Err(err) => panic!("{err}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let r = Machine::run::<f32, _, _>(1, MachineConfig::default(), |rank| rank.id() * 10);
        assert_eq!(r.results, vec![0]);
        assert_eq!(r.stats.total_msgs(), 0);
    }

    #[test]
    fn results_indexed_by_rank() {
        let r = Machine::run::<f32, _, _>(8, MachineConfig::default(), |rank| rank.id());
        assert_eq!(r.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn memory_capacity_enforced() {
        let cfg = MachineConfig {
            mem_capacity: Some(100),
            ..MachineConfig::default()
        };
        let r = Machine::run::<f32, _, _>(2, cfg, |rank| {
            let lease = rank.mem().lease(60).unwrap();
            let second = rank.mem().lease(60); // would exceed 100
            drop(lease);
            second.is_err()
        });
        assert_eq!(r.results, vec![true, true]);
        assert_eq!(r.peak_mem, vec![60, 60]);
    }

    #[test]
    fn peak_memory_reported() {
        let r = Machine::run::<f32, _, _>(3, MachineConfig::default(), |rank| {
            let _a = rank.mem().lease((rank.id() as u64 + 1) * 10).unwrap();
        });
        assert_eq!(r.peak_mem, vec![10, 20, 30]);
        assert_eq!(r.max_peak_mem(), 30);
    }

    #[test]
    #[should_panic(expected = "boom from rank 2")]
    fn rank_panic_propagates() {
        Machine::run::<f32, _, _>(4, MachineConfig::default(), |rank| {
            if rank.id() == 2 {
                panic!("boom from rank {}", rank.id());
            }
        });
    }

    #[test]
    fn run_panic_enumerates_every_failed_rank() {
        let result = std::panic::catch_unwind(|| {
            Machine::run::<f32, _, _>(4, MachineConfig::default(), |rank| {
                if rank.id() % 2 == 1 {
                    panic!("boom from rank {}", rank.id());
                }
            })
        });
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2 rank(s) failed"), "got: {msg}");
        assert!(msg.contains("boom from rank 1"), "got: {msg}");
        assert!(msg.contains("boom from rank 3"), "got: {msg}");
    }

    #[test]
    fn failed_run_aggregates_and_classifies() {
        let cfg = MachineConfig {
            recv_timeout: Duration::from_millis(100),
            faults: FaultPlan::default().with_crash(1, 1),
            ..MachineConfig::default()
        };
        let err = Machine::try_run::<u64, _, _>(3, cfg, |rank| {
            if rank.id() == 1 {
                rank.send(2, 5, &[1]);
            }
            if rank.id() == 2 {
                let _ = rank.recv(1, 5); // starves: rank 1 died first
            }
        })
        .expect_err("crash must fail the run");
        assert_eq!(err.fault_seed, 0);
        assert!(err.has_injected_crash());
        assert_eq!(err.failed_ranks(), vec![1, 2]);
        assert_eq!(err.failures[0].kind, FailureKind::Crash);
        assert_eq!(err.failures[1].kind, FailureKind::Deadlock);
        // Display carries every original message.
        let text = err.to_string();
        assert!(text.contains("fault-injected crash"), "got: {text}");
        assert!(text.contains("deadlock trap"), "got: {text}");
    }

    #[test]
    fn clean_run_is_ok() {
        let r = Machine::try_run::<f32, _, _>(2, MachineConfig::default(), |rank| rank.id())
            .expect("clean run");
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    fn makespan_single_hop() {
        // One message: makespan = α + β·n exactly.
        let cfg = MachineConfig::default();
        let n = 1000usize;
        let r = Machine::run::<f32, _, _>(2, cfg, move |rank| {
            if rank.id() == 0 {
                rank.send(1, 1, &vec![0.0; n]);
            } else {
                let _ = rank.recv(0, 1);
            }
        });
        let expect = cfg.cost.alpha + cfg.cost.beta * n as f64;
        assert!(
            (r.makespan - expect).abs() < 1e-15,
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn makespan_respects_dependency_chains() {
        // A 4-hop relay has makespan 4·(α+β) even though each rank only
        // sends once (per-rank sim_time would be 1 hop).
        let cfg = MachineConfig::default();
        let r = Machine::run::<f32, _, _>(5, cfg, move |rank| {
            if rank.id() == 0 {
                rank.send(1, 1, &[1.0]);
            } else {
                let v = rank.recv(rank.id() - 1, 1);
                if rank.id() < 4 {
                    rank.send(rank.id() + 1, 1, &v);
                }
            }
        });
        let hop = cfg.cost.alpha + cfg.cost.beta;
        assert!(
            (r.makespan - 4.0 * hop).abs() < 1e-15,
            "relay makespan {} vs {}",
            r.makespan,
            4.0 * hop
        );
        // The volume-based estimate cannot see the chain.
        assert!(r.sim_time < r.makespan);
    }

    #[test]
    fn makespan_tree_depth_not_volume() {
        // Binomial bcast among 8: makespan grows with depth (3 levels),
        // not with total volume (7 messages).
        use crate::comm::Communicator;
        let cfg = MachineConfig::default();
        let n = 1usize << 14;
        let r = Machine::run::<f32, _, _>(8, cfg, move |rank| {
            let comm = Communicator::world(rank);
            let mut buf = vec![0.0f32; n];
            comm.bcast(0, &mut buf);
        });
        let hop = cfg.cost.alpha + cfg.cost.beta * n as f64;
        // Root sends its 3 children serially; the last child's subtree
        // is shallow — classic binomial: makespan = 3 hops (depth) and
        // at most ~(log2 P + small) hops, never the 7 hops of volume.
        assert!(
            r.makespan >= 3.0 * hop * 0.99,
            "{} vs {}",
            r.makespan,
            3.0 * hop
        );
        assert!(r.makespan <= 4.0 * hop, "{} vs {}", r.makespan, 4.0 * hop);
    }

    #[test]
    fn rank_threads_share_the_kernel_thread_budget() {
        // An explicit DISTCONV_THREADS pin bypasses the arbiter, so the
        // assertion only holds when the budget is in charge. The skip
        // is loud (CI's unpinned leg greps for the marker's absence to
        // prove the assertion actually ran — see ci.yml).
        if std::env::var("DISTCONV_THREADS").is_ok() {
            eprintln!(
                "SKIPPED rank_threads_share_the_kernel_thread_budget: \
                 DISTCONV_THREADS is pinned, budget arbiter bypassed"
            );
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let p = cores * 2; // deliberately oversubscribed
                           // Pinned to the thread backend: the event backend intentionally
                           // registers a single rank (one body runs at a time), so its
                           // pools keep the full budget and this assertion doesn't apply.
        let cfg = MachineConfig {
            backend: Backend::Thread,
            ..MachineConfig::default()
        };
        let r = Machine::run::<f32, _, _>(p, cfg, |_| distconv_par::num_threads());
        // cores / (2·cores) rounds to 0 → clamped to 1 worker per rank.
        // Concurrent tests holding budget guards only shrink it further.
        assert!(
            r.results.iter().all(|&t| t == 1),
            "oversubscribed machine must budget pools down to 1 worker, got {:?}",
            r.results
        );
    }

    #[test]
    fn event_backend_matches_thread_backend_bitwise() {
        // Same relay on both backends: results, counters, clocks.
        let body = |rank: &crate::Rank<f64>| {
            if rank.id() == 0 {
                rank.send(1, 1, &[0.25; 100]);
                Vec::new()
            } else {
                let v = rank.recv(rank.id() - 1, 1);
                if rank.id() + 1 < rank.size() {
                    rank.send(rank.id() + 1, 1, &v);
                }
                v
            }
        };
        let thread_cfg = MachineConfig {
            backend: Backend::Thread,
            ..MachineConfig::default()
        };
        let event_cfg = MachineConfig {
            backend: Backend::Event,
            ..MachineConfig::default()
        };
        let a = Machine::run::<f64, _, _>(5, thread_cfg, body);
        let b = Machine::run::<f64, _, _>(5, event_cfg, body);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.peak_mem, b.peak_mem);
        assert_eq!(a.trace.canonical(), b.trace.canonical());
    }

    #[test]
    fn event_backend_detects_deadlock_without_waiting_for_the_timeout() {
        // The scheduler proves the deadlock; the 1-hour timeout is
        // never consulted. (The thread backend would block here.)
        let cfg = MachineConfig {
            backend: Backend::Event,
            recv_timeout: Duration::from_secs(3600),
            ..MachineConfig::default()
        };
        let t0 = std::time::Instant::now();
        let err = Machine::try_run::<f32, _, _>(3, cfg, |rank| {
            if rank.id() == 0 {
                let _ = rank.recv(1, 42); // nobody sends this
            }
        })
        .expect_err("starved receive must fail the run");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "trap must be immediate"
        );
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].rank, 0);
        assert_eq!(err.failures[0].kind, FailureKind::Deadlock);
    }

    #[test]
    fn event_backend_survives_a_crashing_rank() {
        // The crashed rank must hand the floor off so the survivor can
        // reach its own (detected) starvation instead of wedging.
        let cfg = MachineConfig {
            backend: Backend::Event,
            faults: FaultPlan::default().with_crash(1, 1),
            ..MachineConfig::default()
        };
        let err = Machine::try_run::<u64, _, _>(3, cfg, |rank| {
            if rank.id() == 1 {
                rank.send(2, 5, &[1]);
            }
            if rank.id() == 2 {
                let _ = rank.recv(1, 5);
            }
        })
        .expect_err("crash must fail the run");
        assert_eq!(err.failed_ranks(), vec![1, 2]);
        assert_eq!(err.failures[0].kind, FailureKind::Crash);
        assert_eq!(err.failures[1].kind, FailureKind::Deadlock);
    }

    #[test]
    fn rank_panic_after_backtrace_capture_is_a_run_error() {
        // Rank 2 walks its own stack, then panics while ranks 0 and 1
        // are blocked waiting on it. On the event backend the walk
        // starts inside a coroutine and must end at its first frame;
        // the panic must surface as a RunError, not take the process.
        for backend in [Backend::Thread, Backend::Event] {
            let cfg = MachineConfig {
                backend,
                recv_timeout: Duration::from_millis(200),
                ..MachineConfig::default()
            };
            let err = Machine::try_run::<u64, _, _>(3, cfg, |rank| {
                if rank.id() == 2 {
                    let bt = std::backtrace::Backtrace::force_capture();
                    assert!(!bt.to_string().is_empty());
                    panic!("boom after backtrace from rank 2");
                }
                let _ = rank.recv(2, 9);
            })
            .expect_err("panicking rank must fail the run");
            assert_eq!(err.failed_ranks(), vec![0, 1, 2], "{backend:?}");
            assert_eq!(err.failures[2].kind, FailureKind::Other, "{backend:?}");
            assert!(
                err.failures[2].message.contains("boom after backtrace"),
                "{backend:?}: {err}"
            );
            assert_eq!(err.dead_ranks(), vec![2], "{backend:?}");
        }
    }

    #[test]
    fn rank_bodies_may_run_pool_loops_and_large_frames() {
        // Scoped OS threads started from inside a rank body (a kernel's
        // parallel loop), and a 256 KiB stack frame kept live across
        // blocking receives — both must work when the body is a
        // coroutine with its own stack.
        for backend in [Backend::Thread, Backend::Event] {
            let cfg = MachineConfig {
                backend,
                ..MachineConfig::default()
            };
            let r = Machine::run::<u64, _, _>(4, cfg, |rank| {
                let mut frame = [0u8; 256 * 1024];
                frame[rank.id()] = 1;
                let frame = std::hint::black_box(frame);
                let sums: Vec<std::sync::atomic::AtomicU64> = (0..64)
                    .map(|_| std::sync::atomic::AtomicU64::new(0))
                    .collect();
                let id = rank.id();
                distconv_par::Pool::new(4).par_iter_indexed(64, |i| {
                    let v = (i * (id + 1)) as u64;
                    sums[i].store(v, std::sync::atomic::Ordering::Relaxed);
                });
                let local: u64 = sums
                    .iter()
                    .map(|s| s.load(std::sync::atomic::Ordering::Relaxed))
                    .sum();
                // Ring exchange: every rank blocks once with the frame live.
                let next = (rank.id() + 1) % rank.size();
                let prev = (rank.id() + rank.size() - 1) % rank.size();
                rank.send(next, 3, &[local]);
                let got = rank.recv(prev, 3)[0];
                got + frame.iter().map(|&b| b as u64).sum::<u64>()
            });
            // Rank r's local sum is (r+1)·Σi = 2016·(r+1); it receives
            // its predecessor's, plus 1 from its own frame.
            let expect: Vec<u64> = (0..4u64).map(|r| 2016 * ((r + 3) % 4 + 1) + 1).collect();
            assert_eq!(r.results, expect, "{backend:?}");
        }
    }

    #[test]
    fn event_backend_runs_hundreds_of_ranks() {
        // Far past the host's core count: a binomial bcast over 512
        // ranks, with the analytic makespan check of the small cases.
        use crate::comm::Communicator;
        let cfg = MachineConfig {
            backend: Backend::Event,
            trace: TraceConfig::off(),
            ..MachineConfig::default()
        };
        let p = 512usize;
        let r = Machine::run::<f32, _, _>(p, cfg, move |rank| {
            let comm = Communicator::world(rank);
            let mut buf = vec![rank.id() as f32; 16];
            if comm.me() != 3 {
                buf = vec![0.0; 16];
            }
            comm.bcast(3, &mut buf);
            buf[0]
        });
        assert!(r.results.iter().all(|&v| v == 3.0));
        assert_eq!(r.stats.total_elems(), 16 * (p as u64 - 1));
        let hop = cfg.cost.alpha + cfg.cost.beta * 16.0;
        // Depth of the 512-member binomial tree is 9; the root's
        // serialized child sends add at most one more hop.
        assert!(r.makespan >= 9.0 * hop * 0.99 && r.makespan <= 10.0 * hop);
    }

    #[test]
    fn trace_records_sends_recvs_and_compute() {
        use distconv_trace::SpanKind;
        let r = Machine::run::<f32, _, _>(2, MachineConfig::default(), |rank| {
            rank.set_step(3);
            if rank.id() == 0 {
                rank.time_compute(|| ());
                rank.send(1, 7, &[1.0, 2.0]);
            } else {
                let _ = rank.recv(0, 7);
            }
        });
        let canon = r.trace.canonical();
        let sends: Vec<_> = canon.iter().filter(|s| s.kind == SpanKind::Send).collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(
            (
                sends[0].rank,
                sends[0].step,
                sends[0].peer,
                sends[0].tag,
                sends[0].elems
            ),
            (0, 3, Some(1), 7, 2)
        );
        let recvs: Vec<_> = canon.iter().filter(|s| s.kind == SpanKind::Recv).collect();
        assert_eq!(recvs.len(), 1);
        assert_eq!(
            (recvs[0].rank, recvs[0].peer, recvs[0].elems),
            (1, Some(0), 2)
        );
        assert_eq!(
            canon
                .iter()
                .filter(|s| s.kind == SpanKind::CommWait)
                .count(),
            1
        );
        assert_eq!(
            canon.iter().filter(|s| s.kind == SpanKind::Compute).count(),
            1
        );
        // Trace-vs-stats cross-check: per-rank sent elements agree.
        for rank in 0..2 {
            assert_eq!(r.trace.sent_elems(rank), r.stats.per_rank_elems[rank]);
        }
    }

    #[test]
    fn trace_disabled_yields_empty_trace() {
        use distconv_trace::TraceConfig;
        let cfg = MachineConfig {
            trace: TraceConfig::off(),
            ..MachineConfig::default()
        };
        let r = Machine::run::<f32, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                rank.send(1, 1, &[1.0]);
            } else {
                let _ = rank.recv(0, 1);
            }
        });
        assert!(r.trace.is_empty());
        assert_eq!(r.trace.per_rank.len(), 2);
        // Counters are unaffected by the tracing switch.
        assert_eq!(r.stats.total_elems(), 1);
    }

    #[test]
    fn trace_retransmits_under_faults_stay_out_of_send_spans() {
        use distconv_trace::SpanKind;
        let cfg = MachineConfig {
            faults: FaultPlan::reliable(0xC0FFEE).with_drops(0.5),
            ..MachineConfig::default()
        };
        let r = Machine::run::<u64, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                for i in 0..10u64 {
                    rank.send(1, 5, &[i]);
                }
            } else {
                for _ in 0..10 {
                    let _ = rank.recv(0, 5);
                }
            }
        });
        let canon = r.trace.canonical();
        let sends = canon.iter().filter(|s| s.kind == SpanKind::Send).count();
        let retrans = canon
            .iter()
            .filter(|s| s.kind == SpanKind::Retransmit)
            .count();
        assert_eq!(sends, 10, "logical sends only");
        assert_eq!(retrans as u64, r.stats.fault.retrans_msgs);
        assert!(retrans > 0, "p=0.5 over 10 messages certainly dropped");
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn malformed_fault_plan_fails_before_spawning() {
        let cfg = MachineConfig {
            faults: FaultPlan::reliable(1).with_drops(f64::NAN),
            ..MachineConfig::default()
        };
        let _ = Machine::run::<f32, _, _>(2, cfg, |_| ());
    }

    #[test]
    fn sim_time_positive_when_traffic() {
        let r = Machine::run::<f32, _, _>(2, MachineConfig::default(), |rank| {
            if rank.id() == 0 {
                rank.send(1, 1, &[0.0; 1000]);
            } else {
                let _ = rank.recv(0, 1);
            }
        });
        assert!(r.sim_time > 0.0);
    }
}
