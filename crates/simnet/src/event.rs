//! Discrete-event execution backend: virtual time instead of wall time.
//!
//! The thread-per-rank backend caps simulated machine sizes at what the
//! host can schedule comfortably; the paper's Eq. 10/11 claims only get
//! interesting at `P` in the hundreds-to-thousands. This module makes
//! those sizes cheap: an `EventScheduler` runs the rank bodies
//! cooperatively so **exactly one rank body runs at a time**. A rank
//! keeps the floor until it would block in a receive with an empty
//! mailbox; it then yields and the scheduler hands the floor to the
//! runnable rank with the smallest `(virtual clock, rank id)` — a
//! classic discrete-event loop whose "event list" is the set of blocked
//! ranks and whose clock is the Lamport α–β clock every rank already
//! carries (see `Rank::clock`).
//!
//! ## How ranks are suspended
//!
//! On `linux` + `x86_64` every rank body runs as a stackful coroutine
//! (`crate::coro`) on the thread that called [`crate::Machine::try_run`]:
//! that thread loops over `EventScheduler::pick`, switching into the
//! chosen rank until it yields or retires. A handoff is a user-space
//! register swap, and a run spawns no threads at all.
//!
//! Elsewhere the machine spawns one OS thread per rank and the
//! scheduler gates them with park/unpark, so each handoff is a kernel
//! context switch. The platform picks the path at build time; the
//! scheduling key, deadlock poisoning and every observable below are
//! the same on both.
//!
//! ## Why observables are backend-independent
//!
//! Nothing observable depends on *which* runnable rank goes first:
//!
//! * **Results** — message matching is by `(source, tag)` with per-pair
//!   FIFO, so the value each receive returns is a pure function of the
//!   program, not of arrival interleaving. The simulator has no
//!   any-source receive, the one primitive whose result would depend on
//!   the schedule.
//! * **Counters** — `Stats` records logical sends at the sender, keyed
//!   by nothing temporal.
//! * **Virtual time** — the Lamport clock advances by `α + β·n` per
//!   send and to `max(own, sender's departure)` per matched receive;
//!   both rules are schedule-independent, so per-rank clocks and the
//!   makespan are bitwise identical to the thread backend's.
//! * **Canonical traces** — `RunTrace::canonical` strips wall-clock
//!   fields and sorts spans deterministically.
//!
//! The scheduling *policy* (smallest clock first) therefore only decides
//! wall-time locality, never output; the backend-equivalence suite at
//! the workspace root pins all four properties.
//!
//! ## Deadlock detection
//!
//! The thread backend discovers deadlocks with a receive timeout. Under
//! virtual time the scheduler knows the truth exactly: if no rank is
//! runnable and at least one is blocked, the run is deadlocked *now*.
//! The scheduler poisons itself and resumes every blocked rank, each of
//! which raises the same "deadlock trap" panic the timeout path uses —
//! so failure classification upstream is unchanged, and the trap fires
//! in microseconds instead of after a 30 s timeout.

use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Which execution backend a [`crate::Machine`] run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per rank, all runnable concurrently — the default.
    /// Real parallelism (kernels and ranks overlap on the host's cores)
    /// but machine sizes are bounded by what the OS schedules well.
    #[default]
    Thread,
    /// Discrete-event: rank bodies run one at a time under an
    /// `EventScheduler`. No rank-level host parallelism, but `P` in
    /// the thousands simulates in seconds and all algorithmic
    /// observables (results, counters, Lamport clocks, canonical
    /// traces) are bitwise identical to [`Backend::Thread`].
    Event,
}

impl Backend {
    /// Parse a `DISTCONV_BACKEND` value.
    pub fn parse(v: &str) -> Result<Backend, String> {
        match v {
            "thread" => Ok(Backend::Thread),
            "event" => Ok(Backend::Event),
            other => Err(format!(
                "unrecognized backend {other:?} (expected \"thread\" or \"event\")"
            )),
        }
    }

    /// Backend selected by the `DISTCONV_BACKEND` environment variable
    /// (`thread` | `event`); [`Backend::Thread`] when unset. Panics on
    /// an unrecognized value — a typo must not silently fall back.
    pub fn from_env() -> Backend {
        match std::env::var("DISTCONV_BACKEND") {
            Ok(v) => Backend::parse(&v).unwrap_or_else(|e| panic!("DISTCONV_BACKEND: {e}")),
            Err(_) => Backend::Thread,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Runnable, waiting in the ready heap for the floor.
    Ready,
    /// Holds the floor (at most one rank at a time, pre-poison).
    Running,
    /// Yielded in a receive with an empty mailbox; a message must
    /// arrive before this rank can be scheduled again.
    Blocked,
    /// Rank body returned (or panicked and was caught).
    Done,
}

/// The scheduler told a blocked rank that the run is deadlocked: no
/// rank is runnable and no message can ever arrive.
pub(crate) struct Poisoned;

struct SchedState {
    status: Vec<Status>,
    /// Virtual clock each rank carried when it last blocked (scheduling
    /// key only — the authoritative clock lives in the `Rank`).
    clock: Vec<f64>,
    /// Min-heap of `(clock bits, rank)` over Ready ranks. Entries are
    /// lazily invalidated: pop checks the live status. Clocks are
    /// non-negative, so `f64::to_bits` orders like the float.
    ready: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Deadlock declared: every blocked rank must trap.
    poisoned: bool,
    /// The rank currently holding the floor.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    current: Option<usize>,
    /// Park handles, registered by each rank thread at startup.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    threads: Vec<Option<std::thread::Thread>>,
    /// Rank threads that have registered their park handle.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    registered: usize,
}

impl SchedState {
    /// Give the floor to the Ready rank with the smallest `(clock, id)`
    /// and return it; if none is Ready but some rank is Blocked, the
    /// run is deadlocked: poison it and return `None`. `None` without
    /// poisoning means every rank is Done.
    fn take_floor(&mut self) -> Option<usize> {
        while let Some(std::cmp::Reverse((_, id))) = self.ready.pop() {
            if self.status[id] != Status::Ready {
                continue; // stale entry
            }
            self.status[id] = Status::Running;
            return Some(id);
        }
        if self.status.contains(&Status::Blocked) {
            self.poisoned = true;
        }
        None
    }
}

/// Cooperative one-runner-at-a-time scheduler for [`Backend::Event`].
/// Created per machine run; every `Rank` of the run holds an `Arc`.
pub(crate) struct EventScheduler {
    state: Mutex<SchedState>,
}

impl EventScheduler {
    pub(crate) fn new(p: usize) -> Self {
        EventScheduler {
            state: Mutex::new(SchedState {
                status: vec![Status::Ready; p],
                clock: vec![0.0; p],
                ready: (0..p).map(|id| std::cmp::Reverse((0, id))).collect(),
                poisoned: false,
                #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
                current: None,
                #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
                threads: vec![None; p],
                #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
                registered: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        // Scheduler code never panics while holding the lock.
        self.state.lock().expect("event scheduler lock poisoned")
    }

    /// A message was just enqueued for `dst`: if it is blocked, make it
    /// runnable (it gets the floor when its clock comes up).
    pub(crate) fn notify(&self, dst: usize) {
        let mut st = self.lock();
        if st.status[dst] == Status::Blocked {
            st.status[dst] = Status::Ready;
            let key = st.clock[dst].to_bits();
            st.ready.push(std::cmp::Reverse((key, dst)));
        }
    }

    /// Mark the running rank blocked at virtual time `clock` and release
    /// the floor. `Err` when the run is already poisoned.
    fn block(&self, id: usize, clock: f64) -> Result<(), Poisoned> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(Poisoned);
        }
        st.status[id] = Status::Blocked;
        st.clock[id] = clock;
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        if st.current == Some(id) {
            Self::dispatch(&mut st);
        }
        Ok(())
    }
}

/// Coroutine path: the host thread drives the loop.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl EventScheduler {
    /// The rank the host should resume next: the Ready rank with the
    /// smallest `(clock, id)`. Once the run is poisoned, every unfinished
    /// rank in id order — each raises its deadlock trap and runs to
    /// completion, since a poisoned scheduler never suspends it again.
    /// `None` when every rank is Done.
    pub(crate) fn pick(&self) -> Option<usize> {
        let mut st = self.lock();
        if !st.poisoned {
            if let Some(id) = st.take_floor() {
                return Some(id);
            }
        }
        st.status.iter().position(|&s| s != Status::Done)
    }

    /// The running rank found its mailbox empty: give up the floor and
    /// suspend until a message for it arrives *and* the scheduler picks
    /// it again. `clock` is the rank's virtual time at the block, the
    /// scheduling key for its eventual resumption.
    pub(crate) fn yield_blocked(&self, id: usize, clock: f64) -> Result<(), Poisoned> {
        self.block(id, clock)?;
        crate::coro::suspend();
        if self.lock().poisoned {
            return Err(Poisoned);
        }
        Ok(())
    }

    /// The rank body returned (or its panic was caught): it never runs
    /// again.
    pub(crate) fn retire(&self, id: usize) {
        self.lock().status[id] = Status::Done;
    }
}

/// Portable path: one OS thread per rank, gated by park/unpark.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl EventScheduler {
    /// Hand the floor to the next rank and unpark it; on deadlock,
    /// release every unfinished rank so each raises its own deadlock
    /// trap. Caller holds the lock.
    fn dispatch(st: &mut SchedState) {
        st.current = st.take_floor();
        if let Some(id) = st.current {
            if let Some(t) = &st.threads[id] {
                t.unpark();
            }
        } else if st.poisoned {
            for (id, t) in st.threads.iter().enumerate() {
                if st.status[id] != Status::Done {
                    if let Some(t) = t {
                        t.unpark();
                    }
                }
            }
        }
        // Else: every rank is Done and the run is over.
    }

    /// Park until this rank holds the floor (or the run is poisoned —
    /// returned as `Err` so receive paths raise the deadlock trap).
    fn wait_floor(&self, id: usize) -> Result<(), Poisoned> {
        loop {
            {
                let st = self.lock();
                if st.current == Some(id) {
                    return Ok(());
                }
                if st.poisoned {
                    return Err(Poisoned);
                }
            }
            std::thread::park();
        }
    }

    /// Called once by each rank thread before its body runs: register
    /// the park handle and wait for the first dispatch. The last
    /// registrant starts the event loop.
    pub(crate) fn start(&self, id: usize) {
        {
            let mut st = self.lock();
            st.threads[id] = Some(std::thread::current());
            st.registered += 1;
            if st.registered == st.threads.len() {
                Self::dispatch(&mut st);
            }
        }
        // A poisoned result is impossible before the first dispatch;
        // tolerate it anyway by letting the body run into its first
        // receive, which will trap.
        let _ = self.wait_floor(id);
    }

    /// The running rank found its mailbox empty: give up the floor and
    /// park until a message for it arrives *and* the scheduler hands
    /// the floor back. `clock` is the rank's virtual time at the block,
    /// the scheduling key for its eventual resumption.
    pub(crate) fn yield_blocked(&self, id: usize, clock: f64) -> Result<(), Poisoned> {
        self.block(id, clock)?;
        self.wait_floor(id)
    }

    /// The rank body returned (or its panic was caught): release the
    /// floor permanently.
    pub(crate) fn retire(&self, id: usize) {
        let mut st = self.lock();
        st.status[id] = Status::Done;
        if st.current == Some(id) {
            Self::dispatch(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_roundtrip() {
        assert_eq!(Backend::parse("thread"), Ok(Backend::Thread));
        assert_eq!(Backend::parse("event"), Ok(Backend::Event));
        assert!(Backend::parse("fiber").is_err());
        assert_eq!(Backend::default(), Backend::Thread);
    }

    #[test]
    fn clock_bits_order_like_floats() {
        // The ready heap keys on to_bits(); verify the monotonicity
        // assumption for the non-negative clocks we feed it.
        let xs = [0.0f64, 1e-9, 1e-6, 0.5, 1.0, 1e6];
        for w in xs.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }
}
