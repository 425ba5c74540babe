//! Deterministic fault injection for the simulated machine.
//!
//! The paper's cost model (Eqs. 1–11) assumes a fault-free, uniform
//! machine. A [`FaultPlan`] lets the simulator *violate* that assumption
//! on purpose — and reproducibly: every fault decision is a pure
//! function of `(plan.seed, src, dst, wire-sequence, attempt)` through
//! the workspace's SplitMix64 hash, so a run with a given plan behaves
//! identically regardless of thread scheduling, and any chaos-test
//! failure replays from one `u64` seed.
//!
//! ## Fault classes
//!
//! *Link faults* (per message, decided at the sender, probabilistic):
//!
//! * **drop** — the packet never reaches the destination mailbox;
//! * **duplicate** — a second physical copy is enqueued;
//! * **delay** — the packet's Lamport timestamp is skewed forward by
//!   [`FaultPlan::delay_skew`] simulated seconds (clock skew: affects the
//!   makespan, never the payload);
//! * **reorder** — the packet is held back and enqueued *after* the
//!   sender's next message to the same destination (flushed before the
//!   sender's next blocking receive, and at the end of its rank body, so
//!   a held message can never be lost by a well-terminating rank).
//!
//! *Rank faults* (deterministic, not probabilistic):
//!
//! * **crash** — the chosen rank panics at its `at_send`-th send
//!   (1-based), exactly like a process dying mid-collective;
//! * **straggler** — the chosen rank's per-send logical-clock advance is
//!   multiplied by `factor`, modelling a slow NIC/node. Affects the
//!   makespan only.
//!
//! ## Reliable delivery
//!
//! With [`FaultPlan::reliable`] set, the transport in [`crate::Rank`]
//! runs a per-`(pair, tag)` sequence-numbered ARQ: every data packet is
//! acknowledged, unacknowledged packets are retransmitted up to
//! [`MAX_SEND_ATTEMPTS`] times with exponential backoff *in simulated
//! time*, and the receiver suppresses duplicates and re-assembles
//! per-`(src, tag)` FIFO order from sequence numbers. Collectives built
//! on the point-to-point layer then survive any link-fault plan
//! bit-identically. Retransmit, duplicate and ack traffic is accounted
//! in [`crate::stats::FaultTraffic`] — *separately* from the algorithmic
//! counters, so the paper's volume tables are unaffected even under
//! faults. Without `reliable`, link faults hit the raw transport and a
//! dropped message surfaces as a deadlock-trap panic downstream — useful
//! for demonstrating which schedules fail loudly vs. corrupt silently.

use distconv_par::rng::splitmix64;

/// Upper bound on ARQ transmissions per logical message (first try +
/// retransmits). With drop probability `p` applied independently to the
/// data packet and its ack, the chance of exhausting the budget is
/// `(1 − (1−p)²)^MAX` — below 1e-11 even at `p = 0.3`.
pub const MAX_SEND_ATTEMPTS: u32 = 40;

/// Marker embedded in injected-crash panic messages; [`crate::machine`]
/// uses it to classify the failure. Kept stable for log grepping.
pub const CRASH_MARKER: &str = "fault-injected crash";

/// Crash a rank at its `at_send`-th send (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashAt {
    /// The rank that dies.
    pub rank: usize,
    /// Which of its sends kills it (1 = the very first).
    pub at_send: u64,
    /// A *persistent* crash survives [`FaultPlan::without_rank_faults`]:
    /// it models a dead node that keeps killing its replacement process,
    /// not a one-shot process death. Checkpoint/restart retries against
    /// a persistent crash fail identically every time, which is what
    /// drives the degraded-grid recovery path in `distconv-core`.
    pub persistent: bool,
}

/// Slow one rank down by a multiplicative factor on its logical clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// The slow rank.
    pub rank: usize,
    /// Clock multiplier (`> 1` = slower).
    pub factor: f64,
}

/// A complete, seeded description of the faults to inject into one run.
///
/// The default plan is all-zero: **no fault machinery runs at all** —
/// the transport takes the exact pre-fault code path, so counters,
/// goldens and collective volumes are byte-identical to a build without
/// this module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every probabilistic decision hashes it.
    pub seed: u64,
    /// Run the ARQ reliable-delivery transport (see module docs).
    pub reliable: bool,
    /// Per-message drop probability (data packets and acks alike).
    pub drop_prob: f64,
    /// Per-message duplicate probability.
    pub dup_prob: f64,
    /// Per-message Lamport-delay probability.
    pub delay_prob: f64,
    /// Simulated seconds of clock skew added to a delayed packet.
    pub delay_skew: f64,
    /// Per-message reorder (hold-back) probability.
    pub reorder_prob: f64,
    /// Deterministic rank crash, if any.
    pub crash: Option<CrashAt>,
    /// Deterministic straggler rank, if any.
    pub straggler: Option<Straggler>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            reliable: false,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_skew: 0.0,
            reorder_prob: 0.0,
            crash: None,
            straggler: None,
        }
    }
}

/// Why a [`FaultPlan`] field was rejected. Every probability must lie in
/// `[0, 1]`, the delay skew must be finite and non-negative, and a
/// straggler factor must be finite and positive — a NaN or out-of-range
/// value would silently bias every downstream hash comparison (NaN
/// compares false against everything, so `NaN < p` never drops and
/// `factor = NaN` poisons every clock), which is exactly the silent
/// misbehavior this typed error exists to prevent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability field was outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// Which field (`"drop_prob"`, `"dup_prob"`, …).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The delay skew was NaN, infinite, or negative.
    InvalidDelaySkew {
        /// The rejected value.
        value: f64,
    },
    /// The straggler factor was NaN, infinite, zero, or negative.
    InvalidStragglerFactor {
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::InvalidProbability { field, value } => {
                write!(
                    f,
                    "FaultPlan.{field} = {value} is not a probability in [0, 1]"
                )
            }
            FaultPlanError::InvalidDelaySkew { value } => {
                write!(f, "FaultPlan.delay_skew = {value} must be finite and >= 0")
            }
            FaultPlanError::InvalidStragglerFactor { value } => {
                write!(
                    f,
                    "FaultPlan straggler factor = {value} must be finite and > 0"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn check_prob(field: &'static str, value: f64) -> Result<(), FaultPlanError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultPlanError::InvalidProbability { field, value })
    }
}

/// Decision salts: distinct per fault class so the per-class streams are
/// independent functions of the same `(seed, src, dst, wire)` key.
const SALT_DROP_DATA: u64 = 0xD80D;
const SALT_DROP_ACK: u64 = 0xD8AC;
const SALT_DUP: u64 = 0xD0B1;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_REORDER: u64 = 0x2E02;

impl FaultPlan {
    /// A reliable-delivery plan with the given seed and no faults yet;
    /// chain the `with_*` builders to add them.
    pub fn reliable(seed: u64) -> Self {
        FaultPlan {
            seed,
            reliable: true,
            ..FaultPlan::default()
        }
    }

    /// Validate every field. The `with_*` builders only set fields;
    /// [`crate::Machine`] calls this once per run, before spawning any
    /// rank, so no invalid plan reaches the transport.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        check_prob("drop_prob", self.drop_prob)?;
        check_prob("dup_prob", self.dup_prob)?;
        check_prob("delay_prob", self.delay_prob)?;
        check_prob("reorder_prob", self.reorder_prob)?;
        if !self.delay_skew.is_finite() || self.delay_skew < 0.0 {
            return Err(FaultPlanError::InvalidDelaySkew {
                value: self.delay_skew,
            });
        }
        if let Some(s) = self.straggler {
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(FaultPlanError::InvalidStragglerFactor { value: s.factor });
            }
        }
        Ok(())
    }

    /// Set the drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Set the duplicate probability.
    pub fn with_dups(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Set the delay probability and skew.
    pub fn with_delays(mut self, p: f64, skew: f64) -> Self {
        self.delay_prob = p;
        self.delay_skew = skew;
        self
    }

    /// Set the reorder probability.
    pub fn with_reorders(mut self, p: f64) -> Self {
        self.reorder_prob = p;
        self
    }

    /// Crash `rank` at its `at_send`-th send (a *transient* crash: a
    /// checkpoint/restart retry clears it via
    /// [`FaultPlan::without_rank_faults`]).
    pub fn with_crash(mut self, rank: usize, at_send: u64) -> Self {
        self.crash = Some(CrashAt {
            rank,
            at_send,
            persistent: false,
        });
        self
    }

    /// Crash `rank` at its `at_send`-th send *persistently*: the crash
    /// survives [`FaultPlan::without_rank_faults`], so every
    /// checkpoint/restart retry dies the same way — the scenario that
    /// forces `distconv-core` to shrink the grid and run degraded.
    pub fn with_persistent_crash(mut self, rank: usize, at_send: u64) -> Self {
        self.crash = Some(CrashAt {
            rank,
            at_send,
            persistent: true,
        });
        self
    }

    /// Slow `rank` by `factor`.
    pub fn with_straggler(mut self, rank: usize, factor: f64) -> Self {
        self.straggler = Some(Straggler { rank, factor });
        self
    }

    /// True when the plan injects nothing and requests no reliable
    /// transport: the machine takes the fault-free fast path.
    pub fn is_noop(&self) -> bool {
        !self.reliable && !self.link_active() && self.crash.is_none() && self.straggler.is_none()
    }

    /// True when any probabilistic link fault can fire.
    pub fn link_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || self.reorder_prob > 0.0
    }

    /// The same plan with transient rank faults cleared — what a
    /// checkpoint/restart re-runs with after replacing a crashed rank.
    /// Link faults and stragglers persist (they model the network and
    /// hardware, not a one-shot process death), and so does a
    /// *persistent* crash ([`FaultPlan::with_persistent_crash`]): a dead
    /// node kills its replacement too, which is what exhausts the retry
    /// budget and triggers degraded-grid recovery.
    pub fn without_rank_faults(mut self) -> Self {
        if self.crash.is_some_and(|c| !c.persistent) {
            self.crash = None;
        }
        self
    }

    /// Uniform `[0, 1)` decision variable for `(salt, src, dst, wire)`.
    fn uniform(&self, salt: u64, src: usize, dst: usize, wire: u64) -> f64 {
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_add((src as u64) << 40)
            .wrapping_add((dst as u64) << 20)
            .wrapping_add(wire);
        (splitmix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does the data packet of `(src → dst, wire)` attempt `attempt` drop?
    pub(crate) fn drops_data(&self, src: usize, dst: usize, wire: u64, attempt: u32) -> bool {
        self.drop_prob > 0.0
            && self.uniform(
                SALT_DROP_DATA.wrapping_add((attempt as u64) << 48),
                src,
                dst,
                wire,
            ) < self.drop_prob
    }

    /// Does the ack of `(src → dst, wire)` attempt `attempt` drop?
    /// (Keyed by the *data* direction so sender and receiver agree.)
    pub(crate) fn drops_ack(&self, src: usize, dst: usize, wire: u64, attempt: u32) -> bool {
        self.drop_prob > 0.0
            && self.uniform(
                SALT_DROP_ACK.wrapping_add((attempt as u64) << 48),
                src,
                dst,
                wire,
            ) < self.drop_prob
    }

    /// Is `(src → dst, wire)` duplicated?
    pub(crate) fn duplicates(&self, src: usize, dst: usize, wire: u64) -> bool {
        self.dup_prob > 0.0 && self.uniform(SALT_DUP, src, dst, wire) < self.dup_prob
    }

    /// Is `(src → dst, wire)` delayed (Lamport clock skew)?
    pub(crate) fn delays(&self, src: usize, dst: usize, wire: u64) -> bool {
        self.delay_prob > 0.0 && self.uniform(SALT_DELAY, src, dst, wire) < self.delay_prob
    }

    /// Is `(src → dst, wire)` held back behind the next send to `dst`?
    pub(crate) fn reorders(&self, src: usize, dst: usize, wire: u64) -> bool {
        self.reorder_prob > 0.0 && self.uniform(SALT_REORDER, src, dst, wire) < self.reorder_prob
    }

    /// Clock multiplier for `rank` (1.0 unless it is the straggler).
    pub(crate) fn straggle_factor(&self, rank: usize) -> f64 {
        match self.straggler {
            Some(s) if s.rank == rank => s.factor,
            _ => 1.0,
        }
    }

    /// The send count at which `rank` crashes, if it is the victim.
    pub(crate) fn crashes_at(&self, rank: usize) -> Option<u64> {
        match self.crash {
            Some(c) if c.rank == rank => Some(c.at_send),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        let p = FaultPlan::default();
        assert!(p.is_noop());
        assert!(!p.link_active());
        assert_eq!(p.straggle_factor(3), 1.0);
        assert_eq!(p.crashes_at(0), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::reliable(42).with_drops(0.5).with_dups(0.5);
        for wire in 0..64u64 {
            assert_eq!(
                p.drops_data(1, 2, wire, 0),
                p.drops_data(1, 2, wire, 0),
                "same key must decide identically"
            );
        }
        // Distinct keys decide independently: over 256 draws at p=0.5
        // both outcomes must appear.
        let drops: Vec<bool> = (0..256).map(|w| p.drops_data(0, 1, w, 0)).collect();
        assert!(drops.iter().any(|&d| d) && drops.iter().any(|&d| !d));
    }

    #[test]
    fn classes_and_attempts_are_independent_streams() {
        let p = FaultPlan::reliable(7)
            .with_drops(0.5)
            .with_dups(0.5)
            .with_delays(0.5, 1.0)
            .with_reorders(0.5);
        let mut agree = 0;
        for w in 0..256u64 {
            if p.drops_data(0, 1, w, 0) == p.duplicates(0, 1, w) {
                agree += 1;
            }
        }
        // Perfect correlation would be 256 (or 0); independent streams
        // hover near 128.
        assert!((64..=192).contains(&agree), "agree={agree}");
        // Attempt index must change the drop decision stream.
        let a0: Vec<bool> = (0..64).map(|w| p.drops_data(0, 1, w, 0)).collect();
        let a1: Vec<bool> = (0..64).map(|w| p.drops_data(0, 1, w, 1)).collect();
        assert_ne!(a0, a1);
    }

    #[test]
    fn seed_changes_every_stream() {
        let a = FaultPlan::reliable(1).with_drops(0.5);
        let b = FaultPlan::reliable(2).with_drops(0.5);
        let da: Vec<bool> = (0..64).map(|w| a.drops_data(0, 1, w, 0)).collect();
        let db: Vec<bool> = (0..64).map(|w| b.drops_data(0, 1, w, 0)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn rank_fault_accessors() {
        let p = FaultPlan::default().with_crash(2, 5).with_straggler(1, 3.0);
        assert_eq!(p.crashes_at(2), Some(5));
        assert_eq!(p.crashes_at(1), None);
        assert_eq!(p.straggle_factor(1), 3.0);
        assert_eq!(p.straggle_factor(2), 1.0);
        assert!(!p.is_noop());
        let cleared = p.without_rank_faults();
        assert_eq!(cleared.crashes_at(2), None);
        assert_eq!(cleared.straggle_factor(1), 3.0, "straggler persists");
    }

    #[test]
    fn persistent_crash_survives_rank_fault_clearing() {
        let p = FaultPlan::default().with_persistent_crash(2, 5);
        assert_eq!(p.crashes_at(2), Some(5));
        let retried = p.without_rank_faults();
        assert_eq!(
            retried.crashes_at(2),
            Some(5),
            "a persistent crash must survive checkpoint/restart retries"
        );
    }

    #[test]
    fn builders_reject_invalid_fields() {
        // The builders set fields as given; validate() is the one check.
        let base = FaultPlan::reliable(1);
        assert_eq!(
            base.with_drops(1.5).validate(),
            Err(FaultPlanError::InvalidProbability {
                field: "drop_prob",
                value: 1.5
            })
        );
        assert!(matches!(
            base.with_dups(-0.1).validate(),
            Err(FaultPlanError::InvalidProbability {
                field: "dup_prob",
                ..
            })
        ));
        assert!(matches!(
            base.with_delays(f64::NAN, 1.0).validate(),
            Err(FaultPlanError::InvalidProbability {
                field: "delay_prob",
                ..
            })
        ));
        assert!(matches!(
            base.with_delays(0.1, f64::NAN).validate(),
            Err(FaultPlanError::InvalidDelaySkew { .. })
        ));
        assert!(matches!(
            base.with_delays(0.1, -1.0).validate(),
            Err(FaultPlanError::InvalidDelaySkew { .. })
        ));
        assert!(matches!(
            base.with_reorders(2.0).validate(),
            Err(FaultPlanError::InvalidProbability {
                field: "reorder_prob",
                ..
            })
        ));
        assert!(matches!(
            base.with_straggler(0, -3.0).validate(),
            Err(FaultPlanError::InvalidStragglerFactor { .. })
        ));
        assert!(matches!(
            base.with_straggler(0, f64::INFINITY).validate(),
            Err(FaultPlanError::InvalidStragglerFactor { .. })
        ));
        // Boundary values are valid probabilities.
        assert!(base.with_drops(0.0).validate().is_ok());
        assert!(base.with_drops(1.0).validate().is_ok());
        // The error message names the field and value.
        let msg = base.with_drops(1.5).validate().unwrap_err().to_string();
        assert!(msg.contains("drop_prob") && msg.contains("1.5"), "{msg}");
    }

    #[test]
    fn validate_checks_hand_assembled_plans() {
        let mut p = FaultPlan::reliable(9).with_drops(0.2);
        assert_eq!(p.validate(), Ok(()));
        p.delay_skew = f64::NAN;
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::InvalidDelaySkew { .. })
        ));
        p.delay_skew = 0.0;
        p.straggler = Some(Straggler {
            rank: 1,
            factor: 0.0,
        });
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::InvalidStragglerFactor { .. })
        ));
    }
}
