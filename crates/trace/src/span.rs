//! Typed span events: what a rank was doing, stamped with the schedule
//! step it belongs to.

/// The span taxonomy. Declaration order defines the canonical sort
/// order (see [`CanonicalSpan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A timed local-compute section (`Rank::time_compute`).
    Compute,
    /// A logical point-to-point send (collective edges included — every
    /// collective is built from point-to-point sends). Self-sends are
    /// recorded too, distinguishable by `peer == rank`.
    Send,
    /// A matched message delivery: the payload reached the application.
    Recv,
    /// The blocking wait of a receive (wall-clock duration; the
    /// duration is stripped from the canonical view).
    CommWait,
    /// An ARQ retransmission under fault injection (overhead traffic,
    /// never algorithmic volume).
    Retransmit,
    /// A checkpoint/restart retry boundary, appended by the recovery
    /// layer after a crashed attempt.
    CheckpointRestore,
    /// Degraded-grid recovery found a rank dead (`peer` carries its
    /// id). Appended after `CheckpointRestore` so existing canonical
    /// digests are unchanged.
    FailureDetect,
    /// Degraded-grid recovery moved checkpoint shards onto a shrunken
    /// grid; `elems` is the redistribution volume (overhead traffic,
    /// accounted like ARQ retransmits — never algorithmic volume).
    Redistribute,
}

impl SpanKind {
    /// All kinds, in canonical order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Compute,
        SpanKind::Send,
        SpanKind::Recv,
        SpanKind::CommWait,
        SpanKind::Retransmit,
        SpanKind::CheckpointRestore,
        SpanKind::FailureDetect,
        SpanKind::Redistribute,
    ];

    /// Short display name (also the Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::CommWait => "comm-wait",
            SpanKind::Retransmit => "retransmit",
            SpanKind::CheckpointRestore => "checkpoint-restore",
            SpanKind::FailureDetect => "failure-detect",
            SpanKind::Redistribute => "redistribute",
        }
    }
}

/// One recorded span. `step`, `peer`, `tag` and `elems` are
/// deterministic schedule facts; `start_ns`/`dur_ns` are wall-clock
/// (host-dependent) and excluded from the canonical view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanEvent {
    /// What the rank was doing.
    pub kind: SpanKind,
    /// Schedule step the span belongs to — the step of the payload it
    /// moves, or the step it computes (stamped by the executors via
    /// `Rank::set_step`, so blocking and pipelined schedules stamp the
    /// same traffic identically).
    pub step: u64,
    /// Peer rank for communication spans (`None` for compute and
    /// checkpoint spans).
    pub peer: Option<usize>,
    /// Message tag for communication spans (0 otherwise).
    pub tag: u64,
    /// Elements moved (0 for compute spans).
    pub elems: u64,
    /// Wall-clock start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

/// A span with the wall-clock fields stripped, plus the owning rank:
/// the unit of deterministic comparison. Ordered by
/// `(rank, step, kind, peer, tag, elems)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalSpan {
    /// The recording rank.
    pub rank: usize,
    /// Schedule step.
    pub step: u64,
    /// Span kind.
    pub kind: SpanKind,
    /// Peer rank, if any.
    pub peer: Option<usize>,
    /// Message tag.
    pub tag: u64,
    /// Elements moved.
    pub elems: u64,
}

impl CanonicalSpan {
    /// Strip the wall-clock fields off `ev`, attributing it to `rank`.
    pub fn from_event(rank: usize, ev: &SpanEvent) -> Self {
        CanonicalSpan {
            rank,
            step: ev.step,
            kind: ev.kind,
            peer: ev.peer,
            tag: ev.tag,
            elems: ev.elems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<_> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "compute",
                "send",
                "recv",
                "comm-wait",
                "retransmit",
                "checkpoint-restore",
                "failure-detect",
                "redistribute"
            ]
        );
    }

    #[test]
    fn canonical_strips_wall_clock() {
        let mk = |start_ns, dur_ns| SpanEvent {
            kind: SpanKind::Send,
            step: 3,
            peer: Some(1),
            tag: 7,
            elems: 100,
            start_ns,
            dur_ns,
        };
        assert_eq!(
            CanonicalSpan::from_event(0, &mk(10, 20)),
            CanonicalSpan::from_event(0, &mk(999, 0)),
        );
    }

    #[test]
    fn canonical_order_is_rank_then_step() {
        let a = CanonicalSpan {
            rank: 0,
            step: 9,
            kind: SpanKind::CheckpointRestore,
            peer: None,
            tag: 0,
            elems: 0,
        };
        let b = CanonicalSpan {
            rank: 1,
            step: 0,
            kind: SpanKind::Compute,
            peer: None,
            tag: 0,
            elems: 0,
        };
        assert!(a < b);
    }
}
