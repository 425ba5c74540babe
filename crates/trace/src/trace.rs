//! The shared tracer (per-rank ring buffers, written during the run)
//! and the merged [`RunTrace`] (read after the run).

use crate::span::{CanonicalSpan, SpanEvent, SpanKind};
use std::sync::Mutex;
use std::time::Instant;

/// Tracing configuration, carried on the machine config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record spans at all. On by default: the per-event cost is one
    /// `Instant::now` plus an uncontended lock, under the documented
    /// <5% overhead budget on the bench_comm representative layer.
    pub enabled: bool,
    /// Ring capacity per rank, in events. When a rank exceeds it, the
    /// *oldest* events are overwritten and the drop is counted — the
    /// conformance cross-check refuses to run on a wrapped trace.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// A disabled tracer (no recording, empty trace on the report).
    pub fn off() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 0,
        }
    }
}

/// One rank's ring: newest `capacity` events, oldest overwritten first.
struct Ring {
    events: Vec<SpanEvent>,
    /// Index of the logical start when the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            events: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn into_ordered(mut self) -> (Vec<SpanEvent>, u64) {
        self.events.rotate_left(self.head);
        (self.events, self.dropped)
    }
}

/// The shared recording side: one ring per rank plus the wall-clock
/// epoch. Only the owning rank thread writes a given ring, so the
/// per-ring mutex is uncontended during the run.
pub struct Tracer {
    start: Instant,
    rings: Vec<Mutex<Ring>>,
}

impl Tracer {
    /// A tracer for `p` ranks with per-rank ring `capacity`.
    pub fn new(p: usize, capacity: usize) -> Self {
        Tracer {
            start: Instant::now(),
            rings: (0..p).map(|_| Mutex::new(Ring::new(capacity))).collect(),
        }
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Record `ev` on behalf of `rank`.
    pub fn record(&self, rank: usize, ev: SpanEvent) {
        self.rings[rank]
            .lock()
            .expect("tracer ring poisoned")
            .push(ev);
    }

    /// Drain every ring into the merged post-run view.
    pub fn into_run_trace(self) -> RunTrace {
        RunTrace {
            per_rank: self
                .rings
                .into_iter()
                .enumerate()
                .map(|(rank, ring)| {
                    let (events, dropped) = ring
                        .into_inner()
                        .expect("tracer ring poisoned")
                        .into_ordered();
                    RankTrace {
                        rank,
                        events,
                        dropped,
                    }
                })
                .collect(),
        }
    }
}

/// One rank's recorded spans, in program order (oldest surviving event
/// first), plus how many events the ring overwrote.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankTrace {
    /// The recording rank.
    pub rank: usize,
    /// Surviving events in recording order.
    pub events: Vec<SpanEvent>,
    /// Events overwritten because the ring wrapped.
    pub dropped: u64,
}

/// The merged per-run trace, carried on `RunReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTrace {
    /// Per-rank traces, indexed by rank id. Empty when tracing was
    /// disabled.
    pub per_rank: Vec<RankTrace>,
}

impl RunTrace {
    /// An empty trace for `p` ranks (tracing disabled).
    pub fn empty(p: usize) -> Self {
        RunTrace {
            per_rank: (0..p)
                .map(|rank| RankTrace {
                    rank,
                    ..RankTrace::default()
                })
                .collect(),
        }
    }

    /// True when no spans were recorded (tracing off or a no-op run).
    pub fn is_empty(&self) -> bool {
        self.per_rank.iter().all(|r| r.events.is_empty())
    }

    /// Total events across ranks.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(|r| r.events.len()).sum()
    }

    /// Total ring-wrap drops across ranks. Nonzero means sums over the
    /// trace undercount the run; raise `TraceConfig::capacity`.
    pub fn total_dropped(&self) -> u64 {
        self.per_rank.iter().map(|r| r.dropped).sum()
    }

    /// Append a post-run event (e.g. a checkpoint-restore marker from
    /// the recovery layer) to `rank`'s trace.
    pub fn push(&mut self, rank: usize, ev: SpanEvent) {
        if let Some(r) = self.per_rank.get_mut(rank) {
            r.events.push(ev);
        }
    }

    /// The deterministic view: every span with wall-clock fields
    /// stripped, sorted by `(rank, step, kind, peer, tag, elems)`.
    /// Identical across thread counts for the same schedule — the
    /// pipelined executors stamp traffic with the step of the payload
    /// it carries, not the step they happen to post in.
    pub fn canonical(&self) -> Vec<CanonicalSpan> {
        let mut out: Vec<CanonicalSpan> = self
            .per_rank
            .iter()
            .flat_map(|r| {
                r.events
                    .iter()
                    .map(|ev| CanonicalSpan::from_event(r.rank, ev))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// FNV-1a digest of the canonical view — a one-number golden for
    /// trace-regression checks.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for s in self.canonical() {
            eat(s.rank as u64);
            eat(s.step);
            eat(s.kind as u64);
            eat(s.peer.map_or(u64::MAX, |p| p as u64));
            eat(s.tag);
            eat(s.elems);
        }
        h
    }

    /// Elements `rank` sent to *other* ranks according to the trace
    /// (self-sends excluded) — cross-checked against the machine's
    /// `StatsSnapshot::per_rank_elems` by the conformance layer.
    pub fn sent_elems(&self, rank: usize) -> u64 {
        self.per_rank
            .get(rank)
            .map(|r| {
                r.events
                    .iter()
                    .filter(|e| e.kind == SpanKind::Send && e.peer != Some(rank))
                    .map(|e| e.elems)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Per-rank, per-kind flat metrics table: count, elements and
    /// wall-clock nanoseconds per `(rank, kind)`.
    pub fn metrics_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<18}  {:>8}  {:>12}  {:>14}",
            "rank", "kind", "count", "elems", "wall_ns"
        );
        for r in &self.per_rank {
            for kind in SpanKind::ALL {
                let (mut count, mut elems, mut ns) = (0u64, 0u64, 0u64);
                for e in r.events.iter().filter(|e| e.kind == kind) {
                    count += 1;
                    elems += e.elems;
                    ns += e.dur_ns;
                }
                if count > 0 {
                    let _ = writeln!(
                        out,
                        "{:>4}  {:<18}  {:>8}  {:>12}  {:>14}",
                        r.rank,
                        kind.name(),
                        count,
                        elems,
                        ns
                    );
                }
            }
            if r.dropped > 0 {
                let _ = writeln!(out, "{:>4}  (ring dropped {} events)", r.rank, r.dropped);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, step: u64, peer: Option<usize>, elems: u64) -> SpanEvent {
        SpanEvent {
            kind,
            step,
            peer,
            tag: 1,
            elems,
            start_ns: 5,
            dur_ns: 9,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = Ring::new(3);
        for step in 0..5 {
            ring.push(ev(SpanKind::Send, step, Some(1), 10));
        }
        let (events, dropped) = ring.into_ordered();
        assert_eq!(dropped, 2);
        assert_eq!(
            events.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest overwritten, survivors in order"
        );
    }

    #[test]
    fn tracer_merges_per_rank_in_order() {
        let t = Tracer::new(2, 16);
        t.record(1, ev(SpanKind::Compute, 0, None, 0));
        t.record(0, ev(SpanKind::Send, 0, Some(1), 4));
        t.record(1, ev(SpanKind::Recv, 0, Some(0), 4));
        let trace = t.into_run_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.per_rank[0].events.len(), 1);
        assert_eq!(trace.per_rank[1].events.len(), 2);
        assert_eq!(trace.per_rank[1].events[0].kind, SpanKind::Compute);
        assert_eq!(trace.total_dropped(), 0);
    }

    #[test]
    fn canonical_is_mode_order_independent() {
        // Same spans recorded in different program order (as a blocking
        // vs pipelined schedule would) canonicalize identically.
        let blocking = {
            let t = Tracer::new(1, 16);
            t.record(0, ev(SpanKind::Compute, 0, None, 0));
            t.record(0, ev(SpanKind::Send, 1, Some(1), 8));
            t.into_run_trace()
        };
        let overlapped = {
            let t = Tracer::new(1, 16);
            t.record(0, ev(SpanKind::Send, 1, Some(1), 8));
            t.record(0, ev(SpanKind::Compute, 0, None, 0));
            t.into_run_trace()
        };
        assert_eq!(blocking.canonical(), overlapped.canonical());
        assert_eq!(blocking.digest(), overlapped.digest());
    }

    #[test]
    fn digest_sees_schedule_changes_not_wall_clock() {
        let mk = |elems, dur_ns| {
            let t = Tracer::new(1, 16);
            t.record(
                0,
                SpanEvent {
                    dur_ns,
                    ..ev(SpanKind::Send, 0, Some(1), elems)
                },
            );
            t.into_run_trace()
        };
        assert_eq!(mk(8, 1).digest(), mk(8, 999).digest());
        assert_ne!(mk(8, 1).digest(), mk(9, 1).digest());
    }

    #[test]
    fn sent_elems_excludes_self_sends() {
        let t = Tracer::new(2, 16);
        t.record(0, ev(SpanKind::Send, 0, Some(1), 10));
        t.record(0, ev(SpanKind::Send, 0, Some(0), 99)); // self-copy
        t.record(0, ev(SpanKind::Recv, 0, Some(1), 7)); // not a send
        let trace = t.into_run_trace();
        assert_eq!(trace.sent_elems(0), 10);
        assert_eq!(trace.sent_elems(1), 0);
    }

    #[test]
    fn metrics_table_aggregates_by_kind() {
        let t = Tracer::new(1, 16);
        t.record(0, ev(SpanKind::Send, 0, Some(1), 10));
        t.record(0, ev(SpanKind::Send, 1, Some(1), 10));
        let table = t.into_run_trace().metrics_table();
        assert!(table.contains("send"), "{table}");
        assert!(table.contains("20"), "summed elems: {table}");
        assert!(!table.contains("compute"), "absent kinds omitted: {table}");
    }

    #[test]
    fn empty_trace_shape() {
        let trace = RunTrace::empty(3);
        assert!(trace.is_empty());
        assert_eq!(trace.per_rank.len(), 3);
        assert_eq!(trace.per_rank[2].rank, 2);
        assert_eq!(trace.canonical(), vec![]);
    }

    #[test]
    fn push_appends_post_run_events() {
        let mut trace = RunTrace::empty(2);
        trace.push(
            1,
            SpanEvent {
                kind: SpanKind::CheckpointRestore,
                step: 0,
                peer: None,
                tag: 0,
                elems: 123,
                start_ns: 0,
                dur_ns: 0,
            },
        );
        assert_eq!(trace.per_rank[1].events.len(), 1);
        assert_eq!(trace.canonical()[0].elems, 123);
    }
}
