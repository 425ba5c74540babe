//! The per-rank execution context: typed point-to-point messaging.
//!
//! A [`Rank`] is handed to each simulated processor's closure by
//! [`crate::Machine::run`]. It owns the rank's mailbox and is the *only*
//! channel to other ranks — the partitioned-memory model. Matching is
//! MPI-like: [`Rank::recv`] blocks for a message with a given
//! `(source, tag)`; messages that arrive out of order are parked in an
//! unexpected-message queue, preserving per-(src, tag) FIFO order.
//!
//! A receive that cannot complete panics with a diagnostic — the
//! simulator's deadlock trap: on the thread backend once it has waited
//! the machine's configured timeout, on the event backend as soon as
//! the scheduler proves the deadlock. A mismatched collective or a
//! wrong schedule therefore fails loudly instead of hanging the test
//! suite.
//!
//! ## Fault-aware transport
//!
//! When the machine's [`FaultPlan`] is not a no-op, sends route through a
//! fault layer (see [`crate::fault`] for the model):
//!
//! * link faults (drop / duplicate / delay / reorder) are decided by a
//!   deterministic hash of `(seed, src, dst, wire-sequence)`;
//! * under [`FaultPlan::reliable`], every logical message carries a
//!   per-`(pair, tag)` sequence number and is pushed through an ARQ:
//!   dropped copies are retransmitted with exponential backoff in
//!   simulated time, receivers acknowledge every delivered copy and
//!   suppress duplicates, and `recv` re-assembles FIFO order from the
//!   sequence numbers — so collectives survive any link-fault plan
//!   bit-identically;
//! * without `reliable`, faults hit the raw transport: a dropped message
//!   surfaces as a deadlock trap, a duplicate or reorder as silent
//!   corruption downstream — the failure modes the chaos suite exists to
//!   demonstrate.
//!
//! Retransmit/ack/duplicate traffic is recorded in
//! [`crate::stats::FaultTraffic`], never in the algorithmic counters:
//! the logical (attempt-0) send is what `record_send` sees, so volume
//! tables match the fault-free run even under heavy fault plans.
//! Loopback (self-)sends never fault: they model a local copy, not the
//! network. With an all-zero plan the transport takes the exact
//! pre-fault code path.

use crate::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use crate::event::EventScheduler;
use crate::fault::{FaultPlan, CRASH_MARKER, MAX_SEND_ATTEMPTS};
use crate::machine::MachineConfig;
use crate::memory::MemoryTracker;
use crate::stats::{CostParams, Stats};
use distconv_trace::{SpanEvent, SpanKind, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rank identifier: `0..P` within a [`crate::Machine`] run.
pub type RankId = usize;

/// Message tag. User point-to-point tags must keep the top bit clear;
/// tags with the top bit set are reserved for collectives.
pub type Tag = u64;

/// Element types that can travel in messages: plain old data with an
/// additive reduction (enough for every algorithm in the workspace; the
/// reduction is only exercised by reduce-style collectives).
pub trait Msg: Copy + Send + Default + std::ops::AddAssign + 'static {}
impl<T: Copy + Send + Default + std::ops::AddAssign + 'static> Msg for T {}

/// What a physical packet is carrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PacketKind {
    /// A payload-bearing message.
    Data,
    /// An (empty) acknowledgement under the reliable transport. Pure
    /// traffic: the ARQ's control decisions are computed analytically on
    /// both sides from the shared fault hash, so receivers of an ack
    /// discard it on sight.
    Ack,
}

/// A message in flight. Carries the sender's logical clock at
/// transmission time (after the α–β cost of this send), implementing a
/// Lamport-style communication makespan: the receiver's clock advances
/// to at least the arrival time.
#[derive(Clone, Debug)]
pub(crate) struct Packet<T> {
    pub src: RankId,
    pub tag: Tag,
    pub data: Vec<T>,
    pub sent_at: f64,
    pub kind: PacketKind,
    /// Per-`(src → dst, tag)` sequence number: FIFO reassembly and
    /// duplicate suppression under the reliable transport.
    pub seq: u64,
    /// Per-`(src → dst)` wire sequence: the key of every fault decision.
    pub wire: u64,
    /// ARQ attempt index this physical copy was transmitted on.
    pub attempt: u32,
}

/// Which accounting bucket a rank's subsequent sends belong to.
///
/// The paper's volume claims are stated per layer, so multi-layer
/// executors switch to [`TrafficClass::Redistribution`] around the
/// inter-layer shard exchange: those sends land in
/// [`crate::stats::RedistTraffic`] (and record `Redistribute` trace
/// spans) instead of the algorithmic counters, keeping per-layer
/// volumes Eq-exact. Transport, clocks, fault injection, and ARQ are
/// identical for both classes — only accounting and span kind differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrafficClass {
    /// Per-layer algorithmic traffic (the default).
    #[default]
    Algorithmic,
    /// Inter-layer redistribution traffic.
    Redistribution,
}

/// One simulated processor's execution context.
pub struct Rank<T: Msg> {
    id: RankId,
    size: usize,
    senders: Arc<Vec<Sender<Packet<T>>>>,
    rx: Receiver<Packet<T>>,
    pending: RefCell<VecDeque<Packet<T>>>,
    stats: Arc<Stats>,
    mem: MemoryTracker,
    timeout: Duration,
    cost: CostParams,
    faults: FaultPlan,
    /// Cached straggler clock multiplier for this rank (1.0 normally).
    straggle: f64,
    /// Cached crash trigger: this rank dies at its Nth send (1-based).
    crash_at: Option<u64>,
    /// Logical sends issued so far (crash-trigger counter).
    send_count: Cell<u64>,
    /// Next outgoing sequence number per `(dst, tag)`.
    send_seq: RefCell<HashMap<(RankId, Tag), u64>>,
    /// Next expected incoming sequence number per `(src, tag)`.
    recv_next: RefCell<HashMap<(RankId, Tag), u64>>,
    /// Next wire sequence per destination (fault-decision key).
    wire_seq: RefCell<HashMap<RankId, u64>>,
    /// Held-back (reorder-faulted) physical packets per destination.
    holdback: RefCell<HashMap<RankId, Vec<Packet<T>>>>,
    /// Logical communication clock (seconds of simulated network time
    /// this rank has accumulated). Advanced by α+β·n per send, and to
    /// the arrival time on each receive — a Lamport makespan clock.
    clock: Cell<f64>,
    /// Shared span tracer (`None` when tracing is disabled).
    tracer: Option<Arc<Tracer>>,
    /// Cooperative scheduler of the discrete-event backend (`None` on
    /// the thread backend — blocking receives use the OS instead).
    sched: Option<Arc<EventScheduler>>,
    /// Current schedule step, stamped onto every recorded span.
    /// Executors advance it via [`Rank::set_step`].
    step: Cell<u64>,
    /// Accounting bucket for subsequent sends (see [`TrafficClass`]).
    traffic_class: Cell<TrafficClass>,
}

impl<T: Msg> Rank<T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: RankId,
        size: usize,
        senders: Arc<Vec<Sender<Packet<T>>>>,
        rx: Receiver<Packet<T>>,
        stats: Arc<Stats>,
        mem: MemoryTracker,
        cfg: &MachineConfig,
        tracer: Option<Arc<Tracer>>,
        sched: Option<Arc<EventScheduler>>,
    ) -> Self {
        Rank {
            id,
            size,
            senders,
            rx,
            pending: RefCell::new(VecDeque::new()),
            stats,
            mem,
            timeout: cfg.recv_timeout,
            cost: cfg.cost,
            faults: cfg.faults,
            straggle: cfg.faults.straggle_factor(id),
            crash_at: cfg.faults.crashes_at(id),
            send_count: Cell::new(0),
            send_seq: RefCell::new(HashMap::new()),
            recv_next: RefCell::new(HashMap::new()),
            wire_seq: RefCell::new(HashMap::new()),
            holdback: RefCell::new(HashMap::new()),
            clock: Cell::new(0.0),
            tracer,
            sched,
            step: Cell::new(0),
            traffic_class: Cell::new(TrafficClass::Algorithmic),
        }
    }

    /// This rank's current logical communication clock (seconds).
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// Set the schedule step stamped onto subsequently recorded spans.
    /// Pipelined executors call this with the step of the *payload*
    /// being posted or awaited, so a posted transfer is stamped with
    /// the step that consumes it, not the step that posted it. No-op
    /// semantics aside from tracing.
    pub fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    /// Set the accounting bucket for subsequent sends. Multi-layer
    /// executors switch to [`TrafficClass::Redistribution`] around the
    /// inter-layer exchange and back afterwards; everything else leaves
    /// the default [`TrafficClass::Algorithmic`] untouched.
    pub fn set_traffic_class(&self, class: TrafficClass) {
        self.traffic_class.set(class);
    }

    /// The accounting bucket currently applied to sends.
    pub fn traffic_class(&self) -> TrafficClass {
        self.traffic_class.get()
    }

    /// Nanoseconds since the tracer epoch (0 with tracing disabled).
    fn trace_now(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.now_ns())
    }

    /// Record a span for this rank (no-op with tracing disabled).
    fn trace_span(
        &self,
        kind: SpanKind,
        peer: Option<RankId>,
        tag: Tag,
        elems: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if let Some(t) = &self.tracer {
            t.record(
                self.id,
                SpanEvent {
                    kind,
                    step: self.step.get(),
                    peer,
                    tag,
                    elems,
                    start_ns,
                    dur_ns,
                },
            );
        }
    }

    /// This rank's id (`0..size`).
    pub fn id(&self) -> RankId {
        self.id
    }

    /// Number of ranks in the machine.
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's memory tracker (lease buffers from it to participate
    /// in capacity enforcement and peak accounting).
    pub fn mem(&self) -> &MemoryTracker {
        &self.mem
    }

    /// Send `data` to `dst` with `tag`, consuming the buffer (no copy).
    pub fn send_vec(&self, dst: RankId, tag: Tag, data: Vec<T>) {
        assert!(dst < self.size, "send to nonexistent rank {dst}");
        if let Some(at) = self.crash_at {
            let this_send = self.send_count.get() + 1;
            if this_send >= at {
                panic!(
                    "rank {}: {CRASH_MARKER} at send {this_send} (fault seed {:#x})",
                    self.id, self.faults.seed
                );
            }
        }
        self.send_count.set(self.send_count.get() + 1);
        let span_kind = match self.traffic_class.get() {
            TrafficClass::Algorithmic => {
                self.stats
                    .record_send(self.id, data.len() as u64, dst == self.id);
                SpanKind::Send
            }
            TrafficClass::Redistribution => {
                self.stats.record_redist(data.len() as u64, dst == self.id);
                SpanKind::Redistribute
            }
        };
        self.trace_span(
            span_kind,
            Some(dst),
            tag,
            data.len() as u64,
            self.trace_now(),
            0,
        );
        // Advance the logical clock by this message's α–β cost, scaled
        // by the straggler factor (self-sends are local copies: free).
        if dst != self.id {
            self.clock.set(
                self.clock.get()
                    + self.straggle * (self.cost.alpha + self.cost.beta * data.len() as f64),
            );
        }
        if self.faults.is_noop() {
            // Fault-free fast path: exactly the pre-fault transport.
            let pkt = Packet {
                src: self.id,
                tag,
                data,
                sent_at: self.clock.get(),
                kind: PacketKind::Data,
                seq: 0,
                wire: 0,
                attempt: 0,
            };
            self.transmit(dst, pkt);
            return;
        }
        self.send_faulty(dst, tag, data);
    }

    /// Send a copy of `data` to `dst` with `tag`.
    pub fn send(&self, dst: RankId, tag: Tag, data: &[T]) {
        self.send_vec(dst, tag, data.to_vec());
    }

    /// Run `f`, recording its wall-clock duration in the machine's
    /// compute-time counter (see `TimingSnapshot`). The executors wrap
    /// their local kernels in this so `bench_comm` can split step time
    /// into comm-wait vs compute.
    pub fn time_compute<R>(&self, f: impl FnOnce() -> R) -> R {
        let start_ns = self.trace_now();
        let t0 = std::time::Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.stats.record_compute_ns(dur_ns);
        self.trace_span(SpanKind::Compute, None, 0, 0, start_ns, dur_ns);
        out
    }

    /// The fault-layer send path: sequence numbering, link faults, and
    /// (when enabled) the ARQ reliable transport.
    fn send_faulty(&self, dst: RankId, tag: Tag, data: Vec<T>) {
        let f = self.faults;
        let seq = {
            let mut m = self.send_seq.borrow_mut();
            let c = m.entry((dst, tag)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        if dst == self.id {
            // Loopback is a local copy: never faulted, never ARQ'd.
            let pkt = self.data_packet(tag, data, seq, 0, 0, self.clock.get());
            self.transmit(dst, pkt);
            return;
        }
        let wire = {
            let mut m = self.wire_seq.borrow_mut();
            let c = m.entry(dst).or_insert(0);
            let w = *c;
            *c += 1;
            w
        };
        if f.reliable {
            // Keep ack traffic from piling up in our mailbox.
            self.drain_mailbox();
        }
        let n = data.len() as u64;
        let delayed = f.delays(self.id, dst, wire);
        if delayed {
            self.stats.record_delay();
        }
        let skew = if delayed { f.delay_skew } else { 0.0 };

        // Physical copies that reach the destination mailbox.
        let mut copies: Vec<Packet<T>> = Vec::new();
        if !f.reliable {
            // Raw transport: one shot, faults land where they land.
            if f.drops_data(self.id, dst, wire, 0) {
                self.stats.record_drop(n);
            } else {
                copies.push(self.data_packet(tag, data, seq, wire, 0, self.clock.get() + skew));
            }
        } else {
            // Sender-side ARQ. Fault decisions are pure functions of
            // (seed, src, dst, wire, attempt), so the sender models the
            // whole stop-and-wait exchange analytically — no blocking on
            // real acks (which arrive as traffic and are discarded) and
            // therefore no new deadlock modes.
            let mut attempt = 0u32;
            loop {
                if attempt > 0 {
                    self.stats.record_retransmit(n);
                    self.trace_span(SpanKind::Retransmit, Some(dst), tag, n, self.trace_now(), 0);
                    // Exponential backoff in simulated time before the
                    // retransmit, plus the retransmit's own α–β cost.
                    let backoff = self.cost.alpha * (1u64 << attempt.min(20)) as f64;
                    self.clock.set(
                        self.clock.get()
                            + self.straggle
                                * (backoff + self.cost.alpha + self.cost.beta * n as f64),
                    );
                }
                if f.drops_data(self.id, dst, wire, attempt) {
                    self.stats.record_drop(n);
                } else {
                    copies.push(self.data_packet(
                        tag,
                        data.clone(),
                        seq,
                        wire,
                        attempt,
                        self.clock.get() + skew,
                    ));
                    if !f.drops_ack(self.id, dst, wire, attempt) {
                        break; // delivered and acknowledged
                    }
                    // Data arrived but the ack was lost: retransmit; the
                    // receiver will suppress the duplicate.
                }
                attempt += 1;
                assert!(
                    attempt < MAX_SEND_ATTEMPTS,
                    "rank {}: reliable delivery to rank {dst} exhausted {MAX_SEND_ATTEMPTS} \
                     attempts (tag {tag:#x}, fault seed {:#x})",
                    self.id,
                    f.seed
                );
            }
        }
        if f.duplicates(self.id, dst, wire) {
            if let Some(last) = copies.last() {
                self.stats.record_dup_injected();
                copies.push(last.clone());
            }
        }
        if f.reliable {
            // Every delivered copy gets acknowledged by the receiver,
            // and every delivered copy beyond the first is a duplicate
            // the receiver suppresses; count both analytically here —
            // the receiver's side would race with its own body exit for
            // late extra copies, making the counters schedule-dependent
            // and breaking bitwise thread↔event backend equivalence.
            for _ in &copies {
                self.stats.record_ack();
            }
            for _ in 1..copies.len() {
                self.stats.record_dup_suppressed();
            }
        }
        if !copies.is_empty()
            && f.reorders(self.id, dst, wire)
            && !self.holdback.borrow().contains_key(&dst)
        {
            self.stats.record_reorder();
            self.holdback.borrow_mut().insert(dst, copies);
            return; // flushed behind the next send to dst, before our
                    // next blocking receive, or at rank-body exit
        }
        // Physical copies are best-effort: under the ARQ a retransmit or
        // injected duplicate of an already-delivered message can race
        // with the receiver finishing its body and dropping its mailbox.
        // The logical delivery guarantee lives in the analytic ARQ, not
        // in any individual copy landing.
        for pkt in copies {
            self.transmit_lossy(dst, pkt);
        }
        // This send overtakes any message held back for the same
        // destination: release it now (the reorder).
        self.flush_holdback_to(dst);
    }

    fn data_packet(
        &self,
        tag: Tag,
        data: Vec<T>,
        seq: u64,
        wire: u64,
        attempt: u32,
        sent_at: f64,
    ) -> Packet<T> {
        Packet {
            src: self.id,
            tag,
            data,
            sent_at,
            kind: PacketKind::Data,
            seq,
            wire,
            attempt,
        }
    }

    /// Enqueue into `dst`'s mailbox; a gone receiver is a hard error
    /// (that rank's thread already panicked — fail loudly here too).
    fn transmit(&self, dst: RankId, pkt: Packet<T>) {
        if self.senders[dst].send(pkt).is_err() {
            panic!(
                "rank {}: send to rank {dst} failed (receiver gone)",
                self.id
            );
        }
        self.notify_sched(dst);
    }

    /// Best-effort enqueue for fire-and-forget traffic (acks, holdback
    /// flushes): if the destination is gone it already failed on its
    /// own; losing this packet is the realistic outcome, not a new
    /// failure.
    fn transmit_lossy(&self, dst: RankId, pkt: Packet<T>) {
        if self.senders[dst].send(pkt).is_ok() {
            self.notify_sched(dst);
        }
    }

    /// Event backend: a packet just landed in `dst`'s mailbox — mark a
    /// blocked destination runnable. No-op on the thread backend (the
    /// channel's condvar wakes the receiver) and for self-sends (we are
    /// running, hence not blocked).
    fn notify_sched(&self, dst: RankId) {
        if let Some(s) = &self.sched {
            if dst != self.id {
                s.notify(dst);
            }
        }
    }

    /// Transmit every held-back (reorder-faulted) packet. Called before
    /// this rank blocks in a receive and by the machine when the rank
    /// body returns, so a held message can never deadlock a
    /// well-terminating run. (A *crashed* rank's held packets are lost —
    /// exactly like a real process dying with data in its TX queue.)
    pub(crate) fn flush_holdbacks(&self) {
        let held: Vec<(RankId, Vec<Packet<T>>)> = self.holdback.borrow_mut().drain().collect();
        for (dst, pkts) in held {
            for pkt in pkts {
                self.transmit_lossy(dst, pkt);
            }
        }
    }

    fn flush_holdback_to(&self, dst: RankId) {
        let held = self.holdback.borrow_mut().remove(&dst);
        if let Some(pkts) = held {
            for pkt in pkts {
                self.transmit_lossy(dst, pkt);
            }
        }
    }

    /// Move every already-arrived packet into the pending queue without
    /// blocking (acks are processed and discarded on the way).
    fn drain_mailbox(&self) {
        while let Ok(pkt) = self.rx.try_recv() {
            if let Some(pkt) = self.ingest(pkt) {
                self.pending.borrow_mut().push_back(pkt);
            }
        }
    }

    /// First touch of every packet pulled from the mailbox. Acks are
    /// discarded (their effect on the ARQ is computed analytically at
    /// the sender). Under the reliable transport every data packet from
    /// a peer is acknowledged here; whether that ack survives the link
    /// is decided by the same deterministic hash both sides share. The
    /// ack *counter* is recorded by the sender (which knows analytically
    /// how many copies get delivered) — counting here would race with
    /// rank-body exit when an extra copy arrives late.
    fn ingest(&self, pkt: Packet<T>) -> Option<Packet<T>> {
        if pkt.kind == PacketKind::Ack {
            return None;
        }
        if self.faults.reliable
            && pkt.src != self.id
            && !self
                .faults
                .drops_ack(pkt.src, self.id, pkt.wire, pkt.attempt)
        {
            let ack = Packet {
                src: self.id,
                tag: pkt.tag,
                data: Vec::new(),
                sent_at: self.clock.get(),
                kind: PacketKind::Ack,
                seq: pkt.seq,
                wire: pkt.wire,
                attempt: pkt.attempt,
            };
            self.transmit_lossy(pkt.src, ack);
        }
        Some(pkt)
    }

    /// Blocking receive of the next message from `src` with `tag`
    /// (FIFO per `(src, tag)` pair). On the thread backend it panics
    /// once it has waited the machine's receive timeout — the deadlock
    /// trap; the event backend trips the same trap only when its
    /// scheduler proves a deadlock. Time spent here is recorded in the
    /// machine's comm-wait counter.
    pub fn recv(&self, src: RankId, tag: Tag) -> Vec<T> {
        let start_ns = self.trace_now();
        let t0 = std::time::Instant::now();
        let out = self.recv_inner(src, tag);
        let waited_ns = t0.elapsed().as_nanos() as u64;
        self.stats.record_comm_wait_ns(waited_ns);
        let n = out.len() as u64;
        self.trace_span(SpanKind::CommWait, Some(src), tag, n, start_ns, waited_ns);
        self.trace_span(SpanKind::Recv, Some(src), tag, n, start_ns + waited_ns, 0);
        out
    }

    /// Pull the next packet from the mailbox, blocking in the
    /// backend-appropriate way when it is empty. The thread backend
    /// waits on the channel until `deadline`, which the first park sets
    /// to one receive timeout later. The event backend yields the floor
    /// to the scheduler until a message arrives and never reads the
    /// clock. A scheduler poison (provable deadlock) surfaces as
    /// `Timeout`, so both backends trip the identical deadlock-trap
    /// panic at the caller.
    fn blocking_pull(&self, deadline: &mut Option<Instant>) -> Result<Packet<T>, RecvTimeoutError> {
        loop {
            match self.rx.try_recv() {
                Ok(pkt) => return Ok(pkt),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let Some(sched) = &self.sched else {
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.timeout);
                return self
                    .rx
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()));
            };
            if sched.yield_blocked(self.id, self.clock.get()).is_err() {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// The one receive matcher: take the message `(src, tag)` waits for
    /// from the pending queue, else pull from the mailbox until it
    /// arrives, parking every other packet. Under the reliable transport
    /// only the stream's next sequence number matches, so duplicates are
    /// suppressed and FIFO order is re-assembled; every other transport
    /// takes the first `(src, tag)` packet and never reads `recv_next`.
    fn recv_inner(&self, src: RankId, tag: Tag) -> Vec<T> {
        if !self.faults.is_noop() {
            self.flush_holdbacks();
        }
        let expected = self.faults.reliable.then(|| {
            self.recv_next
                .borrow()
                .get(&(src, tag))
                .copied()
                .unwrap_or(0)
        });
        let pkt = match self.take_pending(src, tag, expected) {
            Some(pkt) => pkt,
            None => self.pull_match(src, tag, expected),
        };
        if let Some(seq) = expected {
            self.recv_next.borrow_mut().insert((src, tag), seq + 1);
        }
        self.observe_arrival(pkt.src, pkt.sent_at);
        pkt.data
    }

    /// Take the packet a receive of `(src, tag)` waits for from the
    /// pending queue, first dropping stale duplicates of that stream
    /// (reliable transport only). One `position` search on the queue's
    /// iterator: a retry loop around it made long-queue scans measurably
    /// slower.
    fn take_pending(&self, src: RankId, tag: Tag, expected: Option<u64>) -> Option<Packet<T>> {
        let mut pending = self.pending.borrow_mut();
        if expected.is_some() {
            pending.retain(|p| !is_stale(p, src, tag, expected));
        }
        let pos = pending
            .iter()
            .position(|p| is_match(p, src, tag, expected))?;
        pending.remove(pos)
    }

    /// Block until the packet a receive of `(src, tag)` takes arrives.
    /// On the thread backend, panics once the machine's receive timeout
    /// has passed since the receive first parked (the deadlock trap);
    /// packets for other receives that arrive meanwhile do not move
    /// that deadline. The event backend has no deadline: its scheduler
    /// detects deadlock exactly.
    fn pull_match(&self, src: RankId, tag: Tag, expected: Option<u64>) -> Packet<T> {
        let mut deadline = None;
        loop {
            match self.blocking_pull(&mut deadline) {
                Ok(pkt) => {
                    let Some(pkt) = self.ingest(pkt) else {
                        continue;
                    };
                    if is_match(&pkt, src, tag, expected) {
                        return pkt;
                    }
                    if !is_stale(&pkt, src, tag, expected) {
                        self.pending.borrow_mut().push_back(pkt);
                    }
                }
                Err(RecvTimeoutError::Timeout) => panic!(
                    "rank {}: deadlock trap — no message from rank {src} with tag {tag:#x} \
                     within {:?} ({} unexpected messages parked)",
                    self.id,
                    self.timeout,
                    self.pending.borrow().len()
                ),
                Err(RecvTimeoutError::Disconnected) => panic!(
                    "rank {}: mailbox disconnected while waiting for rank {src} tag {tag:#x}",
                    self.id
                ),
            }
        }
    }

    /// Number of parked unexpected messages (diagnostics).
    pub fn parked(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Advance the logical clock to a received message's arrival time
    /// (Lamport max; self-sends carry our own clock and are no-ops).
    fn observe_arrival(&self, src: RankId, sent_at: f64) {
        if src != self.id {
            self.clock.set(self.clock.get().max(sent_at));
        }
    }
}

/// Whether `pkt` is the message a receive of `(src, tag)` waits for.
/// `expected` is the stream's next sequence number under the reliable
/// transport and `None` on every other transport, where the first
/// `(src, tag)` packet matches.
fn is_match<T>(pkt: &Packet<T>, src: RankId, tag: Tag, expected: Option<u64>) -> bool {
    pkt.src == src && pkt.tag == tag && expected.is_none_or(|seq| pkt.seq == seq)
}

/// Whether `pkt` is an already-delivered copy on the stream `(src, tag)`:
/// a duplicate under the reliable transport (counted at the sender),
/// which the receiver discards. Never true on other transports.
fn is_stale<T>(pkt: &Packet<T>, src: RankId, tag: Tag, expected: Option<u64>) -> bool {
    pkt.src == src && pkt.tag == tag && expected.is_some_and(|seq| pkt.seq < seq)
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultPlan;
    use crate::machine::{Machine, MachineConfig};
    use std::time::Duration;

    #[test]
    fn pingpong() {
        let report = Machine::run::<f32, _, _>(2, MachineConfig::default(), |rank| {
            if rank.id() == 0 {
                rank.send(1, 7, &[1.0, 2.0, 3.0]);
                rank.recv(1, 8)
            } else {
                let v = rank.recv(0, 7);
                let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
                rank.send(0, 8, &doubled);
                v
            }
        });
        assert_eq!(report.results[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(report.results[1], vec![1.0, 2.0, 3.0]);
        assert_eq!(report.stats.total_msgs(), 2);
        assert_eq!(report.stats.total_elems(), 6);
        assert!(report.stats.fault.is_zero());
    }

    /// Run `body` on `p` ranks twice, under the no-op plan and under a
    /// zero-fault reliable plan, and check that the matcher's two modes
    /// agree bitwise on results, algorithmic counters and clocks. Each
    /// rank returns its payload and its final clock bits. Returns the
    /// no-op run's results.
    fn both_matcher_modes<R: Send + PartialEq + std::fmt::Debug>(
        p: usize,
        body: impl Fn(&crate::Rank<u64>) -> R + Send + Sync,
    ) -> Vec<R> {
        let run = |faults: FaultPlan| {
            let cfg = MachineConfig {
                faults,
                ..MachineConfig::default()
            };
            Machine::run::<u64, _, _>(p, cfg, |rank| (body(rank), rank.clock().to_bits()))
        };
        let plain = run(FaultPlan::default());
        let reliable = run(FaultPlan::reliable(0x5EED));
        assert_eq!(plain.results, reliable.results);
        assert_eq!(plain.stats.per_rank_msgs, reliable.stats.per_rank_msgs);
        assert_eq!(plain.stats.per_rank_elems, reliable.stats.per_rank_elems);
        assert_eq!(plain.stats.self_msgs, reliable.stats.self_msgs);
        assert_eq!(plain.stats.self_elems, reliable.stats.self_elems);
        assert_eq!(plain.stats.redist, reliable.stats.redist);
        assert_eq!(plain.makespan.to_bits(), reliable.makespan.to_bits());
        // Zero faults: the ARQ only acknowledges, never retransmits.
        assert_eq!(reliable.stats.fault.retrans_msgs, 0);
        assert_eq!(reliable.stats.fault.dup_suppressed, 0);
        plain.results.into_iter().map(|(r, _)| r).collect()
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let results = both_matcher_modes(2, |rank| {
            if rank.id() == 0 {
                rank.send(1, 1, &[10]);
                rank.send(1, 2, &[20]);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = rank.recv(0, 2);
                let a = rank.recv(0, 1);
                assert_eq!((a[0], b[0]), (10, 20));
                rank.parked() as u64
            }
        });
        assert_eq!(results[1], 0, "queue drained");
    }

    #[test]
    fn fifo_per_src_tag() {
        let results = both_matcher_modes(2, |rank| {
            if rank.id() == 0 {
                for i in 0..10u64 {
                    rank.send(1, 5, &[i]);
                }
                vec![]
            } else {
                (0..10).map(|_| rank.recv(0, 5)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn self_send_not_counted_as_traffic() {
        let report = Machine::run::<f64, _, _>(1, MachineConfig::default(), |rank| {
            rank.send(0, 3, &[1.0, 2.0]);
            rank.recv(0, 3)
        });
        assert_eq!(report.results[0], vec![1.0, 2.0]);
        assert_eq!(report.stats.total_elems(), 0);
        assert_eq!(report.stats.self_elems, 2);
    }

    #[test]
    #[should_panic(expected = "deadlock trap")]
    fn deadlock_trap_fires() {
        let cfg = MachineConfig {
            recv_timeout: Duration::from_millis(50),
            ..MachineConfig::default()
        };
        Machine::run::<f32, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                // Rank 0 waits for a message nobody sends.
                let _ = rank.recv(1, 42);
            }
        });
    }

    #[test]
    fn other_traffic_does_not_postpone_the_deadlock_trap() {
        // Rank 1 sends a wrong-tag packet every 10 ms for 300 ms while
        // rank 0 waits for a tag nobody sends: the trap still fires
        // about one 50 ms timeout after the receive first parked. Only
        // the thread backend has a receive deadline.
        let cfg = MachineConfig {
            recv_timeout: Duration::from_millis(50),
            backend: crate::Backend::Thread,
            ..MachineConfig::default()
        };
        // Holds rank 0's mailbox open until the sender is through.
        let both_done = std::sync::Barrier::new(2);
        let report = Machine::run::<u8, _, _>(2, cfg, |rank| {
            if rank.id() == 1 {
                for _ in 0..30 {
                    rank.send(0, 7, &[0]);
                    std::thread::sleep(Duration::from_millis(10));
                }
                both_done.wait();
                return None;
            }
            let t0 = std::time::Instant::now();
            let trap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rank.recv(1, 42)));
            let waited = t0.elapsed();
            both_done.wait();
            Some((trap.is_err(), waited))
        });
        let (trapped, waited) = report.results[0].expect("rank 0 reports");
        assert!(trapped, "the receive must trip the deadlock trap");
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_millis(250),
            "trap after {waited:?}, want about 50 ms"
        );
    }

    #[test]
    fn comm_wait_and_compute_time_recorded() {
        let report = Machine::run::<u64, _, _>(2, MachineConfig::default(), |rank| {
            if rank.id() == 0 {
                rank.time_compute(|| std::thread::sleep(Duration::from_millis(2)));
                rank.send(1, 1, &[1]);
            } else {
                // Blocks until rank 0 finishes its compute and sends.
                let _ = rank.recv(0, 1);
            }
        });
        assert!(report.timing.compute_ns >= 2_000_000);
        assert!(report.timing.comm_wait_ns > 0);
    }

    // ---- fault-layer tests -------------------------------------------

    /// A fault plan guaranteed to drop at least one message in a 10-long
    /// stream (p = 0.5, pinned seed).
    fn drops_half() -> FaultPlan {
        FaultPlan::reliable(0xC0FFEE).with_drops(0.5)
    }

    #[test]
    fn reliable_stream_survives_heavy_drops() {
        let cfg = MachineConfig {
            faults: drops_half(),
            ..MachineConfig::default()
        };
        let report = Machine::run::<u64, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                for i in 0..10u64 {
                    rank.send(1, 5, &[i]);
                }
                vec![]
            } else {
                (0..10).map(|_| rank.recv(0, 5)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(report.results[1], (0..10).collect::<Vec<u64>>());
        // Logical volume is fault-independent…
        assert_eq!(report.stats.total_msgs(), 10);
        assert_eq!(report.stats.total_elems(), 10);
        // …and at p = 0.5 over 10 messages the plan certainly dropped
        // something, so retransmits must show up in the fault counters.
        assert!(report.stats.fault.retrans_msgs > 0);
        assert!(report.stats.fault.dropped_msgs > 0);
        assert!(report.stats.fault.ack_msgs > 0);
    }

    #[test]
    fn reliable_with_dups_and_reorders_is_fifo() {
        let cfg = MachineConfig {
            faults: FaultPlan::reliable(7)
                .with_drops(0.3)
                .with_dups(0.4)
                .with_reorders(0.4)
                .with_delays(0.3, 5.0),
            ..MachineConfig::default()
        };
        let report = Machine::run::<u64, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                for i in 0..20u64 {
                    rank.send(1, 5, &[i]);
                }
                vec![]
            } else {
                (0..20).map(|_| rank.recv(0, 5)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(report.results[1], (0..20).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "deadlock trap")]
    fn unreliable_drop_trips_the_trap() {
        // Without the ARQ, a dropped message must surface as a loud
        // deadlock, never silent corruption of a later receive.
        let cfg = MachineConfig {
            recv_timeout: Duration::from_millis(100),
            faults: FaultPlan {
                seed: 1,
                drop_prob: 1.0,
                ..FaultPlan::default()
            },
            ..MachineConfig::default()
        };
        Machine::run::<u64, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                rank.send(1, 5, &[1]);
            } else {
                let _ = rank.recv(0, 5);
            }
        });
    }

    #[test]
    #[should_panic(expected = "fault-injected crash")]
    fn crash_at_nth_send_fires() {
        let cfg = MachineConfig {
            recv_timeout: Duration::from_millis(100),
            faults: FaultPlan::default().with_crash(0, 3),
            ..MachineConfig::default()
        };
        Machine::run::<u64, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                for i in 0..5u64 {
                    rank.send(1, 5, &[i]);
                }
            } else {
                for _ in 0..5 {
                    let _ = rank.recv(0, 5);
                }
            }
        });
    }

    #[test]
    fn straggler_stretches_the_makespan() {
        let base = MachineConfig::default();
        let send = |rank: &crate::Rank<f32>| {
            if rank.id() == 0 {
                rank.send(1, 1, &vec![0.0f32; 1000]);
            } else {
                let _ = rank.recv(0, 1);
            }
        };
        let clean = Machine::run::<f32, _, _>(2, base, send);
        let slow_cfg = MachineConfig {
            faults: FaultPlan {
                seed: 0,
                straggler: Some(crate::fault::Straggler {
                    rank: 0,
                    factor: 3.0,
                }),
                ..FaultPlan::default()
            },
            ..base
        };
        let slow = Machine::run::<f32, _, _>(2, slow_cfg, send);
        assert!(
            (slow.makespan - 3.0 * clean.makespan).abs() < 1e-12,
            "{} vs 3×{}",
            slow.makespan,
            clean.makespan
        );
        // The straggler bends time, not data or volume.
        assert_eq!(slow.stats.total_elems(), clean.stats.total_elems());
    }

    #[test]
    fn delay_skews_the_makespan_only() {
        let cfg = MachineConfig {
            faults: FaultPlan::reliable(3).with_delays(1.0, 7.5),
            ..MachineConfig::default()
        };
        let report = Machine::run::<u64, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                rank.send(1, 1, &[42]);
                0
            } else {
                rank.recv(0, 1)[0]
            }
        });
        assert_eq!(report.results[1], 42);
        assert!(report.makespan >= 7.5, "makespan {}", report.makespan);
        assert_eq!(report.stats.fault.delayed_msgs, 1);
    }
}
