//! Communicators and collective operations.
//!
//! A [`Communicator`] is an ordered subset of the machine's ranks, like
//! an `MPI_Comm`. Collectives are implemented with the standard
//! algorithms — binomial trees for broadcast/reduce, direct exchange for
//! reduce-scatter, a ring for all-gather, and reduce-scatter +
//! all-gather for large all-reduce — **on top of the point-to-point
//! layer**, so every element a collective moves is counted by the
//! machine's [`crate::Stats`] along its real path.
//!
//! ### Volume cheat-sheet (n members, payload of `v` elements)
//!
//! | collective                 | total inter-rank volume        |
//! |----------------------------|--------------------------------|
//! | `bcast`                    | `(n−1)·v`                      |
//! | `reduce`                   | `(n−1)·v`                      |
//! | `allgather_varying` (ring) | `(n−1)·Σ chunk = (n−1)·v`      |
//! | `reduce_scatter`           | `Σ_i (v − chunk_i) ≈ (n−1)/n·v·n` |
//! | `allreduce`                | `≈ 2·(n−1)/n·v·n` (large), `2(n−1)v` (tree, small) |
//!
//! The tests pin these counts exactly.
//!
//! ### Tag discipline
//!
//! Each communicator carries a caller-supplied *context id* and an
//! internal per-collective sequence number; both are folded into the
//! reserved (top-bit-set) tag space. All members must create matching
//! communicators (same ordered member list, same context id) and call
//! the same collectives in the same order — the usual MPI contract.

use crate::rank::{Msg, Rank, RankId, Tag};
use std::cell::Cell;

/// Reserved tag space marker for collective traffic.
const COLL_BIT: u64 = 1 << 63;

/// Collective operation codes (folded into tags for cross-talk safety).
/// The values are explicit and never reused, so a collective's tags do
/// not change when another operation is added or removed.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Op {
    Bcast = 1,
    Reduce = 2,
    AllGather = 5,
    ReduceScatter = 6,
    Barrier = 7,
    SendRecv = 9,
}

/// Broadcast algorithm selector for [`Communicator::bcast_algo`]. All
/// three move the same total volume `(n−1)·v`; they differ in how the
/// α–β makespan scales with the member count `n` and payload `v`:
///
/// | algorithm | makespan (α–β model)          | regime it wins        |
/// |-----------|-------------------------------|-----------------------|
/// | linear    | `(n−1)·(α + β·v)`             | never (baseline)      |
/// | binomial  | `≈ ⌈log₂ n⌉·(α + β·v)`        | small payloads        |
/// | ring      | `(n+S−2)·(α + β·v/S)`         | large payloads        |
///
/// (`S` = segment count of the pipelined ring.) `bench_collectives`
/// measures all three against the paper's rotating-root schedule on the
/// discrete-event backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Root sends to every other member directly: `n−1` serialized
    /// sends at the root — the point-to-point baseline, and exactly the
    /// shape of one step of the paper's rotating owner-broadcast
    /// schedule (each step's owner plays root).
    Linear,
    /// Binomial tree — what [`Communicator::bcast`] uses. Latency-
    /// optimal: `⌈log₂ n⌉` dependent hops.
    Binomial,
    /// Pipelined chain `root → root+1 → … → root+n−1`, payload split
    /// into `min(v, n)` segments. Bandwidth-optimal for large `v`: the
    /// per-member cost approaches `β·v` regardless of `n`.
    Ring,
}

/// An ordered group of ranks supporting collective operations.
///
/// The struct is a per-rank *handle*: every member constructs its own
/// `Communicator` with the identical member list and context.
pub struct Communicator<'a, T: Msg> {
    rank: &'a Rank<T>,
    members: Vec<RankId>,
    me: usize,
    ctx: u32,
    seq: Cell<u32>,
}

impl<'a, T: Msg> Communicator<'a, T> {
    /// Build a communicator handle over `members` (world rank ids; must
    /// contain the calling rank exactly once). `ctx` distinguishes
    /// communicators with identical member lists used concurrently —
    /// e.g. the different fibers of a processor grid.
    ///
    /// Panics on a bad member list: a member id that does not exist on
    /// the machine, a duplicate member, or a caller that is not a
    /// member.
    pub fn new(rank: &'a Rank<T>, members: Vec<RankId>, ctx: u32) -> Self {
        if let Some(&bad) = members.iter().find(|&&m| m >= rank.size()) {
            panic!(
                "communicator member {bad} does not exist on a {}-rank machine",
                rank.size()
            );
        }
        if members
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            != members.len()
        {
            panic!("duplicate members in communicator: {members:?}");
        }
        let Some(me) = members.iter().position(|&m| m == rank.id()) else {
            panic!(
                "rank {} constructing a communicator it is not a member of: {members:?}",
                rank.id()
            );
        };
        Communicator {
            rank,
            members,
            me,
            ctx,
            seq: Cell::new(0),
        }
    }

    /// A communicator over all ranks of the machine.
    pub fn world(rank: &'a Rank<T>) -> Self {
        let members = (0..rank.size()).collect();
        Communicator::new(rank, members, 0)
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator (`0..size`).
    pub fn me(&self) -> usize {
        self.me
    }

    fn next_tag(&self, op: Op) -> Tag {
        let s = self.seq.get();
        self.seq.set(s.wrapping_add(1));
        COLL_BIT | ((self.ctx as u64) << 28) | ((s as u64 & 0xF_FFFF) << 8) | op as u8 as u64
    }

    fn send_m(&self, member: usize, tag: Tag, data: &[T]) {
        self.rank.send(self.members[member], tag, data);
    }

    fn recv_m(&self, member: usize, tag: Tag) -> Vec<T> {
        self.rank.recv(self.members[member], tag)
    }

    /// Broadcast from member index `root`: on the root, `buf` is the
    /// payload; on others, `buf`'s contents are replaced (which may
    /// reallocate — hence `&mut Vec`, deliberately). All members must
    /// pass buffers of identical length. Binomial tree: `⌈log₂ n⌉`
    /// rounds, total volume `(n−1)·len`.
    ///
    /// Implemented as [`Communicator::ibcast`] + immediate wait — same
    /// tree, same per-edge message sequence.
    #[allow(clippy::ptr_arg)]
    pub fn bcast(&self, root: usize, buf: &mut Vec<T>) {
        *buf = self.ibcast(root, std::mem::take(buf)).wait();
    }

    /// Nonblocking broadcast start. The root passes the payload (its
    /// tree sends happen eagerly, right here); non-roots pass any vector
    /// (ignored — conventionally `Vec::new()`, so no dead buffer is
    /// allocated) and perform their receive-and-forward at
    /// [`PendingBcast::wait`], which returns the broadcast data on every
    /// member.
    ///
    /// The tag is drawn at post time, so members may interleave other
    /// collectives between post and wait as long as every member posts
    /// collectives on this communicator in the same order — the usual
    /// SPMD contract, unchanged. The message tree and per-edge order are
    /// identical to the blocking [`Communicator::bcast`], so both charge
    /// the same volumes and counters.
    pub fn ibcast(&self, root: usize, payload: Vec<T>) -> PendingBcast<'_, 'a, T> {
        let n = self.size();
        assert!(root < n, "bcast root {root} out of range");
        if n == 1 {
            return PendingBcast {
                comm: self,
                root,
                tag: 0,
                payload: Some(payload),
            };
        }
        let tag = self.next_tag(Op::Bcast);
        if self.me == root {
            let (_, children) = bcast_edges(n, root, self.me);
            for child in children {
                self.send_m(child, tag, &payload);
            }
            PendingBcast {
                comm: self,
                root,
                tag,
                payload: Some(payload),
            }
        } else {
            PendingBcast {
                comm: self,
                root,
                tag,
                payload: None,
            }
        }
    }

    /// Broadcast from member index `root` using an explicit algorithm
    /// (see [`BcastAlgo`]); `BcastAlgo::Binomial` is bit-identical to
    /// [`Communicator::bcast`]. Same contract: all members pass buffers
    /// of identical length, non-root contents are replaced. All
    /// algorithms move exactly `(n−1)·len` elements — they differ only
    /// in dependency structure, i.e. in the α–β makespan.
    #[allow(clippy::ptr_arg)]
    pub fn bcast_algo(&self, root: usize, buf: &mut Vec<T>, algo: BcastAlgo) {
        let n = self.size();
        assert!(root < n, "bcast root {root} out of range");
        if n == 1 {
            return;
        }
        match algo {
            BcastAlgo::Binomial => self.bcast(root, buf),
            BcastAlgo::Linear => {
                let tag = self.next_tag(Op::Bcast);
                if self.me == root {
                    // Rotated send order (root+1, root+2, … wrapping):
                    // irrelevant for a single broadcast, but composing
                    // rotating-root rounds (the paper's schedule) then
                    // pipelines — each round's first message feeds the
                    // next round's root instead of rank 0.
                    for off in 1..n {
                        self.send_m((root + off) % n, tag, buf);
                    }
                } else {
                    *buf = self.recv_m(root, tag);
                }
            }
            BcastAlgo::Ring => {
                let tag = self.next_tag(Op::Bcast);
                // Pipelined segments: enough to hide the chain depth,
                // never more than the payload can be split into.
                let segs = buf.len().min(n).max(1);
                let counts = even_counts(buf.len(), segs);
                let pos = (self.me + n - root) % n; // position along the chain
                let next = (pos + 1 < n).then(|| (self.me + 1) % n);
                if pos == 0 {
                    let offsets = prefix_sums(&counts);
                    if let Some(nx) = next {
                        for (&off, &cnt) in offsets.iter().zip(&counts) {
                            self.send_m(nx, tag, &buf[off..off + cnt]);
                        }
                    }
                } else {
                    let prev = (self.me + n - 1) % n;
                    let mut out = Vec::with_capacity(buf.len());
                    for &cnt in &counts {
                        let seg = self.recv_m(prev, tag);
                        assert_eq!(seg.len(), cnt, "ring bcast segment mismatch");
                        if let Some(nx) = next {
                            self.send_m(nx, tag, &seg);
                        }
                        out.extend_from_slice(&seg);
                    }
                    *buf = out;
                }
            }
        }
    }

    /// Reduce (elementwise `+=`) to member index `root`. Every member
    /// passes its contribution in `buf`; on return the root's `buf`
    /// holds the sum (others' buffers hold partial sums — treat as
    /// scratch). Binomial tree, total volume `(n−1)·len`.
    /// (`&mut Vec` for symmetry with [`Communicator::bcast`].)
    #[allow(clippy::ptr_arg)]
    pub fn reduce(&self, root: usize, buf: &mut Vec<T>) {
        let n = self.size();
        assert!(root < n, "reduce root {root} out of range");
        if n == 1 {
            return;
        }
        let tag = self.next_tag(Op::Reduce);
        let v = (self.me + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if v & mask != 0 {
                let dst = ((v - mask) + root) % n;
                self.send_m(dst, tag, buf);
                return;
            }
            let peer_v = v | mask;
            if peer_v < n {
                let part = self.recv_m((peer_v + root) % n, tag);
                assert_eq!(part.len(), buf.len(), "reduce length mismatch");
                for (a, b) in buf.iter_mut().zip(part) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
    }

    /// All-reduce: every member ends with the elementwise sum. Small
    /// payloads (`< 4096` elements) use reduce + broadcast
    /// (`2(n−1)·len` volume); larger ones use reduce-scatter +
    /// all-gather (`≈ 2·len·(n−1)` total but `2·len·(n−1)/n` *per rank*,
    /// the bandwidth-optimal Rabenseifner schedule).
    pub fn allreduce(&self, buf: &mut Vec<T>) {
        let n = self.size();
        if n == 1 {
            return;
        }
        if buf.len() < 4096 || buf.len() < n {
            self.reduce(0, buf);
            self.bcast(0, buf);
        } else {
            let counts = even_counts(buf.len(), n);
            let mine = self.reduce_scatter(buf, &counts);
            let gathered = self.allgather_varying(&mine);
            buf.clear();
            for chunk in gathered {
                buf.extend_from_slice(&chunk);
            }
        }
    }

    /// Reduce-scatter with per-member chunk `counts` (must sum to
    /// `buf.len()`, identical on all members): returns this member's
    /// reduced chunk. Direct pairwise exchange: each member sends `n−1`
    /// chunks.
    pub fn reduce_scatter(&self, buf: &[T], counts: &[usize]) -> Vec<T> {
        let n = self.size();
        assert_eq!(counts.len(), n, "counts per member");
        assert_eq!(
            counts.iter().sum::<usize>(),
            buf.len(),
            "counts must sum to len"
        );
        let tag = self.next_tag(Op::ReduceScatter);
        let offsets = prefix_sums(counts);
        let my_off = offsets[self.me];
        let my_len = counts[self.me];
        let mut acc = buf[my_off..my_off + my_len].to_vec();
        // Send everyone else their chunk of my data.
        for j in 0..n {
            if j == self.me {
                continue;
            }
            self.send_m(j, tag, &buf[offsets[j]..offsets[j] + counts[j]]);
        }
        // Accumulate everyone else's chunk of my slot.
        for j in 0..n {
            if j == self.me {
                continue;
            }
            let part = self.recv_m(j, tag);
            assert_eq!(part.len(), my_len, "reduce_scatter chunk mismatch");
            for (a, b) in acc.iter_mut().zip(part) {
                *a += b;
            }
        }
        acc
    }

    /// Ring all-gather of per-member chunks (sizes may differ). Returns
    /// the chunks indexed by member. Total volume `(n−1)·Σ chunks`.
    pub fn allgather_varying(&self, mine: &[T]) -> Vec<Vec<T>> {
        let n = self.size();
        let tag = self.next_tag(Op::AllGather);
        let mut out: Vec<Vec<T>> = vec![Vec::new(); n];
        out[self.me] = mine.to_vec();
        if n == 1 {
            return out;
        }
        let right = (self.me + 1) % n;
        let left = (self.me + n - 1) % n;
        // At step s we forward the chunk originated by (me − s) mod n.
        let mut carry = mine.to_vec();
        for s in 0..n - 1 {
            self.send_m(right, tag, &carry);
            let incoming = self.recv_m(left, tag);
            let origin = (self.me + n - s - 1) % n;
            out[origin] = incoming.clone();
            carry = incoming;
        }
        out
    }

    /// Simultaneous exchange: send `data` to member `dst` and receive
    /// the message member `src` sent us, without deadlocking (send
    /// first — the transport is buffered). The shift primitive of
    /// Cannon-style algorithms.
    pub fn sendrecv(&self, dst: usize, src: usize, data: &[T]) -> Vec<T> {
        self.sendrecv_vec(dst, src, data.to_vec())
    }

    /// [`Communicator::sendrecv`] taking the outgoing buffer by value:
    /// the vector moves into the destination mailbox without the
    /// per-hop `to_vec()` copy of the slice form. The shift hot path of
    /// the distmm pipelines.
    pub fn sendrecv_vec(&self, dst: usize, src: usize, data: Vec<T>) -> Vec<T> {
        self.isendrecv(dst, src, data).wait()
    }

    /// Nonblocking sendrecv start: the outgoing vector is posted (moved
    /// onto the wire) immediately; the matching receive is deferred to
    /// [`PendingRecv::wait`]. Tag and traffic accounting are identical
    /// to the blocking [`Communicator::sendrecv`].
    pub fn isendrecv(&self, dst: usize, src: usize, data: Vec<T>) -> PendingRecv<'_, 'a, T> {
        let tag = self.next_tag(Op::SendRecv);
        self.rank.send_vec(self.members[dst], tag, data);
        PendingRecv {
            comm: self,
            src,
            tag,
        }
    }

    /// Split into disjoint sub-communicators by `color` (like
    /// `MPI_Comm_split` with `key = member index`): every member calls
    /// this with its own color; members sharing a color form a new
    /// communicator ordered by their index in `self`. Purely local —
    /// requires `colors` to list every member's color (deterministically
    /// known, as all our topologies are static).
    pub fn split(&self, colors: &[u32]) -> Communicator<'a, T> {
        assert_eq!(colors.len(), self.size(), "one color per member");
        let my_color = colors[self.me];
        let members: Vec<RankId> = self
            .members
            .iter()
            .zip(colors)
            .filter(|(_, &c)| c == my_color)
            .map(|(&m, _)| m)
            .collect();
        // Derive a child ctx unique per (parent ctx, color).
        let ctx = self
            .ctx
            .wrapping_mul(0x9E37)
            .wrapping_add(my_color)
            .wrapping_add(0x4000_0000);
        Communicator::new(self.rank, members, ctx)
    }

    /// Dissemination barrier: `⌈log₂ n⌉` rounds of empty messages.
    pub fn barrier(&self) {
        let n = self.size();
        if n == 1 {
            return;
        }
        let tag = self.next_tag(Op::Barrier);
        let mut step = 1usize;
        while step < n {
            let to = (self.me + step) % n;
            let from = (self.me + n - step) % n;
            self.send_m(to, tag, &[]);
            let _ = self.recv_m(from, tag);
            step <<= 1;
        }
    }
}

/// Binomial-tree edges of member `me` in the broadcast tree rooted at
/// `root` (member indices, `n` members): the parent we receive from
/// (`None` on the root) and the children we forward to, in send order.
/// Shared by the blocking and nonblocking broadcast so both walk the
/// identical tree.
fn bcast_edges(n: usize, root: usize, me: usize) -> (Option<usize>, Vec<usize>) {
    let v = (me + n - root) % n; // virtual rank, root = 0
    let parent = if v == 0 {
        None
    } else {
        // The highest set bit of v identifies the sender: v − msb(v).
        let msb = 1usize << (usize::BITS - 1 - v.leading_zeros());
        Some(((v - msb) + root) % n)
    };
    // Children of v are v + mask, for masks above the bit that
    // delivered to us (all masks, for the root).
    let mut mask = if v == 0 {
        1
    } else {
        1usize << (usize::BITS - v.leading_zeros())
    };
    let mut children = Vec::new();
    while mask < n {
        let child_v = v + mask;
        if child_v < n && (v & mask) == 0 {
            children.push((child_v + root) % n);
        }
        mask <<= 1;
    }
    (parent, children)
}

/// A posted nonblocking broadcast (see [`Communicator::ibcast`]).
#[must_use = "every member must wait the broadcast to keep the tree flowing"]
pub struct PendingBcast<'c, 'a, T: Msg> {
    comm: &'c Communicator<'a, T>,
    root: usize,
    tag: Tag,
    /// `Some` on the root (tree sends already posted) and for the
    /// trivial single-member group; `None` on members that still owe
    /// their receive-and-forward.
    payload: Option<Vec<T>>,
}

impl<T: Msg> PendingBcast<'_, '_, T> {
    /// Complete the broadcast: the root gets its payload back, other
    /// members block for their parent's message, forward it down their
    /// subtree, and return it.
    pub fn wait(self) -> Vec<T> {
        if let Some(data) = self.payload {
            return data;
        }
        let n = self.comm.size();
        let (parent, children) = bcast_edges(n, self.root, self.comm.me());
        let parent = parent.expect("non-root member has a parent");
        let data = self.comm.recv_m(parent, self.tag);
        for child in children {
            self.comm.send_m(child, self.tag, &data);
        }
        data
    }
}

/// A posted nonblocking exchange (see [`Communicator::isendrecv`]): the
/// send already happened; this is the deferred receive half.
#[must_use = "an unawaited isendrecv never receives its shift partner's block"]
pub struct PendingRecv<'c, 'a, T: Msg> {
    comm: &'c Communicator<'a, T>,
    src: usize,
    tag: Tag,
}

impl<T: Msg> PendingRecv<'_, '_, T> {
    /// Block until the partner's message arrives and return it.
    pub fn wait(self) -> Vec<T> {
        self.comm.recv_m(self.src, self.tag)
    }
}

/// Split `len` into `n` nearly-even counts (first `len % n` get one
/// extra).
pub fn even_counts(len: usize, n: usize) -> Vec<usize> {
    let base = len / n;
    let extra = len % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

fn prefix_sums(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in counts {
        out.push(acc);
        acc += c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    fn run_world<R: Send>(
        p: usize,
        f: impl Fn(&Communicator<'_, f64>) -> R + Send + Sync,
    ) -> crate::machine::RunReport<R> {
        Machine::run::<f64, _, _>(p, MachineConfig::default(), |rank| {
            let comm = Communicator::world(rank);
            f(&comm)
        })
    }

    #[test]
    fn bcast_all_sizes_all_roots() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            for root in [0, p / 2, p - 1] {
                let r = run_world(p, |comm| {
                    let mut buf = if comm.me() == root {
                        vec![1.0, 2.0, 3.0]
                    } else {
                        vec![0.0; 3]
                    };
                    comm.bcast(root, &mut buf);
                    buf
                });
                for (i, res) in r.results.iter().enumerate() {
                    assert_eq!(res, &vec![1.0, 2.0, 3.0], "p={p} root={root} rank={i}");
                }
                // Binomial tree: exactly (p−1) messages of 3 elements.
                assert_eq!(r.stats.total_elems(), 3 * (p as u64 - 1), "p={p}");
                assert_eq!(r.stats.total_msgs(), p as u64 - 1);
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let root = p - 1;
            let r = run_world(p, |comm| {
                let me = comm.me() as f64;
                let mut buf = vec![me, 2.0 * me];
                comm.reduce(root, &mut buf);
                buf
            });
            let s: f64 = (0..p).map(|x| x as f64).sum();
            assert_eq!(r.results[root], vec![s, 2.0 * s], "p={p}");
            assert_eq!(r.stats.total_elems(), 2 * (p as u64 - 1));
        }
    }

    #[test]
    fn allreduce_small_and_large() {
        for (p, len) in [(4usize, 16usize), (4, 10_000), (7, 9_999)] {
            let r = run_world(p, move |comm| {
                let mut buf: Vec<f64> = (0..len).map(|i| (i % 17) as f64).collect();
                comm.allreduce(&mut buf);
                buf
            });
            let expect: Vec<f64> = (0..len).map(|i| (i % 17) as f64 * p as f64).collect();
            for res in &r.results {
                assert_eq!(res, &expect, "p={p} len={len}");
            }
        }
    }

    #[test]
    fn allreduce_large_volume_is_rabenseifner() {
        let (p, len) = (8usize, 8192usize);
        let r = run_world(p, move |comm| {
            let mut buf = vec![1.0f64; len];
            comm.allreduce(&mut buf);
            buf.len()
        });
        // reduce_scatter: each rank sends len − chunk = len·(p−1)/p;
        // allgather ring: same again. Total = 2·len·(p−1).
        assert_eq!(r.stats.total_elems(), 2 * (len as u64) * (p as u64 - 1));
    }

    #[test]
    fn reduce_scatter_returns_owned_chunk() {
        let p = 4;
        let r = run_world(p, |comm| {
            let buf: Vec<f64> = (0..8).map(|i| i as f64).collect();
            let counts = vec![2, 2, 2, 2];
            comm.reduce_scatter(&buf, &counts)
        });
        for (i, res) in r.results.iter().enumerate() {
            let expect: Vec<f64> = (0..2).map(|j| ((2 * i + j) as f64) * p as f64).collect();
            assert_eq!(res, &expect, "member {i}");
        }
    }

    #[test]
    fn allgather_ring_order_and_volume() {
        for p in [2usize, 3, 6] {
            let r = run_world(p, |comm| {
                let mine = vec![comm.me() as f64; comm.me() + 1]; // varying sizes
                comm.allgather_varying(&mine)
            });
            let total: u64 = (1..=p as u64).sum();
            for res in &r.results {
                for (j, chunk) in res.iter().enumerate() {
                    assert_eq!(chunk, &vec![j as f64; j + 1]);
                }
            }
            // Ring: every chunk travels p−1 hops.
            assert_eq!(r.stats.total_elems(), (p as u64 - 1) * total);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        let p = 8;
        Machine::run::<f64, _, _>(p, MachineConfig::default(), |rank| {
            let comm = Communicator::world(rank);
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank must have incremented.
            if before.load(Ordering::SeqCst) != p {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn sub_communicators_with_distinct_ctx() {
        // Two groups run concurrent broadcasts without cross-talk.
        let p = 4;
        let r = Machine::run::<f64, _, _>(p, MachineConfig::default(), |rank| {
            let group = rank.id() % 2; // evens, odds
            let members: Vec<usize> = (0..p).filter(|x| x % 2 == group).collect();
            let comm = Communicator::new(rank, members, group as u32 + 1);
            let mut buf = if comm.me() == 0 {
                vec![group as f64 * 100.0]
            } else {
                vec![0.0]
            };
            comm.bcast(0, &mut buf);
            buf[0]
        });
        assert_eq!(r.results, vec![0.0, 100.0, 0.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_construction_panics() {
        Machine::run::<f64, _, _>(2, MachineConfig::default(), |rank| {
            let _ = Communicator::new(rank, vec![1 - rank.id()], 0);
        });
    }

    #[test]
    fn bad_member_lists_panic_with_their_messages() {
        let failure = |members: fn(usize) -> Vec<usize>| {
            let err = Machine::try_run::<f64, _, _>(2, MachineConfig::default(), |rank| {
                let _ = Communicator::new(rank, members(rank.id()), 0);
            })
            .expect_err("a bad member list fails the run");
            err.failures[0].message.clone()
        };
        assert_eq!(
            failure(|me| vec![1 - me]),
            "rank 0 constructing a communicator it is not a member of: [1]"
        );
        assert_eq!(
            failure(|me| vec![me, me]),
            "duplicate members in communicator: [0, 0]"
        );
        assert_eq!(
            failure(|me| vec![me, 7]),
            "communicator member 7 does not exist on a 2-rank machine"
        );
    }

    #[test]
    fn sendrecv_ring_shift() {
        let p = 5;
        let r = run_world(p, |comm| {
            let right = (comm.me() + 1) % comm.size();
            let left = (comm.me() + comm.size() - 1) % comm.size();
            // Shift my id one step right around the ring.
            let got = comm.sendrecv(right, left, &[comm.me() as f64]);
            got[0]
        });
        for (i, v) in r.results.iter().enumerate() {
            assert_eq!(*v, ((i + p - 1) % p) as f64, "rank {i}");
        }
        // p messages of 1 element each.
        assert_eq!(r.stats.total_elems(), p as u64);
    }

    #[test]
    fn split_forms_disjoint_groups() {
        let r = run_world(6, |comm| {
            // Colors: even/odd member index.
            let colors: Vec<u32> = (0..comm.size()).map(|i| (i % 2) as u32).collect();
            let sub = comm.split(&colors);
            assert_eq!(sub.size(), 3);
            let mut buf = vec![comm.me() as f64];
            sub.allreduce(&mut buf);
            buf[0]
        });
        // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
        assert_eq!(r.results, vec![6.0, 9.0, 6.0, 9.0, 6.0, 9.0]);
    }

    #[test]
    fn ibcast_matches_bcast_bitwise_and_in_counters() {
        for p in [2usize, 3, 5, 8] {
            for root in [0, p - 1] {
                let payload: Vec<f64> = (0..7).map(|i| i as f64 * 1.5).collect();
                let blocking = {
                    let pl = payload.clone();
                    run_world(p, move |comm| {
                        let mut buf = if comm.me() == root {
                            pl.clone()
                        } else {
                            vec![0.0; pl.len()]
                        };
                        comm.bcast(root, &mut buf);
                        buf
                    })
                };
                let pipelined = {
                    let pl = payload.clone();
                    run_world(p, move |comm| {
                        let data = if comm.me() == root {
                            pl.clone()
                        } else {
                            Vec::new()
                        };
                        comm.ibcast(root, data).wait()
                    })
                };
                assert_eq!(blocking.results, pipelined.results, "p={p} root={root}");
                assert_eq!(blocking.stats, pipelined.stats, "p={p} root={root}");
                assert_eq!(blocking.makespan, pipelined.makespan, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn two_ibcasts_in_flight_resolve_by_tag() {
        // The double-buffer shape: post broadcast t and t+1, wait t
        // first even though t+1's root sends may already be parked.
        let p = 4;
        let r = run_world(p, |comm| {
            let a = comm.ibcast(0, if comm.me() == 0 { vec![1.0] } else { vec![] });
            let b = comm.ibcast(1, if comm.me() == 1 { vec![2.0] } else { vec![] });
            let va = a.wait();
            let vb = b.wait();
            (va[0], vb[0])
        });
        for (i, res) in r.results.iter().enumerate() {
            assert_eq!(*res, (1.0, 2.0), "rank {i}");
        }
        assert_eq!(r.stats.total_msgs(), 2 * (p as u64 - 1));
    }

    #[test]
    fn isendrecv_ring_matches_sendrecv() {
        let p = 5;
        let blocking = run_world(p, |comm| {
            let right = (comm.me() + 1) % comm.size();
            let left = (comm.me() + comm.size() - 1) % comm.size();
            comm.sendrecv(right, left, &[comm.me() as f64])[0]
        });
        let pipelined = run_world(p, |comm| {
            let right = (comm.me() + 1) % comm.size();
            let left = (comm.me() + comm.size() - 1) % comm.size();
            comm.isendrecv(right, left, vec![comm.me() as f64]).wait()[0]
        });
        assert_eq!(blocking.results, pipelined.results);
        assert_eq!(blocking.stats, pipelined.stats);
    }

    #[test]
    fn sendrecv_vec_moves_the_buffer() {
        let p = 2;
        let r = run_world(p, |comm| {
            let other = 1 - comm.me();
            let out = vec![comm.me() as f64; 4];
            comm.sendrecv_vec(other, other, out)
        });
        assert_eq!(r.results[0], vec![1.0; 4]);
        assert_eq!(r.results[1], vec![0.0; 4]);
        assert_eq!(r.stats.total_elems(), 8);
    }

    #[test]
    fn bcast_algo_all_algorithms_agree_on_data_and_volume() {
        for algo in [BcastAlgo::Linear, BcastAlgo::Binomial, BcastAlgo::Ring] {
            for p in [2usize, 3, 5, 8] {
                for root in [0, p / 2, p - 1] {
                    let r = run_world(p, move |comm| {
                        let mut buf = if comm.me() == root {
                            (0..10).map(|i| i as f64 * 0.5).collect()
                        } else {
                            vec![0.0; 10]
                        };
                        comm.bcast_algo(root, &mut buf, algo);
                        buf
                    });
                    let expect: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
                    for (i, res) in r.results.iter().enumerate() {
                        assert_eq!(res, &expect, "{algo:?} p={p} root={root} rank={i}");
                    }
                    // Every algorithm moves exactly (p−1)·len elements.
                    assert_eq!(
                        r.stats.total_elems(),
                        10 * (p as u64 - 1),
                        "{algo:?} p={p} root={root}"
                    );
                }
            }
        }
    }

    #[test]
    fn bcast_algo_makespans_order_as_the_alpha_beta_model_predicts() {
        // Large payload, 8 members: linear is (n−1) serialized full-
        // payload hops; the tree cuts that to ⌈log₂ n⌉ dependent hops;
        // the pipelined ring approaches a single payload time. The
        // Lamport makespan must reproduce this ordering exactly.
        // Payload large enough that β·v/S dominates α, else the ring's
        // extra message count costs more latency than it saves.
        let p = 8usize;
        let v = 1usize << 18;
        let cfg = MachineConfig::default();
        let run = move |algo: BcastAlgo| {
            Machine::run::<f64, _, _>(p, cfg, move |rank| {
                let comm = Communicator::world(rank);
                let mut buf = vec![1.0; v];
                comm.bcast_algo(0, &mut buf, algo);
            })
            .makespan
        };
        let linear = run(BcastAlgo::Linear);
        let tree = run(BcastAlgo::Binomial);
        let ring = run(BcastAlgo::Ring);
        let hop = cfg.cost.alpha + cfg.cost.beta * v as f64;
        assert!(
            (linear - 7.0 * hop).abs() < 1e-12,
            "linear {linear} vs {}",
            7.0 * hop
        );
        // Binomial: depth 3 for p = 8 (root's serialized sends add < 1 hop).
        assert!(tree >= 2.99 * hop && tree <= 4.0 * hop, "tree {tree}");
        // Ring with S = 8 segments: (n+S−2)·(α+β·v/8) ≈ 1.75·β·v.
        let seg_hop = cfg.cost.alpha + cfg.cost.beta * (v as f64 / 8.0);
        assert!(
            (ring - 14.0 * seg_hop).abs() < 1e-12,
            "ring {ring} vs {}",
            14.0 * seg_hop
        );
        assert!(ring < tree && tree < linear, "{ring} < {tree} < {linear}");
    }

    #[test]
    fn even_counts_splits() {
        assert_eq!(even_counts(10, 3), vec![4, 3, 3]);
        assert_eq!(even_counts(3, 5), vec![1, 1, 1, 0, 0]);
    }
}
