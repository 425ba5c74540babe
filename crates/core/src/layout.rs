//! The shared **layout layer**: per-layer grid placement, fiber
//! communicators, the forward pass, and inter-layer redistribution —
//! hoisted out of the rank bodies so the forward executor
//! ([`crate::network`]) and the training step ([`crate::train`]) set a
//! layer up identically.
//!
//! The redistribution exchange is the executable form of the exact
//! analytic accounting in [`crate::network::redistribution_volume`]:
//! every (producer, consumer) pair moves exactly the intersection of
//! the producer's final `Out` window with the consumer's next-layer
//! `In` window ([`consumer_in_window`] *is*
//! [`shard_geometry`]`(next, rank).in_region` — the same pure geometry
//! that materializes initial shards). Redistribution sends are
//! accounted under [`TrafficClass::Redistribution`], so per-layer
//! algorithmic volumes stay Eq-exact and the measured redistribution
//! counter can be pinned against the analytic volume to the element.

use crate::distribution::{out_range, plan_grid, shard_geometry};
use crate::fwd::forward_tiles;
use distconv_cost::DistPlan;
use distconv_simnet::{Communicator, Rank, Tag, TrafficClass};
use distconv_tensor::{Range4, Scalar, Shape4, Tensor4};

/// A rank's placement in one layer's logical grid plus the three fiber
/// communicators every algorithm needs (`k` for `In` broadcasts, `bhw`
/// for `Ker` broadcasts, `c` for the final `Out` reduction).
pub struct RankLayout<'r, T: Scalar> {
    /// Grid coordinates `[i_b, i_k, i_c, i_h, i_w]`.
    pub coords: [usize; 5],
    /// Linear position along the `bhw` fiber.
    pub bhw_pos: usize,
    /// The `k`-fiber communicator (`In` tile broadcasts).
    pub k_comm: Communicator<'r, T>,
    /// The `bhw`-fiber communicator (`Ker` tile broadcasts).
    pub bhw_comm: Communicator<'r, T>,
    /// The `c`-fiber communicator (final `Out` reduction).
    pub c_comm: Communicator<'r, T>,
}

impl<'r, T: Scalar> RankLayout<'r, T> {
    /// Build the calling rank's layout for `plan`: its grid coordinates
    /// and the three fiber sub-communicators, identical across every
    /// executor (kept in lockstep with [`shard_geometry`]).
    pub fn new(plan: &DistPlan, rank: &'r Rank<T>) -> Self {
        let grid = plan_grid(plan);
        let world: Vec<usize> = (0..rank.size()).collect();
        let geom = shard_geometry(plan, rank.id());
        let layout = RankLayout {
            coords: geom.coords,
            bhw_pos: geom.bhw_pos,
            k_comm: grid.sub_comm(rank, rank.id(), &world, &[1]),
            bhw_comm: grid.sub_comm(rank, rank.id(), &world, &[0, 3, 4]),
            c_comm: grid.sub_comm(rank, rank.id(), &world, &[2]),
        };
        debug_assert_eq!(layout.k_comm.me(), layout.ik());
        debug_assert_eq!(layout.bhw_comm.me(), layout.bhw_pos);
        debug_assert_eq!(layout.c_comm.me(), layout.ic());
        layout
    }

    /// This rank's `i_k` grid coordinate.
    pub fn ik(&self) -> usize {
        self.coords[1]
    }

    /// This rank's `i_c` grid coordinate.
    pub fn ic(&self) -> usize {
        self.coords[2]
    }
}

/// One rank's input shards for a layer, wherever they came from
/// (seed-materialized or redistributed from the previous layer).
pub(crate) struct LayerShards<'a, T: Scalar> {
    pub in_shard: &'a Tensor4<T>,
    pub in_origin: [usize; 4],
    pub ker_shard: &'a Tensor4<T>,
    pub ker_origin: [usize; 4],
    pub out_origin: [usize; 4],
}

/// Run one layer's forward pass on this rank: the rotating-broadcast
/// tile loop accumulating into `out_slice` (shape
/// `[W_b, W_k, W_w, W_h]`), then the final `c`-fiber reduction when
/// `P_c > 1` (partials land on the `i_c = 0` plane).
pub(crate) fn forward_layer<T: Scalar>(
    plan: &DistPlan,
    rank: &Rank<T>,
    layout: &RankLayout<'_, T>,
    shards: &LayerShards<'_, T>,
    out_slice: &mut Tensor4<T>,
) {
    forward_tiles(plan, rank, layout, shards, out_slice);
    if plan.grid.pc > 1 {
        let w = plan.w;
        let mut buf =
            std::mem::replace(out_slice, Tensor4::zeros(Shape4::new(1, 1, 1, 1))).into_vec();
        layout.c_comm.reduce(0, &mut buf);
        *out_slice = Tensor4::from_vec(Shape4::new(w.wb, w.wk, w.ww, w.wh), buf);
    }
}

/// The `In`-shard window (in the *consumer* layer's input coordinates,
/// which are the *producer* layer's output coordinates) that consumer
/// rank `rank_id` of `next` must receive: exactly the rank's initial
/// `In` region from [`shard_geometry`].
pub fn consumer_in_window(next: &DistPlan, rank_id: usize) -> Range4 {
    shard_geometry(next, rank_id).in_region
}

/// The final `Out` range (in output = next-input coordinates,
/// `[b, c(=k), x(=w), y(=h)]`) produced by rank `rank_id` of `prev` —
/// `None` for ranks off the `i_c = 0` plane (they hold no final data
/// after the `c` reduction).
pub fn producer_out_window(prev: &DistPlan, rank_id: usize) -> Option<Range4> {
    let geom = shard_geometry(prev, rank_id);
    (geom.coords[2] == 0).then(|| out_range(prev, geom.coords))
}

/// Every rank's redistribution windows at one layer boundary: computed
/// once per boundary by the caller and shared by all rank bodies, which
/// would otherwise each rebuild all `P` of them (`O(P²)` shard
/// geometries per boundary).
pub(crate) struct BoundaryWindows {
    /// [`producer_out_window`]`(prev, r)` for every rank `r`.
    pub out: Vec<Option<Range4>>,
    /// [`consumer_in_window`]`(next, r)` for every rank `r`.
    pub input: Vec<Range4>,
}

impl BoundaryWindows {
    pub(crate) fn new(prev: &DistPlan, next: &DistPlan) -> Self {
        let procs = prev.grid.total();
        debug_assert_eq!(procs, next.grid.total(), "same machine");
        BoundaryWindows {
            out: (0..procs).map(|r| producer_out_window(prev, r)).collect(),
            input: (0..procs).map(|r| consumer_in_window(next, r)).collect(),
        }
    }
}

/// Exchange this rank's reduced `Out` slice into its `In` shard for
/// the next layer's grid. Every rank reads the full static exchange
/// pattern from `windows` (no negotiation traffic): producers on the
/// `i_c = 0` plane send each window intersection, then every rank
/// assembles its shard from the producers that cover it. All sends are
/// accounted under [`TrafficClass::Redistribution`] so the per-layer
/// algorithmic counters stay untouched.
pub(crate) fn redistribute_to_next<T: Scalar>(
    rank: &Rank<T>,
    windows: &BoundaryWindows,
    out_slice: &Tensor4<T>,
    out_origin: [usize; 4],
    tag: Tag,
) -> Tensor4<T> {
    rank.set_traffic_class(TrafficClass::Redistribution);
    // Send phase (producers on the i_c = 0 plane only).
    if let Some(out_win) = windows.out[rank.id()] {
        for (consumer, in_win) in windows.input.iter().enumerate() {
            if let Some(isect) = out_win.intersect(in_win) {
                let local = isect.relative_to(out_origin);
                rank.send_vec(consumer, tag, out_slice.pack_range(local));
            }
        }
    }
    // Receive phase: assemble my next-layer In shard.
    let my_in_win = windows.input[rank.id()];
    let mut shard = Tensor4::<T>::zeros(my_in_win.shape());
    for (producer, out_win) in windows.out.iter().enumerate() {
        let Some(out_win) = out_win else {
            continue;
        };
        if let Some(isect) = out_win.intersect(&my_in_win) {
            let buf = rank.recv(producer, tag);
            assert_eq!(buf.len(), isect.len(), "redistribution size");
            shard.unpack_range(isect.relative_to(my_in_win.lo), &buf);
        }
    }
    rank.set_traffic_class(TrafficClass::Algorithmic);
    shard
}
