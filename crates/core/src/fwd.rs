//! The shared forward tile loop: Listing 3 with the paper's
//! rotating-broadcast schedule, parameterized over where the shards
//! came from (seed-materialized, or redistributed from a previous
//! layer). Called through [`crate::layout::forward_layer`] by the
//! forward executor and the training step.

use crate::distribution::{in_c_dist, ker_c_dist};
use crate::layout::{LayerShards, RankLayout};
use distconv_conv::{conv_tile_fast_rows, ConvScratch};
use distconv_cost::DistPlan;
use distconv_simnet::Rank;
use distconv_tensor::{conv_input_region, Range4, Scalar, Tensor4};

/// One step of the linearized `(j_k, j_b, j_w, j_h, c_t)` tile loop:
/// everything needed to post, wait for, and consume its two broadcasts.
struct TileStep {
    out_rng: Range4,
    in_owner: usize,
    in_rng: Range4,
    ker_owner: usize,
    ker_rng: Range4,
}

/// Run the full forward tile loop, accumulating into `out_slice`
/// (shape `[W_b, W_k, W_w, W_h]`, local coordinates). The caller is
/// responsible for the final `c`-reduction.
///
/// The loop is double-buffered: step `t+1`'s In/Ker broadcasts are
/// posted before step `t`'s tiles are waited for and convolved. Tiles
/// accumulate into `out_slice` in step order, so the output does not
/// depend on when a rank waits.
pub(crate) fn forward_tiles<T: Scalar>(
    plan: &DistPlan,
    rank: &Rank<T>,
    layout: &RankLayout<'_, T>,
    shards: &LayerShards<'_, T>,
    out_slice: &mut Tensor4<T>,
) {
    let p = plan.problem;
    let (w, t) = (plan.w, plan.t);
    assert_eq!(t.tc, 1, "the distributed schedule requires T_c = 1");
    let in_dist = in_c_dist(plan);
    let ker_dist = ker_c_dist(plan);
    let (sb, sk, sh, sw) = (w.wb / t.tb, w.wk / t.tk, w.wh / t.th, w.ww / t.tw);
    // One scratch arena for the whole tile loop.
    let mut scratch = ConvScratch::<T>::new();

    // Linearize the rotating-broadcast schedule so the pipeline can
    // look one step ahead.
    let mut steps = Vec::with_capacity(sk * sb * sw * sh * w.wc);
    for jk in 0..sk {
        for jb in 0..sb {
            for jw in 0..sw {
                for jh in 0..sh {
                    for ct in 0..w.wc {
                        let out_rng = tile_range(plan, shards.out_origin, [jb, jk, jh, jw]);
                        let gc = layout.ic() * w.wc + ct;
                        let in_rng = conv_input_region(out_rng, gc, gc + 1, p.sw, p.sh, p.nr, p.ns);
                        let ker_rng = Range4::new(
                            [out_rng.lo[1], gc, 0, 0],
                            [out_rng.hi[1], gc + 1, p.nr, p.ns],
                        );
                        steps.push(TileStep {
                            out_rng,
                            in_owner: in_dist.owner(ct),
                            in_rng,
                            ker_owner: ker_dist.owner(ct),
                            ker_rng,
                        });
                    }
                }
            }
        }
    }

    // Post a step's two broadcasts: the owners pack and their tree
    // sends go out immediately; non-owners pass an empty payload and
    // receive on wait.
    let post = |step: &TileStep| {
        let in_payload = if layout.ik() == step.in_owner {
            shards
                .in_shard
                .pack_range(step.in_rng.relative_to(shards.in_origin))
        } else {
            Vec::new()
        };
        let ker_payload = if layout.bhw_pos == step.ker_owner {
            shards
                .ker_shard
                .pack_range(step.ker_rng.relative_to(shards.ker_origin))
        } else {
            Vec::new()
        };
        (
            layout.k_comm.ibcast(step.in_owner, in_payload),
            layout.bhw_comm.ibcast(step.ker_owner, ker_payload),
        )
    };
    // Trace stamping: a posted broadcast is stamped with the step it
    // feeds, so tile step t's broadcasts and convolution all carry t.
    rank.set_step(0);
    let mut pending = steps.first().map(&post);
    for (t, step) in steps.iter().enumerate() {
        let (p_in, p_ker) = pending.take().expect("pipeline primed");
        if let Some(next) = steps.get(t + 1) {
            rank.set_step(t as u64 + 1);
            pending = Some(post(next));
        }
        rank.set_step(t as u64);
        let _l_in = rank.mem().lease_or_panic(step.in_rng.len() as u64);
        let in_tile = Tensor4::from_vec(step.in_rng.shape(), p_in.wait());
        let _l_ker = rank.mem().lease_or_panic(step.ker_rng.len() as u64);
        let ker_tile = Tensor4::from_vec(step.ker_rng.shape(), p_ker.wait());

        let out_local = step.out_rng.relative_to(shards.out_origin);
        rank.time_compute(|| {
            conv_tile_into_slice(&p, out_slice, out_local, &in_tile, &ker_tile, &mut scratch)
        });
    }
    // Whatever follows the tile loop (the caller's c-reduction) is its
    // own step.
    rank.set_step(steps.len() as u64);
}

/// Global `Out` range of tile step `[jb, jk, jh, jw]`.
pub(crate) fn tile_range(plan: &DistPlan, origin: [usize; 4], j: [usize; 4]) -> Range4 {
    let t = plan.t;
    let lo = [
        origin[0] + j[0] * t.tb,
        origin[1] + j[1] * t.tk,
        origin[2] + j[3] * t.tw,
        origin[3] + j[2] * t.th,
    ];
    Range4::new(lo, [lo[0] + t.tb, lo[1] + t.tk, lo[2] + t.tw, lo[3] + t.th])
}

/// Accumulate one tile directly into the resident `Out` slice
/// (no separate `Out`-tile buffer — the paper's memory claim).
///
/// The slice goes to [`distconv_conv::conv_tile_fast_rows`]: the tile's
/// output rows are strided windows of the resident shard (`h`
/// contiguous), so the kernel accumulates in place with no bounce
/// buffer, bitwise-identical to the `conv_tile` oracle (DESIGN.md §7).
pub(crate) fn conv_tile_into_slice<T: Scalar>(
    p: &distconv_cost::Conv2dProblem,
    out_slice: &mut Tensor4<T>,
    out_local: Range4,
    in_tile: &Tensor4<T>,
    ker_tile: &Tensor4<T>,
    scratch: &mut ConvScratch<T>,
) {
    debug_assert_eq!(in_tile.shape().0[1], ker_tile.shape().0[1]);
    let s = out_slice.shape().strides();
    let base =
        out_local.lo[0] * s[0] + out_local.lo[1] * s[1] + out_local.lo[2] * s[2] + out_local.lo[3];
    conv_tile_fast_rows(
        p,
        out_slice.as_mut_slice(),
        base,
        [s[0], s[1], s[2]],
        out_local.extents(),
        in_tile,
        ker_tile,
        scratch,
    );
}
