//! The fast local compute path: implicit-im2col × packed-kernel GEMM.
//!
//! [`conv_tile`](crate::kernels::conv_tile) is the paper's Listing-1
//! seven-loop kernel applied to a tile: every multiply pays 4-D offset
//! arithmetic and nothing vectorizes. This module lowers the same tile
//! computation to the classical im2col GEMM reduction (the "CNN
//! generalizes matmul" identity the paper builds its cost model on):
//!
//! ```text
//! Out[(b,w), k, h] += Σ_j Ker[k, j] · Col[(b,w), j, h],   j = (c, r, s)
//! ```
//!
//! with three structural optimizations:
//!
//! * **Packed kernel panel** — `Ker[k,c,r,s]` is packed once per call
//!   into a transposed `[crs][T_k]` panel
//!   ([`distconv_tensor::gemm::pack_transposed`]), so the micro-kernel
//!   reads its `MR` coefficients contiguously.
//! * **Implicit im2col** — for `σ_h = 1` the column matrix is never
//!   materialized: column row `(c, r, s)` *is* the subslice
//!   `In[b, c, σ_w·w + r, s..s+T_h]` of an input halo row, addressed
//!   through the micro-kernel's offset table. Only strided-`h` layers
//!   (`σ_h > 1`) gather their column rows into a reusable, L1-sized
//!   scratch buffer. The `1×1` stride-1 case degenerates to a pure
//!   GEMM on the raw input rows — no packing, no halo arithmetic.
//! * **Register blocking** — [`gemm_acc_rows`] updates
//!   [`mr_block`]`()` output rows (8 on the runtime-detected AVX2
//!   path, 4 scalar) per pass over a column row, and the `crs`
//!   dimension is walked in L1-sized blocks so the streamed column
//!   rows are reused across all `T_k` output channels while hot.
//!
//! All scratch (kernel panel, column buffer, offset table) lives in a
//! caller-held [`ConvScratch`] arena, so tiled executors pay zero
//! allocation per tile.
//!
//! **Numerical contract:** every output element accumulates its
//! `(c, r, s)` products in exactly the reference kernel's ascending
//! order, so results are *bitwise identical* to `conv_tile` /
//! `conv2d_direct` — not merely within tolerance. Switching
//! [`LocalKernel`] therefore cannot perturb
//! golden results or traffic counters.

use distconv_cost::Conv2dProblem;
use distconv_par::{pool, LocalKernel};
use distconv_tensor::gemm::{gemm_acc_rows, mr_block, pack_transposed};
use distconv_tensor::{Scalar, Tensor4};

use crate::kernels::{conv2d_direct_par, in_shape, ker_shape, out_shape};

/// `crs` block size for the GEMM loop: 128 column rows of a 56-wide
/// f32 tile are ~28 KiB — resident in L1/L2 while all `T_k` output
/// channels stream over them.
const KC: usize = 128;

/// Reusable scratch arena for the fast kernels. Create one per run (or
/// per worker thread) and pass it to every tile call — the buffers grow
/// to the high-water mark and are never reallocated per tile.
#[derive(Clone, Debug, Default)]
pub struct ConvScratch<T> {
    /// Packed transposed kernel panel, `[crs][T_k]`.
    at: Vec<T>,
    /// Gathered column rows for strided-`h` tiles, `[crs][T_h]`.
    col: Vec<T>,
    /// Column-row offset table for the current `(b, w)` GEMM.
    boff: Vec<usize>,
}

impl<T: Scalar> ConvScratch<T> {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        ConvScratch {
            at: Vec::new(),
            col: Vec::new(),
            boff: Vec::new(),
        }
    }
}

/// Fast drop-in replacement for [`crate::kernels::conv_tile`]:
/// accumulate one tile's contribution on local, rebased buffers via the
/// packed im2col GEMM. Bitwise identical to `conv_tile` (see module
/// docs).
pub fn conv_tile_fast<T: Scalar>(
    p: &Conv2dProblem,
    out_tile: &mut Tensor4<T>,
    in_tile: &Tensor4<T>,
    ker_tile: &Tensor4<T>,
    scratch: &mut ConvScratch<T>,
) {
    let [tb, tk, tw, th] = out_tile.shape().0;
    let strides = [tk * tw * th, tw * th, th];
    conv_tile_fast_rows(
        p,
        out_tile.as_mut_slice(),
        0,
        strides,
        [tb, tk, tw, th],
        in_tile,
        ker_tile,
        scratch,
    );
}

/// The row-addressed core shared by [`conv_tile_fast`] and the
/// distributed forward loop's accumulate-into-`Out`-slice path: output
/// row `(b, k, w, ·)` lives at
/// `out[out_base + b·strides[0] + k·strides[1] + w·strides[2] ..][..T_h]`,
/// which lets callers accumulate directly into a strided window of a
/// resident `Out` shard without a bounce buffer.
#[allow(clippy::too_many_arguments)]
pub fn conv_tile_fast_rows<T: Scalar>(
    p: &Conv2dProblem,
    out: &mut [T],
    out_base: usize,
    out_strides: [usize; 3],
    out_extents: [usize; 4],
    in_tile: &Tensor4<T>,
    ker_tile: &Tensor4<T>,
    scratch: &mut ConvScratch<T>,
) {
    let [tb, tk, tw, th] = out_extents;
    let [tb2, tc, xt, yt] = in_tile.shape().0;
    let [tk2, tc2, nr, ns] = ker_tile.shape().0;
    assert_eq!(tb, tb2, "batch tile mismatch");
    assert_eq!(tk, tk2, "k tile mismatch");
    assert_eq!(tc, tc2, "c tile mismatch");
    assert_eq!((nr, ns), (p.nr, p.ns), "kernel extent mismatch");
    assert!(
        xt >= p.sw * (tw - 1) + p.nr && yt >= p.sh * (th - 1) + p.ns,
        "input tile window too small: {xt}x{yt} for out {tw}x{th}"
    );
    if tb == 0 || tk == 0 || tw == 0 || th == 0 {
        return;
    }
    let crs = tc * nr * ns;
    // Pack Ker[k, (c,r,s)] → [crs][tk] once for the whole tile.
    pack_transposed(ker_tile.as_slice(), tk, crs, &mut scratch.at);
    im2col_gemm(
        p,
        out,
        out_base,
        out_strides,
        [tb, tk, tw, th],
        in_tile.as_slice(),
        [tc, xt, yt],
        &scratch.at,
        &mut scratch.col,
        &mut scratch.boff,
    );
}

/// GEMM core: kernel panel already packed in `at`.
#[allow(clippy::too_many_arguments)]
fn im2col_gemm<T: Scalar>(
    p: &Conv2dProblem,
    out: &mut [T],
    out_base: usize,
    ostr: [usize; 3],
    [tb, tk, tw, th]: [usize; 4],
    in_data: &[T],
    [tc, xt, yt]: [usize; 3],
    at: &[T],
    col: &mut Vec<T>,
    boff: &mut Vec<usize>,
) {
    let (nr, ns, sw, sh) = (p.nr, p.ns, p.sw, p.sh);
    let crs = tc * nr * ns;
    // Register-block height for the active micro-kernel path (8 on the
    // AVX2 path, 4 scalar) — a perf hint only; results are blocking-
    // independent (see gemm module docs).
    let mrb = mr_block();
    boff.clear();
    boff.resize(crs, 0);
    if sh > 1 {
        col.clear();
        col.resize(crs * th, T::zero());
    }
    for b in 0..tb {
        for w in 0..tw {
            // Column-row bases for this (b, w): row j = (c, r, s) starts
            // at In[b, c, σw·w + r, s].
            let mut j = 0;
            for c in 0..tc {
                let cbase = (b * tc + c) * (xt * yt);
                for r in 0..nr {
                    let rbase = cbase + (sw * w + r) * yt;
                    for s in 0..ns {
                        boff[j] = rbase + s;
                        j += 1;
                    }
                }
            }
            let bsl: &[T] = if sh == 1 {
                // Implicit im2col: column rows are input-row subslices.
                in_data
            } else {
                // Strided h: gather each column row once per (b, w).
                for (j, &off) in boff.iter().enumerate() {
                    let src = &in_data[off..off + sh * (th - 1) + 1];
                    for (h, d) in col[j * th..(j + 1) * th].iter_mut().enumerate() {
                        *d = src[sh * h];
                    }
                }
                for (j, off) in boff.iter_mut().enumerate() {
                    *off = j * th;
                }
                col
            };
            let cb = out_base + b * ostr[0] + w * ostr[2];
            // j-blocked so a KC×T_h panel of column rows stays cache-hot
            // across all T_k output channels. Per output element the
            // update order is still j ascending (j0 outer, j inner) —
            // the reference kernel's (c, r, s) order exactly.
            for j0 in (0..crs).step_by(KC) {
                let kk = KC.min(crs - j0);
                let mut k0 = 0;
                while k0 < tk {
                    let mr = mrb.min(tk - k0);
                    gemm_acc_rows(
                        &mut out[cb + k0 * ostr[1]..],
                        ostr[1],
                        mr,
                        th,
                        &at[j0 * tk..],
                        tk,
                        k0,
                        bsl,
                        &boff[j0..j0 + kk],
                    );
                    k0 += mr;
                }
            }
        }
    }
}

/// Whole-problem fast convolution: pack `Ker` once, then run the
/// im2col GEMM per batch image in parallel over the worker pool.
/// Bitwise identical to [`crate::kernels::conv2d_direct`] (and thus to
/// `conv2d_direct_par`) for every shape and stride.
pub fn conv2d_fast<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(input.shape(), in_shape(p), "In shape mismatch");
    assert_eq!(ker.shape(), ker_shape(p), "Ker shape mismatch");
    let mut out = Tensor4::zeros(out_shape(p));
    let crs = p.nc * p.nr * p.ns;
    let mut at = Vec::new();
    pack_transposed(ker.as_slice(), p.nk, crs, &mut at);
    let (xt, yt) = (p.in_w(), p.in_h());
    let in_bstride = p.nc * xt * yt;
    let plane = p.nk * p.nw * p.nh;
    let in_data = input.as_slice();
    let at = &at;
    let madds = p.nb * plane * crs;
    let pool = if madds < crate::kernels::PAR_MADD_CUTOFF {
        pool::Pool::new(1)
    } else {
        pool::Pool::default()
    };
    pool.par_chunks_mut(out.as_mut_slice(), plane, |b, chunk| {
        let mut col = Vec::new();
        let mut boff = Vec::new();
        im2col_gemm(
            p,
            chunk,
            0,
            [plane, p.nw * p.nh, p.nh],
            [1, p.nk, p.nw, p.nh],
            &in_data[b * in_bstride..],
            [p.nc, xt, yt],
            at,
            &mut col,
            &mut boff,
        );
    });
    out
}

/// Kernel-selected whole-problem convolution: the entry point the
/// baseline schemes and examples dispatch through.
pub fn conv2d<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
    kernel: LocalKernel,
) -> Tensor4<T> {
    match kernel {
        LocalKernel::Reference => conv2d_direct_par(p, input, ker),
        LocalKernel::Fast => conv2d_fast(p, input, ker),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{conv2d_direct, conv_tile, workload};
    use distconv_tensor::Range4;

    #[test]
    fn whole_tile_bitwise_matches_reference_kernel() {
        for p in [
            Conv2dProblem::square(2, 3, 4, 5, 3),
            Conv2dProblem::new(1, 5, 2, 4, 6, 2, 3, 1, 1),
            Conv2dProblem::new(2, 4, 3, 3, 3, 3, 3, 2, 2),
            Conv2dProblem::new(1, 2, 2, 4, 4, 3, 3, 3, 2),
            Conv2dProblem::new(2, 7, 3, 5, 5, 1, 1, 1, 1), // pointwise
        ] {
            let (input, ker) = workload::<f64>(&p, 31);
            let mut reference = Tensor4::zeros(out_shape(&p));
            conv_tile(&p, &mut reference, &input, &ker);
            let mut fast = Tensor4::zeros(out_shape(&p));
            let mut scratch = ConvScratch::new();
            conv_tile_fast(&p, &mut fast, &input, &ker, &mut scratch);
            assert_eq!(fast.as_slice(), reference.as_slice(), "{p:?}");
        }
    }

    #[test]
    fn f32_bitwise_matches_too() {
        let p = Conv2dProblem::new(2, 5, 3, 6, 4, 3, 2, 2, 1);
        let (input, ker) = workload::<f32>(&p, 8);
        let mut reference = Tensor4::zeros(out_shape(&p));
        conv_tile(&p, &mut reference, &input, &ker);
        let mut fast = Tensor4::zeros(out_shape(&p));
        conv_tile_fast(&p, &mut fast, &input, &ker, &mut ConvScratch::new());
        assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn accumulates_channel_splits_like_reference() {
        // Same invariant as the reference tile kernel: c-split tiles
        // accumulated in ascending order reproduce the whole result.
        let p = Conv2dProblem::square(2, 3, 4, 5, 3);
        let (input, ker) = workload::<f64>(&p, 13);
        let mut reference = Tensor4::zeros(out_shape(&p));
        conv_tile(&p, &mut reference, &input, &ker);
        let mut out = Tensor4::zeros(out_shape(&p));
        let mut scratch = ConvScratch::new();
        for c0 in [0usize, 2] {
            let in_slice = input.slice(Range4::new(
                [0, c0, 0, 0],
                [p.nb, c0 + 2, p.in_w(), p.in_h()],
            ));
            let ker_slice = ker.slice(Range4::new([0, c0, 0, 0], [p.nk, c0 + 2, p.nr, p.ns]));
            conv_tile_fast(&p, &mut out, &in_slice, &ker_slice, &mut scratch);
        }
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn conv2d_fast_matches_direct_bitwise() {
        for p in [
            Conv2dProblem::square(2, 4, 3, 6, 3),
            Conv2dProblem::new(3, 2, 5, 4, 4, 3, 3, 2, 2),
        ] {
            let (input, ker) = workload::<f64>(&p, 77);
            let a = conv2d_direct(&p, &input, &ker);
            let b = conv2d_fast(&p, &input, &ker);
            assert_eq!(a.as_slice(), b.as_slice(), "{p:?}");
        }
    }

    #[test]
    fn dispatch_selects_both_kernels() {
        let p = Conv2dProblem::square(1, 2, 2, 4, 3);
        let (input, ker) = workload::<f64>(&p, 5);
        let a = conv2d(&p, &input, &ker, LocalKernel::Reference);
        let b = conv2d(&p, &input, &ker, LocalKernel::Fast);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn scratch_reuse_across_heterogeneous_tiles() {
        // One arena across tiles of different shapes and strides must
        // not leak state between calls.
        let mut scratch = ConvScratch::new();
        for p in [
            Conv2dProblem::square(1, 4, 4, 6, 3),
            Conv2dProblem::new(2, 3, 2, 3, 5, 2, 2, 2, 2),
            Conv2dProblem::new(1, 1, 1, 2, 2, 1, 1, 1, 1),
        ] {
            let (input, ker) = workload::<f64>(&p, 3);
            let mut reference = Tensor4::zeros(out_shape(&p));
            conv_tile(&p, &mut reference, &input, &ker);
            let mut fast = Tensor4::zeros(out_shape(&p));
            conv_tile_fast(&p, &mut fast, &input, &ker, &mut scratch);
            assert_eq!(fast.as_slice(), reference.as_slice(), "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "input tile window too small")]
    fn undersized_window_panics() {
        let p = Conv2dProblem::square(1, 1, 1, 4, 3);
        let mut out = Tensor4::<f64>::zeros(out_shape(&p));
        let input = Tensor4::zeros(distconv_tensor::Shape4::new(1, 1, 3, 3));
        let ker = Tensor4::zeros(ker_shape(&p));
        conv_tile_fast(&p, &mut out, &input, &ker, &mut ConvScratch::new());
    }
}
