//! The register-blocked GEMM micro-kernel shared by every fast local
//! compute path: the packed im2col-GEMM convolution kernel in
//! `distconv-conv` and the packed block products in `distconv-distmm`.
//!
//! Design: the classical outer-product micro-kernel. The left operand
//! is packed **transposed** ([`pack_transposed`]) so that one panel row
//! `j` holds the register-block coefficients `A[i0..i0+mr, j]`
//! contiguously; the right operand is addressed through a per-row
//! *offset table*, which is what makes the im2col lowering implicit — a
//! convolution hands the kernel window subslices of the input rows
//! directly (`b_off[j]` = halo-row base + kernel column) without ever
//! materializing a column matrix, while a plain matmul hands
//! `b_off[j] = j·n`. The inner loop updates up to [`mr_block`] output
//! rows per pass over one right-hand row, so each loaded element is
//! reused `mr` times from registers.
//!
//! Two implementations sit behind [`gemm_acc_rows`], selected at
//! runtime by [`crate::simd::active`]:
//!
//! * the portable scalar kernel ([`MR`] = 4 rows, safe Rust shaped for
//!   the autovectorizer), always compiled;
//! * hand-written AVX2 kernels ([`MR_MAX`] = 8 rows × 8-lane f32 /
//!   4-lane f64 vectors) in [`crate::simd`], used when the host
//!   supports `avx2`+`fma` and `DISTCONV_SIMD` does not say `off`.
//!
//! Both perform the identical per-element operation sequence
//! (ascending-`j`, multiply rounded before add), so **results are
//! bitwise independent of the dispatch decision** — the workspace-wide
//! kernel-invisibility contract extends across ISAs.

use crate::scalar::Scalar;
use crate::simd::{self, SimdPath};

/// Scalar register-block height: output rows updated per pass over a
/// right-hand row by the portable kernel. 4 accumulator rows × 8-wide
/// f32 vectors stays well inside 16 architectural registers.
pub const MR: usize = 4;

/// Maximum register-block height any kernel path uses (the AVX2 path
/// runs 8 accumulator vectors). [`gemm_acc_rows`] accepts any
/// `mr ≤ MR_MAX` on every path — the scalar kernel decomposes larger
/// blocks into [`MR`]-row groups, which cannot change any element's
/// sum because each output row accumulates independently.
pub const MR_MAX: usize = 8;

/// The register-block height callers should tile the `i` dimension
/// with for the *active* kernel path: [`MR_MAX`] when the AVX2 path is
/// selected, [`MR`] for the scalar path. Purely a performance hint —
/// results are identical for any blocking (see module docs).
pub fn mr_block() -> usize {
    match simd::active() {
        SimdPath::Avx2 => MR_MAX,
        SimdPath::Scalar => MR,
    }
}

/// Pack a row-major `rows × cols` matrix into its transpose
/// (`cols × rows`, row-major), appending into `dst` (cleared first).
/// This is the panel layout [`gemm_acc_rows`] consumes on its left
/// side: element `A[i, j]` lands at `dst[j * rows + i]`, so any
/// `(i0, mr)` window reads `mr` contiguous lanes — the layout feeds
/// full SIMD register blocks without repacking. Tiled over 8×8 blocks
/// so both the source reads and destination writes stay within a few
/// cache lines per tile.
pub fn pack_transposed<T: Scalar>(src: &[T], rows: usize, cols: usize, dst: &mut Vec<T>) {
    assert_eq!(src.len(), rows * cols, "pack_transposed shape mismatch");
    const TILE: usize = 8;
    dst.clear();
    dst.resize(rows * cols, T::zero());
    for i_t in (0..rows).step_by(TILE) {
        let i_hi = (i_t + TILE).min(rows);
        for j_t in (0..cols).step_by(TILE) {
            let j_hi = (j_t + TILE).min(cols);
            for i in i_t..i_hi {
                let row = &src[i * cols..(i + 1) * cols];
                for (j, &v) in row[j_t..j_hi].iter().enumerate() {
                    dst[(j_t + j) * rows + i] = v;
                }
            }
        }
    }
}

/// `mr` output rows `+=` a packed panel times a set of right-hand rows,
/// on the kernel path selected by [`crate::simd::active`].
///
/// * `c` — output storage. Row `r` (for `r < mr`) occupies
///   `c[r * c_stride .. r * c_stride + n]`; `c_stride ≥ n` lets callers
///   accumulate directly into strided tensor rows (e.g. adjacent `k`
///   planes of an `Out` tile).
/// * `at` — transposed left panel: row `j` starts at `at[j * at_stride]`
///   and the coefficients used are `at[j * at_stride + i0 + r]`.
/// * `b` / `b_off` — right-hand rows: row `j` is
///   `b[b_off[j] .. b_off[j] + n]`. The offset indirection is the
///   implicit-im2col hook (see module docs).
///
/// The accumulation order per output element is `j` ascending — fixed
/// and independent of `mr` blocking *and of the kernel path*, so
/// results do not depend on how callers block the `i` dimension or on
/// what the host CPU supports.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc_rows<T: Scalar>(
    c: &mut [T],
    c_stride: usize,
    mr: usize,
    n: usize,
    at: &[T],
    at_stride: usize,
    i0: usize,
    b: &[T],
    b_off: &[usize],
) {
    // `active()` only ever holds a path the host can run (resolved from
    // CPUID, or pinned through the checked `simd::force`), so the hot
    // path skips `gemm_acc_rows_with`'s host check.
    gemm_on_path(
        simd::active(),
        c,
        c_stride,
        mr,
        n,
        at,
        at_stride,
        i0,
        b,
        b_off,
    );
}

/// [`gemm_acc_rows`] with the kernel path chosen explicitly, bypassing
/// the cached [`crate::simd::active`] decision. This is the hook the
/// bitwise-equivalence suites and the kernel benches use to compare
/// paths inside one process without mutating global dispatch state.
///
/// # Panics
///
/// If `path` is [`SimdPath::Avx2`] and the host lacks `avx2`+`fma`
/// (the check reads [`crate::simd::detect`], whose CPUID probe the
/// standard library caches) — the same refusal as
/// [`crate::simd::force`]. Running the AVX2 kernel there would be
/// undefined behaviour, and silently running scalar instead would let
/// an equivalence test compare the scalar kernel with itself.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc_rows_with<T: Scalar>(
    path: SimdPath,
    c: &mut [T],
    c_stride: usize,
    mr: usize,
    n: usize,
    at: &[T],
    at_stride: usize,
    i0: usize,
    b: &[T],
    b_off: &[usize],
) {
    simd::assert_runnable(path);
    gemm_on_path(path, c, c_stride, mr, n, at, at_stride, i0, b, b_off);
}

/// Dispatch to `path`'s kernel; the caller has checked the host can
/// run it.
#[allow(clippy::too_many_arguments)]
fn gemm_on_path<T: Scalar>(
    path: SimdPath,
    c: &mut [T],
    c_stride: usize,
    mr: usize,
    n: usize,
    at: &[T],
    at_stride: usize,
    i0: usize,
    b: &[T],
    b_off: &[usize],
) {
    debug_assert!((1..=MR_MAX).contains(&mr), "mr {mr} out of range");
    debug_assert!(c_stride >= n || mr == 1, "c_stride {c_stride} < n {n}");
    if path == SimdPath::Avx2
        && simd::try_gemm_rows(c, c_stride, mr, n, at, at_stride, i0, b, b_off)
    {
        return;
    }
    // Scalar path. Decompose mr > MR into MR-row groups: row sums are
    // independent, so the grouping is invisible in the results.
    let mut r0 = 0usize;
    while r0 < mr {
        let g = MR.min(mr - r0);
        scalar_rows(
            &mut c[r0 * c_stride..],
            c_stride,
            g,
            n,
            at,
            at_stride,
            i0 + r0,
            b,
            b_off,
        );
        r0 += g;
    }
}

/// The portable kernel: `mr ≤ MR` rows, written over pre-sliced
/// `[..n]` slices so LLVM drops the bounds checks and autovectorizes.
/// Plain safe Rust — hot-loop speed comes from hoisting offset
/// arithmetic and shaping loops for the autovectorizer, not `unsafe`.
#[allow(clippy::too_many_arguments)]
fn scalar_rows<T: Scalar>(
    c: &mut [T],
    c_stride: usize,
    mr: usize,
    n: usize,
    at: &[T],
    at_stride: usize,
    i0: usize,
    b: &[T],
    b_off: &[usize],
) {
    match mr {
        1 => {
            let r0 = &mut c[..n];
            for (j, &off) in b_off.iter().enumerate() {
                let a0 = at[j * at_stride + i0];
                let br = &b[off..off + n];
                for (d, &bv) in r0.iter_mut().zip(br) {
                    *d += a0 * bv;
                }
            }
        }
        2 => {
            let (r0, rest) = c.split_at_mut(c_stride);
            let (r0, r1) = (&mut r0[..n], &mut rest[..n]);
            for (j, &off) in b_off.iter().enumerate() {
                let a = &at[j * at_stride + i0..][..2];
                let (a0, a1) = (a[0], a[1]);
                let br = &b[off..off + n];
                for (h, &bv) in br.iter().enumerate() {
                    r0[h] += a0 * bv;
                    r1[h] += a1 * bv;
                }
            }
        }
        3 => {
            let (r0, rest) = c.split_at_mut(c_stride);
            let (r1, rest) = rest.split_at_mut(c_stride);
            let (r0, r1, r2) = (&mut r0[..n], &mut r1[..n], &mut rest[..n]);
            for (j, &off) in b_off.iter().enumerate() {
                let a = &at[j * at_stride + i0..][..3];
                let (a0, a1, a2) = (a[0], a[1], a[2]);
                let br = &b[off..off + n];
                for (h, &bv) in br.iter().enumerate() {
                    r0[h] += a0 * bv;
                    r1[h] += a1 * bv;
                    r2[h] += a2 * bv;
                }
            }
        }
        _ => {
            let (r0, rest) = c.split_at_mut(c_stride);
            let (r1, rest) = rest.split_at_mut(c_stride);
            let (r2, rest) = rest.split_at_mut(c_stride);
            let (r0, r1, r2, r3) = (&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut rest[..n]);
            for (j, &off) in b_off.iter().enumerate() {
                let a = &at[j * at_stride + i0..][..4];
                let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
                let br = &b[off..off + n];
                for (h, &bv) in br.iter().enumerate() {
                    r0[h] += a0 * bv;
                    r1[h] += a1 * bv;
                    r2[h] += a2 * bv;
                    r3[h] += a3 * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_transposed_roundtrip() {
        // 2×3 row-major → 3×2 transposed.
        let src = vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut dst = Vec::new();
        pack_transposed(&src, 2, 3, &mut dst);
        assert_eq!(dst, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Repacking reuses (and clears) the buffer.
        pack_transposed(&src, 2, 3, &mut dst);
        assert_eq!(dst.len(), 6);
    }

    #[test]
    fn pack_transposed_beyond_one_tile() {
        // 13×11 exercises the 8×8 tiling plus both ragged edges.
        let (rows, cols) = (13usize, 11usize);
        let src: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
        let mut dst = Vec::new();
        pack_transposed(&src, rows, cols, &mut dst);
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(dst[j * rows + i], src[i * cols + j], "({i},{j})");
            }
        }
    }

    /// Reference: c[r][h] += Σ_j a[i0+r][j]·b_row_j[h] in j order.
    fn reference(
        m: usize,
        kc: usize,
        n: usize,
        a: &[f64], // row-major m × kc
        b: &[f64],
        b_off: &[usize],
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for r in 0..m {
            for h in 0..n {
                for j in 0..kc {
                    c[r * n + h] += a[r * kc + j] * b[b_off[j] + h];
                }
            }
        }
        c
    }

    #[test]
    fn all_mr_sizes_match_reference() {
        let (kc, n) = (5, 7);
        let b: Vec<f64> = (0..kc * n).map(|x| (x as f64) * 0.25 - 3.0).collect();
        let b_off: Vec<usize> = (0..kc).map(|j| j * n).collect();
        for m in 1..=MR_MAX {
            let a: Vec<f64> = (0..m * kc).map(|x| (x as f64) * 0.5 - 1.0).collect();
            let mut at = Vec::new();
            pack_transposed(&a, m, kc, &mut at);
            let mut c = vec![0.0f64; m * n];
            gemm_acc_rows(&mut c, n, m, n, &at, m, 0, &b, &b_off);
            assert_eq!(c, reference(m, kc, n, &a, &b, &b_off), "mr={m}");
        }
    }

    #[test]
    fn strided_c_rows_and_panel_offset() {
        // c rows spaced by stride 10, using panel columns i0..i0+2 of a
        // wider 6-row packed panel.
        let (m_total, kc, n, stride, i0) = (6usize, 3usize, 4usize, 10usize, 2usize);
        let a: Vec<f64> = (0..m_total * kc).map(|x| x as f64).collect();
        let mut at = Vec::new();
        pack_transposed(&a, m_total, kc, &mut at);
        let b: Vec<f64> = (0..kc * n).map(|x| 1.0 + x as f64).collect();
        let b_off: Vec<usize> = (0..kc).map(|j| j * n).collect();
        let mut c = vec![0.0f64; stride * 2];
        gemm_acc_rows(&mut c, stride, 2, n, &at, m_total, i0, &b, &b_off);
        let expect = reference(m_total, kc, n, &a, &b, &b_off);
        assert_eq!(&c[..n], &expect[i0 * n..i0 * n + n]);
        assert_eq!(
            &c[stride..stride + n],
            &expect[(i0 + 1) * n..(i0 + 1) * n + n]
        );
        // Gap between rows untouched.
        assert!(c[n..stride].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accumulates_on_top_of_existing_values() {
        let n = 3;
        let at = vec![2.0f64]; // 1×1 panel
        let b = vec![1.0, 2.0, 3.0];
        let mut c = vec![10.0f64, 20.0, 30.0];
        gemm_acc_rows(&mut c, n, 1, n, &at, 1, 0, &b, &[0]);
        assert_eq!(c, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn overlapping_b_rows_model_implicit_im2col() {
        // b_off rows overlap (off 0 and 1 of the same buffer) — exactly
        // how the conv kernel aliases halo rows.
        let b = vec![1.0f64, 2.0, 3.0, 4.0];
        let at = vec![1.0f64, 10.0]; // kc=2, m=1
        let mut c = vec![0.0f64; 3];
        gemm_acc_rows(&mut c, 3, 1, 3, &at, 1, 0, &b, &[0, 1]);
        // c[h] = b[h] + 10·b[h+1]
        assert_eq!(c, vec![21.0, 32.0, 43.0]);
    }

    #[test]
    fn explicit_scalar_path_handles_every_mr() {
        // The scalar kernel must accept the widened block (mr ≤ MR_MAX)
        // via row-group decomposition, even on hosts where active() is
        // AVX2 — gemm_acc_rows_with pins the path.
        let (kc, n) = (4, 9);
        let b: Vec<f32> = (0..kc * n).map(|x| (x as f32) * 0.125 - 1.5).collect();
        let b_off: Vec<usize> = (0..kc).map(|j| j * n).collect();
        for m in 1..=MR_MAX {
            let a: Vec<f32> = (0..m * kc).map(|x| (x as f32) * 0.75 - 2.0).collect();
            let mut at = Vec::new();
            pack_transposed(&a, m, kc, &mut at);
            let mut c = vec![0.0f32; m * n];
            gemm_acc_rows_with(SimdPath::Scalar, &mut c, n, m, n, &at, m, 0, &b, &b_off);
            let a64: Vec<f64> = a.iter().map(|&v| v as f64).collect();
            let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
            let want = reference(m, kc, n, &a64, &b64, &b_off);
            for (got, want) in c.iter().zip(&want) {
                assert!((*got as f64 - *want).abs() < 1e-4, "mr={m}");
            }
        }
    }

    #[test]
    fn mr_block_matches_active_path() {
        let expect = match crate::simd::active() {
            SimdPath::Avx2 => MR_MAX,
            SimdPath::Scalar => MR,
        };
        assert_eq!(mr_block(), expect);
    }
}
