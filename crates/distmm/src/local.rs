//! Local (single-node) matmul kernels: the packed register-blocked
//! kernel, its thread-parallel version (the per-rank block product of
//! every distributed algorithm), and the blocked reference loop the
//! tests check them against.
//!
//! The fast path packs `A` into a transposed `[k][m]` panel
//! ([`pack_transposed`]) so the shared micro-kernel
//! ([`gemm_acc_rows`], the same one behind `conv_tile_fast`) reads its
//! [`mr_block`]`()` row coefficients contiguously (8 on the
//! runtime-detected AVX2 path, 4 scalar), then walks the reduction
//! dimension in L1-sized blocks streaming rows of `B` directly from
//! their natural layout — no `B` copy at all.
//!
//! Every kernel here accumulates each `C` element in ascending-`l`
//! order, exactly like the `matmul_acc` ground truth, so all three
//! (reference blocked, packed serial, packed parallel) are **bitwise
//! identical** — to each other and across thread counts.

use distconv_par::pool;
use distconv_tensor::gemm::{gemm_acc_rows, mr_block, pack_transposed};
use distconv_tensor::{Matrix, Scalar};

/// Cache-blocking tile edge for the reference kernel. 64×64 f32 tiles
/// are 16 KiB — comfortably L1-resident alongside the B panel.
const BLK: usize = 64;

/// Reduction-dimension block for the packed kernel: a 128×MR panel of
/// packed `A` plus one streamed `B` row stay hot in L1 across all row
/// blocks of `C`.
const KC: usize = 128;

/// Below this many multiply-adds the parallel kernel runs serially —
/// pool dispatch costs more than the whole product.
const PAR_CUTOFF_FLOPS: usize = 64 * 64 * 64;

/// Rows of `C` per parallel task: a multiple of every register-block
/// height ([`mr_block`] is 4 or 8) big enough that task dispatch
/// amortizes, small enough to balance ragged shapes.
const PAR_ROW_BLOCK: usize = 32;

/// `C += A · B` with the paper-literal blocked ikj loop — the reference
/// the packed kernels are tested against.
pub fn matmul_blocked_ref<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let (m, k, n) = check_dims(c, a, b);
    for i0 in (0..m).step_by(BLK) {
        let i1 = (i0 + BLK).min(m);
        for l0 in (0..k).step_by(BLK) {
            let l1 = (l0 + BLK).min(k);
            for j0 in (0..n).step_by(BLK) {
                let j1 = (j0 + BLK).min(n);
                block_ikj(c, a, b, i0, i1, l0, l1, j0, j1, n, k);
            }
        }
    }
}

/// `C += A · B` via the packed register-blocked kernel. Bitwise
/// identical to [`matmul_blocked_ref`] and `matmul_acc` (ascending-`l`
/// accumulation per element), several times faster.
pub fn matmul_blocked<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let (m, k, n) = check_dims(c, a, b);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let mut at = Vec::new();
    pack_transposed(a.as_slice(), m, k, &mut at);
    let boff: Vec<usize> = (0..k).map(|l| l * n).collect();
    packed_rows(c.as_mut_slice(), 0, m, m, k, n, &at, b.as_slice(), &boff);
}

/// `C += A · B`, row blocks of `C` parallelized over the worker pool,
/// falling back to the serial packed kernel for small products. The
/// distributed algorithms (Cannon / SUMMA / 2.5D / 3D) call this per
/// rank for their block products.
/// Deterministic and bitwise identical across thread counts: each
/// output row is accumulated by exactly one task in ascending-`l`
/// order regardless of how rows are grouped into tasks.
pub fn matmul_blocked_par<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let (m, k, n) = check_dims(c, a, b);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    if m * k * n < PAR_CUTOFF_FLOPS || pool::num_threads() <= 1 {
        return matmul_blocked(c, a, b);
    }
    let mut at = Vec::new();
    pack_transposed(a.as_slice(), m, k, &mut at);
    let boff: Vec<usize> = (0..k).map(|l| l * n).collect();
    let (at, boff) = (&at, &boff);
    let b_slice = b.as_slice();
    pool::par_chunks_mut(c.as_mut_slice(), PAR_ROW_BLOCK * n, |blk, chunk| {
        let i_lo = blk * PAR_ROW_BLOCK;
        let rows = chunk.len() / n;
        packed_rows(chunk, i_lo, rows, m, k, n, at, b_slice, boff);
    });
}

/// Packed-kernel core over `C` rows `i_lo .. i_lo + rows`, writing into
/// `c_rows` (those rows only, row-major, stride `n`). `at` is the full
/// `[k][m]` packed transpose of `A`; `boff[l] = l·n` indexes rows of
/// `B`.
#[allow(clippy::too_many_arguments)]
fn packed_rows<T: Scalar>(
    c_rows: &mut [T],
    i_lo: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
    at: &[T],
    b: &[T],
    boff: &[usize],
) {
    let mrb = mr_block();
    for l0 in (0..k).step_by(KC) {
        let l1 = (l0 + KC).min(k);
        let mut i = 0;
        while i < rows {
            let mr = mrb.min(rows - i);
            gemm_acc_rows(
                &mut c_rows[i * n..],
                n,
                mr,
                n,
                &at[l0 * m..],
                m,
                i_lo + i,
                b,
                &boff[l0..l1],
            );
            i += mr;
        }
    }
}

fn check_dims<T: Scalar>(c: &Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) -> (usize, usize, usize) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C rows mismatch");
    assert_eq!(c.cols(), b.cols(), "C cols mismatch");
    (a.rows(), a.cols(), b.cols())
}

#[allow(clippy::too_many_arguments)]
fn block_ikj<T: Scalar>(
    c: &mut Matrix<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    i0: usize,
    i1: usize,
    l0: usize,
    l1: usize,
    j0: usize,
    j1: usize,
    n: usize,
    k: usize,
) {
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    let c_s = c.as_mut_slice();
    for i in i0..i1 {
        for l in l0..l1 {
            let av = a_s[i * k + l];
            let brow = &b_s[l * n + j0..l * n + j1];
            let crow = &mut c_s[i * n + j0..i * n + j1];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_tensor::assert_close;
    use distconv_tensor::matrix::matmul_acc;

    fn reference(m: usize, k: usize, n: usize) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let a = Matrix::random(m, k, 1);
        let b = Matrix::random(k, n, 2);
        let mut c = Matrix::zeros(m, n);
        matmul_acc(&mut c, &a, &b);
        (a, b, c)
    }

    #[test]
    fn blocked_matches_reference_various_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 130, 67),
            (128, 1, 128),
            (5, 200, 3),
        ] {
            let (a, b, c_ref) = reference(m, k, n);
            let mut c = Matrix::zeros(m, n);
            matmul_blocked(&mut c, &a, &b);
            // Ascending-l accumulation ⇒ bitwise equal to matmul_acc.
            assert_eq!(c.as_slice(), c_ref.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn reference_kernel_matches_ground_truth() {
        for (m, k, n) in [(3, 5, 7), (65, 130, 67)] {
            let (a, b, c_ref) = reference(m, k, n);
            let mut c = Matrix::zeros(m, n);
            matmul_blocked_ref(&mut c, &a, &b);
            assert_eq!(c.as_slice(), c_ref.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matches_reference() {
        // Spans the serial cutoff in both directions and ragged row
        // counts that end in a partial PAR_ROW_BLOCK and partial MR.
        for (m, k, n) in [(3, 5, 7), (100, 70, 90), (130, 64, 64), (97, 64, 71)] {
            let (a, b, c_ref) = reference(m, k, n);
            let mut c = Matrix::zeros(m, n);
            matmul_blocked_par(&mut c, &a, &b);
            assert_eq!(c.as_slice(), c_ref.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn accumulates_rather_than_overwrites() {
        let (a, b, c_ref) = reference(4, 4, 4);
        let mut c = Matrix::zeros(4, 4);
        matmul_blocked(&mut c, &a, &b);
        matmul_blocked(&mut c, &a, &b);
        let doubled: Vec<f64> = c_ref.as_slice().iter().map(|x| 2.0 * x).collect();
        assert_close(c.as_slice(), &doubled, 1e-10, "accumulate");
    }
}
