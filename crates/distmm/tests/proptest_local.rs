//! Property tests for the packed local matmul kernels: randomized
//! shapes (ragged row counts crossing the MR register block, reduction
//! lengths crossing the KC cache block, degenerate 1-wide extents)
//! validated against the `matmul_acc` ground truth. Replay a failing
//! case with `DISTCONV_PROPTEST_SEED=<seed from the failure report>`.

use distconv_distmm::{matmul_blocked, matmul_blocked_par, matmul_blocked_ref};
use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_tensor::matrix::matmul_acc;
use distconv_tensor::Matrix;

fn arb_dims(g: &mut Gen) -> (usize, usize, usize) {
    // Mostly small; occasionally stretch one dimension past the KC=128
    // reduction block or the PAR_ROW_BLOCK=32 row block.
    let stretch = g.usize_in(0, 3);
    let m = if stretch == 0 {
        g.usize_in(30, 70)
    } else {
        g.usize_in(1, 12)
    };
    let k = if stretch == 1 {
        g.usize_in(120, 160)
    } else {
        g.usize_in(1, 12)
    };
    let n = if stretch == 2 {
        g.usize_in(30, 70)
    } else {
        g.usize_in(1, 12)
    };
    (m, k, n)
}

#[test]
fn packed_matmul_matches_matmul_acc() {
    check(
        "packed_matmul_matches_matmul_acc",
        Config::with_cases(64),
        |g| {
            let (m, k, n) = arb_dims(g);
            let seed = g.u64();
            let a = Matrix::<f64>::random(m, k, seed);
            let b = Matrix::<f64>::random(k, n, seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut c_ref = Matrix::random(m, n, seed ^ 0xABCD);
            let mut c_fast = Matrix::from_vec(m, n, c_ref.as_slice().to_vec());
            // Accumulate onto non-zero C: both must add, not overwrite.
            matmul_acc(&mut c_ref, &a, &b);
            matmul_blocked(&mut c_fast, &a, &b);
            // Ascending-l per-element accumulation ⇒ bitwise equal.
            assert_eq!(c_fast.as_slice(), c_ref.as_slice(), "{m}x{k}x{n}");
        },
    );
}

#[test]
fn all_kernels_agree_bitwise() {
    check("all_matmul_kernels_agree", Config::with_cases(48), |g| {
        let (m, k, n) = arb_dims(g);
        let seed = g.u64();
        let a = Matrix::<f32>::random(m, k, seed);
        let b = Matrix::<f32>::random(k, n, seed ^ 1);
        let mut c_ref = Matrix::zeros(m, n);
        matmul_blocked_ref(&mut c_ref, &a, &b);
        let mut c_par = Matrix::zeros(m, n);
        matmul_blocked_par(&mut c_par, &a, &b);
        assert_eq!(c_par.as_slice(), c_ref.as_slice(), "par {m}x{k}x{n}");
    });
}
