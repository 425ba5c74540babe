//! SIMD-vs-scalar bitwise equivalence for the GEMM micro-kernel.
//!
//! The workspace contract is that kernel dispatch is *invisible*: the
//! AVX2 kernels must produce bit-for-bit the results of the scalar
//! kernel, because goldens, traffic counters, and cross-host
//! reproducibility all assume results are a pure function of the
//! workload. These properties drive both paths explicitly through
//! `gemm_acc_rows_with` (no global dispatch state mutated), over random
//! shapes covering every `mr ≤ MR_MAX`, vector tails (`n % lanes ≠ 0`),
//! strided output rows, panel column offsets, and overlapping right-row
//! offset tables (the implicit-im2col aliasing pattern). A deterministic
//! sweep adds every width `1..=17` × every `mr` with canaries around
//! each output row, proving the masked tail never stores outside `n`.
//!
//! On hosts without AVX2 the comparison is vacuous (both calls take the
//! scalar kernel); a loud skip note is printed so a green run on such a
//! host is not mistaken for wide-path coverage.

use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_tensor::gemm::{gemm_acc_rows_with, pack_transposed, MR_MAX};
use distconv_tensor::simd::{detect, SimdPath};
use distconv_tensor::Scalar;

/// Generate one random kernel invocation and run it on both paths.
/// Returns false (skip) when the host has no wide path.
fn both_paths_bitwise<T: Scalar>(g: &mut Gen, label: &str) {
    let mr = g.usize_in(1, MR_MAX);
    let kc = g.usize_in(1, 24);
    // Cover sub-lane, exact-lane, and tail widths for both f32 (8
    // lanes) and f64 (4 lanes).
    let n = g.usize_in(1, 40);
    let c_stride = n + g.usize_in(0, 5);
    let extra_cols = g.usize_in(0, 3);
    let i0 = g.usize_in(0, extra_cols);
    let m_total = mr + extra_cols;

    let a: Vec<T> = (0..m_total * kc)
        .map(|x| T::from_u64_hash(g.u64().wrapping_add(x as u64)))
        .collect();
    let mut at = Vec::new();
    pack_transposed(&a, m_total, kc, &mut at);

    // Right-hand rows through an offset table; half the time overlap
    // rows inside one shared buffer (the im2col halo-aliasing shape).
    let overlap = g.bool();
    let b_len = if overlap {
        n + kc + g.usize_in(0, 8)
    } else {
        kc * n
    };
    let b: Vec<T> = (0..b_len).map(|_| T::from_u64_hash(g.u64())).collect();
    let b_off: Vec<usize> = (0..kc)
        .map(|j| {
            if overlap {
                g.usize_in(0, b_len - n)
            } else {
                j * n
            }
        })
        .collect();

    // Random prior contents — the kernel accumulates.
    let c_init: Vec<T> = (0..(mr - 1) * c_stride + n)
        .map(|_| T::from_u64_hash(g.u64()))
        .collect();

    let mut c_scalar = c_init.clone();
    gemm_acc_rows_with(
        SimdPath::Scalar,
        &mut c_scalar,
        c_stride,
        mr,
        n,
        &at,
        m_total,
        i0,
        &b,
        &b_off,
    );
    let mut c_simd = c_init;
    gemm_acc_rows_with(
        SimdPath::Avx2,
        &mut c_simd,
        c_stride,
        mr,
        n,
        &at,
        m_total,
        i0,
        &b,
        &b_off,
    );

    for (i, (s, v)) in c_scalar.iter().zip(&c_simd).enumerate() {
        assert!(
            s == v,
            "{label}: bitwise mismatch at flat index {i} \
             (mr={mr} kc={kc} n={n} c_stride={c_stride} i0={i0} overlap={overlap}): \
             scalar {s:?} vs simd {v:?} [case seed {}]",
            g.case_seed()
        );
    }
}

fn wide_path_available() -> bool {
    if detect() == SimdPath::Avx2 {
        true
    } else {
        eprintln!(
            "SKIP-NOTE: host has no avx2+fma — simd_equivalence properties are \
             vacuous (both paths scalar)"
        );
        false
    }
}

#[test]
fn simd_matches_scalar_bitwise_f32() {
    if !wide_path_available() {
        return;
    }
    check(
        "simd_matches_scalar_bitwise_f32",
        Config::with_cases(300),
        |g| both_paths_bitwise::<f32>(g, "f32"),
    );
}

#[test]
fn simd_matches_scalar_bitwise_f64() {
    if !wide_path_available() {
        return;
    }
    check(
        "simd_matches_scalar_bitwise_f64",
        Config::with_cases(300),
        |g| both_paths_bitwise::<f64>(g, "f64"),
    );
}

/// Written around every output row in [`canaries_and_bits_hold`]:
/// outside the `from_u64_hash` range, so any store into it shows.
const CANARY: f64 = 1.0e6 + 0.5;

/// One deterministic call on both paths: `mr` rows of width `n` with a
/// 3-column gap between rows and 9 columns after the last row, all
/// holding [`CANARY`]; `K = kc` right-hand rows with a one-column gap
/// between them. Asserts AVX2 == scalar bitwise and every canary intact.
fn canaries_and_bits_hold<T: Scalar>(mr: usize, n: usize, kc: usize, label: &str) {
    let (gap, tail) = (3usize, 9usize);
    let c_stride = n + gap;
    let c_len = (mr - 1) * c_stride + n + tail;
    let live = |i: usize| i / c_stride < mr && i % c_stride < n;
    let seed = ((mr * 131 + n) * 131 + kc) as u64;
    let canary = T::from_f64(CANARY);
    let c_init: Vec<T> = (0..c_len)
        .map(|i| {
            if live(i) {
                T::from_u64_hash(seed.wrapping_mul(0x9E37_79B9) ^ i as u64)
            } else {
                canary
            }
        })
        .collect();
    // Panel rows i0 = 1 .. 1 + mr of an (mr + 2)-row left operand.
    let (m_total, i0) = (mr + 2, 1usize);
    let a: Vec<T> = (0..m_total * kc)
        .map(|x| T::from_u64_hash(seed.rotate_left(17) ^ x as u64))
        .collect();
    let mut at = Vec::new();
    pack_transposed(&a, m_total, kc, &mut at);
    let b: Vec<T> = (0..kc * (n + 1))
        .map(|x| T::from_u64_hash(seed.rotate_left(41) ^ x as u64))
        .collect();
    let b_off: Vec<usize> = (0..kc).map(|j| j * (n + 1)).collect();

    let run = |path: SimdPath| {
        let mut c = c_init.clone();
        gemm_acc_rows_with(path, &mut c, c_stride, mr, n, &at, m_total, i0, &b, &b_off);
        c
    };
    let (scalar, wide) = (run(SimdPath::Scalar), run(SimdPath::Avx2));
    for (i, (s, v)) in scalar.iter().zip(&wide).enumerate() {
        assert!(
            s == v,
            "{label} mr={mr} n={n} K={kc}: index {i}: scalar {s:?} vs avx2 {v:?}"
        );
        if !live(i) {
            assert!(
                *v == canary,
                "{label} mr={mr} n={n} K={kc}: canary at index {i} overwritten with {v:?}"
            );
        }
    }
}

#[test]
fn every_width_and_row_count_matches_scalar_and_keeps_canaries() {
    if !wide_path_available() {
        return;
    }
    for kc in [1usize, 9, 27] {
        for mr in 1..=MR_MAX {
            for n in 1..=17 {
                canaries_and_bits_hold::<f32>(mr, n, kc, "f32");
                canaries_and_bits_hold::<f64>(mr, n, kc, "f64");
            }
        }
    }
}

#[test]
fn accumulation_order_is_j_ascending_on_both_paths() {
    // Pin the *order* contract itself, not just path agreement: a
    // kernel summing j in a different order would produce the rounding
    // signature of that order. 1×1 output with catastrophic
    // cancellation makes the order observable: (1 + eps) - 1 ≠ eps
    // rounds differently from (1 - 1) + eps.
    if detect() != SimdPath::Avx2 {
        eprintln!("SKIP-NOTE: host has no avx2+fma — order probe runs scalar only");
    }
    let eps = f32::EPSILON / 2.0; // absorbed when added to 1.0
    let at = vec![1.0f32, 1.0, 1.0]; // kc=3, mr=1 panel
    let b = vec![1.0f32, eps, -1.0];
    let b_off = [0usize, 1, 2];
    // Ascending j: (((0+1)+eps)-1) = 0 because 1+eps rounds to 1.
    for path in [SimdPath::Scalar, SimdPath::Avx2] {
        if path == SimdPath::Avx2 && detect() != SimdPath::Avx2 {
            continue;
        }
        let mut c = vec![0.0f32];
        gemm_acc_rows_with(path, &mut c, 1, 1, 1, &at, 1, 0, &b, &b_off);
        assert_eq!(c[0], 0.0, "path {path:?} must accumulate j ascending");
    }
}

#[test]
fn fma_contraction_is_not_used() {
    // A fused multiply-add rounds a·b+acc once; mul-then-add rounds
    // twice. Pick operands where the two differ and require the
    // two-rounding (scalar-identical) result on the wide path.
    if detect() != SimdPath::Avx2 {
        eprintln!("SKIP-NOTE: host has no avx2+fma — FMA-contraction probe skipped");
        return;
    }
    // a·b = (1+2^-12)² = 1 + 2^-11 + 2^-24. The f32 mul rounds the
    // 2^-24 tail away (ties-to-even toward 1+2^-11); accumulating onto
    // -1.0 then yields exactly 2^-11, while an FMA keeps the tail and
    // yields 2^-11 + 2^-24. Widths 8, 5 and 13 exercise a full vector,
    // the masked tail alone, and both.
    let a = 1.0f32 + f32::powi(2.0, -12);
    let at = vec![a; 1];
    let mul_then_add = -1.0f32 + (a * a);
    let fma_result = a.mul_add(a, -1.0f32);
    // Sanity: the probe actually discriminates on this host's arithmetic.
    assert_ne!(
        mul_then_add, fma_result,
        "probe operands no longer discriminate mul+add from fma"
    );
    for n in [8usize, 5, 13] {
        let b = vec![a; n];
        let run = |path: SimdPath| {
            let mut c = vec![-1.0f32; n];
            gemm_acc_rows_with(path, &mut c, n, 1, n, &at, 1, 0, &b, &[0]);
            c
        };
        let (c_scalar, c_wide) = (run(SimdPath::Scalar), run(SimdPath::Avx2));
        assert_eq!(c_scalar, vec![mul_then_add; n]);
        assert_eq!(
            c_wide, c_scalar,
            "n={n}: wide path must round mul before add"
        );
    }
}
