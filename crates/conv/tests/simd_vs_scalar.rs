//! Whole-convolution SIMD-vs-scalar bitwise equivalence.
//!
//! `tensor/tests/simd_equivalence.rs` pins the micro-kernel contract;
//! this suite pins it end-to-end: an entire `conv2d_fast` executed on
//! the AVX2 path must be bit-for-bit what
//! the scalar path produces, *including* the path-dependent register
//! blocking (`mr_block()` is 8 wide vs 4 scalar) — the blocking is a
//! perf hint that must be invisible in results.
//!
//! This file deliberately holds a **single** `#[test]`: it flips the
//! process-global dispatch cache via `simd::force`, and integration
//! tests in one binary may run concurrently. One test per binary ⇒ one
//! process ⇒ no racing observers.

use distconv_conv::conv2d_fast;
use distconv_conv::kernels::workload;
use distconv_cost::Conv2dProblem;
use distconv_tensor::simd::{detect, force, SimdPath};

#[test]
fn whole_conv_is_bitwise_identical_across_simd_paths() {
    if detect() != SimdPath::Avx2 {
        eprintln!(
            "SKIP-NOTE: host has no avx2+fma — whole-conv SIMD equivalence is \
             vacuous (both runs scalar)"
        );
        return;
    }
    // Shapes chosen to hit: vector main loops (nh ≥ lanes), scalar
    // tails (nh % 8 ≠ 0), partial register blocks (nk % 8 ≠ 0), the
    // strided-h gather path, and a pointwise layer.
    let problems = [
        Conv2dProblem::square(2, 9, 5, 13, 3),
        Conv2dProblem::new(1, 7, 3, 16, 5, 3, 3, 1, 1),
        Conv2dProblem::new(2, 5, 4, 7, 6, 3, 2, 2, 2),
        Conv2dProblem::new(1, 12, 6, 9, 9, 1, 1, 1, 1),
    ];
    for (i, p) in problems.iter().enumerate() {
        let (in64, k64) = workload::<f64>(p, 1000 + i as u64);
        let (in32, k32) = workload::<f32>(p, 2000 + i as u64);

        force(Some(SimdPath::Scalar));
        let fast64_s = conv2d_fast(p, &in64, &k64);
        let fast32_s = conv2d_fast(p, &in32, &k32);

        force(Some(SimdPath::Avx2));
        let fast64_v = conv2d_fast(p, &in64, &k64);
        let fast32_v = conv2d_fast(p, &in32, &k32);

        force(None);
        assert_eq!(fast64_s.as_slice(), fast64_v.as_slice(), "fast f64 {p:?}");
        assert_eq!(fast32_s.as_slice(), fast32_v.as_slice(), "fast f32 {p:?}");
    }
}
