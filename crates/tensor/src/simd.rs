//! Runtime SIMD dispatch for the GEMM micro-kernel.
//!
//! The scalar micro-kernel in [`crate::gemm`] autovectorizes to whatever
//! the *compile-time* target baseline allows (SSE2 on a stock
//! `x86_64-unknown-linux-gnu` build). This module adds hand-written
//! AVX2 kernels selected at **runtime** via
//! `is_x86_feature_detected!`, so one hermetically-built binary runs
//! the wide path on capable hosts and falls back to the always-compiled
//! scalar kernel everywhere else (non-x86, old x86, `DISTCONV_SIMD=off`).
//!
//! **Bitwise contract.** The AVX2 kernels perform, per output element,
//! *exactly* the operation sequence of the scalar kernel: ascending-`j`
//! passes of `acc ← acc + a·b`, each `a·b` rounded before the add.
//! FMA contraction is deliberately **not** used — a fused
//! multiply-add rounds once where `mul`+`add` rounds twice, which would
//! break the workspace-wide guarantee that switching kernels (or
//! hosts!) never perturbs a golden table or a verified result. The
//! `fma` CPUID bit is still part of the detection gate purely as a
//! generation marker (every AVX2 part ships FMA; requiring both keeps
//! the gate conservative). Vector lanes map to distinct output
//! elements, so lane-parallelism cannot reorder any element's sum.
//!
//! **Every width runs vectorized.** A row of `n` output columns runs
//! `n / lanes` full vectors and, when `n % lanes ≠ 0`, one more vector
//! under a lane mask (`vmaskmov` loads of the `C` and `B` rows, a
//! `vmaskmov` store of `C`). The masked pass runs the same ascending-`j`
//! `add(acc, mul(a, b))` sequence, so the tail is bitwise equal to the
//! scalar kernel too. Masked-off lanes are never read or written: a
//! caller's columns past `n` (the `c_stride − n` gap between strided
//! rows, or the neighbouring tiles of a resident `Out` shard) are left
//! untouched, and a masked load past the end of an allocation does not
//! fault. This matters because the planner's tiles are rarely a
//! multiple of the lane count (`T_h` ∈ {5, 6, 7} on the E17 nets), so
//! a scalar tail would carry most of the in-plan work.
//!
//! Equivalence is pinned by `tensor/tests/simd_equivalence.rs` (every
//! width `1..=17`, with canaries around each row) and
//! `conv/tests/simd_vs_scalar.rs`.
//!
//! Dispatch is resolved once (env + CPUID) and cached in an atomic;
//! benches and tests may re-pin it via [`force`].

use crate::scalar::Scalar;
use std::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};

/// Env knob: `auto` (default — use the widest detected ISA) or `off`
/// (pin the scalar kernel). Any other value is a hard error, matching
/// the workspace convention that a typo must never silently select a
/// default.
pub const SIMD_ENV: &str = "DISTCONV_SIMD";

/// Parsed [`SIMD_ENV`] policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the widest ISA the host supports (the default).
    #[default]
    Auto,
    /// Pin the scalar kernel regardless of host capabilities.
    Off,
}

impl SimdMode {
    /// Parse an explicit mode spelling. `Err` carries the full
    /// diagnostic (offending value plus every accepted spelling).
    pub fn parse(v: &str) -> Result<Self, String> {
        match v.trim() {
            "auto" => Ok(SimdMode::Auto),
            "off" | "scalar" => Ok(SimdMode::Off),
            other => Err(format!(
                "unrecognized {SIMD_ENV} value {other:?}: expected \"auto\" or \
                 \"off\"/\"scalar\" (or unset for the default, auto)"
            )),
        }
    }

    /// Resolve the mode from [`SIMD_ENV`]; unset means [`SimdMode::Auto`],
    /// an unrecognized value panics with the accepted spellings.
    pub fn from_env() -> Self {
        match std::env::var(SIMD_ENV) {
            Ok(v) => Self::parse(&v).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => SimdMode::Auto,
        }
    }
}

/// Which micro-kernel implementation [`crate::gemm::gemm_acc_rows`]
/// dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SimdPath {
    /// The portable scalar kernel (always compiled, always correct).
    Scalar = 1,
    /// 256-bit AVX2 kernels for `f32`/`f64` (x86-64, runtime-detected).
    Avx2 = 2,
}

impl SimdPath {
    /// Short display name for bench/startup notes.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2+fma",
        }
    }
}

/// Hardware detection only — ignores [`SIMD_ENV`]. Used by tests and
/// benches to decide whether a wide-vs-scalar comparison is meaningful
/// on this host.
pub fn detect() -> SimdPath {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdPath::Avx2;
        }
    }
    SimdPath::Scalar
}

/// Cached dispatch decision: 0 = unresolved, else `SimdPath as u8`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The active micro-kernel path: [`SIMD_ENV`] policy applied to
/// [`detect`], resolved once and cached. Worker threads read the same
/// cache, so one process always runs one path (unless a bench re-pins
/// it between measurements via [`force`]).
pub fn active() -> SimdPath {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => SimdPath::Scalar,
        2 => SimdPath::Avx2,
        _ => {
            let path = match SimdMode::from_env() {
                SimdMode::Off => SimdPath::Scalar,
                SimdMode::Auto => detect(),
            };
            ACTIVE.store(path as u8, Ordering::Relaxed);
            path
        }
    }
}

/// Re-pin the dispatch decision (benches measuring both paths in one
/// process; the equivalence test binary). `Some(path)` pins `path` —
/// panics if the host cannot run it; `None` clears the cache so the
/// next [`active`] call re-resolves from [`SIMD_ENV`] + CPUID.
pub fn force(path: Option<SimdPath>) {
    match path {
        Some(path) => {
            assert_runnable(path);
            ACTIVE.store(path as u8, Ordering::Relaxed);
        }
        None => ACTIVE.store(0, Ordering::Relaxed),
    }
}

/// Panic unless this host can run `path`: the AVX2 kernels are
/// `#[target_feature]` code, and entering them without `avx2`+`fma`
/// is undefined behaviour. The scalar path runs everywhere.
pub(crate) fn assert_runnable(path: SimdPath) {
    assert!(
        path == SimdPath::Scalar || detect() == SimdPath::Avx2,
        "cannot run the AVX2 kernel path: host lacks avx2+fma"
    );
}

/// Try the AVX2 kernel for this element type: returns `false` (caller
/// must run the scalar kernel) when the type has no vector
/// implementation or the build target is not x86-64. The caller has
/// already decided the AVX2 path is active; bounds are validated here
/// in safe code before the `unsafe` inner kernels run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_rows<T: Scalar>(
    c: &mut [T],
    c_stride: usize,
    mr: usize,
    n: usize,
    at: &[T],
    at_stride: usize,
    i0: usize,
    b: &[T],
    b_off: &[usize],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if TypeId::of::<T>() == TypeId::of::<f32>() {
            let (c, at, b) = unsafe { cast_mut_slices::<T, f32>(c, at, b) };
            x86::gemm_rows_f32(c, c_stride, mr, n, at, at_stride, i0, b, b_off);
            return true;
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            let (c, at, b) = unsafe { cast_mut_slices::<T, f64>(c, at, b) };
            x86::gemm_rows_f64(c, c_stride, mr, n, at, at_stride, i0, b, b_off);
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (c, c_stride, mr, n, at, at_stride, i0, b, b_off);
        false
    }
}

/// Reinterpret `(c, at, b)` as slices of `U`. Sound only when `T` and
/// `U` are the same type (checked by the callers' `TypeId` guards —
/// the cast is then the identity).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::mut_from_ref)]
unsafe fn cast_mut_slices<'a, T: 'static, U: 'static>(
    c: &'a mut [T],
    at: &'a [T],
    b: &'a [T],
) -> (&'a mut [U], &'a [U], &'a [U]) {
    debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<U>());
    (
        std::slice::from_raw_parts_mut(c.as_mut_ptr() as *mut U, c.len()),
        std::slice::from_raw_parts(at.as_ptr() as *const U, at.len()),
        std::slice::from_raw_parts(b.as_ptr() as *const U, b.len()),
    )
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 kernels proper. Safe wrappers validate every bound the
    //! raw-pointer loops rely on, then dispatch row groups of 8/4/2/1
    //! to monomorphized `#[target_feature]` kernels. Splitting the `mr`
    //! rows into groups cannot change any element's sum: each output
    //! row's accumulation is independent and stays ascending-`j`.

    use std::arch::x86_64::*;

    /// Lane mask selecting the first `rem` (1..8) of eight 32-bit lanes.
    #[target_feature(enable = "avx2")]
    fn tail_mask_f32(rem: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(rem as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Lane mask selecting the first `rem` (1..4) of four 64-bit lanes.
    #[target_feature(enable = "avx2")]
    fn tail_mask_f64(rem: usize) -> __m256i {
        _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(rem as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        )
    }

    macro_rules! avx2_gemm {
        ($wrapper:ident, $kernel:ident, $t:ty, $v:ty, $lanes:expr, $loadu:ident,
         $storeu:ident, $maskload:ident, $maskstore:ident, $tail_mask:ident,
         $set1:ident, $setzero:ident, $mul:ident, $add:ident) => {
            /// One group of `MRK` output rows: full vectors over `n`,
            /// then one masked vector for the last `n % lanes` columns —
            /// both ascending-`j` per element, `mul` rounded before
            /// `add` (no FMA; see module docs). Masked-off lanes are
            /// never read or written, so the columns past `n` (the
            /// `c_stride − n` gap, neighbouring tiles of a resident
            /// shard, the end of the allocation) stay untouched.
            ///
            /// # Safety
            ///
            /// The host supports `avx2`; `c` is valid for reads and
            /// writes of `(MRK − 1)·c_stride + n` elements, `at` for
            /// reads at `j·at_stride + i0 + r` and `b` for reads of
            /// `b_off[j] .. b_off[j] + n`, for every `j` and `r < MRK`
            /// (the wrapper below asserts these bounds).
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $kernel<const MRK: usize>(
                c: *mut $t,
                c_stride: usize,
                n: usize,
                at: *const $t,
                at_stride: usize,
                i0: usize,
                b: *const $t,
                b_off: &[usize],
            ) {
                let nv = n - n % $lanes;
                let mut h0 = 0usize;
                while h0 < nv {
                    let mut acc: [$v; MRK] = [$setzero(); MRK];
                    for r in 0..MRK {
                        acc[r] = $loadu(c.add(r * c_stride + h0));
                    }
                    for (j, &off) in b_off.iter().enumerate() {
                        let vb = $loadu(b.add(off + h0));
                        let ap = at.add(j * at_stride + i0);
                        for r in 0..MRK {
                            let va = $set1(*ap.add(r));
                            acc[r] = $add(acc[r], $mul(va, vb));
                        }
                    }
                    for r in 0..MRK {
                        $storeu(c.add(r * c_stride + h0), acc[r]);
                    }
                    h0 += $lanes;
                }
                if nv < n {
                    // The same pass on one masked vector.
                    // SAFETY: the mask enables lanes `nv..n` only, which
                    // the wrapper bounds-checked like the full vectors.
                    // Masked-off lanes load as zero, are never stored,
                    // and do not fault even past the end of `c` or `b`.
                    let m = $tail_mask(n - nv);
                    let mut acc: [$v; MRK] = [$setzero(); MRK];
                    for r in 0..MRK {
                        acc[r] = $maskload(c.add(r * c_stride + nv), m);
                    }
                    for (j, &off) in b_off.iter().enumerate() {
                        let vb = $maskload(b.add(off + nv), m);
                        let ap = at.add(j * at_stride + i0);
                        for r in 0..MRK {
                            let va = $set1(*ap.add(r));
                            acc[r] = $add(acc[r], $mul(va, vb));
                        }
                    }
                    for r in 0..MRK {
                        $maskstore(c.add(r * c_stride + nv), m, acc[r]);
                    }
                }
            }

            /// Bounds-validated entry point; row groups of 8/4/2/1.
            #[allow(clippy::too_many_arguments)]
            pub(super) fn $wrapper(
                c: &mut [$t],
                c_stride: usize,
                mr: usize,
                n: usize,
                at: &[$t],
                at_stride: usize,
                i0: usize,
                b: &[$t],
                b_off: &[usize],
            ) {
                if n == 0 || b_off.is_empty() {
                    return;
                }
                assert!(
                    c.len() >= (mr - 1) * c_stride + n,
                    "C storage too small: {} rows stride {c_stride} width {n} in {}",
                    mr,
                    c.len()
                );
                assert!(
                    at.len() >= (b_off.len() - 1) * at_stride + i0 + mr,
                    "packed panel too small"
                );
                for &off in b_off {
                    assert!(off + n <= b.len(), "b_off row {off}+{n} out of bounds");
                }
                let cp = c.as_mut_ptr();
                let (atp, bp) = (at.as_ptr(), b.as_ptr());
                let mut r0 = 0usize;
                while r0 < mr {
                    let rest = mr - r0;
                    // SAFETY: bounds checked above; row group r0.. fits.
                    unsafe {
                        let cg = cp.add(r0 * c_stride);
                        if rest >= 8 {
                            $kernel::<8>(cg, c_stride, n, atp, at_stride, i0 + r0, bp, b_off);
                            r0 += 8;
                        } else if rest >= 4 {
                            $kernel::<4>(cg, c_stride, n, atp, at_stride, i0 + r0, bp, b_off);
                            r0 += 4;
                        } else if rest >= 2 {
                            $kernel::<2>(cg, c_stride, n, atp, at_stride, i0 + r0, bp, b_off);
                            r0 += 2;
                        } else {
                            $kernel::<1>(cg, c_stride, n, atp, at_stride, i0 + r0, bp, b_off);
                            r0 += 1;
                        }
                    }
                }
            }
        };
    }

    avx2_gemm!(
        gemm_rows_f32,
        kernel_f32,
        f32,
        __m256,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_maskload_ps,
        _mm256_maskstore_ps,
        tail_mask_f32,
        _mm256_set1_ps,
        _mm256_setzero_ps,
        _mm256_mul_ps,
        _mm256_add_ps
    );
    avx2_gemm!(
        gemm_rows_f64,
        kernel_f64,
        f64,
        __m256d,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_maskload_pd,
        _mm256_maskstore_pd,
        tail_mask_f64,
        _mm256_set1_pd,
        _mm256_setzero_pd,
        _mm256_mul_pd,
        _mm256_add_pd
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_spellings() {
        assert_eq!(SimdMode::parse("auto"), Ok(SimdMode::Auto));
        assert_eq!(SimdMode::parse(" off "), Ok(SimdMode::Off));
        assert_eq!(SimdMode::parse("scalar"), Ok(SimdMode::Off));
    }

    #[test]
    fn parse_rejects_typos_with_a_clear_message() {
        let err = SimdMode::parse("avx").expect_err("typo must be rejected");
        assert!(err.contains("avx"), "names the offender: {err}");
        assert!(err.contains("DISTCONV_SIMD"), "names the knob: {err}");
        assert!(err.contains("\"auto\""), "lists spellings: {err}");
        assert!(SimdMode::parse("").is_err());
    }

    #[test]
    fn path_names() {
        assert_eq!(SimdPath::Scalar.name(), "scalar");
        assert_eq!(SimdPath::Avx2.name(), "avx2+fma");
    }

    #[test]
    fn force_scalar_then_reset_round_trips() {
        // Note: other tests in this binary read `active()` through
        // `gemm_acc_rows`; forcing Scalar is always safe (it is a valid
        // value on every host) and `force(None)` restores resolution.
        force(Some(SimdPath::Scalar));
        assert_eq!(active(), SimdPath::Scalar);
        force(None);
        let resolved = active();
        // The expected resolution honors the environment: this test
        // also runs on the CI leg that sets DISTCONV_SIMD=off.
        let expect = match SimdMode::from_env() {
            SimdMode::Off => SimdPath::Scalar,
            SimdMode::Auto => detect(),
        };
        assert_eq!(
            resolved, expect,
            "force(None) restores env+CPUID resolution"
        );
    }
}
