//! [`LocalKernel`]: which local compute-kernel implementation the
//! executors use for tile convolutions and block matmuls.
//!
//! Every distributed algorithm in the workspace separates *what moves*
//! (the communication schedule — the paper's subject) from *what
//! computes* (the per-rank tile kernel). The selection lives here, in
//! the substrate crate every executor already depends on, next to the
//! analogous `DISTCONV_THREADS` runtime knob: the choice is a runtime
//! policy of the execution substrate, not a property of any one
//! algorithm.
//!
//! [`LocalKernel::Reference`] and [`LocalKernel::Fast`] compute
//! identical sums in the identical per-element order, so switching
//! between them is bitwise invisible: results, traffic counters and
//! message schedules are the same under either (DESIGN.md §7). The
//! reference kernels are the witness the property suites check the
//! fast ones against.

/// Which local compute kernel executors dispatch to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LocalKernel {
    /// The paper-literal seven-loop kernels (`conv_tile`,
    /// `matmul_acc`): slow, simple, the ground truth every property
    /// suite validates against.
    Reference,
    /// Packed im2col-GEMM / panel-packed block kernels built on the
    /// shared register-blocked micro-kernel (`distconv_tensor::gemm`).
    #[default]
    Fast,
}

/// Env override, read by [`LocalKernel::from_env`]:
/// `reference`/`ref`/`slow` selects [`LocalKernel::Reference`],
/// `fast`/`gemm` selects [`LocalKernel::Fast`], unset means the default
/// ([`LocalKernel::Fast`]). Any other value is a hard error — a typo
/// must never silently become the default.
pub const LOCAL_KERNEL_ENV: &str = "DISTCONV_LOCAL_KERNEL";

impl LocalKernel {
    /// Parse an explicit kernel spelling. `Err` carries the full
    /// diagnostic (offending value plus every accepted spelling).
    pub fn parse(v: &str) -> Result<Self, String> {
        match v.trim() {
            "reference" | "ref" | "slow" => Ok(LocalKernel::Reference),
            "fast" | "gemm" => Ok(LocalKernel::Fast),
            other => Err(format!(
                "unrecognized {LOCAL_KERNEL_ENV} value {other:?}: expected one of \
                 \"reference\"/\"ref\"/\"slow\" or \"fast\"/\"gemm\" \
                 (or unset for the default, fast)"
            )),
        }
    }

    /// Resolve the kernel selection from [`LOCAL_KERNEL_ENV`], falling
    /// back to the default ([`LocalKernel::Fast`]) only when the
    /// variable is unset; an unrecognized value panics with the
    /// accepted spellings. Executors call this once per run, so
    /// flipping the whole workspace onto the reference kernels (e.g. to
    /// bisect a numerical question) is one env var.
    pub fn from_env() -> Self {
        match std::env::var(LOCAL_KERNEL_ENV) {
            Ok(v) => Self::parse(&v).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => LocalKernel::Fast,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            LocalKernel::Reference => "reference",
            LocalKernel::Fast => "fast",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fast() {
        assert_eq!(LocalKernel::default(), LocalKernel::Fast);
        assert_eq!(LocalKernel::Fast.name(), "fast");
        assert_eq!(LocalKernel::Reference.name(), "reference");
    }

    #[test]
    fn parse_accepts_every_documented_spelling() {
        for v in ["reference", "ref", "slow", " ref "] {
            assert_eq!(LocalKernel::parse(v), Ok(LocalKernel::Reference), "{v:?}");
        }
        for v in ["fast", "gemm"] {
            assert_eq!(LocalKernel::parse(v), Ok(LocalKernel::Fast), "{v:?}");
        }
    }

    #[test]
    fn parse_rejects_typos_with_a_clear_message() {
        // The motivating bug: "fats" used to fall through to the
        // default silently.
        let err = LocalKernel::parse("fats").expect_err("typo must be rejected");
        assert!(err.contains("fats"), "names the offender: {err}");
        assert!(
            err.contains("DISTCONV_LOCAL_KERNEL"),
            "names the knob: {err}"
        );
        assert!(err.contains("\"reference\""), "lists spellings: {err}");
        // Retired kernel names are rejected too, never mapped to a default.
        for v in ["", "winograd", "wino"] {
            assert!(LocalKernel::parse(v).is_err(), "{v:?}");
        }
    }
}
