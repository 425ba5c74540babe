//! Provenance names for the one communication schedule ([`CommMode`])
//! and the one local compute kernel ([`LocalKernel`]) every executor
//! runs.
//!
//! Every distmm step loop and the CNN executor's tile exchange run one
//! double-buffered pipeline that posts step `t+1`'s transfers before
//! computing step `t`, and every executor computes its tiles and block
//! products with the packed GEMM kernels (DESIGN.md §7). Neither is a
//! choice: the types remain so that run provenance can name what ran,
//! and so that a stale `DISTCONV_COMM=blocking` or
//! `DISTCONV_LOCAL_KERNEL=reference` fails loudly instead of being
//! ignored.

/// The environment variable behind a one-value provenance name.
struct Knob {
    var: &'static str,
    /// Spellings of the one value; the first is its name.
    accepted: &'static [&'static str],
    /// Spellings of the value that was removed.
    removed: &'static [&'static str],
    /// What was removed, and what runs instead.
    removed_what: &'static str,
    runs: &'static str,
}

impl Knob {
    /// Check an explicit spelling. `Err` carries the full diagnostic
    /// (offending value plus every accepted spelling).
    fn check(&self, v: &str) -> Result<(), String> {
        let (var, name) = (self.var, self.accepted[0]);
        let v = v.trim();
        if self.accepted.contains(&v) {
            Ok(())
        } else if self.removed.contains(&v) {
            Err(format!(
                "{var}={v:?}: the {} was removed; every executor runs the {} \
                 (unset {var} or set it to {name:?})",
                self.removed_what, self.runs
            ))
        } else {
            Err(format!(
                "unrecognized {var} value {v:?}: expected one of {:?} (or unset)",
                self.accepted
            ))
        }
    }

    /// Check the variable if it is set: a value that is not an
    /// accepted spelling panics with the diagnostic.
    fn check_env(&self) {
        if let Ok(v) = std::env::var(self.var) {
            self.check(&v).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

const COMM: Knob = Knob {
    var: "DISTCONV_COMM",
    accepted: &["overlapped", "overlap", "async"],
    removed: &["blocking", "block", "sync"],
    removed_what: "blocking comm mode",
    runs: "overlapped pipeline",
};

const KERNEL: Knob = Knob {
    var: "DISTCONV_LOCAL_KERNEL",
    accepted: &["fast", "gemm"],
    removed: &["reference", "ref", "slow"],
    removed_what: "reference executor kernel",
    runs: "fast kernel",
};

/// How executors schedule communication relative to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommMode {
    /// Double-buffered pipeline: post step `t+1`'s transfers, compute
    /// step `t`, then wait. Wall-clock approaches `max(comm, comp)`.
    Overlapped,
}

impl CommMode {
    /// The mode, after checking `DISTCONV_COMM`: a set value that is
    /// not an overlapped spelling panics with the diagnostic.
    pub fn from_env() -> Self {
        COMM.check_env();
        CommMode::Overlapped
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        COMM.accepted[0]
    }
}

/// The local compute kernel executors run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKernel {
    /// Packed im2col-GEMM / panel-packed block kernels built on the
    /// shared register-blocked micro-kernel (`distconv_tensor::gemm`).
    Fast,
}

impl LocalKernel {
    /// The kernel, after checking `DISTCONV_LOCAL_KERNEL`: a set value
    /// that is not a fast spelling panics with the diagnostic.
    pub fn from_env() -> Self {
        KERNEL.check_env();
        LocalKernel::Fast
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        KERNEL.accepted[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_overlapped_spelling() {
        for v in ["overlapped", "overlap", "async", " overlapped "] {
            assert_eq!(COMM.check(v), Ok(()), "{v:?}");
        }
        assert_eq!(CommMode::Overlapped.name(), "overlapped");
    }

    #[test]
    fn parse_accepts_every_fast_kernel_spelling() {
        for v in ["fast", "gemm", " fast "] {
            assert_eq!(KERNEL.check(v), Ok(()), "{v:?}");
        }
        assert_eq!(LocalKernel::Fast.name(), "fast");
    }

    #[test]
    fn parse_rejects_the_removed_blocking_mode() {
        for v in ["blocking", "block", "sync"] {
            let err = COMM.check(v).expect_err("blocking was removed");
            assert!(err.contains("removed"), "says why: {err}");
            assert!(err.contains("DISTCONV_COMM"), "names the knob: {err}");
        }
    }

    /// A typo must never silently become the default.
    fn assert_typo_rejected(knob: &Knob, typo: &str) {
        let err = knob.check(typo).expect_err("typo must be rejected");
        assert!(err.contains(typo), "names the offender: {err}");
        assert!(err.contains(knob.var), "names the knob: {err}");
        assert!(
            err.contains(&format!("{:?}", knob.accepted[0])),
            "lists spellings: {err}"
        );
        assert!(knob.check("").is_err());
    }

    #[test]
    fn parse_rejects_comm_mode_typos_with_a_clear_message() {
        assert_typo_rejected(&COMM, "overlaped");
        assert!(COMM.check("Overlapped").is_err(), "case-sensitive");
    }

    #[test]
    fn parse_rejects_local_kernel_typos_with_a_clear_message() {
        assert_typo_rejected(&KERNEL, "fats");
        // Retired kernel names are rejected too, never mapped to a default.
        for v in ["winograd", "wino"] {
            assert!(KERNEL.check(v).is_err(), "{v:?}");
        }
    }

    #[test]
    fn local_kernel_env_accepts_fast_and_rejects_the_removed_reference() {
        // The only test that sets this variable, so no other test can
        // observe it.
        std::env::set_var(KERNEL.var, "fast");
        assert_eq!(LocalKernel::from_env(), LocalKernel::Fast);
        std::env::set_var(KERNEL.var, "reference");
        let panic = std::panic::catch_unwind(LocalKernel::from_env).expect_err("must panic");
        std::env::remove_var(KERNEL.var);
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("the reference executor kernel was removed"),
            "{msg}"
        );
        for v in ["ref", "slow"] {
            assert!(KERNEL.check(v).unwrap_err().contains("removed"), "{v:?}");
        }
    }
}
