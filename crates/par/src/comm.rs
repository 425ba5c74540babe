//! [`CommMode`]: the name of the communication schedule every executor
//! runs.
//!
//! Every distmm step loop and the CNN executor's tile exchange run one
//! double-buffered pipeline that posts step `t+1`'s transfers before
//! computing step `t`. There is no other schedule to select; the type
//! remains so that run provenance can name the schedule, and so that a
//! stale `DISTCONV_COMM=blocking` fails loudly instead of being
//! ignored.

/// How executors schedule communication relative to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommMode {
    /// Double-buffered pipeline: post step `t+1`'s transfers, compute
    /// step `t`, then wait. Wall-clock approaches `max(comm, comp)`.
    Overlapped,
}

/// Env variable read by [`CommMode::from_env`]: unset, or one of
/// `overlapped`/`overlap`/`async`. Any other value is a hard error.
const COMM_MODE_ENV: &str = "DISTCONV_COMM";

impl CommMode {
    /// Check an explicit mode spelling. `Err` carries the full
    /// diagnostic (offending value plus every accepted spelling).
    fn parse(v: &str) -> Result<Self, String> {
        match v.trim() {
            "overlapped" | "overlap" | "async" => Ok(CommMode::Overlapped),
            "blocking" | "block" | "sync" => Err(format!(
                "{COMM_MODE_ENV}={v:?}: the blocking comm mode was removed; every executor \
                 runs the overlapped pipeline (unset {COMM_MODE_ENV} or set it to \"overlapped\")"
            )),
            other => Err(format!(
                "unrecognized {COMM_MODE_ENV} value {other:?}: expected \
                 \"overlapped\"/\"overlap\"/\"async\" (or unset)"
            )),
        }
    }

    /// The mode, after checking `DISTCONV_COMM`: a set value that is
    /// not an overlapped spelling panics with the diagnostic.
    pub fn from_env() -> Self {
        match std::env::var(COMM_MODE_ENV) {
            Ok(v) => Self::parse(&v).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => CommMode::Overlapped,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            CommMode::Overlapped => "overlapped",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_overlapped_spelling() {
        for v in ["overlapped", "overlap", "async", " overlapped "] {
            assert_eq!(CommMode::parse(v), Ok(CommMode::Overlapped), "{v:?}");
        }
        assert_eq!(CommMode::Overlapped.name(), "overlapped");
    }

    #[test]
    fn parse_rejects_the_removed_blocking_mode() {
        for v in ["blocking", "block", "sync"] {
            let err = CommMode::parse(v).expect_err("blocking was removed");
            assert!(err.contains("removed"), "says why: {err}");
            assert!(err.contains("DISTCONV_COMM"), "names the knob: {err}");
        }
    }

    #[test]
    fn parse_rejects_typos_with_a_clear_message() {
        // A typo must never silently become the default.
        let err = CommMode::parse("overlaped").expect_err("typo must be rejected");
        assert!(err.contains("overlaped"), "names the offender: {err}");
        assert!(err.contains("DISTCONV_COMM"), "names the knob: {err}");
        assert!(err.contains("\"overlapped\""), "lists spellings: {err}");
        assert!(CommMode::parse("").is_err());
        assert!(CommMode::parse("Overlapped").is_err(), "case-sensitive");
    }
}
