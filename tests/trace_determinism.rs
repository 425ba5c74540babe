//! Trace determinism: the canonical (wall-clock-stripped) span trace
//! of a run is a pure function of the schedule — identical run to run
//! and across `DISTCONV_THREADS` settings.
//!
//! Cross-thread-count equality is asserted via the committed golden
//! digests below: CI runs this suite in both the `DISTCONV_THREADS=1`
//! and `DISTCONV_THREADS=4` legs, and both must reproduce the same
//! numbers.

use distconv_core::{execute, RunOptions};
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_distmm::{summa_rank_body, MatmulDims};
use distconv_simnet::{Machine, MachineConfig};
use distconv_trace::RunTrace;

/// Golden digest of the representative conv layer's canonical trace.
/// If a deliberate schedule change moves this, update it and say why in
/// the commit message — an *unexplained* move is a trace regression.
const CONV_GOLDEN_DIGEST: u64 = 0x7872_a055_3ccd_7382;

/// Golden digest of the SUMMA canonical trace.
const SUMMA_GOLDEN_DIGEST: u64 = 0x96b1_8902_610d_41f7;

fn conv_trace() -> RunTrace {
    let p = Conv2dProblem::square(4, 16, 16, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
        .plan()
        .unwrap();
    execute::<f64>(
        &plan.into(),
        23,
        MachineConfig::default(),
        RunOptions::default(),
    )
    .unwrap()
    .trace
}

fn summa_trace() -> RunTrace {
    let d = MatmulDims::new(30, 20, 25);
    Machine::try_run::<f64, _, _>(6, MachineConfig::default(), move |rank| {
        summa_rank_body(rank, &d, 2, 3)
    })
    .unwrap()
    .trace
}

#[test]
fn conv_canonical_trace_matches_the_golden_digest() {
    let trace = conv_trace();
    assert!(!trace.is_empty(), "tracing is on by default");
    assert_eq!(trace.total_dropped(), 0, "ring must not wrap");
    assert_eq!(
        trace.digest(),
        CONV_GOLDEN_DIGEST,
        "conv trace digest moved (got {:#018x}) — schedule change or trace regression",
        trace.digest()
    );
}

#[test]
fn summa_canonical_trace_matches_the_golden_digest() {
    let trace = summa_trace();
    assert!(!trace.is_empty(), "tracing is on by default");
    assert_eq!(trace.total_dropped(), 0, "ring must not wrap");
    assert_eq!(
        trace.digest(),
        SUMMA_GOLDEN_DIGEST,
        "SUMMA trace digest moved (got {:#018x}) — schedule change or trace regression",
        trace.digest()
    );
}

#[test]
fn repeat_runs_reproduce_the_digest() {
    // Two runs: the digest is a pure function of the schedule, not of
    // thread interleaving or wall-clock.
    let a = conv_trace();
    let b = conv_trace();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.canonical(), b.canonical());
}
