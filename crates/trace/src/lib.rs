//! # distconv-trace
//!
//! Low-overhead structured tracing for the simulated machine, plus the
//! cost-model conformance checker that compares measured traffic
//! against the paper's Eq. 4/6–9 predictions.
//!
//! Every rank records typed [`SpanEvent`]s (compute / send / recv /
//! comm-wait / retransmit / checkpoint-restore) into its own slot of a
//! shared [`Tracer`] — one ring buffer per rank, written only by the
//! owning rank thread, so recording is an uncontended mutex lock plus a
//! vector write. At `Machine::run` exit the buffers are drained into a
//! [`RunTrace`] carried on the run report.
//!
//! Two views are deliberately separated, mirroring the
//! `StatsSnapshot` / `TimingSnapshot` split in simnet:
//!
//! * the **canonical** view ([`RunTrace::canonical`]) strips wall-clock
//!   fields and sorts spans by `(rank, step, kind, peer, tag, elems)` —
//!   deterministic across thread counts and backends, compared
//!   bit-for-bit by the determinism suites and digested for goldens;
//! * the **timeline** view ([`RunTrace::to_chrome_json`]) keeps the
//!   wall-clock fields and exports Chrome trace-event JSON (open in
//!   `chrome://tracing` or Perfetto), built with the in-tree
//!   `distconv_cost::json` writer so the build stays hermetic.
//!
//! The [`conformance`] module turns measured volumes and analytic
//! predictions into a typed pass/fail report with absolute and relative
//! deviations, wired into the golden/repro suites so a
//! communication-volume regression fails CI with a named row instead of
//! a diffed total.

#![warn(missing_docs)]

pub mod chrome;
pub mod conformance;
pub mod span;
pub mod trace;

pub use conformance::{ConformanceReport, ConformanceRow, Tolerance};
pub use span::{CanonicalSpan, SpanEvent, SpanKind};
pub use trace::{RankTrace, RunTrace, TraceConfig, Tracer};
