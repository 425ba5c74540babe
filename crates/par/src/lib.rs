//! # distconv-par
//!
//! The workspace's zero-dependency substrate, introduced when the repo
//! went hermetic (no external crates, `cargo build --offline` is the
//! supported path — see DESIGN.md §"Hermeticity policy"). Three small
//! modules replace what used to come from crates.io:
//!
//! * [`pool`] — a std-`thread` scoped worker pool with
//!   [`pool::par_chunks_mut`] / [`pool::par_iter_indexed`], replacing
//!   the two `rayon::prelude` uses (conv kernels, local GEMM).
//! * [`rng`] — a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//!   PRNG, replacing `rand` for workload generation and case sampling.
//! * [`proptest_mini`] — a seeded property-testing harness with
//!   failure-seed replay via `DISTCONV_PROPTEST_SEED`, replacing
//!   `proptest` for the four property suites.
//! * [`provenance`] — [`CommMode`] and [`LocalKernel`], the names of
//!   the one (overlapped, double-buffered) communication schedule and
//!   the one (packed GEMM) local kernel every executor runs, for run
//!   provenance; `DISTCONV_COMM` and `DISTCONV_LOCAL_KERNEL` accept
//!   only those.
//! * [`budget`] — the shared thread-budget arbiter: while a simulated
//!   machine's `P` rank threads run, each rank's pool gets
//!   `max(1, cores/P)` workers instead of all cores.
//!
//! The crate deliberately has **no dependencies** (not even intra-
//! workspace ones) so every other crate — including dev-dependency
//! cycles from test suites — can use it freely.

#![warn(missing_docs)]

pub mod budget;
pub mod pool;
pub mod proptest_mini;
pub mod provenance;
pub mod rng;

pub use pool::{budgeted_threads, num_threads, par_chunks_mut, par_iter_indexed, Pool};
pub use proptest_mini::{check, Config, Gen};
pub use provenance::{CommMode, LocalKernel};
pub use rng::SplitMix64;
