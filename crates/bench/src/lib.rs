//! # distconv-bench
//!
//! Experiment drivers for every table/figure in the reproduction (see
//! DESIGN.md §4 for the experiment index, EXPERIMENTS.md for recorded
//! results). Each `eN_*` function runs one experiment and returns a
//! printable [`table::Table`]. The `repro` binary prints them by id, each
//! id's output pinned by `tests/goldens/<id>.txt`; the wall-clock benches
//! in `benches/` (built on [`wallbench`]) time the hot paths.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod wallbench;

pub use experiments::*;
pub use table::Table;
pub use wallbench::{provenance, write_json_report, BenchRecord, Suite};
