//! # distconv-serve — admission/batching inference front-end
//!
//! The paper's comm-optimal grids assume a *fixed* batch `Nb`; a
//! production front-end must **form** those batches from asynchronous
//! requests. This crate is that front-end, over the existing simulated
//! executor:
//!
//! * **Admission** — bounded per-model queues with typed backpressure
//!   ([`SubmitError::Saturated`]); submission never blocks on
//!   execution.
//! * **Batching** — a dedicated batcher coalesces waiting requests
//!   into `Nb`-sized FIFO-prefix batches, flushing a *partial* batch
//!   once the oldest request exceeds the configurable latency budget
//!   (and never flushing an empty one).
//! * **Dispatch** — one or more simnet "clusters" execute batches on
//!   [`distconv_core::NetworkPlan::plan_tuned`] layouts through
//!   [`distconv_core::batch::dispatch_batch`]; concurrent tenants
//!   share cores through the `distconv-par` thread-budget arbiter
//!   (each simulated machine registers its ranks; pools divide).
//! * **Recovery** — every batch runs through [`distconv_core::recover()`]:
//!   a rank killed mid-batch triggers bounded replays
//!   (bitwise-identical by the batch-seed contract) and, for
//!   persistent faults, a degraded re-plan over the survivors. The
//!   cluster keeps that survivor plan and runs the model's later
//!   batches on it, so a dead rank is discovered once per cluster,
//!   not once per batch.
//! * **SLO accounting** — [`ServeReport`] carries per-model
//!   p50/p95/p99 latency, throughput, and element-exact volume
//!   conformance composing with the `distconv-trace` machinery.
//!
//! Requests are modeled by their seeds: member seeds fold (in slot
//! order) into the batch seed, the batch input tensor is derived from
//! that seed, and each request's result is its sample's output digest
//! — fully deterministic given admission order, which is what the
//! replay and chaos tests pin bitwise.

pub mod config;
pub mod report;
pub mod server;

pub use config::ServeConfig;
pub use report::{percentile_ms, ModelReport, ServeReport};
pub use server::{ModelSpec, RequestId, RequestResult, Server, StartError, SubmitError};
