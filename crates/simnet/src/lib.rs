//! # distconv-simnet
//!
//! A distributed-memory machine **simulator**: the substrate the paper's
//! algorithms run on in this reproduction (substituting for an MPI
//! cluster, per DESIGN.md §2).
//!
//! ## Model
//!
//! A [`Machine`] runs `P` *ranks*: one OS thread each, or coroutines
//! on the calling thread under the event backend. Ranks share
//! **nothing**: each gets a [`Rank`] handle whose only inter-rank
//! facility is explicit message passing ([`Rank::send`] /
//! [`Rank::recv`]), exactly the partitioned-memory semantics of the
//! paper's Sec. 2.2. On top of point-to-point messages,
//! [`Communicator`] provides the MPI-style collectives the executors
//! use (broadcast, reduce, all-reduce, all-gather, reduce-scatter,
//! barrier, and the shift exchange `sendrecv`), implemented with
//! standard tree/ring algorithms — so measured communication *volumes*
//! are those of a real MPI stack.
//!
//! ## What is measured
//!
//! * [`Stats`] counts every point-to-point message and every element it
//!   carries, globally and per rank. Collectives are built from p2p
//!   sends, so their cost is accounted automatically and honestly.
//! * [`MemoryTracker`] meters per-rank live allocations against a
//!   capacity `M_D`; exceeding it fails the run — this is how Eq. 11's
//!   memory-feasibility claims are *checked*, not assumed.
//! * An α–β time model ([`CostParams`]) converts per-rank message/volume
//!   counters into simulated seconds for who-wins comparisons.
//!
//! ## Fault injection
//!
//! A seeded [`FaultPlan`] attached to [`MachineConfig`] deterministically
//! drops, duplicates, delays or reorders messages, crashes a rank at its
//! Nth send, or slows one rank by a straggler factor — all decided by a
//! SplitMix64 hash of the seed, so every chaos run replays exactly. An
//! ARQ reliable-delivery mode makes collectives survive link faults
//! bit-identically, with retransmit/ack traffic accounted separately
//! ([`FaultTraffic`]) from the algorithmic counters. [`Machine::try_run`]
//! aggregates every rank failure into a [`RunError`] for recovery
//! machinery upstream. See DESIGN.md §6 ("Fault model").
//!
//! ## Topology
//!
//! [`CartGrid`] gives the logical multi-dimensional processor view of
//! Sec. 2.2 (`P_b × P_k × P_c × P_h × P_w` for CNNs, 2-D/3-D grids for
//! the matmul analogs), with fiber sub-communicators along any subset of
//! dimensions (the "broadcast along the `k` dimension" operations of the
//! paper's communication schedule).

#![warn(missing_docs)]

pub mod channel;
pub mod comm;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod coro;
pub mod event;
pub mod fault;
pub mod grid;
pub mod machine;
pub mod memory;
pub mod rank;
pub mod stats;

pub use comm::{BcastAlgo, Communicator, PendingBcast, PendingRecv};
pub use event::Backend;
pub use fault::{CrashAt, FaultPlan, FaultPlanError, Straggler, CRASH_MARKER, MAX_SEND_ATTEMPTS};
pub use grid::CartGrid;
pub use machine::{FailureKind, Machine, MachineConfig, RankFailure, RunError, RunReport};
pub use memory::{MemLease, MemoryError, MemoryTracker};
pub use rank::{Msg, Rank, RankId, Tag, TrafficClass};
pub use stats::{CostParams, FaultTraffic, RedistTraffic, Stats, StatsSnapshot, TimingSnapshot};
