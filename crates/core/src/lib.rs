//! # distconv-core
//!
//! **The paper's contribution**: communication-efficient distributed-
//! memory CNN algorithms (SPAA '21, Sec. 2.2), realized on the
//! `distconv-simnet` substrate.
//!
//! The pipeline is plan → distribute → execute → reduce:
//!
//! 1. **Plan** — `distconv-cost::Planner` solves the two-level tile-size
//!    optimization (Sec. 2.1, Tables 1–2) and produces a
//!    [`DistPlan`](distconv_cost::DistPlan): a logical
//!    `P_b × P_k × P_c × P_h × P_w` processor grid, work-partition sizes
//!    `W_i = N_i/P_i`, tile sizes `T_i`, and predicted costs (Eq. 10/11).
//! 2. **Distribute** ([`distribution`]) — the initial data placement of
//!    Sec. 2.2: each rank's `Out` slice allocated in full (replicated
//!    along the `c` grid dimension when `P_c > 1`); its `Ker` slice
//!    sub-sliced along `c` over the `P_b·P_h·P_w` ranks that share it;
//!    its `In` slice sub-sliced along `c` over the `P_k` ranks that
//!    share it.
//! 3. **Execute** ([`layout`]) — the tiled loop of Listing 3 with loads
//!    replaced by the paper's rotating-broadcast schedule: for each
//!    channel step, the owner in the `In` distribution broadcasts the
//!    `In` tile along the `k` fiber, and the owner in the `Ker`
//!    distribution broadcasts the `Ker` tile along the `bhw` fiber
//!    ("after `W_c/P_k` steps, the next processor along the `k`
//!    dimension becomes the originator").
//! 4. **Reduce** — when `P_c > 1`, partial `Out` slices are reduced
//!    along the `c` fiber ("a reduction step at the very end").
//!
//! One executor runs it: [`execute`] takes a [`NetworkPlan`], and a
//! single layer is a one-layer network (`NetworkPlan::from(plan)`).
//! Between the layers of a chain it redistributes each layer's output
//! into the next layer's input shards ([`network`]). [`recover()`] wraps
//! any run in bounded restarts and, on a persistent crash, a re-plan
//! over the survivors; the training step ([`train`]) shares the same
//! per-layer forward pass.
//!
//! [`model`] gives the *exact* expected inter-rank volume of this
//! schedule (binomial-tree broadcasts, exact halos), which the E6
//! experiment pins against the measured counters, and relates it to the
//! paper's Eq. 10.

#![warn(missing_docs)]

/// The in-tree scoped worker pool (re-export of [`distconv_par::pool`]).
///
/// Lives in `distconv-par` so the leaf crates (`conv`, `distmm`) can
/// share it without a dependency cycle; re-exported here because this
/// crate is the workspace's front door for algorithm users.
pub use distconv_par::pool;

pub mod batch;
pub mod distribution;
pub(crate) mod fwd;
pub mod layout;
pub mod model;
pub mod network;
pub mod recover;
pub mod train;

pub use batch::{batch_seed, dispatch_batch, BatchRun};
pub use layout::{consumer_in_window, producer_out_window, RankLayout};
pub use model::{expected_volumes, ExpectedVolumes};
pub use network::{
    execute, redistribution_volume, run_network, CoreError, NetworkError, NetworkOut, NetworkPlan,
    NetworkReport, NetworkRun, RunOptions,
};
pub use recover::{mark_recovery, recover, Ranks, Recovered, Recovery, MAX_STEP_RETRIES};
pub use train::{expected_backward_volumes, run_training_step, BackwardVolumes, TrainReport};
