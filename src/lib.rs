//! # distconv — communication-efficient distributed CNN algorithms
//!
//! A reproduction of *“Brief Announcement: Efficient Distributed
//! Algorithms for Convolutional Neural Networks”* (Li, Xu,
//! Sukumaran-Rajam, Rountev, Sadayappan — SPAA 2021).
//!
//! This facade crate re-exports the whole workspace under one roof so
//! examples, integration tests and downstream users can write
//! `use distconv::...` without tracking the internal crate split:
//!
//! * [`tensor`] — dense 4-D tensors / matrices, halo arithmetic.
//! * [`cost`] — the paper's analytical data-movement model (Eq. 1–11),
//!   the Table-1/Table-2 closed-form tile-size solvers, and the planner
//!   that turns a layer + machine into a distributed execution plan.
//! * [`simnet`] — a thread-per-rank distributed-memory machine simulator
//!   with MPI-style communicators, collectives built from point-to-point
//!   messages, exact communication-volume accounting and per-rank memory
//!   capacity enforcement.
//! * [`conv`] — sequential CNN kernels and the global-virtual-memory
//!   tiled executor of the paper's Sec. 2.1.
//! * [`distmm`] — SUMMA-2D / 2.5D / 3D distributed matrix multiplication
//!   (the algorithms the paper generalizes).
//! * [`core`] — the paper's contribution: the distributed-memory CNN
//!   algorithm of Sec. 2.2 (plan → distribute → execute → reduce).
//! * [`baselines`] — the “simple and restricted schemes” the paper's
//!   introduction contrasts: data-, spatial- and filter-parallelism plus
//!   a Horovod-style gradient allreduce.
//! * [`serve`] — the admission/batching inference front-end: bounded
//!   queues with typed backpressure, latency-budgeted batch formation,
//!   multi-tenant cluster dispatch with crash recovery, and per-request
//!   SLO percentiles.
//!
//! ## Quickstart
//!
//! ```
//! use distconv::core::{execute, NetworkPlan, RunOptions};
//! use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
//! use distconv::simnet::MachineConfig;
//!
//! // A small layer on 4 simulated ranks with 2^18 words of memory each.
//! let problem = Conv2dProblem::new(2, 8, 8, 8, 8, 3, 3, 1, 1);
//! let machine = MachineSpec::new(4, 1 << 18);
//! let plan = Planner::new(problem, machine).plan().expect("feasible plan");
//! // A single layer runs as a one-layer network.
//! let plan = NetworkPlan::from(plan);
//! let run = execute::<f32>(&plan, 7, MachineConfig::default(), RunOptions::default())
//!     .expect("run ok");
//! assert!(run.report.verified);
//! // Measured inter-rank traffic equals the schedule's exact model.
//! assert_eq!(run.report.measured_total(), run.report.expected_total());
//! ```

pub use distconv_baselines as baselines;
pub use distconv_conv as conv;
pub use distconv_core as core;
pub use distconv_cost as cost;
pub use distconv_distmm as distmm;
pub use distconv_par as par;
pub use distconv_serve as serve;
pub use distconv_simnet as simnet;
pub use distconv_tensor as tensor;
