//! # distconv-distmm
//!
//! Distributed matrix-multiplication reference algorithms on the
//! `simnet` substrate: **2D SUMMA** (van de Geijn–Watts), **3D**
//! (Dekel–Nassimi–Sahni / Agarwal et al.) and **2.5D**
//! (Solomonik–Demmel).
//!
//! These are the algorithms the paper's Sec. 2.2 identifies its CNN
//! regimes with ("The Case 1 solution is analogous to the 2D SUMMA
//! algorithm … Case 2 corresponds to the 2.5D and 3D algorithms").
//! This crate implements them for three purposes:
//!
//! 1. **Analogy validation (experiment E7)** — a 1×1-stride-1
//!    convolution *is* a matrix multiplication
//!    (`[bhw × c] · [c × k]`); the distributed CNN algorithm's measured
//!    communication volumes are compared against these algorithms' on
//!    the same processor grids.
//! 2. **Baselines** — the memory/communication trade-off curves
//!    (2D → 2.5D → 3D as memory grows) that the CNN algorithm must
//!    reproduce in shape.
//! 3. **Substrate validation** — their volumes are known closed forms
//!    (pinned exactly in tests), which double-checks the simulator's
//!    accounting.
//!
//! Conventions: `C[m×n] = A[m×k] · B[k×n]`, all matrices dense
//! row-major. Each rank *materializes* its input blocks locally from
//! the deterministic seed (no distribution phase is charged — the
//! standard assumption in the matmul literature, which counts the
//! multiply-phase traffic; the CNN side's `cost_I` is charged
//! separately, as the paper does).
//!
//! Every rank body computes its block products with
//! [`matmul_blocked_par`]; rank failures (injected crashes, deadlocks,
//! OOM) come back from each `run_x` driver as a `RunError`.

#![warn(missing_docs)]

pub mod cannon;
pub mod common;
pub mod dns3d;
pub mod local;
pub mod s25d;
pub mod summa;

pub use cannon::{cannon_rank_body, run_cannon};
pub use common::{MatmulDims, MmReport};
pub use dns3d::{dns3d_rank_body, run_dns3d};
pub use local::{matmul_blocked, matmul_blocked_par, matmul_blocked_ref};
pub use s25d::{run_25d, s25d_rank_body};
pub use summa::{run_summa, summa_rank_body};
