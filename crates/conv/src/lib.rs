//! # distconv-conv
//!
//! Convolution kernels and the **global-virtual-memory tiled executor**
//! of the paper's Sec. 2.1.
//!
//! Layout conventions (everywhere in the workspace, following the
//! paper's indexing `Out[b,k,w,h] += In[b,c,σw·w+r,σh·h+s]·Ker[k,c,r,s]`):
//!
//! * `In`  : `[N_b, N_c, X, Y]` with `X = σw·(N_w−1)+N_r`,
//!   `Y = σh·(N_h−1)+N_s` (the `r` stencil offsets the `w`-paired axis).
//! * `Ker` : `[N_k, N_c, N_r, N_s]`.
//! * `Out` : `[N_b, N_k, N_w, N_h]`.
//!
//! Contents:
//!
//! * [`kernels`] — `conv2d_direct`, the oracle every distributed run
//!   is verified against: Listing 1 loop-interchanged per `(b, k)`
//!   output plane, bitwise equal to the verbatim seven-loop nest;
//!   `conv2d_direct_par` (the same plane body on the worker pool),
//!   the seven-loop tile witness [`kernels::conv_tile`], and the
//!   weight-gradient kernel used by the training-step example.
//! * [`gvm`] — executes Listing 3 (and its `k`/`bhw`-innermost
//!   variants) against an explicit virtual global memory with an
//!   `M`-capacity local buffer set, counting every element copied
//!   between the two. For the `c`-innermost schedule at stride 1 the
//!   measured traffic **equals Eq. 3 exactly** (experiment E3).
//! * [`fast`] — the cache-aware local compute path:
//!   [`fast::conv_tile_fast`] lowers a tile to an implicit-im2col ×
//!   packed-kernel GEMM on the shared register-blocked micro-kernel,
//!   bitwise identical to `conv_tile` but several times faster.
//!
//! Every kernel here is bitwise equal to the oracle, so executors pick
//! between the two tile paths via
//! [`LocalKernel`] without changing a
//! result (DESIGN.md §7).

#![warn(missing_docs)]

pub mod fast;
pub mod gvm;
pub mod kernels;

pub use distconv_par::LocalKernel;
pub use fast::{conv2d, conv2d_fast, conv_tile_fast, conv_tile_fast_rows, ConvScratch};
pub use gvm::{GvmExecutor, GvmMeasurement};
pub use kernels::{conv2d_direct, conv2d_direct_par, conv_tile, grad_ker};
