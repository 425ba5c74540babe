//! # distconv-baselines
//!
//! The "simple and restricted schemes" the paper's introduction says
//! are all that existing distributed DNN systems implement
//! (TensorFlow \[1\], FlexFlow \[6\], PyTorch-DDP \[10\], Horovod \[13\]),
//! realized on the same simulated machine as the paper's algorithm so
//! experiment E9 can compare volumes apples-to-apples:
//!
//! * [`data_parallel`] — split the batch `b`; every rank holds the full
//!   kernel. Forward pass needs no communication once weights are
//!   placed (the scheme's appeal) but replicates `|Ker|` per rank (its
//!   memory cost); a training step pays a gradient all-reduce of
//!   `2·|Ker|·(P−1)/P` per rank (Horovod's recurring cost).
//! * [`spatial_parallel`] — split the image width `w`; halo columns are
//!   exchanged with neighbors each step. Cheap for large images, but
//!   the kernel is still fully replicated.
//! * [`filter_parallel`] — split the output features `k`; the kernel is
//!   partitioned (memory scales!) but the whole input must reach every
//!   rank.
//!
//! Each scheme executes real data movement on `simnet`, verifies its
//! result against the sequential reference, and carries an exact
//! analytic volume that the measured counters must equal. Every rank
//! computes with `conv2d_fast`; each `run_x` returns rank failures
//! (injected crashes, deadlocks, OOM) as a `RunError`.
//!
//! Charging conventions (documented per scheme, consistent with how
//! the paper charges its own algorithm): one-time weight/input
//! *placement* broadcasts are reported separately from *recurring*
//! per-step traffic, because the interesting comparison — like the
//! paper's `cost_I` vs `cost_C` split — is between amortizable setup
//! and every-step cost.

#![warn(missing_docs)]

pub mod common;
pub mod data_parallel;
pub mod filter_parallel;
pub mod spatial_parallel;

pub use common::{BaselineKind, BaselineReport};

/// Seed-offset for the kernel tensor (matches
/// `distconv_conv::kernels::workload` so baseline runs and references
/// see identical weights).
pub const KER_SEED_XOR: u64 = 0xABCD_EF01_2345_6789;
pub use data_parallel::run_data_parallel;
pub use filter_parallel::run_filter_parallel;
pub use spatial_parallel::{run_spatial_parallel, spatial_feasible};
