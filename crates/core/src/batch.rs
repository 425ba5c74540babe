//! Batch dispatch: the serving layer's entry point into the network
//! executor.
//!
//! A serving front-end coalesces asynchronous requests into `Nb`-sized
//! batches and needs two things from the executor that
//! [`crate::network::run_network`] alone does not give it:
//!
//! 1. **Per-sample attribution** — which part of the verified output
//!    belongs to which admitted request. The final layer's `Out`
//!    slices partition the `[b, k, x, y]` output domain across the
//!    `i_c = 0` ranks, so every global batch index `b` is covered
//!    exactly once; [`dispatch_batch`] folds each sample's elements
//!    into an order-independent digest the front-end can hand back per
//!    request (and compare bitwise across replays, grids and
//!    backends — the digest ignores *where* an element was computed).
//! 2. **A seed contract** — batch identity must be a pure function of
//!    the admitted requests so a replayed or re-routed batch computes
//!    bit-identical results. [`batch_seed`] folds the per-request
//!    seeds through SplitMix64 in admission order.

use crate::network::{execute, CoreError, NetworkPlan, NetworkReport, RunOptions};
use distconv_par::rng::splitmix64;
use distconv_simnet::MachineConfig;
use distconv_tensor::Scalar;

/// The result of dispatching one batch onto a cluster.
#[derive(Clone, Debug)]
pub struct BatchRun {
    /// The full network execution report (verified against the chained
    /// sequential reference; conformance rows available).
    pub report: NetworkReport,
    /// One digest per global batch sample `b in 0..Nb`, each an
    /// order-independent fold over that sample's final-layer output
    /// elements. Deterministic in `(plan, seed)`: replaying the batch
    /// on the same plan — on either simnet backend, with any thread
    /// count — reproduces these words bitwise, which is what lets the
    /// serving layer prove a replayed batch equals the fault-free run.
    /// (A *different* grid may legally differ in the last float bits:
    /// channel-partitioned grids reduce in a different order.)
    pub digests: Vec<u64>,
}

/// Fold per-request seeds into the batch seed, in admission order.
/// Requests are materialized *as* the batch input (sample `i` of the
/// seeded input tensor), so the batch seed is the only run parameter —
/// same member seeds in the same slots ⇒ the same batch, bitwise.
pub fn batch_seed(request_seeds: &[u64]) -> u64 {
    // Non-zero init so the empty batch and `[0]` hash differently.
    let mut acc = 0x5e52_5645_5345_4544u64;
    for (i, &s) in request_seeds.iter().enumerate() {
        acc = splitmix64(acc ^ s.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
    acc
}

/// Run the planned network once as a batch and attribute the verified
/// output back to individual samples.
///
/// `plan` fixes `Nb` (the first layer's batch extent); `seed` is the
/// [`batch_seed`] of the admitted requests. Execution, verification
/// and traffic accounting are exactly [`run_network`]'s — this entry
/// point only adds the per-sample digest pass on the already-verified
/// slices.
///
/// [`run_network`]: crate::network::run_network
pub fn dispatch_batch<T: Scalar>(
    plan: &NetworkPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<BatchRun, CoreError> {
    let run = execute::<T>(plan, seed, cfg, RunOptions::default())?;
    let nb = plan.layers[0].problem.nb;
    let mut digests = vec![0u64; nb];
    for (_coords, origin, slice) in &run.outputs {
        let [b0, k0, x0, y0] = *origin;
        let [db, dk, dx, dy] = slice.shape().0;
        let data = slice.as_slice();
        let mut idx = 0usize;
        for ib in 0..db {
            let digest = &mut digests[b0 + ib];
            for ik in 0..dk {
                for ix in 0..dx {
                    for iy in 0..dy {
                        *digest ^=
                            element_hash(k0 + ik, x0 + ix, y0 + iy, data[idx].to_f64().to_bits());
                        idx += 1;
                    }
                }
            }
        }
    }
    Ok(BatchRun {
        report: run.report,
        digests,
    })
}

/// Position-keyed element hash: mixes the global `(k, x, y)` output
/// coordinate with the value bits so the XOR fold is independent of
/// the order (and the rank) in which elements were produced, yet any
/// single flipped bit changes the sample digest.
fn element_hash(k: usize, x: usize, y: usize, bits: u64) -> u64 {
    let key = (k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((x as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((y as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(bits);
    splitmix64(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_cost::{Conv2dProblem, MachineSpec};

    fn chain() -> Vec<Conv2dProblem> {
        vec![
            Conv2dProblem::new(2, 8, 4, 8, 8, 3, 3, 1, 1),
            Conv2dProblem::new(2, 8, 8, 6, 6, 3, 3, 1, 1),
            Conv2dProblem::new(2, 4, 8, 4, 4, 3, 3, 1, 1),
        ]
    }

    #[test]
    fn batch_seed_is_order_and_slot_sensitive() {
        assert_eq!(batch_seed(&[1, 2, 3]), batch_seed(&[1, 2, 3]));
        assert_ne!(batch_seed(&[1, 2, 3]), batch_seed(&[3, 2, 1]));
        assert_ne!(batch_seed(&[1, 2]), batch_seed(&[1, 2, 0]));
        assert_ne!(batch_seed(&[]), batch_seed(&[0]));
    }

    #[test]
    fn digests_cover_every_sample_and_replay_bitwise() {
        let plan4 = NetworkPlan::plan_tuned(&chain(), MachineSpec::new(4, 1 << 20)).unwrap();
        let b4 = dispatch_batch::<f64>(&plan4, 77, MachineConfig::default()).unwrap();
        assert_eq!(b4.digests.len(), 2);
        assert!(b4.digests.iter().all(|&d| d != 0), "empty sample digest");
        // Replaying the same (plan, seed) is bitwise: same digests on
        // the thread backend again and on the event backend — the fold
        // is position-keyed, so rank assignment and delivery order are
        // invisible.
        let replay = dispatch_batch::<f64>(&plan4, 77, MachineConfig::default()).unwrap();
        assert_eq!(b4.digests, replay.digests);
        let event = dispatch_batch::<f64>(
            &plan4,
            77,
            MachineConfig {
                backend: distconv_simnet::Backend::Event,
                ..MachineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(b4.digests, event.digests);
        // A different batch seed changes every sample.
        let other = dispatch_batch::<f64>(&plan4, 78, MachineConfig::default()).unwrap();
        assert_ne!(b4.digests, other.digests);
    }
}
