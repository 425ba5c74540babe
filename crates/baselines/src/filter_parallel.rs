//! Filter (model) parallelism: split the output features, replicate
//! the input.
//!
//! Each rank owns a band of output features `k` and the matching
//! kernel slice — the only baseline whose *weight* memory scales with
//! `P`. The price: every rank needs the entire input, so each step
//! broadcasts `|In|` to all ranks.
//!
//! * **Placement**: kernel shards scattered from the source,
//!   `Σ_{i≠0}|Ker_i|` (≈ `|Ker|·(P−1)/P` — cheaper than the other
//!   baselines' full replication).
//! * **Recurring**: input broadcast, `(P−1)·|In|` — the term that blows
//!   up with `P` and makes pure filter parallelism uncompetitive beyond
//!   a few ranks (visible in E9's curves; the paper's algorithm avoids
//!   it by *also* partitioning `bhw`).

use crate::common::{BaselineKind, BaselineReport};
use distconv_conv::kernels::{conv2d_direct_par, in_shape, ker_shape, workload};
use distconv_cost::Conv2dProblem;
use distconv_simnet::{Communicator, Machine, MachineConfig, RunError};
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{max_rel_err, Range4, Shape4, Tensor4};

const TAG_KER_SCATTER: u64 = 0x0DA7_0004;

/// Run the filter-parallel scheme. Requires `procs ≤ N_k`.
pub fn run_filter_parallel(
    p: Conv2dProblem,
    procs: usize,
    seed: u64,
    cfg: MachineConfig,
) -> Result<BaselineReport, RunError> {
    assert!(
        procs <= p.nk,
        "filter parallelism cannot use more ranks ({procs}) than output features ({})",
        p.nk
    );
    let dist = BlockDist::new(p.nk, procs);

    let report = Machine::try_run::<f64, _, _>(procs, cfg, |rank| {
        let comm = Communicator::world(rank);
        let me = rank.id();
        let (k_lo, k_hi) = dist.range(me);
        let my_nk = k_hi - k_lo;

        // --- Placement: kernel shards scattered from rank 0. ---
        let ker_shard = if me == 0 {
            let full = Tensor4::<f64>::random(ker_shape(&p), seed ^ crate::KER_SEED_XOR);
            let _lf = rank.mem().lease_or_panic(full.len() as u64);
            for dst in 1..procs {
                let (dk_lo, dk_hi) = dist.range(dst);
                let rng = Range4::new([dk_lo, 0, 0, 0], [dk_hi, p.nc, p.nr, p.ns]);
                rank.send_vec(dst, TAG_KER_SCATTER, full.pack_range(rng));
            }
            full.slice(Range4::new([0, 0, 0, 0], [k_hi, p.nc, p.nr, p.ns]))
        } else {
            Tensor4::from_vec(
                Shape4::new(my_nk, p.nc, p.nr, p.ns),
                rank.recv(0, TAG_KER_SCATTER),
            )
        };
        let _lk = rank.mem().lease_or_panic(ker_shard.len() as u64);

        // --- Recurring: full input broadcast from rank 0. ---
        // Trace steps: 0 = kernel placement, 1 = input broadcast,
        // 2 = local forward.
        rank.set_step(1);
        let mut in_buf = if me == 0 {
            Tensor4::<f64>::random(in_shape(&p), seed).into_vec()
        } else {
            vec![0.0; in_shape(&p).len()]
        };
        let _li = rank.mem().lease_or_panic(in_buf.len() as u64);
        comm.bcast(0, &mut in_buf);
        let input = Tensor4::from_vec(in_shape(&p), in_buf);

        // --- Local forward on the feature band. ---
        rank.set_step(2);
        let sub = Conv2dProblem::new(p.nb, my_nk, p.nc, p.nh, p.nw, p.nr, p.ns, p.sw, p.sh);
        let out = rank.time_compute(|| distconv_conv::conv2d_fast(&sub, &input, &ker_shard));
        (k_lo, out)
    })?;

    // --- Verification. ---
    let (input, ker) = workload::<f64>(&p, seed);
    let reference = conv2d_direct_par(&p, &input, &ker);
    let mut verified = true;
    for (k_lo, out) in &report.results {
        let nk = out.shape().0[1];
        let rng = Range4::new([0, *k_lo, 0, 0], [p.nb, k_lo + nk, p.nw, p.nh]);
        let expect = reference.pack_range(rng);
        if max_rel_err(out.as_slice(), &expect).is_none_or(|e| e > 1e-9) {
            verified = false;
        }
    }

    // --- Exact analytic volumes. ---
    let per_k = (p.nc * p.nr * p.ns) as u128;
    let placement: u128 = (1..procs).map(|i| dist.len(i) as u128 * per_k).sum();
    let recurring = (procs as u128 - 1) * p.size_in();
    Ok(BaselineReport {
        kind: BaselineKind::FilterParallel,
        problem: p,
        procs,
        analytic_placement: placement,
        analytic_recurring: recurring,
        verified,
        max_peak_mem: report.max_peak_mem(),
        sim_time: report.sim_time,
        makespan: report.makespan,
        stats: report.stats,
        trace: report.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_verified_and_exact_volume() {
        let p = Conv2dProblem::square(2, 8, 4, 4, 3);
        for procs in [1usize, 2, 4, 8] {
            let r = run_filter_parallel(p, procs, 13, MachineConfig::default())
                .expect("filter_parallel run");
            assert!(r.verified, "P={procs}");
            assert_eq!(
                r.stats.total_elems() as u128,
                r.analytic_total(),
                "P={procs}"
            );
        }
    }

    #[test]
    fn input_broadcast_dominates_at_scale() {
        // The recurring term must grow linearly with P — the scheme's
        // known failure mode.
        let p = Conv2dProblem::square(2, 8, 4, 8, 3);
        let r2 =
            run_filter_parallel(p, 2, 1, MachineConfig::default()).expect("filter_parallel run");
        let r8 =
            run_filter_parallel(p, 8, 1, MachineConfig::default()).expect("filter_parallel run");
        assert_eq!(r2.analytic_recurring, p.size_in());
        assert_eq!(r8.analytic_recurring, 7 * p.size_in());
        assert!(r8.stats.total_elems() > r2.stats.total_elems());
    }

    #[test]
    fn uneven_feature_split() {
        let p = Conv2dProblem::square(2, 7, 4, 4, 3);
        let r =
            run_filter_parallel(p, 3, 2, MachineConfig::default()).expect("filter_parallel run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_total());
    }

    #[test]
    #[should_panic(expected = "cannot use more ranks")]
    fn too_many_ranks_rejected() {
        let p = Conv2dProblem::square(2, 4, 4, 4, 3);
        run_filter_parallel(p, 5, 0, MachineConfig::default()).expect("filter_parallel run");
    }
}
