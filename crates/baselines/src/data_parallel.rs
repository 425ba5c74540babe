//! Data parallelism: split the batch, replicate the kernel.
//!
//! The scheme behind TensorFlow's and PyTorch-DDP's default distribution
//! and Horovod's all-reduce training:
//!
//! * **Placement** (one-time): the kernel is broadcast to all ranks —
//!   `(P−1)·|Ker|` elements, and `|Ker|` *memory per rank* forever (the
//!   scheme does not scale kernel memory).
//! * **Recurring** (every step): the fresh input batch is scattered
//!   from its source — `Σ_{i≠0} |shard_i|` elements; in training, the
//!   weight gradient is all-reduced — `2·(P−1)·|Ker|` elements total.
//! * Forward compute itself needs **no** communication — the scheme's
//!   enduring appeal, and the baseline the paper's algorithms must beat
//!   only where kernel replication hurts (memory) or gradient
//!   all-reduce dominates (large `Ker`, small batch).

use crate::common::{BaselineKind, BaselineReport};
use distconv_conv::kernels::{
    conv2d_direct_par, grad_ker, in_shape, ker_shape, out_shape, workload,
};
use distconv_cost::Conv2dProblem;
use distconv_simnet::{Communicator, Machine, MachineConfig, RunError};
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{max_rel_err, Shape4, Tensor4};

/// Seed-offset for the upstream gradient `dOut` in training mode.
pub const DOUT_SEED_XOR: u64 = 0x5A5A_1234_9876_0F0F;

const TAG_IN_SCATTER: u64 = 0x0DA7_0001;

/// Run the data-parallel scheme on `procs` ranks. `train` adds the
/// backward weight-gradient all-reduce. Requires `procs ≤ N_b`.
pub fn run_data_parallel(
    p: Conv2dProblem,
    procs: usize,
    seed: u64,
    train: bool,
    cfg: MachineConfig,
) -> Result<BaselineReport, RunError> {
    assert!(
        procs <= p.nb,
        "data parallelism cannot use more ranks ({procs}) than batch items ({})",
        p.nb
    );
    let dist = BlockDist::new(p.nb, procs);

    let report = Machine::try_run::<f64, _, _>(procs, cfg, |rank| {
        let comm = Communicator::world(rank);
        let me = rank.id();
        let (b_lo, b_hi) = dist.range(me);
        let my_nb = b_hi - b_lo;
        let global_in = in_shape(&p);
        let shard_shape = Shape4::new(my_nb, p.nc, p.in_w(), p.in_h());

        // --- Placement: kernel broadcast from rank 0. ---
        let mut ker_buf = if me == 0 {
            Tensor4::<f64>::random(ker_shape(&p), seed ^ crate::KER_SEED_XOR).into_vec()
        } else {
            vec![0.0; ker_shape(&p).len()]
        };
        let _lk = rank.mem().lease_or_panic(ker_buf.len() as u64);
        comm.bcast(0, &mut ker_buf);
        let ker = Tensor4::from_vec(ker_shape(&p), ker_buf);

        // --- Recurring: input batch scatter from rank 0 (the data
        //     source). ---
        // Trace steps: 0 = kernel placement, 1 = input scatter,
        // 2 = local forward, 3 = gradient all-reduce.
        rank.set_step(1);
        let in_shard = if me == 0 {
            let full = Tensor4::<f64>::random(global_in, seed);
            let _lf = rank.mem().lease_or_panic(full.len() as u64);
            for dst in 1..procs {
                let (lo, hi) = dist.range(dst);
                let rng =
                    distconv_tensor::Range4::new([lo, 0, 0, 0], [hi, p.nc, p.in_w(), p.in_h()]);
                rank.send_vec(dst, TAG_IN_SCATTER, full.pack_range(rng));
            }
            full.slice(distconv_tensor::Range4::new(
                [0, 0, 0, 0],
                [b_hi, p.nc, p.in_w(), p.in_h()],
            ))
        } else {
            Tensor4::from_vec(shard_shape, rank.recv(0, TAG_IN_SCATTER))
        };
        let _li = rank.mem().lease_or_panic(in_shard.len() as u64);

        // --- Local forward: an independent sub-problem on my batch. ---
        rank.set_step(2);
        let sub = Conv2dProblem::new(my_nb, p.nk, p.nc, p.nh, p.nw, p.nr, p.ns, p.sw, p.sh);
        let out = rank.time_compute(|| distconv_conv::conv2d_fast(&sub, &in_shard, &ker));

        // --- Training: gradient all-reduce (Horovod). ---
        rank.set_step(3);
        let d_ker = if train {
            let d_out = Tensor4::<f64>::random_window(
                out_shape(&sub),
                seed ^ DOUT_SEED_XOR,
                [b_lo, 0, 0, 0],
                out_shape(&p),
            );
            let mut g = grad_ker(&sub, &in_shard, &d_out).into_vec();
            comm.allreduce(&mut g);
            Some(Tensor4::from_vec(ker_shape(&p), g))
        } else {
            None
        };
        (b_lo, out, d_ker)
    })?;

    // --- Verification. ---
    let (input, ker) = workload::<f64>(&p, seed);
    let reference = conv2d_direct_par(&p, &input, &ker);
    let ref_grad = if train {
        let d_out = Tensor4::<f64>::random(out_shape(&p), seed ^ DOUT_SEED_XOR);
        Some(grad_ker(&p, &input, &d_out))
    } else {
        None
    };
    let mut verified = true;
    for (b_lo, out, d_ker) in &report.results {
        let rng = distconv_tensor::Range4::new(
            [*b_lo, 0, 0, 0],
            [b_lo + out.shape().0[0], p.nk, p.nw, p.nh],
        );
        let expect = reference.pack_range(rng);
        if max_rel_err(out.as_slice(), &expect).is_none_or(|e| e > 1e-9) {
            verified = false;
        }
        if let (Some(g), Some(rg)) = (d_ker, &ref_grad) {
            if max_rel_err(g.as_slice(), rg.as_slice()).is_none_or(|e| e > 1e-9) {
                verified = false;
            }
        }
    }

    // --- Exact analytic volumes. ---
    let placement = (procs as u128 - 1) * p.size_ker();
    let scatter: u128 = (1..procs)
        .map(|i| dist.len(i) as u128 * (p.nc * p.in_w() * p.in_h()) as u128)
        .sum();
    let allreduce = if train {
        2 * (procs as u128 - 1) * p.size_ker()
    } else {
        0
    };
    Ok(BaselineReport {
        kind: BaselineKind::DataParallel,
        problem: p,
        procs,
        analytic_placement: placement,
        analytic_recurring: scatter + allreduce,
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

    fn toy() -> Conv2dProblem {
        Conv2dProblem::square(8, 4, 4, 4, 3)
    }

    #[test]
    fn run_surfaces_injected_crash() {
        use distconv_simnet::FaultPlan;
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_crash(1, 1),
            ..MachineConfig::default()
        };
        let err = run_data_parallel(toy(), 4, 3, false, cfg).expect_err("crash must fail");
        assert!(err.has_injected_crash());
        assert!(err.failed_ranks().contains(&1));
    }

    #[test]
    fn forward_verified_and_exact_volume() {
        for procs in [1usize, 2, 4, 8] {
            let r = run_data_parallel(toy(), procs, 3, false, MachineConfig::default())
                .expect("data_parallel run");
            assert!(r.verified, "P={procs}");
            assert_eq!(
                r.stats.total_elems() as u128,
                r.analytic_total(),
                "P={procs}"
            );
        }
    }

    #[test]
    fn training_allreduce_counted() {
        let r_fwd = run_data_parallel(toy(), 4, 3, false, MachineConfig::default())
            .expect("data_parallel run");
        let r_trn = run_data_parallel(toy(), 4, 3, true, MachineConfig::default())
            .expect("data_parallel run");
        assert!(r_trn.verified);
        assert_eq!(
            r_trn.analytic_recurring - r_fwd.analytic_recurring,
            2 * 3 * toy().size_ker()
        );
        assert_eq!(r_trn.stats.total_elems() as u128, r_trn.analytic_total());
    }

    #[test]
    fn conformance_cross_checks_trace_against_counters() {
        let r = run_data_parallel(toy(), 4, 3, true, MachineConfig::default())
            .expect("data_parallel run");
        let rep = r.conformance();
        assert!(rep.pass(), "conformance failed:\n{rep}");
        assert_eq!(rep.rows.len(), 1 + 4, "{rep}");
    }

    #[test]
    fn uneven_batch_split() {
        let p = Conv2dProblem::square(7, 4, 4, 4, 3);
        let r =
            run_data_parallel(p, 3, 5, true, MachineConfig::default()).expect("data_parallel run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_total());
    }

    #[test]
    #[should_panic(expected = "cannot use more ranks")]
    fn too_many_ranks_rejected() {
        run_data_parallel(toy(), 9, 0, false, MachineConfig::default()).expect("data_parallel run");
    }
}
