//! Spatial parallelism: split the image width, exchange halos.
//!
//! Each rank owns a contiguous band of output columns (`w`) and the
//! matching input columns; computing its band needs `N_r − σ_w` extra
//! input columns from its right neighbor (the *halo*), exchanged every
//! step. The kernel is fully replicated (like data parallelism).
//!
//! * **Placement**: kernel broadcast, `(P−1)·|Ker|`.
//! * **Recurring**: input-band scatter `Σ_{i≠0}|band_i|` + halo
//!   exchange `(P−1)·(N_r−σ_w)·Y·N_b·N_c` (zero when `σ_w ≥ N_r`).
//!
//! Scales activation memory (unlike data parallelism) and suits large
//! images; the halo term grows with the kernel and shrinks with the
//! band width, which is what kills it on deep, small-image layers —
//! one of the trade-offs E9 charts.

use crate::common::{BaselineKind, BaselineReport};
use distconv_conv::kernels::{conv2d_direct_par, ker_shape, workload};
use distconv_cost::Conv2dProblem;
use distconv_simnet::{Communicator, Machine, MachineConfig, RunError};
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{max_rel_err, Range4, Tensor4};

const TAG_IN_SCATTER: u64 = 0x0DA7_0002;
const TAG_HALO: u64 = 0x0DA7_0003;

/// Can the spatial scheme run this layer on `procs` ranks? (Bands must
/// be wide enough that each halo comes from the immediate neighbor
/// only.)
pub fn spatial_feasible(p: &Conv2dProblem, procs: usize) -> bool {
    if procs > p.nw {
        return false;
    }
    let dist = BlockDist::new(p.nw, procs);
    let halo = p.nr.saturating_sub(p.sw);
    (0..procs.saturating_sub(1)).all(|i| p.sw * dist.len(i + 1) >= halo || i + 1 == procs - 1)
}

/// Run the spatial (width-split) scheme. Requires `procs ≤ N_w` and
/// every band to be wide enough that halos come from the immediate
/// neighbor only (`σ_w·band ≥ N_r − σ_w` for every band) — check with
/// [`spatial_feasible`].
pub fn run_spatial_parallel(
    p: Conv2dProblem,
    procs: usize,
    seed: u64,
    cfg: MachineConfig,
) -> Result<BaselineReport, RunError> {
    assert!(
        procs <= p.nw,
        "spatial parallelism cannot use more ranks ({procs}) than output columns ({})",
        p.nw
    );
    let dist = BlockDist::new(p.nw, procs);
    let halo = p.nr.saturating_sub(p.sw);
    for i in 0..procs.saturating_sub(1) {
        // Band i+1 must own the halo band i reads.
        assert!(
            p.sw * dist.len(i + 1) >= halo || i + 1 == procs - 1,
            "band {i} too narrow for single-neighbor halo exchange"
        );
    }

    let report = Machine::try_run::<f64, _, _>(procs, cfg, |rank| {
        let comm = Communicator::world(rank);
        let me = rank.id();
        let (w_lo, w_hi) = dist.range(me);
        let my_nw = w_hi - w_lo;
        // Owned input columns: [σ·w_lo, σ·w_hi), except the last band
        // which also owns the global tail.
        let x_lo = p.sw * w_lo;
        let x_hi_owned = if me == procs - 1 {
            p.in_w()
        } else {
            p.sw * w_hi
        };
        // Needed for compute: up to σ·(w_hi−1) + N_r.
        let x_hi_needed = p.sw * (w_hi - 1) + p.nr;

        // --- Placement: kernel broadcast. ---
        let mut ker_buf = if me == 0 {
            Tensor4::<f64>::random(ker_shape(&p), seed ^ crate::KER_SEED_XOR).into_vec()
        } else {
            vec![0.0; ker_shape(&p).len()]
        };
        let _lk = rank.mem().lease_or_panic(ker_buf.len() as u64);
        comm.bcast(0, &mut ker_buf);
        let ker = Tensor4::from_vec(ker_shape(&p), ker_buf);

        // --- Recurring: input band scatter from rank 0. ---
        // Trace steps: 0 = kernel placement, 1 = band scatter,
        // 2 = halo exchange, 3 = local forward.
        rank.set_step(1);
        let in_full_shape = distconv_conv::kernels::in_shape(&p);
        let owned = if me == 0 {
            let full = Tensor4::<f64>::random(in_full_shape, seed);
            let _lf = rank.mem().lease_or_panic(full.len() as u64);
            for dst in 1..procs {
                let (dw_lo, dw_hi) = dist.range(dst);
                let dx_lo = p.sw * dw_lo;
                let dx_hi = if dst == procs - 1 {
                    p.in_w()
                } else {
                    p.sw * dw_hi
                };
                let rng = Range4::new([0, 0, dx_lo, 0], [p.nb, p.nc, dx_hi, p.in_h()]);
                rank.send_vec(dst, TAG_IN_SCATTER, full.pack_range(rng));
            }
            full.slice(Range4::new(
                [0, 0, 0, 0],
                [p.nb, p.nc, x_hi_owned, p.in_h()],
            ))
        } else {
            let buf = rank.recv(0, TAG_IN_SCATTER);
            Tensor4::from_vec(
                distconv_tensor::Shape4::new(p.nb, p.nc, x_hi_owned - x_lo, p.in_h()),
                buf,
            )
        };
        let _lo = rank.mem().lease_or_panic(owned.len() as u64);

        // --- Halo exchange: send my leading columns to the left
        //     neighbor; receive my right halo. ---
        rank.set_step(2);
        let my_halo_need = x_hi_needed.saturating_sub(x_hi_owned);
        if me > 0 {
            // Left neighbor (me−1) needs columns [x_lo, x_lo + its_need).
            let (lw_lo, lw_hi) = dist.range(me - 1);
            let l_x_hi_owned = p.sw * lw_hi;
            let l_need = (p.sw * (lw_hi - 1) + p.nr).saturating_sub(l_x_hi_owned);
            let _ = lw_lo;
            let cols = l_need.min(x_hi_owned - x_lo);
            if cols > 0 {
                let rng = Range4::new([0, 0, 0, 0], [p.nb, p.nc, cols, p.in_h()]);
                rank.send_vec(me - 1, TAG_HALO, owned.pack_range(rng));
            }
        }
        // Assemble my compute window = owned ++ halo.
        let window_w = x_hi_needed - x_lo;
        let mut window =
            Tensor4::<f64>::zeros(distconv_tensor::Shape4::new(p.nb, p.nc, window_w, p.in_h()));
        let _lw = rank.mem().lease_or_panic(window.len() as u64);
        window.unpack_range(
            Range4::new([0, 0, 0, 0], [p.nb, p.nc, x_hi_owned - x_lo, p.in_h()]),
            owned.as_slice(),
        );
        if my_halo_need > 0 {
            let buf = rank.recv(me + 1, TAG_HALO);
            window.unpack_range(
                Range4::new(
                    [0, 0, x_hi_owned - x_lo, 0],
                    [p.nb, p.nc, window_w, p.in_h()],
                ),
                &buf,
            );
        }

        // --- Local forward on the band sub-problem. ---
        rank.set_step(3);
        let sub = Conv2dProblem::new(p.nb, p.nk, p.nc, p.nh, my_nw, p.nr, p.ns, p.sw, p.sh);
        // The window may be wider than the sub-problem's nominal input
        // (tail bands): trim to exactly σ(my_nw−1)+Nr columns.
        let trimmed = window.slice(Range4::new(
            [0, 0, 0, 0],
            [p.nb, p.nc, p.sw * (my_nw - 1) + p.nr, p.in_h()],
        ));
        let out = rank.time_compute(|| distconv_conv::conv2d_fast(&sub, &trimmed, &ker));
        (w_lo, out)
    })?;

    // --- Verification. ---
    let (input, ker) = workload::<f64>(&p, seed);
    let reference = conv2d_direct_par(&p, &input, &ker);
    let mut verified = true;
    for (w_lo, out) in &report.results {
        let nw = out.shape().0[2];
        let rng = Range4::new([0, 0, *w_lo, 0], [p.nb, p.nk, w_lo + nw, p.nh]);
        let expect = reference.pack_range(rng);
        if max_rel_err(out.as_slice(), &expect).is_none_or(|e| e > 1e-9) {
            verified = false;
        }
    }

    // --- Exact analytic volumes. ---
    let placement = (procs as u128 - 1) * p.size_ker();
    let plane = (p.nb * p.nc * p.in_h()) as u128;
    let scatter: u128 = (1..procs)
        .map(|i| {
            let (dw_lo, dw_hi) = dist.range(i);
            let dx_lo = p.sw * dw_lo;
            let dx_hi = if i == procs - 1 {
                p.in_w()
            } else {
                p.sw * dw_hi
            };
            (dx_hi - dx_lo) as u128 * plane
        })
        .sum();
    let halo_vol: u128 = (0..procs.saturating_sub(1))
        .map(|i| {
            let (_, w_hi) = dist.range(i);
            let owned_hi = p.sw * w_hi;
            let need = (p.sw * (w_hi - 1) + p.nr).saturating_sub(owned_hi);
            need as u128 * plane
        })
        .sum();
    Ok(BaselineReport {
        kind: BaselineKind::SpatialParallel,
        problem: p,
        procs,
        analytic_placement: placement,
        analytic_recurring: scatter + halo_vol,
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
        let p = Conv2dProblem::square(2, 4, 4, 8, 3);
        for procs in [1usize, 2, 4] {
            let r = run_spatial_parallel(p, procs, 7, MachineConfig::default())
                .expect("spatial_parallel run");
            assert!(r.verified, "P={procs}");
            assert_eq!(
                r.stats.total_elems() as u128,
                r.analytic_total(),
                "P={procs}"
            );
        }
    }

    #[test]
    fn strided_no_halo_when_stride_covers_kernel() {
        // σ = 3 ≥ Nr = 3: bands read disjoint inputs, halo = 0.
        let p = Conv2dProblem::new(1, 2, 2, 4, 4, 3, 3, 3, 3);
        let r =
            run_spatial_parallel(p, 2, 1, MachineConfig::default()).expect("spatial_parallel run");
        assert!(r.verified);
        let plane = (p.nb * p.nc * p.in_h()) as u128;
        let halo_part = r.analytic_recurring - (1..2u128).map(|_| 0).sum::<u128>() - {
            // subtract the scatter part to isolate halo
            let dist = BlockDist::new(p.nw, 2);
            let (dw_lo, _) = dist.range(1);
            (p.in_w() - p.sw * dw_lo) as u128 * plane
        };
        assert_eq!(halo_part, 0, "no halo expected for σ ≥ Nr");
    }

    #[test]
    fn uneven_bands() {
        let p = Conv2dProblem::square(2, 2, 2, 7, 3);
        let r =
            run_spatial_parallel(p, 3, 9, MachineConfig::default()).expect("spatial_parallel run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_total());
    }

    #[test]
    #[should_panic(expected = "cannot use more ranks")]
    fn too_many_ranks_rejected() {
        let p = Conv2dProblem::square(1, 2, 2, 4, 3);
        run_spatial_parallel(p, 5, 0, MachineConfig::default()).expect("spatial_parallel run");
    }
}
