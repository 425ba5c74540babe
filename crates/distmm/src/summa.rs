//! 2D SUMMA (van de Geijn & Watts, 1997) on the simulated machine.
//!
//! Layout: a `pr × pc` grid; every matrix is block-distributed over it
//! (`A` by `(m/pr, k/pc)` blocks, `B` by `(k/pr, n/pc)`, `C` by
//! `(m/pr, n/pc)`). The multiply iterates over panels of the `k`
//! dimension; for each panel, the grid column owning those `A` columns
//! broadcasts them along each row, the grid row owning those `B` rows
//! broadcasts them along each column, and every rank accumulates a
//! local block product.
//!
//! Exact total volume with binomial broadcasts:
//! `(pc−1)·m·k + (pr−1)·k·n` — pinned in tests against the measured
//! counters, validating both the algorithm and the simulator.

use crate::common::{full_a, full_b, shard_a, shard_b, MatmulDims, MmReport};
use crate::local::matmul_blocked_par;
use distconv_simnet::{CartGrid, Machine, MachineConfig, Rank, RunError};
use distconv_tensor::matrix::matmul_acc;
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{Matrix, Scalar};

/// Panel boundaries along `k`: the union of `A`'s column-block and
/// `B`'s row-block boundaries, so every panel has a single owner in
/// both distributions.
pub(crate) fn panel_bounds(k: usize, pr: usize, pc: usize) -> Vec<usize> {
    let da = BlockDist::new(k, pc);
    let db = BlockDist::new(k, pr);
    let mut cuts: Vec<usize> = (0..=pc)
        .map(|i| da.lo(i))
        .chain((0..=pr).map(|i| db.lo(i)))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Per-rank SUMMA body: returns this rank's `C` block.
///
/// `rank.id()` is interpreted row-major on the `pr × pc` grid.
///
/// The panel loop is double-buffered: the two broadcasts for panel
/// `t+1` are *posted* (root sends go out immediately) before panel `t`
/// is waited for and multiplied.
pub fn summa_rank_body<T: Scalar + distconv_simnet::Msg>(
    rank: &Rank<T>,
    d: &MatmulDims,
    pr: usize,
    pc: usize,
) -> Matrix<T> {
    assert_eq!(rank.size(), pr * pc, "grid size mismatch");
    let grid = CartGrid::new(vec![pr, pc]);
    let coords = grid.coords_of(rank.id());
    let (i, j) = (coords[0], coords[1]);
    let world: Vec<usize> = (0..rank.size()).collect();
    let row_comm = grid.sub_comm(rank, rank.id(), &world, &[1]); // vary j
    let col_comm = grid.sub_comm(rank, rank.id(), &world, &[0]); // vary i

    let rows_m = BlockDist::new(d.m, pr);
    let cols_k_a = BlockDist::new(d.k, pc);
    let rows_k_b = BlockDist::new(d.k, pr);
    let cols_n = BlockDist::new(d.n, pc);

    let (mi_lo, mi_hi) = rows_m.range(i);
    let (ka_lo, ka_hi) = cols_k_a.range(j);
    let (kb_lo, kb_hi) = rows_k_b.range(i);
    let (nj_lo, nj_hi) = cols_n.range(j);

    // Materialize local blocks (data assumed pre-distributed).
    let a_block = shard_a::<T>(d, mi_lo, mi_hi - mi_lo, ka_lo, ka_hi - ka_lo);
    let b_block = shard_b::<T>(d, kb_lo, kb_hi - kb_lo, nj_lo, nj_hi - nj_lo);
    let mut c_block = Matrix::<T>::zeros(mi_hi - mi_lo, nj_hi - nj_lo);
    let _lease = rank
        .mem()
        .lease_or_panic((a_block.len() + b_block.len() + c_block.len()) as u64);

    let cuts = panel_bounds(d.k, pr, pc);
    let panels: Vec<(usize, usize)> = cuts
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0], w[1]))
        .collect();
    // Post both broadcasts for a panel: the owner packs its piece and
    // its tree sends go out immediately; non-owners pass an empty
    // payload (ignored — they receive on wait).
    let post = |k0: usize, k1: usize| {
        let kk = k1 - k0;
        let ja = cols_k_a.owner(k0);
        let a_payload = if j == ja {
            a_block.pack_block(0, k0 - ka_lo, mi_hi - mi_lo, kk)
        } else {
            Vec::new()
        };
        let ib = rows_k_b.owner(k0);
        let b_payload = if i == ib {
            b_block.pack_block(k0 - kb_lo, 0, kk, nj_hi - nj_lo)
        } else {
            Vec::new()
        };
        (
            row_comm.ibcast(ja, a_payload),
            col_comm.ibcast(ib, b_payload),
        )
    };
    // Prime the pipeline with panel 0, then per step: post the
    // broadcasts for panel t+1, wait for panel t, multiply. A posted
    // broadcast is stamped with the panel it carries.
    rank.set_step(0);
    let mut pending = panels.first().map(|&(k0, k1)| post(k0, k1));
    for (t, &(k0, k1)) in panels.iter().enumerate() {
        let (pa, pb) = pending.take().expect("pipeline primed");
        if let Some(&(n0, n1)) = panels.get(t + 1) {
            rank.set_step(t as u64 + 1);
            pending = Some(post(n0, n1));
        }
        rank.set_step(t as u64);
        let kk = k1 - k0;
        let _pl = rank.mem().lease_or_panic(((mi_hi - mi_lo) * kk) as u64);
        let a_panel = pa.wait();
        let _pl2 = rank.mem().lease_or_panic((kk * (nj_hi - nj_lo)) as u64);
        let b_panel = pb.wait();
        let a_m = Matrix::from_vec(mi_hi - mi_lo, kk, a_panel);
        let b_m = Matrix::from_vec(kk, nj_hi - nj_lo, b_panel);
        rank.time_compute(|| matmul_blocked_par(&mut c_block, &a_m, &b_m));
    }
    c_block
}

/// Exact analytic total volume of SUMMA on a `pr × pc` grid:
/// `(pc−1)·m·k + (pr−1)·k·n`.
pub fn summa_analytic_volume(d: &MatmulDims, pr: usize, pc: usize) -> u128 {
    (pc as u128 - 1) * d.size_a() + (pr as u128 - 1) * d.size_b()
}

/// Drive a full SUMMA run: execute, verify every block against the
/// sequential reference, report measured vs analytic volumes.
pub fn run_summa(
    d: MatmulDims,
    pr: usize,
    pc: usize,
    cfg: MachineConfig,
) -> Result<MmReport, RunError> {
    let report = Machine::try_run::<f64, _, _>(pr * pc, cfg, |rank| {
        summa_rank_body::<f64>(rank, &d, pr, pc)
    })?;
    let verified = verify_blocks(&d, pr, pc, &report.results);
    Ok(MmReport {
        dims: d,
        procs: pr * pc,
        analytic_volume: summa_analytic_volume(&d, pr, pc),
        verified,
        max_peak_mem: report.max_peak_mem(),
        sim_time: report.sim_time,
        makespan: report.makespan,
        stats: report.stats,
        trace: report.trace,
    })
}

/// Check every rank's `C` block against the sequential product.
pub(crate) fn verify_blocks(d: &MatmulDims, pr: usize, pc: usize, blocks: &[Matrix<f64>]) -> bool {
    let a = full_a::<f64>(d);
    let b = full_b::<f64>(d);
    let mut c_ref = Matrix::zeros(d.m, d.n);
    matmul_acc(&mut c_ref, &a, &b);
    let rows = BlockDist::new(d.m, pr);
    let cols = BlockDist::new(d.n, pc);
    let grid = CartGrid::new(vec![pr, pc]);
    for (id, block) in blocks.iter().enumerate() {
        let coords = grid.coords_of(id);
        let (r0, r1) = rows.range(coords[0]);
        let (c0, c1) = cols.range(coords[1]);
        if block.rows() != r1 - r0 || block.cols() != c1 - c0 {
            return false;
        }
        for bi in 0..block.rows() {
            for bj in 0..block.cols() {
                let got = block[(bi, bj)];
                let want = c_ref[(r0 + bi, c0 + bj)];
                let denom = want.abs().max(1.0);
                if (got - want).abs() / denom > 1e-9 {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_surfaces_injected_crash() {
        use distconv_simnet::{FailureKind, FaultPlan};
        let d = MatmulDims::new(16, 16, 16);
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_crash(0, 1),
            ..MachineConfig::default()
        };
        let err = run_summa(d, 2, 2, cfg).expect_err("crash must fail the run");
        assert!(err.has_injected_crash());
        assert!(err
            .failures
            .iter()
            .any(|f| f.rank == 0 && f.kind == FailureKind::Crash));
    }

    #[test]
    fn summa_square_grid_exact_volume() {
        let d = MatmulDims::new(32, 24, 40);
        let r = run_summa(d, 2, 2, MachineConfig::default()).expect("summa run");
        assert!(r.verified, "result mismatch");
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
        assert_eq!(r.analytic_volume, (32 * 40 + 40 * 24) as u128);
    }

    #[test]
    fn summa_rectangular_grids() {
        let d = MatmulDims::new(30, 20, 25); // non-divisible everywhere
        for (pr, pc) in [(1usize, 4usize), (4, 1), (2, 3), (3, 2)] {
            let r = run_summa(d, pr, pc, MachineConfig::default()).expect("summa run");
            assert!(r.verified, "grid {pr}x{pc}");
            assert_eq!(
                r.stats.total_elems() as u128,
                summa_analytic_volume(&d, pr, pc),
                "grid {pr}x{pc}"
            );
        }
    }

    #[test]
    fn summa_single_rank_no_traffic() {
        let d = MatmulDims::square(16);
        let r = run_summa(d, 1, 1, MachineConfig::default()).expect("summa run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems(), 0);
    }

    #[test]
    fn summa_volume_scales_with_grid_width() {
        // Doubling pc roughly doubles the A broadcast term.
        let d = MatmulDims::square(32);
        let v2 = run_summa(d, 2, 2, MachineConfig::default())
            .expect("summa run")
            .stats
            .total_elems();
        let v4 = run_summa(d, 2, 4, MachineConfig::default())
            .expect("summa run")
            .stats
            .total_elems();
        assert!(v4 > v2, "wider grid must move more A data: {v4} vs {v2}");
    }

    #[test]
    fn conformance_cross_checks_trace_against_counters() {
        let d = MatmulDims::new(30, 20, 25);
        let r = run_summa(d, 2, 3, MachineConfig::default()).expect("summa run");
        let rep = r.conformance("summa");
        assert!(rep.pass(), "conformance failed:\n{rep}");
        // One total-volume row plus one cross-check row per rank.
        assert_eq!(rep.rows.len(), 1 + 6, "{rep}");
        assert!(rep.rows[0].name.contains("summa/total-volume"));
    }

    #[test]
    fn conformance_names_a_regressed_row() {
        let d = MatmulDims::square(16);
        let mut r = run_summa(d, 2, 2, MachineConfig::default()).expect("summa run");
        r.analytic_volume += 1; // simulate a volume regression
        let rep = r.conformance("summa");
        assert!(!rep.pass());
        assert_eq!(rep.failures()[0].name, "summa/total-volume");
    }

    #[test]
    fn overlapped_pipeline_records_timing_breakdown() {
        use distconv_simnet::Machine;
        // The point of the pipeline: the report's timing breakdown has
        // both a comm-wait and a compute component (host wall time, not
        // part of the deterministic counters).
        let d = MatmulDims::new(48, 48, 48);
        let report = Machine::run::<f64, _, _>(4, MachineConfig::default(), move |rank| {
            summa_rank_body(rank, &d, 2, 2)
        });
        let t = report.timing;
        assert!(t.compute_ns > 0, "compute time should be recorded");
        assert!(t.comm_wait_ns > 0, "comm-wait time should be recorded");
    }

    #[test]
    fn panel_bounds_union() {
        // k=10, pc=2 cuts {0,5,10}; pr=3 cuts {0,4,7,10}.
        assert_eq!(panel_bounds(10, 3, 2), vec![0, 4, 5, 7, 10]);
    }
}
