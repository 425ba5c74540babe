//! 3D matrix multiplication (Dekel–Nassimi–Sahni; Agarwal et al.) on
//! the simulated machine.
//!
//! Grid `p₁ × p₁ × p₁` with coordinates `(i, j, l)`; rank `(i, j, l)`
//! computes the partial product `A(i,l) · B(l,j)` and the partials are
//! reduced over `l`:
//!
//! 1. `A(i,l)` lives on the `j = 0` face; broadcast along the `j` fiber.
//! 2. `B(l,j)` lives on the `i = 0` face; broadcast along the `i` fiber.
//! 3. Local block product.
//! 4. Reduce `C(i,j)` partials along the `l` fiber to `l = 0`.
//!
//! Exact total volume with binomial trees:
//! `(p₁−1)·(m·k + k·n + m·n)` — pinned in tests. Per-rank volume decays
//! as `P^{2/3}`, the 3D algorithm's signature (vs `P^{1/2}` for 2D).

use crate::common::{shard_a, shard_b, MatmulDims, MmReport};
use crate::local::matmul_blocked_par;
use crate::summa::verify_blocks;
use distconv_simnet::{CartGrid, Machine, MachineConfig, Rank, RunError};
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{Matrix, Scalar};

/// Per-rank 3D-algorithm body: returns this rank's reduced `C` block
/// on the `l = 0` face (empty matrix elsewhere).
///
/// The 3D algorithm has a single compute step, so there is no multi-step
/// pipeline to double-buffer; the `A` and `B` face broadcasts are
/// *posted together* (both root faces send immediately) instead of
/// completing the `A` broadcast before the `B` broadcast starts.
pub fn dns3d_rank_body<T: Scalar + distconv_simnet::Msg>(
    rank: &Rank<T>,
    d: &MatmulDims,
    p1: usize,
) -> Matrix<T> {
    assert_eq!(rank.size(), p1 * p1 * p1, "grid size mismatch");
    let grid = CartGrid::new(vec![p1, p1, p1]);
    let coords = grid.coords_of(rank.id());
    let (i, j, l) = (coords[0], coords[1], coords[2]);
    let world: Vec<usize> = (0..rank.size()).collect();
    let j_comm = grid.sub_comm(rank, rank.id(), &world, &[1]);
    let i_comm = grid.sub_comm(rank, rank.id(), &world, &[0]);
    let l_comm = grid.sub_comm(rank, rank.id(), &world, &[2]);

    let rows_m = BlockDist::new(d.m, p1);
    let dist_k = BlockDist::new(d.k, p1);
    let cols_n = BlockDist::new(d.n, p1);
    let (mi_lo, mi_hi) = rows_m.range(i);
    let (kl_lo, kl_hi) = dist_k.range(l);
    let (nj_lo, nj_hi) = cols_n.range(j);

    let a_len = (mi_hi - mi_lo) * (kl_hi - kl_lo);
    let b_len = (kl_hi - kl_lo) * (nj_hi - nj_lo);
    // Post both face broadcasts before waiting for either, so the two
    // trees' sends are in flight concurrently.
    // A(i,l): materialized on the j=0 face, broadcast along j.
    let a_payload = if j == 0 {
        shard_a::<T>(d, mi_lo, mi_hi - mi_lo, kl_lo, kl_hi - kl_lo).into_vec()
    } else {
        Vec::new()
    };
    let pa = j_comm.ibcast(0, a_payload);
    // B(l,j): materialized on the i=0 face, broadcast along i.
    let b_payload = if i == 0 {
        shard_b::<T>(d, kl_lo, kl_hi - kl_lo, nj_lo, nj_hi - nj_lo).into_vec()
    } else {
        Vec::new()
    };
    let pb = i_comm.ibcast(0, b_payload);
    let _la = rank.mem().lease_or_panic(a_len as u64);
    let a_buf = pa.wait();
    let _lb = rank.mem().lease_or_panic(b_len as u64);
    let b_buf = pb.wait();

    // Local partial product.
    let a_m = Matrix::from_vec(mi_hi - mi_lo, kl_hi - kl_lo, a_buf);
    let b_m = Matrix::from_vec(kl_hi - kl_lo, nj_hi - nj_lo, b_buf);
    let mut c_part = Matrix::<T>::zeros(mi_hi - mi_lo, nj_hi - nj_lo);
    let _lc = rank.mem().lease_or_panic(c_part.len() as u64);
    rank.time_compute(|| matmul_blocked_par(&mut c_part, &a_m, &b_m));

    // Reduce partials over l to the l = 0 face. The broadcast phase is
    // stamped step 0 (the default); the reduction is its own step.
    rank.set_step(1);
    let mut c_buf = c_part.into_vec();
    l_comm.reduce(0, &mut c_buf);
    if l == 0 {
        Matrix::from_vec(mi_hi - mi_lo, nj_hi - nj_lo, c_buf)
    } else {
        Matrix::zeros(0, 0)
    }
}

/// Exact analytic total volume: `(p₁−1)·(|A| + |B| + |C|)`.
pub fn dns3d_analytic_volume(d: &MatmulDims, p1: usize) -> u128 {
    (p1 as u128 - 1) * (d.size_a() + d.size_b() + d.size_c())
}

/// Drive a 3D run on `p₁³` ranks; verify the `l = 0` face blocks.
pub fn run_dns3d(d: MatmulDims, p1: usize, cfg: MachineConfig) -> Result<MmReport, RunError> {
    let report = Machine::try_run::<f64, _, _>(p1 * p1 * p1, cfg, |rank| {
        dns3d_rank_body::<f64>(rank, &d, p1)
    })?;
    // Collect the l = 0 face in (i, j) row-major order for verification.
    let grid = CartGrid::new(vec![p1, p1, p1]);
    let mut face = Vec::with_capacity(p1 * p1);
    for i in 0..p1 {
        for j in 0..p1 {
            face.push(report.results[grid.index_of(&[i, j, 0])].clone());
        }
    }
    let verified = verify_blocks(&d, p1, p1, &face);
    Ok(MmReport {
        dims: d,
        procs: p1 * p1 * p1,
        analytic_volume: dns3d_analytic_volume(&d, p1),
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
    use crate::summa::{run_summa, summa_analytic_volume};

    #[test]
    fn dns3d_exact_volume_and_result() {
        let d = MatmulDims::new(24, 18, 30);
        let r = run_dns3d(d, 2, MachineConfig::default()).expect("dns3d run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
        assert_eq!(r.analytic_volume, (24 * 30 + 30 * 18 + 24 * 18) as u128);
    }

    #[test]
    fn dns3d_p1_equals_local() {
        let d = MatmulDims::square(12);
        let r = run_dns3d(d, 1, MachineConfig::default()).expect("dns3d run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems(), 0);
    }

    #[test]
    fn dns3d_beats_summa_at_same_proc_count() {
        // The headline trade-off: at P = 64, 3D (4³) moves less than
        // 2D SUMMA (8×8) for a square problem — the paper's Case-2 vs
        // Case-1 distinction in matmul form.
        let d = MatmulDims::square(64);
        let v3d = dns3d_analytic_volume(&d, 4);
        let v2d = summa_analytic_volume(&d, 8, 8);
        assert!(
            v3d < v2d,
            "3D volume {v3d} should undercut 2D volume {v2d} at P=64"
        );
        // And measured agrees for a small instance.
        let r3 = run_dns3d(MatmulDims::square(16), 2, MachineConfig::default()).expect("dns3d run");
        let r2 =
            run_summa(MatmulDims::square(16), 2, 4, MachineConfig::default()).expect("summa run");
        assert!(r3.verified && r2.verified);
        assert!(r3.stats.total_elems() < r2.stats.total_elems());
    }

    #[test]
    fn dns3d_uneven_blocks() {
        let d = MatmulDims::new(7, 11, 13); // nothing divides
        let r = run_dns3d(d, 2, MachineConfig::default()).expect("dns3d run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
    }
}
