//! 2.5D matrix multiplication (Solomonik & Demmel, 2011) on the
//! simulated machine.
//!
//! Grid `c × p₁ × p₁` (`c` layers of a `p₁ × p₁` SUMMA grid,
//! `P = c·p₁²`), coordinates `(l, i, j)`:
//!
//! 1. The `k` dimension is cut into `c` **slabs**; layer `l` receives
//!    slab `l` of `A`'s columns and `B`'s rows from the layer-0 owners
//!    (point-to-point redistribution — each input element travels to
//!    exactly one layer).
//! 2. Each layer runs SUMMA panel steps over its own slab on its
//!    `p₁ × p₁` grid, producing a **partial `C`** — the replicated
//!    tensor (`c` copies of `C` live simultaneously, which is where the
//!    extra memory goes; exactly analogous to the CNN paper's
//!    replication of `Out` along the `c` grid dimension).
//! 3. Partial `C`s are reduced along `l` to layer 0.
//!
//! Exact total volume with binomial trees and even slabs:
//!
//! ```text
//! (c−1)/c·(m·k + k·n)        redistribution
//! + (p₁−1)·(m·k + k·n)       panel broadcasts (grid is narrower!)
//! + (c−1)·m·n                C reduction
//! ```
//!
//! At fixed `P`, growing `c` shrinks `p₁ = √(P/c)` and with it the
//! dominant panel term: memory buys communication. `c = 1` degenerates
//! to exact 2D SUMMA; `c = p₁` reaches the 3D regime.

use crate::common::{shard_a, shard_b, MatmulDims, MmReport};
use crate::local::matmul_blocked_par;
use crate::summa::verify_blocks;
use distconv_simnet::{CartGrid, Machine, MachineConfig, Rank, RunError};
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{Matrix, Scalar};

const TAG_A_SLAB: u64 = 0x25D0_000A;
const TAG_B_SLAB: u64 = 0x25D0_000B;

/// Panel boundaries inside `[s_lo, s_hi)`: slab edges plus any `A`
/// column-block or `B` row-block boundary falling inside the slab.
fn slab_panels(s_lo: usize, s_hi: usize, k: usize, p1: usize) -> Vec<usize> {
    let da = BlockDist::new(k, p1);
    let mut cuts: Vec<usize> = (0..=p1)
        .map(|i| da.lo(i))
        .filter(|&x| x > s_lo && x < s_hi)
        .collect();
    cuts.push(s_lo);
    cuts.push(s_hi);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Per-rank 2.5D body: returns this rank's reduced `C` block on layer 0
/// (empty matrix on other layers).
///
/// The per-layer SUMMA panel loop is double-buffered exactly as in
/// [`summa_rank_body`](crate::summa::summa_rank_body): the broadcasts
/// for panel `t+1` are posted before panel `t` is waited for and
/// multiplied.
pub fn s25d_rank_body<T: Scalar + distconv_simnet::Msg>(
    rank: &Rank<T>,
    d: &MatmulDims,
    p1: usize,
    c: usize,
) -> Matrix<T> {
    assert_eq!(rank.size(), c * p1 * p1, "grid size mismatch");
    let grid = CartGrid::new(vec![c, p1, p1]);
    let coords = grid.coords_of(rank.id());
    let (l, i, j) = (coords[0], coords[1], coords[2]);
    let world: Vec<usize> = (0..rank.size()).collect();
    let l_comm = grid.sub_comm(rank, rank.id(), &world, &[0]);
    let row_comm = grid.sub_comm(rank, rank.id(), &world, &[2]); // vary j
    let col_comm = grid.sub_comm(rank, rank.id(), &world, &[1]); // vary i

    let rows_m = BlockDist::new(d.m, p1);
    let dist_k = BlockDist::new(d.k, p1); // blocks of A-cols and B-rows
    let cols_n = BlockDist::new(d.n, p1);
    let slabs = BlockDist::new(d.k, c);
    let (mi_lo, mi_hi) = rows_m.range(i);
    let (ka_lo, ka_hi) = dist_k.range(j); // my A column block
    let (kb_lo, kb_hi) = dist_k.range(i); // my B row block
    let (nj_lo, nj_hi) = cols_n.range(j);
    let (s_lo, s_hi) = slabs.range(l); // my layer's slab

    // --- Step 1: slab redistribution from layer 0. ---
    // Layer-0 rank (0,i,j) owns A rows m_i × cols ka_j and B rows kb_i ×
    // cols n_j; it sends each other layer the intersection with that
    // layer's slab (possibly empty — still a message, faithfully
    // charging α).
    let my_a_cols = (ka_lo.max(s_lo), ka_hi.min(s_hi));
    let my_b_rows = (kb_lo.max(s_lo), kb_hi.min(s_hi));
    let a_cols_len = my_a_cols.1.saturating_sub(my_a_cols.0);
    let b_rows_len = my_b_rows.1.saturating_sub(my_b_rows.0);

    let (a_slab, b_slab) = if l == 0 {
        // Materialize my full blocks, ship slab pieces to other layers.
        let a_block = shard_a::<T>(d, mi_lo, mi_hi - mi_lo, ka_lo, ka_hi - ka_lo);
        let b_block = shard_b::<T>(d, kb_lo, kb_hi - kb_lo, nj_lo, nj_hi - nj_lo);
        for dest_l in 1..c {
            let (t_lo, t_hi) = slabs.range(dest_l);
            let (a0, a1) = (ka_lo.max(t_lo), ka_hi.min(t_hi));
            let a_piece = if a0 < a1 {
                a_block.pack_block(0, a0 - ka_lo, mi_hi - mi_lo, a1 - a0)
            } else {
                Vec::new()
            };
            let dest = grid.index_of(&[dest_l, i, j]);
            rank.send_vec(dest, TAG_A_SLAB, a_piece);
            let (b0, b1) = (kb_lo.max(t_lo), kb_hi.min(t_hi));
            let b_piece = if b0 < b1 {
                b_block.pack_block(b0 - kb_lo, 0, b1 - b0, nj_hi - nj_lo)
            } else {
                Vec::new()
            };
            rank.send_vec(dest, TAG_B_SLAB, b_piece);
        }
        // Keep only my own slab's intersection.
        let a_keep = if a_cols_len > 0 {
            let buf = a_block.pack_block(0, my_a_cols.0 - ka_lo, mi_hi - mi_lo, a_cols_len);
            Matrix::from_vec(mi_hi - mi_lo, a_cols_len, buf)
        } else {
            Matrix::zeros(mi_hi - mi_lo, 0)
        };
        let b_keep = if b_rows_len > 0 {
            let buf = b_block.pack_block(my_b_rows.0 - kb_lo, 0, b_rows_len, nj_hi - nj_lo);
            Matrix::from_vec(b_rows_len, nj_hi - nj_lo, buf)
        } else {
            Matrix::zeros(0, nj_hi - nj_lo)
        };
        (a_keep, b_keep)
    } else {
        let src = grid.index_of(&[0, i, j]);
        let a_buf = rank.recv(src, TAG_A_SLAB);
        let b_buf = rank.recv(src, TAG_B_SLAB);
        assert_eq!(a_buf.len(), (mi_hi - mi_lo) * a_cols_len, "A slab size");
        assert_eq!(b_buf.len(), b_rows_len * (nj_hi - nj_lo), "B slab size");
        (
            Matrix::from_vec(mi_hi - mi_lo, a_cols_len, a_buf),
            Matrix::from_vec(b_rows_len, nj_hi - nj_lo, b_buf),
        )
    };
    let _lease = rank
        .mem()
        .lease_or_panic((a_slab.len() + b_slab.len()) as u64);

    // --- Step 2: SUMMA panel steps over my slab. ---
    let mut c_block = Matrix::<T>::zeros(mi_hi - mi_lo, nj_hi - nj_lo);
    let _lc = rank.mem().lease_or_panic(c_block.len() as u64);
    let cuts = slab_panels(s_lo, s_hi, d.k, p1);
    let panels: Vec<(usize, usize)> = cuts
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0], w[1]))
        .collect();
    // Trace stamping: the slab redistribution above is step 0, panel t
    // is step t+1, the final reduction comes after the panels. A posted
    // broadcast is stamped with the panel it carries.
    let post = |k0: usize, k1: usize| {
        let kk = k1 - k0;
        let ja = dist_k.owner(k0);
        let a_payload = if j == ja {
            a_slab.pack_block(0, k0 - my_a_cols.0, mi_hi - mi_lo, kk)
        } else {
            Vec::new()
        };
        let ib = dist_k.owner(k0);
        let b_payload = if i == ib {
            b_slab.pack_block(k0 - my_b_rows.0, 0, kk, nj_hi - nj_lo)
        } else {
            Vec::new()
        };
        (
            row_comm.ibcast(ja, a_payload),
            col_comm.ibcast(ib, b_payload),
        )
    };
    rank.set_step(1);
    let mut pending = panels.first().map(|&(k0, k1)| post(k0, k1));
    for (t, &(k0, k1)) in panels.iter().enumerate() {
        let (pa, pb) = pending.take().expect("pipeline primed");
        if let Some(&(n0, n1)) = panels.get(t + 1) {
            rank.set_step(t as u64 + 2);
            pending = Some(post(n0, n1));
        }
        rank.set_step(t as u64 + 1);
        let kk = k1 - k0;
        let _pl = rank.mem().lease_or_panic(((mi_hi - mi_lo) * kk) as u64);
        let a_panel = pa.wait();
        let _pl2 = rank.mem().lease_or_panic((kk * (nj_hi - nj_lo)) as u64);
        let b_panel = pb.wait();
        let a_m = Matrix::from_vec(mi_hi - mi_lo, kk, a_panel);
        let b_m = Matrix::from_vec(kk, nj_hi - nj_lo, b_panel);
        rank.time_compute(|| matmul_blocked_par(&mut c_block, &a_m, &b_m));
    }

    // --- Step 3: reduce partial C along l to layer 0. ---
    rank.set_step(panels.len() as u64 + 1);
    let mut c_buf = c_block.into_vec();
    l_comm.reduce(0, &mut c_buf);
    if l == 0 {
        Matrix::from_vec(mi_hi - mi_lo, nj_hi - nj_lo, c_buf)
    } else {
        Matrix::zeros(0, 0)
    }
}

/// Exact analytic total volume (even or uneven slabs):
/// redistribution `Σ_{l≥1} (m + n)·slab_l`
/// `+ (p₁−1)·(m·k + k·n)` panel broadcasts
/// `+ (c−1)·m·n` reduction.
pub fn s25d_analytic_volume(d: &MatmulDims, p1: usize, c: usize) -> u128 {
    let slabs = BlockDist::new(d.k, c);
    let shipped: u128 = (1..c)
        .map(|l| slabs.len(l) as u128 * (d.m as u128 + d.n as u128))
        .sum();
    shipped + (p1 as u128 - 1) * (d.size_a() + d.size_b()) + (c as u128 - 1) * d.size_c()
}

/// Drive a 2.5D run on `c·p₁²` ranks; verify layer-0 blocks.
pub fn run_25d(
    d: MatmulDims,
    p1: usize,
    c: usize,
    cfg: MachineConfig,
) -> Result<MmReport, RunError> {
    let report = Machine::try_run::<f64, _, _>(c * p1 * p1, cfg, |rank| {
        s25d_rank_body::<f64>(rank, &d, p1, c)
    })?;
    let grid = CartGrid::new(vec![c, p1, p1]);
    let mut face = Vec::with_capacity(p1 * p1);
    for i in 0..p1 {
        for j in 0..p1 {
            face.push(report.results[grid.index_of(&[0, i, j])].clone());
        }
    }
    let verified = verify_blocks(&d, p1, p1, &face);
    Ok(MmReport {
        dims: d,
        procs: c * p1 * p1,
        analytic_volume: s25d_analytic_volume(&d, p1, c),
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
    fn s25d_exact_volume_and_result() {
        let d = MatmulDims::new(24, 16, 32);
        let r = run_25d(d, 2, 2, MachineConfig::default()).expect("25d run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
    }

    #[test]
    fn c_equals_one_degenerates_to_summa() {
        let d = MatmulDims::square(20);
        let r25 = run_25d(d, 2, 1, MachineConfig::default()).expect("25d run");
        let r2 = run_summa(d, 2, 2, MachineConfig::default()).expect("summa run");
        assert!(r25.verified && r2.verified);
        assert_eq!(r25.stats.total_elems(), r2.stats.total_elems());
        assert_eq!(
            s25d_analytic_volume(&d, 2, 1),
            summa_analytic_volume(&d, 2, 2)
        );
    }

    #[test]
    fn replication_buys_communication_at_fixed_p() {
        // P = 16: 2D as 4×4 vs 2.5D as 4 layers of 2×2, inner-dimension
        // heavy so the panel term dominates.
        let d = MatmulDims::new(32, 32, 256);
        let v2d = summa_analytic_volume(&d, 4, 4);
        let v25 = s25d_analytic_volume(&d, 2, 4);
        assert!(v25 < v2d, "2.5D {v25} should undercut 2D {v2d}");
        let r = run_25d(d, 2, 4, MachineConfig::default()).expect("25d run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, v25);
    }

    #[test]
    fn volume_monotone_in_c_for_k_heavy_problems() {
        // With k ≫ m, n the panel term dominates and more layers help.
        let d = MatmulDims::new(16, 16, 512);
        let v1 = s25d_analytic_volume(&d, 4, 1); // P=16, 2D point
        let v4 = s25d_analytic_volume(&d, 2, 4); // P=16, c=4
        assert!(v4 < v1, "c=4 {v4} vs c=1 {v1}");
    }

    #[test]
    fn uneven_panels_verified() {
        let d = MatmulDims::new(9, 10, 11);
        let r = run_25d(d, 2, 3, MachineConfig::default()).expect("25d run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
    }

    #[test]
    fn c_memory_grows_with_layers() {
        // The replicated-C memory signature: peak per-rank memory at
        // c = 4 (P = 16) exceeds the 2D (P = 16) peak for the same
        // problem, because every layer holds a full C block.
        let d = MatmulDims::new(64, 64, 64);
        let r2 = run_summa(d, 4, 4, MachineConfig::default()).expect("summa run");
        let r25 = run_25d(d, 2, 4, MachineConfig::default()).expect("25d run");
        assert!(r25.verified);
        assert!(
            r25.max_peak_mem > r2.max_peak_mem,
            "2.5D peak {} should exceed 2D peak {}",
            r25.max_peak_mem,
            r2.max_peak_mem
        );
    }
}
