//! Cannon's algorithm (1969) on the simulated machine.
//!
//! The other classic 2D matmul: a square `q × q` grid where `A` blocks
//! shift left and `B` blocks shift up each step, after an initial skew.
//! Same asymptotic volume as SUMMA (`Θ(n²√P)` total) but a completely
//! different *message* structure — `O(q)` large point-to-point shifts
//! instead of `O(q log q)` broadcast-tree messages — which makes it the
//! interesting third point in the α–β time experiments (E11): Cannon
//! trades broadcast fan-out for neighbor shifts.
//!
//! Exact total volume with the skew done as a rotation:
//! `skew: Σ_i (shift_i≠0) blocks + q²·(q−1) per-step shifts` — computed
//! exactly by [`cannon_analytic_volume`] and pinned in tests.
//!
//! Requires a square grid; block sizes may be uneven (BlockDist).

use crate::common::{shard_a, shard_b, MatmulDims, MmReport};
use crate::local::matmul_blocked_par;
use crate::summa::verify_blocks;
use distconv_simnet::{CartGrid, Machine, MachineConfig, Rank, RunError};
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{Matrix, Scalar};

/// Per-rank Cannon body on a `q × q` grid: returns this rank's `C`
/// block.
///
/// Each step posts the `t+1` shift exchange *before* computing step
/// `t`'s block product, then waits — the double-buffered pipeline.
///
/// Note on uneven blocks: after skewing, block shapes no longer match a
/// fixed per-rank buffer, so every shifted message carries its own
/// extent implicitly via length; the inner dimension of the current `A`
/// block always equals the current `B` block's row count because both
/// were skewed by the same schedule.
pub fn cannon_rank_body<T: Scalar + distconv_simnet::Msg>(
    rank: &Rank<T>,
    d: &MatmulDims,
    q: usize,
) -> Matrix<T> {
    assert_eq!(rank.size(), q * q, "grid size mismatch");
    let grid = CartGrid::new(vec![q, q]);
    let coords = grid.coords_of(rank.id());
    let (i, j) = (coords[0], coords[1]);
    let world: Vec<usize> = (0..rank.size()).collect();
    let row_comm = grid.sub_comm(rank, rank.id(), &world, &[1]); // vary j
    let col_comm = grid.sub_comm(rank, rank.id(), &world, &[0]); // vary i

    let rows_m = BlockDist::new(d.m, q);
    let dist_k = BlockDist::new(d.k, q);
    let cols_n = BlockDist::new(d.n, q);
    let (mi_lo, mi_hi) = rows_m.range(i);
    let (nj_lo, nj_hi) = cols_n.range(j);

    // Initial (unskewed) blocks: A(i, j), B(i, j).
    let (ka_lo, ka_hi) = dist_k.range(j);
    let (kb_lo, kb_hi) = dist_k.range(i);
    let mut a_block = shard_a::<T>(d, mi_lo, mi_hi - mi_lo, ka_lo, ka_hi - ka_lo).into_vec();
    let mut b_block = shard_b::<T>(d, kb_lo, kb_hi - kb_lo, nj_lo, nj_hi - nj_lo).into_vec();
    // Track which k-block each buffer currently holds (for shapes).
    let mut a_kblk = j;
    let mut b_kblk = i;
    let _la = rank
        .mem()
        .lease_or_panic((a_block.len() + b_block.len()) as u64);

    // --- Skew: row i rotates A left by i; column j rotates B up by j. ---
    // A left-shift by s: my new block is the one s to my right.
    if i > 0 {
        let dst = (j + q - i) % q; // member index within the row
        let src = (j + i) % q;
        a_block = row_comm.sendrecv_vec(dst, src, a_block);
        a_kblk = (j + i) % q;
    }
    if j > 0 {
        let dst = (i + q - j) % q;
        let src = (i + j) % q;
        b_block = col_comm.sendrecv_vec(dst, src, b_block);
        b_kblk = (i + j) % q;
    }

    let mut c_block = Matrix::<T>::zeros(mi_hi - mi_lo, nj_hi - nj_lo);
    let _lc = rank.mem().lease_or_panic(c_block.len() as u64);

    // Shift A left by one, B up by one — same neighbors every step.
    let a_dst = (j + q - 1) % q;
    let a_src = (j + 1) % q;
    let b_dst = (i + q - 1) % q;
    let b_src = (i + 1) % q;

    // --- q multiply-shift steps. ---
    for step in 0..q {
        debug_assert_eq!(a_kblk, b_kblk, "skew must align k-blocks");
        let (k_lo, k_hi) = dist_k.range(a_kblk);
        let kk = k_hi - k_lo;
        // Post the t+1 exchange first (the sends copy the current
        // blocks onto the wire), compute step t while the shifted
        // blocks are in flight, then wait. The shift that feeds step
        // t+1 is stamped t+1 in the trace.
        let pending = if step + 1 < q {
            rank.set_step(step as u64 + 1);
            let pa = row_comm.isendrecv(a_dst, a_src, a_block.clone());
            let pb = col_comm.isendrecv(b_dst, b_src, b_block.clone());
            Some((pa, pb))
        } else {
            None
        };
        rank.set_step(step as u64);
        let a_m = Matrix::from_vec(mi_hi - mi_lo, kk, std::mem::take(&mut a_block));
        let b_m = Matrix::from_vec(kk, nj_hi - nj_lo, std::mem::take(&mut b_block));
        rank.time_compute(|| matmul_blocked_par(&mut c_block, &a_m, &b_m));
        if let Some((pa, pb)) = pending {
            rank.set_step(step as u64 + 1);
            a_block = pa.wait();
            b_block = pb.wait();
        }
        if step + 1 < q {
            a_kblk = (a_kblk + 1) % q;
            b_kblk = (b_kblk + 1) % q;
        }
    }
    c_block
}

/// Exact analytic total volume of Cannon on a `q × q` grid.
///
/// Skew: rows `i > 0` rotate their `A` blocks (`q` blocks of `m_i × k`
/// columns move once each), columns `j > 0` likewise for `B`. Steps:
/// `q−1` shifts of every `A` and `B` block. With uneven `BlockDist`
/// blocks the exact count sums actual block sizes; for divisible
/// dimensions it reduces to `(q−1)·(|A| + |B|) + skew`.
pub fn cannon_analytic_volume(d: &MatmulDims, q: usize) -> u128 {
    let rows_m = BlockDist::new(d.m, q);
    let dist_k = BlockDist::new(d.k, q);
    let cols_n = BlockDist::new(d.n, q);
    let mut vol: u128 = 0;
    // Skew volume: every rank in row i > 0 sends its A block once;
    // every rank in column j > 0 sends its B block once.
    for i in 0..q {
        for j in 0..q {
            let a_len = (rows_m.len(i) * dist_k.len(j)) as u128;
            let b_len = (dist_k.len(i) * cols_n.len(j)) as u128;
            if i > 0 {
                vol += a_len;
            }
            if j > 0 {
                vol += b_len;
            }
        }
    }
    // Step shifts: q−1 rounds; in each, every rank ships its *current*
    // A and B blocks. Total over rounds = (q−1)·(|A| + |B|) regardless
    // of which block sits where (blocks permute, sizes conserved).
    vol += (q as u128 - 1) * (d.size_a() + d.size_b());
    vol
}

/// Drive a Cannon run on `q²` ranks; verify all blocks.
pub fn run_cannon(d: MatmulDims, q: usize, cfg: MachineConfig) -> Result<MmReport, RunError> {
    let report =
        Machine::try_run::<f64, _, _>(q * q, cfg, |rank| cannon_rank_body::<f64>(rank, &d, q))?;
    let verified = verify_blocks(&d, q, q, &report.results);
    Ok(MmReport {
        dims: d,
        procs: q * q,
        analytic_volume: cannon_analytic_volume(&d, q),
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
    use crate::summa::run_summa;

    #[test]
    fn cannon_square_divisible() {
        let d = MatmulDims::new(24, 24, 24);
        for q in [1usize, 2, 3, 4] {
            let r = run_cannon(d, q, MachineConfig::default()).expect("cannon run");
            assert!(r.verified, "q={q}");
            assert_eq!(
                r.stats.total_elems() as u128,
                r.analytic_volume,
                "q={q}: measured vs analytic"
            );
        }
    }

    #[test]
    fn cannon_uneven_blocks() {
        let d = MatmulDims::new(7, 11, 13);
        let r = run_cannon(d, 3, MachineConfig::default()).expect("cannon run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
    }

    #[test]
    fn cannon_fewer_messages_than_summa() {
        // The structural difference E11 exploits: at the same grid,
        // Cannon sends O(q) messages per rank vs SUMMA's broadcast
        // trees.
        let d = MatmulDims::square(32);
        let rc = run_cannon(d, 4, MachineConfig::default()).expect("cannon run");
        let rs = run_summa(d, 4, 4, MachineConfig::default()).expect("summa run");
        assert!(rc.verified && rs.verified);
        // Volumes are the same order; message counts differ structurally.
        assert!(rc.stats.total_msgs() < rs.stats.total_msgs() * 2);
        let ratio = rc.stats.total_elems() as f64 / rs.stats.total_elems() as f64;
        assert!((0.5..2.5).contains(&ratio), "volume ratio {ratio}");
    }

    #[test]
    fn cannon_shift_chain_shows_in_makespan() {
        // Cannon's shifts serialize (step t+1 needs step t's block),
        // so its makespan is Θ(q) hops; SUMMA's per-panel broadcast
        // trees are Θ(log q) deep but there are more of them. Both
        // must exceed their own volume-based per-rank estimates under
        // a latency-heavy profile.
        use distconv_simnet::CostParams;
        let cfg = MachineConfig {
            cost: CostParams {
                alpha: 1e-4,
                beta: 1e-10,
            },
            ..MachineConfig::default()
        };
        let d = MatmulDims::square(32);
        let rc = run_cannon(d, 4, cfg).expect("cannon run");
        let rs = run_summa(d, 4, 4, cfg).expect("summa run");
        assert!(rc.verified && rs.verified);
        assert!(rc.makespan > 0.0 && rs.makespan > 0.0);
        // Cannon: ≥ skew + (q−1) serialized shifts ≈ 5+ hops of α.
        assert!(
            rc.makespan >= 4.0 * 1e-4,
            "Cannon makespan {} should reflect the shift chain",
            rc.makespan
        );
    }

    #[test]
    fn cannon_rectangular() {
        let d = MatmulDims::new(16, 8, 32);
        let r = run_cannon(d, 2, MachineConfig::default()).expect("cannon run");
        assert!(r.verified);
        assert_eq!(r.stats.total_elems() as u128, r.analytic_volume);
    }
}
