//! Logical multi-dimensional processor grids (paper Sec. 2.2's
//! `P_b × P_k × P_c × P_h × P_w` view), with fiber sub-communicator
//! construction.
//!
//! A [`CartGrid`] is pure topology arithmetic — it maps between linear
//! member indices and multi-dimensional coordinates, and computes the
//! *fibers* (all indices agreeing with a point except along chosen
//! dimensions) that the paper's broadcasts run along. Pairing a fiber's
//! member list with a [`crate::Communicator`] gives the MPI
//! `Cart_sub` equivalent.

use crate::comm::Communicator;
use crate::rank::{Msg, Rank};

/// A row-major multi-dimensional grid over member indices
/// `0..dims.product()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CartGrid {
    dims: Vec<usize>,
}

impl CartGrid {
    /// A grid with the given extents (all positive).
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(
            !dims.is_empty() && dims.iter().all(|&d| d > 0),
            "bad grid {dims:?}"
        );
        CartGrid { dims }
    }

    /// Grid extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total grid points.
    pub fn total(&self) -> usize {
        self.dims.iter().product()
    }

    /// Linear index of `coords` (row-major: last dimension fastest).
    pub fn index_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len());
        let mut idx = 0;
        for (c, d) in coords.iter().zip(&self.dims) {
            assert!(c < d, "coords {coords:?} out of grid {:?}", self.dims);
            idx = idx * d + c;
        }
        idx
    }

    /// Coordinates of linear index `idx`.
    pub fn coords_of(&self, mut idx: usize) -> Vec<usize> {
        assert!(idx < self.total(), "index {idx} out of grid");
        let mut coords = vec![0; self.dims.len()];
        for i in (0..self.dims.len()).rev() {
            coords[i] = idx % self.dims[i];
            idx /= self.dims[i];
        }
        coords
    }

    /// The fiber through `coords` along `vary`: all grid indices whose
    /// coordinates equal `coords` outside `vary`, ordered row-major over
    /// the `vary` dimensions (so every member computes the identical
    /// list). `vary` must be strictly increasing.
    pub fn fiber(&self, coords: &[usize], vary: &[usize]) -> Vec<usize> {
        assert!(
            vary.windows(2).all(|w| w[0] < w[1]),
            "vary dims must be strictly increasing: {vary:?}"
        );
        assert!(
            vary.iter().all(|&d| d < self.ndim()),
            "vary dim out of range: {vary:?}"
        );
        let mut out = Vec::new();
        let mut cur = coords.to_vec();
        self.fiber_rec(&mut cur, vary, 0, &mut out);
        out
    }

    fn fiber_rec(&self, cur: &mut Vec<usize>, vary: &[usize], level: usize, out: &mut Vec<usize>) {
        if level == vary.len() {
            out.push(self.index_of(cur));
            return;
        }
        let d = vary[level];
        for v in 0..self.dims[d] {
            cur[d] = v;
            self.fiber_rec(cur, vary, level + 1, out);
        }
        cur[d] = 0;
    }

    /// Context id for a fiber communicator: unique per (vary-set, fixed
    /// coordinates), so concurrent fibers never share tags.
    pub fn fiber_ctx(&self, coords: &[usize], vary: &[usize]) -> u32 {
        // Hash the vary mask and the coordinates *outside* vary.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x100_0000_01b3);
        };
        for &d in vary {
            mix(&mut h, d as u64 + 1);
        }
        mix(&mut h, 0xFF);
        for (i, &c) in coords.iter().enumerate() {
            if !vary.contains(&i) {
                mix(&mut h, ((i as u64) << 32) | c as u64);
            }
        }
        // Keep clear of the hand-assigned low ctx values.
        ((h >> 33) as u32) | 0x8000_0000
    }

    /// Build the fiber sub-communicator through the calling rank's grid
    /// position along `vary`. `members_base` maps grid index → world
    /// rank (usually the identity slice `&world_members`).
    ///
    /// Panics on a bad member mapping (duplicates, nonexistent ranks, a
    /// fiber that excludes the caller).
    pub fn sub_comm<'a, T: Msg>(
        &self,
        rank: &'a Rank<T>,
        my_grid_index: usize,
        members_base: &[usize],
        vary: &[usize],
    ) -> Communicator<'a, T> {
        let coords = self.coords_of(my_grid_index);
        let fiber = self.fiber(&coords, vary);
        let world: Vec<usize> = fiber.iter().map(|&g| members_base[g]).collect();
        let ctx = self.fiber_ctx(&coords, vary);
        Communicator::new(rank, world, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn index_roundtrip() {
        let g = CartGrid::new(vec![2, 3, 4]);
        assert_eq!(g.total(), 24);
        for i in 0..24 {
            assert_eq!(g.index_of(&g.coords_of(i)), i);
        }
        assert_eq!(g.coords_of(0), vec![0, 0, 0]);
        assert_eq!(g.coords_of(1), vec![0, 0, 1]); // last dim fastest
        assert_eq!(g.coords_of(4), vec![0, 1, 0]);
    }

    #[test]
    fn fibers_partition_the_grid() {
        let g = CartGrid::new(vec![2, 3, 4]);
        // Fibers along dim 1 from every point with coords[1] = 0
        // partition the grid into 2·4 = 8 disjoint fibers of length 3.
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..2 {
            for c in 0..4 {
                let f = g.fiber(&[a, 0, c], &[1]);
                assert_eq!(f.len(), 3);
                for idx in f {
                    assert!(seen.insert(idx), "index {idx} in two fibers");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn fiber_order_is_row_major() {
        let g = CartGrid::new(vec![2, 2, 2]);
        let f = g.fiber(&[1, 0, 1], &[0, 1]);
        // vary over dims 0,1 with dim2 fixed at 1: (0,0,1),(0,1,1),(1,0,1),(1,1,1)
        assert_eq!(
            f,
            vec![
                g.index_of(&[0, 0, 1]),
                g.index_of(&[0, 1, 1]),
                g.index_of(&[1, 0, 1]),
                g.index_of(&[1, 1, 1])
            ]
        );
    }

    #[test]
    fn fiber_same_for_all_members() {
        let g = CartGrid::new(vec![3, 4]);
        let f0 = g.fiber(&[0, 2], &[0]);
        let f1 = g.fiber(&[2, 2], &[0]);
        assert_eq!(f0, f1, "fiber must not depend on position along vary dims");
    }

    #[test]
    fn distinct_fibers_distinct_ctx() {
        let g = CartGrid::new(vec![2, 4]);
        let c_row0 = g.fiber_ctx(&[0, 1], &[1]);
        let c_row1 = g.fiber_ctx(&[1, 1], &[1]);
        assert_ne!(c_row0, c_row1, "different rows must get different ctx");
        let c_same = g.fiber_ctx(&[0, 3], &[1]);
        assert_eq!(
            c_row0, c_same,
            "same fiber, same ctx regardless of vary coord"
        );
    }

    #[test]
    fn grid_subcomm_broadcasts_along_fiber() {
        // 2×3 grid: broadcast along dim 1 (rows of 3).
        let g = CartGrid::new(vec![2, 3]);
        let world: Vec<usize> = (0..6).collect();
        let r = Machine::run::<f64, _, _>(6, MachineConfig::default(), move |rank| {
            let comm = g.sub_comm(rank, rank.id(), &world, &[1]);
            assert_eq!(comm.size(), 3);
            let row = rank.id() / 3;
            let mut buf = if comm.me() == 0 {
                vec![row as f64 * 10.0]
            } else {
                vec![-1.0]
            };
            comm.bcast(0, &mut buf);
            buf[0]
        });
        assert_eq!(r.results, vec![0.0, 0.0, 0.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn bad_coords_panic() {
        let g = CartGrid::new(vec![2, 2]);
        let _ = g.index_of(&[2, 0]);
    }
}
