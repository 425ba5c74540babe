//! The global-virtual-memory executor (paper Sec. 2.1).
//!
//! The machine model: `P` processors, each with a private local memory
//! of capacity `M`, sharing a *virtual global memory* that holds the
//! three tensors. A processor executes its work partition as a sequence
//! of tiles, copying tile footprints global→local before computing and
//! local→global after (Listing 3). This module executes that schedule
//! **literally** — real buffers, real copies — and counts every element
//! moved, so the analytical cost model can be validated against an
//! execution rather than against itself (experiment E3):
//!
//! * `c`-innermost schedule, stride 1: measured traffic `==` Eq. 3
//!   **exactly** (integer equality, asserted in tests).
//! * stride > 1: measured `≤` Eq. 3 (the model's `σT+N−1` halo form
//!   over-approximates the exact `σ(T−1)+N` window).
//! * `k`/`bhw`-innermost schedules: measured traffic tracks the
//!   generalized simplified objectives of `distconv-cost::simplified`.

use crate::fast::{conv_tile_fast, ConvScratch};
use crate::kernels;
use distconv_cost::simplified::InnerLoop;
use distconv_cost::{Conv2dProblem, Partition, Tiling};
use distconv_tensor::{conv_input_region, Range4, Scalar, Tensor4};

/// Traffic and memory measurements for one work partition's execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GvmMeasurement {
    /// Elements copied global→local for `In` tiles.
    pub loads_in: u128,
    /// Elements copied global→local for `Ker` tiles.
    pub loads_ker: u128,
    /// Elements copied global→local for `Out` tiles (revisits only —
    /// first visits start from zeros).
    pub loads_out: u128,
    /// Elements copied local→global for `Out` tiles.
    pub stores_out: u128,
    /// Peak concurrent local-memory use (elements).
    pub peak_local: u128,
}

impl GvmMeasurement {
    /// Total global↔local traffic (the quantity Eq. 1/3 model).
    pub fn total_traffic(&self) -> u128 {
        self.loads_in + self.loads_ker + self.loads_out + self.stores_out
    }

    fn add(&mut self, other: &GvmMeasurement) {
        self.loads_in += other.loads_in;
        self.loads_ker += other.loads_ker;
        self.loads_out += other.loads_out;
        self.stores_out += other.stores_out;
        self.peak_local = self.peak_local.max(other.peak_local);
    }
}

/// Error conditions of the GVM executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GvmError {
    /// A tile's buffer set exceeds the local-memory capacity `M`.
    TileExceedsMemory {
        /// Elements the tile set needs.
        needed: u128,
        /// The configured capacity.
        capacity: u128,
    },
    /// Tile sizes do not divide the work partition.
    IndivisibleTiling,
}

impl std::fmt::Display for GvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GvmError::TileExceedsMemory { needed, capacity } => {
                write!(f, "tile footprint {needed} exceeds local memory {capacity}")
            }
            GvmError::IndivisibleTiling => write!(f, "tile sizes must divide partition sizes"),
        }
    }
}

impl std::error::Error for GvmError {}

/// Simple single-threaded live/peak memory meter for the executor's
/// local buffers.
#[derive(Debug, Default)]
struct LocalMem {
    live: u128,
    peak: u128,
    capacity: Option<u128>,
}

impl LocalMem {
    fn acquire(&mut self, elems: u128) -> Result<(), GvmError> {
        self.live += elems;
        if let Some(cap) = self.capacity {
            if self.live > cap {
                return Err(GvmError::TileExceedsMemory {
                    needed: self.live,
                    capacity: cap,
                });
            }
        }
        self.peak = self.peak.max(self.live);
        Ok(())
    }

    fn release(&mut self, elems: u128) {
        debug_assert!(self.live >= elems);
        self.live -= elems;
    }
}

/// Executor for one processor's work partition under the GVM model.
#[derive(Clone, Copy, Debug)]
pub struct GvmExecutor {
    /// The layer.
    pub problem: Conv2dProblem,
    /// Work-partition sizes `W_i`.
    pub w: Partition,
    /// Tile sizes `T_i`.
    pub t: Tiling,
    /// Which tile loop is innermost (Listing 3 is `InnerLoop::C`).
    pub schedule: InnerLoop,
    /// Local-memory capacity `M` (elements; `None` = unmetered).
    pub capacity: Option<u128>,
}

impl GvmExecutor {
    /// Build an executor; tiles must divide the partition.
    pub fn new(
        problem: Conv2dProblem,
        w: Partition,
        t: Tiling,
        schedule: InnerLoop,
        capacity: Option<u128>,
    ) -> Result<Self, GvmError> {
        let wa = w.as_array();
        let ta = t.as_array();
        if !wa.iter().zip(ta.iter()).all(|(&wi, &ti)| wi % ti == 0) {
            return Err(GvmError::IndivisibleTiling);
        }
        Ok(GvmExecutor {
            problem,
            w,
            t,
            schedule,
            capacity,
        })
    }

    /// Execute the work partition whose grid coordinates are
    /// `part = [ib, ik, ic, ih, iw]`, accumulating into the shared
    /// `Out` (virtual global memory) and counting all traffic.
    pub fn run_partition<T: Scalar>(
        &self,
        part: [usize; 5],
        input: &Tensor4<T>,
        ker: &Tensor4<T>,
        out: &mut Tensor4<T>,
    ) -> Result<GvmMeasurement, GvmError> {
        let p = &self.problem;
        let (w, t) = (self.w, self.t);
        // Partition origin in each dimension.
        let ob = part[0] * w.wb;
        let ok = part[1] * w.wk;
        let oc = part[2] * w.wc;
        let oh = part[3] * w.wh;
        let ow = part[4] * w.ww;
        let mut meas = GvmMeasurement::default();
        let mut mem = LocalMem {
            capacity: self.capacity,
            ..LocalMem::default()
        };
        // One scratch arena for every tile of the partition: the fast
        // kernel's packing buffers grow to the high-water mark once and
        // are reused across all tile steps.
        let mut scratch = ConvScratch::<T>::new();

        // Tile-step counts.
        let (sb, sk, sc, sh, sw) = (
            w.wb / t.tb,
            w.wk / t.tk,
            w.wc / t.tc,
            w.wh / t.th,
            w.ww / t.tw,
        );

        // A tile step is identified by (jb, jk, jc, jh, jw); the three
        // schedules only differ in loop nesting / residency.
        match self.schedule {
            InnerLoop::C => {
                for jk in 0..sk {
                    for jb in 0..sb {
                        for jw in 0..sw {
                            for jh in 0..sh {
                                let out_rng = self.out_tile_range(part, [jb, jk, jh, jw]);
                                let mut out_tile = Tensor4::<T>::zeros(out_rng.shape());
                                mem.acquire(out_rng.len() as u128)?;
                                for jc in 0..sc {
                                    let c_lo = oc + jc * t.tc;
                                    self.load_and_compute(
                                        out_rng,
                                        c_lo,
                                        input,
                                        ker,
                                        &mut out_tile,
                                        &mut meas,
                                        &mut mem,
                                        &mut scratch,
                                    )?;
                                }
                                out.add_unpack_range(out_rng, out_tile.as_slice());
                                meas.stores_out += out_rng.len() as u128;
                                mem.release(out_rng.len() as u128);
                            }
                        }
                    }
                }
            }
            InnerLoop::K => {
                for jb in 0..sb {
                    for jw in 0..sw {
                        for jh in 0..sh {
                            for jc in 0..sc {
                                let c_lo = oc + jc * t.tc;
                                // In tile resident across the k loop.
                                let probe = self.out_tile_range(part, [jb, 0, jh, jw]);
                                let in_rng = conv_input_region(
                                    probe,
                                    c_lo,
                                    c_lo + t.tc,
                                    p.sw,
                                    p.sh,
                                    p.nr,
                                    p.ns,
                                );
                                let in_tile = input.slice(in_rng);
                                mem.acquire(in_rng.len() as u128)?;
                                meas.loads_in += in_rng.len() as u128;
                                for jk in 0..sk {
                                    let out_rng = self.out_tile_range(part, [jb, jk, jh, jw]);
                                    self.ker_out_step(
                                        out_rng,
                                        c_lo,
                                        jc,
                                        &in_tile,
                                        in_rng,
                                        ker,
                                        out,
                                        &mut meas,
                                        &mut mem,
                                        &mut scratch,
                                    )?;
                                }
                                mem.release(in_rng.len() as u128);
                            }
                        }
                    }
                }
            }
            InnerLoop::Bhw => {
                for jk in 0..sk {
                    for jc in 0..sc {
                        let c_lo = oc + jc * t.tc;
                        let k_lo = ok + jk * t.tk;
                        // Ker tile resident across the bhw loops.
                        let ker_rng =
                            Range4::new([k_lo, c_lo, 0, 0], [k_lo + t.tk, c_lo + t.tc, p.nr, p.ns]);
                        let ker_tile = ker.slice(ker_rng);
                        mem.acquire(ker_rng.len() as u128)?;
                        meas.loads_ker += ker_rng.len() as u128;
                        for jb in 0..sb {
                            for jw in 0..sw {
                                for jh in 0..sh {
                                    let out_rng = self.out_tile_range(part, [jb, jk, jh, jw]);
                                    self.in_out_step(
                                        out_rng,
                                        c_lo,
                                        jc,
                                        &ker_tile,
                                        input,
                                        out,
                                        &mut meas,
                                        &mut mem,
                                        &mut scratch,
                                    )?;
                                }
                            }
                        }
                        mem.release(ker_rng.len() as u128);
                    }
                }
            }
        }
        let _ = (ob, oh, ow); // origins folded into out_tile_range
        meas.peak_local = mem.peak;
        Ok(meas)
    }

    /// Global range of the output tile at step `[jb, jk, jh, jw]` of
    /// partition `part`.
    fn out_tile_range(&self, part: [usize; 5], j: [usize; 4]) -> Range4 {
        let (w, t) = (self.w, self.t);
        let b_lo = part[0] * w.wb + j[0] * t.tb;
        let k_lo = part[1] * w.wk + j[1] * t.tk;
        let h_lo = part[3] * w.wh + j[2] * t.th;
        let w_lo = part[4] * w.ww + j[3] * t.tw;
        Range4::new(
            [b_lo, k_lo, w_lo, h_lo],
            [b_lo + t.tb, k_lo + t.tk, w_lo + t.tw, h_lo + t.th],
        )
    }

    /// One `c`-innermost inner step: load In + Ker tiles, compute into
    /// the resident out tile.
    #[allow(clippy::too_many_arguments)]
    fn load_and_compute<T: Scalar>(
        &self,
        out_rng: Range4,
        c_lo: usize,
        input: &Tensor4<T>,
        ker: &Tensor4<T>,
        out_tile: &mut Tensor4<T>,
        meas: &mut GvmMeasurement,
        mem: &mut LocalMem,
        scratch: &mut ConvScratch<T>,
    ) -> Result<(), GvmError> {
        let p = &self.problem;
        let t = self.t;
        let in_rng = conv_input_region(out_rng, c_lo, c_lo + t.tc, p.sw, p.sh, p.nr, p.ns);
        let in_tile = input.slice(in_rng);
        mem.acquire(in_rng.len() as u128)?;
        meas.loads_in += in_rng.len() as u128;
        let k_lo = out_rng.lo[1];
        let ker_rng = Range4::new([k_lo, c_lo, 0, 0], [k_lo + t.tk, c_lo + t.tc, p.nr, p.ns]);
        let ker_tile = ker.slice(ker_rng);
        mem.acquire(ker_rng.len() as u128)?;
        meas.loads_ker += ker_rng.len() as u128;
        conv_tile_fast(&self.problem, out_tile, &in_tile, &ker_tile, scratch);
        mem.release(in_rng.len() as u128);
        mem.release(ker_rng.len() as u128);
        Ok(())
    }

    /// One `k`-innermost inner step: load Ker + Out tiles (Out zeroed on
    /// the first c step), compute, store Out.
    #[allow(clippy::too_many_arguments)]
    fn ker_out_step<T: Scalar>(
        &self,
        out_rng: Range4,
        c_lo: usize,
        jc: usize,
        in_tile: &Tensor4<T>,
        in_rng: Range4,
        ker: &Tensor4<T>,
        out: &mut Tensor4<T>,
        meas: &mut GvmMeasurement,
        mem: &mut LocalMem,
        scratch: &mut ConvScratch<T>,
    ) -> Result<(), GvmError> {
        let p = &self.problem;
        let t = self.t;
        let k_lo = out_rng.lo[1];
        let ker_rng = Range4::new([k_lo, c_lo, 0, 0], [k_lo + t.tk, c_lo + t.tc, p.nr, p.ns]);
        let ker_tile = ker.slice(ker_rng);
        mem.acquire(ker_rng.len() as u128)?;
        meas.loads_ker += ker_rng.len() as u128;

        mem.acquire(out_rng.len() as u128)?;
        let mut out_tile = if jc == 0 {
            Tensor4::<T>::zeros(out_rng.shape())
        } else {
            meas.loads_out += out_rng.len() as u128;
            out.slice(out_rng)
        };
        // The resident In tile covers exactly this tile's window: its
        // local origin equals in_rng.lo.
        let _ = in_rng;
        conv_tile_fast(&self.problem, &mut out_tile, in_tile, &ker_tile, scratch);
        out.unpack_range(out_rng, out_tile.as_slice());
        meas.stores_out += out_rng.len() as u128;
        mem.release(out_rng.len() as u128);
        mem.release(ker_rng.len() as u128);
        Ok(())
    }

    /// One `bhw`-innermost inner step: load In + Out tiles, compute,
    /// store Out.
    #[allow(clippy::too_many_arguments)]
    fn in_out_step<T: Scalar>(
        &self,
        out_rng: Range4,
        c_lo: usize,
        jc: usize,
        ker_tile: &Tensor4<T>,
        input: &Tensor4<T>,
        out: &mut Tensor4<T>,
        meas: &mut GvmMeasurement,
        mem: &mut LocalMem,
        scratch: &mut ConvScratch<T>,
    ) -> Result<(), GvmError> {
        let p = &self.problem;
        let t = self.t;
        let in_rng = conv_input_region(out_rng, c_lo, c_lo + t.tc, p.sw, p.sh, p.nr, p.ns);
        let in_tile = input.slice(in_rng);
        mem.acquire(in_rng.len() as u128)?;
        meas.loads_in += in_rng.len() as u128;
        mem.acquire(out_rng.len() as u128)?;
        let mut out_tile = if jc == 0 {
            Tensor4::<T>::zeros(out_rng.shape())
        } else {
            meas.loads_out += out_rng.len() as u128;
            out.slice(out_rng)
        };
        conv_tile_fast(&self.problem, &mut out_tile, &in_tile, ker_tile, scratch);
        out.unpack_range(out_rng, out_tile.as_slice());
        meas.stores_out += out_rng.len() as u128;
        mem.release(out_rng.len() as u128);
        mem.release(in_rng.len() as u128);
        Ok(())
    }

    /// Execute **all** `P` work partitions sequentially against one
    /// shared virtual global memory: returns the full `Out` and the
    /// per-partition measurements. Used to validate both correctness
    /// (against `conv2d_direct`) and Eq. 3 (per partition).
    pub fn execute_all<T: Scalar>(
        &self,
        input: &Tensor4<T>,
        ker: &Tensor4<T>,
    ) -> Result<(Tensor4<T>, Vec<GvmMeasurement>), GvmError> {
        let p = &self.problem;
        let grid = self.w.grid(p);
        let mut out = Tensor4::zeros(kernels::out_shape(p));
        let mut all = Vec::new();
        for ib in 0..grid[0] {
            for ik in 0..grid[1] {
                for ic in 0..grid[2] {
                    for ih in 0..grid[3] {
                        for iw in 0..grid[4] {
                            let m =
                                self.run_partition([ib, ik, ic, ih, iw], input, ker, &mut out)?;
                            all.push(m);
                        }
                    }
                }
            }
        }
        Ok((out, all))
    }

    /// Aggregate of [`GvmExecutor::execute_all`] measurements.
    pub fn aggregate(measurements: &[GvmMeasurement]) -> GvmMeasurement {
        let mut total = GvmMeasurement::default();
        for m in measurements {
            total.add(m);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{conv2d_direct, workload};
    use distconv_cost::exact::{eq3_cost_int, eq3_footprint_g};
    use distconv_tensor::assert_close;

    fn toy() -> Conv2dProblem {
        Conv2dProblem::square(2, 4, 4, 4, 3)
    }

    #[test]
    fn gvm_c_innermost_correct_and_exact() {
        let p = toy();
        let (input, ker) = workload::<f64>(&p, 3);
        let reference = conv2d_direct(&p, &input, &ker);
        // 4 partitions along k and c; tiles strictly smaller than W.
        let w = Partition::new(2, 2, 2, 4, 4);
        let t = Tiling::new(1, 2, 1, 2, 2);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::C, None).unwrap();
        let (out, meas) = ex.execute_all(&input, &ker).unwrap();
        assert_close(out.as_slice(), reference.as_slice(), 1e-12, "gvm-c");
        // Per-partition traffic equals Eq. 3 exactly (σ = 1).
        let model = eq3_cost_int(&p, &w, &t).unwrap();
        for (i, m) in meas.iter().enumerate() {
            assert_eq!(m.total_traffic(), model, "partition {i}");
            assert_eq!(m.loads_out, 0, "c-innermost never reloads Out");
        }
    }

    #[test]
    fn gvm_peak_memory_matches_footprint_g() {
        let p = toy();
        let (input, ker) = workload::<f32>(&p, 5);
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(1, 2, 1, 2, 2);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::C, None).unwrap();
        let (_, meas) = ex.execute_all(&input, &ker).unwrap();
        let g = eq3_footprint_g(&p, &t);
        for m in &meas {
            assert!(
                m.peak_local <= g,
                "peak {} must be within modeled footprint {g} (σ=1 ⇒ equal halos)",
                m.peak_local
            );
        }
    }

    #[test]
    fn gvm_capacity_enforced() {
        let p = toy();
        let (input, ker) = workload::<f32>(&p, 5);
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(2, 4, 2, 4, 4);
        let g = eq3_footprint_g(&p, &t);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::C, Some(g / 2)).unwrap();
        let err = ex.execute_all(&input, &ker).unwrap_err();
        assert!(matches!(err, GvmError::TileExceedsMemory { .. }));
    }

    #[test]
    fn gvm_k_innermost_correct() {
        let p = toy();
        let (input, ker) = workload::<f64>(&p, 7);
        let reference = conv2d_direct(&p, &input, &ker);
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(1, 2, 2, 2, 2);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::K, None).unwrap();
        let (out, meas) = ex.execute_all(&input, &ker).unwrap();
        assert_close(out.as_slice(), reference.as_slice(), 1e-12, "gvm-k");
        // In loaded once per (bhw, c) step: (2·2·2)·2 steps · TbTc(Tw+2)(Th+2).
        let total = GvmExecutor::aggregate(&meas);
        assert_eq!(total.loads_in, 8 * 2 * (2 * 4 * 4) as u128);
        // Out revisited on second c step: loads_out = stores for jc=1.
        assert!(total.loads_out > 0);
    }

    #[test]
    fn gvm_bhw_innermost_correct() {
        let p = toy();
        let (input, ker) = workload::<f64>(&p, 9);
        let reference = conv2d_direct(&p, &input, &ker);
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(1, 2, 2, 2, 2);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::Bhw, None).unwrap();
        let (out, meas) = ex.execute_all(&input, &ker).unwrap();
        assert_close(out.as_slice(), reference.as_slice(), 1e-12, "gvm-bhw");
        // Ker loaded once per (k, c) step: 2·2 steps of TkTcNrNs = 4·9.
        let total = GvmExecutor::aggregate(&meas);
        assert_eq!(total.loads_ker, 4 * (2 * 2 * 9) as u128);
    }

    #[test]
    fn gvm_strided_measured_at_most_model() {
        let p = Conv2dProblem::new(2, 4, 4, 4, 4, 3, 3, 2, 2);
        let (input, ker) = workload::<f64>(&p, 11);
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(1, 2, 1, 2, 2);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::C, None).unwrap();
        let (out, meas) = ex.execute_all(&input, &ker).unwrap();
        let reference = conv2d_direct(&p, &input, &ker);
        assert_close(out.as_slice(), reference.as_slice(), 1e-12, "gvm-strided");
        let model = eq3_cost_int(&p, &w, &t).unwrap();
        let m = &meas[0];
        assert!(
            m.total_traffic() <= model,
            "measured {} must be ≤ paper-form model {model} for σ > 1",
            m.total_traffic()
        );
    }

    #[test]
    fn indivisible_tiling_rejected() {
        let p = toy();
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(2, 3, 1, 2, 2); // 3 does not divide 4
        assert_eq!(
            GvmExecutor::new(p, w, t, InnerLoop::C, None).unwrap_err(),
            GvmError::IndivisibleTiling
        );
    }

    #[test]
    fn kernel_switch_is_invisible() {
        // The executor's fast tile kernel in place of the oracle's
        // loops: it accumulates in the oracle's per-element order, so
        // every schedule, including a strided layer, is bitwise equal
        // to `conv2d_direct`.
        for p in [toy(), Conv2dProblem::new(2, 4, 4, 4, 4, 3, 3, 2, 2)] {
            let (input, ker) = workload::<f64>(&p, 17);
            let reference = conv2d_direct(&p, &input, &ker);
            let w = Partition::new(2, 4, 4, 4, 4);
            let t = Tiling::new(1, 2, 2, 2, 2);
            for sched in [InnerLoop::C, InnerLoop::K, InnerLoop::Bhw] {
                let ex = GvmExecutor::new(p, w, t, sched, None).unwrap();
                let (out, _) = ex.execute_all(&input, &ker).unwrap();
                assert_eq!(out.as_slice(), reference.as_slice(), "{sched:?} {p:?}");
            }
        }
    }

    #[test]
    fn single_tile_partition_minimal_traffic() {
        // T = W = N, P = 1: one tile; traffic = |In| + |Ker| + |Out|.
        let p = toy();
        let (input, ker) = workload::<f64>(&p, 13);
        let w = Partition::new(2, 4, 4, 4, 4);
        let t = Tiling::new(2, 4, 4, 4, 4);
        let ex = GvmExecutor::new(p, w, t, InnerLoop::C, None).unwrap();
        let (_, meas) = ex.execute_all(&input, &ker).unwrap();
        let m = &meas[0];
        assert_eq!(m.loads_in, p.size_in());
        assert_eq!(m.loads_ker, p.size_ker());
        assert_eq!(m.stores_out, p.size_out());
    }
}
