//! Convolution compute kernels: references, the thread-parallel local
//! kernel, and the shared tile micro-kernel.

use distconv_cost::Conv2dProblem;
use distconv_par::pool;
use distconv_tensor::{Scalar, Shape4, Tensor4};

/// Shape of the `In` tensor for `p` (exact halo form).
pub fn in_shape(p: &Conv2dProblem) -> Shape4 {
    Shape4::new(p.nb, p.nc, p.in_w(), p.in_h())
}

/// Shape of the `Ker` tensor for `p`.
pub fn ker_shape(p: &Conv2dProblem) -> Shape4 {
    Shape4::new(p.nk, p.nc, p.nr, p.ns)
}

/// Shape of the `Out` tensor for `p`.
pub fn out_shape(p: &Conv2dProblem) -> Shape4 {
    Shape4::new(p.nb, p.nk, p.nw, p.nh)
}

/// Deterministic workload: `(In, Ker)` tensors whose elements are pure
/// functions of `(seed, coordinates)` — reproducible across crates and
/// shardable via [`Tensor4::random_window`].
pub fn workload<T: Scalar>(p: &Conv2dProblem, seed: u64) -> (Tensor4<T>, Tensor4<T>) {
    (
        Tensor4::random(in_shape(p), seed),
        Tensor4::random(ker_shape(p), seed ^ 0xABCD_EF01_2345_6789),
    )
}

/// The paper's Listing 1, `Out[b,k,w,h] = Σ_{c,r,s}
/// In[b,c,σw·w+r,σh·h+s]·Ker[k,c,r,s]`, single-threaded — the ground
/// truth every distributed run and every fast kernel is verified
/// against.
///
/// Listing 1's arithmetic in Listing 1's per-element order,
/// loop-interchanged: each `(b, k)` output plane is built with `c`, `r`
/// outermost, output rows `w` next and `h` innermost, so the plane
/// stays in L1 and `h` vectorises. Every element is still `0 + Σ` of
/// its `(c, r, s)` products in ascending order — no FMA, no
/// reassociation — so the result is bitwise Listing 1's. The verbatim
/// seven-loop nest is kept as the witness in
/// `crates/conv/tests/proptest_direct.rs`.
pub fn conv2d_direct<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
) -> Tensor4<T> {
    direct_on(&pool::Pool::new(1), p, input, ker)
}

/// Below this many multiply-adds, [`conv2d_direct_par`] (and the
/// whole-problem [`conv2d_fast`](crate::conv2d_fast)) run on the
/// calling thread: the scoped pool's spawn/join (~50–70 µs on a 2-vCPU
/// x86-64 VM) costs more than the split saves. Measured on that VM with the
/// plane body, two workers lose 0–25% up to ~1.3 M multiply-adds and
/// win 10–40% from ~2.4 M on. Serial and parallel run the same plane
/// body, so the cutoff cannot change results.
pub const PAR_MADD_CUTOFF: usize = 2_000_000;

/// Thread-parallel [`conv2d_direct`]: the same plane body, with the
/// independent `(b, k)` output planes handed to the shared thread
/// budget (`distconv_par::pool`), so the result is bitwise identical
/// at every thread count. Problems under [`PAR_MADD_CUTOFF`]
/// multiply-adds run serially.
pub fn conv2d_direct_par<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
) -> Tensor4<T> {
    let madds = p.nb * p.nk * p.nw * p.nh * p.nc * p.nr * p.ns;
    let pool = if madds < PAR_MADD_CUTOFF {
        pool::Pool::new(1)
    } else {
        pool::Pool::default()
    };
    direct_on(&pool, p, input, ker)
}

/// [`conv2d_direct`] on `pool`: the output planes are independent,
/// so the pool size cannot change the result.
fn direct_on<T: Scalar>(
    pool: &pool::Pool,
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(input.shape(), in_shape(p), "In shape mismatch");
    assert_eq!(ker.shape(), ker_shape(p), "Ker shape mismatch");
    let mut out = Tensor4::zeros(out_shape(p));
    pool.par_chunks_mut(out.as_mut_slice(), p.nw * p.nh, |bk, plane| {
        direct_plane(p, input, ker, bk / p.nk, bk % p.nk, plane)
    });
    out
}

/// The one oracle body: output plane `(b, k)`, `[N_w][N_h]`, from
/// zero. For each `(c, r)`, every output row `w` adds its `s` taps,
/// summed in a register seeded from `out[w, h]`.
fn direct_plane<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
    b: usize,
    k: usize,
    out: &mut [T],
) {
    match (p.ns, p.sh) {
        (1, 1) => plane_taps::<T, 1, 1>(p, input, ker, b, k, out),
        (3, 1) => plane_taps::<T, 3, 1>(p, input, ker, b, k, out),
        (2, 2) => plane_taps::<T, 2, 2>(p, input, ker, b, k, out),
        _ => plane_any(p, input, ker, b, k, out),
    }
}

/// [`direct_plane`] for any `(N_s, σ_h)`: the fallback for the shapes
/// [`plane_taps`] is not instantiated for.
fn plane_any<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
    b: usize,
    k: usize,
    out: &mut [T],
) {
    let (nh, yt) = (p.nh, p.in_h());
    for c in 0..p.nc {
        let in_plane = input.plane(b, c);
        for r in 0..p.nr {
            let krow = ker.row(k, c, r);
            for (w, orow) in out.chunks_exact_mut(nh).enumerate() {
                let irow = &in_plane[(p.sw * w + r) * yt..][..yt];
                for (h, o) in orow.iter_mut().enumerate() {
                    let mut acc = *o;
                    for (&x, &kv) in irow[p.sh * h..][..p.ns].iter().zip(krow) {
                        acc += x * kv;
                    }
                    *o = acc;
                }
            }
        }
    }
}

/// [`plane_any`] with `(N_s, σ_h) = (NS, SH)` fixed at compile
/// time: the tap loop unrolls into `NS` offset input slices, which
/// lets the `h` loop vectorise. Instantiated for the shapes the served
/// nets use; a runtime-`N_s` loop in the same order gains far less.
fn plane_taps<T: Scalar, const NS: usize, const SH: usize>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    ker: &Tensor4<T>,
    b: usize,
    k: usize,
    out: &mut [T],
) {
    let (nh, yt) = (p.nh, p.in_h());
    let span = SH * (nh - 1) + 1;
    for c in 0..p.nc {
        let in_plane = input.plane(b, c);
        for r in 0..p.nr {
            let krow: [T; NS] = ker.row(k, c, r).try_into().expect("N_s taps");
            for w in 0..p.nw {
                let irow = &in_plane[(p.sw * w + r) * yt..][..yt];
                let taps: [&[T]; NS] = std::array::from_fn(|s| &irow[s..][..span]);
                let orow = &mut out[w * nh..][..nh];
                for (h, o) in orow.iter_mut().enumerate() {
                    let mut acc = *o;
                    for s in 0..NS {
                        acc += taps[s][SH * h] * krow[s];
                    }
                    *o = acc;
                }
            }
        }
    }
}

/// The tile micro-kernel shared by the GVM executor and the distributed
/// algorithm: accumulate one tile's contribution on **local, rebased**
/// buffers.
///
/// * `out_tile`: `[T_b, T_k, T_w, T_h]`, accumulated in place.
/// * `in_tile`:  `[T_b, T_c, X_t, Y_t]` where
///   `X_t ≥ σw·(T_w−1)+N_r`, `Y_t ≥ σh·(T_h−1)+N_s` — the halo window
///   for this tile, with local origin at the tile's first input pixel.
/// * `ker_tile`: `[T_k, T_c, N_r, N_s]`.
pub fn conv_tile<T: Scalar>(
    p: &Conv2dProblem,
    out_tile: &mut Tensor4<T>,
    in_tile: &Tensor4<T>,
    ker_tile: &Tensor4<T>,
) {
    let [tb, tk, tw, th] = out_tile.shape().0;
    let [tb2, tc, xt, yt] = in_tile.shape().0;
    let [tk2, tc2, nr, ns] = ker_tile.shape().0;
    assert_eq!(tb, tb2, "batch tile mismatch");
    assert_eq!(tk, tk2, "k tile mismatch");
    assert_eq!(tc, tc2, "c tile mismatch");
    assert_eq!((nr, ns), (p.nr, p.ns), "kernel extent mismatch");
    assert!(
        xt >= p.sw * (tw - 1) + p.nr && yt >= p.sh * (th - 1) + p.ns,
        "input tile window too small: {xt}x{yt} for out {tw}x{th}"
    );
    for b in 0..tb {
        for k in 0..tk {
            for w in 0..tw {
                for h in 0..th {
                    let mut acc = out_tile[[b, k, w, h]];
                    for c in 0..tc {
                        for r in 0..nr {
                            for s in 0..ns {
                                acc += in_tile[[b, c, p.sw * w + r, p.sh * h + s]]
                                    * ker_tile[[k, c, r, s]];
                            }
                        }
                    }
                    out_tile[[b, k, w, h]] = acc;
                }
            }
        }
    }
}

/// Weight gradient for the training-step example:
/// `dKer[k,c,r,s] = Σ_{b,w,h} dOut[b,k,w,h] · In[b,c,σw·w+r,σh·h+s]`.
pub fn grad_ker<T: Scalar>(
    p: &Conv2dProblem,
    input: &Tensor4<T>,
    d_out: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(input.shape(), in_shape(p), "In shape mismatch");
    assert_eq!(d_out.shape(), out_shape(p), "dOut shape mismatch");
    let mut d_ker = Tensor4::zeros(ker_shape(p));
    for k in 0..p.nk {
        for c in 0..p.nc {
            for r in 0..p.nr {
                for s in 0..p.ns {
                    let mut acc = T::zero();
                    for b in 0..p.nb {
                        for w in 0..p.nw {
                            // Row views hoist the 4-D offset arithmetic
                            // out of the h loop without reordering the
                            // (b, w, h) reduction.
                            let orow = d_out.row(b, k, w);
                            let irow = input.row(b, c, p.sw * w + r);
                            for (h, &ov) in orow.iter().enumerate() {
                                acc += ov * irow[p.sh * h + s];
                            }
                        }
                    }
                    d_ker[[k, c, r, s]] = acc;
                }
            }
        }
    }
    d_ker
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_tensor::assert_close;

    fn toy() -> Conv2dProblem {
        Conv2dProblem::square(2, 3, 4, 5, 3)
    }

    #[test]
    fn direct_known_value() {
        // 1x1x1 problem with 1x1 kernel: Out = In·Ker.
        let p = Conv2dProblem::new(1, 1, 1, 1, 1, 1, 1, 1, 1);
        let mut input = Tensor4::<f64>::zeros(in_shape(&p));
        let mut ker = Tensor4::<f64>::zeros(ker_shape(&p));
        input[[0, 0, 0, 0]] = 3.0;
        ker[[0, 0, 0, 0]] = 4.0;
        let out = conv2d_direct(&p, &input, &ker);
        assert_eq!(out[[0, 0, 0, 0]], 12.0);
    }

    #[test]
    fn direct_sum_kernel_is_box_filter() {
        // All-ones kernel and input: every output = Nc·Nr·Ns.
        let p = toy();
        let input = Tensor4::from_vec(in_shape(&p), vec![1.0f64; in_shape(&p).len()]);
        let ker = Tensor4::from_vec(ker_shape(&p), vec![1.0f64; ker_shape(&p).len()]);
        let out = conv2d_direct(&p, &input, &ker);
        for &v in out.as_slice() {
            assert_eq!(v, (p.nc * p.nr * p.ns) as f64);
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // The witness is the seven-loop tile kernel from a zero tile:
        // Listing 1's order. The larger shapes (one specialised and one
        // generic (N_s, σ_h)) are above the cutoff, and the explicit
        // two-worker pool splits the planes even under DISTCONV_THREADS=1.
        // f32, where these sums round and so depend on order.
        for p in [
            toy(),
            Conv2dProblem::new(4, 16, 16, 16, 16, 3, 3, 1, 1),
            Conv2dProblem::new(4, 16, 16, 12, 12, 4, 4, 2, 3),
        ] {
            let (input, ker) = workload::<f32>(&p, 42);
            let mut witness = Tensor4::zeros(out_shape(&p));
            conv_tile(&p, &mut witness, &input, &ker);
            for out in [
                conv2d_direct(&p, &input, &ker),
                conv2d_direct_par(&p, &input, &ker),
                direct_on(&pool::Pool::new(2), &p, &input, &ker),
            ] {
                assert_eq!(out.as_slice(), witness.as_slice(), "{p:?}");
            }
        }
    }

    #[test]
    fn strided_conv_correct() {
        // σ = 2 on both axes: the oracle's generic-(N_s, σ_h) plane body
        // against the seven-loop witness, bitwise.
        let p = Conv2dProblem::new(1, 2, 2, 3, 3, 3, 3, 2, 2);
        let (input, ker) = workload::<f64>(&p, 9);
        let a = conv2d_direct(&p, &input, &ker);
        let mut witness = Tensor4::zeros(out_shape(&p));
        conv_tile(&p, &mut witness, &input, &ker);
        assert_eq!(a.as_slice(), witness.as_slice(), "strided");
        assert_eq!(a.shape(), Shape4::new(1, 2, 3, 3));
    }

    #[test]
    fn tile_kernel_whole_problem_matches_direct() {
        // One tile covering everything must equal the reference.
        let p = toy();
        let (input, ker) = workload::<f64>(&p, 11);
        let mut out = Tensor4::zeros(out_shape(&p));
        // in_tile needs rebased layout [b, c, x, y] == whole input here.
        conv_tile(&p, &mut out, &input, &ker);
        let reference = conv2d_direct(&p, &input, &ker);
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn tile_kernel_accumulates_channel_splits() {
        // Splitting c into two tiles and accumulating must reproduce the
        // whole result — the invariant the c-innermost schedule relies on.
        let p = toy();
        let (input, ker) = workload::<f64>(&p, 13);
        let reference = conv2d_direct(&p, &input, &ker);
        let mut out = Tensor4::zeros(out_shape(&p));
        for c0 in [0usize, 2] {
            let in_slice = input.slice(distconv_tensor::Range4::new(
                [0, c0, 0, 0],
                [p.nb, c0 + 2, p.in_w(), p.in_h()],
            ));
            let ker_slice = ker.slice(distconv_tensor::Range4::new(
                [0, c0, 0, 0],
                [p.nk, c0 + 2, p.nr, p.ns],
            ));
            conv_tile(&p, &mut out, &in_slice, &ker_slice);
        }
        assert_close(out.as_slice(), reference.as_slice(), 1e-12, "c-split");
    }

    #[test]
    fn grad_ker_matches_finite_difference() {
        // d/dKer[k0,c0,r0,s0] of Σ Out·dOut — check one coordinate by
        // linearity: perturbing Ker by ε at one coordinate changes
        // Σ (Out·dOut) by ε·dKer[coordinate].
        let p = Conv2dProblem::square(1, 2, 2, 3, 2);
        let (input, ker) = workload::<f64>(&p, 21);
        let d_out = Tensor4::random(out_shape(&p), 77);
        let g = grad_ker(&p, &input, &d_out);
        let eps = 1e-6;
        let coord = [1usize, 1, 1, 0];
        let mut ker2 = ker.clone();
        ker2[coord] += eps;
        let f = |kk: &Tensor4<f64>| -> f64 {
            let out = conv2d_direct(&p, &input, kk);
            out.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let fd = (f(&ker2) - f(&ker)) / eps;
        assert!(
            (fd - g[coord]).abs() < 1e-5,
            "finite difference {fd} vs analytic {}",
            g[coord]
        );
    }

    #[test]
    #[should_panic(expected = "In shape mismatch")]
    fn shape_mismatch_panics() {
        let p = toy();
        let bad = Tensor4::<f64>::zeros(Shape4::new(1, 1, 1, 1));
        let ker = Tensor4::zeros(ker_shape(&p));
        let _ = conv2d_direct(&p, &bad, &ker);
    }
}
