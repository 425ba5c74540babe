//! Bitwise witness for the oracle: `conv2d_direct` and
//! `conv2d_direct_par` run a loop-interchanged plane body, and must
//! still equal the paper's verbatim Listing-1 seven-loop nest (kept
//! below) bit for bit, in `f32` and `f64`. Randomized shapes cover the
//! specialised `(N_s, σ_h)` instantiations and the generic fallback,
//! strides past the kernel extent, 1×1 kernels and single-column
//! outputs. Runs on the in-tree `proptest_mini` harness (replay a
//! failing case with `DISTCONV_PROPTEST_SEED=<seed from the failure
//! report>`).

use distconv_conv::kernels::{in_shape, ker_shape, out_shape};
use distconv_conv::{conv2d_direct, conv2d_direct_par};
use distconv_cost::Conv2dProblem;
use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_tensor::{Scalar, Shape4, Tensor4};

/// The paper's Listing 1, verbatim: one accumulator per output element,
/// `(c, r, s)` ascending from zero.
fn listing1<T: Scalar>(p: &Conv2dProblem, input: &Tensor4<T>, ker: &Tensor4<T>) -> Tensor4<T> {
    let mut out = Tensor4::zeros(out_shape(p));
    for b in 0..p.nb {
        for k in 0..p.nk {
            for w in 0..p.nw {
                for h in 0..p.nh {
                    let mut acc = T::zero();
                    for c in 0..p.nc {
                        for r in 0..p.nr {
                            for s in 0..p.ns {
                                acc +=
                                    input[[b, c, p.sw * w + r, p.sh * h + s]] * ker[[k, c, r, s]];
                            }
                        }
                    }
                    out[[b, k, w, h]] = acc;
                }
            }
        }
    }
    out
}

/// Random layers: `N_r`, `N_s` in 1..=5 and σ in 1..=4 independently
/// (so σ > kernel extent and 1×1 kernels both occur), `N_h` forced to
/// 1 in a quarter of the cases, and a quarter of the cases pinned to
/// one of the specialised `(N_s, σ_h)` pairs.
fn arb_problem(g: &mut Gen) -> Conv2dProblem {
    let (mut ns, mut sh) = (g.usize_in(1, 5), g.usize_in(1, 4));
    if g.usize_in(0, 3) == 0 {
        (ns, sh) = [(1, 1), (3, 1), (2, 2)][g.usize_in(0, 2)];
    }
    let nh = if g.usize_in(0, 3) == 0 {
        1
    } else {
        g.usize_in(1, 7)
    };
    Conv2dProblem::new(
        g.usize_in(1, 3), // nb
        g.usize_in(1, 5), // nk
        g.usize_in(1, 5), // nc
        nh,
        g.usize_in(1, 7), // nw
        g.usize_in(1, 5), // nr
        ns,
        g.usize_in(1, 4), // sw
        sh,
    )
}

/// A tensor of uniform values in `[-1, 1)` with full mantissas. The
/// 21-bit values of `Tensor4::random` make every f64 sum here exact, so
/// they could not tell a reordered sum from Listing 1's.
fn arb_tensor<T: Scalar>(g: &mut Gen, shape: Shape4) -> Tensor4<T> {
    let data = (0..shape.len())
        .map(|_| T::from_f64(2.0 * g.f64_unit() - 1.0))
        .collect();
    Tensor4::from_vec(shape, data)
}

fn assert_bitwise<T: Scalar>(g: &mut Gen) {
    let p = &arb_problem(g);
    let input = arb_tensor::<T>(g, in_shape(p));
    let ker = arb_tensor::<T>(g, ker_shape(p));
    let witness = listing1(p, &input, &ker);
    let direct = conv2d_direct(p, &input, &ker);
    assert_eq!(direct.as_slice(), witness.as_slice(), "direct {p:?}");
    let par = conv2d_direct_par(p, &input, &ker);
    assert_eq!(par.as_slice(), witness.as_slice(), "direct_par {p:?}");
}

#[test]
fn direct_is_bitwise_listing1_f64() {
    check(
        "direct_is_bitwise_listing1_f64",
        Config::with_cases(96),
        assert_bitwise::<f64>,
    );
}

#[test]
fn direct_is_bitwise_listing1_f32() {
    check(
        "direct_is_bitwise_listing1_f32",
        Config::with_cases(96),
        assert_bitwise::<f32>,
    );
}
