//! Wall-clock bench: local convolution kernels — the paper-literal
//! reference loops vs the packed im2col-GEMM fast path and the
//! runtime-dispatched SIMD micro-kernel, with a GFLOP/s column and a
//! machine-readable trajectory.
//!
//! **Record policy:** the legacy labels (`conv_tile/reference`,
//! `conv_tile_fast/packed`, `conv2d_fast/whole`, the sweep's
//! `direct`/`fast`) are pinned to the **scalar**
//! micro-kernel so their GFLOP/s trajectory stays comparable across
//! commits and hosts; the `*_simd` labels run on the active (env +
//! CPUID resolved) path. A startup note names the selected ISA so a
//! scalar-host (or `DISTCONV_SIMD=off`) run is never mistaken for a
//! vectorized one.
//!
//! The `conv_plan_tiles` suite times the in-plan tile kernel:
//! `conv_tile_fast` on one `T_c = 1` channel step of each layer of the
//! E17 nets, at the tile shape `plan_tuned` picks for `P = 4` (the
//! serving clusters' size), in f64 and f32, on the active path
//! (`…/simd`) and pinned scalar (`…/scalar`). Labels carry the tile
//! `T_b×T_k×T_w×T_h`, so a width that misses the vector lanes shows.
//!
//! The `conv_oracle_nets` suite times the verification oracle itself:
//! `conv2d_direct` / `conv2d_direct_par` chained over the served nets
//! in f64, where `bench_compare`'s `direct_par` guard also applies;
//! `direct_par` is recorded only on chains above `PAR_MADD_CUTOFF`.
//!
//! `cargo bench -p distconv-bench --bench bench_kernels -- --json [PATH]`
//! additionally writes the measurements (plus the headline
//! `speedup_fast_over_reference` / `speedup_simd_over_scalar` on the
//! representative ResNet-style layer) to `PATH` (default
//! `BENCH_kernels.json` at the workspace root) in the
//! `distconv-bench-v1` schema — see `scripts/bench_compare.sh` for
//! diffing two such files across commits.

use distconv_bench::{autotune_nets, provenance, write_json_report, BenchRecord, Suite};
use distconv_conv::kernels::{
    conv2d_direct, conv2d_direct_par, conv_tile, in_shape, ker_shape, out_shape, workload,
    PAR_MADD_CUTOFF,
};
use distconv_conv::{conv2d_fast, conv_tile_fast, ConvScratch};
use distconv_core::NetworkPlan;
use distconv_cost::{Conv2dProblem, MachineSpec};
use distconv_tensor::simd::{self, SimdPath};
use distconv_tensor::{Scalar, Tensor4};
use std::hint::black_box;

/// Multiply-adds of one forward pass ×2 (mul + add).
fn conv_flops(p: &Conv2dProblem) -> u64 {
    2 * (p.nb * p.nk * p.nw * p.nh * p.nc * p.nr * p.ns) as u64
}

/// The acceptance shape for the fast path: a ResNet-style mid layer,
/// Nb=4, Nc=64, Nk=64, 56×56, 3×3, stride 1 (~0.92 GFLOP per pass).
fn representative() -> Conv2dProblem {
    Conv2dProblem::new(4, 64, 64, 56, 56, 3, 3, 1, 1)
}

/// Pin the scalar micro-kernel, run `f`, restore env+CPUID dispatch.
fn pinned_scalar<R>(f: impl FnOnce() -> R) -> R {
    simd::force(Some(SimdPath::Scalar));
    let r = f();
    simd::force(None);
    r
}

/// Headline suite on the representative layer (single tile covering
/// the problem, f32): reference and scalar-pinned fast baselines, then
/// the SIMD-dispatched fast path.
fn bench_conv_kernels(records: &mut Vec<BenchRecord>) -> Vec<(&'static str, f64)> {
    let p = representative();
    let flops = conv_flops(&p);
    let (input, ker) = workload::<f32>(&p, 1);
    let mut g = Suite::new("conv_kernels_rep_56x56");
    pinned_scalar(|| {
        let mut out = Tensor4::<f32>::zeros(out_shape(&p));
        g.bench_flops("conv_tile/reference", flops, || {
            conv_tile(&p, &mut out, &input, &ker);
            black_box(out.as_slice()[0])
        });
        let mut out_fast = Tensor4::<f32>::zeros(out_shape(&p));
        let mut scratch = ConvScratch::new();
        g.bench_flops("conv_tile_fast/packed", flops, || {
            conv_tile_fast(&p, &mut out_fast, &input, &ker, &mut scratch);
            black_box(out_fast.as_slice()[0])
        });
        g.bench_flops("conv2d_fast/whole", flops, || {
            black_box(conv2d_fast(&p, &input, &ker))
        });
    });
    let mut out_simd = Tensor4::<f32>::zeros(out_shape(&p));
    let mut scratch = ConvScratch::new();
    g.bench_flops("conv_tile_fast_simd", flops, || {
        conv_tile_fast(&p, &mut out_simd, &input, &ker, &mut scratch);
        black_box(out_simd.as_slice()[0])
    });
    let recs = g.finish();
    let median = |label: &str| -> Option<f64> {
        recs.iter().find(|r| r.label == label).map(|r| r.median_ns)
    };
    let mut derived = Vec::new();
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    if let Some(s) = ratio(
        median("conv_tile/reference"),
        median("conv_tile_fast/packed"),
    ) {
        derived.push(("speedup_fast_over_reference", s));
    }
    if let Some(s) = ratio(
        median("conv_tile_fast/packed"),
        median("conv_tile_fast_simd"),
    ) {
        derived.push(("speedup_simd_over_scalar", s));
    }
    records.extend(recs);
    derived
}

/// Smaller layer shapes: the scalar-pinned `direct` and `fast` kernels
/// side by side, plus the SIMD fast path. All three shapes are below
/// `PAR_MADD_CUTOFF`, where `direct_par` would run `direct`'s serial
/// code, so it is not timed here.
fn bench_layer_sweep(records: &mut Vec<BenchRecord>) {
    let layers = [
        ("early_16x16", Conv2dProblem::square(2, 8, 8, 16, 3)),
        ("mid_8x8", Conv2dProblem::square(2, 16, 16, 8, 3)),
        ("pointwise", Conv2dProblem::new(2, 32, 32, 8, 8, 1, 1, 1, 1)),
    ];
    for (name, p) in layers {
        let flops = conv_flops(&p);
        let (input, ker) = workload::<f32>(&p, 1);
        let mut g = Suite::new(format!("conv_{name}"));
        pinned_scalar(|| {
            g.bench_flops("direct", flops, || {
                black_box(conv2d_direct(&p, &input, &ker))
            });
            g.bench_flops("fast", flops, || black_box(conv2d_fast(&p, &input, &ker)));
        });
        g.bench_flops("fast_simd", flops, || {
            black_box(conv2d_fast(&p, &input, &ker))
        });
        records.extend(g.finish());
    }
}

/// Strided layers exercise the gather (σ_h > 1) and implicit (σ_h = 1)
/// column paths.
fn bench_strided(records: &mut Vec<BenchRecord>) {
    let layers = [
        ("s2x2", Conv2dProblem::new(2, 16, 16, 8, 8, 3, 3, 2, 2)),
        ("s2x1", Conv2dProblem::new(2, 16, 16, 8, 8, 3, 3, 2, 1)),
    ];
    for (name, p) in layers {
        let flops = conv_flops(&p);
        let (input, ker) = workload::<f32>(&p, 2);
        let mut g = Suite::new(format!("conv_strided_{name}"));
        pinned_scalar(|| {
            g.bench_flops("direct", flops, || {
                black_box(conv2d_direct(&p, &input, &ker))
            });
            g.bench_flops("fast", flops, || black_box(conv2d_fast(&p, &input, &ker)));
        });
        g.bench_flops("fast_simd", flops, || {
            black_box(conv2d_fast(&p, &input, &ker))
        });
        records.extend(g.finish());
    }
}

/// One channel step of every layer of the E17 nets, at the tile shape
/// `plan_tuned` gives them on `P = 4` ranks: `Out[T_b, T_k, T_w, T_h]
/// += In[T_b, 1, ·, ·] ⊛ Ker[T_k, 1, N_r, N_s]`, the call the
/// distributed forward loop makes once per received tile pair.
fn bench_plan_tiles(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("conv_plan_tiles");
    for (name, layers) in autotune_nets() {
        let plan = NetworkPlan::plan_tuned(&layers, MachineSpec::new(4, 1 << 22))
            .expect("the E17 nets plan on 4 ranks");
        for (l, lp) in plan.layers.iter().enumerate() {
            let (p, t) = (lp.problem, lp.t);
            assert_eq!(t.tc, 1, "the distributed schedule requires T_c = 1");
            let tile = Conv2dProblem::new(t.tb, t.tk, 1, t.th, t.tw, p.nr, p.ns, p.sw, p.sh);
            let case = format!("{name}_L{}/{}x{}x{}x{}", l + 1, t.tb, t.tk, t.tw, t.th);
            plan_tile_cases::<f64>(&mut g, &tile, &format!("{case}/f64"));
            plan_tile_cases::<f32>(&mut g, &tile, &format!("{case}/f32"));
        }
    }
    records.extend(g.finish());
}

/// `label/simd` on the active path, then `label/scalar` pinned.
fn plan_tile_cases<T: Scalar>(g: &mut Suite, tile: &Conv2dProblem, label: &str) {
    let flops = conv_flops(tile);
    let (input, ker) = workload::<T>(tile, 3);
    let mut out = Tensor4::<T>::zeros(out_shape(tile));
    let mut scratch = ConvScratch::new();
    let mut step = || {
        conv_tile_fast(tile, &mut out, &input, &ker, &mut scratch);
        black_box(out.as_slice()[0])
    };
    g.bench_flops(format!("{label}/simd"), flops, &mut step);
    pinned_scalar(|| g.bench_flops(format!("{label}/scalar"), flops, &mut step));
}

/// The oracle as the serving path runs it: `direct` and `direct_par`
/// chained over each served net's layer list in f64, every layer's
/// output feeding the next. GFLOP/s is over the whole chain.
/// `direct_par` is timed only on chains whose work reaches
/// `PAR_MADD_CUTOFF` (`bench_compare`'s rule): below it, it runs the
/// same serial code as `direct`.
fn bench_oracle_nets(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("conv_oracle_nets");
    for (name, layers) in autotune_nets() {
        let flops = layers.iter().map(conv_flops).sum();
        let input = Tensor4::<f64>::random(in_shape(&layers[0]), 1);
        let kers: Vec<Tensor4<f64>> = layers
            .iter()
            .enumerate()
            .map(|(i, p)| Tensor4::random(ker_shape(p), i as u64))
            .collect();
        let chain = |conv: fn(&Conv2dProblem, &Tensor4<f64>, &Tensor4<f64>) -> Tensor4<f64>| {
            let mut act = conv(&layers[0], &input, &kers[0]);
            for (p, ker) in layers.iter().zip(&kers).skip(1) {
                act = conv(p, &act, ker);
            }
            act
        };
        g.bench_flops(format!("{name}/direct"), flops, || {
            black_box(chain(conv2d_direct))
        });
        if flops / 2 >= PAR_MADD_CUTOFF as u64 {
            g.bench_flops(format!("{name}/direct_par"), flops, || {
                black_box(chain(conv2d_direct_par))
            });
        }
    }
    records.extend(g.finish());
}

fn main() {
    // Where the numbers were taken, and which micro-kernel path the
    // unpinned records (`*_simd`, `…/simd`) actually ran on.
    println!("provenance {}", provenance());
    println!(
        "micro-kernel ISA path: {} ({}={}; host supports {})",
        simd::active().name(),
        simd::SIMD_ENV,
        std::env::var(simd::SIMD_ENV).unwrap_or_else(|_| "unset".into()),
        simd::detect().name(),
    );

    let mut records = Vec::new();
    let derived = bench_conv_kernels(&mut records);
    bench_layer_sweep(&mut records);
    bench_strided(&mut records);
    bench_plan_tiles(&mut records);
    bench_oracle_nets(&mut records);

    for (k, v) in &derived {
        println!("{k}: {v:.2}x");
    }
    write_json_report("BENCH_kernels.json", &records, &derived);
}
