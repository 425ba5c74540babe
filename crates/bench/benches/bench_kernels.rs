//! Wall-clock bench: local convolution kernels — the paper-literal
//! reference loops vs the packed im2col-GEMM fast path and the
//! runtime-dispatched SIMD micro-kernel, with a GFLOP/s column and a
//! machine-readable trajectory.
//!
//! **Record policy:** the legacy labels (`conv_tile/reference`,
//! `conv_tile_fast/packed`, `conv2d_fast/whole`, the sweep's
//! `direct`/`direct_par`/`fast`) are pinned to the **scalar**
//! micro-kernel so their GFLOP/s trajectory stays comparable across
//! commits and hosts; the `*_simd` labels run on the active (env +
//! CPUID resolved) path. A startup note names the selected ISA so a
//! scalar-host (or `DISTCONV_SIMD=off`) run is never mistaken for a
//! vectorized one.
//!
//! The `conv_oracle_nets` suite times the verification oracle itself:
//! `conv2d_direct` / `conv2d_direct_par` chained over the served nets
//! in f64, where `bench_compare`'s `direct_par` guard also applies.
//!
//! `cargo bench -p distconv-bench --bench bench_kernels -- --json [PATH]`
//! additionally writes the measurements (plus the headline
//! `speedup_fast_over_reference` / `speedup_simd_over_scalar` on the
//! representative ResNet-style layer) to `PATH` (default
//! `BENCH_kernels.json`) in the `distconv-bench-v1` schema — see `scripts/bench_compare.sh` for
//! diffing two such files across commits.

use distconv_bench::{autotune_nets, bench_report_json, BenchRecord, Suite};
use distconv_conv::kernels::{
    conv2d_direct, conv2d_direct_par, conv_tile, in_shape, ker_shape, out_shape, workload,
};
use distconv_conv::{conv2d_fast, conv_tile_fast, ConvScratch};
use distconv_cost::Conv2dProblem;
use distconv_tensor::simd::{self, SimdPath};
use distconv_tensor::Tensor4;
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

/// Smaller layer shapes: the three scalar-pinned local kernels side by
/// side, plus the SIMD fast path.
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
            g.bench_flops("direct_par", flops, || {
                black_box(conv2d_direct_par(&p, &input, &ker))
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

/// The oracle as the serving path runs it: `direct` and `direct_par`
/// chained over each served net's layer list in f64, every layer's
/// output feeding the next. GFLOP/s is over the whole chain.
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
        g.bench_flops(format!("{name}/direct_par"), flops, || {
            black_box(chain(conv2d_direct_par))
        });
    }
    records.extend(g.finish());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_kernels.json".to_string())
    });

    // One-line ISA note: which micro-kernel path the unpinned records
    // (`*_simd`) actually ran on.
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
    bench_oracle_nets(&mut records);

    for (k, v) in &derived {
        println!("{k}: {v:.2}x");
    }
    if let Some(path) = json_path {
        let json = bench_report_json(&records, &derived);
        std::fs::write(&path, json + "\n").expect("write bench json");
        println!("wrote {path}");
    }
}
