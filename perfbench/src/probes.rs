//! Per-layer probes: each layer's public entry point timed from outside
//! on the workload's own models, after the timed windows.

use crate::stats::median;
use crate::workloads::{degraded_plan, Workload};
use distconv_conv::kernels::{in_shape, ker_shape};
use distconv_conv::{conv2d_direct_par, conv2d_fast};
use distconv_core::{dispatch_batch, run_network, NetworkPlan, NetworkReport};
use distconv_par::SplitMix64;
use distconv_simnet::{FaultPlan, Machine, MachineConfig};
use distconv_tensor::Tensor4;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions behind each probe median.
const REPS: usize = 7;

/// One model's layer timings (medians, ms) and exact per-run counts.
pub struct ModelProbe {
    pub nb: usize,
    /// `dispatch_batch` (served models) or `run_network` (net_scale).
    pub dispatch_ms: f64,
    /// The chained `conv2d_direct_par` reference over the whole net.
    pub oracle_ms: f64,
    /// `conv2d_fast` over each layer's full problem, summed.
    pub kernel_ms: f64,
    pub plan_ms: f64,
    /// `plan_tuned` over the survivors of one lost rank.
    pub replan_ms: f64,
    /// Inter-rank messages per run, algorithmic plus redistribution.
    pub msgs: f64,
    pub redist_elems: f64,
    /// Floating-point operations (2 × multiply-adds) of one pass.
    pub flops: f64,
}

/// What the probes measured for a workload.
pub struct Probes {
    pub models: Vec<ModelProbe>,
    /// `Machine::try_run` with a trivial body at the workload's rank count.
    pub spinup_ms: f64,
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn median_ms(mut f: impl FnMut()) -> f64 {
    median((0..REPS).map(|_| time_ms(&mut f)).collect())
}

pub fn run(wl: Workload, rng: &mut SplitMix64) -> Probes {
    let cfg = MachineConfig {
        faults: FaultPlan::default(),
        ..wl.machine_cfg()
    };
    let procs = wl.procs();
    let spinup_ms = median_ms(|| {
        Machine::try_run::<f64, _, _>(procs, cfg, |rank| black_box(rank.id()))
            .expect("an empty body cannot fail");
    });
    let models = wl
        .models()
        .iter()
        .map(|spec| {
            let layers = &spec.layers;
            let plan_ms = median_ms(|| {
                black_box(NetworkPlan::plan_tuned(layers, spec.machine).expect("plans"));
            });
            let replan_ms = median_ms(|| {
                black_box(degraded_plan(layers, procs).expect("a degraded plan exists"));
            });
            let plan = NetworkPlan::plan_tuned(layers, spec.machine).expect("plans");

            let mut last: Option<NetworkReport> = None;
            let dispatch_ms = median_ms(|| {
                let seed = rng.next_u64();
                let report = if wl.is_serve() {
                    dispatch_batch::<f64>(&plan, seed, cfg).map(|b| b.report)
                } else {
                    run_network::<f64>(&plan, seed, cfg)
                };
                last = Some(report.expect("probe dispatch runs clean"));
            });
            let stats = last.expect("REPS > 0").stats;

            let inputs: Vec<Tensor4<f64>> = layers
                .iter()
                .map(|l| Tensor4::random(in_shape(l), rng.next_u64()))
                .collect();
            let kers: Vec<Tensor4<f64>> = layers
                .iter()
                .map(|l| Tensor4::random(ker_shape(l), rng.next_u64()))
                .collect();
            let oracle_ms = median_ms(|| {
                let mut act = conv2d_direct_par(&layers[0], &inputs[0], &kers[0]);
                for (l, k) in layers[1..].iter().zip(&kers[1..]) {
                    act = conv2d_direct_par(l, &act, k);
                }
                black_box(act);
            });
            let kernel_ms = median_ms(|| {
                for ((l, x), k) in layers.iter().zip(&inputs).zip(&kers) {
                    black_box(conv2d_fast(l, x, k));
                }
            });
            ModelProbe {
                nb: layers[0].nb,
                dispatch_ms,
                oracle_ms,
                kernel_ms,
                plan_ms,
                replan_ms,
                msgs: (stats.total_msgs() + stats.redist.msgs) as f64,
                redist_elems: stats.redist.elems as f64,
                flops: layers.iter().map(|l| 2.0 * l.flops() as f64).sum(),
            }
        })
        .collect();
    Probes { models, spinup_ms }
}
