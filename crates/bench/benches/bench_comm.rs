//! Wall-clock bench: the double-buffered communication pipelines — the
//! simulator primitives they are built from, all four distributed
//! matmul algorithms, and the CNN executor.
//!
//! The distmm headline runs the representative layer's im2col GEMM
//! (Nb=4, Nc=64, Nk=64, 56×56, 3×3 ⇒ m=12544, n=64, k=576) on the
//! in-process transport and additionally reports the per-rank
//! comm-wait vs compute breakdown from the machine's `TimingSnapshot`,
//! so the derived fields show *where* a step's time goes, not just
//! the wall clock.
//!
//! `cargo bench -p distconv-bench --bench bench_comm -- --json [PATH]`
//! additionally writes the measurements to `PATH` (default
//! `BENCH_comm.json` at the workspace root) in the `distconv-bench-v1`
//! schema — see `scripts/bench_compare.sh` for diffing two such files.

use distconv_bench::{write_json_report, BenchRecord, Suite};
use distconv_core::{execute, NetworkPlan, RunOptions};
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_distmm::{
    cannon_rank_body, dns3d_rank_body, s25d_rank_body, summa_rank_body, MatmulDims,
};
use distconv_simnet::{CartGrid, Communicator, Machine, MachineConfig, Rank, TimingSnapshot};
use distconv_tensor::Matrix;
use distconv_trace::TraceConfig;
use std::hint::black_box;

/// The representative layer's im2col GEMM: Nb=4, Nc=64, Nk=64, 56×56,
/// 3×3 stride 1 ⇒ `C[12544×64] = A[12544×576] · B[576×64]`.
fn rep_gemm() -> MatmulDims {
    MatmulDims::new(4 * 56 * 56, 64, 64 * 3 * 3)
}

/// Multiply-adds ×2 for one distributed matmul.
fn mm_flops(d: &MatmulDims) -> u64 {
    2 * (d.m * d.n * d.k) as u64
}

/// Blocking vs nonblocking collective starts and the owned vs borrowed
/// point-to-point exchange — the substrate primitives the pipelines
/// are built from.
fn bench_collective_starts(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("comm_primitives");
    let len = 64 * 1024usize;
    for procs in [4usize, 8] {
        let moved = (len * (procs - 1)) as u64;
        g.bench_throughput(format!("bcast/ranks{procs}"), Some(moved), || {
            Machine::run::<f32, _, _>(procs, MachineConfig::default(), |rank| {
                let comm = Communicator::world(rank);
                let mut buf = vec![1.0f32; len];
                comm.bcast(0, &mut buf);
                black_box(buf[0])
            })
        });
        g.bench_throughput(format!("ibcast/ranks{procs}"), Some(moved), || {
            Machine::run::<f32, _, _>(procs, MachineConfig::default(), |rank| {
                let comm = Communicator::world(rank);
                let payload = if rank.id() == 0 {
                    vec![1.0f32; len]
                } else {
                    Vec::new()
                };
                let buf = comm.ibcast(0, payload).wait();
                black_box(buf[0])
            })
        });
    }
    for (label, owned) in [("sendrecv/borrowed", false), ("sendrecv_vec/owned", true)] {
        g.bench_throughput(label, Some(2 * len as u64), move || {
            Machine::run::<f32, _, _>(2, MachineConfig::default(), move |rank| {
                let grid = CartGrid::new(vec![2]);
                let world: Vec<usize> = (0..2).collect();
                let comm = grid.sub_comm(rank, rank.id(), &world, &[0]);
                let me = rank.id();
                let v = vec![me as f32; len];
                let got = if owned {
                    comm.sendrecv_vec(1 - me, 1 - me, v)
                } else {
                    comm.sendrecv(1 - me, 1 - me, &v)
                };
                black_box(got[0])
            })
        });
    }
    records.extend(g.finish());
}

/// Per-rank average comm-wait and compute milliseconds of one run.
fn per_rank_ms(t: &TimingSnapshot, p: usize) -> (f64, f64) {
    (
        t.comm_wait_ns as f64 / p as f64 / 1e6,
        t.compute_ns as f64 / p as f64 / 1e6,
    )
}

/// One distmm algorithm's pipeline: wall time in the suite, plus the
/// comm-wait/compute breakdown of a single instrumented run as derived
/// fields.
fn bench_distmm_alg<F>(
    alg: &str,
    p: usize,
    d: &MatmulDims,
    records: &mut Vec<BenchRecord>,
    derived: &mut Vec<(String, f64)>,
    body: F,
) where
    F: Fn(&Rank<f32>) -> Matrix<f32> + Send + Sync + Copy,
{
    let flops = mm_flops(d);
    let cfg = MachineConfig::default();
    let mut g = Suite::new(format!("distmm_{alg}_rep"));
    g.bench_flops("overlapped", flops, move || {
        let report = Machine::run::<f32, _, _>(p, cfg, body);
        black_box(report.results.len())
    });
    let report = Machine::run::<f32, _, _>(p, cfg, body);
    let (wait_ms, comp_ms) = per_rank_ms(&report.timing, p);
    derived.push((format!("{alg}_comm_wait_ms"), wait_ms));
    derived.push((format!("{alg}_compute_ms"), comp_ms));
    records.extend(g.finish());
}

/// The CNN executor on a mid-size layer: the pipelined halo and filter
/// exchange (wall time; the executor aggregates the same timing
/// counters internally).
fn bench_gvm_executor(records: &mut Vec<BenchRecord>) {
    let layer = Conv2dProblem::square(4, 16, 16, 16, 3);
    let plan: NetworkPlan = Planner::new(layer, MachineSpec::new(4, 1 << 22))
        .plan()
        .expect("plan rep layer")
        .into();
    let plan = &plan;
    let mut g = Suite::new("gvm_executor_comm");
    g.bench("overlapped", move || {
        let opts = RunOptions { verify: false };
        let run = execute::<f32>(plan, 7, MachineConfig::default(), opts).expect("executor run");
        black_box(run.report.stats.total_msgs())
    });
    records.extend(g.finish());
}

/// Tracing overhead on the representative-layer GEMM: the default-on
/// ring tracing vs `TraceConfig::off()`, same algorithm, same machine.
/// The acceptance budget (DESIGN.md §9) is < 5 % wall-clock; the
/// measured percentage is committed as the
/// `trace_overhead_pct_cannon_rep` derived field.
fn bench_trace_overhead(records: &mut Vec<BenchRecord>, derived: &mut Vec<(String, f64)>) {
    let d = rep_gemm();
    let flops = mm_flops(&d);
    let mut g = Suite::new("trace_overhead_rep");
    for (label, trace) in [
        ("traced", TraceConfig::default()),
        ("untraced", TraceConfig::off()),
    ] {
        let cfg = MachineConfig {
            trace,
            ..MachineConfig::default()
        };
        g.bench_flops(label, flops, move || {
            let report =
                Machine::run::<f32, _, _>(4, cfg, move |rank| cannon_rank_body(rank, &d, 2));
            black_box(report.results.len())
        });
    }
    let recs = g.finish();
    let median = |label: &str| -> Option<f64> {
        recs.iter().find(|r| r.label == label).map(|r| r.median_ns)
    };
    if let (Some(traced), Some(untraced)) = (median("traced"), median("untraced")) {
        if untraced > 0.0 {
            let pct = (traced / untraced - 1.0) * 100.0;
            println!("\ntracing overhead (Cannon 2x2, rep GEMM): {pct:.2}%");
            derived.push(("trace_overhead_pct_cannon_rep".into(), pct));
        }
    }
    records.extend(recs);
}

fn main() {
    let mut records = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();
    bench_collective_starts(&mut records);

    let d = rep_gemm();
    bench_distmm_alg("cannon", 4, &d, &mut records, &mut derived, move |rank| {
        cannon_rank_body(rank, &d, 2)
    });
    bench_distmm_alg("summa", 4, &d, &mut records, &mut derived, move |rank| {
        summa_rank_body(rank, &d, 2, 2)
    });
    bench_distmm_alg("s25d", 8, &d, &mut records, &mut derived, move |rank| {
        s25d_rank_body(rank, &d, 2, 2)
    });
    bench_distmm_alg("dns3d", 8, &d, &mut records, &mut derived, move |rank| {
        dns3d_rank_body(rank, &d, 2)
    });
    bench_gvm_executor(&mut records);
    bench_trace_overhead(&mut records, &mut derived);

    let derived: Vec<(&str, f64)> = derived.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_json_report("BENCH_comm.json", &records, &derived);
}
