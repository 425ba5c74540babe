//! Backend equivalence: every algorithmic observable of a run —
//! results, communication counters, peak memory, Lamport makespan, and
//! the canonical trace digest — must be **bitwise identical** between
//! the thread-per-rank backend and the discrete-event backend.
//!
//! This is the contract that makes the event backend's thousand-rank
//! sweeps evidence about the *algorithms* rather than about the
//! simulator: DESIGN.md §10 explains why the property holds (FIFO
//! `(src, tag)` matching, sender-side counters, schedule-independent
//! Lamport clock rules); this suite pins it on the GVM conv executor,
//! all four distmm algorithms, a baseline, and property-sampled shapes,
//! and checks that concurrent event-backend machines (one per serving
//! cluster) do not perturb each other.
//!
//! Shapes are sampled from a seeded PRNG (override with
//! `DISTCONV_PROPTEST_SEED` to explore; failures print the seed).

use distconv_baselines::run_data_parallel;
use distconv_core::{execute, NetworkPlan, RunOptions};
use distconv_cost::{Conv2dProblem, MachineSpec, Planner};
use distconv_distmm::{run_25d, run_cannon, run_dns3d, run_summa, MatmulDims};
use distconv_simnet::{Backend, MachineConfig};

fn cfg_for(backend: Backend) -> MachineConfig {
    MachineConfig {
        backend,
        ..MachineConfig::default()
    }
}

/// Deterministic SplitMix64 (the workspace's standard PRNG idiom).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

fn sample_seed() -> u64 {
    std::env::var("DISTCONV_PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xD15C_0B0D)
}

#[test]
fn conv_executor_is_backend_equivalent() {
    // The representative layer of the trace-determinism golden, plus
    // sampled layers: run on both backends, compare everything.
    let seed = sample_seed();
    let mut rng = Rng(seed);
    let mut layers = vec![Conv2dProblem::square(4, 16, 16, 8, 3)];
    for _ in 0..2 {
        layers.push(Conv2dProblem::square(
            rng.range(2, 4),
            4 * rng.range(2, 4),
            4 * rng.range(2, 4),
            8,
            3,
        ));
    }
    for problem in layers {
        let plan = Planner::new(problem, MachineSpec::new(8, 1 << 20))
            .plan()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: no plan for {problem:?}: {e}"));
        let plan = NetworkPlan::from(plan);
        let run = |backend| {
            execute::<f64>(&plan, 23, cfg_for(backend), RunOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed:#x} {backend:?}: {e}"))
        };
        let (ra, rb) = (run(Backend::Thread), run(Backend::Event));
        assert_eq!(ra.report.stats, rb.report.stats, "seed {seed:#x} counters");
        assert_eq!(ra.peak_mem, rb.peak_mem, "seed {seed:#x} peak memory");
        assert_eq!(
            ra.report.makespan.to_bits(),
            rb.report.makespan.to_bits(),
            "seed {seed:#x} makespan"
        );
        assert_eq!(
            ra.trace.digest(),
            rb.trace.digest(),
            "seed {seed:#x} canonical trace digest"
        );
        assert_eq!(ra.outputs.len(), rb.outputs.len());
        for (a, b) in ra.outputs.iter().zip(&rb.outputs) {
            assert_eq!(a, b, "seed {seed:#x} output slices differ");
        }
    }
}

#[test]
fn distmm_algorithms_are_backend_equivalent() {
    // Sampled dims for all four matmul algorithms. `verified` already
    // checks numerics against the sequential reference; the cross-
    // backend assertions check counters, makespan, and trace digest.
    let seed = sample_seed();
    let mut rng = Rng(seed ^ 0xA11);
    for case in 0..3 {
        let d = MatmulDims::new(
            6 * rng.range(2, 5),
            6 * rng.range(2, 5),
            6 * rng.range(2, 5),
        );
        type Runner = Box<dyn Fn(Backend) -> distconv_distmm::MmReport>;
        let runs: Vec<(&str, Runner)> = vec![
            (
                "summa",
                Box::new(move |b| run_summa(d, 2, 3, cfg_for(b)).unwrap()),
            ),
            (
                "cannon",
                Box::new(move |b| run_cannon(d, 3, cfg_for(b)).unwrap()),
            ),
            (
                "dns3d",
                Box::new(move |b| run_dns3d(d, 2, cfg_for(b)).unwrap()),
            ),
            (
                "s25d",
                Box::new(move |b| run_25d(d, 2, 2, cfg_for(b)).unwrap()),
            ),
        ];
        for (name, run) in runs {
            let a = run(Backend::Thread);
            let b = run(Backend::Event);
            assert!(
                a.verified && b.verified,
                "seed {seed:#x} {name} case {case}"
            );
            assert_eq!(a.stats, b.stats, "seed {seed:#x} {name} counters");
            assert_eq!(
                a.max_peak_mem, b.max_peak_mem,
                "seed {seed:#x} {name} peak memory"
            );
            assert_eq!(
                a.makespan.to_bits(),
                b.makespan.to_bits(),
                "seed {seed:#x} {name} makespan"
            );
            assert_eq!(
                a.trace.digest(),
                b.trace.digest(),
                "seed {seed:#x} {name} canonical trace digest"
            );
        }
    }
}

#[test]
fn baseline_is_backend_equivalent() {
    let p = Conv2dProblem::square(8, 8, 8, 8, 3);
    let run = |backend| run_data_parallel(p, 4, 7, true, cfg_for(backend)).unwrap();
    let a = run(Backend::Thread);
    let b = run(Backend::Event);
    assert!(a.verified && b.verified);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.max_peak_mem, b.max_peak_mem);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.trace.digest(), b.trace.digest());
}

#[test]
fn event_backend_reproduces_the_golden_trace_digests() {
    // The committed goldens of tests/trace_determinism.rs, reproduced
    // on the event backend: the strongest single equivalence statement,
    // because the digest covers every span of every rank.
    const CONV_GOLDEN_DIGEST: u64 = 0x7872_a055_3ccd_7382;
    let p = Conv2dProblem::square(4, 16, 16, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
        .plan()
        .unwrap();
    let run = execute::<f64>(
        &plan.into(),
        23,
        cfg_for(Backend::Event),
        RunOptions::default(),
    )
    .unwrap();
    assert!(run.report.verified);
    assert_eq!(
        run.trace.digest(),
        CONV_GOLDEN_DIGEST,
        "event backend moved the conv golden digest (got {:#018x})",
        run.trace.digest()
    );
}

#[test]
fn concurrent_event_machines_match_sequential_runs() {
    // The serving layer with two clusters runs two event machines at
    // once, each on its own OS thread. Each machine's coroutines live
    // on its own thread, so the two runs must reproduce the sequential
    // ones bitwise: outputs, counters, peak memory and makespan.
    let chain = [
        Conv2dProblem::new(2, 8, 4, 8, 8, 3, 3, 1, 1),
        Conv2dProblem::new(2, 8, 8, 6, 6, 3, 3, 1, 1),
        Conv2dProblem::new(2, 4, 8, 4, 4, 3, 3, 1, 1),
    ];
    let plans = [4usize, 8].map(|p| {
        NetworkPlan::plan_tuned(&chain, MachineSpec::new(p, 1 << 20)).expect("chain plans")
    });
    let run = |plan: &NetworkPlan, seed: u64| {
        let run = execute::<f64>(plan, seed, cfg_for(Backend::Event), RunOptions::default())
            .expect("verified");
        let (report, outputs) = (run.report, run.outputs);
        let outputs: Vec<_> = outputs
            .into_iter()
            .map(|(coords, origin, slice)| (coords, origin, slice.into_vec()))
            .collect();
        (
            report.stats,
            report.max_peak_mem,
            report.makespan.to_bits(),
            outputs,
        )
    };
    let seeds = [11u64, 12, 13];
    let sequential: Vec<Vec<_>> = plans
        .iter()
        .map(|plan| seeds.iter().map(|&s| run(plan, s)).collect())
        .collect();
    let concurrent: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| scope.spawn(move || seeds.iter().map(|&s| run(plan, s)).collect()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        sequential == concurrent,
        "concurrent event machines diverged"
    );
}
