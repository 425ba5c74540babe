//! Simulated experiments: everything that runs on the simulated
//! machine (E3, E6, E7, E9, E10 on the thread-per-rank backend, E15 on
//! the discrete-event backend).

use super::run_layer;
use crate::table::{fnum, inum, Table};
use distconv_baselines::{
    run_data_parallel, run_filter_parallel, run_spatial_parallel, spatial_feasible,
};
use distconv_conv::gvm::GvmExecutor;
use distconv_conv::kernels::workload;
use distconv_core::expected_volumes;
use distconv_cost::exact::{constant_gap, eq3_cost_int};
use distconv_cost::simplified::InnerLoop;
use distconv_cost::{
    eq10_cost_c, eq10_cost_i, Conv2dProblem, MachineSpec, Partition, Planner, Tiling,
};
use distconv_distmm::{run_25d, run_cannon, run_dns3d, run_summa, MatmulDims};
use distconv_simnet::{Backend, CostParams, MachineConfig, StatsSnapshot};
use distconv_trace::TraceConfig;

/// **E3 / Eq. 3 exactness**: the GVM executor's measured traffic vs the
/// analytic model, across tilings and schedules.
pub fn e3_gvm_exactness() -> Table {
    let mut t = Table::new(
        "E3 — GVM executor: measured global↔local traffic vs Eq. 3",
        &[
            "tiling (Tb,Tk,Tc,Th,Tw)",
            "σ",
            "schedule",
            "measured",
            "Eq.3",
            "relation",
        ],
    );
    let cases = [
        (
            Conv2dProblem::square(2, 4, 4, 4, 3),
            Tiling::new(1, 2, 1, 2, 2),
        ),
        (
            Conv2dProblem::square(2, 4, 4, 4, 3),
            Tiling::new(2, 1, 1, 4, 1),
        ),
        (
            Conv2dProblem::square(2, 8, 8, 4, 3),
            Tiling::new(1, 4, 1, 2, 4),
        ),
        (
            Conv2dProblem::new(2, 4, 4, 4, 4, 3, 3, 2, 2),
            Tiling::new(1, 2, 1, 2, 2),
        ),
    ];
    for (p, tiling) in cases {
        let w = Partition::new(p.nb, p.nk, p.nc, p.nh, p.nw);
        let (input, ker) = workload::<f64>(&p, 17);
        for sched in [InnerLoop::C, InnerLoop::K, InnerLoop::Bhw] {
            let ex = GvmExecutor::new(p, w, tiling, sched, None).unwrap();
            let (_, meas) = ex.execute_all(&input, &ker).unwrap();
            let m = GvmExecutor::aggregate(&meas);
            let model = eq3_cost_int(&p, &w, &tiling).unwrap();
            let relation = match sched {
                InnerLoop::C => {
                    if p.sw == 1 && p.sh == 1 {
                        assert_eq!(m.total_traffic(), model, "σ=1 c-innermost must be exact");
                        "== (exact)"
                    } else {
                        assert!(m.total_traffic() <= model);
                        "≤ (σ>1 halo)"
                    }
                }
                _ => "n/a (other family)",
            };
            t.row(vec![
                format!(
                    "{},{},{},{},{}",
                    tiling.tb, tiling.tk, tiling.tc, tiling.th, tiling.tw
                ),
                format!("{}", p.sw),
                format!("{sched:?}"),
                inum(m.total_traffic()),
                inum(model),
                relation.to_string(),
            ]);
        }
    }
    t.note("Eq.3 models the c-innermost schedule; at stride 1 measured == model to the element.");
    t
}

/// Simulator-scale layers for the measured experiments.
fn sim_layers() -> Vec<(&'static str, Conv2dProblem)> {
    vec![
        ("sim/mid", Conv2dProblem::square(4, 16, 16, 8, 3)),
        ("sim/deep", Conv2dProblem::square(4, 32, 32, 4, 3)),
        (
            "sim/strided",
            Conv2dProblem::new(4, 16, 16, 8, 8, 3, 3, 2, 2),
        ),
    ]
}

/// **E6 / the distributed algorithm**: measured volume == exact schedule
/// model; peak memory vs Eq. 11; the constant-gap theorem.
pub fn e6_distributed() -> Table {
    let mut t = Table::new(
        "E6 — distributed CNN algorithm: measured vs modeled (Eq. 10/11)",
        &[
            "layer",
            "P",
            "grid",
            "measured",
            "expected",
            "eq10·P",
            "peak",
            "gd(Eq11)",
            "gap==|In|+|Ker|/P",
        ],
    );
    for (name, p) in sim_layers() {
        for procs in [4usize, 8, 16] {
            let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
                .plan()
                .unwrap();
            let r = run_layer(plan, 23, MachineConfig::default(), true).report;
            assert!(r.verified);
            assert_eq!(r.measured_total(), r.expected_total());
            let gap = plan.predicted.cost_d - plan.predicted.cost_gvm;
            let theorem = (p.size_in_paper() + p.size_ker()) as f64 / procs as f64;
            assert!((gap - theorem).abs() < 1e-6, "constant-gap theorem");
            let g = plan.grid;
            t.row(vec![
                name.into(),
                procs.to_string(),
                format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
                r.measured_total().to_string(),
                inum(r.expected_total()),
                fnum(distconv_core::model::eq10_aggregate(&plan)),
                r.max_peak_mem.to_string(),
                fnum(plan.predicted.footprint_gd),
                "yes".into(),
            ]);
        }
    }
    t.note("measured == expected to the element on every row (binomial-tree model of the realized schedule);");
    t.note("eq10·P is the paper's per-processor model aggregated — an upper bound on realized traffic.");
    t
}

/// **E7 / matmul analogy**: a 1×1 stride-1 convolution *is* the matmul
/// `Out[bhw×k] = In[bhw×c]·Ker[c×k]`; compare the distributed CNN
/// algorithm's measured volume with SUMMA / 2.5D / 3D on matching
/// grids.
pub fn e7_matmul_analogy() -> Table {
    let mut t = Table::new(
        "E7 — 1×1-conv ≡ matmul: distconv vs SUMMA/2.5D/3D measured volumes",
        &["algorithm", "P", "grid", "measured", "verified"],
    );
    // 1×1 conv: bhw = 4·8·8 = 256, c = 32, k = 32.
    let p = Conv2dProblem::new(4, 32, 32, 8, 8, 1, 1, 1, 1);
    let dims = MatmulDims::new(p.nbhw(), p.nk, p.nc);
    let cfg = MachineConfig::default();
    let procs = 16;

    // The paper's algorithm (planner free to choose the grid).
    let plan = Planner::new(p, MachineSpec::new(procs, 1 << 22))
        .plan()
        .unwrap();
    let r = run_layer(plan, 31, MachineConfig::default(), true).report;
    let g = plan.grid;
    t.row(vec![
        "distconv (Case chosen by planner)".into(),
        procs.to_string(),
        format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
        r.measured_total().to_string(),
        r.verified.to_string(),
    ]);
    // Forced 2D-family (Pc = 1): the SUMMA analog.
    let plan2d = Planner::new(p, MachineSpec::new(procs, 1 << 22))
        .with_forced_pc(1)
        .plan()
        .unwrap();
    let r2d = run_layer(plan2d, 31, MachineConfig::default(), true).report;
    let g = plan2d.grid;
    t.row(vec![
        "distconv (forced Pc=1, 2D analog)".into(),
        procs.to_string(),
        format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
        r2d.measured_total().to_string(),
        r2d.verified.to_string(),
    ]);

    // Forced replication (Pc = 4): the 2.5D/3D analog.
    if let Ok(plan3d) = Planner::new(p, MachineSpec::new(procs, 1 << 22))
        .with_forced_pc(4)
        .plan()
    {
        let r3d = run_layer(plan3d, 31, MachineConfig::default(), true).report;
        let g = plan3d.grid;
        t.row(vec![
            "distconv (forced Pc=4, 2.5D/3D analog)".into(),
            procs.to_string(),
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
            r3d.measured_total().to_string(),
            r3d.verified.to_string(),
        ]);
    }

    let s = run_summa(dims, 4, 4, cfg).expect("summa run");
    t.row(vec![
        "SUMMA-2D".into(),
        "16".into(),
        "4x4".into(),
        s.stats.total_elems().to_string(),
        s.verified.to_string(),
    ]);
    let s25 = run_25d(dims, 2, 4, cfg).expect("25d run");
    t.row(vec![
        "2.5D (c=4)".into(),
        "16".into(),
        "4x2x2".into(),
        s25.stats.total_elems().to_string(),
        s25.verified.to_string(),
    ]);
    let s3 = run_dns3d(MatmulDims::new(dims.m, dims.n, dims.k), 2, cfg).expect("dns3d run");
    t.row(vec![
        "3D (2³=8 ranks)".into(),
        "8".into(),
        "2x2x2".into(),
        s3.stats.total_elems().to_string(),
        s3.verified.to_string(),
    ]);
    let sc = run_cannon(dims, 4, cfg).expect("cannon run");
    t.row(vec![
        "Cannon (shift-based 2D)".into(),
        "16".into(),
        "4x4".into(),
        sc.stats.total_elems().to_string(),
        sc.verified.to_string(),
    ]);
    t.note("same computation, same substrate: the CNN algorithm's volumes sit in the same band as the matmul analogs;");
    t.note("the (Pbhw×Pk) CNN grid plays SUMMA's (rows×cols), Pc plays the replication depth c.");
    t
}

/// **E9 (measured)**: distconv vs the three baselines on
/// simulator-scale layers — recurring volumes per forward step.
pub fn e9_baselines() -> Table {
    let mut t = Table::new(
        "E9 — distconv vs baseline schemes (measured, simulator scale)",
        &[
            "layer",
            "P",
            "scheme",
            "recurring",
            "placement",
            "peak mem",
            "ok",
        ],
    );
    let cfg = MachineConfig::default();
    for (name, p) in sim_layers() {
        {
            let procs = 4usize;
            let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
                .plan()
                .unwrap();
            let r = run_layer(plan, 41, MachineConfig::default(), true).report;
            t.row(vec![
                name.into(),
                procs.to_string(),
                "distconv".into(),
                r.measured_total().to_string(),
                fnum(plan.predicted.cost_i * procs as f64),
                r.max_peak_mem.to_string(),
                r.verified.to_string(),
            ]);
            let dp = run_data_parallel(p, procs, 41, false, cfg).expect("data_parallel run");
            t.row(vec![
                name.into(),
                procs.to_string(),
                dp.kind.name().into(),
                inum(dp.analytic_recurring),
                inum(dp.analytic_placement),
                dp.max_peak_mem.to_string(),
                dp.verified.to_string(),
            ]);
            if spatial_feasible(&p, procs) {
                let sp = run_spatial_parallel(p, procs, 41, cfg).expect("spatial_parallel run");
                t.row(vec![
                    name.into(),
                    procs.to_string(),
                    sp.kind.name().into(),
                    inum(sp.analytic_recurring),
                    inum(sp.analytic_placement),
                    sp.max_peak_mem.to_string(),
                    sp.verified.to_string(),
                ]);
            } else {
                t.row(vec![
                    name.into(),
                    procs.to_string(),
                    "spatial-parallel".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "bands too narrow".into(),
                ]);
            }
            let fp = run_filter_parallel(p, procs, 41, cfg).expect("filter_parallel run");
            t.row(vec![
                name.into(),
                procs.to_string(),
                fp.kind.name().into(),
                inum(fp.analytic_recurring),
                inum(fp.analytic_placement),
                fp.max_peak_mem.to_string(),
                fp.verified.to_string(),
            ]);
        }
    }
    t.note("distconv 'recurring' = measured broadcast+reduction traffic; baselines' = exact analytic (== their measured totals, pinned in unit tests);");
    t.note("baselines replicate tensors (peak mem) that distconv partitions — the memory/communication trade-off.");
    t
}

/// **E9 (analytic, full scale)**: ResNet-50 / VGG-16 layers at training
/// scale — per-step communication of distconv (Eq. 10) vs data-parallel
/// gradient all-reduce, across `P`, at batch 32.
pub fn e9_baselines_analytic() -> Table {
    let nb = 32;
    let mut t = Table::new(
        format!("E9b — full-scale analytic: per-step volume/processor, batch {nb}"),
        &[
            "layer",
            "P",
            "distconv cost_C",
            "dp allreduce",
            "dp/distconv",
            "winner",
        ],
    );
    let layers = distconv_cost::presets::resnet50(nb)
        .into_iter()
        .chain(distconv_cost::presets::vgg16(nb));
    for l in layers {
        let p = l.problem;
        for procs in [16usize, 64, 256] {
            // Memory: 4 GiB of f32 words per rank.
            let mem = 1usize << 30;
            let Ok(plan) = Planner::new(p, MachineSpec::new(procs, mem)).plan() else {
                continue;
            };
            let dc = plan.predicted.cost_c;
            // Horovod recurring: 2·|Ker|·(P−1)/P per rank per step.
            let dp = 2.0 * p.size_ker() as f64 * (procs as f64 - 1.0) / procs as f64;
            let ratio = dp / dc.max(1.0);
            t.row(vec![
                l.name.into(),
                procs.to_string(),
                fnum(dc),
                fnum(dp),
                format!("{ratio:.2}"),
                if dc < dp { "distconv" } else { "data-parallel" }.into(),
            ]);
        }
    }
    t.note(
        "distconv wins where kernels are large relative to per-rank work (late layers, high P);",
    );
    t.note("data-parallel wins on wide-image early layers where its allreduce is tiny — matching the paper's motivation that no single simple scheme dominates.");
    t
}

/// **E10 / scaling**: strong scaling (fixed problem) and weak scaling
/// (batch grows with `P`) of the distributed algorithm — measured
/// volume and simulated α–β time.
pub fn e10_scaling() -> Table {
    let mut t = Table::new(
        "E10 — strong & weak scaling of the distributed algorithm",
        &["mode", "P", "grid", "measured/rank", "sim time (ms)", "ok"],
    );
    // Strong: fixed layer.
    let p = Conv2dProblem::square(8, 16, 16, 8, 3);
    for procs in [1usize, 2, 4, 8, 16] {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap();
        let r = run_layer(plan, 51, MachineConfig::default(), true).report;
        let g = plan.grid;
        t.row(vec![
            "strong".into(),
            procs.to_string(),
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
            fnum(r.measured_total() as f64 / procs as f64),
            format!("{:.3}", r.sim_time * 1e3),
            r.verified.to_string(),
        ]);
    }
    // Weak: batch scales with P.
    for procs in [1usize, 2, 4, 8] {
        let p = Conv2dProblem::square(2 * procs, 16, 16, 8, 3);
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap();
        let r = run_layer(plan, 53, MachineConfig::default(), true).report;
        let g = plan.grid;
        t.row(vec![
            "weak".into(),
            procs.to_string(),
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
            fnum(r.measured_total() as f64 / procs as f64),
            format!("{:.3}", r.sim_time * 1e3),
            r.verified.to_string(),
        ]);
    }
    t.note("volumes are per rank; sim time uses the default α–β parameters (1 µs, 100 Gb/s).");
    t
}

/// **E11 / α–β time**: the volume metric is network-agnostic; time is
/// not. Re-run each scheme under three network profiles and report the
/// **Lamport makespan** (dependency-aware: tree depths and serialized
/// shifts count, unlike a volume-based estimate).
pub fn e11_alpha_beta() -> Table {
    let mut t = Table::new(
        "E11 — α–β makespan: three network profiles (P = 8)",
        &[
            "scheme",
            "msgs",
            "elems",
            "latency-bound",
            "balanced",
            "bandwidth-bound",
        ],
    );
    let p = Conv2dProblem::square(8, 32, 32, 8, 3);
    let procs = 8;
    let profiles = [
        (
            "latency-bound",
            CostParams {
                alpha: 1e-4,
                beta: 1e-10,
            },
        ),
        ("balanced", CostParams::default()),
        (
            "bandwidth-bound",
            CostParams {
                alpha: 1e-7,
                beta: 1e-7,
            },
        ),
    ];

    // Each row: (name, closure running the scheme under a config and
    // returning (stats, makespan)).
    type RunFn = Box<dyn Fn(MachineConfig) -> (StatsSnapshot, f64)>;
    let plan = Planner::new(p, MachineSpec::new(procs, 1 << 22))
        .plan()
        .unwrap();
    let plan2d = Planner::new(p, MachineSpec::new(procs, 1 << 22))
        .with_forced_pc(1)
        .plan()
        .ok();
    let mut schemes: Vec<(String, RunFn)> = vec![(
        "distconv (planner grid)".into(),
        Box::new(move |cfg| {
            let r = run_layer(plan, 61, cfg, false).report;
            (r.stats, r.makespan)
        }),
    )];
    if let Some(p2d) = plan2d {
        schemes.push((
            "distconv (forced Pc=1)".into(),
            Box::new(move |cfg| {
                let r = run_layer(p2d, 61, cfg, false).report;
                (r.stats, r.makespan)
            }),
        ));
    }
    schemes.push((
        "data-parallel (training)".into(),
        Box::new(move |cfg| {
            let r = run_data_parallel(p, procs, 61, true, cfg).expect("data_parallel run");
            (r.stats, r.makespan)
        }),
    ));
    schemes.push((
        "filter-parallel".into(),
        Box::new(move |cfg| {
            let r = run_filter_parallel(p, procs, 61, cfg).expect("filter_parallel run");
            (r.stats, r.makespan)
        }),
    ));

    for (name, run) in &schemes {
        let mut times = Vec::new();
        let mut stats = None;
        for (_, prof) in &profiles {
            let cfg = MachineConfig {
                cost: *prof,
                ..MachineConfig::default()
            };
            let (s, mk) = run(cfg);
            times.push(mk);
            stats = Some(s);
        }
        let s = stats.unwrap();
        t.row(vec![
            name.clone(),
            s.total_msgs().to_string(),
            s.total_elems().to_string(),
            format!("{:.3} ms", times[0] * 1e3),
            format!("{:.3} ms", times[1] * 1e3),
            format!("{:.3} ms", times[2] * 1e3),
        ]);
    }
    t.note("all rows report the dependency-aware Lamport makespan;");
    t.note("latency-bound networks punish many small tile broadcasts, bandwidth-bound networks punish bulk replication.");
    t
}

/// **E12 / multi-layer networks**: per-layer optimal grids plus the
/// inter-layer redistribution cost the single-layer theory does not
/// model. Exact measured == expected, end-to-end verified.
pub fn e12_network() -> Table {
    use distconv_core::run_network;
    let mut t = Table::new(
        "E12 — multi-layer network: per-layer grids + redistribution tax",
        &[
            "P",
            "layers",
            "fwd volume",
            "redist volume",
            "redist %",
            "exact",
            "verified",
        ],
    );
    let layers = vec![
        Conv2dProblem::new(2, 16, 4, 16, 16, 3, 3, 1, 1),
        Conv2dProblem::new(2, 32, 16, 14, 14, 3, 3, 1, 1),
        Conv2dProblem::new(2, 32, 32, 12, 12, 3, 3, 1, 1),
        Conv2dProblem::new(2, 16, 32, 10, 10, 3, 3, 1, 1),
    ];
    for procs in [1usize, 2, 4, 8] {
        let plan = super::greedy_chain(&layers, MachineSpec::new(procs, 1 << 22));
        let r = run_network::<f64>(&plan, 7, MachineConfig::default()).expect("verified");
        let fwd: u128 = r.expected_layers.iter().sum();
        let total = r.expected_total();
        t.row(vec![
            procs.to_string(),
            layers.len().to_string(),
            inum(fwd),
            inum(r.expected_redist),
            if total > 0 {
                format!("{:.1}%", 100.0 * r.expected_redist as f64 / total as f64)
            } else {
                "0%".into()
            },
            (r.measured_total() == total).to_string(),
            r.verified.to_string(),
        ]);
    }
    t.note(
        "redistribution = activations moving between consecutive layers' different optimal grids;",
    );
    t.note("a real cost (≈25% of traffic at P=4 here) that per-layer analysis leaves on the table — future-work territory the reproduction surfaces.");
    t
}

/// **E15 / event-backend scale sweep**: the conv layer at `P` ∈
/// {64, 256, 1024, 4096} on the discrete-event backend — scales the
/// thread-per-rank machine cannot reach — validating at every point
/// that the measured traffic equals the exact schedule model to the
/// element, that per-rank peak memory matches the exact Eq. 11-style
/// model, and that the constant-gap theorem
/// `cost_D − cost = (|In| + |Ker|)/P` holds exactly against
/// measured-validated traffic.
pub fn e15_scale_sweep() -> Table {
    let mut t = Table::new(
        "E15 — event-backend scale sweep: measured vs Eq. 10/11 at P ∈ {64 … 4096}",
        &[
            "P",
            "grid",
            "measured",
            "expected",
            "P·cost_C",
            "P·cost_C(meas)",
            "cost_D",
            "gap",
            "(|In|+|Ker|)/P",
            "peak",
            "peak(model)",
            "verified",
        ],
    );
    // Power-of-two extents so every P in the sweep factors onto the
    // rank grid; small enough that P=4096 stays well inside the CI
    // budget on the event backend. The `k`-heavy shape keeps the
    // planner's optimum at `P_k > 1` and `P_bhw > 1` across the whole
    // sweep, so both broadcast families carry real traffic at every P.
    let p = Conv2dProblem::square(8, 64, 32, 16, 3);
    for procs in [64usize, 256, 1024, 4096] {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap();
        let cfg = MachineConfig {
            backend: Backend::Event,
            trace: TraceConfig::off(),
            ..MachineConfig::default()
        };
        // Verification replays the full sequential reference per run;
        // do it at the small scales, where it is cheap, and lean on
        // backend equivalence (tests/backend_equivalence.rs) plus the
        // element-exact traffic identity at the large ones.
        let verify = procs <= 256;
        let r = run_layer(plan, 23, cfg, verify).report;
        assert_eq!(r.verified, verify);

        // Measured traffic is element-exact against the schedule model,
        // so the model's In/Ker/Out split is measured-validated.
        let exp = expected_volumes(&plan);
        assert_eq!(r.measured_total(), exp.total(), "P={procs}");

        // Undo the realized broadcasts' (n−1)/n inter-rank factor to
        // recover the paper's per-processor Eq. 10 cost_C, aggregated:
        // In broadcasts along k fibers (n = P_k), Ker along bhw fibers
        // (n = P_b·P_h·P_w). Exact in integers — in_bcast carries a
        // (P_k − 1) factor per fiber, ker_bcast a (P_bhw − 1) one.
        let g = plan.grid;
        let pbhw = g.pb * g.ph * g.pw;
        assert!(
            g.pk > 1 && pbhw > 1,
            "P={procs}: grid degenerated (pk={}, pbhw={pbhw}); both broadcast \
             families must be exercised for the traffic-derived identity",
            g.pk
        );
        let derived_pcost_c = exp.in_bcast * g.pk as u128 / (g.pk as u128 - 1)
            + exp.ker_bcast * pbhw as u128 / (pbhw as u128 - 1);
        let model_pcost_c = procs as f64 * eq10_cost_c(&p, &plan.w, &plan.t);
        assert_eq!(
            derived_pcost_c as f64, model_pcost_c,
            "P={procs}: measured-derived P·cost_C diverged from Eq. 10"
        );

        // The constant-gap theorem, exactly (f64 arithmetic is exact
        // here: every term is an integer < 2^53 and P is a power of
        // two, so the /P divisions are exact in binary).
        let (gap, theorem) = constant_gap(&p, &plan.w, &plan.t, procs);
        assert_eq!(gap, theorem, "P={procs}: constant-gap theorem");

        // Peak memory: exact per-rank model (halo overlap included).
        let peak_model = (0..procs)
            .map(|id| distconv_core::model::expected_peak_mem(&plan, id))
            .max()
            .unwrap();
        assert_eq!(r.max_peak_mem, peak_model, "P={procs}: peak memory");

        t.row(vec![
            procs.to_string(),
            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
            r.measured_total().to_string(),
            inum(exp.total()),
            fnum(model_pcost_c),
            derived_pcost_c.to_string(),
            fnum(
                procs as f64
                    * (eq10_cost_i(&p, &plan.w, procs) + eq10_cost_c(&p, &plan.w, &plan.t)),
            ),
            fnum(gap),
            fnum(theorem),
            r.max_peak_mem.to_string(),
            peak_model.to_string(),
            r.verified.to_string(),
        ]);
    }
    t.note("event backend; measured == expected to the element at every P, peak == exact model on every rank;");
    t.note("P·cost_C(meas) rescales measured broadcast traffic by n/(n−1) per fiber — equal to Eq. 10's aggregate exactly;");
    t.note("gap == (|In|+|Ker|)/P exactly (constant-gap theorem) at every scale.");
    t
}

/// The E17 network zoo: three chains with different reasons for the
/// per-layer greedy grids to disagree across a layer boundary —
/// channel expansion, stride-2 downsampling, and 3×3/1×1 alternation.
pub fn autotune_nets() -> Vec<(&'static str, Vec<Conv2dProblem>)> {
    vec![
        (
            "expand",
            vec![
                Conv2dProblem::new(4, 16, 4, 16, 16, 3, 3, 1, 1),
                Conv2dProblem::new(4, 32, 16, 14, 14, 3, 3, 1, 1),
                Conv2dProblem::new(4, 64, 32, 12, 12, 3, 3, 1, 1),
                Conv2dProblem::new(4, 64, 64, 10, 10, 3, 3, 1, 1),
            ],
        ),
        (
            "downsample",
            vec![
                Conv2dProblem::new(8, 8, 4, 32, 32, 3, 3, 1, 1),
                Conv2dProblem::new(8, 16, 8, 16, 16, 2, 2, 2, 2),
                Conv2dProblem::new(8, 32, 16, 14, 14, 3, 3, 1, 1),
                Conv2dProblem::new(8, 32, 32, 7, 7, 2, 2, 2, 2),
            ],
        ),
        (
            "mixer",
            vec![
                Conv2dProblem::new(2, 32, 8, 8, 8, 3, 3, 1, 1),
                Conv2dProblem::new(2, 64, 32, 8, 8, 1, 1, 1, 1),
                Conv2dProblem::new(2, 32, 64, 6, 6, 3, 3, 1, 1),
                Conv2dProblem::new(2, 16, 32, 6, 6, 1, 1, 1, 1),
            ],
        ),
    ]
}

/// **E17 / whole-network autotuner**: greedy per-layer planning
/// ([`super::greedy_chain`]) vs the DP over per-layer candidate grids
/// with exactly-costed inter-layer redistribution
/// ([`distconv_core::NetworkPlan::plan_tuned`]), swept over `P` on
/// three nets. Asserts tuned ≤ greedy at *every* point (the DP
/// contains the greedy path), strictly lower somewhere, and — at the
/// executed scales — that both plans run verified with element-exact
/// measured redistribution (`NetworkReport::conformance`).
pub fn e17_autotune() -> Table {
    use distconv_core::{run_network, NetworkPlan};
    let mut t = Table::new(
        "E17 — whole-network autotuner: DP over candidate grids vs greedy per-layer planning",
        &[
            "net",
            "P",
            "greedy cost",
            "tuned cost",
            "saved",
            "greedy redist",
            "tuned redist",
            "grids changed",
            "exec(exact)",
        ],
    );
    let mut strict = 0usize;
    for (name, layers) in autotune_nets() {
        for procs in [4usize, 16, 64, 256, 1024] {
            let machine = MachineSpec::new(procs, 1 << 22);
            let greedy = super::greedy_chain(&layers, machine);
            let tuned = NetworkPlan::plan_tuned(&layers, machine).unwrap();
            let (gc, tc) = (greedy.predicted_total_cost(), tuned.predicted_total_cost());
            assert!(
                tc <= gc,
                "{name} P={procs}: tuned {tc} worse than greedy {gc} — the DP lost the greedy path"
            );
            if tc < gc {
                strict += 1;
            }
            let changed = greedy
                .layers
                .iter()
                .zip(&tuned.layers)
                .filter(|(a, b)| a.grid != b.grid)
                .count();
            // Execute both plans at the small scales (event backend):
            // end-to-end verified, and the measured redistribution
            // counter must equal the analytic volume to the element.
            let exec = if procs <= 16 {
                let cfg = MachineConfig {
                    backend: Backend::Event,
                    trace: TraceConfig::off(),
                    ..MachineConfig::default()
                };
                let mut exact = true;
                for plan in [&greedy, &tuned] {
                    let r = run_network::<f64>(plan, 41, cfg).expect("verified");
                    let conf = r.conformance();
                    assert!(
                        conf.pass(),
                        "{name} P={procs}: conformance {:?}",
                        conf.failures()
                    );
                    exact &= r.verified && r.stats.redist.elems as u128 == plan.total_redist();
                }
                exact.to_string()
            } else {
                "-".into()
            };
            t.row(vec![
                name.to_string(),
                procs.to_string(),
                fnum(gc),
                fnum(tc),
                format!("{:.2}%", 100.0 * (gc - tc) / gc),
                inum(greedy.total_redist()),
                inum(tuned.total_redist()),
                changed.to_string(),
                exec,
            ]);
        }
    }
    assert!(
        strict > 0,
        "autotuner never strictly beat greedy on any net/P — candidate sets degenerate"
    );
    t.note("tuned ≤ greedy at every point by construction (the greedy path is in the DP);");
    t.note("savings come from aligning adjacent layers' grids when the reshuffle outweighs the per-layer cost gap;");
    t.note("exec(exact): both plans run end-to-end verified on the event backend with measured redistribution == analytic volume to the element.");
    t
}
