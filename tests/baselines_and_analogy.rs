//! Cross-crate integration: baselines vs the paper's algorithm, and
//! the matmul analogy, on shared workloads.

use distconv::baselines::{
    run_data_parallel, run_filter_parallel, run_spatial_parallel, spatial_feasible,
};
use distconv::core::{execute, CoreError, NetworkReport, RunOptions};
use distconv::cost::{Conv2dProblem, DistPlan, MachineSpec, Planner};
use distconv::distmm::{run_25d, run_dns3d, run_summa, MatmulDims};
use distconv::simnet::MachineConfig;
use std::error::Error;

/// Run one planned layer, verified, as a one-layer network.
fn run_layer(plan: DistPlan, seed: u64) -> Result<NetworkReport, CoreError> {
    let cfg = MachineConfig::default();
    execute::<f64>(&plan.into(), seed, cfg, RunOptions::default()).map(|run| run.report)
}

#[test]
fn all_schemes_agree_on_the_same_layer() -> Result<(), Box<dyn Error>> {
    // Same layer, same seed: every scheme's verification compares
    // against the same sequential reference — so all passing means all
    // four distribution strategies compute the same function.
    let p = Conv2dProblem::square(4, 8, 8, 8, 3);
    let cfg = MachineConfig::default();
    let procs = 4;
    let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20)).plan()?;
    assert!(run_layer(plan, 77)?.verified);
    assert!(run_data_parallel(p, procs, 77, true, cfg)?.verified);
    assert!(spatial_feasible(&p, procs));
    assert!(run_spatial_parallel(p, procs, 77, cfg)?.verified);
    assert!(run_filter_parallel(p, procs, 77, cfg)?.verified);
    Ok(())
}

#[test]
fn filter_parallel_recurring_grows_linearly_distconv_sublinearly() -> Result<(), Box<dyn Error>> {
    // The failure mode the paper fixes: input replication scales with
    // P, broadcasts of tiles do not.
    let p = Conv2dProblem::square(4, 16, 16, 8, 3);
    let cfg = MachineConfig::default();
    let f4 = run_filter_parallel(p, 4, 1, cfg)?.analytic_recurring;
    let f16 = run_filter_parallel(p, 16, 1, cfg)?.analytic_recurring;
    assert_eq!(f16 / f4, 5, "(16−1)/(4−1) = 5x input replication");

    let volume = |procs| -> Result<u128, Box<dyn Error>> {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20)).plan()?;
        Ok(run_layer(plan, 1)?.measured_total())
    };
    let (v4, v16) = (volume(4)?, volume(16)?);
    assert!(
        (v16 as f64) < 5.0 * v4 as f64,
        "distconv total volume must grow sublinearly vs filter-parallel: {v4} -> {v16}"
    );
    Ok(())
}

#[test]
fn matmul_analogy_one_by_one_conv() -> Result<(), Box<dyn Error>> {
    let p = Conv2dProblem::new(2, 16, 16, 4, 4, 1, 1, 1, 1);
    let dims = MatmulDims::new(p.nbhw(), p.nk, p.nc);
    let cfg = MachineConfig::default();

    // All three matmul algorithms verified on the reduced problem.
    assert!(run_summa(dims, 2, 4, cfg)?.verified);
    assert!(run_25d(dims, 2, 2, cfg)?.verified);
    assert!(run_dns3d(dims, 2, cfg)?.verified);

    // The CNN algorithm on the same computation.
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 20)).plan()?;
    assert!(run_layer(plan, 9)?.verified);
    Ok(())
}

#[test]
fn regime_analogy_tracks_matmul_tradeoff() -> Result<(), Box<dyn Error>> {
    // On a channel-heavy (inner-dimension-heavy) problem, both the CNN
    // planner and the matmul family prefer replication when memory
    // allows; both costs drop relative to their 2D variants.
    let p = Conv2dProblem::new(2, 16, 64, 4, 4, 1, 1, 1, 1);
    let procs = 16;
    let free = Planner::new(p, MachineSpec::new(procs, 1 << 24))
        .plan()
        .unwrap();
    let forced2d = Planner::new(p, MachineSpec::new(procs, 1 << 24))
        .with_forced_pc(1)
        .plan()
        .unwrap();
    assert!(
        free.predicted.cost_d <= forced2d.predicted.cost_d,
        "planner must never lose to its own restricted family"
    );

    let dims = MatmulDims::new(p.nbhw(), p.nk, p.nc);
    let v2d = run_summa(dims, 4, 4, MachineConfig::default())?;
    let v25 = run_25d(dims, 2, 4, MachineConfig::default())?;
    assert!(v2d.verified && v25.verified);
    // The analogy is qualitative: both families expose the same knob.
    // (Exact volumes differ by constant factors in schedule details.)
    if free.grid.pc > 1 {
        assert!(
            v25.stats.total_elems() != v2d.stats.total_elems(),
            "replication must change matmul volume too"
        );
    }
    Ok(())
}

#[test]
fn distconv_advantage_grows_from_early_to_late_layers() -> Result<(), Box<dyn Error>> {
    // The E9 shape claim, at simulator scale: relative to the
    // data-parallel gradient all-reduce, the paper's algorithm gets
    // *better* as layers get kernel-heavy (late layers), which is where
    // the full-scale crossover comes from.
    let cfg = MachineConfig::default();
    let procs = 4;

    let ratio_for = |p: Conv2dProblem| -> Result<f64, Box<dyn Error>> {
        let dp = run_data_parallel(p, procs, 3, true, cfg)?;
        assert!(dp.verified);
        let dp_grad = 2.0 * (procs as f64 - 1.0) * p.size_ker() as f64;
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 22)).plan()?;
        Ok(run_layer(plan, 3)?.measured_total() as f64 / dp_grad)
    };

    // Tiny kernel, big image vs big kernel, tiny image.
    let early = Conv2dProblem::new(4, 8, 4, 16, 16, 1, 1, 1, 1);
    let late = Conv2dProblem::new(4, 64, 64, 2, 2, 3, 3, 1, 1);
    let (r_early, r_late) = (ratio_for(early)?, ratio_for(late)?);
    assert!(
        r_late < r_early,
        "distconv/dp ratio should fall from early ({r_early:.3}) to late ({r_late:.3}) layers"
    );
    Ok(())
}
