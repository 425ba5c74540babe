//! End-to-end integration: plan → distribute → execute → reduce →
//! verify, across regimes, dtypes and grid families.

use distconv::core::{execute, expected_volumes, CoreError, NetworkReport, RunOptions};
use distconv::cost::{Conv2dProblem, DistPlan, MachineSpec, PlanError, Planner};
use distconv::simnet::MachineConfig;
use distconv::tensor::Scalar;
use std::error::Error;

/// Run one planned layer, verified, as a one-layer network.
fn run_layer<T: Scalar>(plan: DistPlan, seed: u64) -> Result<NetworkReport, CoreError> {
    let cfg = MachineConfig::default();
    execute::<T>(&plan.into(), seed, cfg, RunOptions::default()).map(|run| run.report)
}

#[test]
fn full_pipeline_across_processor_counts() -> Result<(), Box<dyn Error>> {
    let p = Conv2dProblem::square(4, 16, 16, 8, 3);
    for procs in [1usize, 2, 4, 8, 16, 32] {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 20))
            .plan()
            .unwrap_or_else(|e| panic!("P={procs}: {e}"));
        assert_eq!(plan.grid.total(), procs);
        let r = run_layer::<f64>(plan, 99)?;
        assert_eq!(
            r.measured_total(),
            expected_volumes(&plan).total(),
            "P={procs}"
        );
    }
    Ok(())
}

#[test]
fn both_dtypes_agree_on_volume() -> Result<(), Box<dyn Error>> {
    let p = Conv2dProblem::square(2, 8, 8, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 18)).plan()?;
    let r32 = run_layer::<f32>(plan, 5)?;
    let r64 = run_layer::<f64>(plan, 5)?;
    // Identical schedule → identical element counts, regardless of dtype.
    assert_eq!(r32.measured_total(), r64.measured_total());
    assert_eq!(r32.stats.per_rank_elems, r64.stats.per_rank_elems);
    Ok(())
}

#[test]
fn forced_grid_families_all_verify() -> Result<(), Box<dyn Error>> {
    let p = Conv2dProblem::square(2, 8, 16, 4, 3);
    for pc in [1usize, 2, 4] {
        let Ok(plan) = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .with_forced_pc(pc)
            .plan()
        else {
            continue;
        };
        assert_eq!(plan.grid.pc, pc);
        let r = run_layer::<f64>(plan, 17)?;
        assert_eq!(r.measured_total(), r.expected_total(), "pc={pc}");
    }
    Ok(())
}

#[test]
fn constant_gap_theorem_every_plan() {
    // cost_D − cost == (|In|+|Ker|)/P for every plan the planner emits.
    for (p, procs) in [
        (Conv2dProblem::square(4, 16, 16, 8, 3), 8usize),
        (Conv2dProblem::new(2, 8, 8, 6, 4, 3, 5, 1, 1), 4),
        (Conv2dProblem::new(4, 16, 16, 8, 8, 3, 3, 2, 2), 16),
    ] {
        let plan = Planner::new(p, MachineSpec::new(procs, 1 << 22))
            .plan()
            .unwrap();
        let gap = plan.predicted.cost_d - plan.predicted.cost_gvm;
        let theorem = (p.size_in_paper() + p.size_ker()) as f64 / procs as f64;
        assert!(
            (gap - theorem).abs() < 1e-6,
            "{p:?} P={procs}: gap {gap} vs theorem {theorem}"
        );
    }
}

#[test]
fn volume_decreases_with_memory() -> Result<(), Box<dyn Error>> {
    // The headline trade-off, measured (not just predicted): more
    // per-rank memory must never increase realized traffic.
    let p = Conv2dProblem::square(4, 16, 32, 4, 3);
    let mut prev = u128::MAX;
    for mem in [1usize << 12, 1 << 14, 1 << 18, 1 << 22] {
        let Ok(plan) = Planner::new(p, MachineSpec::new(16, mem)).plan() else {
            continue;
        };
        let r = run_layer::<f64>(plan, 3)?;
        assert!(
            r.measured_total() <= prev,
            "mem={mem}: {} after {prev}",
            r.measured_total()
        );
        prev = r.measured_total();
    }
    assert!(
        prev < u128::MAX,
        "at least one memory level must be feasible"
    );
    Ok(())
}

#[test]
fn planner_failure_modes_are_typed() {
    let p = Conv2dProblem::square(4, 16, 16, 8, 3);
    // Far too little memory.
    match Planner::new(p, MachineSpec::new(8, 16)).plan() {
        Err(PlanError::InsufficientMemory { needed, available }) => {
            assert!(needed > available);
        }
        other => panic!("expected InsufficientMemory, got {other:?}"),
    }
    // Prime processor count not dividing anything.
    match Planner::new(p, MachineSpec::new(23, 1 << 22)).plan() {
        Err(PlanError::Unfactorable { p: 23 }) => {}
        other => panic!("expected Unfactorable, got {other:?}"),
    }
}

#[test]
fn seeds_change_data_not_volume() -> Result<(), Box<dyn Error>> {
    let p = Conv2dProblem::square(2, 8, 8, 4, 3);
    let plan = Planner::new(p, MachineSpec::new(4, 1 << 18)).plan()?;
    let a = run_layer::<f64>(plan, 1)?;
    let b = run_layer::<f64>(plan, 2)?;
    assert_eq!(a.measured_total(), b.measured_total());
    Ok(())
}

#[test]
fn non_power_of_two_extents() -> Result<(), Box<dyn Error>> {
    // 6 = 2·3 and 12 = 2²·3 exercise non-dyadic divisor grids.
    let p = Conv2dProblem::new(6, 12, 6, 6, 6, 3, 3, 1, 1);
    for procs in [2usize, 3, 6, 12] {
        let Ok(plan) = Planner::new(p, MachineSpec::new(procs, 1 << 20)).plan() else {
            panic!("P={procs} should be plannable for 6/12 extents");
        };
        let r = run_layer::<f64>(plan, 7)?;
        assert_eq!(r.measured_total(), r.expected_total(), "P={procs}");
    }
    Ok(())
}
