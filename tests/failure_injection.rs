//! Failure injection: the system must fail loudly and precisely, not
//! silently corrupt results.

use distconv::conv::gvm::{GvmError, GvmExecutor};
use distconv::conv::kernels::workload;
use distconv::core::{
    execute, mark_recovery, recover, run_training_step, CoreError, NetworkPlan, RunOptions,
};
use distconv::cost::exact::eq3_footprint_g;
use distconv::cost::simplified::InnerLoop;
use distconv::cost::{Conv2dProblem, DistPlan, MachineSpec, Partition, Planner, Tiling};
use distconv::simnet::{Communicator, FailureKind, FaultPlan, Machine, MachineConfig, RankFailure};
use std::time::Duration;

#[test]
fn mismatched_collective_trips_deadlock_trap() {
    // Rank 1 never joins the broadcast: rank 0 must hit the trap with a
    // diagnostic instead of hanging forever.
    let cfg = MachineConfig {
        recv_timeout: Duration::from_millis(100),
        ..MachineConfig::default()
    };
    let result = std::panic::catch_unwind(|| {
        Machine::run::<f32, _, _>(2, cfg, |rank| {
            if rank.id() == 0 {
                let comm = Communicator::world(rank);
                let mut buf = vec![0.0f32; 4];
                comm.bcast(1, &mut buf); // waits for rank 1, who never sends
            }
        })
    });
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("deadlock trap"), "got: {msg}");
}

#[test]
fn memory_over_commit_is_attributed_to_the_rank() {
    let cfg = MachineConfig {
        mem_capacity: Some(50),
        ..MachineConfig::default()
    };
    let result = std::panic::catch_unwind(|| {
        Machine::run::<f32, _, _>(3, cfg, |rank| {
            if rank.id() == 2 {
                let _l = rank.mem().lease_or_panic(51);
            }
        })
    });
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("rank 2 out of memory"), "got: {msg}");
}

#[test]
fn gvm_memory_violation_is_an_error_not_a_panic() {
    let p = Conv2dProblem::square(2, 4, 4, 4, 3);
    let w = Partition::new(2, 4, 4, 4, 4);
    let t = Tiling::new(2, 4, 4, 4, 4); // whole problem in one tile
    let g = eq3_footprint_g(&p, &t);
    let ex = GvmExecutor::new(p, w, t, InnerLoop::C, Some(g - 1)).unwrap();
    let (input, ker) = workload::<f32>(&p, 1);
    match ex.execute_all(&input, &ker) {
        Err(GvmError::TileExceedsMemory { needed, capacity }) => {
            assert!(needed > capacity);
        }
        other => panic!("expected TileExceedsMemory, got {other:?}"),
    }
}

#[test]
fn distconv_memory_enforcement_fires_on_a_lying_plan() {
    let p = Conv2dProblem::square(2, 8, 8, 4, 3);
    let mut plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
        .plan()
        .unwrap();
    plan.machine.mem = 16; // claim 16 words of memory per rank
    let cfg = MachineConfig {
        mem_capacity: Some(plan.machine.mem as u64),
        ..MachineConfig::default()
    };
    let err = execute::<f32>(&plan.into(), 1, cfg, RunOptions::default())
        .expect_err("enforcement must fail the run");
    let CoreError::Machine(e) = err else {
        panic!("expected a machine failure, got {err}");
    };
    let oom = |f: &RankFailure| f.kind == FailureKind::OutOfMemory;
    assert!(e.failures.iter().all(oom));
}

#[test]
fn honest_plan_fits_under_enforcement() {
    // A plan the planner itself produced, run with the capacity it was
    // planned for plus the documented spatial-halo slack, must fit.
    let p = Conv2dProblem::square(2, 8, 8, 4, 3);
    let plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
        .plan()
        .unwrap();
    let cfg = MachineConfig {
        mem_capacity: Some(plan.machine.mem as u64),
        ..MachineConfig::default()
    };
    let r = execute::<f32>(&plan.into(), 1, cfg, RunOptions::default())
        .expect("planned capacity must suffice")
        .report;
    assert!(r.verified);
    assert!(r.max_peak_mem <= 1 << 20);
}

#[test]
fn rank_panic_does_not_hang_the_machine() {
    let cfg = MachineConfig {
        recv_timeout: Duration::from_millis(200),
        ..MachineConfig::default()
    };
    let result = std::panic::catch_unwind(|| {
        Machine::run::<f32, _, _>(4, cfg, |rank| {
            if rank.id() == 3 {
                panic!("injected fault");
            }
            // Other ranks wait on rank 3 and must be released by the trap.
            let comm = Communicator::world(rank);
            comm.barrier();
        })
    });
    assert!(result.is_err(), "fault must propagate, not hang");
}

#[test]
fn crashed_training_step_recovers_to_the_fault_free_result() {
    // A rank crashes mid-step (at its 3rd send, pinned fault seed). The
    // checkpoint/restart driver must detect the injected crash, retry
    // the step without it, and land on exactly the fault-free result —
    // with the recovery and its wasted traffic reported, not hidden.
    let p = Conv2dProblem::square(4, 8, 8, 4, 3);
    let plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
        .plan()
        .unwrap();
    let clean = run_training_step::<f64>(plan, 42, MachineConfig::default())
        .expect("fault-free step must succeed");

    let cfg = MachineConfig {
        recv_timeout: Duration::from_millis(300),
        faults: FaultPlan::reliable(0xFA_117).with_crash(2, 3),
        ..MachineConfig::default()
    };
    // A training step never degrades: no re-plan.
    let step = |p: &DistPlan, c| run_training_step::<f64>(*p, 42, c);
    let done = recover(&plan, cfg, step, |_| None).expect("step must recover");
    let (rec, r) = (&done.recovery, &done.value);
    assert!(
        rec.recovered(),
        "injected crash must be reported as recovered"
    );
    assert_eq!(rec.attempts, 1);
    assert!(r.forward_verified && r.grad_verified);
    assert_eq!(
        r.measured_volume(),
        clean.measured_volume(),
        "recovered step must match the fault-free step's algorithmic volume"
    );
    assert!(
        rec.wasted_elems > 0,
        "the aborted attempt's cost must be reported"
    );
}

#[test]
fn persistent_crash_finishes_degraded_on_the_event_backend() {
    // A persistent crash survives every checkpoint/restart retry; once
    // MAX_STEP_RETRIES is exhausted the driver must re-plan over the
    // survivors, redistribute the checkpoint, and finish correct on the
    // shrunken grid — on the discrete-event backend, in virtual time.
    use distconv::simnet::Backend;
    let p = Conv2dProblem::square(4, 8, 8, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
        .plan()
        .unwrap();
    let cfg = MachineConfig {
        recv_timeout: Duration::from_millis(300),
        faults: FaultPlan::reliable(0xC4A5).with_persistent_crash(0, 2),
        backend: Backend::Event,
        ..MachineConfig::default()
    };
    let net = NetworkPlan::from(plan);
    let mut done = recover(
        &net,
        cfg,
        |n, c| execute::<f64>(n, 7, c, RunOptions::default()),
        |procs| NetworkPlan::plan(&[p], MachineSpec::new(procs, plan.machine.mem)).ok(),
    )
    .expect("must finish degraded, not fail");
    let redist_elems = mark_recovery(&net, &mut done);
    let (rec, r) = (&done.recovery, &done.value);
    assert!(rec.degraded() && rec.recovered() && r.report.verified);
    assert_eq!(rec.dead_ranks, vec![0]);
    let (shrunk, _) = done.degraded.as_ref().expect("survivor plan");
    assert!(shrunk.layers[0].grid.total() < 8, "grid must have shrunk");
    assert!(redist_elems > 0);
    // Conformance validates the measured traffic at P', not P.
    let rep = r.conformance(shrunk);
    assert!(rep.pass(), "degraded conformance failed:\n{rep}");
}

#[test]
fn every_failed_rank_is_enumerated_in_the_panic() {
    // Two independent rank failures: the machine's panic must name both,
    // not just whichever thread died first.
    let cfg = MachineConfig {
        recv_timeout: Duration::from_millis(200),
        ..MachineConfig::default()
    };
    let result = std::panic::catch_unwind(|| {
        Machine::run::<f64, _, _>(4, cfg, |rank| match rank.id() {
            1 => panic!("boom from rank 1"),
            3 => panic!("boom from rank 3"),
            _ => {
                let comm = Communicator::world(rank);
                comm.barrier();
            }
        })
    });
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("boom from rank 1"), "got: {msg}");
    assert!(msg.contains("boom from rank 3"), "got: {msg}");
}

#[test]
fn wrong_payload_sizes_are_caught() {
    let result = std::panic::catch_unwind(|| {
        Machine::run::<f64, _, _>(2, MachineConfig::default(), |rank| {
            let comm = Communicator::world(rank);
            // Rank 0 contributes 3 elements, rank 1 contributes 4: the
            // reduce must detect the mismatch.
            let mut buf = vec![1.0; 3 + rank.id()];
            comm.reduce(0, &mut buf);
        })
    });
    let err = result.expect_err("must panic");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("length mismatch"), "got: {msg}");
}
