//! Larger-scale stress tests. These push rank counts and problem sizes
//! well past the rest of the suite to catch scalability bugs (tag
//! collisions, queue blowups, accounting overflow) that small
//! configurations cannot.

use distconv::core::{execute, run_network, run_training_step, NetworkPlan, RunOptions};
use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
use distconv::simnet::{Communicator, Machine, MachineConfig};

#[test]
fn stress_64_ranks_verified() {
    let p = Conv2dProblem::square(8, 32, 32, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(64, 1 << 22))
        .plan()
        .unwrap();
    let cfg = MachineConfig::default();
    let r = execute::<f32>(&plan.into(), 1, cfg, RunOptions::default())
        .expect("verified")
        .report;
    assert!(r.verified);
    assert_eq!(r.measured_total(), r.expected_total());
}

#[test]
fn stress_collective_storm() {
    // Many interleaved collectives on overlapping fibers: exercises the
    // tag/ctx discipline far beyond the normal workloads.
    let r = Machine::run::<f64, _, _>(128, MachineConfig::default(), |rank| {
        let world = Communicator::world(rank);
        let mut acc = 0.0f64;
        for round in 0..20u64 {
            let mut buf = vec![rank.id() as f64 + round as f64; 64];
            world.allreduce(&mut buf);
            acc += buf[0];
            // Split into 8 groups of 16, each doing its own broadcast.
            let colors: Vec<u32> = (0..world.size()).map(|i| (i / 16) as u32).collect();
            let sub = world.split(&colors);
            let mut b = vec![if sub.me() == 0 { round as f64 } else { 0.0 }];
            sub.bcast(0, &mut b);
            acc += b[0];
        }
        acc
    });
    // All ranks computed identical allreduce results.
    let first = r.results[0];
    assert!(r.results.iter().all(|&x| (x - first).abs() < 1e-9));
}

#[test]
fn stress_deep_network() {
    // An 8-layer chain with channel growth and shrinkage.
    let mut layers = Vec::new();
    let mut c = 4usize;
    let mut hw = 20usize;
    for i in 0..8 {
        let k = if i < 4 { c * 2 } else { c / 2 };
        layers.push(Conv2dProblem::new(2, k, c, hw - 2, hw - 2, 3, 3, 1, 1));
        c = k;
        hw -= 2;
    }
    let plan = NetworkPlan::plan_tuned(&layers, MachineSpec::new(8, 1 << 24)).unwrap();
    let r = run_network::<f64>(&plan, 3, MachineConfig::default()).expect("verified");
    assert!(r.verified);
    assert_eq!(r.measured_total(), r.expected_total());
}

#[test]
fn stress_training_32_ranks() {
    let p = Conv2dProblem::square(4, 16, 16, 8, 3);
    let plan = Planner::new(p, MachineSpec::new(32, 1 << 22))
        .plan()
        .unwrap();
    let r = run_training_step::<f64>(plan, 5, MachineConfig::default()).expect("verified");
    assert!(r.forward_verified && r.grad_verified);
    assert_eq!(r.measured_volume() as u128, r.expected_total());
}

#[test]
fn stress_message_pressure() {
    // 2 000 small messages per rank pair through the unexpected-message
    // queue (receivers intentionally drain in reverse tag order).
    let n_msgs = 2_000u64;
    let r = Machine::run::<u64, _, _>(4, MachineConfig::default(), move |rank| {
        let next = (rank.id() + 1) % rank.size();
        let prev = (rank.id() + rank.size() - 1) % rank.size();
        for i in 0..n_msgs {
            rank.send(next, i, &[i]);
        }
        let mut sum = 0u64;
        for i in (0..n_msgs).rev() {
            sum += rank.recv(prev, i)[0];
        }
        sum
    });
    let expect: u64 = (0..2_000).sum();
    assert!(r.results.iter().all(|&x| x == expect));
}
