//! Serving under chaos: a rank killed mid-batch must not lose the
//! batch — the batcher's replay produces results bitwise identical to
//! the fault-free run, and a persistently dead rank degrades the grid
//! once per cluster rather than failing the request.

use distconv_core::batch::{batch_seed, dispatch_batch};
use distconv_core::{NetworkPlan, MAX_STEP_RETRIES};
use distconv_cost::{Conv2dProblem, MachineSpec};
use distconv_serve::{ModelSpec, RequestResult, ServeConfig, Server};
use distconv_simnet::{FaultPlan, MachineConfig};
use std::time::Duration;

fn model() -> ModelSpec {
    ModelSpec {
        name: "chaos".to_string(),
        layers: vec![
            Conv2dProblem::new(2, 8, 4, 8, 8, 3, 3, 1, 1),
            Conv2dProblem::new(2, 8, 8, 6, 6, 3, 3, 1, 1),
        ],
        machine: MachineSpec::new(4, 1 << 20),
    }
}

fn cfg(faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        latency_budget: Duration::from_millis(20),
        queue_capacity: 32,
        clusters: 1,
        machine: MachineConfig {
            recv_timeout: Duration::from_millis(300),
            faults,
            ..MachineConfig::default()
        },
    }
}

/// Run `n` requests with fixed seeds through a server and return
/// `(report, results sorted by admission id)`.
fn serve_run(faults: FaultPlan, n: u64) -> (distconv_serve::ServeReport, Vec<RequestResult>) {
    let server = Server::start(vec![model()], cfg(faults)).unwrap();
    for seed in 0..n {
        server.submit(0, 1000 + seed).expect("admitted");
    }
    let (report, mut results, errors) = server.shutdown();
    assert!(errors.is_empty(), "unrecovered batch errors: {errors:?}");
    results.sort_by_key(|r| r.id.0);
    (report, results)
}

#[test]
fn kill_mid_batch_replays_bitwise_and_meets_slo() {
    // Rank 1 dies at its 3rd send in every batch — mid-batch, after
    // real traffic has moved. Transient: the replay clears it.
    let (clean_report, clean) = serve_run(FaultPlan::default(), 4);
    let (chaos_report, chaos) = serve_run(FaultPlan::default().with_crash(1, 3), 4);

    assert_eq!(clean_report.models[0].completed, 4);
    assert_eq!(
        chaos_report.models[0].completed, 4,
        "no request may be lost"
    );
    assert!(
        chaos_report.models[0].replays >= 1,
        "the injected crash must have forced at least one replay"
    );
    let pairs = |rs: &[RequestResult]| rs.iter().map(|r| (r.seed, r.digest)).collect::<Vec<_>>();
    assert_eq!(
        pairs(&chaos),
        pairs(&clean),
        "replayed batches must be bitwise identical to the fault-free run"
    );
    // SLO still met: recovery cost is bounded by the retry budget, not
    // unbounded queueing. (Generous bound — CI machines are noisy; the
    // point is that p99 is finite and reported, not a tight latency.)
    let p99 = chaos_report.models[0].p99_ms;
    assert!(p99 > 0.0 && p99 < 30_000.0, "p99 = {p99} ms");
    // Exact volume conformance holds under chaos: wasted traffic from
    // aborted attempts is accounted separately from committed batches.
    let conf = chaos_report.conformance();
    assert!(conf.pass(), "{:?}", conf.failures());
}

#[test]
fn persistent_death_degrades_grid_and_still_serves() {
    // Rank 2 dies for good in the first batch. That batch exhausts its
    // replays and re-plans over the survivors; the cluster keeps the
    // survivor plan, so the next batches run there directly.
    let (report, results) = serve_run(FaultPlan::default().with_persistent_crash(2, 2), 6);
    let m = &report.models[0];
    assert_eq!(m.completed, 6, "degraded grid must serve");
    assert!(m.batches >= 2, "{} batches", m.batches);
    assert_eq!(
        m.replays,
        MAX_STEP_RETRIES + 1,
        "the dead rank is found once per cluster, not once per batch"
    );
    assert_eq!(m.degraded_batches, m.batches);
    let conf = report.conformance();
    assert!(conf.pass(), "{:?}", conf.failures());

    // Every served digest is the fault-free run of its batch on the
    // plan the downward scan over the 3 survivors finds. Batches are
    // FIFO prefixes, so the id-ordered results split into consecutive
    // runs of `batch_fill` requests.
    let spec = model();
    let degraded = (1..spec.machine.p)
        .rev()
        .find_map(|p| {
            NetworkPlan::plan_tuned(&spec.layers, MachineSpec::new(p, spec.machine.mem)).ok()
        })
        .unwrap();
    let clean = cfg(FaultPlan::default()).machine;
    let mut rest = &results[..];
    while let Some(first) = rest.first() {
        let (batch, tail) = rest.split_at(first.batch_fill);
        let seeds: Vec<u64> = batch.iter().map(|r| r.seed).collect();
        let run = dispatch_batch::<f64>(&degraded, batch_seed(&seeds), clean).unwrap();
        let served: Vec<u64> = batch.iter().map(|r| r.digest).collect();
        assert_eq!(served, run.digests[..batch.len()]);
        rest = tail;
    }
}
