//! Batcher edge cases: typed start errors, zero-request deadline,
//! partial flush of a lone request, queue-full backpressure, and a
//! property test pinning deterministic batch composition.

use distconv_cost::{Conv2dProblem, MachineSpec};
use distconv_par::proptest_mini::{check, Config, Gen};
use distconv_serve::{ModelSpec, ServeConfig, Server, StartError, SubmitError};
use distconv_simnet::MachineConfig;
use std::time::Duration;

/// A single tiny layer with `Nb = 4` on 2 simulated ranks.
fn tiny_model(name: &str) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        layers: vec![Conv2dProblem::new(4, 4, 2, 4, 4, 3, 3, 1, 1)],
        machine: MachineSpec::new(2, 1 << 20),
    }
}

fn cfg(budget: Duration) -> ServeConfig {
    ServeConfig {
        latency_budget: budget,
        queue_capacity: 16,
        clusters: 1,
        machine: MachineConfig {
            recv_timeout: Duration::from_millis(300),
            ..MachineConfig::default()
        },
    }
}

#[test]
fn start_without_models_or_clusters_is_a_typed_error() {
    let mut c = cfg(Duration::from_millis(5));
    let no_models = Server::start(Vec::new(), c.clone()).err();
    assert_eq!(no_models, Some(StartError::NoModels));
    c.clusters = 0;
    let no_clusters = Server::start(vec![tiny_model("idle")], c).err();
    assert_eq!(no_clusters, Some(StartError::NoClusters));
}

#[test]
fn zero_requests_never_flush_an_empty_batch() {
    let server = Server::start(vec![tiny_model("idle")], cfg(Duration::from_millis(5))).unwrap();
    // Let several latency budgets elapse with nothing queued.
    std::thread::sleep(Duration::from_millis(40));
    let (report, results, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(report.models[0].batches, 0, "no empty batch may form");
    assert_eq!(report.models[0].completed, 0);
    assert!(results.is_empty());
}

#[test]
fn single_request_below_nb_partial_flushes_at_deadline() {
    let server = Server::start(vec![tiny_model("lone")], cfg(Duration::from_millis(10))).unwrap();
    let id = server.submit(0, 42).expect("admitted");
    // The deadline flush (10 ms budget), not the shutdown drain, must
    // ship the lone request.
    assert!(server.drain(Duration::from_secs(30)), "drain timed out");
    let (report, results, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
    let m = &report.models[0];
    assert_eq!(m.completed, 1);
    assert_eq!(m.batches, 1);
    assert_eq!(
        m.partial_flushes, 1,
        "a lone request (1 < Nb = 4) must ship as a partial batch"
    );
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].id, id);
    assert_eq!(results[0].batch_fill, 1);
    assert_ne!(results[0].digest, 0);
}

#[test]
fn saturated_queue_rejects_with_typed_error() {
    // Long budget + capacity below Nb: nothing can be batched, so the
    // queue deterministically fills and the next submit must bounce.
    let mut c = cfg(Duration::from_secs(60));
    c.queue_capacity = 3;
    let server = Server::start(vec![tiny_model("full")], c).unwrap();
    for seed in 0..3 {
        server.submit(0, seed).expect("within capacity");
    }
    let err = server.submit(0, 99).expect_err("queue is full");
    assert_eq!(
        err,
        SubmitError::Saturated {
            model: 0,
            capacity: 3
        }
    );
    assert_eq!(server.queue_depth(0), 3, "reject must not consume a slot");
    let (report, results, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(report.models[0].rejected, 1);
    // Shutdown drains the three waiting requests as a partial batch.
    assert_eq!(report.models[0].completed, 3);
    assert_eq!(results.len(), 3);
}

#[test]
fn unknown_model_and_shutdown_are_typed() {
    let server = Server::start(vec![tiny_model("one")], cfg(Duration::from_secs(60))).unwrap();
    assert_eq!(
        server.submit(7, 1).expect_err("no model 7"),
        SubmitError::UnknownModel { model: 7 }
    );
    let (_, _, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
}

/// Property: batch composition — and therefore every request's digest
/// — is a pure function of the admission order. Two servers fed the
/// same seed sequence produce identical digests per request, and a
/// third run on two clusters (racing workers, different completion
/// order) still matches.
#[test]
fn proptest_batch_composition_is_deterministic() {
    check(
        "serve_composition_deterministic",
        Config::with_cases(4),
        |g: &mut Gen| {
            let n = g.usize_in(1, 11);
            let seeds: Vec<u64> = (0..n).map(|_| g.u64()).collect();
            let run = |clusters: usize| {
                let mut c = cfg(Duration::from_secs(60));
                c.clusters = clusters;
                let server = Server::start(vec![tiny_model("prop")], c).unwrap();
                for &s in &seeds {
                    server.submit(0, s).expect("under capacity");
                }
                let (report, mut results, errors) = server.shutdown();
                assert!(errors.is_empty(), "{errors:?}");
                assert_eq!(report.models[0].completed, n);
                results.sort_by_key(|r| r.id.0);
                results
                    .into_iter()
                    .map(|r| (r.seed, r.digest, r.batch_fill))
                    .collect::<Vec<_>>()
            };
            let a = run(1);
            let b = run(1);
            assert_eq!(a, b, "same admission order ⇒ same digests");
            let c = run(2);
            assert_eq!(a, c, "worker count must not change composition");
            // Full batches carry Nb members; only the tail may be short.
            let nb = 4;
            for (i, (_, _, fill)) in a.iter().enumerate() {
                let expected = if (i / nb + 1) * nb <= n { nb } else { n % nb };
                assert_eq!(*fill, expected, "request {i} batch fill");
            }
        },
    );
}

/// Two tenants with different shapes served concurrently on two
/// clusters: both complete everything, reports stay per-model, and the
/// element-exact volume conformance composes across the whole server.
#[test]
fn multi_tenant_models_share_clusters() {
    let wide = ModelSpec {
        name: "wide".to_string(),
        layers: vec![Conv2dProblem::new(4, 8, 4, 6, 6, 3, 3, 1, 1)],
        machine: MachineSpec::new(4, 1 << 20),
    };
    let mut c = cfg(Duration::from_millis(10));
    c.clusters = 2;
    let server = Server::start(vec![tiny_model("tiny"), wide], c).unwrap();
    for i in 0..6 {
        server.submit(i % 2, 500 + i as u64).expect("admitted");
    }
    assert!(server.drain(Duration::from_secs(60)), "drain timed out");
    let (report, results, errors) = server.shutdown();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(report.models[0].completed, 3);
    assert_eq!(report.models[1].completed, 3);
    assert_eq!(results.len(), 6);
    assert!(report.models.iter().all(|m| m.p50_ms <= m.p99_ms));
    let conf = report.conformance();
    assert!(conf.pass(), "{:?}", conf.failures());
    assert_eq!(conf.rows.len(), 2, "one exact volume row per tenant");
}
