//! Blocking vs overlapped comm modes must be observationally identical
//! for every distmm algorithm: bitwise-equal result blocks and equal
//! algorithmic traffic counters. Only *when* a rank waits moves; what
//! moves, where, and in which per-link order does not.

use distconv_distmm::{
    cannon_rank_body, dns3d_rank_body, s25d_rank_body, summa_rank_body, MatmulDims,
};
use distconv_par::{CommMode, LocalKernel};
use distconv_simnet::{LinkDelay, Machine, MachineConfig, Rank, RunReport};
use distconv_tensor::Matrix;
use std::time::Duration;

fn run_both<F>(p: usize, body: F) -> (RunReport<Matrix<f64>>, RunReport<Matrix<f64>>)
where
    F: Fn(&Rank<f64>, LocalKernel, CommMode) -> Matrix<f64> + Send + Sync + Copy,
{
    let kernel = LocalKernel::from_env();
    let blocking = Machine::run::<f64, _, _>(p, MachineConfig::default(), move |rank| {
        body(rank, kernel, CommMode::Blocking)
    });
    let overlapped = Machine::run::<f64, _, _>(p, MachineConfig::default(), move |rank| {
        body(rank, kernel, CommMode::Overlapped)
    });
    (blocking, overlapped)
}

fn assert_identical(blocking: &RunReport<Matrix<f64>>, overlapped: &RunReport<Matrix<f64>>) {
    assert_eq!(
        blocking.results.len(),
        overlapped.results.len(),
        "rank count"
    );
    for (r, (b, o)) in blocking
        .results
        .iter()
        .zip(overlapped.results.iter())
        .enumerate()
    {
        assert_eq!(b.rows(), o.rows(), "rank {r} rows");
        assert_eq!(b.cols(), o.cols(), "rank {r} cols");
        let bb: Vec<u64> = b.as_slice().iter().map(|x| x.to_bits()).collect();
        let ob: Vec<u64> = o.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bb, ob, "rank {r} block must be bitwise identical");
    }
    assert_eq!(
        blocking.stats, overlapped.stats,
        "algorithmic traffic counters must not change with comm mode"
    );
}

#[test]
fn cannon_modes_identical() {
    for (d, q) in [
        (MatmulDims::new(24, 24, 24), 2usize),
        (MatmulDims::new(7, 11, 13), 3),
    ] {
        let (b, o) = run_both(q * q, move |rank, kernel, mode| {
            cannon_rank_body(rank, &d, q, kernel, mode)
        });
        assert_identical(&b, &o);
    }
}

#[test]
fn summa_modes_identical() {
    for (d, pr, pc) in [
        (MatmulDims::new(32, 24, 40), 2usize, 2usize),
        (MatmulDims::new(30, 20, 25), 2, 3),
        (MatmulDims::new(30, 20, 25), 3, 2),
    ] {
        let (b, o) = run_both(pr * pc, move |rank, kernel, mode| {
            summa_rank_body(rank, &d, pr, pc, kernel, mode)
        });
        assert_identical(&b, &o);
    }
}

#[test]
fn s25d_modes_identical() {
    for (d, p1, c) in [
        (MatmulDims::new(24, 16, 32), 2usize, 2usize),
        (MatmulDims::new(9, 10, 11), 2, 3),
    ] {
        let (b, o) = run_both(c * p1 * p1, move |rank, kernel, mode| {
            s25d_rank_body(rank, &d, p1, c, kernel, mode)
        });
        assert_identical(&b, &o);
    }
}

#[test]
fn dns3d_modes_identical() {
    for (d, p1) in [
        (MatmulDims::new(24, 18, 30), 2usize),
        (MatmulDims::new(7, 11, 13), 2),
    ] {
        let (b, o) = run_both(p1 * p1 * p1, move |rank, kernel, mode| {
            dns3d_rank_body(rank, &d, p1, kernel, mode)
        });
        assert_identical(&b, &o);
    }
}

#[test]
fn modes_identical_under_emulated_link_delay() {
    let kernel = LocalKernel::from_env();
    // The wall-clock link emulation (bench_comm's network model) moves
    // *when* payloads become available, never what they contain — both
    // modes must stay bitwise identical with equal counters under it.
    let cfg = MachineConfig {
        link: LinkDelay::new(Duration::from_micros(300), 2.0),
        ..MachineConfig::default()
    };
    let d = MatmulDims::new(16, 12, 20);
    let run = |mode: CommMode| {
        Machine::run::<f64, _, _>(4, cfg, move |rank| {
            cannon_rank_body(rank, &d, 2, kernel, mode)
        })
    };
    let (b, o) = (run(CommMode::Blocking), run(CommMode::Overlapped));
    assert_identical(&b, &o);
}

#[test]
fn overlapped_pipeline_records_timing_breakdown() {
    let kernel = LocalKernel::from_env();
    // The point of the pipeline: the report's timing breakdown has both
    // a comm-wait and a compute component (host wall time, not part of
    // the deterministic counters).
    let d = MatmulDims::new(48, 48, 48);
    let report = Machine::run::<f64, _, _>(4, MachineConfig::default(), move |rank| {
        summa_rank_body(rank, &d, 2, 2, kernel, CommMode::Overlapped)
    });
    let t = report.timing;
    assert!(t.compute_ns > 0, "compute time should be recorded");
    assert!(t.comm_wait_ns > 0, "comm-wait time should be recorded");
}
