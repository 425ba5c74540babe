//! Property-based tests for the simulator's collectives: randomized
//! rank counts, roots and payload sizes, always checked against a
//! sequential model — plus exact volume laws. Runs on the in-tree
//! `distconv_par::proptest_mini` harness.

use distconv_par::proptest_mini::{check, Config};
use distconv_simnet::{Communicator, Machine, MachineConfig};

// Each case spawns threads; keep counts moderate.
const CASES: u32 = 24;

#[test]
fn bcast_delivers_and_counts() {
    check(
        "bcast_delivers_and_counts",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(1, 9);
            let root = g.usize_in(0, p - 1);
            let len = g.usize_in(0, 199);
            let report = Machine::run::<f64, _, _>(p, MachineConfig::default(), move |rank| {
                let comm = Communicator::world(rank);
                let mut buf = if comm.me() == root {
                    (0..len).map(|i| i as f64).collect()
                } else {
                    vec![0.0; len]
                };
                comm.bcast(root, &mut buf);
                buf
            });
            let expect: Vec<f64> = (0..len).map(|i| i as f64).collect();
            for r in &report.results {
                assert_eq!(r, &expect);
            }
            assert_eq!(report.stats.total_elems(), (len * (p - 1)) as u64);
            assert_eq!(report.stats.total_msgs(), (p - 1) as u64);
        },
    );
}

#[test]
fn allreduce_equals_sequential_sum() {
    check(
        "allreduce_equals_sequential_sum",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(1, 8);
            let len = g.usize_in(1, 299);
            let seed = g.u64();
            let report = Machine::run::<f64, _, _>(p, MachineConfig::default(), move |rank| {
                let mut buf: Vec<f64> = (0..len)
                    .map(|i| ((seed ^ (rank.id() as u64 * 31 + i as u64)) % 100) as f64)
                    .collect();
                let comm = Communicator::world(rank);
                comm.allreduce(&mut buf);
                buf
            });
            // Sequential model.
            let mut expect = vec![0.0f64; len];
            for r in 0..p {
                for (i, e) in expect.iter_mut().enumerate() {
                    *e += ((seed ^ (r as u64 * 31 + i as u64)) % 100) as f64;
                }
            }
            for res in &report.results {
                assert_eq!(res, &expect);
            }
        },
    );
}

#[test]
fn reduce_scatter_chunks_sum() {
    check(
        "reduce_scatter_chunks_sum",
        Config::with_cases(CASES),
        |g| {
            let p = g.usize_in(1, 6);
            let chunk = g.usize_in(1, 9);
            let len = chunk * p;
            let report = Machine::run::<f64, _, _>(p, MachineConfig::default(), move |rank| {
                let comm = Communicator::world(rank);
                let buf: Vec<f64> = (0..len).map(|i| (rank.id() + i) as f64).collect();
                let counts = vec![chunk; p];
                comm.reduce_scatter(&buf, &counts)
            });
            // Element j of chunk i is Σ_r (r + i·chunk + j).
            let rank_sum: f64 = (0..p).map(|r| r as f64).sum();
            for (i, res) in report.results.iter().enumerate() {
                for (j, &v) in res.iter().enumerate() {
                    let expect = rank_sum + (p * (i * chunk + j)) as f64;
                    assert_eq!(v, expect, "member {i} elem {j}");
                }
            }
        },
    );
}

#[test]
fn concurrent_disjoint_groups_do_not_interfere() {
    // 3 groups of 3 ranks each run different collectives concurrently.
    let report = Machine::run::<f64, _, _>(9, MachineConfig::default(), |rank| {
        let group = rank.id() / 3;
        let members: Vec<usize> = (group * 3..group * 3 + 3).collect();
        let comm = Communicator::new(rank, members, group as u32 + 10);
        match group {
            0 => {
                let mut buf = vec![rank.id() as f64];
                comm.allreduce(&mut buf);
                buf[0]
            }
            1 => {
                let mut buf = if comm.me() == 0 {
                    vec![42.0]
                } else {
                    vec![0.0]
                };
                comm.bcast(0, &mut buf);
                buf[0]
            }
            _ => {
                let mut buf = vec![rank.id() as f64];
                comm.reduce(2, &mut buf);
                if comm.me() == 2 {
                    buf[0]
                } else {
                    -1.0
                }
            }
        }
    });
    assert_eq!(report.results[0], 0.0 + 1.0 + 2.0);
    assert_eq!(report.results[4], 42.0);
    assert_eq!(report.results[8], 6.0 + 7.0 + 8.0);
}

#[test]
fn ring_order_independence_of_thread_scheduling() {
    // Volumes and results must be identical across repeated runs even
    // though thread interleavings differ.
    let run = || {
        Machine::run::<f64, _, _>(6, MachineConfig::default(), |rank| {
            let comm = Communicator::world(rank);
            let mine = vec![rank.id() as f64; 64];
            let all = comm.allgather_varying(&mine);
            all.iter().map(|c| c.iter().sum::<f64>()).sum::<f64>()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats.total_elems(), b.stats.total_elems());
    assert_eq!(a.stats.per_rank_elems, b.stats.per_rank_elems);
}
