//! Broadcast-schedule comparison: linear point-to-point vs binomial
//! tree vs segmented ring vs the paper's rotating schedule, under the
//! α–β model on the discrete-event backend — plus the substrate's
//! wall-clock overhead per collective.
//!
//! Two kinds of numbers come out of this bench:
//!
//! * **wall records** (host-dependent): how much real time the
//!   simulator substrate spends running each schedule — overhead, not
//!   a claim about the algorithms;
//! * **derived virtual makespans** (deterministic): the α–β Lamport
//!   makespan of each schedule on the event backend, plus the root's
//!   message count — the per-rank evidence for why the paper's
//!   rotating schedule wins (it splits the payload across rotating
//!   roots so no single rank serializes `n−1` full-payload sends).
//!
//! `cargo bench -p distconv-bench --bench bench_collectives -- --json
//! [PATH]` writes everything to `PATH` (default
//! `BENCH_collectives.json` at the workspace root) in the
//! `distconv-bench-v1` schema; see `scripts/bench_compare.sh` for
//! diffing across commits.

use distconv_bench::{write_json_report, BenchRecord, Suite};
use distconv_simnet::{Backend, BcastAlgo, Communicator, Machine, MachineConfig};
use distconv_trace::TraceConfig;
use std::hint::black_box;

/// Rank count for the schedule comparison (power of two keeps the
/// binomial tree depth exactly log₂ n).
const RANKS: usize = 64;
/// Broadcast payload (elements). Large enough that bandwidth dominates
/// latency even for a 1/n panel (β·LEN/n > α) — the regime the paper's
/// schedule targets; below it, rotating's n× message count makes it
/// *lose* to a single tree broadcast.
const LEN: usize = 1 << 19;

fn event_cfg() -> MachineConfig {
    MachineConfig {
        backend: Backend::Event,
        trace: TraceConfig::off(),
        ..MachineConfig::default()
    }
}

/// One root-0 broadcast of `LEN` elements with `algo`; returns the
/// deterministic virtual makespan and the root's outbound messages.
fn bcast_makespan(algo: BcastAlgo) -> (f64, u64) {
    let rep = Machine::run::<f32, _, _>(RANKS, event_cfg(), move |rank| {
        let comm = Communicator::world(rank);
        let mut buf = vec![1.0f32; LEN];
        comm.bcast_algo(0, &mut buf, algo);
        black_box(buf[0])
    });
    (rep.makespan, rep.stats.per_rank_msgs[0])
}

/// The paper's rotating schedule, as the conv executor uses it along
/// fibers: the payload lives as `n` per-rank panels and every round a
/// different root broadcasts its panel, so the same `(n−1)·LEN` total
/// volume flows but the per-round serialization is `(n−1)·(LEN/n)`
/// elements and the `n` roots' sends overlap on disjoint links.
fn rotating_makespan() -> (f64, u64) {
    let rep = Machine::run::<f32, _, _>(RANKS, event_cfg(), |rank| {
        let comm = Communicator::world(rank);
        let panel = LEN / RANKS;
        let mut acc = 0.0f32;
        for root in 0..RANKS {
            let mut buf = if comm.me() == root {
                vec![root as f32; panel]
            } else {
                Vec::new()
            };
            comm.bcast_algo(root, &mut buf, BcastAlgo::Linear);
            acc += buf[0];
        }
        black_box(acc)
    });
    let max_msgs = rep.stats.per_rank_msgs.iter().copied().max().unwrap_or(0);
    (rep.makespan, max_msgs)
}

/// Wall-clock cost of running each schedule on the substrate (thread
/// backend, default config — the overhead every experiment pays).
fn bench_bcast_schedules(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("bcast_schedules_wall");
    for (name, algo) in [
        ("linear", BcastAlgo::Linear),
        ("binomial", BcastAlgo::Binomial),
        ("ring", BcastAlgo::Ring),
    ] {
        let len = 64 * 1024usize;
        g.bench_throughput(name, Some((len * 7) as u64), move || {
            Machine::run::<f32, _, _>(8, MachineConfig::default(), move |rank| {
                let comm = Communicator::world(rank);
                let mut buf = vec![1.0f32; len];
                comm.bcast_algo(0, &mut buf, algo);
                black_box(buf[0])
            })
        });
    }
    records.extend(g.finish());
}

fn bench_allreduce(records: &mut Vec<BenchRecord>) {
    let mut g = Suite::new("allreduce");
    for len in [1024usize, 64 * 1024] {
        g.bench_throughput(format!("len/{len}"), Some(len as u64), || {
            Machine::run::<f32, _, _>(8, MachineConfig::default(), |rank| {
                let comm = Communicator::world(rank);
                let mut buf = vec![rank.id() as f32; len];
                comm.allreduce(&mut buf);
                black_box(buf[0])
            })
        });
    }
    records.extend(g.finish());
}

fn bench_machine_spinup(records: &mut Vec<BenchRecord>) {
    // Thread spawn + teardown cost: the fixed overhead every simulated
    // experiment pays, on both backends (the event backend adds the
    // scheduler handoffs).
    let mut g = Suite::new("machine_spinup");
    for procs in [4usize, 16, 64] {
        g.bench(format!("threads/ranks/{procs}"), move || {
            Machine::run::<f32, _, _>(procs, MachineConfig::default(), |rank| rank.id())
        });
        g.bench(format!("event/ranks/{procs}"), move || {
            Machine::run::<f32, _, _>(procs, event_cfg(), |rank| rank.id())
        });
    }
    records.extend(g.finish());
}

fn main() {
    let mut records = Vec::new();
    bench_bcast_schedules(&mut records);
    bench_allreduce(&mut records);
    bench_machine_spinup(&mut records);

    // The deterministic comparison: same (n−1)·LEN delivered volume on
    // every row; only the schedule changes.
    let (linear, linear_root_msgs) = bcast_makespan(BcastAlgo::Linear);
    let (binomial, binomial_root_msgs) = bcast_makespan(BcastAlgo::Binomial);
    let (ring, ring_root_msgs) = bcast_makespan(BcastAlgo::Ring);
    let (rotating, rotating_max_msgs) = rotating_makespan();

    println!("\nvirtual α–β makespan, {RANKS} ranks, {LEN}-element payload:");
    println!("  linear    {linear:.6e} s  (root sends {linear_root_msgs} full payloads serially)");
    println!("  binomial  {binomial:.6e} s  (root sends {binomial_root_msgs}; depth ⌈log₂ n⌉)");
    println!("  ring      {ring:.6e} s  (root sends {ring_root_msgs} segments down the chain)");
    println!("  rotating  {rotating:.6e} s  (paper's schedule; busiest rank sends {rotating_max_msgs} panel-sized messages)");

    let derived: Vec<(&str, f64)> = vec![
        ("virtual_makespan_linear_s", linear),
        ("virtual_makespan_binomial_s", binomial),
        ("virtual_makespan_ring_s", ring),
        ("virtual_makespan_rotating_s", rotating),
        ("root_msgs_linear", linear_root_msgs as f64),
        ("root_msgs_binomial", binomial_root_msgs as f64),
        ("root_msgs_ring", ring_root_msgs as f64),
        ("max_rank_msgs_rotating", rotating_max_msgs as f64),
    ];
    write_json_report("BENCH_collectives.json", &records, &derived);
}
