//! The four workloads: their models and configuration, set-up, one
//! timed window each, and the correctness gate run after the window.

use crate::stats::{arrivals, median, peak_rss_mb, percentile, process_cpu_ms, sorted};
use distconv_core::{
    batch_seed, dispatch_batch, run_network, CoreError, NetworkPlan, NetworkReport,
};
use distconv_cost::{Conv2dProblem, MachineSpec};
use distconv_par::SplitMix64;
use distconv_serve::{ModelSpec, RequestResult, ServeConfig, ServeReport, Server};
use distconv_simnet::{Backend, FaultPlan, MachineConfig};
use distconv_trace::TraceConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Per-rank memory of every simulated machine, in words.
pub const MEM: usize = 1 << 22;

/// Offered load of `serve_open`, requests per second. With
/// `LATENCY_BUDGET` this makes λ·budget = 0.2: about four batches in
/// five are deadline flushes of one request, so the median and the
/// 90th percentile both sit inside the deadline-flush mode. At rates
/// that keep the cluster half busy the median instead sits on the edge
/// between the full-batch and partner-wait modes, and queueing
/// amplifies host noise (16–35% run-to-run spread at 60–150 rps).
pub const OPEN_RATE: f64 = 20.0;

/// How long a request may wait for its batch to fill. Closed-loop
/// waves always form full batches at once, so only `serve_open` waits.
const LATENCY_BUDGET: Duration = Duration::from_millis(10);

/// Full batches per tenant in each closed-loop wave.
const WAVE_BATCHES: usize = 2;

/// Passes per `net_scale` wave. A wave's passes are all due when it
/// starts and run back to back, so the j-th completes after j passes.
/// Single passes looped back to back have almost no tail of their own,
/// so their 90th percentile measured only host stalls: on a noisy host
/// it spread 63% run to run, against 15% for the median. In waves of
/// five the median is the third pass of a wave and the 90th percentile
/// the fifth, each in the middle of its own mode, and both are sums of
/// several passes, so host noise moves them about as much as the rate.
const NET_WAVE: usize = 5;

/// Batches per model whose digests the gate recomputes.
const DIGEST_SAMPLES: usize = 6;

/// A backlog left after the open-loop schedule ends that takes longer
/// than this to drain means the offered load outran the server.
const MAX_DRAIN: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeOpen,
    ServeSat,
    ServeChaos,
    NetScale,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeOpen,
        Workload::ServeSat,
        Workload::ServeChaos,
        Workload::NetScale,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOpen => "serve_open",
            Workload::ServeSat => "serve_sat",
            Workload::ServeChaos => "serve_chaos",
            Workload::NetScale => "net_scale",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ranks of every model's machine.
    pub fn procs(self) -> usize {
        match self {
            Workload::NetScale => 64,
            _ => 4,
        }
    }

    /// Whether ops are served requests (else `run_network` passes).
    pub fn is_serve(self) -> bool {
        self != Workload::NetScale
    }

    /// Latency limit of `slo_share`, milliseconds: about 2.5 times the
    /// 90th percentile on a quiet host, so that host noise alone rarely
    /// misses it while a doubled latency does.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::ServeOpen => 50.0,
            Workload::ServeSat => 450.0,
            Workload::ServeChaos => 500.0,
            Workload::NetScale => 400.0,
        }
    }

    pub fn models(self) -> Vec<ModelSpec> {
        let names: &[&str] = match self {
            Workload::ServeSat | Workload::ServeChaos => &["expand", "downsample", "mixer"],
            Workload::ServeOpen | Workload::NetScale => &["mixer"],
        };
        names
            .iter()
            .map(|&name| ModelSpec {
                name: name.to_string(),
                layers: net(name),
                machine: MachineSpec::new(self.procs(), MEM),
            })
            .collect()
    }

    /// Event backend, in-program tracing off; `serve_chaos` adds a
    /// persistent crash of rank 1 at its fifth send.
    pub fn machine_cfg(self) -> MachineConfig {
        let faults = match self {
            Workload::ServeChaos => FaultPlan::default().with_persistent_crash(1, 5),
            _ => FaultPlan::default(),
        };
        MachineConfig {
            backend: Backend::Event,
            trace: TraceConfig::off(),
            faults,
            ..MachineConfig::default()
        }
    }

    fn serve_cfg(self) -> ServeConfig {
        ServeConfig {
            latency_budget: LATENCY_BUDGET,
            queue_capacity: 64,
            // With two clusters racing for two cores, the median request
            // of a closed-loop wave sits in whichever of two concurrent
            // batches ends first, which flips from wave to wave.
            clusters: 1,
            machine: self.machine_cfg(),
        }
    }
}

/// The E17 autotuner nets (`autotune_nets` in the experiments crate),
/// stated here so that the benchmark's inputs stay fixed when the
/// experiment code changes.
pub fn net(name: &str) -> Vec<Conv2dProblem> {
    let p = Conv2dProblem::new;
    match name {
        "expand" => vec![
            p(4, 16, 4, 16, 16, 3, 3, 1, 1),
            p(4, 32, 16, 14, 14, 3, 3, 1, 1),
            p(4, 64, 32, 12, 12, 3, 3, 1, 1),
            p(4, 64, 64, 10, 10, 3, 3, 1, 1),
        ],
        "downsample" => vec![
            p(8, 8, 4, 32, 32, 3, 3, 1, 1),
            p(8, 16, 8, 16, 16, 2, 2, 2, 2),
            p(8, 32, 16, 14, 14, 3, 3, 1, 1),
            p(8, 32, 32, 7, 7, 2, 2, 2, 2),
        ],
        "mixer" => vec![
            p(2, 32, 8, 8, 8, 3, 3, 1, 1),
            p(2, 64, 32, 8, 8, 1, 1, 1, 1),
            p(2, 32, 64, 6, 6, 3, 3, 1, 1),
            p(2, 16, 32, 6, 6, 1, 1, 1, 1),
        ],
        other => panic!("no net named {other}"),
    }
}

/// The plan the serving layer re-routes to after losing one rank: the
/// same downward scan over survivor counts its recovery runs.
pub fn degraded_plan(layers: &[Conv2dProblem], procs: usize) -> Option<NetworkPlan> {
    (1..procs)
        .rev()
        .find_map(|p| NetworkPlan::plan_tuned(layers, MachineSpec::new(p, MEM)).ok())
}

/// A workload ready to be driven: a started, warmed server, or a
/// planned network.
pub enum Engine {
    Serve(Box<Server>),
    Net(NetworkPlan),
}

/// Plan every model and run one warm-up batch per model. Returns the
/// engine and the wall time this took.
pub fn setup(wl: Workload, rng: &mut SplitMix64) -> Result<(Engine, Duration), String> {
    let t0 = Instant::now();
    let models = wl.models();
    if !wl.is_serve() {
        let plan = NetworkPlan::plan_tuned(&models[0].layers, models[0].machine)
            .map_err(|e| format!("plan_tuned: {e}"))?;
        let warm = run_network::<f64>(&plan, rng.next_u64(), wl.machine_cfg())
            .map_err(|e| format!("warm-up pass: {e}"))?;
        if !warm.verified || !warm.conformance().pass() {
            return Err("warm-up pass failed verification or conformance".into());
        }
        return Ok((Engine::Net(plan), t0.elapsed()));
    }
    let server =
        Server::start(models.clone(), wl.serve_cfg()).map_err(|e| format!("Server::start: {e}"))?;
    for (m, spec) in models.iter().enumerate() {
        for _ in 0..spec.layers[0].nb {
            server
                .submit(m, rng.next_u64())
                .map_err(|e| format!("warm-up submit: {e}"))?;
        }
    }
    // Poll far finer than `drain`'s own 5 ms wake-up, which would
    // otherwise round set-up time up to it.
    let deadline = t0 + Duration::from_secs(60);
    while !server.drain(Duration::ZERO) {
        if Instant::now() > deadline {
            return Err("warm-up batches did not drain within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok((Engine::Serve(Box::new(server)), t0.elapsed()))
}

/// Shut down an engine that was only set up (not driven), checking what
/// its warm-up ran. Returns the problems found.
pub fn retire(wl: Workload, engine: Engine) -> Vec<String> {
    match engine {
        Engine::Net(_) => Vec::new(),
        Engine::Serve(server) => {
            let (report, results, errors) = server.shutdown();
            let mut problems = errors;
            if !report.conformance().pass() {
                problems.push("warm-up volume conformance failed".into());
            }
            let (bad, notes) = check_digests(wl, &report, &results);
            problems.extend(notes);
            if bad > 0 {
                problems.push(format!("{bad} warm-up digests differ"));
            }
            problems
        }
    }
}

/// Equal parts a timed window is cut into. Rates, CPU per op, latency
/// percentiles and the SLO share are each taken per part and reported
/// as the median over parts, so that a burst of load from outside the
/// process moves one part and not the figure.
pub const SLICES: usize = 5;

/// One part of a timed window: ops issued in it, the wall time from its
/// first issue to the next part's, and the process CPU time spent then.
#[derive(Clone, Copy, Default)]
pub struct Slice {
    pub issued: usize,
    pub secs: f64,
    pub cpu_ms: f64,
}

/// Assigns each issued op to the slice its issue time falls in, and
/// keeps each slice's wall and CPU time.
struct Slicer {
    t0: Instant,
    width: f64,
    cur: usize,
    start: Instant,
    cpu0: f64,
    slices: Vec<Slice>,
}

impl Slicer {
    fn new(window: Duration) -> Slicer {
        let t0 = Instant::now();
        Slicer {
            t0,
            width: window.as_secs_f64() / SLICES as f64,
            cur: 0,
            start: t0,
            cpu0: process_cpu_ms(),
            slices: vec![Slice::default(); SLICES],
        }
    }

    /// Record one op issued now; returns its slice.
    fn issue(&mut self) -> usize {
        let now = Instant::now();
        let s = ((now - self.t0).as_secs_f64() / self.width) as usize;
        let s = s.min(SLICES - 1);
        if s != self.cur {
            self.close(now);
            self.cur = s;
        }
        self.slices[s].issued += 1;
        s
    }

    fn close(&mut self, now: Instant) {
        let cpu = process_cpu_ms();
        let slice = &mut self.slices[self.cur];
        slice.secs += (now - self.start).as_secs_f64();
        slice.cpu_ms += cpu - self.cpu0;
        self.start = now;
        self.cpu0 = cpu;
    }

    fn finish(mut self) -> Vec<Slice> {
        self.close(Instant::now());
        self.slices
    }
}

/// A completed op.
pub struct Sample {
    pub model: usize,
    pub slice: usize,
    /// From when the op was due to when it completed.
    pub latency_ms: f64,
}

/// What one timed window measured, and what its gate found.
#[derive(Default)]
pub struct WindowOut {
    pub attempted: usize,
    /// Ops rejected, errored, lost, or failing verification,
    /// conformance or the digest check.
    pub failed: usize,
    /// Reasons the run is not valid (gate failures, growing backlog).
    pub problems: Vec<String>,
    pub slices: Vec<Slice>,
    pub samples: Vec<Sample>,
    pub peak_rss_mb: f64,
    pub comm_elems_per_op: f64,
    /// Wall time of each `submit` call, microseconds (traced only).
    pub submit_us: Vec<f64>,
    /// How late the generator issued each op, ms: after its scheduled
    /// time (open loop), or after the op or wave before it completed
    /// (closed loop).
    pub gen_late_ms: Vec<f64>,
    pub report: Option<ServeReport>,
    pub open_loop: bool,
}

impl WindowOut {
    /// `f` of each slice that issued ops; their median.
    fn per_slice(&self, f: impl Fn(usize, &Slice) -> f64) -> f64 {
        let v: Vec<f64> = self
            .slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.issued > 0)
            .map(|(i, s)| f(i, s))
            .collect();
        median(v)
    }

    /// Completed ops per second. An open loop's rate is the offered
    /// one, and a slice's share of the seeded arrivals varies, so it is
    /// taken over the whole window, drain included.
    pub fn ops_per_s(&self) -> f64 {
        if self.open_loop {
            let secs: f64 = self.slices.iter().map(|s| s.secs).sum();
            return self.samples.len() as f64 / secs;
        }
        self.per_slice(|_, s| s.issued as f64 / s.secs)
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.per_slice(|_, s| s.cpu_ms / s.issued as f64)
    }

    pub fn latency_ms(&self, q: f64) -> f64 {
        self.per_slice(|i, _| {
            let lat = self.samples.iter().filter(|o| o.slice == i);
            percentile(&sorted(lat.map(|o| o.latency_ms).collect()), q)
        })
    }

    /// Share of issued ops that completed within `limit_ms`; failed
    /// ops count as misses.
    pub fn slo_share(&self, limit_ms: f64) -> f64 {
        self.per_slice(|i, s| {
            let hits = self
                .samples
                .iter()
                .filter(|o| o.slice == i && o.latency_ms <= limit_ms);
            hits.count() as f64 / s.issued as f64
        })
    }
}

/// Drive `engine` for `window`, then run the correctness gate.
pub fn run_window(
    wl: Workload,
    engine: Engine,
    window: Duration,
    traced: bool,
    rng: &mut SplitMix64,
) -> WindowOut {
    match engine {
        Engine::Net(plan) => net_window(wl, &plan, window, rng),
        Engine::Serve(server) => serve_window(wl, *server, window, traced, rng),
    }
}

fn net_window(
    wl: Workload,
    plan: &NetworkPlan,
    window: Duration,
    rng: &mut SplitMix64,
) -> WindowOut {
    let cfg = wl.machine_cfg();
    let mut out = WindowOut::default();
    let mut passes: Vec<(usize, f64, Result<NetworkReport, CoreError>)> = Vec::new();
    let mut slicer = Slicer::new(window);
    let mut prev_done = slicer.t0;
    while slicer.t0.elapsed() < window {
        // A wave is due as soon as the previous one has returned.
        let due = Instant::now();
        let slices: Vec<usize> = (0..NET_WAVE).map(|_| slicer.issue()).collect();
        for slice in slices {
            let t = Instant::now();
            out.gen_late_ms.push(ms(t.duration_since(prev_done)));
            let r = run_network::<f64>(plan, rng.next_u64(), cfg);
            prev_done = Instant::now();
            passes.push((slice, ms(prev_done.duration_since(due)), r));
        }
    }
    out.slices = slicer.finish();
    out.peak_rss_mb = peak_rss_mb();

    out.attempted = passes.len();
    let mut volume = 0u128;
    for (slice, latency_ms, r) in passes {
        match r {
            Ok(r) if r.verified && r.conformance().pass() => {
                volume += r.measured_total();
                out.samples.push(Sample {
                    model: 0,
                    slice,
                    latency_ms,
                });
            }
            Ok(_) => out.problems.push("a pass failed volume conformance".into()),
            Err(e) => out.problems.push(format!("run_network: {e}")),
        }
    }
    out.failed = out.attempted - out.samples.len();
    out.comm_elems_per_op = volume as f64 / out.samples.len().max(1) as f64;
    out
}

fn serve_window(
    wl: Workload,
    server: Server,
    window: Duration,
    traced: bool,
    rng: &mut SplitMix64,
) -> WindowOut {
    let models = wl.models();
    let arrival_seed = rng.next_u64();
    let mut out = WindowOut::default();
    let mut slicer = Slicer::new(window);
    let t0 = slicer.t0;
    // Request id -> (closed-loop wave, slice, when due, when submitted).
    let mut sent: HashMap<u64, (usize, usize, Instant, Instant)> = HashMap::new();
    let mut submit = |out: &mut WindowOut, model: usize, wave: usize, due: Instant| {
        out.attempted += 1;
        let slice = slicer.issue();
        let t = Instant::now();
        let r = server.submit(model, rng.next_u64());
        if traced {
            out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if let Ok(id) = r {
            sent.insert(id.0, (wave, slice, due, t));
        }
    };
    let mut wave_starts = Vec::new();
    out.open_loop = wl == Workload::ServeOpen;
    if out.open_loop {
        for due in arrivals(arrival_seed, OPEN_RATE, window) {
            let due = t0 + due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            out.gen_late_ms.push(ms(Instant::now().duration_since(due)));
            submit(&mut out, 0, 0, due);
        }
        if let Some(rest) = (t0 + window).checked_duration_since(Instant::now()) {
            std::thread::sleep(rest);
        }
        let t = Instant::now();
        if !server.drain(Duration::from_secs(10)) || t.elapsed() > MAX_DRAIN {
            out.problems.push(format!(
                "backlog grew: draining after the schedule took {:.0} ms",
                ms(t.elapsed())
            ));
        }
    } else {
        // Closed loop: `Server` signals completion only by going
        // quiescent, so each wave is submitted whole and drained.
        while t0.elapsed() < window {
            let start = Instant::now();
            for (m, spec) in models.iter().enumerate() {
                for _ in 0..WAVE_BATCHES * spec.layers[0].nb {
                    submit(&mut out, m, wave_starts.len(), start);
                }
            }
            wave_starts.push(start);
            if !server.drain(Duration::from_secs(60)) {
                out.problems.push("a wave did not drain within 60 s".into());
                break;
            }
        }
    }
    out.slices = slicer.finish();
    out.peak_rss_mb = peak_rss_mb();

    let (report, results, errors) = server.shutdown();
    out.problems.extend(errors);
    let mut wave_done: Vec<Option<Instant>> = vec![None; wave_starts.len()];
    for r in &results {
        if let Some(&(wave, slice, due, submitted)) = sent.get(&r.id.0) {
            let done = submitted + r.latency;
            out.samples.push(Sample {
                model: r.model,
                slice,
                latency_ms: ms(done.duration_since(due)),
            });
            if let Some(d) = wave_done.get_mut(wave) {
                *d = Some(d.map_or(done, |d: Instant| d.max(done)));
            }
        }
    }
    // A closed-loop wave is due once the previous one has completed.
    for (start, prev_done) in wave_starts.iter().skip(1).zip(&wave_done) {
        if let Some(prev_done) = prev_done {
            out.gen_late_ms
                .push(ms(start.saturating_duration_since(*prev_done)));
        }
    }
    let (completed, rejected) = (out.samples.len(), report.total_rejected());
    if completed + rejected != out.attempted {
        out.problems.push(format!(
            "{} attempted, {completed} completed, {rejected} rejected",
            out.attempted
        ));
    }
    out.failed = out.attempted - completed;
    if !report.conformance().pass() {
        out.problems.push("served volume conformance failed".into());
        out.failed = out.attempted;
    }
    let (bad, notes) = check_digests(wl, &report, &results);
    out.problems.extend(notes);
    out.failed = (out.failed + bad).min(out.attempted);
    let volume: u128 = report.models.iter().map(|m| m.measured_volume).sum();
    out.comm_elems_per_op = volume as f64 / report.total_completed().max(1) as f64;
    out.report = Some(report);
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Recompute the digests of a sample of served batches with
/// `dispatch_batch`. Batches are FIFO prefixes of each model's queue, so
/// a model's results in admission (id) order split into consecutive
/// runs of `batch_fill` requests, each one batch. Returns the number of
/// requests whose digest differs, and a note per problem.
pub fn check_digests(
    wl: Workload,
    report: &ServeReport,
    results: &[RequestResult],
) -> (usize, Vec<String>) {
    let cfg = MachineConfig {
        faults: FaultPlan::default(),
        ..wl.machine_cfg()
    };
    let mut bad = 0;
    let mut notes = Vec::new();
    for (m, spec) in wl.models().iter().enumerate() {
        let tally = &report.models[m];
        let plan = if tally.degraded_batches == 0 {
            NetworkPlan::plan_tuned(&spec.layers, spec.machine).ok()
        } else if tally.degraded_batches == tally.batches {
            degraded_plan(&spec.layers, spec.machine.p)
        } else {
            None
        };
        let Some(plan) = plan else {
            notes.push(format!("{}: no single plan ran every batch", spec.name));
            bad += tally.completed;
            continue;
        };
        let mut rs: Vec<&RequestResult> = results.iter().filter(|r| r.model == m).collect();
        rs.sort_by_key(|r| r.id.0);
        let mut batches: Vec<&[&RequestResult]> = Vec::new();
        let mut rest = &rs[..];
        while let Some(first) = rest.first() {
            let fill = first.batch_fill;
            if fill == 0 || fill > rest.len() || rest[..fill].iter().any(|r| r.batch_fill != fill) {
                notes.push(format!("{}: results do not split into batches", spec.name));
                bad += rest.len();
                break;
            }
            batches.push(&rest[..fill]);
            rest = &rest[fill..];
        }
        let picks = DIGEST_SAMPLES.min(batches.len());
        for i in 0..picks {
            let batch = batches[i * batches.len() / picks];
            let seeds: Vec<u64> = batch.iter().map(|r| r.seed).collect();
            let ok = dispatch_batch::<f64>(&plan, batch_seed(&seeds), cfg)
                .is_ok_and(|run| batch.iter().zip(&run.digests).all(|(r, &d)| r.digest == d));
            if !ok {
                notes.push(format!(
                    "{}: batch digest differs on recomputation",
                    spec.name
                ));
                bad += batch.len();
            }
        }
    }
    (bad, notes)
}
