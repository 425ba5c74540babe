//! The admission/batching server.
//!
//! Three kinds of threads cooperate through one mutex + two condvars:
//!
//! * **Submitters** (any thread) call [`Server::submit`]: admission is
//!   a bounded-queue push — `O(1)`, never blocks on execution — with a
//!   typed [`SubmitError::Saturated`] reject when the model's queue is
//!   full (backpressure).
//! * The **batcher** thread coalesces waiting requests into
//!   `Nb`-sized batches, flushing a *partial* batch when the oldest
//!   waiting request exceeds the latency budget (never an empty one:
//!   a deadline with an empty queue is a no-op). Membership is always
//!   a FIFO prefix, so batch composition is a pure function of the
//!   admission order — the property the replay/chaos tests pin.
//! * **Cluster workers** (`ServeConfig::clusters` threads) pop formed
//!   batches and run them on their own simulated machine through
//!   [`distconv_core::recover()`], recovering from injected crashes by
//!   replay or degraded re-plan, and keep a model's survivor plan for
//!   its later batches once a persistent crash has shrunk it.
//!
//! A *request* is modeled by its seed: sample `i` of a batch whose
//! member seeds fold (in slot order) into the batch seed via
//! [`distconv_core::batch::batch_seed`]. The per-request result is the
//! sample's output digest — deterministic in (plan, batch seed, slot),
//! which is what makes rejected-free runs comparable bitwise across
//! replays and backends.

use crate::config::ServeConfig;
use crate::report::{percentile_ms, ModelReport, ServeReport};
use distconv_core::batch::{batch_seed, dispatch_batch};
use distconv_core::{recover, NetworkError, NetworkPlan};
use distconv_cost::{Conv2dProblem, MachineSpec};
use distconv_simnet::MachineConfig;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One tenant: a named layer chain planned once at server start.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Display name (report rows are keyed by it).
    pub name: String,
    /// The layer chain (consecutive shapes must be compatible).
    pub layers: Vec<Conv2dProblem>,
    /// The simulated machine the model's clusters run on.
    pub machine: MachineSpec,
}

/// Globally unique request handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RequestId(pub u64);

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The model's bounded queue is full — the caller should back off.
    Saturated {
        /// Index of the saturated model.
        model: usize,
        /// The configured queue capacity it hit.
        capacity: usize,
    },
    /// No such model index.
    UnknownModel {
        /// The out-of-range index.
        model: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated { model, capacity } => {
                write!(f, "model {model} queue saturated (capacity {capacity})")
            }
            SubmitError::UnknownModel { model } => write!(f, "unknown model index {model}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`Server::start`] refused to start.
#[derive(Clone, Debug, PartialEq)]
pub enum StartError {
    /// The model list was empty.
    NoModels,
    /// `ServeConfig::clusters` was 0: nothing would execute batches.
    NoClusters,
    /// A model could not be planned on its machine.
    Plan(NetworkError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::NoModels => write!(f, "need at least one model"),
            StartError::NoClusters => write!(f, "need at least one cluster"),
            StartError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// A completed request's attribution.
#[derive(Clone, Debug)]
pub struct RequestResult {
    /// The admission handle.
    pub id: RequestId,
    /// Which model served it.
    pub model: usize,
    /// The request's seed (as submitted).
    pub seed: u64,
    /// The request's output-sample digest (see
    /// [`distconv_core::batch::BatchRun::digests`]).
    pub digest: u64,
    /// Queueing + execution latency.
    pub latency: Duration,
    /// How many real requests shared the batch (≤ `Nb`).
    pub batch_fill: usize,
}

struct Pending {
    id: RequestId,
    seed: u64,
    submitted: Instant,
}

struct FormedBatch {
    model: usize,
    members: Vec<Pending>,
}

#[derive(Default)]
struct BatchTallies {
    batches: usize,
    partial_flushes: usize,
    replays: u32,
    degraded_batches: usize,
    expected_volume: u128,
    measured_volume: u128,
}

/// Capacity of one block of the result log.
const RESULT_BLOCK: usize = 1024;

struct State {
    queues: Vec<VecDeque<Pending>>,
    dispatch: VecDeque<FormedBatch>,
    in_flight: usize,
    /// Completed requests, append-only in blocks of [`RESULT_BLOCK`]: a
    /// push never moves earlier results, so a long run pays no large
    /// reallocation copy under this mutex.
    results: Vec<Vec<RequestResult>>,
    rejected: Vec<usize>,
    tallies: Vec<BatchTallies>,
    errors: Vec<String>,
    next_id: u64,
    shutdown: bool,
    batcher_done: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled on submit and shutdown — wakes the batcher.
    submitted: Condvar,
    /// Signaled when a batch is formed (or the batcher exits) — wakes
    /// cluster workers.
    work: Condvar,
}

struct ModelRuntime {
    spec: ModelSpec,
    plan: NetworkPlan,
    nb: usize,
}

/// The serving front-end. Construct with [`Server::start`], submit
/// with [`Server::submit`], and finish with [`Server::shutdown`] —
/// which drains every queue (as partial batches), joins all threads
/// and returns the SLO report plus per-request results.
pub struct Server {
    shared: Arc<Shared>,
    models: Arc<Vec<ModelRuntime>>,
    cfg: ServeConfig,
    started: Instant,
    batcher: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Plan every model (via [`NetworkPlan::plan_tuned`]) and start the
    /// batcher and cluster worker threads.
    pub fn start(models: Vec<ModelSpec>, cfg: ServeConfig) -> Result<Server, StartError> {
        if models.is_empty() {
            return Err(StartError::NoModels);
        }
        if cfg.clusters == 0 {
            return Err(StartError::NoClusters);
        }
        let models: Vec<ModelRuntime> = models
            .into_iter()
            .map(|spec| {
                let plan = NetworkPlan::plan_tuned(&spec.layers, spec.machine)?;
                let nb = spec.layers[0].nb;
                Ok(ModelRuntime { spec, plan, nb })
            })
            .collect::<Result<_, NetworkError>>()
            .map_err(StartError::Plan)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: models.iter().map(|_| VecDeque::new()).collect(),
                dispatch: VecDeque::new(),
                in_flight: 0,
                results: Vec::new(),
                rejected: vec![0; models.len()],
                tallies: models.iter().map(|_| BatchTallies::default()).collect(),
                errors: Vec::new(),
                next_id: 0,
                shutdown: false,
                batcher_done: false,
            }),
            submitted: Condvar::new(),
            work: Condvar::new(),
        });
        let models = Arc::new(models);

        let batcher = {
            let shared = Arc::clone(&shared);
            let models = Arc::clone(&models);
            let budget = cfg.latency_budget;
            std::thread::spawn(move || batcher_loop(&shared, &models, budget))
        };
        let workers = (0..cfg.clusters)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let models = Arc::clone(&models);
                let machine_cfg = cfg.machine;
                std::thread::spawn(move || worker_loop(&shared, &models, machine_cfg))
            })
            .collect();

        Ok(Server {
            shared,
            models,
            cfg,
            started: Instant::now(),
            batcher: Some(batcher),
            workers,
        })
    }

    /// Admit one request for `model`. Non-blocking: either the request
    /// is queued (its handle is returned) or a typed reject explains
    /// why. A `Saturated` reject is counted in the final report.
    pub fn submit(&self, model: usize, seed: u64) -> Result<RequestId, SubmitError> {
        if model >= self.models.len() {
            return Err(SubmitError::UnknownModel { model });
        }
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queues[model].len() >= self.cfg.queue_capacity {
            st.rejected[model] += 1;
            return Err(SubmitError::Saturated {
                model,
                capacity: self.cfg.queue_capacity,
            });
        }
        let id = RequestId(st.next_id);
        st.next_id += 1;
        st.queues[model].push_back(Pending {
            id,
            seed,
            submitted: Instant::now(),
        });
        self.shared.submitted.notify_all();
        Ok(id)
    }

    /// Requests currently waiting (admitted, not yet batched) for
    /// `model`. Snapshot — for tests and load shedding heuristics.
    pub fn queue_depth(&self, model: usize) -> usize {
        self.shared.state.lock().unwrap().queues[model].len()
    }

    /// Block until every admitted request has completed — queues,
    /// dispatch backlog and in-flight batches all empty — or `timeout`
    /// elapses; returns whether the server went quiescent. Unlike
    /// [`Server::shutdown`], draining relies on the *batcher's* flush
    /// policy, so a sub-`Nb` tail leaves via the latency-budget
    /// deadline, not the shutdown drain.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            let busy = st.queues.iter().any(|q| !q.is_empty())
                || !st.dispatch.is_empty()
                || st.in_flight > 0;
            if !busy {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(Duration::from_millis(5));
            st = self.shared.submitted.wait_timeout(st, wait).unwrap().0;
        }
    }

    /// Stop admitting, drain every queue as (partial) batches, join
    /// all threads, and return the SLO report plus every completed
    /// request's result. Errors surfaced by cluster workers (anything
    /// other than a recovered fault) are returned as strings.
    pub fn shutdown(mut self) -> (ServeReport, Vec<RequestResult>, Vec<String>) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.submitted.notify_all();
        }
        if let Some(b) = self.batcher.take() {
            b.join().expect("batcher panicked");
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            st.batcher_done = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            w.join().expect("cluster worker panicked");
        }
        let wall = self.started.elapsed();
        let mut st = self.shared.state.lock().unwrap();
        let report = build_report(&self.models, &st, wall);
        let results = std::mem::take(&mut st.results).into_iter().flatten();
        (report, results.collect(), std::mem::take(&mut st.errors))
    }
}

/// Pick the next batch to form, if any: a full `Nb` prefix, or (when
/// draining or past the latency budget) a non-empty partial prefix.
fn take_ready_batch(
    st: &mut State,
    models: &[ModelRuntime],
    budget: Duration,
    draining: bool,
) -> Option<FormedBatch> {
    for (m, rt) in models.iter().enumerate() {
        let q = &mut st.queues[m];
        if q.is_empty() {
            continue;
        }
        let full = q.len() >= rt.nb;
        let overdue = q.front().is_some_and(|p| p.submitted.elapsed() >= budget);
        if full || overdue || draining {
            let take = q.len().min(rt.nb);
            let members: Vec<Pending> = q.drain(..take).collect();
            return Some(FormedBatch { model: m, members });
        }
    }
    None
}

fn batcher_loop(shared: &Shared, models: &[ModelRuntime], budget: Duration) {
    let mut st = shared.state.lock().unwrap();
    loop {
        let draining = st.shutdown;
        if let Some(batch) = take_ready_batch(&mut st, models, budget, draining) {
            st.dispatch.push_back(batch);
            shared.work.notify_all();
            continue;
        }
        // Nothing ready. If draining, every queue is empty: done.
        if draining {
            return;
        }
        // Sleep until the next deadline of a waiting request (a
        // deadline firing with an empty queue flushes nothing), or
        // until a submit/shutdown wakes us.
        let next_deadline = st
            .queues
            .iter()
            .filter_map(|q| q.front())
            .map(|p| budget.saturating_sub(p.submitted.elapsed()))
            .min();
        st = match next_deadline {
            Some(wait) => {
                shared
                    .submitted
                    .wait_timeout(st, wait.max(Duration::from_micros(100)))
                    .unwrap()
                    .0
            }
            None => shared.submitted.wait(st).unwrap(),
        };
    }
}

fn worker_loop(shared: &Shared, models: &[ModelRuntime], machine_cfg: MachineConfig) {
    // Per model, the survivor plan and pruned faults this worker's
    // machine degraded to. The configured faults still apply afresh to
    // every batch run on the model's own plan.
    let mut standing: Vec<Option<(NetworkPlan, MachineConfig)>> = vec![None; models.len()];
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(b) = st.dispatch.pop_front() {
                    st.in_flight += 1;
                    break b;
                }
                if st.batcher_done {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let rt = &models[batch.model];
        let seeds: Vec<u64> = batch.members.iter().map(|p| p.seed).collect();
        let seed = batch_seed(&seeds);
        let on_standing = standing[batch.model].is_some();
        let (plan, cfg) = standing[batch.model]
            .as_ref()
            .map_or((&rt.plan, machine_cfg), |(plan, cfg)| (plan, *cfg));
        let outcome = recover(
            plan,
            cfg,
            |plan, cfg| dispatch_batch::<f64>(plan, seed, cfg),
            |p| {
                let machine = MachineSpec::new(p, rt.spec.machine.mem);
                NetworkPlan::plan_tuned(&rt.spec.layers, machine).ok()
            },
        );
        let done = Instant::now();
        let mut st = shared.state.lock().unwrap();
        st.in_flight -= 1;
        match outcome {
            Ok(out) => {
                if out.degraded.is_some() {
                    standing[batch.model] = out.degraded;
                }
                let t = &mut st.tallies[batch.model];
                t.batches += 1;
                if batch.members.len() < rt.nb {
                    t.partial_flushes += 1;
                }
                t.replays += out.recovery.attempts;
                if on_standing || out.recovery.degraded() {
                    t.degraded_batches += 1;
                }
                t.expected_volume += out.value.report.expected_total();
                t.measured_volume += out.value.report.measured_total();
                let fill = batch.members.len();
                for (slot, p) in batch.members.into_iter().enumerate() {
                    if st.results.last().is_none_or(|b| b.len() == RESULT_BLOCK) {
                        st.results.push(Vec::with_capacity(RESULT_BLOCK));
                    }
                    let block = st.results.last_mut().expect("block with room");
                    block.push(RequestResult {
                        id: p.id,
                        model: batch.model,
                        seed: p.seed,
                        digest: out.value.digests[slot],
                        latency: done.duration_since(p.submitted),
                        batch_fill: fill,
                    });
                }
            }
            Err(e) => {
                st.errors.push(format!(
                    "model {} batch of {}: {e}",
                    rt.spec.name,
                    batch.members.len()
                ));
            }
        }
    }
}

fn build_report(models: &[ModelRuntime], st: &State, wall: Duration) -> ServeReport {
    let wall_s = wall.as_secs_f64().max(1e-9);
    let reports = models
        .iter()
        .enumerate()
        .map(|(m, rt)| {
            let mut lat: Vec<Duration> = st
                .results
                .iter()
                .flatten()
                .filter(|r| r.model == m)
                .map(|r| r.latency)
                .collect();
            lat.sort();
            let completed = lat.len();
            let mean_ms = if completed == 0 {
                0.0
            } else {
                lat.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / completed as f64
            };
            let t = &st.tallies[m];
            ModelReport {
                name: rt.spec.name.clone(),
                completed,
                rejected: st.rejected[m],
                batches: t.batches,
                partial_flushes: t.partial_flushes,
                replays: t.replays,
                degraded_batches: t.degraded_batches,
                p50_ms: percentile_ms(&lat, 50.0),
                p95_ms: percentile_ms(&lat, 95.0),
                p99_ms: percentile_ms(&lat, 99.0),
                mean_ms,
                max_ms: lat.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
                throughput_rps: completed as f64 / wall_s,
                expected_volume: t.expected_volume,
                measured_volume: t.measured_volume,
            }
        })
        .collect();
    ServeReport {
        models: reports,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}
