//! Multi-layer networks: chain distributed convolutions with
//! inter-layer **redistribution** — the system-level extension that
//! turns the paper's single-layer algorithm into something a training
//! framework could adopt.
//!
//! Each layer gets its own plan (its own processor grid and tiling,
//! chosen by the planner for *that* layer's shape — early layers tend
//! to spatial/batch grids, late layers to `k`/`c` grids). Between
//! layers, the produced `Out` slices must become the next layer's `In`
//! shards: every (producer, consumer) pair exchanges exactly the
//! intersection of the producer's `Out` range with the consumer's `In`
//! shard window (in the next layer's coordinates, `k → c`, output
//! pixels → input pixels). Because all shard geometry is static, every
//! rank computes the full exchange pattern locally — no negotiation
//! traffic.
//!
//! The redistribution volume is an *exact* analytic quantity
//! ([`redistribution_volume`], pinned against measured counters in
//! tests), and is the price the per-layer optimal grids pay for
//! changing shape mid-network — an effect the single-layer paper does
//! not model, surfaced here as a first-class reported cost.

use crate::distribution::{out_range, shard_geometry};
use crate::layout::{
    consumer_in_window, forward_layer, producer_out_window, redistribute_to_next, BoundaryWindows,
    LayerShards, RankLayout,
};
use crate::model::eq10_aggregate;
use distconv_conv::kernels::{conv2d_direct_par, in_shape, ker_shape};
use distconv_cost::{Conv2dProblem, DistPlan, MachineSpec, PlanError, Planner};
use distconv_par::{CommMode, LocalKernel};
use distconv_simnet::{Machine, MachineConfig, Rank, RunError, StatsSnapshot};
use distconv_tensor::{max_rel_err, Range4, Scalar, Tensor4};
use distconv_trace::{ConformanceReport, ConformanceRow, RunTrace, Tolerance};

const TAG_REDIST_BASE: u64 = 0x0E00_0000;

/// A planned multi-layer network.
#[derive(Clone, Debug)]
pub struct NetworkPlan {
    /// Per-layer plans (all on the same machine).
    pub layers: Vec<DistPlan>,
    /// Exact redistribution volume between consecutive layers
    /// (`layers.len() − 1` entries).
    pub redist_volumes: Vec<u128>,
}

impl NetworkPlan {
    /// Plan every layer of `problems` on `machine`, verifying that
    /// consecutive layers are shape-compatible (`out(i) == in(i+1)`:
    /// same batch, `N_k(i) = N_c(i+1)`, output pixels = input pixels).
    ///
    /// A dynamic program over each layer's candidate set
    /// ([`Planner::enumerate`]: every feasible grid the planner's search
    /// visits, each with its own best tiling) minimizing the
    /// **network** objective
    ///
    /// ```text
    /// Σ_i P · cost_D(layer i)  +  Σ_i redistribution_volume(i, i+1)
    /// ```
    ///
    /// in total elements moved (`cost_D` is per-processor, so it is
    /// scaled by `P`; the redistribution term is already a total). Each
    /// layer's own [`Planner::plan`] pick is a candidate, so the
    /// objective is ≤ that per-layer greedy chain's by construction —
    /// strictly lower whenever paying a slightly sub-optimal layer grid
    /// (or a different Case 1/Case 2 regime) avoids a larger
    /// inter-layer reshuffle, the whole-network effect the single-layer
    /// paper does not model. A one-layer network has no redistribution
    /// term, so it gets [`Planner::plan`]'s grid and tiling.
    pub fn plan_tuned(
        problems: &[Conv2dProblem],
        machine: MachineSpec,
    ) -> Result<Self, NetworkError> {
        check_shapes(problems)?;
        let sets = problems
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Planner::new(p, machine)
                    .enumerate()
                    .map_err(|e| NetworkError::Plan {
                        layer: i,
                        source: e,
                    })
            })
            .collect::<Result<Vec<Vec<DistPlan>>, _>>()?;
        let procs = machine.p as f64;

        // Viterbi over layers: best[j] = cheapest objective of any
        // prefix ending in candidate j of the current layer.
        let mut best: Vec<f64> = sets[0].iter().map(|c| procs * c.predicted.cost_d).collect();
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(sets.len().saturating_sub(1));
        for window in sets.windows(2) {
            let (prev_set, cur_set) = (&window[0], &window[1]);
            let mut cur_best = vec![f64::INFINITY; cur_set.len()];
            let mut cur_back = vec![0usize; cur_set.len()];
            for (j, cand) in cur_set.iter().enumerate() {
                let own = procs * cand.predicted.cost_d;
                for (k, prev) in prev_set.iter().enumerate() {
                    let total = best[k] + redistribution_volume(prev, cand) as f64 + own;
                    if total < cur_best[j] {
                        cur_best[j] = total;
                        cur_back[j] = k;
                    }
                }
            }
            best = cur_best;
            back.push(cur_back);
        }

        // Backtrack the winning path.
        let mut j = best
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .map(|(j, _)| j)
            .expect("candidate sets are non-empty");
        let mut picks = vec![j; sets.len()];
        for (i, links) in back.iter().enumerate().rev() {
            j = links[j];
            picks[i] = j;
        }
        let layers = picks
            .iter()
            .zip(&sets)
            .map(|(&j, set)| set[j])
            .collect::<Vec<_>>();
        Self::from_layers(layers)
    }

    /// Assemble a network from already-planned layers, checking that
    /// consecutive layers are shape-compatible and that every layer runs
    /// on the first layer's rank count.
    pub fn from_layers(layers: Vec<DistPlan>) -> Result<Self, NetworkError> {
        let problems: Vec<Conv2dProblem> = layers.iter().map(|l| l.problem).collect();
        check_shapes(&problems)?;
        let ranks = layers[0].grid.total();
        if let Some((layer, l)) = layers
            .iter()
            .enumerate()
            .find(|(_, l)| l.grid.total() != ranks)
        {
            return Err(NetworkError::MachineMismatch {
                layer,
                ranks: l.grid.total(),
                expected: ranks,
            });
        }
        let redist_volumes = layers
            .windows(2)
            .map(|w| redistribution_volume(&w[0], &w[1]))
            .collect();
        Ok(NetworkPlan {
            layers,
            redist_volumes,
        })
    }

    /// Total exact redistribution volume across all layer boundaries.
    pub fn total_redist(&self) -> u128 {
        self.redist_volumes.iter().sum()
    }

    /// The whole-network objective [`NetworkPlan::plan_tuned`]
    /// minimizes, in total elements moved:
    /// `Σ P·cost_D(layer) + Σ redistribution_volume`.
    pub fn predicted_total_cost(&self) -> f64 {
        let layer_cost: f64 = self
            .layers
            .iter()
            .map(|l| l.machine.p as f64 * l.predicted.cost_d)
            .sum();
        layer_cost + self.total_redist() as f64
    }
}

/// A single layer is a one-layer network: nothing to redistribute.
impl From<DistPlan> for NetworkPlan {
    fn from(plan: DistPlan) -> Self {
        NetworkPlan {
            layers: vec![plan],
            redist_volumes: Vec::new(),
        }
    }
}

/// Verify `out(i) == in(i+1)` for every consecutive pair: same batch,
/// `N_k(i) = N_c(i+1)`, output pixels = input pixels.
fn check_shapes(problems: &[Conv2dProblem]) -> Result<(), NetworkError> {
    if problems.is_empty() {
        return Err(NetworkError::Empty);
    }
    for (i, w) in problems.windows(2).enumerate() {
        let (a, b) = (&w[0], &w[1]);
        let ok = a.nb == b.nb && a.nk == b.nc && a.nw == b.in_w() && a.nh == b.in_h();
        if !ok {
            return Err(NetworkError::ShapeMismatch {
                layer: i,
                out: (a.nb, a.nk, a.nw, a.nh),
                next_in: (b.nb, b.nc, b.in_w(), b.in_h()),
            });
        }
    }
    Ok(())
}

/// Network-level errors.
#[derive(Clone, Debug, PartialEq)]
pub enum NetworkError {
    /// No layers given.
    Empty,
    /// `out(layer) != in(layer+1)`.
    ShapeMismatch {
        /// Index of the producing layer.
        layer: usize,
        /// Producer output `(b, k, w, h)`.
        out: (usize, usize, usize, usize),
        /// Consumer input `(b, c, x, y)`.
        next_in: (usize, usize, usize, usize),
    },
    /// A layer runs on a different number of ranks than layer 0.
    MachineMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Ranks that layer's grid uses.
        ranks: usize,
        /// Ranks layer 0's grid uses.
        expected: usize,
    },
    /// A layer could not be planned.
    Plan {
        /// Which layer failed.
        layer: usize,
        /// The planner's error.
        source: PlanError,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Empty => write!(f, "network has no layers"),
            NetworkError::ShapeMismatch {
                layer,
                out,
                next_in,
            } => write!(
                f,
                "layer {layer} output {out:?} does not match layer {} input {next_in:?}",
                layer + 1
            ),
            NetworkError::MachineMismatch {
                layer,
                ranks,
                expected,
            } => write!(
                f,
                "layer {layer} runs on {ranks} ranks but layer 0 on {expected}"
            ),
            NetworkError::Plan { layer, source } => {
                write!(f, "layer {layer} unplannable: {source}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Exact inter-rank redistribution volume between two consecutive
/// layers: the sum over (producer, consumer) pairs, excluding
/// self-pairs, of the producer `Out`-window / consumer `In`-window
/// intersections.
///
/// Computed in `O(P)` rather than by the literal `O(P²)` pairwise sum:
/// the producer `Out` windows on the `i_c = 0` plane exactly partition
/// the global output domain, and every consumer `In` window is a
/// sub-box of that domain, so each consumer receives exactly
/// `|in_win|` elements in total, of which the self-pair (data already
/// resident, no network traffic) contributes
/// `|own out_win ∩ own in_win|`:
///
/// ```text
/// vol = Σ_consumers |in_win(c)| − |out_win(c) ∩ in_win(c)|
/// ```
///
/// The equivalence with the pairwise [`shard_geometry`]-intersection
/// sum is property-tested over random chains (`proptest_redist`). The
/// linear form is what makes [`NetworkPlan::plan_tuned`]'s DP
/// affordable at `P = 4096` with tens of candidates per layer.
///
/// [`shard_geometry`]: crate::distribution::shard_geometry
pub fn redistribution_volume(prev: &DistPlan, next: &DistPlan) -> u128 {
    let procs = prev.grid.total();
    debug_assert_eq!(procs, next.grid.total(), "same machine");
    let mut vol = 0u128;
    for consumer in 0..procs {
        let in_win = consumer_in_window(next, consumer);
        vol += in_win.len() as u128;
        if let Some(own_out) = producer_out_window(prev, consumer) {
            if let Some(i) = own_out.intersect(&in_win) {
                vol -= i.len() as u128; // local copy, not network traffic
            }
        }
    }
    vol
}

/// Report of a full network forward pass.
#[derive(Clone, Debug)]
pub struct NetworkReport {
    /// Measured counters for the whole run (all layers +
    /// redistribution).
    pub stats: StatsSnapshot,
    /// Expected per-layer forward volumes.
    pub expected_layers: Vec<u128>,
    /// Exact expected redistribution volume.
    pub expected_redist: u128,
    /// Final output verified against the chained sequential reference.
    pub verified: bool,
    /// Largest per-rank peak memory.
    pub max_peak_mem: u64,
    /// Simulated α–β time (volume-based estimate).
    pub sim_time: f64,
    /// Lamport communication makespan.
    pub makespan: f64,
}

impl NetworkReport {
    /// Total expected volume (layers + redistribution).
    pub fn expected_total(&self) -> u128 {
        self.expected_layers.iter().sum::<u128>() + self.expected_redist
    }

    /// Total measured volume: algorithmic sends plus redistribution
    /// sends (the two are counted under separate traffic classes).
    pub fn measured_total(&self) -> u128 {
        self.stats.total_elems() as u128 + self.stats.redist.elems as u128
    }

    /// Element-exact conformance of this run: predicted vs measured
    /// algorithmic volume, redistribution volume, and their sum — all
    /// with [`Tolerance::Exact`]. The redistribution row is the new
    /// check the split traffic accounting enables: the analytic
    /// [`redistribution_volume`] must equal the wire counter to the
    /// element.
    pub fn conformance(&self) -> ConformanceReport {
        let layers: u128 = self.expected_layers.iter().sum();
        let mut report = ConformanceReport::new();
        report.push(ConformanceRow::new(
            "network/layer-volume",
            self.stats.total_elems() as f64,
            layers as f64,
            Tolerance::Exact,
        ));
        report.push(ConformanceRow::new(
            "network/redist-volume",
            self.stats.redist.elems as f64,
            self.expected_redist as f64,
            Tolerance::Exact,
        ));
        report.push(ConformanceRow::new(
            "network/total-volume",
            self.measured_total() as f64,
            self.expected_total() as f64,
            Tolerance::Exact,
        ));
        report
    }
}

/// One rank's share of the final layer's output: its grid coordinates,
/// the global `[b, k, x, y]` origin of its reduced `Out` slice, and the
/// slice itself. Only ranks on the `i_c = 0` plane produce one; across
/// those ranks the slices exactly partition the output domain.
pub type NetworkOut<T> = ([usize; 5], [usize; 4], Tensor4<T>);

/// Errors from the forward executor.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// The distributed result disagreed with the sequential reference.
    VerificationFailed {
        /// Worst relative error observed.
        max_rel_err: f64,
    },
    /// The simulated machine failed: one or more ranks crashed,
    /// deadlocked or over-committed memory (all enumerated inside).
    Machine(RunError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::VerificationFailed { max_rel_err } => {
                write!(
                    f,
                    "distributed result mismatch: max rel err {max_rel_err:.3e}"
                )
            }
            CoreError::Machine(e) => write!(f, "machine run failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<RunError> for CoreError {
    fn from(e: RunError) -> Self {
        CoreError::Machine(e)
    }
}

/// The choices a forward run makes beyond its plan, seed and machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Check the final layer's output against the chained sequential
    /// reference; a mismatch is [`CoreError::VerificationFailed`].
    pub verify: bool,
    /// Blocking or overlapped tile pipeline. Results and traffic
    /// counters are identical in both; only *when* ranks wait moves.
    pub comm: CommMode,
}

impl Default for RunOptions {
    /// Verified, in the comm mode `DISTCONV_COMM` selects.
    fn default() -> Self {
        RunOptions {
            verify: true,
            comm: CommMode::from_env(),
        }
    }
}

/// Everything one forward run of a [`NetworkPlan`] produced.
#[derive(Clone, Debug)]
pub struct NetworkRun<T> {
    /// Counters, expected volumes and the verification verdict.
    pub report: NetworkReport,
    /// Per-rank peak memory (elements).
    pub peak_mem: Vec<u64>,
    /// Per-rank span trace (empty when tracing was disabled).
    pub trace: RunTrace,
    /// Every `i_c = 0` rank's final-layer output slice.
    pub outputs: Vec<NetworkOut<T>>,
}

impl<T> NetworkRun<T> {
    /// Cost-model conformance of this run of `plan`: the report's
    /// element-exact rows ([`NetworkReport::conformance`]), the paper's
    /// Eq. 10 aggregate summed over the layers (an upper bound — it also
    /// charges the initial footprint), and a per-rank trace-vs-counter
    /// cross-check. The per-rank rows are skipped when the trace is
    /// empty (tracing disabled) or any ring wrapped — a wrapped ring
    /// undercounts by construction.
    pub fn conformance(&self, plan: &NetworkPlan) -> ConformanceReport {
        let stats = &self.report.stats;
        let mut rep = self.report.conformance();
        rep.push(ConformanceRow::new(
            "network/eq10-upper-bound",
            stats.total_elems() as f64,
            plan.layers.iter().map(eq10_aggregate).sum(),
            Tolerance::UpperBound,
        ));
        if !self.trace.is_empty() && self.trace.total_dropped() == 0 {
            for (rank, &elems) in stats.per_rank_elems.iter().enumerate() {
                rep.push(ConformanceRow::new(
                    format!("network/rank{rank}-sent-elems"),
                    self.trace.sent_elems(rank) as f64,
                    elems as f64,
                    Tolerance::Exact,
                ));
            }
        }
        rep
    }
}

/// Run a forward pass of `plan` — one layer or a chain — on the
/// simulated machine: the paper's distribute, rotating-broadcast and
/// `c`-reduce per layer, with the inter-layer redistribution between
/// layers. Layer `i`'s input and kernel shards are materialized from
/// `seed` exactly as [`distconv_conv::kernels::workload`] does for a
/// single layer (`layer_ker_seed(seed, 0) == seed ^ KER_SEED_XOR`).
///
/// Machine failures (rank crash, deadlock, memory over-commit) surface
/// as [`CoreError::Machine`] with every failed rank enumerated; wrap
/// the call in [`crate::recover()`] to retry or degrade.
pub fn execute<T: Scalar>(
    plan: &NetworkPlan,
    seed: u64,
    cfg: MachineConfig,
    opts: RunOptions,
) -> Result<NetworkRun<T>, CoreError> {
    let procs = plan.layers[0].grid.total();
    let windows: Vec<BoundaryWindows> = plan
        .layers
        .windows(2)
        .map(|w| BoundaryWindows::new(&w[0], &w[1]))
        .collect();
    let (kernel, comm) = (LocalKernel::from_env(), opts.comm);
    let report = Machine::try_run::<T, _, _>(procs, cfg, |rank| {
        network_rank_body::<T>(rank, plan, &windows, seed, kernel, comm)
    })?;
    let outputs: Vec<NetworkOut<T>> = report.results.into_iter().flatten().collect();
    if opts.verify {
        let worst = max_rel_err_vs_reference(plan, seed, &outputs);
        if worst > verification_tolerance::<T>(plan) {
            return Err(CoreError::VerificationFailed { max_rel_err: worst });
        }
    }
    let expected_layers = plan
        .layers
        .iter()
        .map(|l| crate::expected_volumes(l).total())
        .collect();
    Ok(NetworkRun {
        report: NetworkReport {
            expected_layers,
            expected_redist: plan.total_redist(),
            verified: opts.verify,
            max_peak_mem: report.peak_mem.iter().copied().max().unwrap_or(0),
            sim_time: report.sim_time,
            makespan: report.makespan,
            stats: report.stats,
        },
        peak_mem: report.peak_mem,
        trace: report.trace,
        outputs,
    })
}

/// Run a verified forward pass of `plan` in the environment's comm
/// mode and keep only its [`NetworkReport`].
pub fn run_network<T: Scalar>(
    plan: &NetworkPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<NetworkReport, CoreError> {
    execute::<T>(plan, seed, cfg, RunOptions::default()).map(|run| run.report)
}

/// Worst relative error of the final-layer `outputs` against the
/// chained sequential reference ([`conv2d_direct_par`] per layer).
fn max_rel_err_vs_reference<T: Scalar>(
    plan: &NetworkPlan,
    seed: u64,
    outputs: &[NetworkOut<T>],
) -> f64 {
    let mut act = Tensor4::<T>::random(in_shape(&plan.layers[0].problem), seed);
    for (i, lp) in plan.layers.iter().enumerate() {
        let ker = Tensor4::<T>::random(ker_shape(&lp.problem), layer_ker_seed(seed, i));
        // Out [b,k,w,h] becomes the next layer's In [b,c,x,y] unchanged.
        act = conv2d_direct_par(&lp.problem, &act, &ker);
    }
    let last = plan.layers.last().expect("non-empty");
    outputs
        .iter()
        .map(|(coords, _, slice)| window_max_rel_err(&act, out_range(last, *coords), slice))
        .fold(0.0, f64::max)
}

/// Tolerance scaled to the reduction length and element type: partial
/// sums accumulated in different orders diverge by `O(ε·Σ|terms|)`.
/// A chain compounds that per layer, so it gets a wider `ε`.
fn verification_tolerance<T: Scalar>(plan: &NetworkPlan) -> f64 {
    let terms: usize = plan
        .layers
        .iter()
        .map(|l| l.problem.nc * l.problem.nr * l.problem.ns)
        .sum();
    let f32 = std::mem::size_of::<T>() == 4;
    let eps = match (plan.layers.len(), f32) {
        (1, true) => 1e-6,
        (1, false) => 1e-14,
        (_, true) => 1e-5,
        (_, false) => 1e-12,
    };
    eps * terms.max(1) as f64 * 8.0
}

/// [`max_rel_err`] of `got` against the window `win` of `reference`,
/// compared row by row in place rather than on a packed copy of the
/// window. A shape mismatch is an infinite error.
pub(crate) fn window_max_rel_err<T: Scalar>(
    reference: &Tensor4<T>,
    win: Range4,
    got: &Tensor4<T>,
) -> f64 {
    if got.shape() != win.shape() {
        return f64::INFINITY;
    }
    let mut rows = got.as_slice().chunks_exact(win.hi[3] - win.lo[3]);
    let mut worst = 0.0f64;
    for a in win.lo[0]..win.hi[0] {
        for b in win.lo[1]..win.hi[1] {
            for c in win.lo[2]..win.hi[2] {
                let want = &reference.row(a, b, c)[win.lo[3]..win.hi[3]];
                let got = rows.next().expect("one row per window row");
                worst = worst.max(max_rel_err(got, want).expect("equal row widths"));
            }
        }
    }
    worst
}

fn layer_ker_seed(seed: u64, layer: usize) -> u64 {
    seed ^ crate::distribution::KER_SEED_XOR ^ ((layer as u64) << 48)
}

type NetOut<T> = Option<([usize; 5], [usize; 4], Tensor4<T>)>;

fn network_rank_body<T: Scalar>(
    rank: &Rank<T>,
    plan: &NetworkPlan,
    windows: &[BoundaryWindows],
    seed: u64,
    kernel: LocalKernel,
    comm: CommMode,
) -> NetOut<T> {
    let mut carried_in: Option<Tensor4<T>> = None; // shard for the next layer

    let mut last_out: NetOut<T> = None;
    for (li, lp) in plan.layers.iter().enumerate() {
        let geom = shard_geometry(lp, rank.id());
        let out_win = out_range(lp, geom.coords);
        let out_origin = out_win.lo;
        let mut out_slice = Tensor4::<T>::zeros(out_win.shape());
        let in_origin = geom.in_region.lo;
        // First layer: input from the seed; later layers: from
        // redistribution.
        let in_shard = carried_in.take().unwrap_or_else(|| {
            Tensor4::<T>::random_window(
                geom.in_region.shape(),
                seed,
                in_origin,
                in_shape(&lp.problem),
            )
        });
        let ker_origin = geom.ker_region.lo;
        let ker_shard = Tensor4::<T>::random_window(
            geom.ker_region.shape(),
            layer_ker_seed(seed, li),
            ker_origin,
            ker_shape(&lp.problem),
        );
        let _lease = rank
            .mem()
            .lease_or_panic((out_slice.len() + in_shard.len() + ker_shard.len()) as u64);

        let layout = RankLayout::new(lp, rank);
        let shards = LayerShards {
            in_shard: &in_shard,
            in_origin,
            ker_shard: &ker_shard,
            ker_origin,
            out_origin,
        };
        forward_layer(lp, rank, &layout, &shards, kernel, comm, &mut out_slice);

        if li + 1 < plan.layers.len() {
            carried_in = Some(redistribute_to_next(
                rank,
                &windows[li],
                &out_slice,
                out_origin,
                TAG_REDIST_BASE + li as u64,
            ));
        } else {
            last_out = if layout.ic() == 0 {
                Some((geom.coords, out_origin, out_slice))
            } else {
                None
            };
        }
    }
    last_out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-layer chain: 8×8 → 6×6 → 4×4 outputs, channels 4 → 8 → 8 → 4.
    fn chain() -> Vec<Conv2dProblem> {
        vec![
            Conv2dProblem::new(2, 8, 4, 8, 8, 3, 3, 1, 1), // in 10x10
            Conv2dProblem::new(2, 8, 8, 6, 6, 3, 3, 1, 1), // in 8x8
            Conv2dProblem::new(2, 4, 8, 4, 4, 3, 3, 1, 1), // in 6x6
        ]
    }

    #[test]
    fn shape_compatibility_enforced() {
        let mut bad = chain();
        bad[1] = Conv2dProblem::new(2, 8, 8, 5, 5, 3, 3, 1, 1);
        let machine = MachineSpec::new(4, 1 << 20);
        let err = NetworkPlan::plan_tuned(&bad, machine).unwrap_err();
        let mismatch = matches!(err, NetworkError::ShapeMismatch { layer: 0, .. });
        assert!(mismatch, "{err}");
    }

    #[test]
    fn network_verified_and_volume_exact() {
        for procs in [1usize, 2, 4] {
            let plan = NetworkPlan::plan_tuned(&chain(), MachineSpec::new(procs, 1 << 20)).unwrap();
            let r = run_network::<f64>(&plan, 13, MachineConfig::default()).expect("verified");
            assert!(r.verified, "P={procs}");
            // The two traffic classes are pinned separately: the
            // algorithmic counter must hold exactly the per-layer
            // closed forms, the redistribution counter exactly the
            // analytic inter-layer volume.
            assert_eq!(
                r.stats.total_elems() as u128,
                r.expected_layers.iter().sum::<u128>(),
                "P={procs}: algorithmic volume"
            );
            assert_eq!(
                r.stats.redist.elems as u128, r.expected_redist,
                "P={procs}: redistribution volume"
            );
            assert_eq!(r.measured_total(), r.expected_total(), "P={procs}: total");
            let conf = r.conformance();
            assert!(conf.pass(), "P={procs}: {:?}", conf.failures());
        }
    }

    #[test]
    fn tuned_plan_never_worse_and_runs_verified() {
        for procs in [2usize, 4, 8] {
            let machine = MachineSpec::new(procs, 1 << 20);
            let picks = chain()
                .into_iter()
                .map(|p| Planner::new(p, machine).plan().unwrap());
            let greedy = NetworkPlan::from_layers(picks.collect()).unwrap();
            let tuned = NetworkPlan::plan_tuned(&chain(), machine).unwrap();
            assert!(
                tuned.predicted_total_cost() <= greedy.predicted_total_cost(),
                "P={procs}: tuned {} > greedy {}",
                tuned.predicted_total_cost(),
                greedy.predicted_total_cost()
            );
            let r = run_network::<f64>(&tuned, 29, MachineConfig::default()).expect("verified");
            assert!(r.verified, "P={procs}");
            let conf = r.conformance();
            assert!(conf.pass(), "P={procs}: {:?}", conf.failures());
        }
    }

    #[test]
    fn redistribution_volume_zero_on_single_rank() {
        let plan = NetworkPlan::plan_tuned(&chain(), MachineSpec::new(1, 1 << 20)).unwrap();
        assert_eq!(plan.total_redist(), 0);
    }

    #[test]
    fn redistribution_conserves_data() {
        // Total elements received across consumers must cover each In
        // shard exactly: Σ intersections (incl. self) = Σ |In shards|.
        let plan = NetworkPlan::plan_tuned(&chain(), MachineSpec::new(4, 1 << 20)).unwrap();
        for w in plan.layers.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            let procs = prev.grid.total();
            for consumer in 0..procs {
                let in_win = consumer_in_window(next, consumer);
                let covered: usize = (0..procs)
                    .filter_map(|p| producer_out_window(prev, p))
                    .filter_map(|ow| ow.intersect(&in_win))
                    .map(|i| i.len())
                    .sum();
                assert_eq!(covered, in_win.len(), "consumer {consumer} shard coverage");
            }
        }
    }

    // ---- One-layer runs: a single layer is a one-layer network. ----

    fn layer(p: Conv2dProblem, procs: usize, mem: usize, pc: Option<usize>) -> NetworkPlan {
        let planner = Planner::new(p, MachineSpec::new(procs, mem));
        let planner = match pc {
            Some(pc) => planner.with_forced_pc(pc),
            None => planner,
        };
        planner.plan().unwrap().into()
    }

    fn run<T: Scalar>(
        plan: &NetworkPlan,
        seed: u64,
        cfg: MachineConfig,
        verify: bool,
    ) -> NetworkRun<T> {
        let opts = RunOptions {
            verify,
            ..RunOptions::default()
        };
        execute::<T>(plan, seed, cfg, opts).expect("one-layer run")
    }

    /// A verified one-layer run under [`crate::recover()`], degrading onto
    /// a re-plan over the survivors, accounted by
    /// [`crate::mark_recovery`]; also returns its checkpoint
    /// redistribution.
    fn recovering_run(
        plan: &NetworkPlan,
        seed: u64,
        faults: distconv_simnet::FaultPlan,
    ) -> (crate::Recovered<NetworkPlan, NetworkRun<f64>>, u64) {
        let l = plan.layers[0];
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults,
            ..MachineConfig::default()
        };
        let mut done = crate::recover(
            plan,
            cfg,
            |p, c| execute::<f64>(p, seed, c, RunOptions::default()),
            |p| NetworkPlan::plan_tuned(&[l.problem], MachineSpec::new(p, l.machine.mem)).ok(),
        )
        .expect("must recover");
        let redist = crate::mark_recovery(plan, &mut done);
        (done, redist)
    }

    #[test]
    fn one_layer_runs_verify_and_match_the_volume_model() {
        let square = Conv2dProblem::square(4, 8, 8, 8, 3);
        let mut cases = vec![
            (Conv2dProblem::square(2, 4, 4, 4, 3), 1, 1 << 16),
            (Conv2dProblem::new(2, 8, 8, 4, 4, 3, 3, 2, 2), 4, 1 << 18), // strided
            (Conv2dProblem::new(2, 4, 4, 6, 4, 3, 5, 2, 1), 4, 1 << 18), // asymmetric
        ];
        cases.extend([2, 4, 8, 16].map(|procs| (square, procs, 1 << 18)));
        for (p, procs, mem) in cases {
            let plan = layer(p, procs, mem, None);
            let r = run::<f64>(&plan, 5, MachineConfig::default(), true).report;
            let grid = plan.layers[0].grid;
            assert!(r.verified, "{p:?} P={procs}");
            assert_eq!(r.measured_total(), r.expected_total(), "{p:?} {grid:?}");
            if procs == 1 {
                assert_eq!(r.expected_total(), 0, "a single rank is silent");
            }
        }
        let plan = layer(Conv2dProblem::square(2, 8, 8, 4, 3), 4, 1 << 18, None);
        assert!(
            run::<f32>(&plan, 11, MachineConfig::default(), true)
                .report
                .verified
        );
    }

    #[test]
    fn one_layer_tolerance_is_the_single_layer_bound() {
        // A chain compounds rounding per layer; a single layer keeps the
        // tighter ε·terms·8 bound.
        let plan = layer(Conv2dProblem::square(2, 8, 8, 4, 3), 4, 1 << 18, None);
        let terms = (8 * 3 * 3) as f64;
        assert_eq!(verification_tolerance::<f64>(&plan), 1e-14 * terms * 8.0);
        assert_eq!(verification_tolerance::<f32>(&plan), 1e-6 * terms * 8.0);
    }

    #[test]
    fn pc_replicated_grid_reduces_out_and_unverified_runs_match_bitwise() {
        // A forced P_c > 1 grid exercises the c-reduction; a run without
        // the oracle must be the verified run, bit for bit.
        let plan = layer(Conv2dProblem::square(2, 4, 16, 4, 3), 8, 1 << 20, Some(2));
        assert_eq!(plan.layers[0].grid.pc, 2);
        assert!(crate::expected_volumes(&plan.layers[0]).out_reduce > 0);
        let cfg = MachineConfig::default();
        let (checked, unchecked) = (
            run::<f64>(&plan, 3, cfg, true),
            run::<f64>(&plan, 3, cfg, false),
        );
        assert!(checked.report.verified && !unchecked.report.verified);
        assert_eq!(
            checked.report.measured_total(),
            checked.report.expected_total()
        );
        assert_eq!(checked.report.stats, unchecked.report.stats);
        assert_eq!(checked.peak_mem, unchecked.peak_mem);
        let bits = |r: &NetworkRun<f64>| -> Vec<([usize; 4], Vec<u64>)> {
            let bits = |t: &Tensor4<f64>| t.as_slice().iter().map(|x| x.to_bits()).collect();
            r.outputs
                .iter()
                .map(|(_, origin, t)| (*origin, bits(t)))
                .collect()
        };
        assert!(!checked.outputs.is_empty());
        assert_eq!(bits(&checked), bits(&unchecked));
    }

    #[test]
    fn peak_memory_matches_the_models() {
        // Eq. 11 bounds the peak when no spatial split replicates halos;
        // the halo-aware model equals it per rank on every grid.
        let plan = layer(Conv2dProblem::square(2, 8, 8, 4, 3), 4, 1 << 20, None);
        let r = run::<f64>(&plan, 7, MachineConfig::default(), true).report;
        let l = &plan.layers[0];
        if l.grid.ph == 1 && l.grid.pw == 1 {
            assert!(r.max_peak_mem as f64 <= l.predicted.footprint_gd + 1.0);
        }
        for (p, procs, pc) in [
            (Conv2dProblem::square(4, 8, 8, 8, 3), 8usize, None),
            (Conv2dProblem::square(2, 4, 16, 4, 3), 8, Some(2)),
            (Conv2dProblem::new(4, 8, 8, 8, 8, 3, 3, 2, 2), 16, None),
        ] {
            let plan = layer(p, procs, 1 << 20, pc);
            let r = run::<f64>(&plan, 5, MachineConfig::default(), false);
            for (rank, &peak) in r.peak_mem.iter().enumerate() {
                let model = crate::model::expected_peak_mem(&plan.layers[0], rank);
                assert_eq!(peak, model, "rank {rank} grid {:?}", plan.layers[0].grid);
            }
        }
    }

    #[test]
    fn machine_failures_surface_as_core_errors() {
        use distconv_simnet::{FailureKind, FaultPlan};
        // A metered capacity far below the plan's footprint.
        let plan = layer(Conv2dProblem::square(2, 8, 8, 4, 3), 4, 1 << 20, None);
        let cfg = MachineConfig {
            mem_capacity: Some(8),
            ..MachineConfig::default()
        };
        let err = execute::<f64>(&plan, 1, cfg, RunOptions::default()).unwrap_err();
        let CoreError::Machine(e) = err else {
            panic!("expected Machine error, got {err:?}");
        };
        assert!(e
            .failures
            .iter()
            .all(|f| f.kind == FailureKind::OutOfMemory));
        // An injected crash.
        let plan = layer(Conv2dProblem::square(4, 8, 8, 8, 3), 4, 1 << 18, None);
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_crash(0, 2),
            ..MachineConfig::default()
        };
        let err = execute::<f64>(&plan, 5, cfg, RunOptions::default()).unwrap_err();
        let CoreError::Machine(e) = err else {
            panic!("expected Machine error, got {err:?}");
        };
        assert!(e.has_injected_crash());
        assert!(e.failed_ranks().contains(&0));
    }

    #[test]
    fn crash_injected_run_recovers_to_fault_free_result() {
        use distconv_simnet::FaultPlan;
        use distconv_trace::SpanKind;
        let plan = layer(Conv2dProblem::square(4, 8, 8, 8, 3), 4, 1 << 18, None);
        let (clean, _) = recovering_run(&plan, 5, FaultPlan::default());
        assert_eq!(clean.recovery, crate::Recovery::default());
        let (done, redist) = recovering_run(&plan, 5, FaultPlan::default().with_crash(0, 2));
        let (rec, r) = (&done.recovery, &done.value);
        assert!(rec.recovered() && !rec.degraded() && done.degraded.is_none());
        assert_eq!((rec.attempts, redist), (1, 0));
        assert!(r.report.verified);
        // The recovered step's algorithmic volume equals the fault-free
        // run's; the aborted attempt's traffic is reported separately.
        assert_eq!(
            r.report.measured_total(),
            clean.value.report.measured_total()
        );
        assert!(rec.wasted_elems > 0, "the aborted attempt moved data");
        // The restart left a marker in the trace with the wasted volume.
        let restores: Vec<_> = r.trace.per_rank[0]
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::CheckpointRestore)
            .map(|e| e.elems)
            .collect();
        assert_eq!(restores, vec![rec.wasted_elems]);
    }

    #[test]
    fn persistent_crash_degrades_to_survivor_grid() {
        use distconv_simnet::FaultPlan;
        use distconv_trace::SpanKind;
        let plan = layer(Conv2dProblem::square(4, 8, 8, 8, 3), 8, 1 << 20, None);
        let (done, redist) =
            recovering_run(&plan, 5, FaultPlan::default().with_persistent_crash(0, 2));
        let (rec, r) = (&done.recovery, &done.value);
        assert!(rec.degraded() && rec.recovered() && r.report.verified);
        // Every attempt on the full grid aborted (initial + retries).
        assert_eq!(rec.attempts, crate::MAX_STEP_RETRIES + 1);
        assert!(rec.wasted_elems > 0);
        assert_eq!(rec.dead_ranks, vec![0]);
        // 7 survivors, but 7/6/5 don't factor this problem: P' = 4.
        let (shrunk, _) = done.degraded.as_ref().expect("degraded plan");
        assert_eq!(shrunk.layers[0].grid.total(), 4);
        assert!(redist > 0, "the shrink must move checkpoints");
        // Conformance validates at P': against the survivor plan.
        let rep = r.conformance(shrunk);
        assert!(rep.pass(), "degraded conformance failed:\n{rep}");
        // Trace carries the full story on rank 0.
        let marks = |k: SpanKind| -> Vec<u64> {
            let events = r.trace.per_rank[0].events.iter();
            events.filter(|e| e.kind == k).map(|e| e.elems).collect()
        };
        assert_eq!(
            marks(SpanKind::CheckpointRestore).len(),
            rec.attempts as usize
        );
        assert_eq!(marks(SpanKind::FailureDetect).len(), 1);
        assert_eq!(marks(SpanKind::Redistribute), vec![redist]);
    }

    #[test]
    fn degraded_result_matches_clean_small_grid_run() {
        use distconv_simnet::FaultPlan;
        // The degraded run on P' ranks must produce the same verified
        // result and traffic as a clean run planned at P' directly.
        let p = Conv2dProblem::square(4, 8, 8, 8, 3);
        let plan8 = layer(p, 8, 1 << 20, None);
        let (done, _) = recovering_run(&plan8, 9, FaultPlan::default().with_persistent_crash(1, 3));
        let (shrunk, _) = done.degraded.as_ref().expect("degraded plan");
        let clean_plan = layer(p, shrunk.layers[0].grid.total(), 1 << 20, None);
        let clean = run::<f64>(&clean_plan, 9, MachineConfig::default(), true).report;
        assert_eq!(shrunk.layers[0].grid, clean_plan.layers[0].grid);
        let degraded = &done.value.report;
        assert_eq!(degraded.measured_total(), clean.measured_total());
        assert_eq!(degraded.stats.per_rank_elems, clean.stats.per_rank_elems);
    }

    #[test]
    fn conformance_passes_and_cross_checks_per_rank() {
        let plan = layer(Conv2dProblem::square(4, 8, 8, 8, 3), 8, 1 << 18, None);
        let rep = run::<f64>(&plan, 5, MachineConfig::default(), true).conformance(&plan);
        assert!(rep.pass(), "conformance failed:\n{rep}");
        // Three volume rows + eq10 bound + one cross-check row per rank.
        assert_eq!(rep.rows.len(), 3 + 1 + 8, "{rep}");
        assert!(rep
            .rows
            .iter()
            .any(|row| row.name == "network/eq10-upper-bound"));
    }

    #[test]
    fn from_layers_errors_are_typed() {
        let c = chain();
        let on = |i: usize, procs| Planner::new(c[i], MachineSpec::new(procs, 1 << 20)).plan();
        let (l0, l1, l2, l2_on_2) = (
            on(0, 4).unwrap(),
            on(1, 4).unwrap(),
            on(2, 4).unwrap(),
            on(2, 2).unwrap(),
        );
        let from = |layers: Vec<_>| NetworkPlan::from_layers(layers).map(|n| n.layers.len());
        assert_eq!(from(Vec::new()), Err(NetworkError::Empty));
        let err = from(vec![l0, l2]).unwrap_err();
        assert!(
            matches!(err, NetworkError::ShapeMismatch { layer: 0, .. }),
            "{err}"
        );
        let (layer, ranks, expected) = (2, 2, 4);
        let err = NetworkError::MachineMismatch {
            layer,
            ranks,
            expected,
        };
        assert_eq!(from(vec![l0, l1, l2_on_2]), Err(err));
        assert_eq!(from(vec![l0, l1, l2]), Ok(3));
    }
}
