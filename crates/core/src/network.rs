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
use crate::exec::{window_max_rel_err, CoreError};
use crate::layout::{
    consumer_in_window, forward_layer, producer_out_window, redistribute_to_next, BoundaryWindows,
    LayerShards, RankLayout,
};
use distconv_conv::kernels::{conv2d_direct_par, in_shape, ker_shape};
use distconv_cost::{Conv2dProblem, DistPlan, MachineSpec, PlanError, Planner};
use distconv_par::{CommMode, LocalKernel};
use distconv_simnet::{Machine, MachineConfig, Rank, StatsSnapshot};
use distconv_tensor::{Scalar, Tensor4};
use distconv_trace::{ConformanceReport, ConformanceRow, Tolerance};

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
    /// consecutive layers are shape-compatible
    /// (`out(i) == in(i+1)`: same batch, `N_k(i) = N_c(i+1)`, output
    /// pixels = input pixels).
    pub fn plan(problems: &[Conv2dProblem], machine: MachineSpec) -> Result<Self, NetworkError> {
        check_shapes(problems)?;
        let layers = problems
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Planner::new(p, machine)
                    .plan()
                    .map_err(|e| NetworkError::Plan {
                        layer: i,
                        source: e,
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_layers(layers))
    }

    /// Plan the network as a whole: a dynamic program over each layer's
    /// candidate set ([`Planner::candidates`] — the memory/communication
    /// Pareto frontier plus the greedy winner) minimizing the
    /// **network** objective
    ///
    /// ```text
    /// Σ_i P · cost_D(layer i)  +  Σ_i redistribution_volume(i, i+1)
    /// ```
    ///
    /// in total elements moved (`cost_D` is per-processor, so it is
    /// scaled by `P`; the redistribution term is already a total). The
    /// per-layer greedy grid is always a candidate, so the tuned plan's
    /// objective is ≤ the greedy [`NetworkPlan::plan`]'s by
    /// construction — strictly lower whenever paying a slightly
    /// sub-optimal layer grid (or a different Case 1/Case 2 regime)
    /// avoids a larger inter-layer reshuffle, the whole-network effect
    /// the single-layer paper does not model.
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
                    .candidates()
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
        Ok(Self::from_layers(layers))
    }

    fn from_layers(layers: Vec<DistPlan>) -> Self {
        let redist_volumes = layers
            .windows(2)
            .map(|w| redistribution_volume(&w[0], &w[1]))
            .collect();
        NetworkPlan {
            layers,
            redist_volumes,
        }
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

/// Run a network forward pass under `plan`, verifying the final layer's
/// output against the chained sequential reference. Layer `i`'s kernel
/// uses seed `seed ^ KER_SEED_XOR ^ i`-derived values via the usual
/// deterministic materialization.
pub fn run_network<T: Scalar>(
    plan: &NetworkPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<NetworkReport, CoreError> {
    run_network_with_outputs::<T>(plan, seed, cfg).map(|(r, _)| r)
}

/// [`run_network`], additionally returning every rank's verified final
/// output slice. The batch-dispatch entry point ([`crate::batch`])
/// uses the slices to attribute results back to individual batch
/// samples; everything else should keep calling [`run_network`] and
/// skip materializing them.
pub fn run_network_with_outputs<T: Scalar>(
    plan: &NetworkPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<(NetworkReport, Vec<NetworkOut<T>>), CoreError> {
    let procs = plan.layers[0].grid.total();
    let windows: Vec<BoundaryWindows> = plan
        .layers
        .windows(2)
        .map(|w| BoundaryWindows::new(&w[0], &w[1]))
        .collect();
    let (kernel, comm) = (LocalKernel::from_env(), CommMode::from_env());
    let report = Machine::try_run::<T, _, _>(procs, cfg, |rank| {
        network_rank_body::<T>(rank, plan, &windows, seed, kernel, comm)
    })?;

    // --- Sequential reference: chain the layers. ---
    let first = plan.layers[0].problem;
    let mut act = Tensor4::<T>::random(in_shape(&first), seed);
    for (i, lp) in plan.layers.iter().enumerate() {
        let ker = Tensor4::<T>::random(ker_shape(&lp.problem), layer_ker_seed(seed, i));
        act = conv2d_direct_par(&lp.problem, &act, &ker);
        if i + 1 < plan.layers.len() {
            // Out [b,k,w,h] becomes In [b,c,x,y] unchanged.
            let next = plan.layers[i + 1].problem;
            debug_assert_eq!(act.shape(), in_shape(&next));
        }
    }
    let last = *plan.layers.last().expect("non-empty");
    let tol = {
        let depth: usize = plan
            .layers
            .iter()
            .map(|l| l.problem.nc * l.problem.nr * l.problem.ns)
            .sum();
        let eps = if std::mem::size_of::<T>() == 4 {
            1e-5
        } else {
            1e-12
        };
        eps * depth as f64 * 8.0
    };
    let worst = report
        .results
        .iter()
        .flatten()
        .map(|(coords, _, slice)| window_max_rel_err(&act, out_range(&last, *coords), slice))
        .fold(0.0, f64::max);
    if worst > tol {
        return Err(CoreError::VerificationFailed { max_rel_err: worst });
    }

    let net_report = NetworkReport {
        expected_layers: plan
            .layers
            .iter()
            .map(|l| crate::expected_volumes(l).total())
            .collect(),
        expected_redist: plan.total_redist(),
        verified: true,
        max_peak_mem: report.peak_mem.iter().copied().max().unwrap_or(0),
        sim_time: report.sim_time,
        makespan: report.makespan,
        stats: report.stats,
    };
    let outputs = report.results.into_iter().flatten().collect();
    Ok((net_report, outputs))
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
        let err = NetworkPlan::plan(&bad, MachineSpec::new(4, 1 << 20)).unwrap_err();
        assert!(
            matches!(err, NetworkError::ShapeMismatch { layer: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn network_verified_and_volume_exact() {
        for procs in [1usize, 2, 4] {
            let plan = NetworkPlan::plan(&chain(), MachineSpec::new(procs, 1 << 20)).unwrap();
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
            let greedy = NetworkPlan::plan(&chain(), machine).unwrap();
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
    fn tuned_plan_rejects_bad_shapes() {
        let mut bad = chain();
        bad[1] = Conv2dProblem::new(2, 8, 8, 5, 5, 3, 3, 1, 1);
        let err = NetworkPlan::plan_tuned(&bad, MachineSpec::new(4, 1 << 20)).unwrap_err();
        assert!(
            matches!(err, NetworkError::ShapeMismatch { layer: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn redistribution_volume_zero_on_single_rank() {
        let plan = NetworkPlan::plan(&chain(), MachineSpec::new(1, 1 << 20)).unwrap();
        assert_eq!(plan.total_redist(), 0);
    }

    #[test]
    fn redistribution_conserves_data() {
        // Total elements received across consumers must cover each In
        // shard exactly: Σ intersections (incl. self) = Σ |In shards|.
        let plan = NetworkPlan::plan(&chain(), MachineSpec::new(4, 1 << 20)).unwrap();
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
}
