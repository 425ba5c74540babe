//! The planner: paper Sec. 2.2's four-step construction, from a layer
//! and machine to a concrete, integer, feasible distributed plan.
//!
//! Steps (quoted from the paper's high-level sketch):
//!
//! 1. *"Determine the per-memory capacity `M_T` needed to hold the
//!    tensors in a distributed manner, `M = M_D − M_T`."* — `M_T` is
//!    the `In`/`Ker` initial shards plus the `Out` slice
//!    `N_k·N_bhw/P`. Neither depends on the grid, so it is evaluated
//!    once, before the search.
//! 2. *"Use the reduced capacity `M` to solve the global-memory
//!    optimization problem."* — [`solve_table1`] with the deflated
//!    [`ml_deflate`] capacity.
//! 3. *"Determine parameters `P_b, P_k, P_c, P_h, P_w` to create a
//!    logical multi-dimensional grid."* — [`Planner::enumerate`], the
//!    one integer search: every divisor pair `(P_k, P_c)` with one
//!    `(P_b, P_h, P_w)` factorisation of the rest, scored by the exact
//!    Eq. 10 cost and checked against Eq. 11. [`Planner::plan`],
//!    [`Planner::pareto_frontier`] and the network tuner all read it.
//! 4. The data distribution and communication schedule themselves are
//!    realized by `distconv-core`; the plan carries everything it needs.

use crate::closed_form::{ml_deflate, solve_table1, Regime};
use crate::exact::{
    eq10_cost_c, eq10_cost_i, eq11_footprint_gd, eq3_cost, eq3_footprint_g, halo_h, halo_w,
};
use crate::problem::{Conv2dProblem, MachineSpec};
use crate::tiling::{divisors, factor_into_grid, Partition, Tiling};

/// The logical processor grid `P_b × P_k × P_c × P_h × P_w`
/// (`P_i = N_i / W_i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridShape {
    /// Extent along `b`.
    pub pb: usize,
    /// Extent along `k`.
    pub pk: usize,
    /// Extent along `c`.
    pub pc: usize,
    /// Extent along `h`.
    pub ph: usize,
    /// Extent along `w`.
    pub pw: usize,
}

impl GridShape {
    /// Total ranks in the grid.
    pub fn total(&self) -> usize {
        self.pb * self.pk * self.pc * self.ph * self.pw
    }

    /// The composite `P_bhw = P_b · P_h · P_w`.
    pub fn pbhw(&self) -> usize {
        self.pb * self.ph * self.pw
    }

    /// As `[pb, pk, pc, ph, pw]`.
    pub fn as_array(&self) -> [usize; 5] {
        [self.pb, self.pk, self.pc, self.ph, self.pw]
    }
}

/// Predicted per-processor costs of a concrete plan, from the exact
/// integer expressions (Eq. 10/11). These are the values the simulator
/// measurements are compared against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictedCost {
    /// Eq. 10 initialization cost (elements).
    pub cost_i: f64,
    /// Eq. 10 collective-communication cost (elements).
    pub cost_c: f64,
    /// `cost_D = cost_I + cost_C`.
    pub cost_d: f64,
    /// Eq. 3 global-virtual-memory cost of the same `(W, T)`.
    pub cost_gvm: f64,
    /// Eq. 11 per-processor memory footprint (elements).
    pub footprint_gd: f64,
    /// Eq. 3 tile footprint `g` (elements).
    pub footprint_g: f64,
}

/// A complete distributed execution plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistPlan {
    /// The layer being planned.
    pub problem: Conv2dProblem,
    /// The machine it is planned for.
    pub machine: MachineSpec,
    /// Which matmul-analog regime the solution fell in.
    pub regime: Regime,
    /// The logical processor grid.
    pub grid: GridShape,
    /// Per-processor work partition `W_i = N_i / P_i`.
    pub w: Partition,
    /// Tile sizes within the work partition (`T_c = 1`).
    pub t: Tiling,
    /// The deflated capacity `M_L` used for the closed form.
    pub m_l: f64,
    /// The paper's analytical (real-valued) optimal cost at `M_L`.
    pub analytic_cost: f64,
    /// Exact integer predictions for this concrete plan.
    pub predicted: PredictedCost,
}

impl DistPlan {
    /// Elements in one `In` tile buffer:
    /// `T_b·(σ_w·T_w+N_r−1)(σ_h·T_h+N_s−1)` (paper's buffer-size
    /// statement; `T_c = 1`).
    pub fn in_tile_elems(&self) -> usize {
        self.t.tb * halo_w(&self.problem, self.t.tw) * halo_h(&self.problem, self.t.th) * self.t.tc
    }

    /// Elements in one `Ker` tile buffer: `T_k·N_r·N_s` (`T_c = 1`).
    pub fn ker_tile_elems(&self) -> usize {
        self.t.tk * self.problem.nr * self.problem.ns * self.t.tc
    }

    /// Number of tile steps along `c` each rank executes (`W_c / T_c`).
    pub fn c_steps(&self) -> usize {
        self.w.wc / self.t.tc
    }

    /// Tile steps per rank over all five tiled dimensions.
    pub fn total_tile_steps(&self) -> usize {
        (self.w.wb / self.t.tb)
            * (self.w.wk / self.t.tk)
            * (self.w.wc / self.t.tc)
            * (self.w.wh / self.t.th)
            * (self.w.ww / self.t.tw)
    }
}

/// Why planning failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// No processor grid with `P_i | N_i` multiplies out to `P`.
    Unfactorable {
        /// The processor count that could not be packed.
        p: usize,
    },
    /// Every candidate grid exceeds the per-processor memory `M_D`.
    InsufficientMemory {
        /// Smallest footprint over all candidate plans (elements).
        needed: u128,
        /// Available per-processor memory (elements).
        available: u128,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Unfactorable { p } => {
                write!(
                    f,
                    "cannot factor P = {p} into a grid dividing the problem extents"
                )
            }
            PlanError::InsufficientMemory { needed, available } => write!(
                f,
                "per-processor memory insufficient: need ≥ {needed} elements, have {available}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Planner: layer + machine → [`DistPlan`].
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    problem: Conv2dProblem,
    machine: MachineSpec,
    /// Force a specific regime's grid style instead of the optimizer's
    /// choice (`None` = optimize). Used by the ablation experiments.
    force_pc: Option<usize>,
}

impl Planner {
    /// Create a planner for a layer and machine.
    pub fn new(problem: Conv2dProblem, machine: MachineSpec) -> Self {
        Planner {
            problem,
            machine,
            force_pc: None,
        }
    }

    /// Restrict the search to grids with the given `P_c` (e.g. `1` to
    /// force the 2D-SUMMA-style family). For ablation studies.
    pub fn with_forced_pc(mut self, pc: usize) -> Self {
        self.force_pc = Some(pc);
        self
    }

    /// Produce the best feasible plan: the first `cost_D` minimum of
    /// [`Planner::enumerate`]. Errors exactly when `enumerate` does.
    pub fn plan(&self) -> Result<DistPlan, PlanError> {
        let all = self.enumerate()?;
        let mut best = all[0];
        for plan in &all[1..] {
            if plan.predicted.cost_d < best.predicted.cost_d {
                best = *plan;
            }
        }
        Ok(best)
    }

    /// The planner's one grid search: every feasible plan, in search
    /// order. For each `(P_k, P_c)` with `P_k | N_k`, `P_c | N_c` and
    /// `P_k·P_c | P` it builds one grid, splitting `P / (P_k·P_c)` over
    /// `(P_b, P_h, P_w)` by [`factor_into_grid`], and gives it its best
    /// divisor tiling and exact Eq. 10/11 scores. The closed form sets
    /// only `M_L`, `regime` and `analytic_cost`; the search is the
    /// integer-rounding step the paper leaves implicit.
    ///
    /// `Ok` is never empty. With no feasible grid the error is
    /// [`PlanError::InsufficientMemory`] (the smallest footprint any
    /// grid needed) if some grid factored, else
    /// [`PlanError::Unfactorable`].
    pub fn enumerate(&self) -> Result<Vec<DistPlan>, PlanError> {
        let p = &self.problem;
        let procs = self.machine.p;

        // Step 1: M_T is the fixed In/Ker initial shards plus the Out
        // slice W_k·W_bhw = N_k·N_bhw/P. Neither depends on the grid, so
        // one evaluation is exact.
        let fixed_init = (p.size_in_paper() + p.size_ker()) as f64 / procs as f64;
        let out_slice = (p.size_out() as f64) / procs as f64;
        let m_t = fixed_init + out_slice;
        let m_for_tiles = (self.machine.mem as f64 - m_t).max(1.0);
        let m_l = ml_deflate(m_for_tiles, p);
        let closed = solve_table1(p, procs, m_l);

        let mut out = Vec::new();
        let mut min_needed: u128 = u128::MAX;
        for pk in divisors(p.nk) {
            if pk > procs || !procs.is_multiple_of(pk) {
                continue;
            }
            for pc in divisors(p.nc) {
                if self.force_pc.is_some_and(|forced| pc != forced) {
                    continue;
                }
                if pk * pc > procs || !procs.is_multiple_of(pk * pc) {
                    continue;
                }
                // Factor P_bhw into (Pb, Ph, Pw): batch first (cheapest
                // to split: no halo), then h, then w.
                let Some(g) = factor_into_grid(procs / (pk * pc), &[p.nb, p.nh, p.nw]) else {
                    continue;
                };
                let (pb, ph, pw) = (g[0], g[1], g[2]);
                if !p.nb.is_multiple_of(pb) || !p.nh.is_multiple_of(ph) || !p.nw.is_multiple_of(pw)
                {
                    continue;
                }
                let grid = GridShape { pb, pk, pc, ph, pw };
                let w = Partition::new(p.nb / pb, p.nk / pk, p.nc / pc, p.nh / ph, p.nw / pw);
                let Some(t) = best_tiling(p, &w, m_for_tiles) else {
                    // Even unit tiles do not fit.
                    let unit = Tiling::new(1, 1, 1, 1, 1);
                    let need = eq3_footprint_g(p, &unit) + m_t as u128;
                    min_needed = min_needed.min(need);
                    continue;
                };
                let gd = eq11_footprint_gd(p, &w, &t, procs);
                if gd > self.machine.mem as f64 {
                    min_needed = min_needed.min(gd as u128);
                    continue;
                }
                let cost_i = eq10_cost_i(p, &w, procs);
                let cost_c = eq10_cost_c(p, &w, &t);
                out.push(DistPlan {
                    problem: *p,
                    machine: self.machine,
                    regime: regime_of_grid(pc, &w, &t),
                    grid,
                    w,
                    t,
                    m_l,
                    analytic_cost: closed.cost,
                    predicted: PredictedCost {
                        cost_i,
                        cost_c,
                        cost_d: cost_i + cost_c,
                        cost_gvm: eq3_cost(p, &w, &t).total(),
                        footprint_gd: gd,
                        footprint_g: eq3_footprint_g(p, &t) as f64,
                    },
                });
            }
        }

        if !out.is_empty() {
            Ok(out)
        } else if min_needed == u128::MAX {
            Err(PlanError::Unfactorable { p: procs })
        } else {
            Err(PlanError::InsufficientMemory {
                needed: min_needed,
                available: self.machine.mem as u128,
            })
        }
    }

    /// The memory/communication **Pareto frontier** over all feasible
    /// grids: plans sorted by increasing memory footprint `g_D`, none
    /// strictly costlier in `cost_D` than a smaller-footprint plan —
    /// the CNN incarnation of the matmul family's replication knob,
    /// exposed as a queryable set rather than a single winner. Empty
    /// when [`Planner::plan`] fails.
    ///
    /// Deduplication is by the full **grid tuple**, not the
    /// `(cost_D, g_D)` scalars: two *different* grids with identical
    /// cost and footprint both stay on the frontier, because how a
    /// grid shards data (and hence what inter-layer redistribution it
    /// implies) is not a function of its scalar cost. Only a plan that
    /// is strictly beaten on cost at no more memory — or that repeats
    /// a grid already present — is dropped.
    pub fn pareto_frontier(&self) -> Vec<DistPlan> {
        let mut all = self.enumerate().unwrap_or_default();
        all.sort_by(|a, b| {
            a.predicted
                .footprint_gd
                .partial_cmp(&b.predicted.footprint_gd)
                .unwrap()
                .then(a.predicted.cost_d.partial_cmp(&b.predicted.cost_d).unwrap())
        });
        let mut frontier: Vec<DistPlan> = Vec::new();
        for plan in all {
            let dominated = frontier.iter().any(|f| {
                f.predicted.cost_d < plan.predicted.cost_d
                    || (f.predicted.cost_d == plan.predicted.cost_d && f.grid == plan.grid)
            });
            if !dominated {
                frontier.push(plan);
            }
        }
        frontier
    }
}

/// Classify a concrete grid the way Sec. 2.2 does: `P_c = 1` is the
/// 2D-SUMMA family; `P_c > 1` with `T = W` on `k`/`bhw` is 3D; `P_c > 1`
/// with genuine sub-tiling is 2.5D.
fn regime_of_grid(pc: usize, w: &Partition, t: &Tiling) -> Regime {
    if pc == 1 {
        Regime::Summa2D
    } else if t.tk == w.wk && t.tb == w.wb && t.th == w.wh && t.tw == w.ww {
        Regime::Full3D
    } else {
        Regime::Intermediate25D
    }
}

/// Best tiling for a fixed work partition: exhaustive over divisor
/// tilings of `W` (with `T_c = 1`), minimizing exact Eq. 3 cost subject
/// to `g ≤ m_for_tiles`. Divisor counts are small, so this is cheap.
fn best_tiling(p: &Conv2dProblem, w: &Partition, m_for_tiles: f64) -> Option<Tiling> {
    let mut best: Option<(f64, Tiling)> = None;
    for &tb in &divisors(w.wb) {
        for &tk in &divisors(w.wk) {
            for &th in &divisors(w.wh) {
                for &tw in &divisors(w.ww) {
                    let t = Tiling::new(tb, tk, 1, th, tw);
                    if eq3_footprint_g(p, &t) as f64 > m_for_tiles {
                        continue;
                    }
                    let cost = eq3_cost(p, w, &t).total();
                    if best.is_none_or(|(c, _)| cost < c) {
                        best = Some((cost, t));
                    }
                }
            }
        }
    }
    best.map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Conv2dProblem {
        Conv2dProblem::square(8, 64, 64, 16, 3)
    }

    #[test]
    fn plan_is_internally_consistent() {
        let plan = Planner::new(layer(), MachineSpec::new(16, 1 << 20))
            .plan()
            .expect("feasible");
        let p = plan.problem;
        // Grid multiplies to P and W·grid reconstructs N.
        assert_eq!(plan.grid.total(), 16);
        assert!(plan.w.validates_eq2(&p, 16));
        assert_eq!(plan.w.grid(&p), {
            let g = plan.grid;
            [g.pb, g.pk, g.pc, g.ph, g.pw]
        });
        // Tiles divide the work partition.
        assert_eq!(plan.w.wb % plan.t.tb, 0);
        assert_eq!(plan.w.wk % plan.t.tk, 0);
        assert_eq!(plan.w.wh % plan.t.th, 0);
        assert_eq!(plan.w.ww % plan.t.tw, 0);
        assert_eq!(plan.t.tc, 1);
        // Memory constraint honored.
        assert!(plan.predicted.footprint_gd <= plan.machine.mem as f64);
        // cost_D = cost_I + cost_C.
        assert!(
            (plan.predicted.cost_d - plan.predicted.cost_i - plan.predicted.cost_c).abs() < 1e-9
        );
    }

    #[test]
    fn constant_gap_theorem_on_planned_config() {
        let plan = Planner::new(layer(), MachineSpec::new(16, 1 << 20))
            .plan()
            .unwrap();
        let gap = plan.predicted.cost_d - plan.predicted.cost_gvm;
        let expected = (plan.problem.size_in_paper() + plan.problem.size_ker()) as f64 / 16.0;
        assert!(
            (gap - expected).abs() < 1e-6,
            "gap {gap} vs (|In|+|Ker|)/P = {expected}"
        );
    }

    #[test]
    fn tight_memory_fails_cleanly() {
        let err = Planner::new(layer(), MachineSpec::new(16, 64))
            .plan()
            .unwrap_err();
        assert!(matches!(err, PlanError::InsufficientMemory { .. }), "{err}");
    }

    #[test]
    fn prime_processor_count_unfactorable() {
        // P = 97 shares no factors with any extent of this layer.
        let err = Planner::new(
            Conv2dProblem::square(8, 64, 64, 16, 3),
            MachineSpec::new(97, 1 << 20),
        )
        .plan()
        .unwrap_err();
        assert_eq!(err, PlanError::Unfactorable { p: 97 });
    }

    #[test]
    fn memory_sweep_changes_regime() {
        // Small memory → Pc = 1 (2D); large memory → Pc > 1 allowed if
        // cheaper. At minimum, the selected cost must be non-increasing.
        let p = layer();
        let mut prev = f64::INFINITY;
        for mem in [1 << 15, 1 << 17, 1 << 19, 1 << 22] {
            let plan = Planner::new(p, MachineSpec::new(64, mem)).plan().unwrap();
            assert!(
                plan.predicted.cost_d <= prev * (1.0 + 1e-9),
                "mem={mem}: cost went up"
            );
            prev = plan.predicted.cost_d;
        }
    }

    #[test]
    fn forced_pc_restricts_grid() {
        let plan = Planner::new(layer(), MachineSpec::new(16, 1 << 22))
            .with_forced_pc(1)
            .plan()
            .unwrap();
        assert_eq!(plan.grid.pc, 1);
        assert_eq!(plan.regime, Regime::Summa2D);
    }

    #[test]
    fn planned_cost_not_far_from_analytic() {
        // Integer rounding should stay within a small factor of the
        // real-valued optimum for friendly power-of-two layers; the
        // planner's cost_D additionally includes cost_I, so compare the
        // GVM part.
        let plan = Planner::new(layer(), MachineSpec::new(16, 1 << 20))
            .plan()
            .unwrap();
        assert!(
            plan.predicted.cost_gvm <= plan.analytic_cost * 3.0 + 1e3,
            "gvm {} vs analytic {}",
            plan.predicted.cost_gvm,
            plan.analytic_cost
        );
    }

    #[test]
    fn pareto_frontier_is_dominance_free_and_contains_greedy() {
        for (procs, mem) in [(8usize, 1usize << 18), (16, 1 << 20), (16, 1 << 22)] {
            let planner = Planner::new(layer(), MachineSpec::new(procs, mem));
            let frontier = planner.pareto_frontier();
            assert!(!frontier.is_empty(), "P={procs} mem={mem}");
            // Sorted by footprint, cost non-increasing as memory grows.
            for w in frontier.windows(2) {
                assert!(w[0].predicted.footprint_gd <= w[1].predicted.footprint_gd);
                assert!(w[1].predicted.cost_d <= w[0].predicted.cost_d);
            }
            // Dominance-free: no plan *strictly* beats another on cost
            // at no more memory. Same-cost ties are legal — they carry
            // distinct grids — so only strict cost domination is banned
            // and every grid appears at most once.
            for (i, a) in frontier.iter().enumerate() {
                for (j, b) in frontier.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    assert!(
                        !(a.predicted.footprint_gd <= b.predicted.footprint_gd
                            && a.predicted.cost_d < b.predicted.cost_d),
                        "P={procs} mem={mem}: frontier[{i}] dominates frontier[{j}]"
                    );
                    assert_ne!(
                        a.grid, b.grid,
                        "P={procs} mem={mem}: duplicate grid on frontier"
                    );
                }
            }
            // The greedy plan() result is on the frontier: its cost_D is
            // the frontier's minimum (last element after the sort).
            let greedy = planner.plan().unwrap();
            assert_eq!(
                greedy.predicted.cost_d,
                frontier.last().unwrap().predicted.cost_d,
                "P={procs} mem={mem}"
            );
        }
    }

    /// Regression: the frontier used to dedupe by the `(cost_D, g_D)`
    /// scalars, so two *different* grids with identical cost collapsed
    /// to one (PR 9's network tuner had to bypass the frontier as a
    /// result). A square layer is symmetric in h/w, so mirrored
    /// `(ph, pw)` grids cost exactly the same — both must survive.
    #[test]
    fn pareto_frontier_retains_same_cost_distinct_grids() {
        // P = 64 on an 8×8 layer: the {pb:4, pk:4, ph:2, pw:2} and
        // {pb:2, pk:8, ph:2, pw:2} grids cost exactly the same but
        // shard `b` and `k` differently — the exact diversity the
        // network tuner's redistribution term discriminates on.
        let p = Conv2dProblem::square(8, 64, 64, 8, 3);
        let planner = Planner::new(p, MachineSpec::new(64, 1 << 22));
        let frontier = planner.pareto_frontier();
        let tie = frontier.iter().enumerate().find_map(|(i, a)| {
            frontier[i + 1..]
                .iter()
                .find(|b| b.predicted.cost_d == a.predicted.cost_d && b.grid != a.grid)
                .map(|b| (a, b))
        });
        let (a, b) = tie.expect("frontier must keep a same-cost/different-grid pair");
        assert_eq!(a.predicted.cost_d, b.predicted.cost_d);
        assert_ne!(a.grid, b.grid);
        // The pair differs in its batch/filter split, not just cost
        // bookkeeping — exactly the alternate sharding the old scalar
        // dedupe collapsed.
        assert_ne!((a.grid.pb, a.grid.pk), (b.grid.pb, b.grid.pk));
    }

    #[test]
    fn forced_pc_propagates_through_enumeration_and_frontier() {
        let planner = Planner::new(layer(), MachineSpec::new(16, 1 << 22)).with_forced_pc(2);
        let all = planner.enumerate().unwrap();
        assert!(all.iter().all(|c| c.grid.pc == 2));
        assert!(all.iter().all(|c| c.regime != Regime::Summa2D));
        let frontier = planner.pareto_frontier();
        assert!(!frontier.is_empty());
        assert!(frontier.iter().all(|c| c.grid.pc == 2));
        // The forced-pc plan() winner matches the frontier's cheapest.
        let best = planner.plan().unwrap();
        assert_eq!(best.grid.pc, 2);
        assert_eq!(
            best.predicted.cost_d,
            frontier.last().unwrap().predicted.cost_d
        );
    }

    #[test]
    fn forced_pc_that_cannot_factor_fails_cleanly() {
        // pc = 5 divides no extent of this layer's c = 64? 5 ∤ 64, so
        // the divisor enumeration never visits it: unfactorable.
        let err = Planner::new(layer(), MachineSpec::new(16, 1 << 22))
            .with_forced_pc(5)
            .plan()
            .unwrap_err();
        assert_eq!(err, PlanError::Unfactorable { p: 16 });
    }

    #[test]
    fn buffer_sizes_match_paper_formulas() {
        let plan = Planner::new(layer(), MachineSpec::new(16, 1 << 20))
            .plan()
            .unwrap();
        let p = plan.problem;
        let t = plan.t;
        assert_eq!(
            plan.in_tile_elems(),
            t.tb * (p.sw * t.tw + p.nr - 1) * (p.sh * t.th + p.ns - 1)
        );
        assert_eq!(plan.ker_tile_elems(), t.tk * p.nr * p.ns);
    }
}
