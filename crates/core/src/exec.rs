//! Distributed execution: the tiled loop with the paper's
//! rotating-broadcast communication schedule, and the high-level
//! [`DistConv`] driver.

use crate::distribution::{self, distribute, shard_geometry, RankData};
use crate::layout::{forward_layer, LayerShards, RankLayout};
use crate::model::{eq10_aggregate, expected_volumes, ExpectedVolumes};
use crate::recover::{recover, Recovery};
use distconv_conv::kernels::{conv2d_direct_par, workload};
use distconv_cost::{DistPlan, MachineSpec, Planner};
use distconv_par::{CommMode, LocalKernel};
use distconv_simnet::{Machine, MachineConfig, Rank, RunError, StatsSnapshot};
use distconv_tensor::{max_rel_err, Range4, Scalar, Tensor4};
use distconv_trace::{ConformanceReport, ConformanceRow, RunTrace, SpanEvent, SpanKind, Tolerance};

/// Errors from the distributed driver.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// The plan's grid does not multiply out to the machine size.
    GridMismatch {
        /// Ranks the grid implies.
        grid: usize,
        /// Ranks the machine was given.
        machine: usize,
    },
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
            CoreError::GridMismatch { grid, machine } => {
                write!(f, "plan grid has {grid} ranks but machine has {machine}")
            }
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

/// Everything a distributed run reports.
#[derive(Clone, Debug)]
pub struct DistConvReport {
    /// The executed plan.
    pub plan: DistPlan,
    /// Measured communication counters.
    pub stats: StatsSnapshot,
    /// Exact model of the schedule's expected traffic.
    pub expected: ExpectedVolumes,
    /// Per-rank peak memory (elements).
    pub peak_mem: Vec<u64>,
    /// Whether verification against the sequential reference passed
    /// (always `true` from [`DistConv::run_verified`]; `false` only from
    /// unverified runs).
    pub verified: bool,
    /// Worst relative error vs the reference (0 when unverified).
    pub max_rel_err: f64,
    /// Simulated α–β communication time (volume-based estimate).
    pub sim_time: f64,
    /// Lamport communication makespan (dependency-aware).
    pub makespan: f64,
    /// What recovery did (default unless [`DistConv::run_recovering`]
    /// had to retry or degrade). When it degraded, `plan` is the grid
    /// re-planned over the survivors.
    pub recovery: Recovery,
    /// Elements of checkpoint state the survivors fetched from peers to
    /// restart on the shrunken grid (0 unless degraded). Accounted apart
    /// from both `stats` (algorithmic) and the aborted attempts' traffic,
    /// like ARQ overhead.
    pub redist_elems: u64,
    /// Per-rank span trace of the successful run (empty when tracing
    /// was disabled), plus [`DistConv::run_recovering`]'s recovery
    /// markers on rank 0.
    pub trace: RunTrace,
}

impl DistConvReport {
    /// Measured inter-rank volume (elements).
    pub fn measured_volume(&self) -> u64 {
        self.stats.total_elems()
    }

    /// Largest per-rank peak memory.
    pub fn max_peak_mem(&self) -> u64 {
        self.peak_mem.iter().copied().max().unwrap_or(0)
    }

    /// Cost-model conformance: the measured traffic against the exact
    /// schedule model ([`expected_volumes`], element-exact) and against
    /// the paper's Eq. 10 aggregate (an upper bound — it also charges
    /// the initial footprint), plus a per-rank trace-vs-counter
    /// cross-check. The per-rank rows are skipped when the trace is
    /// empty (tracing disabled) or any ring wrapped — a wrapped ring
    /// undercounts by construction.
    pub fn conformance(&self) -> ConformanceReport {
        let mut rep = ConformanceReport::new();
        rep.push(ConformanceRow::new(
            "conv/total-volume",
            self.measured_volume() as f64,
            self.expected.total() as f64,
            Tolerance::Exact,
        ));
        rep.push(ConformanceRow::new(
            "conv/eq10-upper-bound",
            self.measured_volume() as f64,
            eq10_aggregate(&self.plan),
            Tolerance::UpperBound,
        ));
        if !self.trace.is_empty() && self.trace.total_dropped() == 0 {
            for rank in 0..self.plan.grid.total() {
                rep.push(ConformanceRow::new(
                    format!("conv/rank{rank}-sent-elems"),
                    self.trace.sent_elems(rank) as f64,
                    self.stats.per_rank_elems[rank] as f64,
                    Tolerance::Exact,
                ));
            }
        }
        rep
    }
}

/// High-level driver: run a [`DistPlan`] on the simulated machine.
pub struct DistConv<T> {
    plan: DistPlan,
    cfg: MachineConfig,
    enforce_memory: bool,
    kernel: LocalKernel,
    comm: CommMode,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> DistConv<T> {
    /// Driver for `plan` with default machine configuration and the
    /// local kernel and comm mode resolved from the environment
    /// (`DISTCONV_LOCAL_KERNEL`, `DISTCONV_COMM`), once, here.
    pub fn new(plan: DistPlan) -> Self {
        DistConv {
            plan,
            cfg: MachineConfig::default(),
            enforce_memory: false,
            kernel: LocalKernel::from_env(),
            comm: CommMode::from_env(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Override the machine configuration.
    pub fn with_config(mut self, cfg: MachineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Override the communication mode (blocking vs overlapped tile
    /// pipeline). Results and traffic counters are identical in both
    /// modes; this knob only moves *when* ranks wait.
    pub fn with_comm_mode(mut self, mode: CommMode) -> Self {
        self.comm = mode;
        self
    }

    /// Enforce the plan's per-rank memory capacity `M_D` in the
    /// simulator (a lease beyond it panics the offending rank).
    ///
    /// Note: Eq. 11's `In` term charges `|In|/P` without the spatial
    /// halo *overlap* that grids with `P_h·P_w > 1` replicate, so a
    /// plan at the edge of memory can exceed `M_D` by the overlap; the
    /// planner's selection is validated separately by the recorded
    /// peak. Enforcement is therefore opt-in.
    pub fn enforce_memory(mut self, on: bool) -> Self {
        self.enforce_memory = on;
        self
    }

    /// Execute the plan with workload `seed`; no verification. Panics
    /// if the machine fails (see [`DistConv::run_verified`] /
    /// [`DistConv::run_recovering`] for the non-panicking forms).
    pub fn run(&self, seed: u64) -> DistConvReport {
        let (report, _) = self
            .run_full(self.plan, self.machine_cfg(), seed, false)
            .unwrap_or_else(|e| panic!("{e}"));
        report
    }

    /// Execute and verify every output element against the sequential
    /// reference ([`conv2d_direct_par`]). Machine failures (rank crash,
    /// deadlock, memory over-commit) surface as [`CoreError::Machine`]
    /// with every failed rank enumerated.
    pub fn run_verified(&self, seed: u64) -> Result<DistConvReport, CoreError> {
        let (report, _) = self.run_full(self.plan, self.machine_cfg(), seed, true)?;
        Ok(report)
    }

    /// Execute with verification under the [`recover`] policy, degrading
    /// onto a greedy re-plan over the survivors. A degraded report's
    /// `plan` is the shrunken grid, and `redist_elems` the checkpoint
    /// redistribution onto it.
    pub fn run_recovering(&self, seed: u64) -> Result<DistConvReport, CoreError> {
        let machine = |p| MachineSpec::new(p, self.plan.machine.mem);
        let done = recover(
            &self.plan,
            self.machine_cfg(),
            |plan, cfg| self.run_full(*plan, cfg, seed, true).map(|(r, _)| r),
            |p| Planner::new(self.plan.problem, machine(p)).plan().ok(),
        )?;
        let mut r = done.value;
        if done.recovery.degraded() {
            r.redist_elems =
                checkpoint_redistribution(&self.plan, &r.plan, &done.recovery.dead_ranks);
        }
        mark_recovery(&mut r.trace, &done.recovery, r.redist_elems);
        r.recovery = done.recovery;
        Ok(r)
    }

    fn machine_cfg(&self) -> MachineConfig {
        let mut cfg = self.cfg;
        if self.enforce_memory {
            cfg.mem_capacity = Some(self.plan.machine.mem as u64);
        }
        cfg
    }

    /// Execute the plan and also return every rank's output (the
    /// reduced `Out` slices on the `i_c = 0` plane). Used by the
    /// overlap proptests to compare the two comm modes bitwise.
    pub fn run_with_outputs(
        &self,
        seed: u64,
    ) -> Result<(DistConvReport, Vec<RankOut<T>>), CoreError> {
        self.run_full(self.plan, self.machine_cfg(), seed, false)
    }

    fn run_full(
        &self,
        plan: DistPlan,
        cfg: MachineConfig,
        seed: u64,
        verify: bool,
    ) -> Result<(DistConvReport, Vec<RankOut<T>>), CoreError> {
        let (kernel, comm) = (self.kernel, self.comm);
        let procs = plan.grid.total();
        let report = Machine::try_run::<T, _, _>(procs, cfg, |rank| {
            rank_body::<T>(rank, &plan, seed, kernel, comm)
        })?;

        let (verified, max_rel_err) = if verify {
            let worst = verify_results::<T>(&plan, seed, &report.results);
            let tol = verification_tolerance::<T>(&plan);
            if worst > tol {
                return Err(CoreError::VerificationFailed { max_rel_err: worst });
            }
            (true, worst)
        } else {
            (false, 0.0)
        };

        Ok((
            DistConvReport {
                plan,
                expected: expected_volumes(&plan),
                peak_mem: report.peak_mem,
                verified,
                max_rel_err,
                sim_time: report.sim_time,
                makespan: report.makespan,
                stats: report.stats,
                recovery: Recovery::default(),
                redist_elems: 0,
                trace: report.trace,
            },
            report.results.into_iter().map(|(out, ())| out).collect(),
        ))
    }
}

/// Checkpoint redistribution onto a shrunken grid: survivor `j`
/// restarts as new rank `j`. Its checkpoint shard covers its *old*
/// global region; whatever the new shard needs beyond the overlap must
/// be fetched from peers (every element is held by some survivor —
/// shards are pure functions of seed and global coordinates).
fn checkpoint_redistribution(old_plan: &DistPlan, new_plan: &DistPlan, dead: &[usize]) -> u64 {
    let missing = |new: Range4, old: Range4| new.len() - new.intersect(&old).map_or(0, |r| r.len());
    let survivors = (0..old_plan.grid.total()).filter(|r| !dead.contains(r));
    let mut redist_elems = 0u64;
    for (new_rank, old_rank) in survivors.enumerate().take(new_plan.grid.total()) {
        let old = shard_geometry(old_plan, old_rank);
        let new = shard_geometry(new_plan, new_rank);
        redist_elems += missing(new.in_region, old.in_region) as u64;
        redist_elems += missing(new.ker_region, old.ker_region) as u64;
    }
    redist_elems
}

/// Timeline markers on rank 0 for what recovery did: one restart per
/// aborted attempt (the wasted traffic on the last), and when the run
/// degraded, the death verdicts and the redistribution onto the
/// shrunken grid.
fn mark_recovery(trace: &mut RunTrace, rec: &Recovery, redist_elems: u64) {
    let mut mark = |kind, step: u32, peer, elems| {
        let event = SpanEvent {
            kind,
            step: step.into(),
            peer,
            tag: 0,
            elems,
            start_ns: 0,
            dur_ns: 0,
        };
        trace.push(0, event);
    };
    for attempt in 0..rec.attempts {
        let last = attempt + 1 == rec.attempts;
        let elems = if last { rec.wasted_elems } else { 0 };
        mark(SpanKind::CheckpointRestore, attempt, None, elems);
    }
    if rec.degraded() {
        for &d in &rec.dead_ranks {
            mark(SpanKind::FailureDetect, rec.attempts, Some(d), 0);
        }
        mark(SpanKind::Redistribute, rec.attempts, None, redist_elems);
    }
}

/// Tolerance scaled to the reduction length and element type: partial
/// sums accumulated in different orders diverge by `O(ε·Σ|terms|)`.
fn verification_tolerance<T: Scalar>(plan: &DistPlan) -> f64 {
    let p = &plan.problem;
    let terms = (p.nc * p.nr * p.ns) as f64;
    let eps = if std::mem::size_of::<T>() == 4 {
        1e-6
    } else {
        1e-14
    };
    eps * terms.max(1.0) * 8.0
}

/// One rank's execution of the distributed CNN algorithm.
fn rank_body<T: Scalar>(
    rank: &Rank<T>,
    plan: &DistPlan,
    seed: u64,
    kernel: LocalKernel,
    comm: CommMode,
) -> (RankOut<T>, ()) {
    let RankData {
        coords,
        bhw_pos: _,
        mut out_slice,
        out_origin,
        in_shard,
        in_origin,
        in_c_range: _,
        ker_shard,
        ker_origin,
        ker_c_range: _,
    } = distribute::<T>(plan, rank.id(), seed);
    let _shard_lease = rank
        .mem()
        .lease_or_panic((out_slice.len() + in_shard.len() + ker_shard.len()) as u64);

    let layout = RankLayout::new(plan, rank);
    let shards = LayerShards {
        in_shard: &in_shard,
        in_origin,
        ker_shard: &ker_shard,
        ker_origin,
        out_origin,
    };
    forward_layer(plan, rank, &layout, &shards, kernel, comm, &mut out_slice);

    (
        RankOut {
            coords,
            out_origin,
            slice: if layout.ic() == 0 {
                Some(out_slice)
            } else {
                None
            },
        },
        (),
    )
}

/// Per-rank result: the final `Out` slice (only on `i_c = 0` ranks).
pub struct RankOut<T> {
    /// Grid coordinates.
    pub coords: [usize; 5],
    /// Global origin of the slice.
    pub out_origin: [usize; 4],
    /// The reduced output slice (`None` off the `i_c = 0` plane).
    pub slice: Option<Tensor4<T>>,
}

/// Compare every `i_c = 0` rank's slice against the sequential
/// reference; returns the worst relative error.
fn verify_results<T: Scalar>(plan: &DistPlan, seed: u64, results: &[(RankOut<T>, ())]) -> f64 {
    let p = plan.problem;
    let (input, ker) = workload::<T>(&p, seed);
    let reference = conv2d_direct_par(&p, &input, &ker);
    results
        .iter()
        .filter_map(|(out, ())| {
            let slice = out.slice.as_ref()?;
            let r = distribution::out_range(plan, out.coords);
            Some(window_max_rel_err(&reference, r, slice))
        })
        .fold(0.0, f64::max)
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

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_cost::{Conv2dProblem, MachineSpec, Planner};

    fn run_plan(p: Conv2dProblem, procs: usize, mem: usize) -> DistConvReport {
        let plan = Planner::new(p, MachineSpec::new(procs, mem))
            .plan()
            .unwrap();
        DistConv::<f64>::new(plan).run_verified(5).unwrap()
    }

    #[test]
    fn single_rank_correct_and_silent() {
        let r = run_plan(Conv2dProblem::square(2, 4, 4, 4, 3), 1, 1 << 16);
        assert!(r.verified);
        assert_eq!(r.measured_volume(), 0);
        assert_eq!(r.expected.total(), 0);
    }

    #[test]
    fn multi_rank_correct_and_volume_exact() {
        for procs in [2usize, 4, 8, 16] {
            let r = run_plan(Conv2dProblem::square(4, 8, 8, 8, 3), procs, 1 << 18);
            assert!(r.verified, "P={procs}");
            assert_eq!(
                r.measured_volume() as u128,
                r.expected.total(),
                "P={procs}: measured vs expected (grid {:?})",
                r.plan.grid
            );
        }
    }

    #[test]
    fn strided_layer_correct() {
        let r = run_plan(Conv2dProblem::new(2, 8, 8, 4, 4, 3, 3, 2, 2), 4, 1 << 18);
        assert!(r.verified);
        assert_eq!(r.measured_volume() as u128, r.expected.total());
    }

    #[test]
    fn asymmetric_kernel_and_strides() {
        let r = run_plan(Conv2dProblem::new(2, 4, 4, 6, 4, 3, 5, 2, 1), 4, 1 << 18);
        assert!(r.verified);
        assert_eq!(r.measured_volume() as u128, r.expected.total());
    }

    #[test]
    fn f32_runs_verified() {
        let plan = Planner::new(
            Conv2dProblem::square(2, 8, 8, 4, 3),
            MachineSpec::new(4, 1 << 18),
        )
        .plan()
        .unwrap();
        let r = DistConv::<f32>::new(plan).run_verified(11).unwrap();
        assert!(r.verified);
    }

    #[test]
    fn pc_replicated_grid_reduces_out() {
        // Force a grid with Pc > 1 and confirm the reduction path works
        // and is accounted.
        let p = Conv2dProblem::square(2, 4, 16, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .with_forced_pc(2)
            .plan()
            .unwrap();
        assert_eq!(plan.grid.pc, 2);
        let r = DistConv::<f64>::new(plan).run_verified(3).unwrap();
        assert!(r.verified);
        assert!(r.expected.out_reduce > 0);
        assert_eq!(r.measured_volume() as u128, r.expected.total());
    }

    #[test]
    fn peak_memory_within_eq11_when_no_spatial_split() {
        let p = Conv2dProblem::square(2, 8, 8, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
            .plan()
            .unwrap();
        let r = DistConv::<f64>::new(plan).run_verified(7).unwrap();
        if plan_is_spatial_free(&r.plan) {
            assert!(
                r.max_peak_mem() as f64 <= r.plan.predicted.footprint_gd + 1.0,
                "peak {} vs Eq.11 {}",
                r.max_peak_mem(),
                r.plan.predicted.footprint_gd
            );
        }
    }

    fn plan_is_spatial_free(plan: &DistPlan) -> bool {
        plan.grid.ph == 1 && plan.grid.pw == 1
    }

    #[test]
    fn peak_memory_matches_exact_model_on_every_grid() {
        // The halo-aware model must equal the measured peak per rank,
        // including spatially-split and replicated grids.
        for (p, procs, forced_pc) in [
            (Conv2dProblem::square(4, 8, 8, 8, 3), 8usize, None),
            (Conv2dProblem::square(2, 4, 16, 4, 3), 8, Some(2)),
            (Conv2dProblem::new(4, 8, 8, 8, 8, 3, 3, 2, 2), 16, None),
        ] {
            let mut planner = Planner::new(p, MachineSpec::new(procs, 1 << 20));
            if let Some(pc) = forced_pc {
                planner = planner.with_forced_pc(pc);
            }
            let plan = planner.plan().unwrap();
            let r = DistConv::<f64>::new(plan).run(5);
            for rank in 0..procs {
                assert_eq!(
                    r.peak_mem[rank],
                    crate::model::expected_peak_mem(&plan, rank),
                    "rank {rank} grid {:?}",
                    plan.grid
                );
            }
        }
    }

    #[test]
    fn memory_enforcement_catches_tiny_capacity() {
        // Build a valid plan, then lie about the machine memory and
        // enforce: the run must panic inside a rank (propagated).
        let p = Conv2dProblem::square(2, 8, 8, 4, 3);
        let mut plan = Planner::new(p, MachineSpec::new(4, 1 << 20))
            .plan()
            .unwrap();
        plan.machine.mem = 8; // absurdly small
        let result =
            std::panic::catch_unwind(|| DistConv::<f64>::new(plan).enforce_memory(true).run(1));
        assert!(result.is_err(), "memory enforcement should have fired");
    }

    #[test]
    fn machine_failure_surfaces_as_core_error() {
        use distconv_simnet::FaultPlan;
        let p = Conv2dProblem::square(4, 8, 8, 8, 3);
        let plan = Planner::new(p, MachineSpec::new(4, 1 << 18))
            .plan()
            .unwrap();
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_crash(0, 2),
            ..MachineConfig::default()
        };
        let err = DistConv::<f64>::new(plan)
            .with_config(cfg)
            .run_verified(5)
            .expect_err("crash must fail the run");
        let CoreError::Machine(e) = err else {
            panic!("expected Machine error, got {err:?}");
        };
        assert!(e.has_injected_crash());
        assert!(e.failed_ranks().contains(&0));
    }

    #[test]
    fn crash_injected_run_recovers_to_fault_free_result() {
        use distconv_simnet::FaultPlan;
        let p = Conv2dProblem::square(4, 8, 8, 8, 3);
        let plan = Planner::new(p, MachineSpec::new(4, 1 << 18))
            .plan()
            .unwrap();
        let clean = DistConv::<f64>::new(plan).run_verified(5).unwrap();
        assert_eq!(clean.recovery, Recovery::default());
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_crash(0, 2),
            ..MachineConfig::default()
        };
        let r = DistConv::<f64>::new(plan)
            .with_config(cfg)
            .run_recovering(5)
            .expect("must recover");
        assert!(r.recovery.recovered(), "crash must have been detected");
        assert!(!r.recovery.degraded());
        assert_eq!(r.recovery.attempts, 1);
        assert!(r.verified);
        // The recovered step's algorithmic volume equals the fault-free
        // run's; the aborted attempt's traffic is reported separately.
        assert_eq!(r.measured_volume(), clean.measured_volume());
        assert!(
            r.recovery.wasted_elems > 0,
            "the aborted attempt moved data"
        );
        // The restart left a marker in the trace with the wasted volume.
        let restores: Vec<_> = r.trace.per_rank[0]
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::CheckpointRestore)
            .collect();
        assert_eq!(restores.len(), 1);
        assert_eq!(restores[0].elems, r.recovery.wasted_elems);
    }

    #[test]
    fn persistent_crash_degrades_to_survivor_grid() {
        use distconv_simnet::FaultPlan;
        let p = Conv2dProblem::square(4, 8, 8, 8, 3);
        let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .plan()
            .unwrap();
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_persistent_crash(0, 2),
            ..MachineConfig::default()
        };
        let r = DistConv::<f64>::new(plan)
            .with_config(cfg)
            .run_recovering(5)
            .expect("must finish degraded");
        assert!(r.recovery.degraded() && r.recovery.recovered() && r.verified);
        // Every attempt on the full grid aborted (initial + retries).
        assert_eq!(r.recovery.attempts, crate::MAX_STEP_RETRIES + 1);
        assert!(r.recovery.wasted_elems > 0);
        assert_eq!(r.recovery.dead_ranks, vec![0]);
        // 7 survivors, but 7/6/5 don't factor this problem: P' = 4.
        assert_eq!(r.plan.grid.total(), 4);
        assert!(r.redist_elems > 0, "the shrink must move checkpoints");
        // Conformance validates at P': the report's plan IS the new one.
        let rep = r.conformance();
        assert!(rep.pass(), "degraded conformance failed:\n{rep}");
        // Trace carries the full story on rank 0.
        let kinds = |k: SpanKind| {
            r.trace.per_rank[0]
                .events
                .iter()
                .filter(|e| e.kind == k)
                .count()
        };
        assert_eq!(
            kinds(SpanKind::CheckpointRestore),
            (crate::MAX_STEP_RETRIES + 1) as usize
        );
        assert_eq!(kinds(SpanKind::FailureDetect), 1);
        assert_eq!(kinds(SpanKind::Redistribute), 1);
        let redist = r.trace.per_rank[0]
            .events
            .iter()
            .find(|e| e.kind == SpanKind::Redistribute)
            .unwrap();
        assert_eq!(redist.elems, r.redist_elems);
    }

    #[test]
    fn degraded_result_matches_clean_small_grid_run() {
        use distconv_simnet::FaultPlan;
        // The degraded run on P' ranks must produce the same verified
        // result and traffic as a clean run planned at P' directly.
        let p = Conv2dProblem::square(4, 8, 8, 8, 3);
        let plan8 = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .plan()
            .unwrap();
        let cfg = MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            faults: FaultPlan::default().with_persistent_crash(1, 3),
            ..MachineConfig::default()
        };
        let degraded = DistConv::<f64>::new(plan8)
            .with_config(cfg)
            .run_recovering(9)
            .unwrap();
        let p_new = degraded.plan.grid.total();
        let clean = run_plan(p, p_new, 1 << 20);
        assert_eq!(degraded.plan.grid, clean.plan.grid);
        assert_eq!(degraded.measured_volume(), clean.measured_volume());
        assert_eq!(degraded.stats.per_rank_elems, clean.stats.per_rank_elems);
    }

    #[test]
    fn conformance_passes_and_cross_checks_per_rank() {
        let r = run_plan(Conv2dProblem::square(4, 8, 8, 8, 3), 8, 1 << 18);
        let rep = r.conformance();
        assert!(rep.pass(), "conformance failed:\n{rep}");
        // total + eq10 bound + one cross-check row per rank.
        assert_eq!(rep.rows.len(), 2 + 8, "{rep}");
        assert!(rep
            .rows
            .iter()
            .any(|row| row.name == "conv/eq10-upper-bound"));
    }

    #[test]
    fn deterministic_across_runs() {
        let p = Conv2dProblem::square(2, 8, 8, 4, 3);
        let plan = Planner::new(p, MachineSpec::new(4, 1 << 18))
            .plan()
            .unwrap();
        let a = DistConv::<f64>::new(plan).run(9);
        let b = DistConv::<f64>::new(plan).run(9);
        assert_eq!(a.measured_volume(), b.measured_volume());
        assert_eq!(a.stats.per_rank_elems, b.stats.per_rank_elems);
    }
}
