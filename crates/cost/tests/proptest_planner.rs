//! Property-based tests for the planner and the analytical model:
//! every emitted plan must be internally consistent, feasible, and
//! theorem-conformant, for randomized layers and machines. Runs on the
//! in-tree `distconv_par::proptest_mini` harness.

use distconv_cost::closed_form::{ml_deflate, solve_table1, solve_table2};
use distconv_cost::exact::{constant_gap, eq3_cost, eq3_footprint_g};
use distconv_cost::{Conv2dProblem, MachineSpec, PlanError, Planner};
use distconv_par::proptest_mini::{check, Config, Gen};

fn arb_problem(g: &mut Gen) -> Conv2dProblem {
    Conv2dProblem::new(
        g.usize_in(1, 8),
        g.usize_in(1, 16),
        g.usize_in(1, 16),
        g.usize_in(1, 12),
        g.usize_in(1, 12),
        g.usize_in(1, 4),
        g.usize_in(1, 4),
        g.usize_in(1, 2),
        g.usize_in(1, 2),
    )
}

#[test]
fn emitted_plans_are_consistent() {
    check(
        "emitted_plans_are_consistent",
        Config::with_cases(128),
        |g| {
            let p = arb_problem(g);
            let procs = 1usize << g.u32_in(0, 5);
            let mem = 1usize << g.u32_in(10, 22);
            match Planner::new(p, MachineSpec::new(procs, mem)).plan() {
                Ok(plan) => {
                    // Grid reconstructs P and divides the extents.
                    assert_eq!(plan.grid.total(), procs);
                    assert!(plan.w.validates_eq2(&p, procs));
                    // Tiles divide the work partition, T_c = 1.
                    assert_eq!(plan.w.wb % plan.t.tb, 0);
                    assert_eq!(plan.w.wk % plan.t.tk, 0);
                    assert_eq!(plan.w.wh % plan.t.th, 0);
                    assert_eq!(plan.w.ww % plan.t.tw, 0);
                    assert_eq!(plan.t.tc, 1);
                    // Feasible under Eq. 11 and positive predicted costs.
                    assert!(plan.predicted.footprint_gd <= mem as f64);
                    assert!(plan.predicted.cost_d > 0.0);
                    // cost decomposition consistent.
                    assert!(
                        (plan.predicted.cost_d - plan.predicted.cost_i - plan.predicted.cost_c)
                            .abs()
                            < 1e-9
                    );
                    // Constant-gap theorem.
                    let (lhs, rhs) = constant_gap(&p, &plan.w, &plan.t, procs);
                    assert!((lhs - rhs).abs() < 1e-6);
                    // The tile footprint is within the memory left after
                    // the initial distribution (g consistent with g_D).
                    let gf = eq3_footprint_g(&p, &plan.t) as f64;
                    assert!(gf <= mem as f64);
                    // Eq. 3 evaluation agrees with the recorded prediction.
                    let direct = eq3_cost(&p, &plan.w, &plan.t).total();
                    assert!((direct - plan.predicted.cost_gvm).abs() < 1e-9);
                }
                Err(PlanError::Unfactorable { .. }) => {
                    // Legitimate when P shares no divisors with the extents.
                }
                Err(PlanError::InsufficientMemory { needed, available }) => {
                    assert!(needed > available);
                }
            }
        },
    );
}

#[test]
fn table_solvers_total_order() {
    check("table_solvers_total_order", Config::with_cases(128), |g| {
        let p = arb_problem(g);
        let procs = 1usize << g.u32_in(0, 6);
        let m_l = (1u64 << g.u32_in(4, 24)) as f64;
        let t1 = solve_table1(&p, procs, m_l);
        let t2 = solve_table2(&p, procs, m_l);
        // More permutations can only help.
        assert!(t2.cost <= t1.cost + 1e-9);
        // Costs decrease (weakly) in memory.
        let t1_more = solve_table1(&p, procs, m_l * 2.0);
        assert!(t1_more.cost <= t1.cost + 1e-9);
        // Costs decrease (weakly) in processors, per-processor.
        if procs >= 2 {
            let t1_half = solve_table1(&p, procs / 2, m_l);
            assert!(t1.cost <= t1_half.cost + 1e-9);
        }
    });
}

#[test]
fn ml_deflation_sandwich() {
    check("ml_deflation_sandwich", Config::with_cases(128), |g| {
        let p = arb_problem(g);
        let m = (1u64 << g.u32_in(4, 26)) as f64;
        let m_l = ml_deflate(m, &p);
        assert!(1.0 <= m_l && m_l <= m);
        // Deflation is monotone in M.
        let m_l2 = ml_deflate(2.0 * m, &p);
        assert!(m_l2 >= m_l);
        // And deflating costs something bounded by the K-term:
        // M − M_L = 3K·√M_L.
        let k = p.k_const();
        assert!((m - m_l) - 3.0 * k * m_l.sqrt() < 1e-6 * m + 1e-6);
    });
}

#[test]
fn forced_pc_never_beats_free_planner() {
    check(
        "forced_pc_never_beats_free_planner",
        Config::with_cases(128),
        |g| {
            let p = arb_problem(g);
            let procs = 1usize << g.u32_in(1, 4);
            let mem = 1usize << g.u32_in(12, 22);
            let Ok(free) = Planner::new(p, MachineSpec::new(procs, mem)).plan() else {
                return;
            };
            for pc in [1usize, 2, 4] {
                if let Ok(forced) = Planner::new(p, MachineSpec::new(procs, mem))
                    .with_forced_pc(pc)
                    .plan()
                {
                    assert!(
                        free.predicted.cost_d <= forced.predicted.cost_d + 1e-9,
                        "free {} beaten by forced pc={pc} {}",
                        free.predicted.cost_d,
                        forced.predicted.cost_d
                    );
                }
            }
        },
    );
}

#[test]
fn plan_is_the_first_minimum_of_enumerate() {
    check(
        "plan_is_the_first_minimum_of_enumerate",
        Config::with_cases(2048),
        |g| {
            let p = arb_problem(g);
            // Any P up to 70: primes and odd counts as well as powers of two.
            let machine = MachineSpec::new(g.usize_in(1, 70), 1usize << g.u32_in(10, 22));
            let planner = Planner::new(p, machine);
            match (planner.plan(), planner.enumerate()) {
                (Ok(best), Ok(all)) => {
                    let min = all
                        .iter()
                        .map(|c| c.predicted.cost_d)
                        .fold(f64::MAX, f64::min);
                    assert_eq!(
                        best,
                        *all.iter().find(|c| c.predicted.cost_d == min).unwrap()
                    );
                    assert!(all.iter().all(|c| c.grid.total() == machine.p
                        && c.predicted.footprint_gd <= machine.mem as f64));
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("plan {a:?} vs enumerate {:?}", b.map(|all| all.len())),
            }
        },
    );
}
