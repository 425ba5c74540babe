//! `distconv-cli` — plan, run and sweep distributed CNN layers from the
//! command line.
//!
//! ```text
//! distconv-cli plan  --nb 8 --nk 64 --nc 64 --nh 28 --nw 28 --nr 3 --ns 3 -p 64 -m 1048576
//! distconv-cli run   --nb 4 --nk 16 --nc 16 --nh 8 --nw 8 -p 8 -m 1048576 [--train]
//! distconv-cli sweep --nb 8 --nk 64 --nc 64 --nh 8 --nw 8 -p 64      # memory sweep
//! distconv-cli layers [batch] [procs]                                # preset table
//! ```
//!
//! All sizes are in elements (words); defaults produce a small,
//! sub-second demonstration.

use distconv::core::{execute, run_training_step, RunOptions};
use distconv::cost::presets::{resnet50, vgg16};
use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
use distconv::simnet::MachineConfig;
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix("-")) {
            if i + 1 < args.len() && !args[i + 1].starts_with('-') {
                out.insert(key.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
            out.insert(key.to_string(), "true".to_string());
        }
        i += 1;
    }
    out
}

fn get(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn problem_from(flags: &HashMap<String, String>) -> Conv2dProblem {
    Conv2dProblem::new(
        get(flags, "nb", 4),
        get(flags, "nk", 16),
        get(flags, "nc", 16),
        get(flags, "nh", 8),
        get(flags, "nw", 8),
        get(flags, "nr", 3),
        get(flags, "ns", 3),
        get(flags, "sw", 1),
        get(flags, "sh", 1),
    )
}

fn print_plan(plan: &distconv::cost::DistPlan) {
    let g = plan.grid;
    println!("  regime        : {}", plan.regime.name());
    println!(
        "  grid          : Pb={} Pk={} Pc={} Ph={} Pw={}  (P = {})",
        g.pb,
        g.pk,
        g.pc,
        g.ph,
        g.pw,
        g.total()
    );
    println!(
        "  work partition: Wb={} Wk={} Wc={} Wh={} Ww={}",
        plan.w.wb, plan.w.wk, plan.w.wc, plan.w.wh, plan.w.ww
    );
    println!(
        "  tiles         : Tb={} Tk={} Tc={} Th={} Tw={}",
        plan.t.tb, plan.t.tk, plan.t.tc, plan.t.th, plan.t.tw
    );
    println!(
        "  predicted     : cost_I {:.0} + cost_C {:.0} = cost_D {:.0} elems/rank",
        plan.predicted.cost_i, plan.predicted.cost_c, plan.predicted.cost_d
    );
    println!(
        "  memory (Eq.11): {:.0} / {} elems/rank",
        plan.predicted.footprint_gd, plan.machine.mem
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: distconv-cli <plan|run|sweep|pareto|layers> [flags]  (see source header)"
        );
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "plan" => {
            let p = problem_from(&flags);
            let machine = MachineSpec::new(get(&flags, "p", 16), get(&flags, "m", 1 << 20));
            println!("layer: {p:?}");
            match Planner::new(p, machine).plan() {
                Ok(plan) => {
                    print_plan(&plan);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("  infeasible: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let p = problem_from(&flags);
            let machine = MachineSpec::new(get(&flags, "p", 8), get(&flags, "m", 1 << 20));
            let seed = get(&flags, "seed", 42) as u64;
            let plan = match Planner::new(p, machine).plan() {
                Ok(pl) => pl,
                Err(e) => {
                    eprintln!("infeasible: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("layer: {p:?}");
            print_plan(&plan);
            if flags.contains_key("train") {
                match run_training_step::<f32>(plan, seed, MachineConfig::default()) {
                    Ok(r) => {
                        println!(
                            "  training step : measured {} elems (expected {})",
                            r.measured_volume(),
                            r.expected_total()
                        );
                        println!(
                            "  verified      : forward {} / gradient {}",
                            r.forward_verified, r.grad_verified
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("  FAILED: {e}");
                        ExitCode::FAILURE
                    }
                }
            } else {
                let cfg = MachineConfig::default();
                match execute::<f32>(&plan.into(), seed, cfg, RunOptions::default()) {
                    Ok(run) => {
                        let r = run.report;
                        println!(
                            "  measured      : {} elems (model {}, exact match {})",
                            r.measured_total(),
                            r.expected_total(),
                            r.measured_total() == r.expected_total()
                        );
                        println!(
                            "  peak memory   : {} elems/rank; sim time {:.3} ms; verified {}",
                            r.max_peak_mem,
                            r.sim_time * 1e3,
                            r.verified
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("  FAILED: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
        }
        "sweep" => {
            let p = problem_from(&flags);
            let procs = get(&flags, "p", 16);
            println!("layer: {p:?}, P = {procs}");
            println!(
                "{:>10} {:>18} {:>8} {:>14} {:>14}",
                "M_D", "grid", "regime", "cost_D", "g_D"
            );
            for shift in 10..=24usize {
                let mem = 1usize << shift;
                match Planner::new(p, MachineSpec::new(procs, mem)).plan() {
                    Ok(plan) => {
                        let g = plan.grid;
                        println!(
                            "{:>10} {:>18} {:>8} {:>14.0} {:>14.0}",
                            format!("2^{shift}"),
                            format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
                            plan.regime.name(),
                            plan.predicted.cost_d,
                            plan.predicted.footprint_gd
                        );
                    }
                    Err(_) => println!("{:>10} {:>18}", format!("2^{shift}"), "infeasible"),
                }
            }
            ExitCode::SUCCESS
        }
        "pareto" => {
            let p = problem_from(&flags);
            let procs = get(&flags, "p", 16);
            let planner = Planner::new(p, MachineSpec::new(procs, get(&flags, "m", 1 << 24)));
            let frontier = planner.pareto_frontier();
            println!("layer: {p:?}, P = {procs}");
            println!(
                "{:>18} {:>4} {:>8} {:>14} {:>14}",
                "grid", "Pc", "regime", "memory g_D", "cost_D"
            );
            for plan in &frontier {
                let g = plan.grid;
                println!(
                    "{:>18} {:>4} {:>8} {:>14.0} {:>14.0}",
                    format!("{}x{}x{}x{}x{}", g.pb, g.pk, g.pc, g.ph, g.pw),
                    g.pc,
                    plan.regime.name(),
                    plan.predicted.footprint_gd,
                    plan.predicted.cost_d
                );
            }
            ExitCode::SUCCESS
        }
        "layers" => {
            let batch = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
            let procs = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
            println!(
                "{:<24} {:>9} {:>14} {:>14}",
                "layer", "regime", "cost_C/rank", "cost_D/rank"
            );
            for l in resnet50(batch).into_iter().chain(vgg16(batch)) {
                match Planner::new(l.problem, MachineSpec::new(procs, 1 << 30)).plan() {
                    Ok(plan) => println!(
                        "{:<24} {:>9} {:>14.0} {:>14.0}",
                        l.name,
                        plan.regime.name(),
                        plan.predicted.cost_c,
                        plan.predicted.cost_d
                    ),
                    Err(e) => println!("{:<24} infeasible: {e}", l.name),
                }
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}; expected plan|run|sweep|pareto|layers");
            ExitCode::FAILURE
        }
    }
}
