//! The matmul analogy, executed: a 1×1 stride-1 convolution *is* the
//! matrix product `Out[bhw×k] = In[bhw×c] · Ker[c×k]`. Run the paper's
//! CNN algorithm and the classic distributed matmuls on the same
//! computation and the same simulated machine, and compare measured
//! volumes.
//!
//! ```sh
//! cargo run --release --example matmul_analogy
//! ```

use distconv::core::{execute, RunOptions};
use distconv::cost::{Conv2dProblem, MachineSpec, Planner};
use distconv::distmm::{run_25d, run_dns3d, run_summa, MatmulDims};
use distconv::simnet::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1×1 conv: bhw = 4·8·8 = 256 rows, c = 32 inner, k = 32 cols.
    let p = Conv2dProblem::new(4, 32, 32, 8, 8, 1, 1, 1, 1);
    let dims = MatmulDims::new(p.nbhw(), p.nk, p.nc);
    let cfg = MachineConfig::default();
    println!(
        "1×1 conv ≡ matmul: C[{}×{}] = A[{}×{}] · B[{}×{}]\n",
        dims.m, dims.n, dims.m, dims.k, dims.k, dims.n
    );
    println!(
        "{:<44} {:>6} {:>12} {:>9}",
        "algorithm", "P", "volume", "verified"
    );

    for (label, forced_pc) in [
        ("distconv, planner's grid", None),
        ("distconv, forced Pc=1 (SUMMA analog)", Some(1)),
        ("distconv, forced Pc=4 (2.5D/3D analog)", Some(4)),
    ] {
        let mut planner = Planner::new(p, MachineSpec::new(16, 1 << 22));
        if let Some(pc) = forced_pc {
            planner = planner.with_forced_pc(pc);
        }
        match planner.plan() {
            Ok(plan) => {
                let r = execute::<f64>(&plan.into(), 3, cfg, RunOptions::default())?.report;
                let g = plan.grid;
                println!(
                    "{:<44} {:>6} {:>12} {:>9}   grid {}x{}x{}x{}x{}",
                    label,
                    16,
                    r.measured_total(),
                    r.verified,
                    g.pb,
                    g.pk,
                    g.pc,
                    g.ph,
                    g.pw
                );
            }
            Err(e) => println!("{label:<44} infeasible: {e}"),
        }
    }

    let s = run_summa(dims, 4, 4, cfg)?;
    println!(
        "{:<44} {:>6} {:>12} {:>9}   grid 4x4",
        "SUMMA-2D",
        s.procs,
        s.stats.total_elems(),
        s.verified
    );
    let s25 = run_25d(dims, 2, 4, cfg)?;
    println!(
        "{:<44} {:>6} {:>12} {:>9}   grid 4 layers of 2x2",
        "2.5D (c=4)",
        s25.procs,
        s25.stats.total_elems(),
        s25.verified
    );
    let s3 = run_dns3d(dims, 2, cfg)?;
    println!(
        "{:<44} {:>6} {:>12} {:>9}   grid 2x2x2",
        "3D (DNS)",
        s3.procs,
        s3.stats.total_elems(),
        s3.verified
    );

    println!(
        "\nReading: the CNN algorithm's (Pbhw × Pk) grid plays SUMMA's (rows × cols)\n\
         and Pc plays the replication depth; volumes land in the same band, and the\n\
         regime selected by the planner tracks the matmul family the paper names."
    );
    Ok(())
}
