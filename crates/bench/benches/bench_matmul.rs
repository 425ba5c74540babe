//! Wall-clock bench: the distributed matmul analogs (E7) — SUMMA-2D vs
//! 2.5D vs 3D wall time at matched processor counts, plus the local
//! GEMM kernels.

use distconv_bench::Suite;
use distconv_distmm::{
    matmul_blocked, matmul_blocked_par, run_25d, run_dns3d, run_summa, MatmulDims,
};
use distconv_simnet::MachineConfig;
use distconv_tensor::Matrix;
use std::hint::black_box;

fn bench_local_gemm() {
    let n = 192;
    let a = Matrix::<f32>::random(n, n, 1);
    let b = Matrix::<f32>::random(n, n, 2);
    let mut g = Suite::new("local_gemm_192");
    g.bench("blocked", || {
        let mut cm = Matrix::<f32>::zeros(n, n);
        matmul_blocked(&mut cm, black_box(&a), black_box(&b));
        cm
    });
    g.bench("blocked_par", || {
        let mut cm = Matrix::<f32>::zeros(n, n);
        matmul_blocked_par(&mut cm, black_box(&a), black_box(&b));
        cm
    });
    g.finish();
}

fn bench_distributed_matmul() {
    let d = MatmulDims::square(128);
    let cfg = MachineConfig::default();
    let mut g = Suite::new("dist_matmul_p8_n128");
    g.bench("summa_2x4", || {
        black_box(run_summa(d, 2, 4, cfg).expect("summa run"))
    });
    g.bench("s25d_2x2_c2", || {
        black_box(run_25d(d, 2, 2, cfg).expect("25d run"))
    });
    g.bench("dns3d_2", || {
        black_box(run_dns3d(d, 2, cfg).expect("dns3d run"))
    });
    g.finish();
}

fn main() {
    bench_local_gemm();
    bench_distributed_matmul();
}
