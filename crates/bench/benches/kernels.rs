//! Criterion microbenchmarks for the numerical kernels under every
//! experiment: the controller step (the paper's Section VI-D latency), the
//! board simulation step, and the heavy synthesis kernels (DARE, H∞,
//! µ upper bound, system identification).

use criterion::{Criterion, black_box, criterion_group, criterion_main};
use yukta_board::{Actuation, Board, BoardConfig, Placement, ThreadLoad};
use yukta_control::dk::{DkOptions, synthesize_ssv};
use yukta_control::mu::{MuBlock, mu_upper_bound};
use yukta_control::plant::SsvSpec;
use yukta_control::runtime::ObsAwController;
use yukta_control::ss::StateSpace;
use yukta_control::sysid::{SysIdConfig, fit_arx};
use yukta_linalg::riccati::dare;
use yukta_linalg::{C64, CMat, Mat};

/// A stable pseudo-random n×n matrix with spectral radius < 1.
fn stable_matrix(n: usize, seed: u64) -> Mat {
    let mut m = Mat::zeros(n, n);
    let mut s = seed;
    for i in 0..n {
        for j in 0..n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m[(i, j)] = (((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.4 / n as f64 * 4.0;
        }
    }
    m
}

fn bench_controller_step(c: &mut Criterion) {
    // A controller with the paper's dimensions: N=20 states, 7
    // measurements, 4 outputs (plus the applied-input port).
    let n = 20;
    let a = stable_matrix(n, 7);
    let b = Mat::filled(n, 7 + 4, 0.01);
    let cm = Mat::filled(4, n, 0.01);
    let d = Mat::zeros(4, 11);
    let sys = StateSpace::new(a, b, cm, d, Some(0.5)).unwrap();
    let mut rt = ObsAwController::new(&sys);
    let meas = vec![0.1; 7];
    let ident = |u: &[f64]| u.to_vec();
    c.bench_function("controller_step_n20", |bch| {
        bch.iter(|| {
            let (cmd, _) = rt.step(black_box(&meas), &ident).unwrap();
            black_box(cmd)
        })
    });
}

fn bench_board_step(c: &mut Criterion) {
    let mut board = Board::new(BoardConfig::odroid_xu3());
    board.actuate(&Actuation {
        f_big: Some(1.4),
        f_little: Some(0.9),
        placement: Some(Placement {
            threads_big: 5,
            packing_big: 1.5,
            packing_little: 1.0,
        }),
        ..Default::default()
    });
    let loads = vec![ThreadLoad::nominal(); 8];
    c.bench_function("board_step_10ms", |bch| {
        bch.iter(|| black_box(board.step(black_box(&loads)).p_big))
    });
}

fn bench_dare(c: &mut Criterion) {
    let n = 12;
    let a = stable_matrix(n, 3).scale(2.0); // mildly unstable
    let b = Mat::identity(n);
    let q = Mat::identity(n);
    let r = Mat::identity(n);
    c.bench_function("dare_12x12", |bch| {
        bch.iter(|| dare(black_box(&a), &b, &q, &r).unwrap())
    });
}

fn bench_mu(c: &mut Criterion) {
    let n = 8;
    let mut m = CMat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m.set(
                i,
                j,
                C64::new(
                    0.3 * (i as f64 - j as f64).sin(),
                    0.1 * (i + j) as f64 % 1.0,
                ),
            );
        }
    }
    let blocks = [MuBlock { n_out: 3, n_in: 3 }, MuBlock { n_out: 5, n_in: 5 }];
    c.bench_function("mu_upper_bound_8x8", |bch| {
        bch.iter(|| mu_upper_bound(black_box(&m), &blocks).unwrap())
    });
}

fn bench_sysid(c: &mut Criterion) {
    // 600 samples of a 2-in 2-out system.
    let mut u = Vec::new();
    let mut y = vec![vec![0.0, 0.0]];
    let (mut y1, mut y2) = (0.0f64, 0.0f64);
    let mut s = 5u64;
    for _ in 0..600 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let u1 = ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let u2 = ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        u.push(vec![u1, u2]);
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let noise1 = (((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.02;
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let noise2 = (((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.02;
        // Independent per-output noise keeps the over-parameterized
        // ARX(2,2) regressor full rank on this exactly-first-order
        // synthetic system (any noise-free lag relation is exact
        // collinearity).
        let n1 = 0.6 * y1 + 0.3 * u1 + 0.1 * u2 + noise1;
        let n2 = 0.5 * y2 + 0.2 * u1 + noise2;
        y1 = n1;
        y2 = n2;
        y.push(vec![y1, y2]);
    }
    y.pop();
    let cfg = SysIdConfig {
        na: 2,
        nb: 2,
        nc: 0,
        plr_iters: 0,
        ridge: 0.0,
    };
    c.bench_function("sysid_arx_600x2x2", |bch| {
        bch.iter(|| fit_arx(black_box(&u), black_box(&y), cfg).unwrap())
    });
}

fn bench_ssv_synthesis(c: &mut Criterion) {
    // A small synthesis end to end (1 output, 1 input, 1 external).
    let model = StateSpace::new(
        Mat::filled(1, 1, 0.6),
        Mat::from_rows(&[&[0.4, 0.1]]),
        Mat::identity(1),
        Mat::zeros(1, 2),
        Some(0.5),
    )
    .unwrap();
    let spec = SsvSpec::new(0.5, 1, 1, 1);
    let opts = DkOptions {
        max_iters: 1,
        gamma_iters: 8,
        n_freq: 15,
        ..DkOptions::default()
    };
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("ssv_synthesis_small", |bch| {
        bch.iter(|| synthesize_ssv(black_box(&model), &spec, opts).unwrap())
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_controller_step,
    bench_board_step,
    bench_dare,
    bench_mu,
    bench_sysid,
    bench_ssv_synthesis
);
criterion_main!(kernels);
