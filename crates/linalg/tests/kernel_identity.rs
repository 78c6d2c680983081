//! Bit-identity of the dense kernels under the Riccati solver.
//!
//! `Lu` (factor, solve, inverse, determinant), `matrix_sign`, `Qr` and
//! `PivotedQr::new` run on contiguous rows, share one factorization per
//! Newton step, skip the structural zeros of the inverse and form only
//! the rows of `Qᵀ·b` a least-squares solve reads. This file keeps
//! the textbook loops they replaced as references and requires every output
//! to match them with `to_bits` (any NaN counting as one pattern): on
//! random sizes 1–100, under forced row swaps, exact-zero multipliers,
//! singular input and non-finite entries.
//! The suite runs under every `YUKTA_SIMD` policy, so it also pins the AVX2
//! row update to the scalar rounding.

use yukta_linalg::lu::Lu;
use yukta_linalg::qr::{PivotedQr, Qr};
use yukta_linalg::sign::matrix_sign;
use yukta_linalg::{Error, Mat, Result};

/// Reference kernels: the element-indexed loops, one LU per use.
mod reference {
    use super::*;

    pub struct Lu {
        lu: Mat,
        perm: Vec<usize>,
        sign: f64,
    }

    impl Lu {
        pub fn new(a: &Mat) -> Result<Self> {
            let n = a.rows();
            let mut lu = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut sign = 1.0;
            for k in 0..n {
                let mut p = k;
                let mut best = lu[(k, k)].abs();
                for i in (k + 1)..n {
                    let v = lu[(i, k)].abs();
                    if v > best {
                        best = v;
                        p = i;
                    }
                }
                if best < 1e-300 {
                    return Err(Error::Singular { op: "lu" });
                }
                if p != k {
                    for j in 0..n {
                        let t = lu[(k, j)];
                        lu[(k, j)] = lu[(p, j)];
                        lu[(p, j)] = t;
                    }
                    perm.swap(k, p);
                    sign = -sign;
                }
                let pivot = lu[(k, k)];
                for i in (k + 1)..n {
                    let factor = lu[(i, k)] / pivot;
                    lu[(i, k)] = factor;
                    if factor == 0.0 {
                        continue;
                    }
                    for j in (k + 1)..n {
                        lu[(i, j)] -= factor * lu[(k, j)];
                    }
                }
            }
            Ok(Lu { lu, perm, sign })
        }

        pub fn solve(&self, b: &Mat) -> Mat {
            let n = self.lu.rows();
            let m = b.cols();
            let mut x = Mat::zeros(n, m);
            for i in 0..n {
                for j in 0..m {
                    x[(i, j)] = b[(self.perm[i], j)];
                }
            }
            for i in 0..n {
                for k in 0..i {
                    let lik = self.lu[(i, k)];
                    if lik == 0.0 {
                        continue;
                    }
                    for j in 0..m {
                        let v = x[(k, j)];
                        x[(i, j)] -= lik * v;
                    }
                }
            }
            for i in (0..n).rev() {
                for k in (i + 1)..n {
                    let uik = self.lu[(i, k)];
                    if uik == 0.0 {
                        continue;
                    }
                    for j in 0..m {
                        let v = x[(k, j)];
                        x[(i, j)] -= uik * v;
                    }
                }
                let d = self.lu[(i, i)];
                for j in 0..m {
                    x[(i, j)] /= d;
                }
            }
            x
        }

        pub fn det(&self) -> f64 {
            let mut d = self.sign;
            for i in 0..self.lu.rows() {
                d *= self.lu[(i, i)];
            }
            d
        }

        pub fn inverse(&self) -> Mat {
            self.solve(&Mat::identity(self.lu.rows()))
        }
    }

    fn det(a: &Mat) -> f64 {
        match Lu::new(a) {
            Ok(f) => f.det(),
            Err(_) => 0.0,
        }
    }

    /// Newton iteration with one LU for the inverse and another for the
    /// determinant, and separately allocated scale/add/sub/norm passes.
    pub fn matrix_sign(a: &Mat) -> Result<Mat> {
        let n = a.rows();
        let mut z = a.clone();
        let max_iters = 100;
        for iter in 0..max_iters {
            let zinv = Lu::new(&z)
                .map(|f| f.inverse())
                .map_err(|_| Error::Singular { op: "matrix_sign" })?;
            let det = det(&z).abs();
            let c = if det > 1e-300 && det.is_finite() {
                det.powf(-1.0 / n as f64)
            } else {
                1.0
            };
            let znext = &z.scale(c * 0.5) + &zinv.scale(0.5 / c);
            let delta = (&znext - &z).fro_norm();
            let scale = znext.fro_norm().max(1e-300);
            z = znext;
            if !z.is_finite() {
                return Err(Error::NoConvergence {
                    op: "matrix_sign",
                    iters: iter,
                });
            }
            if delta <= 1e-13 * scale {
                return Ok(z);
            }
        }
        Err(Error::NoConvergence {
            op: "matrix_sign",
            iters: max_iters,
        })
    }

    /// Column-oriented Householder QR with `Q` accumulated from the
    /// right: `(Q, R)`.
    pub fn qr(a: &Mat) -> (Mat, Mat) {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut q = Mat::identity(m);
        for k in 0..n.min(m.saturating_sub(1)) {
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            for i in k..m {
                v[i] = r[(i, k)];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r[(i, j)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    r[(i, j)] -= s * v[i];
                }
            }
            for j in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * q[(j, i)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    q[(j, i)] -= s * v[i];
                }
            }
        }
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        (q, r)
    }

    /// Least squares by back substitution on `R·x = Qᵀ·b`, all `m` rows
    /// of `Qᵀ·b` formed.
    pub fn solve_least_squares(q: &Mat, r: &Mat, b: &Mat) -> Result<Mat> {
        let n = r.cols();
        let qtb = &q.t() * b;
        let mut x = Mat::zeros(n, b.cols());
        for i in (0..n).rev() {
            let d = r[(i, i)];
            if d.abs() < 1e-12 * r.max_abs().max(1e-30) {
                return Err(Error::Singular { op: "qr_lstsq" });
            }
            for j in 0..b.cols() {
                let mut acc = qtb[(i, j)];
                for k in (i + 1)..n {
                    acc -= r[(i, k)] * x[(k, j)];
                }
                x[(i, j)] = acc / d;
            }
        }
        Ok(x)
    }

    /// Column-oriented column-pivoted Householder QR: `(Q, R, pivots)`.
    pub fn pivoted_qr(a: &Mat) -> (Mat, Mat, Vec<usize>) {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut q = Mat::identity(m);
        let mut piv: Vec<usize> = (0..n).collect();
        let steps = n.min(m);
        for k in 0..steps {
            let mut best_j = k;
            let mut best = -1.0;
            for j in k..n {
                let norm: f64 = (k..m).map(|i| r[(i, j)] * r[(i, j)]).sum();
                if norm > best {
                    best = norm;
                    best_j = j;
                }
            }
            if best_j != k {
                for i in 0..m {
                    let t = r[(i, k)];
                    r[(i, k)] = r[(i, best_j)];
                    r[(i, best_j)] = t;
                }
                piv.swap(k, best_j);
            }
            if best.sqrt() < 1e-300 {
                break;
            }
            let norm = best.sqrt();
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            for i in k..m {
                v[i] = r[(i, k)];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r[(i, j)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    r[(i, j)] -= s * v[i];
                }
            }
            for j in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * q[(j, i)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    q[(j, i)] -= s * v[i];
                }
            }
        }
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        (q, r, piv)
    }
}

/// SplitMix64: deterministic inputs without a dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn mat(&mut self, rows: usize, cols: usize) -> Mat {
        Mat::from_vec(rows, cols, (0..rows * cols).map(|_| self.unit()).collect())
    }
}

/// The bit patterns of `a`'s entries. Rust leaves the sign and payload of
/// a NaN produced by arithmetic unspecified (the optimizer may commute the
/// operands of an add or multiply), so every NaN maps to one pattern.
fn bits(a: &Mat) -> Vec<u64> {
    a.as_slice().iter().map(|&v| canonical(v)).collect()
}

fn canonical(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// `Ok` payloads compared bit for bit; errors compared by kind.
fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: Result<T>, want: Result<T>) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert!(g == w, "{what}: outputs differ in their bits"),
        (Err(g), Err(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}"),
        (g, w) => panic!("{what}: got {:?}, want {:?}", g.is_ok(), w.is_ok()),
    }
}

/// Factor, determinant, solve against a multi-column right-hand side,
/// `Mat::solve`/`inverse`/`det`, all against the reference.
fn check_lu(what: &str, a: &Mat, rng: &mut Rng) {
    let n = a.rows();
    let m = 1 + rng.below(3);
    let b = rng.mat(n, m);
    let got = Lu::new(a);
    let want = reference::Lu::new(a);
    match (&got, &want) {
        (Ok(f), Ok(r)) => {
            assert_eq!(canonical(f.det()), canonical(r.det()), "{what}: det");
            assert!(
                bits(&f.solve(&b).unwrap()) == bits(&r.solve(&b)),
                "{what}: solve"
            );
            assert!(
                bits(&f.inverse().unwrap()) == bits(&r.inverse()),
                "{what}: inverse"
            );
        }
        (Err(Error::Singular { .. }), Err(Error::Singular { .. })) => {
            assert_eq!(a.det().unwrap(), 0.0, "{what}: singular det");
            assert!(matches!(a.inverse(), Err(Error::Singular { .. })));
        }
        (g, w) => panic!("{what}: got ok={}, want ok={}", g.is_ok(), w.is_ok()),
    }
}

fn check_sign(what: &str, a: &Mat) {
    same(
        what,
        matrix_sign(a).map(|s| bits(&s)),
        reference::matrix_sign(a).map(|s| bits(&s)),
    );
}

fn check_qr(what: &str, a: &Mat) {
    let f = PivotedQr::new(a);
    let (q, r, piv) = reference::pivoted_qr(a);
    assert!(bits(f.q()) == bits(&q), "{what}: Q");
    assert!(bits(f.r()) == bits(&r), "{what}: R");
    assert_eq!(f.pivots(), &piv[..], "{what}: pivots");
}

/// `Qr`'s factors and a least-squares solve against `rhs` columns of
/// right-hand side, against the column-walking reference.
fn check_plain_qr(what: &str, a: &Mat, rhs: usize, rng: &mut Rng) {
    let f = Qr::new(a);
    let (q, r) = reference::qr(a);
    assert!(bits(&f.q()) == bits(&q), "{what}: Q");
    assert!(bits(&f.r()) == bits(&r), "{what}: R");
    let b = rng.mat(a.rows(), rhs);
    same(
        what,
        f.solve_least_squares(&b).map(|x| bits(&x)),
        reference::solve_least_squares(&q, &r, &b).map(|x| bits(&x)),
    );
}

/// Replaces about one entry in `1/every` with an exact zero.
fn sparsify(a: &mut Mat, every: usize, rng: &mut Rng) {
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            if rng.below(every) == 0 {
                a[(i, j)] = 0.0;
            }
        }
    }
}

#[test]
fn lu_matches_reference_on_random_sizes() {
    let mut rng = Rng(0x1u64);
    for n in (1..=100).step_by(3).chain([2, 4, 64, 99, 100]) {
        let a = rng.mat(n, n);
        check_lu(&format!("dense n={n}"), &a, &mut rng);
    }
}

#[test]
fn lu_matches_reference_with_forced_row_swaps() {
    let mut rng = Rng(0x2u64);
    for n in [2, 3, 7, 16, 33, 80] {
        // A small diagonal and a row-reversed dominant anti-diagonal: every
        // step swaps rows.
        let mut a = rng.mat(n, n);
        for i in 0..n {
            a[(i, i)] *= 1e-3;
            a[(i, n - 1 - i)] = 10.0 + i as f64;
        }
        check_lu(&format!("anti-diagonal n={n}"), &a, &mut rng);
        // A zero leading pivot.
        let mut b = rng.mat(n, n);
        b[(0, 0)] = 0.0;
        check_lu(&format!("zero pivot n={n}"), &b, &mut rng);
    }
}

#[test]
fn lu_matches_reference_with_exact_zero_multipliers() {
    let mut rng = Rng(0x3u64);
    for n in [1, 5, 12, 31, 57, 100] {
        for every in [2, 4] {
            let mut a = rng.mat(n, n);
            sparsify(&mut a, every, &mut rng);
            for i in 0..n {
                a[(i, i)] += 4.0;
            }
            check_lu(&format!("sparse 1/{every} n={n}"), &a, &mut rng);
        }
        // Block-triangular: whole columns of zero multipliers.
        let mut t = rng.mat(n, n);
        for i in 0..n {
            for j in 0..i.min(n / 2) {
                t[(i, j)] = 0.0;
            }
        }
        check_lu(&format!("triangular n={n}"), &t, &mut rng);
    }
}

#[test]
fn singular_input_is_rejected_by_both() {
    let mut rng = Rng(0x4u64);
    for n in [2, 6, 25, 70] {
        let mut zero_col = rng.mat(n, n);
        for i in 0..n {
            zero_col[(i, n / 2)] = 0.0;
        }
        let mut dup = rng.mat(n, n);
        for j in 0..n {
            dup[(n - 1, j)] = dup[(0, j)];
        }
        for (kind, a) in [("zero column", zero_col), ("repeated row", dup)] {
            assert!(matches!(Lu::new(&a), Err(Error::Singular { .. })), "{kind}");
            check_lu(&format!("{kind} n={n}"), &a, &mut rng);
        }
    }
    assert!(matches!(
        Lu::new(&Mat::zeros(3, 3)),
        Err(Error::Singular { .. })
    ));
}

#[test]
fn lu_matches_reference_with_non_finite_entries() {
    let mut rng = Rng(0x5u64);
    for n in [1, 2, 5, 9, 20, 47] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for _ in 0..3 {
                let mut a = rng.mat(n, n);
                let (i, j) = (rng.below(n), rng.below(n));
                a[(i, j)] = bad;
                check_lu(&format!("{bad} at ({i},{j}) n={n}"), &a, &mut rng);
            }
        }
    }
}

#[test]
fn matrix_sign_matches_two_lu_reference() {
    let mut rng = Rng(0x6u64);
    // Random (generically no imaginary-axis eigenvalue) and shifted inputs.
    for n in [1, 2, 3, 8, 17, 30, 45] {
        let a = rng.mat(n, n);
        check_sign(&format!("random n={n}"), &a);
        let mut s = rng.mat(n, n);
        for i in 0..n {
            s[(i, i)] += if i % 2 == 0 { 3.0 } else { -3.0 };
        }
        check_sign(&format!("split n={n}"), &s);
    }
    // A Hamiltonian [A, -BBᵀ; -CᵀC, -Aᵀ], as the Riccati solver builds.
    let k = 36;
    let a = rng.mat(k, k);
    let b = rng.mat(k, 2);
    let c = rng.mat(3, k);
    let h = Mat::block2x2(
        &a,
        &(&b * &b.t()).scale(-1.0),
        &(&c.t() * &c).scale(-1.0),
        &a.t().scale(-1.0),
    )
    .unwrap();
    check_sign("hamiltonian n=72", &h);
    // Failures must fail the same way.
    check_sign("rotation", &Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]));
    check_sign("zero", &Mat::zeros(4, 4));
    let mut nan = rng.mat(5, 5);
    nan[(2, 3)] = f64::NAN;
    check_sign("nan", &nan);
}

#[test]
fn pivoted_qr_matches_reference() {
    let mut rng = Rng(0x7u64);
    for (m, n) in [
        (1, 1),
        (2, 5),
        (5, 2),
        (9, 9),
        (40, 12),
        (12, 40),
        (72, 36),
        (100, 100),
    ] {
        let a = rng.mat(m, n);
        check_qr(&format!("dense {m}x{n}"), &a);
        // Rank-deficient with an exactly zero column and exact zeros.
        let r = 1 + m.min(n) / 3;
        let (u, w) = (rng.mat(m, r), rng.mat(r, n));
        let mut low = &u * &w;
        sparsify(&mut low, 5, &mut rng);
        for i in 0..m {
            low[(i, n - 1)] = 0.0;
        }
        check_qr(&format!("rank {r} {m}x{n}"), &low);
    }
    check_qr("zero", &Mat::zeros(6, 4));
    let mut bad = rng.mat(7, 5);
    bad[(3, 1)] = f64::INFINITY;
    bad[(5, 4)] = f64::NAN;
    check_qr("non-finite", &bad);
}

#[test]
fn plain_qr_and_least_squares_match_reference() {
    let mut rng = Rng(0x8u64);
    for (m, n) in [
        (1, 1),
        (2, 1),
        (5, 2),
        (9, 9),
        (40, 12),
        (100, 7),
        (130, 64),
    ] {
        let a = rng.mat(m, n);
        check_plain_qr(&format!("dense {m}x{n}"), &a, 1 + rng.below(3), &mut rng);
        let mut sparse = rng.mat(m, n);
        sparsify(&mut sparse, 3, &mut rng);
        check_plain_qr(&format!("sparse {m}x{n}"), &sparse, 2, &mut rng);
    }
    // The system-identification shape: an ARX regressor stacked on its
    // ridge rows √λ·I, one right-hand-side column per output.
    let (rows, k) = (704, 36);
    let phi = rng.mat(rows, k);
    let ridge = Mat::identity(k).scale(1e-3f64.sqrt());
    let stacked = Mat::vstack(&phi, &ridge).unwrap();
    check_plain_qr("ridge-stacked 740x36", &stacked, 3, &mut rng);
    // Rank-deficient regressors: both sides must refuse them.
    for (m, n) in [(3, 2), (20, 6), (90, 30)] {
        let mut dup = rng.mat(m, n);
        let mut zero = rng.mat(m, n);
        for i in 0..m {
            dup[(i, n - 1)] = dup[(i, 0)];
            zero[(i, n / 2)] = 0.0;
        }
        for (kind, a) in [("repeated column", dup), ("zero column", zero)] {
            let b = rng.mat(m, 2);
            let got = Qr::new(&a).solve_least_squares(&b);
            assert!(matches!(got, Err(Error::Singular { .. })), "{kind} {m}x{n}");
            check_plain_qr(&format!("{kind} {m}x{n}"), &a, 2, &mut rng);
        }
    }
}
