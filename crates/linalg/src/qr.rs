//! Householder QR factorization, plain and column-pivoted.
//!
//! The plain variant backs least-squares system identification; the
//! column-pivoted variant extracts well-conditioned bases for invariant
//! subspaces in the Riccati sign-function solver.

use crate::{Error, Mat, Result};

/// A Householder QR factorization `A = Q·R`.
///
/// ```
/// use yukta_linalg::{Mat, qr::Qr};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
/// let f = Qr::new(&a);
/// let qr = &f.q() * &f.r();
/// assert!(qr.approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// `Qᵀ`, kept transposed so each reflector updates it row by row.
    qt: Mat,
    r: Mat,
}

impl Qr {
    /// Factors an `m × n` matrix with `m >= n` (thin factorization is not
    /// used; `Q` is full `m × m`).
    ///
    /// Row-oriented like [`PivotedQr::new`]: each reflector's dot products
    /// are summed in ascending row order and applied to `R` and `Qᵀ` row
    /// by row, the same arithmetic as the textbook column loops.
    pub fn new(a: &Mat) -> Self {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut qt = Mat::identity(m);
        let mut v = vec![0.0; m];
        let mut acc = vec![0.0; n.max(m)];
        let rs = r.as_mut_slice();
        let qs = qt.as_mut_slice();
        for k in 0..n.min(m.saturating_sub(1)) {
            // Householder vector for column k.
            let mut norm = 0.0;
            for row in rs.chunks_exact(n).skip(k) {
                norm += row[k] * row[k];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if rs[k * n + k] >= 0.0 { -norm } else { norm };
            for i in k..m {
                v[i] = rs[i * n + k];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R and to Qᵀ, both from the left.
            reflect_rows(&mut rs[k * n..], n, &v[k..], vnorm_sq, &mut acc[..n]);
            reflect_rows(&mut qs[k * m..], m, &v[k..], vnorm_sq, &mut acc[..m]);
        }
        // Zero the strictly-lower part of R that should be exactly zero.
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        Qr { qt, r }
    }

    /// The orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> Mat {
        self.qt.t()
    }

    /// The upper-triangular factor `R` (`m × n`).
    pub fn r(&self) -> Mat {
        self.r.clone()
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` for full-column-rank
    /// `A` via back substitution on `R·x = Qᵀ·b`. Only the first `n` rows
    /// of `Qᵀ·b` enter the back substitution, so only those are formed.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `b` does not conform.
    /// * [`Error::Singular`] if `A` is column-rank-deficient.
    pub fn solve_least_squares(&self, b: &Mat) -> Result<Mat> {
        let (m, n) = self.r.shape();
        if b.rows() != m {
            return Err(Error::DimensionMismatch {
                op: "qr_lstsq",
                lhs: (m, n),
                rhs: b.shape(),
            });
        }
        let qtb = &self.qt.block(0, n, 0, m) * b;
        let mut x = Mat::zeros(n, b.cols());
        for i in (0..n).rev() {
            let d = self.r[(i, i)];
            if d.abs() < 1e-12 * self.r.max_abs().max(1e-30) {
                return Err(Error::Singular { op: "qr_lstsq" });
            }
            for j in 0..b.cols() {
                let mut acc = qtb[(i, j)];
                for k in (i + 1)..n {
                    acc -= self.r[(i, k)] * x[(k, j)];
                }
                x[(i, j)] = acc / d;
            }
        }
        Ok(x)
    }
}

/// Column-pivoted QR: `A·Π = Q·R` with diagonal of `R` non-increasing in
/// magnitude. Used to pick a well-conditioned set of `rank` columns.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    q: Mat,
    r: Mat,
    /// `piv[j]` is the original column index that ended up in position `j`.
    piv: Vec<usize>,
}

impl PivotedQr {
    /// Factors `a` with greedy column pivoting on residual column norms.
    ///
    /// Row-oriented: the residual column norms and the reflector dot
    /// products are accumulated for all columns at once, row by row in
    /// ascending order (the same per-column summation order as a column
    /// loop), and the rank-1 updates are applied row by row. `Q` is built
    /// transposed so its update is row-oriented too.
    pub fn new(a: &Mat) -> Self {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut qt = Mat::identity(m);
        let mut piv: Vec<usize> = (0..n).collect();
        let mut v = vec![0.0; m];
        let mut acc = vec![0.0; n.max(m)];
        let rs = r.as_mut_slice();
        let qs = qt.as_mut_slice();
        let steps = n.min(m);
        for k in 0..steps {
            // Pick the column with the largest residual norm.
            let norms = &mut acc[k..n];
            norms.fill(0.0);
            for row in rs.chunks_exact(n).skip(k) {
                for (s, &x) in norms.iter_mut().zip(&row[k..]) {
                    *s += x * x;
                }
            }
            let mut best_j = k;
            let mut best = -1.0;
            for (j, &norm) in (k..n).zip(norms.iter()) {
                if norm > best {
                    best = norm;
                    best_j = j;
                }
            }
            if best_j != k {
                for row in rs.chunks_exact_mut(n) {
                    row.swap(k, best_j);
                }
                piv.swap(k, best_j);
            }
            if best.sqrt() < 1e-300 {
                break;
            }
            // Householder on column k.
            let norm = best.sqrt();
            let alpha = if rs[k * n + k] >= 0.0 { -norm } else { norm };
            for i in k..m {
                v[i] = rs[i * n + k];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            reflect_rows(&mut rs[k * n..], n, &v[k..], vnorm_sq, &mut acc[..n]);
            reflect_rows(&mut qs[k * m..], m, &v[k..], vnorm_sq, &mut acc[..m]);
        }
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        PivotedQr { q: qt.t(), r, piv }
    }

    /// The orthogonal factor.
    pub fn q(&self) -> &Mat {
        &self.q
    }

    /// The upper-triangular factor (with permuted columns).
    pub fn r(&self) -> &Mat {
        &self.r
    }

    /// The column permutation: position `j` holds original column `piv[j]`.
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// Numerical rank with relative tolerance `tol` on `|R[k,k]| / |R[0,0]|`.
    pub fn rank(&self, tol: f64) -> usize {
        let steps = self.r.rows().min(self.r.cols());
        let r00 = self.r[(0, 0)].abs();
        if r00 < 1e-300 {
            return 0;
        }
        (0..steps)
            .take_while(|&k| self.r[(k, k)].abs() > tol * r00)
            .count()
    }

    /// An orthonormal basis for the column space of the factored matrix:
    /// the first `rank` columns of `Q`.
    pub fn range_basis(&self, rank: usize) -> Mat {
        self.q.block(0, self.q.rows(), 0, rank)
    }
}

/// Applies `H = I − 2·v·vᵀ/(vᵀv)` from the left to the row-major rows
/// `a` (each `width` long, one per entry of `v`). Each column's `vᵀa` is
/// summed in ascending row order into `s`, then every row gets the rank-1
/// update `a[i][j] −= s[j]·v[i]`.
fn reflect_rows(a: &mut [f64], width: usize, v: &[f64], vnorm_sq: f64, s: &mut [f64]) {
    s.fill(0.0);
    for (row, &vi) in a.chunks_exact(width).zip(v) {
        for (dot, &x) in s.iter_mut().zip(row) {
            *dot += vi * x;
        }
    }
    for dot in s.iter_mut() {
        *dot = 2.0 * *dot / vnorm_sq;
    }
    for (row, &vi) in a.chunks_exact_mut(width).zip(v) {
        for (x, &sj) in row.iter_mut().zip(s.iter()) {
            *x -= sj * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthonormal(q: &Mat, tol: f64) -> bool {
        (&q.t() * q).approx_eq(&Mat::identity(q.cols()), tol)
    }

    #[test]
    fn qr_reconstructs() {
        let a = Mat::from_rows(&[
            &[12.0, -51.0, 4.0],
            &[6.0, 167.0, -68.0],
            &[-4.0, 24.0, -41.0],
        ]);
        let f = Qr::new(&a);
        assert!(orthonormal(&f.q(), 1e-12));
        assert!((&f.q() * &f.r()).approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_tall_matrix() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let f = Qr::new(&a);
        assert!((&f.q() * &f.r()).approx_eq(&a, 1e-12));
    }

    #[test]
    fn least_squares_line_fit() {
        // Fit y = 2 + 3x over x = 0..4 exactly.
        let a = Mat::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[1.0, 2.0],
            &[1.0, 3.0],
            &[1.0, 4.0],
        ]);
        let b = Mat::col(&[2.0, 5.0, 8.0, 11.0, 14.0]);
        let x = Qr::new(&a).solve_least_squares(&b).unwrap();
        assert!(x.approx_eq(&Mat::col(&[2.0, 3.0]), 1e-12));
    }

    #[test]
    fn least_squares_overdetermined_residual_orthogonal() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = Mat::col(&[1.0, 2.0, 2.0]);
        let x = Qr::new(&a).solve_least_squares(&b).unwrap();
        let resid = &(&a * &x) - &b;
        // Residual must be orthogonal to the column space.
        let proj = &a.t() * &resid;
        assert!(proj.max_abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_least_squares_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let b = Mat::col(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            Qr::new(&a).solve_least_squares(&b),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn pivoted_qr_rank_detection() {
        // Rank-2 matrix of size 4x4.
        let u = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[3.0, -1.0], &[0.5, 2.0]]);
        let v = Mat::from_rows(&[&[1.0, 1.0, 0.0, 2.0], &[0.0, 1.0, 1.0, -1.0]]);
        let a = &u * &v;
        let f = PivotedQr::new(&a);
        assert_eq!(f.rank(1e-10), 2);
        // Basis reconstructs the column space: A = Q1 Q1ᵀ A.
        let q1 = f.range_basis(2);
        let proj = &(&q1 * &q1.t()) * &a;
        assert!(proj.approx_eq(&a, 1e-10));
    }

    #[test]
    fn pivoted_qr_full_rank() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let f = PivotedQr::new(&a);
        assert_eq!(f.rank(1e-12), 2);
        assert!(orthonormal(f.q(), 1e-12));
    }

    #[test]
    fn pivoted_qr_zero_matrix() {
        let a = Mat::zeros(3, 3);
        let f = PivotedQr::new(&a);
        assert_eq!(f.rank(1e-12), 0);
    }
}
