//! LU factorization with partial pivoting, and the solve/inverse/determinant
//! operations built on it.
//!
//! These are the only dense direct solvers in the stack; everything from
//! Riccati doubling to frequency responses funnels through them.
//!
//! Every kernel here works on contiguous rows and reduces to one unfused
//! row update, `dst[j] -= a * src[j]` (`sub_scaled`). Its AVX2 copy is the
//! same loop body compiled for wider vectors, with no FMA, so every
//! [`crate::simd::SimdPolicy`] produces the same bits.

use crate::simd::{self, SimdPath};
use crate::{Error, Mat, Result};

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// ```
/// use yukta_linalg::{Mat, lu::Lu};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
/// let f = Lu::new(&a)?;
/// let x = f.solve(&Mat::col(&[2.0, 3.0]))?;
/// assert!((x[(0, 0)] - 2.0).abs() < 1e-12);
/// assert!((x[(1, 0)] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: unit-lower-triangular L below the diagonal, U on
    /// and above it.
    lu: Mat,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of
    /// the original.
    perm: Vec<usize>,
    /// Sign of the permutation, used by the determinant.
    sign: f64,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `a` is not square.
    /// * [`Error::Singular`] if a pivot underflows.
    pub fn new(a: &Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::DimensionMismatch {
                op: "lu",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        let path = simd::global_path();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let data = lu.as_mut_slice();
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut p = k;
            let mut best = data[k * n + k].abs();
            for i in (k + 1)..n {
                let v = data[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(Error::Singular { op: "lu" });
            }
            if p != k {
                let (top, bottom) = data.split_at_mut(p * n);
                top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
                perm.swap(k, p);
                sign = -sign;
            }
            let (upper, lower) = data.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            let pivot = row_k[k];
            for row_i in lower.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                sub_scaled(path, &mut row_i[k + 1..], &row_k[k + 1..], factor);
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·X = B` for (possibly multi-column) `B`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `B` has the wrong row count.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let path = simd::global_path();
        let m = b.cols();
        let mut x = Mat::zeros(n, m);
        let xs = x.as_mut_slice();
        let bs = b.as_slice();
        // Apply permutation.
        for (i, &p) in self.perm.iter().enumerate() {
            xs[i * m..(i + 1) * m].copy_from_slice(&bs[p * m..(p + 1) * m]);
        }
        self.forward(path, xs, m, false);
        self.backward(path, xs, m);
        Ok(x)
    }

    /// Forward substitution with unit-lower L, in place on the row-major
    /// `n × m` matrix `x`. With `triangular` set, `x` must start as the
    /// identity: row `k` then stays zero past column `k`, so the update of
    /// a later row by row `k` only touches columns `0..=k`.
    fn forward(&self, path: SimdPath, x: &mut [f64], m: usize, triangular: bool) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        for i in 0..n {
            let (done, rest) = x.split_at_mut(i * m);
            let x_i = &mut rest[..m];
            for (k, &lik) in lu[i * n..i * n + i].iter().enumerate() {
                if lik == 0.0 {
                    continue;
                }
                let w = if triangular { k + 1 } else { m };
                sub_scaled(path, &mut x_i[..w], &done[k * m..k * m + w], lik);
            }
        }
    }

    /// Back substitution with U, in place on the row-major `n × m` matrix
    /// `x`.
    fn backward(&self, path: SimdPath, x: &mut [f64], m: usize) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut((i + 1) * m);
            let x_i = &mut head[i * m..];
            for (k, &uik) in lu[i * n + i + 1..(i + 1) * n].iter().enumerate() {
                if uik == 0.0 {
                    continue;
                }
                sub_scaled(path, x_i, &solved[k * m..(k + 1) * m], uik);
            }
            let d = lu[i * n + i];
            for v in x_i {
                *v /= d;
            }
        }
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the factored matrix.
    ///
    /// Bit-identical to `solve(&Mat::identity(n))`, at about two thirds of
    /// the work. With its columns in pivot order, `P·I` is the identity, so
    /// forward substitution builds the unit-lower-triangular `L⁻¹` and skips
    /// the columns it leaves exactly zero. Back substitution runs on full
    /// rows, and the columns are then scattered back through `perm`.
    ///
    /// # Errors
    ///
    /// Propagates solve failures (should not occur once factored).
    pub fn inverse(&self) -> Result<Mat> {
        let n = self.dim();
        let path = simd::global_path();
        let mut y = Mat::identity(n);
        let ys = y.as_mut_slice();
        self.forward(path, ys, n, true);
        self.backward(path, ys, n);
        let mut inv = Mat::zeros(n, n);
        let out = inv.as_mut_slice();
        for r in 0..n {
            for (c, &p) in self.perm.iter().enumerate() {
                out[r * n + p] = ys[r * n + c];
            }
        }
        Ok(inv)
    }
}

/// The one row update of every LU kernel: `dst[j] -= a * src[j]`, over
/// `dst.len()` entries, a multiply then a subtract (never fused). The
/// [`SimdPath::Avx2Fma`] path runs the same loop body compiled for AVX2 and
/// rounds identically.
#[inline]
fn sub_scaled(path: SimdPath, dst: &mut [f64], src: &[f64], a: f64) {
    match path {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2Fma => {
            // SAFETY: global_path() only reports Avx2Fma when runtime
            // detection confirmed AVX2 (and FMA) on this host.
            unsafe { sub_scaled_avx2(dst, src, a) }
        }
        _ => sub_scaled_body(dst, src, a),
    }
}

#[inline(always)]
fn sub_scaled_body(dst: &mut [f64], src: &[f64], a: f64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d -= a * s;
    }
}

/// [`sub_scaled_body`] compiled with AVX2 enabled (4-lane multiply, then
/// 4-lane subtract).
///
/// # Safety
///
/// Caller must guarantee the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sub_scaled_avx2(dst: &mut [f64], src: &[f64], a: f64) {
    sub_scaled_body(dst, src, a);
}

impl Mat {
    /// Solves `self · X = b` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `self` is not square or `b` does
    ///   not conform.
    /// * [`Error::Singular`] if `self` is singular.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        Lu::new(self)?.solve(b)
    }

    /// Matrix inverse via LU.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if not invertible.
    pub fn inverse(&self) -> Result<Mat> {
        Lu::new(self)?.inverse()
    }

    /// Determinant via LU. Returns `0.0` for singular matrices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if not square.
    pub fn det(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(Error::DimensionMismatch {
                op: "det",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        match Lu::new(self) {
            Ok(f) => Ok(f.det()),
            Err(Error::Singular { .. }) => Ok(0.0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let x_true = Mat::col(&[1.0, -2.0, 3.0]);
        let b = &a * &x_true;
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Mat::col(&[3.0, 4.0]);
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&Mat::col(&[4.0, 3.0]), 1e-14));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Mat::from_rows(&[&[3.0, 0.5, -1.0], &[0.2, 2.0, 0.1], &[-0.4, 0.3, 1.5]]);
        let inv = a.inverse().unwrap();
        assert!((&a * &inv).approx_eq(&Mat::identity(3), 1e-12));
        assert!((&inv * &a).approx_eq(&Mat::identity(3), 1e-12));
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.det().unwrap() - (-2.0)).abs() < 1e-14);
        // Permutation sign: swapping rows negates determinant.
        let b = Mat::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]);
        assert!((b.det().unwrap() - 2.0).abs() < 1e-14);
    }

    #[test]
    fn determinant_of_singular_is_zero() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.det().unwrap(), 0.0);
    }

    #[test]
    fn singular_solve_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.solve(&Mat::col(&[1.0, 1.0])),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            a.solve(&Mat::col(&[1.0, 1.0])),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(a.det().is_err());
    }

    #[test]
    fn multi_rhs_solve() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = a.solve(&b).unwrap();
        assert!((&a * &x).approx_eq(&Mat::identity(2), 1e-13));
    }

    #[test]
    fn hilbert_solve_moderate_accuracy() {
        // 6x6 Hilbert matrix: classic ill-conditioned test.
        let n = 6;
        let mut h = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let x_true = Mat::col(&vec![1.0; n]);
        let b = &h * &x_true;
        let x = h.solve(&b).unwrap();
        // cond(H6) ~ 1.5e7, so expect ~1e-9 accuracy.
        assert!(x.approx_eq(&x_true, 1e-6));
    }
}
