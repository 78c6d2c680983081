//! The matrix sign function.
//!
//! `sign(A)` is computed by the scaled Newton iteration
//! `Z ← (c·Z + (c·Z)⁻¹)/2` with determinant scaling. Its key property:
//! `(I − sign(H))/2` projects onto the stable invariant subspace of `H`,
//! which is exactly what the continuous Riccati solver needs.

use crate::lu::Lu;
use crate::{Error, Mat, Result};

/// Computes the matrix sign function of a square matrix with no eigenvalues
/// on the imaginary axis.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if not square.
/// * [`Error::Singular`] if an iterate becomes singular (eigenvalues on the
///   imaginary axis).
/// * [`Error::NoConvergence`] if the Newton iteration stalls.
///
/// # Examples
///
/// ```
/// use yukta_linalg::{Mat, sign::matrix_sign};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::diag(&[-2.0, 3.0]);
/// let s = matrix_sign(&a)?;
/// assert!(s.approx_eq(&Mat::diag(&[-1.0, 1.0]), 1e-10));
/// # Ok(())
/// # }
/// ```
pub fn matrix_sign(a: &Mat) -> Result<Mat> {
    if !a.is_square() {
        return Err(Error::DimensionMismatch {
            op: "matrix_sign",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    let mut z = a.clone();
    let mut znext = Mat::zeros(n, n);
    let max_iters = 100;
    let singular = |_| Error::Singular { op: "matrix_sign" };
    for iter in 0..max_iters {
        // One factorization per step serves both the inverse and the
        // determinant.
        let lu = Lu::new(&z).map_err(singular)?;
        let zinv = lu.inverse().map_err(singular)?;
        // Determinant scaling accelerates convergence: c = |det Z|^(-1/n).
        let det = lu.det().abs();
        let c = if det > 1e-300 && det.is_finite() {
            det.powf(-1.0 / n as f64)
        } else {
            1.0
        };
        // Z⁺ = (c/2)·Z + (1/(2c))·Z⁻¹, with ‖Z⁺ − Z‖_F and ‖Z⁺‖_F summed
        // in the same pass and the same entry order.
        let (sz, sinv) = (c * 0.5, 0.5 / c);
        let mut delta_sq = 0.0;
        let mut norm_sq = 0.0;
        let entries = z.as_slice().iter().zip(zinv.as_slice());
        for (next, (&zv, &iv)) in znext.as_mut_slice().iter_mut().zip(entries) {
            *next = zv * sz + iv * sinv;
            let d = *next - zv;
            delta_sq += d * d;
            norm_sq += *next * *next;
        }
        let delta = f64::sqrt(delta_sq);
        let scale = f64::sqrt(norm_sq).max(1e-300);
        std::mem::swap(&mut z, &mut znext);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_is_involutory() {
        // sign(A)^2 = I for any valid input.
        let a = Mat::from_rows(&[&[-3.0, 1.0, 0.0], &[0.0, 2.0, 0.5], &[0.0, 0.0, -1.0]]);
        let s = matrix_sign(&a).unwrap();
        assert!((&s * &s).approx_eq(&Mat::identity(3), 1e-9));
    }

    #[test]
    fn sign_commutes_with_input() {
        let a = Mat::from_rows(&[&[-3.0, 1.0], &[0.5, 2.0]]);
        let s = matrix_sign(&a).unwrap();
        let lhs = &a * &s;
        let rhs = &s * &a;
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn all_stable_gives_minus_identity() {
        let a = Mat::from_rows(&[&[-1.0, 10.0], &[0.0, -4.0]]);
        let s = matrix_sign(&a).unwrap();
        assert!(s.approx_eq(&(-&Mat::identity(2)), 1e-9));
    }

    #[test]
    fn all_antistable_gives_identity() {
        let a = Mat::from_rows(&[&[2.0, -1.0], &[0.3, 1.0]]);
        let s = matrix_sign(&a).unwrap();
        assert!(s.approx_eq(&Mat::identity(2), 1e-9));
    }

    #[test]
    fn mixed_spectrum_projector_rank() {
        // One stable, one antistable eigenvalue → (I − S)/2 has trace 1.
        let a = Mat::from_rows(&[&[-2.0, 1.0], &[0.0, 3.0]]);
        let s = matrix_sign(&a).unwrap();
        let p = (&Mat::identity(2) - &s).scale(0.5);
        assert!((p.trace() - 1.0).abs() < 1e-9);
        // Projector: P² = P.
        assert!((&p * &p).approx_eq(&p, 1e-8));
    }

    #[test]
    fn imaginary_axis_eigenvalue_fails() {
        // Pure rotation has eigenvalues ±i → sign undefined.
        let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        assert!(matrix_sign(&a).is_err());
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            matrix_sign(&Mat::zeros(2, 3)),
            Err(Error::DimensionMismatch { .. })
        ));
    }
}
