//! Dense LU factorisation with partial pivoting.

use crate::error::NumError;
use crate::matrix::DMat;

/// LU factorisation with partial (row) pivoting, `P·A = L·U`.
///
/// This is the reference direct solver used for small circuit Jacobians
/// and as the ground truth the sparse solver is validated against.
///
/// # Example
///
/// ```
/// use numkit::{DMat, DenseLu};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let a = DMat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = DenseLu::factor(&a)?;
/// let x = lu.solve(&[2.0, 3.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DMat,
    perm: Vec<usize>,
    sign: f64,
}

impl DenseLu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`NumError::DimensionMismatch`] if `a` is not square.
    /// * [`NumError::Singular`] if a pivot underflows the singularity
    ///   threshold (`~1e-300` scaled by the matrix magnitude) or is NaN.
    pub fn factor(a: &DMat) -> Result<Self, NumError> {
        if a.nrows() != a.ncols() {
            return Err(NumError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = lu.max_abs().max(1.0);
        let tiny = scale * 1e-280;

        for k in 0..n {
            // Find pivot row.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            // `partial_cmp` so a NaN pivot column fails too (`pmax <= tiny`
            // is false for NaN): a non-finite matrix must not factor.
            if pmax.partial_cmp(&tiny) != Some(std::cmp::Ordering::Greater) {
                return Err(NumError::Singular { pivot: k });
            }
            if p != k {
                perm.swap(p, k);
                sign = -sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[(k, j)];
                        lu[(i, j)] -= m * u;
                    }
                }
            }
        }
        Ok(DenseLu { lu, perm, sign })
    }

    /// Dimension of the factored system.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A·x = b` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b`, overwriting `b` with the solution.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), NumError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumError::DimensionMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("{}", b.len()),
            });
        }
        // Apply permutation: y = P·b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] = b[self.perm[i]];
        }
        // Forward solve L·z = y (unit diagonal).
        for i in 1..n {
            let row = self.lu.row(i);
            let mut acc = y[i];
            for (j, yj) in y.iter().enumerate().take(i) {
                acc -= row[j] * yj;
            }
            y[i] = acc;
        }
        // Back solve U·x = z.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = y[i];
            for (j, yj) in y.iter().enumerate().skip(i + 1) {
                acc -= row[j] * yj;
            }
            y[i] = acc / row[i];
        }
        b.copy_from_slice(&y);
        Ok(())
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Cheap condition estimate: ratio of extreme `|U_kk|` pivots.
    ///
    /// Not a rigorous condition number, but a useful diagnostic for
    /// near-singular circuit Jacobians.
    pub fn pivot_condition_estimate(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for i in 0..self.dim() {
            let p = self.lu[(i, i)].abs();
            lo = lo.min(p);
            hi = hi.max(p);
        }
        if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }
}

/// Solves the dense system `A·x = b` in one call (factor + solve).
///
/// # Errors
///
/// Propagates factorisation errors; see [`DenseLu::factor`].
pub fn solve_dense(a: &DMat, b: &[f64]) -> Result<Vec<f64>, NumError> {
    DenseLu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(a: &DMat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0_f64, f64::max)
    }

    #[test]
    fn solves_diagonal() {
        let a = DMat::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let x = solve_dense(&a, &[2.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn solves_with_pivoting() {
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve_dense(&a, &[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn detects_singular() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(NumError::Singular { .. })
        ));
    }

    #[test]
    fn non_finite_entry_is_singular() {
        // The NaN sits below the first pivot, so it is eliminated into
        // the trailing block rather than compared as a pivot candidate.
        let a = DMat::from_rows(&[&[1.0, 2.0], &[f64::NAN, 4.0]]);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(NumError::Singular { .. })
        ));
        let a = DMat::from_rows(&[&[f64::NAN, 2.0], &[1.0, 4.0]]);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(NumError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DMat::zeros(2, 3);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn random_system_small_residual() {
        // Deterministic pseudo-random fill (LCG) to avoid a rand dependency here.
        let n = 25;
        let mut state = 0x9e3779b97f4a7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 10.0; // diagonal dominance => well-conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve_dense(&a, &b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn determinant_of_triangular() {
        let a = DMat::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        assert!((lu.det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_with_pivot() {
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = DMat::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        let mut b = [1.0, 2.0];
        let x = lu.solve(&b).unwrap();
        lu.solve_in_place(&mut b).unwrap();
        assert_eq!(b.to_vec(), x);
    }

    #[test]
    fn pivot_condition_estimate_identity() {
        let lu = DenseLu::factor(&DMat::identity(5)).unwrap();
        assert_eq!(lu.pivot_condition_estimate(), 1.0);
    }

    #[test]
    fn rhs_length_mismatch() {
        let lu = DenseLu::factor(&DMat::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
