//! Linear-operator and preconditioner abstractions for Krylov solvers.

use crate::csr::Csr;

/// A square linear operator `y = A·x`, possibly matrix-free.
///
/// The WaMPDE Jacobian has the form `diag-blocks + ω·(D ⊗ C)`; applying it
/// is much cheaper than forming it, which is exactly the case Krylov
/// methods exploit.
pub trait LinOp {
    /// Operator dimension (square).
    fn dim(&self) -> usize;
    /// Computes `y = A·x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x`/`y` lengths differ from [`LinOp::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// A preconditioner application `y = M⁻¹·x`.
pub trait Precond {
    /// Applies the (approximate) inverse.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// The identity preconditioner (no preconditioning).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl Precond for IdentityPrecond {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
}

/// Diagonal (Jacobi) preconditioner.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds from a CSR matrix, using `1.0` for zero/missing diagonals.
    pub fn from_csr(a: &Csr) -> Self {
        let n = a.nrows().min(a.ncols());
        let mut inv_diag = vec![1.0; n];
        for (i, d) in inv_diag.iter_mut().enumerate() {
            let v = a.get(i, i);
            if v != 0.0 {
                *d = 1.0 / v;
            }
        }
        JacobiPrecond { inv_diag }
    }
}

impl Precond for JacobiPrecond {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for ((yi, xi), d) in y.iter_mut().zip(x.iter()).zip(self.inv_diag.iter()) {
            *yi = xi * d;
        }
    }
}

/// Wraps a [`Csr`] matrix as a [`LinOp`].
#[derive(Debug, Clone)]
pub struct CsrOp<'a> {
    a: &'a Csr,
}

impl<'a> CsrOp<'a> {
    /// Wraps a borrowed CSR matrix.
    pub fn new(a: &'a Csr) -> Self {
        CsrOp { a }
    }
}

impl LinOp for CsrOp<'_> {
    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.matvec_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplets::Triplets;

    #[test]
    fn identity_precond_copies() {
        let x = [1.0, 2.0];
        let mut y = [0.0; 2];
        IdentityPrecond.apply(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 4.0);
        let p = JacobiPrecond::from_csr(&t.to_csr());
        let mut y = [0.0; 2];
        p.apply(&[2.0, 4.0], &mut y);
        assert_eq!(y, [1.0, 1.0]);
    }

    #[test]
    fn jacobi_handles_missing_diagonal() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 3.0);
        t.push(1, 0, 3.0);
        let p = JacobiPrecond::from_csr(&t.to_csr());
        let mut y = [0.0; 2];
        p.apply(&[5.0, 7.0], &mut y);
        assert_eq!(y, [5.0, 7.0]); // falls back to identity rows
    }

    #[test]
    fn csr_op_applies_matrix() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 1, 3.0);
        let a = t.to_csr();
        let op = CsrOp::new(&a);
        assert_eq!(op.dim(), 2);
        let mut y = [0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, [3.0, 3.0]);
    }
}
