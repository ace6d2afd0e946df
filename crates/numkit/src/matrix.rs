//! Dense row-major matrices.

use crate::error::NumError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// `DMat` is the workhorse container for small circuit Jacobians and the
/// spectral differentiation operators. It favours explicit, allocation-free
/// inner loops over operator sugar; element access is through `m[(i, j)]`.
///
/// # Example
///
/// ```
/// use numkit::DMat;
///
/// let mut a = DMat::zeros(2, 2);
/// a[(0, 0)] = 1.0;
/// a[(1, 1)] = 2.0;
/// let y = a.matvec(&[3.0, 4.0]);
/// assert_eq!(y, vec![3.0, 8.0]);
/// ```
#[derive(Debug, PartialEq)]
pub struct DMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        DMat { nrows, ncols, data }
    }

    /// Builds an `nrows × ncols` matrix by evaluating `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMat::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix–vector product `y = A·x` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
    }

    /// Transposed matrix–vector product `y = Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "matvec_transposed: x length mismatch");
        let mut y = vec![0.0; self.ncols];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &aij) in self.row(i).iter().enumerate() {
                y[j] += aij * xi;
            }
        }
        y
    }

    /// Dense matrix–matrix product `C = A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &DMat) -> Result<DMat, NumError> {
        if self.ncols != other.nrows {
            return Err(NumError::DimensionMismatch {
                expected: format!("inner dim {}", self.ncols),
                found: format!("{}", other.nrows),
            });
        }
        let mut c = DMat::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let crow = c.row_mut(i);
                for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                    *cj += aik * bj;
                }
            }
        }
        Ok(c)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DMat {
        let mut t = DMat::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// In-place scaled accumulate `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &DMat) {
        assert_eq!(self.nrows, other.nrows, "axpy: row mismatch");
        assert_eq!(self.ncols, other.ncols, "axpy: col mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scales the whole matrix by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Maximum absolute element (∞-norm of the flattened data); NaN
    /// entries are ignored.
    pub fn max_abs(&self) -> f64 {
        // Four independent running maxima let the compiler vectorise. The
        // maximum of non-negative values is exact and ignores NaN however
        // it is grouped, so this equals the one-at-a-time fold bit for bit.
        let mut lanes = [0.0_f64; 4];
        let mut chunks = self.data.chunks_exact(4);
        for chunk in &mut chunks {
            for (m, v) in lanes.iter_mut().zip(chunk) {
                let v = v.abs();
                if v > *m {
                    *m = v;
                }
            }
        }
        let m = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
        chunks.remainder().iter().fold(m, |m, v| m.max(v.abs()))
    }

    /// Induced ∞-norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Clone for DMat {
    fn clone(&self) -> Self {
        DMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s allocation when it is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.nrows = source.nrows;
        self.ncols = source.ncols;
        self.data.clone_from(&source.data);
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

impl fmt::Display for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DMat::zeros(2, 3);
        assert_eq!(z.nrows(), 2);
        assert_eq!(z.ncols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i3 = DMat::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_index() {
        let m = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matvec_identity() {
        let i = DMat::identity(4);
        let x = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec(&x), x.to_vec());
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, -1.0];
        let via_t = m.transpose().matvec(&x);
        let direct = m.matvec_transposed(&x);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, DMat::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn matmul_dimension_error() {
        let a = DMat::zeros(2, 3);
        let b = DMat::zeros(2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = DMat::identity(2);
        let b = DMat::identity(2);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        a.scale(0.5);
        assert_eq!(a[(1, 1)], 1.5);
    }

    #[test]
    fn norms() {
        let m = DMat::from_rows(&[&[3.0, -4.0], &[1.0, 1.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.norm_inf(), 7.0);
        assert!((m.norm_fro() - (27.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn max_abs_equals_the_sequential_fold() {
        let vals = [
            0.5,
            -3.0,
            f64::NAN,
            -0.0,
            2.0,
            7.5,
            f64::NAN,
            -7.5,
            1.0,
            -8.0,
        ];
        for len in 0..=vals.len() {
            let m = DMat::from_fn(1, len, |_, j| vals[j]);
            let fold = vals[..len].iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            assert_eq!(m.max_abs().to_bits(), fold.to_bits(), "len {len}");
        }
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = DMat::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = DMat::identity(3);
        m.fill_zero();
        assert_eq!(m.max_abs(), 0.0);
    }
}
