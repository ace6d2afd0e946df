//! Compressed sparse column storage.

use crate::csr::Csr;

/// A compressed-sparse-column matrix — the input format of [`crate::SparseLu`].
///
/// Columns are stored contiguously with strictly increasing row indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl Csc {
    /// Builds from raw CSC arrays.
    ///
    /// # Panics
    ///
    /// Panics when the arrays are inconsistent.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), ncols + 1, "indptr length must be ncols+1");
        assert_eq!(indices.len(), data.len(), "indices/data length mismatch");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr tail must equal nnz"
        );
        debug_assert!(indices.iter().all(|&r| r < nrows), "row index out of range");
        Csc {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[j], self.indptr[j + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Column pointer array (length `ncols + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Row indices, column-major (the sparsity pattern together with
    /// [`Csc::indptr`]).
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, column-major.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable stored values (pattern-preserving updates).
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at `(i, j)`, or `0.0` when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(j);
            for (r, v) in rows.iter().zip(vals.iter()) {
                y[*r] += v * xj;
            }
        }
        y
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> Csr {
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.indices {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cols = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for j in 0..self.ncols {
            let (rows, v) = self.col(j);
            for (r, val) in rows.iter().zip(v.iter()) {
                let k = cursor[*r];
                cols[k] = j;
                vals[k] = *val;
                cursor[*r] += 1;
            }
        }
        Csr::from_raw(self.nrows, self.ncols, indptr, cols, vals)
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> numkit::DMat {
        let mut m = numkit::DMat::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (r, v) in rows.iter().zip(vals.iter()) {
                m[(*r, j)] = *v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplets::Triplets;

    fn sample() -> Csc {
        let mut t = Triplets::new(3, 3);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            t.push(r, c, v);
        }
        t.to_csc()
    }

    #[test]
    fn col_access() {
        let a = sample();
        let (rows, vals) = a.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
    }

    #[test]
    fn matvec_matches_csr() {
        let a = sample();
        let x = [1.0, -2.0, 0.5];
        assert_eq!(a.matvec(&x), a.to_csr().matvec(&x));
    }

    #[test]
    fn get_values() {
        let a = sample();
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn csr_roundtrip() {
        let a = sample();
        assert_eq!(a.to_csr().to_csc(), a);
    }
}
