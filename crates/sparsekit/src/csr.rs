//! Compressed sparse row storage.

use crate::csc::Csc;

/// A compressed-sparse-row matrix.
///
/// Rows are stored contiguously with strictly increasing column indices —
/// the natural layout for matvec and for row-wise factorisations
/// like ILU(0).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl Csr {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics when the arrays are inconsistent (debug-grade validation).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows+1");
        assert_eq!(indices.len(), data.len(), "indices/data length mismatch");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr tail must equal nnz"
        );
        debug_assert!(
            indices.iter().all(|&c| c < ncols),
            "column index out of range"
        );
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![1.0; n],
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

    /// Row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable stored values (pattern-preserving updates).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Value at `(i, j)`, or `0.0` when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
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
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller buffer.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals.iter()) {
                acc += v * x[*c];
            }
            *yi = acc;
        }
    }

    /// Converts to CSC.
    pub fn to_csc(&self) -> Csc {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let mut indptr = counts.clone();
        let mut rows = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.nrows {
            let (cols, v) = self.row(i);
            for (c, val) in cols.iter().zip(v.iter()) {
                let k = cursor[*c];
                rows[k] = i;
                vals[k] = *val;
                cursor[*c] += 1;
            }
        }
        // CSC indptr is the pre-increment counts; recompute cleanly.
        indptr.push(self.nnz());
        let mut ip = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            ip[c + 1] += 1;
        }
        for j in 0..self.ncols {
            ip[j + 1] += ip[j];
        }
        Csc::from_raw(self.nrows, self.ncols, ip, rows, vals)
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> numkit::DMat {
        let mut m = numkit::DMat::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals.iter()) {
                m[(i, *c)] = *v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplets::Triplets;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
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
        t.to_csr()
    }

    #[test]
    fn identity_matvec() {
        let i = Csr::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        let y = a.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn get_stored_and_zero() {
        let a = sample();
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn csc_roundtrip() {
        let a = sample();
        let back = a.to_csc().to_csr();
        assert_eq!(a, back);
    }

    #[test]
    fn to_dense_matches_gets() {
        let a = sample();
        let d = a.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d[(i, j)], a.get(i, j));
            }
        }
    }

    #[test]
    fn nnz_counts_stored() {
        assert_eq!(sample().nnz(), 5);
    }
}
