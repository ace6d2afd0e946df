//! Coordinate-format (COO) assembly buffer.

use crate::csc::Csc;
use crate::csr::{transpose, Csr};

/// A coordinate-format sparse-matrix builder.
///
/// Device stamps push `(row, col, value)` entries without worrying about
/// duplicates; conversion to [`Csr`]/[`Csc`] sums duplicate coordinates,
/// matching SPICE-style MNA assembly semantics.
///
/// # Example
///
/// ```
/// use sparsekit::Triplets;
///
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed on conversion
/// let csr = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Triplets {
    /// Creates an empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Triplets {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty builder with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Triplets {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
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

    /// Number of raw (pre-deduplication) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no entries have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends one entry. Zero values are kept (they pin the pattern,
    /// which lets repeated factorisations reuse symbolic work).
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(row < self.nrows, "triplet row {row} out of bounds");
        assert!(col < self.ncols, "triplet col {col} out of bounds");
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Clears all entries, keeping allocations (for per-Newton reassembly).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Scales every stored value by `s` (pattern unchanged).
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.vals {
            *v *= s;
        }
    }

    /// Appends every entry of `other` with its value scaled by `s` — the
    /// building block for Jacobian combinations like `a0/h·C + θ·G`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn append_scaled(&mut self, other: &Triplets, s: f64) {
        assert_eq!(self.nrows, other.nrows, "append_scaled: row mismatch");
        assert_eq!(self.ncols, other.ncols, "append_scaled: col mismatch");
        self.rows.extend_from_slice(&other.rows);
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend(other.vals.iter().map(|v| v * s));
    }

    /// Iterates over raw `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicates.
    pub fn to_csr(&self) -> Csr {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.len());
        let mut data = Vec::with_capacity(self.len());
        indptr.push(0);
        let value = |k: usize| self.vals[k];
        for_each_sorted_row(self.nrows, &self.rows, &self.cols, value, |row| {
            for run in row.chunk_by(|a, b| a.0 == b.0) {
                indices.push(run[0].0);
                data.push(sum(run.iter().map(|&(_, v)| v)));
            }
            indptr.push(indices.len());
        });
        Csr::from_raw(self.nrows, self.ncols, indptr, indices, data)
    }

    /// Converts to CSC, summing duplicates.
    pub fn to_csc(&self) -> Csc {
        self.to_csr().to_csc()
    }

    /// Converts to a dense matrix (mostly for tests and small systems).
    pub fn to_dense(&self) -> numkit::DMat {
        let mut m = numkit::DMat::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }
}

/// The one summation order of the conversions: a counting sort of the
/// triplets by row, then `sort_unstable_by_key` on the column within
/// each row. `visit` sees every row in turn as its (column, payload)
/// pairs in that order, the payload of triplet `k` being `payload(k)`;
/// a run of equal columns is one stored entry, summed by [`sum`].
///
/// The order depends only on the coordinates: `sort_unstable` moves
/// elements by comparing keys alone, and picks its algorithm by element
/// size, so every 16-byte payload pair (a value, or a triplet index for
/// [`AssemblyPlan`]) comes out in the same order.
fn for_each_sorted_row<P: Copy>(
    nrows: usize,
    rows: &[usize],
    cols: &[usize],
    payload: impl Fn(usize) -> P,
    mut visit: impl FnMut(&[(usize, P)]),
) {
    let mut counts = vec![0usize; nrows + 1];
    for &r in rows {
        counts[r + 1] += 1;
    }
    for i in 0..nrows {
        counts[i + 1] += counts[i];
    }
    let mut order = vec![0usize; rows.len()];
    let mut cursor = counts[..nrows].to_vec();
    for (k, &r) in rows.iter().enumerate() {
        order[cursor[r]] = k;
        cursor[r] += 1;
    }
    let mut row = Vec::new();
    for r in 0..nrows {
        row.clear();
        row.extend(
            order[counts[r]..counts[r + 1]]
                .iter()
                .map(|&k| (cols[k], payload(k))),
        );
        row.sort_unstable_by_key(|&(c, _)| c);
        visit(&row);
    }
}

/// The value of one stored entry: the first of its triplet values, then
/// `+=` the rest in order.
#[inline]
fn sum(mut vals: impl Iterator<Item = f64>) -> f64 {
    let first = vals.next().expect("a stored entry has a triplet");
    vals.fold(first, |acc, v| acc + v)
}

/// A recorded triplet→CSC conversion, replayed for new values.
///
/// Newton iterations stamp the same coordinates in the same order with
/// new values every time, so the sort and deduplication of
/// [`Triplets::to_csc`] need to run once per coordinate sequence. The
/// plan keeps the coordinates it was built from, the summation order
/// and the CSC pattern; [`AssemblyPlan::replay`] then only gathers and
/// sums values. The order depends only on coordinates, so a replay is
/// bit-identical to a fresh [`Triplets::to_csc`] of the same triplets.
///
/// # Example
///
/// ```
/// use sparsekit::{AssemblyPlan, Triplets};
///
/// let mut t = Triplets::new(2, 2);
/// t.push(1, 0, 1.0);
/// t.push(0, 0, 2.0);
/// t.push(1, 0, 3.0);
/// let mut plan = AssemblyPlan::new(&t);
/// t.scale(10.0);
/// let csc = plan.replay(&t).expect("same coordinates");
/// assert_eq!(*csc, t.to_csc());
/// assert_eq!(csc.get(1, 0), 40.0);
/// ```
#[derive(Debug, Clone)]
pub struct AssemblyPlan {
    rows: Vec<usize>,
    cols: Vec<usize>,
    /// Stored entry `s`, in row-major order, sums the values at
    /// `src[ptr[s]..ptr[s + 1]]`.
    ptr: Vec<usize>,
    src: Vec<usize>,
    /// The CSC slot of each row-major stored entry.
    dest: Vec<usize>,
    /// The pattern, holding the values of the last build or replay.
    csc: Csc,
}

impl AssemblyPlan {
    /// Records the conversion of `t`'s coordinates and assembles `t`.
    pub fn new(t: &Triplets) -> Self {
        let (mut ptr, mut src) = (Vec::with_capacity(t.len() + 1), Vec::with_capacity(t.len()));
        let (mut row_ptr, mut col_of) = (Vec::with_capacity(t.nrows + 1), Vec::new());
        row_ptr.push(0);
        for_each_sorted_row(
            t.nrows,
            &t.rows,
            &t.cols,
            |k| k,
            |row| {
                for run in row.chunk_by(|a, b| a.0 == b.0) {
                    ptr.push(src.len());
                    col_of.push(run[0].0);
                    src.extend(run.iter().map(|&(_, k)| k));
                }
                row_ptr.push(col_of.len());
            },
        );
        ptr.push(src.len());
        let nnz = col_of.len();
        let mut dest = vec![0usize; nnz];
        let (indptr, row_idx) = transpose(t.nrows, t.ncols, &row_ptr, &col_of, |s, q| dest[s] = q);
        let mut plan = AssemblyPlan {
            rows: t.rows.clone(),
            cols: t.cols.clone(),
            ptr,
            src,
            dest,
            csc: Csc::from_raw(t.nrows, t.ncols, indptr, row_idx, vec![0.0; nnz]),
        };
        plan.fill(&t.vals);
        plan
    }

    /// True when `t` has the recorded shape and coordinate sequence, in
    /// the recorded order.
    pub fn matches(&self, t: &Triplets) -> bool {
        t.nrows == self.csc.nrows()
            && t.ncols == self.csc.ncols()
            && t.rows == self.rows
            && t.cols == self.cols
    }

    /// Assembles `t`'s values along the recorded conversion, or returns
    /// `None` (and changes nothing) when `t` does not
    /// [match](AssemblyPlan::matches) the recorded coordinates.
    pub fn replay(&mut self, t: &Triplets) -> Option<&Csc> {
        if !self.matches(t) {
            return None;
        }
        self.fill(&t.vals);
        Some(&self.csc)
    }

    /// The matrix of the last build or replay.
    pub fn csc(&self) -> &Csc {
        &self.csc
    }

    /// Writes the stored entries summed from `vals` into the pattern.
    fn fill(&mut self, vals: &[f64]) {
        let data = self.csc.data_mut();
        for (s, &d) in self.dest.iter().enumerate() {
            data[d] = sum(self.src[self.ptr[s]..self.ptr[s + 1]]
                .iter()
                .map(|&k| vals[k]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut t = Triplets::new(3, 3);
        assert!(t.is_empty());
        t.push(0, 0, 1.0);
        t.push(2, 1, -2.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds_panics() {
        let mut t = Triplets::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn duplicates_sum_on_conversion() {
        let mut t = Triplets::new(2, 2);
        t.push(1, 1, 1.5);
        t.push(1, 1, 2.5);
        t.push(0, 1, -1.0);
        let csr = t.to_csr();
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn to_dense_matches() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 2, 5.0);
        t.push(1, 0, 3.0);
        t.push(0, 2, 1.0);
        let d = t.to_dense();
        assert_eq!(d[(0, 2)], 6.0);
        assert_eq!(d[(1, 0)], 3.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn scale_and_append_scaled() {
        let mut c = Triplets::new(2, 2);
        c.push(0, 0, 2.0);
        c.push(1, 1, 4.0);
        let mut g = Triplets::new(2, 2);
        g.push(0, 1, 1.0);
        g.push(1, 1, -2.0);
        // J = 10·C + 0.5·G.
        let mut j = Triplets::new(2, 2);
        j.append_scaled(&c, 10.0);
        j.append_scaled(&g, 0.5);
        let d = j.to_dense();
        assert_eq!(d[(0, 0)], 20.0);
        assert_eq!(d[(0, 1)], 0.5);
        assert_eq!(d[(1, 1)], 39.0);
        // In-place scale.
        j.scale(2.0);
        assert_eq!(j.to_dense()[(1, 1)], 78.0);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn csc_roundtrip_values() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(2, 2, 3.0);
        t.push(0, 2, 4.0);
        let csc = t.to_csc();
        let d = csc.to_dense();
        assert_eq!(d[(1, 0)], 2.0);
        assert_eq!(d[(0, 2)], 4.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    fn empty_rows_handled() {
        let t = Triplets::new(4, 4);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 0);
        let y = csr.matvec(&[1.0; 4]);
        assert_eq!(y, vec![0.0; 4]);
    }
}
