//! Left-looking sparse LU factorisation (Gilbert–Peierls) with partial
//! pivoting and optional fill-reducing column preordering.
//!
//! This is the direct solver used for circuit Jacobians: unsymmetric,
//! structurally stable under threshold pivoting, and fast for the
//! moderately sized, very sparse matrices MNA produces.
//!
//! Newton iterations re-factor the *same sparsity pattern* with new
//! values every iteration, so the factorisation keeps its symbolic
//! by-products (column preorder, pivot order, factor patterns, the input
//! pattern itself) and offers [`SparseLu::refactor`]: a numeric-only
//! re-elimination along the cached structure that skips the per-column
//! reachability DFS and pivot search entirely. The numeric phase
//! eliminates pivots in ascending pivot-position order — a canonical
//! topological order that `refactor` replays exactly, so refactorised
//! factors are bitwise identical to a fresh factorisation that selects
//! the same pivots.

use crate::csc::Csc;
use crate::error::SparseError;
use crate::klu::OrderingPlan;

/// Column preordering strategies for [`SparseLu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnOrdering {
    /// Factor columns in their natural order.
    Natural,
    /// Order columns by ascending entry count — a lightweight Markowitz-style
    /// heuristic that curbs fill on circuit matrices without the complexity
    /// of full AMD/COLAMD.
    #[default]
    AscendingDegree,
}

const UNPIVOTED: usize = usize::MAX;

/// Sparse LU factors `P·A·Q = L·U` from Gilbert–Peierls elimination.
///
/// * `P` — row permutation chosen by threshold partial pivoting with a mild
///   preference for the diagonal (keeps MNA structure when possible);
/// * `Q` — column preorder chosen up front by [`ColumnOrdering`].
///
/// # Example
///
/// ```
/// use sparsekit::{Triplets, SparseLu};
///
/// # fn main() -> Result<(), sparsekit::SparseError> {
/// let mut t = Triplets::new(3, 3);
/// for i in 0..3 { t.push(i, i, 2.0); }
/// t.push(0, 1, 1.0);
/// t.push(2, 0, 1.0);
/// let lu = SparseLu::factor(&t.to_csc())?;
/// let x = lu.solve(&[1.0, 1.0, 1.0])?;
/// assert!(x.iter().all(|v| v.is_finite()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// L columns: (original row, multiplier), unit diagonal implicit.
    /// Structurally reached entries are kept even when numerically zero so
    /// the pattern stays valid for [`SparseLu::refactor`].
    l_cols: Vec<Vec<(usize, f64)>>,
    /// U columns: (pivot position, value) in ascending pivot order — the
    /// canonical elimination sequence replayed by [`SparseLu::refactor`].
    /// The diagonal is stored separately.
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    /// perm_r[k] = original row pivoted at position k.
    perm_r: Vec<usize>,
    /// perm_c[j] = original column factored at position j.
    perm_c: Vec<usize>,
    /// Sparsity pattern of the factored input (CSC arrays), kept so
    /// [`SparseLu::refactor`] can verify the new matrix matches.
    a_indptr: Vec<usize>,
    a_indices: Vec<usize>,
    /// Pivot threshold of the original factorisation, replayed by
    /// [`SparseLu::refactor`]'s pivot-stability guard.
    pivot_threshold: f64,
    /// Preferred pivot row per original column. Identity for the plain
    /// paths (diagonal preference); the maximum-transversal match for
    /// [`SparseLu::factor_ordered`], which is what keeps elimination
    /// inside the BTF diagonal blocks.
    diag_row: Vec<usize>,
    /// Row equilibration `s[r] = 1 / max|A[r,:]|` of the ordered path
    /// (`None` for the plain paths). Recomputed from the new values on
    /// every [`SparseLu::refactor`] with the identical operation
    /// sequence, preserving the bitwise fresh-vs-refactor guarantee.
    row_scale: Option<Vec<f64>>,
}

impl SparseLu {
    /// Factors with the default ordering and pivot threshold.
    ///
    /// # Errors
    ///
    /// * [`SparseError::DimensionMismatch`] for non-square input.
    /// * [`SparseError::Singular`] when no acceptable pivot exists.
    pub fn factor(a: &Csc) -> Result<Self, SparseError> {
        Self::factor_with(a, ColumnOrdering::default(), 0.1)
    }

    /// Factors with explicit column ordering and pivot threshold.
    ///
    /// `pivot_threshold` in `(0, 1]` controls the diagonal preference: the
    /// natural (diagonal) candidate is kept whenever its magnitude is at
    /// least `pivot_threshold` times the column maximum. `1.0` recovers
    /// classic partial pivoting.
    ///
    /// # Errors
    ///
    /// See [`SparseLu::factor`]; additionally [`SparseError::InvalidArgument`]
    /// for a threshold outside `(0, 1]`.
    pub fn factor_with(
        a: &Csc,
        ordering: ColumnOrdering,
        pivot_threshold: f64,
    ) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let perm_c: Vec<usize> = match ordering {
            ColumnOrdering::Natural => (0..n).collect(),
            ColumnOrdering::AscendingDegree => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&j| a.col(j).0.len());
                order
            }
        };
        let diag_row: Vec<usize> = (0..n).collect();
        Self::factor_core(a, perm_c, diag_row, None, pivot_threshold)
    }

    /// Factors along a KLU-style [`OrderingPlan`] (BTF blocks, per-block
    /// AMD column order, matched-diagonal pivot preference) with row
    /// equilibration `s[r] = 1 / max|A[r,:]|`.
    ///
    /// Because the plan's block-upper-triangular structure confines
    /// elimination to the diagonal blocks (as long as the matched pivot
    /// passes the threshold test), fill cannot cross block boundaries.
    /// The resulting factorisation supports [`SparseLu::refactor`] and
    /// keeps its bitwise fresh-vs-refactor guarantee: scales are
    /// recomputed from the new values with the same operation sequence.
    ///
    /// # Errors
    ///
    /// * [`SparseError::DimensionMismatch`] when the plan's dimensions
    ///   disagree with the matrix;
    /// * otherwise as [`SparseLu::factor`].
    pub fn factor_ordered(a: &Csc, plan: &OrderingPlan) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() || plan.col_order.len() != a.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("square matrix of dim {}", plan.col_order.len()),
                found: format!("{}x{}", a.nrows(), a.ncols()),
            });
        }
        let scale = Self::compute_row_scales(a);
        Self::factor_core(
            a,
            plan.col_order.clone(),
            plan.diag_row.clone(),
            Some(scale),
            0.1,
        )
    }

    /// Row equilibration factors `s[r] = 1 / max|A[r,:]|` (`1.0` for
    /// empty or non-finite rows). One fixed traversal order — column
    /// major — so refactorisation reproduces fresh scales bit for bit.
    fn compute_row_scales(a: &Csc) -> Vec<f64> {
        let mut max_abs = vec![0.0_f64; a.nrows()];
        for j in 0..a.ncols() {
            let (rows, vals) = a.col(j);
            for (r, v) in rows.iter().zip(vals.iter()) {
                let av = v.abs();
                if av > max_abs[*r] {
                    max_abs[*r] = av;
                }
            }
        }
        max_abs
            .iter()
            .map(|&m| {
                if m > 0.0 && m.is_finite() {
                    1.0 / m
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Shared Gilbert–Peierls elimination: column order `perm_c`,
    /// preferred pivot rows `diag_row`, optional row scaling.
    fn factor_core(
        a: &Csc,
        perm_c: Vec<usize>,
        diag_row: Vec<usize>,
        row_scale: Option<Vec<f64>>,
        pivot_threshold: f64,
    ) -> Result<Self, SparseError> {
        if !(pivot_threshold > 0.0 && pivot_threshold <= 1.0) {
            return Err(SparseError::InvalidArgument(
                "pivot threshold must lie in (0, 1]".into(),
            ));
        }
        let n = a.nrows();

        let mut l_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut u_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut u_diag = vec![0.0; n];
        let mut perm_r = vec![UNPIVOTED; n];
        let mut pinv = vec![UNPIVOTED; n]; // original row -> pivot position

        // Dense work arrays reused across columns.
        let mut x = vec![0.0_f64; n];
        let mut mark = vec![false; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut elim: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for j in 0..n {
            let col = perm_c[j];
            let dr = diag_row[col];
            let (rows, vals) = a.col(col);

            // --- Symbolic: reachability DFS through the L graph. ---
            topo.clear();
            for &r in rows {
                if mark[r] {
                    continue;
                }
                dfs_stack.push((r, 0));
                mark[r] = true;
                while let Some(&mut (node, ref mut child)) = dfs_stack.last_mut() {
                    let pk = pinv[node];
                    let children: &[(usize, f64)] = if pk == UNPIVOTED { &[] } else { &l_cols[pk] };
                    if *child < children.len() {
                        let next = children[*child].0;
                        *child += 1;
                        if !mark[next] {
                            mark[next] = true;
                            dfs_stack.push((next, 0));
                        }
                    } else {
                        topo.push(node);
                        dfs_stack.pop();
                    }
                }
            }

            // --- Numeric: scatter A(:,col) (row-scaled when
            // equilibrating), then eliminate pivots in ascending
            // pivot-position order — a valid topological order (every
            // l_cols[k] row sits at a later pivot position), and the
            // canonical sequence `refactor` replays bit for bit. ---
            match &row_scale {
                Some(s) => {
                    for (r, v) in rows.iter().zip(vals.iter()) {
                        x[*r] = *v * s[*r];
                    }
                }
                None => {
                    for (r, v) in rows.iter().zip(vals.iter()) {
                        x[*r] = *v;
                    }
                }
            }
            elim.clear();
            for &node in &topo {
                if pinv[node] != UNPIVOTED {
                    elim.push(pinv[node]);
                }
            }
            elim.sort_unstable();
            for &pk in &elim {
                let xk = x[perm_r[pk]];
                if xk != 0.0 {
                    for &(r, l) in &l_cols[pk] {
                        x[r] -= l * xk;
                    }
                }
            }

            // --- Pivot selection among not-yet-pivoted rows, preferring
            // the designated diagonal row (the matrix diagonal for the
            // plain paths, the transversal match for the ordered one). ---
            let mut max_abs = 0.0_f64;
            let mut max_row = UNPIVOTED;
            let mut diag_abs = 0.0_f64;
            for &node in &topo {
                if pinv[node] == UNPIVOTED {
                    let v = x[node].abs();
                    if v > max_abs {
                        max_abs = v;
                        max_row = node;
                    }
                    if node == dr {
                        diag_abs = v;
                    }
                }
            }
            if max_row == UNPIVOTED || max_abs == 0.0 {
                // Restore work arrays before bailing out.
                for &node in &topo {
                    x[node] = 0.0;
                    mark[node] = false;
                }
                return Err(SparseError::Singular { column: col });
            }
            let pivot_row = if diag_abs >= pivot_threshold * max_abs {
                dr
            } else {
                max_row
            };
            let pivot_val = x[pivot_row];

            pinv[pivot_row] = j;
            perm_r[j] = pivot_row;
            u_diag[j] = pivot_val;

            // --- Emit factors and reset work arrays. Numerically zero
            // entries are kept: they pin the structural pattern so a
            // later `refactor` stays correct when new values flow into
            // the same positions. U entries land in ascending pivot
            // order (the elimination sequence). ---
            for &pk in &elim {
                let node = perm_r[pk];
                u_cols[j].push((pk, x[node]));
                x[node] = 0.0;
                mark[node] = false;
            }
            for &node in &topo {
                if pinv[node] == UNPIVOTED {
                    l_cols[j].push((node, x[node] / pivot_val));
                    x[node] = 0.0;
                    mark[node] = false;
                } else if pinv[node] == j {
                    // The pivot itself; value already captured in u_diag.
                    x[node] = 0.0;
                    mark[node] = false;
                }
                // pinv[node] < j entries were reset in the elim loop.
            }
        }

        Ok(SparseLu {
            n,
            l_cols,
            u_cols,
            u_diag,
            perm_r,
            perm_c,
            a_indptr: a.indptr().to_vec(),
            a_indices: a.indices().to_vec(),
            pivot_threshold,
            diag_row,
            row_scale,
        })
    }

    /// Numeric-only refactorisation: re-eliminates a matrix with the
    /// *same sparsity pattern* as the originally factored one along the
    /// cached structure (column preorder, pivot order, factor patterns),
    /// skipping the symbolic reachability analysis and pivot search.
    ///
    /// The replayed elimination performs the identical floating-point
    /// operation sequence as a fresh factorisation that selects the same
    /// pivots, so the resulting factors are bitwise identical to it.
    ///
    /// # Errors
    ///
    /// * [`SparseError::DimensionMismatch`] for a different shape;
    /// * [`SparseError::InvalidArgument`] when the sparsity pattern
    ///   differs from the factored one;
    /// * [`SparseError::Singular`] when the new values would make the
    ///   original factorisation's pivot-selection rule choose a
    ///   different pivot row (the values have drifted too far for the
    ///   frozen pivot order) — the factors are left invalid and the
    ///   caller must factor afresh.
    pub fn refactor(&mut self, a: &Csc) -> Result<(), SparseError> {
        if a.nrows() != self.n || a.ncols() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: format!("{0}x{0} matrix", self.n),
                found: format!("{}x{}", a.nrows(), a.ncols()),
            });
        }
        if a.indptr() != &self.a_indptr[..] || a.indices() != &self.a_indices[..] {
            return Err(SparseError::InvalidArgument(
                "refactor requires the originally factored sparsity pattern".into(),
            ));
        }
        let n = self.n;
        // Scaled factorisations recompute the equilibration from the new
        // values with the same traversal as the fresh path, so the
        // replayed elimination sees bitwise-identical scaled entries.
        if self.row_scale.is_some() {
            self.row_scale = Some(Self::compute_row_scales(a));
        }
        let mut x = vec![0.0_f64; n];
        for j in 0..n {
            let col = self.perm_c[j];
            let (rows, vals) = a.col(col);
            match &self.row_scale {
                Some(s) => {
                    for (r, v) in rows.iter().zip(vals.iter()) {
                        x[*r] = *v * s[*r];
                    }
                }
                None => {
                    for (r, v) in rows.iter().zip(vals.iter()) {
                        x[*r] = *v;
                    }
                }
            }
            // Replay the canonical elimination sequence (ascending pivot
            // order, as stored in u_cols[j]).
            for &(pk, _) in &self.u_cols[j] {
                let xk = x[self.perm_r[pk]];
                if xk != 0.0 {
                    for &(r, l) in &self.l_cols[pk] {
                        x[r] -= l * xk;
                    }
                }
            }
            let pivot_row = self.perm_r[j];
            let pivot_val = x[pivot_row];
            // Pivot-stability guard: accept the frozen pivot only when
            // the original pivot-selection rule (threshold partial
            // pivoting with diagonal preference) still selects the same
            // row for the new values — this is what keeps refactorised
            // factors bitwise identical to fresh ones. The candidate set
            // is frozen with the structure: the pivot row plus the
            // stored L rows (the rows that were unpivoted when this
            // column was factored). Exact-magnitude ties keep the frozen
            // pivot, exactly as the fresh scan kept its first maximum
            // (symmetric circuit stamps tie routinely). A failed guard
            // invalidates the factors and callers fall back to a fresh
            // factorisation.
            let pivot_abs = pivot_val.abs();
            let dr = self.diag_row[col];
            let mut other_max = 0.0_f64;
            let mut diag_abs = if pivot_row == dr { pivot_abs } else { 0.0 };
            for &(node, _) in &self.l_cols[j] {
                let v = x[node].abs();
                other_max = other_max.max(v);
                if node == dr {
                    diag_abs = v;
                }
            }
            let same_pivot = if pivot_row == dr {
                // The diagonal stays preferred while it clears the
                // threshold against the column maximum.
                pivot_abs >= self.pivot_threshold * other_max
            } else {
                // An off-diagonal pivot was the column maximum with the
                // diagonal below threshold; require the same.
                pivot_abs >= other_max && diag_abs < self.pivot_threshold * pivot_abs
            };
            if !pivot_val.is_finite() || pivot_abs == 0.0 || !same_pivot {
                return Err(SparseError::Singular { column: col });
            }
            self.u_diag[j] = pivot_val;
            for k in 0..self.u_cols[j].len() {
                let node = self.perm_r[self.u_cols[j][k].0];
                self.u_cols[j][k].1 = x[node];
                x[node] = 0.0;
            }
            x[pivot_row] = 0.0;
            for k in 0..self.l_cols[j].len() {
                let node = self.l_cols[j][k].0;
                self.l_cols[j][k].1 = x[node] / pivot_val;
                x[node] = 0.0;
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total stored entries in `L` and `U` (a fill-in diagnostic).
    pub fn factor_nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.n
    }

    /// Solves `A·x = b` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] for a wrong-length rhs.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b`, overwriting `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] for a wrong-length rhs.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), SparseError> {
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: format!("rhs of length {}", self.n),
                found: format!("{}", b.len()),
            });
        }
        // Forward: L z = P (S b), with y kept in original row indexing
        // (S is the row equilibration of the ordered path, if any).
        let mut y = b.to_vec();
        if let Some(s) = &self.row_scale {
            for (yi, si) in y.iter_mut().zip(s.iter()) {
                *yi *= si;
            }
        }
        let mut z = vec![0.0; self.n];
        for k in 0..self.n {
            let zk = y[self.perm_r[k]];
            z[k] = zk;
            if zk != 0.0 {
                for &(r, l) in &self.l_cols[k] {
                    y[r] -= l * zk;
                }
            }
        }
        // Backward: U x̃ = z, column-oriented.
        for j in (0..self.n).rev() {
            let xj = z[j] / self.u_diag[j];
            z[j] = xj;
            if xj != 0.0 {
                for &(p, u) in &self.u_cols[j] {
                    z[p] -= u * xj;
                }
            }
        }
        // Undo column permutation.
        for (j, &c) in self.perm_c.iter().enumerate() {
            b[c] = z[j];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplets::Triplets;
    use numkit::DMat;

    fn residual_inf(a: &Csc, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0_f64, f64::max)
    }

    #[test]
    fn solves_identity() {
        let mut t = Triplets::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 1.0);
        }
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_permutation_matrix() {
        // Requires off-diagonal pivoting.
        let mut t = Triplets::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 0, 1.0);
        let a = t.to_csc();
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&[10.0, 20.0, 30.0]).unwrap();
        assert!(residual_inf(&a, &x, &[10.0, 20.0, 30.0]) < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0); // second column empty
        assert!(matches!(
            SparseLu::factor(&t.to_csc()),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let t = Triplets::new(2, 3);
        assert!(matches!(
            SparseLu::factor(&t.to_csc()),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 1.0);
        assert!(SparseLu::factor_with(&t.to_csc(), ColumnOrdering::Natural, 0.0).is_err());
        assert!(SparseLu::factor_with(&t.to_csc(), ColumnOrdering::Natural, 1.5).is_err());
    }

    /// Deterministic pseudo-random generator (avoids dev-dependency churn in
    /// the hot unit-test path; proptest covers the randomized contract).
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn random_sparse(n: usize, per_row: usize, seed: u64) -> Csc {
        let mut s = seed;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + lcg(&mut s));
            for _ in 0..per_row {
                let j = ((lcg(&mut s) + 0.5) * n as f64) as usize % n;
                t.push(i, j, lcg(&mut s));
            }
        }
        t.to_csc()
    }

    #[test]
    fn random_systems_both_orderings() {
        for seed in 1..5u64 {
            let a = random_sparse(60, 4, seed);
            let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin()).collect();
            for ord in [ColumnOrdering::Natural, ColumnOrdering::AscendingDegree] {
                let lu = SparseLu::factor_with(&a, ord, 0.1).unwrap();
                let x = lu.solve(&b).unwrap();
                assert!(
                    residual_inf(&a, &x, &b) < 1e-9,
                    "residual too large for seed {seed} ordering {ord:?}"
                );
            }
        }
    }

    #[test]
    fn matches_dense_lu() {
        let a = random_sparse(25, 3, 42);
        let b: Vec<f64> = (0..25).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let xs = SparseLu::factor(&a).unwrap().solve(&b).unwrap();
        let dense: DMat = a.to_dense();
        let xd = numkit::lu::solve_dense(&dense, &b).unwrap();
        for (s, d) in xs.iter().zip(xd.iter()) {
            assert!((s - d).abs() < 1e-9);
        }
    }

    #[test]
    fn strict_partial_pivoting_threshold_one() {
        let a = random_sparse(30, 3, 7);
        let b = vec![1.0; 30];
        let lu = SparseLu::factor_with(&a, ColumnOrdering::Natural, 1.0).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn factor_nnz_reported() {
        let a = random_sparse(20, 2, 3);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.factor_nnz() >= 20); // at least the diagonal
    }

    #[test]
    fn wrong_rhs_length() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    /// Two diagonally dominant matrices with the *same* pattern but
    /// different values (so both fresh factorisations pick the same —
    /// diagonal — pivots).
    fn same_pattern_pair(n: usize, seed: u64) -> (Csc, Csc) {
        let mut s1 = seed;
        let mut s2 = seed.wrapping_mul(31).wrapping_add(7);
        let mut t1 = Triplets::new(n, n);
        let mut t2 = Triplets::new(n, n);
        for i in 0..n {
            t1.push(i, i, 10.0 + lcg(&mut s1));
            t2.push(i, i, 10.0 + lcg(&mut s2));
            for _ in 0..3 {
                let j = ((lcg(&mut s1) + 0.5) * n as f64) as usize % n;
                t1.push(i, j, lcg(&mut s1));
                t2.push(i, j, lcg(&mut s2));
            }
        }
        (t1.to_csc(), t2.to_csc())
    }

    #[test]
    fn refactor_is_bitwise_identical_to_fresh() {
        for seed in 1..4u64 {
            let (a1, a2) = same_pattern_pair(40, seed);
            // Fresh factors of both matrices.
            let lu1 = SparseLu::factor(&a1).unwrap();
            let fresh2 = SparseLu::factor(&a2).unwrap();
            // Numeric-only refactorisation of a2 on a1's symbolic state.
            let mut reuse2 = lu1.clone();
            reuse2.refactor(&a2).unwrap();
            // Identical pivot orders and bitwise-identical factor values.
            assert_eq!(fresh2.perm_r, reuse2.perm_r, "seed {seed}");
            assert_eq!(fresh2.perm_c, reuse2.perm_c, "seed {seed}");
            assert_eq!(fresh2.u_diag, reuse2.u_diag, "seed {seed}");
            assert_eq!(fresh2.u_cols, reuse2.u_cols, "seed {seed}");
            assert_eq!(fresh2.l_cols, reuse2.l_cols, "seed {seed}");
            // And bitwise-identical solutions.
            let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.29).sin()).collect();
            let xf = fresh2.solve(&b).unwrap();
            let xr = reuse2.solve(&b).unwrap();
            assert_eq!(xf, xr, "seed {seed}");
        }
    }

    #[test]
    fn refactor_same_matrix_is_identity() {
        let a = random_sparse(30, 3, 11);
        let lu = SparseLu::factor(&a).unwrap();
        let mut re = lu.clone();
        re.refactor(&a).unwrap();
        assert_eq!(lu.u_diag, re.u_diag);
        assert_eq!(lu.u_cols, re.u_cols);
        assert_eq!(lu.l_cols, re.l_cols);
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let a = random_sparse(10, 2, 1);
        let mut lu = SparseLu::factor(&a).unwrap();
        // Same size, different pattern (pure diagonal).
        let mut t = Triplets::new(10, 10);
        for i in 0..10 {
            t.push(i, i, 1.0);
        }
        assert!(matches!(
            lu.refactor(&t.to_csc()),
            Err(SparseError::InvalidArgument(_))
        ));
        // Different size.
        let mut t = Triplets::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 1.0);
        }
        assert!(matches!(
            lu.refactor(&t.to_csc()),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_rejects_pivot_order_drift() {
        // Values drift so far that fresh factorisation would repivot:
        // column 0's diagonal (the frozen pivot) falls below the 0.1
        // threshold against the grown off-diagonal, so the guard must
        // reject instead of silently reusing the stale pivot order.
        let mut t1 = Triplets::new(2, 2);
        t1.push(0, 0, 4.0);
        t1.push(1, 0, 1.0);
        t1.push(0, 1, 1.0);
        t1.push(1, 1, 4.0);
        let lu = SparseLu::factor(&t1.to_csc()).unwrap();
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 0.05);
        t2.push(1, 0, 5.0); // dominates: fresh would pivot row 1 first
        t2.push(0, 1, 1.0);
        t2.push(1, 1, 4.0);
        let a2 = t2.to_csc();
        let mut reuse = lu.clone();
        assert!(matches!(
            reuse.refactor(&a2),
            Err(SparseError::Singular { .. })
        ));
        // A fresh factorisation of the drifted matrix still works (the
        // FactorCache fallback path).
        let fresh = SparseLu::factor(&a2).unwrap();
        let x = fresh.solve(&[1.0, 1.0]).unwrap();
        let r = residual_inf(&a2, &x, &[1.0, 1.0]);
        assert!(r < 1e-12, "residual {r}");
    }

    #[test]
    fn refactor_rejects_degenerate_pivot() {
        // Same pattern, but the new values zero out a pivot.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        let mut lu = SparseLu::factor(&t.to_csc()).unwrap();
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 2.0);
        t2.push(1, 1, 0.0);
        assert!(matches!(
            lu.refactor(&t2.to_csc()),
            Err(SparseError::Singular { .. })
        ));
    }

    /// Same-pattern pair with a bordered-tridiagonal shape (the
    /// collocation-Jacobian structure the ordered path targets).
    fn bordered_pair(n: usize, seed: u64) -> (Csc, Csc) {
        let mut s1 = seed;
        let mut s2 = seed.wrapping_mul(131).wrapping_add(17);
        let mut t1 = Triplets::new(n, n);
        let mut t2 = Triplets::new(n, n);
        let mut both = |i: usize, j: usize, base: f64, s1: &mut u64, s2: &mut u64| {
            t1.push(i, j, base + lcg(s1));
            t2.push(i, j, base + lcg(s2));
        };
        for i in 0..n - 1 {
            both(i, i, 8.0, &mut s1, &mut s2);
            if i > 0 {
                both(i, i - 1, 0.0, &mut s1, &mut s2);
            }
            if i + 1 < n - 1 {
                both(i, i + 1, 0.0, &mut s1, &mut s2);
            }
            both(i, n - 1, 0.0, &mut s1, &mut s2);
            both(n - 1, i, 0.0, &mut s1, &mut s2);
        }
        both(n - 1, n - 1, 8.0, &mut s1, &mut s2);
        (t1.to_csc(), t2.to_csc())
    }

    #[test]
    fn ordered_factor_matches_dense() {
        let (a, _) = bordered_pair(50, 5);
        let plan = crate::klu::OrderingPlan::for_matrix(&a).unwrap();
        let lu = SparseLu::factor_ordered(&a, &plan).unwrap();
        let b: Vec<f64> = (0..50).map(|i| (0.17 * i as f64).cos()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = numkit::lu::solve_dense(&a.to_dense(), &b).unwrap();
        for (s, d) in xs.iter().zip(xd.iter()) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn ordered_refactor_is_bitwise_identical_to_fresh() {
        for seed in 1..4u64 {
            let (a1, a2) = bordered_pair(40, seed);
            let plan = crate::klu::OrderingPlan::for_matrix(&a1).unwrap();
            let lu1 = SparseLu::factor_ordered(&a1, &plan).unwrap();
            let fresh2 = SparseLu::factor_ordered(&a2, &plan).unwrap();
            let mut reuse2 = lu1.clone();
            reuse2.refactor(&a2).unwrap();
            assert_eq!(fresh2.perm_r, reuse2.perm_r, "seed {seed}");
            assert_eq!(fresh2.perm_c, reuse2.perm_c, "seed {seed}");
            assert_eq!(fresh2.row_scale, reuse2.row_scale, "seed {seed}");
            assert_eq!(fresh2.u_diag, reuse2.u_diag, "seed {seed}");
            assert_eq!(fresh2.u_cols, reuse2.u_cols, "seed {seed}");
            assert_eq!(fresh2.l_cols, reuse2.l_cols, "seed {seed}");
            let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.29).sin()).collect();
            assert_eq!(
                fresh2.solve(&b).unwrap(),
                reuse2.solve(&b).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ordered_factor_handles_badly_scaled_rows() {
        // Rows spanning 12 decades: unscaled threshold pivoting will
        // still solve it, but the equilibrated path must too, and the
        // scales must be the recorded row maxima.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1e9);
        t.push(0, 1, 2e9);
        t.push(1, 0, 1e-3);
        t.push(1, 1, 3e-3);
        t.push(2, 2, 5.0);
        let a = t.to_csc();
        let plan = crate::klu::OrderingPlan::for_matrix(&a).unwrap();
        let lu = SparseLu::factor_ordered(&a, &plan).unwrap();
        let x = lu.solve(&[3e9, 4e-3, 5.0]).unwrap();
        let r = residual_inf(&a, &x, &[3e9, 4e-3, 5.0]);
        assert!(r < 1e-6, "residual {r}"); // |b| ~ 1e9, so 1e-6 ≈ 1e-15 rel
        let s = lu.row_scale.as_ref().unwrap();
        assert_eq!(s[0], 1.0 / 2e9);
        assert_eq!(s[1], 1.0 / 3e-3);
        assert_eq!(s[2], 1.0 / 5.0);
    }

    #[test]
    fn ordered_refactor_rejects_drift_then_fresh_recovers() {
        // Same drifted pair as `refactor_rejects_pivot_order_drift`, but
        // through the ordered (equilibrated, matched-pivot) path: after
        // row scaling the frozen diagonal pivot of column 0 falls below
        // the 0.1 threshold against the grown off-diagonal, so the
        // guard must reject rather than reuse the stale pivot order.
        let mut t1 = Triplets::new(2, 2);
        t1.push(0, 0, 4.0);
        t1.push(1, 0, 1.0);
        t1.push(0, 1, 1.0);
        t1.push(1, 1, 4.0);
        let a1 = t1.to_csc();
        let plan = crate::klu::OrderingPlan::for_matrix(&a1).unwrap();
        let mut lu = SparseLu::factor_ordered(&a1, &plan).unwrap();
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 0.05);
        t2.push(1, 0, 5.0); // dominates even after equilibration
        t2.push(0, 1, 1.0);
        t2.push(1, 1, 4.0);
        let a2 = t2.to_csc();
        assert!(matches!(
            lu.refactor(&a2),
            Err(SparseError::Singular { .. })
        ));
        // The fallback path (fresh ordered factor) still succeeds: the
        // pivot search walks off the matched diagonal.
        let fresh = SparseLu::factor_ordered(&a2, &plan).unwrap();
        let b = vec![1.0; 2];
        let x = fresh.solve(&b).unwrap();
        assert!(residual_inf(&a2, &x, &b) < 1e-12);
    }

    /// Same-pattern pair with several strongly connected diagonal
    /// blocks and random upper (earlier-row, later-column) coupling — a
    /// BTF-rich shape whose elimination spans many blocks.
    fn multiblock_pair(seed: u64) -> (Csc, Csc) {
        let sizes = [6usize, 1, 9, 4, 1, 5];
        let n: usize = sizes.iter().sum();
        let mut s1 = seed;
        let mut s2 = seed.wrapping_mul(131).wrapping_add(17);
        let mut sc = seed.wrapping_mul(977).wrapping_add(3);
        let mut t1 = Triplets::new(n, n);
        let mut t2 = Triplets::new(n, n);
        let mut both = |i: usize, j: usize, base: f64, s1: &mut u64, s2: &mut u64| {
            t1.push(i, j, base + lcg(s1));
            t2.push(i, j, base + lcg(s2));
        };
        let mut starts = Vec::new();
        let mut start = 0;
        for &bs in &sizes {
            starts.push(start);
            for i in 0..bs {
                both(start + i, start + i, 6.0, &mut s1, &mut s2);
                if i > 0 {
                    both(start + i, start + i - 1, 0.0, &mut s1, &mut s2);
                    both(start + i - 1, start + i, 0.0, &mut s1, &mut s2);
                }
            }
            start += bs;
        }
        for p in 0..sizes.len() {
            for q in p + 1..sizes.len() {
                for _ in 0..2 {
                    let i =
                        starts[p] + (((lcg(&mut sc) + 0.5) * sizes[p] as f64) as usize) % sizes[p];
                    let j =
                        starts[q] + (((lcg(&mut sc) + 0.5) * sizes[q] as f64) as usize) % sizes[q];
                    both(i, j, 0.0, &mut s1, &mut s2);
                }
            }
        }
        (t1.to_csc(), t2.to_csc())
    }

    #[test]
    fn ordered_multiblock_factor_matches_dense_lu() {
        for seed in 1..4u64 {
            let (a, _) = multiblock_pair(seed);
            let plan = crate::klu::OrderingPlan::for_matrix(&a).unwrap();
            assert!(plan.nblocks() > 1, "test matrix must be BTF-rich");
            let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.31).sin()).collect();
            let xs = SparseLu::factor_ordered(&a, &plan)
                .unwrap()
                .solve(&b)
                .unwrap();
            let xd = numkit::DenseLu::factor(&a.to_dense())
                .unwrap()
                .solve(&b)
                .unwrap();
            let scale = xd.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            for (s, d) in xs.iter().zip(xd.iter()) {
                assert!((s - d).abs() < 1e-12 * scale, "seed {seed}: {s} vs {d}");
            }
        }
    }

    #[test]
    fn ordered_multiblock_refactor_is_bitwise_identical_to_fresh() {
        for seed in 1..4u64 {
            let (a1, a2) = multiblock_pair(seed);
            let plan = crate::klu::OrderingPlan::for_matrix(&a1).unwrap();
            assert!(plan.nblocks() > 1, "test matrix must be BTF-rich");
            let mut reuse = SparseLu::factor_ordered(&a1, &plan).unwrap();
            reuse.refactor(&a2).unwrap();
            let fresh = SparseLu::factor_ordered(&a2, &plan).unwrap();
            assert_eq!(fresh.perm_r, reuse.perm_r, "seed {seed}");
            assert_eq!(fresh.perm_c, reuse.perm_c, "seed {seed}");
            assert_eq!(fresh.row_scale, reuse.row_scale, "seed {seed}");
            assert_eq!(fresh.u_diag, reuse.u_diag, "seed {seed}");
            assert_eq!(fresh.u_cols, reuse.u_cols, "seed {seed}");
            assert_eq!(fresh.l_cols, reuse.l_cols, "seed {seed}");
            let b: Vec<f64> = (0..a2.nrows()).map(|i| (i as f64 * 0.29).sin()).collect();
            let (xf, xr) = (fresh.solve(&b).unwrap(), reuse.solve(&b).unwrap());
            for (f, r) in xf.iter().zip(xr.iter()) {
                assert_eq!(f.to_bits(), r.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn ordered_factor_fails_at_first_singular_blocks_column() {
        // Three 2x2 blocks chained by upper coupling (rows of block k,
        // columns of block k + 1), so BTF keeps them in index order.
        // Blocks 0 and 2 are all zeros but structurally full, so the
        // plan still builds. Elimination walks the blocks
        // in order and stops at the first column of block 0.
        let build = |singular: [bool; 3]| {
            let mut t = Triplets::new(6, 6);
            for (b, &bad) in singular.iter().enumerate() {
                let o = 2 * b;
                let (d, c) = if bad { (0.0, 0.0) } else { (4.0, 1.0) };
                t.push(o, o, d);
                t.push(o + 1, o + 1, d);
                t.push(o, o + 1, c);
                t.push(o + 1, o, c);
                if b > 0 {
                    t.push(o - 1, o, 1.0);
                }
            }
            t.to_csc()
        };
        let a = build([true, false, true]);
        let plan = crate::klu::OrderingPlan::for_matrix(&a).unwrap();
        assert_eq!(plan.nblocks(), 3);
        let err = SparseLu::factor_ordered(&a, &plan).unwrap_err();
        assert_eq!(err, SparseError::Singular { column: 0 });
        // With block 0 healthy, the failure moves to block 2's first
        // column.
        let a = build([false, false, true]);
        let plan = crate::klu::OrderingPlan::for_matrix(&a).unwrap();
        let err = SparseLu::factor_ordered(&a, &plan).unwrap_err();
        assert_eq!(err, SparseError::Singular { column: 4 });
    }

    #[test]
    fn refactor_then_solve_matches_dense() {
        let (a1, a2) = same_pattern_pair(25, 9);
        let mut lu = SparseLu::factor(&a1).unwrap();
        lu.refactor(&a2).unwrap();
        let b: Vec<f64> = (0..25).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = numkit::lu::solve_dense(&a2.to_dense(), &b).unwrap();
        for (s, d) in xs.iter().zip(xd.iter()) {
            assert!((s - d).abs() < 1e-9);
        }
    }
}
