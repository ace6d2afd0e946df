//! Direct solve of block-cyclic banded Jacobians.
//!
//! The quasiperiodic (cyclic) WaMPDE Jacobian has `n1` dense diagonal
//! blocks, one per slow-time slice, and the `t2` stencil couples slice
//! `m` only to slices `m−1, …, m−p` (mod `n1`): `p = 1` for backward
//! Euler and the trapezoidal rule, `p = 2` for BDF2. Ordered by slice,
//! the first `n1 − p` ("interior") slices then form a block lower
//! triangle, and only the wrap-around couplings reach the last `p`
//! ("border") slices:
//!
//! ```text
//! ┌ L  E ┐   L: interior × interior, block lower triangular
//! └ F  B ┘   E, F, B: the couplings to, from and within the border
//! ```
//!
//! [`CyclicLu`] factors each interior diagonal block with
//! [`DenseLu`], keeps every coupling sparse as it arrives, and closes
//! the system with one dense LU of the border's Schur complement
//! `S = B − F·L⁻¹·E` (size `p·bw`). Fill stays confined to `S`, so a
//! factor costs `O(n1·(p + 1)·bw³)` flops where a general sparse LU
//! fills toward dense.

use crate::LinSolveError;
use numkit::{DMat, DenseLu};
use sparsekit::{Csr, Triplets};

/// Block-cyclic structure of a Jacobian: `blocks` diagonal blocks of
/// size `block_dim`, coupled cyclically in the block index.
///
/// Declared by systems that know their own structure (the quasiperiodic
/// WaMPDE system, through `NewtonSystem::cyclic_shape`) and handed to
/// [`crate::FactorCache::set_cyclic_shape`], where it turns the
/// [`crate::LinearSolverKind::Dense`] backend into a block elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclicShape {
    /// Number of cyclic blocks (`n1` slow-time slices).
    pub blocks: usize,
    /// Rows per block (slice unknowns + the per-slice frequency).
    pub block_dim: usize,
}

impl CyclicShape {
    /// Total system dimension `blocks · block_dim`.
    pub fn dim(&self) -> usize {
        self.blocks * self.block_dim
    }
}

/// Block elimination factors of a block-cyclic banded matrix (see the
/// module docs).
#[derive(Debug)]
pub struct CyclicLu {
    interior: Interior,
    /// LU of the border's Schur complement.
    border: DenseLu,
}

/// The matrix with the factors of its interior diagonal blocks.
#[derive(Debug)]
struct Interior {
    /// The matrix, whose off-diagonal entries are the couplings.
    a: Csr,
    /// Per row, how many of its (column-sorted) entries lie left of its
    /// own slice, or left of the border for a border row: the couplings
    /// [`Interior::subtract_lower`] subtracts.
    lower: Vec<usize>,
    bw: usize,
    /// LU of each interior slice's diagonal block.
    diag: Vec<DenseLu>,
}

impl CyclicLu {
    /// Factors `t` as a matrix of the given shape. The border width `p`
    /// is the largest cyclic block distance `(row block − column block)
    /// mod blocks` among the entries.
    ///
    /// # Errors
    ///
    /// [`LinSolveError`] when the matrix is not `shape.dim()` square
    /// (or the shape is empty), or when an interior diagonal block or
    /// the border's Schur complement is singular.
    pub fn factor(t: &Triplets, shape: CyclicShape) -> Result<Self, LinSolveError> {
        let (n1, bw, dim) = (shape.blocks, shape.block_dim, shape.dim());
        if dim == 0 || t.nrows() != dim || t.ncols() != dim {
            return Err(LinSolveError::new(format!(
                "a {}x{} matrix does not have the cyclic shape {n1} blocks of {bw}",
                t.nrows(),
                t.ncols()
            )));
        }
        let a = t.to_csr();
        let p = (0..dim)
            .flat_map(|i| a.row(i).0.iter().map(move |&j| (i / bw + n1 - j / bw) % n1))
            .max()
            .unwrap_or(0);
        let (split, pb) = ((n1 - p) * bw, p * bw);
        let lower = (0..dim)
            .map(|i| {
                a.row(i)
                    .0
                    .partition_point(|&j| j < (i / bw * bw).min(split))
            })
            .collect();
        let diag = (0..n1 - p)
            .map(|r| {
                let mut block = DMat::zeros(bw, bw);
                for i in 0..bw {
                    let (cols, vals) = a.row(r * bw + i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        if j / bw == r {
                            block[(i, j - r * bw)] = v;
                        }
                    }
                }
                DenseLu::factor(&block)
                    .map_err(|e| LinSolveError::new(format!("diagonal block of slice {r}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let interior = Interior { a, lower, bw, diag };

        // S = B − F·(L⁻¹·E), with every column of E in one forward pass:
        // each slice's factors are read once. A row of slice `r` reaches
        // the border only by wrapping, at distance `r + 1` or more, so E
        // has entries in the first `p` slices' rows alone.
        let mut w = vec![0.0; split * pb];
        for i in 0..split.min(pb) {
            for (k, v) in interior.border_entries(i) {
                w[i * pb + k] = v;
            }
        }
        interior.forward(&mut w, pb)?;
        let mut s = DMat::zeros(pb, pb);
        for i in 0..pb {
            let row = &mut s.as_mut_slice()[i * pb..(i + 1) * pb];
            for (k, v) in interior.border_entries(split + i) {
                row[k] = v;
            }
            interior.subtract_lower(split + i, row, &w);
        }
        let border = DenseLu::factor(&s)
            .map_err(|e| LinSolveError::new(format!("border of {p} slices: {e}")))?;
        Ok(CyclicLu { interior, border })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.interior.a.nrows()
    }

    /// Solves `A·x = b`, overwriting `b` with the solution.
    ///
    /// # Errors
    ///
    /// [`LinSolveError`] when `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinSolveError> {
        let dim = self.dim();
        if b.len() != dim {
            return Err(LinSolveError::new(format!(
                "rhs of length {} for {dim} rows",
                b.len()
            )));
        }
        let split = dim - self.border.dim();
        let (head, border) = b.split_at_mut(split);
        // x_B = S⁻¹·(b_B − F·L⁻¹·b_I), then x_I = L⁻¹·(b_I − E·x_B).
        let mut y = head.to_vec();
        self.interior.forward(&mut y, 1)?;
        for (i, bi) in border.chunks_exact_mut(1).enumerate() {
            self.interior.subtract_lower(split + i, bi, &y);
        }
        self.border
            .solve_in_place(border)
            .map_err(LinSolveError::new)?;
        for (i, bi) in head.iter_mut().enumerate().take(border.len()) {
            *bi -= self
                .interior
                .border_entries(i)
                .map(|(k, v)| v * border[k])
                .sum::<f64>();
        }
        self.interior.forward(head, 1)
    }
}

impl Interior {
    /// `X ← L⁻¹·X` on the interior slices for a row-major block `X` of
    /// `m` columns, by block forward substitution.
    fn forward(&self, x: &mut [f64], m: usize) -> Result<(), LinSolveError> {
        if m == 0 {
            return Ok(());
        }
        let bw = self.bw;
        let mut column = vec![0.0; bw];
        for (r, lu) in self.diag.iter().enumerate() {
            let (done, rest) = x.split_at_mut(r * bw * m);
            let block = &mut rest[..bw * m];
            for (i, row) in block.chunks_exact_mut(m).enumerate() {
                self.subtract_lower(r * bw + i, row, done);
            }
            for c in 0..m {
                for (v, row) in column.iter_mut().zip(block.chunks_exact(m)) {
                    *v = row[c];
                }
                lu.solve_in_place(&mut column).map_err(LinSolveError::new)?;
                for (v, row) in column.iter().zip(block.chunks_exact_mut(m)) {
                    row[c] = *v;
                }
            }
        }
        Ok(())
    }

    /// `out ← out − Σ a[row, j]·X[j, ..]` over the row's entries left of
    /// its own slice (left of the border for a border row), with `X`
    /// row-major of `out.len()` columns.
    fn subtract_lower(&self, row: usize, out: &mut [f64], x: &[f64]) {
        let m = out.len();
        let (cols, vals) = self.a.row(row);
        let n = self.lower[row];
        for (&j, &v) in cols[..n].iter().zip(&vals[..n]) {
            for (o, xj) in out.iter_mut().zip(&x[j * m..(j + 1) * m]) {
                *o -= v * xj;
            }
        }
    }

    /// A row's entries in the border's columns, as (border column, value).
    fn border_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let split = self.diag.len() * self.bw;
        let (cols, vals) = self.a.row(row);
        let lo = cols.partition_point(|&j| j < split);
        cols[lo..]
            .iter()
            .zip(&vals[lo..])
            .map(move |(&j, &v)| (j - split, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactorCache, LinearSolverKind, NewtonMatrix};

    /// A xorshift stream of values in `[-1, 1)`.
    fn stream(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// A random block-cyclic matrix: `n1` blocks of `bw`, block row `r`
    /// coupled to blocks `r − d` (mod `n1`) for `d` in `0..=p`, about a
    /// third of the coupling entries zero, and a diagonally dominant
    /// diagonal block.
    fn random_cyclic(n1: usize, bw: usize, p: usize, seed: u64) -> Triplets {
        let mut next = stream(seed);
        let mut t = Triplets::new(n1 * bw, n1 * bw);
        for r in 0..n1 {
            for d in 0..=p {
                let c = (r + n1 - d) % n1;
                for i in 0..bw {
                    for j in 0..bw {
                        let v = next();
                        if d == 0 && i == j {
                            t.push(r * bw + i, c * bw + j, v + 2.0 * (bw * (p + 1)) as f64);
                        } else if d == 0 || v.abs() > 1.0 / 3.0 {
                            t.push(r * bw + i, c * bw + j, v);
                        }
                    }
                }
            }
        }
        t
    }

    fn shape(blocks: usize, block_dim: usize) -> CyclicShape {
        CyclicShape { blocks, block_dim }
    }

    #[test]
    fn matches_dense_lu_at_every_border_width() {
        let bw = 3;
        for p in 0..=2 {
            // N = 1 (p = 0 only) and N = p + 1, where every block row
            // wraps, beside longer cycles.
            let counts = [1, p + 1, p + 2, 7].into_iter().filter(|&n1| n1 > p);
            for n1 in counts {
                let t = random_cyclic(n1, bw, p, 0x9e37 + (p * 64 + n1) as u64);
                let lu = CyclicLu::factor(&t, shape(n1, bw)).unwrap();
                assert_eq!(lu.border.dim(), p * bw, "p {p}, n1 {n1}");
                let mut next = stream(7 + n1 as u64);
                let b: Vec<f64> = (0..n1 * bw).map(|_| next()).collect();
                let mut x = b.clone();
                lu.solve_in_place(&mut x).unwrap();
                let want = DenseLu::factor(&t.to_dense()).unwrap().solve(&b).unwrap();
                let scale = want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                for (got, want) in x.iter().zip(&want) {
                    assert!(
                        (got - want).abs() <= 1e-12 * scale,
                        "p {p}, n1 {n1}: {got} vs {want}"
                    );
                }
                let ax = t.to_csr().matvec(&x);
                let r = ax.iter().zip(&b).map(|(a, b)| (a - b).abs());
                let bmax = b.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                assert!(r.fold(0.0_f64, f64::max) <= 1e-12 * bmax, "p {p}, n1 {n1}");
            }
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let t = random_cyclic(4, 2, 1, 3);
        for bad in [shape(3, 2), shape(4, 3), shape(0, 2), shape(8, 0)] {
            assert!(CyclicLu::factor(&t, bad).is_err(), "{bad:?}");
        }
        let lu = CyclicLu::factor(&t, shape(4, 2)).unwrap();
        assert!(lu.solve_in_place(&mut [0.0; 7]).is_err());
        // Through the cache: the factor fails and nothing is left to solve.
        let mut cache = FactorCache::new(LinearSolverKind::Dense);
        cache.set_cyclic_shape(Some(shape(3, 2)));
        assert!(cache.factor(&NewtonMatrix::Triplets(&t)).is_err());
        assert!(cache.solve_in_place(&mut [0.0; 8]).is_err());
    }

    #[test]
    fn singular_blocks_are_errors() {
        // Slice 1's diagonal block loses its dominant diagonal and its
        // first row: an interior block that cannot be factored.
        let (n1, bw) = (5, 2);
        let t = random_cyclic(n1, bw, 1, 11);
        let mut singular = Triplets::new(n1 * bw, n1 * bw);
        for (r, c, v) in t.iter() {
            if !(r == bw && c / bw == 1) {
                singular.push(r, c, v);
            }
        }
        let err = CyclicLu::factor(&singular, shape(n1, bw)).unwrap_err();
        assert!(err.cause.contains("slice 1"), "{err}");
        // A zero border row makes the Schur complement singular.
        let mut border = Triplets::new(n1 * bw, n1 * bw);
        for (r, c, v) in t.iter() {
            if r != n1 * bw - 1 {
                border.push(r, c, v);
            }
        }
        let err = CyclicLu::factor(&border, shape(n1, bw)).unwrap_err();
        assert!(err.cause.contains("border"), "{err}");
    }

    #[test]
    fn block_solve_matches_column_solves_bit_for_bit() {
        let (n1, bw, m) = (6, 3, 4);
        let t = random_cyclic(n1, bw, 2, 5);
        let mut cache = FactorCache::new(LinearSolverKind::Dense);
        cache.set_cyclic_shape(Some(shape(n1, bw)));
        cache.factor(&NewtonMatrix::Triplets(&t)).unwrap();
        let mut next = stream(17);
        let block: Vec<f64> = (0..n1 * bw * m).map(|_| next()).collect();
        let mut x = block.clone();
        cache.solve_block_in_place(&mut x, m).unwrap();
        for c in 0..m {
            let mut col: Vec<f64> = block.iter().skip(c).step_by(m).copied().collect();
            cache.solve_in_place(&mut col).unwrap();
            for (got, want) in x.iter().skip(c).step_by(m).zip(&col) {
                assert_eq!(got.to_bits(), want.to_bits(), "column {c}");
            }
        }
    }
}
