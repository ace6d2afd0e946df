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
    /// LAPACK-style pivots: step `k` swapped rows `k` and `piv[k]`.
    piv: Vec<usize>,
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
        let mut lu = DenseLu {
            lu: DMat::zeros(0, 0),
            piv: Vec::new(),
            sign: 1.0,
        };
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factors `a` into this object's storage, reallocating only when
    /// the dimension grows — the allocation-free path for Newton loops
    /// that factor a same-sized matrix over and over.
    ///
    /// Bit for bit the same factors as [`DenseLu::factor`].
    ///
    /// # Errors
    ///
    /// As [`DenseLu::factor`]. A singular `a` leaves an empty (0 × 0)
    /// factorisation behind, so a later solve fails instead of using
    /// half-eliminated factors.
    pub fn refactor(&mut self, a: &DMat) -> Result<(), NumError> {
        self.refactor_with(a, Kernel::detect())
    }

    fn refactor_with(&mut self, a: &DMat, kernel: Kernel) -> Result<(), NumError> {
        if a.nrows() != a.ncols() {
            return Err(NumError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        self.lu.clone_from(a);
        self.piv.resize(n, 0);
        let tiny = a.max_abs().max(1.0) * 1e-280;
        match kernel.eliminate(self.lu.as_mut_slice(), n, &mut self.piv, tiny) {
            Ok(sign) => {
                self.sign = sign;
                Ok(())
            }
            Err(pivot) => {
                self.lu = DMat::zeros(0, 0);
                self.piv.clear();
                Err(NumError::Singular { pivot })
            }
        }
    }

    /// Name of the elimination body this CPU runs: `"avx2"` or
    /// `"baseline"`. Both produce identical bits.
    pub fn kernel() -> &'static str {
        Kernel::detect().name()
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
        // y = P·b: replay the elimination's row swaps.
        for (k, &p) in self.piv.iter().enumerate() {
            b.swap(k, p);
        }
        let lu = self.lu.as_slice();
        // Forward solve L·z = y (unit diagonal), four rows per pass for
        // four independent accumulators. Each row still subtracts in
        // ascending column order, so the bits equal a row-at-a-time loop.
        let mut i = 0;
        while i + 4 <= n {
            let row = |t: usize| &lu[(i + t) * n..(i + t) * n + i + t];
            let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
            let (z, y) = b.split_at_mut(i);
            let (mut a0, mut a1, mut a2, mut a3) = (y[0], y[1], y[2], y[3]);
            for ((((zj, l0), l1), l2), l3) in z.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                a0 -= l0 * zj;
                a1 -= l1 * zj;
                a2 -= l2 * zj;
                a3 -= l3 * zj;
            }
            a1 -= r1[i] * a0;
            a2 -= r2[i] * a0;
            a2 -= r2[i + 1] * a1;
            a3 -= r3[i] * a0;
            a3 -= r3[i + 1] * a1;
            a3 -= r3[i + 2] * a2;
            y[..4].copy_from_slice(&[a0, a1, a2, a3]);
            i += 4;
        }
        for i in i..n {
            let (z, y) = b.split_at_mut(i);
            let mut acc = y[0];
            for (l, zj) in lu[i * n..i * n + i].iter().zip(z.iter()) {
                acc -= l * zj;
            }
            y[0] = acc;
        }
        // Back solve U·x = z. Each row subtracts in descending column
        // order, the order of LAPACK's column-oriented `dtrsv`: a row
        // starts on the longest-known unknowns, so four rows per pass run
        // as independent chains until they meet their own triangle. The
        // `n mod 4` bottom rows go first, one at a time.
        let mut i = n - n % 4;
        for i in (i..n).rev() {
            let row = &lu[i * n..(i + 1) * n];
            let (head, x) = b.split_at_mut(i + 1);
            let mut acc = head[i];
            for (u, xj) in row[i + 1..].iter().zip(x.iter()).rev() {
                acc -= u * xj;
            }
            head[i] = acc / row[i];
        }
        while i >= 4 {
            i -= 4;
            let row = |t: usize| &lu[(i + t) * n..(i + t + 1) * n];
            let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
            let (head, x) = b.split_at_mut(i + 4);
            let (mut a0, mut a1, mut a2, mut a3) = (head[i], head[i + 1], head[i + 2], head[i + 3]);
            let j = i + 4;
            for ((((xj, u0), u1), u2), u3) in x
                .iter()
                .zip(&r0[j..])
                .zip(&r1[j..])
                .zip(&r2[j..])
                .zip(&r3[j..])
                .rev()
            {
                a0 -= u0 * xj;
                a1 -= u1 * xj;
                a2 -= u2 * xj;
                a3 -= u3 * xj;
            }
            let x3 = a3 / r3[i + 3];
            a2 -= r2[i + 3] * x3;
            let x2 = a2 / r2[i + 2];
            a1 -= r1[i + 3] * x3;
            a1 -= r1[i + 2] * x2;
            let x1 = a1 / r1[i + 1];
            a0 -= r0[i + 3] * x3;
            a0 -= r0[i + 2] * x2;
            a0 -= r0[i + 1] * x1;
            let x0 = a0 / r0[i];
            head[i..].copy_from_slice(&[x0, x1, x2, x3]);
        }
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

/// The elimination body a CPU runs. Every variant performs the same
/// floating-point operations in the same order — Rust never fuses a
/// multiply and a subtract into an FMA — so all give identical bits;
/// they differ only in vector width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Baseline,
    /// Only constructed by [`Kernel::detect`] on a CPU with AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Baseline
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
        }
    }

    fn eliminate(
        self,
        lu: &mut [f64],
        n: usize,
        piv: &mut [usize],
        tiny: f64,
    ) -> Result<f64, usize> {
        match self {
            Kernel::Baseline => eliminate(lu, n, piv, tiny),
            // SAFETY: `Kernel::Avx2` is only constructed by `detect`,
            // after the running CPU reported AVX2 support.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { eliminate_avx2(lu, n, piv, tiny) },
        }
    }
}

/// [`eliminate`] compiled with AVX2 enabled (four-wide row updates).
/// `fma` stays off: the bits must match the baseline body.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn eliminate_avx2(
    lu: &mut [f64],
    n: usize,
    piv: &mut [usize],
    tiny: f64,
) -> Result<f64, usize> {
    eliminate(lu, n, piv, tiny)
}

/// Gaussian elimination with partial pivoting on the row-major `n × n`
/// buffer `lu`, in place: `L` below the diagonal, `U` on and above.
/// Records the pivot row of step `k` in `piv[k]` and returns the
/// permutation's sign, or the first step whose pivot is not above `tiny`
/// (NaN included).
///
/// The operation sequence is the textbook one: the pivot is the first
/// row with the largest `|a_ik|` (strict `>`), rows swap whole, the
/// multiplier `m = a_ik / pivot` is stored, a row with `m == 0.0` is
/// skipped, and `a_ij -= m·u_kj` runs in ascending `j`. Only the pivot
/// search moves: column `k + 1` is scanned while step `k` updates its
/// rows, in the same row order, instead of in a second strided pass.
#[inline(always)]
fn eliminate(lu: &mut [f64], n: usize, piv: &mut [usize], tiny: f64) -> Result<f64, usize> {
    let mut sign = 1.0;
    if n == 0 {
        return Ok(sign);
    }
    let (mut p, mut pmax) = (0, lu[0].abs());
    for (i, v) in lu.iter().step_by(n).enumerate().skip(1) {
        let v = v.abs();
        if v > pmax {
            (p, pmax) = (i, v);
        }
    }
    for k in 0..n {
        // `partial_cmp` so a NaN pivot column fails too (`pmax <= tiny`
        // is false for NaN): a non-finite matrix must not factor.
        if pmax.partial_cmp(&tiny) != Some(std::cmp::Ordering::Greater) {
            return Err(k);
        }
        piv[k] = p;
        let (upper, lower) = lu.split_at_mut((k + 1) * n);
        let row_k = &mut upper[k * n..];
        if p != k {
            sign = -sign;
            row_k.swap_with_slice(&mut lower[(p - k - 1) * n..(p - k) * n]);
        }
        let (pivot, u) = (row_k[k], &row_k[k + 1..]);
        let mut rows = lower.chunks_exact_mut(n);
        if let Some(first) = rows.next() {
            eliminate_row(first, k, pivot, u);
            (p, pmax) = (k + 1, first[k + 1].abs());
            for (i, row) in (k + 2..).zip(rows) {
                eliminate_row(row, k, pivot, u);
                let v = row[k + 1].abs();
                if v > pmax {
                    (p, pmax) = (i, v);
                }
            }
        }
    }
    Ok(sign)
}

/// Step `k` on one row below the pivot row `u` (from column `k + 1`).
#[inline(always)]
fn eliminate_row(row: &mut [f64], k: usize, pivot: f64, u: &[f64]) {
    let m = row[k] / pivot;
    row[k] = m;
    if m != 0.0 {
        for (a, uj) in row[k + 1..].iter_mut().zip(u) {
            *a -= m * uj;
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
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The kernels this CPU can run: the baseline body, plus AVX2 when
    /// available.
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Baseline];
        if Kernel::detect() != Kernel::Baseline {
            ks.push(Kernel::detect());
        }
        ks
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The row permutation the pivots describe: `perm[i]` is the
    /// original row now at row `i`.
    fn perm(lu: &DenseLu) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..lu.dim()).collect();
        for (k, &p) in lu.piv.iter().enumerate() {
            perm.swap(k, p);
        }
        perm
    }

    /// Refactors `lu` from `a` with `kernel` and asserts every observable
    /// — factors, permutation, sign, determinant, singular pivot index,
    /// solutions — equals the oracle's bit for bit.
    fn assert_matches_oracle(a: &DMat, kernel: Kernel, lu: &mut DenseLu, rhs: &[f64]) {
        let n = a.nrows();
        let want = oracle::factor(a.as_slice(), n);
        match (want, lu.refactor_with(a, kernel)) {
            (Ok(o), Ok(())) => {
                assert_eq!(bits(lu.lu.as_slice()), bits(&o.lu), "{kernel:?} n={n}: lu");
                assert_eq!(perm(lu), o.perm, "{kernel:?} n={n}: perm");
                assert_eq!(lu.sign.to_bits(), o.sign.to_bits(), "{kernel:?}: sign");
                assert_eq!(lu.det().to_bits(), o.det().to_bits(), "{kernel:?}: det");
                let b = &rhs[..n];
                let x = lu.solve(b).unwrap();
                assert_eq!(bits(&x), bits(&o.solve(b)), "{kernel:?} n={n}: solve");
            }
            (Err(k), Err(NumError::Singular { pivot })) => {
                assert_eq!(pivot, k, "{kernel:?} n={n}: singular pivot");
            }
            (want, got) => panic!(
                "{kernel:?} n={n}: oracle {:?}, kernel {got:?}",
                want.map(|_| ())
            ),
        }
    }

    /// SplitMix64: a self-contained stream for structured test matrices.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }
    }

    /// An `n × n` matrix in one of several flavours: dense random; sparse
    /// (exact-zero multipliers, ±0.0); small integers (tied pivot
    /// magnitudes); diagonally boosted with zeroed rows and columns; and,
    /// on top of any flavour, occasional NaN/±inf entries.
    fn structured(n: usize, s: &mut Stream) -> DMat {
        let flavour = s.below(4);
        let mut a = DMat::zeros(n, n);
        for v in a.as_mut_slice() {
            *v = match flavour {
                0 => s.unit(),
                1 => match s.below(10) {
                    0..=5 => 0.0,
                    6 => -0.0,
                    _ => s.unit(),
                },
                2 => [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0][s.below(6)],
                _ => s.unit(),
            };
        }
        if flavour == 3 {
            for i in 0..n {
                a[(i, i)] += 4.0;
            }
            for _ in 0..s.below(3) {
                let r = s.below(n);
                a.row_mut(r).fill(0.0);
                let c = s.below(n);
                for i in 0..n {
                    a[(i, c)] = -0.0;
                }
            }
        }
        if s.below(4) == 0 {
            for _ in 0..=s.below(2) {
                let (i, j) = (s.below(n), s.below(n));
                a[(i, j)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][s.below(3)];
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kernel equals the textbook oracle bit for bit on every
        /// body this CPU runs, with one `DenseLu` refactored across
        /// dimension changes (and past singular failures).
        #[test]
        fn kernel_matches_oracle_bit_for_bit(
            dims in prop::collection::vec(1usize..97, 1..4),
            seed in 0u64..u64::MAX,
        ) {
            for kernel in kernels() {
                let mut s = Stream(seed);
                let mut lu = DenseLu::factor(&DMat::identity(1)).unwrap();
                for &n in &dims {
                    let a = structured(n, &mut s);
                    let rhs: Vec<f64> = (0..n).map(|_| s.unit()).collect();
                    assert_matches_oracle(&a, kernel, &mut lu, &rhs);
                }
            }
        }
    }

    /// An `n × n` matrix of the oracle's boosted flavour without its
    /// zeroed lines or non-finite entries: uniform in `[−1, 1]`, plus 4
    /// on the diagonal.
    fn boosted(n: usize, s: &mut Stream) -> DMat {
        let mut a = DMat::from_fn(n, n, |_, _| s.unit());
        for i in 0..n {
            a[(i, i)] += 4.0;
        }
        a
    }

    /// Normwise backward error `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞)`.
    fn backward_error(a: &DMat, x: &[f64], b: &[f64]) -> f64 {
        let a_norm = (0..a.nrows())
            .map(|i| a.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max);
        let x_norm = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        residual_inf(a, x, b) / (a_norm * x_norm)
    }

    /// Solves on the oracle's factors with each back-substitution row
    /// subtracting in ascending column order.
    #[allow(clippy::needless_range_loop)] // the oracle's index loops
    fn solve_ascending(o: &oracle::Oracle, b: &[f64]) -> Vec<f64> {
        let n = o.n;
        let mut y: Vec<f64> = o.perm.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= o.lu[i * n + j] * y[j];
            }
            y[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in i + 1..n {
                acc -= o.lu[i * n + j] * y[j];
            }
            y[i] = acc / o.lu[i * n + i];
        }
        y
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Back substitution in descending column order is as accurate
        /// as in ascending order: its normwise backward error is within
        /// 2× of the ascending solve's on the same factors (floored at
        /// one ε, where either may round to an exact answer) and under
        /// `8·n·ε`.
        #[test]
        fn descending_back_substitution_is_as_accurate_as_ascending(
            n in 1usize..97,
            seed in 0u64..u64::MAX,
        ) {
            let mut s = Stream(seed);
            let a = boosted(n, &mut s);
            let b: Vec<f64> = (0..n).map(|_| s.unit()).collect();
            let o = oracle::factor(a.as_slice(), n).expect("a boosted matrix factors");
            let x = DenseLu::factor(&a).unwrap().solve(&b).unwrap();
            let eps = f64::EPSILON;
            let descending = backward_error(&a, &x, &b);
            let ascending = backward_error(&a, &solve_ascending(&o, &b), &b);
            prop_assert!(
                descending <= 2.0 * ascending.max(eps),
                "n={} descending {:e} vs ascending {:e}", n, descending, ascending
            );
            prop_assert!(descending <= 8.0 * n as f64 * eps, "n={} {:e}", n, descending);
        }
    }

    #[test]
    fn tied_pivots_pick_the_first_row() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 0.0], &[-2.0, 1.0, 1.0], &[2.0, 0.0, 3.0]]);
        for kernel in kernels() {
            let mut lu = DenseLu::factor(&DMat::identity(1)).unwrap();
            assert_matches_oracle(&a, kernel, &mut lu, &[1.0, 2.0, 3.0]);
            assert_eq!(perm(&lu)[0], 1);
        }
    }

    #[test]
    fn refactor_rejects_non_square_and_recovers() {
        let mut lu = DenseLu::factor(&DMat::identity(2)).unwrap();
        assert!(matches!(
            lu.refactor(&DMat::zeros(2, 3)),
            Err(NumError::DimensionMismatch { .. })
        ));
        let a = DMat::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]);
        lu.refactor(&a).unwrap();
        assert_eq!(lu.solve(&[2.0, 4.0]).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn failed_refactor_leaves_nothing_to_solve_against() {
        let mut lu = DenseLu::factor(&DMat::identity(3)).unwrap();
        let singular = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            lu.refactor(&singular),
            Err(NumError::Singular { pivot: 1 })
        ));
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn kernel_name_is_reported() {
        assert!(["avx2", "baseline"].contains(&DenseLu::kernel()));
    }
}
