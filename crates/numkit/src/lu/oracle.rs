//! The textbook dense LU the fast kernel must reproduce bit for bit.
//!
//! Scalar loops over a flat row-major buffer, performing exactly the
//! floating-point operations of [`crate::DenseLu`] in the reference
//! order. Self-contained (no imports) so tests outside this crate can
//! include the same file.

// Index loops on purpose: they spell out the reference operation order.
#![allow(clippy::needless_range_loop)]

/// Factors of the row-major `n × n` matrix: `lu` holds `L` (unit
/// diagonal, below) and `U` (on and above), `perm[i]` is the original
/// row now at row `i`, `sign` the permutation's parity.
pub struct Oracle {
    pub n: usize,
    pub lu: Vec<f64>,
    pub perm: Vec<usize>,
    pub sign: f64,
}

/// Factors `a`; `Err(k)` names the first pivot column that is not above
/// the singularity threshold (or is NaN).
pub fn factor(a: &[f64], n: usize) -> Result<Oracle, usize> {
    assert_eq!(a.len(), n * n, "oracle: square row-major input");
    let mut lu = a.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    let scale = lu.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1.0);
    let tiny = scale * 1e-280;

    for k in 0..n {
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax.partial_cmp(&tiny) != Some(std::cmp::Ordering::Greater) {
            return Err(k);
        }
        if p != k {
            perm.swap(p, k);
            sign = -sign;
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let m = lu[i * n + k] / pivot;
            lu[i * n + k] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    let u = lu[k * n + j];
                    lu[i * n + j] -= m * u;
                }
            }
        }
    }
    Ok(Oracle { n, lu, perm, sign })
}

impl Oracle {
    /// Solves `A·x = b` by permutation, forward and back substitution.
    /// The forward solve subtracts each row's terms in ascending column
    /// order, the back solve in descending column order (LAPACK's
    /// column-oriented `dtrsv`).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * y[j];
            }
            y[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in ((i + 1)..n).rev() {
                acc -= self.lu[i * n + j] * y[j];
            }
            y[i] = acc / self.lu[i * n + i];
        }
        y
    }

    /// `sign · Π U_kk`, multiplied in ascending `k`.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}
