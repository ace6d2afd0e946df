//! The abstract DAE interface (paper eq. (12)) and Jacobian validation.

use numkit::DMat;
use sparsekit::Triplets;

/// The structural sparsity pattern of a DAE's Jacobians: the union of the
/// positions `C = ∂q/∂x` and `G = ∂f/∂x` can ever touch, independent of
/// the evaluation point.
///
/// Sparse-capable consumers use it to size assembly buffers and decide
/// whether a sparse backend is worthwhile; [`Pattern::dense`] (every
/// position) is the contract-safe default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    n: usize,
    entries: Vec<(usize, usize)>,
}

impl Pattern {
    /// The full `n × n` pattern (the default for DAEs without sparse
    /// stamping).
    pub fn dense(n: usize) -> Self {
        Pattern {
            n,
            entries: (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect(),
        }
    }

    /// Builds a pattern from raw (possibly duplicated, unsorted)
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics when a coordinate is out of bounds.
    pub fn from_entries(n: usize, mut entries: Vec<(usize, usize)>) -> Self {
        for &(r, c) in &entries {
            assert!(r < n && c < n, "pattern entry ({r},{c}) out of bounds");
        }
        entries.sort_unstable();
        entries.dedup();
        Pattern { n, entries }
    }

    /// System dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzero positions.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fill fraction `nnz / n²` (1.0 for the dense pattern).
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n * self.n) as f64
    }

    /// True when every position is structurally nonzero.
    pub fn is_dense(&self) -> bool {
        self.nnz() == self.n * self.n
    }

    /// Whether position `(row, col)` is structurally nonzero.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.entries.binary_search(&(row, col)).is_ok()
    }

    /// The sorted, deduplicated structural positions.
    pub fn entries(&self) -> &[(usize, usize)] {
        &self.entries
    }
}

/// A nonlinear differential-algebraic system
/// `d/dt q(x(t)) + f(x(t)) = b(t)` with analytic Jacobians.
///
/// All engines in the workspace (transient, shooting, harmonic balance,
/// MPDE, WaMPDE) consume this trait, so any struct implementing it — an
/// MNA circuit, a mechanical model, a hand-written ODE — can be run
/// through every method unchanged.
///
/// Implementations must guarantee:
///
/// * `q`, `f` depend on `x` only; all explicit time dependence lives in `b`
///   (this is what the multi-time formulations exploit);
/// * Jacobians are consistent with the values (validated in tests via
///   [`check_jacobians`]).
pub trait Dae {
    /// Number of unknowns `n`.
    fn dim(&self) -> usize;

    /// Charge/flux-like state `q(x)` into `out` (length `n`).
    fn eval_q(&self, x: &[f64], out: &mut [f64]);

    /// Resistive term `f(x)` into `out` (length `n`).
    fn eval_f(&self, x: &[f64], out: &mut [f64]);

    /// Forcing `b(t)` into `out` (length `n`).
    fn eval_b(&self, t: f64, out: &mut [f64]);

    /// Jacobian `C(x) = ∂q/∂x` into `out` (`n × n`). Callers may pass a
    /// matrix holding anything: implementations overwrite every entry
    /// (an accumulating one calls [`DMat::fill_zero`] first).
    fn jac_q(&self, x: &[f64], out: &mut DMat);

    /// Jacobian `G(x) = ∂f/∂x` into `out` (`n × n`); every entry is
    /// overwritten, as in [`Dae::jac_q`].
    fn jac_f(&self, x: &[f64], out: &mut DMat);

    /// Human-readable unknown names, for reporting. Defaults to `x0..`.
    fn var_names(&self) -> Vec<String> {
        (0..self.dim()).map(|i| format!("x{i}")).collect()
    }

    /// Structural sparsity of the Jacobians (union of `C` and `G`
    /// positions over all `x`). The default claims the full dense pattern;
    /// implementations with device-level stamps (notably
    /// [`crate::CircuitDae`]) report the true pattern so sparse backends
    /// can exploit it.
    fn sparsity(&self) -> Pattern {
        Pattern::dense(self.dim())
    }

    /// Jacobian `C(x) = ∂q/∂x` pushed as triplets into `out` (duplicates
    /// sum on conversion; the caller provides a cleared `n × n` buffer).
    ///
    /// The default falls back to dense stamping and pushes *every* entry
    /// — zeros included — so the emitted pattern is stable across `x` and
    /// consistent with the default [`Dae::sparsity`]. Sparse
    /// implementations must keep their pattern within [`Dae::sparsity`]
    /// and x-independent.
    fn jac_q_triplets(&self, x: &[f64], out: &mut Triplets) {
        let n = self.dim();
        let mut m = DMat::zeros(n, n);
        self.jac_q(x, &mut m);
        for i in 0..n {
            for j in 0..n {
                out.push(i, j, m[(i, j)]);
            }
        }
    }

    /// Jacobian `G(x) = ∂f/∂x` pushed as triplets into `out`; same
    /// contract as [`Dae::jac_q_triplets`].
    fn jac_f_triplets(&self, x: &[f64], out: &mut Triplets) {
        let n = self.dim();
        let mut m = DMat::zeros(n, n);
        self.jac_f(x, &mut m);
        for i in 0..n {
            for j in 0..n {
                out.push(i, j, m[(i, j)]);
            }
        }
    }

    /// [`Dae::jac_q_triplets`] with a thread-count hint. No solver in
    /// the workspace calls it: stamping is serial everywhere. Kept for
    /// perfbench, whose timing `Dae` wrapper forwards it. The default
    /// ignores the hint; an override must push the same entry sequence
    /// as the serial method.
    fn jac_q_triplets_threads(&self, x: &[f64], out: &mut Triplets, _threads: usize) {
        self.jac_q_triplets(x, out);
    }

    /// [`Dae::jac_f_triplets`] with a thread-count hint. Kept for
    /// perfbench, like [`Dae::jac_q_triplets_threads`].
    fn jac_f_triplets_threads(&self, x: &[f64], out: &mut Triplets, _threads: usize) {
        self.jac_f_triplets(x, out);
    }
}

/// Per-sample Jacobian blocks `(C_s, G_s)` of a stacked sample-major
/// state (`x[s·n + i]` = variable `i` at sample `s`) — the building
/// blocks every collocation-style consumer (HB, MPDE, WaMPDE, repro)
/// hands to `linsolve::JacobianParts`.
///
/// # Panics
///
/// Panics when `x.len()` is not a multiple of `dae.dim()`.
pub fn jac_blocks<D: Dae + ?Sized>(dae: &D, x: &[f64]) -> (Vec<DMat>, Vec<DMat>) {
    let n = dae.dim();
    assert!(
        x.len().is_multiple_of(n),
        "stacked state length must be n·N0"
    );
    let blocks = || (0..x.len() / n).map(|_| DMat::zeros(n, n)).collect();
    let (mut cblocks, mut gblocks): (Vec<DMat>, Vec<DMat>) = (blocks(), blocks());
    jac_blocks_into(dae, x, &mut cblocks, &mut gblocks);
    (cblocks, gblocks)
}

/// [`jac_blocks`] into caller-owned `n × n` blocks, one `C_s` and one
/// `G_s` per sample: the form a Newton system that stamps a Jacobian per
/// iteration reuses.
///
/// # Panics
///
/// Panics when the block counts differ or `x.len()` is not `n` times
/// their count.
pub fn jac_blocks_into<D: Dae + ?Sized>(
    dae: &D,
    x: &[f64],
    cblocks: &mut [DMat],
    gblocks: &mut [DMat],
) {
    let n = dae.dim();
    assert_eq!(cblocks.len(), gblocks.len(), "one C and one G per sample");
    assert_eq!(
        x.len(),
        n * cblocks.len(),
        "stacked state length must be n·N0"
    );
    for (s, (c, g)) in cblocks.iter_mut().zip(gblocks.iter_mut()).enumerate() {
        let xs = &x[s * n..(s + 1) * n];
        dae.jac_q(xs, c);
        dae.jac_f(xs, g);
    }
}

/// Evaluates the instantaneous DAE residual `C(x)·xdot + f(x) − b(t)`.
///
/// Useful for verifying that a candidate `(x, ẋ)` pair satisfies the
/// system, e.g. when validating reconstructed WaMPDE solutions.
pub fn dae_residual<D: Dae + ?Sized>(dae: &D, t: f64, x: &[f64], xdot: &[f64]) -> Vec<f64> {
    let n = dae.dim();
    let mut c = DMat::zeros(n, n);
    dae.jac_q(x, &mut c);
    let mut r = c.matvec(xdot);
    let mut f = vec![0.0; n];
    dae.eval_f(x, &mut f);
    let mut b = vec![0.0; n];
    dae.eval_b(t, &mut b);
    for i in 0..n {
        r[i] += f[i] - b[i];
    }
    r
}

/// Validates analytic Jacobians against central finite differences at `x`.
///
/// Returns the maximum absolute deviation over both Jacobians; tests
/// assert it is below a tolerance scaled to the Jacobian magnitude.
pub fn check_jacobians<D: Dae + ?Sized>(dae: &D, x: &[f64]) -> f64 {
    let n = dae.dim();
    let mut cq = DMat::zeros(n, n);
    let mut cf = DMat::zeros(n, n);
    dae.jac_q(x, &mut cq);
    dae.jac_f(x, &mut cf);

    let scale_q = cq.max_abs().max(1.0);
    let scale_f = cf.max_abs().max(1.0);

    let mut worst = 0.0_f64;
    let mut xp = x.to_vec();
    let mut qp = vec![0.0; n];
    let mut qm = vec![0.0; n];
    let mut fp = vec![0.0; n];
    let mut fm = vec![0.0; n];

    for j in 0..n {
        let h = 1e-6 * (1.0 + x[j].abs());
        xp[j] = x[j] + h;
        dae.eval_q(&xp, &mut qp);
        dae.eval_f(&xp, &mut fp);
        xp[j] = x[j] - h;
        dae.eval_q(&xp, &mut qm);
        dae.eval_f(&xp, &mut fm);
        xp[j] = x[j];
        for i in 0..n {
            let dq = (qp[i] - qm[i]) / (2.0 * h);
            let df = (fp[i] - fm[i]) / (2.0 * h);
            worst = worst.max((dq - cq[(i, j)]).abs() / scale_q);
            worst = worst.max((df - cf[(i, j)]).abs() / scale_f);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately nonlinear scalar DAE: q = x³/3, f = sin(x), b = cos t.
    struct Cubic;

    impl Dae for Cubic {
        fn dim(&self) -> usize {
            1
        }
        fn eval_q(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0].powi(3) / 3.0;
        }
        fn eval_f(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0].sin();
        }
        fn eval_b(&self, t: f64, out: &mut [f64]) {
            out[0] = t.cos();
        }
        fn jac_q(&self, x: &[f64], out: &mut DMat) {
            out[(0, 0)] = x[0] * x[0];
        }
        fn jac_f(&self, x: &[f64], out: &mut DMat) {
            out[(0, 0)] = x[0].cos();
        }
    }

    #[test]
    fn jacobian_check_accepts_consistent_dae() {
        assert!(check_jacobians(&Cubic, &[0.7]) < 1e-7);
        assert!(check_jacobians(&Cubic, &[-1.3]) < 1e-7);
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        // Pick x(t)=1, xdot=0 at t with cos t = sin 1 => residual 0.
        let t = (1.0_f64.sin()).acos();
        let r = dae_residual(&Cubic, t, &[1.0], &[0.0]);
        assert!(r[0].abs() < 1e-12);
    }

    #[test]
    fn default_var_names() {
        assert_eq!(Cubic.var_names(), vec!["x0".to_string()]);
    }

    #[test]
    fn default_sparse_interface_falls_back_to_dense() {
        let x = [0.7];
        assert!(Cubic.sparsity().is_dense());
        assert_eq!(Cubic.sparsity().nnz(), 1);
        let mut tq = Triplets::new(1, 1);
        Cubic.jac_q_triplets(&x, &mut tq);
        let mut dq = DMat::zeros(1, 1);
        Cubic.jac_q(&x, &mut dq);
        assert_eq!(tq.to_dense()[(0, 0)], dq[(0, 0)]);
        let mut tf = Triplets::new(1, 1);
        Cubic.jac_f_triplets(&x, &mut tf);
        let mut df = DMat::zeros(1, 1);
        Cubic.jac_f(&x, &mut df);
        assert_eq!(tf.to_dense()[(0, 0)], df[(0, 0)]);
    }

    #[test]
    fn pattern_dedup_and_queries() {
        let p = Pattern::from_entries(3, vec![(2, 1), (0, 0), (2, 1), (1, 2)]);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.n(), 3);
        assert!(p.contains(0, 0) && p.contains(2, 1) && p.contains(1, 2));
        assert!(!p.contains(1, 1));
        assert!(!p.is_dense());
        assert!((p.density() - 3.0 / 9.0).abs() < 1e-15);
        assert_eq!(p.entries(), &[(0, 0), (1, 2), (2, 1)]);
        let d = Pattern::dense(2);
        assert!(d.is_dense());
        assert_eq!(d.nnz(), 4);
    }

    #[test]
    #[should_panic]
    fn pattern_rejects_out_of_bounds() {
        let _ = Pattern::from_entries(2, vec![(2, 0)]);
    }
}
