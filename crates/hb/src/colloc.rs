//! Spectral collocation core shared by harmonic balance and the WaMPDE.
//!
//! State layout: the `n·N0` collocation unknowns are **sample-major** —
//! `x[s*n + i]` holds variable `i` at warped-time sample `t1 = s/N0`. This
//! keeps the per-sample device Jacobians contiguous, so the big Jacobian
//! assembles from `n×n` blocks:
//!
//! ```text
//! ∂r[s]/∂x[s'] = δ_{ss'}·(extra_s + G_s)  +  ω·D[s][s']·C_{s'}
//! ```
//!
//! [`Colloc::parts`] is the one place that describes such a Jacobian to
//! the shared `linsolve` layer.

use circuitdae::Dae;
use linsolve::JacobianParts;
use numkit::DMat;

/// Collocation workspace for one (warped) periodic axis.
#[derive(Debug, Clone)]
pub struct Colloc {
    /// DAE dimension `n`.
    pub n: usize,
    /// Odd sample count `N0 = 2M+1`.
    pub n0: usize,
    /// Spectral differentiation matrix (`N0 × N0`) for unit period.
    pub dmat: DMat,
}

impl Colloc {
    /// Checks a grid request, and with `phase = Some((k, l))` a phase
    /// condition on variable `k` at harmonic `l`: the inputs on which
    /// [`Colloc::new`] and [`Colloc::phase_row`] would panic come back as
    /// a message for the solver's own `BadInput`.
    ///
    /// # Errors
    ///
    /// When `dae_dim` or `harmonics` is zero, `k >= dae_dim`, or `l` is
    /// not in `1..=harmonics`.
    pub fn check(
        dae_dim: usize,
        harmonics: usize,
        phase: Option<(usize, usize)>,
    ) -> Result<(), String> {
        if dae_dim == 0 {
            return Err("dae dimension must be positive".into());
        }
        if harmonics == 0 {
            return Err("need at least one harmonic".into());
        }
        match phase {
            Some((k, _)) if k >= dae_dim => Err(format!(
                "phase variable {k} out of range (dae dimension {dae_dim})"
            )),
            Some((_, l)) if l == 0 || l > harmonics => {
                Err(format!("phase harmonic {l} out of range 1..={harmonics}"))
            }
            _ => Ok(()),
        }
    }

    /// Creates a collocation grid with `2·harmonics + 1` samples.
    ///
    /// # Panics
    ///
    /// Panics when `harmonics == 0` or `dae_dim == 0` (see
    /// [`Colloc::check`]).
    pub fn new(dae_dim: usize, harmonics: usize) -> Self {
        if let Err(msg) = Self::check(dae_dim, harmonics, None) {
            panic!("{msg}");
        }
        let n0 = 2 * harmonics + 1;
        Colloc {
            n: dae_dim,
            n0,
            dmat: fourier::spectral_diff_matrix(n0),
        }
    }

    /// Total collocation unknowns `n·N0`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n * self.n0
    }

    /// True when the grid is empty (never — kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of variable `i` at sample `s`.
    #[inline]
    pub fn idx(&self, s: usize, i: usize) -> usize {
        s * self.n + i
    }

    /// Warped-time coordinate of sample `s`.
    #[inline]
    pub fn t1(&self, s: usize) -> f64 {
        s as f64 / self.n0 as f64
    }

    /// Evaluates `q` at every sample of the stacked state `x` into `out`
    /// (both `n·N0`, sample-major).
    pub fn eval_q_all<D: Dae + ?Sized>(&self, dae: &D, x: &[f64], out: &mut [f64]) {
        for s in 0..self.n0 {
            let lo = s * self.n;
            dae.eval_q(&x[lo..lo + self.n], &mut out[lo..lo + self.n]);
        }
    }

    /// Evaluates `f` at every sample.
    pub fn eval_f_all<D: Dae + ?Sized>(&self, dae: &D, x: &[f64], out: &mut [f64]) {
        for s in 0..self.n0 {
            let lo = s * self.n;
            dae.eval_f(&x[lo..lo + self.n], &mut out[lo..lo + self.n]);
        }
    }

    /// Applies the spectral derivative along the sample axis:
    /// `out[s][i] = Σ_{s'} D[s][s']·vals[s'][i]`.
    ///
    /// Each entry sums in ascending `s'` from `+0.0` and skips the terms
    /// whose `D[s][s']` is zero, the textbook loop's bits. The work runs
    /// in tiles of up to 4 samples × 4 variables held in registers over
    /// one pass of `s'`; a zero coefficient adds a selected `0.0`, which
    /// leaves a sum that starts at `+0.0` unchanged (it can never reach
    /// `−0.0`) and, unlike `0·v`, cannot turn an infinite `v` into NaN.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn apply_diff(&self, vals: &[f64], out: &mut [f64]) {
        assert_eq!(vals.len(), self.len(), "apply_diff: vals length");
        assert_eq!(out.len(), self.len(), "apply_diff: out length");
        let mut s = 0;
        while s < self.n0 {
            let rows = (self.n0 - s).min(4);
            match rows {
                4 => self.diff_rows::<4>(s, vals, out),
                3 => self.diff_rows::<3>(s, vals, out),
                2 => self.diff_rows::<2>(s, vals, out),
                _ => self.diff_rows::<1>(s, vals, out),
            }
            s += rows;
        }
    }

    /// [`Colloc::apply_diff`] on the `R` output samples from `s`.
    #[inline(always)]
    fn diff_rows<const R: usize>(&self, s: usize, vals: &[f64], out: &mut [f64]) {
        let mut i = 0;
        while i < self.n {
            let cols = (self.n - i).min(4);
            match cols {
                4 => self.diff_tile::<R, 4>(s, i, vals, out),
                3 => self.diff_tile::<R, 3>(s, i, vals, out),
                2 => self.diff_tile::<R, 2>(s, i, vals, out),
                _ => self.diff_tile::<R, 1>(s, i, vals, out),
            }
            i += cols;
        }
    }

    /// One `R × C` tile of [`Colloc::apply_diff`]: samples `s..s + R`,
    /// variables `i..i + C`.
    #[inline(always)]
    fn diff_tile<const R: usize, const C: usize>(
        &self,
        s: usize,
        i: usize,
        vals: &[f64],
        out: &mut [f64],
    ) {
        let n = self.n;
        let d: [&[f64]; R] = std::array::from_fn(|r| self.dmat.row(s + r));
        let mut acc = [[0.0_f64; C]; R];
        for (sp, vrow) in vals.chunks_exact(n).enumerate() {
            let v: &[f64; C] = vrow[i..i + C].try_into().expect("tile width");
            for (acc_r, d_r) in acc.iter_mut().zip(&d) {
                let dr = d_r[sp];
                for (a, vc) in acc_r.iter_mut().zip(v) {
                    *a += if dr == 0.0 { 0.0 } else { dr * vc };
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let lo = (s + r) * n + i;
            out[lo..lo + C].copy_from_slice(acc_r);
        }
    }

    /// Coefficient vector of the phase-condition row
    /// `Im{X̂ᵏ_l} = −(1/N0)·Σ_s sin(2πls/N0)·x[s][k] = 0`
    /// (paper eq. (20)): the imaginary part of the `l`-th Fourier
    /// coefficient of variable `k`, which pins the free translation along
    /// the warped axis.
    ///
    /// # Panics
    ///
    /// Panics when `k >= n` or `l` is zero or above the harmonic count
    /// (see [`Colloc::check`]).
    pub fn phase_row(&self, k: usize, l: usize) -> Vec<f64> {
        if let Err(msg) = Self::check(self.n, self.n0 / 2, Some((k, l))) {
            panic!("{msg}");
        }
        let mut row = vec![0.0; self.len()];
        for s in 0..self.n0 {
            let arg = 2.0 * std::f64::consts::PI * (l * s) as f64 / self.n0 as f64;
            row[self.idx(s, k)] = -arg.sin() / self.n0 as f64;
        }
        row
    }

    /// Evaluates the imaginary part of the `l`-th Fourier coefficient of
    /// variable `k` for a stacked state — the quantity [`Colloc::phase_row`]
    /// sets to zero.
    pub fn phase_value(&self, x: &[f64], k: usize, l: usize) -> f64 {
        let row = self.phase_row(k, l);
        row.iter().zip(x.iter()).map(|(a, b)| a * b).sum()
    }

    /// The collocation Jacobian on this grid,
    /// `J[s,s'] = δ_{ss'}·(inv_h·C_s + θ·G_s) + θ·ω·D[s,s']·C_{s'}`, from
    /// the per-sample `C_s = ∂q/∂x` and `G_s = ∂f/∂x`, optionally bordered
    /// by a (phase row, `∂r/∂ω` column) pair. `inv_h = 0`, `θ = 1` is
    /// harmonic balance; see [`JacobianParts`] for the coefficients.
    pub fn parts<'a>(
        &'a self,
        cblocks: &'a [DMat],
        gblocks: &'a [DMat],
        inv_h: f64,
        theta: f64,
        omega: f64,
        border: Option<(&'a [f64], &'a [f64])>,
    ) -> JacobianParts<'a> {
        JacobianParts {
            n: self.n,
            n0: self.n0,
            dmat: &self.dmat,
            cblocks,
            gblocks,
            inv_h,
            theta,
            omega,
            border,
        }
    }

    /// Extracts the samples of variable `i` as a contiguous vector
    /// (length `N0`), e.g. for trigonometric interpolation.
    pub fn extract_var(&self, x: &[f64], i: usize) -> Vec<f64> {
        (0..self.n0).map(|s| x[self.idx(s, i)]).collect()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::VanDerPol;
    use circuitdae::circuits;
    use linsolve::{FactorCache, LinearSolverKind, NewtonMatrix};

    #[test]
    fn indexing_layout() {
        let c = Colloc::new(3, 2);
        assert_eq!(c.n0, 5);
        assert_eq!(c.len(), 15);
        assert_eq!(c.idx(0, 0), 0);
        assert_eq!(c.idx(1, 0), 3);
        assert_eq!(c.idx(2, 1), 7);
        assert!((c.t1(1) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn apply_diff_on_harmonic() {
        let c = Colloc::new(1, 3); // n0 = 7
        let two_pi = 2.0 * std::f64::consts::PI;
        let x: Vec<f64> = (0..7).map(|s| (two_pi * s as f64 / 7.0).sin()).collect();
        let mut out = vec![0.0; 7];
        c.apply_diff(&x, &mut out);
        for (s, o) in out.iter().enumerate() {
            let want = two_pi * (two_pi * s as f64 / 7.0).cos();
            assert!((o - want).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_diff_multivar() {
        // Two variables carrying different harmonics must not mix.
        let c = Colloc::new(2, 2); // n0 = 5
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut x = vec![0.0; c.len()];
        for s in 0..5 {
            let t = s as f64 / 5.0;
            x[c.idx(s, 0)] = (two_pi * t).cos();
            x[c.idx(s, 1)] = (2.0 * two_pi * t).sin();
        }
        let mut out = vec![0.0; c.len()];
        c.apply_diff(&x, &mut out);
        for s in 0..5 {
            let t = s as f64 / 5.0;
            let want0 = -two_pi * (two_pi * t).sin();
            let want1 = 2.0 * two_pi * (2.0 * two_pi * t).cos();
            assert!((out[c.idx(s, 0)] - want0).abs() < 1e-9);
            assert!((out[c.idx(s, 1)] - want1).abs() < 1e-9);
        }
    }

    /// Bit patterns, with every NaN as `f64::NAN`: Rust leaves a NaN's
    /// sign and payload unspecified.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Every tile height and width, leftovers included, on values that
    /// mix finite entries with ±0.0, NaN and ±inf (the zero diagonal of
    /// `D` meets the infinities).
    #[test]
    fn apply_diff_matches_the_textbook_loop_bit_for_bit() {
        let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (n, harmonics) in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (7, 9), (8, 13)] {
            let c = Colloc::new(n, harmonics);
            for with_special in [false, true] {
                let vals: Vec<f64> = (0..c.len())
                    .map(|_| match next() % 8 {
                        0 if with_special => special[(next() % 5) as usize],
                        _ => (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
                    })
                    .collect();
                let (mut got, mut want) = (vec![1.0; c.len()], vec![2.0; c.len()]);
                c.apply_diff(&vals, &mut got);
                oracle::apply_diff(c.dmat.as_slice(), c.n0, n, &vals, &mut want);
                assert_eq!(bits(&got), bits(&want), "n={n} harmonics={harmonics}");
            }
        }
    }

    #[test]
    fn phase_row_kills_cosine_keeps_sine() {
        let c = Colloc::new(1, 3);
        let two_pi = 2.0 * std::f64::consts::PI;
        let cos_wave: Vec<f64> = (0..7).map(|s| (two_pi * s as f64 / 7.0).cos()).collect();
        let sin_wave: Vec<f64> = (0..7).map(|s| (two_pi * s as f64 / 7.0).sin()).collect();
        // cos has a real first coefficient: phase value 0.
        assert!(c.phase_value(&cos_wave, 0, 1).abs() < 1e-12);
        // sin = (e^{jθ} − e^{-jθ})/2j has Im{X_1} = −1/2: phase value ±1/2.
        assert!((c.phase_value(&sin_wave, 0, 1).abs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eval_all_matches_pointwise() {
        let vdp = VanDerPol::unforced(0.7);
        let c = Colloc::new(2, 2);
        let x: Vec<f64> = (0..c.len()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut q = vec![0.0; c.len()];
        let mut f = vec![0.0; c.len()];
        c.eval_q_all(&vdp, &x, &mut q);
        c.eval_f_all(&vdp, &x, &mut f);
        for s in 0..c.n0 {
            let xs = &x[s * 2..s * 2 + 2];
            let mut qs = [0.0; 2];
            let mut fs = [0.0; 2];
            circuitdae::Dae::eval_q(&vdp, xs, &mut qs);
            circuitdae::Dae::eval_f(&vdp, xs, &mut fs);
            assert_eq!(&q[s * 2..s * 2 + 2], &qs);
            assert_eq!(&f[s * 2..s * 2 + 2], &fs);
        }
    }

    #[test]
    fn extract_var_pulls_column() {
        let c = Colloc::new(2, 1);
        let x = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        assert_eq!(c.extract_var(&x, 0), vec![1.0, 2.0, 3.0]);
        assert_eq!(c.extract_var(&x, 1), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic]
    fn phase_row_rejects_dc() {
        let c = Colloc::new(1, 2);
        let _ = c.phase_row(0, 0);
    }

    /// Per-sample Jacobian blocks of `dae` at a smooth synthetic state.
    fn blocks_at_synthetic_state<D: Dae>(dae: &D, colloc: &Colloc) -> (Vec<DMat>, Vec<DMat>) {
        let x: Vec<f64> = (0..colloc.len()).map(|k| (0.37 * k as f64).sin()).collect();
        circuitdae::jac_blocks(dae, &x)
    }

    fn solve(parts: &JacobianParts<'_>, kind: LinearSolverKind, rhs: &[f64]) -> Vec<f64> {
        let mut cache = FactorCache::new(kind);
        cache
            .factor(&NewtonMatrix::Triplets(&parts.assemble_triplets()))
            .unwrap();
        let mut x = rhs.to_vec();
        cache.solve_in_place(&mut x).unwrap();
        x
    }

    /// Builds bordered vdP JacobianParts and checks both backends
    /// produce the same solution.
    #[test]
    fn backends_agree() {
        let vdp = VanDerPol::unforced(0.8);
        let colloc = Colloc::new(2, 3);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&vdp, &colloc);
        let row: Vec<f64> = colloc.phase_row(0, 1);
        let col: Vec<f64> = (0..len).map(|i| 0.1 + (i as f64 * 0.11).cos()).collect();
        let parts = colloc.parts(&cblocks, &gblocks, 10.0, 0.5, 1.3, Some((&row, &col)));
        let rhs: Vec<f64> = (0..parts.dim())
            .map(|i| ((i * 3 % 7) as f64) - 3.0)
            .collect();
        let dense = solve(&parts, LinearSolverKind::Dense, &rhs);
        let klu = solve(&parts, LinearSolverKind::Klu, &rhs);
        for i in 0..rhs.len() {
            assert!(
                (dense[i] - klu[i]).abs() < 1e-8,
                "klu mismatch at {i}: {} vs {}",
                dense[i],
                klu[i]
            );
        }
    }

    /// On the paper's LC VCO, dense and KLU step solutions agree to 1e-9.
    #[test]
    fn lc_vco_dense_vs_klu_agree_to_1e9() {
        let dae = circuits::lc_vco();
        let colloc = Colloc::new(dae.dim(), 5);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&dae, &colloc);
        let row: Vec<f64> = colloc.phase_row(0, 1);
        let col: Vec<f64> = (0..len).map(|i| 1e-9 * (0.2 * i as f64).cos()).collect();
        let parts = colloc.parts(
            &cblocks,
            &gblocks,
            1.0 / 2.0e-6,
            1.0,
            0.75e6,
            Some((&row, &col)),
        );
        let rhs: Vec<f64> = (0..parts.dim()).map(|i| (0.3 * i as f64).sin()).collect();
        let dense = solve(&parts, LinearSolverKind::Dense, &rhs);
        let scale = dense.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let klu = solve(&parts, LinearSolverKind::Klu, &rhs);
        for i in 0..rhs.len() {
            assert!(
                (dense[i] - klu[i]).abs() <= 1e-9 * scale.max(1.0),
                "klu at {i}: {} vs {}",
                dense[i],
                klu[i]
            );
        }
    }

    #[test]
    fn unbordered_assembly() {
        let vdp = VanDerPol::unforced(0.3);
        let colloc = Colloc::new(2, 2);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&vdp, &colloc);
        let parts = colloc.parts(&cblocks, &gblocks, 5.0, 1.0, 0.7, None);
        assert_eq!(parts.dim(), len);
        let rhs = vec![1.0; len];
        let a = solve(&parts, LinearSolverKind::Dense, &rhs);
        let b = solve(&parts, LinearSolverKind::Klu, &rhs);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9);
        }
    }
}
