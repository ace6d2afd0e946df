//! Envelope-solution container: local frequency, bivariate surface,
//! warping function and univariate reconstruction.

/// Counters reported with an envelope run.
///
/// This is the workspace-wide [`obskit::RunStats`] summary (shared with
/// `transim::TransientStats`); `steps`/`rejected` count `t2` steps, and
/// an MPDE run's `newton_iters` includes its `t2 = 0` steady solve.
pub type EnvelopeStats = obskit::RunStats;

/// Result of [`crate::solve_envelope`] and [`crate::solve_mpde`]: the
/// bivariate solution `x̂(t1, t2)` sampled along the envelope, the local
/// frequency `ω(t2)` (the constant carrier for the MPDE), and the
/// warping function `φ(t2) = ∫ω` (in *cycles* — the warped axis has unit
/// period).
#[derive(Debug, Clone)]
pub struct EnvelopeResult {
    /// DAE dimension.
    pub n: usize,
    /// Warped-axis sample count `N0`.
    pub n0: usize,
    /// Accepted slow-time points (starts at 0).
    pub t2: Vec<f64>,
    /// Local frequency (Hz) at each `t2` point — the paper's Figures 7/10.
    pub omega_hz: Vec<f64>,
    /// Warping function `φ(t2)` in cycles at each `t2` point.
    pub phi: Vec<f64>,
    /// Stacked collocation states (`n·N0`, sample-major) per `t2` point.
    pub states: Vec<Vec<f64>>,
    /// Run statistics.
    pub stats: EnvelopeStats,
}

impl EnvelopeResult {
    /// Minimum and maximum local frequency over the run.
    pub fn frequency_range(&self) -> (f64, f64) {
        let lo = self.omega_hz.iter().fold(f64::INFINITY, |m, v| m.min(*v));
        let hi = self
            .omega_hz
            .iter()
            .fold(f64::NEG_INFINITY, |m, v| m.max(*v));
        (lo, hi)
    }

    /// Samples of variable `var` at envelope point `idx` (length `N0`).
    ///
    /// # Panics
    ///
    /// Panics when `idx` or `var` is out of range.
    pub fn var_samples(&self, idx: usize, var: usize) -> Vec<f64> {
        assert!(var < self.n, "variable index out of range");
        let x = &self.states[idx];
        (0..self.n0).map(|s| x[s * self.n + var]).collect()
    }

    /// The bivariate surface `x̂(t1, t2)` of one variable:
    /// `(t1 grid, t2 grid, values[t2 index][t1 index])` — the data behind
    /// the paper's Figures 8 and 11.
    pub fn bivariate(&self, var: usize) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
        let t1: Vec<f64> = (0..self.n0).map(|s| s as f64 / self.n0 as f64).collect();
        let values: Vec<Vec<f64>> = (0..self.t2.len())
            .map(|idx| self.var_samples(idx, var))
            .collect();
        (t1, self.t2.clone(), values)
    }

    /// Half the warped-axis peak-to-peak swing of `var` at each `t2`: the
    /// demodulated envelope amplitude.
    pub fn envelope_amplitude(&self, var: usize) -> Vec<f64> {
        (0..self.t2.len())
            .map(|idx| {
                let s = self.var_samples(idx, var);
                let max = s.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v));
                let min = s.iter().fold(f64::INFINITY, |m, v| m.min(*v));
                (max - min) / 2.0
            })
            .collect()
    }

    /// Mean over the warped axis (the DC Fourier component) of `var` at
    /// each `t2` — e.g. the MEMS plate trajectory.
    pub fn dc_component(&self, var: usize) -> Vec<f64> {
        (0..self.t2.len())
            .map(|idx| {
                let s = self.var_samples(idx, var);
                s.iter().sum::<f64>() / s.len() as f64
            })
            .collect()
    }

    /// Bracketing index `i` with `t2[i] <= t < t2[i+1]` (clamped).
    fn bracket(&self, t: f64) -> usize {
        let n = self.t2.len();
        if t <= self.t2[0] {
            return 0;
        }
        if t >= self.t2[n - 1] {
            return n - 2;
        }
        self.t2
            .partition_point(|&v| v <= t)
            .saturating_sub(1)
            .min(n - 2)
    }

    /// Local frequency at an arbitrary time (linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics when the result holds fewer than two points.
    pub fn omega_at(&self, t: f64) -> f64 {
        let i = self.bracket(t);
        let w = ((t - self.t2[i]) / (self.t2[i + 1] - self.t2[i])).clamp(0.0, 1.0);
        self.omega_hz[i] * (1.0 - w) + self.omega_hz[i + 1] * w
    }

    /// Warping function `φ(t)` in cycles at an arbitrary time. Quadratic
    /// within each interval (consistent with linearly varying ω), exactly
    /// matching the trapezoid accumulation at the knots.
    ///
    /// # Panics
    ///
    /// Panics when the result holds fewer than two points.
    pub fn phi_at(&self, t: f64) -> f64 {
        let i = self.bracket(t);
        let dt = self.t2[i + 1] - self.t2[i];
        let tau = (t - self.t2[i]).clamp(0.0, dt);
        let slope = (self.omega_hz[i + 1] - self.omega_hz[i]) / dt;
        self.phi[i] + self.omega_hz[i] * tau + 0.5 * slope * tau * tau
    }

    /// Reconstructs the univariate solution `x(t) = x̂(φ(t), t)` (paper
    /// eq. (17)) of variable `var` at the given times: band-limited
    /// interpolation along the warped axis, linear along `t2`.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range or the envelope has fewer than
    /// two points.
    pub fn reconstruct(&self, var: usize, ts: &[f64]) -> Vec<f64> {
        assert!(var < self.n, "variable index out of range");
        assert!(self.t2.len() >= 2, "need at least two envelope points");
        let mut samples = vec![0.0; self.n0];
        ts.iter()
            .map(|&t| {
                let i = self.bracket(t);
                let w = ((t - self.t2[i]) / (self.t2[i + 1] - self.t2[i])).clamp(0.0, 1.0);
                let xa = &self.states[i];
                let xb = &self.states[i + 1];
                for (s, slot) in samples.iter_mut().enumerate() {
                    let k = s * self.n + var;
                    *slot = xa[k] * (1.0 - w) + xb[k] * w;
                }
                let phase = self.phi_at(t).fract();
                fourier::interp::trig_interp_barycentric(&samples, phase)
            })
            .collect()
    }

    /// Number of stored envelope points.
    pub fn len(&self) -> usize {
        self.t2.len()
    }

    /// True when no points are stored (an empty run).
    pub fn is_empty(&self) -> bool {
        self.t2.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic envelope: constant unit-amplitude cosine at linearly
    /// rising frequency, n = 1 variable, N0 = 9.
    fn synthetic() -> EnvelopeResult {
        let n0 = 9;
        let t2: Vec<f64> = (0..11).map(|i| i as f64 * 0.1).collect();
        let omega: Vec<f64> = t2.iter().map(|&t| 10.0 + 5.0 * t).collect();
        // φ by exact integral of the linear ω.
        let phi: Vec<f64> = t2.iter().map(|&t| 10.0 * t + 2.5 * t * t).collect();
        let states: Vec<Vec<f64>> = t2
            .iter()
            .map(|_| {
                (0..n0)
                    .map(|s| (2.0 * std::f64::consts::PI * s as f64 / n0 as f64).cos())
                    .collect()
            })
            .collect();
        EnvelopeResult {
            n: 1,
            n0,
            t2,
            omega_hz: omega,
            phi,
            states,
            stats: EnvelopeStats::default(),
        }
    }

    #[test]
    fn frequency_range_and_interp() {
        let r = synthetic();
        let (lo, hi) = r.frequency_range();
        assert_eq!(lo, 10.0);
        assert_eq!(hi, 15.0);
        assert!((r.omega_at(0.55) - 12.75).abs() < 1e-12);
    }

    #[test]
    fn phi_interpolation_matches_exact_integral() {
        let r = synthetic();
        for &t in &[0.05, 0.23, 0.51, 0.99] {
            let want = 10.0 * t + 2.5 * t * t;
            assert!((r.phi_at(t) - want).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn reconstruction_is_chirped_cosine() {
        let r = synthetic();
        let ts: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let xs = r.reconstruct(0, &ts);
        for (&t, &x) in ts.iter().zip(xs.iter()) {
            let want = (2.0 * std::f64::consts::PI * (10.0 * t + 2.5 * t * t)).cos();
            assert!((x - want).abs() < 1e-9, "t={t}: {x} vs {want}");
        }
    }

    #[test]
    fn bivariate_shape() {
        let r = synthetic();
        let (t1, t2, v) = r.bivariate(0);
        assert_eq!(t1.len(), 9);
        assert_eq!(t2.len(), 11);
        assert_eq!(v.len(), 11);
        assert_eq!(v[0].len(), 9);
    }

    #[test]
    fn envelope_amplitude_is_half_the_sampled_swing() {
        // Nine samples of the cosine peak at 1 and bottom out at
        // cos(8π/9), the samples either side of t1 = 1/2.
        let r = synthetic();
        let want = (1.0 - (8.0 * std::f64::consts::PI / 9.0).cos()) / 2.0;
        for v in r.envelope_amplitude(0) {
            assert!((v - want).abs() < 1e-12, "{v} vs {want}");
        }
    }

    #[test]
    fn dc_component_of_cosine_is_zero() {
        let r = synthetic();
        for v in r.dc_component(0) {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn len_and_empty() {
        let r = synthetic();
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
    }
}
