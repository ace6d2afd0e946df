//! Fixed and LTE-adaptive step-size control.

/// Step-size policy, shared by every stepping loop in the workspace.
///
/// The `0.0 = auto` fields resolve against the integration span with
/// **one** canonical rule (see [`StepPolicy::resolve`]); before this
/// crate each solver had its own fractions, so a deck tuned on one
/// analysis silently meant something different on another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepPolicy {
    /// Constant step (the paper's "N points per cycle" baseline mode).
    Fixed(f64),
    /// Predictor–corrector LTE control.
    Adaptive {
        /// Relative local-error tolerance.
        rtol: f64,
        /// Absolute local-error tolerance.
        atol: f64,
        /// Initial step (`0.0` = auto: span/1000).
        dt_init: f64,
        /// Smallest allowed step (`0.0` = auto: span·1e-12).
        dt_min: f64,
        /// Largest allowed step (`0.0` = auto: span/10).
        dt_max: f64,
    },
}

impl Default for StepPolicy {
    fn default() -> Self {
        StepPolicy::adaptive(1e-6, 1e-12)
    }
}

impl StepPolicy {
    /// An adaptive policy at the given tolerances with every step bound
    /// auto-resolved.
    pub fn adaptive(rtol: f64, atol: f64) -> Self {
        StepPolicy::Adaptive {
            rtol,
            atol,
            dt_init: 0.0,
            dt_min: 0.0,
            dt_max: 0.0,
        }
    }

    /// Resolves the policy against the integration span into a live
    /// [`StepController`]. `order` is the scheme's classical order
    /// ([`crate::Scheme::order`]), used in the error exponent.
    ///
    /// Auto-defaults (`0.0` fields): `dt_init = span/1000`,
    /// `dt_min = span·1e-12`, `dt_max = span/10`; `dt_init` is clamped
    /// into `[dt_min, dt_max]`.
    ///
    /// # Errors
    ///
    /// Returns a canonical message (callers wrap it in their own
    /// `BadInput` variants, so every solver rejects a bad step policy
    /// identically) when the fixed step is zero, negative, or NaN; when
    /// a tolerance is not positive; when a step bound is negative or
    /// NaN; or when `dt_min` exceeds `dt_max`.
    pub fn resolve(&self, span: f64, order: usize) -> Result<StepController, String> {
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        let auto = |v: f64, what: &str| -> Result<bool, String> {
            if v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Less) || v.is_nan() {
                Err(format!("{what} must not be negative"))
            } else {
                Ok(!positive(v))
            }
        };
        match *self {
            StepPolicy::Fixed(dt) => {
                if !positive(dt) {
                    return Err("fixed step must be positive".into());
                }
                Ok(StepController {
                    tol: None,
                    h: dt,
                    h_min: dt,
                    h_max: dt,
                    order,
                    gains: Gains::elementary(order),
                    err_prev: 1.0,
                })
            }
            StepPolicy::Adaptive {
                rtol,
                atol,
                dt_init,
                dt_min,
                dt_max,
            } => {
                if !positive(rtol) {
                    return Err("rtol must be positive".into());
                }
                if !positive(atol) {
                    return Err("atol must be positive".into());
                }
                let h_min = if auto(dt_min, "dt_min")? {
                    span * 1e-12
                } else {
                    dt_min
                };
                let h_max = if auto(dt_max, "dt_max")? {
                    span / 10.0
                } else {
                    dt_max
                };
                if h_min > h_max {
                    return Err(format!("dt_min {h_min:e} exceeds dt_max {h_max:e}"));
                }
                let h = if auto(dt_init, "dt_init")? {
                    span / 1000.0
                } else {
                    dt_init
                }
                .clamp(h_min, h_max);
                Ok(StepController {
                    tol: Some(Tolerance {
                        rtol,
                        atol,
                        scale: Scale::Entry,
                    }),
                    h,
                    h_min,
                    h_max,
                    order,
                    gains: Gains::elementary(order),
                    err_prev: 1.0,
                })
            }
        }
    }
}

/// DASSL's Newton convergence bound (Brenan, Campbell & Petzold): a step
/// solve has converged once its update, measured in the step's own error
/// weights, is at most a third of the local error the step may make.
pub const NEWTON_TOL: f64 = 0.33;

/// How the error weights scale with the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Every entry by its own magnitude: `wᵢ = atol + rtol·|zᵢ|` (a
    /// transient's node voltages and branch currents).
    Entry,
    /// The first `n·samples` entries are `samples` sample-major
    /// collocation samples of `n` variables, and sample `(s, i)` is
    /// weighted by its variable's amplitude over the period:
    /// `atol + rtol·max_s' |z_{s'·n+i}|`. A per-entry weight collapses to
    /// `atol` at every zero crossing of a waveform, so the error there
    /// would demand a near-exact step. Entries after the samples (an
    /// envelope's ω) keep their own magnitude.
    Amplitude {
        /// Variables per sample.
        n: usize,
        /// Collocation samples.
        samples: usize,
    },
}

/// The error tolerance of adaptive step control. Its weights
/// `wᵢ = atol + rtol·sᵢ`, with `sᵢ` the magnitude [`Scale`] picks, scale
/// both the LTE estimate ([`StepController::lte`]) and the Newton norm
/// of the step solve ([`Tolerance::newton_norm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative local-error tolerance.
    pub rtol: f64,
    /// Absolute local-error tolerance.
    pub atol: f64,
    /// What `rtol` is relative to.
    pub scale: Scale,
}

impl Tolerance {
    /// Visits every entry `k` of `z` with its weighted error
    /// `d(k)/wₖ`, the weights taken at `z`: in ascending `k` under
    /// [`Scale::Entry`], variable by variable over the samples under
    /// [`Scale::Amplitude`].
    ///
    /// # Panics
    ///
    /// Panics when `z` is shorter than an amplitude scale's samples.
    fn visit(&self, d: impl Fn(usize) -> f64, z: &[f64], mut each: impl FnMut(usize, f64)) {
        let mut own = 0;
        if let Scale::Amplitude { n, samples } = self.scale {
            own = n * samples;
            assert!(z.len() >= own, "tolerance: state shorter than its samples");
            for i in 0..n {
                let amp = (0..samples).fold(0.0_f64, |m, s| m.max(z[s * n + i].abs()));
                let w = self.atol + self.rtol * amp;
                for k in (i..own).step_by(n) {
                    each(k, d(k) / w);
                }
            }
        }
        for (k, zk) in z.iter().enumerate().skip(own) {
            each(k, d(k) / (self.atol + self.rtol * zk.abs()));
        }
    }

    /// Weighted RMS norm `sqrt(mean((dₖ/wₖ)²))` of `d` with the weights
    /// taken at `z`; under [`Scale::Entry`] with the operations of
    /// [`numkit::vecops::wrms_norm`].
    fn wrms(&self, d: impl Fn(usize) -> f64, z: &[f64]) -> f64 {
        if z.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        self.visit(d, z, |_, e| acc += e * e);
        (acc / z.len() as f64).sqrt()
    }

    /// The entry with the largest weighted error `|dₖ|/wₖ` (a NaN the
    /// largest, the lowest index of equals), `None` for an empty `z`.
    fn worst(&self, d: impl Fn(usize) -> f64, z: &[f64]) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        self.visit(d, z, |k, e| {
            let e = if e.is_nan() { f64::INFINITY } else { e.abs() };
            if worst.is_none_or(|(j, m)| e > m || (e == m && k < j)) {
                worst = Some((k, e));
            }
        });
        worst.map(|(k, _)| k)
    }

    /// DASSL's Newton norm of the update `dz` at the iterate `z`:
    /// `‖dz‖_w / NEWTON_TOL`, so `≤ 1` means converged (see [`NEWTON_TOL`]).
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn newton_norm(&self, dz: &[f64], z: &[f64]) -> f64 {
        assert_eq!(dz.len(), z.len(), "newton_norm: length mismatch");
        self.wrms(|k| dz[k], z) / NEWTON_TOL
    }
}

/// Gains `(β1, β2)` of the accept law
/// `h ← h·0.9·err^(−β1)·err_prev^(β2)`, with `err_prev` the error of the
/// previous accepted step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gains {
    /// Exponent on the current error.
    pub beta1: f64,
    /// Exponent on the previous accepted step's error.
    pub beta2: f64,
}

impl Gains {
    /// The elementary controller `(1/(k+1), 0)` for a scheme of order
    /// `k`: the step follows the current error alone (transients).
    pub fn elementary(order: usize) -> Self {
        Gains {
            beta1: 1.0 / (order as f64 + 1.0),
            beta2: 0.0,
        }
    }

    /// Gustafsson's PI controller `(0.7/(k+1), 0.4/(k+1))` (ACM TOMS
    /// 1994): the previous error damps the step sequence, so a run
    /// rejects fewer attempts (envelopes).
    pub fn gustafsson(order: usize) -> Self {
        let k1 = order as f64 + 1.0;
        Gains {
            beta1: 0.7 / k1,
            beta2: 0.4 / k1,
        }
    }
}

/// Verdict of [`StepController::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepVerdict {
    /// LTE within tolerance (or fixed-step mode): commit the step.
    Accept,
    /// LTE too large: discard the step and retry at the shrunken size.
    Reject,
}

/// Live step-size controller: proposes attempt sizes, judges LTE
/// estimates, and rescales the working step. An accepted step sets
/// `h ← h·0.9·err^(−β1)·err_prev^(β2)` ([`Gains`]; the elementary
/// `(1/(order+1), 0)` unless [`StepController::with_gains`] picks
/// others), growth clamped to `[0.25, 2.5]`; a rejected one
/// `h ← h·0.9·err^(−1/(order+1))`, shrink clamped to `[0.1, 0.9]`.
#[derive(Debug, Clone, Copy)]
pub struct StepController {
    /// The error tolerance (`None` for a fixed step).
    tol: Option<Tolerance>,
    h: f64,
    h_min: f64,
    h_max: f64,
    order: usize,
    gains: Gains,
    /// The error of the previous accepted step, floored at
    /// [`ERR_PREV_FLOOR`] (1 before the first).
    err_prev: f64,
}

/// Floor of the previous error in the accept law: a near-exact step may
/// not hold the next one back by more than `ERR_PREV_FLOOR^β2` (Hairer,
/// Nørsett & Wanner's choice for their PI-controlled codes).
const ERR_PREV_FLOOR: f64 = 1e-4;

impl StepController {
    /// Whether LTE control is active (`false` for a fixed step).
    pub fn adaptive(&self) -> bool {
        self.tol.is_some()
    }

    /// The error tolerance (`None` for a fixed step).
    pub fn tolerance(&self) -> Option<Tolerance> {
        self.tol
    }

    /// The controller with its error weights scaled by `scale` (a fixed
    /// step has none and is returned unchanged).
    pub fn with_scale(mut self, scale: Scale) -> Self {
        if let Some(tol) = &mut self.tol {
            tol.scale = scale;
        }
        self
    }

    /// The controller with the accept law's gains set to `gains`.
    pub fn with_gains(mut self, gains: Gains) -> Self {
        self.gains = gains;
        self
    }

    /// The current working step.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// The resolved minimum step.
    pub fn h_min(&self) -> f64 {
        self.h_min
    }

    /// The resolved maximum step.
    pub fn h_max(&self) -> f64 {
        self.h_max
    }

    /// The step to attempt from `t`: the working step clipped to the
    /// remaining span, with the final step *stretched* (by ≤ 1 %) to
    /// absorb the floating-point remainder — a trailing micro-step
    /// would make `C/h` dominate the step Jacobian and, in bordered
    /// envelope systems, render the phase/ω border numerically
    /// singular.
    pub fn propose(&self, t: f64, t_end: f64) -> f64 {
        let mut h_try = self.h.min(t_end - t);
        if t_end - (t + h_try) < 0.01 * h_try {
            h_try = t_end - t;
        }
        h_try
    }

    /// Predictor–corrector LTE estimate: the weighted RMS norm of
    /// `z_new − pred` against `z_new`, divided by 5 (the
    /// predictor–corrector difference over-estimates the LTE; 1/5 is
    /// the usual calibration). `≤ 1` means within tolerance; a fixed
    /// step has no tolerance and estimates 0.
    ///
    /// Computed in place; under [`Scale::Entry`] with the operations of
    /// [`numkit::vecops::wrms_norm`] on the explicit difference.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn lte(&self, z_new: &[f64], pred: &[f64]) -> f64 {
        assert_eq!(z_new.len(), pred.len(), "lte: length mismatch");
        self.tol
            .map_or(0.0, |tol| tol.wrms(|k| z_new[k] - pred[k], z_new) / 5.0)
    }

    /// Judges the attempted step `z_new` of size `h_try` against its
    /// prediction `pred` by its LTE estimate ([`StepController::lte`])
    /// and updates the working step, as [`StepController::evaluate`].
    /// With an `obskit` recorder installed, its trace row also names the
    /// entry of `z_new` with the largest weighted error (`worst`).
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn judge(&mut self, h_try: f64, z_new: &[f64], pred: &[f64]) -> StepVerdict {
        let err = self.lte(z_new, pred);
        let worst = self
            .tol
            .filter(|_| obskit::enabled())
            .and_then(|tol| tol.worst(|k| z_new[k] - pred[k], z_new));
        self.settle(h_try, err, worst)
    }

    /// Judges an attempted step of size `h_try` with LTE estimate
    /// `err`, updating the working step. Fixed mode always accepts.
    /// A non-finite `err` is treated as a hard reject (maximum shrink).
    pub fn evaluate(&mut self, h_try: f64, err: f64) -> StepVerdict {
        self.settle(h_try, err, None)
    }

    /// [`StepController::evaluate`], with the worst entry for the trace.
    fn settle(&mut self, h_try: f64, err: f64, worst: Option<usize>) -> StepVerdict {
        if self.tol.is_none() {
            self.record(StepVerdict::Accept, h_try, err, "fixed", worst);
            return StepVerdict::Accept;
        }
        if err <= 1.0 {
            let Gains { beta1, beta2 } = self.gains;
            let grow = 0.9 * err.max(1e-10).powf(-beta1) * self.err_prev.powf(beta2);
            self.h = (h_try * grow.clamp(0.25, 2.5)).clamp(self.h_min, self.h_max);
            self.err_prev = err.max(ERR_PREV_FLOOR);
            self.record(StepVerdict::Accept, h_try, err, "lte", worst);
            StepVerdict::Accept
        } else {
            let shrink = if err.is_finite() {
                (0.9 * err.powf(-1.0 / (self.order as f64 + 1.0))).clamp(0.1, 0.9)
            } else {
                0.1
            };
            self.h = (h_try * shrink).max(self.h_min);
            self.record(StepVerdict::Reject, h_try, err, "lte", worst);
            StepVerdict::Reject
        }
    }

    /// Emit the accept/reject convergence-trace row and counters for an
    /// attempted step. Inert unless an `obskit` recorder is installed.
    fn record(
        &self,
        verdict: StepVerdict,
        h_try: f64,
        err: f64,
        law: &'static str,
        worst: Option<usize>,
    ) {
        if !obskit::enabled() {
            return;
        }
        let worst = worst.map(|k| ("worst", obskit::AttrValue::U64(k as u64)));
        match verdict {
            StepVerdict::Accept => {
                obskit::counter_add("step.accepted", 1);
                obskit::observe("step.h", h_try);
                let mut attrs = vec![
                    ("h", obskit::AttrValue::F64(h_try)),
                    ("lte", obskit::AttrValue::F64(err)),
                    ("law", obskit::AttrValue::Str(law)),
                ];
                attrs.extend(worst);
                obskit::point("step.accept", &attrs);
            }
            StepVerdict::Reject => {
                obskit::counter_add("step.rejected", 1);
                obskit::counter_add("step.rejected.lte", 1);
                let mut attrs = vec![
                    ("h", obskit::AttrValue::F64(h_try)),
                    ("lte", obskit::AttrValue::F64(err)),
                    ("reason", obskit::AttrValue::Str("lte")),
                ];
                attrs.extend(worst);
                obskit::point("step.reject", &attrs);
            }
        }
    }

    /// Shrinks the working step after a nonlinear-solver failure
    /// (quarter the attempt, floored at the minimum). Call
    /// [`StepController::at_min`] first: at the floor there is nothing
    /// left to try and the solver's own error should propagate.
    pub fn reject_failure(&mut self, h_try: f64) {
        self.h = (h_try * 0.25).max(self.h_min);
        if obskit::enabled() {
            obskit::counter_add("step.rejected", 1);
            obskit::counter_add("step.rejected.newton", 1);
            obskit::point(
                "step.reject",
                &[
                    ("h", obskit::AttrValue::F64(h_try)),
                    ("reason", obskit::AttrValue::Str("newton")),
                ],
            );
        }
    }

    /// Whether an attempt size is already at the minimum step (within
    /// roundoff), i.e. no further shrink is possible.
    pub fn at_min(&self, h_try: f64) -> bool {
        h_try <= self.h_min * 1.0000001
    }

    /// Whether adaptive control has been driven to the minimum step —
    /// the error tolerance cannot be met and stepping should stop with
    /// a step-too-small error.
    pub fn underflowed(&self) -> bool {
        self.tol.is_some() && self.h <= self.h_min * 1.0000001
    }

    /// Hard cap on total attempts for a run over `span`: prevents
    /// runaway loops under absurd tolerances while never tripping on a
    /// legitimate run (at least twice the steps a minimum-step march
    /// would need, floored at 1024, capped at 2·10⁸).
    pub fn attempt_budget(&self, span: f64) -> usize {
        200_000_000usize.min(
            ((span / self.h_min).ceil() as usize)
                .saturating_mul(2)
                .max(1024),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::vecops::wrms_norm;

    #[test]
    fn in_place_lte_matches_wrms_of_the_explicit_difference_bit_for_bit() {
        let ctl = StepPolicy::adaptive(1e-4, 1e-9).resolve(1.0, 2).unwrap();
        let z: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.7).sin() * 10f64.powi(i % 7 - 3))
            .collect();
        let pred: Vec<f64> = z
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.0 + 1e-3 * (i as f64).cos()) + 1e-8)
            .collect();
        let diff: Vec<f64> = z.iter().zip(&pred).map(|(a, b)| a - b).collect();
        let explicit = wrms_norm(&diff, &z, 1e-9, 1e-4) / 5.0;
        assert_eq!(ctl.lte(&z, &pred).to_bits(), explicit.to_bits());
        assert_eq!(ctl.lte(&[], &[]), 0.0);
    }

    #[test]
    fn newton_norm_is_wrms_over_dassls_bound_bit_for_bit() {
        let ctl = StepPolicy::adaptive(1e-4, 1e-9).resolve(1.0, 2).unwrap();
        let tol = ctl.tolerance().unwrap();
        assert_eq!((tol.rtol, tol.atol), (1e-4, 1e-9));
        let z: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.7).sin() * 10f64.powi(i % 7 - 3))
            .collect();
        let dz: Vec<f64> = z
            .iter()
            .enumerate()
            .map(|(i, v)| 1e-5 * v * (i as f64).cos() + 1e-12)
            .collect();
        let explicit = wrms_norm(&dz, &z, 1e-9, 1e-4) / 0.33;
        assert_eq!(tol.newton_norm(&dz, &z).to_bits(), explicit.to_bits());
        assert_eq!(NEWTON_TOL, 0.33);
        assert_eq!(tol.newton_norm(&[], &[]), 0.0);
    }

    /// Two variables over five collocation samples, then ω: variable 0
    /// crosses zero exactly at sample 2.
    fn colloc_state() -> (Vec<f64>, Scale) {
        let mut z = Vec::new();
        for s in 0..5 {
            let phase = 2.0 * std::f64::consts::PI * (s as f64 - 2.0) / 5.0;
            z.extend([phase.sin(), 0.3 + 0.01 * phase.cos()]);
        }
        z.push(7.5e5);
        assert_eq!(z[4], 0.0);
        (z, Scale::Amplitude { n: 2, samples: 5 })
    }

    #[test]
    fn collocation_samples_are_weighted_by_their_variables_amplitude() {
        let (z, scale) = colloc_state();
        let entry = StepPolicy::adaptive(1e-4, 1e-9).resolve(1.0, 2).unwrap();
        let amp = entry.with_scale(scale);
        assert_eq!(amp.tolerance().unwrap().scale, scale);
        assert_eq!(entry.tolerance().unwrap().scale, Scale::Entry);

        // An error of 1e-6 at the zero crossing only: a per-entry weight
        // there is atol (1e-9), the amplitude weight atol + rtol·sin(2π/5).
        let mut pred = z.clone();
        pred[4] += 1e-6;
        let len = z.len() as f64;
        let amp0 = (2.0 * std::f64::consts::PI / 5.0).sin();
        let want_entry = ((1e-6_f64 / 1e-9).powi(2) / len).sqrt() / 5.0;
        let want_amp = ((1e-6_f64 / (1e-9 + 1e-4 * amp0)).powi(2) / len).sqrt() / 5.0;
        assert!((entry.lte(&z, &pred) - want_entry).abs() <= 1e-12 * want_entry);
        assert!((amp.lte(&z, &pred) - want_amp).abs() <= 1e-12 * want_amp);
        assert!(entry.lte(&z, &pred) > 1.0 && amp.lte(&z, &pred) < 1.0);

        // Every entry's weight, in the order the amplitude scale visits
        // them (variable by variable over the samples, then ω): the same
        // bits from the LTE and from the Newton norm.
        let d: Vec<f64> = (0..z.len()).map(|k| 1e-7 * (k as f64 + 1.0)).collect();
        let pred: Vec<f64> = z.iter().zip(&d).map(|(a, b)| a - b).collect();
        let diff: Vec<f64> = z.iter().zip(&pred).map(|(a, b)| a - b).collect();
        let var_amp = |i: usize| (0..5).fold(0.0_f64, |m, s| m.max(z[s * 2 + i].abs()));
        let mut acc = 0.0;
        for i in 0..2 {
            for s in 0..5 {
                let e = diff[s * 2 + i] / (1e-9 + 1e-4 * var_amp(i));
                acc += e * e;
            }
        }
        let e = diff[10] / (1e-9 + 1e-4 * z[10].abs());
        acc += e * e;
        let wrms = (acc / len).sqrt();
        assert_eq!(amp.lte(&z, &pred).to_bits(), (wrms / 5.0).to_bits());
        let tol = amp.tolerance().unwrap();
        assert_eq!(
            tol.newton_norm(&diff, &z).to_bits(),
            (wrms / 0.33).to_bits()
        );

        // Per-entry (transient) weights keep the bits of
        // `numkit::vecops::wrms_norm`, as before the amplitude scale.
        assert_eq!(
            entry.lte(&z, &pred).to_bits(),
            (wrms_norm(&diff, &z, 1e-9, 1e-4) / 5.0).to_bits()
        );
        let entry_tol = entry.tolerance().unwrap();
        assert_eq!(
            entry_tol.newton_norm(&diff, &z).to_bits(),
            (wrms_norm(&diff, &z, 1e-9, 1e-4) / 0.33).to_bits()
        );
        // A fixed step has no weights to scale.
        let fixed = StepPolicy::Fixed(0.1).resolve(1.0, 2).unwrap();
        assert_eq!(fixed.with_scale(scale).tolerance(), None);
    }

    #[test]
    fn elementary_gains_reproduce_the_old_accept_law_bit_for_bit() {
        // The law before gains: h·0.9·err^(−1/(k+1)), growth clamped to
        // [0.25, 2.5] and the step to [h_min, h_max]; on reject
        // h·0.9·err^(−1/(k+1)) clamped to [0.1, 0.9], or 0.1 when err is
        // not finite.
        let errs = [
            0.3,
            1e-12,
            0.0,
            0.99,
            1.0,
            1.7,
            40.0,
            0.05,
            f64::INFINITY,
            0.6,
            2e-3,
            1.2,
            f64::NAN,
            0.8,
        ];
        for order in 1..=2 {
            let resolved = StepPolicy::adaptive(1e-5, 1e-9)
                .resolve(1.0, order)
                .unwrap();
            // A resolved controller's gains, and elementary gains set
            // explicitly.
            for mut ctl in [resolved, resolved.with_gains(Gains::elementary(order))] {
                let (h_min, h_max) = (ctl.h_min(), ctl.h_max());
                // The old law's own step sequence, from the same start.
                let mut h_old = ctl.h();
                for (j, &err) in errs.iter().enumerate() {
                    let exponent = -1.0 / (order as f64 + 1.0);
                    let accept = err <= 1.0;
                    h_old = if accept {
                        let grow = 0.9 * err.max(1e-10).powf(exponent);
                        (h_old * grow.clamp(0.25, 2.5)).clamp(h_min, h_max)
                    } else {
                        let shrink = if err.is_finite() {
                            (0.9 * err.powf(exponent)).clamp(0.1, 0.9)
                        } else {
                            0.1
                        };
                        (h_old * shrink).max(h_min)
                    };
                    let verdict = ctl.evaluate(ctl.h(), err);
                    assert_eq!(verdict == StepVerdict::Accept, accept, "step {j}");
                    assert_eq!(ctl.h().to_bits(), h_old.to_bits(), "order {order} step {j}");
                }
            }
        }
    }

    #[test]
    fn gustafsson_gains_damp_growth_after_a_small_error() {
        let g = Gains::gustafsson(2);
        assert_eq!((g.beta1, g.beta2), (0.7 / 3.0, 0.4 / 3.0));
        let base = StepPolicy::adaptive(1e-5, 1e-9).resolve(1.0, 2).unwrap();
        let mut pi = base.with_gains(g);
        // The first accept has no previous error: err^(−β1) alone.
        let h0 = pi.h();
        assert_eq!(pi.evaluate(h0, 0.5), StepVerdict::Accept);
        assert_eq!(pi.h(), h0 * (0.9 * 0.5_f64.powf(-g.beta1)));
        // After it, the previous error 0.5 holds the growth back.
        let h1 = pi.h();
        assert_eq!(pi.evaluate(h1, 0.5), StepVerdict::Accept);
        assert_eq!(
            pi.h(),
            h1 * (0.9 * 0.5_f64.powf(-g.beta1) * 0.5_f64.powf(g.beta2))
        );
        // A rejection shrinks by the elementary law and leaves the
        // previous error alone.
        let h2 = pi.h();
        assert_eq!(pi.evaluate(h2, 4.0), StepVerdict::Reject);
        assert_eq!(pi.h(), h2 * (0.9 * 4.0_f64.powf(-1.0 / 3.0)));
        let h3 = pi.h();
        pi.evaluate(h3, 0.25);
        assert_eq!(
            pi.h(),
            h3 * (0.9 * 0.25_f64.powf(-g.beta1) * 0.5_f64.powf(g.beta2))
        );
    }

    #[test]
    fn a_traced_verdict_names_the_worst_entry() {
        use std::sync::Arc;
        let (z, scale) = colloc_state();
        let mut ctl = StepPolicy::adaptive(1e-4, 1e-9)
            .resolve(1.0, 2)
            .unwrap()
            .with_scale(scale);
        // Variable 1 peaks near 0.31: 1e-6 on it weighs more than 2e-6
        // on variable 0, whose amplitude is sin(2π/5) ≈ 0.95.
        let mut pred = z.clone();
        pred[4] += 2e-6;
        pred[7] += 1e-6;
        // Untraced, nothing is recorded and the verdict is the same.
        let untraced = ctl.judge(1e-3, &z, &pred);
        let rec = Arc::new(obskit::CollectingRecorder::new());
        {
            let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
            assert_eq!(ctl.judge(1e-3, &z, &pred), untraced);
            // ω is off by 1e4 against a weight of 75: the step fails on it.
            pred[10] += 1e4;
            assert_eq!(ctl.judge(1e-3, &z, &pred), StepVerdict::Reject);
        }
        let worst: Vec<Option<obskit::AttrValue>> = rec
            .points()
            .iter()
            .map(|p| p.attrs.iter().find(|(k, _)| *k == "worst").map(|(_, v)| *v))
            .collect();
        assert_eq!(
            worst,
            vec![
                Some(obskit::AttrValue::U64(7)),
                Some(obskit::AttrValue::U64(10))
            ]
        );
    }

    #[test]
    fn fixed_resolution_and_rejection_of_bad_steps() {
        let c = StepPolicy::Fixed(0.1).resolve(1.0, 2).unwrap();
        assert!(!c.adaptive());
        assert_eq!(c.h(), 0.1);
        for bad in [0.0, -1.0, f64::NAN] {
            let err = StepPolicy::Fixed(bad).resolve(1.0, 2).unwrap_err();
            assert_eq!(err, "fixed step must be positive");
        }
    }

    #[test]
    fn adaptive_auto_defaults() {
        let c = StepPolicy::adaptive(1e-6, 1e-12).resolve(2.0, 2).unwrap();
        assert!(c.adaptive());
        assert_eq!(c.h(), 2.0 / 1000.0);
        assert_eq!(c.h_min(), 2.0 * 1e-12);
        assert_eq!(c.h_max(), 2.0 / 10.0);
        // Explicit bounds win and clamp dt_init.
        let c = StepPolicy::Adaptive {
            rtol: 1e-6,
            atol: 1e-12,
            dt_init: 1.0,
            dt_min: 1e-3,
            dt_max: 0.5,
        }
        .resolve(2.0, 2)
        .unwrap();
        assert_eq!(c.h(), 0.5);
    }

    #[test]
    fn adaptive_rejects_bad_tolerances_and_bounds() {
        assert!(StepPolicy::adaptive(0.0, 1e-12)
            .resolve(1.0, 2)
            .unwrap_err()
            .contains("rtol"));
        assert!(StepPolicy::adaptive(1e-6, -1.0)
            .resolve(1.0, 2)
            .unwrap_err()
            .contains("atol"));
        let err = StepPolicy::Adaptive {
            rtol: 1e-6,
            atol: 1e-12,
            dt_init: 0.0,
            dt_min: 0.5,
            dt_max: 0.1,
        }
        .resolve(1.0, 2)
        .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let err = StepPolicy::Adaptive {
            rtol: 1e-6,
            atol: 1e-12,
            dt_init: -1.0,
            dt_min: 0.0,
            dt_max: 0.0,
        }
        .resolve(1.0, 2)
        .unwrap_err();
        assert!(err.contains("dt_init"), "{err}");
    }

    #[test]
    fn final_step_stretch() {
        let c = StepPolicy::Fixed(0.1).resolve(1.0005, 2).unwrap();
        // A remainder of 0.5 % of h is stretched into the final step,
        // which lands exactly on the end.
        let (t, t_end) = (0.9, 1.0005);
        let h = c.propose(t, t_end);
        assert_eq!(h, t_end - t);
        assert!(h > 0.1);
        assert_eq!(t + h, t_end);
        // A large remainder is not stretched.
        assert_eq!(c.propose(0.5, 1.0005), 0.1);
    }

    #[test]
    fn accept_grows_reject_shrinks_within_bounds() {
        let mut c = StepPolicy::adaptive(1e-6, 1e-12).resolve(1.0, 2).unwrap();
        let h0 = c.h();
        assert_eq!(c.evaluate(h0, 1e-4), StepVerdict::Accept);
        assert!(c.h() > h0 && c.h() <= c.h_max());
        let h1 = c.h();
        assert_eq!(c.evaluate(h1, 50.0), StepVerdict::Reject);
        assert!(c.h() < h1 && c.h() >= c.h_min());
        assert_eq!(c.evaluate(c.h(), f64::INFINITY), StepVerdict::Reject);
        assert!(c.h() >= c.h_min());
    }

    #[test]
    fn failure_path_and_budget() {
        let mut c = StepPolicy::adaptive(1e-6, 1e-12).resolve(1.0, 1).unwrap();
        let h0 = c.h();
        assert!(!c.at_min(h0));
        c.reject_failure(h0);
        assert!((c.h() - h0 * 0.25).abs() < 1e-18);
        assert!(!c.underflowed());
        let fixed = StepPolicy::Fixed(0.25).resolve(1.0, 1).unwrap();
        assert!(fixed.at_min(0.25)); // fixed mode cannot shrink
        assert_eq!(fixed.attempt_budget(1.0), 1024);
    }
}
