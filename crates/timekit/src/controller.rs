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
                    tol: Some(Tolerance { rtol, atol }),
                    h,
                    h_min,
                    h_max,
                    order,
                })
            }
        }
    }
}

/// DASSL's Newton convergence bound (Brenan, Campbell & Petzold): a step
/// solve has converged once its update, measured in the step's own error
/// weights, is at most a third of the local error the step may make.
pub const NEWTON_TOL: f64 = 0.33;

/// The error tolerance of adaptive step control. Its weights
/// `wᵢ = atol + rtol·|zᵢ|` scale both the LTE estimate
/// ([`StepController::lte`]) and the Newton norm of the step solve
/// ([`Tolerance::newton_norm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative local-error tolerance.
    pub rtol: f64,
    /// Absolute local-error tolerance.
    pub atol: f64,
}

impl Tolerance {
    /// Weighted RMS norm `sqrt(mean((dᵢ/wᵢ)²))` of `d` with the weights
    /// taken at `z`, with the operations of [`numkit::vecops::wrms_norm`].
    fn wrms(&self, d: impl Iterator<Item = f64>, z: &[f64]) -> f64 {
        if z.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (di, zi) in d.zip(z) {
            let e = di / (self.atol + self.rtol * zi.abs());
            acc += e * e;
        }
        (acc / z.len() as f64).sqrt()
    }

    /// DASSL's Newton norm of the update `dz` at the iterate `z`:
    /// `‖dz‖_w / NEWTON_TOL`, so `≤ 1` means converged (see [`NEWTON_TOL`]).
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn newton_norm(&self, dz: &[f64], z: &[f64]) -> f64 {
        assert_eq!(dz.len(), z.len(), "newton_norm: length mismatch");
        self.wrms(dz.iter().copied(), z) / NEWTON_TOL
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
/// estimates, and rescales the working step with the standard
/// safety-factor law `h ← h·0.9·err^(−1/(order+1))`, growth clamped to
/// `[0.25, 2.5]` on accept and shrink to `[0.1, 0.9]` on reject.
#[derive(Debug, Clone, Copy)]
pub struct StepController {
    /// The error tolerance (`None` for a fixed step).
    tol: Option<Tolerance>,
    h: f64,
    h_min: f64,
    h_max: f64,
    order: usize,
}

impl StepController {
    /// Whether LTE control is active (`false` for a fixed step).
    pub fn adaptive(&self) -> bool {
        self.tol.is_some()
    }

    /// The error tolerance (`None` for a fixed step).
    pub fn tolerance(&self) -> Option<Tolerance> {
        self.tol
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
    /// Computed in place, with the operations of
    /// [`numkit::vecops::wrms_norm`] on the explicit difference.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn lte(&self, z_new: &[f64], pred: &[f64]) -> f64 {
        assert_eq!(z_new.len(), pred.len(), "lte: length mismatch");
        self.tol.map_or(0.0, |tol| {
            tol.wrms(z_new.iter().zip(pred).map(|(zi, pi)| zi - pi), z_new) / 5.0
        })
    }

    /// Judges an attempted step of size `h_try` with LTE estimate
    /// `err`, updating the working step. Fixed mode always accepts.
    /// A non-finite `err` is treated as a hard reject (maximum shrink).
    pub fn evaluate(&mut self, h_try: f64, err: f64) -> StepVerdict {
        if self.tol.is_none() {
            self.record(StepVerdict::Accept, h_try, err, "fixed");
            return StepVerdict::Accept;
        }
        let exponent = -1.0 / (self.order as f64 + 1.0);
        if err <= 1.0 {
            let grow = 0.9 * err.max(1e-10).powf(exponent);
            self.h = (h_try * grow.clamp(0.25, 2.5)).clamp(self.h_min, self.h_max);
            self.record(StepVerdict::Accept, h_try, err, "lte");
            StepVerdict::Accept
        } else {
            let shrink = if err.is_finite() {
                (0.9 * err.powf(exponent)).clamp(0.1, 0.9)
            } else {
                0.1
            };
            self.h = (h_try * shrink).max(self.h_min);
            self.record(StepVerdict::Reject, h_try, err, "lte");
            StepVerdict::Reject
        }
    }

    /// Emit the accept/reject convergence-trace row and counters for an
    /// attempted step. Inert unless an `obskit` recorder is installed.
    fn record(&self, verdict: StepVerdict, h_try: f64, err: f64, law: &'static str) {
        if !obskit::enabled() {
            return;
        }
        match verdict {
            StepVerdict::Accept => {
                obskit::counter_add("step.accepted", 1);
                obskit::observe("step.h", h_try);
                obskit::point(
                    "step.accept",
                    &[
                        ("h", obskit::AttrValue::F64(h_try)),
                        ("lte", obskit::AttrValue::F64(err)),
                        ("law", obskit::AttrValue::Str(law)),
                    ],
                );
            }
            StepVerdict::Reject => {
                obskit::counter_add("step.rejected", 1);
                obskit::counter_add("step.rejected.lte", 1);
                obskit::point(
                    "step.reject",
                    &[
                        ("h", obskit::AttrValue::F64(h_try)),
                        ("lte", obskit::AttrValue::F64(err)),
                        ("reason", obskit::AttrValue::Str("lte")),
                    ],
                );
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
