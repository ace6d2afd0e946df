//! Transient integration of circuit DAEs.
//!
//! Implements the implicit one/two-step methods circuit simulators rely
//! on — Backward Euler, Trapezoidal, BDF2 — behind one step-residual
//! abstraction, with fixed or LTE-adaptive step control. This engine is
//! both the paper's "transient simulation" baseline and the inner
//! integrator of the shooting and envelope methods.
//!
//! The scheme table, history predictor, LTE estimate, and step
//! controller live in the shared `timekit` crate (the same engine steps
//! the MPDE and WaMPDE envelopes along `t2`); this module wires them to
//! the circuit-DAE step residual and the damped Newton solver.

use crate::error::TransimError;
use crate::newton::{map_newton_err, NewtonOptions, NonlinearSystem};
use circuitdae::Dae;
use newtonkit::NewtonEngine;
use numkit::DMat;
use sparsekit::Triplets;
use timekit::{History, StepVerdict};

/// Implicit integration scheme (the shared `timekit` scheme table).
///
/// `Integrator::BackwardEuler` is first order, L-stable and strongly
/// damping (the safe choice for stiff MEMS dynamics);
/// `Integrator::Trapezoidal` (default) is second order, A-stable with no
/// numerical damping — the standard choice for oscillators;
/// `Integrator::Bdf2` is second order, L-stable, with variable-step
/// coefficients and a Backward Euler self-start.
pub use timekit::Scheme as Integrator;

/// Step-size policy (the shared `timekit` policy): `Fixed(dt)` or
/// `Adaptive { rtol, atol, dt_init, dt_min, dt_max }` with the canonical
/// `0.0 = auto` resolution (`dt_init = span/1000`, `dt_min = span·1e-12`,
/// `dt_max = span/10`).
pub use timekit::StepPolicy as StepControl;

/// Options for [`run_transient`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TransientOptions {
    /// Integration scheme.
    pub integrator: Integrator,
    /// Step policy.
    pub step: StepControl,
    /// Inner Newton options.
    pub newton: NewtonOptions,
}

/// Counters reported alongside a transient run.
///
/// This is the workspace-wide [`obskit::RunStats`] summary (shared with
/// `mpde::MpdeStats` and `wampde::EnvelopeStats`): `steps`, `rejected`,
/// `newton_iters`, `factorisations`, `symbolic_reuses`.
pub type TransientStats = obskit::RunStats;

/// A transient waveform: accepted time points and states.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Accepted time points (strictly increasing, starts at `t0`).
    pub times: Vec<f64>,
    /// State vectors at each time point.
    pub states: Vec<Vec<f64>>,
    /// Run statistics.
    pub stats: TransientStats,
}

impl TransientResult {
    /// Extracts the waveform of unknown `i` across all time points.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn signal(&self, i: usize) -> Vec<f64> {
        self.states.iter().map(|x| x[i]).collect()
    }

    /// Linear interpolation of unknown `i` at time `t` (clamped to the
    /// simulated span).
    ///
    /// # Panics
    ///
    /// Panics when the result is empty or `i` out of range.
    pub fn sample(&self, i: usize, t: f64) -> f64 {
        let ts = &self.times;
        let n = ts.len();
        assert!(n > 0, "empty transient result");
        if t <= ts[0] {
            return self.states[0][i];
        }
        if t >= ts[n - 1] {
            return self.states[n - 1][i];
        }
        let hi = ts.partition_point(|&v| v <= t).min(n - 1);
        let lo = hi - 1;
        let w = (t - ts[lo]) / (ts[hi] - ts[lo]);
        self.states[lo][i] * (1.0 - w) + self.states[hi][i] * w
    }

    /// The final state.
    ///
    /// # Panics
    ///
    /// Panics when the result is empty.
    pub fn last(&self) -> &[f64] {
        self.states.last().expect("empty transient result")
    }
}

/// One implicit step as a Newton system:
/// `r(x) = a0h·q(x) + θ·f(x) + rconst`, Jacobian `a0h·C + θ·G`.
struct StepSystem<'a, D: Dae + ?Sized> {
    dae: &'a D,
    a0h: f64,
    theta: f64,
    rconst: Vec<f64>,
    qbuf: std::cell::RefCell<Vec<f64>>,
    fbuf: std::cell::RefCell<Vec<f64>>,
    cmat: std::cell::RefCell<DMat>,
    tbuf: std::cell::RefCell<Triplets>,
}

impl<D: Dae + ?Sized> StepSystem<'_, D> {
    fn new(dae: &D, a0h: f64, theta: f64, rconst: Vec<f64>) -> StepSystem<'_, D> {
        let n = dae.dim();
        StepSystem {
            dae,
            a0h,
            theta,
            rconst,
            qbuf: std::cell::RefCell::new(vec![0.0; n]),
            fbuf: std::cell::RefCell::new(vec![0.0; n]),
            cmat: std::cell::RefCell::new(DMat::zeros(n, n)),
            tbuf: std::cell::RefCell::new(Triplets::new(n, n)),
        }
    }
}

impl<D: Dae + ?Sized> NonlinearSystem for StepSystem<'_, D> {
    fn dim(&self) -> usize {
        self.dae.dim()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let mut q = self.qbuf.borrow_mut();
        let mut f = self.fbuf.borrow_mut();
        self.dae.eval_q(x, &mut q);
        self.dae.eval_f(x, &mut f);
        for i in 0..out.len() {
            out[i] = self.a0h * q[i] + self.theta * f[i] + self.rconst[i];
        }
    }

    fn jacobian(&self, x: &[f64], out: &mut DMat) {
        let mut c = self.cmat.borrow_mut();
        self.dae.jac_q(x, &mut c);
        self.dae.jac_f(x, out);
        out.scale(self.theta);
        out.axpy(self.a0h, &c);
    }

    fn jacobian_triplets(&self, x: &[f64], out: &mut Triplets) -> bool {
        // J = a0h·C + θ·G from the DAE's sparse stamps.
        let mut scratch = self.tbuf.borrow_mut();
        scratch.clear();
        self.dae.jac_q_triplets(x, &mut scratch);
        out.append_scaled(&scratch, self.a0h);
        scratch.clear();
        self.dae.jac_f_triplets(x, &mut scratch);
        out.append_scaled(&scratch, self.theta);
        true
    }
}

/// Integrates `d/dt q(x) + f(x) = b(t)` from `x0` over `[t0, t_end]`.
///
/// `x0` must be a consistent initial state (e.g. from
/// [`crate::dc_operating_point`], possibly perturbed to kick an
/// oscillator).
///
/// # Errors
///
/// * [`TransimError::BadInput`] for an empty/invalid time span or step;
/// * [`TransimError::NewtonFailed`] / [`TransimError::SingularJacobian`]
///   when a step's Newton solve fails at the minimum step;
/// * [`TransimError::StepTooSmall`] when adaptive control underflows.
pub fn run_transient<D: Dae + ?Sized>(
    dae: &D,
    x0: &[f64],
    t0: f64,
    t_end: f64,
    opts: &TransientOptions,
) -> Result<TransientResult, TransimError> {
    let n = dae.dim();
    if x0.len() != n {
        return Err(TransimError::BadInput(format!(
            "x0 has length {}, expected {}",
            x0.len(),
            n
        )));
    }
    // `partial_cmp` keeps the NaN-rejecting behavior of `!(t_end > t0)`.
    if t_end.partial_cmp(&t0) != Some(std::cmp::Ordering::Greater) {
        return Err(TransimError::BadInput("t_end must exceed t0".into()));
    }
    let span = t_end - t0;
    let mut ctl = opts
        .step
        .resolve(span, opts.integrator.order())
        .map_err(TransimError::BadInput)?;

    let mut times = Vec::with_capacity(1024);
    let mut states: Vec<Vec<f64>> = Vec::with_capacity(1024);
    let mut stats = TransientStats::default();

    let mut t = t0;
    let mut x = x0.to_vec();
    let mut q = vec![0.0; n];
    dae.eval_q(&x, &mut q);
    times.push(t);
    states.push(x.clone());

    let mut hist = History::new(3);
    hist.push(t, x.clone(), q.clone());

    let mut bbuf = vec![0.0; n];
    let mut fbuf = vec![0.0; n];
    let mut qlin = vec![0.0; n];
    // One Newton engine for the whole run: its factorisation cache spans
    // every step, so on the KLU backend only the very first
    // iteration pays for symbolic analysis — the step Jacobian's pattern
    // never changes along a transient.
    let mut newton = NewtonEngine::new();
    // Hard cap prevents runaway loops if a caller passes absurd tolerances.
    let max_attempts = ctl.attempt_budget(span);

    while t < t_end - 1e-15 * span {
        if stats.steps + stats.rejected > max_attempts {
            return Err(TransimError::StepTooSmall {
                at_time: t,
                step: ctl.h(),
            });
        }
        let h_try = ctl.propose(t, t_end);
        let t_new = t + h_try;
        let step_span = obskit::span("time-step");
        step_span.attr("t", t_new);
        step_span.attr("h", h_try);

        // Step-residual constants: the charge-history term from the
        // scheme, plus (1−θ)·g_prev (trapezoidal only) and −θ·b(t_new).
        let coeffs = opts.integrator.step_coeffs(h_try, &hist, &mut qlin);
        let mut rconst = qlin.clone();
        if coeffs.theta < 1.0 {
            let prev = hist.latest().expect("history is seeded");
            dae.eval_f(&prev.z, &mut fbuf);
            dae.eval_b(prev.t, &mut bbuf);
            for i in 0..n {
                rconst[i] += (1.0 - coeffs.theta) * (fbuf[i] - bbuf[i]);
            }
        }
        dae.eval_b(t_new, &mut bbuf);
        for i in 0..n {
            rconst[i] -= coeffs.theta * bbuf[i];
        }

        let sys = StepSystem::new(dae, coeffs.a0h, coeffs.theta, rconst);
        let predicted = hist.predict(t_new);
        let mut x_new = predicted.clone().unwrap_or_else(|| x.clone());
        let newton_result = newton
            .solve(&sys, &mut x_new, &opts.newton)
            .map_err(map_newton_err);
        let nstats = newton.stats();
        stats.factorisations += nstats.factorisations;
        stats.symbolic_reuses += nstats.symbolic_reuses;

        let accept = match &newton_result {
            Ok(rep) => {
                stats.newton_iters += rep.iterations;
                match &predicted {
                    Some(pred) if ctl.adaptive() => {
                        let err = ctl.lte(&x_new, pred);
                        ctl.evaluate(h_try, err) == StepVerdict::Accept
                    }
                    // Fixed step, or no history yet: accept the step.
                    _ => true,
                }
            }
            Err(_) => {
                if ctl.at_min(h_try) {
                    return newton_result.map(|_| unreachable!()).map_err(|e| match e {
                        TransimError::NewtonFailed {
                            iterations,
                            residual,
                            ..
                        } => TransimError::NewtonFailed {
                            iterations,
                            residual,
                            at_time: t_new,
                        },
                        TransimError::SingularJacobian { .. } => {
                            TransimError::SingularJacobian { at_time: t_new }
                        }
                        other => other,
                    });
                }
                ctl.reject_failure(h_try);
                false
            }
        };

        step_span.attr("accepted", accept);
        if accept {
            t = t_new;
            x = x_new;
            dae.eval_q(&x, &mut q);
            hist.push(t, x.clone(), q.clone());
            times.push(t);
            states.push(x.clone());
            stats.steps += 1;
        } else {
            stats.rejected += 1;
            if ctl.underflowed() && newton_result.is_ok() {
                // Error control cannot be satisfied even at the minimum step.
                return Err(TransimError::StepTooSmall {
                    at_time: t,
                    step: ctl.h(),
                });
            }
        }
    }

    Ok(TransientResult {
        times,
        states,
        stats,
    })
}

/// Fixed-step convenience used by the paper's Figure 12 baseline:
/// integrates `n_cycles` of a signal with nominal period `period`, taking
/// `pts_per_cycle` steps per cycle.
///
/// # Errors
///
/// See [`run_transient`].
pub fn run_fixed_per_cycle<D: Dae + ?Sized>(
    dae: &D,
    x0: &[f64],
    period: f64,
    n_cycles: f64,
    pts_per_cycle: usize,
    integrator: Integrator,
) -> Result<TransientResult, TransimError> {
    let dt = period / pts_per_cycle as f64;
    let opts = TransientOptions {
        integrator,
        step: StepControl::Fixed(dt),
        ..Default::default()
    };
    run_transient(dae, x0, 0.0, period * n_cycles, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::{LinearOscillator, VanDerPol};
    use circuitdae::{Circuit, Device, Waveform};

    fn rc_charging() -> circuitdae::CircuitDae {
        // 1V step into series R=1k, C=1µ: v(t) = 1 − e^{−t/RC}, τ = 1 ms.
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.add(Device::voltage_source(a, Circuit::GND, Waveform::Dc(1.0)));
        ckt.add(Device::resistor(a, b, 1e3));
        ckt.add(Device::capacitor(b, Circuit::GND, 1e-6));
        ckt.build().unwrap()
    }

    #[test]
    fn rc_step_response_be() {
        let dae = rc_charging();
        let opts = TransientOptions {
            integrator: Integrator::BackwardEuler,
            step: StepControl::Fixed(1e-5),
            ..Default::default()
        };
        let res = run_transient(&dae, &[1.0, 0.0, -1e-3], 0.0, 5e-3, &opts).unwrap();
        let v_out = res.last()[1];
        let want = 1.0 - (-5.0_f64).exp();
        assert!((v_out - want).abs() < 1e-3, "v_out={v_out}");
    }

    #[test]
    fn trapezoidal_is_second_order() {
        // Halving the step should cut the error by ~4 for trapezoidal.
        let osc = LinearOscillator::undamped(1.0);
        let t_end = 2.0;
        let exact = f64::cos(t_end);
        let mut errs = Vec::new();
        for &dt in &[0.02, 0.01] {
            let opts = TransientOptions {
                integrator: Integrator::Trapezoidal,
                step: StepControl::Fixed(dt),
                ..Default::default()
            };
            let res = run_transient(&osc, &[1.0, 0.0], 0.0, t_end, &opts).unwrap();
            errs.push((res.last()[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(ratio > 3.0 && ratio < 5.0, "convergence ratio {ratio}");
    }

    #[test]
    fn backward_euler_is_first_order() {
        let osc = LinearOscillator::undamped(1.0);
        let t_end = 1.0;
        let exact = f64::cos(t_end);
        let mut errs = Vec::new();
        for &dt in &[0.002, 0.001] {
            let opts = TransientOptions {
                integrator: Integrator::BackwardEuler,
                step: StepControl::Fixed(dt),
                ..Default::default()
            };
            let res = run_transient(&osc, &[1.0, 0.0], 0.0, t_end, &opts).unwrap();
            errs.push((res.last()[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(ratio > 1.7 && ratio < 2.3, "convergence ratio {ratio}");
    }

    #[test]
    fn bdf2_is_second_order() {
        let osc = LinearOscillator::undamped(1.0);
        let t_end = 2.0;
        let exact = f64::cos(t_end);
        let mut errs = Vec::new();
        for &dt in &[0.02, 0.01] {
            let opts = TransientOptions {
                integrator: Integrator::Bdf2,
                step: StepControl::Fixed(dt),
                ..Default::default()
            };
            let res = run_transient(&osc, &[1.0, 0.0], 0.0, t_end, &opts).unwrap();
            errs.push((res.last()[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(ratio > 3.0 && ratio < 5.0, "convergence ratio {ratio}");
    }

    #[test]
    fn adaptive_matches_exact_solution() {
        let osc = LinearOscillator {
            omega: 2.0,
            zeta: 0.1,
            amplitude: 0.0,
            freq_hz: 0.0,
        };
        let opts = TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Adaptive {
                rtol: 1e-8,
                atol: 1e-12,
                dt_init: 1e-3,
                dt_min: 0.0,
                dt_max: 0.0,
            },
            ..Default::default()
        };
        let res = run_transient(&osc, &[1.0, 0.0], 0.0, 3.0, &opts).unwrap();
        for (i, &t) in res.times.iter().enumerate().step_by(50) {
            let want = osc.exact_unforced(1.0, t);
            assert!(
                (res.states[i][0] - want).abs() < 1e-5,
                "t={t}: {} vs {want}",
                res.states[i][0]
            );
        }
        assert!(res.stats.steps > 10);
    }

    #[test]
    fn van_der_pol_reaches_limit_cycle_amplitude() {
        let vdp = VanDerPol::unforced(0.5);
        let opts = TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Fixed(0.01),
            ..Default::default()
        };
        let res = run_transient(&vdp, &[0.1, 0.0], 0.0, 60.0, &opts).unwrap();
        // After many periods the amplitude should be ≈ 2.
        let tail_max = res
            .states
            .iter()
            .skip(res.states.len() * 3 / 4)
            .map(|x| x[0].abs())
            .fold(0.0_f64, f64::max);
        assert!((tail_max - 2.0).abs() < 0.1, "amplitude {tail_max}");
    }

    #[test]
    fn sample_interpolates() {
        let osc = LinearOscillator::undamped(1.0);
        let opts = TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Fixed(0.01),
            ..Default::default()
        };
        let res = run_transient(&osc, &[1.0, 0.0], 0.0, 1.0, &opts).unwrap();
        let v = res.sample(0, 0.5);
        assert!((v - 0.5_f64.cos()).abs() < 1e-3);
        // Clamping beyond the ends.
        assert_eq!(res.sample(0, -1.0), res.states[0][0]);
        assert_eq!(res.sample(0, 99.0), res.last()[0]);
    }

    #[test]
    fn bad_inputs_rejected() {
        let osc = LinearOscillator::undamped(1.0);
        let opts = TransientOptions::default();
        assert!(run_transient(&osc, &[1.0], 0.0, 1.0, &opts).is_err());
        assert!(run_transient(&osc, &[1.0, 0.0], 1.0, 1.0, &opts).is_err());
        let bad = TransientOptions {
            step: StepControl::Fixed(0.0),
            ..Default::default()
        };
        assert!(run_transient(&osc, &[1.0, 0.0], 0.0, 1.0, &bad).is_err());
    }

    #[test]
    fn fixed_per_cycle_helper() {
        let osc = LinearOscillator::undamped(2.0 * std::f64::consts::PI);
        let res =
            run_fixed_per_cycle(&osc, &[1.0, 0.0], 1.0, 2.0, 100, Integrator::Trapezoidal).unwrap();
        assert_eq!(res.stats.steps, 200);
        assert!((res.last()[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn final_step_is_stretched_not_micro() {
        // A span that leaves a sub-1 % remainder after an integer number
        // of fixed steps must absorb it into the final step instead of
        // emitting a micro-step whose C/h dominates the Jacobian
        // (regression: transim used to take the micro-step while the
        // envelope solvers stretched).
        let osc = LinearOscillator::undamped(1.0);
        let opts = TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Fixed(0.1),
            ..Default::default()
        };
        let t_end = 1.0004; // 10 steps of 0.1 plus a 0.4 %-of-dt remainder
        let res = run_transient(&osc, &[1.0, 0.0], 0.0, t_end, &opts).unwrap();
        assert_eq!(res.stats.steps, 10, "times: {:?}", res.times);
        let last = *res.times.last().unwrap();
        assert!((last - t_end).abs() < 1e-12, "end {last}");
        // Every step is within 1 % of the nominal dt.
        for w in res.times.windows(2) {
            let h = w[1] - w[0];
            assert!(h > 0.099 && h < 0.102, "step {h}");
        }
    }

    #[test]
    fn stiff_mems_like_system_with_be() {
        // Very stiff linear system: fast pole 1e8, slow pole 1e3.
        struct Stiff;
        impl circuitdae::Dae for Stiff {
            fn dim(&self) -> usize {
                2
            }
            fn eval_q(&self, x: &[f64], out: &mut [f64]) {
                out.copy_from_slice(x);
            }
            fn eval_f(&self, x: &[f64], out: &mut [f64]) {
                out[0] = 1e3 * x[0];
                out[1] = 1e8 * (x[1] - x[0]);
            }
            fn eval_b(&self, _t: f64, out: &mut [f64]) {
                out[0] = 0.0;
                out[1] = 0.0;
            }
            fn jac_q(&self, _x: &[f64], out: &mut numkit::DMat) {
                out.fill_zero();
                out[(0, 0)] = 1.0;
                out[(1, 1)] = 1.0;
            }
            fn jac_f(&self, _x: &[f64], out: &mut numkit::DMat) {
                out.fill_zero();
                out[(0, 0)] = 1e3;
                out[(1, 0)] = -1e8;
                out[(1, 1)] = 1e8;
            }
        }
        let opts = TransientOptions {
            integrator: Integrator::BackwardEuler,
            step: StepControl::Fixed(1e-5), // far larger than 1/1e8
            ..Default::default()
        };
        let res = run_transient(&Stiff, &[1.0, 0.0], 0.0, 1e-3, &opts).unwrap();
        // x0 decays like e^{-1e3 t}; x1 slaves to x0. No blow-up allowed.
        let last = res.last();
        assert!(last[0] > 0.0 && last[0] < 1.0);
        assert!((last[1] - last[0]).abs() < 1e-3);
    }
}
