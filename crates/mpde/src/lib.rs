//! The unwarped Multirate Partial Differential Equation (MPDE).
//!
//! For a *non-autonomous* circuit driven by a fast periodic carrier at a
//! **known, fixed** fundamental `f1` and a slow envelope, the MPDE
//! (Brachtendorf et al. \[BWLBG96\]; Roychowdhury \[Roy97, Roy99\])
//! replaces `d/dt q(x) + f(x) = b(t)` with
//!
//! ```text
//! f1·∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b̂(t1, t2),
//! ```
//!
//! where `b̂` is the bivariate form of the forcing and
//! `x(t) = x̂(f1·t, t)`. Solving along `t2` with steps on the *envelope*
//! time scale captures AM-quasiperiodic behaviour compactly — this is the
//! method the WaMPDE generalises, and Section 3 of the paper explains why
//! it **cannot** capture FM from autonomous components: the fast
//! fundamental is pinned a priori. (That failure mode is demonstrated by
//! `wampde::OmegaMode::Frozen` in the ablation benches; this crate covers
//! the legitimate non-autonomous use.)
//!
//! The step along `t2` is the WaMPDE's, [`wampde::step::CollocStep`],
//! with ω pinned at `f1` (`Omega::Fixed`) and the forcing filled from
//! the [`BivariateForcing`] at each attempt. It keeps full Newton to the
//! policy's tolerance even under adaptive steps.
//!
//! # Example
//!
//! ```
//! use circuitdae::{Circuit, Device, Waveform};
//! use mpde::{solve_envelope_mpde, AmForcing, MpdeOptions};
//!
//! // RC low-pass driven by an AM current: carrier 1 MHz, envelope 1 kHz.
//! let mut ckt = Circuit::new();
//! let n = ckt.node("out");
//! ckt.add(Device::resistor(n, Circuit::GND, 1.0e3));
//! ckt.add(Device::capacitor(n, Circuit::GND, 1.0e-9));
//! // The DAE's own b(t) is unused by the MPDE; forcing comes in bivariate.
//! let dae = ckt.build().unwrap();
//! let forcing = AmForcing {
//!     node: 0,
//!     carrier_amplitude: 1.0e-3,
//!     mod_depth: 0.5,
//!     mod_freq_hz: 1.0e3,
//! };
//! let sol = solve_envelope_mpde(
//!     &dae,
//!     &forcing,
//!     1.0e6,
//!     2.0e-3,
//!     &MpdeOptions::default(),
//! ).unwrap();
//! assert!(sol.t2.len() > 10);
//! ```

use circuitdae::Dae;
use hb::Colloc;
use linsolve::LinearSolverKind;
use newtonkit::{NewtonEngine, NewtonError, NewtonPolicy};
use std::cell::RefCell;
use std::fmt;
use timekit::{HistoryPoint, Scheme, Step, StepCoeffs, StepPolicy, StepSystem};
use transim::NewtonOptions;
use wampde::step::{accepted_g, CollocStep, Omega, StepWork};

/// Errors from the MPDE envelope solver.
#[derive(Debug, Clone, PartialEq)]
pub enum MpdeError {
    /// Newton failed at a `t2` step.
    NewtonFailed {
        /// Slow time of the failure.
        at_t2: f64,
        /// Final residual norm.
        residual: f64,
    },
    /// The step Jacobian was singular.
    Singular {
        /// Slow time of the failure.
        at_t2: f64,
    },
    /// Adaptive slow-time stepping underflowed its minimum step.
    StepTooSmall {
        /// Slow time of the failure.
        at_t2: f64,
        /// Rejected step.
        step: f64,
    },
    /// Invalid configuration.
    BadInput(String),
}

impl fmt::Display for MpdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpdeError::NewtonFailed { at_t2, residual } => {
                write!(
                    f,
                    "mpde newton failed at t2={at_t2:.6e} (residual {residual:.3e})"
                )
            }
            MpdeError::Singular { at_t2 } => write!(f, "mpde jacobian singular at t2={at_t2:.6e}"),
            MpdeError::StepTooSmall { at_t2, step } => {
                write!(
                    f,
                    "mpde slow-time step {step:.3e} underflow at t2={at_t2:.6e}"
                )
            }
            MpdeError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for MpdeError {}

/// A bivariate forcing `b̂(t1, t2)` with `t1 ∈ [0, 1)` the normalised fast
/// phase and `t2` ordinary time.
pub trait BivariateForcing {
    /// Evaluates the forcing into `out` (length = DAE dimension).
    fn eval(&self, t1: f64, t2: f64, out: &mut [f64]);
}

/// Amplitude-modulated sinusoidal current into one node:
/// `b̂ = A·(1 + m·sin(2π·f_mod·t2))·sin(2π·t1)`.
#[derive(Debug, Clone, Copy)]
pub struct AmForcing {
    /// Index of the forced unknown (KCL row).
    pub node: usize,
    /// Carrier amplitude.
    pub carrier_amplitude: f64,
    /// Modulation depth `m`.
    pub mod_depth: f64,
    /// Envelope frequency (Hz).
    pub mod_freq_hz: f64,
}

impl BivariateForcing for AmForcing {
    fn eval(&self, t1: f64, t2: f64, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let env = 1.0 + self.mod_depth * (2.0 * std::f64::consts::PI * self.mod_freq_hz * t2).sin();
        out[self.node] = self.carrier_amplitude * env * (2.0 * std::f64::consts::PI * t1).sin();
    }
}

/// Options for [`solve_envelope_mpde`].
#[derive(Debug, Clone, Copy)]
pub struct MpdeOptions {
    /// Harmonics along the fast axis (`N0 = 2M+1` samples).
    pub harmonics: usize,
    /// Fixed `t2` step (`0.0` = auto: 1/50 of the run; any other value
    /// must be positive). Only consulted
    /// when [`MpdeOptions::step`] is `None` (the legacy fixed-step
    /// configuration path).
    pub dt2: f64,
    /// Integration scheme along `t2` (shared `timekit` table). The
    /// historical — and default — choice is Backward Euler.
    pub integrator: Scheme,
    /// Full step policy; `None` keeps the legacy fixed-step behaviour
    /// driven by [`MpdeOptions::dt2`]. `Some(StepPolicy::Adaptive {..})`
    /// switches the envelope to LTE-adaptive `t2` stepping.
    pub step: Option<StepPolicy>,
    /// Inner Newton options.
    pub newton: NewtonOptions,
    /// Linear solver for the per-step collocation Jacobian.
    pub linear_solver: LinearSolverKind,
}

impl Default for MpdeOptions {
    fn default() -> Self {
        MpdeOptions {
            harmonics: 6,
            dt2: 0.0,
            integrator: Scheme::BackwardEuler,
            step: None,
            newton: NewtonOptions::default(),
            linear_solver: LinearSolverKind::default(),
        }
    }
}

/// Counters reported alongside an MPDE envelope run.
///
/// This is the workspace-wide [`obskit::RunStats`] summary (shared with
/// `transim::TransientStats` and `wampde::EnvelopeStats`); `steps`
/// counts accepted `t2` steps and `newton_iters` includes the `t2 = 0`
/// steady solve.
pub type MpdeStats = obskit::RunStats;

/// An MPDE envelope solution.
#[derive(Debug, Clone)]
pub struct MpdeResult {
    /// DAE dimension.
    pub n: usize,
    /// Fast-axis sample count.
    pub n0: usize,
    /// Fast fundamental (Hz).
    pub f1_hz: f64,
    /// Slow time points.
    pub t2: Vec<f64>,
    /// Stacked collocation states per `t2` point (sample-major).
    pub states: Vec<Vec<f64>>,
    /// Run statistics.
    pub stats: MpdeStats,
}

impl MpdeResult {
    /// Samples of variable `var` at `t2` index `idx`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn var_samples(&self, idx: usize, var: usize) -> Vec<f64> {
        let x = &self.states[idx];
        (0..self.n0).map(|s| x[s * self.n + var]).collect()
    }

    /// Fast-axis peak-to-peak amplitude of `var` at each `t2` point — the
    /// demodulated envelope.
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

    /// Reconstructs the univariate solution `x(t) = x̂(f1·t, t)` of `var`
    /// at the given times (trig interpolation along `t1`, linear along
    /// `t2`).
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range or fewer than 2 points stored.
    pub fn reconstruct(&self, var: usize, ts: &[f64]) -> Vec<f64> {
        assert!(self.t2.len() >= 2, "need at least two envelope points");
        let mut samples = vec![0.0; self.n0];
        ts.iter()
            .map(|&t| {
                let m = self.t2.len();
                let i = if t <= self.t2[0] {
                    0
                } else if t >= self.t2[m - 1] {
                    m - 2
                } else {
                    self.t2
                        .partition_point(|&v| v <= t)
                        .saturating_sub(1)
                        .min(m - 2)
                };
                let w = ((t - self.t2[i]) / (self.t2[i + 1] - self.t2[i])).clamp(0.0, 1.0);
                let xa = &self.states[i];
                let xb = &self.states[i + 1];
                for (s, slot) in samples.iter_mut().enumerate() {
                    let k = s * self.n + var;
                    *slot = xa[k] * (1.0 - w) + xb[k] * w;
                }
                fourier::interp::trig_interp_barycentric(&samples, (t * self.f1_hz).fract())
            })
            .collect()
    }
}

/// Solves the MPDE by envelope-following along `t2` (Backward Euler by
/// default; any `timekit` scheme via [`MpdeOptions::integrator`], fixed
/// or LTE-adaptive steps via [`MpdeOptions::step`]) with harmonic
/// collocation along the fast axis.
///
/// The initial condition is the forced periodic steady state at `t2 = 0`
/// (an inner harmonic-balance-style Newton solve from the DC point).
///
/// # Errors
///
/// See [`MpdeError`].
pub fn solve_envelope_mpde<D: Dae + ?Sized, F: BivariateForcing + ?Sized>(
    dae: &D,
    forcing: &F,
    f1_hz: f64,
    t2_end: f64,
    opts: &MpdeOptions,
) -> Result<MpdeResult, MpdeError> {
    solve_envelope_mpde_from(dae, forcing, f1_hz, t2_end, opts, None)
}

/// [`solve_envelope_mpde`] with a continuation warm start: `init` (a
/// neighbouring grid point's converged `t2 = 0` collocation state,
/// `states[0]` of its [`MpdeResult`]) seeds the inner steady-state
/// Newton solve, skipping the DC operating point entirely. The steady
/// solve still runs to the same tolerances, so the warm start changes
/// the iteration count, not the fixed point. `init = None` reproduces
/// [`solve_envelope_mpde`] exactly; a wrong-length `init` is rejected.
///
/// # Errors
///
/// See [`MpdeError`].
pub fn solve_envelope_mpde_from<D: Dae + ?Sized, F: BivariateForcing + ?Sized>(
    dae: &D,
    forcing: &F,
    f1_hz: f64,
    t2_end: f64,
    opts: &MpdeOptions,
    init: Option<&[f64]>,
) -> Result<MpdeResult, MpdeError> {
    // `partial_cmp` keeps the NaN-rejecting behavior of `!(v > 0.0)`.
    if f1_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MpdeError::BadInput(
            "carrier frequency must be positive".into(),
        ));
    }
    if t2_end.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MpdeError::BadInput("t2_end must be positive".into()));
    }
    let n = dae.dim();
    Colloc::check(n, opts.harmonics, None).map_err(MpdeError::BadInput)?;
    let colloc = Colloc::new(n, opts.harmonics);
    let len = colloc.len();
    let policy = opts.step.unwrap_or(StepPolicy::Fixed(if opts.dt2 == 0.0 {
        t2_end / 50.0
    } else {
        opts.dt2
    }));
    let ctl = policy
        .resolve(t2_end, opts.integrator.order())
        .map_err(MpdeError::BadInput)?;

    // Initial condition: periodic steady state at t2 = 0, seeded from the
    // neighbouring grid point's converged collocation state when one is
    // in hand, from the DC operating point otherwise.
    let mut x: Vec<f64> = match init {
        Some(seed) => {
            if seed.len() != len {
                return Err(MpdeError::BadInput(format!(
                    "warm-start state has {} entries, collocation grid needs {len}",
                    seed.len()
                )));
            }
            seed.to_vec()
        }
        None => {
            let dc = transim::dc_operating_point(dae, &opts.newton)
                .map_err(|e| MpdeError::BadInput(format!("dc operating point failed: {e}")))?;
            (0..colloc.n0).flat_map(|_| dc.iter().copied()).collect()
        }
    };

    let mut run = Envelope {
        dae,
        forcing,
        f1: f1_hz,
        newton: NewtonPolicy {
            linear_solver: opts.linear_solver,
            ..opts.newton
        },
        // One Newton engine for the whole envelope: the step Jacobian's
        // sparsity pattern is stable along t2, so the KLU backend pays
        // for symbolic analysis once and refactors numerically thereafter.
        engine: NewtonEngine::new(),
        b: vec![0.0; len],
        g_prev: vec![0.0; len],
        work: RefCell::new(StepWork::new(&colloc)),
        t2s: Vec::new(),
        states: Vec::new(),
        colloc,
    };
    let mut stats = MpdeStats::default();
    // The steady-envelope solve f1·D·q + f = b̂(·, 0) is the general step
    // residual with a0h = 0 and θ = 1; its solution is the first point.
    let zeros = vec![0.0; len];
    let steady = Step {
        t_new: 0.0,
        h: 0.0,
        coeffs: StepCoeffs {
            a0h: 0.0,
            theta: 1.0,
        },
        qlin: &zeros,
        tol: None,
    };
    run.solve(&steady, &mut x, &mut stats)?;
    let mut q = vec![0.0; len];
    run.accept(&steady, &x, &mut q)?;
    let start = HistoryPoint { t: 0.0, z: x, q };
    timekit::drive(&mut run, opts.integrator, ctl, start, t2_end, &mut stats)?;

    Ok(MpdeResult {
        n,
        n0: run.colloc.n0,
        f1_hz,
        t2: run.t2s,
        states: run.states,
        stats,
    })
}

/// The MPDE envelope's hooks for the shared `timekit` step loop: the
/// WaMPDE's collocation step with ω pinned at `f1`, solved under the
/// forcing at the step's end, and the accepted-point records.
struct Envelope<'a, D: Dae + ?Sized, F: BivariateForcing + ?Sized> {
    dae: &'a D,
    forcing: &'a F,
    colloc: Colloc,
    f1: f64,
    newton: NewtonPolicy,
    engine: NewtonEngine,
    /// Forcing at the collocation phases of the newest attempt.
    b: Vec<f64>,
    /// `g = f1·D·q + f − b̂` at the newest accepted point (the (1−θ) term
    /// of averaging schemes).
    g_prev: Vec<f64>,
    work: RefCell<StepWork>,
    t2s: Vec<f64>,
    states: Vec<Vec<f64>>,
}

impl<D: Dae + ?Sized, F: BivariateForcing + ?Sized> timekit::StepSystem for Envelope<'_, D, F> {
    type Error = MpdeError;
    const TIME_ATTR: &'static str = "t2";

    fn solve(
        &mut self,
        step: &Step<'_>,
        x: &mut [f64],
        stats: &mut MpdeStats,
    ) -> Result<(), MpdeError> {
        let (n, n0) = (self.colloc.n, self.colloc.n0);
        self.work.get_mut().drop_point();
        for (s, row) in self.b.chunks_exact_mut(n).enumerate() {
            self.forcing.eval(s as f64 / n0 as f64, step.t_new, row);
        }
        // No step tolerance: the MPDE envelope has not moved onto
        // DASSL's Newton test, so even adaptive steps solve to the
        // policy's tolerance.
        let sys = CollocStep {
            dae: self.dae,
            colloc: &self.colloc,
            step: Step { tol: None, ..*step },
            b: &self.b,
            g_prev: &self.g_prev,
            omega: Omega::Fixed(self.f1),
            work: &self.work,
        };
        let at_t2 = step.t_new;
        sys.solve(&mut self.engine, x, &self.newton, stats)
            .map_err(|e| match e {
                NewtonError::Singular { .. } => MpdeError::Singular { at_t2 },
                NewtonError::NoConvergence { residual, .. } => {
                    MpdeError::NewtonFailed { at_t2, residual }
                }
                NewtonError::BadInput(msg) => MpdeError::BadInput(msg),
            })
    }

    fn accept(&mut self, step: &Step<'_>, x: &[f64], q: &mut [f64]) -> Result<(), MpdeError> {
        accepted_g(
            self.dae,
            &self.colloc,
            x,
            self.f1,
            &self.b,
            self.work.get_mut(),
            &mut self.g_prev,
            q,
        );
        self.t2s.push(step.t_new);
        self.states.push(x.to_vec());
        Ok(())
    }

    fn step_too_small(&self, at_t2: f64, step: f64) -> MpdeError {
        MpdeError::StepTooSmall { at_t2, step }
    }
}

/// Deck adapter: runs a `.mpde` directive. The spec's AM forcing fields
/// map onto an [`AmForcing`] into the named KCL row; its step keys pick
/// fixed-step mode (the default, `dt=`) or — when `rtol` is positive —
/// LTE-adaptive stepping with `dt` as the initial step.
///
/// # Errors
///
/// [`MpdeError::BadInput`] when the forced node index is out of range;
/// otherwise see [`solve_envelope_mpde`].
pub fn run_mpde_spec<D: Dae + ?Sized>(
    dae: &D,
    spec: &circuitdae::MpdeSpec,
) -> Result<MpdeResult, MpdeError> {
    run_mpde_spec_warm(dae, spec, None)
}

/// [`run_mpde_spec`] with a continuation warm start: `init` (the
/// `states[0]` collocation slice of a neighbouring grid point's
/// [`MpdeResult`]) seeds the `t2 = 0` steady solve, skipping the DC
/// operating point. See [`solve_envelope_mpde_from`].
///
/// # Errors
///
/// As [`run_mpde_spec`].
pub fn run_mpde_spec_warm<D: Dae + ?Sized>(
    dae: &D,
    spec: &circuitdae::MpdeSpec,
    init: Option<&[f64]>,
) -> Result<MpdeResult, MpdeError> {
    if spec.node >= dae.dim() {
        return Err(MpdeError::BadInput(format!(
            "forced node index {} out of range (dim = {})",
            spec.node,
            dae.dim()
        )));
    }
    let forcing = AmForcing {
        node: spec.node,
        carrier_amplitude: spec.amplitude,
        mod_depth: spec.mod_depth,
        mod_freq_hz: spec.mod_freq_hz,
    };
    let step = if spec.rtol > 0.0 {
        Some(StepPolicy::Adaptive {
            rtol: spec.rtol,
            atol: spec.atol,
            dt_init: spec.dt,
            dt_min: spec.dt_min,
            dt_max: spec.dt_max,
        })
    } else if spec.dt > 0.0 {
        Some(StepPolicy::Fixed(spec.dt))
    } else {
        None
    };
    solve_envelope_mpde_from(
        dae,
        &forcing,
        spec.f1_hz,
        spec.t_stop,
        &MpdeOptions {
            harmonics: spec.harmonics,
            linear_solver: spec.solver,
            integrator: spec.integrator,
            step,
            ..Default::default()
        },
        init,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::{Circuit, Device, Waveform};
    use transim::{run_transient, Integrator, StepControl, TransientOptions};

    fn rc(r: f64, c: f64) -> circuitdae::CircuitDae {
        let mut ckt = Circuit::new();
        let n = ckt.node("out");
        ckt.add(Device::resistor(n, Circuit::GND, r));
        ckt.add(Device::capacitor(n, Circuit::GND, c));
        // Placeholder source so b(t) machinery exists; MPDE ignores it.
        ckt.add(Device::current_source(Circuit::GND, n, Waveform::Dc(0.0)));
        ckt.build().unwrap()
    }

    #[test]
    fn am_envelope_matches_quasi_static_filter_response() {
        // Carrier 1 MHz ≫ envelope 1 kHz: the filter sees the carrier with
        // quasi-static envelope, so the fast-axis amplitude at each t2 must
        // track |H(j2πf1)|·A·(1 + m sin 2π f_mod t2).
        let (rv, cv) = (1.0e3, 1.0e-9);
        let dae = rc(rv, cv);
        let f1 = 1.0e6;
        let fmod = 1.0e3;
        let forcing = AmForcing {
            node: 0,
            carrier_amplitude: 1.0e-3,
            mod_depth: 0.5,
            mod_freq_hz: fmod,
        };
        let sol = solve_envelope_mpde(
            &dae,
            &forcing,
            f1,
            1.0e-3,
            &MpdeOptions {
                harmonics: 4,
                dt2: 1.0e-5,
                ..Default::default()
            },
        )
        .unwrap();
        let w = 2.0 * std::f64::consts::PI * f1;
        let hmag = rv / (1.0 + (w * rv * cv).powi(2)).sqrt();
        let env = sol.envelope_amplitude(0);
        for (idx, &t) in sol.t2.iter().enumerate() {
            // Skip the first couple of points (carrier phase transients).
            if idx < 2 {
                continue;
            }
            let want = 1.0e-3 * hmag * (1.0 + 0.5 * (2.0 * std::f64::consts::PI * fmod * t).sin());
            let got = env[idx];
            assert!(
                (got - want).abs() / want < 0.05,
                "t2={t}: envelope {got} vs {want}"
            );
        }
    }

    #[test]
    fn reconstruction_matches_direct_transient() {
        // Full univariate comparison on a shorter run.
        let (rv, cv) = (1.0e3, 1.0e-9);
        let f1 = 1.0e6;
        let fmod = 2.0e4; // closer separation so the run is short
        let forcing = AmForcing {
            node: 0,
            carrier_amplitude: 1.0e-3,
            mod_depth: 0.3,
            mod_freq_hz: fmod,
        };
        let dae = rc(rv, cv);
        let sol = solve_envelope_mpde(
            &dae,
            &forcing,
            f1,
            5.0e-5,
            &MpdeOptions {
                harmonics: 4,
                dt2: 5.0e-7,
                ..Default::default()
            },
        )
        .unwrap();

        // Direct transient of the same circuit with the univariate source.
        struct Univariate {
            inner: circuitdae::CircuitDae,
            forcing: AmForcing,
            f1: f64,
        }
        impl circuitdae::Dae for Univariate {
            fn dim(&self) -> usize {
                self.inner.dim()
            }
            fn eval_q(&self, x: &[f64], out: &mut [f64]) {
                self.inner.eval_q(x, out);
            }
            fn eval_f(&self, x: &[f64], out: &mut [f64]) {
                self.inner.eval_f(x, out);
            }
            fn eval_b(&self, t: f64, out: &mut [f64]) {
                self.forcing.eval((t * self.f1).fract(), t, out);
            }
            fn jac_q(&self, x: &[f64], out: &mut numkit::DMat) {
                self.inner.jac_q(x, out);
            }
            fn jac_f(&self, x: &[f64], out: &mut numkit::DMat) {
                self.inner.jac_f(x, out);
            }
        }
        let uni = Univariate {
            inner: rc(rv, cv),
            forcing,
            f1,
        };
        // Start the transient from the MPDE's own initial slice value at
        // t1 = 0 (a point on the fast periodic steady state).
        let x0 = vec![sol.states[0][0]];
        let tr = run_transient(
            &uni,
            &x0,
            0.0,
            5.0e-5,
            &TransientOptions {
                integrator: Integrator::Trapezoidal,
                step: StepControl::Fixed(2.0e-9),
                ..Default::default()
            },
        )
        .unwrap();
        let mut max_err = 0.0_f64;
        let mut max_amp = 0.0_f64;
        for i in 0..500 {
            let t = 1.0e-5 + i as f64 * 5.0e-8; // skip initial transient
            let a = sol.reconstruct(0, &[t])[0];
            let b = tr.sample(0, t);
            max_err = max_err.max((a - b).abs());
            max_amp = max_amp.max(b.abs());
        }
        assert!(
            max_err < 0.05 * max_amp,
            "max err {max_err} vs amplitude {max_amp}"
        );
    }

    #[test]
    fn bad_inputs() {
        let dae = rc(1e3, 1e-9);
        let f = AmForcing {
            node: 0,
            carrier_amplitude: 1.0,
            mod_depth: 0.0,
            mod_freq_hz: 1.0,
        };
        assert!(solve_envelope_mpde(&dae, &f, -1.0, 1.0, &MpdeOptions::default()).is_err());
        assert!(solve_envelope_mpde(&dae, &f, 1.0, -1.0, &MpdeOptions::default()).is_err());
        // A grid `Colloc` would panic on.
        let no_harmonics = MpdeOptions {
            harmonics: 0,
            ..Default::default()
        };
        assert!(matches!(
            solve_envelope_mpde(&dae, &f, 1.0, 1.0, &no_harmonics),
            Err(MpdeError::BadInput(_))
        ));
    }

    #[test]
    fn sparse_backends_match_dense_envelope() {
        let dae = rc(1e3, 1e-9);
        let forcing = AmForcing {
            node: 0,
            carrier_amplitude: 1.0e-3,
            mod_depth: 0.5,
            mod_freq_hz: 1.0e3,
        };
        let base = MpdeOptions {
            harmonics: 4,
            dt2: 5.0e-5,
            ..Default::default()
        };
        let dense = solve_envelope_mpde(&dae, &forcing, 1.0e6, 5.0e-4, &base).unwrap();
        for kind in [LinearSolverKind::Klu, LinearSolverKind::gmres_default()] {
            let opts = MpdeOptions {
                linear_solver: kind,
                ..base
            };
            let sol = solve_envelope_mpde(&dae, &forcing, 1.0e6, 5.0e-4, &opts).unwrap();
            assert_eq!(dense.t2.len(), sol.t2.len());
            for (a, b) in dense.states.iter().zip(sol.states.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x - y).abs() < 1e-9, "{}: {x} vs {y}", kind.label());
                }
            }
        }
    }
}
