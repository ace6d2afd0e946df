//! Periodic steady state of unforced oscillators by shooting.
//!
//! For an autonomous oscillator, the boundary-value problem is
//!
//! ```text
//! Φ_T(x0) − x0 = 0        (state returns after one period)
//! (b − f(x0))_k = 0       (phase anchor: q̇_k = 0 at t = 0)
//! ```
//!
//! with unknowns `(x0, T)`. [`find_periodic_orbit`] solves it with Newton,
//! computing the flow `Φ_T` by fixed-step implicit integration and, when
//! the Newton needs a Jacobian, the monodromy `∂Φ_T/∂x0` by per-step
//! sensitivity propagation along the flow's states — the classical
//! approach (Aprille & Trick \[AT72\]) the paper lists among the
//! baselines that work for *unforced* oscillators but cannot handle
//! FM-quasiperiodic forcing (Section 2).
//!
//! The resulting [`PeriodicOrbit`] provides the nominal period and a
//! uniformly resampled waveform — exactly what the WaMPDE needs as its
//! initial condition.
//!
//! # Example
//!
//! ```no_run
//! use circuitdae::analytic::VanDerPol;
//! use shooting::{oscillator_steady_state, ShootingOptions};
//!
//! let vdp = VanDerPol::unforced(0.5);
//! let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
//! assert!((orbit.period - vdp.approx_period()).abs() / orbit.period < 0.01);
//! ```

use circuitdae::Dae;
use linsolve::{FactorCache, LinearSolverKind, NewtonMatrix};
use newtonkit::{Damping, NewtonEngine, NewtonError, NewtonPolicy, NewtonSystem};
use numkit::vecops::norm2;
use numkit::{DMat, DenseLu};
use sparsekit::Triplets;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;
use transim::{
    reference_fits, run_transient, run_transient_seeded, run_transient_with, Integrator,
    StepControl, TransientOptions, TransientResult,
};

/// Errors from the shooting solver.
#[derive(Debug, Clone, PartialEq)]
pub enum ShootingError {
    /// Underlying transient/Newton machinery failed.
    Transient(transim::TransimError),
    /// The outer Newton iteration on `(x0, T)` did not converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// No oscillation: the warm-up transient never crossed its mean, or
    /// the orbit Newton converged onto a stable equilibrium (a
    /// phase-variable swing at the level of the Newton tolerance).
    NoOscillation,
    /// Invalid configuration.
    BadInput(String),
}

impl fmt::Display for ShootingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShootingError::Transient(e) => write!(f, "transient failure: {e}"),
            ShootingError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "shooting newton did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            ShootingError::NoOscillation => {
                write!(
                    f,
                    "no oscillation: the warm-up never oscillated or the orbit collapsed onto the equilibrium"
                )
            }
            ShootingError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for ShootingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShootingError::Transient(e) => Some(e),
            _ => None,
        }
    }
}

impl From<transim::TransimError> for ShootingError {
    fn from(e: transim::TransimError) -> Self {
        ShootingError::Transient(e)
    }
}

/// Options for [`find_periodic_orbit`] / [`oscillator_steady_state`].
#[derive(Debug, Clone, Copy)]
pub struct ShootingOptions {
    /// Fixed integration steps per period for the flow evaluation.
    pub steps_per_period: usize,
    /// Integrator used for the flow (Trapezoidal recommended).
    pub integrator: Integrator,
    /// Maximum outer Newton iterations on `(x0, T)`.
    pub max_iter: usize,
    /// Convergence tolerance on the boundary residual, relative to the
    /// orbit amplitude.
    pub tol: f64,
    /// Index of the variable used for the phase anchor and for period
    /// detection (typically the oscillating node voltage).
    pub phase_var: usize,
    /// Length, in detected periods, of the settle transient in
    /// [`oscillator_steady_state`]'s tight *fallback* attempt, which runs
    /// only when the first, loose attempt (a settle of a few periods)
    /// fails. Both attempts' warm-ups also scale with it: each warm-up
    /// window spans `warmup_periods / 10` estimates of the oscillation
    /// horizon, which the loose attempt's warm-up leaves early once the
    /// oscillation has settled.
    pub warmup_periods: f64,
    /// Relative kick applied to the phase variable of the DC solution to
    /// start the oscillation in [`oscillator_steady_state`] (both the
    /// loose attempt and the fallback; at least 1e-3).
    pub kick: f64,
    /// Linear-solver backend for the flow-step Newton solves, the
    /// monodromy propagation, and the bordered boundary system.
    pub linear_solver: LinearSolverKind,
}

impl Default for ShootingOptions {
    fn default() -> Self {
        ShootingOptions {
            steps_per_period: 512,
            integrator: Integrator::Trapezoidal,
            max_iter: 40,
            tol: 1e-8,
            phase_var: 0,
            warmup_periods: 40.0,
            kick: 0.1,
            linear_solver: LinearSolverKind::default(),
        }
    }
}

/// A periodic steady-state orbit of an autonomous system.
#[derive(Debug, Clone)]
pub struct PeriodicOrbit {
    /// State at the phase-anchor time.
    pub x0: Vec<f64>,
    /// Oscillation period (s).
    pub period: f64,
    /// The `steps_per_period + 1` states of the converged flow at its
    /// uniform steps across one period, `x0` through `x(T)`.
    pub samples: Vec<Vec<f64>>,
    /// Outer Newton iterations used.
    pub iterations: usize,
    /// The converged `(x0, period)` of the up to two continuation-chain
    /// positions this orbit was continued from, oldest first, the
    /// neighbour last; empty for an orbit found cold. This is what
    /// [`ShootingWarmStart::from_orbit`] hands on, so that the next
    /// position's seed can be extrapolated through three orbits.
    pub lineage: Vec<(Vec<f64>, f64)>,
    /// The monodromy the orbit Newton's last Jacobian bordered (or, when
    /// it formed none, the neighbour's it was handed): what
    /// [`ShootingWarmStart::from_orbit`] hands on for the next position's
    /// first step. Not the monodromy at the converged orbit, which
    /// [`PeriodicOrbit::monodromy`] replays.
    pub(crate) newton_monodromy: Option<Arc<DMat>>,
}

impl PeriodicOrbit {
    /// Fundamental frequency (Hz).
    pub fn frequency(&self) -> f64 {
        1.0 / self.period
    }

    /// Resamples variable traces onto an odd uniform grid of `n` points
    /// over one period via linear interpolation of the stored samples
    /// (adequate because `steps_per_period ≫ n`). Returns a row-major
    /// `n × dim` sample matrix: `out[s][i]` = variable `i` at phase `s/n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is even or zero.
    pub fn resample_uniform(&self, n: usize) -> Vec<Vec<f64>> {
        assert!(n % 2 == 1 && n > 0, "resample grid must be odd");
        let m = self.samples.len();
        let dim = self.x0.len();
        (0..n)
            .map(|s| {
                let phase = s as f64 / n as f64 * m as f64;
                let lo = (phase.floor() as usize) % m;
                let hi = (lo + 1) % m;
                let w = phase - phase.floor();
                (0..dim)
                    .map(|i| self.samples[lo][i] * (1.0 - w) + self.samples[hi][i] * w)
                    .collect()
            })
            .collect()
    }

    /// The monodromy matrix `∂Φ_T/∂x0` at the orbit, propagated along
    /// [`PeriodicOrbit::samples`] by the steps of the flow that found
    /// them. `opts` must be the options the orbit was solved with: the
    /// samples do not record the integrator, and another one's step
    /// matrices give another matrix without an error.
    ///
    /// # Errors
    ///
    /// [`ShootingError::BadInput`] when `opts` do not match the samples
    /// or use BDF2; a transient error for a singular step matrix.
    pub fn monodromy<D: Dae + ?Sized>(
        &self,
        dae: &D,
        opts: &ShootingOptions,
    ) -> Result<DMat, ShootingError> {
        if self.samples.len() != opts.steps_per_period + 1 || self.x0.len() != dae.dim() {
            return Err(ShootingError::BadInput(
                "orbit samples do not match the system and steps_per_period".into(),
            ));
        }
        let mut lu = FactorCache::new(opts.linear_solver);
        monodromy_pass(dae, &self.samples, self.period, opts.integrator, &mut lu)
    }
}

/// One flow integration over a period guess.
struct Flow {
    /// The end state `x(T)`.
    x_end: Vec<f64>,
    /// The states at every step, `x0` first.
    samples: Vec<Vec<f64>>,
    /// The flow transient's counters.
    stats: obskit::RunStats,
}

/// The sparse stamps `C = ∂q/∂x` and `G = ∂f/∂x` at a flow's latest
/// state and at the one before it: all a step needs to assemble its
/// step matrix and to propagate the monodromy.
struct StepStamps {
    c_prev: Triplets,
    g_prev: Triplets,
    c: Triplets,
    g: Triplets,
}

impl StepStamps {
    /// The stamps at the initial state `x0`.
    fn at<D: Dae + ?Sized>(dae: &D, x0: &[f64]) -> Self {
        let n = dae.dim();
        let mut stamps = StepStamps {
            c_prev: Triplets::new(n, n),
            g_prev: Triplets::new(n, n),
            c: Triplets::new(n, n),
            g: Triplets::new(n, n),
        };
        dae.jac_q_triplets(x0, &mut stamps.c);
        dae.jac_f_triplets(x0, &mut stamps.g);
        stamps
    }

    /// Makes the latest stamps the previous ones and stamps `x`.
    fn advance<D: Dae + ?Sized>(&mut self, dae: &D, x: &[f64]) {
        std::mem::swap(&mut self.c_prev, &mut self.c);
        std::mem::swap(&mut self.g_prev, &mut self.g);
        self.c.clear();
        self.g.clear();
        dae.jac_q_triplets(x, &mut self.c);
        dae.jac_f_triplets(x, &mut self.g);
    }

    /// The step matrix `A = a0h·C + θ·G` at the latest state, as the
    /// same triplet sequence the step's Newton stamps.
    fn step_matrix(&self, a0h: f64, theta: f64, out: &mut Triplets) {
        out.clear();
        out.append_scaled(&self.c, a0h);
        out.append_scaled(&self.g, theta);
    }

    /// `out = B·m` with `B = a0h·C_prev − (1 − θ)·G_prev`, the
    /// sensitivity map of the step's previous state, applied stamp by
    /// stamp.
    fn propagate(&self, a0h: f64, theta: f64, m: &DMat, out: &mut DMat) {
        out.fill_zero();
        let mut add = |stamps: &Triplets, s: f64| {
            for (r, c, v) in stamps.iter() {
                let w = s * v;
                for (o, &mv) in out.row_mut(r).iter_mut().zip(m.row(c)) {
                    *o += w * mv;
                }
            }
        };
        add(&self.c_prev, a0h);
        if theta < 1.0 {
            add(&self.g_prev, -(1.0 - theta));
        }
    }
}

/// The weight `θ` of a step's instantaneous term at its new state, for
/// the one-step schemes the monodromy propagation supports.
fn one_step_theta(integrator: Integrator) -> Result<f64, ShootingError> {
    match integrator {
        Integrator::BackwardEuler => Ok(1.0),
        Integrator::Trapezoidal => Ok(0.5),
        Integrator::Bdf2 => Err(ShootingError::BadInput(
            "monodromy propagation supports BackwardEuler/Trapezoidal".into(),
        )),
    }
}

/// Integrates the flow over `[0, T]` with `steps` fixed implicit steps
/// on the transient's own modified Newton, seeded step by step along
/// `reference` (another flow's states at the same steps) when there is
/// one. A seeded flow that fails is rerun on the history predictor
/// (counting `shooting.seed_fallbacks`) before its error surfaces.
fn flow<D: Dae + ?Sized>(
    dae: &D,
    x0: &[f64],
    period: f64,
    steps: usize,
    integrator: Integrator,
    solver: LinearSolverKind,
    reference: Option<&[Vec<f64>]>,
) -> Result<Flow, ShootingError> {
    one_step_theta(integrator)?;
    let opts = TransientOptions {
        integrator,
        step: StepControl::Fixed(period / steps as f64),
        newton: NewtonPolicy {
            linear_solver: solver,
            reuse_jacobian: true,
            ..Default::default()
        },
    };
    let seeded = reference.map(|reference| {
        obskit::counter_add("shooting.seeded_flows", 1);
        run_transient_seeded(dae, x0, 0.0, period, &opts, reference)
    });
    let res = match seeded {
        Some(Ok(res)) => res,
        Some(Err(_)) => {
            obskit::counter_add("shooting.seed_fallbacks", 1);
            run_transient(dae, x0, 0.0, period, &opts)?
        }
        None => run_transient(dae, x0, 0.0, period, &opts)?,
    };
    Ok(Flow {
        x_end: res.last().to_vec(),
        samples: res.states,
        stats: res.stats,
    })
}

/// The monodromy `∂x(T)/∂x0` of the fixed-step `integrator` flow over
/// `[0, period]` through the states `samples` (`x0` first), by per-step
/// sensitivity propagation:
///
/// ```text
/// BE:   (C_i/h + G_i) δx_i = (C_{i-1}/h) δx_{i-1}
/// Trap: (C_i/h + G_i/2) δx_i = (C_{i-1}/h − G_{i-1}/2) δx_{i-1}
/// ```
///
/// whose left matrix `A_i = a0h·C_i + θ·G_i` is the step's iteration
/// matrix at its state. Each step stamps `C_i`, `G_i` once, factors
/// `A_i` once in `factors` and block-solves `M ← A_i⁻¹(B_i·M)`.
fn monodromy_pass<D: Dae + ?Sized>(
    dae: &D,
    samples: &[Vec<f64>],
    period: f64,
    integrator: Integrator,
    factors: &mut FactorCache,
) -> Result<DMat, ShootingError> {
    let theta = one_step_theta(integrator)?;
    // The step sizes the flow's fixed-step controller proposed.
    let ctl = StepControl::Fixed(period / (samples.len() - 1) as f64)
        .resolve(period, integrator.order())
        .map_err(ShootingError::BadInput)?;
    let _sp = obskit::span("monodromy");
    obskit::counter_add("shooting.monodromy_passes", 1);
    let n = dae.dim();
    let mut stamps = StepStamps::at(dae, &samples[0]);
    let mut a = Triplets::new(n, n);
    let mut m = DMat::identity(n);
    let mut bm = DMat::zeros(n, n);
    let mut t = 0.0;
    for x in &samples[1..] {
        let h = ctl.propose(t, period);
        t += h;
        let a0h = 1.0 / h;
        let singular = |_| transim::TransimError::SingularJacobian { at_time: t };
        stamps.advance(dae, x);
        stamps.step_matrix(a0h, theta, &mut a);
        factors
            .factor(&NewtonMatrix::Triplets(&a))
            .map_err(singular)?;
        stamps.propagate(a0h, theta, &m, &mut bm);
        factors
            .solve_block_in_place(bm.as_mut_slice(), n)
            .map_err(singular)?;
        std::mem::swap(&mut m, &mut bm);
    }
    Ok(m)
}

/// Time derivative `ẋ = −C(x)⁻¹·(f(x) − b(0))` (autonomous systems with
/// nonsingular `C`, which all the oscillator circuits here satisfy).
fn state_derivative<D: Dae + ?Sized>(dae: &D, x: &[f64]) -> Result<Vec<f64>, ShootingError> {
    let n = dae.dim();
    let mut c = DMat::zeros(n, n);
    dae.jac_q(x, &mut c);
    let mut rhs = vec![0.0; n];
    dae.eval_f(x, &mut rhs);
    let mut b = vec![0.0; n];
    dae.eval_b(0.0, &mut b);
    for i in 0..n {
        rhs[i] = b[i] - rhs[i];
    }
    let lu = DenseLu::factor(&c).map_err(|_| {
        ShootingError::BadInput("mass matrix C is singular: shooting needs ODE-like DAEs".into())
    })?;
    lu.solve_in_place(&mut rhs)
        .map_err(|_| ShootingError::BadInput("mass matrix solve failed".into()))?;
    Ok(rhs)
}

/// What a warm orbit Newton reuses of the neighbouring chain position's
/// orbit: its samples as the first flow's reference, and the monodromy
/// its orbit Newton last used for the first Jacobian. A part that does
/// not fit the system is left out.
#[derive(Clone, Copy, Default)]
struct NeighbourHint<'a> {
    samples: Option<&'a [Vec<f64>]>,
    monodromy: Option<&'a Arc<DMat>>,
}

impl<'a> NeighbourHint<'a> {
    /// The parts of `seed` that fit an `n`-state system shot with
    /// `steps` steps per period: samples of `steps + 1` finite states of
    /// width `n`, and a finite `n × n` monodromy.
    fn of(seed: &'a ShootingWarmStart, n: usize, steps: usize) -> Self {
        NeighbourHint {
            samples: reference_fits(&seed.samples, n, steps).then_some(seed.samples.as_slice()),
            monodromy: seed.monodromy.as_ref().filter(|m| {
                m.nrows() == n && m.ncols() == n && m.as_slice().iter().all(|v| v.is_finite())
            }),
        }
    }
}

/// One flow evaluation memoised at the current iterate `(x0, T)`: the
/// residual and the Jacobian of the cycle system share it, so routing
/// shooting through the shared Newton engine costs exactly one flow
/// integration per iteration — the same as the historical loop.
struct FlowMemo {
    z: Vec<f64>,
    flow: Flow,
}

/// The shooting boundary-value problem `(x(T) − x0, (b − f)_k(x0)) = 0`
/// over the unknowns `z = [x0, T]`, as a [`NewtonSystem`] with
/// trust-region damping hooks: the state move is capped at a fraction of
/// the orbit amplitude and the period unknown is kept within a factor of
/// 2 per step (a full line search would cost one flow integration per
/// trial — not worth it here).
struct CycleSystem<'a, D: Dae + ?Sized> {
    dae: &'a D,
    n: usize,
    k: usize,
    b0: Vec<f64>,
    /// The state scale `max(‖x0_guess‖₂, 1)` that the residual tolerance
    /// and the collapse test are relative to.
    scale: f64,
    steps: usize,
    integrator: Integrator,
    solver: LinearSolverKind,
    flow: RefCell<Option<FlowMemo>>,
    /// The reference of the first flow (a neighbour's samples); every
    /// later flow runs along the flow before it.
    first_reference: Option<&'a [Vec<f64>]>,
    /// The counters of every flow integrated so far.
    flow_stats: RefCell<obskit::RunStats>,
    /// The monodromy the latest Jacobian bordered; before the first, the
    /// neighbour's, if any.
    monodromy: RefCell<Option<Arc<DMat>>>,
    /// Whether the next Jacobian borders `monodromy` as it is (the
    /// neighbour's, for the first step) instead of running a pass.
    chord: Cell<bool>,
    /// The monodromy passes' factorisations.
    factors: RefCell<FactorCache>,
    /// First underlying failure (transient blow-up, singular mass
    /// matrix); reported instead of the generic engine error.
    error: RefCell<Option<ShootingError>>,
}

impl<D: Dae + ?Sized> CycleSystem<'_, D> {
    /// Ensures the memoised flow matches `z`, recomputing if needed.
    /// Returns `false` (and records the error) when the flow fails.
    fn ensure_flow(&self, z: &[f64]) -> bool {
        let flowed = {
            let memo = self.flow.borrow();
            if memo.as_ref().is_some_and(|memo| memo.z == z) {
                return true;
            }
            let reference = match memo.as_ref() {
                Some(memo) => Some(memo.flow.samples.as_slice()),
                None => self.first_reference,
            };
            flow(
                self.dae,
                &z[..self.n],
                z[self.n],
                self.steps,
                self.integrator,
                self.solver,
                reference,
            )
        };
        match flowed {
            Ok(flow) => {
                self.flow_stats.borrow_mut().merge(&flow.stats);
                *self.flow.borrow_mut() = Some(FlowMemo {
                    z: z.to_vec(),
                    flow,
                });
                true
            }
            Err(e) => {
                self.error.borrow_mut().get_or_insert(e);
                false
            }
        }
    }
}

impl<D: Dae + ?Sized> NewtonSystem for CycleSystem<'_, D> {
    fn dim(&self) -> usize {
        self.n + 1
    }

    fn residual(&self, z: &[f64], out: &mut [f64]) {
        if !self.ensure_flow(z) {
            // Poison the residual: the engine reports NoConvergence and
            // the caller surfaces the recorded underlying error.
            out.fill(f64::NAN);
            return;
        }
        let flow = self.flow.borrow();
        let memo = flow.as_ref().expect("flow memoised");
        let mut fvec = vec![0.0; self.n];
        self.dae.eval_f(&z[..self.n], &mut fvec);
        for i in 0..self.n {
            out[i] = memo.flow.x_end[i] - z[i];
        }
        out[self.n] = self.b0[self.k] - fvec[self.k];
    }

    fn jacobian(&self, z: &[f64], out: &mut DMat) {
        // Bordered Jacobian:
        //   [ M − I        ẋ(T) ]
        //   [ −G_k(x0)      0   ]
        // The engine always evaluates the residual at `z` first, so the
        // monodromy is propagated along the memoised flow's states, once
        // per Jacobian: a flow that converges never needs one. A warm
        // solve's first Jacobian borders the neighbour's monodromy
        // instead (a chord step), with a fresh ẋ(T) and phase row.
        out.fill_zero();
        if !self.ensure_flow(z) {
            return;
        }
        let memo = self.flow.borrow();
        let f = &memo.as_ref().expect("flow memoised").flow;
        let fail = |e| {
            self.error.borrow_mut().get_or_insert(e);
        };
        let n = self.n;
        if self.chord.replace(false) {
            obskit::counter_add("shooting.chord_steps", 1);
        } else {
            let mut factors = self.factors.borrow_mut();
            match monodromy_pass(self.dae, &f.samples, z[n], self.integrator, &mut factors) {
                Ok(m) => *self.monodromy.borrow_mut() = Some(Arc::new(m)),
                Err(e) => return fail(e),
            }
        }
        let held = self.monodromy.borrow();
        let monodromy = held.as_deref().expect("a monodromy to border");
        let xdot_end = match state_derivative(self.dae, &f.x_end) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let mut g0 = DMat::zeros(n, n);
        self.dae.jac_f(&z[..n], &mut g0);
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] = monodromy[(i, j)] - if i == j { 1.0 } else { 0.0 };
            }
            out[(i, n)] = xdot_end[i];
            out[(n, i)] = -g0[(self.k, i)];
        }
    }

    fn jacobian_triplets(&self, z: &[f64], out: &mut Triplets) -> bool {
        // The bordered cycle Jacobian is dense (the monodromy couples
        // everything); stamp it once and convert so sparse backends
        // still work.
        let mut jac = DMat::zeros(self.n + 1, self.n + 1);
        self.jacobian(z, &mut jac);
        for i in 0..=self.n {
            for j in 0..=self.n {
                out.push(i, j, jac[(i, j)]);
            }
        }
        true
    }

    fn damp_limit(&self, _z: &[f64], dx: &[f64]) -> f64 {
        let orbit_amp = self
            .flow
            .borrow()
            .as_ref()
            .map(|memo| {
                memo.flow
                    .samples
                    .iter()
                    .flat_map(|s| s.iter())
                    .fold(0.0_f64, |m, v| m.max(v.abs()))
            })
            .unwrap_or(0.0)
            .max(1e-12);
        let dx_norm = norm2(&dx[..self.n]);
        if dx_norm > 0.3 * orbit_amp {
            0.3 * orbit_amp / dx_norm
        } else {
            1.0
        }
    }

    fn step_allowed(&self, z: &[f64], dx: &[f64], lambda: f64) -> bool {
        let period_new = z[self.n] + lambda * dx[self.n];
        period_new > 0.5 * z[self.n] && period_new < 2.0 * z[self.n]
    }
}

/// A converged orbit whose phase-variable swing is at most this many
/// Newton tolerances (relative to the state scale) is the equilibrium.
const COLLAPSE_FACTOR: f64 = 100.0;

/// Solves for a periodic orbit from an initial guess `(x0, period)`.
///
/// The iteration runs on the shared `newtonkit` engine with trust-region
/// damping and the relative-residual convergence law
/// (`‖F‖₂ / max(‖x0_guess‖, 1) < tol`), matching the historical
/// behaviour: one flow integration per iteration, state moves capped at
/// 30 % of the orbit amplitude, the period kept within a factor of 2 per
/// step.
///
/// # Errors
///
/// See [`ShootingError`]. In particular the Newton iteration fails cleanly
/// when the guess is not in the basin of a periodic orbit, and a solve
/// that converges onto an equilibrium (phase-variable swing within 100
/// Newton tolerances of the state scale) reports
/// [`ShootingError::NoOscillation`].
pub fn find_periodic_orbit<D: Dae + ?Sized>(
    dae: &D,
    x0_guess: &[f64],
    period_guess: f64,
    opts: &ShootingOptions,
) -> Result<PeriodicOrbit, ShootingError> {
    metered_orbit(
        dae,
        x0_guess,
        period_guess,
        opts,
        NeighbourHint::default(),
        &mut obskit::RunStats::default(),
    )
}

/// [`find_periodic_orbit`] adding its outer iterations (flow
/// evaluations) to `stats.newton_iters`, and the flows' steps and every
/// factorisation (the flows', the monodromy passes' and the bordered
/// system's) to the other counters, also when it fails.
///
/// The first flow runs along `hint`'s samples, and the first Jacobian
/// borders `hint`'s monodromy (counting `shooting.chord_steps`); every
/// later flow runs along the one before it, and every later Jacobian
/// runs a monodromy pass.
fn metered_orbit<D: Dae + ?Sized>(
    dae: &D,
    x0_guess: &[f64],
    period_guess: f64,
    opts: &ShootingOptions,
    hint: NeighbourHint<'_>,
    stats: &mut obskit::RunStats,
) -> Result<PeriodicOrbit, ShootingError> {
    let _sp = obskit::span_with("shooting", &[("phase", obskit::AttrValue::Str("orbit"))]);
    let n = dae.dim();
    if x0_guess.len() != n {
        return Err(ShootingError::BadInput("x0 guess has wrong length".into()));
    }
    // `partial_cmp` keeps the NaN-rejecting behavior of `!(guess > 0.0)`.
    if period_guess.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(ShootingError::BadInput(
            "period guess must be positive".into(),
        ));
    }
    if opts.phase_var >= n {
        return Err(ShootingError::BadInput("phase_var out of range".into()));
    }

    let mut b0 = vec![0.0; n];
    dae.eval_b(0.0, &mut b0);
    let sys = CycleSystem {
        dae,
        n,
        k: opts.phase_var,
        b0,
        scale: norm2(x0_guess).max(1.0),
        steps: opts.steps_per_period,
        integrator: opts.integrator,
        solver: opts.linear_solver,
        flow: RefCell::new(None),
        first_reference: hint.samples,
        flow_stats: RefCell::new(obskit::RunStats::default()),
        monodromy: RefCell::new(hint.monodromy.cloned()),
        chord: Cell::new(hint.monodromy.is_some()),
        factors: RefCell::new(FactorCache::new(opts.linear_solver)),
        error: RefCell::new(None),
    };

    let mut z = x0_guess.to_vec();
    z.push(period_guess);
    let policy = NewtonPolicy {
        max_iter: opts.max_iter,
        residual_tol: Some(opts.tol * sys.scale),
        damping: Damping::TrustRegion {
            min_lambda: 1.0 / 1024.0,
        },
        linear_solver: opts.linear_solver,
        ..Default::default()
    };
    let mut engine = NewtonEngine::new();
    let solved = engine.solve(&sys, &mut z, &policy);
    // Historical meaning: flow evaluations until convergence (= Newton
    // steps + the converged evaluation).
    let outer = engine.stats();
    let iterations = outer.residual_evals;
    stats.newton_iters += iterations;
    // The flows' steps and the flows' and monodromy passes'
    // factorisations count too; the flows' inner Newton iterations do
    // not, so `newton_iters` stays the orbit Newton's own count.
    let flows = sys.flow_stats.take();
    let passes = sys.factors.borrow().stats();
    stats.steps += flows.steps;
    stats.rejected += flows.rejected;
    stats.factorisations += outer.factorisations + flows.factorisations + passes.factorisations;
    stats.symbolic_reuses += outer.symbolic_reuses + flows.symbolic_reuses + passes.symbolic_reuses;
    match solved {
        Ok(_) => {
            let memo = sys
                .flow
                .into_inner()
                .expect("converged solve memoises its final flow");
            // A phase-variable swing at the level of the Newton tolerance
            // is the equilibrium, not an orbit: the boundary residual
            // vanishes there for any period.
            let (lo, hi) = memo
                .flow
                .samples
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(x[sys.k]), hi.max(x[sys.k]))
                });
            if hi - lo <= COLLAPSE_FACTOR * opts.tol * sys.scale {
                return Err(ShootingError::NoOscillation);
            }
            let period = z[n];
            z.truncate(n);
            Ok(PeriodicOrbit {
                x0: z,
                period,
                samples: memo.flow.samples,
                iterations,
                lineage: Vec::new(),
                newton_monodromy: sys.monodromy.into_inner(),
            })
        }
        Err(engine_err) => {
            if let Some(e) = sys.error.into_inner() {
                return Err(e);
            }
            Err(match engine_err {
                NewtonError::NoConvergence {
                    iterations,
                    residual,
                } => ShootingError::NoConvergence {
                    iterations,
                    residual: residual / sys.scale,
                },
                NewtonError::Singular { .. } => ShootingError::NoConvergence {
                    iterations: engine.stats().iterations,
                    residual: engine.stats().residual_norm / sys.scale,
                },
                NewtonError::BadInput(msg) => ShootingError::BadInput(msg),
            })
        }
    }
}

/// Estimates the period from the tail of a transient by averaging the last
/// rising-zero-crossing intervals of variable `var` (mean-removed).
///
/// Returns `(period, t_last_crossing)` or `None` when fewer than three
/// crossings exist.
pub fn estimate_period_from_transient(res: &TransientResult, var: usize) -> Option<(f64, f64)> {
    let sig = res.signal(var);
    let mean = sig.iter().sum::<f64>() / sig.len() as f64;
    let mut crossings = Vec::new();
    for i in 1..sig.len() {
        let (a, b) = (sig[i - 1] - mean, sig[i] - mean);
        if a <= 0.0 && b > 0.0 {
            let w = -a / (b - a);
            crossings.push(res.times[i - 1] + w * (res.times[i] - res.times[i - 1]));
        }
    }
    if crossings.len() < 3 {
        return None;
    }
    // Average the last up-to-8 intervals.
    let take = crossings.len().min(9);
    let tail = &crossings[crossings.len() - take..];
    let period = (tail[tail.len() - 1] - tail[0]) / (tail.len() - 1) as f64;
    Some((period, *crossings.last().expect("nonempty")))
}

/// Transient accuracy of one cold-start attempt: the kicked warm-up and
/// the settle run adaptive trapezoidal steps at `rtol`, and the settle
/// lasts `settle_periods` detected periods (`None`: the caller's
/// [`ShootingOptions::warmup_periods`]). With `end_settled_warmup` the
/// warm-up ends before its horizon once the phase variable's
/// oscillation has settled ([`SettleCheck`] at `rtol`).
#[derive(Debug, Clone, Copy)]
struct ColdStart {
    rtol: f64,
    settle_periods: Option<f64>,
    end_settled_warmup: bool,
}

/// The first attempt. The transients only have to land the orbit
/// Newton in its basin; the orbit's accuracy comes from that Newton
/// (`tol`, fixed `steps_per_period`), so a loose warm-up that stops once
/// the oscillation has settled and a settle of a few periods suffice.
const LOOSE_START: ColdStart = ColdStart {
    rtol: 1e-3,
    settle_periods: Some(4.0),
    end_settled_warmup: true,
};

/// The fallback when the loose attempt fails for any reason: an
/// accurate warm-up over its whole horizon and a settle of
/// `warmup_periods` periods.
const TIGHT_START: ColdStart = ColdStart {
    rtol: 1e-6,
    settle_periods: None,
    end_settled_warmup: false,
};

/// Consecutive peak-to-peak changes of the phase variable, each within
/// the attempt's `rtol` of the newer peak, after which a loose warm-up
/// counts as settled.
const SETTLED_PEAKS: usize = 3;

/// How a cold start's warm-up ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warmup {
    /// On the settle check, before its horizon.
    Settled,
    /// At its horizon.
    Horizon,
}

impl Warmup {
    fn label(self) -> &'static str {
        match self {
            Warmup::Settled => "settled",
            Warmup::Horizon => "horizon",
        }
    }
}

/// The settle check of a loose warm-up, fed the phase variable's
/// accepted samples in order. A sample no lower than the one before it
/// and higher than the one after it is a peak, as in
/// [`state_at_last_peak`]; the oscillation has settled once
/// [`SETTLED_PEAKS`] consecutive peak-to-peak changes are each within
/// `rtol` of the newer peak. A signal without peaks never settles.
#[derive(Debug)]
struct SettleCheck {
    rtol: f64,
    /// The sample before `latest`, once there is one.
    before: Option<f64>,
    latest: f64,
    peak: Option<f64>,
    agreeing: usize,
}

impl SettleCheck {
    /// A check whose first sample is `first` (the warm-up's start).
    fn new(rtol: f64, first: f64) -> Self {
        SettleCheck {
            rtol,
            before: None,
            latest: first,
            peak: None,
            agreeing: 0,
        }
    }

    /// Takes the next sample; `true` once the oscillation has settled.
    fn push(&mut self, next: f64) -> bool {
        let mid = self.latest;
        if self
            .before
            .is_some_and(|before| mid >= before && mid > next)
        {
            let agrees = self
                .peak
                .is_some_and(|peak| (mid - peak).abs() <= self.rtol * mid.abs());
            self.agreeing = if agrees { self.agreeing + 1 } else { 0 };
            self.peak = Some(mid);
        }
        self.before = Some(mid);
        self.latest = next;
        self.agreeing >= SETTLED_PEAKS
    }
}

/// Full pipeline for an autonomous oscillator: DC operating point →
/// kicked warm-up transient → period detection → settle → shooting.
///
/// The warm-up and settle first run loosely (rtol 1e-3, a settle of 4
/// detected periods), and this warm-up ends early once the phase
/// variable's oscillation has settled: 3 consecutive peak-to-peak
/// changes each within the rtol of the peak (counting
/// `shooting.warmup_settled`); a warm-up that has not settled runs to
/// its horizon. Only if that attempt fails — no oscillation detected, a
/// transient error, orbit Newton non-convergence, or an orbit collapsed
/// onto the equilibrium — does the pipeline run once more with accurate
/// transients, a warm-up over its whole horizon and a settle of
/// [`ShootingOptions::warmup_periods`] periods, counting
/// `shooting.cold_fallbacks`. The fallback changes cost, never which
/// orbits can be reached.
///
/// # Errors
///
/// [`ShootingError::NoOscillation`] when the circuit does not oscillate
/// (the warm-up never crosses its mean, or the orbit collapses onto a
/// stable equilibrium); otherwise the shooting errors of the fallback.
pub fn oscillator_steady_state<D: Dae + ?Sized>(
    dae: &D,
    opts: &ShootingOptions,
) -> Result<PeriodicOrbit, ShootingError> {
    oscillator_steady_state_with_stats(dae, opts, None).map(|(orbit, _)| orbit)
}

/// [`oscillator_steady_state`] with an optional continuation warm start,
/// additionally reporting the work done as one [`obskit::RunStats`]:
/// every warm-up/settle transient plus every orbit Newton's outer
/// iterations, failed attempts included — the cost a point actually
/// paid, so batched sweeps can meter what a warm start saved.
///
/// When `warm` holds a neighbouring chain position's converged orbit,
/// shooting skips the DC solve, the transients and period detection, and
/// tries up to three starts in order:
///
/// 1. the **extrapolated** start: when `warm` also carries the lineage of
///    one or two earlier positions, the next `(x0, T)` is extrapolated in
///    chain index through them and the neighbour (`2b − a` through two
///    orbits, `3c − 3b + a` through three). A prediction with a
///    non-finite entry or a non-positive period is skipped; one whose
///    Newton fails counts `shooting.predictor_fallbacks`;
/// 2. the **neighbour** start: the neighbour's own `(x0, T)`;
/// 3. the **cold** pipeline of [`oscillator_steady_state`].
///
/// Both warm starts ride the neighbour's orbit: their first flow is
/// seeded step by step along [`ShootingWarmStart::samples`] (counting
/// `shooting.seeded_flows`, as every later flow seeded along the flow
/// before it does), and their first Newton step borders
/// [`ShootingWarmStart::monodromy`] with a fresh `ẋ(T)` and phase row
/// (counting `shooting.chord_steps`) instead of running a monodromy
/// pass; a step that does not reach `tol` leaves the next Jacobian to a
/// pass. Samples or a monodromy that do not fit the system are not used.
/// The cold pipeline uses neither.
///
/// Each start runs only when the one before it failed for any reason
/// (no convergence, a flow error, or an orbit collapsed onto the
/// equilibrium), so a failed start costs its iterations, never the
/// point. An orbit reached
/// from either warm start records the last two of those positions as
/// its [`PeriodicOrbit::lineage`]; a cold orbit records none.
///
/// # Errors
///
/// [`ShootingError::BadInput`] when `phase_var` is out of range,
/// otherwise as [`oscillator_steady_state`].
pub fn oscillator_steady_state_with_stats<D: Dae + ?Sized>(
    dae: &D,
    opts: &ShootingOptions,
    warm: Option<&ShootingWarmStart>,
) -> Result<(PeriodicOrbit, obskit::RunStats), ShootingError> {
    let n = dae.dim();
    if opts.phase_var >= n {
        return Err(ShootingError::BadInput(format!(
            "phase_var {} out of range (dim = {n})",
            opts.phase_var,
        )));
    }
    let mut stats = obskit::RunStats::default();
    if let Some(seed) = warm.filter(|seed| seed.x0.len() == n && seed.period > 0.0) {
        // Consecutive converged chain positions, oldest first, ending
        // with the neighbour; a lineage of the wrong size is dropped.
        let earlier = &seed.lineage[seed.lineage.len().saturating_sub(2)..];
        let mut points: Vec<(&[f64], f64)> = Vec::with_capacity(3);
        if earlier.iter().all(|(x0, _)| x0.len() == n) {
            points.extend(earlier.iter().map(|(x0, period)| (x0.as_slice(), *period)));
        }
        points.push((&seed.x0, seed.period));
        let continued = |mut orbit: PeriodicOrbit| {
            orbit.lineage = points[points.len().saturating_sub(2)..]
                .iter()
                .map(|&(x0, period)| (x0.to_vec(), period))
                .collect();
            orbit
        };
        let hint = NeighbourHint::of(seed, n, opts.steps_per_period);
        if let Some((x0, period)) = extrapolate_seed(&points) {
            match metered_orbit(dae, &x0, period, opts, hint, &mut stats) {
                Ok(orbit) => return Ok((continued(orbit), stats)),
                Err(_) => obskit::counter_add("shooting.predictor_fallbacks", 1),
            }
        }
        if let Ok(orbit) = metered_orbit(dae, &seed.x0, seed.period, opts, hint, &mut stats) {
            return Ok((continued(orbit), stats));
        }
    }
    let sp = obskit::span_with(
        "shooting",
        &[("phase", obskit::AttrValue::Str("steady-state"))],
    );
    let dc = transim::dc_operating_point(dae, &NewtonPolicy::default())?;
    let (orbit, warmup) = cold_start(dae, opts, &dc, LOOSE_START, &mut stats).or_else(|_| {
        obskit::counter_add("shooting.cold_fallbacks", 1);
        cold_start(dae, opts, &dc, TIGHT_START, &mut stats)
    })?;
    sp.attr("warmup", warmup.label());
    Ok((orbit, stats))
}

/// The continuation predictor: extrapolates the next chain position's
/// `(x0, T)` in chain index through the converged `(x0, T)` of two or
/// three consecutive positions, oldest first — `2b − a` or
/// `3c − 3b + a`. Chain index is the abscissa because shooting never sees
/// the swept parameter, and `.sweep` grids step uniformly (linear) or
/// smoothly (`log`) in index.
///
/// `None` with fewer than two positions, and for a prediction with a
/// non-finite entry or a non-positive period: such a seed is not tried.
#[inline]
fn extrapolate_seed(points: &[(&[f64], f64)]) -> Option<(Vec<f64>, f64)> {
    let weights: &[f64] = match points.len() {
        2 => &[-1.0, 2.0],
        3 => &[1.0, -3.0, 3.0],
        _ => return None,
    };
    let mut x0 = vec![0.0; points[0].0.len()];
    let mut period = 0.0;
    for (&w, &(x, p)) in weights.iter().zip(points) {
        for (xi, v) in x0.iter_mut().zip(x) {
            *xi += w * v;
        }
        period += w * p;
    }
    (period > 0.0 && period.is_finite() && x0.iter().all(|v| v.is_finite())).then_some((x0, period))
}

/// One cold-start attempt from the DC point `dc`: kick, warm up until an
/// oscillation period is detected, settle at `start`'s accuracy, then
/// run the orbit Newton. Returns the orbit and how the warm-up that
/// found its period ended. Accumulates the work done into `stats`, also
/// when the attempt fails.
fn cold_start<D: Dae + ?Sized>(
    dae: &D,
    opts: &ShootingOptions,
    dc: &[f64],
    start: ColdStart,
    stats: &mut obskit::RunStats,
) -> Result<(PeriodicOrbit, Warmup), ShootingError> {
    // Kick the phase variable off the (typically unstable) equilibrium.
    let mut x = dc.to_vec();
    let kick = opts.kick.abs().max(1e-3);
    x[opts.phase_var] += kick * (1.0 + x[opts.phase_var].abs());

    // Warm-up horizon from the state derivative magnitude, then an
    // adaptive transient over it, growing the horizon until the phase
    // variable crosses its mean often enough to estimate a period.
    let mut horizon_guess = 1.0_f64;
    if let Ok(xdot) = state_derivative(dae, &x) {
        let rate = norm2(&xdot) / norm2(&x).max(1e-12);
        if rate.is_finite() && rate > 0.0 {
            horizon_guess = (2.0 * std::f64::consts::PI / rate) * 3.0;
        }
    }

    for _attempt in 0..8 {
        let opts_tr = TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Adaptive {
                rtol: start.rtol,
                atol: 1e-12,
                dt_init: horizon_guess / 2000.0,
                dt_min: 0.0,
                dt_max: horizon_guess / 200.0,
            },
            newton: NewtonPolicy {
                linear_solver: opts.linear_solver,
                ..Default::default()
            },
        };
        let mut check = SettleCheck::new(start.rtol, x[opts.phase_var]);
        let mut warmup = Warmup::Horizon;
        let warm = run_transient_with(
            dae,
            &x,
            0.0,
            horizon_guess * opts.warmup_periods / 10.0,
            &opts_tr,
            |state| {
                if start.end_settled_warmup && check.push(state[opts.phase_var]) {
                    warmup = Warmup::Settled;
                    return Ok(ControlFlow::Break(()));
                }
                Ok(ControlFlow::Continue(()))
            },
        )?;
        stats.merge(&warm.stats);
        if warmup == Warmup::Settled {
            obskit::counter_add("shooting.warmup_settled", 1);
        }
        if let Some((period, _t_cross)) = estimate_period_from_transient(&warm, opts.phase_var) {
            // Settle onto the limit cycle, then pick the state at the last
            // *peak* of the phase variable: there q̇_k ≈ 0 already, so the
            // Newton iteration starts essentially on its phase anchor and
            // converges locally instead of wandering around the cycle.
            let settle_periods = start.settle_periods.unwrap_or(opts.warmup_periods);
            let settle = run_transient(dae, warm.last(), 0.0, period * settle_periods, &opts_tr)?;
            stats.merge(&settle.stats);
            let x0_guess = state_at_last_peak(&settle, opts.phase_var)
                .unwrap_or_else(|| settle.last().to_vec());
            return metered_orbit(
                dae,
                &x0_guess,
                period,
                opts,
                NeighbourHint::default(),
                stats,
            )
            .map(|orbit| (orbit, warmup));
        }
        if warmup == Warmup::Settled {
            // A longer horizon would stop at the same settled point.
            break;
        }
        horizon_guess *= 8.0;
    }
    Err(ShootingError::NoOscillation)
}

/// A continuation warm start: the converged orbit of the neighbouring
/// chain position, plus the lineage of up to two positions before it,
/// which seeds the next position's shooting solve (see
/// [`oscillator_steady_state_with_stats`] for the order of starts).
#[derive(Debug, Clone)]
pub struct ShootingWarmStart {
    /// Converged periodic state at the neighbouring parameter value.
    pub x0: Vec<f64>,
    /// Its period.
    pub period: f64,
    /// The converged `(x0, period)` of up to two chain positions before
    /// the neighbour, oldest first. With one, the next position starts
    /// from the secant prediction `2b − a`; with two, from the quadratic
    /// `3c − 3b + a`; with none, from the neighbour itself.
    pub lineage: Vec<(Vec<f64>, f64)>,
    /// The neighbour's [`PeriodicOrbit::samples`]: the reference a warm
    /// start's first flow is seeded along. Empty for none; samples of
    /// another step count or width, or with a non-finite entry, are not
    /// used.
    pub samples: Vec<Vec<f64>>,
    /// The monodromy the neighbour's orbit Newton last used, which a
    /// warm start's first Newton step borders instead of running a
    /// pass. `None` for none; a matrix of another size, or with a
    /// non-finite entry, is not used.
    pub monodromy: Option<Arc<DMat>>,
}

impl ShootingWarmStart {
    /// The warm start a converged orbit hands to the next chain
    /// position: the orbit itself as the neighbour, its samples and the
    /// monodromy its orbit Newton last used, and its
    /// [`PeriodicOrbit::lineage`] as the earlier positions. Every caller
    /// that chains `from_orbit` therefore gets the same seeds.
    pub fn from_orbit(orbit: &PeriodicOrbit) -> Self {
        ShootingWarmStart {
            x0: orbit.x0.clone(),
            period: orbit.period,
            lineage: orbit.lineage.clone(),
            samples: orbit.samples.clone(),
            monodromy: orbit.newton_monodromy.clone(),
        }
    }
}

/// Deck adapter: runs a `.shooting` directive via
/// [`oscillator_steady_state`] with the spec's step count and phase
/// variable over otherwise-default options.
///
/// # Errors
///
/// [`ShootingError::BadInput`] when `phase_var` is out of range,
/// otherwise see [`oscillator_steady_state`].
pub fn run_shooting_spec<D: Dae + ?Sized>(
    dae: &D,
    spec: &circuitdae::ShootingSpec,
) -> Result<PeriodicOrbit, ShootingError> {
    run_shooting_spec_warm(dae, spec, None).map(|(orbit, _)| orbit)
}

/// [`run_shooting_spec`] with a continuation warm start, through
/// [`oscillator_steady_state_with_stats`]: when `warm` holds a
/// neighbouring chain position's converged orbit, shooting starts from
/// the seed extrapolated through its lineage, then from the neighbour
/// itself, then cold, each only when the one before failed.
///
/// Also returns the [`obskit::RunStats`] of everything the point ran —
/// every warm orbit Newton it tried and the cold pipeline if it got that
/// far: the per-point cost a sweep actually paid.
///
/// # Errors
///
/// As [`oscillator_steady_state_with_stats`].
pub fn run_shooting_spec_warm<D: Dae + ?Sized>(
    dae: &D,
    spec: &circuitdae::ShootingSpec,
    warm: Option<&ShootingWarmStart>,
) -> Result<(PeriodicOrbit, obskit::RunStats), ShootingError> {
    let opts = ShootingOptions {
        steps_per_period: spec.steps_per_period,
        phase_var: spec.phase_var,
        linear_solver: spec.solver,
        ..Default::default()
    };
    oscillator_steady_state_with_stats(dae, &opts, warm)
}

/// State at the last interior local maximum of variable `var`.
fn state_at_last_peak(res: &TransientResult, var: usize) -> Option<Vec<f64>> {
    let sig = res.signal(var);
    for i in (1..sig.len().saturating_sub(1)).rev() {
        if sig[i] >= sig[i - 1] && sig[i] > sig[i + 1] {
            return Some(res.states[i].clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::VanDerPol;
    use circuitdae::circuits;

    #[test]
    fn vdp_period_matches_asymptotics() {
        let vdp = VanDerPol::unforced(0.2);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let expected = vdp.approx_period();
        assert!(
            (orbit.period - expected).abs() / expected < 5e-3,
            "period {} vs {}",
            orbit.period,
            expected
        );
        // Amplitude ≈ 2.
        let amp = orbit
            .samples
            .iter()
            .map(|x| x[0].abs())
            .fold(0.0_f64, f64::max);
        assert!((amp - 2.0).abs() < 0.05, "amplitude {amp}");
    }

    #[test]
    fn vdp_orbit_is_actually_periodic() {
        let vdp = VanDerPol::unforced(1.0);
        let opts = ShootingOptions::default();
        let orbit = oscillator_steady_state(&vdp, &opts).unwrap();
        // The discrete flow at the solver's own discretisation must return
        // to x0 (that is the fixed point shooting solves for).
        let x_end = flow(
            &vdp,
            &orbit.x0,
            orbit.period,
            opts.steps_per_period,
            opts.integrator,
            opts.linear_solver,
            None,
        )
        .unwrap()
        .x_end;
        for (a, b) in x_end.iter().zip(orbit.x0.iter()) {
            assert!((a - b).abs() < 1e-6, "{x_end:?} vs {:?}", orbit.x0);
        }
        // A finer discretisation agrees to integration accuracy O(h²).
        let x_fine = flow(
            &vdp,
            &orbit.x0,
            orbit.period,
            4096,
            opts.integrator,
            opts.linear_solver,
            None,
        )
        .unwrap()
        .x_end;
        for (a, b) in x_fine.iter().zip(orbit.x0.iter()) {
            assert!((a - b).abs() < 5e-3, "fine {x_fine:?} vs {:?}", orbit.x0);
        }
    }

    /// The Floquet multipliers of a 2×2 monodromy with real
    /// eigenvalues, the one closest to 1 first.
    fn multipliers(m: &DMat) -> (f64, f64) {
        let tr = m[(0, 0)] + m[(1, 1)];
        let det = m[(0, 0)] * m[(1, 1)] - m[(0, 1)] * m[(1, 0)];
        let disc = tr * tr / 4.0 - det;
        assert!(disc >= 0.0, "expected real multipliers, disc={disc}");
        let l1 = tr / 2.0 + disc.sqrt();
        let l2 = tr / 2.0 - disc.sqrt();
        if (l1 - 1.0).abs() < (l2 - 1.0).abs() {
            (l1, l2)
        } else {
            (l2, l1)
        }
    }

    #[test]
    fn vdp_monodromy_has_unit_floquet_multiplier() {
        // One Floquet multiplier of an autonomous orbit is exactly 1
        // (perturbations along the orbit neither grow nor decay).
        let vdp = VanDerPol::unforced(0.5);
        let opts = ShootingOptions::default();
        let orbit = oscillator_steady_state(&vdp, &opts).unwrap();
        let (closest, other) = multipliers(&orbit.monodromy(&vdp, &opts).unwrap());
        assert!(
            (closest - 1.0).abs() < 0.02,
            "multipliers {closest}, {other}"
        );
        // The other multiplier must be inside the unit circle (stable orbit).
        assert!(other.abs() < 1.0);
    }

    #[test]
    fn monodromy_with_another_integrator_is_another_matrix() {
        // The samples do not record the integrator that found them: a
        // backward-Euler pass over a trapezoidal orbit runs without an
        // error, but its step maps are not the flow's, and its unit
        // multiplier is off by far more than the solving integrator's.
        let vdp = VanDerPol::unforced(0.5);
        let opts = ShootingOptions::default();
        let orbit = oscillator_steady_state(&vdp, &opts).unwrap();
        let (own, _) = multipliers(&orbit.monodromy(&vdp, &opts).unwrap());
        let be = ShootingOptions {
            integrator: Integrator::BackwardEuler,
            ..opts
        };
        let (other, _) = multipliers(&orbit.monodromy(&vdp, &be).unwrap());
        let (own_gap, other_gap) = ((own - 1.0).abs(), (other - 1.0).abs());
        assert!(other_gap > 100.0 * own_gap, "{own_gap:e} vs {other_gap:e}");
    }

    #[test]
    fn lc_vco_frequency_is_750khz() {
        let dae = circuits::lc_vco();
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let f = orbit.frequency();
        assert!((f - 0.75e6).abs() / 0.75e6 < 0.02, "frequency {f} Hz");
    }

    #[test]
    fn resample_uniform_shape() {
        let vdp = VanDerPol::unforced(0.5);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let grid = orbit.resample_uniform(15);
        assert_eq!(grid.len(), 15);
        assert_eq!(grid[0].len(), 2);
        // First sample is x0.
        for (a, b) in grid[0].iter().zip(orbit.x0.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_backend_finds_the_same_orbit() {
        let dae = circuits::ring_loaded_vco(6);
        let dense = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let sparse = oscillator_steady_state(
            &dae,
            &ShootingOptions {
                linear_solver: LinearSolverKind::Klu,
                ..Default::default()
            },
        )
        .unwrap();
        let rel = (dense.period - sparse.period).abs() / dense.period;
        assert!(rel < 1e-9, "period {} vs {}", dense.period, sparse.period);
    }

    #[test]
    fn loose_cold_start_matches_the_tight_pipeline() {
        use circuitdae::circuits::MemsVcoConfig;
        use std::sync::Arc;
        let vdp: Vec<VanDerPol> = [0.1, 1.0, 6.0].map(VanDerPol::unforced).into();
        let lc = circuits::lc_vco();
        let ring = circuits::ring_loaded_vco(6);
        let mems = circuits::mems_vco(MemsVcoConfig::paper_air()).frozen_at(0.0);
        let mut cases: Vec<&dyn Dae> = vdp.iter().map(|d| d as &dyn Dae).collect();
        cases.extend([&lc as &dyn Dae, &ring, &mems]);
        let opts = ShootingOptions::default();
        for (i, dae) in cases.into_iter().enumerate() {
            let rec = Arc::new(obskit::CollectingRecorder::new());
            let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
            let (loose, loose_stats) =
                oscillator_steady_state_with_stats(dae, &opts, None).unwrap();
            assert_eq!(rec.counter("shooting.cold_fallbacks"), 0, "case {i}");
            let dc = transim::dc_operating_point(dae, &NewtonPolicy::default()).unwrap();
            let mut tight_stats = obskit::RunStats::default();
            let (tight, _) = cold_start(dae, &opts, &dc, TIGHT_START, &mut tight_stats).unwrap();
            let rel = (loose.period - tight.period).abs() / tight.period;
            assert!(
                rel <= 1e-7,
                "case {i}: period {} vs {}",
                loose.period,
                tight.period
            );
            assert!(
                loose_stats.newton_iters < tight_stats.newton_iters,
                "case {i}: {} vs {} Newton iterations",
                loose_stats.newton_iters,
                tight_stats.newton_iters
            );
        }
    }

    #[test]
    fn settle_check_stops_once_three_peak_to_peak_changes_agree() {
        // Samples of `amp(k)·sin` at 16 per period, from one sample in.
        let run = |amp: &dyn Fn(usize) -> f64, samples: usize| {
            let mut check = SettleCheck::new(1e-3, 0.0);
            (1..samples).find(|&k| {
                let phase = 2.0 * std::f64::consts::PI * k as f64 / 16.0;
                check.push(amp(k) * phase.sin())
            })
        };
        // The peak is at sample 4 of each period and is recognised one
        // sample later; the fourth equal peak is the third agreeing one.
        assert_eq!(run(&|_| 2.0, 4000), Some(3 * 16 + 5));
        // Growing by 0.5 % per period: never within 1e-3.
        assert_eq!(run(&|k| 1.005f64.powf(k as f64 / 16.0), 4000), None);
        // A decaying beat on the peaks: it stops at the first three
        // consecutive peak changes within 1e-3, and not before.
        let beat = |k: usize| {
            let p = (k / 16) as f64;
            2.0 + (-p / 25.0).exp() * (1.3 * p).cos()
        };
        let peak = |p: usize| beat(16 * p + 4);
        let agrees = |p: usize| (peak(p) - peak(p - 1)).abs() <= 1e-3 * peak(p);
        let settled = (3..).find(|&p| (p - 2..=p).all(agrees)).unwrap();
        assert!(settled > 100, "{settled}");
        assert_eq!(run(&beat, 4000), Some(16 * settled + 5));
        // No peaks: a ramp, and a flat line (no sample is higher than the
        // one after it).
        assert_eq!(run(&|k| k as f64 / 1e3, 4000), None);
        let mut flat = SettleCheck::new(1e-3, 1.0);
        assert!((0..1000).all(|_| !flat.push(1.0)));
    }

    #[test]
    fn mems_cold_start_ends_its_warmup_once_settled() {
        use circuitdae::circuits::MemsVcoConfig;
        use std::sync::Arc;
        // The envelope's start: the unforced VCO at its 1.5 V control.
        // The warm-up settles in about 12 of its 75 horizon periods.
        let mems = circuits::mems_vco(MemsVcoConfig::constant(1.5));
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let (orbit, stats) =
            oscillator_steady_state_with_stats(&mems, &ShootingOptions::default(), None).unwrap();
        let steps = stats.steps + stats.rejected;
        assert!(steps <= 3000, "{steps} transient steps");
        // Three flows, and a monodromy for the two the Newton updates
        // from: the converged flow needs none.
        assert_eq!(orbit.iterations, 3, "flows");
        assert_eq!(rec.counter("shooting.monodromy_passes"), 2);
        let passes = rec.spans().into_iter().filter(|s| s.name == "monodromy");
        assert_eq!(passes.count(), 2);
        assert_eq!(rec.counter("shooting.warmup_settled"), 1);
        assert_eq!(rec.counter("shooting.cold_fallbacks"), 0);
        let start = rec
            .spans()
            .into_iter()
            .find(|s| s.name == "shooting" && s.attrs.contains(&("warmup", "settled".into())))
            .expect("the cold-start span says how its warm-up ended");
        assert!(start
            .attrs
            .contains(&("phase", obskit::AttrValue::Str("steady-state"))));
    }

    #[test]
    fn unsettled_ring_cold_start_is_pinned_bit_for_bit() {
        use std::sync::Arc;
        // The loaded ring's warm-up never settles within its horizon, so
        // its cold start runs the warm-up to its horizon: its orbit, the
        // monodromy along it and its counters are pinned. Re-recorded
        // when the flows moved onto the transient's own kept-matrix
        // Newton (the orbit moved within the orbit Newton's tolerance),
        // and again when every flow after the orbit Newton's first was
        // seeded along the flow before it: the period moved by 5.4e-11
        // relative and the samples by 4.7e-10, and the flows took 6,062
        // factorisations where they took 6,029.
        let ring = circuits::ring_loaded_vco(6);
        let opts = ShootingOptions::default();
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let (orbit, s) = oscillator_steady_state_with_stats(&ring, &opts, None).unwrap();
        assert_eq!(rec.counter("shooting.warmup_settled"), 0);
        let monodromy = orbit.monodromy(&ring, &opts).unwrap();
        let counters = [
            orbit.iterations,
            s.steps,
            s.rejected,
            s.newton_iters,
            s.factorisations,
            s.symbolic_reuses,
        ];
        let values = orbit
            .x0
            .iter()
            .chain(orbit.samples.iter().flatten())
            .chain(monodromy.as_slice());
        let bits = std::iter::once(orbit.period.to_bits())
            .chain(values.map(|v| v.to_bits()))
            .chain(counters.iter().map(|&c| c as u64));
        let digest = bits.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            b.to_le_bytes().iter().fold(h, |h, &byte| {
                (h ^ byte as u64).wrapping_mul(0x100_0000_01b3)
            })
        });
        assert_eq!(digest, 0x598c_a384_3f65_b6bb, "{digest:#x}, {counters:?}");
    }

    #[test]
    fn a_converged_seed_takes_one_flow_and_no_monodromy() {
        use std::sync::Arc;
        let vdp = VanDerPol::unforced(1.0);
        let opts = ShootingOptions::default();
        let orbit = oscillator_steady_state(&vdp, &opts).unwrap();
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let again = find_periodic_orbit(&vdp, &orbit.x0, orbit.period, &opts).unwrap();
        assert_eq!(again.iterations, 1, "flows");
        assert_eq!(rec.counter("shooting.monodromy_passes"), 0);
        assert_eq!(again.period.to_bits(), orbit.period.to_bits());
        // The flow's own Newton keeps its matrix across steps: far fewer
        // factorisations than one per step, which a monodromy costs.
        let factors = rec.spans().iter().filter(|s| s.name == "factor").count();
        assert!(
            factors < opts.steps_per_period / 8,
            "{factors} factorisations"
        );
    }

    #[test]
    fn stable_equilibrium_reports_no_oscillation() {
        use std::sync::Arc;
        // A damped Van der Pol and a parallel RLC ring down to their DC
        // point: the decaying transient has zero crossings, but there is
        // no orbit to find.
        let damped = VanDerPol::unforced(-0.5);
        let rlc = circuitdae::parse_netlist("R1 n 0 1k\nC1 n 0 1u\nL1 n 0 1m\n").unwrap();
        let cases: [&dyn Dae; 2] = [&damped, &rlc];
        for dae in cases {
            let rec = Arc::new(obskit::CollectingRecorder::new());
            let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
            let res = oscillator_steady_state(dae, &ShootingOptions::default());
            assert!(
                matches!(res, Err(ShootingError::NoOscillation)),
                "expected NoOscillation, got period {:?}",
                res.map(|o| o.period)
            );
            assert_eq!(rec.counter("shooting.cold_fallbacks"), 1);
        }
    }

    #[test]
    fn failed_warm_start_falls_back_cold_and_is_metered() {
        // A seed on the equilibrium "converges" at once onto a collapsed
        // orbit, and a non-finite seed fails outright: either way the
        // point falls back to the cold pipeline, lands on the cold orbit,
        // and still pays for the failed attempt.
        let vdp = VanDerPol::unforced(1.0);
        let spec = circuitdae::ShootingSpec {
            steps_per_period: 128,
            phase_var: 0,
            solver: LinearSolverKind::default(),
        };
        let (cold, cold_stats) = run_shooting_spec_warm(&vdp, &spec, None).unwrap();
        for x0 in [vec![0.0, 0.0], vec![f64::NAN, 0.0]] {
            let seed = ShootingWarmStart {
                x0,
                period: cold.period,
                lineage: Vec::new(),
                samples: Vec::new(),
                monodromy: None,
            };
            let (orbit, stats) = run_shooting_spec_warm(&vdp, &spec, Some(&seed)).unwrap();
            assert_eq!(orbit.period.to_bits(), cold.period.to_bits());
            assert!(
                stats.newton_iters > cold_stats.newton_iters,
                "{} vs cold {}",
                stats.newton_iters,
                cold_stats.newton_iters
            );
        }
    }

    /// Van der Pol orbits at μ = 1.00, 1.05, 1.10, chained: the first is
    /// cold, each later one continues from the one before.
    fn vdp_chain(opts: &ShootingOptions) -> Vec<PeriodicOrbit> {
        let mut chain: Vec<PeriodicOrbit> = Vec::new();
        for mu in [1.00, 1.05, 1.10] {
            let warm = chain.last().map(ShootingWarmStart::from_orbit);
            let vdp = VanDerPol::unforced(mu);
            let (orbit, _) = oscillator_steady_state_with_stats(&vdp, opts, warm.as_ref()).unwrap();
            chain.push(orbit);
        }
        chain
    }

    fn orbit_bits(orbit: &PeriodicOrbit) -> Vec<u64> {
        let mut bits = vec![orbit.period.to_bits()];
        bits.extend(orbit.samples.iter().flatten().map(|v| v.to_bits()));
        bits
    }

    /// Runs `f` under a fresh recorder and returns its value with the
    /// recorder.
    fn recorded<T>(f: impl FnOnce() -> T) -> (T, Arc<obskit::CollectingRecorder>) {
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        (f(), rec)
    }

    /// Runs one warm-started solve under a fresh recorder, returning the
    /// orbit, its stats and the `shooting.predictor_fallbacks` count.
    fn recorded_warm_solve(
        dae: &dyn Dae,
        opts: &ShootingOptions,
        seed: &ShootingWarmStart,
    ) -> (PeriodicOrbit, obskit::RunStats, u64) {
        let ((orbit, stats), rec) =
            recorded(|| oscillator_steady_state_with_stats(dae, opts, Some(seed)).unwrap());
        (orbit, stats, rec.counter("shooting.predictor_fallbacks"))
    }

    #[test]
    fn extrapolated_seed_reaches_the_plain_seed_orbit_in_fewer_iterations() {
        let opts = ShootingOptions::default();
        let chain = vdp_chain(&opts);
        assert!(
            chain[0].lineage.is_empty(),
            "a cold orbit records no lineage"
        );
        assert_eq!(chain[1].lineage.len(), 1);
        let seed = ShootingWarmStart::from_orbit(&chain[2]);
        assert_eq!(seed.lineage.len(), 2, "three orbits reach the next point");
        assert_eq!(seed.lineage[0].1.to_bits(), chain[0].period.to_bits());
        assert_eq!(seed.lineage[1].1.to_bits(), chain[1].period.to_bits());
        let plain = ShootingWarmStart {
            lineage: Vec::new(),
            ..seed.clone()
        };
        let next = VanDerPol::unforced(1.15);
        let (predicted, _, fallbacks) = recorded_warm_solve(&next, &opts, &seed);
        let (neighbour, _, _) = recorded_warm_solve(&next, &opts, &plain);
        assert_eq!(fallbacks, 0);
        let scale = norm2(&neighbour.x0).max(1.0);
        let gap = norm2(
            &predicted
                .x0
                .iter()
                .zip(&neighbour.x0)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        );
        assert!(gap <= opts.tol * scale, "x0 gap {gap:e}");
        let rel = (predicted.period - neighbour.period).abs() / neighbour.period;
        assert!(rel <= opts.tol, "period gap {rel:e}");
        assert!(
            predicted.iterations < neighbour.iterations,
            "{} vs {} outer iterations",
            predicted.iterations,
            neighbour.iterations
        );
        // The lineage rolls on: the last two positions of the three.
        assert_eq!(predicted.lineage.len(), 2);
        assert_eq!(predicted.lineage[1].0, chain[2].x0);
    }

    #[test]
    fn unusable_predictions_are_skipped() {
        // Secants whose period is non-positive, lineages with a NaN or
        // an infinity, and one of the wrong size: no prediction is tried,
        // so the solve is exactly the plain neighbour start.
        let opts = ShootingOptions::default();
        let chain = vdp_chain(&opts);
        let next = VanDerPol::unforced(1.15);
        let neighbour = ShootingWarmStart {
            lineage: Vec::new(),
            ..ShootingWarmStart::from_orbit(&chain[2])
        };
        let (plain, plain_stats, _) = recorded_warm_solve(&next, &opts, &neighbour);
        let p = neighbour.period;
        let lineages = [
            vec![(neighbour.x0.clone(), 3.0 * p)],
            vec![(neighbour.x0.clone(), 2.0 * p)],
            vec![(vec![f64::NAN, 0.0], p)],
            vec![
                (chain[1].x0.clone(), chain[1].period),
                (vec![0.0, f64::INFINITY], p),
            ],
            vec![(vec![1.0], p)],
        ];
        for (i, lineage) in lineages.into_iter().enumerate() {
            let seed = ShootingWarmStart {
                lineage,
                ..neighbour.clone()
            };
            let (orbit, stats, fallbacks) = recorded_warm_solve(&next, &opts, &seed);
            assert_eq!(orbit_bits(&orbit), orbit_bits(&plain), "case {i}");
            assert_eq!(stats.newton_iters, plain_stats.newton_iters, "case {i}");
            assert_eq!(fallbacks, 0, "case {i}");
        }
    }

    #[test]
    fn failed_prediction_falls_back_to_the_neighbour_and_is_metered() {
        // An earlier point twice as far out as the neighbour puts the
        // secant prediction on the equilibrium: its Newton collapses,
        // and the neighbour start then runs as if alone.
        let opts = ShootingOptions::default();
        let chain = vdp_chain(&opts);
        let next = VanDerPol::unforced(1.15);
        let neighbour = ShootingWarmStart {
            lineage: Vec::new(),
            ..ShootingWarmStart::from_orbit(&chain[2])
        };
        let (plain, plain_stats, _) = recorded_warm_solve(&next, &opts, &neighbour);
        let far: Vec<f64> = neighbour.x0.iter().map(|v| 2.0 * v).collect();
        let seed = ShootingWarmStart {
            lineage: vec![(far, neighbour.period)],
            ..neighbour.clone()
        };
        let (orbit, stats, fallbacks) = recorded_warm_solve(&next, &opts, &seed);
        assert_eq!(orbit_bits(&orbit), orbit_bits(&plain));
        assert_eq!(fallbacks, 1);
        assert!(
            stats.newton_iters > plain_stats.newton_iters,
            "{} vs plain {}",
            stats.newton_iters,
            plain_stats.newton_iters
        );
    }

    /// The first positions of the committed `ladder_chain` deck's
    /// continuation chain: the instantiated circuits and the deck's
    /// shooting options.
    fn ladder_chain(points: usize) -> (Vec<circuitdae::CircuitDae>, ShootingOptions) {
        let deck = circuitdae::parse_deck(include_str!("../../../examples/decks/ladder_chain.ckt"))
            .unwrap();
        let Some(circuitdae::AnalysisSpec::Shooting(spec)) = deck.analyses.first() else {
            panic!("the deck holds one .shooting analysis");
        };
        let opts = ShootingOptions {
            steps_per_period: spec.steps_per_period,
            phase_var: spec.phase_var,
            linear_solver: spec.solver,
            ..Default::default()
        };
        let values = deck.sweeps[0].values();
        let daes = values[..points]
            .iter()
            .map(|&v| deck.instantiate(&[v]).unwrap())
            .collect();
        (daes, opts)
    }

    /// The warm start of the ladder chain's fourth position (its three
    /// predecessors chained), and that position's circuit.
    fn ladder_fourth_position() -> (circuitdae::CircuitDae, ShootingOptions, ShootingWarmStart) {
        let (mut daes, opts) = ladder_chain(4);
        let mut warm: Option<ShootingWarmStart> = None;
        for dae in &daes[..3] {
            let (orbit, _) = oscillator_steady_state_with_stats(dae, &opts, warm.as_ref()).unwrap();
            warm = Some(ShootingWarmStart::from_orbit(&orbit));
        }
        (daes.pop().unwrap(), opts, warm.unwrap())
    }

    /// The ladder position's orbit from the seed extrapolated through
    /// `seed`'s lineage, with no neighbour hint: its first flow runs on
    /// the history predictor and its first Jacobian runs a pass.
    fn hint_free_orbit(
        dae: &dyn Dae,
        opts: &ShootingOptions,
        seed: &ShootingWarmStart,
    ) -> PeriodicOrbit {
        let mut points: Vec<(&[f64], f64)> = seed
            .lineage
            .iter()
            .map(|(x0, period)| (x0.as_slice(), *period))
            .collect();
        points.push((&seed.x0, seed.period));
        let (x0, period) = extrapolate_seed(&points).unwrap();
        find_periodic_orbit(dae, &x0, period, opts).unwrap()
    }

    /// Asserts that two orbits agree within the orbit Newton's
    /// tolerance: the period relatively, every sample against the state
    /// scale.
    fn assert_same_orbit(a: &PeriodicOrbit, b: &PeriodicOrbit, tol: f64, case: &str) {
        let rel = (a.period - b.period).abs() / b.period;
        assert!(rel <= tol, "{case}: period gap {rel:e}");
        let scale = norm2(&b.x0).max(1.0);
        let gap = a
            .samples
            .iter()
            .flatten()
            .zip(b.samples.iter().flatten())
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
        assert!(gap <= tol * scale, "{case}: sample gap {gap:e}");
    }

    #[test]
    fn a_warm_ladder_position_takes_two_seeded_flows_and_no_pass() {
        // The extrapolated seed lands within a few tolerances of the
        // orbit: the first flow rides the neighbour's samples, the chord
        // step on the neighbour's monodromy reaches `tol`, and the second
        // flow rides the first. The orbit is the hint-free solve's.
        let (dae, opts, seed) = ladder_fourth_position();
        assert_eq!(seed.samples.len(), opts.steps_per_period + 1);
        assert!(
            seed.monodromy.is_some(),
            "the neighbour hands on a monodromy"
        );
        let ((orbit, stats), rec) =
            recorded(|| oscillator_steady_state_with_stats(&dae, &opts, Some(&seed)).unwrap());
        assert_eq!(orbit.iterations, 2, "flows");
        assert_eq!(stats.newton_iters, 2);
        assert_eq!(rec.counter("shooting.monodromy_passes"), 0);
        assert_eq!(rec.counter("shooting.chord_steps"), 1);
        assert_eq!(rec.counter("shooting.seeded_flows"), 2);
        assert_eq!(rec.counter("shooting.seed_fallbacks"), 0);
        // Without a pass, the orbit hands on the monodromy it was handed.
        let handed = orbit.newton_monodromy.as_ref().unwrap();
        assert!(Arc::ptr_eq(handed, seed.monodromy.as_ref().unwrap()));
        let (free, rec) = recorded(|| hint_free_orbit(&dae, &opts, &seed));
        assert_eq!(rec.counter("shooting.monodromy_passes"), 1);
        assert_same_orbit(&orbit, &free, opts.tol, "hinted");
    }

    #[test]
    fn poisoned_hints_still_reach_the_orbit() {
        // An identity monodromy makes each warm start's chord Jacobian
        // singular: both fail, and the cold pipeline's passes find the
        // orbit. A monodromy of another size, and samples with a NaN or
        // too few states, are not used: the warm start runs a pass. Each
        // solve reaches the hint-free solve's orbit.
        let (dae, opts, seed) = ladder_fourth_position();
        let n = dae.dim();
        let mut nan = seed.samples.clone();
        nan[9][3] = f64::NAN;
        let short = seed.samples[..opts.steps_per_period].to_vec();
        let cases = [
            (Some(DMat::identity(n)), seed.samples.clone(), 2),
            (Some(DMat::identity(n + 1)), seed.samples.clone(), 0),
            (None, nan, 0),
            (None, short, 0),
        ];
        let free = hint_free_orbit(&dae, &opts, &seed);
        for (i, (monodromy, samples, chords)) in cases.into_iter().enumerate() {
            let samples_fit = samples.len() == opts.steps_per_period + 1
                && samples.iter().flatten().all(|v| v.is_finite());
            let poisoned = ShootingWarmStart {
                samples,
                monodromy: monodromy.map(Arc::new),
                ..seed.clone()
            };
            let ((orbit, _), rec) = recorded(|| {
                oscillator_steady_state_with_stats(&dae, &opts, Some(&poisoned)).unwrap()
            });
            let case = format!("case {i}");
            assert_same_orbit(&orbit, &free, opts.tol, &case);
            assert_eq!(rec.counter("shooting.chord_steps"), chords, "{case}");
            assert!(rec.counter("shooting.monodromy_passes") >= 1, "{case}");
            let cold = chords > 0;
            assert_eq!(orbit.lineage.is_empty(), cold, "{case}");
            let fallbacks = rec.counter("shooting.predictor_fallbacks");
            assert_eq!(fallbacks, u64::from(cold), "{case}");
            if !cold {
                // Every flow but an unfit hint's first rides a reference.
                let seeded = orbit.iterations - usize::from(!samples_fit);
                let counted = rec.counter("shooting.seeded_flows");
                assert_eq!(counted, seeded as u64, "{case}");
            }
        }
    }

    #[test]
    fn a_failing_seeded_flow_falls_back_and_is_metered() {
        // A reference far out of range fails the seeded run's first step
        // (the cubic overflows): the flow reruns on the history
        // predictor, bit for bit the unseeded flow, and counts the
        // fallback.
        let vdp = VanDerPol::unforced(1.0);
        let (period, steps) = (vdp.approx_period(), 128);
        let run = |reference: Option<&[Vec<f64>]>| {
            flow(
                &vdp,
                &[2.0, 0.0],
                period,
                steps,
                Integrator::Trapezoidal,
                LinearSolverKind::Dense,
                reference,
            )
            .unwrap()
        };
        let plain = run(None);
        let far: Vec<Vec<f64>> = plain
            .samples
            .iter()
            .map(|x| x.iter().map(|v| v * 1e150).collect())
            .collect();
        let (fell_back, rec) = recorded(|| run(Some(&far)));
        assert_eq!(rec.counter("shooting.seeded_flows"), 1);
        assert_eq!(rec.counter("shooting.seed_fallbacks"), 1);
        let bits =
            |f: &Flow| -> Vec<u64> { f.samples.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&fell_back), bits(&plain));
        assert_eq!(fell_back.stats.newton_iters, plain.stats.newton_iters);
    }

    #[test]
    fn bad_inputs() {
        let vdp = VanDerPol::unforced(0.5);
        let opts = ShootingOptions::default();
        assert!(find_periodic_orbit(&vdp, &[1.0], 6.0, &opts).is_err());
        assert!(find_periodic_orbit(&vdp, &[1.0, 0.0], -1.0, &opts).is_err());
        let bad_phase = ShootingOptions {
            phase_var: 5,
            ..Default::default()
        };
        assert!(find_periodic_orbit(&vdp, &[1.0, 0.0], 6.0, &bad_phase).is_err());
        assert!(matches!(
            oscillator_steady_state(&vdp, &bad_phase),
            Err(ShootingError::BadInput(_))
        ));
    }

    /// The monodromy chained as it was before the block solve, along a
    /// fixed-step trapezoidal flow's states `samples`: each step's `A`
    /// and `B·M` assembled exactly as the pass assembles them, and
    /// `A⁻¹·(B·M)` solved one column at a time. Kept as the reference
    /// the pass must reproduce bit for bit.
    fn monodromy_by_columns<D: Dae + ?Sized>(
        dae: &D,
        samples: &[Vec<f64>],
        period: f64,
        steps: usize,
        solver: LinearSolverKind,
    ) -> DMat {
        let n = dae.dim();
        // The step sizes the flow's fixed-step controller took.
        let ctl = StepControl::Fixed(period / steps as f64)
            .resolve(period, Integrator::Trapezoidal.order())
            .unwrap();
        let mut t = 0.0;
        let mut stamps = StepStamps::at(dae, &samples[0]);
        let mut a = Triplets::new(n, n);
        let mut m = DMat::identity(n);
        let mut bm = DMat::zeros(n, n);
        let mut factors = linsolve::FactorCache::new(solver);
        for state in &samples[1..] {
            let h = ctl.propose(t, period);
            t += h;
            stamps.advance(dae, state);
            stamps.step_matrix(1.0 / h, 0.5, &mut a);
            factors.factor(&NewtonMatrix::Triplets(&a)).unwrap();
            stamps.propagate(1.0 / h, 0.5, &m, &mut bm);
            let mut col = vec![0.0; n];
            for j in 0..n {
                for i in 0..n {
                    col[i] = bm[(i, j)];
                }
                factors.solve_in_place(&mut col).unwrap();
                for i in 0..n {
                    m[(i, j)] = col[i];
                }
            }
        }
        m
    }

    /// A flow to integrate: the system, its start state, a period
    /// guess, the steps per period and the backend.
    type FlowCase = (Box<dyn Dae>, Vec<f64>, f64, usize, LinearSolverKind);

    /// Van der Pol on the dense backend at the default steps per period,
    /// and the loaded ring VCO on klu at the 64 steps of the committed
    /// chain decks.
    fn flow_cases() -> Vec<FlowCase> {
        let vdp = VanDerPol::unforced(1.0);
        let period = vdp.approx_period();
        let ring = circuits::ring_loaded_vco(8);
        let mut ring_x0 = vec![0.0; ring.dim()];
        ring_x0[0] = 0.3;
        let steps = ShootingOptions::default().steps_per_period;
        vec![
            (
                Box::new(vdp),
                vec![2.0, 0.0],
                period,
                steps,
                LinearSolverKind::Dense,
            ),
            (
                Box::new(ring),
                ring_x0,
                circuits::nominal_period(),
                64,
                LinearSolverKind::Klu,
            ),
        ]
    }

    fn bits(d: &DMat) -> Vec<u64> {
        d.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn block_solved_monodromy_matches_the_column_loop_bit_for_bit() {
        for (dae, x0, period, steps, solver) in flow_cases() {
            let f = flow(
                &*dae,
                &x0,
                period,
                steps,
                Integrator::Trapezoidal,
                solver,
                None,
            )
            .unwrap();
            let mut factors = FactorCache::new(solver);
            let m = monodromy_pass(
                &*dae,
                &f.samples,
                period,
                Integrator::Trapezoidal,
                &mut factors,
            )
            .unwrap();
            let reference = monodromy_by_columns(&*dae, &f.samples, period, steps, solver);
            assert_eq!(bits(&m), bits(&reference), "{}", solver.label());
            // One factorisation per step.
            assert_eq!(factors.stats().factorisations, steps, "{}", solver.label());
            // A genuine propagation, not an identity.
            assert!(m.as_slice().iter().any(|&v| v != 0.0 && v != 1.0));
        }
    }

    #[test]
    fn single_pass_flow_matches_a_full_newton_flow_within_the_newton_tolerance() {
        for (dae, x0, period, steps, solver) in flow_cases() {
            let kept = flow(
                &*dae,
                &x0,
                period,
                steps,
                Integrator::Trapezoidal,
                solver,
                None,
            )
            .unwrap();
            // The reference: every step solved by full Newton.
            let newton = NewtonPolicy {
                linear_solver: solver,
                ..Default::default()
            };
            let opts = TransientOptions {
                integrator: Integrator::Trapezoidal,
                step: StepControl::Fixed(period / steps as f64),
                newton,
            };
            let full = run_transient(&*dae, &x0, 0.0, period, &opts).unwrap();
            // One step's Newton tolerance `reltol·|x| + abstol`: the two
            // flows' per-step differences do not even add up to it.
            let scale = full.last().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let tol = newton.reltol * scale + newton.abstol;
            let x_gap = kept
                .x_end
                .iter()
                .zip(full.last())
                .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
            assert!(x_gap <= tol, "{}: x(T) gap {x_gap:e}", solver.label());
            // The on-demand pass over the full flow's states is the
            // column loop's monodromy bit for bit.
            let on_demand = monodromy_pass(
                &*dae,
                &full.states,
                period,
                Integrator::Trapezoidal,
                &mut FactorCache::new(solver),
            )
            .unwrap();
            let reference = monodromy_by_columns(&*dae, &full.states, period, steps, solver);
            assert_eq!(bits(&on_demand), bits(&reference), "{}", solver.label());
        }
    }
}
