//! Transient integration of circuit DAEs.
//!
//! Implements the implicit one/two-step methods circuit simulators rely
//! on — Backward Euler, Trapezoidal, BDF2 — behind one step-residual
//! abstraction, with fixed or LTE-adaptive step control. This engine is
//! both the paper's "transient simulation" baseline and the inner
//! integrator of the shooting and envelope methods.
//!
//! The scheme table, history predictor, LTE estimate, step controller
//! and the step loop itself live in the shared `timekit` crate (the same
//! loop steps the MPDE and WaMPDE envelopes along `t2`); this module
//! supplies its hooks: the circuit-DAE step residual solved by damped
//! Newton, and the accepted-point records.

use crate::error::TransimError;
use crate::newton::map_newton_err;
use circuitdae::Dae;
use newtonkit::{NewtonEngine, NewtonPolicy, NewtonSystem};
use numkit::DMat;
use sparsekit::Triplets;
use std::cell::RefCell;
use std::ops::ControlFlow;
use timekit::{HistoryPoint, Step, StepController};

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
    pub newton: NewtonPolicy,
}

/// Counters reported alongside a transient run.
///
/// This is the workspace-wide [`obskit::RunStats`] summary (shared with
/// `wampde::EnvelopeStats`, which the WaMPDE and MPDE envelopes report):
/// `steps`, `rejected`,
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
    rconst: &'a [f64],
    scratch: &'a StepScratch,
}

/// The evaluation buffers of [`StepSystem`], kept for a whole run.
struct StepScratch {
    q: RefCell<Vec<f64>>,
    f: RefCell<Vec<f64>>,
    c: RefCell<DMat>,
    triplets: RefCell<Triplets>,
}

impl StepScratch {
    fn new(n: usize) -> Self {
        StepScratch {
            q: RefCell::new(vec![0.0; n]),
            f: RefCell::new(vec![0.0; n]),
            c: RefCell::new(DMat::zeros(n, n)),
            triplets: RefCell::new(Triplets::new(n, n)),
        }
    }
}

impl<D: Dae + ?Sized> NewtonSystem for StepSystem<'_, D> {
    fn dim(&self) -> usize {
        self.dae.dim()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let mut q = self.scratch.q.borrow_mut();
        let mut f = self.scratch.f.borrow_mut();
        self.dae.eval_q(x, &mut q);
        self.dae.eval_f(x, &mut f);
        for i in 0..out.len() {
            out[i] = self.a0h * q[i] + self.theta * f[i] + self.rconst[i];
        }
    }

    fn jacobian(&self, x: &[f64], out: &mut DMat) {
        let mut c = self.scratch.c.borrow_mut();
        self.dae.jac_q(x, &mut c);
        self.dae.jac_f(x, out);
        out.scale(self.theta);
        out.axpy(self.a0h, &c);
    }

    fn jacobian_triplets(&self, x: &[f64], out: &mut Triplets) -> bool {
        // J = a0h·C + θ·G from the DAE's sparse stamps.
        let mut scratch = self.scratch.triplets.borrow_mut();
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
    run_transient_with(dae, x0, t0, t_end, opts, |_| Ok(ControlFlow::Continue(())))
}

/// [`run_transient`] calling `on_accept` with the converged state of
/// every accepted step.
///
/// A callback returning [`ControlFlow::Break`] ends the run at that
/// step, which is the result's last point; with `Continue` throughout,
/// the run reaches `t_end`.
///
/// # Errors
///
/// As [`run_transient`], plus the first error `on_accept` returns, which
/// ends the run.
pub fn run_transient_with<D, F>(
    dae: &D,
    x0: &[f64],
    t0: f64,
    t_end: f64,
    opts: &TransientOptions,
    on_accept: F,
) -> Result<TransientResult, TransimError>
where
    D: Dae + ?Sized,
    F: FnMut(&[f64]) -> Result<ControlFlow<()>, TransimError>,
{
    integrate(dae, x0, t0, t_end, opts, on_accept, None)
}

/// [`run_transient`] on a fixed step, seeding every step's Newton solve
/// along `reference`, a trajectory on the run's own step grid
/// (`reference[k]` is its state at the run's `k`-th point, `x0`'s first).
/// Step `k`'s seed is `reference[k]` plus the extrapolation in `k` of
/// the last accepted deviations `x_j − reference[j]` (cubic through
/// four, down to constant through `x0`'s alone) in place of the history
/// predictor. A run that stays close to its reference, such as a
/// shooting flow along the previous flow's orbit, starts each step's
/// Newton within its tolerance.
///
/// The reference is borrowed and the deviations live in four buffers
/// kept for the whole run. A reference that does not fit, one of
/// another length than the run's points, another width than the
/// system's, or with a non-finite entry, is ignored: the run is then
/// exactly [`run_transient`].
///
/// # Errors
///
/// [`TransimError::BadInput`] for an adaptive step policy, otherwise as
/// [`run_transient`].
pub fn run_transient_seeded<D: Dae + ?Sized>(
    dae: &D,
    x0: &[f64],
    t0: f64,
    t_end: f64,
    opts: &TransientOptions,
    reference: &[Vec<f64>],
) -> Result<TransientResult, TransimError> {
    if !matches!(opts.step, StepControl::Fixed(_)) {
        return Err(TransimError::BadInput(
            "a seeded transient needs a fixed step".into(),
        ));
    }
    let on_accept = |_: &[f64]| Ok(ControlFlow::Continue(()));
    integrate(dae, x0, t0, t_end, opts, on_accept, Some(reference))
}

/// Whether `reference` fits a run of `steps` steps of a `dim`-state
/// system: `steps + 1` states (the start included) of `dim` finite
/// entries each.
pub fn reference_fits(reference: &[Vec<f64>], dim: usize, steps: usize) -> bool {
    reference.len() == steps + 1
        && reference
            .iter()
            .all(|x| x.len() == dim && x.iter().all(|v| v.is_finite()))
}

/// The one run behind [`run_transient_with`] and
/// [`run_transient_seeded`]: `reference`, when it fits, seeds the steps.
fn integrate<D, F>(
    dae: &D,
    x0: &[f64],
    t0: f64,
    t_end: f64,
    opts: &TransientOptions,
    on_accept: F,
    reference: Option<&[Vec<f64>]>,
) -> Result<TransientResult, TransimError>
where
    D: Dae + ?Sized,
    F: FnMut(&[f64]) -> Result<ControlFlow<()>, TransimError>,
{
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
    let ctl = opts
        .step
        .resolve(t_end - t0, opts.integrator.order())
        .map_err(TransimError::BadInput)?;
    let seeding = reference
        .filter(|r| {
            let steps = fixed_steps(&ctl, t0, t_end, r.len());
            steps.is_some_and(|steps| reference_fits(r, n, steps))
        })
        .map(|r| Seeding::new(r, x0));

    let mut q0 = vec![0.0; n];
    dae.eval_q(x0, &mut q0);
    let mut times = Vec::with_capacity(1024);
    let mut states = Vec::with_capacity(1024);
    times.push(t0);
    states.push(x0.to_vec());
    let mut run = Transient {
        dae,
        newton_opts: &opts.newton,
        on_accept,
        // One Newton engine for the whole run: its factorisation cache
        // spans every step, so on the KLU backend only the very first
        // iteration pays for symbolic analysis — the step Jacobian's
        // pattern never changes along a transient.
        newton: NewtonEngine::new(),
        times,
        states,
        scratch: StepScratch::new(n),
        rconst: vec![0.0; n],
        g_prev: vec![0.0; n],
        g_prev_stale: true,
        bbuf: vec![0.0; n],
        seeding,
    };
    let start = HistoryPoint {
        t: t0,
        z: x0.to_vec(),
        q: q0,
    };
    let mut stats = TransientStats::default();
    timekit::drive(&mut run, opts.integrator, ctl, start, t_end, &mut stats)?;

    // Every factorisation of the run went through this engine.
    let factor_stats = run.newton.factor_stats();
    stats.factorisations = factor_stats.factorisations;
    stats.symbolic_reuses = factor_stats.symbolic_reuses;
    Ok(TransientResult {
        times: run.times,
        states: run.states,
        stats,
    })
}

/// The number of steps a fixed-step `ctl` takes over `[t0, t_end]`, as
/// the `timekit` step loop proposes them, or `None` once it exceeds
/// `limit`.
fn fixed_steps(ctl: &StepController, t0: f64, t_end: f64, limit: usize) -> Option<usize> {
    let span = t_end - t0;
    let (mut t, mut steps) = (t0, 0);
    while t < t_end - 1e-15 * span {
        if steps == limit {
            return None;
        }
        t += ctl.propose(t, t_end);
        steps += 1;
    }
    Some(steps)
}

/// The extrapolation weights of a seeded run's deviations, newest
/// first, by how many are held: constant through one, linear through
/// two, quadratic through three, cubic through four.
const DEVIATION_WEIGHTS: [&[f64]; 4] = [
    &[1.0],
    &[2.0, -1.0],
    &[3.0, -3.0, 1.0],
    &[4.0, -6.0, 4.0, -1.0],
];

/// A seeded run's reference and the deviations from it of its last (up
/// to) four accepted points, in a ring.
struct Seeding<'r> {
    reference: &'r [Vec<f64>],
    deviations: [Vec<f64>; 4],
    /// Deviations recorded so far.
    held: usize,
    /// The ring slot of the newest deviation.
    newest: usize,
}

impl<'r> Seeding<'r> {
    /// A ring holding the start's deviation `x0 − reference[0]`.
    fn new(reference: &'r [Vec<f64>], x0: &[f64]) -> Self {
        let mut seeding = Seeding {
            reference,
            deviations: std::array::from_fn(|_| vec![0.0; x0.len()]),
            held: 0,
            newest: 0,
        };
        seeding.record(0, x0);
        seeding
    }

    /// Records the deviation of the accepted point `x`, the run's `k`-th.
    fn record(&mut self, k: usize, x: &[f64]) {
        self.newest = (self.newest + 1) % self.deviations.len();
        let d = &mut self.deviations[self.newest];
        for ((d, v), r) in d.iter_mut().zip(x).zip(&self.reference[k]) {
            *d = v - r;
        }
        self.held += 1;
    }

    /// Writes the seed of the run's `k`-th point into `z`: the
    /// reference there plus the held deviations extrapolated to it.
    fn seed(&self, k: usize, z: &mut [f64]) {
        let depth = self.deviations.len();
        let weights = DEVIATION_WEIGHTS[self.held.min(depth) - 1];
        z.copy_from_slice(&self.reference[k]);
        for (age, &w) in weights.iter().enumerate() {
            let d = &self.deviations[(self.newest + depth - age) % depth];
            for (z, d) in z.iter_mut().zip(d) {
                *z += w * d;
            }
        }
    }
}

/// The transient's hooks for the shared `timekit` step loop: the
/// circuit-DAE step solve and the accepted-point records.
struct Transient<'a, D: Dae + ?Sized, F> {
    dae: &'a D,
    newton_opts: &'a NewtonPolicy,
    on_accept: F,
    newton: NewtonEngine,
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
    scratch: StepScratch,
    /// The step residual's constant term, rebuilt on every attempt.
    rconst: Vec<f64>,
    /// `(1 − θ)·(f − b)` at the latest record, the same for every
    /// attempt from it: the first attempt after a record computes it
    /// (`g_prev_stale` until then), its retries reuse it.
    g_prev: Vec<f64>,
    g_prev_stale: bool,
    bbuf: Vec<f64>,
    /// The reference a seeded run's steps start from.
    seeding: Option<Seeding<'a>>,
}

impl<D, F> timekit::StepSystem for Transient<'_, D, F>
where
    D: Dae + ?Sized,
    F: FnMut(&[f64]) -> Result<ControlFlow<()>, TransimError>,
{
    type Error = TransimError;
    const TIME_ATTR: &'static str = "t";

    fn solve(
        &mut self,
        step: &Step<'_>,
        x: &mut [f64],
        stats: &mut TransientStats,
    ) -> Result<(), TransimError> {
        // Step-residual constants: the charge-history term from the
        // scheme, plus (1−θ)·g_prev (trapezoidal only) and −θ·b(t_new).
        let theta = step.coeffs.theta;
        self.rconst.copy_from_slice(step.qlin);
        if theta < 1.0 {
            if self.g_prev_stale {
                let t_prev = *self.times.last().expect("records are seeded");
                let x_prev = self.states.last().expect("records are seeded");
                self.dae.eval_f(x_prev, &mut self.g_prev);
                self.dae.eval_b(t_prev, &mut self.bbuf);
                for (g, b) in self.g_prev.iter_mut().zip(&self.bbuf) {
                    *g = (1.0 - theta) * (*g - b);
                }
                self.g_prev_stale = false;
            }
            for (r, g) in self.rconst.iter_mut().zip(&self.g_prev) {
                *r += g;
            }
        }
        self.dae.eval_b(step.t_new, &mut self.bbuf);
        for (r, b) in self.rconst.iter_mut().zip(&self.bbuf) {
            *r -= theta * b;
        }

        if let Some(seeding) = &self.seeding {
            seeding.seed(self.states.len(), x);
        }
        let sys = StepSystem {
            dae: self.dae,
            a0h: step.coeffs.a0h,
            theta,
            rconst: &self.rconst,
            scratch: &self.scratch,
        };
        let result = self.newton.solve(&sys, x, self.newton_opts);
        // A failed solve's iterations count too: its step is retried.
        stats.newton_iters += self.newton.stats().iterations;
        result.map(drop).map_err(|e| map_newton_err(e, step.t_new))
    }

    fn accept(
        &mut self,
        step: &Step<'_>,
        x: &[f64],
        q: &mut [f64],
    ) -> Result<ControlFlow<()>, TransimError> {
        self.dae.eval_q(x, q);
        if let Some(seeding) = &mut self.seeding {
            seeding.record(self.states.len(), x);
        }
        self.times.push(step.t_new);
        self.states.push(x.to_vec());
        self.g_prev_stale = true;
        (self.on_accept)(x)
    }

    fn step_too_small(&self, at_time: f64, step: f64) -> TransimError {
        TransimError::StepTooSmall { at_time, step }
    }
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

    /// FNV-1a over the bits of every time, state and counter of a run.
    fn digest(res: &TransientResult) -> u64 {
        let s = &res.stats;
        let counters = [s.steps, s.rejected, s.newton_iters, s.factorisations];
        let bits = res
            .times
            .iter()
            .chain(res.states.iter().flatten())
            .map(|v| v.to_bits())
            .chain(counters.iter().map(|&c| c as u64));
        bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            b.to_le_bytes().iter().fold(h, |h, &byte| {
                (h ^ byte as u64).wrapping_mul(0x100_0000_01b3)
            })
        })
    }

    #[test]
    fn transient_output_is_pinned_bit_for_bit() {
        // Digests of runs recorded before the accepted-step callback and
        // the in-place LTE existed: `run_transient` must not move a bit
        // (fixed and adaptive steps, dense and klu).
        let vdp = VanDerPol::unforced(1.0);
        let ring = circuitdae::circuits::ring_loaded_vco(8);
        let mut ring_x0 = vec![0.0; ring.dim()];
        ring_x0[0] = 0.3;
        let period = circuitdae::circuits::nominal_period();
        let fixed = |h: f64, kind: linsolve::LinearSolverKind| TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Fixed(h),
            newton: newtonkit::NewtonPolicy {
                linear_solver: kind,
                ..Default::default()
            },
        };
        let adaptive = |span: f64, kind: linsolve::LinearSolverKind| TransientOptions {
            step: StepControl::Adaptive {
                rtol: 1e-4,
                atol: 1e-12,
                dt_init: span / 2000.0,
                dt_min: 0.0,
                dt_max: span / 200.0,
            },
            ..fixed(span, kind)
        };
        use linsolve::LinearSolverKind::{Dense, Klu};
        let runs = [
            run_transient(&vdp, &[2.0, 0.0], 0.0, 7.0, &fixed(7.0 / 64.0, Dense)),
            run_transient(&vdp, &[0.1, 0.0], 0.0, 30.0, &adaptive(30.0, Dense)),
            run_transient(&ring, &ring_x0, 0.0, period, &fixed(period / 64.0, Klu)),
            run_transient(&ring, &ring_x0, 0.0, 5.0 * period, &adaptive(period, Klu)),
        ];
        let got: Vec<u64> = runs.iter().map(|r| digest(r.as_ref().unwrap())).collect();
        let pinned: [u64; 4] = [
            0x86e9_1f93_a5b4_ae68,
            0x71c6_f2c3_cde5_1825,
            0xc743_7537_653d_ec86,
            0x0e54_0219_7ab1_3106,
        ];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn a_seeded_run_along_its_own_trajectory_starts_each_step_converged() {
        // Seeded along the plain run's states, every step's Newton starts
        // within its tolerance: at most the kept matrix's floor of two
        // iterations per step, and the same states within the Newton
        // tolerance.
        let vdp = VanDerPol::unforced(1.0);
        let opts = TransientOptions {
            step: StepControl::Fixed(7.0 / 64.0),
            newton: newtonkit::NewtonPolicy {
                reuse_jacobian: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let plain = run_transient(&vdp, &[2.0, 0.0], 0.0, 7.0, &opts).unwrap();
        let seeded =
            run_transient_seeded(&vdp, &[2.0, 0.0], 0.0, 7.0, &opts, &plain.states).unwrap();
        assert_eq!(seeded.times, plain.times);
        assert!(seeded.stats.newton_iters <= 2 * seeded.stats.steps);
        assert!(seeded.stats.newton_iters < plain.stats.newton_iters);
        // The two runs' per-step differences, each within a step's Newton
        // tolerance, add up along the run.
        let gap = seeded
            .states
            .iter()
            .flatten()
            .zip(plain.states.iter().flatten())
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
        let newton = opts.newton;
        // One step's tolerance `reltol·|x| + abstol` at the amplitude 2.
        let per_step = newton.reltol * 2.0 + newton.abstol;
        assert!(gap <= seeded.stats.steps as f64 * per_step, "gap {gap:e}");
    }

    #[test]
    fn a_reference_that_does_not_fit_is_ignored() {
        // A short reference, a wide one and one with a NaN are not used:
        // the run is the plain run bit for bit. An adaptive step cannot
        // be seeded at all.
        let vdp = VanDerPol::unforced(1.0);
        let opts = TransientOptions {
            step: StepControl::Fixed(7.0 / 64.0),
            ..Default::default()
        };
        let plain = run_transient(&vdp, &[2.0, 0.0], 0.0, 7.0, &opts).unwrap();
        let mut nan = plain.states.clone();
        nan[17][1] = f64::NAN;
        let wide: Vec<Vec<f64>> = plain.states.iter().map(|x| vec![x[0], x[1], 0.0]).collect();
        let short = &plain.states[..plain.states.len() - 1];
        for (i, reference) in [&nan[..], &wide, short].into_iter().enumerate() {
            let seeded = run_transient_seeded(&vdp, &[2.0, 0.0], 0.0, 7.0, &opts, reference);
            assert_eq!(digest(&seeded.unwrap()), digest(&plain), "case {i}");
        }
        let adaptive = TransientOptions {
            step: StepControl::adaptive(1e-4, 1e-12),
            ..opts
        };
        assert!(matches!(
            run_transient_seeded(&vdp, &[2.0, 0.0], 0.0, 7.0, &adaptive, &plain.states),
            Err(TransimError::BadInput(_))
        ));
    }

    #[test]
    fn failed_newton_iterations_are_metered() {
        use std::sync::Arc;
        // Three Newton iterations cannot converge the first, far too
        // large step: it fails, is retried smaller, and its iterations
        // still count.
        let vdp = VanDerPol::unforced(5.0);
        let opts = TransientOptions {
            step: StepControl::Adaptive {
                rtol: 1e-4,
                atol: 1e-12,
                dt_init: 3.0,
                dt_min: 0.0,
                dt_max: 3.0,
            },
            newton: newtonkit::NewtonPolicy {
                max_iter: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let res = run_transient(&vdp, &[2.0, 0.0], 0.0, 10.0, &opts).unwrap();
        assert!(rec.counter("newton.failures") >= 1);
        assert_eq!(res.stats.newton_iters as u64, rec.counter("newton.iters"));
    }

    #[test]
    fn newton_failures_carry_the_failed_steps_end_time() {
        // A fixed step cannot shrink, so the first failed solve ends the
        // run, tagged with that step's end time — never NaN.
        let opts = TransientOptions {
            step: StepControl::Fixed(0.5),
            newton: newtonkit::NewtonPolicy {
                max_iter: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let vdp = VanDerPol::unforced(5.0);
        match run_transient(&vdp, &[2.0, 0.0], 1.0, 3.0, &opts) {
            Err(TransimError::NewtonFailed { at_time, .. }) => assert_eq!(at_time, 1.5),
            other => panic!("expected NewtonFailed, got {other:?}"),
        }

        // No charge and no conductance: every step matrix is zero.
        struct Flat;
        impl circuitdae::Dae for Flat {
            fn dim(&self) -> usize {
                1
            }
            fn eval_q(&self, _x: &[f64], out: &mut [f64]) {
                out[0] = 0.0;
            }
            fn eval_f(&self, _x: &[f64], out: &mut [f64]) {
                out[0] = 0.0;
            }
            fn eval_b(&self, _t: f64, out: &mut [f64]) {
                out[0] = 1.0;
            }
            fn jac_q(&self, _x: &[f64], out: &mut numkit::DMat) {
                out.fill_zero();
            }
            fn jac_f(&self, _x: &[f64], out: &mut numkit::DMat) {
                out.fill_zero();
            }
        }
        match run_transient(&Flat, &[0.0], 1.0, 3.0, &opts) {
            Err(TransimError::SingularJacobian { at_time }) => assert_eq!(at_time, 1.5),
            other => panic!("expected SingularJacobian, got {other:?}"),
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
