//! Envelope (initial-value) solver for the WaMPDE and the MPDE.
//!
//! Discretises eq. (19)–(20) of the paper by time-stepping along the slow
//! axis `t2`: at each step a bordered nonlinear system in the `n·N0`
//! collocation samples plus the local frequency `ω(t2)` is solved by
//! Newton. This is the engine behind the paper's VCO experiments
//! (Figures 7–12): it tracks frequency-modulated envelopes taking `t2`
//! steps on the *modulation* time scale, independent of how many fast
//! carrier cycles elapse.
//!
//! Pinning ω at a carrier `f1` and forcing with a bivariate `b̂(t1, t2)`
//! gives the unwarped MPDE of a non-autonomous circuit
//! (Brachtendorf et al. \[BWLBG96\]; Roychowdhury \[Roy97\]),
//!
//! ```text
//! f1·∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b̂(t1, t2),
//! ```
//!
//! which [`solve_mpde`] runs through the same step loop.

use crate::error::{check_positive, WampdeError};
use crate::harmonic_balance::dc_samples;
use crate::init::WampdeInit;
use crate::options::{OmegaMode, WampdeOptions};
use crate::result::{EnvelopeResult, EnvelopeStats};
use crate::step::{accepted_g, steady, CollocStep, Omega, StepWork};
use circuitdae::Dae;
use hb::Colloc;
use newtonkit::{NewtonEngine, NewtonPolicy};
use numkit::vecops::CompensatedSum;
use std::cell::RefCell;
use std::ops::ControlFlow;
use timekit::{Gains, HistoryPoint, Scale, Step, StepController, StepSystem};

/// A bivariate forcing `b̂(t1, t2)` with `t1 ∈ [0, 1)` the normalised fast
/// phase and `t2` ordinary time: the MPDE's right-hand side.
pub trait BivariateForcing {
    /// Evaluates the forcing into `out` (length = DAE dimension).
    fn eval(&self, t1: f64, t2: f64, out: &mut [f64]);
}

/// Solves the envelope (initial-value) WaMPDE from `t2 = 0` to `t2_end`.
///
/// `init` supplies one warped period of samples and the starting local
/// frequency — typically [`WampdeInit::from_orbit`] of the unforced
/// oscillator (the paper's "natural initial condition").
///
/// # Errors
///
/// See [`WampdeError`]; notably `DegeneratePhase` when the configured
/// phase variable does not oscillate, and `StepTooSmall`/`NewtonFailed`
/// when the slow-time stepping cannot proceed.
pub fn solve_envelope<D: Dae + ?Sized>(
    dae: &D,
    init: &WampdeInit,
    t2_end: f64,
    opts: &WampdeOptions,
) -> Result<EnvelopeResult, WampdeError> {
    let n = dae.dim();
    let free_omega = matches!(opts.omega_mode, OmegaMode::Free);
    let phase = free_omega.then_some((opts.phase_var, opts.phase_harmonic));
    Colloc::check(n, opts.harmonics, phase).map_err(WampdeError::BadInput)?;
    let colloc = Colloc::new(n, opts.harmonics);
    let len = colloc.len();
    if init.n0() != colloc.n0 {
        return Err(WampdeError::BadInput(format!(
            "init has {} samples, options require N0 = {}",
            init.n0(),
            colloc.n0
        )));
    }
    if init.samples.iter().any(|r| r.len() != n) {
        return Err(WampdeError::BadInput(
            "init sample width != dae dimension".into(),
        ));
    }
    check_positive(t2_end, "t2_end")?;

    let omega = match opts.omega_mode {
        OmegaMode::Free => init.freq_hz,
        OmegaMode::Frozen(w) => w,
    };
    check_positive(omega, "initial frequency")?;

    let mut x = init.stacked();

    // Phase machinery (Free mode only).
    let phase_row = if free_omega {
        let row = colloc.phase_row(opts.phase_var, opts.phase_harmonic);
        // Degeneracy check: variable k must actually carry harmonic l.
        let var = colloc.extract_var(&x, opts.phase_var);
        let series = fourier::FourierSeries::from_samples(&var);
        let c = series.coeff(opts.phase_harmonic as isize);
        let scale = var.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300);
        if c.abs() < 1e-8 * scale {
            return Err(WampdeError::DegeneratePhase {
                var: opts.phase_var,
                harmonic: opts.phase_harmonic,
            });
        }
        Some(row)
    } else {
        None
    };

    let ctl = opts
        .step
        .resolve(t2_end, opts.integrator.order())
        .map_err(WampdeError::BadInput)?;
    let mut run = Envelope::new(dae, Forcing::Slow, colloc, phase_row, omega, opts);
    let mut q = vec![0.0; len];
    run.fill_b(0.0);
    run.record(0.0, &x, &mut q);
    // The history's z is the stacked X (+ ω in Free mode), its q the
    // collocation charge vector.
    if free_omega {
        x.push(omega);
    }
    run.drive(
        HistoryPoint { t: 0.0, z: x, q },
        ctl,
        t2_end,
        opts,
        EnvelopeStats::default(),
    )
}

/// Solves the MPDE of a non-autonomous circuit under the bivariate
/// `forcing` from `t2 = 0` to `t2_end`: the envelope with ω frozen at
/// the carrier, `opts.omega_mode = OmegaMode::Frozen(f1)`.
///
/// The first point is the forced periodic steady state at `t2 = 0`,
/// solved on the run's own Newton engine from `seed` (a neighbouring
/// grid point's converged collocation state, `states[0]` of its
/// [`EnvelopeResult`]) or, when there is none, from the DC operating
/// point repeated at every sample. The seed changes the iteration count,
/// not the fixed point; a wrong-length seed is rejected.
///
/// # Errors
///
/// [`WampdeError::BadInput`] when ω is free, and otherwise as
/// [`solve_envelope`]; a failed steady solve reports `at_t2 = 0`.
pub fn solve_mpde<D: Dae + ?Sized>(
    dae: &D,
    forcing: &dyn BivariateForcing,
    t2_end: f64,
    opts: &WampdeOptions,
    seed: Option<&[f64]>,
) -> Result<EnvelopeResult, WampdeError> {
    let OmegaMode::Frozen(f1) = opts.omega_mode else {
        return Err(WampdeError::BadInput(
            "the MPDE needs omega frozen at its carrier".into(),
        ));
    };
    check_positive(f1, "carrier frequency")?;
    check_positive(t2_end, "t2_end")?;
    let n = dae.dim();
    Colloc::check(n, opts.harmonics, None).map_err(WampdeError::BadInput)?;
    let colloc = Colloc::new(n, opts.harmonics);
    let len = colloc.len();
    let ctl = opts
        .step
        .resolve(t2_end, opts.integrator.order())
        .map_err(WampdeError::BadInput)?;
    let mut run = Envelope::new(dae, Forcing::Bivariate(forcing), colloc, None, f1, opts);
    let mut x: Vec<f64> = match seed {
        Some(seed) if seed.len() != len => {
            return Err(WampdeError::BadInput(format!(
                "warm-start state has {} entries, collocation grid needs {len}",
                seed.len()
            )));
        }
        Some(seed) => seed.to_vec(),
        None => dc_samples(dae, &run.colloc, &run.newton)?,
    };

    let mut stats = EnvelopeStats::default();
    // The steady-envelope solve f1·D·q + f = b̂(·, 0) is the general step
    // residual with a0h = 0 and θ = 1; its solution is the first point.
    let zeros = vec![0.0; len];
    let step = steady(&zeros);
    run.solve(&step, &mut x, &mut stats)?;
    let mut q = vec![0.0; len];
    // The envelope's hook always continues.
    let _ = run.accept(&step, &x, &mut q)?;
    run.drive(HistoryPoint { t: 0.0, z: x, q }, ctl, t2_end, opts, stats)
}

/// The forcing a step is solved under.
#[derive(Clone, Copy)]
enum Forcing<'a> {
    /// The DAE's own slow `b(t2)`, the same at every sample (the WaMPDE).
    Slow,
    /// A bivariate `b̂(t1, t2)` (the MPDE).
    Bivariate(&'a dyn BivariateForcing),
}

/// The envelope's hooks for the shared `timekit` step loop: the
/// (bordered) step solve, and the accepted-point records with the
/// warping-function quadrature.
struct Envelope<'a, D: Dae + ?Sized> {
    dae: &'a D,
    forcing: Forcing<'a>,
    colloc: Colloc,
    /// The phase condition's row (Free mode only).
    phase_row: Option<Vec<f64>>,
    newton: NewtonPolicy,
    engine: NewtonEngine,
    /// ω at the newest accepted point.
    omega: f64,
    /// φ(t2) in cycles.
    phi: CompensatedSum,
    /// The forcing at the collocation phases of the newest attempt.
    b: Vec<f64>,
    /// `g(X, ω, t2)` at the newest accepted point (the (1−θ) term of
    /// averaging schemes).
    g_prev: Vec<f64>,
    /// Scratch shared by `accepted_g` and every step of the run.
    work: RefCell<StepWork>,
    t2s: Vec<f64>,
    omegas: Vec<f64>,
    phis: Vec<f64>,
    states: Vec<Vec<f64>>,
}

impl<'a, D: Dae + ?Sized> Envelope<'a, D> {
    fn new(
        dae: &'a D,
        forcing: Forcing<'a>,
        colloc: Colloc,
        phase_row: Option<Vec<f64>>,
        omega: f64,
        opts: &WampdeOptions,
    ) -> Self {
        let len = colloc.len();
        Envelope {
            dae,
            forcing,
            phase_row,
            newton: NewtonPolicy {
                linear_solver: opts.linear_solver,
                ..opts.newton
            },
            // One Newton engine for the whole envelope: the (bordered)
            // step Jacobian keeps its sparsity pattern along t2, so KLU
            // pays for symbolic analysis once and refactors numerically
            // thereafter; with `reuse_jacobian` the factored matrix itself
            // is kept across steps until `a0h` leaves DASSL's band or θ
            // moves.
            engine: NewtonEngine::new(),
            omega,
            phi: CompensatedSum::new(),
            b: vec![0.0; len],
            g_prev: vec![0.0; len],
            work: RefCell::new(StepWork::new(&colloc)),
            t2s: Vec::new(),
            omegas: Vec::new(),
            phis: Vec::new(),
            states: Vec::new(),
            colloc,
        }
    }

    /// Steps from `start` to `t2_end` and collects the records.
    fn drive(
        mut self,
        start: HistoryPoint,
        ctl: StepController,
        t2_end: f64,
        opts: &WampdeOptions,
        mut stats: EnvelopeStats,
    ) -> Result<EnvelopeResult, WampdeError> {
        // The error of a sample is measured against its variable's
        // amplitude over the period, and Gustafsson's PI gains smooth the
        // step sequence along t2.
        let ctl = ctl
            .with_scale(Scale::Amplitude {
                n: self.colloc.n,
                samples: self.colloc.n0,
            })
            .with_gains(Gains::gustafsson(opts.integrator.order()));
        timekit::drive(&mut self, opts.integrator, ctl, start, t2_end, &mut stats)?;
        Ok(EnvelopeResult {
            n: self.colloc.n,
            n0: self.colloc.n0,
            t2: self.t2s,
            omega_hz: self.omegas,
            phi: self.phis,
            states: self.states,
            stats,
        })
    }

    /// Fills `b` with the forcing at `t2`.
    fn fill_b(&mut self, t2: f64) {
        self.work.get_mut().drop_point();
        let (n, n0) = (self.colloc.n, self.colloc.n0);
        match self.forcing {
            Forcing::Slow => {
                self.dae.eval_b(t2, &mut self.b[..n]);
                for s in 1..n0 {
                    self.b.copy_within(..n, s * n);
                }
            }
            Forcing::Bivariate(forcing) => {
                for (s, row) in self.b.chunks_exact_mut(n).enumerate() {
                    forcing.eval(s as f64 / n0 as f64, t2, row);
                }
            }
        }
    }

    /// Records the point `x` at `t2` (with the current ω and φ, and `b`
    /// at `t2`), writes its charge vector into `q` and refreshes
    /// `g_prev`.
    fn record(&mut self, t2: f64, x: &[f64], q: &mut [f64]) {
        accepted_g(
            self.dae,
            &self.colloc,
            x,
            self.omega,
            &self.b,
            self.work.get_mut(),
            &mut self.g_prev,
            q,
        );
        self.t2s.push(t2);
        self.omegas.push(self.omega);
        self.phis.push(self.phi.value());
        self.states.push(x.to_vec());
    }
}

impl<D: Dae + ?Sized> StepSystem for Envelope<'_, D> {
    type Error = WampdeError;
    const TIME_ATTR: &'static str = "t2";

    fn solve(
        &mut self,
        step: &Step<'_>,
        z: &mut [f64],
        stats: &mut EnvelopeStats,
    ) -> Result<(), WampdeError> {
        self.fill_b(step.t_new);
        // The MPDE has not moved onto DASSL's Newton test: its adaptive
        // steps still solve to the policy's `reltol`.
        let tol = step.tol.filter(|_| matches!(self.forcing, Forcing::Slow));
        let sys = CollocStep {
            dae: self.dae,
            colloc: &self.colloc,
            step: Step { tol, ..*step },
            b: &self.b,
            g_prev: &self.g_prev,
            omega: match &self.phase_row {
                Some(row) => Omega::Free(row),
                None => Omega::Fixed(self.omega),
            },
            work: &self.work,
        };
        sys.solve(&mut self.engine, z, &self.newton, stats)
            .map_err(|e| WampdeError::from_newton(e, step.t_new))
    }

    fn accept(
        &mut self,
        step: &Step<'_>,
        z: &[f64],
        q: &mut [f64],
    ) -> Result<ControlFlow<()>, WampdeError> {
        let len = self.colloc.len();
        let omega_new = match self.phase_row {
            Some(_) => z[len],
            None => self.omega,
        };
        // Warping-function quadrature: φ += h·(ω_old + ω_new)/2 (cycles).
        self.phi.add(step.h * 0.5 * (self.omega + omega_new));
        self.omega = omega_new;
        self.record(step.t_new, &z[..len], q);
        Ok(ControlFlow::Continue(()))
    }

    fn step_too_small(&self, at_t2: f64, step: f64) -> WampdeError {
        WampdeError::StepTooSmall { at_t2, step }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{LinearSolverKind, T2Integrator, T2StepControl};
    use circuitdae::analytic::VanDerPol;
    use circuitdae::circuits::{self, MemsVcoConfig};
    use shooting::{oscillator_steady_state, ShootingOptions};

    fn small_opts() -> WampdeOptions {
        WampdeOptions {
            harmonics: 6,
            ..Default::default()
        }
    }

    #[test]
    fn constant_control_keeps_frequency() {
        // With DC control the VCO is in steady state: ω(t2) must stay at
        // the unforced frequency and the samples must not drift.
        let cfg = MemsVcoConfig::constant(1.5);
        let dae = circuits::mems_vco(cfg);
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let opts = WampdeOptions {
            step: T2StepControl::Fixed(2.0e-6),
            ..small_opts()
        };
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let res = solve_envelope(&dae, &init, 2.0e-5, &opts).unwrap();
        let f0 = orbit.frequency();
        // ω stays within the discretisation error of the shooting value
        // (the WaMPDE's own steady frequency differs from shooting's by the
        // harmonic-truncation error of M = 6)…
        for (&t, &w) in res.t2.iter().zip(res.omega_hz.iter()) {
            assert!(
                (w - f0).abs() / f0 < 1e-2,
                "t2={t}: omega {w} drifted from {f0}"
            );
        }
        // …and once settled onto the discrete steady state it is *flat*.
        let mid = res.omega_hz[res.omega_hz.len() / 2];
        let last = *res.omega_hz.last().unwrap();
        assert!(
            (last - mid).abs() / mid < 1e-6,
            "omega not settled: {mid} vs {last}"
        );
        // Samples stay near the initial periodic solution.
        let first = &res.states[0];
        let last_state = res.states.last().unwrap();
        let drift = first
            .iter()
            .zip(last_state.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(drift < 0.1, "sample drift {drift}");
    }

    #[test]
    fn unforced_vdp_envelope_stays_put() {
        let vdp = VanDerPol::unforced(0.5);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        // Backward Euler settles onto the discrete fixed point fastest
        // (BDF2's parasitic root decays the initial-condition error more
        // slowly; both converge to the same point — see below).
        let opts = WampdeOptions {
            step: T2StepControl::Fixed(0.5),
            integrator: T2Integrator::BackwardEuler,
            ..small_opts()
        };
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let res = solve_envelope(&vdp, &init, 20.0, &opts).unwrap();
        let f0 = orbit.frequency();
        let (lo, hi) = res.frequency_range();
        assert!(
            (lo - f0).abs() / f0 < 1e-2 && (hi - f0).abs() / f0 < 1e-2,
            "range ({lo}, {hi}) vs shooting {f0}"
        );
        // Settled flatness over the final quarter of the run.
        let q3 = res.omega_hz[res.omega_hz.len() * 3 / 4];
        let last = *res.omega_hz.last().unwrap();
        assert!((last - q3).abs() / q3 < 1e-6, "not settled: {q3} vs {last}");
    }

    #[test]
    fn failed_newton_iterations_are_metered() {
        use std::sync::Arc;
        // Started from the orbit of a gentler oscillator, the first,
        // large step cannot converge in three Newton iterations: it
        // fails, is retried smaller, and its iterations still count.
        let orbit = oscillator_steady_state(&VanDerPol::unforced(0.2), &ShootingOptions::default())
            .unwrap();
        let opts = WampdeOptions {
            step: T2StepControl::Adaptive {
                rtol: 1e-4,
                atol: 1e-9,
                dt_init: 8.0,
                dt_min: 0.0,
                dt_max: 8.0,
            },
            newton: NewtonPolicy {
                max_iter: 3,
                ..small_opts().newton
            },
            ..small_opts()
        };
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let res = solve_envelope(&VanDerPol::unforced(2.0), &init, 12.0, &opts).unwrap();
        assert!(rec.counter("newton.failures") >= 1);
        assert_eq!(res.stats.newton_iters as u64, rec.counter("newton.iters"));
    }

    #[test]
    fn paper_deck_final_phase_error_does_not_grow() {
        // The paper's air-damped MEMS VCO over 3 ms (Figs. 10–12) at 9
        // harmonics. The converged final φ is 2913.113813 cycles: full
        // Newton at t2 rtol 1e-7 (rtol 1e-6 gives 2913.114685, 0.0009
        // away, which is how well the reference itself is known). The
        // default run measures 0.0002 away and may not grow past 0.005
        // cycle; the step controls before amplitude-weighted errors and
        // Gustafsson's PI steps measured about 0.06.
        let orbit = oscillator_steady_state(
            &circuits::mems_vco(MemsVcoConfig::constant(1.5)),
            &ShootingOptions::default(),
        )
        .unwrap();
        let dae = circuits::mems_vco(MemsVcoConfig::paper_air());
        let opts = WampdeOptions {
            harmonics: 9,
            ..Default::default()
        };
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let res = solve_envelope(&dae, &init, 3e-3, &opts).unwrap();
        let phi = *res.phi.last().unwrap();
        let err = (phi - 2913.113813).abs();
        assert!(err <= 0.005, "final phi {phi} cycles, {err} from converged");
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        let cfg = MemsVcoConfig::constant(1.5);
        let dae = circuits::mems_vco(cfg);
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let base = WampdeOptions {
            step: T2StepControl::Fixed(2.0e-6),
            harmonics: 5,
            ..Default::default()
        };
        let init = WampdeInit::from_orbit(&orbit, &base);
        let dense = solve_envelope(&dae, &init, 1.0e-5, &base).unwrap();
        let sparse_opts = WampdeOptions {
            linear_solver: LinearSolverKind::Klu,
            ..base
        };
        let sparse = solve_envelope(&dae, &init, 1.0e-5, &sparse_opts).unwrap();
        for (a, b) in dense.omega_hz.iter().zip(sparse.omega_hz.iter()) {
            assert!((a - b).abs() / a < 1e-9);
        }
    }

    #[test]
    fn both_backends_agree_on_lc_vco_envelope() {
        // The paper's basic LC VCO: dense and KLU envelopes must agree
        // on ω(t2) to tight tolerance.
        let dae = circuits::lc_vco();
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let base = WampdeOptions {
            step: T2StepControl::Fixed(2.0e-6),
            harmonics: 5,
            ..Default::default()
        };
        let init = WampdeInit::from_orbit(&orbit, &base);
        let dense = solve_envelope(&dae, &init, 1.0e-5, &base).unwrap();
        let opts = WampdeOptions {
            linear_solver: LinearSolverKind::Klu,
            ..base
        };
        let klu = solve_envelope(&dae, &init, 1.0e-5, &opts).unwrap();
        assert_eq!(dense.omega_hz.len(), klu.omega_hz.len());
        for (a, b) in dense.omega_hz.iter().zip(klu.omega_hz.iter()) {
            assert!((a - b).abs() / a < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn phi_is_monotone_and_consistent() {
        let cfg = MemsVcoConfig::constant(1.5);
        let dae = circuits::mems_vco(cfg);
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let opts = WampdeOptions {
            step: T2StepControl::Fixed(1.0e-6),
            ..small_opts()
        };
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let res = solve_envelope(&dae, &init, 1.0e-5, &opts).unwrap();
        for w in res.phi.windows(2) {
            assert!(w[1] > w[0]);
        }
        // φ(T) ≈ f0·T for constant frequency.
        let expect = orbit.frequency() * 1.0e-5;
        let got = *res.phi.last().unwrap();
        assert!((got - expect).abs() / expect < 1e-3, "{got} vs {expect}");
    }

    #[test]
    fn bad_inputs_rejected() {
        let vdp = VanDerPol::unforced(0.5);
        let opts = small_opts();
        let bad_n0 = WampdeInit::from_samples(vec![vec![0.0, 0.0]; 3], 1.0);
        assert!(solve_envelope(&vdp, &bad_n0, 1.0, &opts).is_err());
        let bad_width = WampdeInit::from_samples(vec![vec![0.0]; opts.n0()], 1.0);
        assert!(solve_envelope(&vdp, &bad_width, 1.0, &opts).is_err());
        let flat = WampdeInit::from_samples(vec![vec![0.0, 0.0]; opts.n0()], 1.0);
        // Flat initial data → degenerate phase condition.
        assert!(matches!(
            solve_envelope(&vdp, &flat, 1.0, &opts),
            Err(WampdeError::DegeneratePhase { .. })
        ));
        // Grid and phase-condition inputs that `Colloc` would panic on.
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let bad = [
            (0, opts.phase_var, opts.phase_harmonic),
            (opts.harmonics, 2, 1),
            (opts.harmonics, 0, 0),
            (opts.harmonics, 0, opts.harmonics + 1),
        ];
        for (harmonics, phase_var, phase_harmonic) in bad {
            let bad_opts = WampdeOptions {
                harmonics,
                phase_var,
                phase_harmonic,
                ..opts
            };
            assert!(matches!(
                solve_envelope(&vdp, &init, 1.0, &bad_opts),
                Err(WampdeError::BadInput(_))
            ));
        }
    }
}
