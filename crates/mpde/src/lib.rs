//! AM forcing and the `.mpde` deck adapter over `wampde`'s envelope.
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
//! fundamental is pinned a priori.
//!
//! The solver is the WaMPDE's own envelope with ω frozen at `f1`
//! ([`wampde::solve_mpde`] under `OmegaMode::Frozen(f1)`), so a run
//! returns a [`wampde::EnvelopeResult`] and fails with a
//! [`wampde::WampdeError`]. This crate supplies the AM carrier
//! [`AmForcing`] and the `.mpde` directive's adapter [`run_mpde_spec`]
//! over the problem [`spec_problem`] maps a directive to.
//!
//! # Example
//!
//! ```
//! use circuitdae::{Circuit, Device};
//! use mpde::AmForcing;
//! use wampde::{OmegaMode, T2Integrator, T2StepControl, WampdeOptions};
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
//! let opts = WampdeOptions {
//!     harmonics: 6,
//!     integrator: T2Integrator::BackwardEuler,
//!     step: T2StepControl::Fixed(4.0e-5),
//!     omega_mode: OmegaMode::Frozen(1.0e6),
//!     ..Default::default()
//! };
//! let sol = wampde::solve_mpde(&dae, &forcing, 2.0e-3, &opts, None).unwrap();
//! assert!(sol.t2.len() > 10);
//! ```

use circuitdae::Dae;
use newtonkit::NewtonPolicy;
use wampde::{
    BivariateForcing, EnvelopeResult, OmegaMode, T2StepControl, WampdeError, WampdeOptions,
};

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

/// The `.mpde` directive's problem: its AM forcing into the named KCL
/// row, and its envelope options. The step keys pick fixed-step mode (the
/// default, `dt=`, automatically `t_stop/50`) or — when `rtol` is
/// positive — LTE-adaptive stepping with `dt` as the initial step. Newton
/// is full Newton to the default tolerances (`NewtonPolicy::default()`,
/// not `WampdeOptions`' modified Newton), ω is frozen at the carrier.
pub fn spec_problem(spec: &circuitdae::MpdeSpec) -> (AmForcing, WampdeOptions) {
    let forcing = AmForcing {
        node: spec.node,
        carrier_amplitude: spec.amplitude,
        mod_depth: spec.mod_depth,
        mod_freq_hz: spec.mod_freq_hz,
    };
    let step = if spec.step.rtol > 0.0 {
        T2StepControl::Adaptive {
            rtol: spec.step.rtol,
            atol: spec.step.atol,
            dt_init: spec.step.dt,
            dt_min: spec.step.dt_min,
            dt_max: spec.step.dt_max,
        }
    } else if spec.step.dt > 0.0 {
        T2StepControl::Fixed(spec.step.dt)
    } else {
        T2StepControl::Fixed(spec.t_stop / 50.0)
    };
    let opts = WampdeOptions {
        harmonics: spec.harmonics,
        integrator: spec.step.integrator,
        step,
        newton: NewtonPolicy::default(),
        omega_mode: OmegaMode::Frozen(spec.f1_hz),
        linear_solver: spec.solver,
        ..Default::default()
    };
    (forcing, opts)
}

/// Deck adapter: runs a `.mpde` directive, the problem
/// [`spec_problem`] maps it to.
///
/// # Errors
///
/// [`WampdeError::BadInput`] when the forced node index is out of range;
/// otherwise see [`wampde::solve_mpde`].
pub fn run_mpde_spec<D: Dae + ?Sized>(
    dae: &D,
    spec: &circuitdae::MpdeSpec,
) -> Result<EnvelopeResult, WampdeError> {
    run_mpde_spec_warm(dae, spec, None)
}

/// [`run_mpde_spec`] with a continuation warm start: `init` (the
/// `states[0]` collocation slice of a neighbouring grid point's
/// [`EnvelopeResult`]) seeds the `t2 = 0` steady solve, skipping the DC
/// operating point. See [`wampde::solve_mpde`].
///
/// # Errors
///
/// As [`run_mpde_spec`].
pub fn run_mpde_spec_warm<D: Dae + ?Sized>(
    dae: &D,
    spec: &circuitdae::MpdeSpec,
    init: Option<&[f64]>,
) -> Result<EnvelopeResult, WampdeError> {
    if spec.node >= dae.dim() {
        return Err(WampdeError::BadInput(format!(
            "forced node index {} out of range (dim = {})",
            spec.node,
            dae.dim()
        )));
    }
    let (forcing, opts) = spec_problem(spec);
    wampde::solve_mpde(dae, &forcing, spec.t_stop, &opts, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::{Circuit, Device, Waveform};
    use transim::{run_transient, Integrator, StepControl, TransientOptions};
    use wampde::{solve_mpde, LinearSolverKind, T2Integrator};

    /// The MPDE's historical options: fixed-step Backward Euler along
    /// `t2`, full Newton, ω frozen at the carrier `f1`.
    fn mpde_opts(f1: f64, harmonics: usize, dt2: f64) -> WampdeOptions {
        WampdeOptions {
            harmonics,
            integrator: T2Integrator::BackwardEuler,
            step: T2StepControl::Fixed(dt2),
            newton: NewtonPolicy::default(),
            omega_mode: OmegaMode::Frozen(f1),
            ..Default::default()
        }
    }

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
        let sol = solve_mpde(&dae, &forcing, 1.0e-3, &mpde_opts(f1, 4, 1.0e-5), None).unwrap();
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
        let sol = solve_mpde(&dae, &forcing, 5.0e-5, &mpde_opts(f1, 4, 5.0e-7), None).unwrap();

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
        let bad_input = |opts: &WampdeOptions, t2_end: f64, seed: Option<&[f64]>| {
            matches!(
                solve_mpde(&dae, &f, t2_end, opts, seed),
                Err(WampdeError::BadInput(_))
            )
        };
        let opts = mpde_opts(1.0, 6, 0.02);
        assert!(bad_input(&mpde_opts(-1.0, 6, 0.02), 1.0, None));
        assert!(bad_input(&opts, -1.0, None));
        // A grid `Colloc` would panic on.
        assert!(bad_input(&mpde_opts(1.0, 0, 0.02), 1.0, None));
        // The MPDE pins ω; a free ω has no carrier to pin it at.
        let free = WampdeOptions {
            omega_mode: OmegaMode::Free,
            ..opts
        };
        assert!(bad_input(&free, 1.0, None));
        // A seed from another grid.
        assert!(bad_input(&opts, 1.0, Some(&[0.0; 3])));
    }

    #[test]
    fn klu_matches_dense_envelope() {
        let dae = rc(1e3, 1e-9);
        let forcing = AmForcing {
            node: 0,
            carrier_amplitude: 1.0e-3,
            mod_depth: 0.5,
            mod_freq_hz: 1.0e3,
        };
        let base = mpde_opts(1.0e6, 4, 5.0e-5);
        let dense = solve_mpde(&dae, &forcing, 5.0e-4, &base, None).unwrap();
        let opts = WampdeOptions {
            linear_solver: LinearSolverKind::Klu,
            ..base
        };
        let sol = solve_mpde(&dae, &forcing, 5.0e-4, &opts, None).unwrap();
        assert_eq!(dense.t2.len(), sol.t2.len());
        for (a, b) in dense.states.iter().zip(sol.states.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }
}
