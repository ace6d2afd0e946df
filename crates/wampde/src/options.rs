//! Configuration of the WaMPDE solvers.

use newtonkit::{Damping, NewtonPolicy};

/// Implicit scheme used along the slow (unwarped) time axis `t2` — a
/// re-export of the shared [`timekit::Scheme`] table (the same engine
/// steps `transim` transients).
///
/// The envelope system is a semi-explicit DAE in which the local
/// frequency `ω(t2)` acts as a Lagrange multiplier enforcing the phase
/// constraint — an index-2-like structure. Methods that *average* the
/// instantaneous terms (trapezoidal) are known to ring on such
/// multipliers; fully implicit methods (BE, BDF2) are clean, which is
/// why [`WampdeOptions::default`] selects BDF2 rather than the scheme
/// table's own transient-oriented default.
///
/// `T2Integrator::default()` follows the table's transient convention
/// (Trapezoidal), not the envelope's BDF2. Build envelope options
/// through [`WampdeOptions::default`], which pins BDF2, rather than from
/// `T2Integrator::default()` directly.
pub use timekit::Scheme as T2Integrator;

/// Slow-time step policy — a re-export of the shared
/// [`timekit::StepPolicy`]: `Fixed(dt)` or predictor–corrector LTE
/// control with the canonical `0.0 = auto` bound resolution.
///
/// `T2StepControl::default()` follows the shared transient convention
/// (`rtol = 1e-6`, `atol = 1e-12`). [`WampdeOptions::default`] pins the
/// envelope-accuracy tolerances (`rtol = 2e-4`, `atol = 1e-9`, relative
/// to each variable's amplitude over the period) — build
/// options through it, or with [`timekit::StepPolicy::adaptive`].
pub use timekit::StepPolicy as T2StepControl;

/// How the local frequency unknown is treated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OmegaMode {
    /// `ω(t2)` is a solver unknown pinned by the phase condition — the
    /// WaMPDE proper.
    #[default]
    Free,
    /// `ω` is frozen at a constant (Hz) and the phase condition is
    /// dropped: this *is* the unwarped MPDE. Under a bivariate forcing
    /// ([`crate::solve_mpde`]) it is the MPDE of a non-autonomous circuit
    /// driven at that carrier; on an autonomous system
    /// ([`crate::solve_envelope`]) it is the formulation the paper shows
    /// cannot represent FM compactly.
    Frozen(f64),
}

/// Which linear solver factors the per-step bordered Jacobian.
///
/// Re-exported from the workspace-wide `linsolve` crate: the same switch
/// selects backends for every solver (transient, shooting, HB, MPDE).
pub use ::linsolve::LinearSolverKind;

/// Options for [`crate::solve_envelope`], [`crate::solve_mpde`] and
/// [`crate::solve_quasiperiodic`].
#[derive(Debug, Clone, Copy)]
pub struct WampdeOptions {
    /// Harmonic count `M` along the warped axis (`N0 = 2M+1` samples).
    pub harmonics: usize,
    /// Scheme along `t2`.
    pub integrator: T2Integrator,
    /// Slow-time step policy.
    pub step: T2StepControl,
    /// Inner Newton options. The default turns on
    /// [`newtonkit::NewtonPolicy::reuse_jacobian`] for the envelope and
    /// takes full (undamped) Newton steps;
    /// [`crate::solve_quasiperiodic`] always factors every iteration.
    /// `abstol`/`reltol` govern fixed-step envelopes, every MPDE step
    /// ([`crate::solve_mpde`]) and [`crate::solve_quasiperiodic`]; an
    /// adaptive [`crate::solve_envelope`] derives its Newton test from
    /// the step instead: converged when the update is at most
    /// [`timekit::NEWTON_TOL`] in the step controller's error weights
    /// ([`timekit::Tolerance::newton_norm`]).
    pub newton: NewtonPolicy,
    /// Phase-condition variable `k` (an unknown that actually oscillates —
    /// typically the tank voltage).
    pub phase_var: usize,
    /// Phase-condition harmonic `l ≥ 1`.
    pub phase_harmonic: usize,
    /// Local-frequency treatment.
    pub omega_mode: OmegaMode,
    /// Linear solver for the bordered collocation Jacobian.
    pub linear_solver: LinearSolverKind,
}

impl Default for WampdeOptions {
    fn default() -> Self {
        WampdeOptions {
            harmonics: 8,
            // BDF2: second-order envelope accuracy without multiplier
            // ringing (see the T2Integrator re-export docs).
            integrator: T2Integrator::Bdf2,
            // Relative to each variable's amplitude over the period (see
            // `timekit::Scale::Amplitude`), not to each sample.
            step: T2StepControl::adaptive(2e-4, 1e-9),
            // Modified Newton: the step Jacobian barely moves between
            // neighbouring t2 steps (the engine refactors it when a0h
            // leaves DASSL's band or the scheme's θ changes). The
            // corrector starts at the predictor, so it runs undamped, as
            // DASSL's does: a diverging iteration on a kept matrix
            // refactors, and a failed solve is retried smaller.
            newton: NewtonPolicy {
                reuse_jacobian: true,
                damping: Damping::Full,
                ..NewtonPolicy::default()
            },
            phase_var: 0,
            phase_harmonic: 1,
            omega_mode: OmegaMode::default(),
            linear_solver: LinearSolverKind::default(),
        }
    }
}

impl WampdeOptions {
    /// Collocation sample count `N0 = 2M+1`.
    pub fn n0(&self) -> usize {
        2 * self.harmonics + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = WampdeOptions::default();
        assert_eq!(o.n0(), 17);
        assert_eq!(o.phase_harmonic, 1);
        assert!(matches!(o.omega_mode, OmegaMode::Free));
        assert!(matches!(o.linear_solver, LinearSolverKind::Dense));
        assert_eq!(o.integrator, T2Integrator::Bdf2);
        assert!(o.newton.reuse_jacobian);
        assert_eq!(o.newton.damping, Damping::Full);
        match o.step {
            T2StepControl::Adaptive { rtol, atol, .. } => {
                assert_eq!(rtol, 2e-4);
                assert_eq!(atol, 1e-9);
            }
            other => panic!("unexpected default step policy {other:?}"),
        }
    }
}
