//! Deck adapter: runs a [`circuitdae::WampdeSpec`] directive.

use crate::envelope::solve_envelope;
use crate::error::WampdeError;
use crate::init::WampdeInit;
use crate::options::WampdeOptions;
use crate::result::EnvelopeResult;
use circuitdae::{CircuitDae, Dae, WampdeSpec};
use shooting::{
    oscillator_steady_state_with_stats, PeriodicOrbit, ShootingOptions, ShootingWarmStart,
};

/// Runs a `.wampde` directive end to end: freezes the circuit's waveforms
/// at `t = 0`, shoots for the unforced periodic orbit (the paper's
/// natural initial condition, §4.1), phase-aligns it, and tracks the
/// envelope of the *driven* circuit to `t_stop`.
///
/// This is the one-call path the deck/sweep subsystem uses; the manual
/// orbit → [`WampdeInit::from_orbit`] → [`solve_envelope`] pipeline stays
/// available for callers that need custom initial conditions.
///
/// # Errors
///
/// [`WampdeError::BadInput`] when `phase_var` is out of range or the
/// shooting initialisation fails (reporting the underlying cause),
/// otherwise see [`solve_envelope`].
pub fn run_wampde_spec(dae: &CircuitDae, spec: &WampdeSpec) -> Result<EnvelopeResult, WampdeError> {
    run_wampde_spec_warm(dae, spec, None).map(|(env, ..)| env)
}

/// [`run_wampde_spec`] with a continuation warm start: when `warm`
/// holds the unforced orbit of a neighbouring grid point, the shooting
/// initialisation starts from the seed extrapolated through that orbit's
/// lineage, then from the orbit itself, instead of running the full
/// DC → kick → warm-up → settle pipeline, which runs only if both fail
/// (see [`shooting::oscillator_steady_state_with_stats`]). Also returns
/// this point's converged unforced orbit, so the caller can chain it
/// into the next point with [`ShootingWarmStart::from_orbit`], and the
/// work the initialisation did — failed warm attempts included.
///
/// # Errors
///
/// As [`run_wampde_spec`].
pub fn run_wampde_spec_warm(
    dae: &CircuitDae,
    spec: &WampdeSpec,
    warm: Option<&ShootingWarmStart>,
) -> Result<(EnvelopeResult, PeriodicOrbit, obskit::RunStats), WampdeError> {
    if spec.phase_var >= dae.dim() {
        return Err(WampdeError::BadInput(format!(
            "phase_var {} out of range (dim = {})",
            spec.phase_var,
            dae.dim()
        )));
    }
    let unforced = dae.frozen_at(0.0);
    let shoot_opts = ShootingOptions {
        steps_per_period: spec.shooting_steps,
        phase_var: spec.phase_var,
        linear_solver: spec.solver,
        ..Default::default()
    };
    let (orbit, init_stats) = oscillator_steady_state_with_stats(&unforced, &shoot_opts, warm)
        .map_err(|e| WampdeError::BadInput(format!("shooting initialisation failed: {e}")))?;
    let opts = WampdeOptions {
        harmonics: spec.harmonics,
        phase_var: spec.phase_var,
        linear_solver: spec.solver,
        integrator: spec.step.integrator,
        step: spec.step.policy(),
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(&orbit, &opts);
    let env = solve_envelope(dae, &init, spec.t_stop, &opts)?;
    Ok((env, orbit, init_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::circuits::{self, MemsVcoConfig};

    #[test]
    fn wampde_spec_runs_constant_control_vco() {
        // With a DC control the local frequency must stay near the
        // unforced 0.75 MHz for the whole (short) run.
        let dae = circuits::mems_vco(MemsVcoConfig::constant(1.5));
        let spec = WampdeSpec {
            harmonics: 4,
            shooting_steps: 256,
            ..WampdeSpec::new(1.0e-6)
        };
        let env = run_wampde_spec(&dae, &spec).unwrap();
        assert!(env.stats.steps > 0);
        let (lo, hi) = env.frequency_range();
        assert!((lo - 0.75e6).abs() / 0.75e6 < 0.05, "lo = {lo}");
        assert!((hi - 0.75e6).abs() / 0.75e6 < 0.05, "hi = {hi}");
    }

    #[test]
    fn deck_defaults_are_the_options_defaults() {
        // A `.wampde` deck that sets no key runs the library's defaults:
        // sweeps compare deck runs against direct `solve_envelope` calls
        // built from `WampdeOptions::default()`.
        let spec = WampdeSpec::new(1.0e-6);
        let opts = WampdeOptions::default();
        assert_eq!(spec.step.policy(), opts.step);
        assert_eq!(spec.harmonics, opts.harmonics);
        assert_eq!(spec.step.integrator, opts.integrator);
        assert_eq!(spec.phase_var, opts.phase_var);
        assert_eq!(spec.solver, opts.linear_solver);
    }

    #[test]
    fn out_of_range_phase_var_rejected() {
        let dae = circuits::mems_vco(MemsVcoConfig::constant(1.5));
        let spec = WampdeSpec {
            harmonics: 4,
            phase_var: 9, // dim is 4
            shooting_steps: 256,
            ..WampdeSpec::new(1.0e-6)
        };
        assert!(matches!(
            run_wampde_spec(&dae, &spec),
            Err(WampdeError::BadInput(_))
        ));
    }

    #[test]
    fn failed_warm_seed_is_metered_in_the_initialisation_stats() {
        let dae = circuits::mems_vco(MemsVcoConfig::constant(1.5));
        let spec = WampdeSpec {
            harmonics: 4,
            shooting_steps: 128,
            ..WampdeSpec::new(0.2e-6)
        };
        let (cold_env, cold, cold_init) = run_wampde_spec_warm(&dae, &spec, None).unwrap();
        let seed = ShootingWarmStart {
            x0: vec![f64::NAN; dae.dim()],
            period: cold.period,
            lineage: Vec::new(),
            samples: Vec::new(),
            monodromy: None,
        };
        let (env, orbit, init) = run_wampde_spec_warm(&dae, &spec, Some(&seed)).unwrap();
        assert_eq!(orbit.period.to_bits(), cold.period.to_bits());
        assert_eq!(env.omega_hz, cold_env.omega_hz);
        assert!(
            init.newton_iters > cold_init.newton_iters,
            "{} vs cold {}",
            init.newton_iters,
            cold_init.newton_iters
        );
    }
}
