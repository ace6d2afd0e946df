//! Acceptance tests of the shared `newtonkit` Newton layer: every
//! solver's Newton iteration now runs on one engine, so
//!
//! * converged solutions agree across the dense and klu backends on
//!   `ring_loaded_vco` (that klu's numeric refactorisation is bitwise a
//!   fresh factorisation is asserted by `tests/proptests.rs`);
//! * an exhausted iteration budget surfaces the *same* canonical
//!   diagnostic (the configured budget in the error, the engine's
//!   "did not converge after N iterations" wording) from every solver;
//! * the new reuse counters are consistent wherever stats surface.

use circuitdae::circuits;
use linsolve::LinearSolverKind;
use mpde::AmForcing;
use newtonkit::NewtonPolicy;
use shooting::{oscillator_steady_state, ShootingOptions};
use transim::{dc_operating_point, TransimError};
use wampde::harmonic_balance::{solve_autonomous, HbOptions};
use wampde::{
    solve_envelope, solve_mpde, OmegaMode, T2Integrator, T2StepControl, WampdeError, WampdeInit,
    WampdeOptions,
};

#[test]
fn dc_backends_agree_on_ring_vco() {
    let dae = circuits::ring_loaded_vco(6);
    let dense = dc_operating_point(&dae, &NewtonPolicy::default()).unwrap();
    let opts = NewtonPolicy {
        linear_solver: LinearSolverKind::Klu,
        ..Default::default()
    };
    let x = dc_operating_point(&dae, &opts).unwrap();
    for (a, b) in dense.iter().zip(x.iter()) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn wampde_envelope_backends_agree_and_reuse_on_ring_vco() {
    let dae = circuits::ring_loaded_vco(4);
    let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
    let base = WampdeOptions {
        harmonics: 4,
        step: T2StepControl::Fixed(2.0e-6),
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(&orbit, &base);
    let dense = solve_envelope(&dae, &init, 1.0e-5, &base).unwrap();
    let sparse_opts = WampdeOptions {
        linear_solver: LinearSolverKind::Klu,
        ..base
    };
    let rec = std::sync::Arc::new(obskit::CollectingRecorder::new());
    let sparse = {
        let _g = obskit::install(rec.clone() as std::sync::Arc<dyn obskit::Recorder>);
        solve_envelope(&dae, &init, 1.0e-5, &sparse_opts).unwrap()
    };
    assert_eq!(dense.omega_hz.len(), sparse.omega_hz.len());
    for (a, b) in dense.omega_hz.iter().zip(sparse.omega_hz.iter()) {
        assert!((a - b).abs() / a < 1e-9, "{a} vs {b}");
    }
    // Every envelope iteration either solves against the kept step
    // Jacobian or factors one; the bordered Jacobian keeps its pattern
    // along t2, so at least half of all iterations skip the KLU ordering
    // and symbolic analysis (kept matrix or numeric-only refactor).
    // Dense has no symbolic phase to reuse.
    let kept = rec.counter("newton.jacobian_reuses") as usize;
    assert!(sparse.stats.factorisations > 0 && kept > 0);
    assert_eq!(
        kept + sparse.stats.factorisations,
        sparse.stats.newton_iters
    );
    assert!(
        kept + sparse.stats.symbolic_reuses >= sparse.stats.newton_iters / 2,
        "expected widespread reuse: {kept} kept, {:?}",
        sparse.stats
    );
    assert_eq!(dense.stats.symbolic_reuses, 0);
    assert_eq!(dense.stats.newton_iters, sparse.stats.newton_iters);
}

#[test]
fn exhausted_budgets_surface_identical_diagnostics() {
    // Give every solver an impossible one-iteration budget at a tight
    // tolerance: each must report the *configured* budget in its error,
    // through the same engine wording.
    let budget = 1;
    let tight = NewtonPolicy {
        max_iter: budget,
        abstol: 1e-300,
        reltol: 1e-300,
        ..Default::default()
    };

    // transim (DC path: the ladder's final stage propagates the error).
    // A nonlinear circuit whose operating point is away from the zero
    // start, so the one-iteration budget genuinely cannot converge.
    let mut ckt = circuitdae::Circuit::new();
    let a = ckt.node("a");
    ckt.add(circuitdae::Device::current_source(
        circuitdae::Circuit::GND,
        a,
        circuitdae::Waveform::Dc(1e-3),
    ));
    ckt.add(circuitdae::Device::tanh_conductor(
        a,
        circuitdae::Circuit::GND,
        -2e-3,
        0.5,
        1e-3,
    ));
    let dae = ckt.build().unwrap();
    let terr = dc_operating_point(&dae, &tight).unwrap_err();
    let TransimError::NewtonFailed { iterations, .. } = terr else {
        panic!("unexpected transim error {terr}");
    };
    assert_eq!(iterations, budget);

    // mpde (the t2 = 0 steady solve fails first).
    let mut ckt = circuitdae::Circuit::new();
    let n = ckt.node("out");
    ckt.add(circuitdae::Device::resistor(
        n,
        circuitdae::Circuit::GND,
        1.0e3,
    ));
    ckt.add(circuitdae::Device::capacitor(
        n,
        circuitdae::Circuit::GND,
        1.0e-9,
    ));
    ckt.add(circuitdae::Device::current_source(
        circuitdae::Circuit::GND,
        n,
        circuitdae::Waveform::Dc(0.0),
    ));
    let rc = ckt.build().unwrap();
    let forcing = AmForcing {
        node: 0,
        carrier_amplitude: 1.0e-3,
        mod_depth: 0.5,
        mod_freq_hz: 1.0e3,
    };
    let mopts = WampdeOptions {
        harmonics: 3,
        integrator: T2Integrator::BackwardEuler,
        step: T2StepControl::Fixed(1.0e-3 / 50.0),
        newton: tight,
        omega_mode: OmegaMode::Frozen(1.0e6),
        ..Default::default()
    };
    let merr = solve_mpde(&rc, &forcing, 1.0e-3, &mopts, None).unwrap_err();
    assert!(
        matches!(
            merr,
            WampdeError::NewtonFailed { at_t2, iterations, .. }
                if at_t2 == 0.0 && iterations == budget
        ),
        "unexpected mpde error {merr}"
    );

    // wampde (first fixed step cannot converge; budget reported).
    let orbit = oscillator_steady_state(&circuits::lc_vco(), &ShootingOptions::default()).unwrap();
    let wopts = WampdeOptions {
        harmonics: 3,
        step: T2StepControl::Fixed(1.0e-6),
        newton: tight,
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(&orbit, &wopts);
    let werr = solve_envelope(&circuits::lc_vco(), &init, 1.0e-5, &wopts).unwrap_err();
    let WampdeError::NewtonFailed { iterations, .. } = werr else {
        panic!("unexpected wampde error {werr}");
    };
    assert_eq!(iterations, budget);
}

#[test]
fn hb_runs_on_the_shared_engine_with_reuse() {
    // Autonomous HB on the ring VCO: the bordered collocation solve
    // reaches the shooting frequency through the shared engine, dense
    // and sparse alike.
    let dae = circuits::ring_loaded_vco(4);
    let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
    let opts = HbOptions {
        harmonics: 6,
        ..Default::default()
    };
    let init = orbit.resample_uniform(2 * opts.harmonics + 1);
    let dense = solve_autonomous(&dae, &init, orbit.frequency(), &opts).unwrap();
    let sparse_opts = HbOptions {
        newton: NewtonPolicy {
            linear_solver: LinearSolverKind::Klu,
            ..Default::default()
        },
        ..opts
    };
    let sparse = solve_autonomous(&dae, &init, orbit.frequency(), &sparse_opts).unwrap();
    let rel = (dense.freq_hz - sparse.freq_hz).abs() / dense.freq_hz;
    assert!(rel < 1e-9, "{} vs {}", dense.freq_hz, sparse.freq_hz);
    let rel_shoot = (dense.freq_hz - orbit.frequency()).abs() / orbit.frequency();
    assert!(
        rel_shoot < 1e-3,
        "hb {} vs shooting {}",
        dense.freq_hz,
        orbit.frequency()
    );
}
