//! Acceptance tests of modified-Newton Jacobian reuse in the WaMPDE
//! envelope (`NewtonPolicy::reuse_jacobian`, on by default in
//! `WampdeOptions`): with reuse on the envelope lands on the same
//! frequency trajectory as full Newton, takes the same number of `t2`
//! steps to within 2 %, and factors far less often. Adaptive steps
//! converge in the step controller's error weights, so "the same
//! trajectory" means within a bound that the step tolerance sets: a
//! tenth of full Newton's own discretisation error of the final ω,
//! |ω(rtol) − ω(rtol/10)|.

use circuitdae::circuits::{self, MemsVcoConfig};
use circuitdae::Dae;
use shooting::{oscillator_steady_state, ShootingOptions};
use std::sync::Arc;
use wampde::{
    solve_envelope, EnvelopeResult, LinearSolverKind, T2StepControl, WampdeInit, WampdeOptions,
};

/// Runs the envelope with reuse on and off; returns both results and the
/// traced `newton.jacobian_reuses` count of the reuse-on run.
fn on_and_off<D: Dae + ?Sized>(
    dae: &D,
    init: &WampdeInit,
    t_end: f64,
    opts: &WampdeOptions,
) -> (EnvelopeResult, EnvelopeResult, u64) {
    assert!(opts.newton.reuse_jacobian, "reuse is the envelope default");
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let on = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        solve_envelope(dae, init, t_end, opts).unwrap()
    };
    let mut full = *opts;
    full.newton.reuse_jacobian = false;
    let off = solve_envelope(dae, init, t_end, &full).unwrap();
    (on, off, rec.counter("newton.jacobian_reuses"))
}

/// Relative deviation of `a`'s final ω from `b`'s.
fn final_omega_dev(a: &EnvelopeResult, b: &EnvelopeResult) -> f64 {
    let (w_a, w_b) = (*a.omega_hz.last().unwrap(), *b.omega_hz.last().unwrap());
    (w_a - w_b).abs() / w_b
}

/// Full Newton's own discretisation error of the final ω,
/// |ω(rtol) − ω(rtol/10)| relative, given its run `off` at `opts`' rtol.
fn discretisation_error<D: Dae + ?Sized>(
    dae: &D,
    init: &WampdeInit,
    t_end: f64,
    opts: &WampdeOptions,
    off: &EnvelopeResult,
) -> f64 {
    let T2StepControl::Adaptive { rtol, atol, .. } = opts.step else {
        panic!("the envelope default is adaptive");
    };
    let mut tight = *opts;
    tight.step = T2StepControl::adaptive(rtol / 10.0, atol);
    tight.newton.reuse_jacobian = false;
    let fine = solve_envelope(dae, init, t_end, &tight).unwrap();
    final_omega_dev(off, &fine)
}

/// Reuse lands within `omega_tol` (relative) of full Newton's final ω.
fn assert_agree(on: &EnvelopeResult, off: &EnvelopeResult, omega_tol: f64) {
    let dev = final_omega_dev(on, off);
    assert!(
        dev <= omega_tol,
        "final omega {} (reuse) vs {} (full Newton): {dev:e} > {omega_tol:e}",
        on.omega_hz.last().unwrap(),
        off.omega_hz.last().unwrap()
    );
    let (s_on, s_off) = (on.stats.steps as f64, off.stats.steps as f64);
    assert!(
        (s_on - s_off).abs() <= 0.02 * s_off,
        "accepted t2 steps {s_on} (reuse) vs {s_off} (full Newton)"
    );
    // Every full-Newton iteration factors; reuse keeps most matrices.
    assert_eq!(off.stats.factorisations, off.stats.newton_iters);
    assert!(
        2 * on.stats.factorisations <= on.stats.newton_iters,
        "reuse barely kept a matrix: {:?}",
        on.stats
    );
}

#[test]
fn paper_mems_vco_envelope_agrees_with_full_newton() {
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
    // A third of the paper's 3 ms. Reuse moves each step's solution
    // within the Newton tolerance, which can flip an LTE accept/reject
    // and shift the adaptive step sequence; over this span the runs end
    // 2 steps apart (326 vs 328) and the final omega deviates by 5.6e-6,
    // against a bound of 1.85e-5.
    let (on, off, kept) = on_and_off(&dae, &init, 1e-3, &opts);
    assert_agree(
        &on,
        &off,
        0.1 * discretisation_error(&dae, &init, 1e-3, &opts, &off),
    );
    assert!(kept > 0);
}

#[test]
fn ring_vco_envelope_agrees_with_full_newton_on_every_backend() {
    let dae = circuits::ring_loaded_vco(4);
    let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
    for kind in [LinearSolverKind::Dense, LinearSolverKind::Klu] {
        let opts = WampdeOptions {
            harmonics: 4,
            linear_solver: kind,
            ..Default::default()
        };
        let init = WampdeInit::from_orbit(&orbit, &opts);
        let (on, off, kept) = on_and_off(&dae, &init, 2e-5, &opts);
        assert_agree(
            &on,
            &off,
            0.1 * discretisation_error(&dae, &init, 2e-5, &opts, &off),
        );
        // Every reuse-on iteration either factored or was kept.
        assert_eq!(
            on.stats.factorisations + kept as usize,
            on.stats.newton_iters,
            "{}: {:?}",
            kind.label(),
            on.stats
        );
    }
}
