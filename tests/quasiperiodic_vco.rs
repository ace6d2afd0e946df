//! Quasiperiodic (periodic-boundary) WaMPDE on the forced VCO: the
//! steady FM-quasiperiodic solution must match the settled envelope run.

use circuitdae::circuits::{self, MemsVcoConfig};
use shooting::{oscillator_steady_state, ShootingOptions};
use wampde::quasiperiodic::QpInit;
use wampde::{solve_envelope, solve_quasiperiodic, WampdeInit, WampdeOptions};

#[test]
fn qp_solution_matches_settled_envelope() {
    let cfg = MemsVcoConfig::paper_vacuum();
    let dae = circuits::mems_vco(cfg);
    let t2_period = 40e-6; // the control period

    let unforced = circuits::mems_vco(MemsVcoConfig::constant(1.5));
    let orbit = oscillator_steady_state(&unforced, &ShootingOptions::default()).unwrap();

    let opts = WampdeOptions {
        harmonics: 5,
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(&orbit, &opts);
    // Two control periods: the second is essentially periodic (the
    // underdamped plate settles within a few µs).
    let env = solve_envelope(&dae, &init, 2.0 * t2_period, &opts).unwrap();

    let n1 = 16;
    let qp_init = QpInit::from_envelope(&env, t2_period, n1);
    let qp = solve_quasiperiodic(&dae, &qp_init, t2_period, &opts).unwrap();

    // The QP frequency trace must match the envelope's over its final
    // period (same discretisation along t1 and the same t2 scheme in
    // both; the worst deviation measures 6.5e-3 at 16 slices).
    let t_start = env.t2.last().unwrap() - t2_period;
    let mut worst: f64 = 0.0;
    for (m, &w_qp) in qp.omegas.iter().enumerate() {
        let t = t_start + t2_period * m as f64 / n1 as f64;
        let w_env = env.omega_at(t);
        worst = worst.max((w_qp - w_env).abs() / w_env);
    }
    assert!(worst < 0.01, "QP vs envelope frequency deviation {worst}");

    // Physical sanity: the QP frequency range brackets a ≈3× swing.
    let (lo, hi) = qp.frequency_range();
    assert!(hi / lo > 2.0, "QP swing {lo}..{hi}");
    assert!(lo > 0.5e6 && hi < 3.0e6, "QP absolute range {lo}..{hi}");
}
