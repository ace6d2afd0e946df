//! Cross-method validation: shooting, autonomous harmonic balance and the
//! WaMPDE must agree on the periodic steady state of free-running
//! oscillators — they are three discretisations of the same object.

use circuitdae::analytic::VanDerPol;
use circuitdae::circuits::{self, MemsVcoConfig};
use shooting::{oscillator_steady_state, ShootingOptions};
use wampde::harmonic_balance::{solve_autonomous, HbOptions};
use wampde::{solve_envelope, T2Integrator, T2StepControl, WampdeInit, WampdeOptions};

#[test]
fn vdp_three_methods_one_period() {
    let vdp = VanDerPol::unforced(1.0);
    let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();

    let hb_opts = HbOptions {
        harmonics: 12,
        ..Default::default()
    };
    let init = orbit.resample_uniform(2 * hb_opts.harmonics + 1);
    let hb_sol = solve_autonomous(&vdp, &init, orbit.frequency(), &hb_opts).unwrap();

    // Backward Euler settles onto the envelope fixed point fastest (the
    // settled *value* is integrator-independent; BDF2's parasitic root
    // just decays the initial error more slowly).
    let wam_opts = WampdeOptions {
        harmonics: 12,
        step: T2StepControl::Fixed(0.5),
        integrator: T2Integrator::BackwardEuler,
        ..Default::default()
    };
    let wam_init = WampdeInit::from_orbit(&orbit, &wam_opts);
    let env = solve_envelope(&vdp, &wam_init, 25.0, &wam_opts).unwrap();
    let wam_freq = *env.omega_hz.last().unwrap();

    let f0 = orbit.frequency();
    assert!(
        (hb_sol.freq_hz - f0).abs() / f0 < 2e-3,
        "HB {} vs shooting {f0}",
        hb_sol.freq_hz
    );
    assert!(
        (wam_freq - f0).abs() / f0 < 2e-3,
        "WaMPDE {wam_freq} vs shooting {f0}"
    );
    // HB and the settled WaMPDE solve the *same* collocated equations, so
    // they agree much more tightly with each other.
    assert!(
        (wam_freq - hb_sol.freq_hz).abs() / f0 < 1e-5,
        "WaMPDE {wam_freq} vs HB {}",
        hb_sol.freq_hz
    );
}

#[test]
fn lc_vco_frequency_against_design_formula() {
    // All engines should sit near 1/(2π√(LC)) (small nonlinearity shift).
    let dae = circuits::lc_vco();
    let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
    let f_design = 1.0 / circuits::nominal_period();
    assert!(
        (orbit.frequency() - f_design).abs() / f_design < 0.01,
        "shooting {} vs design {f_design}",
        orbit.frequency()
    );
}

#[test]
fn mems_vco_constant_control_matches_static_formula() {
    // The unforced oscillation frequency must track the varactor law
    // C(y*) at the static plate displacement.
    for v in [1.0_f64, 1.5, 3.0] {
        let cfg = MemsVcoConfig::constant(v);
        let dae = circuits::mems_vco(cfg);
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let p = circuits::mems_vco_params(cfg);
        let f_static = circuits::tank_frequency(&p, p.static_displacement(v));
        assert!(
            (orbit.frequency() - f_static).abs() / f_static < 0.01,
            "V={v}: shooting {} vs static {f_static}",
            orbit.frequency()
        );
    }
}
