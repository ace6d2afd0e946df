//! Method cross-validation on the van der Pol oscillator: shooting,
//! autonomous harmonic balance and the WaMPDE (with constant control)
//! must all find the same limit cycle.
//!
//! Run with `cargo run --release --example van_der_pol`.

use circuitdae::analytic::VanDerPol;
use shooting::{oscillator_steady_state, ShootingOptions};
use wampde::harmonic_balance::{solve_autonomous, HbOptions};
use wampde::{solve_envelope, T2StepControl, WampdeInit, WampdeOptions};

fn main() {
    println!("  μ      asymptotic   shooting     HB           WaMPDE");
    for &mu in &[0.1, 0.5, 1.0, 2.0] {
        let vdp = VanDerPol::unforced(mu);

        // Asymptotic (small-μ) period estimate.
        let approx = vdp.approx_period();

        // Shooting.
        let orbit =
            oscillator_steady_state(&vdp, &ShootingOptions::default()).expect("vdp oscillates");

        // Autonomous harmonic balance, seeded from the orbit.
        let hb_opts = HbOptions {
            harmonics: 12,
            ..Default::default()
        };
        let init = orbit.resample_uniform(2 * hb_opts.harmonics + 1);
        let hb_sol =
            solve_autonomous(&vdp, &init, orbit.frequency(), &hb_opts).expect("HB converges");

        // WaMPDE envelope with nothing to track: ω must stay put.
        let wam_opts = WampdeOptions {
            harmonics: 12,
            step: T2StepControl::Fixed(0.5),
            ..Default::default()
        };
        let wam_init = WampdeInit::from_orbit(&orbit, &wam_opts);
        let env = solve_envelope(&vdp, &wam_init, 20.0, &wam_opts).expect("envelope converges");
        let wam_period = 1.0 / env.omega_hz.last().expect("nonempty");

        println!(
            "  {mu:<5} {approx:<12.6} {:<12.6} {:<12.6} {:<12.6}",
            orbit.period,
            1.0 / hb_sol.freq_hz,
            wam_period,
        );
    }
    println!("\n(asymptotic 2π(1+μ²/16) is only valid for small μ; the three");
    println!(" numerical methods agree to their discretisation accuracy)");
}
