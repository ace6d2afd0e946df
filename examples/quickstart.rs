//! Quickstart: simulate the paper's MEMS-tuned VCO with the WaMPDE and
//! print the local-frequency trace.
//!
//! Run with `cargo run --release --example quickstart`.

use circuitdae::circuits::{self, MemsVcoConfig};
use shooting::{oscillator_steady_state, ShootingOptions};
use wampde::{solve_envelope, WampdeInit, WampdeOptions};

fn main() {
    // The VCO of Section 5: an LC tank (≈0.75 MHz) in parallel with a
    // cubic negative resistor, tuned by an electrostatically actuated
    // MEMS varactor. The control voltage sweeps sinusoidally with a
    // period 30× the oscillation period.
    let cfg = MemsVcoConfig::paper_vacuum();
    let dae = circuits::mems_vco(cfg);

    // Natural initial condition: the unforced oscillator's periodic
    // steady state, found by shooting (period + orbit).
    let unforced = circuits::mems_vco(MemsVcoConfig::constant(1.5));
    let orbit = oscillator_steady_state(&unforced, &ShootingOptions::default())
        .expect("unforced VCO oscillates");
    println!("unforced oscillation: {:.1} kHz", orbit.frequency() / 1e3);

    // WaMPDE envelope over two control periods (80 µs ≈ 60 carrier
    // cycles), stepping on the modulation time scale.
    let opts = WampdeOptions::default();
    let init = WampdeInit::from_orbit(&orbit, &opts);
    let env = solve_envelope(&dae, &init, 80e-6, &opts).expect("envelope converges");

    println!(
        "envelope: {} t2 steps, {} Newton iterations",
        env.stats.steps, env.stats.newton_iters
    );
    let (lo, hi) = env.frequency_range();
    println!(
        "local frequency sweeps {:.3} – {:.3} MHz (factor {:.2})",
        lo / 1e6,
        hi / 1e6,
        hi / lo
    );

    // The explicit local frequency ω(t2) — the paper's Figure 7.
    println!("\n  t2 (µs)   ω(t2) (MHz)   control V(t2)");
    for k in 0..=20 {
        let t = 80e-6 * k as f64 / 20.0;
        println!(
            "  {:7.2}   {:11.4}   {:13.3}",
            t * 1e6,
            env.omega_at(t) / 1e6,
            cfg.control.eval(t)
        );
    }

    // Reconstruct the univariate capacitor voltage at a few points
    // (paper eq. (17): x(t) = x̂(φ(t), t)).
    let ts: Vec<f64> = (0..5).map(|k| k as f64 * 1e-6).collect();
    let vs = env.reconstruct(circuits::idx::V_TANK, &ts);
    println!("\n  reconstructed v(tank): {vs:.3?}");
}
