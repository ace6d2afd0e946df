//! Acceptance tests of the shared `timekit` time-integration layer:
//! adaptive and tight-fixed-step runs of `transim` and `wampde` must
//! agree on `ring_loaded_vco`, and every solver must reject a
//! zero/negative step with the *same* canonical diagnostic (the
//! controller is resolved in one place, so the old per-solver default
//! asymmetries — `span·1e-12` vs `span·1e-9` floors — are gone). The
//! WaMPDE and MPDE envelope outputs are pinned bit for bit.

use circuitdae::{circuits, Dae};
use shooting::{oscillator_steady_state, ShootingOptions};
use transim::{run_transient, Integrator, StepControl, TransientOptions};
use wampde::{solve_envelope, T2StepControl, WampdeInit, WampdeOptions};

/// The canonical `timekit` rejection text every solver must surface.
const FIXED_STEP_DIAGNOSTIC: &str = "fixed step must be positive";

/// One warped period of oscillating samples (so the wampde phase
/// condition is non-degenerate and the step policy is what gets judged).
fn oscillating_init(n0: usize) -> WampdeInit {
    let samples: Vec<Vec<f64>> = (0..n0)
        .map(|s| {
            let phase = 2.0 * std::f64::consts::PI * s as f64 / n0 as f64;
            vec![phase.cos(), 0.1 * phase.sin()]
        })
        .collect();
    WampdeInit::from_samples(samples, 0.75e6)
}

#[test]
fn all_solvers_reject_bad_fixed_steps_identically() {
    let dae = circuits::lc_vco();
    for bad in [0.0, -1.0e-9, f64::NAN] {
        // transim
        let opts = TransientOptions {
            step: StepControl::Fixed(bad),
            ..Default::default()
        };
        let err = run_transient(&dae, &[1.0, 0.0], 0.0, 1.0e-6, &opts).unwrap_err();
        assert!(
            err.to_string().contains(FIXED_STEP_DIAGNOSTIC),
            "transim({bad}): {err}"
        );

        // wampde
        let wopts = WampdeOptions {
            harmonics: 3,
            step: T2StepControl::Fixed(bad),
            ..Default::default()
        };
        let init = oscillating_init(wopts.n0());
        let err = solve_envelope(&dae, &init, 1.0e-6, &wopts).unwrap_err();
        assert!(
            err.to_string().contains(FIXED_STEP_DIAGNOSTIC),
            "wampde({bad}): {err}"
        );

        // mpde
        let forcing = mpde::AmForcing {
            node: 0,
            carrier_amplitude: 1.0e-3,
            mod_depth: 0.5,
            mod_freq_hz: 1.0e3,
        };
        let mopts = WampdeOptions {
            omega_mode: wampde::OmegaMode::Frozen(1.0e6),
            ..wopts
        };
        let err = wampde::solve_mpde(&dae, &forcing, 1.0e-3, &mopts, None).unwrap_err();
        assert!(
            err.to_string().contains(FIXED_STEP_DIAGNOSTIC),
            "mpde({bad}): {err}"
        );
    }
}

#[test]
fn adaptive_tolerance_validation_is_shared() {
    // A non-positive rtol is rejected with the same canonical text by
    // transim and wampde (resolved by the same timekit policy).
    let dae = circuits::lc_vco();
    let opts = TransientOptions {
        step: StepControl::adaptive(0.0, 1e-12),
        ..Default::default()
    };
    let terr = run_transient(&dae, &[1.0, 0.0], 0.0, 1.0e-6, &opts)
        .unwrap_err()
        .to_string();
    let wopts = WampdeOptions {
        harmonics: 3,
        step: T2StepControl::adaptive(0.0, 1e-9),
        ..Default::default()
    };
    let init = oscillating_init(wopts.n0());
    let werr = solve_envelope(&dae, &init, 1.0e-6, &wopts)
        .unwrap_err()
        .to_string();
    assert!(terr.contains("rtol must be positive"), "{terr}");
    assert!(werr.contains("rtol must be positive"), "{werr}");
}

#[test]
fn transim_adaptive_agrees_with_tight_fixed_on_ring_vco() {
    // Three carrier cycles of the ladder-loaded VCO: the LTE-adaptive
    // run must land on the tight fixed-step trajectory.
    let dae = circuits::ring_loaded_vco(4);
    let period = circuits::nominal_period();
    let t_end = 3.0 * period;
    // Kick the tank so the oscillation develops.
    let mut x0 = vec![0.0; dae.dim()];
    x0[0] = 1.0;
    let fixed = run_transient(
        &dae,
        &x0,
        0.0,
        t_end,
        &TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Fixed(period / 2000.0),
            ..Default::default()
        },
    )
    .unwrap();
    let adaptive = run_transient(
        &dae,
        &x0,
        0.0,
        t_end,
        &TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::adaptive(1e-7, 1e-12),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        adaptive.stats.steps < fixed.stats.steps,
        "adaptive {} vs fixed {}",
        adaptive.stats.steps,
        fixed.stats.steps
    );
    let amp = fixed.signal(0).iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for k in 0..200 {
        let t = k as f64 / 200.0 * t_end;
        let a = adaptive.sample(0, t);
        let b = fixed.sample(0, t);
        assert!(
            (a - b).abs() < 0.02 * amp,
            "t={t:.3e}: adaptive {a} vs fixed {b} (amp {amp})"
        );
    }
}

#[test]
fn wampde_adaptive_agrees_with_tight_fixed_on_ring_vco() {
    // The envelope run of the same circuit: adaptive slow-time stepping
    // must settle onto the same local frequency as a tight fixed step.
    let dae = circuits::ring_loaded_vco(4);
    let orbit = oscillator_steady_state(
        &dae,
        &ShootingOptions {
            steps_per_period: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let t2_end = 2.0e-6;
    let base = WampdeOptions {
        harmonics: 4,
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(&orbit, &base);
    let fixed_opts = WampdeOptions {
        step: T2StepControl::Fixed(t2_end / 100.0),
        ..base
    };
    let fixed = solve_envelope(&dae, &init, t2_end, &fixed_opts).unwrap();
    let adaptive = solve_envelope(&dae, &init, t2_end, &base).unwrap();
    let f_fixed = *fixed.omega_hz.last().unwrap();
    let f_adapt = *adaptive.omega_hz.last().unwrap();
    let rel = (f_adapt - f_fixed).abs() / f_fixed;
    assert!(
        rel < 5e-3,
        "settled omega: adaptive {f_adapt} vs fixed {f_fixed} (rel {rel:e})"
    );
    // Both sit near the shooting frequency.
    let f0 = orbit.frequency();
    assert!((f_adapt - f0).abs() / f0 < 0.05, "{f_adapt} vs {f0}");
    assert!(adaptive.stats.steps > 0 && fixed.stats.steps == 100);
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ byte as u64).wrapping_mul(0x100_0000_01b3)
        })
    })
}

fn counters(s: &obskit::RunStats) -> [u64; 4] {
    [s.steps, s.rejected, s.newton_iters, s.factorisations].map(|c| c as u64)
}

/// Digest of the bits of every `t2`, ω, φ and state of a WaMPDE envelope
/// plus its step and Newton counters.
fn envelope_digest(res: &wampde::EnvelopeResult) -> u64 {
    let bits = res
        .t2
        .iter()
        .chain(&res.omega_hz)
        .chain(&res.phi)
        .chain(res.states.iter().flatten())
        .map(|v| v.to_bits());
    fnv(bits.chain(counters(&res.stats)))
}

/// Digest of the bits of every `t2` and state of an MPDE envelope plus
/// its step and Newton counters.
fn mpde_digest(res: &wampde::EnvelopeResult) -> u64 {
    let bits = res
        .t2
        .iter()
        .chain(res.states.iter().flatten())
        .map(|v| v.to_bits());
    fnv(bits.chain(counters(&res.stats)))
}

#[test]
fn envelope_outputs_are_pinned_bit_for_bit() {
    // Digests recorded before the envelope step loops moved into the
    // shared `timekit` step loop: neither envelope may move a bit (free ω
    // adaptive and fixed, dense and klu, frozen ω; MPDE fixed and
    // adaptive, cold and warm). Digest [0], the adaptive free-ω run, was
    // re-recorded when adaptive WaMPDE steps took DASSL's Newton test in
    // the step's error weights; the fixed-step and MPDE digests kept
    // their bits. Digests [0]–[2] were re-recorded when the kept step
    // matrix took DASSL's rules (no cap on its uses, stale corrections
    // scaled by 2/(1 + a0h/a0h_kept)); the MPDE envelope runs full Newton
    // and kept its bits. The dense-LU digests [0], [2], [3] and [4] were
    // re-recorded when the dense back substitution took descending column
    // order; the klu run [1] kept its bits. Digest [5], the fixed-step
    // MPDE on klu, was added with its symbolic-reuse count to pin the
    // t2 = 0 steady solve to the run's own Newton engine; it kept its bits
    // when the cold seed's DC point moved onto the run's klu backend. The
    // adaptive digests [0] and [4] were re-recorded when adaptive envelope
    // steps weighed each sample's error by its variable's amplitude and
    // took Gustafsson's PI gains (and [0] the undamped corrector and
    // rtol 2e-4 of `WampdeOptions::default()`); the fixed-step digests
    // [1] and [2] kept their bits without the line search, which never
    // damped there. The WaMPDE digests [0]–[2] were re-recorded when the
    // cold start's loose warm-up began to end once the oscillation had
    // settled: their seed orbit, the unforced Van der Pol's, moved at the
    // level of the orbit Newton's tolerance. The MPDE digests [3]–[5]
    // start from no orbit and kept their bits. The WaMPDE digests [0]–[2]
    // were re-recorded again when shooting's flows moved onto the
    // transient's own kept-matrix Newton, and once more when every flow
    // after the orbit Newton's first was seeded along the flow before it
    // (the orbit's period moved by 4.6e-12 relative), for the same
    // reason.
    use wampde::{LinearSolverKind, OmegaMode, T2Integrator};
    let vdp = circuitdae::analytic::VanDerPol::forced(0.5, 0.1, 0.01);
    let orbit = oscillator_steady_state(
        &circuitdae::analytic::VanDerPol::unforced(0.5),
        &ShootingOptions::default(),
    )
    .unwrap();
    let base = WampdeOptions {
        harmonics: 6,
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(&orbit, &base);
    let trap_klu = WampdeOptions {
        integrator: T2Integrator::Trapezoidal,
        step: T2StepControl::Fixed(1.0),
        linear_solver: LinearSolverKind::Klu,
        ..base
    };
    let frozen = WampdeOptions {
        omega_mode: OmegaMode::Frozen(orbit.frequency()),
        step: T2StepControl::Fixed(0.5),
        ..base
    };
    let envelopes = [
        solve_envelope(&vdp, &init, 50.0, &base),
        solve_envelope(&vdp, &init, 40.0, &trap_klu),
        solve_envelope(&vdp, &init, 10.0, &frozen),
    ];

    // A cubic-loaded RC low-pass under an AM carrier: nonlinear enough
    // that every step takes several Newton iterations.
    let mut ckt = circuitdae::Circuit::new();
    let out = ckt.node("out");
    let gnd = circuitdae::Circuit::GND;
    ckt.add(circuitdae::Device::resistor(out, gnd, 1.0e3));
    ckt.add(circuitdae::Device::capacitor(out, gnd, 1.0e-9));
    ckt.add(circuitdae::Device::cubic_conductor(out, gnd, 0.0, 1.0e-3));
    let rc = ckt.build().unwrap();
    let forcing = mpde::AmForcing {
        node: 0,
        carrier_amplitude: 2.0e-3,
        mod_depth: 0.5,
        mod_freq_hz: 1.0e3,
    };
    let fixed = WampdeOptions {
        harmonics: 4,
        integrator: T2Integrator::Trapezoidal,
        step: T2StepControl::Fixed(2.5e-5),
        newton: newtonkit::NewtonPolicy::default(),
        omega_mode: OmegaMode::Frozen(1.0e6),
        ..base
    };
    let adaptive = WampdeOptions {
        integrator: T2Integrator::Bdf2,
        step: T2StepControl::adaptive(1e-4, 1e-9),
        ..fixed
    };
    let klu = WampdeOptions {
        linear_solver: LinearSolverKind::Klu,
        ..fixed
    };
    let cold = wampde::solve_mpde(&rc, &forcing, 1.0e-3, &fixed, None);
    let seed = cold.as_ref().unwrap().states[0].clone();
    let warm = wampde::solve_mpde(&rc, &forcing, 1.0e-3, &adaptive, Some(&seed));
    let sparse = wampde::solve_mpde(&rc, &forcing, 1.0e-3, &klu, None);

    let mut got: Vec<u64> = envelopes
        .iter()
        .map(|r| envelope_digest(r.as_ref().unwrap()))
        .collect();
    got.extend(
        [&cold, &warm, &sparse]
            .iter()
            .map(|r| mpde_digest(r.as_ref().unwrap())),
    );
    let pinned: [u64; 6] = [
        0xb7ed_a341_635a_036c,
        0xcc3b_0008_fdad_10cc,
        0x00a9_253e_4e49_5a7f,
        0x7d48_7f8a_77f9_435b,
        0x4278_23f7_38e6_e63a,
        0x4fe7_783e_11a7_7924,
    ];
    assert_eq!(got, pinned, "{got:#x?}");
    // The t2 = 0 steady solve shares the run's Newton engine, so klu's
    // symbolic analysis is paid once for the whole envelope.
    assert_eq!(sparse.unwrap().stats.symbolic_reuses, 123);
}
