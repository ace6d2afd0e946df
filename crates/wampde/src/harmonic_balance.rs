//! Harmonic balance: periodic steady state in the frequency domain.
//!
//! Harmonic balance (Nakhla & Vlach \[NV76\]; Kundert et al.) expands the
//! periodic solution in a truncated Fourier series and collocates the DAE
//! at `N0 = 2M+1` uniform samples of the normalised period. It is one of
//! the two classical steady-state baselines the paper discusses (the other
//! being shooting) — applicable to forced circuits and, with an explicit
//! frequency unknown plus a phase condition, to free-running oscillators;
//! but *not* to forced oscillators with FM-quasiperiodic response, which is
//! exactly the gap the WaMPDE fills.
//!
//! Harmonic balance is the envelope's collocation step ([`crate::step`])
//! without a history: `a0h = 0`, `θ = 1` and zero `qlin` and `g_prev`, so
//! its residual is `g = ω·D·q(X) + f(X) − b` itself. ω is held at the
//! forcing's fundamental ([`solve_forced`]) or is the last unknown, pinned
//! by the phase row ([`solve_autonomous`]).

use crate::error::{check_positive, WampdeError};
use crate::step::{steady, CollocStep, Omega, StepWork};
use circuitdae::Dae;
use fourier::FourierSeries;
use hb::Colloc;
use newtonkit::{NewtonEngine, NewtonPolicy};
use std::cell::RefCell;

/// Options for the harmonic-balance solvers.
#[derive(Debug, Clone, Copy)]
pub struct HbOptions {
    /// Number of harmonics `M` (collocation uses `2M+1` samples).
    pub harmonics: usize,
    /// Inner Newton options.
    pub newton: NewtonPolicy,
    /// Phase-condition variable `k` (autonomous only).
    pub phase_var: usize,
    /// Phase-condition harmonic `l ≥ 1` (autonomous only).
    pub phase_harmonic: usize,
}

impl Default for HbOptions {
    fn default() -> Self {
        HbOptions {
            harmonics: 8,
            newton: NewtonPolicy::default(),
            phase_var: 0,
            phase_harmonic: 1,
        }
    }
}

/// A periodic steady state from harmonic balance.
#[derive(Debug, Clone)]
pub struct HbSolution {
    /// Collocation core (grid size, differentiation matrix).
    pub colloc: Colloc,
    /// Stacked samples (`n·N0`, sample-major; see [`Colloc::idx`]).
    pub x: Vec<f64>,
    /// Fundamental frequency in hertz.
    pub freq_hz: f64,
    /// Newton iterations used.
    pub iterations: usize,
}

impl HbSolution {
    /// Waveform of variable `i` evaluated at real time `t` by band-limited
    /// interpolation.
    pub fn eval(&self, i: usize, t: f64) -> f64 {
        let samples = self.colloc.extract_var(&self.x, i);
        fourier::trig_interp(&samples, t * self.freq_hz)
    }

    /// Fourier series (over the normalised period) of variable `i`.
    pub fn series(&self, i: usize) -> FourierSeries {
        FourierSeries::from_samples(&self.colloc.extract_var(&self.x, i))
    }

    /// Peak-to-peak amplitude of variable `i` over the collocation grid.
    pub fn amplitude(&self, i: usize) -> f64 {
        let s = self.colloc.extract_var(&self.x, i);
        let max = s.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v));
        let min = s.iter().fold(f64::INFINITY, |m, v| m.min(*v));
        max - min
    }
}

/// The DC operating point of `dae` repeated at every sample of `colloc`:
/// the cold start of a forced steady state.
///
/// # Errors
///
/// [`WampdeError::BadInput`] when the DC solve fails.
pub(crate) fn dc_samples<D: Dae + ?Sized>(
    dae: &D,
    colloc: &Colloc,
    newton: &NewtonPolicy,
) -> Result<Vec<f64>, WampdeError> {
    let dc = transim::dc_operating_point(dae, newton)
        .map_err(|e| WampdeError::BadInput(format!("dc operating point failed: {e}")))?;
    Ok(dc.repeat(colloc.n0))
}

/// Solves the steady step under the forcing `b` (sample-major) in place
/// on `z` (the samples, then ω when it is free) and returns the Newton
/// iterations it took.
fn solve_steady<D: Dae + ?Sized>(
    dae: &D,
    colloc: &Colloc,
    b: &[f64],
    omega: Omega<'_>,
    z: &mut [f64],
    newton: &NewtonPolicy,
) -> Result<usize, WampdeError> {
    let zeros = vec![0.0; colloc.len()];
    let work = RefCell::new(StepWork::new(colloc));
    let sys = CollocStep {
        dae,
        colloc,
        step: steady(&zeros),
        b,
        g_prev: &zeros,
        omega,
        work: &work,
    };
    match NewtonEngine::new().solve(&sys, z, newton) {
        Ok(stats) => Ok(stats.iterations),
        Err(e) => Err(WampdeError::from_newton(e, 0.0)),
    }
}

/// Solves the periodic steady state of a *forced* circuit whose response
/// locks to the forcing fundamental `freq_hz`.
///
/// `init` optionally provides stacked starting samples (defaults to the
/// DC operating point replicated across the grid).
///
/// # Errors
///
/// [`WampdeError::BadInput`] for inconsistent sizes or a failed DC
/// operating point; [`WampdeError::NewtonFailed`] or
/// [`WampdeError::LinearSolve`] (at `t2 = 0`) when the collocated Newton
/// fails.
pub fn solve_forced<D: Dae + ?Sized>(
    dae: &D,
    freq_hz: f64,
    init: Option<&[f64]>,
    opts: &HbOptions,
) -> Result<HbSolution, WampdeError> {
    let _sp = obskit::span_with("hb", &[("mode", obskit::AttrValue::Str("forced"))]);
    check_positive(freq_hz, "forcing frequency")?;
    Colloc::check(dae.dim(), opts.harmonics, None).map_err(WampdeError::BadInput)?;
    let colloc = Colloc::new(dae.dim(), opts.harmonics);
    let len = colloc.len();

    // Forcing at collocation times t_s = s/(N0·f).
    let mut b = vec![0.0; len];
    for (s, row) in b.chunks_exact_mut(colloc.n).enumerate() {
        dae.eval_b(colloc.t1(s) / freq_hz, row);
    }

    let mut x = match init {
        Some(x0) if x0.len() != len => {
            return Err(WampdeError::BadInput(format!(
                "init has length {}, expected {len}",
                x0.len()
            )));
        }
        Some(x0) => x0.to_vec(),
        None => dc_samples(dae, &colloc, &opts.newton)?,
    };
    let iterations = solve_steady(
        dae,
        &colloc,
        &b,
        Omega::Fixed(freq_hz),
        &mut x,
        &opts.newton,
    )?;
    Ok(HbSolution {
        colloc,
        x,
        freq_hz,
        iterations,
    })
}

/// Solves the periodic steady state of a *free-running* oscillator: the
/// fundamental frequency is an unknown, pinned by the phase condition
/// `Im{X̂ᵏ_l} = 0` (paper eq. (20)).
///
/// The initial guess (stacked samples + frequency) must be roughly on the
/// limit cycle — use `shooting::oscillator_steady_state` +
/// `PeriodicOrbit::resample_uniform` to obtain one. (Like all oscillator
/// steady-state solvers, autonomous HB has the trivial equilibrium as a
/// spurious attractor of Newton when started from nothing.)
///
/// # Errors
///
/// As [`solve_forced`], but without a DC solve.
pub fn solve_autonomous<D: Dae + ?Sized>(
    dae: &D,
    init_samples: &[Vec<f64>],
    init_freq_hz: f64,
    opts: &HbOptions,
) -> Result<HbSolution, WampdeError> {
    let _sp = obskit::span_with("hb", &[("mode", obskit::AttrValue::Str("autonomous"))]);
    let phase = (opts.phase_var, opts.phase_harmonic);
    Colloc::check(dae.dim(), opts.harmonics, Some(phase)).map_err(WampdeError::BadInput)?;
    let colloc = Colloc::new(dae.dim(), opts.harmonics);
    if init_samples.len() != colloc.n0 {
        return Err(WampdeError::BadInput(format!(
            "need {} initial samples, got {}",
            colloc.n0,
            init_samples.len()
        )));
    }
    check_positive(init_freq_hz, "initial frequency")?;
    if init_samples.iter().any(|row| row.len() != colloc.n) {
        return Err(WampdeError::BadInput(
            "initial sample has wrong width".into(),
        ));
    }
    let mut z = init_samples.concat();
    z.push(init_freq_hz);

    let mut b0 = vec![0.0; colloc.n];
    dae.eval_b(0.0, &mut b0);
    let phase_row = colloc.phase_row(opts.phase_var, opts.phase_harmonic);
    let iterations = solve_steady(
        dae,
        &colloc,
        &b0.repeat(colloc.n0),
        Omega::Free(&phase_row),
        &mut z,
        &opts.newton,
    )?;
    let freq_hz = z.pop().expect("ω is the last unknown");
    Ok(HbSolution {
        colloc,
        x: z,
        freq_hz,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::{LinearOscillator, VanDerPol};
    use circuitdae::{circuits, Circuit, Device, Waveform};
    use shooting::{oscillator_steady_state, ShootingOptions};

    #[test]
    fn forced_rc_filter_matches_analytic() {
        // Sine current into parallel RC: |V| = I·R/\sqrt{1+(ωRC)²}.
        let (r, c, f, i0) = (1.0e3, 1.0e-6, 200.0, 1.0e-3);
        let mut ckt = Circuit::new();
        let n = ckt.node("out");
        ckt.add(Device::resistor(n, Circuit::GND, r));
        ckt.add(Device::capacitor(n, Circuit::GND, c));
        ckt.add(Device::current_source(
            Circuit::GND,
            n,
            Waveform::sine(0.0, i0, f),
        ));
        let dae = ckt.build().unwrap();
        let sol = solve_forced(&dae, f, None, &HbOptions::default()).unwrap();
        let w = 2.0 * std::f64::consts::PI * f;
        let want_amp = i0 * r / (1.0 + (w * r * c).powi(2)).sqrt();
        // True sinusoid amplitude from the fundamental coefficient (the
        // sample max under-reads a sine between grid points).
        let got_amp = 2.0 * sol.series(0).coeff(1).abs();
        assert!(
            (got_amp - want_amp).abs() / want_amp < 1e-6,
            "amp {got_amp} vs {want_amp}"
        );
    }

    #[test]
    fn forced_linear_oscillator_resonance_phase() {
        // Forced at resonance, displacement lags forcing by 90°: response
        // is ∝ −cos when forcing is sin.
        let osc = LinearOscillator {
            omega: 2.0 * std::f64::consts::PI,
            zeta: 0.1,
            amplitude: 1.0,
            freq_hz: 1.0,
        };
        let sol = solve_forced(&osc, 1.0, None, &HbOptions::default()).unwrap();
        let series = sol.series(0);
        let c1 = series.coeff(1);
        // x(t) = 2|c1| cos(2πt + arg c1); 90° lag from sin forcing means
        // arg ≈ π (−cos) for the displacement of a resonant 2nd-order system.
        let lag = c1.arg().abs();
        assert!(
            (lag - std::f64::consts::PI).abs() < 0.1,
            "phase {lag} (c1 = {c1})"
        );
    }

    #[test]
    fn autonomous_vdp_matches_shooting() {
        let vdp = VanDerPol::unforced(0.5);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let opts = HbOptions {
            harmonics: 10,
            ..Default::default()
        };
        let init = orbit.resample_uniform(2 * opts.harmonics + 1);
        let sol = solve_autonomous(&vdp, &init, orbit.frequency(), &opts).unwrap();
        let rel = (sol.freq_hz - orbit.frequency()).abs() / orbit.frequency();
        assert!(
            rel < 1e-4,
            "HB {} vs shooting {}",
            sol.freq_hz,
            orbit.frequency()
        );
        // Amplitude ≈ 2 (peak-to-peak 4).
        assert!((sol.amplitude(0) - 4.0).abs() < 0.1);
    }

    #[test]
    fn autonomous_lc_vco_frequency() {
        let dae = circuits::lc_vco();
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let opts = HbOptions {
            harmonics: 8,
            ..Default::default()
        };
        let init = orbit.resample_uniform(2 * opts.harmonics + 1);
        let sol = solve_autonomous(&dae, &init, orbit.frequency(), &opts).unwrap();
        assert!(
            (sol.freq_hz - 0.75e6).abs() / 0.75e6 < 0.02,
            "freq {}",
            sol.freq_hz
        );
        // Phase condition holds at the solution.
        let pv = sol.colloc.phase_value(&sol.x, 0, 1);
        assert!(pv.abs() < 1e-9, "phase residual {pv}");
    }

    #[test]
    fn forced_hb_sparse_backend_matches_dense() {
        let (r, c, f, i0) = (1.0e3, 1.0e-6, 200.0, 1.0e-3);
        let mut ckt = Circuit::new();
        let n = ckt.node("out");
        ckt.add(Device::resistor(n, Circuit::GND, r));
        ckt.add(Device::capacitor(n, Circuit::GND, c));
        ckt.add(Device::current_source(
            Circuit::GND,
            n,
            Waveform::sine(0.0, i0, f),
        ));
        let dae = ckt.build().unwrap();
        let dense = solve_forced(&dae, f, None, &HbOptions::default()).unwrap();
        let opts = HbOptions {
            newton: NewtonPolicy {
                linear_solver: circuitdae::LinearSolverKind::Klu,
                ..Default::default()
            },
            ..Default::default()
        };
        let sol = solve_forced(&dae, f, None, &opts).unwrap();
        for (a, b) in dense.x.iter().zip(sol.x.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn autonomous_hb_sparse_backend_matches_dense() {
        // The bordered autonomous system exercises the zero corner
        // diagonal through the sparse backend.
        let vdp = VanDerPol::unforced(0.5);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let base = HbOptions {
            harmonics: 6,
            ..Default::default()
        };
        let init = orbit.resample_uniform(2 * base.harmonics + 1);
        let dense = solve_autonomous(&vdp, &init, orbit.frequency(), &base).unwrap();
        let sparse_opts = HbOptions {
            newton: NewtonPolicy {
                linear_solver: circuitdae::LinearSolverKind::Klu,
                ..Default::default()
            },
            ..base
        };
        let sparse = solve_autonomous(&vdp, &init, orbit.frequency(), &sparse_opts).unwrap();
        let rel = (dense.freq_hz - sparse.freq_hz).abs() / dense.freq_hz;
        assert!(rel < 1e-9, "{} vs {}", dense.freq_hz, sparse.freq_hz);
    }

    #[test]
    fn bad_inputs_rejected() {
        let vdp = VanDerPol::unforced(0.5);
        assert!(solve_forced(&vdp, -1.0, None, &HbOptions::default()).is_err());
        assert!(solve_forced(&vdp, 1.0, Some(&[0.0; 3]), &HbOptions::default()).is_err());
        assert!(solve_autonomous(&vdp, &[], 1.0, &HbOptions::default()).is_err());
        let bad_freq = vec![vec![0.0; 2]; 17];
        assert!(solve_autonomous(&vdp, &bad_freq, -1.0, &HbOptions::default()).is_err());
        // Grid and phase-condition inputs that `Colloc` would panic on.
        let no_harmonics = HbOptions {
            harmonics: 0,
            ..Default::default()
        };
        let bad_input =
            |r: Result<HbSolution, WampdeError>| matches!(r, Err(WampdeError::BadInput(_)));
        assert!(bad_input(solve_forced(&vdp, 1.0, None, &no_harmonics)));
        let one = vec![vec![1.0, 0.0]; 1];
        assert!(bad_input(solve_autonomous(&vdp, &one, 1.0, &no_harmonics)));
        let init = vec![vec![1.0, 0.0]; 17];
        for (phase_var, phase_harmonic) in [(2, 1), (0, 0), (0, 9)] {
            let opts = HbOptions {
                phase_var,
                phase_harmonic,
                ..Default::default()
            };
            assert!(bad_input(solve_autonomous(&vdp, &init, 1.0, &opts)));
        }
    }

    /// FNV-1a over a stream of 64-bit words.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &byte| {
                (h ^ byte as u64).wrapping_mul(0x100_0000_01b3)
            })
        })
    }

    /// Digest of the bits of every sample and the frequency of an HB
    /// solution, plus its Newton iteration count.
    fn digest(sol: &HbSolution) -> u64 {
        let bits = sol.x.iter().chain([&sol.freq_hz]).map(|v| v.to_bits());
        fnv(bits.chain([sol.iterations as u64]))
    }

    #[test]
    fn forced_and_autonomous_outputs_are_pinned_bit_for_bit() {
        // Digests recorded before the collocation Jacobians came from
        // one builder: neither solver may move a bit, on the dense
        // Jacobian or on the triplets. The dense digests [0] and [2] were
        // re-recorded when the dense back substitution took descending
        // column order; the klu digests [1] and [3] kept their bits. The
        // autonomous digests [2] and [3] were re-recorded when the cold
        // start's loose warm-up began to end once the oscillation settled:
        // their seed orbit moved at the level of the orbit Newton's
        // tolerance. The forced digests [0] and [1] were re-recorded when
        // harmonic balance became the envelope's steady step: its
        // residual sums `(ω·D·q + f) − b` where the old one summed
        // `f + (ω·D·q − b)`, which moved samples by at most 5e-16
        // relative, at the same 6 iterations. The unforced autonomous
        // runs (b = 0) kept their bits. The autonomous digests [2] and
        // [3] were re-recorded when shooting's flows moved onto the
        // transient's own kept-matrix Newton: their seed orbit moved
        // within the orbit Newton's tolerance. They were re-recorded
        // again when every flow after the orbit Newton's first was seeded
        // along the flow before it, for the same reason, and once more
        // when the cold start's warm-up and settle steps moved onto a
        // kept matrix at 0.33 of their own error weights (the seed
        // orbit's period moved by 1.7e-13 relative).
        let with = |kind| HbOptions {
            harmonics: 5,
            newton: NewtonPolicy {
                linear_solver: kind,
                ..Default::default()
            },
            ..Default::default()
        };
        let kinds = [
            circuitdae::LinearSolverKind::Dense,
            circuitdae::LinearSolverKind::Klu,
        ];
        // A cubic-loaded RC low-pass under a sine current: nonlinear
        // enough that Newton takes several iterations from DC.
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add(Device::resistor(out, Circuit::GND, 1.0e3));
        ckt.add(Device::capacitor(out, Circuit::GND, 1.0e-9));
        ckt.add(Device::cubic_conductor(out, Circuit::GND, 0.0, 1.0e-3));
        ckt.add(Device::current_source(
            Circuit::GND,
            out,
            Waveform::sine(0.0, 2.0e-3, 1.0e5),
        ));
        let rc = ckt.build().unwrap();
        let vdp = VanDerPol::unforced(0.5);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let init = orbit.resample_uniform(11);
        let mut got = Vec::new();
        for kind in kinds {
            got.push(digest(
                &solve_forced(&rc, 1.0e5, None, &with(kind)).unwrap(),
            ));
        }
        for kind in kinds {
            let sol = solve_autonomous(&vdp, &init, orbit.frequency(), &with(kind)).unwrap();
            got.push(digest(&sol));
        }
        let pinned: [u64; 4] = [
            0x3a68_6652_06c3_6ca4,
            0x8489_0f9b_73fe_49da,
            0xb061_c7cc_cbe9_90ba,
            0x49de_60ee_14b7_00dc,
        ];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn eval_interpolates_periodically() {
        let vdp = VanDerPol::unforced(0.3);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let opts = HbOptions::default();
        let init = orbit.resample_uniform(2 * opts.harmonics + 1);
        let sol = solve_autonomous(&vdp, &init, orbit.frequency(), &opts).unwrap();
        let t_period = 1.0 / sol.freq_hz;
        let a = sol.eval(0, 0.3 * t_period);
        let b = sol.eval(0, 1.3 * t_period);
        assert!((a - b).abs() < 1e-9);
    }
}
