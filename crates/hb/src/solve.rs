//! Forced and autonomous harmonic-balance solvers.

use crate::colloc::Colloc;
use crate::error::HbError;
use circuitdae::Dae;
use fourier::FourierSeries;
use linsolve::JacobianParts;
use numkit::DMat;
use sparsekit::Triplets;
use std::cell::RefCell;
use transim::{newton_solve, NewtonOptions, NonlinearSystem};

/// Options for the harmonic-balance solvers.
#[derive(Debug, Clone, Copy)]
pub struct HbOptions {
    /// Number of harmonics `M` (collocation uses `2M+1` samples).
    pub harmonics: usize,
    /// Inner Newton options.
    pub newton: NewtonOptions,
    /// Phase-condition variable `k` (autonomous only).
    pub phase_var: usize,
    /// Phase-condition harmonic `l ≥ 1` (autonomous only).
    pub phase_harmonic: usize,
}

impl Default for HbOptions {
    fn default() -> Self {
        HbOptions {
            harmonics: 8,
            newton: NewtonOptions::default(),
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

/// Scratch a system owns across its Newton solve: the residual's `q(X)`
/// and spectral derivative `D·q(X)`, and the Jacobian's per-sample
/// `∂q/∂x` and `∂f/∂x` blocks.
struct HbWork {
    q: Vec<f64>,
    dq: Vec<f64>,
    cblocks: Vec<DMat>,
    gblocks: Vec<DMat>,
}

impl HbWork {
    /// Scratch for the grid `colloc`.
    fn new(colloc: &Colloc) -> RefCell<Self> {
        let (n, len) = (colloc.n, colloc.len());
        let blocks = || (0..colloc.n0).map(|_| DMat::zeros(n, n)).collect();
        RefCell::new(HbWork {
            q: vec![0.0; len],
            dq: vec![0.0; len],
            cblocks: blocks(),
            gblocks: blocks(),
        })
    }

    /// Evaluates `q` at the samples `x`, then `D·q`.
    fn eval<D: Dae + ?Sized>(&mut self, dae: &D, colloc: &Colloc, x: &[f64]) {
        colloc.eval_q_all(dae, x, &mut self.q);
        colloc.apply_diff(&self.q, &mut self.dq);
    }
}

/// The fundamental of a harmonic-balance system.
enum Freq<'a> {
    /// Fixed at the forcing's (Hz).
    Fixed(f64),
    /// The last unknown, pinned by this phase row.
    Free(&'a [f64]),
}

/// Newton system of harmonic balance: unknowns are the samples, followed
/// by the frequency when it is free, whose row is then the phase
/// condition.
struct HbSystem<'a, D: Dae + ?Sized> {
    dae: &'a D,
    colloc: &'a Colloc,
    /// Forcing evaluated at the collocation times (sample-major).
    b: Vec<f64>,
    freq: Freq<'a>,
    work: RefCell<HbWork>,
}

impl<D: Dae + ?Sized> HbSystem<'_, D> {
    fn freq_of(&self, x: &[f64]) -> f64 {
        match self.freq {
            Freq::Fixed(f) => f,
            Freq::Free(_) => x[self.colloc.len()],
        }
    }

    /// Hands the collocation Jacobian at `x` to `use_parts`, bordered by
    /// the phase row and the `∂r/∂ω = D·q` column when the frequency is
    /// free (`∂phase/∂ω = 0`).
    fn with_parts(&self, x: &[f64], use_parts: impl FnOnce(JacobianParts<'_>)) {
        let len = self.colloc.len();
        let xs = &x[..len];
        let work = &mut *self.work.borrow_mut();
        circuitdae::jac_blocks_into(self.dae, xs, &mut work.cblocks, &mut work.gblocks);
        let border = match self.freq {
            Freq::Fixed(_) => None,
            Freq::Free(row) => {
                work.eval(self.dae, self.colloc, xs);
                Some((row, work.dq.as_slice()))
            }
        };
        let freq = self.freq_of(x);
        use_parts(
            self.colloc
                .parts(&work.cblocks, &work.gblocks, 0.0, 1.0, freq, border),
        );
    }
}

impl<D: Dae + ?Sized> NonlinearSystem for HbSystem<'_, D> {
    fn dim(&self) -> usize {
        self.colloc.len() + usize::from(matches!(self.freq, Freq::Free(_)))
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let len = self.colloc.len();
        let freq = self.freq_of(x);
        let xs = &x[..len];
        let work = &mut *self.work.borrow_mut();
        work.eval(self.dae, self.colloc, xs);
        self.colloc.eval_f_all(self.dae, xs, &mut out[..len]);
        for (k, r) in out[..len].iter_mut().enumerate() {
            *r += freq * work.dq[k] - self.b[k];
        }
        if let Freq::Free(row) = self.freq {
            out[len] = row.iter().zip(xs).map(|(a, b)| a * b).sum();
        }
    }

    fn jacobian(&self, x: &[f64], out: &mut DMat) {
        self.with_parts(x, |parts| parts.assemble_dense_into(out));
    }

    fn jacobian_triplets(&self, x: &[f64], out: &mut Triplets) -> bool {
        self.with_parts(x, |parts| parts.push_triplets(out, 0, 0));
        true
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
/// [`HbError::BadInput`] for inconsistent sizes; [`HbError::Newton`] when
/// the collocated Newton fails.
pub fn solve_forced<D: Dae + ?Sized>(
    dae: &D,
    freq_hz: f64,
    init: Option<&[f64]>,
    opts: &HbOptions,
) -> Result<HbSolution, HbError> {
    let _sp = obskit::span_with("hb", &[("mode", obskit::AttrValue::Str("forced"))]);
    // `partial_cmp` keeps the NaN-rejecting behavior of `!(f > 0.0)`.
    if freq_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(HbError::BadInput(
            "forcing frequency must be positive".into(),
        ));
    }
    Colloc::check(dae.dim(), opts.harmonics, None).map_err(HbError::BadInput)?;
    let colloc = Colloc::new(dae.dim(), opts.harmonics);
    let len = colloc.len();

    // Forcing at collocation times t_s = s/(N0·f).
    let mut b = vec![0.0; len];
    let mut bs = vec![0.0; colloc.n];
    for s in 0..colloc.n0 {
        let t = colloc.t1(s) / freq_hz;
        dae.eval_b(t, &mut bs);
        b[s * colloc.n..(s + 1) * colloc.n].copy_from_slice(&bs);
    }

    let mut x = match init {
        Some(x0) => {
            if x0.len() != len {
                return Err(HbError::BadInput(format!(
                    "init has length {}, expected {len}",
                    x0.len()
                )));
            }
            x0.to_vec()
        }
        None => {
            let dc = transim::dc_operating_point(dae, &opts.newton)?;
            let mut x = vec![0.0; len];
            for s in 0..colloc.n0 {
                x[s * colloc.n..(s + 1) * colloc.n].copy_from_slice(&dc);
            }
            x
        }
    };

    let sys = HbSystem {
        dae,
        colloc: &colloc,
        b,
        freq: Freq::Fixed(freq_hz),
        work: HbWork::new(&colloc),
    };
    let rep = newton_solve(&sys, &mut x, &opts.newton)?;
    Ok(HbSolution {
        colloc,
        x,
        freq_hz,
        iterations: rep.iterations,
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
/// See [`HbError`].
pub fn solve_autonomous<D: Dae + ?Sized>(
    dae: &D,
    init_samples: &[Vec<f64>],
    init_freq_hz: f64,
    opts: &HbOptions,
) -> Result<HbSolution, HbError> {
    let _sp = obskit::span_with("hb", &[("mode", obskit::AttrValue::Str("autonomous"))]);
    let phase = (opts.phase_var, opts.phase_harmonic);
    Colloc::check(dae.dim(), opts.harmonics, Some(phase)).map_err(HbError::BadInput)?;
    let colloc = Colloc::new(dae.dim(), opts.harmonics);
    if init_samples.len() != colloc.n0 {
        return Err(HbError::BadInput(format!(
            "need {} initial samples, got {}",
            colloc.n0,
            init_samples.len()
        )));
    }
    if init_freq_hz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(HbError::BadInput(
            "initial frequency must be positive".into(),
        ));
    }
    let len = colloc.len();
    let mut x = vec![0.0; len + 1];
    for (s, row) in init_samples.iter().enumerate() {
        if row.len() != colloc.n {
            return Err(HbError::BadInput("initial sample has wrong width".into()));
        }
        x[s * colloc.n..(s + 1) * colloc.n].copy_from_slice(row);
    }
    x[len] = init_freq_hz;

    let mut b0 = vec![0.0; colloc.n];
    dae.eval_b(0.0, &mut b0);
    let phase_row = colloc.phase_row(opts.phase_var, opts.phase_harmonic);
    let sys = HbSystem {
        dae,
        colloc: &colloc,
        b: b0.repeat(colloc.n0),
        freq: Freq::Free(&phase_row),
        work: HbWork::new(&colloc),
    };
    let rep = newton_solve(&sys, &mut x, &opts.newton)?;
    let freq_hz = x[len];
    x.truncate(len);
    Ok(HbSolution {
        colloc,
        x,
        freq_hz,
        iterations: rep.iterations,
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
        for kind in [
            circuitdae::LinearSolverKind::Klu,
            circuitdae::LinearSolverKind::gmres_default(),
        ] {
            let opts = HbOptions {
                newton: transim::NewtonOptions {
                    linear_solver: kind,
                    ..Default::default()
                },
                ..Default::default()
            };
            let sol = solve_forced(&dae, f, None, &opts).unwrap();
            for (a, b) in dense.x.iter().zip(sol.x.iter()) {
                assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", kind.label());
            }
        }
    }

    #[test]
    fn autonomous_hb_sparse_backend_matches_dense() {
        // The bordered autonomous system exercises the zero corner
        // diagonal through the sparse backends.
        let vdp = VanDerPol::unforced(0.5);
        let orbit = oscillator_steady_state(&vdp, &ShootingOptions::default()).unwrap();
        let base = HbOptions {
            harmonics: 6,
            ..Default::default()
        };
        let init = orbit.resample_uniform(2 * base.harmonics + 1);
        let dense = solve_autonomous(&vdp, &init, orbit.frequency(), &base).unwrap();
        let sparse_opts = HbOptions {
            newton: transim::NewtonOptions {
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
        let bad_input = |r: Result<HbSolution, HbError>| matches!(r, Err(HbError::BadInput(_)));
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
        // tolerance.
        let with = |kind| HbOptions {
            harmonics: 5,
            newton: transim::NewtonOptions {
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
            0xac67_084c_8f9d_4542,
            0xd944_e275_24eb_1c0a,
            0xe732_399c_9c3e_f13b,
            0x8cab_aef5_d7f6_1e4f,
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
