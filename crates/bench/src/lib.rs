//! Experiment drivers behind the `repro` binary, which regenerates every
//! figure and table of the paper.
//!
//! Each paper artifact maps to one driver here; `cargo run --release -p
//! wampde_bench --bin repro` writes the figure data as CSV into
//! `target/repro/`, the measured tables as `BENCH_*.json`, and prints the
//! headline numbers. The crate also holds the `wampde-cli` deck runner
//! and the `obs-check` trace validator.

use circuitdae::circuits::{self, MemsVcoConfig};
use circuitdae::{CircuitDae, Dae};
use obskit::RunStats;
use shooting::{oscillator_steady_state_with_stats, PeriodicOrbit, ShootingOptions};
use std::time::{Duration, Instant};
use transim::{
    run_fixed_per_cycle, run_transient, Integrator, StepControl, TransientOptions, TransientResult,
};
use wampde::{solve_envelope, EnvelopeResult, WampdeInit, WampdeOptions};

pub mod out;

/// Unforced steady state of the VCO (the common initial condition).
///
/// # Panics
///
/// Panics when shooting fails (it never does for the calibrated presets).
pub fn unforced_orbit() -> PeriodicOrbit {
    unforced_orbit_with_stats().0
}

/// [`unforced_orbit`] with the work its cold start did: the warm-up and
/// settle transients' steps and the orbit Newton's flows.
///
/// # Panics
///
/// Panics when shooting fails (it never does for the calibrated presets).
pub fn unforced_orbit_with_stats() -> (PeriodicOrbit, RunStats) {
    let dae = circuits::mems_vco(MemsVcoConfig::constant(1.5));
    oscillator_steady_state_with_stats(&dae, &ShootingOptions::default(), None)
        .expect("unforced VCO oscillates")
}

/// A WaMPDE envelope run of one of the paper's MEMS VCO experiments.
pub struct EnvelopeRun {
    /// The configured circuit.
    pub dae: CircuitDae,
    /// The result.
    pub env: EnvelopeResult,
    /// Wall-clock time of the envelope solve alone.
    pub wall: Duration,
    /// Options used.
    pub opts: WampdeOptions,
}

/// Runs the WaMPDE envelope for a MEMS VCO configuration.
///
/// # Panics
///
/// Panics when the solve fails (calibrated presets converge).
pub fn run_envelope(
    cfg: MemsVcoConfig,
    orbit: &PeriodicOrbit,
    t_end: f64,
    harmonics: usize,
) -> EnvelopeRun {
    let dae = circuits::mems_vco(cfg);
    let opts = WampdeOptions {
        harmonics,
        ..Default::default()
    };
    let init = WampdeInit::from_orbit(orbit, &opts);
    let t0 = Instant::now();
    let env = solve_envelope(&dae, &init, t_end, &opts).expect("envelope converges");
    EnvelopeRun {
        dae,
        env,
        wall: t0.elapsed(),
        opts,
    }
}

/// Adaptive-step transient reference for a MEMS VCO configuration,
/// started from the WaMPDE's own `t = 0` state.
///
/// # Panics
///
/// Panics when the transient fails.
pub fn run_transient_reference(
    cfg: MemsVcoConfig,
    x0: &[f64],
    t_end: f64,
    rtol: f64,
) -> (TransientResult, Duration) {
    let dae = circuits::mems_vco(cfg);
    let t0 = Instant::now();
    let res = run_transient(
        &dae,
        x0,
        0.0,
        t_end,
        &TransientOptions {
            integrator: Integrator::Trapezoidal,
            step: StepControl::Adaptive {
                rtol,
                atol: 1e-12,
                dt_init: 1e-9,
                dt_min: 0.0,
                dt_max: 5e-8,
            },
            ..Default::default()
        },
    )
    .expect("transient reference");
    (res, t0.elapsed())
}

/// Fixed points-per-cycle transient (the paper's Figure 12 baselines).
///
/// # Panics
///
/// Panics when the transient fails.
pub fn run_transient_fixed(
    cfg: MemsVcoConfig,
    x0: &[f64],
    t_end: f64,
    pts_per_cycle: usize,
) -> (TransientResult, Duration) {
    let dae = circuits::mems_vco(cfg);
    let nominal = circuits::nominal_period();
    let t0 = Instant::now();
    let res = run_fixed_per_cycle(
        &dae,
        x0,
        nominal,
        t_end / nominal,
        pts_per_cycle,
        Integrator::Trapezoidal,
    )
    .expect("fixed-step transient");
    (res, t0.elapsed())
}

/// First collocation sample of an envelope's initial slice — the
/// univariate state `x(0) = x̂(0, 0)` used to seed matching transients.
pub fn univariate_x0(run: &EnvelopeRun) -> Vec<f64> {
    run.env.states[0][0..run.dae.dim()].to_vec()
}

/// Parses `wampde-cli --solver`'s value; the error names every backend.
///
/// # Errors
///
/// A message listing the backend names when `value` is not one of them.
pub fn parse_solver_flag(value: &str) -> Result<circuitdae::LinearSolverKind, String> {
    circuitdae::LinearSolverKind::parse(value).ok_or_else(|| {
        format!(
            "--solver requires one of: {}",
            circuitdae::LinearSolverKind::NAMES.join(", ")
        )
    })
}

/// Applies `wampde-cli`-style overrides to a parsed deck.
///
/// Precedence, outermost first: CLI flags (these) beat every deck-level
/// choice — both the deck-wide `.options solver=` line and any
/// per-directive `solver=`/step keys, which the parser has already
/// resolved into the specs by the time this runs.
pub fn apply_deck_overrides(
    deck: &mut circuitdae::Deck,
    solver: Option<circuitdae::LinearSolverKind>,
    integrator: Option<circuitdae::Scheme>,
    rtol: Option<f64>,
) {
    for a in &mut deck.analyses {
        if let Some(kind) = solver {
            a.set_solver(kind);
        }
        if let Some(step) = a.step_mut() {
            if let Some(scheme) = integrator {
                step.integrator = scheme;
            }
            if let Some(r) = rtol {
                step.rtol = r;
            }
        }
    }
}

/// An owned bordered WaMPDE step Jacobian for `ring_loaded_vco(stages)`
/// at a smooth synthetic oscillation state — the shared workload of
/// `repro --table linsolve` and `repro --table newton`.
///
/// The state is analytic rather than a shooting solution so the workload
/// depends only on `(stages, harmonics)` and is cheap to rebuild at any
/// size; the Jacobian structure (block diagonal + `D⊗C` coupling + phase
/// border) is exactly the per-step envelope system.
pub struct StepJacobian {
    colloc: hb::Colloc,
    cblocks: Vec<numkit::DMat>,
    gblocks: Vec<numkit::DMat>,
    phase_row: Vec<f64>,
    omega_col: Vec<f64>,
    inv_h: f64,
    omega: f64,
}

impl StepJacobian {
    /// Builds the step Jacobian for the ladder-loaded VCO.
    pub fn build(stages: usize, harmonics: usize) -> Self {
        let dae = circuits::ring_loaded_vco(stages);
        let n = dae.dim();
        let colloc = hb::Colloc::new(n, harmonics);
        // Tank swings ±2 V; load nodes follow at decaying amplitude.
        let x: Vec<f64> = (0..colloc.len())
            .map(|k| {
                let (s, i) = (k / n, k % n);
                let phase = 2.0 * std::f64::consts::PI * s as f64 / colloc.n0 as f64;
                2.0 * (phase + 0.3 * i as f64).sin() / (1.0 + 0.2 * i as f64)
            })
            .collect();
        Self::at_state(&dae, colloc, &x, 1.0 / 2.0e-6, 0.75e6)
    }

    /// The air-damped MEMS VCO's step Jacobian at its unforced orbit —
    /// the iteration matrix of the paper's Figures 10–12 envelope
    /// (dimension 77 at 9 harmonics). The orbit is resampled and
    /// phase-aligned exactly as [`solve_envelope`] starts, and the BDF2
    /// coefficient `a0/h = 1.5/h` uses a typical accepted step of the
    /// 3 ms run, `h = 8 µs` (about 370 steps).
    ///
    /// # Panics
    ///
    /// Panics when shooting fails (it never does for the calibrated preset).
    pub fn mems_air(harmonics: usize) -> Self {
        let dae = circuits::mems_vco(MemsVcoConfig::paper_air());
        let opts = WampdeOptions {
            harmonics,
            ..Default::default()
        };
        let init = WampdeInit::from_orbit(&unforced_orbit(), &opts);
        let colloc = hb::Colloc::new(dae.dim(), harmonics);
        Self::at_state(&dae, colloc, &init.stacked(), 1.5 / 8e-6, init.freq_hz)
    }

    /// The backward-difference (`θ = 1`) step Jacobian of `dae` at the
    /// stacked collocation state `x`, bordered by the default phase
    /// condition (variable 0, harmonic 1).
    fn at_state(dae: &impl Dae, colloc: hb::Colloc, x: &[f64], inv_h: f64, omega: f64) -> Self {
        let len = colloc.len();
        let (cblocks, gblocks) = circuitdae::jac_blocks(dae, x);
        // ∂r/∂ω column = θ·(D·q): evaluate q and differentiate.
        let mut q = vec![0.0; len];
        colloc.eval_q_all(dae, x, &mut q);
        let mut omega_col = vec![0.0; len];
        colloc.apply_diff(&q, &mut omega_col);
        StepJacobian {
            phase_row: colloc.phase_row(0, 1),
            colloc,
            cblocks,
            gblocks,
            omega_col,
            inv_h,
            omega,
        }
    }

    /// System dimension including the border.
    pub fn dim(&self) -> usize {
        self.colloc.len() + 1
    }

    /// Borrows the assembly description for the shared solver layer.
    pub fn parts(&self) -> linsolve::JacobianParts<'_> {
        self.colloc.parts(
            &self.cblocks,
            &self.gblocks,
            self.inv_h,
            1.0,
            self.omega,
            Some((&self.phase_row, &self.omega_col)),
        )
    }

    /// A smooth right-hand side of matching dimension.
    pub fn rhs(&self) -> Vec<f64> {
        (0..self.dim()).map(|i| (0.13 * i as f64).sin()).collect()
    }

    /// Factors and solves once with `kind`, returning the solution.
    ///
    /// # Panics
    ///
    /// Panics when the backend fails (the workload is well-conditioned).
    pub fn factor_solve(&self, kind: wampde::LinearSolverKind) -> Vec<f64> {
        let mut lu = linsolve::FactorCache::new(kind);
        lu.factor(&linsolve::NewtonMatrix::Triplets(
            &self.parts().assemble_triplets(),
        ))
        .expect("step jacobian factors");
        let mut x = self.rhs();
        lu.solve_in_place(&mut x).expect("step jacobian solves");
        x
    }
}

/// An owned quasiperiodic *cyclic* Jacobian over `n1` slow-time slices —
/// the workload of the block-cyclic direct solve's `repro` rows.
///
/// Each slice carries one bordered collocation system (a small
/// [`StepJacobian`]) on the d=0 block diagonal, scaled by a smooth
/// envelope wobble so the blocks vary per slice exactly as the real
/// quasiperiodic system's do; the BDF2 cyclic stencil couples slice `m`
/// to slices `m−1` and `m−2` (mod `n1`) through the charge blocks: the
/// block-cyclic banded structure the dense backend eliminates under
/// [`CyclicJacobian::shape`].
pub struct CyclicJacobian {
    trip: sparsekit::Triplets,
    n1: usize,
    bw: usize,
}

impl CyclicJacobian {
    /// Builds the cyclic system with `n1` slices of the
    /// `ring_loaded_vco(4)` collocation block (harmonics = 2).
    pub fn build(n1: usize) -> Self {
        let base = StepJacobian::build(4, 2);
        let bw = base.dim();
        let dim = n1 * bw;
        // BDF2 cyclic stencil over the slice spacing h.
        let h = 2.0e-6 / n1 as f64;
        let (c0, c1, c2) = (1.5 / h, -2.0 / h, 0.5 / h);

        let mut trip = sparsekit::Triplets::with_capacity(dim, dim, n1 * bw * bw / 4);
        // d = 0 diagonal blocks: the bordered collocation system with
        // inv_h = c0/h, wobbled per slice.
        let mut local = sparsekit::Triplets::new(bw, bw);
        let mut parts = base.parts();
        parts.inv_h = c0;
        parts.push_triplets(&mut local, 0, 0);
        for m in 0..n1 {
            let wob = 1.0 + 0.05 * (2.0 * std::f64::consts::PI * m as f64 / n1 as f64).sin();
            let off = m * bw;
            for (r, c, v) in local.iter() {
                trip.push(off + r, off + c, v * wob);
            }
        }
        // d = 1, 2 stencil couplings: c_d·C_s blocks, sample-diagonal
        // (the collocation block with inv_h = c_d and θ = 0).
        for (d, cd) in [(1usize, c1), (2usize, c2)] {
            let coupling = base
                .colloc
                .parts(&base.cblocks, &base.gblocks, cd, 0.0, 0.0, None);
            for m in 0..n1 {
                let src = (m + n1 - d) % n1;
                coupling.push_triplets(&mut trip, m * bw, src * bw);
            }
        }
        CyclicJacobian { trip, n1, bw }
    }

    /// Total system dimension `n1·bw`.
    pub fn dim(&self) -> usize {
        self.n1 * self.bw
    }

    /// The block-cyclic structure hint for the dense backend.
    pub fn shape(&self) -> linsolve::CyclicShape {
        linsolve::CyclicShape {
            blocks: self.n1,
            block_dim: self.bw,
        }
    }

    /// The assembled triplets.
    pub fn triplets(&self) -> &sparsekit::Triplets {
        &self.trip
    }

    /// A smooth right-hand side of matching dimension.
    pub fn rhs(&self) -> Vec<f64> {
        (0..self.dim()).map(|i| (0.17 * i as f64).sin()).collect()
    }

    /// Factors and solves the system by block elimination (the dense
    /// backend under [`CyclicJacobian::shape`]); returns the solution.
    ///
    /// # Panics
    ///
    /// Panics when the matrix does not factor.
    pub fn solve_direct(&self) -> Vec<f64> {
        let mut lu = linsolve::FactorCache::new(linsolve::LinearSolverKind::Dense);
        lu.set_cyclic_shape(Some(self.shape()));
        lu.factor(&linsolve::NewtonMatrix::Triplets(&self.trip))
            .expect("cyclic jacobian factors");
        let mut x = self.rhs();
        lu.solve_in_place(&mut x).expect("cyclic jacobian solves");
        x
    }

    /// Relative residual `max_i |b − A·x|_i / (|A|·|x| + |b|)_i` of `x`
    /// against [`Self::rhs`]: the componentwise backward error, which
    /// neither grows with the matrix's wide row scaling (as
    /// `‖b − A·x‖ / ‖b‖` does) nor hides in it (as a normwise error does).
    pub fn relative_residual(&self, x: &[f64]) -> f64 {
        let a = self.trip.to_csr();
        let b = self.rhs();
        (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                let (ax, mag) = cols
                    .iter()
                    .zip(vals)
                    .fold((0.0, b[i].abs()), |(s, m), (&j, &v)| {
                        (s + v * x[j], m + (v * x[j]).abs())
                    });
                (b[i] - ax).abs() / mag
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_jacobian_backends_agree() {
        let j = StepJacobian::build(8, 4);
        assert_eq!(j.dim(), 10 * 9 + 1);
        let dense = j.factor_solve(wampde::LinearSolverKind::Dense);
        let sparse = j.factor_solve(wampde::LinearSolverKind::Klu);
        let scale = dense.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for i in 0..dense.len() {
            assert!((dense[i] - sparse[i]).abs() < 1e-9 * scale, "sparse at {i}");
        }
    }

    #[test]
    fn cli_solver_override_beats_per_directive_and_options_keys() {
        // The deck pins two layers: a per-directive `solver=dense` and a
        // deck-wide `.options solver=klu` that the directive with no key
        // takes. The CLI override (outermost layer) must win everywhere;
        // without it, the parser's per-directive > .options precedence
        // must hold.
        const CARDS: &str = "C1 tank 0 4.503n\n\
                             L1 tank 0 10u\n\
                             GN1 tank 0 5m 1.667m\n";
        let text = format!(
            "{CARDS}.wampde 6u harmonics=5 solver=dense\n\
             .shooting steps=128\n\
             .options solver=klu\n"
        );
        let mut deck = circuitdae::parse_deck(&text).unwrap();
        assert_eq!(
            deck.analyses[0].solver(),
            circuitdae::LinearSolverKind::Dense
        );
        assert_eq!(deck.analyses[1].solver(), circuitdae::LinearSolverKind::Klu);
        apply_deck_overrides(
            &mut deck,
            Some(parse_solver_flag("dense").unwrap()),
            None,
            None,
        );
        for a in &deck.analyses {
            assert_eq!(a.solver(), circuitdae::LinearSolverKind::Dense);
        }
        // Integrator/rtol overrides ride the same helper.
        apply_deck_overrides(
            &mut deck,
            None,
            Some(circuitdae::Scheme::BackwardEuler),
            Some(3e-5),
        );
        let step = deck.analyses[0].step().unwrap();
        assert_eq!(step.integrator, circuitdae::Scheme::BackwardEuler);
        assert_eq!(step.rtol, 3e-5);
        // The retired `gmres` backend fails loudly at both layers, and
        // both errors name the backends there are.
        let err = parse_solver_flag("gmres").unwrap_err();
        assert_eq!(err, "--solver requires one of: dense, klu");
        let err = circuitdae::parse_deck(&format!("{CARDS}.options solver=gmres\n")).unwrap_err();
        assert!(
            matches!(&err, circuitdae::NetlistError::Parse { line: 4, message }
                if message.contains("unknown solver 'gmres' (dense, klu)")),
            "{err}"
        );
    }

    #[test]
    fn drivers_run_a_short_experiment() {
        let orbit = unforced_orbit();
        let run = run_envelope(MemsVcoConfig::paper_vacuum(), &orbit, 4e-6, 5);
        assert!(run.env.stats.steps > 0);
        let x0 = univariate_x0(&run);
        assert_eq!(x0.len(), 4);
        let (tr, _) = run_transient_fixed(MemsVcoConfig::paper_vacuum(), &x0, 2e-6, 30);
        assert!(tr.stats.steps > 40); // 1.5 cycles x 30 pts
    }
}
