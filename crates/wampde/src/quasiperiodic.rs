//! Quasiperiodic (periodic-boundary) WaMPDE solver.
//!
//! With `b(t2)` periodic of period `T2`, seeking `x̂` `(1, T2)`-periodic
//! and `ω(t2)` `T2`-periodic turns eqs. (19)–(20) into a boundary-value
//! problem (paper §4.1): `N1` collocation slices along `t2`, each carrying
//! `n·N0` warped-axis samples plus its own local frequency and phase
//! condition, closed cyclically by the `t2` difference stencil. One global
//! Newton solve yields FM-quasiperiodic steady states directly; mode
//! locking (`ω0 = ω2`) and period multiplication (`ω0 = ω2/k`) emerge as
//! special cases of the converged `ω(t2)`.
//!
//! The Jacobian is block-cyclic banded (slice `m` couples to `m−1`, and
//! to `m−2` under BDF2) and is solved through the shared `linsolve`
//! layer. The system declares its slice structure, so the default
//! `Dense` backend factors it by block elimination (see
//! [`linsolve::FactorCache::set_cyclic_shape`]): a dense LU per slice
//! plus one of the wrap-around border, where one dense LU of the whole
//! system would cost O((N1·n·N0)³). An explicit `klu` passes through as
//! the reference.
//!
//! The trapezoidal stencil is rejected at an even `N1`: ω has no `t2`
//! derivative, and the averaging stencil cancels an ω pattern that
//! alternates from slice to slice, which leaves the Jacobian singular
//! or nearly so.

use crate::error::WampdeError;
use crate::options::{T2Integrator, WampdeOptions};
use crate::result::EnvelopeResult;
use crate::step::{block_update_norm, StepWork};
use circuitdae::Dae;
use hb::Colloc;
use newtonkit::{NewtonEngine, NewtonPolicy, NewtonSystem};
use numkit::DMat;
use sparsekit::Triplets;
use std::cell::RefCell;

/// Initial guess for the quasiperiodic solve: `N1` slices of stacked
/// samples plus per-slice frequencies.
#[derive(Debug, Clone)]
pub struct QpInit {
    /// Per-slice stacked collocation states (`n·N0` each).
    pub slices: Vec<Vec<f64>>,
    /// Per-slice local frequencies (Hz).
    pub omegas: Vec<f64>,
}

impl QpInit {
    /// Builds an initial guess by sampling a settled envelope run over its
    /// final `t2_period`: slice `m` is taken at
    /// `t_end − T2 + m·T2/N1` (linear interpolation between envelope
    /// points).
    ///
    /// # Panics
    ///
    /// Panics when the envelope is shorter than one period or has fewer
    /// than two points.
    pub fn from_envelope(env: &EnvelopeResult, t2_period: f64, n1: usize) -> Self {
        assert!(env.len() >= 2, "envelope too short");
        let t_end = *env.t2.last().expect("nonempty");
        assert!(
            t_end >= t2_period,
            "envelope must cover at least one t2 period"
        );
        let t_start = t_end - t2_period;
        let len = env.states[0].len();
        let mut slices = Vec::with_capacity(n1);
        let mut omegas = Vec::with_capacity(n1);
        for m in 0..n1 {
            let t = t_start + t2_period * m as f64 / n1 as f64;
            // Linear interpolation of the stacked state.
            let i = env
                .t2
                .partition_point(|&v| v <= t)
                .saturating_sub(1)
                .min(env.len() - 2);
            let w = ((t - env.t2[i]) / (env.t2[i + 1] - env.t2[i])).clamp(0.0, 1.0);
            let mut x = vec![0.0; len];
            for (k, xv) in x.iter_mut().enumerate() {
                *xv = env.states[i][k] * (1.0 - w) + env.states[i + 1][k] * w;
            }
            slices.push(x);
            omegas.push(env.omega_at(t));
        }
        QpInit { slices, omegas }
    }

    /// Replicates a single orbit (samples + frequency) across `n1` slices —
    /// the natural guess when the forcing modulation is weak.
    pub fn from_constant(stacked: Vec<f64>, freq_hz: f64, n1: usize) -> Self {
        QpInit {
            slices: vec![stacked; n1],
            omegas: vec![freq_hz; n1],
        }
    }
}

/// A converged quasiperiodic WaMPDE solution.
#[derive(Debug, Clone)]
pub struct QuasiPeriodicSolution {
    /// DAE dimension.
    pub n: usize,
    /// Warped-axis sample count.
    pub n0: usize,
    /// Slice count along `t2`.
    pub n1: usize,
    /// The slow period `T2`.
    pub t2_period: f64,
    /// Per-slice stacked samples.
    pub slices: Vec<Vec<f64>>,
    /// Per-slice local frequencies `ω(t2_m)` (Hz).
    pub omegas: Vec<f64>,
    /// Newton iterations used.
    pub iterations: usize,
}

impl QuasiPeriodicSolution {
    /// Mean local frequency `ω0` (the paper's eq. (21) decomposition
    /// `ω(t2) = ω0 + p'(t2)`).
    pub fn omega0(&self) -> f64 {
        self.omegas.iter().sum::<f64>() / self.omegas.len() as f64
    }

    /// Extremes of the periodic local frequency.
    pub fn frequency_range(&self) -> (f64, f64) {
        let lo = self.omegas.iter().fold(f64::INFINITY, |m, v| m.min(*v));
        let hi = self.omegas.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v));
        (lo, hi)
    }

    /// Samples of one variable at one slice.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range.
    pub fn var_samples(&self, slice: usize, var: usize) -> Vec<f64> {
        assert!(var < self.n);
        let x = &self.slices[slice];
        (0..self.n0).map(|s| x[s * self.n + var]).collect()
    }

    /// Local frequency at an arbitrary time (`ω` is `T2`-periodic;
    /// piecewise-linear through the slice values).
    pub fn omega_at(&self, t: f64) -> f64 {
        let h = self.t2_period / self.n1 as f64;
        let u = t.rem_euclid(self.t2_period) / h;
        let m = (u.floor() as usize).min(self.n1 - 1);
        let w = u - u.floor();
        let a = self.omegas[m];
        let b = self.omegas[(m + 1) % self.n1];
        a * (1.0 - w) + b * w
    }

    /// Warping function `φ(t) = ∫₀ᵗ ω` in cycles, using the paper's
    /// eq. (22) decomposition: a linear ramp `ω0·t` plus a `T2`-periodic
    /// part integrated piecewise (quadratic within slices).
    pub fn phi_at(&self, t: f64) -> f64 {
        let h = self.t2_period / self.n1 as f64;
        // Cumulative trapezoid over one period.
        let mut cum = Vec::with_capacity(self.n1 + 1);
        cum.push(0.0);
        for m in 0..self.n1 {
            let a = self.omegas[m];
            let b = self.omegas[(m + 1) % self.n1];
            cum.push(cum[m] + 0.5 * h * (a + b));
        }
        let full = cum[self.n1];
        let periods = (t / self.t2_period).floor();
        let tau = t - periods * self.t2_period;
        let u = tau / h;
        let m = (u.floor() as usize).min(self.n1 - 1);
        let frac = tau - m as f64 * h;
        let a = self.omegas[m];
        let b = self.omegas[(m + 1) % self.n1];
        let slope = (b - a) / h;
        periods * full + cum[m] + a * frac + 0.5 * slope * frac * frac
    }

    /// Reconstructs the univariate quasiperiodic solution
    /// `x(t) = x̂(φ(t), t)` of one variable at the given times (trig
    /// interpolation along the warped axis, linear along the periodic
    /// slow axis).
    ///
    /// # Panics
    ///
    /// Panics when `var >= n`.
    pub fn reconstruct(&self, var: usize, ts: &[f64]) -> Vec<f64> {
        assert!(var < self.n, "variable index out of range");
        let h = self.t2_period / self.n1 as f64;
        let mut samples = vec![0.0; self.n0];
        ts.iter()
            .map(|&t| {
                let u = t.rem_euclid(self.t2_period) / h;
                let m = (u.floor() as usize).min(self.n1 - 1);
                let w = u - u.floor();
                let xa = &self.slices[m];
                let xb = &self.slices[(m + 1) % self.n1];
                for (s, slot) in samples.iter_mut().enumerate() {
                    let k = s * self.n + var;
                    *slot = xa[k] * (1.0 - w) + xb[k] * w;
                }
                let phase = self.phi_at(t).rem_euclid(1.0);
                fourier::interp::trig_interp_barycentric(&samples, phase)
            })
            .collect()
    }
}

/// Solves the quasiperiodic WaMPDE with `n1` periodic slices over one
/// period `t2_period` of the forcing.
///
/// # Errors
///
/// See [`WampdeError`]. The initial guess must be near the quasiperiodic
/// attractor — in practice, hand over a settled envelope run via
/// [`QpInit::from_envelope`].
pub fn solve_quasiperiodic<D: Dae + ?Sized>(
    dae: &D,
    init: &QpInit,
    t2_period: f64,
    opts: &WampdeOptions,
) -> Result<QuasiPeriodicSolution, WampdeError> {
    let n = dae.dim();
    let phase = (opts.phase_var, opts.phase_harmonic);
    Colloc::check(n, opts.harmonics, Some(phase)).map_err(WampdeError::BadInput)?;
    let colloc = Colloc::new(n, opts.harmonics);
    let len = colloc.len();
    let n1 = init.slices.len();
    if n1 < 3 {
        return Err(WampdeError::BadInput("need at least 3 t2 slices".into()));
    }
    if init.omegas.len() != n1 {
        return Err(WampdeError::BadInput(
            "omegas/slices length mismatch".into(),
        ));
    }
    if init.slices.iter().any(|s| s.len() != len) {
        return Err(WampdeError::BadInput(format!(
            "each slice must have n·N0 = {len} entries"
        )));
    }
    if opts.integrator == T2Integrator::Trapezoidal && n1.is_multiple_of(2) {
        return Err(WampdeError::BadInput(format!(
            "the trapezoidal t2 stencil needs an odd slice count, got {n1}: \
             an even count leaves a slice-alternating ω pattern undetermined"
        )));
    }
    // `partial_cmp` keeps the NaN-rejecting behavior of `!(period > 0.0)`.
    if t2_period.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(WampdeError::BadInput("t2 period must be positive".into()));
    }

    // Cyclic difference stencil (uniform h): coefficients (c0, c1, c2)
    // of q_m, q_{m-1}, q_{m-2} and the instantaneous weight θ, from the
    // shared timekit scheme table.
    let (c0, c1, c2, theta) = opts.integrator.cyclic_stencil();
    let h = t2_period / n1 as f64;
    let bw = len + 1; // unknowns per slice: X_m then ω_m
    let dim = n1 * bw;

    let phase_row = colloc.phase_row(opts.phase_var, opts.phase_harmonic);

    // Pack initial z.
    let mut z = vec![0.0; dim];
    for m in 0..n1 {
        z[m * bw..m * bw + len].copy_from_slice(&init.slices[m]);
        z[m * bw + len] = init.omegas[m];
    }

    // Forcing per slice, the same at every sample.
    let mut b = vec![0.0; n];
    let b_slices: Vec<Vec<f64>> = (0..n1)
        .map(|m| {
            dae.eval_b(h * m as f64, &mut b);
            b.repeat(colloc.n0)
        })
        .collect();

    let sys = QpSystem {
        dae,
        colloc: &colloc,
        n1,
        h,
        c0,
        c1,
        c2,
        theta,
        b_slices: &b_slices,
        phase_row: &phase_row,
        work: RefCell::new((0..n1).map(|_| StepWork::new(&colloc)).collect()),
    };

    // One global solve: every iteration factors (reuse is an envelope
    // setting). `Dense` is the block elimination: this system declares
    // its `cyclic_shape`.
    let policy = NewtonPolicy {
        linear_solver: opts.linear_solver,
        reuse_jacobian: false,
        ..opts.newton
    };
    let stats = NewtonEngine::new()
        .solve(&sys, &mut z, &policy)
        .map_err(|e| WampdeError::from_newton(e, 0.0))?;
    let mut slices = Vec::with_capacity(n1);
    let mut omegas = Vec::with_capacity(n1);
    for m in 0..n1 {
        slices.push(z[m * bw..m * bw + len].to_vec());
        omegas.push(z[m * bw + len]);
    }
    Ok(QuasiPeriodicSolution {
        n,
        n0: colloc.n0,
        n1,
        t2_period,
        slices,
        omegas,
        iterations: stats.iterations,
    })
}

/// The global quasiperiodic boundary-value problem over
/// `z = [X_0, ω_0, X_1, ω_1, …]` (`len + 1` unknowns per slice, `n1`
/// slices closed cyclically by the `t2` stencil) as a shared-engine
/// [`NewtonSystem`] with the historical per-slice block-scaled update
/// norm.
struct QpSystem<'a, D: Dae + ?Sized> {
    dae: &'a D,
    colloc: &'a Colloc,
    n1: usize,
    h: f64,
    c0: f64,
    c1: f64,
    c2: f64,
    theta: f64,
    /// Each slice's forcing, sample-major (`n·N0`).
    b_slices: &'a [Vec<f64>],
    phase_row: &'a [f64],
    /// One step's scratch per slice: its `q`, `D·q` and `g` at the
    /// iterate, and its per-sample `∂q/∂x` and `∂f/∂x` blocks.
    work: RefCell<Vec<StepWork>>,
}

impl<D: Dae + ?Sized> QpSystem<'_, D> {
    fn bw(&self) -> usize {
        self.colloc.len() + 1
    }
}

impl<D: Dae + ?Sized> NewtonSystem for QpSystem<'_, D> {
    fn dim(&self) -> usize {
        self.n1 * self.bw()
    }

    fn cyclic_shape(&self) -> Option<linsolve::CyclicShape> {
        // n1 slices coupled cyclically by the t2 stencil, each carrying
        // its collocation unknowns plus the local frequency — the blocks
        // the dense backend eliminates slice by slice.
        Some(linsolve::CyclicShape {
            blocks: self.n1,
            block_dim: self.bw(),
        })
    }

    fn residual(&self, z: &[f64], out: &mut [f64]) {
        let (n1, bw, len) = (self.n1, self.bw(), self.colloc.len());
        let works = &mut *self.work.borrow_mut();
        for (m, work) in works.iter_mut().enumerate() {
            let x = &z[m * bw..m * bw + len];
            work.eval(self.dae, self.colloc, x, z[m * bw + len], &self.b_slices[m]);
        }
        for m in 0..n1 {
            let (cur, prev) = (&works[m], &works[(m + n1 - 1) % n1]);
            let prev2 = &works[(m + n1 - 2) % n1];
            for (k, r) in out[m * bw..m * bw + len].iter_mut().enumerate() {
                *r = (self.c0 * cur.q[k] + self.c1 * prev.q[k] + self.c2 * prev2.q[k]) / self.h
                    + self.theta * cur.g[k]
                    + (1.0 - self.theta) * prev.g[k];
            }
            let x = &z[m * bw..m * bw + len];
            out[m * bw + len] = self
                .phase_row
                .iter()
                .zip(x.iter())
                .map(|(a, b)| a * b)
                .sum();
        }
    }

    fn jacobian(&self, z: &[f64], out: &mut DMat) {
        // The engine assembles triplets whenever a system declares a
        // cyclic shape, so every backend takes `jacobian_triplets`; the
        // dense stamp exists for API completeness only.
        let mut trip = Triplets::new(self.dim(), self.dim());
        self.jacobian_triplets(z, &mut trip);
        out.fill_zero();
        for (r, c, v) in trip.iter() {
            out[(r, c)] += v;
        }
    }

    fn jacobian_triplets(&self, z: &[f64], trip: &mut Triplets) -> bool {
        let (colloc, n1, bw, len) = (self.colloc, self.n1, self.bw(), self.colloc.len());
        // Per-slice Jacobian blocks, and `D·q` at the iterate for the ω
        // columns (kept from its residual).
        let works = &mut *self.work.borrow_mut();
        for (m, work) in works.iter_mut().enumerate() {
            let x = &z[m * bw..m * bw + len];
            circuitdae::jac_blocks_into(self.dae, x, &mut work.cblocks, &mut work.gblocks);
            work.eval_at(self.dae, colloc, x, z[m * bw + len], &self.b_slices[m]);
        }
        // Slice `k`'s collocation block with `inv_h·C + θ(ω D⊗C + G)`.
        let block = |k: usize, inv_h: f64, theta: f64, omega: f64| {
            let work = &works[k];
            colloc.parts(&work.cblocks, &work.gblocks, inv_h, theta, omega, None)
        };

        for m in 0..n1 {
            let prev = (m + n1 - 1) % n1;
            let prev2 = (m + n1 - 2) % n1;
            let om = z[m * bw + len];
            let om_prev = z[prev * bw + len];
            let row0 = m * bw;
            // ∂/∂X_m: c0·C_m/h + θ(ω_m D⊗C_m + G_m).
            block(m, self.c0 / self.h, self.theta, om).push_triplets(trip, row0, m * bw);
            // ∂/∂X_prev: c1·C_prev/h + (1−θ)(ω_prev D⊗C_prev + G_prev).
            block(prev, self.c1 / self.h, 1.0 - self.theta, om_prev).push_triplets(
                trip,
                row0,
                prev * bw,
            );
            // ∂/∂X_prev2: c2·C_prev2/h (BDF2 only).
            if self.c2 != 0.0 {
                block(prev2, self.c2 / self.h, 0.0, 0.0).push_triplets(trip, row0, prev2 * bw);
            }
            // ω columns.
            for (k, (dm, dp)) in works[m].dq.iter().zip(&works[prev].dq).enumerate() {
                let v = self.theta * dm;
                if v != 0.0 {
                    trip.push(row0 + k, m * bw + len, v);
                }
                let vp = (1.0 - self.theta) * dp;
                if vp != 0.0 {
                    trip.push(row0 + k, prev * bw + len, vp);
                }
            }
            // Phase row.
            for (k, &c) in self.phase_row.iter().enumerate() {
                if c != 0.0 {
                    trip.push(row0 + len, m * bw + k, c);
                }
            }
        }
        true
    }

    /// Block-scaled update norm over every slice: samples weighted by the
    /// global sample magnitude, each ω by its own.
    fn update_norm(&self, dx_scaled: &[f64], z: &[f64], abstol: f64, reltol: f64) -> f64 {
        block_update_norm(dx_scaled, z, self.colloc.len(), true, abstol, reltol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::WampdeInit;
    use circuitdae::circuits::{self, MemsVcoConfig};
    use shooting::{oscillator_steady_state, ShootingOptions};

    #[test]
    fn unforced_vco_gives_flat_omega() {
        // With constant control the quasiperiodic solution at any T2 is the
        // steady orbit repeated on every slice, ω(t2) ≡ f0.
        let cfg = MemsVcoConfig::constant(1.5);
        let dae = circuits::mems_vco(cfg);
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let opts = crate::WampdeOptions {
            harmonics: 5,
            ..Default::default()
        };
        let winit = WampdeInit::from_orbit(&orbit, &opts);
        let init = QpInit::from_constant(winit.stacked(), winit.freq_hz, 8);
        let sol = solve_quasiperiodic(&dae, &init, 4.0e-5, &opts).unwrap();
        let f0 = orbit.frequency();
        for &w in &sol.omegas {
            assert!((w - f0).abs() / f0 < 1e-3, "omega {w} vs {f0}");
        }
        assert!((sol.omega0() - f0).abs() / f0 < 1e-3);
    }

    /// The MEMS VCO under constant control, its unforced orbit replicated
    /// over 6 slices at 4 harmonics, and the default options at that
    /// harmonic count.
    fn constant_mems() -> (circuitdae::CircuitDae, QpInit, crate::WampdeOptions) {
        let dae = circuits::mems_vco(MemsVcoConfig::constant(1.5));
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let base = crate::WampdeOptions {
            harmonics: 4,
            ..Default::default()
        };
        let winit = WampdeInit::from_orbit(&orbit, &base);
        let init = QpInit::from_constant(winit.stacked(), winit.freq_hz, 6);
        (dae, init, base)
    }

    /// KLU lands on the same answer as the default (the block
    /// elimination) — the default path exercises the full
    /// `QpSystem::cyclic_shape()` → `FactorCache` → block elimination
    /// wiring on a real cyclic Jacobian, and KLU is the sparse direct
    /// reference.
    #[test]
    fn klu_matches_the_default() {
        let (dae, init, base) = constant_mems();
        let default = solve_quasiperiodic(&dae, &init, 4.0e-5, &base).unwrap();
        let opts = crate::WampdeOptions {
            linear_solver: crate::LinearSolverKind::Klu,
            ..base
        };
        let got = solve_quasiperiodic(&dae, &init, 4.0e-5, &opts).unwrap();
        assert_eq!(got.iterations, default.iterations);
        for (a, b) in default.omegas.iter().zip(got.omegas.iter()) {
            assert!((a - b).abs() / a < 1e-6, "{a} vs {b}");
        }
    }

    /// The trapezoidal stencil is refused at an even slice count, with a
    /// message naming the parity, and solves at an odd one.
    #[test]
    fn trapezoidal_needs_an_odd_slice_count() {
        let (dae, six, base) = constant_mems();
        let opts = crate::WampdeOptions {
            integrator: T2Integrator::Trapezoidal,
            ..base
        };
        match solve_quasiperiodic(&dae, &six, 4.0e-5, &opts) {
            Err(WampdeError::BadInput(msg)) => assert!(msg.contains("odd slice count"), "{msg}"),
            other => panic!("6 trapezoidal slices: {other:?}"),
        }
        let seven = QpInit::from_constant(six.slices[0].clone(), six.omegas[0], 7);
        let sol = solve_quasiperiodic(&dae, &seven, 4.0e-5, &opts).unwrap();
        let f0 = six.omegas[0];
        assert!(
            (sol.omega0() - f0).abs() / f0 < 1e-3,
            "{} vs {f0}",
            sol.omega0()
        );
    }

    /// FNV-1a over a stream of 64-bit words.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &byte| {
                (h ^ byte as u64).wrapping_mul(0x100_0000_01b3)
            })
        })
    }

    /// Digest of the bits of every slice sample and every slice
    /// frequency of a solution, plus its Newton iteration count.
    fn digest(sol: &QuasiPeriodicSolution) -> u64 {
        let bits = sol.slices.iter().flatten().chain(&sol.omegas);
        fnv(bits.map(|v| v.to_bits()).chain([sol.iterations as u64]))
    }

    #[test]
    fn klu_and_default_outputs_are_pinned_bit_for_bit() {
        // A refactor of the cyclic system may not move a bit, on the
        // sparse (klu) solve or on the default block elimination. The klu
        // pin was re-recorded when shooting's flows moved onto the
        // transient's own kept-matrix Newton (the seed orbit moved within
        // the orbit Newton's tolerance); the default's was recorded when
        // the block elimination replaced circulant-preconditioned GMRES.
        // Both were re-recorded when every flow after the orbit Newton's
        // first was seeded along the flow before it: the seed orbit moved
        // by 3.2e-11 in its period, within the orbit Newton's tolerance.
        let (dae, init, base) = constant_mems();
        let mut got = Vec::new();
        for kind in [crate::LinearSolverKind::Klu, base.linear_solver] {
            let opts = crate::WampdeOptions {
                linear_solver: kind,
                ..base
            };
            got.push(digest(
                &solve_quasiperiodic(&dae, &init, 4.0e-5, &opts).unwrap(),
            ));
        }
        let pinned: [u64; 2] = [0xe8d0_c8ed_8afa_b9e1, 0x81d8_d160_eb6e_a948];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    /// `jacobian_triplets` and the dense `jacobian` agree with central
    /// differences of `residual` for every cyclic stencil, at slices and
    /// frequencies that differ from slice to slice under a forcing that
    /// does too.
    #[test]
    fn jacobian_matches_central_differences() {
        let (dae, init, base) = constant_mems();
        let colloc = Colloc::new(dae.dim(), base.harmonics);
        let (n, len, n1) = (colloc.n, colloc.len(), init.slices.len());
        let bw = len + 1;
        let dim = n1 * bw;
        let f0 = init.omegas[0];
        let mut z = vec![0.0; dim];
        for m in 0..n1 {
            let wobble = (2.0 * std::f64::consts::PI * m as f64 / n1 as f64).sin();
            for (slot, x) in z[m * bw..m * bw + len].iter_mut().zip(&init.slices[m]) {
                *slot = x * (1.0 + 0.1 * wobble);
            }
            z[m * bw + len] = f0 * (1.0 + 0.05 * wobble);
        }
        let b_slices: Vec<Vec<f64>> = (0..n1)
            .map(|m| {
                let b: Vec<f64> = (0..n)
                    .map(|i| 1e-3 * (0.7 * (m * n + i) as f64).sin())
                    .collect();
                b.repeat(colloc.n0)
            })
            .collect();
        let phase_row = colloc.phase_row(base.phase_var, base.phase_harmonic);
        // Perturbation scale of each unknown: its magnitude, floored at a
        // hundredth of its variable's amplitude over all slices.
        let var_max: Vec<f64> = (0..n)
            .map(|i| {
                (0..n1)
                    .flat_map(|m| colloc.extract_var(&z[m * bw..m * bw + len], i))
                    .fold(0.0_f64, |mx, v| mx.max(v.abs()))
            })
            .collect();
        let scale: Vec<f64> = (0..dim)
            .map(|j| match j % bw {
                k if k == len => f0,
                k => z[j].abs().max(0.01 * var_max[k % n]),
            })
            .collect();
        for integrator in [
            crate::T2Integrator::BackwardEuler,
            crate::T2Integrator::Trapezoidal,
            crate::T2Integrator::Bdf2,
        ] {
            let (c0, c1, c2, theta) = integrator.cyclic_stencil();
            let sys = QpSystem {
                dae: &dae,
                colloc: &colloc,
                n1,
                h: 4.0e-5 / n1 as f64,
                c0,
                c1,
                c2,
                theta,
                b_slices: &b_slices,
                phase_row: &phase_row,
                work: RefCell::new((0..n1).map(|_| StepWork::new(&colloc)).collect()),
            };
            let mut dense = DMat::zeros(dim, dim);
            sys.jacobian(&z, &mut dense);
            let mut trip = Triplets::new(dim, dim);
            assert!(sys.jacobian_triplets(&z, &mut trip));
            let sparse = trip.to_dense();
            // Row magnitude: the size of the terms the row sums.
            let row_mag: Vec<f64> = (0..dim)
                .map(|i| (0..dim).map(|j| (sparse[(i, j)] * scale[j]).abs()).sum())
                .collect();
            let (mut plus, mut minus) = (vec![0.0; dim], vec![0.0; dim]);
            for j in 0..dim {
                let h = 1e-6 * scale[j];
                let mut zp = z.clone();
                zp[j] += h;
                sys.residual(&zp, &mut plus);
                let mut zm = z.clone();
                zm[j] -= h;
                sys.residual(&zm, &mut minus);
                for i in 0..dim {
                    let fd = (plus[i] - minus[i]) / (zp[j] - zm[j]);
                    for (kind, jac) in [("dense", &dense), ("triplets", &sparse)] {
                        let err = (jac[(i, j)] - fd).abs() * scale[j];
                        assert!(
                            err <= 1e-8 * row_mag[i],
                            "{kind} {integrator:?} ({i},{j}): {} vs {fd}",
                            jac[(i, j)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        let cfg = MemsVcoConfig::constant(1.5);
        let dae = circuits::mems_vco(cfg);
        let opts = crate::WampdeOptions::default();
        let too_few = QpInit {
            slices: vec![vec![0.0; opts.n0() * 4]; 2],
            omegas: vec![1.0; 2],
        };
        assert!(solve_quasiperiodic(&dae, &too_few, 1.0, &opts).is_err());
        let mismatched = QpInit {
            slices: vec![vec![0.0; 5]; 4],
            omegas: vec![1.0; 4],
        };
        assert!(solve_quasiperiodic(&dae, &mismatched, 1.0, &opts).is_err());
        // Grid and phase-condition inputs that `Colloc` would panic on.
        let bad = [
            (0, opts.phase_var, opts.phase_harmonic),
            (opts.harmonics, dae.dim(), 1),
            (opts.harmonics, 0, 0),
            (opts.harmonics, 0, opts.harmonics + 1),
        ];
        for (harmonics, phase_var, phase_harmonic) in bad {
            let bad_opts = crate::WampdeOptions {
                harmonics,
                phase_var,
                phase_harmonic,
                ..opts
            };
            let init = QpInit {
                slices: vec![vec![0.0; dae.dim() * bad_opts.n0()]; 4],
                omegas: vec![1.0; 4],
            };
            assert!(matches!(
                solve_quasiperiodic(&dae, &init, 1.0, &bad_opts),
                Err(WampdeError::BadInput(_))
            ));
        }
    }

    /// Synthetic flat solution for exercising the post-processing without
    /// a solver run: one variable, cos(2πt1) on every slice, constant ω.
    fn synthetic_qp(n1: usize, omega: f64, t2: f64) -> QuasiPeriodicSolution {
        let n0 = 9;
        let slice: Vec<f64> = (0..n0)
            .map(|s| (2.0 * std::f64::consts::PI * s as f64 / n0 as f64).cos())
            .collect();
        QuasiPeriodicSolution {
            n: 1,
            n0,
            n1,
            t2_period: t2,
            slices: vec![slice; n1],
            omegas: vec![omega; n1],
            iterations: 1,
        }
    }

    #[test]
    fn phi_of_constant_omega_is_linear() {
        let qp = synthetic_qp(8, 5.0, 1.0);
        for &t in &[0.1, 0.37, 1.4, 2.9] {
            assert!((qp.phi_at(t) - 5.0 * t).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn reconstruct_constant_omega_is_pure_cosine() {
        let qp = synthetic_qp(8, 3.0, 1.0);
        let ts: Vec<f64> = (0..200).map(|k| k as f64 * 0.01).collect();
        let xs = qp.reconstruct(0, &ts);
        for (&t, &x) in ts.iter().zip(xs.iter()) {
            let want = (2.0 * std::f64::consts::PI * 3.0 * t).cos();
            assert!((x - want).abs() < 1e-8, "t={t}: {x} vs {want}");
        }
    }

    #[test]
    fn omega_at_interpolates_periodically() {
        let mut qp = synthetic_qp(4, 1.0, 2.0);
        qp.omegas = vec![1.0, 2.0, 3.0, 2.0];
        // Midpoint of the first slice interval.
        assert!((qp.omega_at(0.25) - 1.5).abs() < 1e-12);
        // Wraps: the last interval interpolates toward omegas[0].
        assert!((qp.omega_at(1.75) - 1.5).abs() < 1e-12);
        // Periodic extension.
        assert!((qp.omega_at(2.25) - qp.omega_at(0.25)).abs() < 1e-12);
    }
}
