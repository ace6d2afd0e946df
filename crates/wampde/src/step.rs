//! One implicit collocation step along `t2`, shared by the WaMPDE and
//! MPDE envelopes, harmonic balance and the quasiperiodic slices.
//!
//! Over the stacked samples `X` (plus ω when it is free) the step solves
//!
//! ```text
//! r = a0h·q(X) + qlin + θ·g(X, ω) + (1−θ)·g_prev = 0,   g = ω·D·q(X) + f(X) − b,
//! ```
//!
//! with `b` the forcing at the step's end, sample-major. The WaMPDE
//! leaves ω free, pinned by the phase row (paper eq. (20)); fixing ω at
//! the carrier `f1` ([`crate::OmegaMode::Frozen`]) gives the MPDE step.
//! With `a0h = 0`, `θ = 1` and no history (`steady`) it is harmonic
//! balance ([`crate::harmonic_balance`]). `StepWork::eval` is the one
//! place `g` is computed: the quasiperiodic system keeps one `StepWork`
//! per slice and adds only its cyclic stencil.

use circuitdae::Dae;
use hb::Colloc;
use linsolve::JacobianParts;
use newtonkit::{NewtonEngine, NewtonError, NewtonPolicy, NewtonSystem};
use numkit::DMat;
use std::cell::RefCell;
use timekit::{Step, StepCoeffs};

/// How a step treats the local frequency.
#[derive(Debug, Clone, Copy)]
pub enum Omega<'a> {
    /// ω is the last unknown, pinned by this phase-condition row.
    Free(&'a [f64]),
    /// ω is held at this value (Hz).
    Fixed(f64),
}

/// Scratch reused by every step of a run: residual buffers and the
/// Jacobian's per-sample blocks.
///
/// The residual buffers remember the point `(X, ω)` they were evaluated
/// at, so that an accept hook, or the bordered Jacobian, at the iterate
/// the newest residual saw reuses its `q`, `D·q` and `g` instead of
/// evaluating them again (see [`accepted_g`]).
pub struct StepWork {
    pub(crate) q: Vec<f64>,
    pub(crate) dq: Vec<f64>,
    f: Vec<f64>,
    pub(crate) g: Vec<f64>,
    /// The `X` the buffers hold `q`, `D·q` and `g` at…
    at_x: Vec<f64>,
    /// …and its ω, or `None` when they hold no point.
    at_omega: Option<f64>,
    pub(crate) cblocks: Vec<DMat>,
    pub(crate) gblocks: Vec<DMat>,
    /// The bordered Jacobian's `∂r/∂ω = θ·D·q` column.
    omega_col: Vec<f64>,
}

impl StepWork {
    /// Scratch sized for the grid `colloc`.
    pub fn new(colloc: &Colloc) -> Self {
        let (n, len) = (colloc.n, colloc.len());
        let blocks = || (0..colloc.n0).map(|_| DMat::zeros(n, n)).collect();
        StepWork {
            q: vec![0.0; len],
            dq: vec![0.0; len],
            f: vec![0.0; len],
            g: vec![0.0; len],
            at_x: Vec::with_capacity(len),
            at_omega: None,
            cblocks: blocks(),
            gblocks: blocks(),
            omega_col: vec![0.0; len],
        }
    }

    /// Forgets the point the buffers hold. A caller that refills the
    /// forcing `b` calls this: the `g` held was evaluated under the old
    /// one.
    pub fn drop_point(&mut self) {
        self.at_omega = None;
    }

    /// Evaluates `q`, `D·q`, `f` and `g = ω·D·q + f − b` at `(x, ω)` and
    /// remembers the point.
    pub(crate) fn eval<D: Dae + ?Sized>(
        &mut self,
        dae: &D,
        colloc: &Colloc,
        x: &[f64],
        omega: f64,
        b: &[f64],
    ) {
        colloc.eval_q_all(dae, x, &mut self.q);
        colloc.apply_diff(&self.q, &mut self.dq);
        colloc.eval_f_all(dae, x, &mut self.f);
        for (k, slot) in self.g.iter_mut().enumerate() {
            *slot = omega * self.dq[k] + self.f[k] - b[k];
        }
        self.at_x.clear();
        self.at_x.extend_from_slice(x);
        self.at_omega = Some(omega);
    }

    /// Whether the buffers hold `(x, ω)`, bit for bit.
    fn holds(&self, x: &[f64], omega: f64) -> bool {
        self.at_omega
            .is_some_and(|w| w.to_bits() == omega.to_bits())
            && self.at_x.len() == x.len()
            && self
                .at_x
                .iter()
                .zip(x)
                .all(|(a, v)| a.to_bits() == v.to_bits())
    }

    /// [`StepWork::eval`] unless the buffers already hold `(x, ω)`.
    pub(crate) fn eval_at<D: Dae + ?Sized>(
        &mut self,
        dae: &D,
        colloc: &Colloc,
        x: &[f64],
        omega: f64,
        b: &[f64],
    ) {
        if !self.holds(x, omega) {
            self.eval(dae, colloc, x, omega, b);
        }
    }
}

/// The steady-state attempt: `a0h = 0`, `θ = 1` and the zero history
/// `zeros`. With a zero `g_prev` too, its residual is `g` itself: the
/// harmonic-balance system, and the MPDE's first point.
pub(crate) fn steady(zeros: &[f64]) -> Step<'_> {
    Step {
        t_new: 0.0,
        h: 0.0,
        coeffs: StepCoeffs {
            a0h: 0.0,
            theta: 1.0,
        },
        qlin: zeros,
        tol: None,
    }
}

/// Evaluates `g = ω·D·q(X) + f(X) − b` into `out` (all `n·N0`,
/// sample-major).
pub fn eval_g<D: Dae + ?Sized>(
    dae: &D,
    colloc: &Colloc,
    x: &[f64],
    omega: f64,
    b: &[f64],
    work: &mut StepWork,
    out: &mut [f64],
) {
    work.eval(dae, colloc, x, omega, b);
    out.copy_from_slice(&work.g);
}

/// Writes `g(X, ω)` and `q(X)` of an accepted point into `g` and `q`.
///
/// They are copied from `work` when its newest residual was evaluated at
/// `(X, ω)` bit for bit, as the last residual of a converged
/// [`CollocStep::solve`] is at the iterate it returns; otherwise they are
/// evaluated under the forcing `b`. The copy is only sound while `b` is
/// the forcing that residual saw: a caller that refills `b` calls
/// [`StepWork::drop_point`].
#[allow(clippy::too_many_arguments)]
pub fn accepted_g<D: Dae + ?Sized>(
    dae: &D,
    colloc: &Colloc,
    x: &[f64],
    omega: f64,
    b: &[f64],
    work: &mut StepWork,
    g: &mut [f64],
    q: &mut [f64],
) {
    work.eval_at(dae, colloc, x, omega, b);
    g.copy_from_slice(&work.g);
    q.copy_from_slice(&work.q);
}

/// Weighted update norm with *block* scaling over `z`, a run of blocks
/// of `len` collocation samples each followed by its ω when `omega` is
/// set: every sample is weighted by the largest sample magnitude of any
/// block (a per-entry weight would demand machine-exact solves at zero
/// crossings), each ω by its own magnitude.
pub(crate) fn block_update_norm(
    dz: &[f64],
    z: &[f64],
    len: usize,
    omega: bool,
    abstol: f64,
    reltol: f64,
) -> f64 {
    let bw = len + usize::from(omega);
    debug_assert_eq!(z.len() % bw, 0, "block_update_norm: ragged blocks");
    let x_scale = z
        .chunks(bw)
        .flat_map(|blk| &blk[..len])
        .fold(0.0_f64, |m, v| m.max(v.abs()))
        .max(1e-300);
    let wx = abstol + reltol * x_scale;
    let mut acc = 0.0;
    for (dblk, blk) in dz.chunks(bw).zip(z.chunks(bw)) {
        for &d in &dblk[..len] {
            let e = d / wx;
            acc += e * e;
        }
        if omega {
            let womega = abstol + reltol * blk[len].abs().max(1e-300);
            let e = dblk[len] / womega;
            acc += e * e;
        }
    }
    (acc / z.len() as f64).sqrt()
}

/// One step as a shared-engine [`NewtonSystem`] over `z = [X (, ω)]`.
/// Under adaptive `t2` control (`step.tol` set) its update norm is
/// DASSL's, in the step's own error weights; otherwise it is the
/// block-scaled norm with the Newton policy's `abstol`/`reltol`.
pub struct CollocStep<'a, D: Dae + ?Sized> {
    /// The circuit.
    pub dae: &'a D,
    /// The collocation grid along `t1`.
    pub colloc: &'a Colloc,
    /// The attempt: scheme coefficients, charge history and tolerance.
    pub step: Step<'a>,
    /// Forcing at `step.t_new`, sample-major (`n·N0`).
    pub b: &'a [f64],
    /// `g` at the newest accepted point (the `(1−θ)` term).
    pub g_prev: &'a [f64],
    /// Free or fixed local frequency.
    pub omega: Omega<'a>,
    /// Scratch (see [`StepWork::new`]).
    pub work: &'a RefCell<StepWork>,
}

impl<D: Dae + ?Sized> CollocStep<'_, D> {
    /// Solves the step in place on `z` and adds the engine's iterations,
    /// factorisations and symbolic reuses to `stats` (a failed solve's
    /// too: its step is retried).
    ///
    /// # Errors
    ///
    /// The engine's [`NewtonError`].
    pub fn solve(
        &self,
        engine: &mut NewtonEngine,
        z: &mut [f64],
        policy: &NewtonPolicy,
        stats: &mut obskit::RunStats,
    ) -> Result<(), NewtonError> {
        let result = engine.solve(self, z, policy);
        let nstats = engine.stats();
        stats.newton_iters += nstats.iterations;
        stats.factorisations += nstats.factorisations;
        stats.symbolic_reuses += nstats.symbolic_reuses;
        result.map(drop)
    }

    fn omega_of(&self, z: &[f64]) -> f64 {
        match self.omega {
            Omega::Free(_) => z[self.colloc.len()],
            Omega::Fixed(w) => w,
        }
    }

    /// Fills the Jacobian blocks (and, with ω free, its column) at the
    /// iterate and hands their assembly description to `use_parts`.
    fn with_parts(&self, z: &[f64], use_parts: impl FnOnce(JacobianParts<'_>)) {
        let len = self.colloc.len();
        let work = &mut *self.work.borrow_mut();
        circuitdae::jac_blocks_into(self.dae, &z[..len], &mut work.cblocks, &mut work.gblocks);
        let theta = self.step.coeffs.theta;
        let border = match self.omega {
            Omega::Free(row) => {
                // `D·q` at the iterate, kept from its residual.
                work.eval_at(self.dae, self.colloc, &z[..len], z[len], self.b);
                for (slot, v) in work.omega_col.iter_mut().zip(&work.dq) {
                    *slot = theta * v;
                }
                Some((row, work.omega_col.as_slice()))
            }
            Omega::Fixed(_) => None,
        };
        use_parts(self.colloc.parts(
            &work.cblocks,
            &work.gblocks,
            self.step.coeffs.a0h,
            theta,
            self.omega_of(z),
            border,
        ));
    }
}

impl<D: Dae + ?Sized> NewtonSystem for CollocStep<'_, D> {
    fn dim(&self) -> usize {
        self.colloc.len() + usize::from(matches!(self.omega, Omega::Free(_)))
    }

    fn residual(&self, z: &[f64], out: &mut [f64]) {
        let len = self.colloc.len();
        let work = &mut *self.work.borrow_mut();
        let x = &z[..len];
        work.eval(self.dae, self.colloc, x, self.omega_of(z), self.b);
        let (a0h, theta) = (self.step.coeffs.a0h, self.step.coeffs.theta);
        for (k, r) in out[..len].iter_mut().enumerate() {
            *r = a0h * work.q[k]
                + self.step.qlin[k]
                + theta * work.g[k]
                + (1.0 - theta) * self.g_prev[k];
        }
        if let Omega::Free(row) = self.omega {
            out[len] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    fn jacobian(&self, z: &[f64], out: &mut DMat) {
        self.with_parts(z, |parts| parts.assemble_dense_into(out));
    }

    /// The step matrix is `a0h·C + θ·(ω·D·C + G)`: a kept factor is
    /// judged by DASSL's rules on these coefficients.
    fn matrix_coeffs(&self) -> Option<(f64, f64)> {
        Some((self.step.coeffs.a0h, self.step.coeffs.theta))
    }

    fn jacobian_triplets(&self, z: &[f64], out: &mut sparsekit::Triplets) -> bool {
        self.with_parts(z, |parts| parts.push_triplets(out, 0, 0));
        true
    }

    fn update_norm(&self, dx_scaled: &[f64], z: &[f64], abstol: f64, reltol: f64) -> f64 {
        // An adaptive step is judged by its LTE in the controller's
        // weights: solving it further than a fraction of that error buys
        // nothing.
        if let Some(tol) = self.step.tol {
            return tol.newton_norm(dx_scaled, z);
        }
        let omega = matches!(self.omega, Omega::Free(_));
        block_update_norm(dx_scaled, z, self.colloc.len(), omega, abstol, reltol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::VanDerPol;
    use circuitdae::circuits;
    use shooting::{oscillator_steady_state, ShootingOptions};

    /// Checks `jacobian` and `jacobian_triplets` of every step variant
    /// (free and fixed ω, `a0h` zero and positive, θ ∈ {½, 1}) against
    /// central differences of `residual`, at a point of the unforced
    /// orbit of `dae` under a forcing that differs from sample to sample.
    fn check_against_differences<D: Dae>(dae: &D) {
        let orbit = oscillator_steady_state(dae, &ShootingOptions::default()).unwrap();
        let colloc = Colloc::new(dae.dim(), 3);
        let (n, len) = (colloc.n, colloc.len());
        let x: Vec<f64> = orbit.resample_uniform(colloc.n0).concat();
        let f0 = orbit.frequency();
        let work = RefCell::new(StepWork::new(&colloc));
        // Forcing, history and g_prev on the scale of g itself.
        let mut g = vec![0.0; len];
        eval_g(
            dae,
            &colloc,
            &x,
            f0,
            &vec![0.0; len],
            &mut work.borrow_mut(),
            &mut g,
        );
        let g_scale = g.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let wave = |phase: f64| -> Vec<f64> {
            (0..len)
                .map(|k| 0.3 * g_scale * (0.7 * k as f64 + phase).sin())
                .collect()
        };
        let (b, qlin, g_prev) = (wave(0.1), wave(1.3), wave(2.9));
        let phase_row = colloc.phase_row(0, 1);
        // Perturbation scale of each unknown: its magnitude, floored at a
        // hundredth of its variable's amplitude.
        let var_max: Vec<f64> = (0..n)
            .map(|i| {
                colloc
                    .extract_var(&x, i)
                    .iter()
                    .fold(0.0_f64, |m, v| m.max(v.abs()))
            })
            .collect();
        let mut cases = 0;
        for free in [true, false] {
            for a0h in [0.0, 1.5 * f0 / 20.0] {
                for theta in [0.5, 1.0] {
                    let omega = if free {
                        Omega::Free(&phase_row)
                    } else {
                        Omega::Fixed(1.1 * f0)
                    };
                    let sys = CollocStep {
                        dae,
                        colloc: &colloc,
                        step: Step {
                            t_new: 0.0,
                            h: 0.0,
                            coeffs: StepCoeffs { a0h, theta },
                            qlin: &qlin,
                            tol: None,
                        },
                        b: &b,
                        g_prev: &g_prev,
                        omega,
                        work: &work,
                    };
                    let dim = sys.dim();
                    let mut z = x.clone();
                    if free {
                        z.push(f0);
                    }
                    let scale: Vec<f64> = (0..dim)
                        .map(|j| match j.checked_sub(len) {
                            Some(_) => f0,
                            None => z[j].abs().max(0.01 * var_max[j % n]),
                        })
                        .collect();
                    let mut dense = DMat::zeros(dim, dim);
                    sys.jacobian(&z, &mut dense);
                    let mut trip = sparsekit::Triplets::new(dim, dim);
                    assert!(sys.jacobian_triplets(&z, &mut trip));
                    let sparse = trip.to_dense();
                    // Row magnitude: the size of the terms the row sums.
                    let row_mag: Vec<f64> = (0..dim)
                        .map(|i| (0..dim).map(|j| (dense[(i, j)] * scale[j]).abs()).sum())
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
                                    "{kind} free={free} a0h={a0h} θ={theta} ({i},{j}): \
                                     {} vs {fd}",
                                    jac[(i, j)]
                                );
                            }
                        }
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 8);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// After a converged solve — ω free or fixed, step adaptive or fixed,
    /// modified or full Newton — the `g` and `q` an accept hook takes are
    /// a fresh evaluation's at the returned iterate, bit for bit, and
    /// come from the solve's last residual. Refilling `b` drops them.
    #[test]
    fn accepted_point_reuses_the_last_residual_bit_for_bit() {
        let dae = VanDerPol::unforced(0.7);
        let orbit = oscillator_steady_state(&dae, &ShootingOptions::default()).unwrap();
        let colloc = Colloc::new(dae.dim(), 3);
        let len = colloc.len();
        let x: Vec<f64> = orbit.resample_uniform(colloc.n0).concat();
        let f0 = orbit.frequency();
        let phase_row = colloc.phase_row(0, 1);
        let b: Vec<f64> = (0..len).map(|k| 0.05 * (0.9 * k as f64).sin()).collect();
        let (mut g_prev, mut q_prev) = (vec![0.0; len], vec![0.0; len]);
        let mut fresh = StepWork::new(&colloc);
        eval_g(&dae, &colloc, &x, f0, &b, &mut fresh, &mut g_prev);
        q_prev.copy_from_slice(&fresh.q);
        let h = 2.0 / f0;
        let qlin: Vec<f64> = q_prev.iter().map(|q| -q / h).collect();
        let mut cases = 0;
        for free in [true, false] {
            for tol in [
                None,
                Some(timekit::Tolerance {
                    rtol: 1e-4,
                    atol: 1e-9,
                    scale: timekit::Scale::Amplitude {
                        n: colloc.n,
                        samples: colloc.n0,
                    },
                }),
            ] {
                for reuse_jacobian in [false, true] {
                    let work = RefCell::new(StepWork::new(&colloc));
                    let sys = CollocStep {
                        dae: &dae,
                        colloc: &colloc,
                        step: Step {
                            t_new: h,
                            h,
                            coeffs: StepCoeffs {
                                a0h: 2.0 / h,
                                theta: 0.5,
                            },
                            qlin: &qlin,
                            tol,
                        },
                        b: &b,
                        g_prev: &g_prev,
                        omega: if free {
                            Omega::Free(&phase_row)
                        } else {
                            Omega::Fixed(1.01 * f0)
                        },
                        work: &work,
                    };
                    let mut z = x.clone();
                    if free {
                        z.push(f0);
                    }
                    let policy = NewtonPolicy {
                        reuse_jacobian,
                        ..NewtonPolicy::default()
                    };
                    let mut stats = obskit::RunStats::default();
                    sys.solve(&mut NewtonEngine::new(), &mut z, &policy, &mut stats)
                        .unwrap();
                    assert!(stats.newton_iters >= 2);
                    let omega = sys.omega_of(&z);
                    let work = &mut *work.borrow_mut();
                    assert!(work.holds(&z[..len], omega), "free={free} tol={tol:?}");
                    let mut want_g = vec![0.0; len];
                    eval_g(&dae, &colloc, &z[..len], omega, &b, &mut fresh, &mut want_g);
                    let (mut g, mut q) = (vec![0.0; len], vec![0.0; len]);
                    accepted_g(&dae, &colloc, &z[..len], omega, &b, work, &mut g, &mut q);
                    assert_eq!(bits(&g), bits(&want_g), "g, free={free} tol={tol:?}");
                    assert_eq!(bits(&q), bits(&fresh.q), "q, free={free} tol={tol:?}");

                    // Another ω, then another point, is evaluated afresh.
                    for (at, w) in [(&z[..len], 1.001 * omega), (&x[..], 1.001 * omega)] {
                        eval_g(&dae, &colloc, at, w, &b, &mut fresh, &mut want_g);
                        accepted_g(&dae, &colloc, at, w, &b, work, &mut g, &mut q);
                        assert_eq!(bits(&g), bits(&want_g), "another point");
                    }

                    // A refilled forcing drops the point: the next accept
                    // evaluates under the new `b`.
                    let b2: Vec<f64> = b.iter().map(|v| v + 0.01).collect();
                    work.drop_point();
                    assert!(!work.holds(&z[..len], omega));
                    eval_g(
                        &dae,
                        &colloc,
                        &z[..len],
                        omega,
                        &b2,
                        &mut fresh,
                        &mut want_g,
                    );
                    accepted_g(&dae, &colloc, &z[..len], omega, &b2, work, &mut g, &mut q);
                    assert_eq!(bits(&g), bits(&want_g), "refilled b");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 8);
    }

    #[test]
    fn jacobian_matches_central_differences_on_van_der_pol() {
        check_against_differences(&VanDerPol::unforced(0.7));
    }

    #[test]
    fn jacobian_matches_central_differences_on_lc_vco() {
        check_against_differences(&circuits::lc_vco());
    }
}
