//! Shared damped-Newton engine.
//!
//! Every nonlinear solver in the workspace — transient/DC Newton,
//! shooting's outer cycle iteration, harmonic balance, the MPDE and
//! WaMPDE envelopes, and the quasiperiodic boundary solve — reduces to
//! the same loop: evaluate a residual, factor a Jacobian, damp a step,
//! test convergence. This crate owns that loop once, mirroring the
//! `linsolve` (linear solvers) and `timekit` (time stepping)
//! extractions:
//!
//! * [`NewtonSystem`] — the problem: residual, Jacobian (dense, with an
//!   optional sparse triplet stamp), and optional scaling/damping hooks
//!   for solvers with structured unknowns (collocation blocks plus a
//!   frequency border, shooting's `(x0, T)` pair).
//! * [`NewtonPolicy`] — the configuration: iteration budget, abs/rel
//!   step-norm tolerances (or a residual tolerance), the
//!   [`Damping`] strategy (`full`, SPICE-style halving `line-search`, or
//!   `trust-region`), the linear-solver backend, and the kept-matrix
//!   (modified Newton) switch.
//! * [`NewtonEngine`] — the loop. Holding one engine across time steps
//!   (or gmin-continuation stages, or shooting restarts) carries the
//!   [`linsolve::FactorCache`] along, so on the KLU backend every
//!   factorisation after the first reuses the cached symbolic analysis
//!   (elimination ordering and factor patterns) and performs numeric-only
//!   refactorisation — the hot-path win for Newton, which re-factors the
//!   same sparsity pattern every iteration.
//! * [`NewtonStats`] / [`NewtonError`] — one per-solve report and one
//!   solver-agnostic failure enum; each consumer maps them into its own
//!   types (`TransimError::NewtonFailed`, `WampdeError::LinearSolve`, …).
//!
//! # Convergence laws
//!
//! Two laws are supported, matching the two families of consumers:
//!
//! * **Step-norm** (the default, `residual_tol: None`): converged when
//!   the damped update satisfies
//!   [`NewtonSystem::update_norm`]`(λ·Δx, x, abstol, reltol) ≤ 1`. The
//!   default norm is the per-component weighted RMS. The collocation
//!   systems (`wampde`'s step and quasiperiodic systems) share one block
//!   norm instead, `wampde::step::block_update_norm`: every sample is
//!   weighed by the largest sample magnitude, each ω by its own. An
//!   adaptive envelope step takes DASSL's test in the step controller's
//!   error weights (`timekit::Tolerance::newton_norm`), ignoring
//!   `abstol`/`reltol`; the loop itself is the same.
//! * **Residual** (`residual_tol: Some(tol)`): converged when
//!   `‖r‖₂ < tol`, checked *before* factoring. Shooting uses it, where
//!   each residual costs a full flow integration and the Jacobian rides
//!   along with it; it makes the law relative by passing its tolerance
//!   times its state scale.
//!
//! # Jacobian reuse
//!
//! With [`NewtonPolicy::reuse_jacobian`] the engine runs modified Newton
//! in the style of DASSL: it keeps its factorisation across iterations
//! and across [`NewtonEngine::solve`] calls, and assembles and factors a
//! new iteration matrix only when
//!
//! * it holds no factor yet;
//! * the system dimension or the linear-solver backend changed;
//! * the contraction rate `ρ = ‖Δₖ‖/‖Δₖ₋₁‖` measured on the kept matrix
//!   exceeded 1/2, or the line search damped (`λ < 1`);
//! * the system reports the coefficients `(a0h, θ)` of an iteration
//!   matrix `a0h·C + θ·(…)` ([`NewtonSystem::matrix_coeffs`]), and θ
//!   changed or `r = a0h/a0h_kept` left `[0.6, 1.67]` since the kept
//!   matrix was factored.
//!
//! Inside that band, a correction solved against the kept matrix is
//! multiplied by `2/(1 + r)`, DASSL's first-order fix for the stale
//! leading coefficient. Systems that report no coefficients, and
//! matrices factored for such a system, skip both the band and the
//! scaling.
//!
//! Iterations on a kept matrix converge only linearly, so one of them
//! converges only when `update ≤ 1` **and** `ρ/(1−ρ)·update ≤ 1` (the
//! distance to the root a rate-`ρ` iteration still has to go), with `ρ`
//! measured in the same solve, so a solve that starts on a kept matrix
//! takes at least two iterations. A solve that fails after using a kept
//! matrix restarts once from its starting iterate as full Newton, so
//! reuse never fails a solve full Newton converges;
//! [`NewtonStats::iterations`] then counts both attempts.
//!
//! # Example
//!
//! Implement [`NewtonSystem`] for your residual and hand it to an engine
//! — here `r(x) = x² − 2` from the starting guess `x = 1`:
//!
//! ```
//! use newtonkit::{NewtonEngine, NewtonPolicy, NewtonSystem};
//! use numkit::DMat;
//!
//! struct Sqrt2;
//!
//! impl NewtonSystem for Sqrt2 {
//!     fn dim(&self) -> usize {
//!         1
//!     }
//!     fn residual(&self, x: &[f64], out: &mut [f64]) {
//!         out[0] = x[0] * x[0] - 2.0;
//!     }
//!     fn jacobian(&self, x: &[f64], out: &mut DMat) {
//!         out[(0, 0)] = 2.0 * x[0];
//!     }
//! }
//!
//! # fn main() -> Result<(), newtonkit::NewtonError> {
//! let mut x = vec![1.0];
//! let stats = NewtonEngine::new().solve(&Sqrt2, &mut x, &NewtonPolicy::default())?;
//! assert!((x[0] - 2.0_f64.sqrt()).abs() < 1e-10);
//! assert!(stats.iterations > 0);
//! # Ok(())
//! # }
//! ```

use linsolve::{CyclicShape, FactorCache, FactorStats, LinearSolverKind, NewtonMatrix};
use numkit::vecops::{norm2, wrms_norm};
use numkit::DMat;
use sparsekit::Triplets;
use std::fmt;

/// A square nonlinear system `r(x) = 0` for [`NewtonEngine::solve`].
///
/// The dense [`NewtonSystem::jacobian`] is mandatory; systems that can
/// assemble their Jacobian sparsely (circuit DAE steps, collocation
/// blocks) additionally implement [`NewtonSystem::jacobian_triplets`] so
/// the sparse backends skip the `O(dim²)` dense stamp. The remaining
/// methods are scaling/damping hooks with neutral defaults.
pub trait NewtonSystem {
    /// Number of unknowns.
    fn dim(&self) -> usize;

    /// Residual `r(x)` into `out`.
    fn residual(&self, x: &[f64], out: &mut [f64]);

    /// Jacobian `∂r/∂x` into `out` (`dim × dim`).
    fn jacobian(&self, x: &[f64], out: &mut DMat);

    /// Sparse Jacobian pushed as triplets into `out` (a cleared
    /// `dim × dim` buffer; duplicates sum). Returns `false` when the
    /// system has no sparse assembly — the engine then stamps densely
    /// and converts.
    fn jacobian_triplets(&self, _x: &[f64], _out: &mut Triplets) -> bool {
        false
    }

    /// Weighted norm of the damped update `dx_scaled = λ·Δx` against the
    /// (already updated) iterate `x`; the step-norm law declares
    /// convergence when this drops to `≤ 1`. The default is the
    /// per-component WRMS norm; collocation solvers override it with
    /// block scaling (per-block magnitude weights, the frequency unknown
    /// weighted by its own magnitude).
    fn update_norm(&self, dx_scaled: &[f64], x: &[f64], abstol: f64, reltol: f64) -> f64 {
        wrms_norm(dx_scaled, x, abstol, reltol)
    }

    /// Largest admissible damping factor for a proposed step
    /// ([`Damping::TrustRegion`] only): the engine starts from
    /// `min(1, damp_limit)`. Shooting caps the state move at a fraction
    /// of the orbit amplitude here.
    fn damp_limit(&self, _x: &[f64], _dx: &[f64]) -> f64 {
        1.0
    }

    /// Block-cyclic structure of the Jacobian, if the system has one
    /// (the quasiperiodic cyclic system does). Forwarded to the
    /// factorisation cache, where it turns the
    /// [`linsolve::LinearSolverKind::Dense`] backend into a block
    /// elimination (see [`linsolve::FactorCache::set_cyclic_shape`]) fed by
    /// [`NewtonSystem::jacobian_triplets`]. `None` (the default) keeps
    /// the dense LU.
    fn cyclic_shape(&self) -> Option<CyclicShape> {
        None
    }

    /// Hard admissibility check for a damped step
    /// ([`Damping::TrustRegion`] only): the engine halves `λ` until this
    /// accepts (or the floor is reached and the solve fails). Shooting
    /// keeps the period unknown within a factor of 2 here.
    fn step_allowed(&self, _x: &[f64], _dx: &[f64], _lambda: f64) -> bool {
        true
    }

    /// Coefficients `(a0h, θ)` of a time-step system whose Jacobian is
    /// `a0h·C + θ·(…)`, read once per solve. Under
    /// [`NewtonPolicy::reuse_jacobian`] they let the engine judge a kept
    /// matrix factored at other coefficients (see "Jacobian reuse" in the
    /// crate docs); `None` (the default) keeps any matrix whatever its
    /// coefficients.
    fn matrix_coeffs(&self) -> Option<(f64, f64)> {
        None
    }
}

/// How a Newton step is damped before being applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Damping {
    /// Always take the full step (classical Newton).
    Full,
    /// SPICE-style halving line search on `‖r‖₂`: the step is halved
    /// until the residual stops growing, down to `min_lambda`, at which
    /// point it is accepted anyway (tolerating mild residual growth far
    /// from the solution while preventing divergence).
    LineSearch {
        /// Smallest damping factor tried before accepting regardless.
        min_lambda: f64,
    },
    /// Trust-region damping for solvers whose residual is too expensive
    /// to line-search (one evaluation = one flow integration): the step
    /// starts at [`NewtonSystem::damp_limit`] and is halved until
    /// [`NewtonSystem::step_allowed`] accepts; reaching `min_lambda`
    /// fails the solve.
    TrustRegion {
        /// Smallest damping factor before declaring failure.
        min_lambda: f64,
    },
}

impl Default for Damping {
    /// The unified workspace default: halving line search down to 1/64.
    fn default() -> Self {
        Damping::LineSearch {
            min_lambda: 1.0 / 64.0,
        }
    }
}

/// Configuration of one Newton solve.
///
/// The defaults are `max_iter = 50`, `abstol = 1e-12`, `reltol = 1e-9`
/// and a halving line search down to `λ = 1/64`. Shooting keeps its own
/// budget (40) and relative-residual law through `ShootingOptions`,
/// mapped onto [`NewtonPolicy::residual_tol`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonPolicy {
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Absolute tolerance of the step-norm convergence law.
    pub abstol: f64,
    /// Relative tolerance of the step-norm convergence law.
    pub reltol: f64,
    /// Damping strategy.
    pub damping: Damping,
    /// `Some(tol)` switches to the residual convergence law: converged
    /// when `‖r‖₂ < tol`, checked before each factorisation.
    pub residual_tol: Option<f64>,
    /// Linear-solver backend for the per-iteration factorisation.
    pub linear_solver: LinearSolverKind,
    /// Modified Newton: keep the factored iteration matrix across
    /// iterations and across [`NewtonEngine::solve`] calls instead of
    /// assembling and factoring one per iteration (off by default; see
    /// "Jacobian reuse" in the crate docs for the refresh rules).
    pub reuse_jacobian: bool,
}

impl Default for NewtonPolicy {
    fn default() -> Self {
        NewtonPolicy {
            max_iter: 50,
            abstol: 1e-12,
            reltol: 1e-9,
            damping: Damping::default(),
            residual_tol: None,
            linear_solver: LinearSolverKind::default(),
            reuse_jacobian: false,
        }
    }
}

/// Per-solve report of [`NewtonEngine::solve`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NewtonStats {
    /// Newton steps applied (both attempts of a solve restarted as full
    /// Newton under [`NewtonPolicy::reuse_jacobian`]).
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual_norm: f64,
    /// Residual evaluations (including line-search trials).
    pub residual_evals: usize,
    /// Jacobian factorisations.
    pub factorisations: usize,
    /// Factorisations that reused cached symbolic analysis.
    pub symbolic_reuses: usize,
    /// Iterations solved against a kept factorisation instead of a new
    /// one ([`NewtonPolicy::reuse_jacobian`]).
    pub jacobian_reuses: usize,
    /// Steps applied with `λ < 1`.
    pub damped_steps: usize,
    /// Line-search floor hits: steps accepted at `min_lambda` despite a
    /// growing residual (the only way an accepted damped step may
    /// increase `‖r‖₂`).
    pub min_lambda_hits: usize,
}

/// Solver-agnostic Newton failure.
#[derive(Debug, Clone, PartialEq)]
pub enum NewtonError {
    /// A factorisation or back-solve failed.
    Singular {
        /// Human-readable cause from the linear-solver layer.
        cause: String,
    },
    /// The iteration budget was spent (or the residual left the finite
    /// range, or trust-region damping underflowed) without convergence.
    NoConvergence {
        /// Newton steps applied.
        iterations: usize,
        /// Last residual 2-norm.
        residual: f64,
    },
    /// Invalid configuration.
    BadInput(String),
}

impl fmt::Display for NewtonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NewtonError::Singular { cause } => write!(f, "newton jacobian singular: {cause}"),
            NewtonError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "newton did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            NewtonError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for NewtonError {}

/// Largest contraction rate an iteration may measure on a kept matrix
/// before the next iteration refactors.
const MAX_KEPT_RATE: f64 = 0.5;

/// Band of `a0h/a0h_kept` within which a kept matrix stays in use
/// (DASSL's on its leading coefficient).
const KEPT_RATIO_BAND: (f64, f64) = (0.6, 1.67);

/// The factorisation an engine keeps for modified Newton.
#[derive(Debug, Clone, Copy)]
struct KeptMatrix {
    dim: usize,
    kind: LinearSolverKind,
    /// `(a0h, θ)` it was factored at, when the system reports them.
    coeffs: Option<(f64, f64)>,
    /// The last iteration on it damped or contracted too slowly.
    stale: bool,
}

impl KeptMatrix {
    /// The factor on a correction solved against this matrix for a system
    /// now at `coeffs`: `2/(1 + r)` with `r = a0h/a0h_kept`, or 1 when
    /// either side has no coefficients or they are unchanged. `None` when
    /// θ changed or `r` left [`KEPT_RATIO_BAND`] (an infinite or NaN `r`
    /// included), so the matrix must be refactored.
    fn correction_scale(&self, coeffs: Option<(f64, f64)>) -> Option<f64> {
        let (Some(kept), Some(now)) = (self.coeffs, coeffs) else {
            return Some(1.0);
        };
        if now == kept {
            return Some(1.0);
        }
        let r = now.0 / kept.0;
        let (lo, hi) = KEPT_RATIO_BAND;
        (now.1 == kept.1 && (lo..=hi).contains(&r)).then(|| 2.0 / (1.0 + r))
    }
}

/// The shared damped-Newton loop with a persistent factorisation cache.
///
/// Create one engine per solver run (transient, envelope, continuation
/// ladder) and call [`NewtonEngine::solve`] per step: the engine's
/// [`linsolve::FactorCache`] then spans every factorisation of the run,
/// so symbolic analysis is done once per sparsity pattern rather than
/// once per Newton iteration.
#[derive(Debug, Default)]
pub struct NewtonEngine {
    cache: Option<FactorCache>,
    stats: NewtonStats,
    // Scratch buffers reused across solves (resized on dimension change).
    r: Vec<f64>,
    dx: Vec<f64>,
    dx_scaled: Vec<f64>,
    trial: Vec<f64>,
    r_trial: Vec<f64>,
    jac: Option<DMat>,
    trip: Triplets,
    // Modified Newton (`NewtonPolicy::reuse_jacobian`): the matrix the
    // cache's factorisation belongs to, and the solve's starting iterate
    // for the full-Newton restart.
    kept: Option<KeptMatrix>,
    x_start: Vec<f64>,
}

impl NewtonEngine {
    /// A fresh engine with an empty factorisation cache.
    pub fn new() -> Self {
        NewtonEngine::default()
    }

    /// Statistics of the most recent [`NewtonEngine::solve`] call —
    /// populated on the error paths too, unlike the success return value.
    pub fn stats(&self) -> NewtonStats {
        self.stats
    }

    /// Cumulative factorisation counters across the engine's lifetime.
    pub fn factor_stats(&self) -> FactorStats {
        self.cache
            .as_ref()
            .map(FactorCache::stats)
            .unwrap_or_default()
    }

    /// Solves `r(x) = 0` by damped Newton, updating `x` in place.
    ///
    /// # Errors
    ///
    /// * [`NewtonError::Singular`] when a factorisation or back-solve
    ///   fails;
    /// * [`NewtonError::NoConvergence`] when the iteration budget is
    ///   spent, the residual becomes non-finite, or trust-region damping
    ///   underflows its floor.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != sys.dim()`.
    pub fn solve<S: NewtonSystem + ?Sized>(
        &mut self,
        sys: &S,
        x: &mut [f64],
        policy: &NewtonPolicy,
    ) -> Result<NewtonStats, NewtonError> {
        let n = sys.dim();
        assert_eq!(x.len(), n, "newton: x length mismatch");

        let cache = self
            .cache
            .get_or_insert_with(|| FactorCache::new(policy.linear_solver));
        cache.set_kind(policy.linear_solver);
        cache.set_cyclic_shape(sys.cyclic_shape());
        let factor_base = cache.stats();
        let nspan = obskit::span("newton");

        let mut stats = NewtonStats::default();
        self.r.resize(n, 0.0);
        self.r.fill(0.0);
        self.dx.resize(n, 0.0);
        self.dx_scaled.resize(n, 0.0);
        self.trial.resize(n, 0.0);
        self.r_trial.resize(n, 0.0);
        if self.trip.nrows() != n || self.trip.ncols() != n {
            self.trip = Triplets::new(n, n);
        }
        if self.jac.as_ref().is_some_and(|j| j.nrows() != n) {
            self.jac = None;
        }

        if self
            .kept
            .is_some_and(|k| k.dim != n || k.kind != policy.linear_solver)
        {
            self.kept = None;
        }
        if policy.reuse_jacobian {
            self.x_start.clear();
            self.x_start.extend_from_slice(x);
        }

        sys.residual(x, &mut self.r);
        stats.residual_evals += 1;
        let mut rnorm = norm2(&self.r);
        let coeffs = sys.matrix_coeffs();
        // Refactorisations of a kept matrix by cause: its coefficients
        // left the band, or its last iteration damped or contracted slowly.
        let (mut band_refreshes, mut stale_refreshes) = (0_u64, 0_u64);

        // Under `reuse_jacobian` the first attempt may solve against kept
        // factorisations; if it fails after doing so, the solve restarts
        // from `x_start` as full Newton.
        let mut full_newton = !policy.reuse_jacobian;
        let outcome: Result<(), NewtonError> = loop {
            let attempt: Result<(), NewtonError> = 'solve: {
                // Update norm of the previous iteration while it used the
                // current matrix: the base of the contraction rate.
                let mut prev_update: Option<f64> = None;
                for iter in 1..=policy.max_iter {
                    // Residual law: check before paying for a
                    // factorisation (shooting's flow already ran).
                    if let Some(tol) = policy.residual_tol {
                        if rnorm.is_finite() && rnorm < tol {
                            break 'solve Ok(());
                        }
                    }
                    if !rnorm.is_finite() {
                        break 'solve Err(NewtonError::NoConvergence {
                            iterations: stats.iterations,
                            residual: rnorm,
                        });
                    }

                    let ispan = obskit::span("newton-iter");
                    ispan.attr("iter", iter);

                    // The factor on this iteration's correction, or `None`
                    // to assemble and factor a new iteration matrix.
                    let kept_scale = match self.kept {
                        Some(k) if !full_newton => {
                            if k.stale {
                                stale_refreshes += 1;
                                None
                            } else {
                                let scaled = k.correction_scale(coeffs);
                                band_refreshes += u64::from(scaled.is_none());
                                scaled
                            }
                        }
                        _ => None,
                    };
                    let refresh = kept_scale.is_none();
                    let factor_mode = if refresh {
                        let factor_pre = cache.stats();
                        // Factor the Jacobian: sparse backends and the
                        // cyclic block elimination prefer a triplet-assembled
                        // stamp; dense (or systems without sparse assembly)
                        // stamp the full matrix. The dense buffer is
                        // allocated lazily so the sparse path of a large
                        // system never touches the O(n²) matrix.
                        let sparse = !matches!(policy.linear_solver, LinearSolverKind::Dense)
                            || cache.cyclic_shape().is_some();
                        let use_triplets = sparse && {
                            self.trip.clear();
                            sys.jacobian_triplets(x, &mut self.trip)
                        };
                        let factored = if use_triplets {
                            cache.factor(&NewtonMatrix::Triplets(&self.trip))
                        } else {
                            let jac = self.jac.get_or_insert_with(|| DMat::zeros(n, n));
                            sys.jacobian(x, jac);
                            cache.factor(&NewtonMatrix::Dense(jac))
                        };
                        if let Err(e) = factored {
                            self.kept = None;
                            break 'solve Err(NewtonError::Singular { cause: e.cause });
                        }
                        self.kept = policy.reuse_jacobian.then_some(KeptMatrix {
                            dim: n,
                            kind: policy.linear_solver,
                            coeffs,
                            stale: false,
                        });
                        prev_update = None;
                        if cache.stats().symbolic_reuses > factor_pre.symbolic_reuses {
                            "reused"
                        } else {
                            "fresh"
                        }
                    } else {
                        stats.jacobian_reuses += 1;
                        "kept"
                    };

                    // dx = -J⁻¹ r, times the kept matrix's correction scale
                    // (multiplying by −1 is exact negation).
                    self.dx.copy_from_slice(&self.r);
                    if let Err(e) = cache.solve_in_place(&mut self.dx) {
                        break 'solve Err(NewtonError::Singular { cause: e.cause });
                    }
                    let neg_scale = -kept_scale.unwrap_or(1.0);
                    for v in self.dx.iter_mut() {
                        *v *= neg_scale;
                    }

                    // Damp and apply the step, leaving `r`/`rnorm` evaluated
                    // at the updated iterate.
                    let lambda = match policy.damping {
                        Damping::Full => {
                            for (xi, di) in x.iter_mut().zip(self.dx.iter()) {
                                *xi += di;
                            }
                            sys.residual(x, &mut self.r);
                            stats.residual_evals += 1;
                            rnorm = norm2(&self.r);
                            1.0
                        }
                        Damping::LineSearch { min_lambda } => {
                            let mut lambda = 1.0_f64;
                            loop {
                                for ((ti, &xi), &di) in
                                    self.trial.iter_mut().zip(x.iter()).zip(self.dx.iter())
                                {
                                    *ti = xi + lambda * di;
                                }
                                sys.residual(&self.trial, &mut self.r_trial);
                                stats.residual_evals += 1;
                                let rt = norm2(&self.r_trial);
                                if rt.is_finite() && (rt <= rnorm || lambda <= min_lambda) {
                                    if rt > rnorm {
                                        stats.min_lambda_hits += 1;
                                    }
                                    x.copy_from_slice(&self.trial);
                                    self.r.copy_from_slice(&self.r_trial);
                                    rnorm = rt;
                                    break lambda;
                                }
                                lambda *= 0.5;
                                // A residual that never evaluates finite can
                                // not be line-searched; bail instead of
                                // halving forever.
                                if lambda < min_lambda * 1e-18 {
                                    break 'solve Err(NewtonError::NoConvergence {
                                        iterations: stats.iterations,
                                        residual: rt,
                                    });
                                }
                            }
                        }
                        Damping::TrustRegion { min_lambda } => {
                            let mut lambda = sys.damp_limit(x, &self.dx).min(1.0);
                            // `partial_cmp` keeps the NaN-rejecting behavior
                            // of `!(lambda > 0.0)`.
                            if lambda.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                                break 'solve Err(NewtonError::NoConvergence {
                                    iterations: stats.iterations,
                                    residual: rnorm,
                                });
                            }
                            loop {
                                if sys.step_allowed(x, &self.dx, lambda) {
                                    break;
                                }
                                lambda *= 0.5;
                                if lambda < min_lambda {
                                    stats.min_lambda_hits += 1;
                                    break 'solve Err(NewtonError::NoConvergence {
                                        iterations: stats.iterations,
                                        residual: rnorm,
                                    });
                                }
                            }
                            for (xi, di) in x.iter_mut().zip(self.dx.iter()) {
                                *xi += lambda * di;
                            }
                            sys.residual(x, &mut self.r);
                            stats.residual_evals += 1;
                            rnorm = norm2(&self.r);
                            lambda
                        }
                    };
                    stats.iterations += 1;
                    if lambda < 1.0 {
                        stats.damped_steps += 1;
                    }
                    if obskit::enabled() {
                        ispan.attr("residual", rnorm);
                        ispan.attr("lambda", lambda);
                        obskit::point(
                            "newton.iter",
                            &[
                                ("iter", obskit::AttrValue::U64(iter as u64)),
                                ("residual", obskit::AttrValue::F64(rnorm)),
                                ("lambda", obskit::AttrValue::F64(lambda)),
                                ("factor", obskit::AttrValue::Str(factor_mode)),
                            ],
                        );
                    }

                    // Step-norm law: converged when the weighted damped
                    // update drops below 1 (and the residual is finite). The
                    // same norm measures the contraction on a kept matrix.
                    let step_norm_law = policy.residual_tol.is_none();
                    if step_norm_law || policy.reuse_jacobian {
                        for i in 0..n {
                            self.dx_scaled[i] = lambda * self.dx[i];
                        }
                        let update =
                            sys.update_norm(&self.dx_scaled, x, policy.abstol, policy.reltol);
                        // A fresh matrix converges quadratically; on a kept
                        // one the root is still about ρ/(1−ρ)·update away,
                        // with ρ measured in this solve.
                        let close = !policy.reuse_jacobian || {
                            let kept = self.kept.as_mut().expect("an iteration matrix is kept");
                            let rate = prev_update.map(|prev| update / prev);
                            kept.stale = lambda < 1.0
                                || rate.is_some_and(|r| r.is_nan() || r > MAX_KEPT_RATE);
                            prev_update = Some(update);
                            refresh
                                || update == 0.0
                                || rate.is_some_and(|r| r < 1.0 && r / (1.0 - r) * update <= 1.0)
                        };
                        if step_norm_law && update <= 1.0 && close && rnorm.is_finite() {
                            break 'solve Ok(());
                        }
                    }
                }
                Err(NewtonError::NoConvergence {
                    iterations: policy.max_iter,
                    residual: rnorm,
                })
            };
            if attempt.is_err() && !full_newton && stats.jacobian_reuses > 0 {
                full_newton = true;
                x.copy_from_slice(&self.x_start);
                sys.residual(x, &mut self.r);
                stats.residual_evals += 1;
                rnorm = norm2(&self.r);
                continue;
            }
            break attempt;
        };

        stats.residual_norm = rnorm;
        let fs = cache.stats();
        stats.factorisations = fs.factorisations - factor_base.factorisations;
        stats.symbolic_reuses = fs.symbolic_reuses - factor_base.symbolic_reuses;
        self.stats = stats;
        if obskit::enabled() {
            nspan.attr("iterations", stats.iterations);
            nspan.attr("converged", outcome.is_ok());
            obskit::counter_add("newton.solves", 1);
            obskit::counter_add("newton.iters", stats.iterations as u64);
            if stats.jacobian_reuses > 0 {
                obskit::counter_add("newton.jacobian_reuses", stats.jacobian_reuses as u64);
            }
            if band_refreshes > 0 {
                obskit::counter_add("newton.band_refreshes", band_refreshes);
            }
            if stale_refreshes > 0 {
                obskit::counter_add("newton.stale_refreshes", stale_refreshes);
            }
            if outcome.is_err() {
                obskit::counter_add("newton.failures", 1);
            }
        }
        outcome.map(|()| stats)
    }
}

/// One-shot convenience over [`NewtonEngine::solve`] (no cross-solve
/// factorisation cache; symbolic reuse still spans the iterations of
/// this single solve).
///
/// # Errors
///
/// See [`NewtonEngine::solve`].
pub fn newton_solve<S: NewtonSystem + ?Sized>(
    sys: &S,
    x: &mut [f64],
    policy: &NewtonPolicy,
) -> Result<NewtonStats, NewtonError> {
    NewtonEngine::new().solve(sys, x, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// r(x) = x² − 4 (root at ±2).
    struct Quadratic;

    impl NewtonSystem for Quadratic {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] * x[0] - 4.0;
        }
        fn jacobian(&self, x: &[f64], out: &mut DMat) {
            out[(0, 0)] = 2.0 * x[0];
        }
    }

    /// 2-d system with root (1, 1).
    struct TwoDim;

    impl NewtonSystem for TwoDim {
        fn dim(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
            out[1] = x[0] - x[1];
        }
        fn jacobian(&self, x: &[f64], out: &mut DMat) {
            out[(0, 0)] = 2.0 * x[0];
            out[(0, 1)] = 2.0 * x[1];
            out[(1, 0)] = 1.0;
            out[(1, 1)] = -1.0;
        }
    }

    #[test]
    fn scalar_quadratic_converges() {
        let mut x = vec![3.0];
        let rep = newton_solve(&Quadratic, &mut x, &NewtonPolicy::default()).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!(rep.iterations < 10);
        assert!(rep.residual_norm < 1e-8);
        assert_eq!(rep.factorisations, rep.iterations);
    }

    #[test]
    fn negative_start_finds_negative_root() {
        let mut x = vec![-5.0];
        newton_solve(&Quadratic, &mut x, &NewtonPolicy::default()).unwrap();
        assert!((x[0] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_dim_system() {
        let mut x = vec![2.0, 0.5];
        newton_solve(&TwoDim, &mut x, &NewtonPolicy::default()).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn klu_reaches_the_same_root() {
        let mut x = vec![2.0, 0.5];
        let policy = NewtonPolicy {
            linear_solver: LinearSolverKind::Klu,
            ..Default::default()
        };
        newton_solve(&TwoDim, &mut x, &policy).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn triplet_jacobian_path_is_used_when_offered() {
        use std::cell::Cell;
        /// TwoDim with a sparse Jacobian and a call counter proving the
        /// sparse path ran instead of the dense stamp.
        struct SparseTwoDim {
            triplet_calls: Cell<usize>,
        }
        impl NewtonSystem for SparseTwoDim {
            fn dim(&self) -> usize {
                2
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                TwoDim.residual(x, out);
            }
            fn jacobian(&self, _x: &[f64], _out: &mut DMat) {
                panic!("dense jacobian must not be called on the sparse path");
            }
            fn jacobian_triplets(&self, x: &[f64], out: &mut Triplets) -> bool {
                self.triplet_calls.set(self.triplet_calls.get() + 1);
                out.push(0, 0, 2.0 * x[0]);
                out.push(0, 1, 2.0 * x[1]);
                out.push(1, 0, 1.0);
                out.push(1, 1, -1.0);
                true
            }
        }
        let sys = SparseTwoDim {
            triplet_calls: Cell::new(0),
        };
        let mut x = vec![2.0, 0.5];
        let policy = NewtonPolicy {
            linear_solver: LinearSolverKind::Klu,
            ..Default::default()
        };
        let rep = newton_solve(&sys, &mut x, &policy).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!(sys.triplet_calls.get() > 0);
        // Constant pattern: every factorisation after the first reused
        // the symbolic analysis.
        assert_eq!(rep.symbolic_reuses, rep.factorisations - 1);
    }

    #[test]
    fn singular_jacobian_detected() {
        struct Flat;
        impl NewtonSystem for Flat {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, _x: &[f64], out: &mut [f64]) {
                out[0] = 1.0;
            }
            fn jacobian(&self, _x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 0.0;
            }
        }
        let mut x = vec![0.0];
        assert!(matches!(
            newton_solve(&Flat, &mut x, &NewtonPolicy::default()),
            Err(NewtonError::Singular { .. })
        ));
    }

    #[test]
    fn iteration_budget_respected() {
        struct Hard;
        impl NewtonSystem for Hard {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0].atan() + 2.0; // no root: atan ∈ (-π/2, π/2)
            }
            fn jacobian(&self, x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 1.0 / (1.0 + x[0] * x[0]);
            }
        }
        let mut x = vec![0.0];
        let policy = NewtonPolicy {
            max_iter: 8,
            ..Default::default()
        };
        assert!(matches!(
            newton_solve(&Hard, &mut x, &policy),
            Err(NewtonError::NoConvergence { iterations: 8, .. })
        ));
    }

    #[test]
    fn damping_rescues_overshoot() {
        // Start far away where full Newton overshoots on x³-1.
        struct Cubic;
        impl NewtonSystem for Cubic {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0].powi(3) - 1.0;
            }
            fn jacobian(&self, x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 3.0 * x[0] * x[0];
            }
        }
        let mut x = vec![0.01];
        let rep = newton_solve(&Cubic, &mut x, &NewtonPolicy::default()).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!(rep.damped_steps > 0, "{rep:?}");
    }

    #[test]
    fn residual_law_converges_without_factoring_at_the_root() {
        // Starting exactly at the root with the residual law:
        // no factorisation, no step.
        let mut x = vec![2.0];
        let policy = NewtonPolicy {
            residual_tol: Some(1e-8),
            ..Default::default()
        };
        let rep = newton_solve(&Quadratic, &mut x, &policy).unwrap();
        assert_eq!(rep.iterations, 0);
        assert_eq!(rep.factorisations, 0);
        assert_eq!(rep.residual_evals, 1);
    }

    #[test]
    fn trust_region_respects_damp_limit_and_step_bound() {
        use std::cell::Cell;
        /// Linear system whose hooks cap the step and log the λ used.
        struct Limited {
            seen_lambda: Cell<f64>,
        }
        impl NewtonSystem for Limited {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0] - 8.0;
            }
            fn jacobian(&self, _x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 1.0;
            }
            fn damp_limit(&self, _x: &[f64], dx: &[f64]) -> f64 {
                // Never move more than 2 at once.
                (2.0 / dx[0].abs()).min(1.0)
            }
            fn step_allowed(&self, _x: &[f64], dx: &[f64], lambda: f64) -> bool {
                self.seen_lambda.set(lambda);
                lambda * dx[0].abs() <= 2.0 + 1e-12
            }
        }
        let sys = Limited {
            seen_lambda: Cell::new(f64::NAN),
        };
        let mut x = vec![0.0];
        let policy = NewtonPolicy {
            damping: Damping::TrustRegion {
                min_lambda: 1.0 / 1024.0,
            },
            residual_tol: Some(1e-10),
            max_iter: 10,
            ..Default::default()
        };
        let rep = newton_solve(&sys, &mut x, &policy).unwrap();
        assert!((x[0] - 8.0).abs() < 1e-9);
        // The 8-long first step was capped to 2, so at least 4 steps ran.
        assert!(rep.iterations >= 4, "{rep:?}");
        assert!(rep.damped_steps > 0);
    }

    #[test]
    fn trust_region_floor_fails_cleanly() {
        struct Never;
        impl NewtonSystem for Never {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0] - 1.0;
            }
            fn jacobian(&self, _x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 1.0;
            }
            fn step_allowed(&self, _x: &[f64], _dx: &[f64], _lambda: f64) -> bool {
                false
            }
        }
        let mut x = vec![0.0];
        let policy = NewtonPolicy {
            damping: Damping::TrustRegion {
                min_lambda: 1.0 / 1024.0,
            },
            ..Default::default()
        };
        assert!(matches!(
            newton_solve(&Never, &mut x, &policy),
            Err(NewtonError::NoConvergence { iterations: 0, .. })
        ));
    }

    #[test]
    fn non_finite_residual_fails_instead_of_spinning() {
        struct Nan;
        impl NewtonSystem for Nan {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, _x: &[f64], out: &mut [f64]) {
                out[0] = f64::NAN;
            }
            fn jacobian(&self, _x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 1.0;
            }
        }
        let mut x = vec![0.0];
        let err = newton_solve(&Nan, &mut x, &NewtonPolicy::default()).unwrap_err();
        assert!(matches!(err, NewtonError::NoConvergence { .. }), "{err}");
    }

    #[test]
    fn engine_reuses_symbolic_across_solves() {
        use std::cell::Cell;
        struct SparseLinear {
            rhs: Cell<f64>,
        }
        impl NewtonSystem for SparseLinear {
            fn dim(&self) -> usize {
                2
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = 3.0 * x[0] + x[1] - self.rhs.get();
                out[1] = x[0] + 2.0 * x[1];
            }
            fn jacobian(&self, _x: &[f64], _out: &mut DMat) {
                panic!("sparse path expected");
            }
            fn jacobian_triplets(&self, _x: &[f64], out: &mut Triplets) -> bool {
                out.push(0, 0, 3.0);
                out.push(0, 1, 1.0);
                out.push(1, 0, 1.0);
                out.push(1, 1, 2.0);
                true
            }
        }
        let sys = SparseLinear {
            rhs: Cell::new(1.0),
        };
        let policy = NewtonPolicy {
            linear_solver: LinearSolverKind::Klu,
            ..Default::default()
        };
        let mut engine = NewtonEngine::new();
        let mut x = vec![0.0, 0.0];
        engine.solve(&sys, &mut x, &policy).unwrap();
        // Second solve (new rhs, same pattern): first factorisation of
        // the new solve already reuses the cached symbolic analysis.
        sys.rhs.set(-2.0);
        let mut x = vec![0.0, 0.0];
        let rep = engine.solve(&sys, &mut x, &policy).unwrap();
        assert_eq!(rep.symbolic_reuses, rep.factorisations, "{rep:?}");
        assert!(engine.factor_stats().symbolic_reuses >= rep.factorisations);
    }

    #[test]
    fn failed_kept_attempt_restarts_as_full_newton() {
        /// r(x) = a·(x − 2): the Jacobian is the constant `a`.
        struct Lin(f64);
        impl NewtonSystem for Lin {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = self.0 * (x[0] - 2.0);
            }
            fn jacobian(&self, _x: &[f64], out: &mut DMat) {
                out[(0, 0)] = self.0;
            }
        }
        let reuse = NewtonPolicy {
            reuse_jacobian: true,
            ..Default::default()
        };
        let mut engine = NewtonEngine::new();
        let mut x = vec![0.0];
        let rep = engine.solve(&Lin(4.0), &mut x, &reuse).unwrap();
        assert_eq!((rep.factorisations, rep.jacobian_reuses), (1, 1), "{rep:?}");

        // The kept J = 4 points the wrong way for J = −4: the damped
        // kept step and the refreshed one spend the two-iteration budget,
        // so the solve restarts from x = 0 as full Newton and converges.
        let mut x = vec![0.0];
        let tight = NewtonPolicy {
            max_iter: 2,
            ..reuse
        };
        let rep = engine.solve(&Lin(-4.0), &mut x, &tight).unwrap();
        assert_eq!(x[0], 2.0);
        assert_eq!(rep.iterations, 4, "{rep:?}");
        assert_eq!((rep.factorisations, rep.jacobian_reuses), (3, 1), "{rep:?}");
        let mut x_full = vec![0.0];
        let full = newton_solve(
            &Lin(-4.0),
            &mut x_full,
            &NewtonPolicy {
                max_iter: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(x_full, x);
        assert_eq!(full.iterations, 2);
    }

    /// The linear step system `r(x) = (a0h·C + θ·G)·x − b` on two
    /// unknowns, reporting `(a0h, θ)` when `report` is set and logging
    /// every iterate its residual is evaluated at.
    struct LinStep {
        a0h: f64,
        theta: f64,
        report: bool,
        seen: std::cell::RefCell<Vec<[f64; 2]>>,
    }

    const STEP_C: [[f64; 2]; 2] = [[1.0, 0.2], [0.1, 2.0]];
    const STEP_G: [[f64; 2]; 2] = [[0.3, -0.1], [0.05, 0.4]];
    const STEP_B: [f64; 2] = [1.0, -2.0];

    fn lin_step(a0h: f64, theta: f64, report: bool) -> LinStep {
        LinStep {
            a0h,
            theta,
            report,
            seen: Default::default(),
        }
    }

    impl NewtonSystem for LinStep {
        fn dim(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            self.seen.borrow_mut().push([x[0], x[1]]);
            let mut j = DMat::zeros(2, 2);
            self.jacobian(x, &mut j);
            for (i, o) in out.iter_mut().enumerate() {
                *o = j[(i, 0)] * x[0] + j[(i, 1)] * x[1] - STEP_B[i];
            }
        }
        fn jacobian(&self, _x: &[f64], out: &mut DMat) {
            for (i, (c, g)) in STEP_C.iter().zip(&STEP_G).enumerate() {
                for k in 0..2 {
                    out[(i, k)] = self.a0h * c[k] + self.theta * g[k];
                }
            }
        }
        fn matrix_coeffs(&self) -> Option<(f64, f64)> {
            self.report.then_some((self.a0h, self.theta))
        }
    }

    fn reuse() -> NewtonPolicy {
        NewtonPolicy {
            reuse_jacobian: true,
            damping: Damping::Full,
            ..Default::default()
        }
    }

    /// What a traced solve of `sys` from `x = 0` on `engine` did: the
    /// first iteration's `factor` mode, the first corrected iterate, the
    /// stats and the band/stale refresh counters.
    fn traced_from_zero(
        engine: &mut NewtonEngine,
        sys: &LinStep,
    ) -> (obskit::AttrValue, [f64; 2], NewtonStats, [u64; 2]) {
        use std::sync::Arc;
        let rec = Arc::new(obskit::CollectingRecorder::new());
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let mut x = [0.0; 2];
        let stats = engine.solve(sys, &mut x, &reuse()).unwrap();
        let mut r = [0.0; 2];
        sys.residual(&x, &mut r);
        assert!(norm2(&r) <= 1e-9 * norm2(&STEP_B), "{x:?}: {r:?}");
        assert_eq!(
            stats.factorisations + stats.jacobian_reuses,
            stats.iterations,
            "{stats:?}"
        );
        let first = rec
            .points()
            .into_iter()
            .find(|p| p.name == "newton.iter")
            .and_then(|p| p.attrs.into_iter().find(|(k, _)| *k == "factor"))
            .expect("a traced iteration")
            .1;
        let counters = ["newton.band_refreshes", "newton.stale_refreshes"].map(|c| rec.counter(c));
        (first, sys.seen.borrow()[1], stats, counters)
    }

    /// An engine whose kept matrix was factored for `sys` by a solve.
    fn engine_kept_for(sys: &LinStep) -> NewtonEngine {
        let mut engine = NewtonEngine::new();
        engine.solve(sys, &mut [0.0; 2], &reuse()).unwrap();
        engine
    }

    /// `J⁻¹·b` for the matrix of `sys`, on the default dense backend.
    fn kept_solve(sys: &LinStep) -> [f64; 2] {
        let mut j = DMat::zeros(2, 2);
        sys.jacobian(&[0.0; 2], &mut j);
        let mut cache = FactorCache::new(LinearSolverKind::Dense);
        cache.factor(&NewtonMatrix::Dense(&j)).unwrap();
        let mut s = STEP_B;
        cache.solve_in_place(&mut s).unwrap();
        s
    }

    fn kept() -> obskit::AttrValue {
        obskit::AttrValue::Str("kept")
    }

    #[test]
    fn kept_matrix_outlives_four_iterations_while_contracting() {
        /// r(x) = a·(x − 2): the Jacobian is the constant `a`.
        struct Lin(f64);
        impl NewtonSystem for Lin {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = self.0 * (x[0] - 2.0);
            }
            fn jacobian(&self, _x: &[f64], out: &mut DMat) {
                out[(0, 0)] = self.0;
            }
        }
        let mut engine = NewtonEngine::new();
        engine.solve(&Lin(1.0), &mut [0.0], &reuse()).unwrap();
        // On the kept J = 1 each iteration for J = 0.6 contracts the
        // error by ρ = 0.4 ≤ ½: the matrix is never refactored.
        let mut x = [0.0];
        let rep = engine.solve(&Lin(0.6), &mut x, &reuse()).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8, "{x:?}");
        assert_eq!(rep.factorisations, 0, "{rep:?}");
        assert!(rep.jacobian_reuses > 4, "{rep:?}");
        assert_eq!(rep.jacobian_reuses, rep.iterations, "{rep:?}");
    }

    #[test]
    fn kept_correction_is_scaled_by_two_over_one_plus_ratio() {
        let old = lin_step(1.0, 1.0, true);
        let mut engine = engine_kept_for(&old);
        let new = lin_step(1.2, 1.0, true);
        let (mode, x1, stats, counters) = traced_from_zero(&mut engine, &new);
        assert_eq!(mode, kept());
        assert_eq!((stats.factorisations, counters), (0, [0, 0]), "{stats:?}");
        let s = kept_solve(&old);
        let c = 2.0 / (1.0 + 1.2 / 1.0);
        assert_eq!(x1.map(f64::to_bits), s.map(|v| (v * c).to_bits()));
    }

    #[test]
    fn coefficients_outside_the_band_refactor_before_the_first_iteration() {
        // (a0h, θ) kept → (a0h, θ) now: ratio below 0.6, above 1.67, a θ
        // change, and a matrix kept at a0h = 0 (ratio ∞).
        let cases = [
            ((1.0, 1.0), (0.59, 1.0)),
            ((1.0, 1.0), (1.68, 1.0)),
            ((1.0, 1.0), (1.0, 0.5)),
            ((0.0, 1.0), (1.0, 1.0)),
        ];
        for ((a_old, th_old), (a_new, th_new)) in cases {
            let mut engine = engine_kept_for(&lin_step(a_old, th_old, true));
            let (mode, x1, stats, counters) =
                traced_from_zero(&mut engine, &lin_step(a_new, th_new, true));
            let case = format!("{a_old},{th_old} -> {a_new},{th_new}: {stats:?}");
            assert_eq!(mode, obskit::AttrValue::Str("fresh"), "{case}");
            assert_eq!(counters, [1, 0], "{case}");
            assert!(x1.iter().all(|v| v.is_finite()), "{case}");
        }
        // The band's edges keep the matrix, and so do unchanged
        // coefficients, a0h = 0 included (no 0/0 ratio).
        for (a_old, a_new) in [(1.0, 0.6), (1.0, 1.67), (0.0, 0.0)] {
            let mut engine = engine_kept_for(&lin_step(a_old, 1.0, true));
            let (mode, _, stats, counters) =
                traced_from_zero(&mut engine, &lin_step(a_new, 1.0, true));
            assert_eq!((mode, counters), (kept(), [0, 0]), "{a_old} -> {a_new}");
            assert_eq!(stats.factorisations, 0, "{a_old} -> {a_new}: {stats:?}");
        }
    }

    #[test]
    fn matrices_without_coefficients_are_kept_unscaled() {
        // A system that reports no coefficients keeps its matrix across a
        // ratio of 3 and solves against it unscaled…
        let old = lin_step(1.0, 1.0, false);
        let mut engine = engine_kept_for(&old);
        let (mode, x1, _, counters) = traced_from_zero(&mut engine, &lin_step(3.0, 1.0, false));
        assert_eq!((mode, counters[0]), (kept(), 0));
        assert_eq!(x1.map(f64::to_bits), kept_solve(&old).map(f64::to_bits));

        // …and so does a reporting system on a matrix factored for a
        // system that reports none.
        let mut engine = engine_kept_for(&old);
        let (mode, x1, _, counters) = traced_from_zero(&mut engine, &lin_step(1.2, 1.0, true));
        assert_eq!((mode, counters[0]), (kept(), 0));
        assert_eq!(x1.map(f64::to_bits), kept_solve(&old).map(f64::to_bits));
    }

    #[test]
    fn stats_available_after_failure() {
        struct Hard;
        impl NewtonSystem for Hard {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0].atan() + 2.0;
            }
            fn jacobian(&self, x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 1.0 / (1.0 + x[0] * x[0]);
            }
        }
        let mut engine = NewtonEngine::new();
        let mut x = vec![0.0];
        let policy = NewtonPolicy {
            max_iter: 3,
            ..Default::default()
        };
        assert!(engine.solve(&Hard, &mut x, &policy).is_err());
        let stats = engine.stats();
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.factorisations, 3);
        assert!(stats.residual_evals >= 4);
    }

    #[test]
    fn error_display() {
        let e = NewtonError::NoConvergence {
            iterations: 5,
            residual: 1e-2,
        };
        assert!(e.to_string().contains("5 iterations"));
        let e = NewtonError::Singular { cause: "x".into() };
        assert!(e.to_string().contains("singular"));
        assert!(NewtonError::BadInput("y".into()).to_string().contains("y"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NewtonError>();
        assert_send_sync::<NewtonPolicy>();
        assert_send_sync::<NewtonStats>();
    }
}
