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
//!   step-norm tolerances (or a relative residual tolerance), the
//!   [`Damping`] strategy (`full`, SPICE-style halving `line-search`, or
//!   `trust-region`), the linear-solver backend, and the symbolic-reuse
//!   ablation knob.
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
//!   [`NewtonSystem::update_norm`]`(λ·Δx, x, abstol, reltol) ≤ 1` — a
//!   weighted RMS that systems override for block scaling.
//! * **Relative residual** (`residual_tol: Some(tol)`): converged when
//!   `‖r‖₂ / `[`NewtonSystem::residual_scale`]` < tol`, checked *before*
//!   factoring (shooting's law, where each residual costs a full flow
//!   integration and the Jacobian rides along with it).
//!
//! # Jacobian reuse
//!
//! With [`NewtonPolicy::reuse_jacobian`] the engine runs modified Newton
//! in the style of DASSL: it keeps its factorisation across iterations
//! and across [`NewtonEngine::solve`] calls, and assembles and factors a
//! new iteration matrix only when
//!
//! * it holds no factor yet, or the caller called
//!   [`NewtonEngine::invalidate_jacobian`];
//! * the system dimension or the linear-solver backend changed;
//! * the contraction rate `ρ = ‖Δₖ‖/‖Δₖ₋₁‖` measured on the kept matrix
//!   exceeded 1/2, or the line search damped (`λ < 1`);
//! * four iterations have already been solved against it.
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

    /// Scale dividing `‖r‖₂` in the relative-residual convergence law
    /// (ignored under the step-norm law). Default 1 (absolute residual).
    fn residual_scale(&self) -> f64 {
        1.0
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
    /// factorisation cache so the
    /// [`linsolve::LinearSolverKind::GmresCirculant`] backend can build
    /// its structure-exploiting preconditioner; `None` (the default)
    /// makes that backend fall back to ILU(0).
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
/// **Breaking note (defaults unification):** this policy replaces the
/// four hand-rolled loops' option structs. The unified defaults are the
/// historical `transim::NewtonOptions` values — `max_iter = 50`,
/// `abstol = 1e-12`, `reltol = 1e-9`, halving line search down to
/// `λ = 1/64` — which the MPDE and WaMPDE loops already shared; the old
/// `min_damping` field is now [`Damping::LineSearch::min_lambda`].
/// Shooting keeps its own budget (40) and relative-residual law through
/// `ShootingOptions`, mapped onto [`NewtonPolicy::residual_tol`].
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
    /// `Some(tol)` switches to the relative-residual convergence law:
    /// converged when `‖r‖₂ / residual_scale < tol`, checked before
    /// each factorisation.
    pub residual_tol: Option<f64>,
    /// Linear-solver backend for the per-iteration factorisation.
    pub linear_solver: LinearSolverKind,
    /// Reuse cached symbolic analysis across KLU factorisations
    /// (on by default; the ablation knob for `repro --table newton`).
    pub reuse_symbolic: bool,
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
            reuse_symbolic: true,
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

/// Iterations solved against one factorisation, across solves, before
/// the next iteration refactors whatever the measured rate.
const MAX_KEPT_USES: usize = 4;

/// The factorisation an engine keeps for modified Newton.
#[derive(Debug, Clone, Copy)]
struct KeptMatrix {
    dim: usize,
    kind: LinearSolverKind,
    /// Iterations solved against it after the one that factored it.
    uses: usize,
    /// The last iteration on it damped or contracted too slowly.
    stale: bool,
}

impl KeptMatrix {
    fn needs_refresh(&self) -> bool {
        self.stale || self.uses >= MAX_KEPT_USES
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

    /// Drops the kept iteration matrix, so the next iteration under
    /// [`NewtonPolicy::reuse_jacobian`] assembles and factors a new one.
    /// Call it when the system changes in a way the contraction rate
    /// would only catch after wasted iterations (a new step size or
    /// integration scheme).
    pub fn invalidate_jacobian(&mut self) {
        self.kept = None;
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

        let cache = match &mut self.cache {
            Some(c) => {
                c.set_kind(policy.linear_solver);
                c
            }
            slot => slot.insert(FactorCache::new(policy.linear_solver)),
        };
        cache.set_reuse(policy.reuse_symbolic);
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
        let scale = sys.residual_scale();

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
                    // Relative-residual law: check before paying for a
                    // factorisation (shooting's flow already ran).
                    if let Some(tol) = policy.residual_tol {
                        if rnorm.is_finite() && rnorm / scale < tol {
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

                    let refresh = full_newton || self.kept.is_none_or(|k| k.needs_refresh());
                    let factor_mode = if refresh {
                        let factor_pre = cache.stats();
                        // Factor the Jacobian: sparse backends prefer a
                        // triplet-assembled stamp; dense (or systems without
                        // sparse assembly) stamp the full matrix. The dense
                        // buffer is allocated lazily so the sparse path of a
                        // large system never touches the O(n²) matrix.
                        let use_triplets = !matches!(policy.linear_solver, LinearSolverKind::Dense)
                            && {
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
                            uses: 0,
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

                    // dx = -J⁻¹ r.
                    self.dx.copy_from_slice(&self.r);
                    if let Err(e) = cache.solve_in_place(&mut self.dx) {
                        break 'solve Err(NewtonError::Singular { cause: e.cause });
                    }
                    for v in self.dx.iter_mut() {
                        *v = -*v;
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
                            if !refresh {
                                kept.uses += 1;
                            }
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
    fn sparse_backends_reach_the_same_root() {
        for kind in [LinearSolverKind::Klu, LinearSolverKind::gmres_default()] {
            let mut x = vec![2.0, 0.5];
            let policy = NewtonPolicy {
                linear_solver: kind,
                ..Default::default()
            };
            newton_solve(&TwoDim, &mut x, &policy).unwrap();
            assert!((x[0] - 1.0).abs() < 1e-9, "{}", kind.label());
            assert!((x[1] - 1.0).abs() < 1e-9, "{}", kind.label());
        }
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
        // Starting exactly at the root with the relative-residual law:
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
    fn reuse_can_be_disabled() {
        let policy = NewtonPolicy {
            linear_solver: LinearSolverKind::Klu,
            reuse_symbolic: false,
            ..Default::default()
        };
        let mut x = vec![2.0, 0.5];
        struct SparseTwo;
        impl NewtonSystem for SparseTwo {
            fn dim(&self) -> usize {
                2
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                TwoDim.residual(x, out);
            }
            fn jacobian(&self, x: &[f64], out: &mut DMat) {
                TwoDim.jacobian(x, out);
            }
            fn jacobian_triplets(&self, x: &[f64], out: &mut Triplets) -> bool {
                out.push(0, 0, 2.0 * x[0]);
                out.push(0, 1, 2.0 * x[1]);
                out.push(1, 0, 1.0);
                out.push(1, 1, -1.0);
                true
            }
        }
        let rep = newton_solve(&SparseTwo, &mut x, &policy).unwrap();
        assert_eq!(rep.symbolic_reuses, 0, "{rep:?}");
        assert!(rep.factorisations > 1);
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

    #[test]
    fn invalidate_forces_a_fresh_factorisation() {
        let reuse = NewtonPolicy {
            reuse_jacobian: true,
            ..Default::default()
        };
        let mut engine = NewtonEngine::new();
        engine.solve(&Quadratic, &mut [3.0], &reuse).unwrap();
        // The traced `factor` mode of the first iteration from x = 2.1.
        let first_mode = |engine: &mut NewtonEngine| {
            use std::sync::Arc;
            let rec = Arc::new(obskit::CollectingRecorder::new());
            let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
            let mut x = [2.1];
            engine.solve(&Quadratic, &mut x, &reuse).unwrap();
            assert!((x[0] - 2.0).abs() < 1e-9);
            let first = rec.points().into_iter().find(|p| p.name == "newton.iter");
            first.and_then(|p| p.attrs.into_iter().find(|(k, _)| *k == "factor"))
        };
        let kept = ("factor", obskit::AttrValue::Str("kept"));
        let fresh = ("factor", obskit::AttrValue::Str("fresh"));
        assert_eq!(first_mode(&mut engine), Some(kept));
        engine.invalidate_jacobian();
        assert_eq!(first_mode(&mut engine), Some(fresh));
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
