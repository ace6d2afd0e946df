//! Property tests for the shared Newton engine:
//!
//! * accepted damped steps never increase the residual norm unless the
//!   line search bottomed out at its `min_lambda` floor (the SPICE
//!   escape hatch, reported in `NewtonStats::min_lambda_hits`);
//! * iteration counts always respect the configured budget;
//! * per-solve statistics are internally consistent (factorisation,
//!   reuse, and residual-evaluation counters);
//! * with Jacobian reuse off the engine is plain damped Newton, iterate
//!   for iterate; with it on, a stepped sequence of solves reaches the
//!   same roots within the step-norm tolerance on fewer factorisations.

use newtonkit::{NewtonEngine, NewtonError, NewtonPolicy, NewtonStats, NewtonSystem};
use numkit::vecops::{norm2, wrms_norm};
use numkit::{DMat, DenseLu};
use proptest::prelude::*;
use sparsekit::Triplets;

/// Diagonally dominant linear part plus a cubic diagonal perturbation:
/// `r_i = Σ_j A_ij·x_j + c_i·x_i³ − b_i`. Well-posed for every draw, and
/// nonlinear enough to exercise damping.
struct PolySys {
    n: usize,
    a: Vec<f64>, // row-major n×n
    c: Vec<f64>,
    b: Vec<f64>,
}

impl PolySys {
    fn build(n: usize, off: &[f64], c: &[f64], b: &[f64]) -> Self {
        let mut a = vec![0.0; n * n];
        let mut k = 0;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    a[i * n + j] = 4.0 + c[i]; // dominant diagonal
                } else {
                    a[i * n + j] = off[k % off.len()] - 0.5; // in (-0.5, 0.5)
                    k += 1;
                }
            }
        }
        PolySys {
            n,
            a,
            c: c.to_vec(),
            b: b.to_vec(),
        }
    }
}

impl NewtonSystem for PolySys {
    fn dim(&self) -> usize {
        self.n
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = -self.b[i] + self.c[i] * x[i].powi(3);
            for (j, &xj) in x.iter().enumerate() {
                acc += self.a[i * self.n + j] * xj;
            }
            *slot = acc;
        }
    }

    fn jacobian(&self, x: &[f64], out: &mut DMat) {
        for (i, &xi) in x.iter().enumerate() {
            for j in 0..self.n {
                out[(i, j)] = self.a[i * self.n + j];
            }
            out[(i, i)] += 3.0 * self.c[i] * xi * xi;
        }
    }

    fn jacobian_triplets(&self, x: &[f64], out: &mut Triplets) -> bool {
        // Push every entry (zeros included) so the pattern is constant
        // across iterations and the symbolic cache always applies.
        for (i, &xi) in x.iter().enumerate() {
            for j in 0..self.n {
                out.push(i, j, self.a[i * self.n + j]);
            }
            out.push(i, i, 3.0 * self.c[i] * xi * xi);
        }
        true
    }
}

fn rnorm_at(sys: &PolySys, x: &[f64]) -> f64 {
    let mut r = vec![0.0; sys.dim()];
    sys.residual(x, &mut r);
    norm2(&r)
}

/// Damped Newton with the default policy written out against `DenseLu`:
/// a fresh Jacobian every iteration, the halving line search down to
/// 1/64, the WRMS step-norm law. Returns the iterations and residual
/// evaluations of a converged solve, `None` otherwise.
fn reference_newton(sys: &PolySys, x: &mut [f64], max_iter: usize) -> Option<(usize, usize)> {
    let n = sys.dim();
    let mut r = vec![0.0; n];
    sys.residual(x, &mut r);
    let mut evals = 1;
    let mut rnorm = norm2(&r);
    let mut jac = DMat::zeros(n, n);
    let mut trial = vec![0.0; n];
    let mut r_trial = vec![0.0; n];
    for iter in 1..=max_iter {
        sys.jacobian(x, &mut jac);
        let mut dx = r.clone();
        DenseLu::factor(&jac).ok()?.solve_in_place(&mut dx).ok()?;
        dx.iter_mut().for_each(|v| *v = -*v);
        let mut lambda = 1.0_f64;
        loop {
            for ((t, &xi), &di) in trial.iter_mut().zip(x.iter()).zip(&dx) {
                *t = xi + lambda * di;
            }
            sys.residual(&trial, &mut r_trial);
            evals += 1;
            let rt = norm2(&r_trial);
            if rt.is_finite() && (rt <= rnorm || lambda <= 1.0 / 64.0) {
                x.copy_from_slice(&trial);
                r.copy_from_slice(&r_trial);
                rnorm = rt;
                break;
            }
            lambda *= 0.5;
        }
        let scaled: Vec<f64> = dx.iter().map(|d| lambda * d).collect();
        if wrms_norm(&scaled, x, 1e-12, 1e-9) <= 1.0 && rnorm.is_finite() {
            return Some((iter, evals));
        }
    }
    None
}

/// The `k`-th system of a stepped sequence: the right-hand side drifts
/// by `k·drift`, as a time-stepping caller's step systems do.
fn stepped(n: usize, off: &[f64], c: &[f64], b: &[f64], drift: &[f64], k: usize) -> PolySys {
    let bk: Vec<f64> = b
        .iter()
        .zip(drift)
        .map(|(bi, di)| bi + k as f64 * di)
        .collect();
    PolySys::build(n, off, c, &bk)
}

fn reuse_policy(reuse_jacobian: bool) -> NewtonPolicy {
    NewtonPolicy {
        reuse_jacobian,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Driving the engine one iteration at a time, every accepted damped
    /// step leaves `‖r‖₂` no larger than before — except when the line
    /// search bottomed out, which the stats must report.
    #[test]
    fn accepted_damped_steps_never_increase_residual(
        off in prop::collection::vec(0.0..1.0f64, 12),
        c in prop::collection::vec(0.0..0.4f64, 4),
        b in prop::collection::vec(-2.0..2.0f64, 4),
        x0 in prop::collection::vec(-3.0..3.0f64, 4),
    ) {
        let sys = PolySys::build(4, &off, &c, &b);
        let mut engine = NewtonEngine::new();
        let one_step = NewtonPolicy { max_iter: 1, ..Default::default() };
        let mut x = x0.clone();
        let mut prev = rnorm_at(&sys, &x);
        for _step in 0..25 {
            let converged = match engine.solve(&sys, &mut x, &one_step) {
                Ok(_) => true,
                Err(NewtonError::NoConvergence { .. }) => false,
                Err(e) => panic!("unexpected {e}"),
            };
            let stats = engine.stats();
            let now = rnorm_at(&sys, &x);
            prop_assert!(
                now <= prev || stats.min_lambda_hits > 0,
                "residual grew {prev} -> {now} without a floor hit: {stats:?}"
            );
            prev = now;
            if converged {
                break;
            }
        }
    }

    /// The engine never exceeds its iteration budget, converged or not.
    #[test]
    fn iteration_counts_respect_budgets(
        off in prop::collection::vec(0.0..1.0f64, 12),
        c in prop::collection::vec(0.0..0.4f64, 3),
        b in prop::collection::vec(-2.0..2.0f64, 3),
        x0 in prop::collection::vec(-3.0..3.0f64, 3),
        budget in 1usize..8,
    ) {
        let sys = PolySys::build(3, &off, &c, &b);
        let policy = NewtonPolicy { max_iter: budget, ..Default::default() };
        let mut engine = NewtonEngine::new();
        let mut x = x0.clone();
        let _ = engine.solve(&sys, &mut x, &policy);
        let stats = engine.stats();
        prop_assert!(stats.iterations <= budget, "{stats:?}");
        if let Err(NewtonError::NoConvergence { iterations, .. }) =
            engine.solve(&sys, &mut x, &NewtonPolicy { max_iter: 0, ..policy })
        {
            prop_assert_eq!(iterations, 0);
        }
    }

    /// Counter consistency: one factorisation per iteration, at least one
    /// residual evaluation per iteration plus the initial one, reuse and
    /// damping counters bounded by the factorisation/iteration counts —
    /// and on the constant-pattern sparse path, every factorisation after
    /// the first reuses the symbolic analysis.
    #[test]
    fn stats_are_consistent(
        off in prop::collection::vec(0.0..1.0f64, 12),
        c in prop::collection::vec(0.0..0.4f64, 4),
        b in prop::collection::vec(-2.0..2.0f64, 4),
        x0 in prop::collection::vec(-3.0..3.0f64, 4),
        sparse in 0usize..2,
    ) {
        let sys = PolySys::build(4, &off, &c, &b);
        let policy = NewtonPolicy {
            linear_solver: if sparse == 1 {
                linsolve::LinearSolverKind::Klu
            } else {
                linsolve::LinearSolverKind::Dense
            },
            ..Default::default()
        };
        let mut engine = NewtonEngine::new();
        let mut x = x0.clone();
        let result = engine.solve(&sys, &mut x, &policy);
        let stats = engine.stats();
        prop_assert_eq!(stats.factorisations, stats.iterations, "{:?}", stats);
        prop_assert!(stats.residual_evals > stats.iterations, "{stats:?}");
        prop_assert!(stats.symbolic_reuses <= stats.factorisations, "{stats:?}");
        prop_assert!(stats.damped_steps <= stats.iterations, "{stats:?}");
        prop_assert!(stats.min_lambda_hits <= stats.damped_steps, "{stats:?}");
        if sparse == 1 {
            prop_assert_eq!(
                stats.symbolic_reuses,
                stats.factorisations.saturating_sub(1),
                "constant pattern must reuse: {:?}", stats
            );
        }
        if let Ok(rep) = result {
            prop_assert_eq!(rep, stats);
            prop_assert!(rep.residual_norm.is_finite());
        }
    }

    /// Reuse off is plain damped Newton: one engine carried across a
    /// stepped sequence of solves gives the reference's iterates bit for
    /// bit, one factorisation per iteration and no kept matrix.
    #[test]
    fn reuse_off_is_plain_newton(
        off in prop::collection::vec(0.0..1.0f64, 12),
        c in prop::collection::vec(0.0..0.4f64, 4),
        b in prop::collection::vec(-2.0..2.0f64, 4),
        drift in prop::collection::vec(-0.05..0.05f64, 4),
        x0 in prop::collection::vec(-3.0..3.0f64, 4),
    ) {
        let mut engine = NewtonEngine::new();
        let mut x = x0.clone();
        let mut x_ref = x0.clone();
        for k in 0..6 {
            let sys = stepped(4, &off, &c, &b, &drift, k);
            let expected = reference_newton(&sys, &mut x_ref, 50);
            let got = engine.solve(&sys, &mut x, &reuse_policy(false));
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&x), bits(&x_ref), "solve {}", k);
            let Some((iterations, residual_evals)) = expected else {
                prop_assert!(got.is_err());
                break;
            };
            let stats = got.expect("the reference converged");
            prop_assert_eq!(
                stats,
                NewtonStats {
                    iterations,
                    residual_norm: rnorm_at(&sys, &x),
                    residual_evals,
                    factorisations: iterations,
                    symbolic_reuses: 0,
                    jacobian_reuses: 0,
                    damped_steps: stats.damped_steps,
                    min_lambda_hits: stats.min_lambda_hits,
                }
            );
        }
    }

    /// Reuse on reaches the roots full Newton reaches, within the
    /// step-norm tolerance, on a stepped sequence of solves; every
    /// iteration either factors or solves against the kept matrix, and
    /// each attempt keeps to the iteration budget.
    #[test]
    fn reuse_on_reaches_the_same_roots(
        off in prop::collection::vec(0.0..1.0f64, 12),
        c in prop::collection::vec(0.0..0.4f64, 4),
        b in prop::collection::vec(-2.0..2.0f64, 4),
        drift in prop::collection::vec(-0.05..0.05f64, 4),
        x0 in prop::collection::vec(-3.0..3.0f64, 4),
    ) {
        let mut engine = NewtonEngine::new();
        let mut x = x0.clone();
        let mut x_full = x0.clone();
        let (mut factorisations, mut iterations) = (0, 0);
        for k in 0..12 {
            let sys = stepped(4, &off, &c, &b, &drift, k);
            NewtonEngine::new()
                .solve(&sys, &mut x_full, &reuse_policy(false))
                .expect("full Newton converges on a diagonally dominant system");
            let stats = engine
                .solve(&sys, &mut x, &reuse_policy(true))
                .expect("reuse converges wherever full Newton does");
            let diff: Vec<f64> = x.iter().zip(&x_full).map(|(a, b)| a - b).collect();
            let dist = wrms_norm(&diff, &x_full, 1e-12, 1e-9);
            prop_assert!(dist <= 1.0, "solve {}: root off by {} tolerances", k, dist);
            prop_assert!(stats.iterations <= 2 * 50, "{stats:?}");
            prop_assert!(stats.factorisations <= stats.iterations, "{stats:?}");
            prop_assert_eq!(
                stats.factorisations + stats.jacobian_reuses,
                stats.iterations,
                "{:?}", stats
            );
            factorisations += stats.factorisations;
            iterations += stats.iterations;
        }
        prop_assert!(factorisations < iterations, "no matrix was ever kept");
    }

    /// A budget too small to converge fails with the configured budget
    /// whether or not matrices are kept; the full-Newton restart at most
    /// doubles the iterations spent.
    #[test]
    fn reuse_respects_the_iteration_budget(
        off in prop::collection::vec(0.0..1.0f64, 12),
        c in prop::collection::vec(0.0..0.4f64, 4),
        b in prop::collection::vec(-2.0..2.0f64, 4),
        drift in prop::collection::vec(-0.05..0.05f64, 4),
        budget in 1usize..4,
    ) {
        let mut engine = NewtonEngine::new();
        let mut x = vec![0.0; 4];
        for k in 0..6 {
            let sys = stepped(4, &off, &c, &b, &drift, k);
            let tight = NewtonPolicy {
                max_iter: budget,
                abstol: 1e-300,
                reltol: 1e-300,
                ..reuse_policy(true)
            };
            // Converge loosely first so a matrix is kept, then ask for
            // the impossible.
            let _ = engine.solve(&sys, &mut x, &reuse_policy(true));
            match engine.solve(&sys, &mut x, &tight) {
                Err(NewtonError::NoConvergence { iterations, .. }) => {
                    prop_assert_eq!(iterations, budget)
                }
                Ok(stats) => prop_assert!(stats.iterations <= budget, "{stats:?}"),
                Err(e) => panic!("unexpected {e}"),
            }
            let stats = engine.stats();
            prop_assert!(stats.iterations <= 2 * budget, "{stats:?}");
            prop_assert!(stats.factorisations <= stats.iterations, "{stats:?}");
        }
    }
}
