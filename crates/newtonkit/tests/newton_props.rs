//! Property tests for the shared Newton engine:
//!
//! * accepted damped steps never increase the residual norm unless the
//!   line search bottomed out at its `min_lambda` floor (the SPICE
//!   escape hatch, reported in `NewtonStats::min_lambda_hits`);
//! * iteration counts always respect the configured budget;
//! * per-solve statistics are internally consistent (factorisation,
//!   reuse, and residual-evaluation counters).

use newtonkit::{NewtonEngine, NewtonError, NewtonPolicy, NewtonSystem};
use numkit::vecops::norm2;
use numkit::DMat;
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
}
