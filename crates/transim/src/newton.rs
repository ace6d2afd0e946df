//! Damped Newton–Raphson — a thin adapter over the shared
//! `crates/newtonkit` engine.
//!
//! The hand-rolled loop that used to live here (and its siblings in the
//! MPDE, WaMPDE, and shooting crates) is now one implementation:
//! [`newtonkit::NewtonEngine`]. This module keeps the historical
//! `transim` surface as re-exports plus the [`TransimError`] mapping:
//!
//! * [`NonlinearSystem`] *is* [`newtonkit::NewtonSystem`] — same
//!   `dim`/`residual`/`jacobian`/`jacobian_triplets` shape, now with
//!   optional scaling/damping hooks (neutral defaults).
//! * [`NewtonOptions`] *is* [`newtonkit::NewtonPolicy`].
//!   **Breaking note:** the old `min_damping: f64` field became the
//!   [`newtonkit::Damping::LineSearch`] variant's `min_lambda` (same
//!   default, 1/64) under the new `damping` field; the policy also gains
//!   `residual_tol` (None), and `reuse_symbolic` (true) — with
//!   `..Default::default()` struct updates, existing call sites keep
//!   compiling and keep their historical defaults
//!   (`max_iter = 50`, `abstol = 1e-12`, `reltol = 1e-9`).
//! * [`NewtonReport`] *is* [`newtonkit::NewtonStats`] — `iterations` and
//!   `residual_norm` as before, plus factorisation/reuse counters.
//!
//! [`newton_solve`] remains the one-shot entry point. Loop-heavy callers
//! (`run_transient`, `dc_operating_point`) hold a
//! [`newtonkit::NewtonEngine`] across steps instead, so KLU
//! factorisations reuse the cached symbolic analysis across the whole
//! run, not just within one solve.

use crate::error::TransimError;

pub use newtonkit::{
    Damping, NewtonPolicy as NewtonOptions, NewtonStats as NewtonReport,
    NewtonSystem as NonlinearSystem,
};

/// Maps the solver-agnostic engine failure into [`TransimError`], tagged
/// with `at_time`: the failing step's end time in a transient, NaN for a
/// solve outside time (DC, one-shot [`newton_solve`]).
pub(crate) fn map_newton_err(e: newtonkit::NewtonError, at_time: f64) -> TransimError {
    match e {
        newtonkit::NewtonError::Singular { .. } => TransimError::SingularJacobian { at_time },
        newtonkit::NewtonError::NoConvergence {
            iterations,
            residual,
        } => TransimError::NewtonFailed {
            iterations,
            residual,
            at_time,
        },
        newtonkit::NewtonError::BadInput(msg) => TransimError::BadInput(msg),
    }
}

/// Solves `r(x) = 0` by damped Newton, updating `x` in place — the
/// historical `transim` entry point, now delegating to the shared
/// [`newtonkit`] engine (symbolic reuse spans the iterations of this
/// solve; hold a [`newtonkit::NewtonEngine`] yourself to span more).
///
/// # Errors
///
/// * [`TransimError::SingularJacobian`] when factorisation fails;
/// * [`TransimError::NewtonFailed`] when the iteration budget is spent.
pub fn newton_solve<S: NonlinearSystem + ?Sized>(
    sys: &S,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonReport, TransimError> {
    newtonkit::newton_solve(sys, x, opts).map_err(|e| map_newton_err(e, f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::DMat;

    /// r(x) = x² − 4 (root at ±2) — the historical smoke test, now
    /// exercising the re-exported engine and the error mapping.
    struct Quadratic;

    impl NonlinearSystem for Quadratic {
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

    #[test]
    fn re_exported_engine_converges() {
        let mut x = vec![3.0];
        let rep = newton_solve(&Quadratic, &mut x, &NewtonOptions::default()).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!(rep.iterations < 10);
    }

    #[test]
    fn historical_defaults_preserved() {
        let o = NewtonOptions::default();
        assert_eq!(o.max_iter, 50);
        assert_eq!(o.abstol, 1e-12);
        assert_eq!(o.reltol, 1e-9);
        assert_eq!(
            o.damping,
            Damping::LineSearch {
                min_lambda: 1.0 / 64.0
            }
        );
        assert!(o.reuse_symbolic);
    }

    #[test]
    fn budget_error_maps_to_newton_failed() {
        struct Hard;
        impl NonlinearSystem for Hard {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, x: &[f64], out: &mut [f64]) {
                out[0] = x[0].atan() + 2.0; // no root
            }
            fn jacobian(&self, x: &[f64], out: &mut DMat) {
                out[(0, 0)] = 1.0 / (1.0 + x[0] * x[0]);
            }
        }
        let mut x = vec![0.0];
        let opts = NewtonOptions {
            max_iter: 8,
            ..Default::default()
        };
        assert!(matches!(
            newton_solve(&Hard, &mut x, &opts),
            Err(TransimError::NewtonFailed { iterations: 8, .. })
        ));
    }

    #[test]
    fn singular_maps_to_singular_jacobian() {
        struct Flat;
        impl NonlinearSystem for Flat {
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
            newton_solve(&Flat, &mut x, &NewtonOptions::default()),
            Err(TransimError::SingularJacobian { .. })
        ));
    }
}
