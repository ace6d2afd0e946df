//! Damped Newton–Raphson on the shared [`newtonkit`] engine, with
//! failures mapped into [`TransimError`].
//!
//! [`newton_solve`] is the one-shot entry point. Loop-heavy callers
//! (`run_transient`, `dc_operating_point`) hold a
//! [`newtonkit::NewtonEngine`] across steps instead, so KLU
//! factorisations reuse the cached symbolic analysis across the whole
//! run, not just within one solve.

use crate::error::TransimError;
use newtonkit::{NewtonPolicy, NewtonStats, NewtonSystem};

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

/// Solves `r(x) = 0` by damped Newton, updating `x` in place, on the
/// shared [`newtonkit`] engine (symbolic reuse spans the iterations of
/// this solve; hold a [`newtonkit::NewtonEngine`] yourself to span more).
///
/// # Errors
///
/// * [`TransimError::SingularJacobian`] when factorisation fails;
/// * [`TransimError::NewtonFailed`] when the iteration budget is spent.
pub fn newton_solve<S: NewtonSystem + ?Sized>(
    sys: &S,
    x: &mut [f64],
    opts: &NewtonPolicy,
) -> Result<NewtonStats, TransimError> {
    newtonkit::newton_solve(sys, x, opts).map_err(|e| map_newton_err(e, f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtonkit::Damping;
    use numkit::DMat;

    /// r(x) = x² − 4 (root at ±2): the engine and the error mapping.
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

    #[test]
    fn engine_converges() {
        let mut x = vec![3.0];
        let rep = newton_solve(&Quadratic, &mut x, &NewtonPolicy::default()).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!(rep.iterations < 10);
    }

    #[test]
    fn policy_defaults() {
        let o = NewtonPolicy::default();
        assert_eq!(o.max_iter, 50);
        assert_eq!(o.abstol, 1e-12);
        assert_eq!(o.reltol, 1e-9);
        assert_eq!(
            o.damping,
            Damping::LineSearch {
                min_lambda: 1.0 / 64.0
            }
        );
    }

    #[test]
    fn budget_error_maps_to_newton_failed() {
        struct Hard;
        impl NewtonSystem for Hard {
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
        let opts = NewtonPolicy {
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
            Err(TransimError::SingularJacobian { .. })
        ));
    }
}
