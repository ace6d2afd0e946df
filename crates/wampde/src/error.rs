//! Error type for the WaMPDE solvers.

use newtonkit::NewtonError;
use std::fmt;

/// Errors from WaMPDE envelope / quasiperiodic solves.
#[derive(Debug, Clone, PartialEq)]
pub enum WampdeError {
    /// The per-step (or global) Newton iteration failed.
    NewtonFailed {
        /// Slow time at which the failure occurred.
        at_t2: f64,
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// A linear solve inside Newton failed.
    LinearSolve {
        /// Slow time at which the failure occurred.
        at_t2: f64,
        /// Human-readable cause.
        cause: String,
    },
    /// Adaptive slow-time stepping underflowed its minimum step.
    StepTooSmall {
        /// Slow time at which the failure occurred.
        at_t2: f64,
        /// Rejected step.
        step: f64,
    },
    /// The phase condition is degenerate for the chosen variable/harmonic
    /// (that coefficient is ≈ 0, so it cannot pin the warped phase).
    DegeneratePhase {
        /// Chosen variable index.
        var: usize,
        /// Chosen harmonic.
        harmonic: usize,
    },
    /// Invalid configuration or initial data.
    BadInput(String),
}

impl fmt::Display for WampdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WampdeError::NewtonFailed {
                at_t2,
                iterations,
                residual,
            } => write!(
                f,
                "wampde newton failed at t2={at_t2:.6e} after {iterations} iterations (residual {residual:.3e})"
            ),
            WampdeError::LinearSolve { at_t2, cause } => {
                write!(f, "wampde linear solve failed at t2={at_t2:.6e}: {cause}")
            }
            WampdeError::StepTooSmall { at_t2, step } => {
                write!(f, "wampde slow-time step {step:.3e} underflow at t2={at_t2:.6e}")
            }
            WampdeError::DegeneratePhase { var, harmonic } => write!(
                f,
                "phase condition degenerate: variable {var} has no harmonic-{harmonic} content"
            ),
            WampdeError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for WampdeError {}

impl WampdeError {
    /// Tags a failed Newton solve with the slow time `at_t2` it was
    /// solving for (0 for the steady-state and periodic solves).
    pub(crate) fn from_newton(e: NewtonError, at_t2: f64) -> Self {
        match e {
            NewtonError::Singular { cause } => WampdeError::LinearSolve { at_t2, cause },
            NewtonError::NoConvergence {
                iterations,
                residual,
            } => WampdeError::NewtonFailed {
                at_t2,
                iterations,
                residual,
            },
            NewtonError::BadInput(msg) => WampdeError::BadInput(msg),
        }
    }
}

/// Rejects a non-positive (or NaN) `v` with "`what` must be positive".
pub(crate) fn check_positive(v: f64, what: &str) -> Result<(), WampdeError> {
    // `partial_cmp` keeps the NaN-rejecting behavior of `!(v > 0.0)`.
    if v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) {
        Ok(())
    } else {
        Err(WampdeError::BadInput(format!("{what} must be positive")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = WampdeError::DegeneratePhase {
            var: 1,
            harmonic: 2,
        };
        assert!(e.to_string().contains("variable 1"));
        let e = WampdeError::StepTooSmall {
            at_t2: 1.0,
            step: 1e-12,
        };
        assert!(e.to_string().contains("underflow"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WampdeError>();
    }
}
