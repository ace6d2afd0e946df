//! Nonlinear solving and transient simulation of circuit DAEs.
//!
//! This crate is the "conventional methods" substrate of the reproduction:
//!
//! * [`newton`] — damped Newton–Raphson on the shared `newtonkit`
//!   engine (with pattern-reusing sparse refactorisation);
//! * [`dcop`] — DC operating point with gmin continuation;
//! * [`integrate`] — transient integration of
//!   `d/dt q(x) + f(x) = b(t)` with Backward Euler, Trapezoidal and BDF2
//!   methods, fixed or LTE-adaptive steps. This is the baseline the paper
//!   compares the WaMPDE against ("ODE: 50 pts/cycle" etc. in Figure 12).
//!
//! # Example
//!
//! ```
//! use circuitdae::analytic::LinearOscillator;
//! use transim::integrate::{run_transient, Integrator, StepControl, TransientOptions};
//!
//! # fn main() -> Result<(), transim::TransimError> {
//! let osc = LinearOscillator::undamped(1.0);
//! let opts = TransientOptions {
//!     integrator: Integrator::Trapezoidal,
//!     step: StepControl::Fixed(1e-3),
//!     ..Default::default()
//! };
//! let res = run_transient(&osc, &[1.0, 0.0], 0.0, 1.0, &opts)?;
//! let last = res.states.last().unwrap();
//! assert!((last[0] - 1.0_f64.cos()).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

pub mod dcop;
pub mod deck;
pub mod error;
pub mod integrate;
pub mod newton;

pub use dcop::{dc_operating_point, dc_operating_point_from};
pub use deck::{run_tran_spec, run_tran_spec_warm};
pub use error::TransimError;
pub use integrate::{
    reference_fits, run_fixed_per_cycle, run_transient, run_transient_seeded, run_transient_with,
    Integrator, StepControl, TransientOptions, TransientResult,
};
pub use newton::newton_solve;
