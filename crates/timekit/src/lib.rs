//! Shared adaptive time-integration engine.
//!
//! Every time-stepping solver in this workspace — `transim`'s transient,
//! the MPDE envelope and the WaMPDE envelope — faces the same problems:
//! pick an implicit scheme and its (variable-step) coefficients, predict
//! the next state from accepted history, and decide — from a
//! local-truncation-error estimate — whether to accept the step and how
//! large the next one should be. `timekit` owns those answers once, and
//! the step loop that strings them together, exactly as `linsolve` owns
//! the inner linear solves.
//!
//! The pieces:
//!
//! * [`Scheme`] — the scheme table (Backward Euler / Trapezoidal /
//!   BDF2) with order, error constants, deck-facing names, and the
//!   step-residual coefficients `a0h`, `θ`, and the history term
//!   ([`Scheme::step_coeffs`]); uniform cyclic stencils for periodic
//!   boundary problems ([`Scheme::cyclic_stencil`]).
//! * [`History`] — the ring of accepted points backing both the Newton
//!   predictor and the predictor–corrector LTE estimate
//!   ([`History::predict`]).
//! * [`StepPolicy`] / [`StepController`] — fixed or LTE-adaptive step
//!   selection with one canonical `dt_init`/`dt_min`/`dt_max`
//!   auto-defaulting rule, the ≤1 % final-step stretch, and one
//!   safety-factor accept law `h·0.9·err^(−β1)·err_prev^(β2)` whose
//!   [`Gains`] the caller picks: the elementary `(1/(k+1), 0)` for
//!   transients, Gustafsson's PI `(0.7/(k+1), 0.4/(k+1))` for envelopes.
//! * [`Tolerance`] — the adaptive controller's error weights
//!   `wᵢ = atol + rtol·sᵢ`, with `sᵢ` the entry's own magnitude or, for
//!   collocation samples, its variable's amplitude over the period
//!   ([`Scale`]), shared by the LTE estimate and DASSL's Newton test
//!   ([`Tolerance::newton_norm`], bound [`NEWTON_TOL`]), which a solver
//!   may apply to the step it is handed.
//! * [`drive`] — the one step loop (propose → predict → solve → LTE →
//!   accept/reject → history) over a solver's [`StepSystem`], which
//!   supplies only the implicit solve of a step and the bookkeeping of
//!   an accepted one.
//!
//! Driving `y' = −y` (`q(y) = y`, `g(y) = y`) to `t = 1`:
//!
//! ```
//! use obskit::RunStats;
//! use std::ops::ControlFlow;
//! use timekit::{drive, HistoryPoint, Scheme, Step, StepPolicy, StepSystem};
//!
//! struct Decay {
//!     y_prev: f64,
//!     ts: Vec<f64>,
//! }
//!
//! impl StepSystem for Decay {
//!     type Error = String;
//!     const TIME_ATTR: &'static str = "t";
//!
//!     // a0h·y + qlin + θ·y + (1 − θ)·y_prev = 0 is linear in y.
//!     fn solve(&mut self, step: &Step<'_>, z: &mut [f64], _: &mut RunStats) -> Result<(), String> {
//!         let c = step.coeffs;
//!         z[0] = -(step.qlin[0] + (1.0 - c.theta) * self.y_prev) / (c.a0h + c.theta);
//!         Ok(())
//!     }
//!
//!     fn accept(
//!         &mut self,
//!         step: &Step<'_>,
//!         z: &[f64],
//!         q: &mut [f64],
//!     ) -> Result<ControlFlow<()>, String> {
//!         self.y_prev = z[0];
//!         self.ts.push(step.t_new);
//!         q[0] = z[0];
//!         Ok(ControlFlow::Continue(()))
//!     }
//!
//!     fn step_too_small(&self, at_time: f64, step: f64) -> String {
//!         format!("step {step:e} too small at t = {at_time}")
//!     }
//! }
//!
//! # fn main() -> Result<(), String> {
//! let scheme = Scheme::Trapezoidal;
//! let ctl = StepPolicy::adaptive(1e-6, 1e-12).resolve(1.0, scheme.order())?;
//! let mut sys = Decay { y_prev: 1.0, ts: Vec::new() };
//! let start = HistoryPoint { t: 0.0, z: vec![1.0], q: vec![1.0] };
//! let mut stats = RunStats::default();
//! drive(&mut sys, scheme, ctl, start, 1.0, &mut stats)?;
//! assert_eq!(sys.ts.last(), Some(&1.0));
//! assert_eq!(stats.steps, sys.ts.len());
//! assert!((sys.y_prev - (-1.0f64).exp()).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```

pub mod controller;
pub mod history;
pub mod scheme;
pub mod stepper;

pub use controller::{
    Gains, Scale, StepController, StepPolicy, StepVerdict, Tolerance, NEWTON_TOL,
};
pub use history::{History, HistoryPoint};
pub use scheme::{Scheme, StepCoeffs};
pub use stepper::{drive, Step, StepSystem};
