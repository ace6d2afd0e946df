//! The Warped Multirate Partial Differential Equation (WaMPDE).
//!
//! This crate is the paper's primary contribution. For a circuit DAE
//! `d/dt q(x) + f(x) = b(t)` (eq. (12)) the two-time WaMPDE (eq. (16)) is
//!
//! ```text
//! ω(t2)·∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b(t2),
//! ```
//!
//! whose solution `x̂(t1, t2)` — 1-periodic in the *warped* time `t1` —
//! recovers a solution of the original DAE through the warping function
//! (eq. (17)):
//!
//! ```text
//! x(t) = x̂(φ(t), t),   φ(t) = ∫₀ᵗ ω(τ) dτ.
//! ```
//!
//! The local frequency `ω(t2)` is an explicit unknown pinned by the phase
//! condition `Im{X̂ᵏ_l(t2)} = 0` (eq. (20)), which simultaneously removes
//! the `t1`-translation ambiguity and prevents the unbounded phase-error
//! growth of transient integration.
//!
//! Discretisation (Section 4 of the paper, mixed frequency–time): harmonic
//! balance with `N0 = 2M+1` collocation samples along `t1` (the shared
//! [`hb::Colloc`] core) and a `timekit` scheme along `t2` (BDF2 by
//! default; Backward Euler and Trapezoidal from the same table). Two
//! solution regimes:
//!
//! * [`envelope::solve_envelope`] — initial conditions in `t2`:
//!   envelope-modulated FM transients (paper Figures 7–12);
//! * [`quasiperiodic::solve_quasiperiodic`] — periodic boundary conditions
//!   in `t2`: FM/AM-quasiperiodic steady states, mode locking and period
//!   multiplication as special cases (Section 4.1).
//!
//! Freezing ω at a carrier `f1` ([`OmegaMode::Frozen`]) and forcing with
//! a bivariate `b̂(t1, t2)` ([`BivariateForcing`]) turns the envelope into
//! the unwarped MPDE of a non-autonomous circuit: [`solve_mpde`] runs it
//! through the same step loop, and the `mpde` crate adds the AM forcing
//! and the `.mpde` deck adapter.
//!
//! Modules: [`envelope`] and [`quasiperiodic`] are the two solvers;
//! [`step`] is the one implicit collocation step along `t2`, with ω free
//! or fixed, and [`harmonic_balance`] is its steady case (`a0h = 0`,
//! `θ = 1`): the classical forced and autonomous periodic steady state;
//! [`init`], [`options`], [`result`] and [`error`] are their inputs and
//! outputs; [`deck`] runs `.wampde` directives.
//!
//! # Example
//!
//! ```no_run
//! use circuitdae::circuits::{self, MemsVcoConfig};
//! use shooting::{oscillator_steady_state, ShootingOptions};
//! use wampde::{solve_envelope, WampdeInit, WampdeOptions};
//!
//! // The paper's VCO with the vacuum-damped MEMS varactor.
//! let cfg = MemsVcoConfig::paper_vacuum();
//! let dae = circuits::mems_vco(cfg);
//! let opts = WampdeOptions::default();
//!
//! // Initialise from the unforced periodic steady state…
//! let unforced = circuits::mems_vco(MemsVcoConfig::constant(1.5));
//! let orbit = oscillator_steady_state(&unforced, &ShootingOptions::default()).unwrap();
//! let init = WampdeInit::from_orbit(&orbit, &opts);
//!
//! // …then track three control periods of FM in warped time.
//! let result = solve_envelope(&dae, &init, 120e-6, &opts).unwrap();
//! println!("local frequency swing: {:?}", result.frequency_range());
//! ```

pub mod deck;
pub mod envelope;
pub mod error;
pub mod harmonic_balance;
pub mod init;
pub mod options;
pub mod quasiperiodic;
pub mod result;
pub mod step;

pub use deck::{run_wampde_spec, run_wampde_spec_warm};
pub use envelope::{solve_envelope, solve_mpde, BivariateForcing};
pub use error::WampdeError;
pub use init::WampdeInit;
pub use options::{LinearSolverKind, OmegaMode, T2Integrator, T2StepControl, WampdeOptions};
pub use quasiperiodic::{solve_quasiperiodic, QuasiPeriodicSolution};
pub use result::EnvelopeResult;
