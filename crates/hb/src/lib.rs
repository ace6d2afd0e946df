//! Harmonic balance: periodic steady state in the frequency domain.
//!
//! Harmonic balance (Nakhla & Vlach \[NV76\]; Kundert et al.) expands the
//! periodic solution in a truncated Fourier series and collocates the DAE
//! at `N0 = 2M+1` uniform samples of the normalised period. It is one of
//! the two classical steady-state baselines the paper discusses (the other
//! being shooting) — applicable to forced circuits and, with an explicit
//! frequency unknown plus a phase condition, to free-running oscillators;
//! but *not* to forced oscillators with FM-quasiperiodic response, which is
//! exactly the gap the WaMPDE fills.
//!
//! The [`colloc::Colloc`] core (sample layout, spectral differentiation,
//! phase row, input checks) is shared with the `mpde` and `wampde`
//! crates: their time-steppers are harmonic balance along the (warped)
//! fast axis plus a time discretisation along the slow axis.
//! [`Colloc::parts`] is the one builder of a collocation grid's
//! `linsolve::JacobianParts`: harmonic balance (`inv_h = 0`, `θ = 1`),
//! both envelope steps and the bench workloads all describe their
//! Jacobians through it.

pub mod colloc;
pub mod error;
pub mod solve;

pub use colloc::Colloc;
pub use error::HbError;
pub use solve::{solve_autonomous, solve_forced, HbOptions, HbSolution};
