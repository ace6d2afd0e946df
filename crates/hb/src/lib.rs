//! The spectral collocation core shared by harmonic balance, the MPDE
//! and the WaMPDE.
//!
//! Harmonic balance (Nakhla & Vlach \[NV76\]; Kundert et al.) collocates
//! a periodic DAE at `N0 = 2M+1` uniform samples of the normalised
//! period; the `mpde` and `wampde` time-steppers are the same collocation
//! along the (warped) fast axis plus a time discretisation along the slow
//! axis. [`colloc::Colloc`] holds what they share: the sample layout,
//! spectral differentiation, the phase row and the input checks.
//! [`Colloc::parts`] is the one builder of a collocation grid's
//! `linsolve::JacobianParts`: harmonic balance (`inv_h = 0`, `θ = 1`),
//! both envelope steps and the bench workloads all describe their
//! Jacobians through it.
//!
//! The solvers live in `wampde`: harmonic balance is
//! `wampde::harmonic_balance`, the steady (`a0h = 0`, `θ = 1`) case of
//! the envelope's collocation step `wampde::step::CollocStep`.

pub mod colloc;

pub use colloc::Colloc;
