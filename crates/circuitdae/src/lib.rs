//! Differential-algebraic circuit models.
//!
//! Circuits (and many other dynamical systems) are described by the vector
//! DAE of the paper's eq. (12):
//!
//! ```text
//! d/dt q(x(t)) + f(x(t)) = b(t)
//! ```
//!
//! * [`Dae`] is the abstract interface every simulation engine in this
//!   workspace consumes: charge/flux `q`, resistive `f`, forcing `b`, and
//!   their analytic Jacobians `C = ∂q/∂x`, `G = ∂f/∂x`.
//! * [`Circuit`] is a SPICE-style modified-nodal-analysis builder with
//!   device stamps ([`Device`]): R, L, C, nonlinear (negative-resistance)
//!   conductors, sources, and the paper's electrostatically actuated
//!   MEMS varactor.
//! * [`circuits`] contains ready-made circuits calibrated to Section 5 of
//!   the paper (LC-tank VCO at ≈0.75 MHz, vacuum- and air-damped MEMS
//!   variants), plus van der Pol oscillators used by tests and examples.
//!
//! # Example
//!
//! ```
//! use circuitdae::{Circuit, Device, Waveform, Dae};
//!
//! // A parallel RC driven by a current source: one node, one unknown.
//! let mut ckt = Circuit::new();
//! let n = ckt.node("out");
//! ckt.add(Device::resistor(n, Circuit::GND, 1e3));
//! ckt.add(Device::capacitor(n, Circuit::GND, 1e-6));
//! ckt.add(Device::current_source(Circuit::GND, n, Waveform::Dc(1e-3)));
//! let dae = ckt.build().unwrap();
//! assert_eq!(dae.dim(), 1);
//! ```

pub mod analytic;
pub mod circuit;
pub mod circuits;
pub mod dae;
pub mod deck;
pub mod device;
pub mod netlist;
pub mod waveform;

pub use circuit::{Circuit, CircuitDae, CircuitError, Node};
pub use dae::{check_jacobians, dae_residual, jac_blocks, jac_blocks_into, Dae, Pattern};
pub use deck::{
    AnalysisSpec, Deck, MpdeSpec, ShootingSpec, StepKeys, SweepSpec, TranSpec, WampdeSpec,
};
// Deck specs carry the backend choice, so re-export it for deck-driven
// callers (the CLI, sweepkit) that never touch `linsolve` directly.
pub use device::{Device, MemsParams};
pub use linsolve::LinearSolverKind;
// Deck specs likewise carry the integration scheme, so deck-driven
// callers can name schemes without depending on `timekit` directly.
pub use netlist::{parse_deck, parse_netlist, NetlistError};
pub use timekit::Scheme;
pub use waveform::Waveform;
