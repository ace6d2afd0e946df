//! # WaMPDE suite — multi-time simulation of voltage-controlled oscillators
//!
//! A full-stack Rust reproduction of *Narayan & Roychowdhury, "Multi-Time
//! Simulation of Voltage-Controlled Oscillators", DAC 1999*: the Warped
//! Multirate Partial Differential Equation (WaMPDE) and every substrate it
//! rests on, built from scratch.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`numkit`] | dense linear algebra, complex arithmetic, interpolation |
//! | [`sparsekit`] | sparse matrices, KLU-class sparse LU (BTF + AMD ordering) |
//! | [`fourier`] | FFTs, Fourier series, spectral differentiation |
//! | [`circuitdae`] | the DAE trait, MNA circuit builder, the paper's VCOs |
//! | [`newtonkit`] | the shared damped-Newton engine (pattern-reusing refactorisation) |
//! | [`transim`] | Newton, DC operating point, transient integration |
//! | [`shooting`] | periodic steady state of free-running oscillators |
//! | [`hb`] | the spectral collocation core (`Colloc`) |
//! | [`mpde`] | AM forcing and the `.mpde` adapter over wampde's envelope |
//! | [`wampde`] | **the WaMPDE itself**: one collocation step behind the envelope (also the MPDE's), harmonic balance and the quasiperiodic solver |
//! | [`multitime`] | the paper's Section-3 signal examples (Figures 1–6) |
//! | [`sigproc`] | instantaneous frequency, phase error, spectra |
//! | [`wampde_bench`] | experiment drivers behind the `repro` binary, `wampde-cli` |
//!
//! ## Quickstart
//!
//! ```no_run
//! use circuitdae::circuits::{self, MemsVcoConfig};
//! use shooting::{oscillator_steady_state, ShootingOptions};
//! use wampde::{solve_envelope, WampdeInit, WampdeOptions};
//!
//! // 1. The paper's VCO: LC tank + negative resistor + MEMS varactor.
//! let dae = circuits::mems_vco(MemsVcoConfig::paper_vacuum());
//!
//! // 2. Initial condition: unforced periodic steady state (shooting).
//! let unforced = circuits::mems_vco(MemsVcoConfig::constant(1.5));
//! let orbit = oscillator_steady_state(&unforced, &ShootingOptions::default()).unwrap();
//!
//! // 3. WaMPDE envelope: track two control periods of FM.
//! let opts = WampdeOptions::default();
//! let init = WampdeInit::from_orbit(&orbit, &opts);
//! let env = solve_envelope(&dae, &init, 80e-6, &opts).unwrap();
//!
//! let (lo, hi) = env.frequency_range();
//! println!("local frequency sweeps {:.2}–{:.2} MHz", lo / 1e6, hi / 1e6);
//! ```
//!
//! See `examples/` for the full figure-by-figure reproductions. The
//! `repro` binary (`cargo run --release -p wampde_bench --bin repro`)
//! regenerates the figures and prints each measured result next to the
//! paper's.

pub use circuitdae;
pub use fourier;
pub use hb;
pub use mpde;
pub use multitime;
pub use numkit;
pub use shooting;
pub use sigproc;
pub use sparsekit;
pub use transim;
pub use wampde;
pub use wampde_bench;
