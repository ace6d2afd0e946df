//! Sparse linear algebra tuned for circuit-style Jacobians.
//!
//! Circuit and WaMPDE Jacobians are sparse, unsymmetric, and frequently
//! refactored with an unchanged pattern. This crate provides, from scratch
//! (no external sparse dependencies: the workspace builds offline from
//! its own sources, see `BUILDING.md`):
//!
//! * [`Triplets`] — coordinate-format assembly buffer with duplicate
//!   summation, the natural target of MNA device stamps, and
//!   [`AssemblyPlan`], its triplet→CSC conversion recorded once per
//!   coordinate sequence and replayed for new values;
//! * [`Csr`] / [`Csc`] — compressed row/column storage with matvec and
//!   format conversion;
//! * [`SparseLu`] — left-looking Gilbert–Peierls LU with partial pivoting
//!   and an optional fill-reducing column preorder;
//! * the KLU-style symbolic pipeline — [`amd()`] approximate-minimum-degree
//!   ordering, [`btf()`] block-triangular form (maximum transversal +
//!   Tarjan SCC condensation), and the composed [`OrderingPlan`] driving
//!   [`SparseLu::factor_ordered`]'s equilibrated, matched-pivot path,
//!   the large-system direct solver behind `linsolve`'s `klu` backend.
//!
//! # Example
//!
//! ```
//! use sparsekit::{Triplets, SparseLu};
//!
//! # fn main() -> Result<(), sparsekit::SparseError> {
//! let mut t = Triplets::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let lu = SparseLu::factor(&t.to_csc())?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod amd;
pub mod btf;
pub mod csc;
pub mod csr;
pub mod error;
pub mod klu;
pub mod lu;
pub mod triplets;

pub use amd::amd;
pub use btf::{btf, max_transversal, BtfForm};
pub use csc::Csc;
pub use csr::Csr;
pub use error::SparseError;
pub use klu::OrderingPlan;
pub use lu::{ColumnOrdering, SparseLu};
pub use triplets::{AssemblyPlan, Triplets};
