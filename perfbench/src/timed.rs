//! A timing [`Dae`] wrapper: device evaluation and Jacobian stamping
//! have no span inside the program, so the benchmark wraps the circuit
//! and opens one around every call.
//!
//! Every trait method is forwarded — including the ones with default
//! bodies. A missed `sparsity` or `jac_*_triplets` forward would fall
//! back to the trait's dense defaults and silently change what the
//! solvers do (dense stamping, dense patterns), so the benchmark's tests
//! hold wrapped runs bit-identical to bare ones.

use circuitdae::{Dae, Pattern};
use numkit::DMat;
use sparsekit::Triplets;

/// Span around `q`/`f`/`b` evaluation.
pub const EVAL_SPAN: &str = "dae.eval";
/// Span around every Jacobian stamp, dense or triplet.
pub const STAMP_SPAN: &str = "dae.stamp";

/// Wraps a DAE and records [`EVAL_SPAN`]/[`STAMP_SPAN`] spans through
/// the thread's installed `obskit` recorder (nothing when none is).
pub struct Timed<'a, D: ?Sized>(pub &'a D);

impl<D: Dae + ?Sized> Dae for Timed<'_, D> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn eval_q(&self, x: &[f64], out: &mut [f64]) {
        let _s = obskit::span(EVAL_SPAN);
        self.0.eval_q(x, out);
    }

    fn eval_f(&self, x: &[f64], out: &mut [f64]) {
        let _s = obskit::span(EVAL_SPAN);
        self.0.eval_f(x, out);
    }

    fn eval_b(&self, t: f64, out: &mut [f64]) {
        let _s = obskit::span(EVAL_SPAN);
        self.0.eval_b(t, out);
    }

    fn jac_q(&self, x: &[f64], out: &mut DMat) {
        let _s = obskit::span(STAMP_SPAN);
        self.0.jac_q(x, out);
    }

    fn jac_f(&self, x: &[f64], out: &mut DMat) {
        let _s = obskit::span(STAMP_SPAN);
        self.0.jac_f(x, out);
    }

    fn var_names(&self) -> Vec<String> {
        self.0.var_names()
    }

    fn sparsity(&self) -> Pattern {
        self.0.sparsity()
    }

    fn jac_q_triplets(&self, x: &[f64], out: &mut Triplets) {
        let _s = obskit::span(STAMP_SPAN);
        self.0.jac_q_triplets(x, out);
    }

    fn jac_f_triplets(&self, x: &[f64], out: &mut Triplets) {
        let _s = obskit::span(STAMP_SPAN);
        self.0.jac_f_triplets(x, out);
    }

    fn jac_q_triplets_threads(&self, x: &[f64], out: &mut Triplets, threads: usize) {
        let _s = obskit::span(STAMP_SPAN);
        self.0.jac_q_triplets_threads(x, out, threads);
    }

    fn jac_f_triplets_threads(&self, x: &[f64], out: &mut Triplets, threads: usize) {
        let _s = obskit::span(STAMP_SPAN);
        self.0.jac_f_triplets_threads(x, out, threads);
    }
}
