//! DC operating-point analysis with gmin continuation.

use crate::error::TransimError;
use crate::newton::{map_newton_err, NewtonOptions, NonlinearSystem};
use circuitdae::Dae;
use newtonkit::NewtonEngine;
use numkit::DMat;

/// Wraps a DAE as the static system `f(x) + gmin·x − b(0) = 0`.
struct DcSystem<'a, D: Dae + ?Sized> {
    dae: &'a D,
    gmin: f64,
    b0: Vec<f64>,
}

impl<D: Dae + ?Sized> NonlinearSystem for DcSystem<'_, D> {
    fn dim(&self) -> usize {
        self.dae.dim()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        self.dae.eval_f(x, out);
        for i in 0..out.len() {
            out[i] += self.gmin * x[i] - self.b0[i];
        }
    }

    fn jacobian(&self, x: &[f64], out: &mut DMat) {
        self.dae.jac_f(x, out);
        for i in 0..self.dim() {
            out[(i, i)] += self.gmin;
        }
    }

    fn jacobian_triplets(&self, x: &[f64], out: &mut sparsekit::Triplets) -> bool {
        self.dae.jac_f_triplets(x, out);
        for i in 0..self.dim() {
            out.push(i, i, self.gmin);
        }
        true
    }
}

/// Computes a DC operating point: `f(x) = b(0)`.
///
/// Uses gmin continuation — a shunt conductance `gmin·x` is added to every
/// equation and swept from `1e-2` down to `0` in decades, each stage warm-
/// starting the next. This regularises the singular `G` of ideal LC
/// oscillators (whose DC solution is the unstable equilibrium) and helps
/// strongly nonlinear circuits converge from the zero vector.
///
/// # Errors
///
/// Propagates the final stage's Newton failure.
pub fn dc_operating_point<D: Dae + ?Sized>(
    dae: &D,
    opts: &NewtonOptions,
) -> Result<Vec<f64>, TransimError> {
    dc_operating_point_from(dae, &vec![0.0; dae.dim()], opts)
}

/// [`dc_operating_point`] seeded from `guess` instead of the zero
/// vector — the continuation warm start used by batched sweeps, where a
/// neighbouring grid point's operating point is already in hand. The
/// same full gmin ladder still runs, so a bad guess degrades gracefully
/// rather than diverging.
///
/// # Errors
///
/// Propagates the final stage's Newton failure, or
/// [`TransimError::BadInput`] when `guess.len() != dae.dim()`.
pub fn dc_operating_point_from<D: Dae + ?Sized>(
    dae: &D,
    guess: &[f64],
    opts: &NewtonOptions,
) -> Result<Vec<f64>, TransimError> {
    let n = dae.dim();
    if guess.len() != n {
        return Err(TransimError::BadInput(format!(
            "DC warm-start guess has {} entries, dae has dim {n}",
            guess.len()
        )));
    }
    let mut b0 = vec![0.0; n];
    dae.eval_b(0.0, &mut b0);
    let mut x = guess.to_vec();

    // Continuation ladder: each gmin stage may fail without aborting; only
    // the last (gmin = 0, or smallest working gmin) must succeed. One
    // engine spans the whole ladder — every stage shares the Jacobian
    // pattern (the gmin shunt only shifts the diagonal), so all stages
    // after the first reuse the symbolic analysis on sparse backends.
    let mut ladder: Vec<f64> = (0..=10).map(|k| 1e-2 / 10f64.powi(k)).collect();
    ladder.push(0.0);
    let mut engine = NewtonEngine::new();

    let mut last_err = None;
    for &gmin in &ladder {
        let sys = DcSystem {
            dae,
            gmin,
            b0: b0.clone(),
        };
        let mut trial = x.clone();
        match engine.solve(&sys, &mut trial, opts) {
            Ok(_) => {
                x = trial;
                last_err = None;
            }
            Err(e) => {
                last_err = Some(map_newton_err(e));
            }
        }
    }
    match last_err {
        None => Ok(x),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::{circuits, Circuit, Device, Waveform};

    #[test]
    fn resistive_divider() {
        // 10V source -> 1k -> node -> 1k -> gnd: node sits at 5V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Device::voltage_source(a, Circuit::GND, Waveform::Dc(10.0)));
        ckt.add(Device::resistor(a, b, 1e3));
        ckt.add(Device::resistor(b, Circuit::GND, 1e3));
        let dae = ckt.build().unwrap();
        let x = dc_operating_point(&dae, &NewtonOptions::default()).unwrap();
        assert!((x[0] - 10.0).abs() < 1e-6);
        assert!((x[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn lc_vco_equilibrium_is_origin() {
        let dae = circuits::lc_vco();
        let x = dc_operating_point(&dae, &NewtonOptions::default()).unwrap();
        // The (unstable) DC equilibrium of the oscillator is v=0, iL=0.
        assert!(x.iter().all(|v| v.abs() < 1e-6), "{x:?}");
    }

    #[test]
    fn mems_vco_dc_plate_position() {
        let cfg = circuits::MemsVcoConfig::constant(1.5);
        let dae = circuits::mems_vco(cfg);
        let x = dc_operating_point(&dae, &NewtonOptions::default()).unwrap();
        let p = circuits::mems_vco_params(cfg);
        let want_y = p.static_displacement(1.5);
        assert!((x[circuits::idx::MEMS_Y] - want_y).abs() < 1e-6, "{x:?}");
        assert!(x[circuits::idx::MEMS_U].abs() < 1e-9);
    }

    #[test]
    fn nonlinear_diode_like_circuit() {
        // Current source into tanh conductor: solve −isat·tanh(v/vt)+v·g = I.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::current_source(Circuit::GND, a, Waveform::Dc(1e-3)));
        ckt.add(Device::tanh_conductor(a, Circuit::GND, -2e-3, 0.5, 1e-3));
        let dae = ckt.build().unwrap();
        let x = dc_operating_point(&dae, &NewtonOptions::default()).unwrap();
        // Residual check.
        let mut f = vec![0.0];
        dae.eval_f(&x, &mut f);
        assert!((f[0] - 1e-3).abs() < 1e-9);
    }
}
