//! Deck adapter: runs a [`circuitdae::TranSpec`] directive.

use crate::dcop::{dc_operating_point, dc_operating_point_from};
use crate::error::TransimError;
use crate::integrate::{run_transient, TransientOptions, TransientResult};
use circuitdae::{Dae, TranSpec};
use newtonkit::NewtonPolicy;

/// Runs a `.tran` directive: DC operating point, then transient
/// integration to `t_stop` with the spec's scheme (fixed `dt` when the
/// spec gives one, LTE-adaptive at `rtol`/`atol` within
/// `dt_min`/`dt_max` otherwise).
///
/// # Errors
///
/// [`TransimError`] from the DC solve or the integration.
pub fn run_tran_spec<D: Dae + ?Sized>(
    dae: &D,
    spec: &TranSpec,
) -> Result<TransientResult, TransimError> {
    run_tran_spec_warm(dae, spec, None).map(|(res, _)| res)
}

/// [`run_tran_spec`] with a continuation warm start: `warm` (a
/// neighbouring grid point's converged DC operating point) seeds the
/// gmin ladder instead of the zero vector. Also returns this run's DC
/// operating point so the caller can chain it into the next point.
///
/// The gmin continuation runs in full either way, so a warm start can
/// only change where the *same* ladder starts — `warm = None`
/// reproduces [`run_tran_spec`] exactly.
///
/// # Errors
///
/// [`TransimError`] from the DC solve or the integration.
pub fn run_tran_spec_warm<D: Dae + ?Sized>(
    dae: &D,
    spec: &TranSpec,
    warm: Option<&[f64]>,
) -> Result<(TransientResult, Vec<f64>), TransimError> {
    // The deck's `.options solver=` choice rides on the spec and is
    // honored by both the DC solve and every step's Newton iteration.
    let newton = NewtonPolicy {
        linear_solver: spec.solver,
        ..Default::default()
    };
    let x0 = match warm {
        Some(guess) => dc_operating_point_from(dae, guess, &newton)?,
        None => dc_operating_point(dae, &newton)?,
    };
    let res = run_transient(
        dae,
        &x0,
        0.0,
        spec.t_stop,
        &TransientOptions {
            integrator: spec.step.integrator,
            step: spec.step.policy(),
            newton,
        },
    )?;
    Ok((res, x0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::parse_netlist;

    #[test]
    fn tran_spec_runs_rc_charging() {
        // RC driven by a DC source through a resistor: v settles to 5 V.
        let dae = parse_netlist(
            "V1 in 0 DC(5)\n\
             R1 in out 1k\n\
             C1 out 0 1u\n",
        )
        .unwrap();
        let spec = TranSpec::new(10e-3); // 10 time constants
        let res = run_tran_spec(&dae, &spec).unwrap();
        let names = dae.var_names();
        let out = names.iter().position(|n| n == "v(out)").unwrap();
        let v_end = res.states.last().unwrap()[out];
        assert!((v_end - 5.0).abs() < 1e-3, "v(out) = {v_end}");
    }

    #[test]
    fn tran_spec_fixed_step_counts() {
        let dae = parse_netlist(
            "I1 0 a 1m\n\
             R1 a 0 1k\n\
             C1 a 0 1u\n",
        )
        .unwrap();
        let mut spec = TranSpec::new(1e-3);
        spec.step.dt = 1e-5;
        let res = run_tran_spec(&dae, &spec).unwrap();
        assert_eq!(res.stats.steps, 100);
    }

    #[test]
    fn tran_spec_sparse_backend_matches_dense() {
        // Same fixed-step run through the KLU backend must land on
        // bitwise-comparable trajectories (identical step sequence, same
        // solutions to solver tolerance).
        let dae = parse_netlist(
            "I1 0 a 1m\n\
             R1 a 0 1k\n\
             C1 a 0 1u\n\
             R2 a b 2k\n\
             C2 b 0 1u\n",
        )
        .unwrap();
        let mk = |solver| {
            let mut spec = TranSpec {
                solver,
                ..TranSpec::new(1e-3)
            };
            spec.step.dt = 1e-5;
            spec
        };
        let dense = run_tran_spec(&dae, &mk(Default::default())).unwrap();
        let sparse = run_tran_spec(&dae, &mk(circuitdae::LinearSolverKind::Klu)).unwrap();
        assert_eq!(dense.times.len(), sparse.times.len());
        for (a, b) in dense.states.iter().zip(sparse.states.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-10, "{x} vs {y}");
            }
        }
    }
}
