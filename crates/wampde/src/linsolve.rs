//! Thin adapter over the workspace-wide `linsolve` crate.
//!
//! The bordered collocation solver layer (block Jacobian description,
//! dense/KLU/GMRES backends) used to live here; it now serves *all*
//! solver crates from `crates/linsolve`. This module re-exports the shared
//! types and builds the [`JacobianParts`] of a WaMPDE collocation core.

pub use ::linsolve::{
    BlockCirculantPrecond, CyclicShape, FactorCache, JacobianParts, LinSolveError,
    LinearSolverKind, NewtonMatrix,
};
use hb::Colloc;

/// Builds the shared-layer [`JacobianParts`] for a collocation core.
///
/// The argument list mirrors the WaMPDE step structure one-to-one; see
/// [`JacobianParts`] for the meaning of each coefficient.
#[allow(clippy::too_many_arguments)]
pub fn colloc_parts<'a>(
    colloc: &'a Colloc,
    cblocks: &'a [numkit::DMat],
    gblocks: &'a [numkit::DMat],
    inv_h: f64,
    theta: f64,
    omega: f64,
    border: Option<(&'a [f64], &'a [f64])>,
) -> JacobianParts<'a> {
    JacobianParts {
        n: colloc.n,
        n0: colloc.n0,
        dmat: &colloc.dmat,
        cblocks,
        gblocks,
        inv_h,
        theta,
        omega,
        border,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::VanDerPol;
    use circuitdae::{circuits, Dae};
    use numkit::DMat;

    /// Per-sample Jacobian blocks of `dae` at a smooth synthetic state.
    fn blocks_at_synthetic_state<D: Dae>(dae: &D, colloc: &Colloc) -> (Vec<DMat>, Vec<DMat>) {
        let x: Vec<f64> = (0..colloc.len()).map(|k| (0.37 * k as f64).sin()).collect();
        circuitdae::jac_blocks(dae, &x)
    }

    fn solve(parts: &JacobianParts<'_>, kind: LinearSolverKind, rhs: &[f64]) -> Vec<f64> {
        let mut cache = FactorCache::new(kind);
        cache.factor(&NewtonMatrix::Parts(parts)).unwrap();
        let mut x = rhs.to_vec();
        cache.solve_in_place(&mut x).unwrap();
        x
    }

    /// Builds bordered vdP JacobianParts and checks all three backends
    /// produce the same solution.
    #[test]
    fn backends_agree() {
        let vdp = VanDerPol::unforced(0.8);
        let colloc = Colloc::new(2, 3);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&vdp, &colloc);
        let row: Vec<f64> = colloc.phase_row(0, 1);
        let col: Vec<f64> = (0..len).map(|i| 0.1 + (i as f64 * 0.11).cos()).collect();
        let parts = colloc_parts(
            &colloc,
            &cblocks,
            &gblocks,
            10.0,
            0.5,
            1.3,
            Some((&row, &col)),
        );
        let rhs: Vec<f64> = (0..parts.dim())
            .map(|i| ((i * 3 % 7) as f64) - 3.0)
            .collect();
        let dense = solve(&parts, LinearSolverKind::Dense, &rhs);
        let klu = solve(&parts, LinearSolverKind::Klu, &rhs);
        let gmres = solve(
            &parts,
            LinearSolverKind::GmresIlu0 {
                restart: 60,
                max_iters: 500,
                rtol: 1e-12,
            },
            &rhs,
        );
        for i in 0..rhs.len() {
            assert!(
                (dense[i] - klu[i]).abs() < 1e-8,
                "klu mismatch at {i}: {} vs {}",
                dense[i],
                klu[i]
            );
            assert!(
                (dense[i] - gmres[i]).abs() < 1e-6,
                "gmres mismatch at {i}: {} vs {}",
                dense[i],
                gmres[i]
            );
        }
    }

    /// On the paper's LC VCO, dense and KLU step solutions agree to 1e-9
    /// (and GMRES at its default tolerance tracks them).
    #[test]
    fn lc_vco_dense_vs_klu_agree_to_1e9() {
        let dae = circuits::lc_vco();
        let colloc = Colloc::new(dae.dim(), 5);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&dae, &colloc);
        let row: Vec<f64> = colloc.phase_row(0, 1);
        let col: Vec<f64> = (0..len).map(|i| 1e-9 * (0.2 * i as f64).cos()).collect();
        let parts = colloc_parts(
            &colloc,
            &cblocks,
            &gblocks,
            1.0 / 2.0e-6,
            1.0,
            0.75e6,
            Some((&row, &col)),
        );
        let rhs: Vec<f64> = (0..parts.dim()).map(|i| (0.3 * i as f64).sin()).collect();
        let dense = solve(&parts, LinearSolverKind::Dense, &rhs);
        let scale = dense.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let klu = solve(&parts, LinearSolverKind::Klu, &rhs);
        let gm = solve(&parts, LinearSolverKind::gmres_default(), &rhs);
        for i in 0..rhs.len() {
            assert!(
                (dense[i] - klu[i]).abs() <= 1e-9 * scale.max(1.0),
                "klu at {i}: {} vs {}",
                dense[i],
                klu[i]
            );
            assert!(
                (dense[i] - gm[i]).abs() <= 1e-7 * scale.max(1.0),
                "gmres at {i}: {} vs {}",
                dense[i],
                gm[i]
            );
        }
    }

    #[test]
    fn unbordered_assembly() {
        let vdp = VanDerPol::unforced(0.3);
        let colloc = Colloc::new(2, 2);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&vdp, &colloc);
        let parts = colloc_parts(&colloc, &cblocks, &gblocks, 5.0, 1.0, 0.7, None);
        assert_eq!(parts.dim(), len);
        let rhs = vec![1.0; len];
        let a = solve(&parts, LinearSolverKind::Dense, &rhs);
        let b = solve(&parts, LinearSolverKind::Klu, &rhs);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9);
        }
    }
}
