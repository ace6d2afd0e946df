//! The dense LU kernel and block assembly on the real iteration matrix:
//! the air-damped MEMS VCO's bordered envelope step Jacobian at its
//! unforced orbit (9 harmonics, dimension 77) must factor, solve and
//! assemble bit for bit like the textbook loops.

#[allow(dead_code)]
#[path = "../crates/numkit/src/lu/oracle.rs"]
mod oracle;

use linsolve::{FactorCache, JacobianParts, LinearSolverKind, NewtonMatrix};
use numkit::DMat;
use wampde_bench::StepJacobian;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The block-by-block assembly loop: zero fill, the diagonal blocks,
/// the `D ⊗ C` cross terms, then the border.
fn reference_assembly(p: &JacobianParts<'_>) -> DMat {
    let (len, n) = (p.len(), p.n);
    let mut jac = DMat::zeros(p.dim(), p.dim());
    for s in 0..p.n0 {
        let (g, c) = (&p.gblocks[s], &p.cblocks[s]);
        for i in 0..n {
            for j in 0..n {
                jac[(s * n + i, s * n + j)] += p.inv_h * c[(i, j)] + p.theta * g[(i, j)];
            }
        }
    }
    for s in 0..p.n0 {
        for sp in 0..p.n0 {
            let d = p.theta * p.omega * p.dmat[(s, sp)];
            if d == 0.0 {
                continue;
            }
            let c = &p.cblocks[sp];
            for i in 0..n {
                for j in 0..n {
                    jac[(s * n + i, sp * n + j)] += d * c[(i, j)];
                }
            }
        }
    }
    if let Some((row, col)) = p.border {
        for k in 0..len {
            jac[(len, k)] = row[k];
            jac[(k, len)] = col[k];
        }
    }
    jac
}

#[test]
fn mems_envelope_matrix_matches_the_textbook_kernels_bit_for_bit() {
    let step = StepJacobian::mems_air(9);
    let parts = step.parts();
    assert_eq!(parts.dim(), 77);

    let want = reference_assembly(&parts);
    let mut jac = DMat::identity(parts.dim()); // stale contents get overwritten
    parts.assemble_dense_into(&mut jac);
    assert_eq!(bits(jac.as_slice()), bits(want.as_slice()), "assembly");

    let n = jac.nrows();
    let o = oracle::factor(jac.as_slice(), n).expect("the step matrix is regular");
    // The matrix exercises the zero-multiplier skip.
    let zero_multipliers = (0..n)
        .flat_map(|i| (0..i).map(move |j| (i, j)))
        .filter(|&(i, j)| o.lu[i * n + j] == 0.0)
        .count();
    assert!(zero_multipliers > 0);

    let rhs = step.rhs();
    let want_x = o.solve(&rhs);
    let mut cache = FactorCache::new(LinearSolverKind::Dense);
    // The second factor refactors the cached storage in place.
    for pass in 0..2 {
        cache.factor(&NewtonMatrix::Dense(&jac)).unwrap();
        let mut x = rhs.clone();
        cache.solve_in_place(&mut x).unwrap();
        assert_eq!(bits(&x), bits(&want_x), "solve, pass {pass}");
    }
}
