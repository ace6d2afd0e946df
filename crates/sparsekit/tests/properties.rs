//! Property-based tests for the sparse kernels.

use proptest::prelude::*;
use sparsekit::{AssemblyPlan, ColumnOrdering, Csc, Csr, SparseLu, Triplets};

/// Builds a random diagonally dominant matrix from a seed vector.
fn random_dd(n: usize, per_row: usize, seed: &[f64]) -> Triplets {
    let mut t = Triplets::new(n, n);
    let mut k = 0;
    for i in 0..n {
        t.push(i, i, 4.0 + per_row as f64 + seed[k % seed.len()].abs());
        k += 1;
        for _ in 0..per_row {
            let j = ((seed[k % seed.len()].abs() * 977.0) as usize) % n;
            t.push(i, j, seed[(k + 3) % seed.len()]);
            k += 2;
        }
    }
    t
}

/// A value the conversions must carry bit for bit: one of the special
/// values for low codes, `v` otherwise.
fn special(code: u8, v: f64) -> f64 {
    match code {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => v,
    }
}

/// Triplets on an `nrows × ncols` grid whose row `hole_r` and column
/// `hole_c` stay empty when in range. Few distinct coordinates and
/// many entries give rows with long runs of duplicates in random push
/// order.
fn random_triplets(
    nrows: usize,
    ncols: usize,
    (hole_r, hole_c): (usize, usize),
    entries: &[(usize, usize, u8, f64)],
) -> Triplets {
    let mut t = Triplets::new(nrows, ncols);
    for &(r, c, code, v) in entries {
        let (r, c) = (r % nrows, c % ncols);
        if r != hole_r && c != hole_c {
            t.push(r, c, special(code, v));
        }
    }
    t
}

/// The same coordinates as `t` with new values.
fn revalued(t: &Triplets, vals: &[(u8, f64)]) -> Triplets {
    let mut out = Triplets::new(t.nrows(), t.ncols());
    for ((r, c, _), &(code, v)) in t.iter().zip(vals.iter().cycle()) {
        out.push(r, c, special(code, v));
    }
    out
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Bits with every NaN mapped to one pattern: which NaN operand an
/// addition of two NaNs returns is up to code generation, not to the
/// summation order.
fn bits_any_nan(x: &[f64]) -> Vec<u64> {
    x.iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}

fn assert_same_csc(a: &Csc, b: &Csc) {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
    assert_eq!(a.indptr(), b.indptr());
    assert_eq!(a.indices(), b.indices());
    assert_eq!(bits(a.data()), bits(b.data()));
}

/// The row-by-row triplet→CSR conversion the summation order must keep:
/// per row, `(column, value)` pairs sorted by column alone, duplicates
/// folded left to right from the first.
fn reference_csr(t: &Triplets) -> Csr {
    let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); t.nrows()];
    for (r, c, v) in t.iter() {
        by_row[r].push((c, v));
    }
    let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
    for mut row in by_row {
        row.sort_unstable_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < row.len() {
            let (col, mut v) = row[i];
            i += 1;
            while i < row.len() && row[i].0 == col {
                v += row[i].1;
                i += 1;
            }
            indices.push(col);
            data.push(v);
        }
        indptr.push(indices.len());
    }
    Csr::from_raw(t.nrows(), t.ncols(), indptr, indices, data)
}

#[test]
fn plan_rejects_other_coordinates_of_the_same_length() {
    let mut a = Triplets::new(3, 3);
    a.push(0, 0, 1.0);
    a.push(1, 2, 2.0);
    a.push(2, 1, 3.0);
    let mut plan = AssemblyPlan::new(&a);
    assert!(plan.matches(&a));
    // One coordinate moved, same length.
    let mut b = Triplets::new(3, 3);
    b.push(0, 0, 1.0);
    b.push(1, 2, 2.0);
    b.push(2, 2, 3.0);
    assert_eq!(a.len(), b.len());
    assert!(!plan.matches(&b));
    assert!(plan.replay(&b).is_none());
    // The same coordinates pushed in another order.
    let mut c = Triplets::new(3, 3);
    c.push(1, 2, 2.0);
    c.push(0, 0, 1.0);
    c.push(2, 1, 3.0);
    assert!(!plan.matches(&c));
    // The same coordinates on a larger grid.
    let mut d = Triplets::new(4, 3);
    for (r, col, v) in a.iter() {
        d.push(r, col, v);
    }
    assert!(!plan.matches(&d));
    // A rejected replay leaves the recorded matrix alone.
    assert_same_csc(plan.csc(), &a.to_csc());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A recorded conversion replays to exactly what a fresh
    /// `to_csc` gives, for the recorded values and for new ones (the
    /// plan sorts triplet indices where `to_csc` sorts values), and
    /// `to_csr` sums duplicates in the reference row-by-row order.
    #[test]
    fn plan_replay_matches_to_csc_bit_for_bit(
        nrows in 1usize..9,
        ncols in 1usize..9,
        holes in (0usize..12, 0usize..12),
        entries in prop::collection::vec((0usize..40, 0usize..40, 0u8..12, -10.0f64..10.0), 0..200),
        vals in prop::collection::vec((0u8..12, -1e3f64..1e3), 1..50),
    ) {
        let t = random_triplets(nrows, ncols, holes, &entries);
        let csr = t.to_csr();
        let reference = reference_csr(&t);
        prop_assert_eq!(csr.indptr(), reference.indptr());
        prop_assert_eq!(csr.indices(), reference.indices());
        prop_assert_eq!(bits_any_nan(csr.data()), bits_any_nan(reference.data()));
        let csc = t.to_csc();
        let mut plan = AssemblyPlan::new(&t);
        prop_assert!(plan.matches(&t));
        assert_same_csc(plan.csc(), &csc);
        let t2 = revalued(&t, &vals);
        assert_same_csc(plan.replay(&t2).expect("same coordinates"), &t2.to_csc());
        assert_same_csc(plan.replay(&t).expect("same coordinates"), &csc);
        if let Some((r, c, v)) = t.iter().last() {
            // Moving the last entry keeps the length, not the coordinates.
            let mut moved = Triplets::new(nrows, ncols);
            for (r2, c2, v2) in t.iter().take(t.len() - 1) {
                moved.push(r2, c2, v2);
            }
            moved.push((r + 1) % nrows, c, v);
            prop_assert_eq!(plan.matches(&moved), nrows == 1);
        }
    }

    /// COO→CSR→CSC→CSR round-trips preserve every entry.
    #[test]
    fn format_roundtrip(
        n in 1usize..30,
        entries in prop::collection::vec((0usize..30, 0usize..30, -10.0f64..10.0), 0..80),
    ) {
        let mut t = Triplets::new(n, n);
        for (r, c, v) in entries {
            t.push(r % n, c % n, v);
        }
        let csr = t.to_csr();
        let back = csr.to_csc().to_csr();
        prop_assert_eq!(&csr, &back);
        // Dense agreement.
        let d1 = t.to_dense();
        let d2 = csr.to_dense();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((d1[(i, j)] - d2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    /// Sparse matvec agrees with dense matvec.
    #[test]
    fn matvec_agrees_with_dense(
        n in 1usize..25,
        entries in prop::collection::vec((0usize..25, 0usize..25, -5.0f64..5.0), 0..60),
        x in prop::collection::vec(-2.0f64..2.0, 25),
    ) {
        let mut t = Triplets::new(n, n);
        for (r, c, v) in entries {
            t.push(r % n, c % n, v);
        }
        let xv = &x[..n];
        let sparse = t.to_csr().matvec(xv);
        let dense = t.to_dense().matvec(xv);
        for (a, b) in sparse.iter().zip(dense.iter()) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// Sparse LU under both orderings solves to small residual.
    #[test]
    fn lu_small_residual(
        n in 2usize..40,
        seed in prop::collection::vec(-1.0f64..1.0, 150),
        rhs in prop::collection::vec(-3.0f64..3.0, 40),
    ) {
        let t = random_dd(n, 3, &seed);
        let a = t.to_csc();
        let b: Vec<f64> = (0..n).map(|i| rhs[i % rhs.len()]).collect();
        for ordering in [ColumnOrdering::Natural, ColumnOrdering::AscendingDegree] {
            let lu = SparseLu::factor_with(&a, ordering, 0.1).unwrap();
            let x = lu.solve(&b).unwrap();
            let back = a.matvec(&x);
            for (p, q) in back.iter().zip(b.iter()) {
                prop_assert!((p - q).abs() < 1e-7, "ordering {ordering:?}");
            }
        }
    }
}
