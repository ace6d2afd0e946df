//! Acceptance test of the sparse linear-solver layer through the deck
//! subsystem: the committed `ring_scaling.ckt` deck selects the KLU
//! backend via `.options solver=klu`, and its results must agree with
//! the same deck forced onto dense LU.

use circuitdae::{parse_deck, Dae, LinearSolverKind};
use sweepkit::run_deck;

const DECK_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/decks/ring_scaling.ckt"
);

const DECK_1000_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/decks/ring_scaling_1000.ckt"
);

#[test]
fn ring_scaling_deck_klu_matches_dense() {
    let text = std::fs::read_to_string(DECK_PATH).expect("committed deck exists");
    let deck = parse_deck(&text).unwrap();

    // The committed ladder now spans 16 stages: the tank node, 16 ladder
    // nodes, and the inductor branch current.
    assert_eq!(deck.base_circuit().unwrap().dim(), 18);

    // The committed deck selects KLU for every analysis.
    assert_eq!(deck.analyses.len(), 2);
    for a in &deck.analyses {
        assert_eq!(a.solver(), LinearSolverKind::Klu);
    }

    let klu = run_deck(&deck, 2).unwrap();

    // Same deck, every analysis forced onto dense LU.
    let mut dense_deck = parse_deck(&text).unwrap();
    for a in &mut dense_deck.analyses {
        a.set_solver(LinearSolverKind::Dense);
    }
    let dense = run_deck(&dense_deck, 2).unwrap();

    // Both grids ran: 2 points x 2 analyses.
    assert_eq!(klu.runs.len(), 4);
    assert_eq!(dense.runs.len(), 4);

    // Backend agreement per grid point. The shooting frequency is a
    // Newton fixed point and must match tightly. The WaMPDE runs under
    // *adaptive* slow-time stepping, where sub-tolerance linear-solve
    // differences can steer slightly different step sequences through the
    // initial transient — so compare the *settled* local frequency (last
    // envelope row), not extrema over differently-sampled transients.
    for (g, d) in klu.runs.iter().zip(dense.runs.iter()) {
        assert_eq!(g.point, d.point);
        assert_eq!(g.analysis, d.analysis);
        if let (Some(a), Some(b)) = (g.result.metric("freq_hz"), d.result.metric("freq_hz")) {
            let rel = (a - b).abs() / b;
            assert!(
                rel < 1e-6,
                "point {} shooting freq: klu {a} vs dense {b} (rel {rel:e})",
                g.point
            );
            // The oscillator sits near 0.75 MHz (light loading).
            assert!((a - 0.75e6).abs() / 0.75e6 < 0.05, "freq {a}");
        }
        if let (Some(ga), Some(da)) = (g.result.column("omega_hz"), d.result.column("omega_hz")) {
            let a = g.result.rows.last().expect("nonempty envelope")[ga];
            let b = d.result.rows.last().expect("nonempty envelope")[da];
            let rel = (a - b).abs() / b;
            // The deck's short 2 µs envelope is still settling at t_stop
            // and runs under adaptive control at rtol 1e-4, so the
            // backends may sample the decay differently; agreement within
            // a few LTE tolerances is the correct deck-level contract
            // (fixed-step 1e-9 agreement is asserted in the wampde unit
            // tests).
            assert!(
                rel < 5e-3,
                "point {} settled omega: klu {a} vs dense {b} (rel {rel:e})",
                g.point
            );
            // And both backends sit near the shooting frequency.
            assert!((a - 0.75e6).abs() / 0.75e6 < 0.05, "omega {a}");
        }
    }
}

/// The 1000-stage generated deck parses, selects the KLU backend for
/// its transient, and runs end to end. At dim 1002, dense LU is
/// infeasible and natural-order sparse LU fills badly — this deck only
/// stays a quick smoke because the BTF+AMD-ordered kernel keeps the
/// ladder's tridiagonal-plus-tank structure sparse.
#[test]
fn ring_scaling_1000_deck_runs_under_klu() {
    let text = std::fs::read_to_string(DECK_1000_PATH).expect("committed deck exists");
    let deck = parse_deck(&text).unwrap();

    assert_eq!(deck.base_circuit().unwrap().dim(), 1002);
    assert_eq!(deck.analyses.len(), 1);
    assert_eq!(deck.analyses[0].solver(), LinearSolverKind::Klu);

    let out = run_deck(&deck, 1).unwrap();
    assert_eq!(out.runs.len(), 1);
    let result = &out.runs[0].result;
    assert_eq!(result.analysis, "tran");
    // 0.5 µs span at dt=25 ns: the fixed-step grid plus the initial row.
    assert!(
        result.rows.len() >= 20,
        "expected a full transient, got {} rows",
        result.rows.len()
    );
    // Every Newton step factored the dim-1002 Jacobian through the
    // ordered kernel; the trajectory must come back finite everywhere.
    for row in &result.rows {
        for v in row {
            assert!(v.is_finite(), "non-finite sample in KLU transient");
        }
    }
}
