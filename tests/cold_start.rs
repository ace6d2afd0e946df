//! Oscillator start: the loose warm-up and short settle land the cold
//! orbit Newton in its basin in a few thousand Newton iterations, a
//! circuit that does not oscillate fails with a typed error, and chained
//! points converge from the extrapolated continuation seed.

use std::sync::Arc;
use sweepkit::{run_deck_with, SweepConfig, SweepError};

/// A 16-stage RC ladder loading a MEMS varactor VCO (the shape of the
/// `sweep_ladder_chain` benchmark deck): one `.shooting` chain over the
/// control voltages of `sweep`, a `.sweep M1.control` argument list.
fn ladder_deck(sweep: &str) -> String {
    let mut s = String::from(
        "L1 tank 0 10u\n\
         GN1 tank 0 5m 1.667m\n\
         M1 tank 0 5n 1 1e-12 3e-7 2.47 0.121 DC(1.5)\n",
    );
    let mut prev = "tank".to_string();
    for k in 0..16 {
        let node = format!("ld{k}");
        s.push_str(&format!(
            "R{} {prev} {node} 10k\nC{} {node} 0 1p\n",
            k + 2,
            k + 2
        ));
        prev = node;
    }
    s.push_str(&format!(
        ".options solver=klu\n.shooting steps=64\n.sweep M1.control {sweep}\n"
    ));
    s
}

fn chained() -> SweepConfig {
    SweepConfig {
        jobs: 1,
        warm_start: true,
        ..SweepConfig::default()
    }
}

fn metric(run: &sweepkit::SweepRun, point: usize, name: &str) -> f64 {
    run.outcome.runs[point]
        .result
        .metric(name)
        .unwrap_or_else(|| panic!("{name} metric present"))
}

#[test]
fn ladder_anchor_starts_cold_in_under_6k_newton_iterations() {
    // The cold anchor and one warm-started point.
    let deck = circuitdae::parse_deck(&ladder_deck("1.2 1.3 2")).unwrap();
    let config = chained();
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let run = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        run_deck_with(&deck, &config, None).unwrap()
    };
    // The count is machine-independent: warm-up and settle transient
    // iterations plus the orbit Newton's flow evaluations.
    let anchor = metric(&run, 0, "newton_iters");
    assert!(
        anchor <= 6000.0,
        "cold anchor took {anchor} Newton iterations"
    );
    assert_eq!(rec.counter("shooting.cold_fallbacks"), 0);
    let warm = metric(&run, 1, "newton_iters");
    assert!(warm < anchor, "warm point {warm} vs anchor {anchor}");
    for point in 0..2 {
        let f = metric(&run, point, "freq_hz");
        assert!((0.3e6..3.0e6).contains(&f), "point {point}: {f} Hz");
    }
}

#[test]
fn non_oscillating_deck_fails_with_a_typed_error() {
    // A parallel RLC rings down to its DC point: no orbit to find.
    let deck =
        circuitdae::parse_deck("R1 n 0 1k\nC1 n 0 1u\nL1 n 0 1m\n.shooting steps=64\n").unwrap();
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let err = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        run_deck_with(&deck, &SweepConfig::default(), None).unwrap_err()
    };
    let SweepError::Job { cause, .. } = err else {
        panic!("expected a job error, got {err}");
    };
    assert!(
        matches!(
            *cause,
            SweepError::Shooting(shooting::ShootingError::NoOscillation)
        ),
        "{cause}"
    );
    assert_eq!(rec.counter("shooting.cold_fallbacks"), 1);
}

#[test]
fn chained_ladder_points_converge_from_the_extrapolated_seed() {
    // From the third chain position on, the seed is extrapolated through
    // two or three converged orbits instead of copied from the
    // neighbour: the orbit Newton needs at most 3 outer iterations where
    // the neighbour start alone takes 8-9 at this step. The count is
    // machine-independent.
    let deck = circuitdae::parse_deck(&ladder_deck("1.2 1.3 6")).unwrap();
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let run = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        run_deck_with(&deck, &chained(), None).unwrap()
    };
    assert_eq!(run.outcome.runs.len(), 6);
    for point in 2..6 {
        let iterations = metric(&run, point, "iterations");
        assert!(
            iterations <= 3.0,
            "point {point} took {iterations} outer iterations"
        );
        // Nothing failed along the way: the outer iterations are all the
        // point paid for.
        assert_eq!(metric(&run, point, "newton_iters"), iterations);
    }
    assert_eq!(rec.counter("shooting.predictor_fallbacks"), 0);
    assert_eq!(rec.counter("shooting.cold_fallbacks"), 0);
}
