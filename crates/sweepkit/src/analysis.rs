//! The uniform [`Analysis`] interface over the four solver entry points.
//!
//! Each existing solver has a bespoke signature (transient wants an
//! initial state and a span, shooting returns an orbit, the envelope
//! methods return bivariate surfaces). [`Analysis::run`] flattens all of
//! them to one shape — a [`ScenarioResult`] with a tabular waveform
//! section and a scalar-metric section — so sweep executors, CLIs, and
//! artifact writers need a single code path.

use crate::error::SweepError;
use circuitdae::{AnalysisSpec, CircuitDae, Dae};

/// The uniform result of one analysis run on one circuit instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Analysis keyword (`tran`, `shooting`, `mpde`, `wampde`).
    pub analysis: &'static str,
    /// Column names of the waveform table, starting with the abscissa.
    pub columns: Vec<String>,
    /// Waveform rows, one per abscissa sample.
    pub rows: Vec<Vec<f64>>,
    /// Scalar summary metrics, e.g. `("freq_hz", 7.5e5)`.
    pub metrics: Vec<(String, f64)>,
}

impl ScenarioResult {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Index of a waveform column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// A converged solver state handed from one grid point to the next
/// along a continuation chain (see `sweepkit::batch`).
///
/// Each analysis produces and consumes its own variant; a mismatched or
/// absent state simply means a cold start, never an error.
#[derive(Debug, Clone)]
pub enum WarmState {
    /// Converged DC operating point (`tran` chains).
    DcOp(Vec<f64>),
    /// Converged unforced periodic orbit (`shooting` / `wampde` chains):
    /// its `(x0, T)` and lineage seed the next position's orbit Newton,
    /// its samples that Newton's first flow, and the monodromy its own
    /// Newton last used that Newton's first step.
    Orbit(shooting::ShootingWarmStart),
    /// Converged `t2 = 0` collocation state (`mpde` chains).
    Colloc(Vec<f64>),
}

/// One deck analysis, uniformly runnable on any circuit instance.
///
/// Implementations wrap the solver adapters (`transim::run_tran_spec`,
/// `shooting::run_shooting_spec`, `mpde::run_mpde_spec`,
/// `wampde::run_wampde_spec`); [`analysis_for`] picks the right one for a
/// parsed [`AnalysisSpec`].
pub trait Analysis: Send + Sync {
    /// The directive keyword, used in labels and artifact names.
    fn name(&self) -> &'static str;

    /// Runs the analysis on one (possibly sweep-overridden) circuit.
    ///
    /// # Errors
    ///
    /// The wrapped solver's error, converted to [`SweepError`].
    fn run(&self, dae: &CircuitDae) -> Result<ScenarioResult, SweepError> {
        self.run_warm(dae, None).map(|(res, _)| res)
    }

    /// Runs the analysis with an optional continuation warm start from a
    /// neighbouring grid point, returning this point's own converged
    /// state for the next link of the chain. `warm = None` (or a
    /// mismatched variant) is exactly [`Analysis::run`].
    ///
    /// # Errors
    ///
    /// The wrapped solver's error, converted to [`SweepError`].
    fn run_warm(
        &self,
        dae: &CircuitDae,
        warm: Option<&WarmState>,
    ) -> Result<(ScenarioResult, Option<WarmState>), SweepError>;
}

/// Dispatches a parsed directive to its solver-backed [`Analysis`].
pub fn analysis_for(spec: &AnalysisSpec) -> Box<dyn Analysis> {
    match spec.clone() {
        AnalysisSpec::Tran(s) => Box::new(TranAnalysis(s)),
        AnalysisSpec::Shooting(s) => Box::new(ShootingAnalysis(s)),
        AnalysisSpec::Mpde(s) => Box::new(MpdeAnalysis(s)),
        AnalysisSpec::Wampde(s) => Box::new(WampdeAnalysis(s)),
    }
}

/// `.tran` — conventional transient from the DC operating point.
struct TranAnalysis(circuitdae::TranSpec);

impl Analysis for TranAnalysis {
    fn name(&self) -> &'static str {
        "tran"
    }

    fn run_warm(
        &self,
        dae: &CircuitDae,
        warm: Option<&WarmState>,
    ) -> Result<(ScenarioResult, Option<WarmState>), SweepError> {
        let _sp = obskit::span_with("analysis", &[("kind", obskit::AttrValue::Str("tran"))]);
        let seed = match warm {
            Some(WarmState::DcOp(x)) if x.len() == dae.dim() => Some(x.as_slice()),
            _ => None,
        };
        let (res, dcop) = transim::run_tran_spec_warm(dae, &self.0, seed)?;
        let mut columns = vec!["t".to_string()];
        columns.extend(dae.var_names());
        let rows = res
            .times
            .iter()
            .zip(res.states.iter())
            .map(|(&t, x)| {
                let mut row = Vec::with_capacity(1 + x.len());
                row.push(t);
                row.extend_from_slice(x);
                row
            })
            .collect();
        Ok((
            ScenarioResult {
                analysis: self.name(),
                columns,
                rows,
                metrics: vec![
                    ("steps".into(), res.stats.steps as f64),
                    ("rejected".into(), res.stats.rejected as f64),
                    ("newton_iters".into(), res.stats.newton_iters as f64),
                    ("factorisations".into(), res.stats.factorisations as f64),
                    ("symbolic_reuses".into(), res.stats.symbolic_reuses as f64),
                ],
            },
            Some(WarmState::DcOp(dcop)),
        ))
    }
}

/// `.shooting` — unforced periodic steady state.
struct ShootingAnalysis(circuitdae::ShootingSpec);

impl Analysis for ShootingAnalysis {
    fn name(&self) -> &'static str {
        "shooting"
    }

    fn run_warm(
        &self,
        dae: &CircuitDae,
        warm: Option<&WarmState>,
    ) -> Result<(ScenarioResult, Option<WarmState>), SweepError> {
        let _sp = obskit::span_with("analysis", &[("kind", obskit::AttrValue::Str("shooting"))]);
        let seed = match warm {
            Some(WarmState::Orbit(w)) => Some(w),
            _ => None,
        };
        let (orbit, stats) = shooting::run_shooting_spec_warm(dae, &self.0, seed)?;
        let mut columns = vec!["t1".to_string()];
        columns.extend(dae.var_names());
        // Samples span one closed period (endpoint included), so the
        // phase column runs 0 ..= 1.
        let denom = orbit.samples.len().saturating_sub(1).max(1) as f64;
        let rows = orbit
            .samples
            .iter()
            .enumerate()
            .map(|(s, x)| {
                let mut row = Vec::with_capacity(1 + x.len());
                row.push(s as f64 / denom);
                row.extend_from_slice(x);
                row
            })
            .collect();
        // `newton_iters` covers the whole pipeline this point actually
        // paid for (warm-up/settle transients + orbit Newton on a cold
        // start; the orbit Newton alone on a warm one; both when a failed
        // warm start fell back to cold), so chained and cold costs are
        // directly comparable. `factorisations` covers the same pipeline,
        // every flow's step matrices included.
        let warm_state = WarmState::Orbit(shooting::ShootingWarmStart::from_orbit(&orbit));
        Ok((
            ScenarioResult {
                analysis: self.name(),
                columns,
                rows,
                metrics: vec![
                    ("period_s".into(), orbit.period),
                    ("freq_hz".into(), orbit.frequency()),
                    ("iterations".into(), orbit.iterations as f64),
                    ("newton_iters".into(), stats.newton_iters as f64),
                    ("factorisations".into(), stats.factorisations as f64),
                ],
            },
            Some(warm_state),
        ))
    }
}

/// `.mpde` — unwarped multirate envelope with AM forcing.
struct MpdeAnalysis(circuitdae::MpdeSpec);

impl Analysis for MpdeAnalysis {
    fn name(&self) -> &'static str {
        "mpde"
    }

    fn run_warm(
        &self,
        dae: &CircuitDae,
        warm: Option<&WarmState>,
    ) -> Result<(ScenarioResult, Option<WarmState>), SweepError> {
        let _sp = obskit::span_with("analysis", &[("kind", obskit::AttrValue::Str("mpde"))]);
        let seed = match warm {
            Some(WarmState::Colloc(x)) => Some(x.as_slice()),
            _ => None,
        };
        let res = mpde::run_mpde_spec_warm(dae, &self.0, seed)?;
        let names = dae.var_names();
        let mut columns = vec!["t2".to_string()];
        columns.extend(names.iter().map(|n| format!("amp({n})")));
        let amps: Vec<Vec<f64>> = (0..res.n).map(|v| res.envelope_amplitude(v)).collect();
        let rows = res
            .t2
            .iter()
            .enumerate()
            .map(|(idx, &t2)| {
                let mut row = Vec::with_capacity(1 + res.n);
                row.push(t2);
                row.extend(amps.iter().map(|a| a[idx]));
                row
            })
            .collect();
        let warm_state = res.states.first().cloned().map(WarmState::Colloc);
        Ok((
            ScenarioResult {
                analysis: self.name(),
                columns,
                rows,
                metrics: vec![
                    ("f1_hz".into(), self.0.f1_hz),
                    ("points".into(), res.t2.len() as f64),
                    ("steps".into(), res.stats.steps as f64),
                    ("rejected".into(), res.stats.rejected as f64),
                    ("newton_iters".into(), res.stats.newton_iters as f64),
                    ("factorisations".into(), res.stats.factorisations as f64),
                    ("symbolic_reuses".into(), res.stats.symbolic_reuses as f64),
                ],
            },
            warm_state,
        ))
    }
}

/// `.wampde` — warped multirate envelope (the paper's method).
struct WampdeAnalysis(circuitdae::WampdeSpec);

impl Analysis for WampdeAnalysis {
    fn name(&self) -> &'static str {
        "wampde"
    }

    fn run_warm(
        &self,
        dae: &CircuitDae,
        warm: Option<&WarmState>,
    ) -> Result<(ScenarioResult, Option<WarmState>), SweepError> {
        let _sp = obskit::span_with("analysis", &[("kind", obskit::AttrValue::Str("wampde"))]);
        let seed = match warm {
            Some(WarmState::Orbit(w)) => Some(w),
            _ => None,
        };
        let (env, orbit, init) = wampde::run_wampde_spec_warm(dae, &self.0, seed)?;
        let names = dae.var_names();
        let mut columns = vec![
            "t2".to_string(),
            "omega_hz".to_string(),
            "phi_cycles".to_string(),
        ];
        columns.extend(names.iter().map(|n| format!("amp({n})")));
        let amps: Vec<Vec<f64>> = (0..env.n).map(|v| env.envelope_amplitude(v)).collect();
        let rows = (0..env.len())
            .map(|idx| {
                let mut row = Vec::with_capacity(3 + env.n);
                row.push(env.t2[idx]);
                row.push(env.omega_hz[idx]);
                row.push(env.phi[idx]);
                row.extend(amps.iter().map(|a| a[idx]));
                row
            })
            .collect();
        let (lo, hi) = env.frequency_range();
        // As for `.shooting`, `newton_iters` covers everything the point
        // paid for: the envelope plus its unforced-orbit initialisation.
        let newton_iters = env.stats.newton_iters + init.newton_iters;
        let warm_state = WarmState::Orbit(shooting::ShootingWarmStart::from_orbit(&orbit));
        Ok((
            ScenarioResult {
                analysis: self.name(),
                columns,
                rows,
                metrics: vec![
                    ("omega_min_hz".into(), lo),
                    ("omega_max_hz".into(), hi),
                    ("steps".into(), env.stats.steps as f64),
                    ("rejected".into(), env.stats.rejected as f64),
                    ("newton_iters".into(), newton_iters as f64),
                    ("factorisations".into(), env.stats.factorisations as f64),
                    ("symbolic_reuses".into(), env.stats.symbolic_reuses as f64),
                ],
            },
            Some(warm_state),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::parse_deck;

    #[test]
    fn tran_analysis_produces_table_and_metrics() {
        let deck = parse_deck(
            "V1 in 0 DC(5)\n\
             R1 in out 1k\n\
             C1 out 0 1u\n\
             .tran 5m\n",
        )
        .unwrap();
        let dae = deck.base_circuit().unwrap();
        let a = analysis_for(&deck.analyses[0]);
        assert_eq!(a.name(), "tran");
        let res = a.run(&dae).unwrap();
        assert_eq!(res.columns[0], "t");
        assert_eq!(res.columns.len(), 1 + dae.dim());
        assert!(res.rows.len() > 2);
        assert!(res.metric("steps").unwrap() > 0.0);
        let vout = res.column("v(out)").unwrap();
        let last = res.rows.last().unwrap();
        assert!((last[vout] - 5.0).abs() < 0.05);
    }

    #[test]
    fn shooting_analysis_reports_frequency() {
        let deck = parse_deck(
            "C1 tank 0 4.503n\n\
             L1 tank 0 10u\n\
             GN1 tank 0 5m 1.667m\n\
             .shooting steps=128\n",
        )
        .unwrap();
        let dae = deck.base_circuit().unwrap();
        let res = analysis_for(&deck.analyses[0]).run(&dae).unwrap();
        let f = res.metric("freq_hz").unwrap();
        assert!((f - 0.75e6).abs() / 0.75e6 < 0.05, "f = {f}");
        assert_eq!(res.rows.len(), 129); // closed period, endpoint included
        assert_eq!(res.rows.last().unwrap()[0], 1.0);
    }

    #[test]
    fn mpde_analysis_runs_rc_lowpass() {
        let deck = parse_deck(
            "R1 out 0 1k\n\
             C1 out 0 1n\n\
             .mpde 1meg 2m amp=1m depth=0.5 fmod=1k\n",
        )
        .unwrap();
        let dae = deck.base_circuit().unwrap();
        let res = analysis_for(&deck.analyses[0]).run(&dae).unwrap();
        assert_eq!(res.columns, vec!["t2", "amp(v(out))"]);
        assert!(res.rows.len() > 10);
        assert_eq!(res.metric("f1_hz").unwrap(), 1e6);
    }

    #[test]
    fn options_solver_is_honored_end_to_end() {
        // The `.options solver=klu` deck line must reach the solver:
        // the run succeeds and matches the dense-deck result exactly for
        // this linear circuit (identical step sequences).
        const CARDS: &str = "V1 in 0 SIN(0 5 1k)\n\
                             R1 in out 1k\n\
                             C1 out 0 1u\n\
                             .tran 1m dt=20u\n";
        let dense_deck = parse_deck(CARDS).unwrap();
        let sparse_deck = parse_deck(&format!("{CARDS}.options solver=klu\n")).unwrap();
        assert_eq!(
            sparse_deck.analyses[0].solver(),
            circuitdae::LinearSolverKind::Klu
        );
        let dae = dense_deck.base_circuit().unwrap();
        let dense = analysis_for(&dense_deck.analyses[0]).run(&dae).unwrap();
        let sparse = analysis_for(&sparse_deck.analyses[0]).run(&dae).unwrap();
        assert_eq!(dense.rows.len(), sparse.rows.len());
        for (a, b) in dense.rows.iter().zip(sparse.rows.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn newton_reuse_metrics_reported() {
        // The per-directive `solver=klu` key routes the transient
        // through the sparse backend; the shared Newton engine then
        // reuses the symbolic analysis on every factorisation after the
        // first, and the counters surface as sweep metrics.
        let deck = parse_deck(
            "V1 in 0 SIN(0 5 1k)\n\
             R1 in out 1k\n\
             C1 out 0 1u\n\
             .tran 1m dt=20u solver=klu\n\
             .tran 1m dt=20u solver=dense\n",
        )
        .unwrap();
        let dae = deck.base_circuit().unwrap();
        let sparse = analysis_for(&deck.analyses[0]).run(&dae).unwrap();
        let fact = sparse.metric("factorisations").unwrap();
        let reuse = sparse.metric("symbolic_reuses").unwrap();
        assert!(fact > 0.0);
        assert_eq!(reuse, fact - 1.0, "one symbolic analysis for the run");
        // Dense LU has no symbolic phase to reuse.
        let dense = analysis_for(&deck.analyses[1]).run(&dae).unwrap();
        assert!(dense.metric("factorisations").unwrap() > 0.0);
        assert_eq!(dense.metric("symbolic_reuses").unwrap(), 0.0);
    }

    #[test]
    fn mpde_analysis_rejects_bad_node() {
        let deck = parse_deck(
            "R1 out 0 1k\n\
             C1 out 0 1n\n\
             .mpde 1meg 2m node=9\n",
        )
        .unwrap();
        let dae = deck.base_circuit().unwrap();
        let err = analysis_for(&deck.analyses[0]).run(&dae).unwrap_err();
        assert!(matches!(err, SweepError::Wampde(_)), "{err}");
    }
}
