//! Regenerates every figure and headline number of the paper.
//!
//! ```text
//! cargo run --release -p wampde_bench --bin repro            # everything
//! cargo run --release -p wampde_bench --bin repro -- --fig 7 # one figure
//! cargo run --release -p wampde_bench --bin repro -- --table speedup
//! cargo run --release -p wampde_bench --bin repro -- --list  # targets
//! ```
//!
//! CSV data lands in `target/repro/`; summaries print to stdout, with
//! the paper's value beside each measured one where the paper gives
//! it. Unknown `--fig`/`--table` values
//! exit with the valid target list instead of running nothing.

use circuitdae::circuits::{self, MemsVcoConfig};
use multitime::{am, fm};
use sigproc::phase_error_trace;
use wampde_bench::out::{ascii_plot, repro_dir, write_csv, write_text_in};
use wampde_bench::{
    run_envelope, run_transient_fixed, run_transient_reference, unforced_orbit,
    unforced_orbit_with_stats, univariate_x0, CyclicJacobian, StepJacobian,
};

/// Every runnable target: figure groups and named tables, with the
/// driver that produces them. The single source for `--list` and for
/// validating `--fig`/`--table` values.
const FIG_GROUPS: &[(&str, &[u32], &str)] = &[
    ("figs 1-3", &[1, 2, 3], "two-tone AM signal, bivariate grid"),
    (
        "figs 4-6",
        &[4, 5, 6],
        "FM signal, unwarped vs warped grids",
    ),
    ("figs 7-9", &[7, 8, 9], "vacuum MEMS VCO envelope + overlay"),
    (
        "figs 10-12",
        &[10, 11, 12],
        "air MEMS VCO envelope + phase error",
    ),
];
const TABLES: &[(&str, &str)] = &[
    (
        "samples",
        "accuracy-matched representation sizes (figs 1-3)",
    ),
    ("speedup", "wall-time/phase-error comparison (figs 10-12)"),
    (
        "linsolve",
        "linear-solver scaling on ring_loaded_vco (BENCH_linsolve.json)",
    ),
    (
        "timestep",
        "adaptive vs fixed slow-time stepping per solver (BENCH_timestep.json)",
    ),
    (
        "newton",
        "symbolic-reuse vs fresh factorisation per Newton iteration (BENCH_newton.json)",
    ),
    (
        "sweep",
        "warm-cache and batched-chain sweep throughput (BENCH_sweep.json)",
    ),
    (
        "obs",
        "instrumentation coverage + overhead on ring_scaling (BENCH_obs.json)",
    ),
];

fn print_targets() {
    println!("available targets:");
    for (label, figs, what) in FIG_GROUPS {
        let nums: Vec<String> = figs.iter().map(u32::to_string).collect();
        println!("  --fig {{{}}}  {label}: {what}", nums.join(","));
    }
    for (name, what) in TABLES {
        println!("  --table {name:<9} {what}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<u32> = Vec::new();
    let mut tables: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                let fig = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fig requires a figure number (1-12)");
                    std::process::exit(2);
                });
                if !FIG_GROUPS.iter().any(|(_, fs, _)| fs.contains(&fig)) {
                    eprintln!("unknown figure {fig}");
                    print_targets();
                    std::process::exit(2);
                }
                figs.push(fig);
            }
            "--table" => {
                i += 1;
                let table = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--table requires a table name");
                    std::process::exit(2);
                });
                if !TABLES.iter().any(|(name, _)| *name == table) {
                    eprintln!("unknown table '{table}'");
                    print_targets();
                    std::process::exit(2);
                }
                tables.push(table);
            }
            "--list" => {
                print_targets();
                return;
            }
            "--all" => {}
            other => {
                eprintln!("unknown argument: {other}");
                print_targets();
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let all = figs.is_empty() && tables.is_empty();
    let want_fig = |n: u32| all || figs.contains(&n);
    let want_table = |name: &str| all || tables.iter().any(|t| t == name);

    if want_fig(1) || want_fig(2) || want_fig(3) || want_table("samples") {
        figures_1_to_3();
    }
    if want_fig(4) || want_fig(5) || want_fig(6) {
        figures_4_to_6();
    }
    if want_fig(7) || want_fig(8) || want_fig(9) {
        figures_7_to_9();
    }
    if want_fig(10) || want_fig(11) || want_fig(12) || want_table("speedup") {
        figures_10_to_12();
    }
    if want_table("linsolve") {
        table_linsolve();
    }
    if want_table("timestep") {
        table_timestep();
    }
    if want_table("newton") {
        table_newton();
    }
    if want_table("sweep") {
        table_sweep();
    }
    if want_table("obs") {
        table_obs();
    }
}

/// Builds the RC-ladder-loaded LC VCO as deck cards (the deck-level twin
/// of `circuitdae::circuits::ring_loaded_vco`).
fn ring_ladder_cards(stages: usize) -> String {
    let mut s = String::from(
        "C1  tank 0 4.503n\n\
         L1  tank 0 10u\n\
         GN1 tank 0 5m 1.667m\n",
    );
    let mut prev = "tank".to_string();
    for k in 0..stages {
        let node = format!("ld{k}");
        s.push_str(&format!("R{} {prev} {node} 10k\n", k + 2));
        s.push_str(&format!("C{} {node} 0 1p\n", k + 2));
        prev = node;
    }
    s
}

/// Deck-driven adaptive-vs-fixed step comparison for every slow-time
/// stepper, the machine-readable record of the shared `timekit` layer:
/// each solver runs the same deck once with LTE-adaptive stepping and
/// once with a tight fixed step, and must land on the same answer with
/// measurably fewer steps. Emits `target/repro/BENCH_timestep.json`.
fn table_timestep() {
    println!("=== table `timestep`: adaptive vs fixed slow-time stepping ===");
    println!("  solver   mode      integrator   steps  rejected   wall (ms)   rel dev");
    let mut records: Vec<String> = Vec::new();
    let mut record = |solver: &str,
                      mode: &str,
                      integrator: &str,
                      steps: usize,
                      rejected: usize,
                      wall_ns: u128,
                      rel_dev: f64| {
        println!(
            "  {solver:<8} {mode:<9} {integrator:<12} {steps:>5} {rejected:>9} {:>11.2}   {rel_dev:.2e}",
            wall_ns as f64 / 1e6
        );
        records.push(format!(
            "    {{\"solver\": \"{solver}\", \"mode\": \"{mode}\", \"integrator\": \
             \"{integrator}\", \"steps\": {steps}, \"rejected\": {rejected}, \
             \"wall_ns\": {wall_ns}, \"rel_dev\": {rel_dev:e}}}"
        ));
    };

    // --- WaMPDE envelope on the ring-loaded VCO (the acceptance
    // workload). The initial orbit excites a weakly damped settling
    // beat of ω(t2): adaptive BDF2 resolves it finely early and
    // coarsens as it decays, while an equal-accuracy fixed run must
    // keep the transient-resolving step for the whole horizon. ---
    {
        let cards = ring_ladder_cards(8);
        let run = |directive: &str| {
            let deck = circuitdae::parse_deck(&format!("{cards}{directive}\n"))
                .expect("timestep deck parses");
            let dae = deck.base_circuit().expect("timestep deck instantiates");
            let circuitdae::AnalysisSpec::Wampde(w) = &deck.analyses[0] else {
                unreachable!("deck has one .wampde directive")
            };
            let t0 = std::time::Instant::now();
            let env = wampde::run_wampde_spec(&dae, w).expect("wampde run converges");
            (env, w.step.integrator.label(), t0.elapsed().as_nanos())
        };
        let (env_a, integ, wall_a) = run(".wampde 40u harmonics=5 steps=256");
        // Equal-accuracy fixed baseline: the mean accepted step over the
        // adaptive run's first decile — the resolution the settling
        // transient demands, which a fixed-step user (not knowing where
        // the transient ends) must pay everywhere.
        let hs: Vec<f64> = env_a.t2.windows(2).map(|w| w[1] - w[0]).collect();
        let decile = (hs.len() / 10).max(1);
        let dt_fixed = hs[..decile].iter().sum::<f64>() / decile as f64;
        let (env_f, _, wall_f) = run(&format!(
            ".wampde 40u harmonics=5 steps=256 dt={dt_fixed:e}"
        ));
        let omega_a = *env_a.omega_hz.last().expect("nonempty envelope");
        let omega_f = *env_f.omega_hz.last().expect("nonempty envelope");
        let rel = (omega_a - omega_f).abs() / omega_f;
        assert!(
            rel < 5e-3,
            "adaptive settled omega {omega_a} deviates from fixed {omega_f}"
        );
        record(
            "wampde",
            "adaptive",
            integ,
            env_a.stats.steps,
            env_a.stats.rejected,
            wall_a,
            rel,
        );
        record(
            "wampde",
            "fixed",
            integ,
            env_f.stats.steps,
            env_f.stats.rejected,
            wall_f,
            0.0,
        );
        assert!(
            env_a.stats.steps + env_a.stats.rejected < env_f.stats.steps,
            "adaptive must take fewer t2 solves ({} + {} rejected vs {})",
            env_a.stats.steps,
            env_a.stats.rejected,
            env_f.stats.steps
        );
    }

    // --- Transient on a pulse-driven RC ladder: 1 µs edges separated
    // by long flats. Adaptive trapezoidal resolves the edges and
    // coasts across the flats; a fixed-step run must resolve the edges
    // everywhere. ---
    {
        let mut cards =
            String::from("V1 in 0 PULSE(0 1 1u 2m 1u 4m)\nR1 in ld0 1k\nC1 ld0 0 10n\n");
        for k in 0..3 {
            cards.push_str(&format!("R{} ld{k} ld{} 1k\n", k + 2, k + 1));
            cards.push_str(&format!("C{} ld{} 0 10n\n", k + 2, k + 1));
        }
        // One 1 µs rising edge at t = 0, then ~100 µs of RC settling and
        // a long flat: adaptive steps resolve the edge and settle, then
        // coast at dt_max; the fixed run pays edge resolution everywhere.
        let deck = circuitdae::parse_deck(
            &format!(
                "{cards}.tran 1m rtol=1e-6 atol=1e-9\n\
                 .tran 1m dt=0.25u\n"
            ), // 4 points across the 1 µs edge
        )
        .expect("tran timestep deck parses");
        let dae = deck.base_circuit().expect("deck instantiates");
        let mut finals = Vec::new();
        for spec in &deck.analyses {
            let circuitdae::AnalysisSpec::Tran(t) = spec else {
                unreachable!("deck has only .tran directives")
            };
            let mode = if t.step.dt > 0.0 { "fixed" } else { "adaptive" };
            let t0 = std::time::Instant::now();
            let res = transim::run_tran_spec(&dae, t).expect("transient converges");
            let wall = t0.elapsed().as_nanos();
            finals.push((
                mode,
                t.step.integrator.label(),
                res.stats.steps,
                res.stats.rejected,
                wall,
                res.last()[res.last().len() - 2], // deep ladder node
            ));
        }
        let v_fixed = finals.iter().find(|r| r.0 == "fixed").unwrap().5;
        let scale = v_fixed.abs().max(0.1);
        for (mode, integ, steps, rejected, wall, v) in &finals {
            let rel = (v - v_fixed).abs() / scale;
            assert!(rel < 1e-2, "{mode} final value {v} deviates from {v_fixed}");
            record("transim", mode, integ, *steps, *rejected, *wall, rel);
        }
        let adaptive = finals.iter().find(|r| r.0 == "adaptive").unwrap();
        let fixed = finals.iter().find(|r| r.0 == "fixed").unwrap();
        assert!(
            adaptive.2 + adaptive.3 < fixed.2,
            "adaptive must take fewer transient solves ({} + {} rejected vs {})",
            adaptive.2,
            adaptive.3,
            fixed.2
        );
    }

    // --- MPDE envelope on the AM-driven RC low-pass: fixed Backward
    // Euler vs rtol-triggered adaptive stepping. ---
    {
        let deck = circuitdae::parse_deck(
            "R1 out 0 1k\n\
             C1 out 0 1n\n\
             .mpde 1meg 2m amp=1m depth=0.5 fmod=1k rtol=1e-4 atol=1e-6\n\
             .mpde 1meg 2m amp=1m depth=0.5 fmod=1k dt=10u\n",
        )
        .expect("mpde timestep deck parses");
        let dae = deck.base_circuit().expect("deck instantiates");
        let mut finals = Vec::new();
        for spec in &deck.analyses {
            let circuitdae::AnalysisSpec::Mpde(m) = spec else {
                unreachable!("deck has only .mpde directives")
            };
            let mode = if m.step.rtol > 0.0 {
                "adaptive"
            } else {
                "fixed"
            };
            let t0 = std::time::Instant::now();
            let res = mpde::run_mpde_spec(&dae, m).expect("mpde run converges");
            let wall = t0.elapsed().as_nanos();
            // Peak demodulated envelope over the run: both modes see the
            // same quasi-static filter response.
            let peak = res
                .envelope_amplitude(0)
                .into_iter()
                .fold(0.0_f64, f64::max);
            finals.push((
                mode,
                m.step.integrator.label(),
                res.stats.steps,
                res.stats.rejected,
                wall,
                peak,
            ));
        }
        let peak_fixed = finals.iter().find(|r| r.0 == "fixed").unwrap().5;
        for (mode, integ, steps, rejected, wall, peak) in &finals {
            let rel = (peak - peak_fixed).abs() / peak_fixed;
            assert!(rel < 2e-2, "{mode} peak {peak} deviates from {peak_fixed}");
            record("mpde", mode, integ, *steps, *rejected, *wall, rel);
        }
        let adaptive = finals.iter().find(|r| r.0 == "adaptive").unwrap();
        let fixed = finals.iter().find(|r| r.0 == "fixed").unwrap();
        assert!(
            adaptive.2 + adaptive.3 < fixed.2,
            "adaptive must take fewer mpde solves ({} + {} rejected vs {})",
            adaptive.2,
            adaptive.3,
            fixed.2
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"timestep\",\n  \"workload\": \"deck-driven adaptive vs \
         fixed slow-time stepping (timekit controller), per solver\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    let p = write_text_in(&repro_dir(), "BENCH_timestep.json", &json).expect("write json");
    println!("  -> {}", p.display());
}

/// Machine-readable record of the shared Newton layer
/// (`crates/newtonkit` + pattern-reusing KLU refactorisation):
///
/// * **kernel** — on the `ring_loaded_vco(128)` bordered step Jacobian
///   (dim 1431), times a fresh KLU factorisation (BTF + AMD ordering,
///   symbolic DFS and numeric elimination) against the numeric-only
///   refactorisation that every Newton iteration after the first
///   performs, asserts the reuse path is faster *and* bitwise-identical,
///   and records the speedup;
/// * **per-solver rows** — deck-driven runs (using the per-directive
///   `solver=klu` key) of transim/mpde/wampde: Newton iterations,
///   factorisations, symbolic reuse counts, wall.
///
/// Emits `target/repro/BENCH_newton.json`.
fn table_newton() {
    use sparsekit::{OrderingPlan, SparseLu};
    println!("=== table `newton`: pattern-reusing KLU refactorisation ===");
    let mut records: Vec<String> = Vec::new();

    // --- Kernel: fresh vs numeric-only refactorisation. ---
    let jac = StepJacobian::build(128, 5);
    let csc = jac.parts().assemble_triplets().to_csc();
    let fresh = || {
        let plan = OrderingPlan::for_matrix(&csc).expect("step jacobian orders");
        SparseLu::factor_ordered(&csc, &plan).expect("step jacobian factors")
    };
    let reps = 7;
    let mut fresh_ns = u128::MAX;
    let mut lu = fresh();
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        lu = fresh();
        fresh_ns = fresh_ns.min(t0.elapsed().as_nanos());
    }
    let mut reuse_ns = u128::MAX;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        lu.refactor(&csc).expect("pattern unchanged");
        reuse_ns = reuse_ns.min(t0.elapsed().as_nanos());
    }
    // The refactorisation replays the fresh elimination bit for bit.
    let b = jac.rhs();
    let x_fresh = fresh().solve(&b[..csc.nrows()]).expect("solves");
    let x_reuse = lu.solve(&b[..csc.nrows()]).expect("solves");
    assert_eq!(
        x_fresh, x_reuse,
        "refactorisation must be bitwise-identical"
    );
    let speedup = fresh_ns as f64 / reuse_ns as f64;
    // The acceptance bar of the Newton-layer extraction: numeric-only
    // refactorisation beats fresh ordering+symbolic+numeric per iteration.
    assert!(
        speedup > 1.0,
        "symbolic reuse must beat fresh factorisation ({fresh_ns} ns vs {reuse_ns} ns)"
    );
    println!(
        "  kernel ring_loaded_vco(128), dim {}: fresh {:.2} ms, reuse {:.2} ms -> {speedup:.2}x",
        csc.nrows(),
        fresh_ns as f64 / 1e6,
        reuse_ns as f64 / 1e6
    );
    records.push(format!(
        "    {{\"row\": \"kernel\", \"backend\": \"klu\", \
         \"workload\": \"ring_loaded_vco(128) step jacobian\", \
         \"dim\": {}, \"fresh_ns\": {fresh_ns}, \"reuse_ns\": {reuse_ns}, \
         \"speedup\": {speedup:.3}}}",
        csc.nrows()
    ));

    // --- Per-solver rows: Newton counters under symbolic reuse. ---
    println!("  solver   iterations  factorisations  reused   wall (ms)");
    let mut solver_row =
        |solver: &str, iterations: usize, factorisations: usize, reused: usize, wall_ns: u128| {
            println!(
                "  {solver:<8} {iterations:>10} {factorisations:>15} {reused:>7} {:>11.2}",
                wall_ns as f64 / 1e6
            );
            records.push(format!(
                "    {{\"row\": \"solver\", \"solver\": \"{solver}\", \
                 \"iterations\": {iterations}, \"factorisations\": {factorisations}, \
                 \"symbolic_reuses\": {reused}, \"wall_ns\": {wall_ns}}}"
            ));
        };

    // transim: deck-driven (per-directive `solver=klu` key) pulse
    // transient on the ladder.
    {
        let cards = ring_ladder_cards(16);
        let deck = circuitdae::parse_deck(&format!("{cards}.tran 2u dt=10n solver=klu\n"))
            .expect("newton deck parses");
        let dae = deck.base_circuit().expect("newton deck instantiates");
        let circuitdae::AnalysisSpec::Tran(t) = &deck.analyses[0] else {
            unreachable!("deck has one .tran directive")
        };
        assert_eq!(
            t.solver,
            wampde::LinearSolverKind::Klu,
            "per-directive solver= key must reach the spec"
        );
        let newton = newtonkit::NewtonPolicy {
            linear_solver: t.solver,
            ..Default::default()
        };
        let x0 = transim::dc_operating_point(&dae, &newton).expect("dc");
        let t0 = std::time::Instant::now();
        let res = transim::run_transient(
            &dae,
            &x0,
            0.0,
            t.t_stop,
            &transim::TransientOptions {
                integrator: t.step.integrator,
                step: t.step.policy(),
                newton,
            },
        )
        .expect("transient converges");
        let wall = t0.elapsed().as_nanos();
        assert_eq!(
            res.stats.symbolic_reuses,
            res.stats.factorisations - 1,
            "constant pattern: one symbolic analysis per run"
        );
        solver_row(
            "transim",
            res.stats.newton_iters,
            res.stats.factorisations,
            res.stats.symbolic_reuses,
            wall,
        );
    }

    // mpde: AM envelope on the RC low-pass (deck-driven spec, solver=
    // pinned per directive).
    {
        let deck = circuitdae::parse_deck(
            "R1 out 0 1k\n\
             C1 out 0 1n\n\
             .mpde 1meg 2m amp=1m depth=0.5 fmod=1k dt=20u solver=klu\n",
        )
        .expect("mpde newton deck parses");
        let dae = deck.base_circuit().expect("deck instantiates");
        let circuitdae::AnalysisSpec::Mpde(m) = &deck.analyses[0] else {
            unreachable!("deck has one .mpde directive")
        };
        let t0 = std::time::Instant::now();
        let res = mpde::run_mpde_spec(&dae, m).expect("mpde converges");
        let wall = t0.elapsed().as_nanos();
        solver_row(
            "mpde",
            res.stats.newton_iters,
            res.stats.factorisations,
            res.stats.symbolic_reuses,
            wall,
        );
    }

    // wampde: envelope of the ring-loaded VCO.
    {
        let dae = circuitdae::circuits::ring_loaded_vco(8);
        let orbit = shooting::oscillator_steady_state(
            &dae,
            &shooting::ShootingOptions {
                steps_per_period: 256,
                linear_solver: wampde::LinearSolverKind::Klu,
                ..Default::default()
            },
        )
        .expect("ring VCO oscillates");
        let opts = wampde::WampdeOptions {
            harmonics: 5,
            step: wampde::T2StepControl::Fixed(2.0e-7),
            linear_solver: wampde::LinearSolverKind::Klu,
            // Every iteration factors, so the row counts symbolic reuse
            // alone (Jacobian reuse would skip factorisations).
            newton: newtonkit::NewtonPolicy {
                reuse_jacobian: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let init = wampde::WampdeInit::from_orbit(&orbit, &opts);
        let t0 = std::time::Instant::now();
        let env = wampde::solve_envelope(&dae, &init, 4.0e-6, &opts).expect("envelope");
        let wall = t0.elapsed().as_nanos();
        assert!(
            env.stats.symbolic_reuses > 0,
            "envelope must reuse symbolic analysis: {:?}",
            env.stats
        );
        solver_row(
            "wampde",
            env.stats.newton_iters,
            env.stats.factorisations,
            env.stats.symbolic_reuses,
            wall,
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"newton\",\n  \"workload\": \"pattern-reusing symbolic \
         KLU refactorisation (newtonkit + SparseLu::refactor): kernel fresh-vs-reuse on \
         ring_loaded_vco(128), per-solver Newton counters\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    let p = write_text_in(&repro_dir(), "BENCH_newton.json", &json).expect("write json");
    println!("  -> {}", p.display());
}

/// Sweep-service throughput: the cache layer and the batched executor.
///
/// Part 1 — cold vs warm-cache on the committed `vco_sweep` deck
/// (8 jobs: shooting + WaMPDE envelope at 4 control voltages):
///
/// * **cold** — empty cache directory, every job computed by a solver
///   and stored;
/// * **warm** — identical rerun, every job answered from the cache.
///
/// Asserts the two outcomes render to byte-identical CSV (the cache
/// changes *when*, never *what*) and that the warm rerun is at least
/// 5× faster than the cold run.
///
/// Part 2 — batched continuation chains vs independent cold jobs on the
/// committed `ladder_chain` deck, a 32-point control-voltage grid of the
/// RC-ladder-loaded VCO (KLU, so chains also share one sparse symbolic
/// analysis). Both runs use one worker and no cache, so the ratio is
/// pure solver work. Asserts the batched run is at least 1.5× faster,
/// that the mean Newton iteration count per warm-started point is
/// strictly below the cold-start mean and at most 2.5, that warm points
/// average at most 30 factorisations, and that every point's
/// oscillation frequency agrees to 1e-6. Prints the monodromy passes
/// per warm point, counted in one more, traced, batched run.
/// Emits `target/repro/BENCH_sweep.json`.
fn table_sweep() {
    use std::sync::Arc;
    use sweepkit::{run_deck_with, ResultCache, SweepConfig};
    const BATCHED_ITERS_CEILING: f64 = 2.5;
    const BATCHED_FACTORS_CEILING: f64 = 30.0;
    println!("=== table `sweep`: cold vs warm-cache sweep on vco_sweep ===");
    let deck_text = include_str!("../../../../examples/decks/vco_sweep.ckt");
    let deck = circuitdae::parse_deck(deck_text).expect("vco_sweep deck parses");

    let cache_dir = repro_dir().join("sweep-cache-bench");
    std::fs::remove_dir_all(&cache_dir).ok();
    let config = SweepConfig {
        jobs: 2,
        cache: Some(ResultCache::open(&cache_dir).expect("open cache dir")),
        ..SweepConfig::default()
    };

    let t0 = std::time::Instant::now();
    let cold = run_deck_with(&deck, &config, None).expect("cold sweep converges");
    let cold_ns = t0.elapsed().as_nanos();
    let t0 = std::time::Instant::now();
    let warm = run_deck_with(&deck, &config, None).expect("warm sweep converges");
    let warm_ns = t0.elapsed().as_nanos();

    assert_eq!(cold.stats.cache_hits, 0, "cold run must start empty");
    assert_eq!(
        cold.stats.executed, cold.stats.jobs_total,
        "cold run computes everything"
    );
    assert_eq!(
        warm.stats.cache_hits, warm.stats.jobs_total,
        "warm run must be served entirely from the cache"
    );
    // The determinism invariant: the cache changes when the answer
    // arrives, never which answer — down to rendered artifact bytes.
    for ai in 0..cold.outcome.analysis_labels.len() {
        let (h, r) = cold.outcome.waveform_table(ai);
        let (hw, rw) = warm.outcome.waveform_table(ai);
        let h_refs: Vec<&str> = h.iter().map(String::as_str).collect();
        let hw_refs: Vec<&str> = hw.iter().map(String::as_str).collect();
        assert_eq!(
            wampde_bench::out::csv_string(&h_refs, &r).as_bytes(),
            wampde_bench::out::csv_string(&hw_refs, &rw).as_bytes(),
            "analysis {ai}: warm CSV differs from cold"
        );
    }

    let speedup = cold_ns as f64 / warm_ns as f64;
    println!(
        "  {} job(s): cold {:.1} ms, warm {:.2} ms -> {speedup:.0}x",
        cold.stats.jobs_total,
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6
    );
    // The acceptance bar of the cache layer. Solver jobs run for
    // hundreds of milliseconds; a cache hit is a file read, so 5x is a
    // conservative floor even on loaded CI machines.
    assert!(
        speedup >= 5.0,
        "warm-cache rerun must be at least 5x faster than cold \
         ({cold_ns} ns vs {warm_ns} ns = {speedup:.1}x)"
    );

    // --- Part 2: batched chains vs independent cold jobs on the ladder
    // VCO whose varactor control voltage sweeps over 32 points; KLU
    // exercises the shared-symbolic path.
    let chain_deck =
        circuitdae::parse_deck(include_str!("../../../../examples/decks/ladder_chain.ckt"))
            .expect("ladder_chain deck parses");
    let run_mode = |warm_start: bool| {
        let config = SweepConfig {
            jobs: 1,
            warm_start,
            ..SweepConfig::default()
        };
        let t0 = std::time::Instant::now();
        let run = run_deck_with(&chain_deck, &config, None).expect("chain bench converges");
        (run, t0.elapsed().as_nanos())
    };
    let (indep, indep_ns) = run_mode(false);
    let (batched, batched_ns) = run_mode(true);
    // Monodromy passes of the warm points: every `monodromy` span lies
    // under the `job` span of its chain position, and position 0 is the
    // cold anchor. A traced run computes the untraced run's bytes.
    let rec = Arc::new(obskit::CollectingRecorder::new());
    {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        run_mode(true);
    }
    let spans = rec.spans();
    let by_id: std::collections::HashMap<_, _> = spans.iter().map(|s| (s.id, s)).collect();
    let warm_job = |span: &obskit::SpanRecord| {
        let mut up = span.parent;
        while let Some(id) = up {
            let s = by_id[&id];
            if s.name == "job" {
                return !s.attrs.contains(&("point", obskit::AttrValue::U64(0)));
            }
            up = s.parent;
        }
        false
    };
    let warm_passes = spans
        .iter()
        .filter(|s| s.name == "monodromy" && warm_job(s))
        .count();
    let metric = |run: &sweepkit::SweepRun, name: &str| -> Vec<f64> {
        run.outcome
            .runs
            .iter()
            .map(|rec| {
                rec.result
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("{name} metric present"))
            })
            .collect()
    };
    for (cold_hz, warm_hz) in metric(&indep, "freq_hz")
        .iter()
        .zip(metric(&batched, "freq_hz"))
    {
        assert!(
            (cold_hz - warm_hz).abs() <= 1e-6 * cold_hz.abs(),
            "warm-started point drifted: {cold_hz} Hz vs {warm_hz} Hz"
        );
    }
    // The chain anchor (point 0) is computed cold either way; the warm
    // claim is about every continuation-seeded point after it.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let cold_mean = mean(&metric(&indep, "newton_iters")[1..]);
    let warm_mean = mean(&metric(&batched, "newton_iters")[1..]);
    let warm_factors = mean(&metric(&batched, "factorisations")[1..]);
    let warm_points = batched.outcome.runs.len().saturating_sub(1).max(1);
    let warm_passes = warm_passes as f64 / warm_points as f64;
    let batched_speedup = indep_ns as f64 / batched_ns as f64;
    println!(
        "  {} point(s) batched: independent {:.0} ms, chained {:.0} ms -> {batched_speedup:.1}x \
         (newton iters/point {cold_mean:.0} -> {warm_mean:.1}, \
         factorisations/warm point {warm_factors:.1}, \
         monodromy passes/warm point {warm_passes:.2})",
        indep.stats.jobs_total,
        indep_ns as f64 / 1e6,
        batched_ns as f64 / 1e6
    );
    assert!(
        warm_mean < cold_mean,
        "warm-started points must average fewer Newton iterations than cold starts \
         ({warm_mean:.1} vs {cold_mean:.1})"
    );
    // Warm points start their orbit Newton from a seed extrapolated
    // through the chain's earlier orbits: 2.23 iterations per point when
    // first measured, against 9 from the neighbour's orbit alone. The
    // count does not depend on the machine.
    assert!(
        warm_mean <= BATCHED_ITERS_CEILING,
        "warm-started points must average at most {BATCHED_ITERS_CEILING} Newton \
         iterations ({warm_mean:.2})"
    );
    // A warm point's flows ride the neighbour's orbit and then each
    // other on kept step matrices, and its first Newton step borders the
    // neighbour's monodromy instead of running a pass (64 factorisations
    // here): 19.8 factorisations per warm point when first measured,
    // against 82.7 with flows on the history predictor and a pass for
    // every Jacobian. The count does not depend on the machine.
    assert!(
        warm_factors <= BATCHED_FACTORS_CEILING,
        "warm-started points must average at most {BATCHED_FACTORS_CEILING} \
         factorisations ({warm_factors:.1})"
    );
    // The acceptance bar of the batched executor: skipping the DC +
    // kick + settle pipeline on 31 of 32 points dwarfs 1.5x, which is a
    // conservative floor even on loaded CI machines.
    assert!(
        batched_speedup >= 1.5,
        "batched chains must be at least 1.5x faster than independent jobs \
         ({indep_ns} ns vs {batched_ns} ns = {batched_speedup:.2}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"workload\": \"vco_sweep.ckt ({} jobs: \
         shooting + wampde at 4 control voltages), cold vs warm content-hashed \
         result cache; 32-point ladder-VCO control grid, independent vs batched \
         continuation chains\",\n  \"results\": [\n    {{\"mode\": \"cold\", \"wall_ns\": {cold_ns}, \
         \"executed\": {}, \"cache_hits\": {}}},\n    {{\"mode\": \"warm\", \
         \"wall_ns\": {warm_ns}, \"executed\": {}, \"cache_hits\": {}}},\n    \
         {{\"mode\": \"independent\", \"wall_ns\": {indep_ns}, \"executed\": {}, \
         \"mean_newton_iters\": {cold_mean:.3}}},\n    {{\"mode\": \"batched\", \
         \"wall_ns\": {batched_ns}, \"executed\": {}, \
         \"mean_newton_iters\": {warm_mean:.3}, \
         \"mean_factorisations\": {warm_factors:.3}, \
         \"mean_monodromy_passes\": {warm_passes:.3}}}\n  ],\n  \
         \"speedup\": {speedup:.3},\n  \"batched_speedup\": {batched_speedup:.3}\n}}\n",
        cold.stats.jobs_total,
        cold.stats.executed,
        cold.stats.cache_hits,
        warm.stats.executed,
        warm.stats.cache_hits,
        indep.stats.executed,
        batched.stats.executed,
    );
    let p = write_text_in(&repro_dir(), "BENCH_sweep.json", &json).expect("write json");
    println!("  -> {}", p.display());
}

/// Instrumentation acceptance table: coverage and overhead.
///
/// One cold traced sweep of `ring_scaling.ckt` proves every level of
/// the span hierarchy and every metric family actually fires; repeated
/// warm (all-cache-hit) sweeps, traced vs untraced, bound the cost of
/// leaving the instrumentation hooks compiled in (<5%) and re-prove the
/// determinism invariant (identical artifact bytes either way). Emits
/// `target/repro/BENCH_obs.json`.
fn table_obs() {
    use std::sync::Arc;
    use sweepkit::{run_deck_with, ResultCache, SweepConfig};
    println!("=== table `obs`: instrumentation coverage + overhead on ring_scaling ===");
    let deck_text = include_str!("../../../../examples/decks/ring_scaling.ckt");
    let deck = circuitdae::parse_deck(deck_text).expect("ring_scaling deck parses");

    let cache_dir = repro_dir().join("obs-cache-bench");
    std::fs::remove_dir_all(&cache_dir).ok();
    let config = SweepConfig {
        jobs: 2,
        cache: Some(ResultCache::open(&cache_dir).expect("open cache dir")),
        ..SweepConfig::default()
    };

    // Cold traced run: populates the cache and must light up the whole
    // instrumented stack.
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let t0 = std::time::Instant::now();
    let cold = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        run_deck_with(&deck, &config, None).expect("cold sweep converges")
    };
    let cold_ns = t0.elapsed().as_nanos();
    assert_eq!(cold.stats.executed, cold.stats.jobs_total);
    let span_names: std::collections::BTreeSet<&'static str> =
        rec.spans().iter().map(|s| s.name).collect();
    for level in [
        "sweep",
        "job",
        "analysis",
        "time-step",
        "newton",
        "newton-iter",
        "factor",
        "solve",
        "shooting",
    ] {
        assert!(
            span_names.contains(level),
            "cold traced sweep recorded no `{level}` span (saw {span_names:?})"
        );
    }
    for counter in [
        "sweep.executed",
        "newton.solves",
        "newton.iters",
        "factor.fresh",
        "step.accepted",
    ] {
        assert!(
            rec.counter(counter) > 0,
            "cold traced sweep left counter `{counter}` at zero"
        );
    }
    let cold_spans = rec.spans().len();
    println!(
        "  cold traced: {} job(s), {cold_spans} span(s), {} Newton iteration(s) in {:.1} ms",
        cold.stats.jobs_total,
        rec.counter("newton.iters"),
        cold_ns as f64 / 1e6
    );

    // Warm overhead: min-of-N wall time, traced vs untraced,
    // interleaved so machine drift hits both modes equally. A warm
    // sweep is pure cache reads, so this is the worst case for relative
    // recorder cost.
    const REPS: usize = 9;
    let mut untraced_ns = u128::MAX;
    let mut traced_ns = u128::MAX;
    let mut last_untraced = None;
    let mut last_traced = None;
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        let plain = run_deck_with(&deck, &config, None).expect("warm sweep converges");
        untraced_ns = untraced_ns.min(t0.elapsed().as_nanos());

        let warm_rec = Arc::new(obskit::CollectingRecorder::new());
        let t0 = std::time::Instant::now();
        let traced = {
            let _g = obskit::install(warm_rec.clone() as Arc<dyn obskit::Recorder>);
            run_deck_with(&deck, &config, None).expect("warm traced sweep converges")
        };
        traced_ns = traced_ns.min(t0.elapsed().as_nanos());

        assert_eq!(plain.stats.cache_hits, plain.stats.jobs_total);
        assert_eq!(
            warm_rec.counter("sweep.cache_hits"),
            traced.stats.jobs_total as u64,
            "traced warm sweep must count every cache hit"
        );
        last_untraced = Some(plain);
        last_traced = Some(traced);
    }
    let (plain, traced) = (last_untraced.unwrap(), last_traced.unwrap());

    // Determinism: tracing may never change a result bit.
    for ai in 0..plain.outcome.analysis_labels.len() {
        let (h, r) = plain.outcome.waveform_table(ai);
        let (ht, rt) = traced.outcome.waveform_table(ai);
        let h_refs: Vec<&str> = h.iter().map(String::as_str).collect();
        let ht_refs: Vec<&str> = ht.iter().map(String::as_str).collect();
        assert_eq!(
            wampde_bench::out::csv_string(&h_refs, &r).as_bytes(),
            wampde_bench::out::csv_string(&ht_refs, &rt).as_bytes(),
            "analysis {ai}: traced waveform CSV differs from untraced"
        );
    }

    let ratio = traced_ns as f64 / untraced_ns as f64;
    println!(
        "  warm x{REPS}: untraced {:.2} ms, traced {:.2} ms -> {:.1}% overhead",
        untraced_ns as f64 / 1e6,
        traced_ns as f64 / 1e6,
        (ratio - 1.0) * 100.0
    );
    // The acceptance bar: recording spans and counters on an
    // all-cache-hit sweep must cost under 5% wall time.
    assert!(
        ratio < 1.05,
        "tracing overhead {:.1}% exceeds the 5% budget \
         ({untraced_ns} ns untraced vs {traced_ns} ns traced)",
        (ratio - 1.0) * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"workload\": \"ring_scaling.ckt ({} jobs: \
         shooting + wampde at 2 couplings); cold traced sweep for coverage, \
         min-of-{REPS} warm sweeps for overhead\",\n  \"results\": [\n    \
         {{\"mode\": \"cold_traced\", \"wall_ns\": {cold_ns}, \"spans\": {cold_spans}, \
         \"newton_iters\": {}}},\n    \
         {{\"mode\": \"warm_untraced\", \"wall_ns\": {untraced_ns}}},\n    \
         {{\"mode\": \"warm_traced\", \"wall_ns\": {traced_ns}}}\n  ],\n  \
         \"overhead_ratio\": {ratio:.4},\n  \"budget_ratio\": 1.05\n}}\n",
        cold.stats.jobs_total,
        rec.counter("newton.iters"),
    );
    let p = write_text_in(&repro_dir(), "BENCH_obs.json", &json).expect("write json");
    println!("  -> {}", p.display());
}

/// Times one factor + solve of the bordered WaMPDE step Jacobian per
/// backend on `ring_loaded_vco` at stages {4, 32, 128} — plus a
/// sparse-only 1000-stage ladder rung — checks backend agreement, then
/// times the block-elimination direct solve of the quasiperiodic
/// *cyclic* system (`cyclic_direct` rows, relative residual asserted at
/// most 1e-10). Asserts the KLU headline claim (ordered sparse LU beats
/// dense at 128 stages) and emits
/// `target/repro/BENCH_linsolve.json`. The 1000-stage
/// KLU row is also split into its triplet assembly and its factor and
/// solve (`klu_1000_phases`), and assembly must cost less than the
/// factorisation.
/// A separate key (`mems_envelope_dense`) records the dense factor and solve
/// times of the air-damped MEMS VCO's dim-77 envelope step matrix, with
/// the elimination kernel the CPU ran and the core count.
fn table_linsolve() {
    println!("=== table `linsolve`: backend scaling on ring_loaded_vco ===");
    let solvers = [
        ("dense", wampde::LinearSolverKind::Dense),
        ("klu", wampde::LinearSolverKind::Klu),
    ];
    println!("  stages    dim   backend     wall (ns/solve)");
    let mut records: Vec<String> = Vec::new();
    let mut klu_phases: Option<String> = None;
    for stages in [4usize, 32, 128, 1000] {
        let jac = StepJacobian::build(stages, 5);
        // The 1000-stage rung only runs the backend that stays feasible
        // at dim 11k: dense is O(dim³), a collapse already measured on
        // the 128-stage rung. The reference switches to KLU.
        let big = stages >= 1000;
        let reference = if big {
            jac.factor_solve(wampde::LinearSolverKind::Klu)
        } else {
            jac.factor_solve(wampde::LinearSolverKind::Dense)
        };
        let scale = reference.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let mut wall_ns: std::collections::BTreeMap<&str, u128> = std::collections::BTreeMap::new();
        for (name, kind) in solvers {
            if big && name != "klu" {
                continue;
            }
            // Best-of-N wall time; N shrinks as the solve grows.
            let reps = if jac.dim() > 1000 { 2 } else { 5 };
            let mut best = u128::MAX;
            let mut x = Vec::new();
            for _ in 0..reps {
                let t0 = std::time::Instant::now();
                x = jac.factor_solve(kind);
                best = best.min(t0.elapsed().as_nanos());
            }
            // Every backend must solve the same system.
            let max_dev = x
                .iter()
                .zip(reference.iter())
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                max_dev < 1e-6 * scale,
                "{name} deviates from reference by {max_dev:e} at {stages} stages"
            );
            wall_ns.insert(name, best);
            println!("  {stages:>6} {:>6}   {name:<10} {best:>14}", jac.dim());
            records.push(format!(
                "    {{\"backend\": \"{name}\", \"stages\": {stages}, \"dim\": {}, \
                 \"wall_ns\": {best}}}",
                jac.dim()
            ));
        }
        if big {
            // The same 1000-stage KLU solve split into its phases, all
            // serial: collocation triplet assembly, then factor, then
            // solve. Assembly visits only C's nonzeros, so it must cost
            // less than the factorisation it feeds. The split path must
            // stay bitwise identical to the one-call reference.
            let parts = jac.parts();
            let (mut assembly_ns, mut factor_ns, mut solve_ns) = (u128::MAX, u128::MAX, u128::MAX);
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let trip = parts.assemble_triplets();
                assembly_ns = assembly_ns.min(t0.elapsed().as_nanos());
                let mut lu = linsolve::FactorCache::new(wampde::LinearSolverKind::Klu);
                let t0 = std::time::Instant::now();
                lu.factor(&linsolve::NewtonMatrix::Triplets(&trip))
                    .expect("step jacobian factors");
                factor_ns = factor_ns.min(t0.elapsed().as_nanos());
                let mut x = jac.rhs();
                let t0 = std::time::Instant::now();
                lu.solve_in_place(&mut x).expect("step jacobian solves");
                solve_ns = solve_ns.min(t0.elapsed().as_nanos());
                assert!(
                    x.iter()
                        .zip(reference.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "phase-split klu solve is not bitwise identical to the reference"
                );
            }
            println!(
                "  --- 1000-stage klu row by phase: assembly {assembly_ns} ns, \
                 factor {factor_ns} ns, solve {solve_ns} ns ---"
            );
            assert!(
                assembly_ns < factor_ns,
                "1000-stage triplet assembly ({assembly_ns} ns) must cost less than \
                 its klu factorisation ({factor_ns} ns)"
            );
            klu_phases = Some(format!(
                "{{\"stages\": {stages}, \"dim\": {}, \"assembly_ns\": {assembly_ns}, \
                 \"factor_ns\": {factor_ns}, \"solve_ns\": {solve_ns}}}",
                jac.dim()
            ));
        }
        if stages == 128 {
            // The headline claim: the ordered, equilibrated sparse
            // kernel beats the dense LU on the dim-1431 production
            // Jacobian.
            let klu = wall_ns["klu"];
            assert!(
                klu < wall_ns["dense"],
                "klu ({klu} ns) must beat dense ({} ns) at 128 stages",
                wall_ns["dense"]
            );
        }
    }

    // The envelope's own iteration matrix: the air-damped MEMS VCO's
    // dim-77 step Jacobian at its orbit, factored in place by the dense
    // kernel (the path every envelope Newton refresh takes) and solved.
    // Recorded, not asserted.
    let mems = StepJacobian::mems_air(9);
    let a = mems.parts().assemble_dense();
    let rhs = mems.rhs();
    let mut cache = linsolve::FactorCache::new(wampde::LinearSolverKind::Dense);
    let matrix = linsolve::NewtonMatrix::Dense(&a);
    let best_us = |op: &mut dyn FnMut()| {
        const REPS: u32 = 1000;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            for _ in 0..REPS {
                op();
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        }
        best
    };
    let factor_us = best_us(&mut || cache.factor(&matrix).expect("mems step matrix factors"));
    let mut x = rhs.clone();
    let solve_us = best_us(&mut || {
        x.copy_from_slice(&rhs);
        cache
            .solve_in_place(std::hint::black_box(&mut x))
            .expect("mems step matrix solves");
    });
    let kernel = numkit::DenseLu::kernel();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "  --- MEMS envelope matrix (dim {}), dense: factor {factor_us:.2} us, \
         solve {solve_us:.2} us, kernel {kernel}, {cores} cores ---",
        a.nrows()
    );
    let mems_row = format!(
        "{{\"dim\": {}, \"factor_us\": {factor_us:.3}, \"solve_us\": {solve_us:.3}, \
         \"kernel\": \"{kernel}\", \"cores\": {cores}}}",
        a.nrows()
    );

    // The quasiperiodic cyclic system, solved directly by block
    // elimination: best-of-5 factor+solve wall time and its relative
    // residual.
    println!("  --- cyclic system: block-elimination direct solve ---");
    println!("      n1    dim   factor+solve (us)   rel. residual");
    for n1 in [16usize, 32, 64, 128] {
        let cyc = CyclicJacobian::build(n1);
        let mut best = f64::INFINITY;
        let mut x = Vec::new();
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            x = cyc.solve_direct();
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        let residual = cyc.relative_residual(&x);
        assert!(
            residual <= 1e-10,
            "cyclic direct solve at n1 = {n1}: relative residual {residual:e}"
        );
        println!("  {n1:>6} {:>6} {best:>19.1} {residual:>15.2e}", cyc.dim());
        records.push(format!(
            "    {{\"cyclic_direct\": true, \"n1\": {n1}, \"dim\": {}, \
             \"factor_solve_us\": {best:.1}, \"rel_residual\": {residual:.3e}}}",
            cyc.dim()
        ));
    }

    let klu_phases = klu_phases.expect("1000-stage rung always runs");
    let json = format!(
        "{{\n  \"bench\": \"linsolve\",\n  \"workload\": \"bordered WaMPDE step \
         Jacobian, harmonics=5, factor+solve; cyclic QP system, \
         block-elimination direct solve\",\n  \"cores\": {cores},\n  \
         \"klu_1000_phases\": {klu_phases},\n  \
         \"mems_envelope_dense\": {mems_row},\n  \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    let p = write_text_in(&repro_dir(), "BENCH_linsolve.json", &json).expect("write json");
    println!("  -> {}", p.display());
}

fn figures_1_to_3() {
    println!("=== Figures 1–3: two-tone AM signal ===");
    let (ts, ys) = am::sample_univariate(15);
    let rows: Vec<Vec<f64>> = ts
        .iter()
        .zip(ys.iter())
        .map(|(&t, &y)| vec![t, y])
        .collect();
    let p = write_csv("fig01_univariate.csv", &["t", "y"], &rows);
    println!(
        "fig 1: {} univariate samples -> {}",
        rows.len(),
        p.display()
    );

    let grid = am::sample_bivariate(15);
    let mut rows = Vec::new();
    for j in 0..15 {
        for (i, &v) in grid.row(j).iter().enumerate() {
            rows.push(vec![i as f64 / 15.0 * am::T1, j as f64 / 15.0 * am::T2, v]);
        }
    }
    let p = write_csv("fig02_bivariate.csv", &["t1", "t2", "yhat"], &rows);
    println!(
        "fig 2: 15x15 = {} bivariate samples -> {}",
        grid.sample_count(),
        p.display()
    );

    println!(
        "fig 3: sawtooth-path reconstruction error = {:.3e}",
        am::bivariate_error(15, 4000)
    );

    println!("\ntable `samples` (accuracy-matched representation size):");
    println!("  rate separation   univariate   bivariate(15x15)");
    for ratio in [50.0_f64, 100.0, 500.0, 1000.0] {
        println!(
            "  {:>14}x   {:>10}   {:>16}",
            ratio,
            (15.0 * ratio) as usize,
            225
        );
    }
    println!("  (paper quotes 750 vs 225 at separation 50x)\n");
}

fn figures_4_to_6() {
    println!("=== Figures 4–6: FM signal and warping ===");
    // Figure 4: the FM waveform over ~70 µs (as in the paper's plot).
    let rows: Vec<Vec<f64>> = (0..4000)
        .map(|k| {
            let t = k as f64 / 4000.0 * 7e-5;
            vec![t, fm::signal(t)]
        })
        .collect();
    let p = write_csv("fig04_fm_signal.csv", &["t", "x"], &rows);
    println!("fig 4: FM signal -> {}", p.display());

    // Figure 5: unwarped bivariate needs huge t2 grids.
    println!("fig 5: unwarped-representation reconstruction error vs t2 grid:");
    let mut rows = Vec::new();
    for n2 in [9usize, 17, 33, 65, 129, 257] {
        let err = fm::unwarped_grid_error(9, n2, 800);
        println!(
            "  9x{n2:<4} grid ({:>5} samples): max err {err:.3e}",
            9 * n2
        );
        rows.push(vec![n2 as f64, (9 * n2) as f64, err]);
    }
    let p = write_csv(
        "fig05_unwarped_error.csv",
        &["n2", "samples", "max_err"],
        &rows,
    );
    println!("  -> {}", p.display());

    // Figure 6: warped bivariate + warping function are tiny.
    let err = fm::warped_grid_error(9, 9, 800);
    println!("fig 6: warped representation (9 + 9 samples): max err {err:.3e}");
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|k| {
            let t = k as f64 / 200.0 / fm::F2;
            vec![t, fm::warping_phi(t), fm::instantaneous_frequency(t)]
        })
        .collect();
    let p = write_csv(
        "fig06_warping.csv",
        &["t", "phi_cycles", "inst_freq"],
        &rows,
    );
    println!("  warping function -> {}\n", p.display());
}

fn figures_7_to_9() {
    println!("=== Figures 7–9: vacuum-damped MEMS VCO ===");
    let orbit = unforced_orbit();
    println!("unforced frequency: {:.1} kHz", orbit.frequency() / 1e3);
    let t_end = 80e-6;
    let run = run_envelope(MemsVcoConfig::paper_vacuum(), &orbit, t_end, 9);

    // Figure 7: local frequency.
    let rows: Vec<Vec<f64>> = run
        .env
        .t2
        .iter()
        .zip(run.env.omega_hz.iter())
        .map(|(&t, &w)| vec![t, w])
        .collect();
    let p = write_csv("fig07_frequency.csv", &["t2", "omega_hz"], &rows);
    let (lo, hi) = run.env.frequency_range();
    println!(
        "fig 7: frequency range {:.3}-{:.3} MHz, swing factor {:.2} (paper: ~3) -> {}",
        lo / 1e6,
        hi / 1e6,
        hi / lo,
        p.display()
    );
    let xs: Vec<f64> = run.env.t2.clone();
    print!(
        "{}",
        ascii_plot("omega(t2) MHz", &xs, &run.env.omega_hz, 70, 12)
    );

    // Figure 8: bivariate surface.
    let (t1g, t2g, surface) = run.env.bivariate(circuits::idx::V_TANK);
    let mut rows = Vec::new();
    for (j, t2) in t2g.iter().enumerate().step_by(1 + t2g.len() / 60) {
        for (i, t1) in t1g.iter().enumerate() {
            rows.push(vec![*t1, *t2, surface[j][i]]);
        }
    }
    let p = write_csv("fig08_bivariate.csv", &["t1", "t2", "v"], &rows);
    let amps: Vec<f64> = surface
        .iter()
        .map(|r| {
            (r.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v))
                - r.iter().fold(f64::INFINITY, |m, v| m.min(*v)))
                / 2.0
        })
        .collect();
    println!(
        "fig 8: amplitude varies {:.2}-{:.2} V across the control sweep -> {}",
        amps.iter().fold(f64::INFINITY, |m, v| m.min(*v)),
        amps.iter().fold(0.0_f64, |m, v| m.max(*v)),
        p.display()
    );

    // Figure 9: overlay vs transient.
    let x0 = univariate_x0(&run);
    let (tr, tr_wall) = run_transient_reference(MemsVcoConfig::paper_vacuum(), &x0, t_end, 1e-8);
    let probes: Vec<f64> = (0..6000).map(|k| k as f64 / 6000.0 * t_end).collect();
    let wam = run.env.reconstruct(circuits::idx::V_TANK, &probes);
    let refv: Vec<f64> = probes
        .iter()
        .map(|&t| tr.sample(circuits::idx::V_TANK, t))
        .collect();
    let rows: Vec<Vec<f64>> = probes
        .iter()
        .zip(wam.iter().zip(refv.iter()))
        .map(|(&t, (&a, &b))| vec![t, a, b])
        .collect();
    let p = write_csv(
        "fig09_overlay.csv",
        &["t", "v_wampde", "v_transient"],
        &rows,
    );
    let err = sigproc::max_abs_error(&wam, &refv);
    let amp = refv.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    println!(
        "fig 9: max deviation {:.3} V on +-{:.2} V ({:.1}% of amplitude); wall {:.0} ms (WaMPDE) vs {:.0} ms (transient rtol 1e-8) -> {}\n",
        err,
        amp,
        100.0 * err / amp,
        run.wall.as_secs_f64() * 1e3,
        tr_wall.as_secs_f64() * 1e3,
        p.display()
    );
}

fn figures_10_to_12() {
    println!("=== Figures 10–12: air-damped MEMS VCO ===");
    let started = std::time::Instant::now();
    let (orbit, start) = unforced_orbit_with_stats();
    let start_s = started.elapsed().as_secs_f64();
    let start_steps = start.steps + start.rejected;
    println!(
        "unforced orbit (the envelope's start): {:.2} ms, {start_steps} transient steps \
         ({} rejected), {} flows",
        start_s * 1e3,
        start.rejected,
        orbit.iterations
    );
    let t_end = 3e-3;
    let run = run_envelope(MemsVcoConfig::paper_air(), &orbit, t_end, 9);

    // Figure 10.
    let rows: Vec<Vec<f64>> = run
        .env
        .t2
        .iter()
        .zip(run.env.omega_hz.iter())
        .map(|(&t, &w)| vec![t, w])
        .collect();
    let p = write_csv("fig10_frequency.csv", &["t2", "omega_hz"], &rows);
    let (lo, hi) = run.env.frequency_range();
    println!(
        "fig 10: frequency range {:.3}-{:.3} MHz with settling (paper: ~0.75-1.25) -> {}",
        lo / 1e6,
        hi / 1e6,
        p.display()
    );
    print!(
        "{}",
        ascii_plot("omega(t2) MHz", &run.env.t2, &run.env.omega_hz, 70, 12)
    );

    // Figure 11.
    let (t1g, t2g, surface) = run.env.bivariate(circuits::idx::V_TANK);
    let mut rows = Vec::new();
    for (j, t2) in t2g.iter().enumerate().step_by(1 + t2g.len() / 60) {
        for (i, t1) in t1g.iter().enumerate() {
            rows.push(vec![*t1, *t2, surface[j][i]]);
        }
    }
    let p = write_csv("fig11_bivariate.csv", &["t1", "t2", "v"], &rows);
    let amps: Vec<f64> = surface
        .iter()
        .map(|r| {
            (r.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v))
                - r.iter().fold(f64::INFINITY, |m, v| m.min(*v)))
                / 2.0
        })
        .collect();
    println!(
        "fig 11: amplitude nearly constant: {:.3}-{:.3} V -> {}",
        amps.iter().fold(f64::INFINITY, |m, v| m.min(*v)),
        amps.iter().fold(0.0_f64, |m, v| m.max(*v)),
        p.display()
    );

    // Figure 12 + speedup table.
    println!("fig 12 / table `speedup`: phase error and wall time over 3 ms");
    let x0 = univariate_x0(&run);
    let (fine, fine_wall) = run_transient_fixed(MemsVcoConfig::paper_air(), &x0, t_end, 1000);

    let probes: Vec<f64> = (0..900_000).map(|k| k as f64 / 900_000.0 * t_end).collect();
    let wam = run.env.reconstruct(circuits::idx::V_TANK, &probes);
    let (tw, ew) = phase_error_trace(
        &fine.times,
        &fine.signal(circuits::idx::V_TANK),
        &probes,
        &wam,
    );

    let mut table_rows = Vec::new();
    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    for pts in [50usize, 100] {
        let (coarse, wall) = run_transient_fixed(MemsVcoConfig::paper_air(), &x0, t_end, pts);
        let (te, ee) = phase_error_trace(
            &fine.times,
            &fine.signal(circuits::idx::V_TANK),
            &coarse.times,
            &coarse.signal(circuits::idx::V_TANK),
        );
        let final_err = ee.last().copied().unwrap_or(0.0);
        table_rows.push((format!("transient {pts:>4} pts/cycle"), final_err, wall));
        for (t, e) in te.iter().zip(ee.iter()).step_by(200) {
            csv_rows.push(vec![pts as f64, *t, *e]);
        }
    }
    let wam_final = ew.last().copied().unwrap_or(0.0);
    for (t, e) in tw.iter().zip(ew.iter()).step_by(200) {
        csv_rows.push(vec![0.0, *t, *e]);
    }
    let p = write_csv(
        "fig12_phase_error.csv",
        &["pts_per_cycle_or_0_wampde", "t", "phase_err_cycles"],
        &csv_rows,
    );

    let wampde_s = run.wall.as_secs_f64();
    let reference_s = fine_wall.as_secs_f64();
    let speedup = reference_s / wampde_s;
    let end_to_end = reference_s / (start_s + wampde_s);
    println!(
        "  method                      final phase err (cycles)   wall (s)   speedup vs 1000pts   \
         with start"
    );
    for (name, err, wall) in &table_rows {
        println!(
            "  {name:<27} {err:>24.2}  {:>9.2}   {:>8.1}x",
            wall.as_secs_f64(),
            fine_wall.as_secs_f64() / wall.as_secs_f64()
        );
    }
    println!(
        "  {:<27} {wam_final:>24.3}  {wampde_s:>9.2}   {speedup:>8.1}x   {end_to_end:>10.1}x",
        "WaMPDE (this work)",
    );
    println!(
        "  {:<27} {:>24} {:>10.2}   {:>8}",
        "transient 1000 pts/cycle",
        "(reference)",
        fine_wall.as_secs_f64(),
        "1.0x"
    );
    println!("  -> {}", p.display());
    println!(
        "\nheadline: WaMPDE is {speedup:.0}x faster than the comparable-accuracy transient (paper: 'two orders of magnitude'); \
         {end_to_end:.0}x counting its start"
    );

    // Machine-independent checks: the envelope keeps its factored step
    // Jacobian for most Newton iterations, solves each t2 step only as far
    // as its error tolerance needs (work ceilings), and stays within
    // `SPEEDUP_PHASE_ERR_BOUND` of the reference over the ~2900 cycles
    // simulated; its start stays within its own step ceiling.
    assert!(
        start_steps <= SPEEDUP_START_STEPS_CEILING,
        "the unforced orbit took {start_steps} transient steps, more than \
         {SPEEDUP_START_STEPS_CEILING}: {start:?}"
    );
    let stats = run.env.stats;
    assert!(
        2 * stats.factorisations <= stats.newton_iters,
        "WaMPDE factored on more than half its Newton iterations: {stats:?}"
    );
    assert!(
        stats.newton_iters <= SPEEDUP_NEWTON_ITERS_CEILING
            && stats.factorisations <= SPEEDUP_FACTORISATIONS_CEILING,
        "WaMPDE took more than {SPEEDUP_NEWTON_ITERS_CEILING} Newton iterations or \
         {SPEEDUP_FACTORISATIONS_CEILING} factorisations: {stats:?}"
    );
    assert!(
        wam_final.abs() <= SPEEDUP_PHASE_ERR_BOUND,
        "WaMPDE final phase error {wam_final} cycles exceeds {SPEEDUP_PHASE_ERR_BOUND}"
    );
    let json = format!(
        "{{\n  \"bench\": \"speedup\",\n  \"workload\": \"air-damped MEMS VCO over 3 ms \
         (figs 10-12): WaMPDE envelope, {} harmonics, vs the 1000 pts/cycle \
         trapezoidal transient\",\n  \
         \"wampde_wall_s\": {wampde_s:.6},\n  \"reference_wall_s\": {reference_s:.6},\n  \
         \"speedup\": {speedup:.3},\n  \"final_phase_err_cycles\": {wam_final:e},\n  \
         \"newton_iters\": {},\n  \"factorisations\": {},\n  \
         \"start_wall_s\": {start_s:.6},\n  \"start_steps\": {start_steps},\n  \
         \"start_flows\": {},\n  \"end_to_end_speedup\": {end_to_end:.3}\n}}\n",
        run.opts.harmonics, stats.newton_iters, stats.factorisations, orbit.iterations
    );
    let p = write_text_in(&repro_dir(), "BENCH_speedup.json", &json).expect("write json");
    println!("  -> {}", p.display());
}

/// Largest accepted |final phase error| of the WaMPDE envelope against the
/// 1000 pts/cycle reference in `--table speedup`, in cycles (0.016
/// measured). A `C·h²` fit of 1000/2000/4000 pts/cycle transients puts
/// the reference's own final phase error at about −0.016 cycle, so the
/// measured value is mostly the reference's error, not the envelope's.
const SPEEDUP_PHASE_ERR_BOUND: f64 = 0.03;

/// Most transient steps (accepted and rejected: warm-up, settle and the
/// orbit Newton's flows) the `--table speedup` start may take (2,751
/// with the warm-up ended once the oscillation settles; 8,027 when the
/// warm-up ran its whole 75-period horizon).
const SPEEDUP_START_STEPS_CEILING: usize = 3000;

/// Most Newton iterations the `--table speedup` envelope may take (847
/// with amplitude-weighted errors, Gustafsson's PI gains, the undamped
/// corrector and rtol 2e-4; 1,072 with DASSL's kept-matrix rules, before
/// and after the dense back substitution took descending column order;
/// 967 with at most four iterations per kept matrix; 1,603 when every t2
/// step was solved to Newton `reltol` 1e-9).
const SPEEDUP_NEWTON_ITERS_CEILING: usize = 950;

/// Most step-matrix factorisations the `--table speedup` envelope may
/// take (57 with amplitude-weighted errors, Gustafsson's PI gains, the
/// undamped corrector and rtol 2e-4; 92 with the dense back substitution
/// in descending column order; 93 with DASSL's kept-matrix rules in
/// ascending order; 237 with at most four iterations per kept matrix; 409
/// before DASSL's Newton test).
const SPEEDUP_FACTORISATIONS_CEILING: usize = 75;
