//! `wampde-cli` — deck-driven, parallel, shardable experiment runs.
//!
//! ```text
//! wampde-cli <deck.ckt> [--jobs N] [--out DIR]
//!            [--solver KIND] [--integrator SCHEME] [--rtol V] [--list]
//!            [--shards M] [--shard-index K]
//!            [--cache-dir DIR] [--no-cache] [--cache-max-bytes BYTES]
//!            [--no-warm-start] [--trace DIR] [--metrics]
//! wampde-cli merge <shard_manifest.json>... [--out DIR]
//! ```
//!
//! Loads a scenario deck (circuit cards + `.tran`/`.shooting`/`.mpde`/
//! `.wampde`/`.sweep` directives, see `docs/DECKS.md`), expands the
//! sweep grid, runs every (grid point × analysis) job on `N` worker
//! threads, and writes artifacts into `DIR` (default
//! `target/sweep/<deck stem>`):
//!
//! * `<stem>_<analysis>_summary.csv` — one metric row per grid point;
//! * `<stem>_<analysis>_waveforms.csv` — long-format waveform table;
//! * `<stem>_manifest.json` — parameters, grid, and artifact index;
//! * `<stem>_shard<K>of<M>.jsonl` — one JSON line per completed job,
//!   streamed in completion order while the sweep runs;
//! * `<stem>_shard<K>of<M>_manifest.json` — the shard's
//!   self-description, input to `merge`.
//!
//! With `--shards M --shard-index K` only the jobs with
//! `id % M == K` run and only the two shard artifacts are written; the
//! `merge` subcommand reassembles the aggregate CSV/JSON from any
//! complete set of shard manifests. Results are cached on disk
//! (`target/sweep-cache` unless `--cache-dir`/`--no-cache` says
//! otherwise), keyed by a content hash of the deck, grid point, and
//! every solver option, so an interrupted or repeated sweep recomputes
//! only missing jobs; `--cache-max-bytes` bounds the cache directory,
//! evicting least-recently-written entries. Jobs run as continuation
//! chains along the fastest-varying sweep axis — each grid point's
//! Newton solves seeded from its neighbour's converged state, sharing
//! one sparse symbolic analysis per chain — unless `--no-warm-start`
//! reverts to independent cold jobs. `docs/SWEEP_SERVICE.md` is the
//! operator guide.
//!
//! `--jobs` is the one parallelism knob: jobs run side by side, and
//! every solve inside a job is serial. `--jobs 0` auto-sizes the
//! worker pool to the machine's available cores. See BUILDING.md
//! ("Choosing thread counts").
//!
//! Determinism invariant: aggregate artifacts are byte-identical for
//! any `--jobs` value, any shard layout
//! (after `merge`), and cold vs. warm cache. Only the JSONL stream
//! order varies between runs.
//! Instrumentation preserves it too: `--trace DIR` records the run with
//! an `obskit` recorder and writes `DIR/trace.json` (Chrome
//! `trace_event`, open in Perfetto) plus `DIR/metrics.jsonl`
//! (counters, histograms, convergence-trace rows); `--metrics` prints
//! the counter summary after the run. Neither changes a result bit —
//! see `docs/OBSERVABILITY.md`.
//!
//! `--solver dense|klu` overrides the
//! linear-solver backend for every analysis — beating both the
//! deck-wide `.options` choice and
//! any per-directive `solver=` key (the command line is the outermost
//! layer); `--integrator be|trap|bdf2` and `--rtol V` likewise override
//! the time-stepping scheme and adaptive tolerance of every
//! time-stepping analysis (for `.mpde`, a positive `--rtol` switches the
//! envelope from fixed-step to LTE-adaptive mode).

use circuitdae::{parse_deck, LinearSolverKind, Scheme};
use std::io::Write;
use std::path::{Path, PathBuf};
use sweepkit::{
    deck_hash, expand_grid, merge_shards, parse_record, parse_shard_manifest,
    render_shard_manifest, run_deck_with, ResultCache, ShardManifest, SweepConfig, SweepOutcome,
};
use wampde_bench::out::{json_escape, write_csv_in, write_text_in};

fn usage() -> ! {
    eprintln!(
        "usage: wampde-cli <deck.ckt> [--jobs N] [--out DIR] \
         [--solver KIND] [--integrator SCHEME] [--rtol V] [--list] \
         [--shards M] [--shard-index K] [--cache-dir DIR] [--no-cache] \
         [--cache-max-bytes BYTES] [--no-warm-start] [--trace DIR] [--metrics]"
    );
    eprintln!("       wampde-cli merge <shard_manifest.json>... [--out DIR]");
    eprintln!("  KIND: {}", LinearSolverKind::NAMES.join(" | "));
    eprintln!("  SCHEME: be | trap | bdf2");
    eprintln!("  --jobs 0 auto-sizes to the machine's cores");
    std::process::exit(2);
}

struct Args {
    deck_path: PathBuf,
    jobs: usize,
    out_dir: Option<PathBuf>,
    solver: Option<LinearSolverKind>,
    integrator: Option<Scheme>,
    rtol: Option<f64>,
    list: bool,
    shards: usize,
    shard_index: usize,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    cache_max_bytes: Option<u64>,
    warm_start: bool,
    trace_dir: Option<PathBuf>,
    metrics: bool,
}

fn parse_args(argv: &[String]) -> Args {
    let mut deck_path: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut solver: Option<LinearSolverKind> = None;
    let mut integrator: Option<Scheme> = None;
    let mut rtol: Option<f64> = None;
    let mut list = false;
    let mut shards = 1usize;
    let mut shard_index = 0usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut cache_max_bytes: Option<u64> = None;
    let mut warm_start = true;
    let mut trace_dir: Option<PathBuf> = None;
    let mut metrics = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--solver" => {
                i += 1;
                let value = argv.get(i).map_or("", String::as_str);
                solver = Some(wampde_bench::parse_solver_flag(value).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
            }
            "--integrator" => {
                i += 1;
                integrator = Some(argv.get(i).and_then(|v| Scheme::parse(v)).unwrap_or_else(
                    || {
                        eprintln!("--integrator requires one of: be, trap, bdf2");
                        std::process::exit(2);
                    },
                ));
            }
            "--rtol" => {
                i += 1;
                rtol = Some(
                    argv.get(i)
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|&v| v > 0.0 && v.is_finite())
                        .unwrap_or_else(|| {
                            eprintln!("--rtol requires a positive number");
                            std::process::exit(2);
                        }),
                );
            }
            "--jobs" => {
                i += 1;
                // 0 = auto: one worker per available core.
                jobs = linsolve::resolve_thread_count(
                    argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--jobs requires a non-negative integer (0 = auto)");
                        std::process::exit(2);
                    }),
                );
            }
            "--shards" => {
                i += 1;
                shards = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--shards requires a positive integer");
                        std::process::exit(2);
                    });
            }
            "--shard-index" => {
                i += 1;
                shard_index = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--shard-index requires a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--cache-dir" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--cache-dir requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "--no-cache" => no_cache = true,
            "--cache-max-bytes" => {
                i += 1;
                cache_max_bytes = Some(
                    argv.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--cache-max-bytes requires a positive byte count");
                            std::process::exit(2);
                        }),
                );
            }
            "--no-warm-start" => warm_start = false,
            "--trace" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => trace_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--trace requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "--metrics" => metrics = true,
            "--out" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => out_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--out requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "--list" => list = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown argument: {other}");
                usage();
            }
            other => {
                if deck_path.replace(PathBuf::from(other)).is_some() {
                    eprintln!("multiple deck paths given");
                    usage();
                }
            }
        }
        i += 1;
    }
    let Some(deck_path) = deck_path else { usage() };
    if shard_index >= shards {
        eprintln!("--shard-index {shard_index} out of range for --shards {shards}");
        std::process::exit(2);
    }
    Args {
        deck_path,
        jobs,
        out_dir,
        solver,
        integrator,
        rtol,
        list,
        shards,
        shard_index,
        cache_dir,
        no_cache,
        cache_max_bytes,
        warm_start,
        trace_dir,
        metrics,
    }
}

struct MergeArgs {
    manifests: Vec<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_merge_args(argv: &[String]) -> MergeArgs {
    let mut manifests = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => out_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--out requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown argument: {other}");
                usage();
            }
            other => manifests.push(PathBuf::from(other)),
        }
        i += 1;
    }
    if manifests.is_empty() {
        eprintln!("merge needs at least one shard manifest");
        usage();
    }
    MergeArgs { manifests, out_dir }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("merge") {
        merge_main(&parse_merge_args(&argv[1..]))
    } else {
        real_main(&parse_args(&argv))
    };
    if let Err(e) = result {
        eprintln!("wampde-cli: {e}");
        std::process::exit(1);
    }
}

/// `NetlistError`, `SweepError`, and `io::Error` all implement
/// `std::error::Error` (the deck subsystem's composability contract), so
/// the whole pipeline threads through one `?`-friendly signature.
fn real_main(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(&args.deck_path)
        .map_err(|e| format!("cannot read {}: {e}", args.deck_path.display()))?;
    let mut deck = parse_deck(&text)?;
    wampde_bench::apply_deck_overrides(&mut deck, args.solver, args.integrator, args.rtol);
    if let Some(kind) = args.solver {
        println!("linear solver override: {}", kind.label());
    }
    if let Some(scheme) = args.integrator {
        println!("integrator override: {}", scheme.label());
    }
    if let Some(rtol) = args.rtol {
        println!("rtol override: {rtol:e}");
    }
    let deck = deck;

    let stem = args
        .deck_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("deck")
        .to_string();
    let params: Vec<String> = deck.sweeps.iter().map(|s| s.label()).collect();
    let grid = expand_grid(&deck.sweeps);
    let n_jobs = grid.len() * deck.analyses.len();

    println!(
        "deck {}: {} device(s), {} analysis(es), {} sweep(s) -> {} point(s), {} job(s)",
        args.deck_path.display(),
        deck.device_names().len(),
        deck.analyses.len(),
        deck.sweeps.len(),
        grid.len(),
        n_jobs,
    );

    if args.list {
        for (i, a) in deck.analyses.iter().enumerate() {
            println!("  analysis {}{i}: {a:?}", a.name());
        }
        for (p, values) in grid.iter().enumerate() {
            let assigns: Vec<String> = params
                .iter()
                .zip(values.iter())
                .map(|(l, v)| format!("{l}={v:.6e}"))
                .collect();
            println!("  point {p}: [{}]", assigns.join(", "));
        }
        return Ok(());
    }

    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| Path::new("target/sweep").join(&stem));

    let cache = if args.no_cache {
        None
    } else {
        let dir = args
            .cache_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/sweep-cache"));
        let mut cache = ResultCache::open(&dir)?;
        cache.set_max_bytes(args.cache_max_bytes);
        Some(cache)
    };
    if let Some(cache) = &cache {
        println!("result cache: {}", cache.dir().display());
    }

    // The JSONL stream is written while jobs complete (observability in
    // flight); its line order is completion order, never relied upon.
    std::fs::create_dir_all(&out_dir)?;
    let jsonl_name = format!("{stem}_shard{}of{}.jsonl", args.shard_index, args.shards);
    let jsonl_path = out_dir.join(&jsonl_name);
    let mut jsonl = std::io::BufWriter::new(std::fs::File::create(&jsonl_path)?);

    let config = SweepConfig {
        jobs: args.jobs,
        shards: args.shards,
        shard_index: args.shard_index,
        cache,
        warm_start: args.warm_start,
        ..SweepConfig::default()
    };
    // Instrumentation never touches results: the recorder only listens
    // to spans/counters the solvers already emit, and the determinism
    // tests hold traced and untraced artifacts byte-identical.
    let recorder = if args.trace_dir.is_some() || args.metrics {
        Some(std::sync::Arc::new(obskit::CollectingRecorder::new()))
    } else {
        None
    };
    let t0 = std::time::Instant::now();
    let run = {
        let _obs = recorder
            .as_ref()
            .map(|r| obskit::install(r.clone() as std::sync::Arc<dyn obskit::Recorder>));
        run_deck_with(&deck, &config, Some(&mut jsonl))?
    };
    jsonl.flush()?;
    let wall = t0.elapsed();
    println!(
        "shard {}/{}: {} of {} job(s) ({} computed, {} cached) on {} worker(s) in {:.2} s",
        args.shard_index,
        args.shards,
        run.stats.jobs_here,
        run.stats.jobs_total,
        run.stats.executed,
        run.stats.cache_hits,
        args.jobs,
        wall.as_secs_f64()
    );
    println!(
        "  {} ({} record(s))",
        jsonl_path.display(),
        run.stats.jobs_here
    );

    if let Some(rec) = &recorder {
        if let Some(dir) = &args.trace_dir {
            std::fs::create_dir_all(dir)?;
            let trace_path = dir.join("trace.json");
            rec.write_chrome_trace(&trace_path)?;
            println!("  {} ({} span(s))", trace_path.display(), rec.spans().len());
            let metrics_path = dir.join("metrics.jsonl");
            rec.write_metrics_jsonl(&metrics_path)?;
            println!("  {}", metrics_path.display());
        }
        if args.metrics {
            println!("metrics:");
            let reg = rec.metrics();
            for (name, value) in reg.counters() {
                println!("  {name} = {value}");
            }
            for (name, h) in reg.histograms() {
                println!(
                    "  {name}: count={} mean={:.3e} min={:.3e} max={:.3e}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                );
            }
        }
    }

    let outcome = run.outcome;
    let shard_manifest = ShardManifest {
        deck: args.deck_path.display().to_string(),
        deck_hash: deck_hash(&deck),
        shards: args.shards,
        shard_index: args.shard_index,
        jobs_total: n_jobs,
        param_labels: params.clone(),
        analysis_labels: outcome.analysis_labels.clone(),
        grid: outcome.grid.clone(),
        results: jsonl_name,
    };
    let p = write_text_in(
        &out_dir,
        &format!(
            "{stem}_shard{}of{}_manifest.json",
            args.shard_index, args.shards
        ),
        &render_shard_manifest(&shard_manifest),
    )?;
    println!("  {}", p.display());

    if args.shards == 1 {
        write_aggregates(&out_dir, &stem, &shard_manifest.deck, &outcome)?;
    } else {
        println!("  (sharded run: merge the shard manifests for aggregate CSVs)");
    }
    Ok(())
}

fn merge_main(args: &MergeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut shards = Vec::new();
    for path in &args.manifests {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let manifest =
            parse_shard_manifest(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let base = path.parent().unwrap_or(Path::new("."));
        let results_path = base.join(&manifest.results);
        let records_text = std::fs::read_to_string(&results_path)
            .map_err(|e| format!("cannot read {}: {e}", results_path.display()))?;
        let records = records_text
            .lines()
            .map(|line| parse_record(line).map_err(|e| format!("{}: {e}", results_path.display())))
            .collect::<Result<Vec<_>, _>>()?;
        println!(
            "shard {}/{} ({}): {} record(s)",
            manifest.shard_index,
            manifest.shards,
            path.display(),
            records.len()
        );
        shards.push((manifest, records));
    }
    let outcome = merge_shards(&shards)?;
    let deck_name = shards[0].0.deck.clone();
    let stem = Path::new(&deck_name)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("deck")
        .to_string();
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| Path::new("target/sweep").join(&stem));
    println!(
        "merged {} job(s) from {} shard manifest(s)",
        outcome.runs.len(),
        shards.len()
    );
    write_aggregates(&out_dir, &stem, &deck_name, &outcome)?;
    Ok(())
}

/// Writes the aggregate artifacts (per-analysis CSVs + run manifest).
/// Shared by the unsharded run path and `merge`, so both produce the
/// same bytes from the same outcome.
fn write_aggregates(
    out_dir: &Path,
    stem: &str,
    deck_name: &str,
    outcome: &SweepOutcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let params = &outcome.param_labels;
    let mut artifacts: Vec<String> = Vec::new();
    for (ai, label) in outcome.analysis_labels.iter().enumerate() {
        let (sh, sr) = outcome.summary_table(ai);
        let sh_refs: Vec<&str> = sh.iter().map(String::as_str).collect();
        let name = format!("{stem}_{label}_summary.csv");
        let p = write_csv_in(out_dir, &name, &sh_refs, &sr)?;
        println!("  {}", p.display());
        artifacts.push(name);

        let (wh, wr) = outcome.waveform_table(ai);
        let wh_refs: Vec<&str> = wh.iter().map(String::as_str).collect();
        let name = format!("{stem}_{label}_waveforms.csv");
        let p = write_csv_in(out_dir, &name, &wh_refs, &wr)?;
        println!("  {} ({} rows)", p.display(), wr.len());
        artifacts.push(name);

        // Per-point metric digest on stdout.
        for rec in outcome.runs_of(ai) {
            let assigns: Vec<String> = params
                .iter()
                .zip(rec.values.iter())
                .map(|(l, v)| format!("{l}={v:.4e}"))
                .collect();
            let metrics: Vec<String> = rec
                .result
                .metrics
                .iter()
                .map(|(n, v)| format!("{n}={v:.6e}"))
                .collect();
            println!(
                "  {label} point {} [{}]: {}",
                rec.point,
                assigns.join(", "),
                metrics.join(", ")
            );
        }
    }

    let manifest = render_manifest(deck_name, outcome, &artifacts);
    let p = write_text_in(out_dir, &format!("{stem}_manifest.json"), &manifest)?;
    println!("  {}", p.display());
    Ok(())
}

/// Solver run-stat metric names surfaced per analysis in the manifest.
/// Every stepping solver reports the `obskit::RunStats` quintet;
/// shooting reports its outer `iterations`, `newton_iters` and
/// `factorisations`.
const STAT_KEYS: [&str; 6] = [
    "steps",
    "rejected",
    "newton_iters",
    "factorisations",
    "symbolic_reuses",
    "iterations",
];

/// Sums the run-stat metrics over every grid point of one analysis.
/// Only keys at least one run reported are returned, so e.g. a
/// shooting analysis never grows phantom zero-valued `steps`.
fn analysis_stats(outcome: &SweepOutcome, ai: usize) -> Vec<(&'static str, f64)> {
    let mut sums = [0.0_f64; STAT_KEYS.len()];
    let mut present = [false; STAT_KEYS.len()];
    for rec in outcome.runs_of(ai) {
        for (name, value) in &rec.result.metrics {
            if let Some(k) = STAT_KEYS.iter().position(|key| key == name) {
                sums[k] += value;
                present[k] = true;
            }
        }
    }
    STAT_KEYS
        .iter()
        .enumerate()
        .filter(|&(k, _)| present[k])
        .map(|(k, &key)| (key, sums[k]))
        .collect()
}

fn render_manifest(deck_name: &str, outcome: &SweepOutcome, artifacts: &[String]) -> String {
    let quote = |s: &str| format!("\"{}\"", json_escape(s));
    let str_list = |xs: &[String]| xs.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
    let points = outcome
        .grid
        .iter()
        .map(|p| {
            let vals: Vec<String> = p.iter().map(|v| format!("{v:.9e}")).collect();
            format!("[{}]", vals.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ");
    // Aggregated per-analysis solver run stats. Derived from the merged
    // outcome (never from shard-local state), so the unsharded path and
    // `merge` emit byte-identical manifests. Counts are integral by
    // construction; render them without a fractional part.
    let stats = outcome
        .analysis_labels
        .iter()
        .enumerate()
        .map(|(ai, label)| {
            let runs = outcome.runs_of(ai).count();
            let mut fields = vec![format!("\"runs\": {runs}")];
            fields.extend(
                analysis_stats(outcome, ai)
                    .iter()
                    .map(|(key, v)| format!("\"{key}\": {}", *v as u64)),
            );
            format!("    {}: {{{}}}", quote(label), fields.join(", "))
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"deck\": {},\n  \"params\": [{}],\n  \
         \"points\": [{}],\n  \"solver_stats\": {{\n{}\n  }},\n  \
         \"artifacts\": [{}]\n}}\n",
        quote(deck_name),
        str_list(&outcome.param_labels),
        points,
        stats,
        str_list(artifacts),
    )
}
