//! Benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints notes and an environment line,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`).

use vco_perfbench::ladder::LadderChain;
use vco_perfbench::mems::MemsAir;
use vco_perfbench::{environment, measure, Bench, Report, WORKLOADS};

/// Sizing, tuned on a 2-core x86-64 container: ops per second of run
/// length — the work is a function of `--seconds` alone, so it stays
/// fixed across commits — and untraced passes per run. Each op reports
/// its fastest pass. Other tenants of a shared host slow the core in
/// phases of up to tens of seconds, so a run is many short passes
/// spread over its whole length rather than a few long ones.
const MEMS_OPS_PER_S: f64 = 4.0;
const MEMS_REPS: usize = 10;
const CHAIN_POINTS_PER_S: f64 = 6.4;
const CHAIN_REPS: usize = 20;
/// Enough ops for a tail percentile with ten samples beyond it.
const MIN_OPS: usize = 12;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        match (argv[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse().ok(),
            ("--seconds", Some(v)) => seconds = v.parse().ok().filter(|&s| s > 0),
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            (flag, _) => usage(&format!("bad argument {flag}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

fn ops(per_s: f64, seconds: u64) -> usize {
    ((per_s * seconds as f64).round() as usize).max(MIN_OPS)
}

fn run<B: Bench>(b: &B, setups_per_slot: usize, reps: usize, trace: bool) -> Report {
    println!("env {}", environment(b));
    measure(b, setups_per_slot, reps, trace)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let a = parse_args();
    let report = match a.workload.as_str() {
        "envelope_mems_air" => run(
            &MemsAir {
                seed: a.seed,
                ops: ops(MEMS_OPS_PER_S, a.seconds),
            },
            1,
            MEMS_REPS,
            a.trace,
        ),
        _ => run(
            &LadderChain {
                seed: a.seed,
                points: ops(CHAIN_POINTS_PER_S, a.seconds),
                solver_threads: 1,
            },
            3,
            CHAIN_REPS,
            a.trace,
        ),
    };
    for note in &report.notes {
        println!("note {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
