//! End-to-end tests of the sweep-service determinism invariants,
//! driving the real `wampde-cli` binary:
//!
//! * cold run and warm-cache rerun produce byte-identical artifacts;
//! * a sweep killed mid-run resumes (same cache) to byte-identical
//!   artifacts — whatever instant the kill landed at, because cache
//!   entries are written atomically and partial entries read as misses;
//! * a 1-shard run and a merged 4-shard run produce byte-identical
//!   aggregates.
//!
//! The tests use a cheap sine-driven RC deck so the full matrix stays
//! fast even in debug builds; the invariants are deck-independent.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const CLI: &str = env!("CARGO_BIN_EXE_wampde-cli");

/// Sine-driven RC low-pass, 6-point resistance sweep: 6 independent
/// transient jobs whose results differ per grid point.
const DECK: &str = "V1 in 0 SIN(0 5 1k)\n\
                    R1 in out 1k\n\
                    C1 out 0 1u\n\
                    .tran 2m dt=20u\n\
                    .sweep R1 1k 3k 6\n";

/// The aggregate artifacts whose bytes the invariants are stated over.
const AGGREGATES: &[&str] = &[
    "rc_sweep_tran0_summary.csv",
    "rc_sweep_tran0_waveforms.csv",
    "rc_sweep_manifest.json",
];

/// Fresh per-test scratch directory under the cargo-managed tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep_service_{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes the test deck and returns its path.
fn write_deck(dir: &Path, text: &str) -> PathBuf {
    let path = dir.join("rc_sweep.ckt");
    fs::write(&path, text).expect("write deck");
    path
}

fn run_cli(args: &[&str]) -> std::process::Output {
    let out = Command::new(CLI)
        .args(args)
        .output()
        .expect("spawn wampde-cli");
    assert!(
        out.status.success(),
        "wampde-cli {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn assert_identical(dir_a: &Path, dir_b: &Path, names: &[&str]) {
    for name in names {
        let a = fs::read(dir_a.join(name)).unwrap_or_else(|e| panic!("read {name} in A: {e}"));
        let b = fs::read(dir_b.join(name)).unwrap_or_else(|e| panic!("read {name} in B: {e}"));
        assert!(a == b, "{name} differs between {dir_a:?} and {dir_b:?}");
    }
}

fn p(path: &Path) -> String {
    path.display().to_string()
}

#[test]
fn warm_cache_rerun_is_byte_identical_to_cold() {
    let dir = scratch("warm");
    let deck = write_deck(&dir, DECK);
    let cache = dir.join("cache");
    let cold_out = dir.join("cold");
    let warm_out = dir.join("warm");

    run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--out",
        &p(&cold_out),
        "--cache-dir",
        &p(&cache),
    ]);
    let warm = run_cli(&[
        &p(&deck),
        "--jobs",
        "3",
        "--out",
        &p(&warm_out),
        "--cache-dir",
        &p(&cache),
    ]);
    let stdout = String::from_utf8_lossy(&warm.stdout).to_string();
    assert!(
        stdout.contains("(0 computed, 6 cached)"),
        "warm rerun must be fully cache-served:\n{stdout}"
    );
    // Byte-identity across cold vs warm AND across --jobs 2 vs 3.
    assert_identical(&cold_out, &warm_out, AGGREGATES);
}

#[test]
fn sweep_killed_mid_run_resumes_to_identical_bytes() {
    let dir = scratch("kill");
    // Longer transients so the first attempt has real work to be killed
    // in the middle of. Whatever instant the kill lands at (including
    // after completion on a fast machine), the invariant must hold.
    let deck_text = DECK.replace(".tran 2m dt=20u", ".tran 20m dt=5u");
    let deck = write_deck(&dir, &deck_text);
    let cache = dir.join("cache");
    let killed_out = dir.join("killed");
    let resumed_out = dir.join("resumed");
    let reference_out = dir.join("reference");

    let mut child = Command::new(CLI)
        .args([
            &p(&deck),
            "--jobs",
            "2",
            "--out",
            &p(&killed_out),
            "--cache-dir",
            &p(&cache),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn wampde-cli");
    std::thread::sleep(std::time::Duration::from_millis(400));
    child.kill().ok();
    child.wait().expect("reap killed run");

    // Resume with the same cache: only missing jobs recompute.
    run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--out",
        &p(&resumed_out),
        "--cache-dir",
        &p(&cache),
    ]);
    // Reference: a clean run that never saw the interrupted cache.
    run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--out",
        &p(&reference_out),
        "--no-cache",
    ]);
    assert_identical(&resumed_out, &reference_out, AGGREGATES);
}

#[test]
fn one_shard_and_four_shard_merge_are_byte_identical() {
    let dir = scratch("shards");
    let deck = write_deck(&dir, DECK);
    let direct_out = dir.join("direct");
    let shard_out = dir.join("shards");
    let merged_out = dir.join("merged");

    run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--out",
        &p(&direct_out),
        "--no-cache",
    ]);
    let mut manifests = Vec::new();
    for k in 0..4 {
        run_cli(&[
            &p(&deck),
            "--jobs",
            "2",
            "--shards",
            "4",
            "--shard-index",
            &k.to_string(),
            "--out",
            &p(&shard_out),
            "--no-cache",
        ]);
        manifests.push(shard_out.join(format!("rc_sweep_shard{k}of4_manifest.json")));
        // A sharded run writes shard artifacts only, no aggregates.
        assert!(!shard_out.join("rc_sweep_manifest.json").exists());
    }
    let mut args: Vec<String> = vec!["merge".into()];
    args.extend(manifests.iter().map(|m| p(m)));
    args.push("--out".into());
    args.push(p(&merged_out));
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    run_cli(&arg_refs);
    assert_identical(&direct_out, &merged_out, AGGREGATES);
}

#[test]
fn batched_runs_are_byte_identical_for_any_jobs_and_shards() {
    // Batched execution (continuation chains, the default) must keep the
    // determinism invariant: aggregates are byte-identical for any
    // --jobs count and any shard layout after merge. The RC deck chains
    // transients; the VCO deck chains orbit continuation, whose later
    // positions start from seeds extrapolated through earlier ones.
    let dir = scratch("batched");
    let rc = write_deck(&dir, DECK);
    assert_batched_layouts_identical(&dir.join("rc"), &rc, "rc_sweep", AGGREGATES);
    let vco = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/decks/vco_sweep.ckt");
    assert_batched_layouts_identical(
        &dir.join("vco"),
        &vco,
        "vco_sweep",
        &[
            "vco_sweep_shooting0_summary.csv",
            "vco_sweep_shooting0_waveforms.csv",
            "vco_sweep_wampde1_summary.csv",
            "vco_sweep_wampde1_waveforms.csv",
            "vco_sweep_manifest.json",
        ],
    );
}

/// Runs `deck` (whose file stem is `stem`) batched at `--jobs` 1, 4
/// and 8 and as a merged 2-shard layout under `dir`, and asserts every
/// layout writes the same `aggregates` bytes.
fn assert_batched_layouts_identical(dir: &Path, deck: &Path, stem: &str, aggregates: &[&str]) {
    let outs: Vec<PathBuf> = ["j1", "j4", "j8"].iter().map(|t| dir.join(t)).collect();
    for (out, jobs) in outs.iter().zip(["1", "4", "8"]) {
        run_cli(&[&p(deck), "--jobs", jobs, "--out", &p(out), "--no-cache"]);
    }
    assert_identical(&outs[0], &outs[1], aggregates);
    assert_identical(&outs[0], &outs[2], aggregates);

    // A 2-shard layout recomputes non-owned chain positions as warm-up
    // but records owned jobs only; the merge must match bit-for-bit.
    let shard_out = dir.join("shards");
    let merged_out = dir.join("merged");
    let mut args: Vec<String> = vec!["merge".into()];
    for k in 0..2 {
        run_cli(&[
            &p(deck),
            "--jobs",
            "4",
            "--shards",
            "2",
            "--shard-index",
            &k.to_string(),
            "--out",
            &p(&shard_out),
            "--no-cache",
        ]);
        args.push(p(
            &shard_out.join(format!("{stem}_shard{k}of2_manifest.json"))
        ));
    }
    args.push("--out".into());
    args.push(p(&merged_out));
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    run_cli(&arg_refs);
    assert_identical(&outs[0], &merged_out, aggregates);
}

#[test]
fn warm_chains_agree_with_cold_jobs_within_solver_tolerance() {
    // On the paper's VCO control sweep, continuation warm starts change
    // the Newton iterate sequence but must converge to the same physics:
    // every non-counter summary metric agrees with the cold-start run to
    // solver tolerance. Adaptive `.wampde` steps converge in DASSL's test,
    // at 0.33 (`timekit::NEWTON_TOL`) of the deck's t2 rtol.
    let wampde::T2StepControl::Adaptive { rtol, .. } = wampde::WampdeOptions::default().step else {
        panic!("the .wampde default is adaptive");
    };
    let dir = scratch("chain_tol");
    let deck = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/decks/vco_sweep.ckt");
    let warm_out = dir.join("warm");
    let cold_out = dir.join("cold");
    run_cli(&[
        &p(&deck),
        "--jobs",
        "4",
        "--out",
        &p(&warm_out),
        "--no-cache",
    ]);
    run_cli(&[
        &p(&deck),
        "--jobs",
        "4",
        "--out",
        &p(&cold_out),
        "--no-cache",
        "--no-warm-start",
    ]);
    // Counters legitimately differ (that is the point of warm starts).
    let counters = [
        "iterations",
        "newton_iters",
        "steps",
        "rejected",
        "factorisations",
        "symbolic_reuses",
    ];
    for (name, tol) in [
        ("vco_sweep_shooting0_summary.csv", 1e-6),
        ("vco_sweep_wampde1_summary.csv", 0.33 * rtol),
    ] {
        let warm = fs::read_to_string(warm_out.join(name)).expect("warm summary");
        let cold = fs::read_to_string(cold_out.join(name)).expect("cold summary");
        let header: Vec<&str> = warm.lines().next().expect("header").split(',').collect();
        assert_eq!(
            header,
            cold.lines().next().unwrap().split(',').collect::<Vec<_>>()
        );
        for (wline, cline) in warm.lines().skip(1).zip(cold.lines().skip(1)) {
            for ((col, w), c) in header.iter().zip(wline.split(',')).zip(cline.split(',')) {
                if counters.contains(col) {
                    continue;
                }
                let (w, c): (f64, f64) = (w.parse().unwrap(), c.parse().unwrap());
                assert!(
                    (w - c).abs() <= tol * w.abs().max(c.abs()) + 1e-9,
                    "{name} {col}: warm {w} vs cold {c}"
                );
            }
        }
    }
}

#[test]
fn merge_rejects_an_incomplete_shard_set() {
    let dir = scratch("incomplete");
    let deck = write_deck(&dir, DECK);
    let shard_out = dir.join("shards");
    run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--shards",
        "4",
        "--shard-index",
        "0",
        "--out",
        &p(&shard_out),
        "--no-cache",
    ]);
    let manifest = shard_out.join("rc_sweep_shard0of4_manifest.json");
    let out = Command::new(CLI)
        .args(["merge", &p(&manifest), "--out", &p(&dir.join("merged"))])
        .output()
        .expect("spawn wampde-cli");
    assert!(!out.status.success(), "merging 1 of 4 shards must fail");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("missing"), "{stderr}");
}

#[test]
fn corrupt_cache_entries_are_recomputed_not_trusted() {
    let dir = scratch("corrupt");
    let deck = write_deck(&dir, DECK);
    let cache = dir.join("cache");
    let cold_out = dir.join("cold");
    let after_out = dir.join("after");

    run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--out",
        &p(&cold_out),
        "--cache-dir",
        &p(&cache),
    ]);
    // Truncate every cache entry to simulate torn writes / disk
    // corruption: all of them must read as misses, never as results.
    let mut truncated = 0;
    for entry in fs::read_dir(&cache).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "sweepres") {
            let text = fs::read_to_string(&path).expect("read entry");
            fs::write(&path, &text[..text.len() / 2]).expect("truncate entry");
            truncated += 1;
        }
    }
    assert_eq!(truncated, 6, "one cache entry per job");
    let rerun = run_cli(&[
        &p(&deck),
        "--jobs",
        "2",
        "--out",
        &p(&after_out),
        "--cache-dir",
        &p(&cache),
    ]);
    let stdout = String::from_utf8_lossy(&rerun.stdout).to_string();
    assert!(
        stdout.contains("(6 computed, 0 cached)"),
        "corrupt entries must all recompute:\n{stdout}"
    );
    assert_identical(&cold_out, &after_out, AGGREGATES);
}
