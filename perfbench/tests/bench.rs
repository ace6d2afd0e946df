//! The benchmark's own checks: traced and wrapped passes reproduce the
//! untraced outputs bit for bit, inputs are a pure function of the seed,
//! and every accuracy reference rejects a perturbed result.
//!
//! The chain workload starts with a cold shooting anchor, so run these
//! in release: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use circuitdae::circuits;
use circuitdae::Dae;
use std::sync::Arc;
use vco_perfbench::ladder::{self, LadderChain};
use vco_perfbench::mems::{self, MemsAir};
use vco_perfbench::profile::Profiler;
use vco_perfbench::timed::Timed;
use vco_perfbench::Bench;

/// Untraced, traced, and traced-through-the-wrapper digests, plus the
/// wrapped pass's device-evaluation span count.
fn three_passes<B: Bench>(b: &B) -> (u64, u64, u64, u64) {
    let p = b.setup().expect("set-up succeeds");
    let plain = b.run(&p, false);
    assert_eq!(plain.failed(), 0, "{:?}", plain.errors);
    let traced = {
        let _g = obskit::install(Arc::new(Profiler::new()));
        b.run(&p, false)
    };
    let prof = Arc::new(Profiler::new());
    let wrapped = {
        let _g = obskit::install(prof.clone());
        b.run(&p, true)
    };
    let evals = prof.snapshot().span(vco_perfbench::timed::EVAL_SPAN).count;
    (plain.digest.0, traced.digest.0, wrapped.digest.0, evals)
}

fn assert_passes_identical<B: Bench>(b: &B) {
    let (plain, traced, wrapped, evals) = three_passes(b);
    assert_eq!(traced, plain, "traced outputs differ");
    assert_eq!(wrapped, plain, "wrapped outputs differ");
    assert!(evals > 0, "the wrapper saw no device evaluation");
}

#[test]
fn mems_traced_and_wrapped_outputs_are_bit_identical() {
    assert_passes_identical(&MemsAir { seed: 7, ops: 3 });
}

#[test]
fn chain_traced_and_wrapped_outputs_are_bit_identical() {
    assert_passes_identical(&LadderChain {
        seed: 7,
        points: 3,
        solver_threads: 1,
    });
}

#[test]
fn deck_outputs_do_not_depend_on_the_thread_policy() {
    let probe = LadderChain {
        seed: 7,
        points: 3,
        solver_threads: 1,
    }
    .thread_probe()
    .expect("the chain installs a core budget");
    assert!(probe.identical);
}

#[test]
fn same_seed_gives_identical_inputs() {
    for seed in [0, 1, 12345] {
        let m = |s| MemsAir { seed: s, ops: 40 }.input_text();
        assert_eq!(m(seed).as_bytes(), m(seed).as_bytes());
        assert_ne!(m(seed), m(seed + 1));
        let d = |s| ladder::deck_text(s, 30);
        assert_eq!(d(seed).as_bytes(), d(seed).as_bytes());
        assert_ne!(d(seed), d(seed + 1));
    }
    // Op 0 of the headline workload is the paper scenario for every seed.
    let op0 = |s| mems::controls(s, 2)[0];
    assert_eq!(op0(3), op0(4));
    for w in mems::controls(9, 50) {
        let v0 = w.eval(0.0);
        assert!((v0 - 1.5).abs() < 1e-12, "control starts at {v0} V");
    }
}

#[test]
fn wrapper_forwards_sparse_interface() {
    let dae = circuits::ring_loaded_vco(4);
    let timed = Timed(&dae);
    assert!(!dae.sparsity().is_dense());
    assert_eq!(timed.sparsity(), dae.sparsity());
    let x: Vec<f64> = (0..dae.dim()).map(|i| 0.1 * i as f64 - 0.2).collect();
    let n = dae.dim();
    for threads in [1, 2] {
        let mut a = sparsekit::Triplets::new(n, n);
        let mut b = sparsekit::Triplets::new(n, n);
        dae.jac_f_triplets_threads(&x, &mut a, threads);
        timed.jac_f_triplets_threads(&x, &mut b, threads);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        let mut a = sparsekit::Triplets::new(n, n);
        let mut b = sparsekit::Triplets::new(n, n);
        dae.jac_q_triplets(&x, &mut a);
        timed.jac_q_triplets(&x, &mut b);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }
}

#[test]
fn mems_reference_rejects_a_perturbed_envelope() {
    let b = MemsAir { seed: 1, ops: 1 };
    let p = b.setup().expect("set-up succeeds");
    let check = b.run(&p, false).check.expect("op 0 converges");
    let fine = mems::reference_transient(&check.env0).expect("reference runs");
    assert!(mems::rel_err(&check.env0, &fine) <= mems::REL_ERR_GATE);
    // A 0.1 % frequency error drifts about three cycles over 3 ms.
    let mut env = check.env0.clone();
    for (phi, w) in env.phi.iter_mut().zip(env.omega_hz.iter_mut()) {
        *phi *= 1.001;
        *w *= 1.001;
    }
    assert!(mems::rel_err(&env, &fine) > mems::REL_ERR_GATE);
}

#[test]
fn chain_reference_rejects_a_perturbed_frequency() {
    let b = LadderChain {
        seed: 1,
        points: 2,
        solver_threads: 1,
    };
    let p = b.setup().expect("set-up succeeds");
    let check = b.run(&p, false).check.expect("the chain converges");
    let f_ref = ladder::reference_frequency(&p).expect("reference");
    let rel = |f: f64| (f - f_ref).abs() / f_ref;
    assert!(rel(check.freq_hz) <= ladder::REL_ERR_GATE);
    assert!(rel(check.freq_hz * 1.02) > ladder::REL_ERR_GATE);
}
