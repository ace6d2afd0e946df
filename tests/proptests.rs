//! Property-based tests on cross-crate invariants.

use circuitdae::{check_jacobians, Circuit, Dae, Device, Waveform};
use numkit::{Complex64, DMat};
use proptest::prelude::*;
use sparsekit::{SparseLu, Triplets};

#[allow(dead_code)]
#[path = "../crates/hb/src/colloc/oracle.rs"]
mod diff_oracle;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT round-trip is the identity for arbitrary complex data.
    #[test]
    fn fft_roundtrip(re in prop::collection::vec(-1e3f64..1e3, 1..200),
                     im in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let n = re.len().min(im.len());
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::new(re[i], im[i])).collect();
        let back = fourier::fft::ifft_of_any_len(&fourier::fft::fft_of_any_len(&x));
        let scale = x.iter().map(|v| v.abs()).fold(1.0_f64, f64::max);
        for (a, b) in back.iter().zip(x.iter()) {
            prop_assert!((*a - *b).abs() < 1e-9 * scale);
        }
    }

    /// Parseval: time-domain and frequency-domain energies agree.
    #[test]
    fn fft_parseval(re in prop::collection::vec(-1e2f64..1e2, 2..128)) {
        let x: Vec<Complex64> = re.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let f = fourier::fft::fft_of_any_len(&x);
        let te: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let fe: f64 = f.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((te - fe).abs() <= 1e-8 * te.max(1.0));
    }

    /// Trigonometric interpolation reproduces any band-limited signal
    /// exactly between samples.
    #[test]
    fn trig_interp_band_limited(
        coeffs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..5),
        probe in 0.0f64..1.0,
    ) {
        let m = coeffs.len();
        let n = 2 * m + 1;
        let f = |t: f64| -> f64 {
            coeffs
                .iter()
                .enumerate()
                .map(|(k, (a, b))| {
                    let w = 2.0 * std::f64::consts::PI * (k + 1) as f64 * t;
                    a * w.cos() + b * w.sin()
                })
                .sum()
        };
        let samples: Vec<f64> = (0..n).map(|s| f(s as f64 / n as f64)).collect();
        let got = fourier::trig_interp(&samples, probe);
        let bary = fourier::interp::trig_interp_barycentric(&samples, probe);
        prop_assert!((got - f(probe)).abs() < 1e-8);
        prop_assert!((bary - f(probe)).abs() < 1e-8);
    }

    /// Sparse LU solves random diagonally dominant systems to the same
    /// answer as dense LU.
    #[test]
    fn sparse_lu_matches_dense(
        n in 3usize..25,
        seed in prop::collection::vec(-1.0f64..1.0, 200),
        rhs_seed in prop::collection::vec(-1.0f64..1.0, 25),
    ) {
        let mut t = Triplets::new(n, n);
        let mut dense = DMat::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            let d = 5.0 + seed[k % seed.len()].abs();
            t.push(i, i, d);
            dense[(i, i)] += d;
            k += 1;
            for _ in 0..3 {
                let j = ((seed[k % seed.len()].abs() * n as f64) as usize) % n;
                let v = seed[(k + 7) % seed.len()];
                t.push(i, j, v);
                dense[(i, j)] += v;
                k += 3;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| rhs_seed[i % rhs_seed.len()]).collect();
        let xs = SparseLu::factor(&t.to_csc()).unwrap().solve(&b).unwrap();
        let xd = numkit::lu::solve_dense(&dense, &b).unwrap();
        for (a, c) in xs.iter().zip(xd.iter()) {
            prop_assert!((a - c).abs() < 1e-8);
        }
    }

    /// Analytic device Jacobians match finite differences for random RC
    /// ladders with nonlinear conductors.
    #[test]
    fn random_ladder_jacobians_consistent(
        stages in 1usize..6,
        rs in prop::collection::vec(10.0f64..1e4, 6),
        cs in prop::collection::vec(1e-9f64..1e-6, 6),
        g1 in 1e-4f64..1e-2,
        x_seed in prop::collection::vec(-2.0f64..2.0, 16),
    ) {
        let mut ckt = Circuit::new();
        let mut prev = Circuit::GND;
        let mut first = None;
        for s in 0..stages {
            let node = ckt.node(format!("n{s}"));
            if s == 0 {
                ckt.add(Device::current_source(Circuit::GND, node, Waveform::Dc(1e-3)));
                first = Some(node);
            } else {
                ckt.add(Device::resistor(prev, node, rs[s % rs.len()]));
            }
            ckt.add(Device::capacitor(node, Circuit::GND, cs[s % cs.len()]));
            ckt.add(Device::resistor(node, Circuit::GND, rs[(s + 3) % rs.len()]));
            prev = node;
        }
        ckt.add(Device::cubic_conductor(first.unwrap(), Circuit::GND, g1, g1 / 3.0));
        let dae = ckt.build().unwrap();
        let x: Vec<f64> = (0..dae.dim()).map(|i| x_seed[i % x_seed.len()]).collect();
        prop_assert!(check_jacobians(&dae, &x) < 1e-5);
    }

    /// The warped FM representation reconstructs the FM signal exactly
    /// for arbitrary probe times.
    #[test]
    fn fm_warped_reconstruction_exact(t in 0.0f64..1e-4) {
        let x = multitime::fm::reconstruct_warped(t);
        let want = multitime::fm::signal(t);
        prop_assert!((x - want).abs() < 1e-8);
    }

    /// PCHIP never overshoots monotone data.
    #[test]
    fn pchip_monotone(mut ys in prop::collection::vec(0.0f64..1.0, 4..20)) {
        // Make the data monotone by prefix-summing.
        let mut acc = 0.0;
        for y in ys.iter_mut() {
            acc += *y + 1e-3;
            *y = acc;
        }
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let p = numkit::interp::Pchip::new(&xs, &ys).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for k in 0..200 {
            let x = (ys.len() - 1) as f64 * k as f64 / 199.0;
            let v = p.eval(x);
            prop_assert!(v >= prev - 1e-9, "non-monotone at {x}");
            prev = v;
        }
    }

    /// AMD returns a valid permutation of the columns for arbitrary
    /// sparsity patterns (including empty and duplicate adjacency rows).
    #[test]
    fn amd_is_valid_permutation(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..160),
    ) {
        let mut pattern = vec![Vec::new(); n];
        for &(a, b) in &edges {
            let (i, j) = (a % n, b % n);
            pattern[i].push(j);
            pattern[j].push(i);
        }
        let perm = sparsekit::amd(&pattern);
        prop_assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &p in &perm {
            prop_assert!(p < n && !seen[p], "not a permutation: {:?}", perm);
            seen[p] = true;
        }
    }

    /// BTF on a structurally nonsingular matrix yields a valid row
    /// matching, a valid column permutation, and a monotone block
    /// partition covering every column.
    #[test]
    fn btf_outputs_are_valid_permutations(
        n in 1usize..30,
        seed in prop::collection::vec(-1.0f64..1.0, 120),
    ) {
        let mut t = Triplets::new(n, n);
        let mut k = 0;
        for i in 0..n {
            t.push(i, i, 2.0 + seed[k % seed.len()].abs()); // structural full rank
            k += 1;
            for _ in 0..2 {
                let j = ((seed[k % seed.len()].abs() * n as f64) as usize) % n;
                t.push(i, j, seed[(k + 5) % seed.len()]);
                k += 2;
            }
        }
        let form = sparsekit::btf(&t.to_csc()).unwrap();
        let mut seen_r = vec![false; n];
        let mut seen_c = vec![false; n];
        for c in 0..n {
            let r = form.match_row[c];
            prop_assert!(r < n && !seen_r[r]);
            seen_r[r] = true;
            let p = form.col_order[c];
            prop_assert!(p < n && !seen_c[p]);
            seen_c[p] = true;
        }
        prop_assert_eq!(form.block_ptr[0], 0);
        prop_assert_eq!(*form.block_ptr.last().unwrap(), n);
        prop_assert!(form.block_ptr.windows(2).all(|w| w[0] < w[1]));
    }

    /// The BTF+AMD-ordered, row-equilibrated LU solves random diagonally
    /// dominant systems to dense-LU accuracy (1e-12 of the solution
    /// scale).
    #[test]
    fn ordered_lu_matches_dense(
        n in 3usize..25,
        seed in prop::collection::vec(-1.0f64..1.0, 200),
        rhs_seed in prop::collection::vec(-1.0f64..1.0, 25),
    ) {
        let mut t = Triplets::new(n, n);
        let mut dense = DMat::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            let d = 5.0 + seed[k % seed.len()].abs();
            t.push(i, i, d);
            dense[(i, i)] += d;
            k += 1;
            for _ in 0..3 {
                let j = ((seed[k % seed.len()].abs() * n as f64) as usize) % n;
                let v = seed[(k + 7) % seed.len()];
                t.push(i, j, v);
                dense[(i, j)] += v;
                k += 3;
            }
        }
        let csc = t.to_csc();
        let plan = sparsekit::OrderingPlan::for_matrix(&csc).unwrap();
        let b: Vec<f64> = (0..n).map(|i| rhs_seed[i % rhs_seed.len()]).collect();
        let xs = SparseLu::factor_ordered(&csc, &plan).unwrap().solve(&b).unwrap();
        let xd = numkit::lu::solve_dense(&dense, &b).unwrap();
        let scale = xd.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (a, c) in xs.iter().zip(xd.iter()) {
            prop_assert!((a - c).abs() < 1e-12 * scale, "{a} vs {c}");
        }
    }

    /// Numeric-only refactorisation on the ordered kernel is bitwise
    /// identical to a fresh ordered factorisation of the same values —
    /// the cache-reuse contract `linsolve::FactorCache` relies on.
    #[test]
    fn ordered_refactor_bitwise_identical(
        n in 3usize..20,
        seed in prop::collection::vec(-1.0f64..1.0, 160),
        bump in 0.5f64..2.0,
    ) {
        let build = |scale: f64| {
            let mut t = Triplets::new(n, n);
            let mut k = 0;
            for i in 0..n {
                t.push(i, i, (4.0 + seed[k % seed.len()].abs()) * scale);
                k += 1;
                for _ in 0..2 {
                    let j = ((seed[k % seed.len()].abs() * n as f64) as usize) % n;
                    t.push(i, j, seed[(k + 3) % seed.len()] * scale);
                    k += 2;
                }
            }
            t.to_csc()
        };
        let first = build(1.0);
        let second = build(bump); // same pattern, different values
        let plan = sparsekit::OrderingPlan::for_matrix(&first).unwrap();
        let mut lu = SparseLu::factor_ordered(&first, &plan).unwrap();
        lu.refactor(&second).unwrap();
        let fresh = SparseLu::factor_ordered(&second, &plan).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.25).collect();
        let xr = lu.solve(&b).unwrap();
        let xf = fresh.solve(&b).unwrap();
        for (a, c) in xr.iter().zip(xf.iter()) {
            prop_assert_eq!(a.to_bits(), c.to_bits(), "refactor drifted: {} vs {}", a, c);
        }
    }

    /// On real bordered ring_loaded_vco step Jacobians, the ordered KLU
    /// backend lands on the dense solution to 1e-12 of its scale.
    #[test]
    fn klu_matches_dense_on_ring_jacobians(stages in 2usize..7, harmonics in 1usize..3) {
        let jac = wampde_bench::StepJacobian::build(stages, harmonics);
        let dense = jac.factor_solve(wampde::LinearSolverKind::Dense);
        let klu = jac.factor_solve(wampde::LinearSolverKind::Klu);
        let scale = dense.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (a, c) in klu.iter().zip(dense.iter()) {
            prop_assert!((a - c).abs() < 1e-12 * scale, "{a} vs {c}");
        }
    }

    /// On random block-triangular matrices the ordered kernel solves to
    /// the dense LU's answer within 1e-12 of its scale, and a numeric
    /// refactor onto new values is bitwise a fresh factor of them.
    #[test]
    fn multiblock_factor_ordered_matches_dense_and_refactors_bitwise(
        sizes in prop::collection::vec(1usize..8, 1..5),
        seed in prop::collection::vec(-1.0f64..1.0, 240),
        bump in 0.25f64..1.0,
    ) {
        // Random BTF-rich matrix: diagonally dominant blocks on the
        // diagonal, coupling entries only from each block to the next,
        // so the strongly connected components are exactly the blocks.
        // `off` scales every off-diagonal value and keeps the pattern.
        let n: usize = sizes.iter().sum();
        let starts: Vec<usize> = sizes
            .iter()
            .scan(0, |acc, &s| { let v = *acc; *acc += s; Some(v) })
            .collect();
        let build = |off: f64| {
            let mut t = Triplets::new(n, n);
            let mut k = 0;
            for (b, (&start, &size)) in starts.iter().zip(sizes.iter()).enumerate() {
                for r in 0..size {
                    let i = start + r;
                    t.push(i, i, 4.0 + seed[k % seed.len()].abs());
                    k += 1;
                    for _ in 0..2 {
                        let j = start + ((seed[k % seed.len()].abs() * size as f64) as usize) % size;
                        t.push(i, j, off * seed[(k + 7) % seed.len()]);
                        k += 2;
                    }
                    if b + 1 < sizes.len() {
                        let nb = sizes[b + 1];
                        let j = starts[b + 1]
                            + ((seed[k % seed.len()].abs() * nb as f64) as usize) % nb;
                        t.push(i, j, off * seed[(k + 3) % seed.len()]);
                        k += 1;
                    }
                }
            }
            t.to_csc()
        };
        let (first, second) = (build(1.0), build(bump));
        let plan = sparsekit::OrderingPlan::for_matrix(&first).unwrap();
        let lu = SparseLu::factor_ordered(&first, &plan).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64) * 0.125).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = numkit::DenseLu::factor(&first.to_dense()).unwrap().solve(&b).unwrap();
        let scale = xd.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (a, c) in xs.iter().zip(xd.iter()) {
            prop_assert!((a - c).abs() < 1e-12 * scale, "{a} vs {c}");
        }
        let mut reuse = lu;
        reuse.refactor(&second).unwrap();
        let fresh = SparseLu::factor_ordered(&second, &plan).unwrap();
        prop_assert_eq!(format!("{:?}", reuse), format!("{:?}", fresh));
        let (xr, xf) = (reuse.solve(&b).unwrap(), fresh.solve(&b).unwrap());
        for (a, c) in xr.iter().zip(xf.iter()) {
            prop_assert_eq!(a.to_bits(), c.to_bits(), "refactor drifted: {} vs {}", a, c);
        }
    }

    /// Spectral differentiation of a random band-limited signal matches
    /// the analytic derivative at the grid points.
    #[test]
    fn spectral_diff_exact(
        coeffs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..4),
    ) {
        let m = coeffs.len();
        let n = 2 * m + 1;
        let two_pi = 2.0 * std::f64::consts::PI;
        let f = |t: f64| -> f64 {
            coeffs.iter().enumerate().map(|(k, (a, b))| {
                let w = two_pi * (k + 1) as f64 * t;
                a * w.cos() + b * w.sin()
            }).sum()
        };
        let df = |t: f64| -> f64 {
            coeffs.iter().enumerate().map(|(k, (a, b))| {
                let kk = two_pi * (k + 1) as f64;
                let w = kk * t;
                -a * kk * w.sin() + b * kk * w.cos()
            }).sum()
        };
        let d = fourier::spectral_diff_matrix(n);
        let x: Vec<f64> = (0..n).map(|s| f(s as f64 / n as f64)).collect();
        let got = d.matvec(&x);
        for (s, g) in got.iter().enumerate() {
            let want = df(s as f64 / n as f64);
            prop_assert!((g - want).abs() < 1e-7 * (1.0 + want.abs()));
        }
    }

    /// The register-tiled spectral derivative equals the textbook loop
    /// bit for bit on every tile shape, with entries that include ±0.0,
    /// NaN and ±inf and with coefficients of `D` zeroed. Only the sign
    /// and payload of a NaN may differ: Rust leaves them unspecified (an
    /// optimiser may commute an addition of two NaNs).
    #[test]
    fn tiled_spectral_derivative_matches_the_textbook_loop(
        n in 1usize..9,
        harmonics in 1usize..14,
        draws in prop::collection::vec((0usize..20, -1e3f64..1e3), 1..256),
        zeroed in prop::collection::vec((0usize..27, 0usize..27), 0..6),
    ) {
        let mut colloc = hb::Colloc::new(n, harmonics);
        let n0 = colloc.n0;
        for &(s, p) in &zeroed {
            colloc.dmat[(s % n0, p % n0)] = if s % 2 == 0 { 0.0 } else { -0.0 };
        }
        let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let vals: Vec<f64> = (0..colloc.len())
            .map(|k| {
                let (kind, v) = draws[k % draws.len()];
                special.get(kind).copied().unwrap_or(v)
            })
            .collect();
        let (mut got, mut want) = (vec![1.0; vals.len()], vec![2.0; vals.len()]);
        colloc.apply_diff(&vals, &mut got);
        diff_oracle::apply_diff(colloc.dmat.as_slice(), n0, n, &vals, &mut want);
        let bits = |v: &[f64]| {
            v.iter()
                .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
