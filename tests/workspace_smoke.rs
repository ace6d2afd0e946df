//! Workspace linkability smoke test.
//!
//! One trivial call (or function-pointer reference, for the expensive
//! drivers) per member crate, so that a future manifest regression — a
//! crate dropped from the workspace, a renamed package, a broken
//! re-export in the facade — fails this test loudly instead of silently
//! shrinking the build.

#[test]
fn every_member_crate_is_linkable() {
    // numkit: dense kernels.
    let z = numkit::Complex64::new(3.0, 4.0);
    assert!((z.abs() - 5.0).abs() < 1e-12);
    let m = numkit::DMat::zeros(2, 2);
    assert_eq!(m.matvec(&[1.0, 1.0]), vec![0.0, 0.0]);

    // sparsekit: sparse kernels.
    let mut t = sparsekit::Triplets::new(2, 2);
    t.push(0, 0, 1.0);
    t.push(1, 1, 2.0);
    assert_eq!(t.to_csr().matvec(&[1.0, 1.0]), vec![1.0, 2.0]);

    // fourier: spectral kernels.
    let d = fourier::spectral_diff_matrix(3);
    let deriv_of_const = d.matvec(&[1.0, 1.0, 1.0]);
    assert!(deriv_of_const.iter().all(|v| v.abs() < 1e-10));

    // circuitdae: circuit builder.
    let mut ckt = circuitdae::Circuit::new();
    let _n0 = ckt.node("n0");
    assert_eq!(ckt.node_count(), 1);

    // transim: integrator metadata.
    assert_eq!(transim::Integrator::Trapezoidal.order(), 2);

    // shooting: options plumbing.
    assert!(shooting::ShootingOptions::default().steps_per_period > 0);

    // hb: collocation grid.
    let colloc = hb::Colloc::new(2, 3);
    assert!(!colloc.is_empty());

    // mpde: the AM forcing is a bivariate forcing of wampde's envelope.
    let _forcing: &dyn wampde::BivariateForcing = &mpde::AmForcing {
        node: 0,
        carrier_amplitude: 1.0,
        mod_depth: 0.5,
        mod_freq_hz: 1.0,
    };

    // wampde: options plumbing.
    let _wampde_opts = wampde::WampdeOptions::default();

    // multitime: the paper's Section-3 FM signal at t = 0.
    assert!(multitime::fm::signal(0.0).is_finite());

    // sigproc: metrics.
    assert!((sigproc::rms(&[3.0, 3.0]) - 3.0).abs() < 1e-12);

    // wampde_bench: drivers are expensive whole-solver runs, so assert
    // linkability via function pointers without calling them.
    let _orbit: fn() -> shooting::PeriodicOrbit = wampde_bench::unforced_orbit;
    let _dir: fn() -> std::path::PathBuf = wampde_bench::out::repro_dir;
}

#[test]
fn facade_reexports_resolve() {
    // The facade must expose every member crate under its own name.
    let z = wampde_suite::numkit::Complex64::new(0.0, 1.0);
    assert!((z.abs() - 1.0).abs() < 1e-12);
    assert_eq!(wampde_suite::transim::Integrator::BackwardEuler.order(), 1);
    assert!(wampde_suite::multitime::fm::signal(0.0).is_finite());
    let _opts = wampde_suite::wampde::WampdeOptions::default();
    let _orbit: fn() -> wampde_suite::shooting::PeriodicOrbit =
        wampde_suite::wampde_bench::unforced_orbit;
}
