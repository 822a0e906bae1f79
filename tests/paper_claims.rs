//! Integration: the paper's headline quantitative claims, evaluated against
//! the performance model at the paper's own problem sizes.
//!
//! These are the numbers EXPERIMENTS.md reports; each test pins one claim so
//! a model regression cannot silently change the reproduction.

use tcqr_repro::tcqr::cost;
use tcqr_repro::tcqr::perf_est::{magma_hybrid_tflops, rgsqrf_tflops, EstPanel};
use tcqr_repro::tcqr::rgsqrf::RgsqrfConfig;
use tcqr_repro::tensor_engine::perf::{householder_qr_flops, rgsqrf_flops};
use tcqr_repro::tensor_engine::{Class, EngineConfig, GpuSim};

/// Abstract: "QR 3.0x-14.6x speedup compared to cuSOLVER".
#[test]
fn qr_speedup_band_over_cusolver() {
    let cfg = RgsqrfConfig::default();
    let grid = [
        (32768usize, 2048usize),
        (32768, 8192),
        (32768, 16384),
        (32768, 32768),
        (131072, 4096),
        (262144, 2048),
    ];
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (m, n) in grid {
        let rgs = GpuSim::default();
        cost::rgsqrf(&rgs, m, n, &cfg);
        let cus = GpuSim::default();
        cost::sgeqrf(&cus, m, n);
        let s = cus.clock() / rgs.clock();
        lo = lo.min(s);
        hi = hi.max(s);
    }
    assert!((2.5..=4.5).contains(&lo), "min speedup {lo} (paper: 3.0x)");
    assert!((10.0..=20.0).contains(&hi), "max speedup {hi} (paper: 14.6x)");
}

/// Abstract + §4.1.2: "reaching up to 36.6 TFLOPS" (at 32768x32768),
/// "utilizes around 37.4% of the TensorCore peak".
#[test]
fn peak_tflops_at_square_size() {
    let rgs = GpuSim::default();
    cost::rgsqrf(&rgs, 32768, 32768, &RgsqrfConfig::default());
    let tflops = rgsqrf_flops(32768, 32768) / rgs.clock() / 1e12;
    assert!(
        (30.0..=46.0).contains(&tflops),
        "peak {tflops} TFLOPS (paper: 36.6)"
    );
    let utilization = tflops / 97.82; // TC peak from Table 3
    assert!((0.3..=0.5).contains(&utilization), "utilization {utilization}");
}

/// §3.1.3: the estimate with the CAQR panel reaches ~27 TFLOPS at
/// 32768x16384 and the implementation measured 26.2; our replay must land
/// in the same range, and the formula-(7) estimate must agree with the
/// replay within a few percent (the paper's own consistency check).
#[test]
fn estimate_matches_replay_at_paper_size() {
    let est = rgsqrf_tflops(16384, 128, true, EstPanel::Caqr);
    let rgs = GpuSim::default();
    cost::rgsqrf(&rgs, 32768, 16384, &RgsqrfConfig::default());
    let replay = rgsqrf_flops(32768, 16384) / rgs.clock() / 1e12;
    assert!((24.0..=30.0).contains(&est), "estimate {est} (paper: ~27)");
    assert!((est - replay).abs() / est < 0.05, "estimate {est} vs replay {replay}");
}

/// Figure 5: RGSQRF-Reortho vs SGEQRF+SORMQR, "3.7x to 7.7x faster".
#[test]
fn reortho_speedup_band() {
    let cfg = RgsqrfConfig::default();
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (m, n) in [
        (32768usize, 2048usize),
        (32768, 8192),
        (32768, 16384),
        (32768, 32768),
        (262144, 2048),
    ] {
        let a = GpuSim::default();
        cost::rgsqrf_reortho(&a, m, n, &cfg);
        let b = GpuSim::default();
        cost::sgeqrf_orgqr(&b, m, n);
        let s = b.clock() / a.clock();
        lo = lo.min(s);
        hi = hi.max(s);
    }
    assert!((2.0..=4.5).contains(&lo), "min {lo} (paper: 3.7x)");
    assert!((6.0..=11.0).contains(&hi), "max {hi} (paper: 7.7x)");
}

/// Figure 7's message: TC in the panel is nearly free of effect; TC in the
/// update is critical; no TC means no win over cuSOLVER on squarish sizes.
#[test]
fn tensorcore_placement_ordering() {
    let cfg = RgsqrfConfig::default();
    let (m, n) = (32768, 16384);
    let clock = |ec: EngineConfig| {
        let eng = GpuSim::new(ec);
        cost::rgsqrf(&eng, m, n, &cfg);
        eng.clock()
    };
    let on_on = clock(EngineConfig::tensorcore_everywhere());
    let off_on = clock(EngineConfig::default());
    let off_off = clock(EngineConfig::no_tensorcore());
    assert!(on_on < off_on, "panel TC should help a little");
    assert!(
        off_on / on_on < 1.15,
        "but only a little: {}",
        off_on / on_on
    );
    assert!(off_off > 2.0 * off_on, "update TC is critical");
    // Without TC the advantage evaporates: at 32768x16384 (where the
    // cuSOLVER calibration is direct measurement, not aspect extrapolation)
    // the no-TC RGSQRF wall time is within a whisker of cuSOLVER's — the
    // paper's "may speed down compared to cuSOLVER".
    let no_tc = GpuSim::new(EngineConfig::no_tensorcore());
    cost::rgsqrf(&no_tc, m, n, &cfg);
    let cus = GpuSim::default();
    cost::sgeqrf(&cus, m, n);
    let ratio = cus.clock() / no_tc.clock();
    assert!(
        (0.6..=1.5).contains(&ratio),
        "no-TC RGSQRF should be roughly at parity with cuSOLVER: {ratio}"
    );
}

/// Table 2's shape: the MAGMA hybrid never gets far past ~7 TFLOPS, TC or
/// not, and collapses at large block sizes.
#[test]
fn magma_hybrid_stays_slow() {
    let mut best = 0.0f64;
    for b in [32usize, 64, 128, 256, 512, 768] {
        for tc in [false, true] {
            best = best.max(magma_hybrid_tflops(32768, 16384, b, tc));
        }
    }
    assert!(best < 9.0, "MAGMA hybrid best {best} (paper: ~7 TFLOPS at B=64)");
    let collapsed = magma_hybrid_tflops(32768, 16384, 768, true);
    assert!(collapsed < best / 3.0, "B=768 should collapse: {collapsed}");
}

/// Table 4: RGSQRF-SVD vs SGEQRF-SVD time ratio ~6.4x at 524288x1024.
#[test]
fn qr_svd_time_ratio() {
    let cfg = RgsqrfConfig::default();
    let a = GpuSim::default();
    cost::qr_svd(&a, 524288, 1024, true, &cfg);
    let b = GpuSim::default();
    cost::qr_svd(&b, 524288, 1024, false, &cfg);
    let ratio = b.clock() / a.clock();
    assert!((4.5..=8.5).contains(&ratio), "ratio {ratio} (paper: 6.4x)");
}

/// Figure 8: refined LLS beats the direct solvers by up to ~8.9x (single)
/// and ~13.5x (double) across the modeled grid.
#[test]
fn lls_speedup_band() {
    let cfg = RgsqrfConfig::default();
    let mut hi_s = 0.0f64;
    let mut hi_d = 0.0f64;
    for (m, n) in [(32768usize, 8192usize), (32768, 16384), (32768, 24576)] {
        let iters = 8; // representative measured count
        let r = GpuSim::default();
        cost::cgls_qr(&r, m, n, &cfg, iters);
        let s = GpuSim::default();
        cost::cusolve(&s, Class::Fp32, m, n);
        let d = GpuSim::default();
        cost::cusolve(&d, Class::Fp64, m, n);
        hi_s = hi_s.max(s.clock() / r.clock());
        hi_d = hi_d.max(d.clock() / r.clock());
    }
    assert!((5.0..=11.0).contains(&hi_s), "vs single {hi_s} (paper: 8.9x)");
    assert!((10.0..=20.0).contains(&hi_d), "vs double {hi_d} (paper: 13.5x)");
}

/// Householder vs recursive flop counts (recurrence (5)): at most 50% more.
#[test]
fn flop_overhead_bound() {
    for (m, n) in [(32768usize, 16384usize), (32768, 32768), (1 << 20, 1024)] {
        let overhead = rgsqrf_flops(m, n) / householder_qr_flops(m, n);
        assert!(overhead <= 1.5 + 1e-12, "({m},{n}): {overhead}");
        assert!(overhead >= 1.0);
    }
}
