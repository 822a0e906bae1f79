//! Cross-crate integration: the full QR pipeline from matrix generation
//! through scaling, factorization on the simulated engine, and
//! re-orthogonalization — checking the paper's QR-level claims end to end.

use tcqr_repro::densemat::gen::{self, rng, Spectrum};
use tcqr_repro::densemat::metrics::{orthogonality_error, qr_backward_error};
use tcqr_repro::densemat::Mat;
use tcqr_repro::halfsim::bounds::U16;
use tcqr_repro::tcqr::lls::rgsqrf_scaled;
use tcqr_repro::tcqr::reortho::rgsqrf_reortho;
use tcqr_repro::tcqr::rgsqrf::{rgsqrf, RgsqrfConfig};
use tcqr_repro::tensor_engine::{EngineConfig, GpuSim};

fn small_cfg() -> RgsqrfConfig {
    RgsqrfConfig {
        cutoff: 32,
        caqr_width: 8,
        caqr_block_rows: 64,
        ..RgsqrfConfig::default()
    }
}

fn factor_errors(a64: &Mat<f64>, eng: &GpuSim, cfg: &RgsqrfConfig) -> (f64, f64) {
    let a32: Mat<f32> = a64.convert();
    let f = rgsqrf_scaled(eng, &a32, cfg);
    (
        qr_backward_error(
            a64.as_ref(),
            f.q.convert::<f64>().as_ref(),
            f.r.convert::<f64>().as_ref(),
        ),
        orthogonality_error(f.q.convert::<f64>().as_ref()),
    )
}

#[test]
fn backward_error_is_flat_in_cond_and_at_half_precision_scale() {
    // Figure 3's claim, across four orders of magnitude of conditioning.
    let mut errs = Vec::new();
    for (i, &cond) in [1e1, 1e3, 1e5, 1e7].iter().enumerate() {
        let a = gen::rand_svd(768, 128, Spectrum::Arithmetic { cond }, &mut rng(i as u64));
        let eng = GpuSim::default();
        let (be, _) = factor_errors(&a, &eng, &small_cfg());
        errs.push(be);
    }
    for &e in &errs {
        assert!(e < 20.0 * U16, "backward error {e} beyond fp16 scale");
        assert!(e > 1e-8, "backward error {e} implausibly small for fp16");
    }
    let spread = errs.iter().cloned().fold(0.0f64, f64::max)
        / errs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 50.0, "backward error should be ~flat in cond: {errs:?}");
}

#[test]
fn orthogonality_tracks_cond_and_reortho_flattens_it() {
    // Figure 4's claim.
    let cfg = small_cfg();
    let mut once = Vec::new();
    let mut twice = Vec::new();
    for (i, &cond) in [1e1, 1e3, 1e5].iter().enumerate() {
        let a = gen::rand_svd(768, 128, Spectrum::Arithmetic { cond }, &mut rng(10 + i as u64));
        let a32: Mat<f32> = a.convert();
        let eng = GpuSim::default();
        let f1 = rgsqrf(&eng, a32.as_ref(), &cfg);
        once.push(orthogonality_error(f1.q.convert::<f64>().as_ref()));
        let f2 = rgsqrf_reortho(&eng, a32.as_ref(), &cfg);
        twice.push(orthogonality_error(f2.q.convert::<f64>().as_ref()));
    }
    // Single-pass error grows strongly with cond.
    assert!(
        once[2] > 30.0 * once[0],
        "single-pass orthogonality should grow with cond: {once:?}"
    );
    // Re-orthogonalized error stays near the engine's working precision and
    // does not track cond.
    for &e in &twice {
        assert!(e < 30.0 * U16, "reortho orthogonality {e}");
    }
    assert!(
        twice[2] < 20.0 * twice[0].max(U16),
        "reortho should decouple from cond: {twice:?}"
    );
}

#[test]
fn fp32_engine_recovers_single_precision_everywhere() {
    let a = gen::rand_svd(512, 96, Spectrum::Geometric { cond: 1e3 }, &mut rng(20));
    let eng = GpuSim::new(EngineConfig::no_tensorcore());
    let (be, _) = factor_errors(&a, &eng, &small_cfg());
    assert!(be < 1e-5, "fp32 backward error {be}");
}

#[test]
fn panel_choice_does_not_change_results_materially() {
    let a = gen::rand_svd(640, 64, Spectrum::Arithmetic { cond: 1e2 }, &mut rng(21));
    let a32: Mat<f32> = a.convert();
    let eng = GpuSim::default();
    let f_caqr = rgsqrf(&eng, a32.as_ref(), &small_cfg());
    let cfg_hh = RgsqrfConfig {
        cutoff: 32,
        ..RgsqrfConfig::with_sgeqrf_panel()
    };
    let f_hh = rgsqrf(&eng, a32.as_ref(), &cfg_hh);
    let be1 = qr_backward_error(
        a.as_ref(),
        f_caqr.q.convert::<f64>().as_ref(),
        f_caqr.r.convert::<f64>().as_ref(),
    );
    let be2 = qr_backward_error(
        a.as_ref(),
        f_hh.q.convert::<f64>().as_ref(),
        f_hh.r.convert::<f64>().as_ref(),
    );
    assert!(be1 < 20.0 * U16 && be2 < 20.0 * U16, "{be1} vs {be2}");
    // Same R magnitudes up to fp16-level differences (Householder panels
    // choose LAPACK's sign convention, so compare absolute values).
    for j in 0..64 {
        let d = (f_caqr.r[(j, j)].abs() - f_hh.r[(j, j)].abs()).abs() as f64;
        assert!(d < 1e-2 * f_hh.r[(j, j)].abs() as f64 + 1e-3, "diag {j}");
    }
}

#[test]
fn bf16_engine_trades_accuracy_for_range() {
    let a = gen::rand_svd(512, 64, Spectrum::Arithmetic { cond: 10.0 }, &mut rng(22));
    let fp16 = GpuSim::default();
    let (be16, _) = factor_errors(&a, &fp16, &small_cfg());
    let bf16 = GpuSim::default();
    bf16.set_precision_override(Some(tcqr_repro::tensor_engine::PrecisionOverride::Bf16));
    let (bebf, _) = factor_errors(&a, &bf16, &small_cfg());
    assert!(
        bebf > 2.0 * be16,
        "bf16 ({bebf}) should be coarser than fp16 ({be16})"
    );
    assert!(bebf < 100.0 * be16, "but not catastrophically so: {bebf}");
}

#[test]
fn deterministic_given_seed_and_config() {
    let a = gen::rand_svd(256, 64, Spectrum::Arithmetic { cond: 1e3 }, &mut rng(23));
    let a32: Mat<f32> = a.convert();
    let f1 = rgsqrf(&GpuSim::default(), a32.as_ref(), &small_cfg());
    let f2 = rgsqrf(&GpuSim::default(), a32.as_ref(), &small_cfg());
    assert_eq!(f1.q, f2.q, "Q must be bit-reproducible");
    assert_eq!(f1.r, f2.r, "R must be bit-reproducible");
}
