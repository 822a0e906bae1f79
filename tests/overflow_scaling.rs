//! Integration: the §3.5 overflow story — badly-scaled inputs destroy the
//! bare fp16 pipeline and the power-of-two column scaling saves it, exactly,
//! for free.

use tcqr_repro::densemat::gen::{self, rng};
use tcqr_repro::densemat::metrics::qr_backward_error;
use tcqr_repro::densemat::Mat;
use tcqr_repro::halfsim::F16;
use tcqr_repro::tcqr::lls::rgsqrf_scaled;
use tcqr_repro::tcqr::rgsqrf::{rgsqrf, RgsqrfConfig};
use tcqr_repro::tcqr::scaling::{compute_column_scaling, scale_columns, unscale_r};
use tcqr_repro::tensor_engine::{EngineConfig, GpuSim, PrecisionOverride};

fn cfg() -> RgsqrfConfig {
    RgsqrfConfig {
        cutoff: 32,
        caqr_width: 8,
        caqr_block_rows: 64,
        ..RgsqrfConfig::default()
    }
}

/// Columns spanning 12 decades: far beyond fp16's ~9-decade dynamic range.
fn nasty(seed: u64) -> (Mat<f64>, Mat<f32>) {
    let a64 = gen::badly_scaled(512, 96, 12.0, &mut rng(seed));
    let a32 = a64.convert();
    (a64, a32)
}

#[test]
fn without_scaling_fp16_overflows_and_wrecks_the_factorization() {
    let (a64, a32) = nasty(1);
    let eng = GpuSim::default();
    let f = rgsqrf(&eng, a32.as_ref(), &cfg());
    assert!(
        eng.counters().round.overflow > 0,
        "expected fp16 overflow events"
    );
    let be = qr_backward_error(
        a64.as_ref(),
        f.q.convert::<f64>().as_ref(),
        f.r.convert::<f64>().as_ref(),
    );
    assert!(
        !be.is_finite() || be > 1e-2,
        "factorization should be visibly damaged, got {be}"
    );
}

#[test]
fn with_scaling_fp16_is_clean_and_accurate() {
    let (a64, a32) = nasty(1);
    let eng = GpuSim::default();
    let f = rgsqrf_scaled(&eng, &a32, &cfg());
    assert_eq!(
        eng.counters().round.overflow,
        0,
        "scaling must eliminate overflow"
    );
    let be = qr_backward_error(
        a64.as_ref(),
        f.q.convert::<f64>().as_ref(),
        f.r.convert::<f64>().as_ref(),
    );
    assert!(be < 1e-2, "scaled factorization backward error {be}");
}

#[test]
fn scaling_is_exact_in_fp16_too() {
    // The scale factors are powers of two, so scaling commutes exactly with
    // fp16 rounding: round(x * 2^k) == round(x) * 2^k whenever no
    // overflow/underflow occurs.
    for bits in (0..0x7c00u16).step_by(37) {
        let x = F16::from_bits(bits).to_f32();
        for k in [-4i32, -1, 1, 4] {
            let s = 2.0f32.powi(k);
            let lhs = F16::from_f32(x * s).to_f32();
            let rhs = F16::from_f32(x).to_f32() * s;
            if lhs.is_finite() && rhs.is_finite() && rhs.abs() >= 6.1e-5 {
                assert_eq!(lhs, rhs, "bits {bits:#06x} k {k}");
            }
        }
    }
}

#[test]
fn q_factor_is_invariant_under_column_scaling() {
    // AP = Q(RP): the Q factors of the scaled and unscaled matrix agree
    // (computed at f32 so roundoff doesn't cloud the comparison).
    let a64 = gen::badly_scaled(256, 32, 4.0, &mut rng(2)); // mild: no overflow
    let a: Mat<f32> = a64.convert();
    let eng = GpuSim::new(EngineConfig::no_tensorcore());

    let f_plain = rgsqrf(&eng, a.as_ref(), &cfg());

    let (scaling, _) = compute_column_scaling(a.as_ref(), 0);
    let mut ap = a.clone();
    scale_columns(ap.as_mut(), &scaling);
    let mut f_scaled = rgsqrf(&eng, ap.as_ref(), &cfg());
    unscale_r(f_scaled.r.as_mut(), &scaling);

    for j in 0..32 {
        for i in 0..256 {
            let d = (f_plain.q[(i, j)] - f_scaled.q[(i, j)]).abs();
            assert!(d < 1e-4, "Q differs at ({i},{j}) by {d}");
        }
        let dr = (f_plain.r[(j, j)] - f_scaled.r[(j, j)]).abs() / f_plain.r[(j, j)];
        assert!(dr < 1e-4, "R diagonal differs at {j} by {dr}");
    }
}

#[test]
fn bf16_survives_the_same_input_without_scaling() {
    // The range/resolution trade-off of §2.1: bfloat16 absorbs 12 decades.
    let (a64, a32) = nasty(3);
    let eng = GpuSim::default();
    eng.set_precision_override(Some(PrecisionOverride::Bf16));
    let f = rgsqrf(&eng, a32.as_ref(), &cfg());
    assert_eq!(eng.counters().round.overflow, 0);
    let be = qr_backward_error(
        a64.as_ref(),
        f.q.convert::<f64>().as_ref(),
        f.r.convert::<f64>().as_ref(),
    );
    assert!(be.is_finite() && be < 5e-2, "bf16 backward error {be}");
}
