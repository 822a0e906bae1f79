//! CholeskyQR and CholeskyQR2 — the related-work baseline of the paper's §5
//! (Yamazaki/Tomov/Dongarra 2015).
//!
//! `A^T A = R^T R`, then `Q = A R^{-1}`: one big syrk-shaped GEMM plus a
//! triangular solve — even more GEMM-friendly than recursive Gram-Schmidt.
//! The catch the paper points out: forming `A^T A` squares the condition
//! number, so the orthogonality error grows with `kappa(A)^2` and the
//! Cholesky itself fails outright once `kappa(A)^2` reaches `1/u`. The
//! ablation benchmarks contrast this cliff with RGSQRF's linear-in-kappa
//! behaviour.

use crate::rgsqrf::QrFactors;
use densemat::tri::{potrf_upper, trsm_right_upper, trmm_left_upper, NotPositiveDefinite};
use densemat::{Mat, Op};
use tensor_engine::{CachedOperand, Class, GpuSim, Phase};

/// One round of CholeskyQR on the simulated engine.
///
/// The Gram-matrix GEMM routes through the engine (and therefore through
/// TensorCore when enabled — which is exactly what makes this baseline
/// fragile in half precision). Fails with [`NotPositiveDefinite`] when the
/// squared condition number exceeds the working precision.
pub fn cholqr(eng: &GpuSim, a: &Mat<f32>) -> Result<QrFactors, NotPositiveDefinite> {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "cholqr: need m >= n");
    // G = A^T A (reduction-shape GEMM; the TensorCore temptation). A feeds
    // both operand slots, so round it through the half format once instead
    // of twice — bit-identical, half the rounding work.
    let mut g: Mat<f32> = Mat::zeros(n, n);
    let a_half = eng.cache_operand(Phase::Update, a.as_ref());
    let a_op = CachedOperand::new(a.as_ref(), a_half.as_ref());
    eng.gemm_f32_cached(
        Phase::Update,
        true,
        1.0,
        Op::Trans,
        a_op,
        Op::NoTrans,
        a_op,
        0.0,
        g.as_mut(),
    );
    // R = chol(G); numerically tiny next to the GEMM.
    potrf_upper(g.as_mut())?;
    eng.charge_gemm(Phase::Panel, Class::Fp32, n, n, n / 3 + 1, 0);
    // Q = A R^{-1}.
    let mut q = a.clone();
    trsm_right_upper(1.0, Op::NoTrans, g.as_ref(), q.as_mut());
    eng.charge_trsm(Phase::Update, Class::Fp32, n, m);
    // Zero the strict lower triangle of the returned R.
    let mut r: Mat<f32> = Mat::zeros(n, n);
    for j in 0..n {
        r.col_mut(j)[..=j].copy_from_slice(&g.col(j)[..=j]);
    }
    Ok(QrFactors { q, r })
}

/// CholeskyQR2: run CholeskyQR twice and merge the R factors, recovering
/// orthogonality when the first pass merely degraded (rather than failed).
pub fn cholqr2(eng: &GpuSim, a: &Mat<f32>) -> Result<QrFactors, NotPositiveDefinite> {
    let first = cholqr(eng, a)?;
    let second = cholqr(eng, &first.q)?;
    // R = R2 R1.
    let mut r = first.r;
    trmm_left_upper(1.0, Op::NoTrans, second.r.as_ref(), r.as_mut());
    crate::cost::r_product(eng, r.ncols());
    Ok(QrFactors { q: second.q, r })
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::{orthogonality_error, qr_backward_error};
    use tensor_engine::{EngineConfig, GpuSim};

    fn matrix(cond: f64, seed: u64) -> Mat<f32> {
        gen::rand_svd(256, 32, gen::Spectrum::Geometric { cond }, &mut rng(seed)).convert()
    }

    #[test]
    fn cholqr_works_when_well_conditioned() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = matrix(10.0, 1);
        let f = cholqr(&eng, &a).expect("well-conditioned CholQR");
        let be = qr_backward_error(
            a.convert::<f64>().as_ref(),
            f.q.convert::<f64>().as_ref(),
            f.r.convert::<f64>().as_ref(),
        );
        assert!(be < 1e-5, "backward error {be}");
        let oe = orthogonality_error(f.q.convert::<f64>().as_ref());
        assert!(oe < 1e-4, "orthogonality {oe}");
    }

    #[test]
    fn cholqr_orthogonality_degrades_quadratically() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let o1 = orthogonality_error(
            cholqr(&eng, &matrix(1e1, 2)).unwrap().q.convert::<f64>().as_ref(),
        );
        let o2 = orthogonality_error(
            cholqr(&eng, &matrix(1e3, 3)).unwrap().q.convert::<f64>().as_ref(),
        );
        // Two orders of magnitude in kappa: roughly four in orthogonality.
        assert!(
            o2 > o1 * 100.0,
            "expected steep (kappa^2) degradation: {o1} -> {o2}"
        );
    }

    #[test]
    fn cholqr_fails_at_high_condition_number_in_f32() {
        // kappa^2 = 1e10 > 1/eps_f32 ~ 8.4e6: Cholesky must break down.
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = matrix(1e5, 4);
        assert!(cholqr(&eng, &a).is_err(), "expected breakdown");
    }

    #[test]
    fn cholqr_with_tensorcore_fails_even_earlier() {
        // In fp16 the Gram matrix loses definiteness around kappa^2 ~ 2e3.
        let tc = GpuSim::default();
        let a = matrix(300.0, 5);
        let plain = GpuSim::new(EngineConfig::no_tensorcore());
        assert!(cholqr(&plain, &a).is_ok(), "f32 still fine at kappa=300");
        match cholqr(&tc, &a) {
            Err(_) => {} // breakdown: acceptable
            Ok(f) => {
                let oe = orthogonality_error(f.q.convert::<f64>().as_ref());
                assert!(oe > 1e-3, "fp16 CholQR suspiciously orthogonal: {oe}");
            }
        }
    }

    #[test]
    fn gram_gemm_rounds_its_operand_exactly_once() {
        // A is both operands of G = A^T A; the cached-operand path must
        // round its m*n elements once (the per-GEMM scheme rounded 2*m*n).
        let eng = GpuSim::default(); // TC in the update
        let a = matrix(10.0, 7);
        let _ = cholqr(&eng, &a).expect("well-conditioned CholQR");
        assert_eq!(
            eng.counters().round.total,
            (a.nrows() * a.ncols()) as u64,
            "expected exactly one rounding of A"
        );
    }

    #[test]
    fn cholqr2_restores_orthogonality_in_the_survivable_regime() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = matrix(1e2, 6);
        let once = cholqr(&eng, &a).unwrap();
        let twice = cholqr2(&eng, &a).unwrap();
        let o1 = orthogonality_error(once.q.convert::<f64>().as_ref());
        let o2 = orthogonality_error(twice.q.convert::<f64>().as_ref());
        assert!(o2 < o1, "CholQR2 should improve orthogonality: {o1} -> {o2}");
        assert!(o2 < 1e-4, "CholQR2 orthogonality {o2}");
        // And it still factorizes A.
        let be = qr_backward_error(
            a.convert::<f64>().as_ref(),
            twice.q.convert::<f64>().as_ref(),
            twice.r.convert::<f64>().as_ref(),
        );
        assert!(be < 1e-5, "backward error {be}");
    }
}
