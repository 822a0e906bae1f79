//! Re-orthogonalization — §3.3, "twice is enough".
//!
//! Gram-Schmidt Q factors lose orthogonality proportionally to the condition
//! number; running the factorization a second time on Q restores it to
//! working precision (Giraud/Langou/Rozložník/van den Eshof 2005). Because
//! the second input is nearly orthonormal (condition number near 1), the
//! second pass cannot lose anything.
//!
//! `RGSQRF-Reortho` (Figures 4 and 5): `Q = Q2 R2`, then the corrected
//! factors are `Q <- Q2` and `R <- R2 R`.

use crate::rgsqrf::{factor_in_place, rgsqrf, QrFactors, RgsqrfConfig};
use densemat::tri::trmm_left_upper;
use densemat::{Mat, MatRef, Op};
use tcqr_trace::Value;
use tensor_engine::{Class, GpuSim, Phase};

/// Re-orthogonalize existing factors in place: `(Q, R) <- (Q2, R2 R)`.
///
/// The second pass factors Q in its own buffer, which then holds Q2.
pub fn reorthogonalize(eng: &GpuSim, factors: &mut QrFactors, cfg: &RgsqrfConfig) {
    cfg.check("rgsqrf", factors.q.nrows(), factors.q.ncols())
        .unwrap_or_else(|e| panic!("{e}"));
    let _span = eng.tracer().span(
        "reortho",
        &[
            ("m", Value::from(factors.q.nrows())),
            ("n", Value::from(factors.q.ncols())),
        ],
    );
    // Each rgsqrf pass keeps its own rounded-Q operand cache internally, so
    // the reortho pipeline rounds every Q panel once per pass, not per GEMM.
    let q = std::mem::replace(&mut factors.q, Mat::zeros(0, 0));
    let second = factor_in_place(eng, q, cfg);
    // R <- R2 * R: triangular-triangular product, n^3/3 useful flops;
    // charge it as a (cheap) FP32 GEMM of that size.
    let n = factors.r.ncols();
    trmm_left_upper(1.0, Op::NoTrans, second.r.as_ref(), factors.r.as_mut());
    eng.charge_gemm(Phase::Other, Class::Fp32, n, n, (n / 2).max(1));
    factors.q = second.q;
    // Health monitor (off by default): "twice is enough" should put this
    // at working precision regardless of cond(A) — Figure 4's flat line.
    crate::health::sample_orthogonality(eng, factors.q.as_ref(), 0, "reortho");
}

/// Factor and re-orthogonalize: the paper's `RGSQRF-Reortho` pipeline.
pub fn rgsqrf_reortho(eng: &GpuSim, a: MatRef<'_, f32>, cfg: &RgsqrfConfig) -> QrFactors {
    let mut f = rgsqrf(eng, a, cfg);
    reorthogonalize(eng, &mut f, cfg);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::{orthogonality_error, qr_backward_error};
    use tensor_engine::GpuSim;

    fn ill_conditioned(m: usize, n: usize, cond: f64, seed: u64) -> Mat<f32> {
        gen::rand_svd(m, n, gen::Spectrum::Geometric { cond }, &mut rng(seed)).convert()
    }

    fn small_cfg() -> RgsqrfConfig {
        RgsqrfConfig {
            cutoff: 32,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        }
    }

    #[test]
    fn reortho_restores_orthogonality_on_ill_conditioned_input() {
        let eng = GpuSim::default();
        let a = ill_conditioned(512, 64, 1e6, 1);
        let cfg = small_cfg();

        let once = rgsqrf(&eng, a.as_ref(), &cfg);
        let before = orthogonality_error(once.q.convert::<f64>().as_ref());

        let twice = rgsqrf_reortho(&eng, a.as_ref(), &cfg);
        let after = orthogonality_error(twice.q.convert::<f64>().as_ref());

        assert!(
            before > 20.0 * after,
            "reortho should improve a lot: before {before}, after {after}"
        );
        // "Twice is enough": down to the engine's working precision. With
        // TensorCore in the update that is the fp16 unit roundoff scale
        // (~5e-4), independent of cond(A) — the flat line of Figure 4.
        assert!(after < 5e-3, "after {after}");
    }

    #[test]
    fn reortho_reaches_single_precision_without_tensorcore() {
        use tensor_engine::EngineConfig;
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = ill_conditioned(512, 64, 1e6, 1);
        let cfg = small_cfg();
        let twice = rgsqrf_reortho(&eng, a.as_ref(), &cfg);
        let after = orthogonality_error(twice.q.convert::<f64>().as_ref());
        assert!(after < 1e-4, "f32 engine reortho should reach ~f32: {after}");
    }

    #[test]
    fn reortho_orthogonality_is_cond_independent() {
        // Figure 4: the RGSQRF-Reortho curve is flat in cond(A).
        let eng = GpuSim::default();
        let cfg = small_cfg();
        let mut errs = Vec::new();
        for (seed, cond) in [(10u64, 1e2), (11, 1e6)] {
            let a = ill_conditioned(512, 64, cond, seed);
            let f = rgsqrf_reortho(&eng, a.as_ref(), &cfg);
            errs.push(orthogonality_error(f.q.convert::<f64>().as_ref()));
        }
        let ratio = errs[1] / errs[0];
        assert!(
            ratio < 20.0,
            "reortho orthogonality should not track cond(A): {errs:?}"
        );
    }

    #[test]
    fn reortho_preserves_backward_error() {
        let eng = GpuSim::default();
        let a = ill_conditioned(384, 48, 1e5, 2);
        let cfg = small_cfg();
        let f = rgsqrf_reortho(&eng, a.as_ref(), &cfg);
        let be = qr_backward_error(
            a.convert::<f64>().as_ref(),
            f.q.convert::<f64>().as_ref(),
            f.r.convert::<f64>().as_ref(),
        );
        // Still a valid factorization of A at working-precision scale.
        assert!(be < 5e-2, "backward error {be}");
    }

    #[test]
    fn reortho_r_stays_upper_triangular() {
        let eng = GpuSim::default();
        let a = ill_conditioned(256, 32, 1e4, 3);
        let cfg = small_cfg();
        let f = rgsqrf_reortho(&eng, a.as_ref(), &cfg);
        for j in 0..32 {
            for i in j + 1..32 {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn reortho_on_well_conditioned_input_is_harmless() {
        let eng = GpuSim::default();
        let a: Mat<f32> = gen::gaussian(256, 32, &mut rng(4)).convert();
        let cfg = small_cfg();
        let once = rgsqrf(&eng, a.as_ref(), &cfg);
        let twice = rgsqrf_reortho(&eng, a.as_ref(), &cfg);
        let o1 = orthogonality_error(once.q.convert::<f64>().as_ref());
        let o2 = orthogonality_error(twice.q.convert::<f64>().as_ref());
        assert!(o2 <= o1 * 2.0, "reortho should not damage: {o1} -> {o2}");
    }

    #[test]
    fn reortho_charges_roughly_double_time() {
        let a = ill_conditioned(1024, 128, 1e3, 5);
        let cfg = RgsqrfConfig::default();
        let e1 = GpuSim::default();
        let _ = rgsqrf(&e1, a.as_ref(), &cfg);
        let e2 = GpuSim::default();
        let _ = rgsqrf_reortho(&e2, a.as_ref(), &cfg);
        let ratio = e2.clock() / e1.clock();
        assert!(
            (1.5..=3.0).contains(&ratio),
            "reortho cost ratio {ratio} should be ~2x"
        );
    }
}
