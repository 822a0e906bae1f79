//! Measured rounding error of an engine GEMM — the quantity the §3.6 / §5
//! bounds of [`halfsim::bounds`] control.
//!
//! The paper's §5 notes that for half precision "the traditional
//! deterministic analysis is too pessimistic to give any useful error
//! bound"; the `ablation-bounds` experiment measures exactly how pessimistic
//! against the real engine, and the tests below check every bound holds.

use densemat::{Mat, MatRef};

/// Normwise relative error of a computed product against an `f64` reference:
/// `||C_ref - C|| / (|||A||| |||B|||)` in the Frobenius norm — the quantity
/// the bounds of [`halfsim::bounds`] control (up to the norm equivalence
/// constant).
pub fn gemm_relative_error(
    a: MatRef<'_, f64>,
    b: MatRef<'_, f64>,
    c: MatRef<'_, f64>,
) -> f64 {
    let mut cref: Mat<f64> = Mat::zeros(c.nrows(), c.ncols());
    densemat::gemm(
        1.0,
        densemat::Op::NoTrans,
        a,
        densemat::Op::NoTrans,
        b,
        0.0,
        cref.as_mut(),
    );
    let mut diff = cref.clone();
    for j in 0..c.ncols() {
        for (d, &v) in diff.col_mut(j).iter_mut().zip(c.col(j)) {
            *d -= v;
        }
    }
    let na = densemat::norms::fro_norm(a);
    let nb = densemat::norms::fro_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    densemat::norms::fro_norm(diff.as_ref()) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::{Mat, Op};
    use halfsim::bounds::{det_ec_bound, det_tc_bound, prob_tc_bound, U16};
    use tensor_engine::{GpuSim, Phase};

    fn measured_error_on(eng: &GpuSim, m: usize, k: usize, n: usize, seed: u64) -> f64 {
        let a64 = gen::uniform_pm1(m, k, &mut rng(seed));
        let b64 = gen::uniform_pm1(k, n, &mut rng(seed + 1));
        let a32: Mat<f32> = a64.convert();
        let b32: Mat<f32> = b64.convert();
        let mut c32: Mat<f32> = Mat::zeros(m, n);
        eng.gemm_f32(
            Phase::Update,
            1.0,
            Op::NoTrans,
            a32.as_ref(),
            Op::NoTrans,
            b32.as_ref(),
            0.0,
            c32.as_mut(),
        );
        gemm_relative_error(a64.as_ref(), b64.as_ref(), c32.convert::<f64>().as_ref())
    }

    fn measured_tc_error(m: usize, k: usize, n: usize, seed: u64) -> f64 {
        measured_error_on(&GpuSim::default(), m, k, n, seed)
    }

    fn measured_ec_error(m: usize, k: usize, n: usize, seed: u64) -> f64 {
        let eng = GpuSim::default();
        eng.set_precision_override(Some(tensor_engine::PrecisionOverride::ErrorCorrected));
        measured_error_on(&eng, m, k, n, seed)
    }

    #[test]
    fn deterministic_bound_holds_empirically() {
        for (k, seed) in [(64usize, 1u64), (256, 2), (1024, 3)] {
            let err = measured_tc_error(64, k, 64, seed);
            let bound = det_tc_bound(k, U16);
            assert!(
                err <= bound,
                "k={k}: measured {err} exceeds deterministic bound {bound}"
            );
        }
    }

    #[test]
    fn error_corrected_bound_holds_and_undercuts_plain_fp16() {
        for (k, seed) in [(64usize, 11u64), (256, 12), (1024, 13)] {
            let err = measured_ec_error(64, k, 64, seed);
            let bound = det_ec_bound(k);
            assert!(
                err <= bound,
                "k={k}: measured EC error {err} exceeds det_ec_bound {bound}"
            );
            assert!(
                bound < det_tc_bound(k, U16),
                "k={k}: the EC bound must undercut the plain fp16 bound"
            );
            let plain = measured_tc_error(64, k, 64, seed);
            assert!(
                err < plain / 16.0,
                "k={k}: measured EC error {err} should be far below plain {plain}"
            );
        }
    }

    #[test]
    fn probabilistic_bound_holds_and_is_much_tighter() {
        // lambda = 6: failure probability ~ 4 exp(-18) ~ 6e-8 per entry.
        for (k, seed) in [(256usize, 4u64), (1024, 5), (4096, 6)] {
            let err = measured_tc_error(32, k, 32, seed);
            let prob = prob_tc_bound(k, U16, 6.0);
            let det = det_tc_bound(k, U16);
            assert!(err <= prob, "k={k}: measured {err} vs probabilistic {prob}");
            assert!(
                prob < det,
                "k={k}: probabilistic {prob} should undercut deterministic {det}"
            );
        }
    }

    #[test]
    fn pessimism_grows_with_k() {
        // The deterministic/probabilistic gap widens like sqrt(k) — the §5
        // "too pessimistic" observation, quantified.
        let ratio = |k: usize| det_tc_bound(k, U16) / prob_tc_bound(k, U16, 6.0);
        assert!(ratio(4096) > 1.5 * ratio(256));
    }

    #[test]
    fn measured_error_cancels_like_a_random_walk() {
        // Under the |||A||| |||B||| normalization, stochastic cancellation
        // makes the relative error *shrink* with k (like 1/sqrt(k) while
        // input rounding dominates); a deterministic worst case would keep
        // it flat at ~2 u16. 16x more terms should cut it at least in half.
        let e1 = measured_tc_error(32, 256, 32, 7);
        let e2 = measured_tc_error(32, 4096, 32, 8);
        assert!(
            e2 < e1 * 0.5,
            "no cancellation visible: k=256 gives {e1}, k=4096 gives {e2}"
        );
        assert!(e1 < 2.0 * U16, "even k=256 must be far below the det bound");
    }
}
