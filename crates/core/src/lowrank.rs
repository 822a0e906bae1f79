//! Optimal low-rank approximation via QR-SVD — §3.4 and Table 4.
//!
//! For a tall-skinny `A`: factor `A = Q R`, take the SVD of the small square
//! `R = U S V^T`, and truncate: `A_r = Q U_r S_r V_r^T`. The QR step
//! dominates the cost for `m >> n`, so accelerating it with RGSQRF
//! accelerates the whole pipeline; and because the truncation error is the
//! dominant error term, the mixed-precision roundoff is invisible in the
//! result — the paper's Table 4 shows identical error columns for
//! RGSQRF-SVD and SGEQRF-SVD, with a 6.4x time gap.

use crate::error::TcqrError;
use crate::lls::try_rgsqrf_scaled;
use crate::recovery::RecoveryPolicy;
use crate::rgsqrf::RgsqrfConfig;
use densemat::blas1::scal;
use densemat::lapack::Householder;
use densemat::svd::jacobi_svd;
use densemat::{gemm, Mat, Op};
use tcqr_trace::Value;
use tensor_engine::{Class, GpuSim, Phase};

/// Which QR algorithm feeds the QR-SVD pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QrKind {
    /// Mixed-precision recursive Gram-Schmidt (this paper).
    Rgsqrf,
    /// Single precision Householder baseline (`SGEQRF` + explicit Q).
    Sgeqrf,
}

impl QrKind {
    /// Stable lowercase name, used as the `kind` field of trace spans.
    pub fn as_str(self) -> &'static str {
        match self {
            QrKind::Rgsqrf => "rgsqrf",
            QrKind::Sgeqrf => "sgeqrf",
        }
    }
}

/// Factors of the QR-SVD decomposition `A = Q (U S V^T)`.
#[derive(Debug)]
pub struct QrSvd {
    /// Orthonormal `m x n` factor from the QR step (f32 pipeline output).
    pub q: Mat<f32>,
    /// Left singular vectors of R (`n x n`).
    pub u: Mat<f64>,
    /// Singular values of R (= singular values of A), descending.
    pub s: Vec<f64>,
    /// Right singular vectors of R (`n x n`).
    pub v: Mat<f64>,
}

impl QrSvd {
    /// Reconstruct the rank-`r` approximation `A_r` in `f64`.
    pub fn truncate(&self, rank: usize) -> Mat<f64> {
        let m = self.q.nrows();
        let inner = self.q.ncols();
        let out_cols = self.v.nrows();
        let r = rank.min(inner);
        // W = U_r S_r (inner x r), then A_r = (Q W) V_r^T.
        let mut w: Mat<f64> = Mat::zeros(inner, r);
        for j in 0..r {
            w.col_mut(j).copy_from_slice(self.u.col(j));
            scal(self.s[j], w.col_mut(j));
        }
        let q64: Mat<f64> = self.q.convert();
        let mut qw: Mat<f64> = Mat::zeros(m, r);
        gemm(1.0, Op::NoTrans, q64.as_ref(), Op::NoTrans, w.as_ref(), 0.0, qw.as_mut());
        let vr = self.v.as_ref().submatrix(0, 0, out_cols, r).to_owned();
        let mut out: Mat<f64> = Mat::zeros(m, out_cols);
        gemm(1.0, Op::NoTrans, qw.as_ref(), Op::Trans, vr.as_ref(), 0.0, out.as_mut());
        out
    }
}

/// QR-SVD of a tall-skinny matrix on the simulated engine.
///
/// The SVD of the `n x n` R factor runs as one-sided Jacobi in `f64`
/// (numerically the same role as cuSOLVER's `gesvd` in the paper) and is
/// charged at a dense `O(n^3)` rate; for `m >> n` it is a rounding error in
/// the total next to the QR.
pub fn qr_svd(eng: &GpuSim, a: &Mat<f32>, kind: QrKind, cfg: &RgsqrfConfig) -> QrSvd {
    try_qr_svd(eng, a, kind, cfg, &RecoveryPolicy::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`qr_svd`]: the RGSQRF pipeline factors through the
/// recovery ladder ([`try_rgsqrf_scaled`]); the Householder baseline runs
/// off-engine and needs no protection.
pub fn try_qr_svd(
    eng: &GpuSim,
    a: &Mat<f32>,
    kind: QrKind,
    cfg: &RgsqrfConfig,
    policy: &RecoveryPolicy,
) -> Result<QrSvd, TcqrError> {
    let m = a.nrows();
    let n = a.ncols();
    if m < n {
        return Err(TcqrError::shape(
            "qr_svd",
            format!("need a tall matrix (got {m} x {n})"),
        ));
    }
    let _span = eng.tracer().span(
        "qr_svd",
        &[
            ("m", Value::from(m)),
            ("n", Value::from(n)),
            ("kind", Value::from(kind.as_str())),
        ],
    );
    let (q, r) = match kind {
        QrKind::Rgsqrf => {
            let f = try_rgsqrf_scaled(eng, a, cfg, policy)?;
            (f.q, f.r)
        }
        QrKind::Sgeqrf => {
            let h = Householder::factor(a.clone());
            eng.charge_sgeqrf(Phase::Panel, m, n);
            // Forming the explicit Q costs another ORGQR pass.
            eng.charge_orgqr(Phase::Other, Class::Fp32, m, n);
            (h.q(), h.r())
        }
    };
    // Jacobi SVD of R: ~10 n^3-class flops; charge as an n^3 GEMM pair.
    let r64: Mat<f64> = r.convert();
    let svd = jacobi_svd(r64.as_ref());
    eng.charge_gemm(Phase::Other, Class::Fp32, n, n, 5 * n);
    Ok(QrSvd {
        q,
        u: svd.u,
        s: svd.s,
        v: svd.v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::lowrank_error;
    use densemat::svd::singular_values;

    fn small_cfg() -> RgsqrfConfig {
        RgsqrfConfig {
            cutoff: 32,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        }
    }

    fn test_matrix(m: usize, n: usize, cond: f64, seed: u64) -> Mat<f64> {
        gen::rand_svd(m, n, gen::Spectrum::Arithmetic { cond }, &mut rng(seed))
    }

    #[test]
    fn singular_values_recovered_through_qr_svd() {
        let eng = GpuSim::default();
        let a64 = test_matrix(256, 32, 1e4, 1);
        let f = qr_svd(&eng, &a64.convert(), QrKind::Rgsqrf, &small_cfg());
        let sref = singular_values(a64.as_ref());
        // fp16-grade QR: relative error of large sigmas at ~1e-3 scale.
        for (got, want) in f.s.iter().zip(&sref).take(8) {
            assert!(
                (got - want).abs() < 2e-2 * want,
                "sigma {got} vs {want}"
            );
        }
    }

    #[test]
    fn truncation_error_matches_optimal_bound() {
        // ||A - A_r||_2 = sigma_{r+1} for the exact truncated SVD; the
        // QR-SVD result must be within the mixed-precision fuzz of that.
        let eng = GpuSim::default();
        let a64 = test_matrix(384, 48, 1e3, 2);
        let sref = singular_values(a64.as_ref());
        let f = qr_svd(&eng, &a64.convert(), QrKind::Rgsqrf, &small_cfg());
        for rank in [4usize, 16, 32] {
            let ar = f.truncate(rank);
            let err = lowrank_error(a64.as_ref(), ar.as_ref());
            let optimal = sref[rank] / sref[0];
            assert!(
                err < optimal * 1.2 + 2e-3,
                "rank {rank}: err {err} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn rgsqrf_and_sgeqrf_pipelines_agree_on_error() {
        // Table 4's key claim: identical error columns.
        let eng = GpuSim::default();
        let a64 = test_matrix(384, 48, 1e4, 3);
        let a32: Mat<f32> = a64.convert();
        let f_rgs = qr_svd(&eng, &a32, QrKind::Rgsqrf, &small_cfg());
        let f_hh = qr_svd(&eng, &a32, QrKind::Sgeqrf, &small_cfg());
        for rank in [4usize, 12, 24] {
            let e_rgs = lowrank_error(a64.as_ref(), f_rgs.truncate(rank).as_ref());
            let e_hh = lowrank_error(a64.as_ref(), f_hh.truncate(rank).as_ref());
            let rel = (e_rgs - e_hh).abs() / e_hh.max(1e-12);
            assert!(
                rel < 0.05,
                "rank {rank}: RGSQRF {e_rgs} vs SGEQRF {e_hh}"
            );
        }
    }

    #[test]
    fn rgsqrf_pipeline_is_charged_faster() {
        let a64 = test_matrix(2048, 128, 1e3, 4);
        let a32: Mat<f32> = a64.convert();
        let e1 = GpuSim::default();
        let _ = qr_svd(&e1, &a32, QrKind::Rgsqrf, &RgsqrfConfig::default());
        let e2 = GpuSim::default();
        let _ = qr_svd(&e2, &a32, QrKind::Sgeqrf, &RgsqrfConfig::default());
        assert!(
            e1.clock() < e2.clock(),
            "RGSQRF-SVD {} should beat SGEQRF-SVD {}",
            e1.clock(),
            e2.clock()
        );
    }

    #[test]
    fn full_rank_truncation_reconstructs_matrix() {
        let eng = GpuSim::default();
        let a64 = test_matrix(128, 16, 100.0, 5);
        let f = qr_svd(&eng, &a64.convert(), QrKind::Sgeqrf, &small_cfg());
        let ar = f.truncate(16);
        let err = lowrank_error(a64.as_ref(), ar.as_ref());
        assert!(err < 1e-5, "full-rank reconstruction error {err}");
    }

    #[test]
    fn try_variants_report_typed_shape_errors() {
        let eng = GpuSim::default();
        let wide: Mat<f32> = gen::gaussian(8, 16, &mut rng(7)).convert();
        let policy = RecoveryPolicy::default();
        let err = try_qr_svd(&eng, &wide, QrKind::Rgsqrf, &small_cfg(), &policy).unwrap_err();
        assert_eq!(err.op(), "qr_svd");
        assert!(err.to_string().contains("need a tall matrix"), "{err}");
    }

    #[test]
    fn rank_beyond_width_is_clamped() {
        let eng = GpuSim::default();
        let a64 = test_matrix(64, 8, 10.0, 6);
        let f = qr_svd(&eng, &a64.convert(), QrKind::Sgeqrf, &small_cfg());
        let ar = f.truncate(100);
        assert_eq!(ar.ncols(), 8);
    }
}
