//! The analytic V100 performance model.
//!
//! Converts operation descriptions (a GEMM of a given shape, a panel QR, a
//! GEMV...) into modeled seconds on the paper's device, using the Table 3
//! calibration for compute-bound kernels and the HBM bandwidth for
//! memory-bound ones. The simulated engine charges these times to its clock
//! while executing the real (CPU) numerics, so one run yields both the
//! accuracy results and the performance figures.

use crate::calibration::{
    classify, interp, GemmShape, CAQR_PANEL_SPEEDUP, FP64_SLOWDOWN, HBM_BYTES_PER_SEC,
};

/// Compute class of an operation on the modeled device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// TensorCore mixed-precision (FP16 multiply, FP32 accumulate).
    TensorCore,
    /// CUDA-core FP32.
    Fp32,
    /// CUDA-core FP64.
    Fp64,
}

impl Class {
    /// Stable lowercase name used in trace events and profile tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::TensorCore => "tc",
            Class::Fp32 => "fp32",
            Class::Fp64 => "fp64",
        }
    }

    /// Bytes per element of the storage the class streams.
    pub fn bytes_per_elem(self) -> f64 {
        match self {
            Class::TensorCore => 2.0,
            Class::Fp32 => 4.0,
            Class::Fp64 => 8.0,
        }
    }
}

/// Flop count of a Householder QR of an `m x n` (`m >= n`) matrix:
/// `2 m n^2 - 2 n^3 / 3` (the count both cuSOLVER baselines are scored on).
pub fn householder_qr_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * m * n * n - 2.0 * n * n * n / 3.0
}

/// Flop count of recursive Gram-Schmidt QR: `2 m n^2` (recurrence (5) of the
/// paper; at most 50% more than Householder for `m >= n`).
pub fn rgsqrf_flops(m: usize, n: usize) -> f64 {
    2.0 * (m as f64) * (n as f64) * (n as f64)
}

/// Flop count of forming the explicit Q with xORGQR (same leading terms as
/// the factorization itself).
pub fn orgqr_flops(m: usize, n: usize) -> f64 {
    householder_qr_flops(m, n)
}

/// The analytic device model. Stateless; all methods return seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfModel;

impl PerfModel {
    /// Modeled TFLOPS of a GEMM of the given class and shape.
    pub fn gemm_tflops(&self, class: Class, cm: usize, cn: usize, k: usize) -> f64 {
        let (shape, key) = classify(cm, cn, k);
        match (class, shape) {
            (Class::TensorCore, GemmShape::Reduction) => interp(key, |r| r.tc_reduce),
            (Class::TensorCore, GemmShape::Update) => interp(key, |r| r.tc_update),
            (Class::Fp32, GemmShape::Reduction) => interp(key, |r| r.s_reduce),
            (Class::Fp32, GemmShape::Update) => interp(key, |r| r.s_update),
            (Class::Fp64, GemmShape::Reduction) => {
                interp(key, |r| r.s_reduce) / FP64_SLOWDOWN
            }
            (Class::Fp64, GemmShape::Update) => interp(key, |r| r.s_update) / FP64_SLOWDOWN,
        }
    }

    /// Seconds for `C(cm x cn) += A(cm x k) B(k x cn)`.
    pub fn gemm_secs(&self, class: Class, cm: usize, cn: usize, k: usize) -> f64 {
        let flops = 2.0 * cm as f64 * cn as f64 * k as f64;
        flops / (self.gemm_tflops(class, cm, cn, k) * 1e12)
    }

    /// Seconds of split/assembly traffic for `elems` operand elements of an
    /// error-corrected GEMM (arXiv 2203.03341): every element is read once
    /// in f32 and written back as two fp16 halves — 4 + 2·2 = 8 bytes
    /// through HBM per element. The engine charges this only for operands
    /// actually split by a call; an operand split once into a cache
    /// (`GpuSim::cache_operand`) is not re-charged per consuming GEMM.
    pub fn ec_split_elems_secs(&self, elems: usize) -> f64 {
        elems as f64 * 8.0 / HBM_BYTES_PER_SEC
    }

    /// Seconds for an error-corrected GEMM `C(cm x cn) += A(cm x k) B(k x cn)`
    /// that freshly split `split_elems` operand elements this call: three
    /// TensorCore products of the original shape (hi·hi plus the two hi·lo
    /// corrections; the 2^-22-weighted lo·lo term is dropped) plus the split
    /// traffic of [`PerfModel::ec_split_elems_secs`]. Degenerate shapes cost
    /// exactly 0.0 like every other op.
    pub fn ec_gemm_charge_secs(&self, cm: usize, cn: usize, k: usize, split_elems: usize) -> f64 {
        if cm == 0 || cn == 0 || k == 0 {
            return 0.0;
        }
        3.0 * self.gemm_secs(Class::TensorCore, cm, cn, k) + self.ec_split_elems_secs(split_elems)
    }

    /// Modeled TFLOPS of cuSOLVER `SGEQRF` on an `m x n` matrix.
    ///
    /// Table 3 column 6 was measured on tall panels (`m = 32768` fixed,
    /// `n <= m/2`); applying it directly to squarish matrices would
    /// overestimate cuSOLVER badly. The paper's own Figure 6 endpoint pins
    /// the squarish rate: RGSQRF reaches 36.6 TFLOPS at 32768x32768 with a
    /// 14.6x speedup over cuSOLVER, which implies cuSOLVER ran at about
    /// `(2/3) * 36.6 / 14.6 ~ 1.7` TFLOPS there. We therefore apply a linear
    /// aspect penalty from 1.0 at `m/n >= 2` down to 0.25 at `m/n = 1`.
    pub fn sgeqrf_tflops(&self, m: usize, n: usize) -> f64 {
        let base = interp(n, |r| r.sgeqrf);
        let aspect = m as f64 / n.max(1) as f64;
        let penalty = if aspect >= 2.0 {
            1.0
        } else {
            (0.25 + 0.75 * (aspect - 1.0)).max(0.25)
        };
        base * penalty
    }

    /// Seconds for cuSOLVER `SGEQRF` on `m x n`.
    pub fn sgeqrf_secs(&self, m: usize, n: usize) -> f64 {
        householder_qr_flops(m, n) / (self.sgeqrf_tflops(m, n) * 1e12)
    }

    /// Seconds for `DGEQRF` on `m x n` (FP64 rate).
    pub fn dgeqrf_secs(&self, m: usize, n: usize) -> f64 {
        self.sgeqrf_secs(m, n) * FP64_SLOWDOWN
    }

    /// Seconds for the hand-coded CAQR Gram-Schmidt panel on `m x n`
    /// (§3.1.3: 3.3x the SGEQRF rate at the same shape; the CAQR panel does
    /// `2 m n^2` flops like any Gram-Schmidt QR).
    ///
    /// The paper's kernel was designed for (and measured at) panel widths up
    /// to 128; its advantage comes from the 256x32 tiles living entirely in
    /// shared memory, which does not extend to wider panels, so the rate is
    /// clamped at the width-128 calibration point.
    pub fn caqr_panel_secs(&self, m: usize, n: usize) -> f64 {
        let rate = self.sgeqrf_tflops(m, n.min(128)) * CAQR_PANEL_SPEEDUP;
        rgsqrf_flops(m, n) / (rate * 1e12)
    }

    /// Seconds for xORGQR: forming the explicit thin Q from an `m x n`
    /// factorization. ORGQR has the same blocked panel/update structure and
    /// flop count as GEQRF, so it is rated like the factorization itself
    /// (in cuSOLVER the two run at comparable speed).
    pub fn orgqr_secs(&self, class: Class, m: usize, n: usize) -> f64 {
        let base = orgqr_flops(m, n) / (self.sgeqrf_tflops(m, n) * 1e12);
        match class {
            Class::Fp64 => base * FP64_SLOWDOWN,
            _ => base,
        }
    }

    /// Seconds for xORMQR-style application of Q (`m x n` factor) to `k`
    /// columns, in the given class.
    pub fn ormqr_secs(&self, class: Class, m: usize, n: usize, k: usize) -> f64 {
        // Blocked reflector application is GEMM-rich; rate it as an update
        // GEMM keyed by the reflector count.
        let flops = 4.0 * m as f64 * n as f64 * k as f64;
        let tflops = self.gemm_tflops(class, m, k.max(1), n);
        let base = flops / (tflops * 1e12);
        match class {
            Class::Fp64 => base, // FP64_SLOWDOWN already in gemm_tflops
            _ => base,
        }
    }

    /// Seconds for a memory-bound GEMV touching an `m x n` operand.
    pub fn gemv_secs(&self, class: Class, m: usize, n: usize) -> f64 {
        let bytes = m as f64 * n as f64 * class.bytes_per_elem().max(4.0);
        bytes / HBM_BYTES_PER_SEC
    }

    /// Seconds for a single-RHS triangular solve with an `n x n` factor
    /// (memory bound: streams half the triangle).
    pub fn trsv_secs(&self, class: Class, n: usize) -> f64 {
        let bytes = 0.5 * n as f64 * n as f64 * class.bytes_per_elem().max(4.0);
        bytes / HBM_BYTES_PER_SEC
    }

    /// Seconds for a multi-RHS triangular solve (`n x n` factor, `nrhs`
    /// right-hand sides), rated at half the corresponding GEMM speed.
    pub fn trsm_secs(&self, class: Class, n: usize, nrhs: usize) -> f64 {
        if nrhs == 0 {
            return 0.0; // zero right-hand sides: no work, no time
        }
        if nrhs == 1 {
            return self.trsv_secs(class, n);
        }
        let flops = n as f64 * n as f64 * nrhs as f64;
        let tflops = self.gemm_tflops(class, n, nrhs, n) * 0.5;
        flops / (tflops * 1e12)
    }

    /// Seconds for streaming `n` vector elements (axpy/dot/norm-style ops).
    pub fn vec_secs(&self, class: Class, n: usize) -> f64 {
        let bytes = n as f64 * 2.0 * class.bytes_per_elem().max(4.0);
        bytes / HBM_BYTES_PER_SEC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: usize = 32768;

    #[test]
    fn tc_beats_fp32_at_large_k() {
        let pm = PerfModel;
        let tc = pm.gemm_tflops(Class::TensorCore, M, 4096, 4096);
        let s = pm.gemm_tflops(Class::Fp32, M, 4096, 4096);
        assert!(tc > 5.0 * s, "tc={tc} s={s}");
    }

    #[test]
    fn tc_advantage_shrinks_at_small_k() {
        let pm = PerfModel;
        let tc = pm.gemm_tflops(Class::TensorCore, M, 128, 128);
        let s = pm.gemm_tflops(Class::Fp32, M, 128, 128);
        assert!(tc / s < 2.5, "tc={tc} s={s}");
    }

    #[test]
    fn fp64_is_half_of_fp32() {
        let pm = PerfModel;
        let s = pm.gemm_tflops(Class::Fp32, M, 2048, 2048);
        let d = pm.gemm_tflops(Class::Fp64, M, 2048, 2048);
        assert!((s / d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sgeqrf_rate_matches_paper_claim() {
        // Paper §3.1.1: cuSOLVER SGEQRF achieves > 6 TFLOPS at 32768x16384.
        let pm = PerfModel;
        assert!(pm.sgeqrf_tflops(32768, 16384) > 6.0);
    }

    #[test]
    fn caqr_panel_is_3x_faster_than_sgeqrf_panel() {
        // §3.1.3: 0.33 vs 0.10 TFLOPS on a 32768x128 panel. The CAQR panel
        // does 2mn^2 flops vs Householder's ~2mn^2 (n << m), so seconds
        // ratio tracks the rate ratio.
        let pm = PerfModel;
        let caqr = pm.caqr_panel_secs(M, 128);
        let sgeqrf = pm.sgeqrf_secs(M, 128);
        let speedup = sgeqrf / caqr;
        assert!(speedup > 2.8 && speedup < 3.8, "speedup {speedup}");
    }

    #[test]
    fn gemm_secs_scales_linearly_with_work() {
        let pm = PerfModel;
        let t1 = pm.gemm_secs(Class::Fp32, M, 2048, 2048);
        let t2 = pm.gemm_secs(Class::Fp32, 2 * M, 2048, 2048);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_ops_scale_with_bytes() {
        let pm = PerfModel;
        let g32 = pm.gemv_secs(Class::Fp32, 1000, 1000);
        let g64 = pm.gemv_secs(Class::Fp64, 1000, 1000);
        assert!((g64 / g32 - 2.0).abs() < 1e-12);
        assert!(pm.trsv_secs(Class::Fp32, 1000) < g32);
    }

    #[test]
    fn flop_counts() {
        // Square: Householder 4/3 n^3, RGS 2 n^3 (50% more).
        let h = householder_qr_flops(1000, 1000);
        let r = rgsqrf_flops(1000, 1000);
        assert!((r / h - 1.5) < 1e-9);
        // Very tall: ratio tends to 1.
        let h = householder_qr_flops(1_000_000, 100);
        let r = rgsqrf_flops(1_000_000, 100);
        assert!(r / h < 1.01);
    }

    #[test]
    fn ec_gemm_is_three_tc_products_plus_split_traffic() {
        let pm = PerfModel;
        // The fully uncached case: both operands split, k·(cm + cn) elements.
        let ec_secs = |cm: usize, cn: usize, k: usize| pm.ec_gemm_charge_secs(cm, cn, k, k * (cm + cn));
        let (cm, cn, k) = (M, 4096, 4096);
        let split = pm.ec_split_elems_secs(k * (cm + cn));
        let expect = 3.0 * pm.gemm_secs(Class::TensorCore, cm, cn, k) + split;
        assert_eq!(ec_secs(cm, cn, k), expect);
        // EC must sit strictly between plain TC and FP32 at GEMM-rich
        // shapes — that ordering is what makes it a cheaper escalation rung.
        assert!(ec_secs(cm, cn, k) > pm.gemm_secs(Class::TensorCore, cm, cn, k));
        assert!(ec_secs(cm, cn, k) < pm.gemm_secs(Class::Fp32, cm, cn, k));
        // Degenerate shapes cost exactly zero, never NaN.
        for (cm, cn, k) in [(512, 512, 0), (0, 512, 512), (512, 0, 512), (0, 0, 0)] {
            assert_eq!(ec_secs(cm, cn, k), 0.0);
        }
    }

    #[test]
    fn trsm_multi_rhs_faster_per_rhs_than_trsv() {
        let pm = PerfModel;
        let one = pm.trsm_secs(Class::Fp32, 4096, 1);
        let many = pm.trsm_secs(Class::Fp32, 4096, 512) / 512.0;
        assert!(many < one);
    }

    #[test]
    fn zero_work_costs_zero_and_never_nan() {
        let pm = PerfModel;
        // trsm with zero right-hand sides used to charge a full trsv.
        assert_eq!(pm.trsm_secs(Class::Fp32, 4096, 0), 0.0);
        assert_eq!(pm.trsm_secs(Class::TensorCore, 1, 0), 0.0);
        // gemm_secs divides by a rate keyed on k; k = 0 (and degenerate
        // output shapes) must yield exactly 0.0 seconds, never NaN.
        for class in [Class::TensorCore, Class::Fp32, Class::Fp64] {
            for (cm, cn, k) in [(512, 512, 0), (0, 512, 512), (512, 0, 512), (0, 0, 0)] {
                let t = pm.gemm_secs(class, cm, cn, k);
                assert_eq!(t, 0.0, "gemm_secs({cm},{cn},{k})");
            }
            assert!(pm.gemv_secs(class, 0, 0) == 0.0);
            assert!(pm.trsv_secs(class, 0) == 0.0);
            assert!(pm.vec_secs(class, 0) == 0.0);
            assert!(pm.ormqr_secs(class, 0, 0, 0) == 0.0);
        }
    }
}
