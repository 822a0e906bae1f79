//! Rounding-error bounds for the mixed-precision engine — the §3.6 / §5
//! theory, executable, in one copy for the whole workspace.
//!
//! Two bound families for the TensorCore GEMM (fp16 inputs, fp32
//! accumulation; Blanchard/Higham/Lopez/Mary/Pranesh 2019):
//!
//! - **deterministic**: every rounding conspires —
//!   `|C - Ĉ| <= (2 u16 + k u32) |A||B|` elementwise;
//! - **probabilistic** (Higham & Mary 2018): roundings act like independent
//!   zero-mean perturbations, so the error concentrates like a random walk —
//!   with probability ~`1 - 2 exp(-lambda^2 / 2)` the `k`-fold accumulation
//!   contributes `lambda sqrt(k) u32` instead of `k u32`, and the input
//!   rounding contributes `~2 u16` of *elementwise* relative error whose
//!   cancellation in the sum shrinks the normwise constant by `~sqrt(k)`.
//!
//! The solvers' `ablation-bounds` experiment measures these against the
//! engine, and the per-phase error budgets of the attribution layer compose
//! them per charged GEMM (Yang, Fox & Sanders, arXiv 1912.06217).

use crate::{Bf16, F16};

/// fp16 unit roundoff (2^-11).
pub const U16: f64 = F16::UNIT_ROUNDOFF;
/// bf16 unit roundoff (2^-8).
pub const UBF16: f64 = Bf16::UNIT_ROUNDOFF;
/// fp32 unit roundoff.
pub const U32: f64 = 5.960464477539063e-8; // 2^-24
/// fp64 unit roundoff.
pub const U64: f64 = 1.1102230246251565e-16; // 2^-53
/// Effective unit roundoff of the error-corrected (Ootomo–Yokota hi/lo
/// split) operand representation: `x ≈ hi + lo·2^-11` with
/// `|x - (hi + lo·2^-11)| <= 2^-22 |x|` for in-range inputs.
pub const UEC: f64 = 2.384185791015625e-7; // 2^-22

/// The classic `gamma_n = n u / (1 - n u)` factor, saturating to `+inf`
/// once `n u >= 1` (the classical bound is vacuous there; `+inf` keeps that
/// visible instead of going negative).
pub fn gamma(n: f64, u: f64) -> f64 {
    let nu = n * u;
    if nu >= 1.0 {
        f64::INFINITY
    } else {
        nu / (1.0 - nu)
    }
}

/// Deterministic elementwise bound constant for a `k`-term TensorCore dot
/// product: `|c - ĉ| <= det_tc_bound(k, u_in) * (|a|^T |b|)`.
pub fn det_tc_bound(k: usize, u_in: f64) -> f64 {
    let k = k as f64;
    // Input roundings: (1+d_a)(1+d_b) ~ 1 + 2 u_in; accumulation: gamma_k.
    2.0 * u_in + u_in * u_in + gamma(k, U32)
}

/// Deterministic elementwise bound constant for a `k`-term *error-corrected*
/// TensorCore dot product (hi/lo split, three products, fp32 accumulation):
/// `|c - ĉ| <= det_ec_bound(k) * (|a|^T |b|)`.
///
/// The split replaces the `2 u16` input-rounding term of [`det_tc_bound`]
/// with `2 u_ec` ([`UEC`], the split's representation error), the dropped
/// `lo·lo` cross product contributes at worst `u16^2` per term, and the
/// three accumulated partial products round through fp32 for an extra two
/// terms of `gamma` headroom (`k + 2` instead of `k`).
pub fn det_ec_bound(k: usize) -> f64 {
    let k = k as f64;
    2.0 * UEC + UEC * UEC + U16 * U16 + gamma(k + 2.0, U32)
}

/// Probabilistic bound constant (holds with probability at least
/// `~1 - 4 exp(-lambda^2/2)` per entry under the independent-rounding
/// model), for the normwise metric `||C - Ĉ||_F / (||A||_F ||B||_F)`: the
/// input-rounding perturbations cancel like a random walk (a `1/sqrt(k)`
/// factor against the norm normalization) and the `k`-fold fp32
/// accumulation contributes `lambda sqrt(k) u32` instead of `k u32`.
pub fn prob_tc_bound(k: usize, u_in: f64, lambda: f64) -> f64 {
    let sk = (k as f64).sqrt().max(1.0);
    lambda * (2.0 * u_in / sk + sk * U32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundoffs_are_powers_of_two() {
        for (u, e) in [(U16, -11), (UBF16, -8), (U32, -24), (U64, -53), (UEC, -22)] {
            assert_eq!(u, 2f64.powi(e));
        }
    }

    #[test]
    fn gamma_basics() {
        assert!(gamma(10.0, U32) > 9.9 * U32);
        assert!(gamma(10.0, U32) < 10.1 * U32);
    }

    #[test]
    fn gamma_saturates_once_nu_reaches_one() {
        assert_eq!(gamma(1e12, U16), f64::INFINITY);
        assert_eq!(gamma(2048.0, U16), f64::INFINITY, "n u = 1 exactly");
        assert!(gamma(2047.0, U16).is_finite());
    }
}
