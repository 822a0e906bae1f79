//! Ootomo–Yokota hi/lo operand splitting for error-corrected tensor-core
//! GEMM (arXiv 2203.03341).
//!
//! An `f32` value `x` is decomposed into two binary16-representable parts:
//!
//! ```text
//! hi = RN16(x)                    (round-to-nearest-even into fp16)
//! lo = RN16((x - hi) · 2^11)      (the residual, rescaled into fp16 range)
//! ```
//!
//! so that `x ≈ hi + lo · 2^-11` with relative error at most about `2^-22`
//! — the residual `x - hi` is exact in `f32` (it needs at most as many
//! significand bits as `x` itself, shifted below the fp16 grid), and
//! scaling by the power of two `2^11` is exact, so the only error is the
//! second fp16 rounding, which operates on a value already `2^-11` smaller
//! than `x`. Values that sit exactly on the 22-bit composite grid (an fp16
//! `hi` plus a residual that is itself fp16-representable after the shift)
//! round-trip *exactly*: `hi + lo · 2^-11 == x` bit for bit.
//!
//! The simulated tensor engine uses this to model error-corrected GEMM:
//! three fp16×fp16 products accumulated in f32
//! (`A_hi·B_hi + 2^-11·(A_hi·B_lo + A_lo·B_hi)`, the `2^-22`-weighted
//! `A_lo·B_lo` term dropped) recover near-f32 accuracy from an fp16
//! multiplier.

use crate::format::{split_chunk_f16, RoundStats};
use crate::round_f16;

/// `2^11`, the exact power-of-two scale applied to the residual before the
/// second rounding.
///
/// 11 is the fp16 significand width (including the implicit bit): the
/// residual of a round-to-nearest fp16 value is at most half an fp16 ulp,
/// so scaling by 2^11 moves it back into the normal range without ever
/// overflowing.
pub const SPLIT_SCALE: f32 = 2048.0;

/// `2^-11`, the exact inverse scale used when recomposing `hi + lo·2^-11`.
pub const SPLIT_INV_SCALE: f32 = 1.0 / 2048.0;

/// Split `x` into `(hi, lo)` fp16-representable `f32` values with
/// `x ≈ hi + lo ·` [`SPLIT_INV_SCALE`].
///
/// Non-finite `x` (and finite `x` that overflows fp16, where `hi` becomes
/// `±inf` exactly as plain rounding would) get `lo = 0.0`: the residual of
/// an infinity is meaningless, and keeping `hi` identical to [`round_f16`]
/// means the split path inherits the engine's overflow semantics unchanged.
#[inline]
pub fn split_f16(x: f32) -> (f32, f32) {
    let hi = round_f16(x);
    if !hi.is_finite() {
        return (hi, 0.0);
    }
    // Exact: hi is x rounded to a shorter significand of the same radix,
    // so the difference fits in f32 (Sterbenz-style cancellation).
    let r = x - hi;
    // Power-of-two scaling is exact; only this rounding loses information.
    (hi, round_f16(r * SPLIT_SCALE))
}

/// Recompose a split pair: `hi + lo ·` [`SPLIT_INV_SCALE`].
#[inline]
pub fn recompose_f16(hi: f32, lo: f32) -> f32 {
    hi + lo * SPLIT_INV_SCALE
}

/// Split a slice into parallel `hi` and `lo` slices, recording rounding
/// events. Panics if the lengths differ.
///
/// The returned [`RoundStats`] describe the *hi* rounding only — exactly
/// the events a plain [`round_f16`] pass over `src` would record — so
/// overflow/underflow/NaN tallies stay comparable across precision modes
/// (the lo extraction can neither overflow nor create NaN, and counting
/// its ubiquitous flushes-to-zero as underflow would drown the §3.5
/// scaling signal the counters exist for).
///
pub fn split_f16_slice(src: &[f32], hi: &mut [f32], lo: &mut [f32]) -> RoundStats {
    assert_eq!(src.len(), hi.len(), "split_f16_slice: hi length mismatch");
    assert_eq!(src.len(), lo.len(), "split_f16_slice: lo length mismatch");
    split_chunk_f16(src, hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_plain_rounding_on_hi() {
        for x in [1.0f32, 1.5, -3.25, 0.1, 65504.0, 70000.0, -1e-7, 0.0] {
            let (hi, _) = split_f16(x);
            assert_eq!(hi.to_bits(), round_f16(x).to_bits(), "x={x}");
        }
    }

    #[test]
    fn non_finite_and_overflow_zero_the_lo_part() {
        for x in [f32::INFINITY, f32::NEG_INFINITY, 70000.0, -70000.0] {
            let (hi, lo) = split_f16(x);
            assert!(hi.is_infinite(), "x={x}");
            assert_eq!(lo, 0.0);
        }
        let (hi, lo) = split_f16(f32::NAN);
        assert!(hi.is_nan());
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn recompose_error_is_fp32_class() {
        // 2^-22 relative error plus one recomposition rounding.
        let tol = 2.0f64.powi(-22) + f32::EPSILON as f64;
        for i in 0..10_000 {
            let x = ((i as f32) * 0.37 + 0.11).sin() * 3.0 + 4.0; // in [1, 7]
            let (hi, lo) = split_f16(x);
            let err = ((recompose_f16(hi, lo) - x) as f64).abs() / x as f64;
            assert!(err <= tol, "x={x} err={err:.3e}");
        }
    }

    #[test]
    fn slice_split_matches_elementwise() {
        let src: Vec<f32> = (0..1000)
            .map(|i| match i % 5 {
                0 => (i as f32).sin() * 20.0,
                1 => 70000.0,
                2 => 1e-7,
                3 => f32::NAN,
                _ => -(i as f32) * 0.013,
            })
            .collect();
        let mut hi = vec![0.0f32; src.len()];
        let mut lo = vec![0.0f32; src.len()];
        let stats = split_f16_slice(&src, &mut hi, &mut lo);
        assert_eq!(stats.total, src.len() as u64);
        assert_eq!(stats.overflow, 200);
        assert_eq!(stats.nan, 200);
        for (i, &x) in src.iter().enumerate() {
            let (h, l) = split_f16(x);
            assert_eq!(hi[i].to_bits(), h.to_bits(), "i={i}");
            assert_eq!(lo[i].to_bits(), l.to_bits(), "i={i}");
        }
    }

    #[test]
    fn stats_match_a_plain_rounding_pass() {
        use crate::format::{Fp16Format, HalfFormat};
        let src: Vec<f32> = vec![1.0, 70000.0, -70000.0, 1e-7, 0.0, f32::NAN, 2.5];
        let mut hi = vec![0.0f32; src.len()];
        let mut lo = vec![0.0f32; src.len()];
        let split_stats = split_f16_slice(&src, &mut hi, &mut lo);
        let mut rounded = src.clone();
        let round_stats = Fp16Format::round_slice(&mut rounded);
        assert_eq!(split_stats, round_stats);
    }
}
