//! Automatic column scaling against FP16 overflow/underflow — §3.5.
//!
//! Scaling the columns of `A` by a diagonal `P` leaves the Q factor of the
//! QR factorization unchanged: `A P = Q (R P)`, so R is recovered exactly by
//! un-scaling its columns. With power-of-two factors the scaling itself is
//! exact in floating point, making the transformation free of rounding
//! error in both directions.
//!
//! The target brings every column's largest entry near 1. Orthogonal
//! transformations preserve 2-norms, so once the input is in range no
//! intermediate quantity of the Gram-Schmidt recursion can overflow —
//! a guarantee LU factorization (whose growth factors are unbounded)
//! cannot make.

use densemat::blas1::scal;
use densemat::{MatMut, MatRef};

/// Exact power-of-two column scaling factors.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnScaling {
    /// `scales[j]` multiplies column `j`; always a power of two (or 1 for a
    /// zero column).
    pub scales: Vec<f32>,
}

impl ColumnScaling {
    /// Identity scaling for `n` columns.
    pub fn identity(n: usize) -> Self {
        ColumnScaling {
            scales: vec![1.0; n],
        }
    }

    /// True if every factor is exactly 1.
    pub fn is_identity(&self) -> bool {
        self.scales.iter().all(|&s| s == 1.0)
    }

    /// Number of columns with a non-identity factor.
    pub fn scaled_cols(&self) -> usize {
        self.scales.iter().filter(|&&s| s != 1.0).count()
    }

    /// `(min, max)` base-2 exponents over the non-identity factors (each
    /// factor is exactly `2^e`), or `None` for the identity scaling. The
    /// health monitors report this range: a wide one means the input columns
    /// spanned many binades and §3.5 did real work.
    pub fn exponent_range(&self) -> Option<(i32, i32)> {
        let mut range: Option<(i32, i32)> = None;
        for &s in &self.scales {
            if s != 1.0 && s > 0.0 && s.is_finite() {
                let e = s.log2().round() as i32;
                range = Some(match range {
                    None => (e, e),
                    Some((lo, hi)) => (lo.min(e), hi.max(e)),
                });
            }
        }
        range
    }
}

/// Exponent `e` with `2^e <= x < 2^(e+1)`, read off the bit pattern.
///
/// Exact for every positive finite `x`, including subnormals — unlike
/// `x.log2().ceil()`, whose rounding misclassifies exact powers of two
/// (`log2` returns the integer, `ceil` keeps it, and the column ends up at
/// 1.0 instead of in `[0.5, 1)`).
fn floor_log2(x: f32) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 23) & 0xff) as i32;
    if exp == 0 {
        // Subnormal: x = mant * 2^-149 with mant < 2^23.
        let mant = bits & 0x7f_ffff;
        31 - mant.leading_zeros() as i32 - 149
    } else {
        exp - 127
    }
}

/// `2^e` as an `f32`, with `e` clamped to the normal-number range so the
/// factor is never zero, subnormal, or infinite (a column at the very edge
/// of the f32 range gets the strongest exact factor available instead).
fn pow2(e: i32) -> f32 {
    f32::from_bits(((e.clamp(-126, 127) + 127) as u32) << 23)
}

/// Compute scaling that brings each column's max-magnitude entry to
/// `[2^-(1+h), 2^-h)` for `headroom = h` — with `h = 0`, `[0.5, 1)`:
/// squarely inside the FP16 range with room for the `sqrt(m)`-bounded
/// growth of intermediate 2-norms. Also returns the columns that contained
/// a NaN.
///
/// A NaN would silently vanish in a plain `max` scan (`max` ignores NaN
/// operands), producing a factor inferred from the column's other entries —
/// disguising data that is already poisoned. Such columns get the identity
/// factor instead and their indices are returned so engine-aware callers
/// can raise a health warning (in the spirit of `engine.fp16_overflow`).
///
/// The recovery ladder's [`Rung::Rescale`](crate::recovery::Rung::Rescale)
/// raises `headroom` to pull intermediates further from the fp16 overflow
/// edge when a fault campaign (or genuinely adversarial data) keeps pushing
/// results out of range — a dynamic generalization of the paper's fixed
/// §3.5 target. The factors stay exact powers of two, so un-scaling R
/// remains bit-exact at any headroom.
pub fn compute_column_scaling(a: MatRef<'_, f32>, headroom: u32) -> (ColumnScaling, Vec<usize>) {
    let mut nan_cols = Vec::new();
    let h = headroom.min(64) as i32;
    let scales = (0..a.ncols())
        .map(|j| {
            let (amax, has_nan) = col_amax(a.col(j));
            if has_nan {
                nan_cols.push(j);
                1.0
            } else if amax == 0.0 || !amax.is_finite() {
                1.0
            } else {
                // 2^-(floor_log2(amax) + 1 + h): exact, puts amax in
                // [2^-(1+h), 2^-h).
                pow2(-(floor_log2(amax) + 1 + h))
            }
        })
        .collect();
    (ColumnScaling { scales }, nan_cols)
}

/// Largest `|x|` over the non-NaN entries of `col`, and whether any entry
/// is NaN.
///
/// Eight lane maxima and one NaN flag, then the scalar tail: a loop the
/// compiler vectorizes. `x.abs()` maps `-0.0` to `+0.0` and a NaN never
/// wins the `>` compare, so the lanes hold non-negative non-NaN values,
/// whose max does not depend on the order they are visited in.
fn col_amax(col: &[f32]) -> (f32, bool) {
    const LANES: usize = 8;
    let mut lanes = [0.0f32; LANES];
    let mut has_nan = false;
    let chunks = col.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            let v = x.abs();
            has_nan |= v.is_nan();
            *m = if v > *m { v } else { *m };
        }
    }
    let mut amax = 0.0f32;
    for v in lanes.into_iter().chain(tail.iter().map(|x| x.abs())) {
        has_nan |= v.is_nan();
        amax = if v > amax { v } else { amax };
    }
    (amax, has_nan)
}

/// Apply the scaling in place: `A <- A P`.
pub fn scale_columns(mut a: MatMut<'_, f32>, scaling: &ColumnScaling) {
    assert_eq!(a.ncols(), scaling.scales.len(), "scaling length");
    for j in 0..a.ncols() {
        let s = scaling.scales[j];
        if s != 1.0 {
            scal(s, a.col_mut(j));
        }
    }
}

/// Undo the scaling on an R factor: `R <- R P^{-1}` (divide column `j` by
/// `scales[j]`; exact since the factors are powers of two).
pub fn unscale_r(mut r: MatMut<'_, f32>, scaling: &ColumnScaling) {
    assert_eq!(r.ncols(), scaling.scales.len(), "scaling length");
    for j in 0..r.ncols() {
        let s = scaling.scales[j];
        if s != 1.0 {
            scal(1.0 / s, r.col_mut(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::qr_backward_error;
    use densemat::Mat;

    #[test]
    fn scaling_factors_are_powers_of_two() {
        let a: Mat<f32> = gen::badly_scaled(50, 6, 10.0, &mut rng(1)).convert();
        let s = compute_column_scaling(a.as_ref(), 0).0;
        for &f in &s.scales {
            assert!(f > 0.0);
            let l = f.log2();
            assert_eq!(l, l.round(), "{f} is not a power of two");
        }
    }

    #[test]
    fn scaled_columns_land_in_half_unit_interval() {
        let a: Mat<f32> = gen::badly_scaled(50, 8, 12.0, &mut rng(2)).convert();
        let s = compute_column_scaling(a.as_ref(), 0).0;
        let mut b = a.clone();
        scale_columns(b.as_mut(), &s);
        for j in 0..8 {
            let amax = b.col(j).iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            assert!((0.5..1.0).contains(&amax), "col {j}: max {amax}");
        }
    }

    #[test]
    fn scale_then_unscale_is_exact_identity() {
        let a: Mat<f32> = gen::gaussian(30, 5, &mut rng(3)).convert();
        let s = compute_column_scaling(a.as_ref(), 0).0;
        let mut b = a.clone();
        scale_columns(b.as_mut(), &s);
        unscale_r(b.as_mut(), &s);
        assert_eq!(a, b, "power-of-two round trip must be bit-exact");
    }

    #[test]
    fn power_of_two_boundaries_scale_into_range() {
        // Regression: log2().ceil() left columns whose max is an exact power
        // of two (or one ulp above) at 1.0 instead of inside [0.5, 1).
        let nextafter_one = f32::from_bits(1.0f32.to_bits() + 1);
        for (amax, want) in [
            (0.25f32, 2.0f32),
            (0.5, 1.0),
            (1.0, 0.5),
            (2.0, 0.25),
            (nextafter_one, 0.5),
        ] {
            let mut a: Mat<f32> = Mat::zeros(4, 1);
            a.col_mut(0)[0] = -0.01;
            a.col_mut(0)[2] = amax;
            let s = compute_column_scaling(a.as_ref(), 0).0;
            assert_eq!(s.scales[0], want, "factor for amax {amax}");
            let scaled = amax * s.scales[0];
            assert!(
                (0.5..1.0).contains(&scaled),
                "amax {amax} scaled to {scaled}, outside [0.5, 1)"
            );
        }
    }

    #[test]
    fn extreme_magnitudes_keep_finite_nonzero_factors() {
        // Subnormal and near-f32::MAX columns: the exponent clamp keeps the
        // factor an exact normal power of two in both directions.
        let mut a: Mat<f32> = Mat::zeros(4, 2);
        a.col_mut(0)[0] = 1.0e-40; // subnormal
        a.col_mut(1)[0] = f32::MAX;
        let s = compute_column_scaling(a.as_ref(), 0).0;
        for (j, &f) in s.scales.iter().enumerate() {
            assert!(f.is_finite() && f > 0.0, "col {j}: factor {f}");
            let scaled = a.col(j)[0] * f;
            assert!(scaled.is_finite() && scaled != 0.0, "col {j}: {scaled}");
        }
    }

    #[test]
    fn nan_columns_get_identity_factor_and_are_reported() {
        // Regression: a max-fold silently ignores NaN, so the column got a
        // factor inferred from its finite entries and the poison GEMM'd on.
        let mut a: Mat<f32> = gen::badly_scaled(20, 4, 8.0, &mut rng(9)).convert();
        a.col_mut(1)[7] = f32::NAN;
        let (s, nan_cols) = compute_column_scaling(a.as_ref(), 0);
        assert_eq!(nan_cols, vec![1]);
        assert_eq!(s.scales[1], 1.0, "NaN column must not be scaled");
        // The clean columns are still brought into range.
        for j in [0usize, 2, 3] {
            let amax = a.col(j).iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scaled = amax * s.scales[j];
            assert!((0.5..1.0).contains(&scaled), "col {j}: {scaled}");
        }
    }

    #[test]
    fn zero_and_nonfinite_columns_get_identity_factor() {
        let mut a: Mat<f32> = gen::gaussian(10, 3, &mut rng(4)).convert();
        a.col_mut(1).fill(0.0);
        a.col_mut(2)[0] = f32::INFINITY;
        let s = compute_column_scaling(a.as_ref(), 0).0;
        assert_eq!(s.scales[1], 1.0);
        assert_eq!(s.scales[2], 1.0);
    }

    /// The scan as one scalar loop, kept here as the reference for the
    /// lane form.
    fn reference_scaling(a: MatRef<'_, f32>, headroom: u32) -> (Vec<u32>, Vec<usize>) {
        let mut nan_cols = Vec::new();
        let mut scales = Vec::new();
        for j in 0..a.ncols() {
            let mut amax = 0.0f32;
            let mut has_nan = false;
            for &x in a.col(j) {
                if x.is_nan() {
                    has_nan = true;
                } else {
                    amax = amax.max(x.abs());
                }
            }
            let s = if has_nan {
                nan_cols.push(j);
                1.0
            } else if amax == 0.0 || !amax.is_finite() {
                1.0
            } else {
                pow2(-(floor_log2(amax) + 1 + headroom as i32))
            };
            scales.push(s.to_bits());
        }
        (scales, nan_cols)
    }

    #[test]
    fn lane_scan_matches_the_scalar_loop() {
        let sub = f32::from_bits(0x0003_1234); // subnormal
        for m in (0..=17).chain([1024]) {
            let base = |i: usize| ((i * 7919 % 1000) as f32 - 500.0) * 1e-3;
            let mut cols: Vec<Vec<f32>> = Vec::new();
            let mut col = |f: &dyn Fn(usize, &mut f32)| {
                let mut c: Vec<f32> = (0..m).map(base).collect();
                c.iter_mut().enumerate().for_each(|(i, x)| f(i, x));
                cols.push(c);
            };
            col(&|_, _| {});
            col(&|i, x| *x = if i == 0 { f32::NAN } else { *x });
            col(&|i, x| *x = if i + 1 == m { f32::NAN } else { *x });
            col(&|i, x| *x = if i == m / 2 { f32::NAN } else { 0.0 });
            col(&|_, x| *x = f32::NAN);
            col(&|i, x| *x = if i == m / 3 { f32::INFINITY } else { *x });
            col(&|i, x| *x = if i + 1 == m { f32::NEG_INFINITY } else { *x });
            col(&|i, x| *x = if i == m / 2 { -sub } else { *x * 1e-39 });
            col(&|i, x| *x = if i % 2 == 0 { -0.0 } else { 0.0 });
            col(&|_, x| *x = 0.0);
            col(&|i, x| *x = if i + 1 == m { -4.0 } else { *x });
            let a = Mat::from_col_major(m, cols.len(), cols.concat());
            for h in [0, 3] {
                let (s, nan_cols) = compute_column_scaling(a.as_ref(), h);
                let got: Vec<u32> = s.scales.iter().map(|f| f.to_bits()).collect();
                assert_eq!(
                    (got, nan_cols),
                    reference_scaling(a.as_ref(), h),
                    "m {m}, headroom {h}"
                );
            }
        }
    }

    #[test]
    fn exponent_range_and_scaled_cols() {
        let id = ColumnScaling::identity(3);
        assert_eq!(id.exponent_range(), None);
        assert_eq!(id.scaled_cols(), 0);
        let s = ColumnScaling {
            scales: vec![1.0, 0.25, 8.0],
        };
        assert_eq!(s.exponent_range(), Some((-2, 3)));
        assert_eq!(s.scaled_cols(), 2);
        // Computed scalings report the exponents that were applied.
        let a: Mat<f32> = gen::badly_scaled(40, 6, 9.0, &mut rng(7)).convert();
        let c = compute_column_scaling(a.as_ref(), 0).0;
        if !c.is_identity() {
            let (lo, hi) = c.exponent_range().unwrap();
            assert!(lo <= hi);
        }
    }

    #[test]
    fn headroom_shifts_the_target_interval() {
        let a: Mat<f32> = gen::badly_scaled(40, 6, 10.0, &mut rng(11)).convert();
        for h in [0u32, 2, 4] {
            let (s, nan_cols) = compute_column_scaling(a.as_ref(), h);
            assert!(nan_cols.is_empty());
            let lo = 2f32.powi(-(h as i32) - 1);
            let hi = 2f32.powi(-(h as i32));
            for j in 0..6 {
                let amax = a.col(j).iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let scaled = amax * s.scales[j];
                assert!(
                    (lo..hi).contains(&scaled),
                    "headroom {h} col {j}: {scaled} not in [{lo}, {hi})"
                );
            }
            // Round trip stays bit-exact at every headroom.
            let mut b = a.clone();
            scale_columns(b.as_mut(), &s);
            unscale_r(b.as_mut(), &s);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn identity_helpers() {
        let s = ColumnScaling::identity(4);
        assert!(s.is_identity());
        let a: Mat<f32> = gen::gaussian(10, 4, &mut rng(5)).convert();
        let mut b = a.clone();
        scale_columns(b.as_mut(), &s);
        assert_eq!(a, b);
    }

    #[test]
    fn qr_of_scaled_matrix_recovers_original_r() {
        // End-to-end invariant: QR(A P) then R P^{-1} factorizes A.
        let a64 = gen::badly_scaled(200, 16, 6.0, &mut rng(6));
        let a: Mat<f32> = a64.convert();
        let s = compute_column_scaling(a.as_ref(), 0).0;
        let mut ap = a.clone();
        scale_columns(ap.as_mut(), &s);

        let mut q = ap.clone();
        let mut r: Mat<f32> = Mat::zeros(16, 16);
        crate::mgs::mgs_qr(q.as_mut(), r.as_mut());
        unscale_r(r.as_mut(), &s);

        let be = qr_backward_error(
            a.convert::<f64>().as_ref(),
            q.convert::<f64>().as_ref(),
            r.convert::<f64>().as_ref(),
        );
        assert!(be < 1e-5, "backward error vs ORIGINAL A: {be}");
    }
}
