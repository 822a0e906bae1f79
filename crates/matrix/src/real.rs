//! Scalar abstraction over `f32`/`f64`.
//!
//! Every kernel in this crate is generic over [`Real`] so the same code
//! serves as the "SGEQRF" (single) and "DGEQRF" (double) baselines the paper
//! compares against, with zero dispatch cost (monomorphization).

use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// IEEE floating point scalar usable by the dense kernels.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + Sum
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon (distance from 1 to the next representable value).
    const EPSILON: Self;
    /// Largest finite value.
    const MAX_FINITE: Self;
    /// Short name for diagnostics ("f32"/"f64").
    const NAME: &'static str;

    /// Lossy conversion from `f64`.
    fn from_f64(x: f64) -> Self;
    /// Widening (or identity) conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from `usize` (exact for the sizes used here).
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }
    /// Fused multiply-add `self * a + b`, rounded once.
    ///
    /// On the default x86-64 target this is an out-of-line call per
    /// element; the hot kernels that loop over it are also compiled for
    /// AVX2+FMA and for AVX-512 and pick the host's copy at run time, with
    /// the same bits (see `fma.rs`).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// Maximum treating NaN as missing.
    fn maxv(self, other: Self) -> Self;
    /// Minimum treating NaN as missing.
    fn minv(self, other: Self) -> Self;
    /// True for non-NaN, non-infinite values.
    fn is_finite_v(self) -> bool;
    /// `2^k` exactly.
    fn exp2i(k: i32) -> Self;
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const MAX_FINITE: Self = f32::MAX;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn recip(self) -> Self {
        f32::recip(self)
    }
    #[inline(always)]
    fn maxv(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn minv(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite_v(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn exp2i(k: i32) -> Self {
        f32::powi(2.0, k)
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const MAX_FINITE: Self = f64::MAX;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn recip(self) -> Self {
        f64::recip(self)
    }
    #[inline(always)]
    fn maxv(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn minv(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite_v(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn exp2i(k: i32) -> Self {
        f64::powi(2.0, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_checks<T: Real>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        let r = T::from_f64(2.0).sqrt().to_f64();
        assert!((r * r - 2.0).abs() < 1e-6);
        assert_eq!(T::exp2i(-3).to_f64(), 0.125);
        assert_eq!(T::from_usize(7).to_f64(), 7.0);
        assert!(T::from_f64(1.0).is_finite_v());
        assert!(!(T::from_f64(1.0) / T::ZERO).is_finite_v());
        assert_eq!(T::from_f64(-2.5).abs().to_f64(), 2.5);
        assert_eq!(T::from_f64(3.0).maxv(T::from_f64(4.0)).to_f64(), 4.0);
        assert_eq!(T::from_f64(3.0).minv(T::from_f64(4.0)).to_f64(), 3.0);
    }

    #[test]
    fn f32_impl() {
        generic_checks::<f32>();
        assert_eq!(<f32 as Real>::NAME, "f32");
    }

    #[test]
    fn f64_impl() {
        generic_checks::<f64>();
        assert_eq!(<f64 as Real>::NAME, "f64");
    }

    #[test]
    fn mul_add_is_fused_or_exact() {
        // mul_add must compute a*b+c with a single rounding.
        let a = 1.0f64 + 2.0f64.powi(-30);
        let b = 1.0f64 - 2.0f64.powi(-30);
        let c = -1.0f64;
        let fused = Real::mul_add(a, b, c);
        assert_eq!(fused, -(2.0f64.powi(-60))); // exact: (1-2^-60) - 1
    }
}
