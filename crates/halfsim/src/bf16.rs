//! bfloat16: the 16-bit format used by Google TPUs and Intel neural engines.
//!
//! Layout: 1 sign bit, 8 exponent bits (bias 127 — the same range as `f32`),
//! 7 mantissa bits. Compared to binary16 it trades ~3 decimal digits of
//! resolution for immunity to overflow at `f32` scales; the paper's §2.1
//! discusses exactly this trade-off ("more robust but less precise").

use core::cmp::Ordering;
use core::fmt;

/// Convert an `f32` to bfloat16 bits with round-to-nearest-even.
pub fn f32_to_bf16_bits(f: f32) -> u16 {
    let x = f.to_bits();
    if f.is_nan() {
        // Keep sign, force a quiet payload so truncation can't signal.
        return ((x >> 16) as u16) | 0x0040;
    }
    let rem = x & 0xffff;
    let mut v = x >> 16;
    if rem > 0x8000 || (rem == 0x8000 && (v & 1) == 1) {
        v += 1; // carry may ripple into the exponent; overflow lands on inf
    }
    v as u16
}

/// Convert bfloat16 bits to the exactly-equal `f32` (always exact).
#[inline]
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// bfloat16 value: a storage format only, like [`F16`](crate::F16).
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Bf16(pub u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3f80);
    /// Largest finite value, about `3.39e38`.
    pub const MAX: Bf16 = Bf16(0x7f7f);
    /// Smallest positive normal value, `2^-126`.
    pub const MIN_POSITIVE: Bf16 = Bf16(0x0080);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7f80);
    /// A quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7fc0);
    /// Machine epsilon, `2^-7` (no bfloat16 between 1 and 1.0078).
    pub const EPSILON: Bf16 = Bf16(0x3c00);

    /// Unit roundoff `u = 2^-8`.
    pub const UNIT_ROUNDOFF: f64 = 3.906_25e-3;

    /// Round an `f32` to the nearest bfloat16.
    #[inline]
    pub fn from_f32(x: f32) -> Bf16 {
        Bf16(f32_to_bf16_bits(x))
    }

    /// Exact widening conversion to `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        bf16_bits_to_f32(self.0)
    }

    /// Exact widening conversion to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> Bf16 {
        Bf16(bits)
    }

    /// True when the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7f80) == 0x7f80 && (self.0 & 0x007f) != 0
    }

    /// True when the value is +inf or -inf.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7f80
    }

    /// True when the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7f80) != 0x7f80
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Bf16 {
        Bf16(self.0 & 0x7fff)
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({})", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Bf16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::EPSILON.to_f32(), 2.0f32.powi(-7));
        assert_eq!(Bf16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-126));
        assert!(Bf16::NAN.is_nan());
        assert!(Bf16::INFINITY.is_infinite());
    }

    #[test]
    fn roundtrip_all_finite_bit_patterns() {
        for bits in 0..=u16::MAX {
            let h = Bf16(bits);
            if h.is_nan() {
                assert!(Bf16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(Bf16::from_f32(h.to_f32()).0, bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn no_value_between_one_and_one_plus_eps() {
        // The paper's §2.1 observation: nothing between 1 and 1.0078125.
        let next = Bf16(Bf16::ONE.0 + 1);
        assert_eq!(next.to_f32(), 1.0078125);
        assert_eq!(Bf16::from_f32(1.003).to_f32(), 1.0);
        assert_eq!(Bf16::from_f32(1.005).to_f32(), 1.0078125);
    }

    #[test]
    fn range_matches_f32_scale() {
        // 65520 overflows binary16 but is routine for bfloat16.
        assert!(Bf16::from_f32(65520.0).is_finite());
        assert!(Bf16::from_f32(1e38).is_finite());
        // f32::MAX is above the bf16 overflow threshold (the midpoint
        // between bf16::MAX and 2^128) and must round to infinity.
        assert!(Bf16::from_f32(f32::MAX).is_infinite());
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-8 is exactly between 1.0 (even) and 1 + 2^-7 (odd).
        assert_eq!(Bf16::from_f32(1.0 + 2.0f32.powi(-8)).to_f32(), 1.0);
        // (1 + 2^-7) + 2^-8 ties upward to the even 1 + 2^-6.
        let x = 1.0 + 2.0f32.powi(-7) + 2.0f32.powi(-8);
        assert_eq!(Bf16::from_f32(x).to_f32(), 1.0 + 2.0f32.powi(-6));
    }
}
