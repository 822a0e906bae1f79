//! IEEE 754 binary16 ("half precision", FP16).
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! Largest finite value 65504, smallest positive normal `2^-14 ≈ 6.1e-5`,
//! smallest positive subnormal `2^-24 ≈ 6.0e-8`, unit roundoff `2^-11`.

use core::cmp::Ordering;
use core::fmt;

/// Convert an `f32` to binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(f: f32) -> u16 {
    let x = f.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let mant = x & 0x007f_ffff;
    let exp = ((x >> 23) & 0xff) as i32;

    if exp == 0xff {
        // Infinity or NaN. Preserve NaN-ness with a canonical quiet payload.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }

    // Biased half-precision exponent before rounding.
    let half_exp = exp - 127 + 15;

    if half_exp >= 31 {
        // Magnitude at least 2^16 > 65520: overflows to infinity even after
        // rounding.
        return sign | 0x7c00;
    }

    if half_exp <= 0 {
        // Result is subnormal (or rounds to zero). Value = mant24 * 2^(e-23)
        // with the implicit leading one made explicit; the half subnormal unit
        // is 2^-24, so the subnormal mantissa is rne(mant24 >> (-e - 1)).
        let e = exp - 127; // unbiased; `exp == 0` (f32 subnormal) lands in the
                           // rounds-to-zero branch below because e = -127.
        if e < -25 {
            return sign; // strictly below half of the smallest subnormal
        }
        let mant24 = mant | 0x0080_0000;
        let shift = (-e - 1) as u32; // in 14..=24 for e in -25..=-15
        return sign | rne_shift(mant24, shift) as u16;
    }

    // Normal range: assemble and round the low 13 mantissa bits. A mantissa
    // carry propagates into the exponent, which correctly produces the next
    // binade or infinity (0x7c00) at the top.
    let base = ((half_exp as u32) << 10) | (mant >> 13);
    let rem = mant & 0x1fff;
    let mut h = base;
    if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
        h += 1;
    }
    sign | h as u16
}

/// Convert binary16 bits to the exactly-equal `f32` (always exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: value = mant * 2^-24; normalize into an f32.
        let mut m = mant;
        let mut e = -14i32;
        while m & 0x0400 == 0 {
            m <<= 1;
            e -= 1;
        }
        m &= 0x03ff;
        return f32::from_bits(sign | (((e + 127) as u32) << 23) | (m << 13));
    }
    if exp == 31 {
        return if mant == 0 {
            f32::from_bits(sign | 0x7f80_0000)
        } else {
            f32::from_bits(sign | 0x7fc0_0000 | (mant << 13))
        };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (mant << 13))
}

/// Shift right by `s` bits with round-to-nearest-even on the discarded bits.
#[inline]
fn rne_shift(x: u32, s: u32) -> u32 {
    debug_assert!((1..32).contains(&s));
    let half = 1u32 << (s - 1);
    let rem = x & ((1u32 << s) - 1);
    let v = x >> s;
    if rem > half || (rem == half && (v & 1) == 1) {
        v + 1
    } else {
        v
    }
}

/// IEEE 754 binary16 value: a storage format only. The emulated TensorCore
/// rounds GEMM inputs to it and computes in `f32`, so there is no binary16
/// arithmetic here.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Machine epsilon: distance from 1 to the next representable, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);

    /// Unit roundoff `u = 2^-11`, the bound on relative rounding error.
    pub const UNIT_ROUNDOFF: f64 = 4.882_812_5e-4;

    /// Round an `f32` to the nearest binary16.
    #[inline]
    pub fn from_f32(x: f32) -> F16 {
        F16(f32_to_f16_bits(x))
    }

    /// Round an `f64` to the nearest binary16.
    ///
    /// Rounds through `f32` first, which can move `x` onto an fp16 tie (or,
    /// just below the overflow threshold 65520, onto the threshold itself);
    /// the two fp16 neighbours of `x` are then compared in `f64`, where the
    /// distances are exact.
    #[inline]
    pub fn from_f64(x: f64) -> F16 {
        if x.is_nan() || x.is_infinite() {
            return F16::from_f32(x as f32); // unambiguous
        }
        if x.abs() >= 65520.0 {
            // At or past the midpoint between MAX and 2^16: the tie goes to
            // the even neighbour, which is infinity.
            return if x < 0.0 { F16::NEG_INFINITY } else { F16::INFINITY };
        }
        // Candidate and neighbours in f64 for exact midpoint resolution. The
        // candidate may be ±inf when `x as f32` rounded up to ±65520; `x` is
        // finite and below the threshold, so the finite neighbour wins.
        let h = F16::from_f32(x as f32);
        let hv = h.to_f64();
        if hv == x {
            return h;
        }
        let (lo, hi) = if hv < x {
            (h, F16(next_up_bits(h.0)))
        } else {
            (F16(next_down_bits(h.0)), h)
        };
        let dl = x - lo.to_f64();
        let du = hi.to_f64() - x;
        match dl.partial_cmp(&du) {
            Some(Ordering::Less) => lo,
            Some(Ordering::Greater) => hi,
            _ => {
                if lo.0 & 1 == 0 {
                    lo
                } else {
                    hi
                }
            }
        }
    }

    /// Exact widening conversion to `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
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
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// True when the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// True when the value is +inf or -inf.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// True when the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7fff)
    }
}

/// Bits of the next representable value toward +inf (finite positives only).
fn next_up_bits(bits: u16) -> u16 {
    if bits & 0x8000 == 0 {
        bits + 1
    } else if bits == 0x8000 {
        0x0000
    } else {
        bits - 1
    }
}

/// Bits of the next representable value toward -inf.
fn next_down_bits(bits: u16) -> u16 {
    if bits & 0x8000 != 0 {
        bits + 1
    } else if bits == 0x0000 {
        0x8000
    } else {
        bits - 1
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> F16 {
        F16::from_f32(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
    }

    #[test]
    fn roundtrip_all_finite_bit_patterns() {
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).0, bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(65520.0).0, 0x7c00);
        assert_eq!(F16::from_f32(1e9).0, 0x7c00);
        assert_eq!(F16::from_f32(-65520.0).0, 0xfc00);
        assert_eq!(F16::from_f32(f32::INFINITY).0, 0x7c00);
    }

    #[test]
    fn near_overflow_rounds_down_to_max() {
        // 65519.996 is below the midpoint 65520 between 65504 and 2^16.
        assert_eq!(F16::from_f32(65519.0).0, F16::MAX.0);
        // Exactly at the midpoint: ties-to-even picks the even mantissa,
        // which is the (odd-mantissa'd) MAX's neighbour == infinity.
        assert_eq!(F16::from_f32(65520.0).0, 0x7c00);
    }

    #[test]
    fn underflow_behaviour() {
        let tiny = 2.0f32.powi(-25); // exactly half the smallest subnormal
        assert_eq!(F16::from_f32(tiny).0, 0x0000, "tie rounds to even (zero)");
        assert_eq!(
            F16::from_f32(tiny * 1.5).0,
            0x0001,
            "above the midpoint rounds up to the smallest subnormal"
        );
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).0, 0x0000);
        assert_eq!(F16::from_f32(-tiny * 1.5).0, 0x8001);
    }

    #[test]
    fn subnormal_conversions_are_exact() {
        for bits in 1u16..0x0400 {
            let v = F16(bits).to_f32();
            assert_eq!(v, bits as f32 * 2.0f32.powi(-24));
        }
    }

    #[test]
    fn round_to_nearest_even_at_ties() {
        // 1.0 + eps/2 = 1.00048828125 is exactly between 1.0 (even mantissa)
        // and 1+2^-10 (odd mantissa): must round to 1.0.
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie).to_f32(), 1.0);
        // (1+2^-10) + 2^-11 ties between odd and the next even: rounds up.
        let tie2 = 1.0 + 2.0f32.powi(-10) + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie2).to_f32(), 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16(0x8000).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn from_f64_matches_direct_rounding_on_grid() {
        // On values exactly representable in f32 the two paths must agree.
        for bits in (0..=u16::MAX).step_by(3) {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let x = h.to_f64();
            assert_eq!(F16::from_f64(x).0, bits);
        }
    }

    #[test]
    fn from_f64_resolves_exact_midpoints() {
        // Midpoint between 1.0 and 1+2^-10, expressed exactly in f64.
        let tie = 1.0f64 + 2.0f64.powi(-11);
        assert_eq!(F16::from_f64(tie).to_f32(), 1.0);
        let above = 1.0f64 + 2.0f64.powi(-11) + 2.0f64.powi(-30);
        assert_eq!(F16::from_f64(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn from_f64_rounds_just_below_overflow_to_max() {
        // x as f32 rounds these up to 65520, the overflow threshold; the
        // nearest fp16 is still MAX.
        for x in [65504.5, 65510.0, 65519.0, 65519.999, 65519.9999999] {
            assert_eq!(F16::from_f64(x).0, F16::MAX.0, "x={x}");
            assert_eq!(F16::from_f64(-x).0, 0xfbff, "x=-{x}");
        }
        assert_eq!(F16::from_f64(65520.0).0, 0x7c00, "the tie goes to even (inf)");
        assert_eq!(F16::from_f64(-65520.0).0, 0xfc00);
        assert_eq!(F16::from_f64(65520.000001).0, 0x7c00);
        assert_eq!(F16::from_f64(1e300).0, 0x7c00);
        assert_eq!(F16::from_f64(f64::NEG_INFINITY).0, 0xfc00);
        assert!(F16::from_f64(f64::NAN).is_nan());
    }

    #[test]
    fn from_f64_resolves_the_smallest_subnormal_tie() {
        // 2^-25 is the midpoint between 0 and the smallest subnormal 2^-24,
        // and f64 -> f32 rounding moves its close neighbours onto it.
        let tie = 2.0f64.powi(-25);
        let nudge = tie * 2.0f64.powi(-40);
        for (x, want) in [(tie, 0x0000), (tie + nudge, 0x0001), (tie - nudge, 0x0000)] {
            assert_eq!(F16::from_f64(x).0, want, "x={x:e}");
            assert_eq!(F16::from_f64(-x).0, want | 0x8000, "x=-{x:e}");
        }
    }
}
