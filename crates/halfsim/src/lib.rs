//! Software emulation of the 16-bit floating point formats used by neural
//! engines: IEEE 754 binary16 (`F16`, the format of NVIDIA TensorCore) and
//! bfloat16 (`Bf16`, the format of Google TPU and Intel processors).
//!
//! The paper this workspace reproduces runs its mixed-precision QR on
//! TensorCore, which multiplies FP16 inputs and accumulates in FP32. On a
//! machine without such hardware we emulate the numerics exactly: the product
//! of two binary16 values is exactly representable in binary32 (11-bit by
//! 11-bit significands produce at most 22 significant bits), so rounding GEMM
//! inputs through this module and then running an `f32` GEMM is bit-faithful
//! to the TensorCore pipeline up to accumulation order (which real hardware
//! also leaves unspecified).
//!
//! All conversions implement round-to-nearest-even, gradual underflow through
//! subnormals, and overflow to infinity, and are property-tested against the
//! IEEE definitions.
//!
//! The software converters are the spec. On an x86-64 host with F16C and
//! AVX2, the slice conversions ([`HalfFormat::round_slice`],
//! [`HalfFormat::round_into`], [`split_f16_slice`]) run a vector copy chosen
//! at run time: F16C's `vcvtps2ph` with round-to-nearest-even, an exact
//! hardware implementation of the same IEEE binary16 conversion, and an
//! integer round-to-nearest-even for bfloat16. That copy returns the same
//! bits, NaN payloads included, and the same [`RoundStats`] as the software
//! one on every `f32` input; tests check all 2^32 of them. Other hosts run
//! the software converters only.
//!
//! [`bounds`] holds the workspace's one copy of the unit roundoffs and the
//! rounding-error bounds built from them.
//!
//! ```
//! use halfsim::{round_f16, F16, Bf16};
//!
//! // fp16 has ~3 decimal digits and tops out at 65504.
//! assert_eq!(round_f16(1.0 + 2.0_f32.powi(-12)), 1.0); // swamped
//! assert_eq!(F16::from_f32(65504.0), F16::MAX);
//! assert!(F16::from_f32(65520.0).is_infinite());       // overflow
//!
//! // bfloat16 keeps f32's range at an eighth of the resolution.
//! assert!(Bf16::from_f32(65520.0).is_finite());
//! assert_eq!(Bf16::from_f32(1.003).to_f32(), 1.0);
//! ```

pub mod bf16;
pub mod bounds;
pub mod f16;
pub mod format;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod split;

pub use bf16::Bf16;
pub use f16::F16;
pub use format::{Bf16Format, Fp16Format, HalfFormat, RoundStats};
pub use split::{recompose_f16, split_f16, split_f16_slice, SPLIT_INV_SCALE, SPLIT_SCALE};

/// Round `x` to the nearest `F16` value and return it as `f32`.
///
/// This is the elementwise operation a neural engine performs on its GEMM
/// inputs. Overflow produces `±inf`, values below the subnormal threshold
/// flush to (signed) zero via rounding, NaN stays NaN.
#[inline]
pub fn round_f16(x: f32) -> f32 {
    f16::f16_bits_to_f32(f16::f32_to_f16_bits(x))
}

/// Round `x` to the nearest `Bf16` value and return it as `f32`.
#[inline]
pub fn round_bf16(x: f32) -> f32 {
    bf16::bf16_bits_to_f32(bf16::f32_to_bf16_bits(x))
}

/// Flip bit `bit & 15` of the binary16 encoding of `x` and widen the
/// corrupted value back to `f32`.
///
/// This is the particle-strike model used by fault-injection campaigns: a
/// value sitting in a 16-bit operand register has one storage bit flipped.
/// `x` is first rounded to binary16 (the state it would be in on the
/// engine), then the bit is XORed. Bit 15 is the sign, bits 14..10 the
/// exponent, bits 9..0 the mantissa — exponent flips produce the large,
/// detectable corruptions ABFT checks exist for.
#[inline]
pub fn flip_f16_bit(x: f32, bit: u32) -> f32 {
    f16::f16_bits_to_f32(f16::f32_to_f16_bits(x) ^ (1u16 << (bit & 15)))
}

/// Flip bit `bit & 15` of the bfloat16 encoding of `x`; see [`flip_f16_bit`].
///
/// Bit 15 is the sign, bits 14..7 the exponent, bits 6..0 the mantissa.
#[inline]
pub fn flip_bf16_bit(x: f32, bit: u32) -> f32 {
    bf16::bf16_bits_to_f32(bf16::f32_to_bf16_bits(x) ^ (1u16 << (bit & 15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_f16_is_idempotent_on_grid() {
        for bits in (0..=u16::MAX).step_by(7) {
            let x = f16::f16_bits_to_f32(bits);
            if x.is_nan() {
                assert!(round_f16(x).is_nan());
            } else {
                assert_eq!(round_f16(x), x, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn flip_f16_bit_is_an_involution_on_the_grid() {
        // Flipping the same bit twice restores the (rounded) value.
        for bits in (0..=u16::MAX).step_by(11) {
            let x = f16::f16_bits_to_f32(bits);
            if x.is_nan() {
                continue;
            }
            for bit in [0, 9, 10, 14, 15] {
                let once = flip_f16_bit(x, bit);
                assert_ne!(once.to_bits(), x.to_bits(), "bit {bit} must change {x}");
                let twice = flip_f16_bit(once, bit);
                if !once.is_nan() {
                    assert_eq!(twice.to_bits(), x.to_bits(), "bits {bits:#06x} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn exponent_flips_are_large() {
        // An exponent-bit flip scales the value by a power of two — the
        // "loud" corruption a checksum test must catch.
        // 1.0 has biased exponent 01111; flipping the top exponent bit
        // gives 11111 = the inf/NaN exponent.
        assert!(flip_f16_bit(1.0, 14).is_infinite());
        assert_eq!(flip_f16_bit(2.0, 10), 4.0);
        assert_eq!(flip_f16_bit(1.0, 15), -1.0);
        assert_eq!(flip_bf16_bit(1.0, 15), -1.0);
        assert_eq!(flip_bf16_bit(2.0, 7), 4.0);
    }

    #[test]
    fn round_bf16_is_idempotent_on_grid() {
        for bits in (0..=u16::MAX).step_by(7) {
            let x = bf16::bf16_bits_to_f32(bits);
            if x.is_nan() {
                assert!(round_bf16(x).is_nan());
            } else {
                assert_eq!(round_bf16(x), x, "bits {bits:#06x}");
            }
        }
    }
}
