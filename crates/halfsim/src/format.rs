//! Format-generic rounding interface used by the simulated neural engine.
//!
//! `tensor-engine` rounds GEMM inputs through one of these formats before an
//! `f32`-accumulated multiply, mirroring how TensorCore (binary16) and TPU
//! (bfloat16) ingest operands. The engine also wants to *observe* what the
//! rounding did — overflows to infinity and flushes into the subnormal range
//! are the events the paper's §3.5 scaling procedure exists to prevent — so
//! slice rounding returns [`RoundStats`].

use crate::{bf16, f16};

/// Statistics gathered while rounding a block of values into a half format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Values rounded in total.
    pub total: u64,
    /// Finite inputs that overflowed to ±inf in the target format.
    pub overflow: u64,
    /// Nonzero inputs that landed in the target's subnormal range
    /// (precision loss zone) including full flushes to zero.
    pub underflow: u64,
    /// Inputs that were NaN (propagated, never created).
    pub nan: u64,
}

impl RoundStats {
    /// Accumulate another block's statistics into this one. Saturating:
    /// per-thread partials merged over a very long run clamp at `u64::MAX`
    /// instead of wrapping back to small (i.e. wrong) counts.
    pub fn merge(&mut self, other: RoundStats) {
        self.total = self.total.saturating_add(other.total);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.nan = self.nan.saturating_add(other.nan);
    }
}

/// A 16-bit storage format that `f32` values can be rounded through.
pub trait HalfFormat: Copy + Send + Sync + 'static {
    /// Human-readable name ("fp16", "bf16").
    const NAME: &'static str;
    /// Unit roundoff `u` (half the machine epsilon).
    const UNIT_ROUNDOFF: f64;
    /// Largest finite representable magnitude.
    const MAX_FINITE: f32;
    /// Smallest positive *normal* magnitude.
    const MIN_POSITIVE_NORMAL: f32;

    /// Round one value to the nearest representable and widen back to `f32`.
    fn round(x: f32) -> f32;

    /// Round a slice in place, recording overflow/underflow/NaN events.
    fn round_slice(xs: &mut [f32]) -> RoundStats {
        round_chunk::<Self>(xs)
    }

    /// Round `src` into `dst` in one pass, recording events exactly as
    /// [`HalfFormat::round_slice`] would over a copy of `src`. Panics if
    /// lengths differ.
    fn round_into(src: &[f32], dst: &mut [f32]) -> RoundStats {
        assert_eq!(src.len(), dst.len(), "round_into: length mismatch");
        round_chunk_into::<Self>(src, dst)
    }
}

/// Block of an in-place rounding staged through the stack, so the
/// `src → dst` leaf can serve [`HalfFormat::round_slice`] too.
const IN_PLACE_BLOCK: usize = 512;

/// One in-place rounding pass over `xs`, staged through the stack a block
/// at a time ([`HalfFormat::round_slice`]).
fn round_chunk<F: HalfFormat>(xs: &mut [f32]) -> RoundStats {
    let mut stats = RoundStats::default();
    let mut buf = [0.0f32; IN_PLACE_BLOCK];
    for block in xs.chunks_mut(IN_PLACE_BLOCK) {
        let src = &mut buf[..block.len()];
        src.copy_from_slice(block);
        stats.merge(round_chunk_into::<F>(src, block));
    }
    stats
}

/// One rounding pass from `src` into `dst`: the F16C/AVX2 leaf when
/// the host has it and `F` is [`Fp16Format`] or [`Bf16Format`], otherwise
/// [`round_chunk_body`].
fn round_chunk_into<F: HalfFormat>(src: &[f32], dst: &mut [f32]) -> RoundStats {
    #[cfg(target_arch = "x86_64")]
    if crate::hw::hw_f16c() {
        use core::any::TypeId;
        let format = TypeId::of::<F>();
        if format == TypeId::of::<Fp16Format>() {
            // SAFETY: `hw_f16c` just confirmed F16C and AVX2 on this host.
            return unsafe { crate::hw::round_f16(src, dst) };
        }
        if format == TypeId::of::<Bf16Format>() {
            // SAFETY: as above.
            return unsafe { crate::hw::round_bf16(src, dst) };
        }
    }
    round_chunk_body::<F>(src, dst)
}

/// The portable rounding leaf, and the spec of the hardware one: one
/// software conversion per element.
pub(crate) fn round_chunk_body<F: HalfFormat>(src: &[f32], dst: &mut [f32]) -> RoundStats {
    assert_eq!(src.len(), dst.len(), "round_chunk_body: length mismatch");
    let mut stats = RoundStats {
        total: src.len() as u64,
        ..RoundStats::default()
    };
    for (&before, x) in src.iter().zip(dst.iter_mut()) {
        let after = F::round(before);
        if before.is_nan() {
            stats.nan += 1;
        } else if before.is_finite() && after.is_infinite() {
            stats.overflow += 1;
        } else if before != 0.0 && before.is_finite() && after.abs() < F::MIN_POSITIVE_NORMAL {
            stats.underflow += 1;
        }
        *x = after;
    }
    stats
}

/// One hi/lo splitting pass ([`crate::split::split_f16_slice`]): the
/// F16C/AVX2 leaf when the host has it, otherwise [`split_chunk_f16_body`].
pub(crate) fn split_chunk_f16(src: &[f32], hi: &mut [f32], lo: &mut [f32]) -> RoundStats {
    #[cfg(target_arch = "x86_64")]
    if crate::hw::hw_f16c() {
        // SAFETY: `hw_f16c` just confirmed F16C and AVX2 on this host.
        return unsafe { crate::hw::split_f16(src, hi, lo) };
    }
    split_chunk_f16_body(src, hi, lo)
}

/// The portable splitting leaf, and the spec of the hardware one. Event
/// counting mirrors [`round_chunk_body`] on the hi part exactly, so split
/// statistics stay comparable to plain-rounding statistics.
pub(crate) fn split_chunk_f16_body(src: &[f32], hi: &mut [f32], lo: &mut [f32]) -> RoundStats {
    assert_eq!(src.len(), hi.len(), "split_chunk_f16_body: hi length mismatch");
    assert_eq!(src.len(), lo.len(), "split_chunk_f16_body: lo length mismatch");
    let mut stats = RoundStats {
        total: src.len() as u64,
        ..RoundStats::default()
    };
    for ((&x, h), l) in src.iter().zip(hi.iter_mut()).zip(lo.iter_mut()) {
        let (xh, xl) = crate::split::split_f16(x);
        if x.is_nan() {
            stats.nan += 1;
        } else if x.is_finite() && xh.is_infinite() {
            stats.overflow += 1;
        } else if x != 0.0 && x.is_finite() && xh.abs() < Fp16Format::MIN_POSITIVE_NORMAL {
            stats.underflow += 1;
        }
        *h = xh;
        *l = xl;
    }
    stats
}

/// Marker for IEEE binary16 rounding (NVIDIA TensorCore input format).
#[derive(Clone, Copy, Debug)]
pub struct Fp16Format;

impl HalfFormat for Fp16Format {
    const NAME: &'static str = "fp16";
    const UNIT_ROUNDOFF: f64 = f16::F16::UNIT_ROUNDOFF;
    const MAX_FINITE: f32 = 65504.0;
    const MIN_POSITIVE_NORMAL: f32 = 6.103_515_6e-5; // 2^-14

    #[inline]
    fn round(x: f32) -> f32 {
        f16::f16_bits_to_f32(f16::f32_to_f16_bits(x))
    }
}

/// Marker for bfloat16 rounding (TPU / Cooper Lake input format).
#[derive(Clone, Copy, Debug)]
pub struct Bf16Format;

impl HalfFormat for Bf16Format {
    const NAME: &'static str = "bf16";
    const UNIT_ROUNDOFF: f64 = bf16::Bf16::UNIT_ROUNDOFF;
    const MAX_FINITE: f32 = 3.389_531_4e38;
    const MIN_POSITIVE_NORMAL: f32 = 1.175_494_4e-38; // 2^-126

    #[inline]
    fn round(x: f32) -> f32 {
        bf16::bf16_bits_to_f32(bf16::f32_to_bf16_bits(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_stats_count_events() {
        let mut xs = vec![1.0f32, 70000.0, -70000.0, 1e-7, 0.0, f32::NAN, 2.5];
        let stats = Fp16Format::round_slice(&mut xs);
        assert_eq!(stats.total, 7);
        assert_eq!(stats.overflow, 2);
        assert_eq!(stats.underflow, 1); // 1e-7 lands subnormal
        assert_eq!(stats.nan, 1);
        assert_eq!(xs[0], 1.0);
        assert!(xs[1].is_infinite() && xs[1] > 0.0);
        assert!(xs[2].is_infinite() && xs[2] < 0.0);
    }

    #[test]
    fn bf16_does_not_overflow_at_fp16_scale() {
        let mut xs = vec![70000.0f32, 1e30];
        let stats = Bf16Format::round_slice(&mut xs);
        assert_eq!((stats.overflow, stats.nan), (0, 0));
    }

    #[test]
    fn infinities_in_input_are_not_counted_as_overflow() {
        let mut xs = vec![f32::INFINITY, f32::NEG_INFINITY];
        let stats = Fp16Format::round_slice(&mut xs);
        assert_eq!((stats.overflow, stats.nan), (0, 0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RoundStats {
            total: 3,
            overflow: 1,
            underflow: 0,
            nan: 0,
        };
        a.merge(RoundStats {
            total: 2,
            overflow: 0,
            underflow: 2,
            nan: 1,
        });
        assert_eq!(
            a,
            RoundStats {
                total: 5,
                overflow: 1,
                underflow: 2,
                nan: 1
            }
        );
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = RoundStats {
            total: u64::MAX - 1,
            overflow: u64::MAX,
            underflow: 0,
            nan: 0,
        };
        a.merge(RoundStats {
            total: 5,
            overflow: 1,
            underflow: 1,
            nan: 0,
        });
        assert_eq!(a.total, u64::MAX);
        assert_eq!(a.overflow, u64::MAX);
        assert_eq!(a.underflow, 1);
    }

    #[test]
    fn parallel_rounding_matches_serial_bit_for_bit() {
        // Many in-place blocks and a ragged tail; mix of ordinary values,
        // overflows, subnormals, zeros, and NaNs so every counter is hit.
        let n = (1 << 15) + (1 << 13) + 37;
        let src: Vec<f32> = (0..n)
            .map(|i| match i % 7 {
                0 => (i as f32).sin() * 3.0,
                1 => 70000.0 + i as f32,
                2 => 1e-7,
                3 => 0.0,
                4 => f32::NAN,
                5 => -(i as f32).cos(),
                _ => 1.0 / (i as f32 + 1.0),
            })
            .collect();
        let mut par = src.clone();
        let par_stats = Fp16Format::round_slice(&mut par);
        // Serial reference: round chunk-of-one at a time.
        let mut ser = src.clone();
        let mut ser_stats = RoundStats::default();
        for x in ser.iter_mut() {
            ser_stats.merge(round_chunk::<Fp16Format>(std::slice::from_mut(x)));
        }
        assert_eq!(par_stats, ser_stats);
        assert_eq!(par_stats.total, n as u64);
        assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(ser.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn round_into_copies_and_rounds() {
        let src = [1.0f32, 1.0 + 2.0f32.powi(-12)];
        let mut dst = [0.0f32; 2];
        let stats = Fp16Format::round_into(&src, &mut dst);
        assert_eq!((stats.overflow, stats.nan), (0, 0));
        assert_eq!(dst, [1.0, 1.0]);
        assert_eq!(src[1], 1.0 + 2.0f32.powi(-12), "source untouched");
    }

    /// A buffer mixing ordinary values, ties, overflows, subnormals, zeros,
    /// infinities and NaNs with payloads.
    fn mixed(len: usize) -> Vec<f32> {
        let specials = [
            1.0 + 2.0f32.powi(-11),
            65519.0,
            65520.0,
            -70000.0,
            1e-7,
            -3e-39,
            -0.0,
            f32::INFINITY,
            f32::from_bits(0xff80_1234),
            f32::from_bits(0x7fa0_0001),
        ];
        (0..len)
            .map(|i| match i % 3 {
                0 => specials[(i / 3) % specials.len()],
                1 => ((i as f32) * 0.73).sin() * 2.0f32.powi((i % 41) as i32 - 20),
                _ => 1.0 + (i as f32) * 2.0f32.powi(-13),
            })
            .collect()
    }

    #[test]
    fn tails_and_unaligned_offsets_match_the_spec() {
        // Lengths across the vector-body/scalar-tail seam, at every offset
        // of an 8-lane vector into a larger buffer.
        let buf = mixed(64);
        for len in 0..=17 {
            for off in 0..8 {
                let src = &buf[off..off + len];
                let what = format!("len={len} off={off}");
                let (mut want, mut want_lo) = (vec![0.0f32; len], vec![0.0f32; len]);
                let mut out = vec![f32::NAN; 64];
                let dst_off = (off * 3 + 1) % 8;

                let spec = round_chunk_body::<Fp16Format>(src, &mut want);
                let dst = &mut out[dst_off..dst_off + len];
                assert_eq!(Fp16Format::round_into(src, dst), spec, "fp16 round_into {what}");
                assert_bits(&what, dst, &want);
                let mut inplace = buf.clone();
                assert_eq!(Fp16Format::round_slice(&mut inplace[off..off + len]), spec, "{what}");
                assert_bits(&what, &inplace[off..off + len], &want);

                let spec = round_chunk_body::<Bf16Format>(src, &mut want);
                let dst = &mut out[dst_off..dst_off + len];
                assert_eq!(Bf16Format::round_into(src, dst), spec, "bf16 round_into {what}");
                assert_bits(&what, dst, &want);
                let mut inplace = buf.clone();
                assert_eq!(Bf16Format::round_slice(&mut inplace[off..off + len]), spec, "{what}");
                assert_bits(&what, &inplace[off..off + len], &want);

                let spec = split_chunk_f16_body(src, &mut want, &mut want_lo);
                let (hi, lo) = out.split_at_mut(32);
                let (hi, lo) = (&mut hi[dst_off..dst_off + len], &mut lo[off..off + len]);
                assert_eq!(crate::split_f16_slice(src, hi, lo), spec, "split {what}");
                assert_bits(&what, hi, &want);
                assert_bits(&what, lo, &want_lo);
            }
        }
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{what}");
    }
}

/// The dispatched leaves against the portable spec, bit for bit and tally
/// for tally. On a host with F16C and AVX2 the dispatched leaves are the
/// hardware ones; elsewhere this compares the spec with itself.
#[cfg(test)]
mod hw_path {
    use super::*;

    /// Patterns per compared chunk: the per-chunk tallies must agree too.
    const CHUNK: usize = 4096;

    #[derive(Clone, Copy, Debug)]
    enum Conv {
        Fp16,
        Bf16,
        Split,
    }

    fn same_bits(what: &str, src: &[f32], got: &[f32], want: &[f32]) {
        for ((x, g), w) in src.iter().zip(got).zip(want) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: input {:#010x} gave {:#010x}, the spec {:#010x}",
                x.to_bits(),
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// One chunk through the dispatched leaf and the portable leaf.
    fn check(conv: Conv, src: &[f32]) {
        let n = src.len();
        let (mut got, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
        match conv {
            Conv::Fp16 => assert_eq!(
                round_chunk_into::<Fp16Format>(src, &mut got),
                round_chunk_body::<Fp16Format>(src, &mut want),
                "fp16 tallies"
            ),
            Conv::Bf16 => assert_eq!(
                round_chunk_into::<Bf16Format>(src, &mut got),
                round_chunk_body::<Bf16Format>(src, &mut want),
                "bf16 tallies"
            ),
            Conv::Split => {
                let (mut got_lo, mut want_lo) = (vec![0.0f32; n], vec![0.0f32; n]);
                assert_eq!(
                    split_chunk_f16(src, &mut got, &mut got_lo),
                    split_chunk_f16_body(src, &mut want, &mut want_lo),
                    "split tallies"
                );
                same_bits("split lo", src, &got_lo, &want_lo);
            }
        }
        same_bits(&format!("{conv:?}"), src, &got, &want);
    }

    /// Check `conv` on every pattern of `bits`, CHUNK at a time.
    fn sweep(conv: Conv, bits: impl Iterator<Item = u32>) {
        #[cfg(target_arch = "x86_64")]
        let hw = crate::hw::hw_f16c();
        #[cfg(not(target_arch = "x86_64"))]
        let hw = false;
        let mut chunk = Vec::with_capacity(CHUNK);
        let mut seen = 0u64;
        for b in bits {
            chunk.push(f32::from_bits(b));
            if chunk.len() == CHUNK {
                check(conv, &chunk);
                seen += CHUNK as u64;
                chunk.clear();
            }
        }
        check(conv, &chunk);
        seen += chunk.len() as u64;
        if hw {
            println!("{conv:?}: the F16C/AVX2 leaf matched the portable leaf on {seen} patterns");
        } else {
            println!("{conv:?}: no F16C/AVX2 on this host: compared the portable leaf with itself");
        }
    }

    /// Every fp16 and bf16 rounding tie (the midpoints between neighbours,
    /// overflow thresholds included), both signs, and two `f32` ulps either
    /// side of each.
    fn ties() -> Vec<u32> {
        let f16_mids = (0..0x7c00u16).map(|h| {
            let lo = f16::f16_bits_to_f32(h) as f64;
            let hi = if h == 0x7bff { 65536.0 } else { f16::f16_bits_to_f32(h + 1) as f64 };
            // Exact: two fp16 neighbours' midpoint has at most 12 bits.
            (((lo + hi) / 2.0) as f32).to_bits()
        });
        let bf16_mids = (0..0x7f80u32).map(|h| (h << 16) | 0x8000);
        f16_mids
            .chain(bf16_mids)
            .flat_map(|m| {
                (-2..=2).flat_map(move |d| {
                    let b = m.wrapping_add_signed(d);
                    [b, b | 0x8000_0000]
                })
            })
            .collect()
    }

    /// Every 257th pattern plus the ties: cheap enough for every build.
    fn strided_and_ties() -> impl Iterator<Item = u32> {
        (0..=u32::MAX).step_by(257).chain(ties())
    }

    #[test]
    fn hw_path_fp16_strided_and_ties() {
        sweep(Conv::Fp16, strided_and_ties());
    }

    #[test]
    fn hw_path_bf16_strided_and_ties() {
        sweep(Conv::Bf16, strided_and_ties());
    }

    #[test]
    fn hw_path_split_strided_and_ties() {
        sweep(Conv::Split, strided_and_ties());
    }

    // The full sweeps take about a minute each optimized and far longer
    // with debug assertions, so they run in release builds only.

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 patterns: run with --release")]
    fn hw_path_fp16_every_pattern() {
        sweep(Conv::Fp16, 0..=u32::MAX);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 patterns: run with --release")]
    fn hw_path_bf16_every_pattern() {
        sweep(Conv::Bf16, 0..=u32::MAX);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 patterns: run with --release")]
    fn hw_path_split_every_pattern() {
        sweep(Conv::Split, 0..=u32::MAX);
    }
}
