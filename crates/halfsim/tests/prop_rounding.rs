//! Property tests pinning the IEEE semantics of the software half formats.
//!
//! The correctness of every accuracy experiment in this reproduction rests on
//! these conversions being exactly round-to-nearest-even, so they get the
//! heaviest property coverage in the workspace.

use densemat::gen::{for_each_seed, Rng};
use halfsim::{bf16, f16, Bf16, F16};

/// Cases per property.
const CASES: u64 = 256;

/// Any `f32`: mostly raw bit patterns, with zeros, infinities, NaN and the
/// fp16 range edges mixed in.
fn any_f32(r: &mut Rng) -> f32 {
    const EDGES: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        65520.0,
        -65504.0,
        f32::MIN_POSITIVE,
    ];
    if r.below(8) == 0 {
        EDGES[r.below(EDGES.len())]
    } else {
        f32::from_bits(r.next_u64() as u32)
    }
}

/// Any 16-bit pattern.
fn any_u16(r: &mut Rng) -> u16 {
    r.next_u64() as u16
}

/// Uniform on `[lo, hi)`, rounded to `f32`.
fn f32_in(r: &mut Rng, lo: f32, hi: f32) -> f32 {
    r.f64_in(lo as f64..hi as f64) as f32
}

/// Draw from `gen` until `keep` holds: a case's precondition, met by
/// redrawing so every case counts.
fn draw<T>(r: &mut Rng, gen: impl Fn(&mut Rng) -> T, keep: impl Fn(&T) -> bool) -> T {
    loop {
        let v = gen(r);
        if keep(&v) {
            return v;
        }
    }
}

/// Exhaustive-nearest reference: scan both f16 neighbours of the rounded
/// result and verify none is strictly closer (RNE tie handling checked
/// separately where distances are equal).
fn assert_nearest_f16(x: f32) {
    let h = F16::from_f32(x);
    if x.is_nan() {
        assert!(h.is_nan());
        return;
    }
    if h.is_infinite() {
        // Overflow: |x| must be at least the overflow threshold 65520.
        assert!(x.abs() >= 65520.0 || x.is_infinite(), "x={x}");
        return;
    }
    let hv = h.to_f64();
    let xv = x as f64;
    let err = (xv - hv).abs();
    // Every finite f16 neighbour must be at least as far away.
    for delta in [-1i32, 1] {
        let nb_bits = neighbour_bits(h.to_bits(), delta);
        let nb = F16::from_bits(nb_bits);
        if nb.is_nan() {
            continue;
        }
        let nv = nb.to_f64();
        let nerr = (xv - nv).abs();
        assert!(
            nerr >= err,
            "x={x} rounded to {hv} but neighbour {nv} is closer"
        );
        if nerr == err {
            // Tie: the chosen mantissa must be even.
            assert_eq!(h.to_bits() & 1, 0, "tie not broken to even for x={x}");
        }
    }
}

/// Bits of the representable value `delta` steps away in value order.
fn neighbour_bits(bits: u16, delta: i32) -> u16 {
    // Map sign-magnitude to a monotone integer line, step, map back.
    let line = if bits & 0x8000 == 0 {
        bits as i32
    } else {
        -((bits & 0x7fff) as i32)
    };
    let moved = line + delta;
    if moved >= 0 {
        (moved as u16).min(0x7c00)
    } else {
        0x8000 | ((-moved) as u16).min(0x7c00)
    }
}

#[test]
fn f16_round_is_nearest() {
    for_each_seed(CASES, |r| assert_nearest_f16(any_f32(r)));
}

#[test]
fn f16_round_is_nearest_in_half_range() {
    for_each_seed(CASES, |r| assert_nearest_f16(f32_in(r, -70000.0, 70000.0)));
}

#[test]
fn f16_round_is_nearest_near_subnormals() {
    for_each_seed(CASES, |r| assert_nearest_f16(f32_in(r, -1e-4, 1e-4)));
}

#[test]
fn f16_widening_roundtrip_is_exact() {
    for_each_seed(CASES, |r| {
        let bits = draw(r, any_u16, |&b| !F16::from_bits(b).is_nan());
        let back = F16::from_f32(F16::from_bits(bits).to_f32());
        assert_eq!(back.to_bits(), bits);
    });
}

#[test]
fn f16_rounding_is_monotone() {
    for_each_seed(CASES, |r| {
        let a = draw(r, any_f32, |x| x.is_finite());
        let b = draw(r, any_f32, |x| x.is_finite());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let rl = F16::from_f32(lo);
        let rh = F16::from_f32(hi);
        // Compare as f32, treating equal-value signed zeros as equal.
        assert!(
            rl.to_f32() <= rh.to_f32(),
            "monotonicity violated: {lo} -> {rl}, {hi} -> {rh}"
        );
    });
}

#[test]
fn f16_rounding_commutes_with_negation() {
    for_each_seed(CASES, |r| {
        let x = draw(r, any_f32, |x| !x.is_nan());
        let a = F16::from_f32(-x).to_f32();
        let b = -F16::from_f32(x).to_f32();
        assert_eq!(a.to_bits(), b.to_bits());
    });
}

#[test]
fn f16_relative_error_bounded_by_unit_roundoff() {
    for_each_seed(CASES, |r| {
        // Normal range only.
        let x = draw(r, |r| f32_in(r, -60000.0, 60000.0), |x| x.abs() >= 6.2e-5);
        let rf = F16::from_f32(x).to_f64();
        let rel = ((x as f64) - rf).abs() / (x as f64).abs();
        assert!(
            rel <= F16::UNIT_ROUNDOFF,
            "relative error {rel} exceeds unit roundoff for x={x}"
        );
    });
}

#[test]
fn f16_from_f64_agrees_with_from_f32_when_unambiguous() {
    for_each_seed(CASES, |r| {
        // Perturb a finite f16 within a quarter-ulp so no tie can occur.
        let perturb = |h: &F16| h.to_f64() * (1.0 + 1e-6);
        let h = draw(
            r,
            |r| F16::from_bits(any_u16(r)),
            |h| h.is_finite() && perturb(h).abs() < 65504.0,
        );
        let x = perturb(&h);
        let via64 = F16::from_f64(x);
        let via32 = F16::from_f32(x as f32);
        assert_eq!(via64.to_bits(), via32.to_bits());
    });
}

#[test]
fn bf16_widening_roundtrip_is_exact() {
    for_each_seed(CASES, |r| {
        let bits = draw(r, any_u16, |&b| !Bf16::from_bits(b).is_nan());
        let back = Bf16::from_f32(Bf16::from_bits(bits).to_f32());
        assert_eq!(back.to_bits(), bits);
    });
}

#[test]
fn bf16_error_bounded_by_unit_roundoff() {
    for_each_seed(CASES, |r| {
        // Finite, normal, and below the overflow threshold.
        let x = draw(r, any_f32, |x| {
            x.is_finite() && x.abs() >= f32::MIN_POSITIVE && x.abs() <= 3.38e38
        });
        let rf = Bf16::from_f32(x).to_f64();
        let rel = ((x as f64) - rf).abs() / (x as f64).abs();
        assert!(rel <= Bf16::UNIT_ROUNDOFF, "x={x}");
    });
}

#[test]
fn bf16_rounding_is_monotone() {
    for_each_seed(CASES, |r| {
        let a = draw(r, any_f32, |x| x.is_finite());
        let b = draw(r, any_f32, |x| x.is_finite());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(Bf16::from_f32(lo).to_f32() <= Bf16::from_f32(hi).to_f32());
    });
}

/// A pair of finite fp16 values.
fn finite_f16_pair(r: &mut Rng) -> (F16, F16) {
    let finite = |r: &mut Rng| draw(r, |r| F16::from_bits(any_u16(r)), |h| h.is_finite());
    (finite(r), finite(r))
}

#[test]
fn f16_product_is_exact_in_f32() {
    // The foundational fact behind the whole TensorCore emulation:
    // products of two binary16 values are exact in binary32.
    for_each_seed(CASES, |r| {
        let (a, b) = draw(r, finite_f16_pair, |(a, b)| {
            let p64 = a.to_f64() * b.to_f64();
            p64.abs() <= f32::MAX as f64 && (p64 == 0.0 || p64.abs() >= f32::MIN_POSITIVE as f64)
        });
        let p32 = a.to_f32() * b.to_f32();
        let p64 = a.to_f64() * b.to_f64();
        assert_eq!(p32 as f64, p64, "a={a} b={b}");
    });
}

#[test]
fn bit_level_conversion_matches_reference_on_dense_f32_grid() {
    // Cross-check the branchy converter against a slow but obviously
    // correct reference built on from_f64 midpoint resolution.
    let mut checked = 0u32;
    for e in -30..20i32 {
        for m in 0..64u32 {
            for sign in [1.0f32, -1.0] {
                let x = sign * (1.0 + m as f32 / 64.0) * 2.0f32.powi(e);
                let direct = f16::f32_to_f16_bits(x);
                let via64 = F16::from_f64(x as f64).to_bits();
                assert_eq!(direct, via64, "x={x}");
                checked += 1;
            }
        }
    }
    assert!(checked > 6000);
}

#[test]
fn bf16_truncation_boundary_cases() {
    // Exactly representable boundary arithmetic around the rounding point.
    assert_eq!(bf16::f32_to_bf16_bits(1.0), 0x3f80);
    let one_and_half_ulp = f32::from_bits(0x3f80_8000); // 1 + 2^-8
    assert_eq!(bf16::f32_to_bf16_bits(one_and_half_ulp), 0x3f80); // tie->even
    let above = f32::from_bits(0x3f80_8001);
    assert_eq!(bf16::f32_to_bf16_bits(above), 0x3f81);
}
