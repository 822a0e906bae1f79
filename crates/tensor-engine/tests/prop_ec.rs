//! Property tests for the error-corrected (EC) tensor-core GEMM
//! ([`tensor_engine::PrecisionOverride::ErrorCorrected`], the Ootomo–Yokota
//! hi/lo split of arXiv 2203.03341):
//!
//! - the elementwise EC product error obeys the composed deterministic
//!   bound of the split scheme for any operand shape and scale;
//! - the hi/lo split round-trips *exactly* on values that sit on the
//!   22-bit composite grid;
//! - the EC GEMM is bit-deterministic across threads, clock included.

use densemat::gen::{for_each_seed, Rng};
use densemat::{gemm, Mat, Op};
use halfsim::bounds::det_ec_bound;
use tensor_engine::{GpuSim, Phase, PrecisionOverride};

/// Uniform in `(-scale, scale)`.
fn mat(m: usize, n: usize, scale: f64, r: &mut Rng) -> Mat<f32> {
    Mat::from_fn(m, n, |_, _| r.f64_in(-scale..scale) as f32)
}

fn ec_engine() -> GpuSim {
    let eng = GpuSim::default();
    eng.set_precision_override(Some(PrecisionOverride::ErrorCorrected));
    eng
}

/// One EC product on a fresh engine; returns the result and the modeled
/// clock.
fn ec_product(a: &Mat<f32>, b: &Mat<f32>) -> (Mat<f32>, f64) {
    let eng = ec_engine();
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    eng.gemm_f32(
        Phase::Update,
        1.0,
        Op::NoTrans,
        a.as_ref(),
        Op::NoTrans,
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    (c, eng.clock())
}

// Each case runs full GEMMs; keep the case count in CI budget.
const CASES: u64 = 24;

/// For any shape and power-of-two operand scaling, every element of the EC
/// product sits within the composed split-scheme bound of the exact f64
/// product.
#[test]
fn ec_gemm_error_within_composed_split_bound() {
    for_each_seed(CASES, |r| {
        let (m, k, n) = (r.usize_in(2..24), r.usize_in(2..64), r.usize_in(2..24));
        let pa = r.usize_in(0..13) as i32 - 6;
        let pb = r.usize_in(0..13) as i32 - 6;
        let a = mat(m, k, (2.0f64).powi(pa), r);
        let b = mat(k, n, (2.0f64).powi(pb), r);
        let (c, _) = ec_product(&a, &b);
        let a64 = a.convert::<f64>();
        let b64 = b.convert::<f64>();
        let mut cref: Mat<f64> = Mat::zeros(m, n);
        gemm(
            1.0,
            Op::NoTrans,
            a64.as_ref(),
            Op::NoTrans,
            b64.as_ref(),
            0.0,
            cref.as_mut(),
        );
        let bound = det_ec_bound(k);
        for j in 0..n {
            for i in 0..m {
                let dot: f64 = (0..k)
                    .map(|l| (a64.as_ref().get(i, l) * b64.as_ref().get(l, j)).abs())
                    .sum();
                let err = (c.as_ref().get(i, j) as f64 - cref.as_ref().get(i, j)).abs();
                assert!(
                    err <= bound * dot,
                    "({i},{j}): err {err:.3e} > bound {:.3e} (k={k})",
                    bound * dot
                );
            }
        }
    });
}

/// Values on the 22-bit composite grid split and recompose *exactly*: take
/// a normal f16 `hi` with exponent `e` (significand away from the binade
/// edge so the perturbed value still rounds to `hi`) and a lo payload `j`
/// on the `2^(e-10)` grid — then `x = hi + j·2^(e-21)` is exact in f32,
/// splits into exactly `(hi, j·2^(e-10))`, and recomposes bit-for-bit.
#[test]
fn split_round_trips_exactly_on_the_composite_grid() {
    for_each_seed(CASES, |r| {
        let e = r.usize_in(0..30) as i32 - 14;
        let m10 = r.usize_in(1..1024) as u32;
        let j = r.usize_in(0..2047) as i64 - 1023;
        let sign = if r.below(2) == 1 { -1.0 } else { 1.0 };
        let hi64 = sign * (1.0 + m10 as f64 / 1024.0) * (2.0f64).powi(e);
        let lo64 = j as f64 * (2.0f64).powi(e - 10);
        let x64 = hi64 + j as f64 * (2.0f64).powi(e - 21);
        let x = x64 as f32;
        assert_eq!(x as f64, x64, "x must be exact in f32 by construction");
        let (hi, lo) = halfsim::split_f16(x);
        assert_eq!(hi as f64, hi64, "hi must be the constructed f16 value");
        assert_eq!(lo as f64, lo64, "lo must carry the payload exactly");
        let back = halfsim::recompose_f16(hi, lo);
        assert_eq!(back.to_bits(), x.to_bits(), "round-trip must be exact");
    });
}

/// The same EC GEMM run on fresh engines from four concurrent threads
/// produces bit-identical results and identical modeled clocks.
#[test]
fn ec_gemm_is_bit_deterministic_across_threads() {
    for_each_seed(CASES, |r| {
        let (m, k, n) = (r.usize_in(8..40), r.usize_in(8..48), r.usize_in(8..40));
        let a = mat(m, k, 4.0, r);
        let b = mat(k, n, 4.0, r);
        let (c0, clk0) = ec_product(&a, &b);
        let base: Vec<u32> = c0.data().iter().map(|v| v.to_bits()).collect();
        let runs: Vec<(Vec<u32>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let (c, clk) = ec_product(&a, &b);
                        let bits: Vec<u32> = c.data().iter().map(|v| v.to_bits()).collect();
                        (bits, clk.to_bits())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (bits, clk)) in runs.iter().enumerate() {
            assert_eq!(bits, &base, "thread {i} result bits diverged");
            assert_eq!(*clk, clk0.to_bits(), "thread {i} clock diverged");
        }
    });
}
