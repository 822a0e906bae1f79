//! Property tests for the paper's algorithms: the invariants that must hold
//! for *any* input, not just the curated experiment matrices.

use densemat::gen::{self, Spectrum};
use densemat::gen::{for_each_seed, Rng};
use densemat::metrics::{lls_accuracy, orthogonality_error, qr_backward_error};
use densemat::Mat;
use tcqr_core::caqr::{tsqr, TsqrKernel};
use tcqr_core::lls::{cgls_qr, RefineConfig};
use tcqr_core::mgs::mgs_qr;
use tcqr_core::rgsqrf::{rgsqrf, RgsqrfConfig};
use tcqr_core::scaling::{compute_column_scaling, scale_columns, unscale_r};
use tcqr_trace::Tracer;
use tensor_engine::{EngineConfig, GpuSim};

/// Cases per property.
const CASES: u64 = 40;

fn small_cfg() -> RgsqrfConfig {
    RgsqrfConfig {
        cutoff: 16,
        caqr_width: 4,
        caqr_block_rows: 16,
        ..RgsqrfConfig::default()
    }
}

/// Random tall matrix (f64) with bounded dimensions.
fn tall(r: &mut Rng) -> Mat<f64> {
    let n = r.usize_in(1..12);
    let m = n + r.usize_in(1..40);
    gen::gaussian(m, n, r)
}

#[test]
fn mgs_invariants_on_any_tall_matrix() {
    for_each_seed(CASES, |r| {
        let a = tall(r);
        let n = a.ncols();
        let mut q = a.clone();
        let mut rr = Mat::zeros(n, n);
        mgs_qr(q.as_mut(), rr.as_mut());
        let m = a.nrows() as f64;
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), rr.as_ref()) < 1e-12 * m);
        // Gaussian draws are almost surely well-conditioned at these sizes.
        assert!(orthogonality_error(q.as_ref()) < 1e-9 * m);
        for j in 0..n {
            assert!(rr[(j, j)] >= 0.0, "GS diagonal convention");
        }
    });
}

#[test]
fn caqr_equals_flat_mgs_for_any_blocking() {
    for_each_seed(CASES, |r| {
        let a = tall(r);
        let n = a.ncols();
        let block_rows = 2 * n * r.usize_in(1..5);
        let mut q1 = a.clone();
        let mut r1 = Mat::zeros(n, n);
        tsqr(&Tracer::disabled(), q1.as_mut(), r1.as_mut(), block_rows, TsqrKernel::Mgs).unwrap();
        let mut q2 = a.clone();
        let mut r2 = Mat::zeros(n, n);
        mgs_qr(q2.as_mut(), r2.as_mut());
        // Unique positive-diagonal QR: factors agree to roundoff.
        for j in 0..n {
            for i in 0..=j {
                assert!(
                    (r1[(i, j)] - r2[(i, j)]).abs() < 1e-8 * r2[(j, j)].abs().max(1.0),
                    "R ({i},{j})"
                );
            }
        }
    });
}

#[test]
fn rgsqrf_fp32_engine_invariants() {
    for_each_seed(CASES, |r| {
        let a = tall(r);
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a32: Mat<f32> = a.convert();
        let f = rgsqrf(&eng, a32.as_ref(), &small_cfg());
        let m = a.nrows() as f64;
        let be = qr_backward_error(
            a.as_ref(),
            f.q.convert::<f64>().as_ref(),
            f.r.convert::<f64>().as_ref(),
        );
        assert!(be < 1e-4 * m.sqrt().max(1.0), "backward error {be}");
        for j in 0..a.ncols() {
            for i in j + 1..a.ncols() {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
        assert!(eng.clock() > 0.0);
    });
}

#[test]
fn rgsqrf_tc_engine_backward_error_bounded() {
    for_each_seed(CASES, |r| {
        let a = tall(r);
        let eng = GpuSim::default();
        let a32: Mat<f32> = a.convert();
        let f = rgsqrf(&eng, a32.as_ref(), &small_cfg());
        let be = qr_backward_error(
            a.as_ref(),
            f.q.convert::<f64>().as_ref(),
            f.r.convert::<f64>().as_ref(),
        );
        // fp16 unit roundoff times a generous constant.
        assert!(be < 0.05, "backward error {be}");
    });
}

#[test]
fn scaling_roundtrip_is_bit_exact() {
    for_each_seed(CASES, |r| {
        // Apply wild power-of-ten column scalings (redrawn until finite),
        // then verify the power-of-two safeguard roundtrips exactly.
        let a32 = loop {
            let mut a32: Mat<f32> = tall(r).convert();
            let exponents: Vec<i32> = (0..r.usize_in(1..12))
                .map(|_| r.usize_in(0..36) as i32 - 18)
                .collect();
            for j in 0..a32.ncols() {
                let e = exponents[j % exponents.len()];
                densemat::blas1::scal(10f32.powi(e), a32.col_mut(j));
            }
            if a32.all_finite() {
                break a32;
            }
        };
        let (s, _) = compute_column_scaling(a32.as_ref(), 0);
        let mut b = a32.clone();
        scale_columns(b.as_mut(), &s);
        // Every scaled column within fp16-safe magnitude.
        for j in 0..b.ncols() {
            let amax = b.col(j).iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            assert!(amax < 1.0 || amax == 0.0, "col {j}: {amax}");
        }
        unscale_r(b.as_mut(), &s);
        assert_eq!(a32, b);
    });
}

#[test]
fn cgls_converges_on_well_conditioned_problems() {
    for_each_seed(CASES, |r| {
        let n = r.usize_in(2..10);
        let m = n + r.usize_in(8..40);
        let cond = 10f64.powf(r.f64_in(0.0..3.0));
        let a = gen::rand_svd(m, n, Spectrum::Arithmetic { cond }, r);
        let b: Vec<f64> = gen::gaussian(m, 1, r).data().to_vec();
        let eng = GpuSim::default();
        let out = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        assert!(out.converged, "history: {:?}", out.history);
        let acc = lls_accuracy(a.as_ref(), &out.x, &b);
        assert!(acc < 1e-9 * (m as f64), "accuracy {acc}");
    });
}

#[test]
fn cgls_iterations_bounded_by_problem_dimension() {
    // CG theory: at most n iterations in exact arithmetic; the
    // preconditioned version should take far fewer, and never more than
    // a small multiple of n even with roundoff.
    for_each_seed(CASES, |r| {
        let n = r.usize_in(2..10);
        let m = n + r.usize_in(8..30);
        let a = gen::rand_svd(m, n, Spectrum::Geometric { cond: 100.0 }, r);
        let b: Vec<f64> = gen::gaussian(m, 1, r).data().to_vec();
        let out = cgls_qr(
            &GpuSim::default(),
            &a,
            &b,
            &small_cfg(),
            &RefineConfig::default(),
        );
        assert!(
            out.iterations <= 3 * n + 5,
            "{} iterations for n = {n}",
            out.iterations
        );
    });
}

#[test]
fn engine_clock_is_additive_and_deterministic() {
    for_each_seed(CASES, |r| {
        let a32: Mat<f32> = tall(r).convert();
        let cfg = small_cfg();
        let eng = GpuSim::default();
        let _ = rgsqrf(&eng, a32.as_ref(), &cfg);
        let t1 = eng.clock();
        let _ = rgsqrf(&eng, a32.as_ref(), &cfg);
        let t2 = eng.clock();
        assert!(
            (t2 - 2.0 * t1).abs() < 1e-12 * t1.max(1e-30),
            "clock not additive"
        );
    });
}
