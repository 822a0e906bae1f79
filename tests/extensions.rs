//! Integration: the extension systems built beyond the paper's minimum —
//! LU+IR, reortho-preconditioned CGLS, randomized SVD, rank-revealing QR —
//! exercised together through the umbrella crate.

use tcqr_repro::densemat::gen::{self, rng, Spectrum};
use tcqr_repro::densemat::lu::Lu;
use tcqr_repro::densemat::metrics::{lls_accuracy, lowrank_error_fro, rel_vec_error};
use tcqr_repro::densemat::pivot::PivotedQr;
use tcqr_repro::densemat::svd::singular_values;
use tcqr_repro::densemat::{gemv, Mat, Op};
use tcqr_repro::tcqr::lls::{cgls_qr, cgls_qr_reortho, dcusolve, RefineConfig};
use tcqr_repro::tcqr::lowrank::{randomized_svd, QrKind, RandomizedSvdConfig};
use tcqr_repro::tcqr::lu_ir::{lu_ir_solve, LuIrConfig};
use tcqr_repro::tcqr::rgsqrf::RgsqrfConfig;
use tcqr_repro::tensor_engine::GpuSim;

fn cfg() -> RgsqrfConfig {
    RgsqrfConfig {
        cutoff: 32,
        caqr_width: 8,
        caqr_block_rows: 64,
        ..RgsqrfConfig::default()
    }
}

#[test]
fn lu_ir_and_qr_cgls_agree_on_easy_square_systems() {
    let n = 128;
    let a = gen::rand_svd(n, n, Spectrum::Arithmetic { cond: 100.0 }, &mut rng(1));
    let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut b = vec![0.0; n];
    gemv(1.0, Op::NoTrans, a.as_ref(), &xtrue, 0.0, &mut b);
    let eng = GpuSim::default();
    let lu = lu_ir_solve(&eng, &a, &b, &LuIrConfig::default());
    let qr = cgls_qr(&eng, &a, &b, &cfg(), &RefineConfig::default());
    assert!(lu.converged && qr.converged);
    assert!(rel_vec_error(&lu.x, &xtrue) < 1e-9);
    assert!(rel_vec_error(&qr.x, &xtrue) < 1e-9);
}

#[test]
fn extension_stack_on_one_hard_problem() {
    // One geometric stress problem, attacked three ways: plain CGLS stalls,
    // reortho-CGLS fixes it, and the double-precision reference agrees.
    let (m, n) = (768, 128);
    let a = gen::rand_svd(m, n, Spectrum::Geometric { cond: 1e4 }, &mut rng(2));
    let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.07).cos()).collect();
    let eng = GpuSim::default();

    let fixed = cgls_qr_reortho(&eng, &a, &b, &cfg(), &RefineConfig::default());
    let dref = dcusolve(&eng, &a, &b);
    assert!(fixed.converged, "reortho-CGLS must converge");
    assert!(
        rel_vec_error(&fixed.x, &dref) < 1e-6,
        "reortho-CGLS vs DGEQRF reference"
    );
    assert!(lls_accuracy(a.as_ref(), &fixed.x, &b) < 1e-8);
}

#[test]
fn randomized_svd_agrees_with_deterministic_qr_svd() {
    let (m, n) = (512, 96);
    let a64 = gen::rand_svd(m, n, Spectrum::Geometric { cond: 1e4 }, &mut rng(3));
    let a32: Mat<f32> = a64.convert();
    let eng = GpuSim::default();
    let rank = 12;

    let det = tcqr_repro::tcqr::lowrank::qr_svd(&eng, &a32, QrKind::Rgsqrf, &cfg());
    let rnd = randomized_svd(&eng, &a32, rank, &RandomizedSvdConfig::default(), &cfg());

    let e_det = lowrank_error_fro(a64.as_ref(), det.truncate(rank).as_ref());
    let e_rnd = lowrank_error_fro(a64.as_ref(), rnd.truncate(rank).as_ref());
    assert!(
        e_rnd < e_det * 2.0 + 1e-3,
        "sketched ({e_rnd}) should be near the deterministic error ({e_det})"
    );
}

#[test]
fn pivoted_qr_triages_rank_before_the_expensive_pipeline() {
    // The intended workflow for dubious inputs: pivoted QR estimates rank
    // cheaply in f64; full-rank inputs proceed to the fast mixed-precision
    // path, deficient ones get the basic solution.
    let (m, n) = (200, 10);
    let mut a = gen::gaussian(m, n, &mut rng(4));
    for i in 0..m {
        let v = a[(i, 2)] + a[(i, 5)];
        a[(i, 8)] = v; // rank n-1
    }
    let f = PivotedQr::factor(a.clone());
    assert_eq!(f.rank(1e-10), n - 1);
    let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.05).sin()).collect();
    let x = f.solve_basic(&b, 1e-10);
    assert!(lls_accuracy(a.as_ref(), &x, &b) < 1e-9);

    // Sanity cross-check of the rank estimate against the SVD.
    let s = singular_values(a.as_ref());
    assert!(s[n - 1] < 1e-12 * s[0]);
    assert!(s[n - 2] > 1e-6 * s[0]);
}

#[test]
fn plain_lu_substrate_solves_what_the_ir_wrapper_builds_on() {
    let n = 64;
    let a = gen::gaussian(n, n, &mut rng(5));
    let xtrue: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut b = vec![0.0; n];
    gemv(1.0, Op::NoTrans, a.as_ref(), &xtrue, 0.0, &mut b);
    let lu = Lu::factor(a).unwrap();
    let x = lu.solve(&b);
    assert!(rel_vec_error(&x, &xtrue) < 1e-9);
}
