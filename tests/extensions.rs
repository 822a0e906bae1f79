//! Integration: the solvers built beyond the paper's minimum — LU+IR and
//! reortho-preconditioned CGLS — exercised through the umbrella crate.

use tcqr_repro::densemat::gen::{self, rng, Spectrum};
use tcqr_repro::densemat::metrics::{lls_accuracy, rel_vec_error};
use tcqr_repro::densemat::{gemv, Op};
use tcqr_repro::tcqr::lls::{cgls_qr, cgls_qr_reortho, dcusolve, RefineConfig};
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
