//! Mixed-precision LU with iterative refinement — the related-work
//! comparator of §5 (Haidar/Tomov/Dongarra/Higham 2017-2018), implemented on
//! the same simulated engine as RGSQRF.
//!
//! Blocked right-looking LU has the same panel/update split as blocked QR,
//! and its trailing update `A22 -= A21 A12` goes straight to TensorCore.
//! Classic iterative refinement then recovers working accuracy:
//!
//! ```text
//! LU = lu(fl16(A));  x = U \ (L \ P b)
//! repeat: r = b - A x  (fp64);  d = U \ (L \ P r);  x += d
//! ```
//!
//! The contrast with this paper's QR route is the point of the ablation
//! benchmarks: LU's growth factor is unbounded (column scaling cannot save
//! it, §3.5), so the half-precision factors degrade faster with the
//! condition number, and refinement stalls earlier than CGLS-on-`R` does.

use crate::error::TcqrError;
use crate::recovery::{run_with_recovery, RecoveryPolicy};
use densemat::lu::{apply_pivots, SingularLu};
use densemat::tri::{trsm_left_unit_lower, trsv_unit_lower, trsv_upper};
use densemat::{gemv, Mat, Op};
use tensor_engine::{Class, GpuSim, Phase};

/// Configuration for [`lu_ir_solve`].
#[derive(Clone, Copy, Debug)]
pub struct LuIrConfig {
    /// Blocked-LU panel width.
    pub block: usize,
    /// Relative tolerance on the correction, `||d|| <= tol ||x||`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for LuIrConfig {
    fn default() -> Self {
        LuIrConfig {
            block: 32,
            tol: 1e-12,
            max_iters: 200,
        }
    }
}

/// Outcome of the refinement loop (same shape as the CGLS outcome).
pub use crate::lls::RefineOutcome;

/// Blocked LU with partial pivoting whose trailing updates run through the
/// engine (TensorCore when enabled). Panel and triangular solves stay f32,
/// mirroring the paper's decision to keep low-locality work off the tensor
/// cores.
pub fn getrf_tc(
    eng: &GpuSim,
    a: &mut Mat<f32>,
    block: usize,
) -> Result<Vec<usize>, SingularLu> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "getrf_tc: square matrices only");
    let mut piv = vec![0usize; n];
    let mut k = 0;
    while k < n {
        let nb = block.min(n - k);
        densemat::lu::getrf_panel_range(a.as_mut(), k, nb, &mut piv)?;
        // Panel cost: LU panel flops at the (memory-bound) panel rate.
        let panel_flops = (n - k) as f64 * nb as f64 * nb as f64;
        let rate = eng.perf().sgeqrf_tflops(n - k, nb) * 1e12;
        eng.charge_secs(Phase::Panel, panel_flops / rate);
        if k + nb < n {
            let trailing = n - k - nb;
            {
                let (head, tail) = a.as_mut().split_at_col_mut(k + nb);
                let l11 = head.as_ref().submatrix(k, k, nb, nb);
                let a21 = head.as_ref().submatrix(k + nb, k, trailing, nb);
                let tail_rows = tail.submatrix_mut(k, 0, n - k, trailing);
                let (mut a12, a22) = tail_rows.split_at_row_mut(nb);
                trsm_left_unit_lower(1.0, l11, a12.rb());
                eng.charge_trsm(Phase::Update, Class::Fp32, nb, trailing);
                // The TensorCore trailing update. Unlike the QR recursion,
                // both operands change every outer iteration (A21 is a new
                // panel, A12 was just solved), so there is nothing to cache
                // across calls — the engine stages the per-call rounding in
                // the per-thread scratch pool, so it allocates nothing.
                eng.gemm_f32(
                    Phase::Update,
                    -1.0,
                    Op::NoTrans,
                    a21,
                    Op::NoTrans,
                    a12.as_ref(),
                    1.0,
                    a22,
                );
            }
        }
        k += nb;
    }
    Ok(piv)
}

/// Solve the square system `A x = b` by mixed-precision LU + classic
/// iterative refinement on the engine.
///
/// Thin wrapper over [`try_lu_ir_solve`] with the default
/// [`RecoveryPolicy`]; panics with the error's message on invalid shapes
/// or a singular LU.
pub fn lu_ir_solve(eng: &GpuSim, a: &Mat<f64>, b: &[f64], cfg: &LuIrConfig) -> RefineOutcome {
    try_lu_ir_solve(eng, a, b, cfg, &RecoveryPolicy::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`lu_ir_solve`] with typed errors: shape violations and
/// exhausted recovery ladders come back as [`TcqrError`], and a genuine LU
/// breakdown maps to [`TcqrError::Singular`].
pub fn try_lu_ir_solve(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    cfg: &LuIrConfig,
    policy: &RecoveryPolicy,
) -> Result<RefineOutcome, TcqrError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(TcqrError::shape(
            "lu_ir_solve",
            format!("square system (got {n} x {})", a.ncols()),
        ));
    }
    if b.len() != n {
        return Err(TcqrError::shape(
            "lu_ir_solve",
            format!("rhs length {} does not match n = {n}", b.len()),
        ));
    }

    // Factor in mixed precision, behind the recovery ladder when a fault
    // campaign is armed (the TC trailing updates are injection targets).
    let factored = run_with_recovery(
        eng,
        "lu_ir_solve",
        policy,
        |_att| {
            let mut a32: Mat<f32> = a.convert();
            getrf_tc(eng, &mut a32, cfg.block).map(|piv| (a32, piv))
        },
        |r| match r {
            Ok((lu, _)) => lu.all_finite(),
            // A breakdown with no detected fault is a property of the
            // matrix, not a transient: retrying cannot help.
            Err(_) => true,
        },
    )?;
    let (a32, piv) = factored.map_err(|e| TcqrError::Singular {
        op: "lu_ir_solve",
        detail: e.to_string(),
    })?;
    // Corrupted factors kept by OnExhausted::KeepLast can carry a zero/NaN
    // U diagonal on which the triangular solves would panic; only reachable
    // while a campaign is armed.
    if eng.fault_armed() {
        for j in 0..n {
            let d = a32[(j, j)];
            if !d.is_finite() || d == 0.0 {
                return Err(TcqrError::NonFinite {
                    op: "lu_ir_solve",
                    detail: format!(
                        "U diagonal entry {j} is {d} after fault recovery; \
                         the triangular solve cannot proceed"
                    ),
                });
            }
        }
    }
    // Solves run in f64 on the widened low-precision factors (the factors
    // carry fp16-grade error; the *solve* arithmetic is not the bottleneck).
    let lu64: Mat<f64> = a32.convert();

    let solve = |v: &mut Vec<f64>| {
        apply_pivots(&piv, v);
        trsv_unit_lower(Op::NoTrans, lu64.as_ref(), v);
        trsv_upper(Op::NoTrans, lu64.as_ref(), v);
    };

    // Initial solve.
    let mut x = b.to_vec();
    solve(&mut x);
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);

    let norm_b = densemat::blas1::nrm2(b);
    if norm_b == 0.0 {
        return Ok(RefineOutcome::new(vec![0.0; n], 0, true, false, vec![]));
    }

    let mut history = Vec::new();
    let mut r = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    let mut stalled = 0usize;
    for it in 1..=cfg.max_iters {
        // r = b - A x in working (f64) precision.
        r.copy_from_slice(b);
        gemv(-1.0, Op::NoTrans, a.as_ref(), &x, 1.0, &mut r);
        eng.charge_gemv(Phase::Refine, Class::Fp64, n, n);
        let mut d = r.clone();
        solve(&mut d);
        eng.charge_trsv(Phase::Refine, Class::Fp64, n);
        eng.charge_trsv(Phase::Refine, Class::Fp64, n);
        let norm_d = densemat::blas1::nrm2(&d);
        let norm_x = densemat::blas1::nrm2(&x).max(1e-300);
        densemat::blas1::axpy(1.0, &d, &mut x);
        let rel = norm_d / norm_x;
        history.push(rel);
        if rel <= cfg.tol {
            return Ok(RefineOutcome::new(x, it, true, false, history));
        }
        // A NaN in b or A: the correction can never shrink.
        if rel.is_nan() {
            return Ok(RefineOutcome::new(x, it, false, false, history));
        }
        if rel >= best * 0.5 {
            // Refinement contracts by ~kappa * u_factor per step; a ratio
            // near 1 means divergence or stagnation.
            stalled += 1;
            if stalled >= 3 {
                return Ok(RefineOutcome::new(x, it, false, true, history));
            }
        } else {
            stalled = 0;
        }
        best = best.min(rel);
    }
    Ok(RefineOutcome::new(x, cfg.max_iters, false, false, history))
}

/// Charge-only replay of [`lu_ir_solve`] for paper-scale comparisons.
pub fn cost_lu_ir(eng: &GpuSim, n: usize, block: usize, iterations: usize) {
    let class = if eng.uses_tc(Phase::Update) {
        Class::TensorCore
    } else {
        Class::Fp32
    };
    let mut k = 0;
    while k < n {
        let nb = block.min(n - k);
        let panel_flops = (n - k) as f64 * nb as f64 * nb as f64;
        let rate = eng.perf().sgeqrf_tflops(n - k, nb) * 1e12;
        eng.charge_secs(Phase::Panel, panel_flops / rate);
        if k + nb < n {
            let trailing = n - k - nb;
            eng.charge_trsm(Phase::Update, Class::Fp32, nb, trailing);
            eng.charge_gemm(Phase::Update, class, trailing, trailing, nb);
        }
        k += nb;
    }
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);
    for _ in 0..iterations {
        eng.charge_gemv(Phase::Refine, Class::Fp64, n, n);
        eng.charge_trsv(Phase::Refine, Class::Fp64, n);
        eng.charge_trsv(Phase::Refine, Class::Fp64, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgsqrf::RgsqrfConfig;
    use densemat::gen::{self, rng, Spectrum};
    use densemat::metrics::rel_vec_error;
    use tensor_engine::EngineConfig;

    fn system_spec(
        n: usize,
        spec: Spectrum,
        seed: u64,
    ) -> (Mat<f64>, Vec<f64>, Vec<f64>) {
        let a = gen::rand_svd(n, n, spec, &mut rng(seed));
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut b = vec![0.0; n];
        gemv(1.0, Op::NoTrans, a.as_ref(), &xtrue, 0.0, &mut b);
        (a, b, xtrue)
    }

    fn system(n: usize, cond: f64, seed: u64) -> (Mat<f64>, Vec<f64>, Vec<f64>) {
        system_spec(n, Spectrum::Geometric { cond }, seed)
    }

    #[test]
    fn getrf_tc_matches_plain_lu_without_tensorcore() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a64 = gen::gaussian(48, 48, &mut rng(1));
        let a32: Mat<f32> = a64.convert();
        let mut f_tc = a32.clone();
        let piv_tc = getrf_tc(&eng, &mut f_tc, 16).unwrap();
        let mut f_ref = a32.clone();
        let mut piv_ref = vec![0usize; 48];
        densemat::lu::getrf_blocked(f_ref.as_mut(), &mut piv_ref, 16).unwrap();
        assert_eq!(piv_tc, piv_ref);
        for j in 0..48 {
            for i in 0..48 {
                assert!((f_tc[(i, j)] - f_ref[(i, j)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn lu_ir_reaches_double_precision_on_easy_systems() {
        let eng = GpuSim::default();
        let (a, b, xtrue) = system(96, 50.0, 2);
        let out = lu_ir_solve(&eng, &a, &b, &LuIrConfig::default());
        assert!(out.converged, "history {:?}", out.history);
        assert!(out.iterations < 30, "{} iterations", out.iterations);
        let err = rel_vec_error(&out.x, &xtrue);
        assert!(err < 1e-10, "solution error {err}");
    }

    #[test]
    fn lu_ir_iterations_grow_with_cond() {
        let eng = GpuSim::default();
        let (a1, b1, _) = system(96, 5.0, 3);
        let easy = lu_ir_solve(&eng, &a1, &b1, &LuIrConfig::default());
        let (a2, b2, _) = system(96, 500.0, 4);
        let hard = lu_ir_solve(&eng, &a2, &b2, &LuIrConfig::default());
        assert!(
            hard.iterations >= easy.iterations,
            "easy {} vs hard {}",
            easy.iterations,
            hard.iterations
        );
    }

    #[test]
    fn lu_ir_with_fp16_factors_fails_before_qr_cgls_does() {
        // The §5 contrast at a condition number where fp16 LU refinement is
        // past its convergence horizon but CGLS on the QR's R still works.
        // (Cluster2 spectrum: CGLS's favourable case — with the *geometric*
        // spectrum both methods struggle, which is the paper's own §4.2.2
        // stress-case observation.)
        let cond = 1e5;
        let (a, b, xtrue) = system_spec(128, Spectrum::Cluster2 { cond }, 5);
        let eng = GpuSim::default();
        let lu = lu_ir_solve(&eng, &a, &b, &LuIrConfig::default());
        let qr = crate::lls::cgls_qr(
            &eng,
            &a,
            &b,
            &RgsqrfConfig {
                cutoff: 32,
                caqr_width: 8,
                caqr_block_rows: 64,
                ..RgsqrfConfig::default()
            },
            &crate::lls::RefineConfig::default(),
        );
        let lu_err = rel_vec_error(&lu.x, &xtrue);
        let qr_err = rel_vec_error(&qr.x, &xtrue);
        assert!(qr.converged, "QR+CGLS should still converge at cond {cond}");
        assert!(qr_err < 1e-8, "QR+CGLS error {qr_err}");
        assert!(
            !lu.converged || lu_err > 10.0 * qr_err,
            "LU-IR unexpectedly kept up: lu_err {lu_err} (converged: {}), qr_err {qr_err}",
            lu.converged
        );
    }

    #[test]
    fn cost_replay_matches_real_clock() {
        let (a, b, _) = system(96, 10.0, 6);
        let real = GpuSim::default();
        let out = lu_ir_solve(&real, &a, &b, &LuIrConfig::default());
        let replay = GpuSim::default();
        cost_lu_ir(&replay, 96, LuIrConfig::default().block, out.iterations);
        let (tr, tp) = (real.clock(), replay.clock());
        assert!(
            ((tr - tp) / tr).abs() < 0.02,
            "clock mismatch: {tr} vs {tp}"
        );
    }

    #[test]
    #[should_panic(expected = "lu_ir_solve: LU factorization broke down at column")]
    fn singular_system_reported() {
        let eng = GpuSim::default();
        let mut a: Mat<f64> = Mat::zeros(8, 8);
        a[(0, 0)] = 1.0; // rank 1
        let b = vec![1.0; 8];
        let _ = lu_ir_solve(&eng, &a, &b, &LuIrConfig::default());
    }

    /// Every way LU-IR stops, on seeded 4 x 4 systems. A singular LU, the
    /// breakdown exit, is covered by `try_variants_report_typed_errors`.
    #[test]
    fn lu_ir_stop_decisions() {
        use crate::lls::tests::assert_exit;
        let run = |cond: f64, seed: u64, b: &[f64], max_iters: usize| {
            let a = gen::rand_svd(4, 4, Spectrum::Cluster2 { cond }, &mut rng(seed));
            let cfg = LuIrConfig {
                max_iters,
                ..LuIrConfig::default()
            };
            lu_ir_solve(&GpuSim::default(), &a, b, &cfg)
        };
        let b: Vec<f64> = (0..4).map(|i| (i as f64 * 0.31).cos()).collect();
        let converged = [0xc0025e2d64fd0fff, 0x3fa92eec74ab5ba2, 0x3fe67d9b0a127806, 0x3ff03a3a1d6d059f];
        assert_exit("converged", &run(10.0, 4, &b, 200), 2, true, false, Some(converged));
        // At cond 1e6 the fp16 LU no longer contracts: three corrections
        // in a row fail to halve the best one.
        let stalled = [0xc0f99fb560770221, 0xc123f3d3d60f81fa, 0xc0e21f669c4ed60e, 0xc1146515a98a6b34];
        assert_exit("stalled", &run(1e6, 6, &b, 200), 10, false, true, Some(stalled));
        let capped = [0xc0f99fadbd5752bc, 0xc123f3cde3a662d8, 0xc0e21f613588063b, 0xc114650f956129a3];
        assert_exit("cap", &run(1e6, 6, &b, 2), 2, false, false, Some(capped));
        assert_exit("zero rhs", &run(1e6, 6, &[0.0; 4], 200), 0, true, false, Some([0; 4]));
        // A NaN in b makes the first correction's norm NaN: LU-IR stops
        // there, not converged.
        let mut b_nan = b.clone();
        b_nan[2] = f64::NAN;
        assert_exit("non-finite", &run(1e6, 6, &b_nan, 3), 1, false, false, None);
    }

    #[test]
    fn try_variants_report_typed_errors() {
        let eng = GpuSim::default();
        let policy = RecoveryPolicy::default();

        let rect: Mat<f64> = Mat::zeros(8, 6);
        let err =
            try_lu_ir_solve(&eng, &rect, &[0.0; 8], &LuIrConfig::default(), &policy)
                .unwrap_err();
        assert!(matches!(err, TcqrError::ShapeMismatch { op: "lu_ir_solve", .. }), "{err}");

        let mut singular: Mat<f64> = Mat::zeros(8, 8);
        singular[(0, 0)] = 1.0;
        let err =
            try_lu_ir_solve(&eng, &singular, &[1.0; 8], &LuIrConfig::default(), &policy)
                .unwrap_err();
        assert!(matches!(err, TcqrError::Singular { op: "lu_ir_solve", .. }), "{err}");
        assert!(err.to_string().contains("broke down at column"), "{err}");
    }
}
