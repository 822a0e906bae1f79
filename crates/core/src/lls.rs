//! Linear least squares solvers — §3.2 and Algorithm 3.
//!
//! Four solver families, matching the paper's Figure 8/9 lineup:
//!
//! - [`rgsqrf_direct`] — "RGSQRF Direct Solver": the mixed-precision QR with
//!   `x = R \ (Q^T b)`. Fast but ~two digits worse than single precision
//!   (Figure 9), which motivates refinement.
//! - [`scusolve`] / [`dcusolve`] — the cuSOLVER baselines
//!   (`xGEQRF + xORMQR + xTRSM`) in single and double precision.
//! - [`cgls_qr`] — Algorithm 3: CGLS (conjugate gradients on the normal
//!   equations, in its numerically stable form) with the RGSQRF `R` factor
//!   as right preconditioner. With a good R, `kappa(A R^{-1}) ~ 1` and the
//!   iteration converges in a handful of steps to double-precision-level
//!   accuracy.
//! - [`lsqr_qr`] — the Paige–Saunders LSQR with the same preconditioner
//!   (the paper's §5 mentions it as the mathematically equivalent,
//!   numerically more stable alternative; included as an extension).
//!
//! [`normal_equations`] (Cholesky on `A^T A`) is included as the classic
//! fast-but-unstable contrast used in the examples.

use crate::cost;
use crate::error::TcqrError;
use crate::recovery::{run_with_recovery, RecoveryPolicy};
use crate::reortho::reorthogonalize;
use crate::rgsqrf::{factor_in_place, QrFactors, RgsqrfConfig};
use crate::scaling::{compute_column_scaling, scale_columns, unscale_r};
use densemat::blas1::nrm2;
use densemat::lapack::Householder;
use densemat::tri::{potrf_upper, trsv_upper, NotPositiveDefinite};
use densemat::{gemm, gemv, Mat, Op, Real};
use tcqr_trace::schema::{SolveClose, SolveOpen};
use tcqr_trace::{Tracer, Value};
use tensor_engine::{Class, GpuSim, Phase};

/// Stopping rule for the iterative refiners.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// Relative tolerance on the preconditioned normal-equations residual
    /// `||s_k|| <= tol ||s_0||`.
    pub tol: f64,
    /// Iteration cap (the paper tolerates at most 200).
    pub max_iters: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            tol: 1e-12,
            max_iters: 200,
        }
    }
}

/// Result of an iterative refinement solve.
#[derive(Clone, Debug)]
pub struct RefineOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Refinement iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met (vs. hitting the cap / stagnating).
    pub converged: bool,
    /// Whether the iteration was cut short by the stagnation guard (the
    /// residual stopped decreasing for several consecutive iterations —
    /// the §4.2.2 symptom of a damaged preconditioner). Always `false`
    /// when `converged` is true.
    pub stalled: bool,
    /// `||s_k|| / ||s_0||` per iteration (preconditioned residual decay).
    pub history: Vec<f64>,
}

impl RefineOutcome {
    /// Every refiner exit builds its outcome here.
    pub(crate) fn new(
        x: Vec<f64>,
        iterations: usize,
        converged: bool,
        stalled: bool,
        history: Vec<f64>,
    ) -> Self {
        RefineOutcome {
            x,
            iterations,
            converged,
            stalled,
            history,
        }
    }

    /// Least-squares slope of `log10(history)` vs. iteration — the
    /// residual-decay rate (see [`crate::health::decay_slope`]). `None`
    /// with fewer than two usable history points.
    pub fn decay_slope(&self) -> Option<f64> {
        crate::health::decay_slope(&self.history)
    }
}

/// If the engine observed new FP16 overflow→∞ events since `before`, emit
/// a solver-level warning: an Inf-contaminated R preconditioner is the §3.5
/// failure mode, and it surfaces as a mysteriously wrong residual unless
/// made visible here.
fn warn_if_overflowed(eng: &GpuSim, solver: &'static str, before: u64) {
    let after = eng.counters().round.overflow;
    if after > before {
        eng.tracer().warn(
            "solver.preconditioner_overflow",
            &[
                ("solver", Value::from(solver)),
                ("overflow", Value::from(after - before)),
                (
                    "msg",
                    Value::from(
                        "FP16 overflow during the preconditioner factorization; \
                         the R factor may carry Inf/NaN and refinement may stall",
                    ),
                ),
            ],
        );
    }
}

/// Corrupted factors kept by [`OnExhausted::KeepLast`](crate::recovery::OnExhausted::KeepLast)
/// can carry a zero/NaN R diagonal, on which the downstream triangular
/// solve would panic. A bad diagonal is an error while a campaign is armed,
/// and also when the *input* itself was non-finite (`input_poisoned`) — a
/// NaN column poisons R legitimately and must surface as a typed error
/// rather than reach the triangular solve. With faults off and finite
/// input, an exactly-zero diagonal entry (a rank-deficient f32 copy of A)
/// is [`TcqrError::Singular`], and a legitimately overflowed R keeps its
/// historical stall-don't-error behavior (see [`warn_if_overflowed`]).
///
/// The diagonal is read first: `input_poisoned` scans all of the input, so
/// it runs only when some diagonal entry is bad.
fn check_r_usable(
    eng: &GpuSim,
    op: &'static str,
    r: &Mat<f32>,
    input_poisoned: impl FnOnce() -> bool,
) -> Result<(), TcqrError> {
    let Some(j) = (0..r.ncols()).find(|&j| !r[(j, j)].is_finite() || r[(j, j)] == 0.0) else {
        return Ok(());
    };
    if !eng.fault_armed() && !input_poisoned() {
        let Some(j) = (0..r.ncols()).find(|&j| r[(j, j)] == 0.0) else {
            return Ok(());
        };
        return Err(TcqrError::Singular {
            op,
            detail: format!("R diagonal entry {j} is zero; the f32 copy of A is rank-deficient"),
        });
    }
    let d = r[(j, j)];
    Err(TcqrError::NonFinite {
        op,
        detail: format!(
            "R diagonal entry {j} is {d} after fault recovery; \
             the triangular solve cannot proceed"
        ),
    })
}

/// One factorization attempt behind the §3.5 column-scaling safeguard,
/// parameterized by the recovery ladder's knobs: `headroom` extra
/// power-of-two scaling bits ([`crate::recovery::Rung::Rescale`]) and an
/// optional re-orthogonalization pass (the base mode of
/// [`cgls_qr_reortho`]).
///
/// `source` builds the attempt's one f32 working matrix: it is scanned,
/// scaled in place and factored in place into Q, so a retry starts from a
/// fresh copy of the input and no second copy exists beside it.
fn rgsqrf_scaled_attempt(
    eng: &GpuSim,
    source: &impl Fn() -> Mat<f32>,
    cfg: &RgsqrfConfig,
    headroom: u32,
    reortho: bool,
) -> QrFactors {
    let mut work = source();
    let (m, n) = (work.nrows(), work.ncols());
    // Read only by the debug check below; release builds skip the scan.
    let input_finite = cfg!(debug_assertions) && work.all_finite();
    let (scaling, nan_cols) = compute_column_scaling(work.as_ref(), headroom);
    crate::health::warn_nan_columns(eng, "rgsqrf_scaled", &nan_cols);
    let span = eng.tracer().span(
        "rgsqrf_scaled",
        &[
            ("m", Value::from(m)),
            ("n", Value::from(n)),
            ("scaled", Value::from(!scaling.is_identity())),
        ],
    );
    if !scaling.is_identity() {
        scale_columns(work.as_mut(), &scaling);
        crate::health::emit_scaling(eng, &scaling);
        // Two passes over the matrix (scan + scale): bandwidth-bound.
        eng.charge_gemv(Phase::Other, Class::Fp32, m, n);
    }
    let mut factors = factor_in_place(eng, work, cfg);
    if reortho {
        reorthogonalize(eng, &mut factors, cfg);
    }
    unscale_r(factors.r.as_mut(), &scaling);
    // Scaled finite input cannot overflow, so its R diagonal is finite.
    // With an armed fault campaign a non-finite diagonal is expected mid-
    // ladder — the recovery loop, not this guard, handles it there. A NaN
    // or infinite *input* entry (NaN columns are warned above) poisons R
    // legitimately: the caller sees the damage in the factors, not a panic.
    for j in 0..n {
        debug_assert!(
            eng.fault_armed() || !input_finite || factors.r[(j, j)].is_finite(),
            "non-finite R diagonal at {j}"
        );
    }
    drop(span);
    factors
}

/// Shared recovery harness for every solver that factors through the scaled
/// RGSQRF path: checks the `m x n` shape and `cfg` under `op` before the
/// first attempt, then runs each attempt on a working matrix from
/// `source`. `reortho_base` forces the re-orthogonalized pipeline from the
/// first attempt (the [`cgls_qr_reortho`] mode).
fn try_factor_scaled(
    eng: &GpuSim,
    op: &'static str,
    (m, n): (usize, usize),
    source: impl Fn() -> Mat<f32>,
    cfg: &RgsqrfConfig,
    policy: &RecoveryPolicy,
    reortho_base: bool,
) -> Result<QrFactors, TcqrError> {
    cfg.check(op, m, n)?;
    run_with_recovery(
        eng,
        op,
        policy,
        |att| rgsqrf_scaled_attempt(eng, &source, cfg, att.headroom, reortho_base),
        // A usable factorization is finite in both factors.
        |f| f.q.all_finite() && f.r.all_finite(),
    )
}

/// Factor `A` with RGSQRF behind the §3.5 column-scaling safeguard and
/// return factors of the *original* matrix (R un-scaled exactly).
///
/// Thin wrapper over [`try_rgsqrf_scaled`] with the default
/// [`RecoveryPolicy`]; panics with the error's message on invalid shapes
/// (the default ladder itself cannot be exhausted).
pub fn rgsqrf_scaled(eng: &GpuSim, a: &Mat<f32>, cfg: &RgsqrfConfig) -> QrFactors {
    try_rgsqrf_scaled(eng, a, cfg, &RecoveryPolicy::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`rgsqrf_scaled`]: when a fault campaign is armed on the
/// engine, detected corruptions retry up `policy`'s escalation ladder; with
/// faults off this is a single attempt, bit-identical to the historical
/// behavior. The shape and `cfg` are checked before anything runs.
///
/// Each attempt clones `a` once into its working matrix, which becomes the
/// returned Q; `a` itself is only read.
pub fn try_rgsqrf_scaled(
    eng: &GpuSim,
    a: &Mat<f32>,
    cfg: &RgsqrfConfig,
    policy: &RecoveryPolicy,
) -> Result<QrFactors, TcqrError> {
    let shape = (a.nrows(), a.ncols());
    try_factor_scaled(
        eng,
        "rgsqrf_scaled",
        shape,
        || a.clone(),
        cfg,
        policy,
        false,
    )
}

/// "RGSQRF Direct Solver": `x = R \ (Q^T b)` from the mixed-precision QR.
pub fn rgsqrf_direct(eng: &GpuSim, a: &Mat<f32>, b: &[f32], cfg: &RgsqrfConfig) -> Vec<f32> {
    try_rgsqrf_direct(eng, a, b, cfg, &RecoveryPolicy::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`rgsqrf_direct`] returning typed errors for bad shapes
/// and exhausted recovery ladders.
pub fn try_rgsqrf_direct(
    eng: &GpuSim,
    a: &Mat<f32>,
    b: &[f32],
    cfg: &RgsqrfConfig,
    policy: &RecoveryPolicy,
) -> Result<Vec<f32>, TcqrError> {
    let m = a.nrows();
    let n = a.ncols();
    if m < n {
        return Err(TcqrError::shape(
            "rgsqrf_direct",
            format!("need m >= n (got {m} x {n})"),
        ));
    }
    if b.len() != m {
        return Err(TcqrError::shape(
            "rgsqrf_direct",
            format!("rhs length {} does not match m = {m}", b.len()),
        ));
    }
    let f = try_rgsqrf_scaled(eng, a, cfg, policy)?;
    check_r_usable(eng, "rgsqrf_direct", &f.r, || {
        !a.all_finite() || b.iter().any(|v| !v.is_finite())
    })?;
    let mut x = vec![0.0f32; n];
    gemv(1.0, Op::Trans, f.q.as_ref(), b, 0.0, &mut x);
    trsv_upper(Op::NoTrans, f.r.as_ref(), &mut x);
    cost::direct_solve(eng, m, n);
    Ok(x)
}

/// cuSOLVER-style single precision direct solver:
/// `SGEQRF + SORMQR + STRSM`.
pub fn scusolve(eng: &GpuSim, a: &Mat<f32>, b: &[f32]) -> Vec<f32> {
    try_scusolve(eng, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// Typed-error variant of [`scusolve`]. The Householder factorization runs
/// off-engine, so no recovery policy applies. A rank-deficient `A` whose R
/// has an exactly-zero diagonal entry returns [`TcqrError::Singular`].
pub fn try_scusolve(eng: &GpuSim, a: &Mat<f32>, b: &[f32]) -> Result<Vec<f32>, TcqrError> {
    try_cusolve(eng, "scusolve", Class::Fp32, a, b)
}

/// The one body of the cuSOLVER-style baselines, charged in `class`:
/// Householder QR, then `Singular` if R has an exactly-zero diagonal entry
/// (which the triangular solve would divide by), then `Q^T b` and the
/// back-solve.
fn try_cusolve<T: Real>(
    eng: &GpuSim,
    op: &'static str,
    class: Class,
    a: &Mat<T>,
    b: &[T],
) -> Result<Vec<T>, TcqrError> {
    let (m, n) = (a.nrows(), a.ncols());
    TcqrError::check_lls_shape(op, m, n, b.len())?;
    let h = Householder::factor(a.clone());
    cost::geqrf(eng, class, m, n);
    if let Some(j) = h.r_diagonal().position(|d| d == T::ZERO) {
        return Err(TcqrError::Singular {
            op,
            detail: format!("R diagonal entry {j} is zero; A is rank-deficient"),
        });
    }
    let x = h.solve_lls(b);
    cost::ormqr_trsv(eng, class, m, n);
    Ok(x)
}

/// cuSOLVER-style double precision direct solver:
/// `DGEQRF + DORMQR + DTRSM`.
pub fn dcusolve(eng: &GpuSim, a: &Mat<f64>, b: &[f64]) -> Vec<f64> {
    try_dcusolve(eng, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// Typed-error variant of [`dcusolve`], with [`try_scusolve`]'s
/// [`TcqrError::Singular`] check.
pub fn try_dcusolve(eng: &GpuSim, a: &Mat<f64>, b: &[f64]) -> Result<Vec<f64>, TcqrError> {
    try_cusolve(eng, "dcusolve", Class::Fp64, a, b)
}

/// The front end every iterative LLS solver shares: check the shape and
/// `qr_cfg`, factor an f32 copy of `A` behind the §3.5 column scaling and
/// the recovery ladder, check that R can precondition, warn on new fp16
/// overflow, and widen R to f64. `op` names the solver in errors and
/// warnings. The ladder runs as `rgsqrf_scaled`; with `reortho` it runs the
/// re-orthogonalized pipeline from the first attempt, as `op`.
///
/// Each attempt converts `A` to f32 straight into its one working matrix
/// (scaled and factored in place); no f32 copy of `A` outlives an attempt.
fn preconditioner(
    eng: &GpuSim,
    op: &'static str,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    policy: &RecoveryPolicy,
    reortho: bool,
) -> Result<Mat<f64>, TcqrError> {
    let shape = (a.nrows(), a.ncols());
    TcqrError::check_lls_shape(op, shape.0, shape.1, b.len())?;
    let overflow_before = eng.counters().round.overflow;
    let ladder_op = if reortho { op } else { "rgsqrf_scaled" };
    let f = try_factor_scaled(
        eng,
        ladder_op,
        shape,
        || a.convert(),
        qr_cfg,
        policy,
        reortho,
    )?;
    // Exactly `!a.convert::<f32>().all_finite()`, without the copy.
    check_r_usable(eng, op, &f.r, || {
        a.data().iter().any(|&x| !(x as f32).is_finite())
    })?;
    warn_if_overflowed(eng, op, overflow_before);
    Ok(f.r.convert())
}

/// The span shell of the preconditioned refiners: `body` runs inside a
/// `solver` span that closes with the outcome plus the residual-decay
/// health summary (slope of log10(rel) per iteration, and whether the
/// stagnation guard fired).
fn solve_span(
    eng: &GpuSim,
    solver: &str,
    a: &Mat<f64>,
    refine: &RefineConfig,
    body: impl FnOnce(&Tracer) -> RefineOutcome,
) -> RefineOutcome {
    let tracer = eng.tracer();
    let span = SolveOpen {
        m: a.nrows() as u64,
        n: a.ncols() as u64,
        tol: refine.tol,
        max_iters: refine.max_iters as u64,
    }
    .open(&tracer, solver);
    let out = body(&tracer);
    SolveClose {
        iterations: out.iterations as u64,
        converged: out.converged,
        final_rel: Some(out.history.last().copied().unwrap_or(0.0)),
        stalled: out.stalled,
        decay_slope: out.decay_slope(),
    }
    .close(span);
    out
}

/// The CGLS/LSQR stagnation guard: a refiner at its roundoff floor (or on a
/// damaged preconditioner) keeps iterating without shrinking its residual.
/// It fires after five iterations in a row that miss the best residual so
/// far by less than 0.1%.
struct Stagnation {
    best: f64,
    strikes: usize,
}

impl Stagnation {
    fn new() -> Self {
        Stagnation {
            best: f64::INFINITY,
            strikes: 0,
        }
    }

    /// Record this iteration's residual norm; true once the guard fires.
    fn stalled(&mut self, norm: f64) -> bool {
        if norm >= self.best * 0.999 {
            self.strikes += 1;
            self.strikes >= 5
        } else {
            self.best = norm;
            self.strikes = 0;
            false
        }
    }
}

/// Algorithm 3: CGLS with the RGSQRF `R` factor as right preconditioner.
///
/// The QR factorization runs in mixed precision on the engine; the
/// refinement loop runs in `f64` (which is what lets the paper report
/// *double precision accuracy* from a half-precision factorization).
pub fn cgls_qr(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    refine: &RefineConfig,
) -> RefineOutcome {
    try_cgls_qr(eng, a, b, qr_cfg, refine, &RecoveryPolicy::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`cgls_qr`]: the mixed-precision preconditioner
/// factorization runs behind `policy`'s recovery ladder (the `f64`
/// refinement loop itself runs off-engine and needs no protection).
pub fn try_cgls_qr(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    refine: &RefineConfig,
    policy: &RecoveryPolicy,
) -> Result<RefineOutcome, TcqrError> {
    let r = preconditioner(eng, "cgls_qr", a, b, qr_cfg, policy, false)?;
    Ok(cgls_preconditioned(eng, a, b, &r, refine))
}

/// CGLS on `min || (A R^{-1}) y - b ||` with `x = R^{-1} y` tracked
/// directly, given an explicit upper-triangular preconditioner.
///
/// Opens a `cgls` trace span; each iteration emits a `cgls.iter` op event
/// carrying the iteration number and the relative preconditioned residual,
/// so the returned `history` also exists as a trace.
pub fn cgls_preconditioned(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    r_pre: &Mat<f64>,
    refine: &RefineConfig,
) -> RefineOutcome {
    solve_span(eng, "cgls", a, refine, |tracer| {
        cgls_inner(eng, tracer, a, b, r_pre, refine)
    })
}

fn cgls_inner(
    eng: &GpuSim,
    tracer: &Tracer,
    a: &Mat<f64>,
    b: &[f64],
    r_pre: &Mat<f64>,
    refine: &RefineConfig,
) -> RefineOutcome {
    let m = a.nrows();
    let n = a.ncols();
    let mut x = vec![0.0f64; n];
    let mut res = b.to_vec(); // r = b - A x (x = 0)

    // s = R^{-T} A^T r
    let mut s = vec![0.0f64; n];
    gemv(1.0, Op::Trans, a.as_ref(), &res, 0.0, &mut s);
    trsv_upper(Op::Trans, r_pre.as_ref(), &mut s);
    cost::refine_iter(eng, m, n); // setup costs ~one iteration

    let norm_s0 = nrm2(&s);
    if norm_s0 == 0.0 {
        return RefineOutcome::new(x, 0, true, false, vec![]);
    }
    let mut gamma = norm_s0 * norm_s0;
    let mut p = s.clone();
    let mut t = vec![0.0f64; n];
    let mut q = vec![0.0f64; m];
    let mut history = Vec::new();
    let mut guard = Stagnation::new();

    for it in 1..=refine.max_iters {
        // t = R^{-1} p ; q = A t
        t.copy_from_slice(&p);
        trsv_upper(Op::NoTrans, r_pre.as_ref(), &mut t);
        gemv(1.0, Op::NoTrans, a.as_ref(), &t, 0.0, &mut q);
        let delta = densemat::blas1::dot(&q, &q);
        if delta == 0.0 || !delta.is_finite() {
            return RefineOutcome::new(x, it - 1, false, false, history);
        }
        let alpha = gamma / delta;
        densemat::blas1::axpy(alpha, &t, &mut x);
        densemat::blas1::axpy(-alpha, &q, &mut res);

        // s = R^{-T} A^T r
        gemv(1.0, Op::Trans, a.as_ref(), &res, 0.0, &mut s);
        trsv_upper(Op::Trans, r_pre.as_ref(), &mut s);
        cost::refine_iter(eng, m, n);

        let norm_s = nrm2(&s);
        let rel = norm_s / norm_s0;
        history.push(rel);
        tracer.op(
            "cgls.iter",
            &[("iter", Value::from(it)), ("rel", Value::from(rel))],
        );
        if rel <= refine.tol {
            return RefineOutcome::new(x, it, true, false, history);
        }
        if guard.stalled(norm_s) {
            return RefineOutcome::new(x, it, false, true, history);
        }

        let gamma_new = norm_s * norm_s;
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        for (pi, &si) in p.iter_mut().zip(&s) {
            *pi = si + beta * *pi;
        }
    }
    RefineOutcome::new(x, refine.max_iters, false, false, history)
}

/// Extension beyond the paper: CGLS preconditioned by the R factor of
/// **RGSQRF-Reortho** instead of plain RGSQRF.
///
/// §4.2.2 reports that the geometric singular value distribution is a
/// stress case: at cond 1e4 the plain pipeline needs 200 iterations and
/// cannot reach double precision. The reason is that the one-pass
/// Gram-Schmidt R inherits the Q factor's loss of orthogonality, so
/// `kappa(A R^{-1})` blows up with many small singular values. The
/// re-orthogonalized factorization's combined `R = R2 R1` is a much better
/// triangular factor of A; measured here, it converts that stress case into
/// ~20 convergent iterations at double precision, for one extra RGSQRF pass
/// (still several times cheaper than a DGEQRF solve). Breakdown still occurs
/// once `kappa` approaches the fp16 horizon (~1e6).
pub fn cgls_qr_reortho(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    refine: &RefineConfig,
) -> RefineOutcome {
    try_cgls_qr_reortho(eng, a, b, qr_cfg, refine, &RecoveryPolicy::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`cgls_qr_reortho`]: shares the scaled-factorization
/// attempt path with [`try_rgsqrf_scaled`], with re-orthogonalization on
/// from the first attempt.
pub fn try_cgls_qr_reortho(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    refine: &RefineConfig,
    policy: &RecoveryPolicy,
) -> Result<RefineOutcome, TcqrError> {
    let r = preconditioner(eng, "cgls_qr_reortho", a, b, qr_cfg, policy, true)?;
    Ok(cgls_preconditioned(eng, a, b, &r, refine))
}

/// LSQR (Paige & Saunders 1982) with the RGSQRF `R` right preconditioner.
///
/// Mathematically equivalent to CGLS but built on Golub–Kahan
/// bidiagonalization, which keeps the recurrence better conditioned; the
/// ablation benchmarks compare the two refiners' iteration counts.
pub fn lsqr_qr(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    refine: &RefineConfig,
) -> RefineOutcome {
    try_lsqr_qr(eng, a, b, qr_cfg, refine, &RecoveryPolicy::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`lsqr_qr`], mirroring [`try_cgls_qr`].
pub fn try_lsqr_qr(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    qr_cfg: &RgsqrfConfig,
    refine: &RefineConfig,
    policy: &RecoveryPolicy,
) -> Result<RefineOutcome, TcqrError> {
    let r = preconditioner(eng, "lsqr_qr", a, b, qr_cfg, policy, false)?;
    Ok(lsqr_preconditioned(eng, a, b, &r, refine))
}

/// LSQR on `B = A R^{-1}`, accumulating `x = R^{-1} y` at the end.
///
/// Opens an `lsqr` trace span; each iteration emits an `lsqr.iter` op
/// event with the iteration number and the relative residual estimate.
pub fn lsqr_preconditioned(
    eng: &GpuSim,
    a: &Mat<f64>,
    b: &[f64],
    r_pre: &Mat<f64>,
    refine: &RefineConfig,
) -> RefineOutcome {
    solve_span(eng, "lsqr", a, refine, |tracer| {
        lsqr_inner(eng, tracer, a, b, r_pre, refine)
    })
}

fn lsqr_inner(
    eng: &GpuSim,
    tracer: &Tracer,
    a: &Mat<f64>,
    b: &[f64],
    r_pre: &Mat<f64>,
    refine: &RefineConfig,
) -> RefineOutcome {
    let m = a.nrows();
    let n = a.ncols();

    // Operator applications for B = A R^{-1}.
    let apply_b = |v: &[f64], out: &mut [f64]| {
        let mut t = v.to_vec();
        trsv_upper(Op::NoTrans, r_pre.as_ref(), &mut t);
        gemv(1.0, Op::NoTrans, a.as_ref(), &t, 0.0, out);
    };
    let apply_bt = |u: &[f64], out: &mut [f64]| {
        gemv(1.0, Op::Trans, a.as_ref(), u, 0.0, out);
        trsv_upper(Op::Trans, r_pre.as_ref(), out);
    };

    // beta_1 u_1 = b
    let mut u = b.to_vec();
    let mut beta = nrm2(&u);
    if beta == 0.0 {
        return RefineOutcome::new(vec![0.0; n], 0, true, false, vec![]);
    }
    densemat::blas1::scal(1.0 / beta, &mut u);
    // alpha_1 v_1 = B^T u_1
    let mut v = vec![0.0f64; n];
    apply_bt(&u, &mut v);
    let mut alpha = nrm2(&v);
    if alpha > 0.0 {
        densemat::blas1::scal(1.0 / alpha, &mut v);
    }
    cost::refine_iter(eng, m, n);

    let mut w = v.clone();
    let mut y = vec![0.0f64; n];
    let mut phi_bar = beta;
    let mut rho_bar = alpha;
    let s0 = alpha * beta; // ||B^T r_0||
    let mut history = Vec::new();
    let mut converged = false;
    let mut stalled = false;
    let mut iterations = 0;
    let mut tmp_m = vec![0.0f64; m];
    let mut tmp_n = vec![0.0f64; n];
    let mut guard = Stagnation::new();

    for it in 1..=refine.max_iters {
        iterations = it;
        // beta u = B v - alpha u
        apply_b(&v, &mut tmp_m);
        for (ui, &ti) in u.iter_mut().zip(&tmp_m) {
            *ui = ti - alpha * *ui;
        }
        beta = nrm2(&u);
        if beta > 0.0 {
            densemat::blas1::scal(1.0 / beta, &mut u);
        }
        // alpha v = B^T u - beta v
        apply_bt(&u, &mut tmp_n);
        for (vi, &ti) in v.iter_mut().zip(&tmp_n) {
            *vi = ti - beta * *vi;
        }
        alpha = nrm2(&v);
        if alpha > 0.0 {
            densemat::blas1::scal(1.0 / alpha, &mut v);
        }
        cost::refine_iter(eng, m, n);

        // Givens rotation eliminating beta.
        let rho = (rho_bar * rho_bar + beta * beta).sqrt();
        let c = rho_bar / rho;
        let s = beta / rho;
        let theta = s * alpha;
        rho_bar = -c * alpha;
        let phi = c * phi_bar;
        phi_bar *= s;

        // y += (phi / rho) w ; w = v - (theta / rho) w
        let t1 = phi / rho;
        let t2 = -theta / rho;
        for ((yi, wi), &vi) in y.iter_mut().zip(w.iter_mut()).zip(&v) {
            *yi += t1 * *wi;
            *wi = vi + t2 * *wi;
        }

        // ||B^T r_k|| = phi_bar * alpha * |c| — LSQR's standard estimate.
        let snorm = phi_bar * alpha * c.abs();
        // s0 == 0 means B^T b == 0, solved by y = 0; a NaN s0 gives a NaN
        // estimate, which stops the loop below.
        let rel = if s0 == 0.0 { 0.0 } else { snorm / s0 };
        history.push(rel);
        tracer.op(
            "lsqr.iter",
            &[("iter", Value::from(it)), ("rel", Value::from(rel))],
        );
        if rel <= refine.tol {
            converged = true;
            break;
        }
        // A NaN in A, b or the preconditioner: the estimate can never
        // reach the tolerance, so stop without converging.
        if rel.is_nan() {
            break;
        }
        // Without the guard a damaged preconditioner burns the full
        // iteration cap.
        if guard.stalled(snorm) {
            stalled = true;
            break;
        }
    }

    // x = R^{-1} y
    let mut x = y;
    trsv_upper(Op::NoTrans, r_pre.as_ref(), &mut x);
    eng.charge_trsv(Phase::Refine, Class::Fp64, n);
    RefineOutcome::new(x, iterations, converged, stalled, history)
}

/// The normal equations method: Cholesky of `A^T A` (fast, but squares the
/// condition number — the unstable contrast of §2.2).
pub fn normal_equations<T: Real>(a: &Mat<T>, b: &[T]) -> Result<Vec<T>, NotPositiveDefinite> {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n && b.len() == m, "normal_equations: shape mismatch");
    let mut g: Mat<T> = Mat::zeros(n, n);
    gemm(T::ONE, Op::Trans, a.as_ref(), Op::NoTrans, a.as_ref(), T::ZERO, g.as_mut());
    potrf_upper(g.as_mut())?;
    // Solve U^T U x = A^T b.
    let mut x = vec![T::ZERO; n];
    gemv(T::ONE, Op::Trans, a.as_ref(), b, T::ZERO, &mut x);
    trsv_upper(Op::Trans, g.as_ref(), &mut x);
    trsv_upper(Op::NoTrans, g.as_ref(), &mut x);
    Ok(x)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::{lls_accuracy, rel_vec_error};
    use tensor_engine::GpuSim;

    fn small_cfg() -> RgsqrfConfig {
        RgsqrfConfig {
            cutoff: 32,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        }
    }

    fn problem(m: usize, n: usize, cond: f64, seed: u64) -> (Mat<f64>, Vec<f64>) {
        let a = gen::rand_svd(m, n, gen::Spectrum::Geometric { cond }, &mut rng(seed));
        let b: Vec<f64> = (0..m).map(|i| ((i * 37 + 11) as f64 * 0.01).sin()).collect();
        (a, b)
    }

    #[test]
    fn direct_rgsqrf_is_half_precision_grade() {
        let eng = GpuSim::default();
        let (a, b) = problem(512, 64, 10.0, 1);
        let a32: Mat<f32> = a.convert();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let x = rgsqrf_direct(&eng, &a32, &b32, &small_cfg());
        let x64: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let acc = lls_accuracy(a.as_ref(), &x64, &b);
        // Usable but far from double precision.
        assert!(acc < 1e-1, "direct accuracy {acc}");
        assert!(acc > 1e-12, "implausibly accurate for fp16 factors: {acc}");
    }

    #[test]
    fn cgls_reaches_double_precision_class_accuracy() {
        let eng = GpuSim::default();
        let (a, b) = problem(512, 64, 100.0, 2);
        let out = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        assert!(out.converged, "CGLS did not converge: {:?}", out.history);
        assert!(out.iterations <= 30, "took {} iterations", out.iterations);
        let acc = lls_accuracy(a.as_ref(), &out.x, &b);
        // Same class as the double precision direct solver below.
        let dx = dcusolve(&GpuSim::default(), &a, &b);
        let dacc = lls_accuracy(a.as_ref(), &dx, &b);
        assert!(
            acc <= dacc * 100.0 + 1e-12,
            "CGLS {acc} vs DGEQRF {dacc}"
        );
    }

    #[test]
    fn cgls_matches_reference_solution() {
        let eng = GpuSim::default();
        let (a, b) = problem(400, 48, 1e3, 3);
        let out = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        let xref = dcusolve(&GpuSim::default(), &a, &b);
        let err = rel_vec_error(&out.x, &xref);
        assert!(err < 1e-8, "solution error vs reference: {err}");
    }

    #[test]
    fn cgls_iterations_grow_with_condition_number() {
        let eng = GpuSim::default();
        let mut iters = Vec::new();
        for (seed, cond) in [(4u64, 10.0), (5, 1e4)] {
            let (a, b) = problem(384, 48, cond, seed);
            let out = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
            iters.push(out.iterations);
        }
        assert!(
            iters[1] >= iters[0],
            "harder problem should need at least as many iterations: {iters:?}"
        );
    }

    #[test]
    fn cgls_residual_history_is_decreasing_overall() {
        let eng = GpuSim::default();
        let (a, b) = problem(300, 32, 1e3, 6);
        let out = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        let first = out.history.first().copied().unwrap_or(1.0);
        let last = out.history.last().copied().unwrap();
        assert!(last < first, "history should decay: {:?}", out.history);
    }

    #[test]
    fn reortho_preconditioner_rescues_the_geometric_stress_case() {
        // §4.2.2's stress case, fixed by the extension: plain CGLS stalls,
        // reortho-preconditioned CGLS converges to double-class accuracy.
        // The spectrum is geometric, sigma_i = kappa^{-i/(n-1)}: many small
        // singular values against the row count. At kappa = 1e5,
        // kappa * u16 ~ 50 > 1, so the fp16 update has lost the small
        // directions from the plain R, R^{-1} does not precondition them,
        // and plain CGLS stalls whatever the draw of the singular vectors.
        let (m, n, kappa) = (768, 128, 1e5);
        let sigma: Vec<f64> = (0..n)
            .map(|i| f64::powf(kappa, -(i as f64) / (n - 1) as f64))
            .collect();
        let a = gen::with_singular_values(m, n, &sigma, &mut rng(50));
        let b: Vec<f64> = (0..m).map(|i| ((i * 37 + 11) as f64 * 0.01).sin()).collect();
        let eng = GpuSim::default();
        let plain = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        let fixed = cgls_qr_reortho(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        let acc_plain = lls_accuracy(a.as_ref(), &plain.x, &b);
        let acc_fixed = lls_accuracy(a.as_ref(), &fixed.x, &b);
        // At this kappa the re-orthogonalized solve reaches ~1e-11 but its
        // residual floor sits above the 1e-12 tolerance, so the verdict is
        // on accuracy, not on the converged flag.
        assert!(!plain.converged, "plain CGLS should stall (accuracy {acc_plain})");
        assert!(
            acc_fixed < 1e-8,
            "reortho-CGLS accuracy {acc_fixed}"
        );
        assert!(
            acc_fixed < acc_plain / 100.0,
            "plain {acc_plain} vs reortho {acc_fixed}"
        );
    }

    #[test]
    fn lsqr_agrees_with_cgls() {
        let eng = GpuSim::default();
        let (a, b) = problem(300, 40, 1e3, 7);
        let c = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        let l = lsqr_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        let err = rel_vec_error(&l.x, &c.x);
        assert!(err < 1e-6, "LSQR vs CGLS solutions differ: {err}");
        assert!(l.converged);
    }

    #[test]
    fn single_vs_double_cusolve_accuracy_gap() {
        let (a, b) = problem(400, 48, 1e4, 8);
        let eng = GpuSim::default();
        let xs = scusolve(&eng, &a.convert(), &b.iter().map(|&x| x as f32).collect::<Vec<_>>());
        let xd = dcusolve(&eng, &a, &b);
        let accs = lls_accuracy(a.as_ref(), &xs.iter().map(|&v| v as f64).collect::<Vec<_>>(), &b);
        let accd = lls_accuracy(a.as_ref(), &xd, &b);
        assert!(accd < accs, "double ({accd}) must beat single ({accs})");
        assert!(accd < 1e-10);
    }

    #[test]
    fn normal_equations_works_when_well_conditioned() {
        let (a, b) = problem(200, 24, 10.0, 9);
        let x = normal_equations(&a, &b).expect("SPD");
        let xref = dcusolve(&GpuSim::default(), &a, &b);
        assert!(rel_vec_error(&x, &xref) < 1e-9);
    }

    #[test]
    fn normal_equations_fails_or_degrades_when_ill_conditioned() {
        // kappa^2 = 1e16 swamps f64: Cholesky either fails or the solution
        // is garbage relative to the QR reference.
        let (a, b) = problem(200, 24, 1e8, 10);
        match normal_equations(&a, &b) {
            Err(_) => {} // not positive definite numerically: expected
            Ok(x) => {
                let xref = dcusolve(&GpuSim::default(), &a, &b);
                let err = rel_vec_error(&x, &xref);
                assert!(err > 1e-6, "normal equations suspiciously good: {err}");
            }
        }
    }

    #[test]
    fn refinement_time_is_charged() {
        let eng = GpuSim::default();
        let (a, b) = problem(256, 32, 100.0, 11);
        let _ = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        assert!(eng.ledger().get(Phase::Refine) > 0.0);
        // The 256x32 QR is a single panel at this cutoff: factorization time
        // lands in the Panel phase.
        assert!(eng.ledger().get(Phase::Panel) > 0.0, "QR time also charged");
    }

    #[test]
    fn try_variants_report_typed_shape_errors() {
        let eng = GpuSim::default();
        let (a, b) = problem(64, 16, 10.0, 13);
        let policy = RecoveryPolicy::default();
        let refine = RefineConfig::default();

        let err = try_cgls_qr(&eng, &a, &b[..10], &small_cfg(), &refine, &policy).unwrap_err();
        assert!(matches!(err, TcqrError::ShapeMismatch { op: "cgls_qr", .. }), "{err}");
        assert!(err.to_string().starts_with("cgls_qr: shape mismatch"), "{err}");

        let err = try_lsqr_qr(&eng, &a, &b[..10], &small_cfg(), &refine, &policy).unwrap_err();
        assert_eq!(err.op(), "lsqr_qr");

        let err = try_cgls_qr_reortho(&eng, &a, &b[..10], &small_cfg(), &refine, &policy)
            .unwrap_err();
        assert_eq!(err.op(), "cgls_qr_reortho");

        let a32: Mat<f32> = a.convert();
        let err =
            try_rgsqrf_direct(&eng, &a32, &[0.0f32; 10], &small_cfg(), &policy).unwrap_err();
        assert!(err.to_string().contains("rhs length"), "{err}");

        let wide: Mat<f32> = gen::gaussian(8, 16, &mut rng(14)).convert();
        let err = try_rgsqrf_scaled(&eng, &wide, &small_cfg(), &policy).unwrap_err();
        assert!(err.to_string().contains("need m >= n"), "{err}");

        // A configuration RGSQRF cannot run is an error from every entry,
        // checked before the first attempt.
        let bad_cfgs = [
            (
                RgsqrfConfig {
                    cutoff: 0,
                    ..small_cfg()
                },
                "cutoff and CAQR width",
            ),
            (
                RgsqrfConfig {
                    caqr_width: 0,
                    ..small_cfg()
                },
                "cutoff and CAQR width",
            ),
            (
                RgsqrfConfig {
                    caqr_block_rows: 15,
                    ..small_cfg()
                },
                "2x CAQR width",
            ),
        ];
        for (cfg, msg) in &bad_cfgs {
            let errs = [
                try_rgsqrf_scaled(&eng, &a32, cfg, &policy).map(drop),
                try_cgls_qr(&eng, &a, &b, cfg, &refine, &policy).map(drop),
                try_lsqr_qr(&eng, &a, &b, cfg, &refine, &policy).map(drop),
                try_cgls_qr_reortho(&eng, &a, &b, cfg, &refine, &policy).map(drop),
                try_rgsqrf_direct(&eng, &a32, &[0.0f32; 64], cfg, &policy).map(drop),
            ];
            for err in errs {
                let err = err.unwrap_err();
                assert!(matches!(err, TcqrError::ShapeMismatch { .. }), "{err}");
                assert!(err.to_string().contains(msg), "{cfg:?}: {err}");
            }
        }
        // Nothing was charged to the engine on any rejected call.
        assert_eq!(eng.clock(), 0.0);
    }

    #[test]
    fn zero_r_diagonal_is_singular_not_a_panic() {
        // Column 3, brought to a largest entry of 0.05 and scaled by 1e-44,
        // lies below half of f32's smallest subnormal (2^-150, about 7e-46):
        // it converts to an all-zero f32 column, so the f32 R carries an
        // exactly-zero diagonal entry while the f64 input stays finite.
        let (mut a, b) = problem(64, 16, 10.0, 13);
        let amax = a.col(3).iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for x in a.col_mut(3) {
            *x *= 0.05 / amax * 1e-44;
        }
        let a32: Mat<f32> = a.convert();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        assert!(a32.col(3).iter().all(|&x| x == 0.0));
        let eng = GpuSim::default();
        let policy = RecoveryPolicy::default();
        let refine = RefineConfig::default();
        let errs = [
            try_cgls_qr(&eng, &a, &b, &small_cfg(), &refine, &policy).map(drop),
            try_lsqr_qr(&eng, &a, &b, &small_cfg(), &refine, &policy).map(drop),
            try_cgls_qr_reortho(&eng, &a, &b, &small_cfg(), &refine, &policy).map(drop),
            try_rgsqrf_direct(&eng, &a32, &b32, &small_cfg(), &policy).map(drop),
        ];
        let ops = ["cgls_qr", "lsqr_qr", "cgls_qr_reortho", "rgsqrf_direct"];
        for (err, op) in errs.into_iter().zip(ops) {
            let err = err.unwrap_err();
            assert!(matches!(err, TcqrError::Singular { .. }), "{err}");
            assert_eq!(err.op(), op);
            assert!(err.to_string().contains("R diagonal entry 3 is zero"), "{err}");
        }
    }

    #[test]
    fn direct_baselines_report_a_zero_column_as_singular() {
        let (mut a, b) = problem(32, 8, 10.0, 5);
        a.col_mut(3).fill(0.0);
        let a32: Mat<f32> = a.convert();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let eng = GpuSim::default();
        let errs = [
            ("scusolve", try_scusolve(&eng, &a32, &b32).map(drop)),
            ("dcusolve", try_dcusolve(&eng, &a, &b).map(drop)),
        ];
        for (op, err) in errs {
            let err = err.unwrap_err();
            assert!(matches!(err, TcqrError::Singular { .. }), "{err}");
            assert_eq!(err.op(), op);
            assert!(err.to_string().contains("R diagonal entry 3 is zero"), "{err}");
        }
    }

    /// The scaled front end as it was composed before each attempt got one
    /// working matrix: the caller's f32 copy, a clone to scale, a second
    /// copy inside `rgsqrf`, then `unscale_r`.
    fn oracle_scaled(
        eng: &GpuSim,
        a: &Mat<f32>,
        cfg: &RgsqrfConfig,
        policy: &RecoveryPolicy,
    ) -> Result<QrFactors, TcqrError> {
        let attempt = |att: &crate::recovery::Attempt| {
            let (scaling, _) = compute_column_scaling(a.as_ref(), att.headroom);
            if scaling.is_identity() {
                return crate::rgsqrf::rgsqrf(eng, a.as_ref(), cfg);
            }
            let mut ap = a.clone();
            scale_columns(ap.as_mut(), &scaling);
            eng.charge_gemv(Phase::Other, Class::Fp32, a.nrows(), a.ncols());
            let mut f = crate::rgsqrf::rgsqrf(eng, ap.as_ref(), cfg);
            unscale_r(f.r.as_mut(), &scaling);
            f
        };
        run_with_recovery(eng, "rgsqrf_scaled", policy, attempt, |f| {
            f.q.all_finite() && f.r.all_finite()
        })
    }

    /// [`oracle_scaled`] behind the old CGLS front end: convert, factor,
    /// then the eager input scan of the R-diagonal check.
    fn oracle_cgls(
        eng: &GpuSim,
        a: &Mat<f64>,
        b: &[f64],
        cfg: &RgsqrfConfig,
        policy: &RecoveryPolicy,
    ) -> Result<RefineOutcome, TcqrError> {
        let a32: Mat<f32> = a.convert();
        let f = oracle_scaled(eng, &a32, cfg, policy)?;
        if eng.fault_armed() || !a32.all_finite() {
            for j in 0..f.r.ncols() {
                let d = f.r[(j, j)];
                if !d.is_finite() || d == 0.0 {
                    return Err(TcqrError::NonFinite {
                        op: "cgls_qr",
                        detail: format!(
                            "R diagonal entry {j} is {d} after fault recovery; \
                             the triangular solve cannot proceed"
                        ),
                    });
                }
            }
        }
        Ok(cgls_preconditioned(
            eng,
            a,
            b,
            &f.r.convert(),
            &RefineConfig::default(),
        ))
    }

    fn bits(m: &Mat<f32>) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Clock, work counters and fault tallies of an engine, exactly.
    fn engine_state(eng: &GpuSim) -> (u64, String, String) {
        let c = eng.counters();
        (
            eng.clock().to_bits(),
            format!("{c:?}"),
            format!("{:?}", eng.fault_stats()),
        )
    }

    /// `try_rgsqrf_scaled` and `try_cgls_qr` match the old composition bit
    /// for bit: Q, R, x, errors, the engine clock and its counters. Each
    /// input runs unarmed and under two armed plans, one that forces a
    /// single retry and one that climbs the whole ladder (through the
    /// rescale rung), so every retry rebuilds its working matrix.
    #[test]
    fn scaled_front_end_matches_the_copying_composition_bit_for_bit() {
        use std::sync::Arc;
        use tcqr_trace::MemSink;
        use tensor_engine::{EngineConfig, FaultKind, FaultPlan};
        let (m, n) = (96, 48);
        let cfg = small_cfg();
        let b: Vec<f64> = (0..m)
            .map(|i| ((i * 37 + 11) as f64 * 0.01).sin())
            .collect();
        let in_range = {
            // Every column's largest entry in [0.5, 1): identity scaling.
            let mut a = gen::uniform_pm1(m, n, &mut rng(21));
            for j in 0..n {
                a[(j, j)] = 0.75;
            }
            a
        };
        let scaled = gen::badly_scaled(m, n, 8.0, &mut rng(22));
        let with = |edit: &dyn Fn(&mut Mat<f64>)| {
            let mut a = scaled.clone();
            edit(&mut a);
            a
        };
        let cases = [
            ("identity scaling", in_range),
            ("scaled", scaled.clone()),
            ("NaN column", with(&|a| a[(5, 3)] = f64::NAN)),
            (
                "+-inf entries",
                with(&|a| {
                    a[(0, 2)] = f64::INFINITY;
                    a[(9, 7)] = f64::NEG_INFINITY;
                }),
            ),
            ("f64 overflowing f32", with(&|a| a[(4, 1)] = -1e39)),
            // Column maxima 2^-130 and 2^-140, below f32's normal range.
            (
                "subnormal column maxima",
                with(&|a| {
                    for (j, e) in [(0, -130), (6, -140)] {
                        let amax = a.col(j).iter().fold(0.0f64, |m, x| m.max(x.abs()));
                        for i in 0..m {
                            a[(i, j)] *= 2f64.powi(e) / amax;
                        }
                    }
                }),
            ),
        ];
        let plans: [(&str, Option<u64>); 3] = [
            ("unarmed", None),
            ("one retry", Some(1)),
            ("full ladder", Some(1000)),
        ];
        let policy = RecoveryPolicy::default();
        for (label, a) in &cases {
            let a32: Mat<f32> = a.convert();
            for (mode, budget) in plans {
                // Two like engines, each with the count of recovery retries
                // its tracer has seen.
                let engines = || {
                    [(); 2].map(|_| {
                        let sink = Arc::new(MemSink::new());
                        let eng =
                            GpuSim::with_tracer(EngineConfig::default(), Tracer::new(sink.clone()));
                        if let Some(max_faults) = budget {
                            let mut plan = FaultPlan::new(7, vec![FaultKind::NanColumn]);
                            plan.period = 1;
                            plan.max_faults = max_faults;
                            eng.set_fault_plan(Some(plan));
                        }
                        let retries = move || {
                            sink.drain()
                                .iter()
                                .filter(|e| e.name == "recovery.retry")
                                .count()
                        };
                        (eng, retries)
                    })
                };
                let ctx = format!("{label}, {mode}");

                let [(got_eng, got_retries), (want_eng, want_retries)] = engines();
                let got = try_rgsqrf_scaled(&got_eng, &a32, &cfg, &policy);
                let want = oracle_scaled(&want_eng, &a32, &cfg, &policy);
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(bits(&g.q), bits(&w.q), "{ctx}: Q");
                        assert_eq!(bits(&g.r), bits(&w.r), "{ctx}: R");
                    }
                    (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
                    _ => panic!("{ctx}: {:?} vs {:?}", got.map(drop), want.map(drop)),
                }
                assert_eq!(
                    engine_state(&got_eng),
                    engine_state(&want_eng),
                    "{ctx}: engine"
                );
                let retries = got_retries();
                assert_eq!(retries, want_retries(), "{ctx}: retries");
                assert_eq!(retries > 0, budget.is_some(), "{ctx}: {retries} retries");

                let [(got_eng, got_retries), (want_eng, want_retries)] = engines();
                let got = try_cgls_qr(&got_eng, a, &b, &cfg, &RefineConfig::default(), &policy);
                let want = oracle_cgls(&want_eng, a, &b, &cfg, &policy);
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        let x =
                            |o: &RefineOutcome| o.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(x(g), x(w), "{ctx}: x");
                        assert_eq!(
                            (g.iterations, g.converged, g.stalled),
                            (w.iterations, w.converged, w.stalled),
                            "{ctx}"
                        );
                    }
                    (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
                    _ => panic!("{ctx}: {:?} vs {:?}", got.map(drop), want.map(drop)),
                }
                assert_eq!(
                    engine_state(&got_eng),
                    engine_state(&want_eng),
                    "{ctx}: cgls engine"
                );
                assert_eq!(got_retries(), want_retries(), "{ctx}: cgls retries");
            }
        }
    }

    /// Asserts one refiner exit: the counters, the flags, and the exact bits
    /// of `x` (`None` for a NaN solution, whose payload bits are not
    /// portable).
    pub(crate) fn assert_exit(
        label: &str,
        out: &RefineOutcome,
        iterations: usize,
        converged: bool,
        stalled: bool,
        x: Option<[u64; 4]>,
    ) {
        assert_eq!(
            (out.iterations, out.converged, out.stalled),
            (iterations, converged, stalled),
            "{label}: history {:?}",
            out.history
        );
        assert_eq!(out.history.len(), iterations, "{label}");
        match x {
            Some(bits) => {
                let got: Vec<u64> = out.x.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, bits, "{label}: x");
            }
            None => assert!(out.x.iter().all(|v| v.is_nan()), "{label}: x {:?}", out.x),
        }
    }

    fn refine(tol: f64, max_iters: usize) -> RefineConfig {
        RefineConfig { tol, max_iters }
    }

    /// Every way CGLS stops, on seeded 64 x 4 problems.
    #[test]
    fn cgls_stop_decisions() {
        let run = |a: &Mat<f64>, b: &[f64], rc: RefineConfig| {
            cgls_qr(&GpuSim::default(), a, b, &small_cfg(), &rc)
        };
        let (a, b) = problem(64, 4, 10.0, 1);
        let converged = [0x4013cc3cae92f447, 0xc0209e9bc7221fe3, 0xc00488f3f1eeb288, 0xc0077a39bd23067c];
        assert_exit("converged", &run(&a, &b, RefineConfig::default()), 2, true, false, Some(converged));
        // tol 0 is out of reach: the residual floors at roundoff and the
        // guard fires after five iterations without a 0.1% improvement.
        let stalled = [0x4013cc3cae92f446, 0xc0209e9bc7221f8d, 0xc00488f3f1eeb29f, 0xc0077a39bd23061a];
        assert_exit("stalled", &run(&a, &b, refine(0.0, 200)), 8, false, true, Some(stalled));
        // A NaN in the preconditioner makes the first `delta` non-finite.
        let mut r_nan = Mat::<f64>::identity(4, 4);
        r_nan[(1, 1)] = f64::NAN;
        let out = cgls_preconditioned(&GpuSim::default(), &a, &b, &r_nan, &RefineConfig::default());
        assert_exit("breakdown", &out, 0, false, false, Some([0; 4]));
        assert_exit("zero rhs", &run(&a, &[0.0; 64], RefineConfig::default()), 0, true, false, Some([0; 4]));
        let (a, b) = problem(64, 4, 1e4, 3);
        let capped = [0x4092f5c2e3f4fc0a, 0xc0763e58763d43f4, 0xc0a156e8d0b20ca8, 0x4087989b037062cf];
        assert_exit("cap", &run(&a, &b, refine(1e-12, 2)), 2, false, false, Some(capped));
    }

    /// Every way LSQR stops, on seeded 64 x 4 problems.
    #[test]
    fn lsqr_stop_decisions() {
        let run = |a: &Mat<f64>, b: &[f64], rc: RefineConfig| {
            lsqr_qr(&GpuSim::default(), a, b, &small_cfg(), &rc)
        };
        let (a, b) = problem(64, 4, 10.0, 1);
        let converged = [0x4013cc3cae92f44c, 0xc0209e9bc7221fe6, 0xc00488f3f1eeb28d, 0xc0077a39bd23067e];
        assert_exit("converged", &run(&a, &b, RefineConfig::default()), 2, true, false, Some(converged));
        // A NaN in the preconditioner makes `alpha` and the residual
        // estimate NaN: LSQR stops after one iteration, not converged.
        let mut r_nan = Mat::<f64>::identity(4, 4);
        r_nan[(1, 1)] = f64::NAN;
        let out = lsqr_preconditioned(&GpuSim::default(), &a, &b, &r_nan, &refine(1e-12, 7));
        assert_exit("non-finite", &out, 1, false, false, None);
        assert_exit("zero rhs", &run(&a, &[0.0; 64], RefineConfig::default()), 0, true, false, Some([0; 4]));
        let (a, b) = problem(64, 4, 1e4, 3);
        let capped = [0x4092f5c2e3f50302, 0xc0763e58763d4bc3, 0xc0a156e8d0b213bf, 0x4087989b03706984];
        assert_exit("cap", &run(&a, &b, refine(1e-12, 2)), 2, false, false, Some(capped));
        // Unpreconditioned LSQR at cond 1e10 with tol 0: the estimate stops
        // shrinking and the guard fires.
        let (a, b) = problem(64, 4, 1e10, 3);
        let out = lsqr_preconditioned(&GpuSim::default(), &a, &b, &Mat::identity(4, 4), &refine(0.0, 200));
        let stalled = [0x41d10165c53c8119, 0xc1b33027a60782fe, 0xc1e12f92ddcd118f, 0x41c0c46a33bcc6fd];
        assert_exit("stalled", &out, 18, false, true, Some(stalled));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let eng = GpuSim::default();
        let (a, _) = problem(128, 16, 10.0, 12);
        let b = vec![0.0f64; 128];
        let out = cgls_qr(&eng, &a, &b, &small_cfg(), &RefineConfig::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }
}
