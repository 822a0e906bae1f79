//! Recursive Gram-Schmidt QR factorization — Algorithm 1, the paper's core
//! contribution.
//!
//! The column space is split in half recursively:
//!
//! ```text
//! [Q1, R11] = RGSQRF(A1)
//! R12       = Q1^T A2          (TensorCore reduction-shape GEMM)
//! [Q2, R22] = RGSQRF(A2 - Q1 R12)   (TensorCore update-shape GEMM)
//! ```
//!
//! which turns essentially *all* of the `2 m n^2` flops into large GEMMs —
//! the data locality tensor cores need — at the cost of up to 50% more
//! arithmetic than Householder QR (`2 m n^2` vs `2 m n^2 - 2n^3/3`).
//!
//! Below the recursion cutoff (128 columns by default) the panel is
//! factorized either by the communication-avoiding Gram-Schmidt panel of
//! §3.1.3 ([`PanelKind::Caqr`], charged as one aggregate unit like the
//! paper's hand-written CUDA kernel) or by a cuSOLVER-style `SGEQRF`
//! ([`PanelKind::Sgeqrf`], Figure 6's right bars).

use crate::caqr::{tsqr, TsqrKernel, DEFAULT_BLOCK_ROWS};
use crate::cost;
use crate::error::TcqrError;
use densemat::{lapack, Mat, MatMut, MatRef, Op};
use tcqr_trace::Value;
use tensor_engine::{CachedOperand, GpuSim, HalfMat, Phase};

/// Panel factorization algorithm used below the recursion cutoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelKind {
    /// The paper's hand-written communication-avoiding MGS panel (§3.1.3).
    Caqr,
    /// cuSOLVER-style blocked Householder panel (the unaccelerated
    /// alternative of §3.1.2).
    Sgeqrf,
}

impl PanelKind {
    /// Stable lowercase name used in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            PanelKind::Caqr => "caqr",
            PanelKind::Sgeqrf => "sgeqrf",
        }
    }
}

/// Configuration for [`rgsqrf`].
#[derive(Clone, Copy, Debug)]
pub struct RgsqrfConfig {
    /// Recursion cutoff: panels at or below this width go to the panel
    /// factorization. The paper uses 128.
    pub cutoff: usize,
    /// Which panel algorithm to use.
    pub panel: PanelKind,
    /// Column width of the CAQR leaf panels (32 in the paper).
    pub caqr_width: usize,
    /// Row-block height of the CAQR panels (256 in the paper).
    pub caqr_block_rows: usize,
}

impl Default for RgsqrfConfig {
    fn default() -> Self {
        RgsqrfConfig {
            cutoff: 128,
            panel: PanelKind::Caqr,
            caqr_width: 32,
            caqr_block_rows: DEFAULT_BLOCK_ROWS,
        }
    }
}

impl RgsqrfConfig {
    /// The Figure 6 right-bar variant: recursion with an SGEQRF panel.
    pub fn with_sgeqrf_panel() -> Self {
        RgsqrfConfig {
            panel: PanelKind::Sgeqrf,
            ..RgsqrfConfig::default()
        }
    }

    /// RGSQRF's preconditions, reported under `op`: `m >= n >= 1`, and a
    /// configuration whose recursion and CAQR blocking terminate. Every
    /// path into [`factor_in_place`] runs this first.
    pub(crate) fn check(&self, op: &'static str, m: usize, n: usize) -> Result<(), TcqrError> {
        if !(m >= n && n >= 1) {
            return Err(TcqrError::shape(
                op,
                format!("need m >= n >= 1 (got {m} x {n})"),
            ));
        }
        if self.cutoff < 1 || self.caqr_width < 1 {
            return Err(TcqrError::shape(op, "cutoff and CAQR width must be >= 1"));
        }
        if self.caqr_block_rows < 2 * self.caqr_width {
            return Err(TcqrError::shape(
                op,
                "CAQR block rows must be >= 2x CAQR width",
            ));
        }
        Ok(())
    }
}

/// Explicit QR factors in single precision.
#[derive(Debug)]
pub struct QrFactors {
    /// Orthonormal factor, `m x n`.
    pub q: Mat<f32>,
    /// Upper-triangular factor, `n x n`.
    pub r: Mat<f32>,
}

/// Recursive Gram-Schmidt QR of `a` (`m x n`, `m >= n >= 1`) on the
/// simulated engine.
///
/// The engine configuration decides where TensorCore runs (update and/or
/// panel GEMMs) and its clock accumulates the modeled V100 time.
pub fn rgsqrf(eng: &GpuSim, a: MatRef<'_, f32>, cfg: &RgsqrfConfig) -> QrFactors {
    try_rgsqrf(eng, a, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`rgsqrf`] with the shape/configuration preconditions reported as a
/// [`TcqrError`] instead of a panic.
pub fn try_rgsqrf(
    eng: &GpuSim,
    a: MatRef<'_, f32>,
    cfg: &RgsqrfConfig,
) -> Result<QrFactors, TcqrError> {
    cfg.check("rgsqrf", a.nrows(), a.ncols())?;
    Ok(factor_in_place(eng, a.to_owned(), cfg))
}

/// The in-place core of [`try_rgsqrf`]: `q` holds A on entry and becomes Q.
/// The caller has run [`RgsqrfConfig::check`] on `q`'s shape: an unchecked
/// `cutoff: 0` would recurse without end.
pub(crate) fn factor_in_place(eng: &GpuSim, mut q: Mat<f32>, cfg: &RgsqrfConfig) -> QrFactors {
    let m = q.nrows();
    let n = q.ncols();
    debug_assert!(cfg.check("rgsqrf", m, n).is_ok(), "unchecked RGSQRF input");
    let mut r = Mat::zeros(n, n);
    let span = eng.tracer().span(
        "rgsqrf",
        &[
            ("m", Value::from(m)),
            ("n", Value::from(n)),
            ("cutoff", Value::from(cfg.cutoff)),
            ("panel", Value::from(cfg.panel.as_str())),
        ],
    );
    // Rounded-Q shadow: on a TensorCore engine, every finalized panel of Q
    // is rounded through the half format exactly once — right after its
    // panel factorization — and every later level's reduction and update
    // GEMM reads the cached image instead of re-rounding Q1 per call.
    // `None` when the update phase stays FP32 (nothing is ever rounded) or
    // when the whole matrix is a single panel (no updates consume it).
    let mut shadow = if n > cfg.cutoff {
        eng.cache_shell(Phase::Update, m, n)
    } else {
        None
    };
    recurse(eng, cfg, q.as_mut(), r.as_mut(), 0, &mut shadow, 0);
    drop(span);
    QrFactors { q, r }
}

/// One level of Algorithm 1 on views (`q` doubles as A-in / Q-out storage).
/// `level` is the recursion depth from the root, carried into the trace and
/// the per-level orthogonality health samples. `shadow`/`j0` locate this
/// block inside the factorization-wide rounded-Q cache (see [`rgsqrf`]).
fn recurse(
    eng: &GpuSim,
    cfg: &RgsqrfConfig,
    mut q: MatMut<'_, f32>,
    r: MatMut<'_, f32>,
    level: usize,
    shadow: &mut Option<HalfMat>,
    j0: usize,
) {
    let n = q.ncols();
    if n <= cfg.cutoff {
        panel_factor(eng, cfg, q.rb(), r);
        // The panel's columns of Q are now final: round them into the
        // shadow so every ancestor level's GEMMs reuse this one rounding.
        // The very last panel of the matrix is never a left factor at any
        // level, so its rounding would be dead work — skip it.
        if let Some(sh) = shadow.as_mut() {
            if j0 + n < sh.ncols() {
                eng.cache_cols(Phase::Update, sh, j0, q.as_ref());
            }
        }
        return;
    }
    let span = eng.tracer().span(
        "rgsqrf.level",
        &[
            ("m", Value::from(q.nrows())),
            ("n", Value::from(n)),
            ("level", Value::from(level)),
        ],
    );
    split_step(
        eng,
        q.rb(),
        r,
        Phase::Update,
        true,
        shadow,
        j0,
        &|q_half, r_half, sh, jj| recurse(eng, cfg, q_half, r_half, level + 1, sh, jj),
    );
    // Health monitor (off by default — O(m n^2) in f64): how far has this
    // level's Q block drifted from orthogonality?
    crate::health::sample_orthogonality(eng, q.as_ref(), level, "factor");
    drop(span);
}

/// Panel-factorization callback of [`split_step`]: factor the left half
/// `(Q panel, R panel)` in place, reusing the cached half-precision shadow,
/// starting at the given global column offset.
type FactorHalf<'f> =
    dyn for<'a, 'b, 'c> Fn(MatMut<'a, f32>, MatMut<'b, f32>, &'c mut Option<HalfMat>, usize) + 'f;

/// The shared split-project-update-split skeleton of Algorithm 1, with the
/// two GEMMs routed through the engine under the given phase/charging.
///
/// When a rounded-Q `shadow` exists, Q1's half-precision image is read from
/// it (columns `j0..j0 + h`, filled when those panels were finalized) in
/// both GEMMs — zero rounding work here. A2 and R12 change between/inside
/// the calls, so they stay fresh per-call operands. Rounding is elementwise
/// and Q1 is unmodified since its panels finished, so the cached image is
/// bit-identical to re-rounding Q1 per call.
#[allow(clippy::too_many_arguments)]
fn split_step(
    eng: &GpuSim,
    q: MatMut<'_, f32>,
    r: MatMut<'_, f32>,
    phase: Phase,
    charge: bool,
    shadow: &mut Option<HalfMat>,
    j0: usize,
    factor_half: &FactorHalf<'_>,
) {
    let n = q.ncols();
    let h = n / 2;
    let (mut q1, mut q2) = q.split_at_col_mut(h);
    let (rl, rr) = r.split_at_col_mut(h);
    let r11 = rl.submatrix_mut(0, 0, h, h);
    let (mut r12, rbot) = rr.split_at_row_mut(h);
    let r22 = rbot.submatrix_mut(0, 0, n - h, n - h);

    // [Q1, R11] = RGSQRF(A1) — also fills shadow columns j0..j0+h.
    factor_half(q1.rb(), r11, shadow, j0);
    let q1_op = match shadow.as_ref() {
        Some(sh) => CachedOperand::cols(q1.as_ref(), sh, j0),
        None => CachedOperand::fresh(q1.as_ref()),
    };
    // R12 = Q1^T A2 — reduction-shape GEMM.
    eng.gemm_f32_cached(
        phase,
        charge,
        1.0,
        Op::Trans,
        q1_op,
        Op::NoTrans,
        CachedOperand::fresh(q2.as_ref()),
        0.0,
        r12.rb(),
    );
    // A2 <- A2 - Q1 R12 — update-shape GEMM (f32 accumulation, as on TC).
    eng.gemm_f32_cached(
        phase,
        charge,
        -1.0,
        Op::NoTrans,
        q1_op,
        Op::NoTrans,
        CachedOperand::fresh(r12.as_ref()),
        1.0,
        q2.rb(),
    );
    // [Q2, R22] = RGSQRF(A2')
    factor_half(q2.rb(), r22, shadow, j0 + h);
}

/// Factor a panel (width <= cutoff).
fn panel_factor(eng: &GpuSim, cfg: &RgsqrfConfig, mut q: MatMut<'_, f32>, mut r: MatMut<'_, f32>) {
    let m = q.nrows();
    let n = q.ncols();
    let span = eng.tracer().span(
        "rgsqrf.panel",
        &[
            ("m", Value::from(m)),
            ("n", Value::from(n)),
            ("kind", Value::from(cfg.panel.as_str())),
        ],
    );
    match cfg.panel {
        PanelKind::Sgeqrf => {
            // cuSOLVER-style panel: blocked Householder in f32, explicit Q.
            let mut f = q.to_owned();
            let mut tau = vec![0.0f32; n.min(m)];
            lapack::geqrf(f.as_mut(), &mut tau);
            let rx = lapack::extract_r(f.as_ref());
            for j in 0..n {
                r.col_mut(j)[..n].copy_from_slice(&rx.col(j)[..n]);
            }
            let qx = lapack::orgqr(f.as_ref(), &tau, lapack::DEFAULT_BLOCK);
            q.copy_from(qx.as_ref());
        }
        PanelKind::Caqr => {
            // Recursive GS down to the CAQR leaf width; all numerics run
            // (and round through half precision if the engine enables TC in
            // the panel) but time is charged once for the whole panel, the
            // way the paper benchmarks its fused CUDA kernel. The panel
            // keeps its own rounded-Q shadow (None unless TC runs in the
            // panel) so its internal GEMMs also round each leaf just once.
            let mut pshadow = if n > cfg.caqr_width {
                eng.cache_shell(Phase::Panel, m, n)
            } else {
                None
            };
            caqr_gs(eng, cfg, q, r, &mut pshadow, 0);
        }
    }
    cost::panel(eng, cfg.panel, m, n);
    drop(span);
}

/// Uncharged recursive GS used inside the CAQR panel. `shadow`/`j0` locate
/// this block inside the panel's own rounded-Q cache.
fn caqr_gs(
    eng: &GpuSim,
    cfg: &RgsqrfConfig,
    mut q: MatMut<'_, f32>,
    r: MatMut<'_, f32>,
    shadow: &mut Option<HalfMat>,
    j0: usize,
) {
    let n = q.ncols();
    if n <= cfg.caqr_width {
        tsqr(&eng.tracer(), q.rb(), r, cfg.caqr_block_rows, TsqrKernel::Mgs)
            .expect("RgsqrfConfig::check ensured block_rows >= 2 x caqr_width and m >= n");
        if let Some(sh) = shadow.as_mut() {
            if j0 + n < sh.ncols() {
                eng.cache_cols(Phase::Panel, sh, j0, q.as_ref());
            }
        }
        return;
    }
    split_step(
        eng,
        q,
        r,
        Phase::Panel,
        false,
        shadow,
        j0,
        &|q_half, r_half, sh, jj| caqr_gs(eng, cfg, q_half, r_half, sh, jj),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::{orthogonality_error, qr_backward_error};
    use tensor_engine::{EngineConfig, GpuSim};

    fn f32_matrix(m: usize, n: usize, seed: u64) -> Mat<f32> {
        gen::gaussian(m, n, &mut rng(seed)).convert()
    }

    fn errors(a: &Mat<f32>, f: &QrFactors) -> (f64, f64) {
        let be = qr_backward_error(
            a.convert::<f64>().as_ref(),
            f.q.convert::<f64>().as_ref(),
            f.r.convert::<f64>().as_ref(),
        );
        let oe = orthogonality_error(f.q.convert::<f64>().as_ref());
        (be, oe)
    }

    #[test]
    fn fp32_engine_gives_single_precision_qr() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = f32_matrix(512, 96, 1);
        let cfg = RgsqrfConfig {
            cutoff: 32,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let f = rgsqrf(&eng, a.as_ref(), &cfg);
        let (be, oe) = errors(&a, &f);
        assert!(be < 1e-5, "backward error {be}");
        assert!(oe < 1e-4, "orthogonality {oe}");
    }

    #[test]
    fn tensorcore_engine_gives_half_precision_backward_error() {
        let eng = GpuSim::default(); // TC in update
        let a = f32_matrix(512, 96, 2);
        let cfg = RgsqrfConfig {
            cutoff: 32,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let f = rgsqrf(&eng, a.as_ref(), &cfg);
        let (be, oe) = errors(&a, &f);
        // Half precision unit roundoff is ~4.9e-4; the error should sit at
        // that scale — much worse than f32, much better than garbage.
        assert!(be > 1e-7, "suspiciously good for fp16 inputs: {be}");
        assert!(be < 5e-2, "backward error {be}");
        assert!(oe < 5e-1, "orthogonality {oe}");
        assert!(eng.counters().tc_flops > 0.0);
    }

    #[test]
    fn sgeqrf_panel_variant_factorizes() {
        let eng = GpuSim::default();
        let a = f32_matrix(300, 64, 3);
        let cfg = RgsqrfConfig {
            cutoff: 16,
            ..RgsqrfConfig::with_sgeqrf_panel()
        };
        let f = rgsqrf(&eng, a.as_ref(), &cfg);
        let (be, oe) = errors(&a, &f);
        assert!(be < 1e-2, "backward error {be}");
        assert!(oe < 1e-1, "orthogonality {oe}");
        assert!(eng.counters().panel_calls > 0);
    }

    #[test]
    fn r_is_upper_triangular_and_diag_positive() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = f32_matrix(256, 40, 4);
        let cfg = RgsqrfConfig {
            cutoff: 16,
            caqr_width: 8,
            caqr_block_rows: 32,
            ..RgsqrfConfig::default()
        };
        let f = rgsqrf(&eng, a.as_ref(), &cfg);
        for j in 0..40 {
            assert!(f.r[(j, j)] > 0.0, "diag {j}");
            for i in j + 1..40 {
                assert_eq!(f.r[(i, j)], 0.0, "below-diagonal ({i},{j})");
            }
        }
    }

    #[test]
    fn matches_householder_r_in_fp32() {
        // Unique positive-diagonal R: compare against the f64 reference.
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let a = f32_matrix(400, 32, 5);
        let cfg = RgsqrfConfig {
            cutoff: 16,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let f = rgsqrf(&eng, a.as_ref(), &cfg);
        let h = densemat::lapack::Householder::factor(a.convert::<f64>());
        let rref = h.r();
        for j in 0..32 {
            for i in 0..=j {
                let want = rref[(i, j)].abs();
                let got = f.r[(i, j)].abs() as f64;
                assert!(
                    (got - want).abs() < 1e-4 * want.max(1.0),
                    "R mismatch ({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn odd_sizes_and_non_powers_of_two() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        for (m, n) in [(331, 77), (100, 100), (513, 17)] {
            let a = f32_matrix(m, n, 100 + n as u64);
            let cfg = RgsqrfConfig {
                cutoff: 16,
                caqr_width: 8,
                caqr_block_rows: 32,
                ..RgsqrfConfig::default()
            };
            let f = rgsqrf(&eng, a.as_ref(), &cfg);
            let (be, oe) = errors(&a, &f);
            assert!(be < 1e-4, "({m},{n}) backward {be}");
            assert!(oe < 1e-3, "({m},{n}) orthogonality {oe}");
        }
    }

    #[test]
    fn flop_counter_matches_closed_form() {
        let eng = GpuSim::new(EngineConfig::no_tensorcore());
        let (m, n) = (1024usize, 128usize);
        let a = f32_matrix(m, n, 6);
        let cfg = RgsqrfConfig {
            cutoff: 32,
            caqr_width: 16,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let _ = rgsqrf(&eng, a.as_ref(), &cfg);
        let counted = eng.counters().total_flops();
        let expect = tensor_engine::perf::rgsqrf_flops(m, n);
        // Counted = charged GEMMs + aggregate panel charges; the closed form
        // is exact for the recursion, panels are counted at 2 m n^2 as well.
        let rel = (counted - expect).abs() / expect;
        assert!(rel < 0.05, "counted {counted:.3e} vs {expect:.3e}");
    }

    #[test]
    fn panel_gemms_do_not_use_tensorcore_by_default() {
        let eng = GpuSim::default(); // tc_panel = false
        let a = f32_matrix(256, 64, 7);
        // Whole matrix is one panel: cutoff 64.
        let cfg = RgsqrfConfig {
            cutoff: 64,
            caqr_width: 16,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let _ = rgsqrf(&eng, a.as_ref(), &cfg);
        assert_eq!(
            eng.counters().round.total,
            0,
            "panel GEMMs must not round through half when tc_panel is off"
        );
    }

    #[test]
    fn tc_everywhere_rounds_panel_gemms_too() {
        let eng = GpuSim::new(EngineConfig::tensorcore_everywhere());
        let a = f32_matrix(256, 64, 8);
        let cfg = RgsqrfConfig {
            cutoff: 64,
            caqr_width: 16,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let _ = rgsqrf(&eng, a.as_ref(), &cfg);
        assert!(eng.counters().round.total > 0);
    }

    #[test]
    fn rounded_q_shadow_at_least_halves_rounding_work() {
        // Closed-form rounding counts for the trailing-update recursion on
        // the default engine (TC in the update, FP32 panel). `old` is what
        // per-GEMM operand rounding used to cost; `new` is the
        // once-per-factorization scheme: each panel of Q rounded once when
        // finalized (except the globally last, which no level consumes),
        // plus the genuinely fresh A2 / R12 operands.
        fn sim(
            m: usize,
            n: usize,
            cutoff: usize,
            j0: usize,
            total: usize,
            old: &mut u64,
            new: &mut u64,
        ) {
            if n <= cutoff {
                if j0 + n < total {
                    *new += (m * n) as u64;
                }
                return;
            }
            let h = n / 2;
            sim(m, h, cutoff, j0, total, old, new);
            // old: Q1 + A2 rounded for R12 = Q1^T A2, then Q1 + R12 for the
            // update. new: Q1 comes from the shadow both times.
            *old += (2 * m * h + m * (n - h) + h * (n - h)) as u64;
            *new += (m * (n - h) + h * (n - h)) as u64;
            sim(m, n - h, cutoff, j0 + h, total, old, new);
        }

        let (m, n) = (2048usize, 512usize);
        let cfg = RgsqrfConfig {
            cutoff: 32,
            caqr_width: 16,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        };
        let eng = GpuSim::default();
        let a = f32_matrix(m, n, 11);
        let _ = rgsqrf(&eng, a.as_ref(), &cfg);

        let (mut old, mut new) = (0u64, 0u64);
        sim(m, n, cfg.cutoff, 0, n, &mut old, &mut new);
        let measured = eng.counters().round.total;
        assert_eq!(
            measured, new,
            "rounding count must match the once-per-factorization closed form"
        );
        assert!(
            old >= 2 * measured,
            "expected at least 2x fewer element roundings: per-GEMM scheme {old}, measured {measured}"
        );
    }

    #[test]
    fn modeled_time_tc_beats_no_tc_at_scale() {
        // Pure cost question at paper scale: charge pattern only, numerics
        // run at a reduced size via the same code path then rescaled is not
        // possible — instead compare modeled clocks at a modest size where
        // the TC rates already separate.
        let a = f32_matrix(2048, 512, 9);
        let cfg = RgsqrfConfig::default();

        let tc = GpuSim::default();
        let _ = rgsqrf(&tc, a.as_ref(), &cfg);

        let no = GpuSim::new(EngineConfig::no_tensorcore());
        let _ = rgsqrf(&no, a.as_ref(), &cfg);

        assert!(
            tc.clock() < no.clock(),
            "TC clock {} should beat FP32 clock {}",
            tc.clock(),
            no.clock()
        );
    }

    #[test]
    #[should_panic(expected = "need m >= n")]
    fn rejects_wide_matrices() {
        let eng = GpuSim::default();
        let a = f32_matrix(10, 20, 10);
        let _ = rgsqrf(&eng, a.as_ref(), &RgsqrfConfig::default());
    }

    #[test]
    fn try_variant_reports_typed_shape_errors() {
        use crate::error::TcqrError;
        let eng = GpuSim::default();
        let wide = f32_matrix(10, 20, 12);
        let err = try_rgsqrf(&eng, wide.as_ref(), &RgsqrfConfig::default()).unwrap_err();
        assert!(matches!(err, TcqrError::ShapeMismatch { op: "rgsqrf", .. }));
        assert!(err.to_string().contains("need m >= n"), "{err}");

        let a = f32_matrix(64, 16, 13);
        let bad_cfg = RgsqrfConfig {
            caqr_width: 16,
            caqr_block_rows: 16, // < 2x width
            ..RgsqrfConfig::default()
        };
        let err = try_rgsqrf(&eng, a.as_ref(), &bad_cfg).unwrap_err();
        assert!(err.to_string().contains("2x CAQR width"), "{err}");

        // And the Ok path returns the same factors as the panicking API.
        let f = try_rgsqrf(&eng, a.as_ref(), &RgsqrfConfig::default()).unwrap();
        assert_eq!(f.q.ncols(), 16);
    }
}
