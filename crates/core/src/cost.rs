//! The one charge schedule: every engine charge sequence that a real solver
//! and its charge-only replay both make, written once.
//!
//! The accuracy experiments run real numerics at reduced sizes (error
//! behaviour depends on precision and conditioning, not absolute size), but
//! the performance figures quote 32768x16384-class matrices whose emulated
//! numerics would take hours on a CPU. The replays here walk the real
//! solvers' recursions and loops without touching data, and both sides
//! charge through the same steps of this module (`panel`, `refine_iter`,
//! `lu_block`, ...); the engine prices routed and charge-only GEMMs through
//! one function. So a replay makes its solver's charges by construction
//! under every precision override, and a test pins the two to bit-equal
//! per-phase ledgers at sizes where both run.

use crate::rgsqrf::{PanelKind, RgsqrfConfig};
use tensor_engine::{Class, GpuSim, Phase};

/// Charge-only replay of [`crate::rgsqrf::rgsqrf`] on an `m x n` matrix.
pub fn rgsqrf(eng: &GpuSim, m: usize, n: usize, cfg: &RgsqrfConfig) {
    assert!(m >= n && n >= 1);
    rec(eng, m, n, cfg);
}

fn rec(eng: &GpuSim, m: usize, n: usize, cfg: &RgsqrfConfig) {
    if n <= cfg.cutoff {
        panel(eng, cfg.panel, m, n);
        return;
    }
    let h = n / 2;
    rec(eng, m, h, cfg);
    // Q1 comes from the rounded-Q shadow; A2 and R12 are staged fresh.
    // R12 = Q1^T A2: (h x m)(m x (n-h)).
    update_gemm(eng, h, n - h, m, m * (n - h));
    // A2 -= Q1 R12: (m x h)(h x (n-h)).
    update_gemm(eng, m, n - h, h, h * (n - h));
    rec(eng, m, n - h, cfg);
}

/// An RGSQRF leaf panel, charged once whatever its internal GEMMs did.
pub(crate) fn panel(eng: &GpuSim, kind: PanelKind, m: usize, n: usize) {
    match kind {
        PanelKind::Caqr => eng.charge_caqr_panel(m, n),
        PanelKind::Sgeqrf => sgeqrf(eng, m, n),
    }
}

/// A trailing-update GEMM a real solver routes through the engine, which
/// stages `fresh_elems` operand elements itself.
fn update_gemm(eng: &GpuSim, cm: usize, cn: usize, k: usize, fresh_elems: usize) {
    let tc = eng.uses_tc(Phase::Update);
    let class = if tc { Class::TensorCore } else { Class::Fp32 };
    eng.charge_gemm(Phase::Update, class, cm, cn, k, fresh_elems);
}

/// Charge-only replay of [`crate::reortho::rgsqrf_reortho`].
pub fn rgsqrf_reortho(eng: &GpuSim, m: usize, n: usize, cfg: &RgsqrfConfig) {
    rgsqrf(eng, m, n, cfg);
    rgsqrf(eng, m, n, cfg);
    r_product(eng, n);
}

/// `R <- R2 R` after a second pass (re-orthogonalization, CholeskyQR2):
/// `n^3/3` useful flops, charged as a (cheap) FP32 GEMM of that size.
pub(crate) fn r_product(eng: &GpuSim, n: usize) {
    eng.charge_gemm(Phase::Other, Class::Fp32, n, n, (n / 2).max(1), 0);
}

/// Charge-only cuSOLVER `SGEQRF` on `m x n`.
pub fn sgeqrf(eng: &GpuSim, m: usize, n: usize) {
    eng.charge_sgeqrf(Phase::Panel, m, n);
}

/// Charge-only `SGEQRF` + explicit Q via `SORGQR` — the Figure 5 baseline
/// for orthogonalization and the Householder side of QR-SVD.
pub fn sgeqrf_orgqr(eng: &GpuSim, m: usize, n: usize) {
    sgeqrf(eng, m, n);
    eng.charge_orgqr(Phase::Other, Class::Fp32, m, n);
}

/// QR-SVD's one-sided Jacobi SVD of the `n x n` R: ~10 n^3-class flops,
/// charged as an n^3 FP32 GEMM pair.
pub(crate) fn jacobi_svd(eng: &GpuSim, n: usize) {
    eng.charge_gemm(Phase::Other, Class::Fp32, n, n, 5 * n, 0);
}

/// `xGEQRF` of a cuSOLVER-style LLS baseline in `class` (FP32 or FP64).
pub(crate) fn geqrf(eng: &GpuSim, class: Class, m: usize, n: usize) {
    match class {
        Class::Fp64 => eng.charge_dgeqrf(Phase::Panel, m, n),
        _ => sgeqrf(eng, m, n),
    }
}

/// `xORMQR + xTRSM`: a baseline's `Q^T b` and back-solve after [`geqrf`].
pub(crate) fn ormqr_trsv(eng: &GpuSim, class: Class, m: usize, n: usize) {
    eng.charge_ormqr(Phase::Solve, class, m, n, 1);
    eng.charge_trsv(Phase::Solve, class, n);
}

/// Charge-only cuSOLVER-style direct LLS solve (`xGEQRF + xORMQR +
/// xTRSM`) in `class`: [`crate::lls::scusolve`] with FP32,
/// [`crate::lls::dcusolve`] with FP64.
pub fn cusolve(eng: &GpuSim, class: Class, m: usize, n: usize) {
    geqrf(eng, class, m, n);
    ormqr_trsv(eng, class, m, n);
}

/// The RGSQRF direct solver's FP32 tail: `Q^T b` and the back-solve.
pub(crate) fn direct_solve(eng: &GpuSim, m: usize, n: usize) {
    eng.charge_gemv(Phase::Solve, Class::Fp32, m, n);
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);
}

/// Charge-only RGSQRF direct LLS solve (factor + `Q^T b` + back-solve).
pub fn rgsqrf_direct(eng: &GpuSim, m: usize, n: usize, cfg: &RgsqrfConfig) {
    rgsqrf(eng, m, n, cfg);
    direct_solve(eng, m, n);
}

/// One CGLS/LSQR iteration (or the setup before the loop): two GEMVs with
/// A, two triangular solves with R, and a few streamed vectors, all FP64.
pub(crate) fn refine_iter(eng: &GpuSim, m: usize, n: usize) {
    eng.charge_gemv(Phase::Refine, Class::Fp64, m, n); // A t
    eng.charge_gemv(Phase::Refine, Class::Fp64, m, n); // A^T r
    eng.charge_trsv(Phase::Refine, Class::Fp64, n); // R t = p
    eng.charge_trsv(Phase::Refine, Class::Fp64, n); // R^T s = z
    eng.charge_vec(Phase::Refine, Class::Fp64, 3 * m + 3 * n);
}

/// Charge-only RGSQRF + CGLS with an iteration count measured on a real
/// reduced-size run of the same spectrum. It leaves out the data-dependent
/// §3.5 scaling pass the real [`crate::lls::cgls_qr`] may charge to
/// [`Phase::Other`].
pub fn cgls_qr(eng: &GpuSim, m: usize, n: usize, cfg: &RgsqrfConfig, iterations: usize) {
    rgsqrf(eng, m, n, cfg);
    // +1: the setup residual evaluation before the loop.
    for _ in 0..iterations + 1 {
        refine_iter(eng, m, n);
    }
}

/// Charge-only QR-SVD low-rank pipeline (Table 4's two variants).
pub fn qr_svd(eng: &GpuSim, m: usize, n: usize, rgs: bool, cfg: &RgsqrfConfig) {
    if rgs {
        rgsqrf(eng, m, n, cfg);
    } else {
        sgeqrf_orgqr(eng, m, n);
    }
    jacobi_svd(eng, n);
}

/// Block column `k..k + nb` of an `n x n` blocked LU: the panel at the
/// (memory-bound) panel rate, then the FP32 TRSM of any trailing U block.
pub(crate) fn lu_block(eng: &GpuSim, n: usize, k: usize, nb: usize) {
    let panel_flops = (n - k) as f64 * nb as f64 * nb as f64;
    let rate = eng.perf().sgeqrf_tflops(n - k, nb) * 1e12;
    eng.charge_secs(Phase::Panel, panel_flops / rate);
    if k + nb < n {
        eng.charge_trsm(Phase::Update, Class::Fp32, nb, n - k - nb);
    }
}

/// LU-IR's initial solve with the widened factors: two FP32 triangular
/// solves.
pub(crate) fn lu_solve(eng: &GpuSim, n: usize) {
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);
    eng.charge_trsv(Phase::Solve, Class::Fp32, n);
}

/// One LU-IR refinement step: the FP64 residual, then the correction's two
/// triangular solves.
pub(crate) fn lu_refine_iter(eng: &GpuSim, n: usize) {
    eng.charge_gemv(Phase::Refine, Class::Fp64, n, n);
    eng.charge_trsv(Phase::Refine, Class::Fp64, n);
    eng.charge_trsv(Phase::Refine, Class::Fp64, n);
}

/// Charge-only replay of [`crate::lu_ir::lu_ir_solve`] with LU block width
/// `block` and a measured iteration count.
pub fn lu_ir(eng: &GpuSim, n: usize, block: usize, iterations: usize) {
    for k in (0..n).step_by(block) {
        let nb = block.min(n - k);
        lu_block(eng, n, k, nb);
        let trailing = n - k - nb;
        if trailing > 0 {
            // A22 -= A21 A12, both operands staged fresh.
            update_gemm(eng, trailing, trailing, nb, 2 * trailing * nb);
        }
    }
    lu_solve(eng, n);
    for _ in 0..iterations {
        lu_refine_iter(eng, n);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lls::RefineConfig;
    use crate::lowrank::QrKind;
    use crate::lu_ir::LuIrConfig;
    use crate::RecoveryPolicy;
    use densemat::gen::{self, rng};
    use densemat::Mat;
    use tensor_engine::{EngineConfig, GpuSim, PrecisionOverride};

    /// One replay case: the real solver, run on its engine (returning the
    /// iteration count a replay needs, 0 for direct methods), its replay,
    /// and the `m x n` shape of the §3.5 column-scaling pass the real run
    /// charges to [`Phase::Other`] and the replay leaves out, if any.
    struct Case {
        name: &'static str,
        real: Box<dyn Fn(&GpuSim) -> usize>,
        replay: Box<Replay>,
        scaling_pass: Option<(usize, usize)>,
    }

    type Replay = dyn Fn(&GpuSim, usize);

    fn case(
        name: &'static str,
        real: impl Fn(&GpuSim) -> usize + 'static,
        replay: impl Fn(&GpuSim, usize) + 'static,
    ) -> Case {
        Case {
            name,
            real: Box::new(real),
            replay: Box::new(replay),
            scaling_pass: None,
        }
    }

    fn small_cfg() -> RgsqrfConfig {
        RgsqrfConfig {
            cutoff: 32,
            caqr_width: 8,
            caqr_block_rows: 64,
            ..RgsqrfConfig::default()
        }
    }

    fn cases() -> Vec<Case> {
        let mut out = Vec::new();
        // 1024 x 256 with n above every configuration's cutoff, so each
        // recurses at least once: update GEMMs and the rounded-Q shadow
        // under every override.
        let (m, n) = (1024usize, 256usize);
        let a: Mat<f32> = gen::gaussian(m, n, &mut rng(1)).convert();
        for cfg in [
            RgsqrfConfig::default(),
            RgsqrfConfig::with_sgeqrf_panel(),
            RgsqrfConfig {
                cutoff: 64,
                caqr_width: 16,
                caqr_block_rows: 128,
                ..RgsqrfConfig::default()
            },
        ] {
            assert!(n > cfg.cutoff);
            let a = a.clone();
            out.push(case(
                "rgsqrf",
                move |e| {
                    crate::rgsqrf::rgsqrf(e, a.as_ref(), &cfg);
                    0
                },
                move |e, _| rgsqrf(e, m, n, &cfg),
            ));
        }
        let (m, n) = (512usize, 128usize);
        let a: Mat<f32> = gen::gaussian(m, n, &mut rng(2)).convert();
        for cfg in [RgsqrfConfig::default(), small_cfg()] {
            let a = a.clone();
            out.push(case(
                "rgsqrf_reortho",
                move |e| {
                    crate::reortho::rgsqrf_reortho(e, a.as_ref(), &cfg);
                    0
                },
                move |e, _| rgsqrf_reortho(e, m, n, &cfg),
            ));
        }
        // Every column's largest entry already lies in [0.5, 1), so the
        // scaled pipelines (qr_svd, rgsqrf_direct) charge no scaling pass.
        let a: Mat<f32> = gen::uniform_pm1(m, n, &mut rng(1)).convert();
        let b: Vec<f32> = (0..m).map(|i| (i as f32 * 0.37).sin()).collect();
        let cfg = small_cfg();
        for (kind, rgs) in [(QrKind::Rgsqrf, true), (QrKind::Sgeqrf, false)] {
            let a = a.clone();
            out.push(case(
                "qr_svd",
                move |e| {
                    crate::lowrank::qr_svd(e, &a, kind, &cfg);
                    0
                },
                move |e, _| qr_svd(e, m, n, rgs, &cfg),
            ));
        }
        let (a1, b1) = (a.clone(), b.clone());
        out.push(case(
            "rgsqrf_direct",
            move |e| {
                crate::lls::rgsqrf_direct(e, &a1, &b1, &cfg);
                0
            },
            move |e, _| rgsqrf_direct(e, m, n, &cfg),
        ));
        let (a1, b1) = (a.clone(), b.clone());
        out.push(case(
            "scusolve",
            move |e| {
                crate::lls::scusolve(e, &a1, &b1);
                0
            },
            move |e, _| cusolve(e, Class::Fp32, m, n),
        ));
        let (a64, b64): (Mat<f64>, Vec<f64>) = (a.convert(), b.iter().map(|&v| v as f64).collect());
        out.push(case(
            "dcusolve",
            move |e| {
                crate::lls::dcusolve(e, &a64, &b64);
                0
            },
            move |e, _| cusolve(e, Class::Fp64, m, n),
        ));
        let (sq, rhs, _) = crate::lu_ir::tests::system(96, 10.0, 6);
        let lu_cfg = LuIrConfig::default();
        out.push(case(
            "lu_ir",
            move |e| {
                let policy = RecoveryPolicy::default();
                crate::lu_ir::try_lu_ir_solve(e, &sq, &rhs, &lu_cfg, &policy)
                    .expect("well-posed system")
                    .iterations
            },
            move |e, it| lu_ir(e, 96, lu_cfg.block, it),
        ));
        // This input is scaled: the real run charges the scaling pass.
        let spec = gen::Spectrum::Arithmetic { cond: 100.0 };
        let ls = gen::rand_svd(m, 64, spec, &mut rng(3));
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        out.push(Case {
            scaling_pass: Some((m, 64)),
            ..case(
                "cgls_qr",
                move |e| {
                    crate::lls::cgls_qr(e, &ls, &rhs, &cfg, &RefineConfig::default()).iterations
                },
                move |e, it| cgls_qr(e, m, 64, &cfg, it),
            )
        });
        out
    }

    /// The load-bearing property: under every precision override, each
    /// replay of a case named in `names` makes the same charges as its
    /// real solver — bit-equal per-phase ledgers and equal flops per
    /// class. Where the real run scales its input, its `Other` phase holds
    /// exactly that one data-dependent pass more.
    pub(crate) fn assert_replays_charge_like_real(names: &[&str]) {
        let overrides = [
            None,
            Some(PrecisionOverride::ErrorCorrected),
            Some(PrecisionOverride::Bf16),
            Some(PrecisionOverride::Fp32),
        ];
        let cases: Vec<Case> = cases()
            .into_iter()
            .filter(|c| names.contains(&c.name))
            .collect();
        assert!(!cases.is_empty(), "no replay case named in {names:?}");
        for o in overrides {
            for c in &cases {
                let (real, replay) = (GpuSim::default(), GpuSim::default());
                real.set_precision_override(o);
                replay.set_precision_override(o);
                let iterations = (c.real)(&real);
                (c.replay)(&replay, iterations);
                let what = format!("{} under {o:?}", c.name);
                for p in Phase::ALL {
                    let (r, mut q) = (real.ledger().get(p), replay.ledger().get(p));
                    if let (Some((sm, sn)), Phase::Other) = (c.scaling_pass, p) {
                        q += replay.perf().gemv_secs(Class::Fp32, sm, sn);
                    }
                    assert_eq!(
                        r.to_bits(),
                        q.to_bits(),
                        "{what}: {p:?} real {r} vs replay {q}"
                    );
                }
                let (r, q) = (real.counters(), replay.counters());
                let flops = |c: &tensor_engine::Counters| (c.tc_flops, c.fp32_flops, c.fp64_flops);
                assert_eq!(flops(&r), flops(&q), "{what}: flops per class");
            }
        }
    }

    /// rgsqrf in its three configurations (default, sgeqrf panel, small
    /// blocks), each recursing on 1024 x 256.
    #[test]
    fn replay_matches_real_rgsqrf_clock() {
        assert_replays_charge_like_real(&["rgsqrf"]);
    }

    #[test]
    fn replay_matches_real_reortho_clock() {
        assert_replays_charge_like_real(&["rgsqrf_reortho"]);
    }

    /// CGLS: every phase bit-equal, `Other` off by exactly the scaling pass.
    #[test]
    fn replay_matches_real_cgls_clock() {
        assert_replays_charge_like_real(&["cgls_qr"]);
    }

    /// The cases the tests above and `lu_ir`'s replay test leave.
    #[test]
    fn replays_charge_like_the_real_solvers() {
        assert_replays_charge_like_real(&["qr_svd", "rgsqrf_direct", "scusolve", "dcusolve"]);
    }

    #[test]
    fn paper_scale_charges_are_finite_and_fast_to_compute() {
        let eng = GpuSim::default();
        rgsqrf(&eng, 32768, 16384, &RgsqrfConfig::default());
        let t = eng.clock();
        assert!(t > 0.0 && t.is_finite());
        // Headline sanity: TFLOPS in the paper's reported range.
        let tflops = tensor_engine::perf::rgsqrf_flops(32768, 16384) / t / 1e12;
        assert!(
            (15.0..40.0).contains(&tflops),
            "modeled {tflops} TFLOPS at 32768x16384"
        );
    }

    #[test]
    fn no_tc_replay_respects_engine_config() {
        let tc = GpuSim::default();
        rgsqrf(&tc, 32768, 8192, &RgsqrfConfig::default());
        let plain = GpuSim::new(EngineConfig::no_tensorcore());
        rgsqrf(&plain, 32768, 8192, &RgsqrfConfig::default());
        assert!(tc.clock() < plain.clock());
        assert!(plain.counters().tc_flops == 0.0);
    }
}
