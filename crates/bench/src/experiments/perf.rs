//! Performance tables and figures: Table 2, Table 3, Figures 1, 2, 5, 6, 7.
//!
//! All device times come from the Table-3-calibrated performance model; the
//! paper-scale runs use the charge-replay (`tcqr_core::cost`), which a
//! consistency test pins to the real implementation's clock.

use crate::table::{ms, speedup, tf, Table};
use densemat::{Mat, Op};
use std::time::Instant;
use tcqr_core::cost;
use tcqr_core::perf_est::{house_blocked_tflops, magma_hybrid_tflops, rgsqrf_tflops, EstPanel};
use tcqr_core::rgsqrf::RgsqrfConfig;
use tensor_engine::calibration::TABLE3;
use tensor_engine::perf::{householder_qr_flops, rgsqrf_flops};
use tensor_engine::{EngineConfig, GpuSim, Phase};

/// Table 2: MAGMA hybrid QR with SGEMM vs TC-GEMM trailing update,
/// 32768 x 16384, block sizes 32..768.
pub fn table2() -> Table {
    let mut t = Table::new(
        "table2",
        "MAGMA hybrid SGEQRF, trailing update SGEMM vs TC-GEMM (32768x16384)",
        &[
            "block",
            "model no-TC (TFLOPS)",
            "model TC (TFLOPS)",
            "paper no-TC",
            "paper TC",
        ],
    );
    t.note("Pipeline model: CPU panel overlapped with GPU larfb; see perf_est::magma_hybrid_tflops.");
    t.note("Qualitative target: peak at small blocks, TC barely helps, collapse at B >= 512.");
    let paper = [
        (32, 4.58, 4.63),
        (64, 6.09, 7.02),
        (128, 4.51, 4.87),
        (256, 3.36, 3.52),
        (512, 1.73, 1.64),
        (768, 0.86, 0.86),
    ];
    for (b, p_no, p_tc) in paper {
        t.row(vec![
            b.to_string(),
            tf(magma_hybrid_tflops(32768, 16384, b, false)),
            tf(magma_hybrid_tflops(32768, 16384, b, true)),
            tf(p_no),
            tf(p_tc),
        ]);
    }
    t
}

/// Table 3: the V100 calibration data (verbatim) plus this machine's
/// measured emulated-engine GEMM throughput at small shapes, to show the
/// CPU emulation the accuracy experiments actually run on.
pub fn table3() -> Table {
    let mut t = Table::new(
        "table3",
        "GEMM/SGEQRF rates vs k (paper's V100 calibration + this machine's emulation)",
        &[
            "k",
            "V100 TC (kxm.mxk)",
            "V100 FP32",
            "V100 TC (mxk.kxk)",
            "V100 FP32 ",
            "V100 SGEQRF",
            "emu TC (GFLOPS)",
            "emu FP32 (GFLOPS)",
        ],
    );
    t.note("V100 columns are the paper's Table 3 (TFLOPS), used as the performance model's calibration.");
    t.note("emu columns: measured wall-clock of this repo's software engine (m=2048), for context only.");
    for row in TABLE3 {
        let (emu_tc, emu_s) = if row.k <= 512 {
            measure_emulated_gemm(2048, row.k)
        } else {
            (f64::NAN, f64::NAN)
        };
        let fmt_emu = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.1}")
            }
        };
        t.row(vec![
            row.k.to_string(),
            tf(row.tc_reduce),
            tf(row.s_reduce),
            tf(row.tc_update),
            tf(row.s_update),
            tf(row.sgeqrf),
            fmt_emu(emu_tc),
            fmt_emu(emu_s),
        ]);
    }
    t
}

/// Wall-clock GFLOPS of the emulated TC-GEMM and plain f32 GEMM in the
/// update shape `(m x k)(k x k)` on this machine.
fn measure_emulated_gemm(m: usize, k: usize) -> (f64, f64) {
    let a: Mat<f32> = Mat::from_fn(m, k, |i, j| (((i * 31 + j * 7) % 97) as f32) / 97.0 - 0.5);
    let b: Mat<f32> = Mat::from_fn(k, k, |i, j| (((i * 13 + j * 3) % 89) as f32) / 89.0 - 0.5);
    let flops = 2.0 * m as f64 * k as f64 * k as f64;

    let eng = GpuSim::default();
    let mut c: Mat<f32> = Mat::zeros(m, k);
    let t0 = Instant::now();
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
    let tc = flops / t0.elapsed().as_secs_f64() / 1e9;

    let mut c2: Mat<f32> = Mat::zeros(m, k);
    let t0 = Instant::now();
    densemat::gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
    let s = flops / t0.elapsed().as_secs_f64() / 1e9;
    (tc, s)
}

/// Figure 1: estimated blocked Householder QR performance vs block size,
/// TC vs plain trailing update (formula (4)).
pub fn fig1() -> Table {
    let mut t = Table::new(
        "fig1",
        "Estimated blocked Householder QR vs block size B (32768x16384, formula (4))",
        &["B", "TC-GEMM update (TFLOPS)", "SGEMM update (TFLOPS)"],
    );
    t.note("Paper's conclusions: TC adds only ~30%, and neither beats cuSOLVER SGEQRF (~6.7 TFLOPS).");
    for i in 0..8 {
        let b = 128usize << i;
        t.row(vec![
            b.to_string(),
            tf(house_blocked_tflops(16384, b, true)),
            tf(house_blocked_tflops(16384, b, false)),
        ]);
    }
    t
}

/// Figure 2: estimated RGSQRF performance vs recursion cutoff (formula (7)).
pub fn fig2() -> Table {
    let mut t = Table::new(
        "fig2",
        "Estimated RGSQRF vs cutoff B (32768x16384, formula (7), SGEQRF panel)",
        &["B", "TC-GEMM (TFLOPS)", "SGEMM (TFLOPS)"],
    );
    t.note("Paper: recursive QR is near-optimal already at B = 128 and clearly beats tiled QR with TC.");
    for i in 0..8 {
        let b = 128usize << i;
        t.row(vec![
            b.to_string(),
            tf(rgsqrf_tflops(16384, b, true, EstPanel::Sgeqrf)),
            tf(rgsqrf_tflops(16384, b, false, EstPanel::Sgeqrf)),
        ]);
    }
    t
}

/// The size grid shared by Figures 5-7 (m, n at paper scale).
pub const PERF_GRID: &[(usize, usize)] = &[
    (32768, 2048),
    (32768, 4096),
    (32768, 8192),
    (32768, 16384),
    (32768, 32768),
    (65536, 8192),
    (131072, 4096),
    (262144, 2048),
];

/// Figure 5: RGSQRF-Reortho vs cuSOLVER SGEQRF + SORMQR (explicit Q).
pub fn fig5() -> Table {
    let mut t = Table::new(
        "fig5",
        "Orthogonalization: RGSQRF-Reortho vs SGEQRF+SORMQR (modeled V100 ms)",
        &["m", "n", "RGSQRF-Reortho", "SGEQRF+SORMQR", "speedup"],
    );
    t.note("Paper reports 3.7x-7.7x across sizes.");
    let cfg = RgsqrfConfig::default();
    for &(m, n) in PERF_GRID {
        let e1 = GpuSim::default();
        cost::rgsqrf_reortho(&e1, m, n, &cfg);
        let e2 = GpuSim::default();
        cost::sgeqrf_orgqr(&e2, m, n);
        t.row(vec![
            m.to_string(),
            n.to_string(),
            ms(e1.clock()),
            ms(e2.clock()),
            speedup(e2.clock() / e1.clock()),
        ]);
    }
    t
}

/// Figure 6: RGSQRF with CAQR vs SGEQRF panel, speedups over cuSOLVER.
pub fn fig6() -> Table {
    let mut t = Table::new(
        "fig6",
        "RGSQRF performance: CAQR panel vs SGEQRF panel vs cuSOLVER SGEQRF (modeled)",
        &[
            "m",
            "n",
            "CAQR panel (TFLOPS)",
            "SGEQRF panel (TFLOPS)",
            "cuSOLVER (TFLOPS)",
            "speedup (CAQR)",
            "speedup (SGEQRF panel)",
        ],
    );
    t.note("Speedups are wall-time ratios vs cuSOLVER SGEQRF (paper band: 3.0x-14.6x).");
    t.note("TFLOPS are on each algorithm's own flop count (RGS: 2mn^2; Householder: 2mn^2-2n^3/3).");
    for &(m, n) in PERF_GRID {
        let caqr = GpuSim::default();
        cost::rgsqrf(&caqr, m, n, &RgsqrfConfig::default());
        let sg = GpuSim::default();
        cost::rgsqrf(&sg, m, n, &RgsqrfConfig::with_sgeqrf_panel());
        let cus = GpuSim::default();
        cost::sgeqrf(&cus, m, n);
        let rgs_fl = rgsqrf_flops(m, n);
        let hh_fl = householder_qr_flops(m, n);
        t.row(vec![
            m.to_string(),
            n.to_string(),
            tf(rgs_fl / caqr.clock() / 1e12),
            tf(rgs_fl / sg.clock() / 1e12),
            tf(hh_fl / cus.clock() / 1e12),
            speedup(cus.clock() / caqr.clock()),
            speedup(cus.clock() / sg.clock()),
        ]);
    }
    t
}

/// Figure 7: TensorCore (on,on) / (off,on) / (off,off) in (panel, update).
pub fn fig7() -> Table {
    let mut t = Table::new(
        "fig7",
        "RGSQRF with TensorCore enabled/disabled in panel and update (modeled TFLOPS)",
        &["m", "n", "(on,on)", "(off,on)", "(off,off)"],
    );
    t.note("Paper: TC in the panel barely helps; TC in the update is critical (peak 36.6 TFLOPS at 32768x32768).");
    let cfg = RgsqrfConfig::default();
    for &(m, n) in PERF_GRID {
        let mut cells = vec![m.to_string(), n.to_string()];
        for ec in [
            EngineConfig::tensorcore_everywhere(),
            EngineConfig::default(),
            EngineConfig::no_tensorcore(),
        ] {
            let eng = GpuSim::new(ec);
            cost::rgsqrf(&eng, m, n, &cfg);
            cells.push(tf(rgsqrf_flops(m, n) / eng.clock() / 1e12));
        }
        t.row(cells);
    }
    t
}
