//! QR accuracy figures: Figure 3 (backward error) and Figure 4
//! (orthogonality), with real mixed-precision numerics on the simulated
//! engine.
//!
//! The paper runs 32768 x 16384 with the SVD-arithmetic spectrum and
//! condition numbers 10^0..10^7; error behaviour is size-independent up to a
//! modest constant, so the reduced default sizes preserve the curves' shape
//! (flat backward error; orthogonality linear in cond for RGSQRF, flat for
//! SGEQRF and RGSQRF-Reortho).
//!
//! The series are data-driven: [`SERIES`] names every measured line and
//! [`FIG3_SERIES`] / [`FIG4_SERIES`] pick the columns each figure renders,
//! so adding a series (as the error-corrected `ec` mode did) extends both
//! figures without touching their rendering code. The `ec` series runs the
//! same RGSQRF under [`PrecisionOverride::ErrorCorrected`] — the
//! Ootomo–Yokota hi/lo split (arXiv:2203.03341) on the same tensor cores.

use super::Scale;
use crate::table::{sci, Table};
use densemat::gen::{self, rng, Spectrum};
use densemat::lapack::Householder;
use densemat::metrics::{orthogonality_error, qr_backward_error};
use densemat::Mat;
use tcqr_core::lls::rgsqrf_scaled;
use tcqr_core::reortho::reorthogonalize;
use tcqr_core::rgsqrf::RgsqrfConfig;
use tensor_engine::{GpuSim, PrecisionOverride};

/// Condition numbers swept by Figures 3 and 4.
pub const CONDS: &[f64] = &[1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

/// One measured accuracy series: a stable key and the column label the
/// figures render it under.
#[derive(Clone, Copy, Debug)]
pub struct SeriesDef {
    /// Stable identifier (also the lookup key on [`QrAccuracyPoint`]).
    pub key: &'static str,
    /// Column header used by the figures.
    pub label: &'static str,
}

/// Every series the sweep measures, in measurement order.
pub const SERIES: &[SeriesDef] = &[
    SeriesDef { key: "rgsqrf", label: "RGSQRF" },
    SeriesDef { key: "reortho", label: "RGSQRF-Reortho" },
    SeriesDef { key: "sgeqrf", label: "SGEQRF" },
    SeriesDef { key: "ec", label: "RGSQRF-EC" },
];

/// Series keys Figure 3 (backward error) renders, in column order.
pub const FIG3_SERIES: &[&str] = &["rgsqrf", "sgeqrf", "ec"];

/// Series keys Figure 4 (orthogonality) renders, in column order.
pub const FIG4_SERIES: &[&str] = &["sgeqrf", "rgsqrf", "reortho", "ec"];

fn label_for(key: &str) -> &'static str {
    SERIES
        .iter()
        .find(|s| s.key == key)
        .unwrap_or_else(|| panic!("unknown accuracy series {key:?}"))
        .label
}

/// Both error metrics of one series at one condition number.
#[derive(Clone, Copy, Debug)]
pub struct SeriesPoint {
    /// `||A - QR|| / ||A||`.
    pub backward: f64,
    /// `||I - Q^T Q||`.
    pub orth: f64,
}

/// Per-condition-number measurements shared by Figures 3 and 4: every
/// series of [`SERIES`], keyed for data-driven rendering.
pub struct QrAccuracyPoint {
    /// Target condition number of the test matrix.
    pub cond: f64,
    series: Vec<(&'static str, SeriesPoint)>,
}

impl QrAccuracyPoint {
    /// The measurements of series `key`. Panics on an unknown key.
    pub fn series(&self, key: &str) -> SeriesPoint {
        self.series
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("unknown accuracy series {key:?}"))
            .1
    }
}

fn measure(a64: &Mat<f64>, q: &Mat<f32>, r: &Mat<f32>) -> SeriesPoint {
    let q64 = q.convert::<f64>();
    SeriesPoint {
        backward: qr_backward_error(a64.as_ref(), q64.as_ref(), r.convert::<f64>().as_ref()),
        orth: orthogonality_error(q64.as_ref()),
    }
}

/// Factor every test matrix of the sweep (RGSQRF, RGSQRF + reortho,
/// SGEQRF and RGSQRF-EC) and measure both error metrics of each series.
/// Figures 3 and 4 each call this and print one metric of it, so a run of
/// both factors and measures every matrix twice.
pub fn qr_accuracy_sweep(scale: Scale) -> Vec<QrAccuracyPoint> {
    let (m, n) = scale.qr_size();
    let cfg = RgsqrfConfig::default();
    CONDS
        .iter()
        .enumerate()
        .map(|(i, &cond)| {
            let a64 = gen::rand_svd(m, n, Spectrum::Arithmetic { cond }, &mut rng(42 + i as u64));
            let a32: Mat<f32> = a64.convert();

            // RGSQRF on the TensorCore engine, then reortho on its factors.
            let eng = GpuSim::default();
            let mut f = rgsqrf_scaled(&eng, &a32, &cfg);
            let rgs = measure(&a64, &f.q, &f.r);
            reorthogonalize(&eng, &mut f, &cfg);
            let reortho = measure(&a64, &f.q, &f.r);

            // SGEQRF baseline (f32 blocked Householder, explicit Q).
            let h = Householder::factor(a32.clone());
            let sgeqrf = measure(&a64, &h.q(), &h.r());

            // RGSQRF again, with the engine in error-corrected mode.
            let eng_ec = GpuSim::default();
            eng_ec.set_precision_override(Some(PrecisionOverride::ErrorCorrected));
            let f_ec = rgsqrf_scaled(&eng_ec, &a32, &cfg);
            let ec = measure(&a64, &f_ec.q, &f_ec.r);

            QrAccuracyPoint {
                cond,
                series: vec![
                    ("rgsqrf", rgs),
                    ("reortho", reortho),
                    ("sgeqrf", sgeqrf),
                    ("ec", ec),
                ],
            }
        })
        .collect()
}

fn figure(id: &str, title: &str, scale: Scale, keys: &[&str], backward: bool) -> Table {
    let (m, n) = scale.qr_size();
    let mut headers = vec!["cond"];
    headers.extend(keys.iter().map(|k| label_for(k)));
    let mut t = Table::new(id, title, &headers);
    t.note(format!(
        "size {m}x{n} (paper: 32768x16384), SVD-arithmetic spectrum, TensorCore engine."
    ));
    for p in qr_accuracy_sweep(scale) {
        let mut row = vec![sci(p.cond)];
        row.extend(keys.iter().map(|k| {
            let s = p.series(k);
            sci(if backward { s.backward } else { s.orth })
        }));
        t.row(row);
    }
    t
}

/// Figure 3: backward error vs condition number.
pub fn fig3(scale: Scale) -> Table {
    let mut t = figure(
        "fig3",
        "QR backward error ||A-QR||/||A|| vs cond(A): RGSQRF vs SGEQRF vs RGSQRF-EC",
        scale,
        FIG3_SERIES,
        true,
    );
    t.note(
        "Expected shape: all flat in cond(A); RGSQRF at half precision, SGEQRF at \
         single, RGSQRF-EC (error-corrected tensor-core GEMM) near single.",
    );
    t
}

/// Figure 4: orthogonality error vs condition number.
pub fn fig4(scale: Scale) -> Table {
    let mut t = figure(
        "fig4",
        "Orthogonality ||I - Q^T Q|| vs cond(A): SGEQRF vs RGSQRF vs RGSQRF-Reortho vs RGSQRF-EC",
        scale,
        FIG4_SERIES,
        false,
    );
    t.note(
        "Expected shape: SGEQRF flat; RGSQRF grows ~linearly with cond; Reortho flat \
         again; RGSQRF-EC tracks far below plain RGSQRF.",
    );
    t
}
