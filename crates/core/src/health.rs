//! Numerical-health monitoring: cheap, trace-visible answers to "is the
//! factorization still healthy?"
//!
//! The paper's failure modes are all *numerical* long before they are
//! visible in the output: Q drifting from orthogonality with cond(A)
//! (Figure 4), CGLS residuals stalling when the R preconditioner carries
//! fp16 damage (§4.2.2), overflow when §3.5's scaling is skipped. This
//! module centralizes the monitors that watch for them:
//!
//! - [`sample_orthogonality`] measures `||I - Q^T Q||` and emits a
//!   `health.orthogonality` op event (consumed by `tcqr-metrics` as the
//!   `tcqr_orthogonality_error{level,stage}` gauges);
//! - [`emit_scaling`] reports the §3.5 power-of-two exponent range as a
//!   `health.scaling` event;
//! - [`decay_slope`] fits the log10 residual-decay rate of a refinement
//!   history (the slope of the Figure 9 curves; a healthy preconditioned
//!   CGLS run is steeply negative, a stalled one is ~0).
//!
//! The orthogonality check costs an `O(m n^2)` f64 GEMM per sample — real
//! money next to the factorization itself — so sampling is **off by
//! default** and gated by [`enabled`]; [`set_enabled`] (`repro --health`)
//! turns it on. The scaling and decay monitors are O(n) and always on.

use std::sync::atomic::{AtomicBool, Ordering};

use densemat::MatRef;
use tcqr_trace::schema::{HealthOrthogonality, HealthScaling};
use tcqr_trace::Value;
use tensor_engine::GpuSim;

use crate::scaling::ColumnScaling;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the expensive health monitors (orthogonality sampling) run; off
/// until [`set_enabled`] turns them on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the expensive monitors on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Measure `||I - Q^T Q||_max` of an f32 Q factor (promoted to f64, so the
/// measurement itself adds no rounding at the scale being measured) and
/// emit a `health.orthogonality` trace event.
///
/// `level` is the RGSQRF recursion depth (0 = the full factorization) and
/// `stage` distinguishes the first pass (`"factor"`) from the §3.3 second
/// pass (`"reortho"`). Returns `None` without computing anything when
/// [`enabled`] is false or the engine's tracer is off.
pub fn sample_orthogonality(
    eng: &GpuSim,
    q: MatRef<'_, f32>,
    level: usize,
    stage: &str,
) -> Option<f64> {
    let tracer = eng.tracer();
    if !enabled() || !tracer.enabled() {
        return None;
    }
    let q64 = q.to_owned().convert::<f64>();
    let value = densemat::metrics::orthogonality_error(q64.as_ref());
    HealthOrthogonality {
        level: level as u64,
        stage: stage.into(),
        m: q.nrows() as u64,
        n: q.ncols() as u64,
        value,
    }
    .emit(&tracer);
    Some(value)
}

/// Emit a `health.scaling` event describing the §3.5 column scaling that was
/// applied: how many columns were rescaled and the base-2 exponent range of
/// the factors. No-op for the identity scaling (nothing was done).
pub fn emit_scaling(eng: &GpuSim, scaling: &ColumnScaling) {
    let Some((min_exp, max_exp)) = scaling.exponent_range() else {
        return;
    };
    HealthScaling {
        min_exp: min_exp as i64,
        max_exp: max_exp as i64,
        scaled_cols: scaling.scaled_cols() as u64,
    }
    .emit(&eng.tracer());
}

/// Warn that §3.5 scaling found NaN-poisoned columns and left them alone.
///
/// `solver` names the entry point (e.g. `"rgsqrf_scaled"`), `nan_cols` the
/// column indices reported by
/// [`crate::scaling::compute_column_scaling`]. Emits one
/// `scaling.nan_column` warning in the style of `engine.fp16_overflow` —
/// the data was poisoned *before* the factorization, and every downstream
/// GEMM will propagate it. No-op when `nan_cols` is empty.
pub fn warn_nan_columns(eng: &GpuSim, solver: &str, nan_cols: &[usize]) {
    if nan_cols.is_empty() {
        return;
    }
    eng.tracer().warn(
        "scaling.nan_column",
        &[
            ("solver", Value::from(solver)),
            ("nan_cols", Value::from(nan_cols.len())),
            ("first_col", Value::from(nan_cols[0])),
            (
                "msg",
                Value::from(
                    "input columns contain NaN; column scaling left them \
                     unscaled and the factorization output will carry NaN",
                ),
            ),
        ],
    );
}

/// Least-squares slope of `log10(rel_residual)` against iteration number.
///
/// `history[k]` is taken as the relative residual after iteration `k + 1`
/// (the convention of `RefineOutcome::history`). Non-finite and non-positive
/// entries are skipped; `None` if fewer than two usable points remain. A
/// healthy preconditioned refiner decays geometrically — slope around
/// `-1` means one decimal digit per iteration; a stall shows as a slope
/// near zero.
pub fn decay_slope(history: &[f64]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = history
        .iter()
        .enumerate()
        .filter(|(_, &r)| r.is_finite() && r > 0.0)
        .map(|(i, &r)| ((i + 1) as f64, r.log10()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_slope_of_geometric_decay_is_minus_one() {
        // rel = 10^-k after iteration k.
        let history: Vec<f64> = (1..=8).map(|k| 10f64.powi(-k)).collect();
        let slope = decay_slope(&history).unwrap();
        assert!((slope + 1.0).abs() < 1e-12, "slope {slope}");
    }

    #[test]
    fn decay_slope_of_a_stall_is_near_zero() {
        let history = vec![1e-3; 10];
        let slope = decay_slope(&history).unwrap();
        assert!(slope.abs() < 1e-12, "slope {slope}");
    }

    #[test]
    fn decay_slope_skips_unusable_points() {
        assert_eq!(decay_slope(&[]), None);
        assert_eq!(decay_slope(&[1e-3]), None);
        assert_eq!(decay_slope(&[0.0, -1.0, f64::NAN]), None);
        // The bad points don't poison the fit.
        let slope = decay_slope(&[1e-1, f64::NAN, 1e-3]).unwrap();
        assert!(slope < 0.0);
    }

    /// The override toggle and the gated monitors, exercised in ONE test:
    /// `set_enabled` flips process-global state, so spreading these
    /// assertions over parallel test functions would race.
    #[test]
    fn override_gates_the_orthogonality_monitor() {
        use crate::rgsqrf::{rgsqrf, RgsqrfConfig};
        use densemat::gen::{self, rng};
        use std::sync::Arc;
        use tcqr_trace::{MemSink, Tracer};
        use tensor_engine::{EngineConfig, GpuSim};

        let sink = Arc::new(MemSink::new());
        let eng = GpuSim::with_tracer(
            EngineConfig::no_tensorcore(),
            Tracer::new(sink.clone()),
        );
        let a = gen::gaussian(96, 48, &mut rng(7)).convert::<f32>();
        let cfg = RgsqrfConfig {
            cutoff: 16,
            caqr_width: 8,
            caqr_block_rows: 32,
            ..RgsqrfConfig::default()
        };

        set_enabled(false);
        assert!(!enabled());
        let _ = rgsqrf(&eng, a.as_ref(), &cfg);
        let quiet = sink.drain();
        assert!(
            !quiet.iter().any(|e| e.name == HealthOrthogonality::NAME),
            "disabled monitors must not emit"
        );

        set_enabled(true);
        assert!(enabled());
        let _ = rgsqrf(&eng, a.as_ref(), &cfg);
        set_enabled(false);

        let events = sink.drain();
        let samples: Vec<_> = events
            .iter()
            .filter(|e| e.name == HealthOrthogonality::NAME)
            .collect();
        assert!(!samples.is_empty(), "enabled monitors must sample");
        for s in &samples {
            let v = s.f64_field("value").unwrap();
            assert!(v.is_finite() && v < 1e-3, "drift {v} on a Gaussian matrix");
            assert!(s.str_field("stage").is_some());
            assert!(s.u64_field("level").is_some());
        }
    }

    #[test]
    fn warn_nan_columns_emits_once_with_context() {
        use std::sync::Arc;
        use tcqr_trace::{MemSink, Tracer};
        use tensor_engine::{EngineConfig, GpuSim};

        let sink = Arc::new(MemSink::new());
        let eng = GpuSim::with_tracer(
            EngineConfig::no_tensorcore(),
            Tracer::new(sink.clone()),
        );
        // Clean input: silence.
        warn_nan_columns(&eng, "rgsqrf_scaled", &[]);
        assert!(sink.is_empty());
        // Poisoned input: one warning naming the solver and the columns.
        warn_nan_columns(&eng, "rgsqrf_scaled", &[2, 5]);
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.name, "scaling.nan_column");
        assert_eq!(ev.str_field("solver"), Some("rgsqrf_scaled"));
        assert_eq!(ev.u64_field("nan_cols"), Some(2));
        assert_eq!(ev.u64_field("first_col"), Some(2));
    }

    #[test]
    fn emit_scaling_reports_exponent_range() {
        use crate::scaling::ColumnScaling;
        use std::sync::Arc;
        use tcqr_trace::{MemSink, Tracer};
        use tensor_engine::{EngineConfig, GpuSim};

        let sink = Arc::new(MemSink::new());
        let eng = GpuSim::with_tracer(
            EngineConfig::no_tensorcore(),
            Tracer::new(sink.clone()),
        );
        // Identity: nothing to report.
        emit_scaling(&eng, &ColumnScaling::identity(4));
        assert!(sink.is_empty());
        // 2^-3 and 2^5 factors on two of four columns.
        let scaling = ColumnScaling {
            scales: vec![1.0, 0.125, 32.0, 1.0],
        };
        emit_scaling(&eng, &scaling);
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.name, HealthScaling::NAME);
        assert_eq!(ev.f64_field("min_exp"), Some(-3.0));
        assert_eq!(ev.f64_field("max_exp"), Some(5.0));
        assert_eq!(ev.u64_field("scaled_cols"), Some(2));
    }
}
