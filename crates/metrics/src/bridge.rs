//! The [`TraceToMetrics`] sink: the live fold of the trace stream.
//!
//! The sink drives one [`RunReport`] over every event it sees, under a lock,
//! and renders it as Prometheus text on demand. The fold owns every
//! aggregation rule, so the Prometheus series and the baseline keys
//! `tcqr-bench` renders from per-experiment folds of the same events agree
//! by construction.

use std::sync::Mutex;

use tcqr_trace::{Event, TraceSink};

use crate::fold::RunReport;

/// A [`TraceSink`] that folds events into a [`RunReport`] and renders it as
/// the `tcqr_*` Prometheus series with [`TraceToMetrics::render_prometheus`].
/// [`RunReport::observe`] owns the aggregation rules; [`help_for`] holds
/// the series' descriptions.
///
/// `reset()` is deliberately a **no-op**: `GpuSim::reset()` resets the
/// installed global sink between experiment phases, and the whole point of
/// the fold is to accumulate across a run.
#[derive(Debug, Default)]
pub struct TraceToMetrics {
    fold: Mutex<RunReport>,
}

impl TraceToMetrics {
    /// A bridge with an empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fold so far, as Prometheus exposition text.
    pub fn render_prometheus(&self) -> String {
        self.fold().render_prometheus()
    }

    fn fold(&self) -> std::sync::MutexGuard<'_, RunReport> {
        self.fold
            .lock()
            .expect("a thread panicked while folding a trace event")
    }
}

impl TraceSink for TraceToMetrics {
    fn record(&self, ev: &Event) {
        self.fold().observe(ev);
    }

    /// No-op: the fold accumulates across engine resets (see type docs).
    fn reset(&self) {}
}

/// One-line `# HELP` description for a metric family, covering every family
/// [`RunReport::render_prometheus`] writes. `None` for
/// unregistered families (the renderer falls back to a generic line so the
/// exposition stays conformant either way).
pub fn help_for(family: &str) -> Option<&'static str> {
    Some(match family {
        "tcqr_events_total" => "Trace events recorded",
        "tcqr_warnings_total" => "Warn-level trace events recorded",
        "tcqr_modeled_seconds" => "Modeled engine seconds accumulated per phase",
        "tcqr_op_secs" => "Distribution of per-op modeled seconds per phase",
        "tcqr_flops" => "Floating-point operations accumulated per compute class",
        "tcqr_gemm_calls_total" => "Routed engine GEMMs (gemm ops; charge_gemm charges excluded)",
        "tcqr_panel_calls_total" => "Panel factorization invocations",
        "tcqr_rounded_total" => "Values rounded through the fp16/bf16 path",
        "tcqr_fp16_overflow_total" => "fp16 roundings that overflowed to Inf",
        "tcqr_fp16_underflow_total" => "fp16 roundings that flushed to zero",
        "tcqr_fp16_nan_total" => "fp16 roundings that produced NaN",
        "tcqr_fp16_overflow_rate" => "Fraction of roundings that overflowed",
        "tcqr_fp16_underflow_rate" => "Fraction of roundings that underflowed",
        "tcqr_fp16_nan_rate" => "Fraction of roundings that produced NaN",
        "tcqr_orthogonality_error" => "Last observed ||I - Q'Q|| per level and stage",
        "tcqr_orthogonality_error_max" => "Worst observed ||I - Q'Q||",
        "tcqr_scaling_min_exp" => "Smallest column-scaling exponent applied in any solve",
        "tcqr_scaling_max_exp" => "Largest column-scaling exponent applied in any solve",
        "tcqr_scaling_scaled_cols" => "Most columns adjusted by any one scaling pass",
        "tcqr_fault_injected_total" => "Faults injected by the active campaign",
        "tcqr_fault_detected_total" => "Faults flagged by the ABFT/non-finite detectors",
        "tcqr_recovery_retries_total" => "Recovery-ladder retries per rung",
        "tcqr_recovery_outcomes_total" => "Recovery-ladder outcomes by final status",
        "tcqr_solves_total" => "Iterative least-squares solves completed per solver",
        "tcqr_stalled_solves_total" => "Solves that hit the stagnation guard",
        "tcqr_solve_iterations" => "Iterations of the most recent solve per solver",
        "tcqr_solve_final_rel" => "Final relative residual of the most recent solve",
        "tcqr_residual_decay_slope" => "log10 residual decay slope of the most recent solve",
        "tcqr_slo_healthy" => "1 when the SLO objective ended the batch healthy, else 0",
        "tcqr_slo_measured" => "Final measured value of the SLO objective",
        "tcqr_slo_breaches_total" => "SLO breach transitions per objective",
        "tcqr_slo_recovered_total" => "SLO recovery transitions per objective",
        "tcqr_batch_jobs_total" => "Jobs submitted across every batch and service fleet",
        "tcqr_batch_jobs_failed_total" => "Fleet jobs that returned a typed error",
        "tcqr_batch_engines" => "Largest pool size of any batch",
        "tcqr_batch_makespan_secs" => "Simulated makespan summed across batches",
        "tcqr_batch_busy_secs" => "Simulated engine-seconds summed across batches",
        "tcqr_batch_efficiency" => "Load-balance efficiency (ideal/makespan) of the summed batches",
        "tcqr_batch_throughput_jobs_per_sec" => {
            "Completed jobs per simulated second of summed makespan"
        }
        "tcqr_batch_queue_wait_secs" => {
            "Distribution of simulated per-job queue waits over every executed job"
        }
        "tcqr_batch_queue_wait_p50_secs" => {
            "Worst per-batch median queue wait (histogram bucket bound)"
        }
        "tcqr_batch_queue_wait_p90_secs" => {
            "Worst per-batch p90 queue wait (histogram bucket bound)"
        }
        "tcqr_batch_queue_wait_p99_secs" => {
            "Worst per-batch p99 queue wait (histogram bucket bound)"
        }
        "tcqr_critpath_bottleneck_engine" => "Bottleneck engine of the longest critical chain",
        "tcqr_critpath_jobs" => "Jobs on the makespan-critical chains, summed across batches",
        "tcqr_critpath_length_secs" => "Simulated critical-chain length summed across batches",
        "tcqr_critpath_slack_max_secs" => {
            "Worst per-job slack behind the critical lane in any batch"
        }
        "tcqr_error_budget_det_bound" => "Modeled deterministic rounding-error bound per phase",
        "tcqr_error_budget_prob_bound" => "Modeled probabilistic rounding-error bound per phase",
        "tcqr_error_budget_rounded" => "Values the phase routed through half precision",
        "tcqr_batch_exec_secs" => {
            "Distribution of simulated per-job execution times over every executed job"
        }
        "tcqr_batch_fault_injected_total" => "Faults injected across every fleet",
        "tcqr_batch_fault_detected_total" => "Faults detected across every fleet",
        "tcqr_serve_admitted" => "Submissions admitted, summed across drained services",
        "tcqr_serve_rejected" => "Submissions shed by admission control, summed across services",
        "tcqr_serve_completed" => "Jobs run to completion, summed across services",
        "tcqr_serve_failed" => "Service jobs whose solver returned a typed error, summed",
        "tcqr_serve_engines" => "Largest pool behind any drained service",
        "tcqr_serve_worst_burn" => "Worst live queue-wait burn rate any service observed",
        "tcqr_serve_burn_limit" => "Largest admission burn-rate bound among the services",
        "tcqr_serve_admission_enabled" => "1 when a queue-wait objective gated any service, else 0",
        "tcqr_serve_deaths" => "Engines that died mid-run, summed across services",
        "tcqr_serve_failovers" => "Queued items re-homed onto surviving engines",
        "tcqr_serve_retries" => "Crashed jobs retried within the retry budget",
        "tcqr_serve_quarantines" => "Engines quarantined by the circuit breaker",
        "tcqr_serve_rehabilitated" => "Quarantined engines readmitted after reset-in-place",
        "tcqr_serve_deadline_missed" => "Jobs cancelled by the deadline watchdog",
        "tcqr_serve_shed" => "Low-priority submissions shed while degraded",
        "tcqr_serve_lost" => "Jobs that exhausted the retry budget",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcqr_trace::{Tracer, Value};

    #[test]
    fn help_table_covers_every_emitted_family() {
        for family in [
            "tcqr_events_total",
            "tcqr_modeled_seconds",
            "tcqr_flops",
            "tcqr_solve_final_rel",
            "tcqr_slo_healthy",
            "tcqr_slo_breaches_total",
            "tcqr_batch_efficiency",
            "tcqr_batch_queue_wait_secs",
            "tcqr_batch_queue_wait_p50_secs",
            "tcqr_batch_queue_wait_p99_secs",
            "tcqr_critpath_bottleneck_engine",
            "tcqr_critpath_length_secs",
            "tcqr_critpath_slack_max_secs",
            "tcqr_error_budget_det_bound",
            "tcqr_error_budget_prob_bound",
            "tcqr_error_budget_rounded",
            "tcqr_serve_admitted",
            "tcqr_serve_rejected",
            "tcqr_serve_worst_burn",
            "tcqr_serve_admission_enabled",
            "tcqr_serve_deaths",
            "tcqr_serve_lost",
        ] {
            let help = help_for(family).unwrap_or_else(|| panic!("no HELP for {family}"));
            assert!(!help.is_empty());
            assert!(!help.contains('\n'), "HELP text must be one line");
        }
        assert_eq!(help_for("not_a_family"), None);
    }

    #[test]
    fn render_reads_the_live_fold_and_reset_is_a_no_op() {
        let bridge = Arc::new(TraceToMetrics::new());
        assert!(
            bridge.render_prometheus().is_empty(),
            "nothing before events"
        );
        let t = Tracer::new(bridge.clone());
        t.op(
            "gemm",
            &[
                ("phase", Value::from("update")),
                ("secs", Value::from(0.25)),
            ],
        );
        bridge.reset();
        let text = bridge.render_prometheus();
        for line in [
            "tcqr_events_total 1",
            "tcqr_gemm_calls_total 1",
            "tcqr_modeled_seconds{phase=\"update\"} 0.25",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} in\n{text}");
        }
        // Rendering is a read: a second render is the same text.
        assert_eq!(bridge.render_prometheus(), text);
    }
}
