//! # tcqr-metrics
//!
//! Aggregation and export layer on top of [`tcqr-trace`]: where the trace
//! crate moves individual events, this crate turns the stream into numbers
//! you can gate a benchmark on and pictures you can load into a profiler.
//!
//! Four pieces:
//!
//! - **[`fold`]** — [`RunReport`], the one fold over a trace stream. Its
//!   `observe` owns every aggregation rule for engine charges, solver spans,
//!   and the typed summary events of `tcqr_trace::schema`; it renders both
//!   the dotted keys of the baseline gate ([`RunReport::metrics`]) and the
//!   `tcqr_*` Prometheus series ([`RunReport::render_prometheus`]).
//! - **[`prometheus`]** — the text exposition format: the log2-bucketed
//!   [`Histogram`] the fold owns, series names with escaped label values,
//!   and the writer that gives every family a `# HELP` ([`help_for`]) and a
//!   `# TYPE` line.
//! - **[`bridge`]** — [`TraceToMetrics`], a `TraceSink` that drives one
//!   [`RunReport`] over the live stream of the whole process and renders it
//!   with [`TraceToMetrics::render_prometheus`]. Per-experiment reports
//!   folded from the same events therefore agree with the Prometheus view: a
//!   series with a baseline counterpart is the sum, max, min, or argmax of
//!   the per-experiment values.
//! - **[`chrome`]** — [`chrome_trace_json`] / [`ChromeTraceSink`], exporting
//!   a trace as Chrome Trace Event JSON on a *virtual clock* built from the
//!   engine's modeled seconds, loadable directly in
//!   <https://ui.perfetto.dev>. Fleet events get their own process row:
//!   `engine.segment` ops render as complete slices on pid 2 with one tid
//!   per engine. [`validate_chrome_trace`] checks the schema so CI can
//!   assert the file is loadable.
//!
//! [`json`] re-exports the workspace's one JSON codec, `tcqr_trace::json`:
//! the Chrome exporter and validator, `bench-diff`'s baseline files and the
//! `benchmark/` harness all read and write JSON through it.
//!
//! Both sinks deliberately ignore `TraceSink::reset()`: the simulated engine
//! resets the installed sink between experiment phases, and metrics and
//! exported traces are meant to span the whole run.
//!
//! [`tcqr-trace`]: ../tcqr_trace/index.html
//!
//! ```
//! use std::sync::Arc;
//! use tcqr_trace::{Tracer, Value};
//! use tcqr_metrics::TraceToMetrics;
//!
//! let bridge = Arc::new(TraceToMetrics::new());
//! let tracer = Tracer::new(bridge.clone());
//! tracer.op("gemm", &[
//!     ("phase", Value::from("update")),
//!     ("secs", Value::from(1.5e-3)),
//! ]);
//! let text = bridge.render_prometheus();
//! assert!(text.contains("tcqr_modeled_seconds{phase=\"update\"} 0.0015\n"));
//! ```

#![warn(missing_docs)]

pub mod bridge;
pub mod chrome;
pub mod fold;
pub mod prometheus;

pub use tcqr_trace::json;

pub use bridge::{help_for, TraceToMetrics};
pub use fold::{FaultSummary, Rollup, RunReport, SolveSummary};
pub use chrome::{
    chrome_trace_json, validate_chrome_trace, ChromeStats, ChromeTraceSink,
};
pub use prometheus::Histogram;
