//! # tcqr-trace
//!
//! A lightweight, zero-dependency structured event system for the HPDC '20
//! QR reproduction. The paper's whole argument rests on attributing time and
//! error to the right place — panel vs. update time (Figures 6-8), the FP16
//! overflow events behind the §3.5 scaling safeguard, CGLS convergence
//! curves (Figure 9) — so every layer of the stack emits **events** through
//! this crate instead of ad-hoc prints:
//!
//! - the simulated engine ([`tensor-engine`]'s `GpuSim`) emits one [`Event`]
//!   per routed operation: kind, shape, compute class, phase, modeled
//!   seconds, and the rounding statistics of its half-precision inputs;
//! - the solvers open **spans** per RGSQRF recursion level, CAQR panel, and
//!   CGLS/LSQR iteration, so a trace reconstructs the full call tree;
//! - summary events (fleet, serve, SLO, health, fault, ...) are typed in
//!   [`schema`]: each struct spells its name and fields once, with `emit`
//!   for producers and `from_event` for consumers, and
//!   [`schema::Charge::from_event`] reads engine charge ops;
//! - `tcqr-metrics`' `RunReport` folds a trace once into the per-phase and
//!   per-class rollups behind both the baseline gate and the Prometheus
//!   series, and the `repro` binary streams it to a JSONL file
//!   (`--trace`).
//!
//! [`tensor-engine`]: ../tensor_engine/index.html
//!
//! ## Model
//!
//! An [`Event`] is a flat record: a monotonically increasing sequence
//! number, a [`EventKind`] (span open/close, operation, info, warning), a
//! name, the id of the enclosing span, and a list of typed key/value
//! [`fields`](Event::fields). Events go to a [`TraceSink`]; sinks are
//! pluggable ([`NullSink`], [`MemSink`], [`JsonlSink`], [`ConsoleSink`],
//! [`FanoutSink`]) and a process-global sink can be installed with
//! [`install_global`] so deeply nested code (experiment harnesses creating
//! their own engines) traces without plumbing.
//!
//! ```
//! use std::sync::Arc;
//! use tcqr_trace::{MemSink, Tracer, Value};
//!
//! let sink = Arc::new(MemSink::new());
//! let tracer = Tracer::new(sink.clone());
//! {
//!     let span = tracer.span("solve", &[("n", Value::from(64usize))]);
//!     tracer.op("gemv", &[("secs", Value::from(1e-6))]);
//!     span.close_with(&[("converged", Value::from(true))]);
//! }
//! let events = sink.snapshot();
//! assert_eq!(events.len(), 3); // open, op, close
//! assert_eq!(events[1].span, events[0].id); // the op nests in the span
//! ```
//!
//! ## Serialization
//!
//! Every event serializes to one line of JSON ([`event_to_json`]) and parses
//! back ([`parse_jsonl`]) without any external crates, so traces round-trip
//! through files: `serialize -> parse -> aggregate` produces identical
//! results to aggregating the in-memory events. The event codec sits on
//! [`json`], the workspace's one JSON codec: a generic [`json::Json`] value
//! and parser, plus the one string escaper and number writer that every
//! JSON document in the workspace (baselines, Chrome traces, diff and
//! critical-path reports) is written with.

#![warn(missing_docs)]

mod event;
mod fingerprint;
pub mod json;
pub mod schema;
mod sink;
mod tracer;

pub use event::{Event, EventKind, Value};
pub use fingerprint::Fingerprint;
pub use json::{
    event_from_json, event_to_json, parse_jsonl, parse_jsonl_lenient, JsonError,
};
pub use sink::{
    stderr_color_enabled, stdout_color_enabled, ConsoleSink, FanoutSink, JsonlSink, MemSink,
    NullSink, TraceSink,
};
pub use tracer::{clear_global, current_span, in_span, install_global, Span, Tracer};
