//! # tcqr-obs — fleet observability for the batched engine pool
//!
//! The batch subsystem already narrates everything this crate needs through
//! `tcqr-trace`: the scheduler's post-hoc `engine.segment` ops, the
//! `fleet.*` rollups, and the solver span closes. This crate is a pure
//! *consumer* of that stream — it adds no instrumentation to hot loops and
//! holds no global state:
//!
//! - [`timeline`] reconstructs per-engine busy/idle/recovery segments and
//!   queue-depth samples on the simulated clock ([`FleetTimeline`]);
//! - [`slo`] evaluates declarative objectives (p99 queue wait with
//!   burn-rate windows, load-balance efficiency, fault-escape counts,
//!   residual bounds) and narrates breaches back into the trace as typed
//!   `slo.breach` / `slo.recovered` / `slo.objective` events
//!   ([`SloSpec`], [`evaluate`], [`SloReport`]);
//! - [`dashboard`] renders both as a self-contained HTML report (inline
//!   SVG Gantt + sparkline + status table, zero JS) ([`render`]);
//! - [`diff`] aligns two runs' traces by span path × phase × op class ×
//!   engine and attributes every delta to the deepest owning node, with a
//!   ranked blame table ([`AttributionTree`], [`TraceDiff`]);
//! - [`critpath`] reconstructs the makespan-critical chain, per-job slack,
//!   and the bottleneck engine, narrated as `fleet.critpath.*` events
//!   ([`CritPath`]);
//! - [`budget`] accounts measured rounding events against
//!   Yang-Fox-Sanders-style per-phase error bounds, narrated as
//!   `error.budget` events ([`ErrorBudget`]).
//!
//! ## Determinism contract
//!
//! Everything here is a pure function of deterministic inputs. The batch
//! layer's static-lane oracle guarantees the `engine.segment` /
//! `fleet.*` events are bit-identical in content *and order* for any
//! worker count, and residual objectives reduce span closes through
//! an order-independent max — so [`FleetTimeline::digest`],
//! [`SloReport::alert_digest`], and the rendered dashboard bytes are all
//! invariant under `--threads`. The attribution layer goes one step
//! further: per-node float accumulation is folded in IEEE total order
//! (not stream order), so [`AttributionTree`], [`TraceDiff`],
//! [`CritPath`], and [`ErrorBudget`] — and their JSON renderings — are
//! bit-identical even across the *interleaved* per-engine op events that
//! different `--threads` schedules deliver in different orders. CI
//! compares the rendered bytes directly.
//!
//! The crate depends on `tcqr-trace` and on `halfsim` (for the one copy of
//! the rounding-error bounds in `halfsim::bounds`), not on `tcqr-metrics`:
//! metric export happens by emitting `slo.*` trace events that the
//! `tcqr-metrics` fold renders as `tcqr_slo_*` series, which keeps one
//! source of truth and avoids double counting.

pub mod budget;
pub mod critpath;
pub mod dashboard;
pub mod diff;
pub mod slo;
pub mod timeline;

pub use budget::{ErrorBudget, PhaseBudget};
pub use critpath::{CritPath, JobSlack};
pub use dashboard::render;
pub use diff::{AttributionTree, BlameRow, Delta, NodeStats, TraceDiff};
pub use slo::{
    evaluate, BurnWindow, Objective, ObjectiveKind, ObjectiveOutcome, SloReport, SloSpec, Transition,
};
pub use timeline::{EngineTimeline, FleetTimeline, Segment};
