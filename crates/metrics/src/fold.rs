//! The one fold over a trace stream: [`RunReport`].
//!
//! [`RunReport::observe`] owns every aggregation rule (sum, max, min,
//! argmax, count) for engine charges, solver spans, and the typed summary
//! events of [`tcqr_trace::schema`]. Two renderings read the result:
//! [`RunReport::metrics`] flattens it into the dotted keys of the baseline
//! gate, and [`RunReport::render_prometheus`] writes the `tcqr_*`
//! Prometheus series as exposition text. `tcqr-bench` folds each
//! experiment's buffered events with [`RunReport::from_events`]; the
//! [`TraceToMetrics`](crate::TraceToMetrics) sink folds the live stream of
//! the whole process. The views therefore agree by construction: a
//! Prometheus value is the sum, max, or argmax of the per-experiment
//! values.

use std::collections::BTreeMap;

use tcqr_trace::schema::{
    balance, ChaosSummary, Charge, EngineSegment, FaultDetected, FaultInjected, FleetCritpath,
    FleetSummary, HealthOrthogonality, HealthScaling, PhaseBudget, RecoveryOutcome, RecoveryRetry,
    ServeSummary, SloBreach, SloObjective, SloRecovered, SolveClose, SolveOpen,
};
use tcqr_trace::{parse_jsonl_lenient, Event, EventKind, JsonError, Value};

use crate::prometheus::{labeled, Exposition, Histogram};

/// Op names that count as panel factorizations.
const PANEL_OPS: &[&str] = &["sgeqrf", "dgeqrf", "caqr_panel"];

/// The serving layer's resilience counters: rendered only once one fired,
/// so calm serving runs keep their keyset.
const RESILIENCE: [&str; 8] = [
    "deaths",
    "failovers",
    "retries",
    "quarantines",
    "rehabilitated",
    "deadline_missed",
    "shed",
    "lost",
];

/// One iterative solve: a matched `cgls`/`lsqr` span open and close.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSummary {
    /// Solver span name: `"cgls"` or `"lsqr"`.
    pub solver: String,
    /// The span-open fields (problem shape, tolerance).
    pub open: SolveOpen,
    /// The span-close fields (outcome).
    pub close: SolveClose,
}

/// One kind of summary event folded over its records: the record count and,
/// per numeric wire field, the sum or (for the fields the fold names) the
/// maximum. A flag folds as 0/1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rollup {
    /// Records folded.
    pub count: u64,
    /// Aggregate per wire field.
    pub fields: BTreeMap<&'static str, f64>,
}

impl Rollup {
    fn absorb(&mut self, fields: Vec<(&'static str, Value)>, max: &[&str]) {
        self.count += 1;
        for (k, v) in fields {
            let Some(v) = v.as_f64().or(v.as_bool().map(|b| b as u8 as f64)) else {
                continue;
            };
            let acc = self.fields.entry(k).or_insert(0.0);
            *acc = if max.contains(&k) {
                acc.max(v)
            } else {
                *acc + v
            };
        }
    }

    /// The aggregate of `field` (0 when never seen).
    pub fn get(&self, field: &str) -> f64 {
        self.fields.get(field).copied().unwrap_or(0.0)
    }

    /// Every field not in `skip`, with its aggregate.
    fn entries<'a>(&'a self, skip: &'a [&str]) -> impl Iterator<Item = (&'static str, f64)> + 'a {
        self.fields
            .iter()
            .filter(move |(k, _)| !skip.contains(k))
            .map(|(k, v)| (*k, *v))
    }
}

/// Fault-campaign tallies: the engine's injections and detections plus the
/// solvers' recovery retries and outcomes. All zero when no campaign ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSummary {
    /// Faults the engine injected and kept.
    pub injected: u64,
    /// Corruptions the detectors flagged.
    pub detected: u64,
    /// Recovery-ladder retries.
    pub retries: u64,
    /// Retries per escalation rung name.
    pub retries_by_rung: BTreeMap<String, u64>,
    /// Recovery loops that ended healthy.
    pub recovered: u64,
    /// Recovery loops that ended healthy after at least one retry.
    pub corrected: u64,
    /// Recovery loops that gave up.
    pub exhausted: u64,
}

impl FaultSummary {
    /// Injected faults the detectors never flagged.
    pub fn escaped(&self) -> u64 {
        self.injected.saturating_sub(self.detected)
    }

    /// True when no fault campaign injected, detected, retried, or gave up
    /// (a clean first attempt alone leaves the summary empty).
    pub fn is_empty(&self) -> bool {
        [
            self.injected,
            self.detected,
            self.retries,
            self.corrected,
            self.exhausted,
        ] == [0; 5]
    }

    /// Add another summary into this one (a campaign across experiments).
    pub fn absorb(&mut self, other: &FaultSummary) {
        for (acc, v) in [
            (&mut self.injected, other.injected),
            (&mut self.detected, other.detected),
            (&mut self.retries, other.retries),
            (&mut self.recovered, other.recovered),
            (&mut self.corrected, other.corrected),
            (&mut self.exhausted, other.exhausted),
        ] {
            add(acc, v);
        }
        for (rung, n) in &other.retries_by_rung {
            add(self.retries_by_rung.entry(rung.clone()).or_insert(0), *n);
        }
    }
}

/// Rollup of one traced run. Build it with [`RunReport::from_events`] or
/// [`RunReport::from_jsonl`], or feed events one at a time to
/// [`RunReport::observe`]. Equality is derived, so "serialize, parse,
/// re-aggregate" can be checked with `==`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Events consumed (all kinds).
    pub events: u64,
    /// Warn events consumed, including the ones a rollup absorbed.
    pub warn_events: u64,
    /// Modeled seconds per phase, summed over charges.
    pub phase_secs: BTreeMap<String, f64>,
    /// Distribution of per-charge modeled seconds per phase.
    pub op_secs: BTreeMap<String, Histogram>,
    /// Flops per arithmetic class, summed over charges.
    pub class_flops: BTreeMap<String, f64>,
    /// Routed engine GEMMs (`gemm` ops).
    pub gemm_calls: u64,
    /// Panel factorizations (`sgeqrf`, `dgeqrf`, `caqr_panel` ops).
    pub panel_calls: u64,
    /// Values passed through a half-precision rounding step.
    pub rounded: u64,
    /// Half-precision overflows.
    pub overflow: u64,
    /// Half-precision underflows.
    pub underflow: u64,
    /// NaNs produced by rounding.
    pub nan: u64,
    /// Rendered warnings that no rollup absorbed, in emission order.
    pub warnings: Vec<String>,
    /// Completed solver spans, in close order.
    pub solves: Vec<SolveSummary>,
    /// Orthogonality samples seen.
    pub ortho_samples: u64,
    /// Worst sampled orthogonality error.
    pub ortho_max: Option<f64>,
    /// Last orthogonality error per `(level, stage)`.
    pub ortho_last: BTreeMap<(u64, String), f64>,
    /// Column scaling across solves: smallest `min_exp`, largest `max_exp`,
    /// most `scaled_cols`.
    pub scaling: Option<HealthScaling>,
    /// Fault-campaign tallies.
    pub fault: FaultSummary,
    /// Batches summed; pool size and queue-wait figures take the maximum,
    /// and the balance ratios are recomputed from the sums.
    pub fleet: Rollup,
    /// Critical paths summed; the worst slack takes the maximum, and
    /// `engine` is the bottleneck of the longest single chain.
    pub critpath: Rollup,
    /// `(length, engine)` of the longest single chain (first wins ties).
    pub critpath_longest: Option<(f64, u64)>,
    /// Per-job segments in emission order.
    pub segments: Vec<EngineSegment>,
    /// SLO objectives summed: `healthy` counts the healthy ones.
    pub slo: Rollup,
    /// Last `(healthy, measured)` per objective.
    pub slo_last: BTreeMap<String, (bool, f64)>,
    /// Breach events per objective.
    pub slo_breach_events: BTreeMap<String, u64>,
    /// Recovery events per objective.
    pub slo_recovered_events: BTreeMap<String, u64>,
    /// Last error budget per phase.
    pub budgets: BTreeMap<String, PhaseBudget>,
    /// Services summed; pool size, burn figures, and `admission` take the
    /// maximum.
    pub serve: Rollup,
    /// Chaos campaigns summed; the fleet size takes the maximum.
    pub chaos: Rollup,
    /// Completed `experiment` spans in close order: the id and the real
    /// wall-clock seconds of the close's `wall_secs` (`None` when absent or
    /// not finite).
    pub experiments: Vec<(String, Option<f64>)>,
    /// Lines the lenient JSONL parser skipped. Always 0 for live events.
    pub skipped_lines: u64,
    open_solves: BTreeMap<u64, (String, SolveOpen)>,
    open_experiments: BTreeMap<u64, String>,
}

impl RunReport {
    /// Fold a stream of events (in emission order) into a report.
    pub fn from_events(events: &[Event]) -> RunReport {
        let mut rep = RunReport::default();
        for ev in events {
            rep.observe(ev);
        }
        rep
    }

    /// Parse a JSONL trace and fold it. Blank lines and events of unknown
    /// kind are skipped and counted in [`RunReport::skipped_lines`];
    /// malformed JSON errors.
    pub fn from_jsonl(text: &str) -> Result<RunReport, JsonError> {
        let (events, skipped) = parse_jsonl_lenient(text)?;
        let mut rep = RunReport::from_events(&events);
        rep.skipped_lines = skipped;
        Ok(rep)
    }

    /// Fold one event.
    pub fn observe(&mut self, ev: &Event) {
        self.events += 1;
        match ev.kind {
            EventKind::Op => self.observe_op(ev),
            EventKind::Warn => {
                self.warn_events += 1;
                if FaultDetected::is(ev) {
                    self.fault.detected += 1;
                } else if let Some(r) = RecoveryRetry::from_event(ev) {
                    self.fault.retries += 1;
                    *self.fault.retries_by_rung.entry(r.rung).or_insert(0) += 1;
                } else if let Some(b) = SloBreach::from_event(ev) {
                    // The breach tally arrives with the closing objective
                    // record; keeping it out of the warning list keeps
                    // `counts.warnings` spec-independent.
                    *self.slo_breach_events.entry(b.objective).or_insert(0) += 1;
                } else {
                    self.warnings.push(render_warning(ev));
                }
            }
            EventKind::SpanOpen => {
                if let Some(open) = SolveOpen::from_event(ev) {
                    self.open_solves.insert(ev.id, (ev.name.clone(), open));
                } else if ev.name == "experiment" {
                    let id = ev.str_field("id").unwrap_or("?").to_string();
                    self.open_experiments.insert(ev.id, id);
                }
            }
            EventKind::SpanClose => {
                if let Some(id) = self.open_experiments.remove(&ev.id) {
                    let wall = ev.f64_field("wall_secs").filter(|w| w.is_finite());
                    self.experiments.push((id, wall));
                } else if let Some((solver, open)) = self.open_solves.remove(&ev.id) {
                    if let Some(close) = SolveClose::from_event(ev) {
                        self.solves.push(SolveSummary {
                            solver,
                            open,
                            close,
                        });
                    }
                }
            }
            EventKind::Info => {}
        }
    }

    fn observe_op(&mut self, ev: &Event) {
        if let Some(c) = Charge::from_event(ev) {
            if let (Some(phase), Some(secs)) = (c.phase, c.secs) {
                add_to(&mut self.phase_secs, phase, secs);
                match self.op_secs.get_mut(phase) {
                    Some(h) => h.observe(secs),
                    None => {
                        let mut h = Histogram::new();
                        h.observe(secs);
                        self.op_secs.insert(phase.to_string(), h);
                    }
                }
            }
            if let (Some(class), Some(flops)) = (c.class, c.flops) {
                add_to(&mut self.class_flops, class, flops);
            }
            if c.name == "gemm" {
                self.gemm_calls += 1;
            } else if PANEL_OPS.contains(&c.name) {
                self.panel_calls += 1;
            }
            add(&mut self.rounded, c.rounded.unwrap_or(0));
            add(&mut self.overflow, c.overflow);
            add(&mut self.underflow, c.underflow);
            add(&mut self.nan, c.nan);
        } else if let Some(h) = HealthOrthogonality::from_event(ev) {
            self.ortho_samples += 1;
            if !h.value.is_nan() {
                self.ortho_max = Some(self.ortho_max.map_or(h.value, |m| m.max(h.value)));
            }
            self.ortho_last.insert((h.level, h.stage), h.value);
        } else if let Some(s) = HealthScaling::from_event(ev) {
            let acc = self.scaling.get_or_insert(s.clone());
            acc.min_exp = acc.min_exp.min(s.min_exp);
            acc.max_exp = acc.max_exp.max(s.max_exp);
            acc.scaled_cols = acc.scaled_cols.max(s.scaled_cols);
        } else if FaultInjected::is(ev) {
            self.fault.injected += 1;
        } else if let Some(o) = RecoveryOutcome::from_event(ev) {
            if !o.recovered {
                self.fault.exhausted += 1;
            } else {
                self.fault.recovered += 1;
                self.fault.corrected += (o.attempts > 1) as u64;
            }
        } else if let Some(f) = FleetSummary::from_event(ev) {
            const MAX: &[&str] = &[
                "engines",
                "queue_wait_max_secs",
                "queue_wait_p50_secs",
                "queue_wait_p90_secs",
                "queue_wait_p99_secs",
            ];
            let fleet = &mut self.fleet;
            fleet.absorb(f.fields(), MAX);
            // A sum of means is no statistic, and the ratios are recomputed
            // from the sums (0 when undefined, as the emitter writes them).
            fleet.fields.remove("queue_wait_mean_secs");
            let makespan = fleet.get("makespan_secs");
            let b = balance(
                fleet.get("busy_secs"),
                makespan,
                fleet.get("engines") as u64,
            );
            for (k, v) in [
                ("ideal_secs", b.ideal_secs),
                ("efficiency", b.efficiency),
                ("makespan_vs_ideal", b.makespan_vs_ideal),
                (
                    "throughput_jobs_per_sec",
                    (makespan > 0.0).then(|| fleet.get("ok") / makespan),
                ),
            ] {
                fleet.fields.insert(k, v.unwrap_or(0.0));
            }
        } else if let Some(c) = FleetCritpath::from_event(ev) {
            if self
                .critpath_longest
                .is_none_or(|(len, _)| c.length_secs > len)
            {
                self.critpath_longest = Some((c.length_secs, c.engine));
            }
            self.critpath.absorb(c.fields(), &["slack_max_secs"]);
            let engine = self.critpath_longest.map_or(0, |(_, e)| e);
            self.critpath.fields.insert("engine", engine as f64);
        } else if let Some(s) = EngineSegment::from_event(ev) {
            self.segments.push(s);
        } else if let Some(o) = SloObjective::from_event(ev) {
            self.slo.absorb(o.fields(), &[]);
            self.slo_last.insert(o.objective, (o.healthy, o.measured));
        } else if let Some(r) = SloRecovered::from_event(ev) {
            *self.slo_recovered_events.entry(r.objective).or_insert(0) += 1;
        } else if let Some(b) = PhaseBudget::from_event(ev) {
            self.budgets.insert(b.phase.clone(), b);
        } else if let Some(s) = ServeSummary::from_event(ev) {
            let max = &["engines", "admission", "worst_burn", "burn_limit"];
            self.serve.absorb(s.fields(), max);
        } else if let Some(c) = ChaosSummary::from_event(ev) {
            self.chaos.absorb(c.fields(), &["engines"]);
        }
        // fleet.engine, fleet.critpath.job and engine.mark rows are per-item
        // detail for the timeline tools; the report keeps no aggregate.
    }

    /// Total modeled seconds across all phases.
    pub fn total_secs(&self) -> f64 {
        self.phase_secs.values().sum()
    }

    /// Total flops across all arithmetic classes.
    pub fn total_flops(&self) -> f64 {
        self.class_flops.values().sum()
    }

    /// True when a service's resilience machinery fired (deaths,
    /// watchdogs, breaker, shedding).
    pub fn serve_saw_chaos(&self) -> bool {
        RESILIENCE.iter().any(|k| self.serve.get(k) > 0.0)
    }

    /// The service figures both renderings show: everything but the
    /// `admission` flag, and the resilience counters once one fired.
    fn serve_entries(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let calm = !self.serve_saw_chaos();
        self.serve
            .entries(&["admission"])
            .filter(move |(k, _)| !(calm && RESILIENCE.contains(k)))
    }

    /// Sum of the finite experiment wall-clock seconds, `None` when no
    /// experiment carried one.
    pub fn wall_secs(&self) -> Option<f64> {
        let wall: Vec<f64> = self.experiments.iter().filter_map(|(_, w)| *w).collect();
        (!wall.is_empty()).then(|| wall.iter().sum())
    }

    /// Per-engine monotonicity check over the segment stream: in emission
    /// order, each engine's segments must satisfy `start <= end` and
    /// `start >= previous end`, up to an fp-reconstruction tolerance.
    /// Returns one description per violation.
    pub fn segment_monotonicity_violations(&self) -> Vec<String> {
        let mut last_end: BTreeMap<u64, f64> = BTreeMap::new();
        let mut out = Vec::new();
        for (i, s) in self.segments.iter().enumerate() {
            let eps = 1e-12 * s.start_secs.abs().max(1.0);
            if s.end_secs < s.start_secs - eps {
                out.push(format!(
                    "segment {i} on engine {}: end {:.17e} precedes start {:.17e}",
                    s.engine, s.end_secs, s.start_secs
                ));
            }
            if let Some(&prev) = last_end.get(&s.engine) {
                let eps = 1e-12 * prev.abs().max(1.0);
                if s.start_secs < prev - eps {
                    out.push(format!(
                        "segment {i} on engine {}: start {:.17e} precedes \
                         previous end {:.17e}",
                        s.engine, s.start_secs, prev
                    ));
                }
            }
            last_end.insert(s.engine, s.end_secs.max(s.start_secs));
        }
        out
    }

    /// Flatten the report into the dotted-key map of the baseline gate.
    ///
    /// `secs.*`, `flops.*`, `counts.*`, `round.*` and `solve.count` are
    /// always present. The other families appear only when their events
    /// did, so runs without them keep their keyset: `solve.*`, `health.*`,
    /// `fault.*`, `fleet.*` (with `fleet.critpath_*`), `slo.*`, `serve.*`
    /// (resilience counters only once they fired), `chaos.*`, and
    /// `wall.secs`, the real elapsed time the gate holds to a loose band.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let mut put = |family: &str, k: &str, v: f64| {
            m.insert(format!("{family}.{k}"), v);
        };
        for (phase, secs) in &self.phase_secs {
            put("secs", phase, *secs);
        }
        put("secs", "total", self.total_secs());
        for (class, flops) in &self.class_flops {
            put("flops", class, *flops);
        }
        put("flops", "total", self.total_flops());
        put("counts", "events", self.events as f64);
        put("counts", "gemm_calls", self.gemm_calls as f64);
        put("counts", "panel_calls", self.panel_calls as f64);
        put("counts", "warnings", self.warnings.len() as f64);
        for (k, v) in self.rounding() {
            put("round", k, v as f64);
        }
        put("solve", "count", self.solves.len() as f64);
        if !self.solves.is_empty() {
            let count = |f: fn(&SolveClose) -> u64| -> f64 {
                self.solves.iter().map(|s| f(&s.close)).sum::<u64>() as f64
            };
            put("solve", "iterations", count(|c| c.iterations));
            put("solve", "converged", count(|c| c.converged as u64));
            put("solve", "stalled", count(|c| c.stalled as u64));
        }
        if self.ortho_samples > 0 {
            put("health", "ortho_samples", self.ortho_samples as f64);
            if let Some(v) = self.ortho_max {
                put("health", "ortho_max", v);
            }
        }
        if let Some(s) = &self.scaling {
            put("health", "scaling_min_exp", s.min_exp as f64);
            put("health", "scaling_max_exp", s.max_exp as f64);
            if s.scaled_cols > 0 {
                put("health", "scaled_cols", s.scaled_cols as f64);
            }
        }
        let f = &self.fault;
        if !f.is_empty() {
            put("fault", "injected", f.injected as f64);
            put("fault", "detected", f.detected as f64);
            put("fault", "escaped", f.escaped() as f64);
            put("fault", "retries", f.retries as f64);
            put("fault", "corrected", f.corrected as f64);
            put("fault", "exhausted", f.exhausted as f64);
        }
        if self.fleet.count > 0 {
            put("fleet", "batches", self.fleet.count as f64);
            for (k, v) in self.fleet.entries(&["fault_injected", "fault_detected"]) {
                put("fleet", k, v);
            }
        }
        if self.critpath.count > 0 {
            for k in ["engine", "jobs", "length_secs", "slack_max_secs"] {
                put("fleet", &format!("critpath_{k}"), self.critpath.get(k));
            }
        }
        if self.slo.count > 0 {
            put("slo", "objectives", self.slo.count as f64);
            for k in ["healthy", "breaches", "recovered"] {
                put("slo", k, self.slo.get(k));
            }
        }
        if self.serve.count > 0 {
            put("serve", "services", self.serve.count as f64);
            for (k, v) in self.serve_entries() {
                put("serve", k, v);
            }
        }
        if self.chaos.count > 0 {
            put("chaos", "campaigns", self.chaos.count as f64);
            for (k, v) in self.chaos.entries(&[]) {
                put("chaos", k, v);
            }
        }
        if let Some(wall) = self.wall_secs() {
            put("wall", "secs", wall);
        }
        m
    }

    /// The rounding tallies under their baseline names.
    fn rounding(&self) -> [(&'static str, u64); 4] {
        [
            ("rounded", self.rounded),
            ("overflow", self.overflow),
            ("underflow", self.underflow),
            ("nan", self.nan),
        ]
    }

    /// Render the report as the `tcqr_*` series in the Prometheus text
    /// exposition format. A series appears once its source events did.
    pub fn render_prometheus(&self) -> String {
        let mut out = Exposition::default();
        let nonzero = |out: &mut Exposition, name: &str, v: u64| {
            if v > 0 {
                out.counter(name, v)
            }
        };
        nonzero(&mut out, "tcqr_events_total", self.events);
        nonzero(&mut out, "tcqr_warnings_total", self.warn_events);
        nonzero(&mut out, "tcqr_gemm_calls_total", self.gemm_calls);
        nonzero(&mut out, "tcqr_panel_calls_total", self.panel_calls);
        for (phase, secs) in &self.phase_secs {
            out.gauge(labeled("tcqr_modeled_seconds", &[("phase", phase)]), *secs);
        }
        for (phase, h) in &self.op_secs {
            out.histogram(labeled("tcqr_op_secs", &[("phase", phase)]), h.clone());
        }
        for (class, flops) in &self.class_flops {
            out.gauge(labeled("tcqr_flops", &[("class", class)]), *flops);
        }
        if self.rounded > 0 {
            out.counter("tcqr_rounded_total", self.rounded);
            for (k, n) in &self.rounding()[1..] {
                out.counter(format!("tcqr_fp16_{k}_total"), *n);
                out.gauge(
                    format!("tcqr_fp16_{k}_rate"),
                    *n as f64 / self.rounded as f64,
                );
            }
        }
        for ((level, stage), v) in &self.ortho_last {
            let level = level.to_string();
            let labels = [("level", level.as_str()), ("stage", stage.as_str())];
            out.gauge(labeled("tcqr_orthogonality_error", &labels), *v);
        }
        if self.ortho_samples > 0 {
            let max = self.ortho_max.unwrap_or(0.0).max(0.0);
            out.gauge("tcqr_orthogonality_error_max", max);
        }
        if let Some(s) = &self.scaling {
            out.gauge("tcqr_scaling_min_exp", s.min_exp as f64);
            out.gauge("tcqr_scaling_max_exp", s.max_exp as f64);
            out.gauge("tcqr_scaling_scaled_cols", s.scaled_cols as f64);
        }
        let f = &self.fault;
        nonzero(&mut out, "tcqr_fault_injected_total", f.injected);
        nonzero(&mut out, "tcqr_fault_detected_total", f.detected);
        for (rung, n) in &f.retries_by_rung {
            out.counter(
                labeled("tcqr_recovery_retries_total", &[("rung", rung)]),
                *n,
            );
        }
        for (recovered, n) in [("true", f.recovered), ("false", f.exhausted)] {
            nonzero(
                &mut out,
                &labeled("tcqr_recovery_outcomes_total", &[("recovered", recovered)]),
                n,
            );
        }
        let mut per_solver: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.solves {
            let labels = [("solver", s.solver.as_str())];
            let tally = per_solver.entry(&s.solver).or_insert((0, 0));
            tally.0 += 1;
            tally.1 += s.close.stalled as u64;
            let iterations = s.close.iterations as f64;
            out.gauge(labeled("tcqr_solve_iterations", &labels), iterations);
            if let Some(rel) = s.close.final_rel {
                out.gauge(labeled("tcqr_solve_final_rel", &labels), rel);
            }
            if let Some(slope) = s.close.decay_slope {
                out.gauge(labeled("tcqr_residual_decay_slope", &labels), slope);
            }
        }
        for (solver, (solves, stalled)) in per_solver {
            let labels = [("solver", solver)];
            out.counter(labeled("tcqr_solves_total", &labels), solves);
            nonzero(
                &mut out,
                &labeled("tcqr_stalled_solves_total", &labels),
                stalled,
            );
        }
        for (objective, (healthy, measured)) in &self.slo_last {
            let labels = [("objective", objective.as_str())];
            out.gauge(labeled("tcqr_slo_healthy", &labels), *healthy as u8 as f64);
            out.gauge(labeled("tcqr_slo_measured", &labels), *measured);
        }
        for (family, tally) in [
            ("tcqr_slo_breaches_total", &self.slo_breach_events),
            ("tcqr_slo_recovered_total", &self.slo_recovered_events),
        ] {
            for (objective, n) in tally {
                out.counter(labeled(family, &[("objective", objective)]), *n);
            }
        }
        if self.critpath.count > 0 {
            out.gauge(
                "tcqr_critpath_bottleneck_engine",
                self.critpath.get("engine"),
            );
            for k in ["jobs", "length_secs", "slack_max_secs"] {
                out.gauge(format!("tcqr_critpath_{k}"), self.critpath.get(k));
            }
        }
        for (phase, b) in &self.budgets {
            let labels = [("phase", phase.as_str())];
            out.gauge(labeled("tcqr_error_budget_det_bound", &labels), b.det_bound);
            out.gauge(
                labeled("tcqr_error_budget_prob_bound", &labels),
                b.prob_bound,
            );
            out.gauge(
                labeled("tcqr_error_budget_rounded", &labels),
                b.rounded as f64,
            );
        }
        if self.serve.count > 0 {
            for (k, v) in self.serve_entries() {
                out.gauge(format!("tcqr_serve_{k}"), v);
            }
            out.gauge("tcqr_serve_admission_enabled", self.serve.get("admission"));
        }
        if self.fleet.count > 0 {
            for (k, series) in [
                ("jobs", "jobs_total"),
                ("err", "jobs_failed_total"),
                ("fault_injected", "fault_injected_total"),
                ("fault_detected", "fault_detected_total"),
            ] {
                out.counter(format!("tcqr_batch_{series}"), self.fleet.get(k) as u64);
            }
            for k in [
                "engines",
                "makespan_secs",
                "busy_secs",
                "efficiency",
                "throughput_jobs_per_sec",
                "queue_wait_p50_secs",
                "queue_wait_p90_secs",
                "queue_wait_p99_secs",
            ] {
                out.gauge(format!("tcqr_batch_{k}"), self.fleet.get(k));
            }
            let (mut waits, mut execs) = (Histogram::new(), Histogram::new());
            for s in &self.segments {
                waits.observe(s.wait_secs);
                execs.observe(s.end_secs - s.start_secs);
            }
            out.histogram("tcqr_batch_queue_wait_secs", waits);
            out.histogram("tcqr_batch_exec_secs", execs);
        }
        out.render()
    }
}

/// Saturating `*acc += v`: a pinned tally is an obviously wrong number, a
/// wrapped one a subtly wrong one.
fn add(acc: &mut u64, v: u64) {
    *acc = acc.saturating_add(v);
}

fn add_to(map: &mut BTreeMap<String, f64>, key: &str, v: f64) {
    match map.get_mut(key) {
        Some(acc) => *acc += v,
        None => {
            map.insert(key.to_string(), 0.0 + v);
        }
    }
}

/// Render a warning event as one line: the `msg` field if present, else the
/// event name followed by its fields.
fn render_warning(ev: &Event) -> String {
    if let Some(msg) = ev.str_field("msg") {
        return format!("{}: {}", ev.name, msg);
    }
    let mut out = ev.name.clone();
    for (k, v) in &ev.fields {
        out.push_str(&format!(" {k}={v:?}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcqr_trace::{event_to_json, MemSink, Tracer};

    /// Run `emit` against a fresh tracer and return what it recorded.
    fn events(emit: impl FnOnce(&Tracer)) -> Vec<Event> {
        let sink = Arc::new(MemSink::new());
        emit(&Tracer::new(sink.clone()));
        sink.snapshot()
    }

    /// The fold of `emit`'s events, its baseline keys, and its Prometheus
    /// samples by series name.
    fn fold(
        emit: impl FnOnce(&Tracer),
    ) -> (RunReport, BTreeMap<String, f64>, BTreeMap<String, f64>) {
        let rep = RunReport::from_events(&events(emit));
        let prom = samples(&rep.render_prometheus());
        let m = rep.metrics();
        (rep, m, prom)
    }

    /// Read exposition text back as `series -> value`.
    fn samples(text: &str) -> BTreeMap<String, f64> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (name, v) = l.rsplit_once(' ').expect("sample line");
                (name.to_string(), v.parse().expect("sample value"))
            })
            .collect()
    }

    fn op(t: &Tracer, name: &str, phase: &str, class: &str, secs: f64, rounded: u64) {
        let mut f = vec![("phase", Value::from(phase)), ("class", Value::from(class))];
        f.extend([("secs", Value::from(secs)), ("flops", Value::from(1e9))]);
        if rounded > 0 {
            f.extend([
                ("rounded", Value::from(rounded)),
                ("overflow", Value::from(10u64)),
            ]);
        }
        t.op(name, &f);
    }

    /// Charges, a solve, a warning, health samples, and an experiment span.
    fn sample(t: &Tracer) {
        let experiment = t.span("experiment", &[("id", Value::from("fig6"))]);
        let open = SolveOpen {
            m: 1024,
            n: 128,
            tol: 1e-10,
            max_iters: 50,
        };
        let solve = open.open(t, "cgls");
        op(t, "gemm", "update", "tc", 0.25, 100);
        op(t, "caqr_panel", "panel", "fp32", 0.5, 0);
        op(t, "charge_gemm", "update", "tc", 0.0, 0);
        t.warn(
            "engine.fp16_overflow",
            &[("msg", Value::from("values overflowed"))],
        );
        t.op("cgls.iter", &[("iter", Value::from(0usize))]);
        for (level, value) in [(2, 1e-6), (1, 1e-7)] {
            HealthOrthogonality {
                level,
                value,
                ..Default::default()
            }
            .emit(t);
        }
        for (min_exp, max_exp, scaled_cols) in [(-3, 4, 7), (-1, 5, 2)] {
            HealthScaling {
                min_exp,
                max_exp,
                scaled_cols,
            }
            .emit(t);
        }
        let close = SolveClose {
            iterations: 12,
            converged: true,
            ..Default::default()
        };
        SolveClose {
            final_rel: Some(1e-12),
            decay_slope: Some(-0.8),
            ..close
        }
        .close(solve);
        experiment.close_with(&[("wall_secs", Value::from(1.25))]);
        t.info("progress", &[("msg", Value::from("done"))]);
    }

    #[test]
    fn charges_solves_and_health_reach_both_views() {
        let (rep, m, prom) = fold(sample);
        assert_eq!(rep.experiments, vec![("fig6".to_string(), Some(1.25))]);
        assert_eq!(
            rep.warnings,
            vec!["engine.fp16_overflow: values overflowed"]
        );
        assert_eq!(
            (rep.solves[0].solver.as_str(), rep.solves[0].open.m),
            ("cgls", 1024)
        );
        for (key, v) in [
            ("secs.total", 0.75),
            ("flops.tc", 2e9),
            ("counts.events", 14.0),
            ("counts.gemm_calls", 1.0),
            ("counts.panel_calls", 1.0),
            ("counts.warnings", 1.0),
            ("round.overflow", 10.0),
            ("solve.iterations", 12.0),
            ("solve.converged", 1.0),
            ("health.ortho_samples", 2.0),
            ("health.ortho_max", 1e-6),
            ("health.scaling_min_exp", -3.0),
            ("health.scaling_max_exp", 5.0),
            ("health.scaled_cols", 7.0),
            ("wall.secs", 1.25),
        ] {
            assert_eq!(m[key], v, "{key}");
        }
        // Only routed `gemm` ops count as GEMM calls, in both views.
        assert_eq!(prom["tcqr_gemm_calls_total"], 1.0);
        assert_eq!(prom["tcqr_events_total"], 14.0);
        assert_eq!(prom["tcqr_op_secs_count{phase=\"update\"}"], 2.0);
        assert_eq!(prom["tcqr_fp16_overflow_rate"], 0.1);
        assert_eq!(
            prom["tcqr_orthogonality_error{level=\"1\",stage=\"factor\"}"],
            1e-7
        );
        assert_eq!(prom["tcqr_scaling_scaled_cols"], 7.0);
        assert_eq!(prom["tcqr_residual_decay_slope{solver=\"cgls\"}"], -0.8);
        assert!(!prom.contains_key("tcqr_stalled_solves_total{solver=\"cgls\"}"));
        // Optional families are absent, not zero, from an empty run.
        let (rep, m, _) = fold(|_| {});
        assert_eq!(m["solve.count"], 0.0);
        assert_eq!(
            m.len(),
            11,
            "secs/flops totals, counts, round, solve.count: {m:?}"
        );
        assert!(rep.render_prometheus().is_empty());
    }

    #[test]
    fn fault_events_fold_into_tallies_not_charges_or_warnings() {
        let (rep, m, prom) = fold(|t| {
            FaultInjected::default().emit(t);
            FaultDetected::default().emit(t);
            RecoveryRetry {
                rung: "recompute".into(),
                ..Default::default()
            }
            .emit(t);
            for (attempts, recovered) in [(2, true), (3, false), (1, true)] {
                RecoveryOutcome {
                    attempts,
                    recovered,
                    ..Default::default()
                }
                .emit(t);
            }
        });
        let f = &rep.fault;
        assert_eq!(
            [f.injected, f.detected, f.retries, f.recovered, f.corrected],
            [1, 1, 1, 2, 1]
        );
        assert!(rep.total_secs() == 0.0 && rep.warnings.is_empty());
        assert_eq!((m["fault.escaped"], m["fault.exhausted"]), (0.0, 1.0));
        assert_eq!(prom["tcqr_recovery_retries_total{rung=\"recompute\"}"], 1.0);
        assert_eq!(
            prom["tcqr_recovery_outcomes_total{recovered=\"true\"}"],
            2.0
        );
        let mut total = FaultSummary::default();
        total.absorb(f);
        total.absorb(f);
        assert_eq!((total.injected, total.retries_by_rung["recompute"]), (2, 2));
    }

    #[test]
    fn batches_and_critpaths_sum_keep_maxima_and_recompute_ratios() {
        let (rep, m, prom) = fold(|t| {
            for (jobs, engines, makespan_secs, p90) in [(6, 2, 2.0, 0.5), (4, 3, 1.0, 0.25)] {
                let (ok, busy_secs, queue_wait_p90_secs) = (jobs - 1, 3.0, p90);
                FleetSummary {
                    jobs,
                    ok,
                    engines,
                    makespan_secs,
                    busy_secs,
                    queue_wait_p90_secs,
                    ..Default::default()
                }
                .emit(t);
            }
            for (start_secs, end_secs) in [(0.0, 1.0), (1.0, 3.0)] {
                EngineSegment {
                    start_secs,
                    end_secs,
                    ..Default::default()
                }
                .emit(t);
            }
            for (engine, jobs, length_secs, slack_max_secs) in [(2, 3, 4.0, 1.25), (0, 2, 6.0, 0.5)]
            {
                FleetCritpath {
                    engine,
                    jobs,
                    length_secs,
                    slack_max_secs,
                    ..Default::default()
                }
                .emit(t);
            }
            let budget = PhaseBudget {
                phase: "update".into(),
                rounded: 4096,
                ..Default::default()
            };
            budget.emit(t);
        });
        for (key, v) in [
            ("fleet.batches", 2.0),
            ("fleet.ok", 8.0),
            ("fleet.engines", 3.0),
            ("fleet.makespan_secs", 3.0),
            ("fleet.ideal_secs", 2.0),
            ("fleet.makespan_vs_ideal", 1.5),
            ("fleet.queue_wait_p90_secs", 0.5),
            ("fleet.critpath_engine", 0.0),
            ("fleet.critpath_jobs", 5.0),
            ("fleet.critpath_length_secs", 10.0),
            ("fleet.critpath_slack_max_secs", 1.25),
        ] {
            assert_eq!(m[key], v, "{key}");
        }
        assert!(!m.contains_key("fleet.queue_wait_mean_secs"));
        // Narration restates already-charged time and rounding.
        assert_eq!((rep.total_secs(), rep.rounded), (0.0, 0));
        assert_eq!(prom["tcqr_batch_jobs_total"], 10.0);
        assert_eq!(prom["tcqr_batch_efficiency"], m["fleet.efficiency"]);
        assert_eq!(prom["tcqr_batch_exec_secs_sum"], 3.0);
        assert_eq!(prom["tcqr_critpath_bottleneck_engine"], 0.0);
        assert_eq!(prom["tcqr_error_budget_rounded{phase=\"update\"}"], 4096.0);
        assert!(!prom.contains_key("tcqr_rounded_total"));
    }

    #[test]
    fn slo_services_and_campaigns_fold_into_both_views() {
        let (rep, m, prom) = fold(|t| {
            SloBreach {
                objective: "q".into(),
                ..Default::default()
            }
            .emit(t);
            SloRecovered {
                objective: "q".into(),
                ..Default::default()
            }
            .emit(t);
            for (objective, healthy, breaches, measured) in
                [("q", true, 1, 0.9), ("b", false, 1, 0.1)]
            {
                SloObjective {
                    objective: objective.into(),
                    healthy,
                    breaches,
                    measured,
                    ..Default::default()
                }
                .emit(t);
            }
            for (admitted, engines, admission) in [(10, 3, true), (4, 2, false)] {
                ServeSummary {
                    admitted,
                    engines,
                    admission,
                    ..Default::default()
                }
                .emit(t);
            }
        });
        assert!(
            rep.warnings.is_empty(),
            "breach transitions are not warnings"
        );
        let slo = ["objectives", "healthy", "breaches"].map(|k| m[&format!("slo.{k}")]);
        assert_eq!(slo, [2.0, 1.0, 2.0]);
        assert_eq!(
            (m["serve.services"], m["serve.admitted"], m["serve.engines"]),
            (2.0, 14.0, 3.0)
        );
        assert!(
            !m.contains_key("serve.deaths"),
            "calm services keep their keyset"
        );
        assert_eq!(prom["tcqr_slo_breaches_total{objective=\"q\"}"], 1.0);
        assert_eq!(prom["tcqr_slo_recovered_total{objective=\"q\"}"], 1.0);
        assert_eq!(prom["tcqr_slo_measured{objective=\"b\"}"], 0.1);
        assert_eq!(prom["tcqr_serve_admitted"], 14.0);
        assert_eq!(prom["tcqr_serve_admission_enabled"], 1.0);
        assert!(!prom.contains_key("tcqr_serve_deaths"));

        let (_, m, prom) = fold(|t| {
            ServeSummary {
                deaths: 2,
                failovers: 7,
                ..Default::default()
            }
            .emit(t);
            ChaosSummary {
                engines: 6,
                killed: 2,
                ..Default::default()
            }
            .emit(t);
        });
        assert_eq!(
            (m["serve.deaths"], m["serve.failovers"], m["serve.lost"]),
            (2.0, 7.0, 0.0)
        );
        assert_eq!(
            (m["chaos.campaigns"], m["chaos.engines"], m["chaos.killed"]),
            (1.0, 6.0, 2.0)
        );
        assert_eq!(prom["tcqr_serve_failovers"], 7.0);
    }

    #[test]
    fn segment_streams_are_checked_for_per_engine_monotonicity() {
        let check = |segs: &[(u64, f64, f64)]| {
            let evs = events(|t| {
                for &(engine, start_secs, end_secs) in segs {
                    EngineSegment {
                        engine,
                        start_secs,
                        end_secs,
                        ..Default::default()
                    }
                    .emit(t);
                }
            });
            RunReport::from_events(&evs).segment_monotonicity_violations()
        };
        // Interleaved engines, each monotone even with an ulp-scale tie.
        assert!(check(&[(0, 0.0, 1.0), (1, 0.0, 2.0), (0, 1.0 - 1e-13, 3.0)]).is_empty());
        assert!(check(&[(0, 0.0, 1.0), (0, 0.5, 2.0)])[0].contains("engine 0"));
        assert_eq!(check(&[(2, 5.0, 4.0)]).len(), 1, "end before start");
    }

    #[test]
    fn jsonl_round_trip_and_untimed_experiments() {
        let evs = events(sample);
        let mut jsonl: String = evs
            .iter()
            .map(|e| format!("{}\n", event_to_json(e)))
            .collect();
        assert_eq!(
            RunReport::from_jsonl(&jsonl).unwrap(),
            RunReport::from_events(&evs)
        );
        jsonl.push('\n'); // blank line: skipped silently, not counted
        jsonl.push_str("{\"seq\":9,\"kind\":\"hologram\",\"name\":\"x\",\"fields\":{}}\n");
        let rep = RunReport::from_jsonl(&jsonl).unwrap();
        assert_eq!((rep.skipped_lines, rep.events), (1, 14));
        assert_eq!(
            RunReport::from_jsonl("{\"seq\":1,\"kind\":\"op\"\n")
                .unwrap_err()
                .line,
            0
        );
        // Closes without a finite wall_secs are tracked but unmetered.
        let rep = RunReport::from_events(&events(|t| {
            t.span("experiment", &[("id", Value::from("a"))])
                .close_with(&[]);
            let nan = Value::from(f64::NAN);
            t.span("experiment", &[("id", Value::from("b"))])
                .close_with(&[("wall_secs", nan)]);
        }));
        assert_eq!(
            rep.experiments,
            vec![("a".into(), None), ("b".into(), None)]
        );
        assert!(!rep.metrics().contains_key("wall.secs"));
    }
}
