//! Chrome Trace Event export: turn a `tcqr-trace` event stream into the
//! JSON array format that <https://ui.perfetto.dev> (and `chrome://tracing`)
//! loads directly.
//!
//! The engine is *simulated*, so events carry modeled seconds rather than
//! wall-clock timestamps. The exporter therefore runs a **virtual clock**:
//! each op event advances the clock by its `secs` field, and every event is
//! additionally offset by `seq * 1e-3` microseconds so that ordering is
//! strictly monotone even among zero-cost events. On that clock:
//!
//! - spans become `"X"` (complete) events — the duration bar you see in
//!   Perfetto is the *modeled* time spent inside the span;
//! - op/info/warn events become `"i"` (instant) events carrying their fields
//!   as `args`;
//! - cumulative per-class flops and fp16 rounding totals of the engine
//!   charges become `"C"` (counter) tracks, so the flops mix is a stacked
//!   area chart over the run. Both tracks read ops through
//!   `tcqr_trace::schema::Charge`, as the fold does, so their last samples
//!   equal the fold's `class_flops` and overflow/underflow/NaN tallies.
//!
//! Fleet events get their own process row (pid [`FLEET_PID`], named
//! `tcqr fleet`): each `engine.segment` op becomes an `"X"` slice on the
//! tid of its engine — so a batch renders as a per-engine Gantt chart —
//! and `fleet.*` / `slo.*` events become instants on the same process
//! (tid = their `engine` field, or 0 for fleet-wide records). Segment
//! slices sit on the engines' simulated clocks, which the post-hoc
//! emission places on the same axis as the virtual clock.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tcqr_trace::json::{parse, push_json_string, Json};
use tcqr_trace::schema::{is_fleet_narration, Charge, EngineSegment};
use tcqr_trace::{Event, EventKind, TraceSink, Value};

/// Microseconds added per sequence number to keep timestamps strictly
/// increasing even when the modeled clock doesn't move.
const SEQ_EPSILON_US: f64 = 1e-3;

/// Process id of the single virtual engine process.
const MAIN_PID: i64 = 1;

/// Process id of the fleet row (`engine.segment` slices per engine tid,
/// `fleet.*`/`slo.*` instants).
pub const FLEET_PID: i64 = 2;

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => push_json_string(out, if x.is_nan() {
            "NaN"
        } else if *x > 0.0 {
            "Infinity"
        } else {
            "-Infinity"
        }),
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => push_json_string(out, s),
    }
}

fn push_args(out: &mut String, fields: &[(String, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        push_value(out, v);
    }
    out.push('}');
}

/// One output record under construction.
#[allow(clippy::too_many_arguments)]
fn push_record(
    out: &mut String,
    first: &mut bool,
    ph: char,
    name: &str,
    ts: f64,
    pid: i64,
    tid: i64,
    extra: &str,
    fields: &[(String, Value)],
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("{\"name\":");
    push_json_string(out, name);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}");
    out.push_str(extra);
    out.push_str(",\"args\":");
    push_args(out, fields);
    out.push('}');
}

/// Render `events` (in emission order) as a Chrome Trace Event JSON array.
///
/// See the [module docs](self) for the mapping. The output is a plain JSON
/// array (the "JSON Array Format" of the trace-event spec), which Perfetto
/// accepts with or without the closing bracket.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("[\n");
    let mut first = true;

    // Name the (single, virtual) process and thread.
    push_record(
        &mut out,
        &mut first,
        'M',
        "process_name",
        0.0,
        MAIN_PID,
        1,
        "",
        &[("name".to_string(), Value::from("tcqr (modeled)"))],
    );
    push_record(
        &mut out,
        &mut first,
        'M',
        "thread_name",
        0.0,
        MAIN_PID,
        1,
        "",
        &[("name".to_string(), Value::from("engine"))],
    );

    let mut cum_secs = 0.0f64;
    // Open spans: (id, name, open_ts, open_fields).
    type OpenSpan = (u64, String, f64, Vec<(String, Value)>);
    let mut open: Vec<OpenSpan> = Vec::new();
    // Counter tracks.
    let mut flops: Vec<(String, f64)> = Vec::new();
    let mut rounding = [0u64; 3]; // overflow, underflow, nan
    let mut last_ts = 0.0f64;
    // Fleet-row metadata, emitted lazily so traces without batch events
    // keep exactly the two main-process metadata records.
    let mut fleet_named = false;
    let mut fleet_tids_named: Vec<i64> = Vec::new();
    let mut name_fleet_row = |out: &mut String, first: &mut bool, tid: i64| {
        if !fleet_named {
            fleet_named = true;
            push_record(
                out,
                first,
                'M',
                "process_name",
                0.0,
                FLEET_PID,
                0,
                "",
                &[("name".to_string(), Value::from("tcqr fleet"))],
            );
        }
        if !fleet_tids_named.contains(&tid) {
            fleet_tids_named.push(tid);
            push_record(
                out,
                first,
                'M',
                "thread_name",
                0.0,
                FLEET_PID,
                tid,
                "",
                &[("name".to_string(), Value::from(format!("engine {tid}")))],
            );
        }
    };

    for ev in events {
        // Fleet rows: engine.segment ops are slices on the engine's own
        // simulated clock; fleet.*/slo.* records are instants on the fleet
        // process. Neither advances the main virtual clock.
        if let Some(seg) = EngineSegment::from_event(ev) {
            let tid = seg.engine as i64;
            let (start, end) = (seg.start_secs, seg.end_secs);
            name_fleet_row(&mut out, &mut first, tid);
            let extra = format!(",\"dur\":{}", ((end - start) * 1e6).max(0.0));
            push_record(
                &mut out,
                &mut first,
                'X',
                &seg.kind,
                start * 1e6,
                FLEET_PID,
                tid,
                &extra,
                &ev.fields,
            );
            continue;
        }
        if is_fleet_narration(ev) {
            let tid = ev.u64_field("engine").unwrap_or(0) as i64;
            name_fleet_row(&mut out, &mut first, tid);
            let ts = cum_secs * 1e6 + ev.seq as f64 * SEQ_EPSILON_US;
            let scope = if ev.kind == EventKind::Warn {
                ",\"s\":\"g\""
            } else {
                ",\"s\":\"t\""
            };
            push_record(
                &mut out,
                &mut first,
                'i',
                &ev.name,
                ts,
                FLEET_PID,
                tid,
                scope,
                &ev.fields,
            );
            continue;
        }
        if ev.kind == EventKind::Op {
            if let Some(secs) = ev.f64_field("secs") {
                if secs.is_finite() && secs > 0.0 {
                    cum_secs += secs;
                }
            }
        }
        let ts = cum_secs * 1e6 + ev.seq as f64 * SEQ_EPSILON_US;
        last_ts = ts;
        match ev.kind {
            EventKind::SpanOpen => {
                open.push((ev.id, ev.name.clone(), ts, ev.fields.clone()));
            }
            EventKind::SpanClose => {
                // Close the matching span; anything opened after it on the
                // stack was left dangling (shouldn't happen — spans close in
                // LIFO order per thread) and is closed here too.
                if let Some(pos) = open.iter().rposition(|(id, ..)| *id == ev.id) {
                    for (_, name, open_ts, mut fields) in open.drain(pos..).rev() {
                        fields.extend(ev.fields.iter().cloned());
                        let dur = (ts - open_ts).max(0.0);
                        let extra = format!(",\"dur\":{dur}");
                        push_record(
                            &mut out, &mut first, 'X', &name, open_ts, MAIN_PID, 1, &extra,
                            &fields,
                        );
                    }
                }
            }
            EventKind::Op | EventKind::Info | EventKind::Warn => {
                let scope = if ev.kind == EventKind::Warn {
                    ",\"s\":\"g\""
                } else {
                    ",\"s\":\"t\""
                };
                push_record(
                    &mut out, &mut first, 'i', &ev.name, ts, MAIN_PID, 1, scope, &ev.fields,
                );
            }
        }
        // Counter tracks: cumulative flops per class and fp16 rounding
        // totals, read from engine charges only. Schema events restate
        // tallies already charged (`error.budget`), so they add nothing.
        if let Some(charge) = Charge::from_event(ev) {
            if let (Some(class), Some(f)) = (charge.class, charge.flops) {
                match flops.iter_mut().find(|(c, _)| c == class) {
                    Some((_, tot)) => *tot += f,
                    None => flops.push((class.to_string(), f)),
                }
                let fields: Vec<(String, Value)> = flops
                    .iter()
                    .map(|(c, tot)| (c.clone(), Value::from(*tot)))
                    .collect();
                push_record(&mut out, &mut first, 'C', "flops", ts, MAIN_PID, 1, "", &fields);
            }
            if charge.rounded.is_some() {
                rounding[0] += charge.overflow;
                rounding[1] += charge.underflow;
                rounding[2] += charge.nan;
                let fields = vec![
                    ("overflow".to_string(), Value::from(rounding[0])),
                    ("underflow".to_string(), Value::from(rounding[1])),
                    ("nan".to_string(), Value::from(rounding[2])),
                ];
                push_record(
                    &mut out, &mut first, 'C', "fp16_rounding", ts, MAIN_PID, 1, "", &fields,
                );
            }
        }
    }

    // Spans never closed (truncated trace): close them at the final clock.
    for (_, name, open_ts, fields) in open.into_iter().rev() {
        let dur = (last_ts - open_ts).max(0.0);
        let extra = format!(",\"dur\":{dur}");
        push_record(
            &mut out, &mut first, 'X', &name, open_ts, MAIN_PID, 1, &extra, &fields,
        );
    }

    out.push_str("\n]\n");
    out
}

/// Summary counts from [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total records in the array.
    pub total: usize,
    /// `"X"` complete events (spans).
    pub complete: usize,
    /// `"i"` instant events.
    pub instant: usize,
    /// `"C"` counter samples.
    pub counter: usize,
    /// `"M"` metadata records.
    pub metadata: usize,
}

/// Validate Chrome Trace Event JSON: must be a JSON array of objects, each
/// with a string `ph` and numeric `ts`/`pid`/`tid` (metadata records are
/// exempt from `ts`); `X` events need a nonnegative `dur` and must nest
/// properly per `(pid, tid)` track (no partially overlapping bars — the
/// fleet process's engine rows are validated independently of the main
/// process's span tree); `B`/`E` events must balance per `(pid, tid)`.
/// Returns counts by phase type.
///
/// Shared by the exporter's own tests and the `repro --chrome-trace`
/// integration test, so "the file loads in Perfetto" is checked in CI
/// without Perfetto.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeStats, String> {
    let doc = parse(json)?;
    let arr = doc
        .as_arr()
        .ok_or_else(|| "top level is not a JSON array".to_string())?;
    let mut stats = ChromeStats::default();
    // (pid, tid, ts, dur) for X events; ((pid, tid), depth) for B/E balance.
    let mut complete: Vec<(i64, i64, f64, f64)> = Vec::new();
    let mut be_depth: Vec<((i64, i64), i64)> = Vec::new();
    for (i, rec) in arr.iter().enumerate() {
        rec.as_obj()
            .ok_or_else(|| format!("record {i} is not an object"))?;
        let ph = rec
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing string \"ph\""))?;
        stats.total += 1;
        if ph == "M" {
            stats.metadata += 1;
            continue;
        }
        let ts = rec
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing numeric \"ts\""))?;
        let tid = rec
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing numeric \"tid\""))?
            as i64;
        let pid = rec
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing numeric \"pid\""))?
            as i64;
        match ph {
            "X" => {
                stats.complete += 1;
                let dur = rec
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("record {i}: X event missing \"dur\""))?;
                // `!(dur >= 0)` deliberately rejects NaN durations too.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(dur >= 0.0) {
                    return Err(format!("record {i}: negative dur {dur}"));
                }
                complete.push((pid, tid, ts, dur));
            }
            "B" => {
                stats.complete += 1;
                bump(&mut be_depth, (pid, tid), 1);
            }
            "E" => {
                stats.complete += 1;
                if bump(&mut be_depth, (pid, tid), -1) < 0 {
                    return Err(format!(
                        "record {i}: E without matching B on pid {pid} tid {tid}"
                    ));
                }
            }
            "i" | "I" => stats.instant += 1,
            "C" => stats.counter += 1,
            _ => {}
        }
    }
    if let Some(((pid, tid), d)) = be_depth.iter().find(|(_, d)| *d != 0) {
        return Err(format!("unbalanced B/E on pid {pid} tid {tid}: depth {d}"));
    }
    check_nesting(&mut complete)?;
    Ok(stats)
}

fn bump(depths: &mut Vec<((i64, i64), i64)>, key: (i64, i64), delta: i64) -> i64 {
    match depths.iter_mut().find(|(k, _)| *k == key) {
        Some((_, d)) => {
            *d += delta;
            *d
        }
        None => {
            depths.push((key, delta));
            delta
        }
    }
}

/// X-event intervals on one `(pid, tid)` track must nest like a call stack:
/// sorted by start (ties: longest first), every interval must end before
/// the enclosing one.
fn check_nesting(intervals: &mut [(i64, i64, f64, f64)]) -> Result<(), String> {
    intervals.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
            .then(b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut stack: Vec<f64> = Vec::new(); // end timestamps
    let mut cur_track = None;
    const EPS: f64 = 1e-9;
    for &(pid, tid, ts, dur) in intervals.iter() {
        if cur_track != Some((pid, tid)) {
            stack.clear();
            cur_track = Some((pid, tid));
        }
        while stack.last().is_some_and(|&end| end <= ts + EPS) {
            stack.pop();
        }
        let end = ts + dur;
        if let Some(&outer) = stack.last() {
            if end > outer + EPS {
                return Err(format!(
                    "span [{ts}, {end}] overlaps enclosing span ending at {outer} \
                     on pid {pid} tid {tid}"
                ));
            }
        }
        stack.push(end);
    }
    Ok(())
}

/// A [`TraceSink`] that buffers the full event stream and writes Chrome
/// Trace JSON to a file on [`flush`](TraceSink::flush).
///
/// Like [`TraceToMetrics`](crate::TraceToMetrics), `reset()` is a no-op so
/// the buffer survives `GpuSim::reset()` between experiment phases — the
/// exported trace covers the whole run.
pub struct ChromeTraceSink {
    events: Mutex<Vec<Event>>,
    path: PathBuf,
}

impl ChromeTraceSink {
    /// Buffer events and write the trace to `path` on flush.
    pub fn new<P: AsRef<Path>>(path: P) -> Self {
        ChromeTraceSink {
            events: Mutex::new(Vec::new()),
            path: path.as_ref().to_path_buf(),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events have been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the buffered events without writing the file.
    pub fn to_json(&self) -> String {
        chrome_trace_json(&self.events.lock().unwrap())
    }

    /// Render and write the trace file now, returning the path on success.
    pub fn write(&self) -> std::io::Result<&Path> {
        std::fs::write(&self.path, self.to_json())?;
        Ok(&self.path)
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&self, ev: &Event) {
        self.events.lock().unwrap().push(ev.clone());
    }

    /// No-op: the export covers the whole run across engine resets.
    fn reset(&self) {}

    fn flush(&self) {
        let _ = self.write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcqr_trace::{MemSink, Tracer, Value};
    use tcqr_trace::schema::{FleetSummary, PhaseBudget, SloBreach};

    /// A realistic little trace: nested spans with ops inside.
    fn sample_events() -> Vec<Event> {
        let sink = Arc::new(MemSink::new());
        let tracer = Tracer::new(sink.clone());
        let outer = tracer.span("rgsqrf", &[("n", Value::from(64usize))]);
        let inner = tracer.span("rgsqrf.level", &[("m", Value::from(64usize))]);
        tracer.op(
            "gemm",
            &[
                ("phase", Value::from("update")),
                ("class", Value::from("tc")),
                ("secs", Value::from(2e-3)),
                ("flops", Value::from(1e6)),
                ("rounded", Value::from(512u64)),
                ("overflow", Value::from(3u64)),
            ],
        );
        tracer.op(
            "sgeqrf",
            &[
                ("phase", Value::from("panel")),
                ("class", Value::from("fp32")),
                ("secs", Value::from(1e-3)),
                ("flops", Value::from(2e5)),
            ],
        );
        inner.close_with(&[]);
        tracer.warn("engine.fp16_overflow", &[("count", Value::from(3u64))]);
        outer.close_with(&[("ok", Value::from(true))]);
        sink.snapshot()
    }

    #[test]
    fn export_is_valid_and_counts_match() {
        let events = sample_events();
        let json = chrome_trace_json(&events);
        let stats = validate_chrome_trace(&json).unwrap();
        // 2 spans -> 2 X events; 2 ops + 1 warn -> 3 instants; 2 flops
        // counter samples + 1 rounding sample; 2 metadata records.
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.instant, 3);
        assert_eq!(stats.counter, 3);
        assert_eq!(stats.metadata, 2);
        assert_eq!(stats.total, 2 + 3 + 3 + 2);
    }

    #[test]
    fn budget_events_do_not_restate_the_rounding_track() {
        let sink = Arc::new(MemSink::new());
        let tracer = Tracer::new(sink.clone());
        let tallies = [("overflow", 3u64), ("underflow", 5), ("nan", 1)];
        let mut fields = vec![
            ("phase", Value::from("update")),
            ("rounded", Value::from(512u64)),
        ];
        fields.extend(tallies.map(|(k, v)| (k, Value::from(v))));
        tracer.op("gemm", &fields);
        PhaseBudget {
            phase: "update".into(),
            ops: 1,
            rounded: 512,
            overflow: 3,
            underflow: 5,
            nan: 1,
            ..Default::default()
        }
        .emit(&tracer);
        let doc = parse(&chrome_trace_json(&sink.snapshot())).unwrap();
        let last = doc
            .as_arr()
            .unwrap()
            .iter()
            .rfind(|r| r.get("name").and_then(Json::as_str) == Some("fp16_rounding"))
            .expect("a rounding sample")
            .get("args")
            .unwrap()
            .clone();
        for (k, v) in tallies {
            assert_eq!(last.get(k).and_then(Json::as_f64), Some(v as f64), "{k}");
        }
    }

    #[test]
    fn virtual_clock_is_monotone_and_spans_nest() {
        let events = sample_events();
        let json = chrome_trace_json(&events);
        let doc = parse(&json).unwrap();
        let arr = doc.as_arr().unwrap();
        // The inner span must start after and end before the outer one.
        let spans: Vec<(&str, f64, f64)> = arr
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|r| {
                (
                    r.get("name").and_then(Json::as_str).unwrap(),
                    r.get("ts").and_then(Json::as_f64).unwrap(),
                    r.get("dur").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let outer = spans.iter().find(|(n, ..)| *n == "rgsqrf").unwrap();
        let inner = spans.iter().find(|(n, ..)| *n == "rgsqrf.level").unwrap();
        assert!(inner.1 > outer.1);
        assert!(inner.1 + inner.2 < outer.1 + outer.2);
        // The modeled 3ms total shows up in the outer span's duration (µs).
        assert!(outer.2 > 3000.0 && outer.2 < 3001.0);
        // Instant timestamps are strictly increasing.
        let instants: Vec<f64> = arr
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("i"))
            .map(|r| r.get("ts").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(instants.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sink_buffers_across_reset_and_counts_events() {
        let sink = ChromeTraceSink::new("/nonexistent/never-written.json");
        let events = sample_events();
        for ev in &events {
            sink.record(ev);
        }
        sink.reset(); // must NOT clear: GpuSim::reset happens mid-run
        assert_eq!(sink.len(), events.len());
        let stats = validate_chrome_trace(&sink.to_json()).unwrap();
        assert_eq!(stats.complete, 2);
    }

    #[test]
    fn unclosed_spans_are_closed_at_end_of_trace() {
        let mut events = sample_events();
        // Drop the final span-close: exporter must still emit both spans.
        events.pop();
        let json = chrome_trace_json(&events);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.complete, 2);
    }

    #[test]
    fn fleet_events_round_trip_onto_their_own_process() {
        let sink = Arc::new(MemSink::new());
        let tracer = Tracer::new(sink.clone());
        // A main-process op first, so the virtual clock has moved before the
        // post-hoc fleet narration arrives (as in a real batch run).
        tracer.op("gemm", &[("secs", Value::from(1e-3))]);
        for (engine, job, start, end) in
            [(0u64, 0u64, 0.0f64, 2.0f64), (1, 1, 0.5, 1.5), (0, 2, 2.0, 3.0)]
        {
            tracer.op(
                EngineSegment::NAME,
                &[
                    ("engine", Value::from(engine)),
                    ("job", Value::from(job)),
                    ("kind", Value::from("rgsqrf")),
                    ("wait_secs", Value::from(0.0)),
                    ("start_secs", Value::from(start)),
                    ("end_secs", Value::from(end)),
                    ("ok", Value::from(true)),
                ],
            );
        }
        tracer.op(
            FleetSummary::NAME,
            &[("jobs", Value::from(3u64)), ("makespan_secs", Value::from(3.0))],
        );
        tracer.warn(
            SloBreach::NAME,
            &[("objective", Value::from("queue-wait")), ("engine", Value::from(1u64))],
        );
        let json = chrome_trace_json(&sink.snapshot());
        let stats = validate_chrome_trace(&json).unwrap();
        let doc = parse(&json).unwrap();
        let arr = doc.as_arr().unwrap();

        // Each engine.segment is an X slice on the fleet process with
        // tid = engine, ts = start_secs µs, dur = (end - start) µs.
        let slices: Vec<(i64, i64, f64, f64, u64)> = arr
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|r| {
                (
                    r.get("pid").and_then(Json::as_f64).unwrap() as i64,
                    r.get("tid").and_then(Json::as_f64).unwrap() as i64,
                    r.get("ts").and_then(Json::as_f64).unwrap(),
                    r.get("dur").and_then(Json::as_f64).unwrap(),
                    r.get("args")
                        .and_then(|a| a.get("job"))
                        .and_then(Json::as_f64)
                        .unwrap() as u64,
                )
            })
            .collect();
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().all(|&(pid, ..)| pid == FLEET_PID));
        let by_job = |j: u64| slices.iter().find(|&&(.., job)| job == j).unwrap();
        assert_eq!(by_job(0).1, 0);
        assert_eq!(by_job(1).1, 1);
        assert_eq!(by_job(2).1, 0);
        assert!((by_job(1).2 - 0.5e6).abs() < 1e-6);
        assert!((by_job(1).3 - 1.0e6).abs() < 1e-6);
        assert!((by_job(2).2 - 2.0e6).abs() < 1e-6);

        // fleet.summary and slo.breach are instants on the fleet process,
        // tid = their engine field (0 when absent).
        let instants: Vec<(&str, i64, i64)> = arr
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("i"))
            .map(|r| {
                (
                    r.get("name").and_then(Json::as_str).unwrap(),
                    r.get("pid").and_then(Json::as_f64).unwrap() as i64,
                    r.get("tid").and_then(Json::as_f64).unwrap() as i64,
                )
            })
            .collect();
        let summary = instants.iter().find(|(n, ..)| *n == FleetSummary::NAME).unwrap();
        assert_eq!((summary.1, summary.2), (FLEET_PID, 0));
        let breach = instants.iter().find(|(n, ..)| *n == SloBreach::NAME).unwrap();
        assert_eq!((breach.1, breach.2), (FLEET_PID, 1));
        let gemm = instants.iter().find(|(n, ..)| *n == "gemm").unwrap();
        assert_eq!(gemm.1, 1); // main-process ops stay on pid 1

        // Metadata names the fleet process and each engine row exactly once:
        // 2 main rows + "tcqr fleet" + engine 0 + engine 1.
        assert_eq!(stats.metadata, 5);
        let metas: Vec<&str> = arr
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|r| {
                r.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(metas.iter().filter(|n| **n == "tcqr fleet").count(), 1);
        assert_eq!(metas.iter().filter(|n| **n == "engine 0").count(), 1);
        assert_eq!(metas.iter().filter(|n| **n == "engine 1").count(), 1);
    }

    #[test]
    fn nesting_is_validated_per_process_not_per_tid() {
        // Engine slices on the fleet process reuse small tid numbers; an X
        // on (pid 2, tid 1) must not be nest-checked against a main-process
        // span on (pid 1, tid 1) that it partially overlaps.
        let cross_pid = r#"[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":2,"tid":1,"args":{}}
        ]"#;
        let stats = validate_chrome_trace(cross_pid).unwrap();
        assert_eq!(stats.complete, 2);
        // Same overlap on one process is still rejected.
        let same_pid = r#"[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":2,"tid":1,"args":{}},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":2,"tid":1,"args":{}}
        ]"#;
        assert!(validate_chrome_trace(same_pid).is_err());
        // B/E balance is also tracked per (pid, tid).
        let cross_be = r#"[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1,"args":{}},
            {"name":"a","ph":"E","ts":1,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"B","ts":0,"pid":2,"tid":1,"args":{}}
        ]"#;
        assert!(validate_chrome_trace(cross_be).is_err());
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[{\"ph\":\"X\"}]").is_err());
        // Partially overlapping spans are not a call tree.
        let bad = r#"[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,"args":{}}
        ]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Unbalanced B/E.
        let unbalanced = r#"[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1,"args":{}}
        ]"#;
        assert!(validate_chrome_trace(unbalanced).is_err());
        // The same two spans nested properly are fine.
        let good = r#"[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"X","ts":2,"dur":5,"pid":1,"tid":1,"args":{}}
        ]"#;
        let stats = validate_chrome_trace(good).unwrap();
        assert_eq!(stats.complete, 2);
    }
}
