//! Pluggable event sinks: null, in-memory (optionally a ring), JSONL
//! writer, console progress, and fan-out.

use crate::event::{Event, EventKind};
use crate::json::event_to_json;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Where events go. Implementations must be thread-safe: engines on
/// different batch lanes emit events concurrently.
pub trait TraceSink: Send + Sync {
    /// Record one event. Must not block for long — the engine calls this on
    /// the hot path (outside its own state lock, but still per-op).
    fn record(&self, ev: &Event);

    /// Drop all buffered state (e.g. on `GpuSim::reset`). Sinks without
    /// state (writers, console) may ignore this.
    fn reset(&self) {}

    /// Flush any buffered output to its destination.
    fn flush(&self) {}
}

/// A sink that discards everything. Tracing through a `NullSink` still
/// allocates event records; prefer a disabled `Tracer` (which skips event
/// construction entirely) when possible.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _ev: &Event) {}
}

/// An in-memory sink. Unbounded by default; with a capacity it becomes a
/// ring buffer that keeps the most recent events and counts the dropped
/// ones.
#[derive(Debug)]
pub struct MemSink {
    inner: Mutex<MemInner>,
}

#[derive(Debug)]
struct MemInner {
    events: VecDeque<Event>,
    capacity: Option<usize>,
    dropped: u64,
}

impl MemSink {
    /// An unbounded in-memory sink.
    pub fn new() -> Self {
        MemSink {
            inner: Mutex::new(MemInner {
                events: VecDeque::new(),
                capacity: None,
                dropped: 0,
            }),
        }
    }

    /// A ring buffer keeping only the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        MemSink {
            inner: Mutex::new(MemInner {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity: Some(capacity.max(1)),
                dropped: 0,
            }),
        }
    }

    /// Copy of all buffered events, in arrival order.
    pub fn snapshot(&self) -> Vec<Event> {
        let g = self.inner.lock().unwrap();
        g.events.iter().cloned().collect()
    }

    /// Remove and return all buffered events, leaving the sink empty (the
    /// dropped counter is kept).
    pub fn drain(&self) -> Vec<Event> {
        let mut g = self.inner.lock().unwrap();
        g.events.drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events the ring has discarded since creation/reset.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

impl Default for MemSink {
    fn default() -> Self {
        MemSink::new()
    }
}

impl TraceSink for MemSink {
    fn record(&self, ev: &Event) {
        let mut g = self.inner.lock().unwrap();
        if let Some(cap) = g.capacity {
            while g.events.len() >= cap {
                g.events.pop_front();
                g.dropped = g.dropped.saturating_add(1);
            }
        }
        g.events.push_back(ev.clone());
    }

    fn reset(&self) {
        let mut g = self.inner.lock().unwrap();
        g.events.clear();
        g.dropped = 0;
    }
}

/// Streams each event as one JSON line to a writer (typically a file opened
/// by [`JsonlSink::create`]). Lines are written atomically under a mutex so
/// concurrent emitters can't tear them.
pub struct JsonlSink<W: Write + Send> {
    w: Mutex<W>,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncating) `path` and stream events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(JsonlSink {
            w: Mutex::new(BufWriter::new(f)),
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap an arbitrary writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w: Mutex::new(w) }
    }

    /// Consume the sink and return the inner writer (flushed).
    pub fn into_inner(self) -> W {
        let mut w = self.w.into_inner().unwrap();
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, ev: &Event) {
        let line = event_to_json(ev);
        let mut g = self.w.lock().unwrap();
        let _ = g.write_all(line.as_bytes());
        let _ = g.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.w.lock().unwrap().flush();
    }
}

/// Whether ANSI color should be used on stderr: disabled when the `NO_COLOR`
/// environment variable is set (to any non-empty value, per the no-color.org
/// convention), when `TERM=dumb`, or when stderr is not a terminal (CI logs,
/// pipes, redirects).
pub fn stderr_color_enabled() -> bool {
    use std::io::IsTerminal;
    color_allowed_by_env() && std::io::stderr().is_terminal()
}

/// [`stderr_color_enabled`] for stdout (used by table/diff printers).
pub fn stdout_color_enabled() -> bool {
    use std::io::IsTerminal;
    color_allowed_by_env() && std::io::stdout().is_terminal()
}

fn color_allowed_by_env() -> bool {
    if std::env::var_os("NO_COLOR").is_some_and(|v| !v.is_empty()) {
        return false;
    }
    if std::env::var_os("TERM").is_some_and(|v| v == "dumb") {
        return false;
    }
    true
}

/// Prints `Info` events (and always `Warn` events, even when quiet) to
/// stderr — the trace-backed replacement for ad-hoc progress `eprintln!`s.
/// Warnings are highlighted in yellow when stderr is a color-capable
/// terminal; `NO_COLOR` / non-TTY stderr (CI) gets plain text.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsoleSink {
    quiet: bool,
    color: bool,
}

impl ConsoleSink {
    /// A console sink; with `quiet` only warnings are printed. Color is
    /// auto-detected from the environment ([`stderr_color_enabled`]).
    pub fn new(quiet: bool) -> Self {
        ConsoleSink {
            quiet,
            color: stderr_color_enabled(),
        }
    }
}

impl TraceSink for ConsoleSink {
    fn record(&self, ev: &Event) {
        match ev.kind {
            EventKind::Warn => {
                let (pre, post) = if self.color {
                    ("\x1b[33m", "\x1b[0m")
                } else {
                    ("", "")
                };
                eprintln!("{pre}warning: {}{}{post}", ev.name, format_fields(ev));
            }
            EventKind::Info if !self.quiet => {
                // Info events carry the human text in a "msg" field when
                // present; otherwise print the name + fields.
                if let Some(msg) = ev.str_field("msg") {
                    eprintln!("{msg}");
                } else {
                    eprintln!("{}{}", ev.name, format_fields(ev));
                }
            }
            _ => {}
        }
    }
}

fn format_fields(ev: &Event) -> String {
    if ev.fields.is_empty() {
        return String::new();
    }
    let mut s = String::from(" [");
    for (i, (k, v)) in ev.fields.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(k);
        s.push('=');
        match v {
            crate::event::Value::F64(x) => s.push_str(&format!("{x:.3e}")),
            crate::event::Value::U64(x) => s.push_str(&x.to_string()),
            crate::event::Value::I64(x) => s.push_str(&x.to_string()),
            crate::event::Value::Bool(x) => s.push_str(&x.to_string()),
            crate::event::Value::Str(x) => s.push_str(x),
        }
    }
    s.push(']');
    s
}

/// Duplicates every event to each of a set of sinks (e.g. console progress
/// + in-memory aggregation + JSONL file, as `repro` does).
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Fan out to `sinks`, in order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, ev: &Event) {
        for s in &self.sinks {
            s.record(ev);
        }
    }

    fn reset(&self) {
        for s in &self.sinks {
            s.reset();
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use std::sync::Arc;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            kind: EventKind::Op,
            name: "x".into(),
            span: 0,
            id: 0,
            fields: vec![("v".into(), Value::U64(seq))],
        }
    }

    #[test]
    fn mem_sink_unbounded_keeps_everything() {
        let s = MemSink::new();
        for i in 0..100 {
            s.record(&ev(i));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.dropped(), 0);
        let evs = s.drain();
        assert_eq!(evs.len(), 100);
        assert!(s.is_empty());
    }

    #[test]
    fn mem_sink_ring_drops_oldest() {
        let s = MemSink::with_capacity(3);
        for i in 0..5 {
            s.record(&ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let evs = s.snapshot();
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn mem_sink_reset_clears() {
        let s = MemSink::with_capacity(2);
        for i in 0..5 {
            s.record(&ev(i));
        }
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::<u8>::new());
        sink.record(&ev(1));
        sink.record(&ev(2));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = crate::json::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, vec![ev(1), ev(2)]);
    }

    #[test]
    fn console_sink_color_override() {
        let plain = ConsoleSink { quiet: false, color: false };
        let colored = ConsoleSink { quiet: false, color: true };
        // Neither panics when printing a warning.
        let w = Event {
            seq: 0,
            kind: EventKind::Warn,
            name: "w".into(),
            span: 0,
            id: 0,
            fields: vec![],
        };
        plain.record(&w);
        colored.record(&w);
    }

    #[test]
    fn fanout_duplicates_and_resets() {
        let a = Arc::new(MemSink::new());
        let b = Arc::new(MemSink::new());
        let f = FanoutSink::new(vec![a.clone(), b.clone()]);
        f.record(&ev(1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        f.reset();
        assert!(a.is_empty());
        assert!(b.is_empty());
    }
}
