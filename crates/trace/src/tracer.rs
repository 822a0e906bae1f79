//! The `Tracer` handle and span machinery.
//!
//! A [`Tracer`] is a cheap, cloneable handle that routes events to a sink.
//! It comes in three flavours:
//!
//! - **disabled** ([`Tracer::disabled`]) — every emit is a no-op and skips
//!   event construction entirely (one relaxed atomic load on the global
//!   variant, a plain bool otherwise);
//! - **local** ([`Tracer::new`]) — events go to a specific sink, shared via
//!   `Arc`. Used by tests and library callers that want isolation;
//! - **global** ([`Tracer::global`]) — events go to whatever sink was last
//!   [`install_global`]ed, like the `log` crate's facade. This is how
//!   engines created deep inside experiment code trace without any
//!   parameter plumbing: `GpuSim` defaults to the global tracer.
//!
//! Sequence numbers are process-wide and monotonic, so events from several
//! engines/threads interleave into one totally ordered stream. Span nesting
//! is tracked per **thread** with a thread-local stack: an op emitted on the
//! thread that opened a span records that span as its parent; ops emitted
//! from other threads record the root (span 0), unless that thread adopts
//! the opener's span with [`in_span`] (the batch scheduler's lanes do).

use crate::event::{Event, EventKind, Value};
use crate::sink::TraceSink;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide event sequence. Starts at 1 so that 0 can mean "root span".
static SEQ: AtomicU64 = AtomicU64::new(1);

fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Fast check for the global path: true iff a global sink is installed.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

fn global_sink_slot() -> &'static Mutex<Option<Arc<dyn TraceSink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install `sink` as the process-global trace sink. Replaces any previous
/// one. Events emitted through [`Tracer::global`] (and through engines left
/// at their default tracer) will reach it.
pub fn install_global(sink: Arc<dyn TraceSink>) {
    *global_sink_slot().lock().unwrap() = Some(sink);
    GLOBAL_ENABLED.store(true, Ordering::Release);
}

/// Remove the process-global sink; [`Tracer::global`] becomes a no-op again.
pub fn clear_global() {
    GLOBAL_ENABLED.store(false, Ordering::Release);
    *global_sink_slot().lock().unwrap() = None;
}

fn with_global_sink(f: impl FnOnce(&dyn TraceSink)) {
    if !GLOBAL_ENABLED.load(Ordering::Acquire) {
        return;
    }
    // Clone the Arc out so the sink's own record() runs outside our lock.
    let sink = global_sink_slot().lock().unwrap().clone();
    if let Some(sink) = sink {
        f(&*sink);
    }
}

thread_local! {
    /// Stack of open span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Close span `id` on this thread's stack, with any spans above it.
fn pop_span(id: u64) {
    SPAN_STACK.with(|s| {
        let mut st = s.borrow_mut();
        if let Some(pos) = st.iter().rposition(|&open| open == id) {
            st.truncate(pos);
        }
    });
}

/// The innermost span open on the calling thread (0 at the root). Hand it
/// to [`in_span`] on a thread that works on this thread's behalf.
pub fn current_span() -> u64 {
    current_span_id()
}

/// Run `f` with `span` (a [`current_span`] taken on another thread) as the
/// enclosing span of everything `f` emits on this thread, so work handed
/// to a helper thread nests exactly where it would on the caller's thread.
pub fn in_span<R>(span: u64, f: impl FnOnce() -> R) -> R {
    struct Adopted(u64);
    impl Drop for Adopted {
        fn drop(&mut self) {
            pop_span(self.0);
        }
    }
    if span == 0 {
        return f();
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(span));
    let _adopted = Adopted(span);
    f()
}

#[derive(Clone)]
enum Backend {
    Null,
    Local(Arc<dyn TraceSink>),
    Global,
}

/// A cheap, cloneable handle that emits events to a sink.
///
/// Comes in three flavours: disabled ([`Tracer::disabled`]), bound to a
/// specific sink ([`Tracer::new`]), or dispatching to the process-global
/// sink ([`Tracer::global`] — a no-op until [`install_global`]). All emit methods
/// take fields as `&[(&str, Value)]`; when the tracer is disabled the slice
/// is still built by the caller, so hot paths should guard expensive field
/// computation behind [`Tracer::enabled`].
#[derive(Clone)]
pub struct Tracer {
    backend: Backend,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self.backend {
            Backend::Null => "Tracer(disabled)",
            Backend::Local(_) => "Tracer(local)",
            Backend::Global => "Tracer(global)",
        };
        f.write_str(name)
    }
}

impl Default for Tracer {
    /// The default tracer is the global one (a no-op until
    /// [`install_global`] runs).
    fn default() -> Self {
        Tracer::global()
    }
}

impl Tracer {
    /// A tracer that drops everything without constructing events.
    pub fn disabled() -> Self {
        Tracer {
            backend: Backend::Null,
        }
    }

    /// A tracer bound to a specific sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            backend: Backend::Local(sink),
        }
    }

    /// A tracer that dispatches to the process-global sink (no-op until one
    /// is [`install_global`]ed).
    pub fn global() -> Self {
        Tracer {
            backend: Backend::Global,
        }
    }

    /// Whether events emitted now would reach a sink. Use to guard
    /// expensive field computation.
    pub fn enabled(&self) -> bool {
        match &self.backend {
            Backend::Null => false,
            Backend::Local(_) => true,
            Backend::Global => GLOBAL_ENABLED.load(Ordering::Acquire),
        }
    }

    fn dispatch(&self, ev: &Event) {
        match &self.backend {
            Backend::Null => {}
            Backend::Local(sink) => sink.record(ev),
            Backend::Global => with_global_sink(|sink| sink.record(ev)),
        }
    }

    fn emit(&self, kind: EventKind, name: &str, id: u64, fields: &[(&str, Value)]) -> u64 {
        let seq = next_seq();
        let ev = Event {
            seq,
            kind,
            name: name.to_string(),
            span: current_span_id(),
            id,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.dispatch(&ev);
        seq
    }

    /// Emit an operation event (a GEMM, a charge, one solver iteration).
    pub fn op(&self, name: &str, fields: &[(&str, Value)]) {
        if !self.enabled() {
            return;
        }
        self.emit(EventKind::Op, name, 0, fields);
    }

    /// Emit a human-oriented progress event. By convention the display text
    /// goes in a `msg` field ([`ConsoleSink`](crate::ConsoleSink) prints it
    /// verbatim).
    pub fn info(&self, name: &str, fields: &[(&str, Value)]) {
        if !self.enabled() {
            return;
        }
        self.emit(EventKind::Info, name, 0, fields);
    }

    /// Emit a warning event. Warnings are printed by
    /// [`ConsoleSink`](crate::ConsoleSink) even in quiet mode.
    pub fn warn(&self, name: &str, fields: &[(&str, Value)]) {
        if !self.enabled() {
            return;
        }
        self.emit(EventKind::Warn, name, 0, fields);
    }

    /// Open a span: emits a `SpanOpen` event and pushes the span onto this
    /// thread's stack. The returned guard emits the matching `SpanClose` on
    /// drop (or earlier via [`Span::close_with`]).
    ///
    /// When the tracer is disabled the guard is inert.
    pub fn span(&self, name: &str, fields: &[(&str, Value)]) -> Span {
        if !self.enabled() {
            return Span {
                tracer: Tracer::disabled(),
                name: String::new(),
                id: 0,
                closed: true,
            };
        }
        let seq = next_seq();
        let ev = Event {
            seq,
            kind: EventKind::SpanOpen,
            name: name.to_string(),
            span: current_span_id(),
            id: seq, // a span's id is its open event's seq
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.dispatch(&ev);
        SPAN_STACK.with(|s| s.borrow_mut().push(seq));
        Span {
            tracer: self.clone(),
            name: name.to_string(),
            id: seq,
            closed: false,
        }
    }

    /// The id of the innermost open span on this thread (0 = root).
    pub fn current_span(&self) -> u64 {
        current_span_id()
    }

    /// Ask the underlying sink to drop buffered state (used by
    /// `GpuSim::reset`).
    pub fn reset_sink(&self) {
        match &self.backend {
            Backend::Null => {}
            Backend::Local(sink) => sink.reset(),
            Backend::Global => with_global_sink(|sink| sink.reset()),
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        match &self.backend {
            Backend::Null => {}
            Backend::Local(sink) => sink.flush(),
            Backend::Global => with_global_sink(|sink| sink.flush()),
        }
    }
}

/// RAII guard for an open span. Dropping it emits the `SpanClose` event and
/// pops the span from the thread's stack; [`Span::close_with`] does the same
/// but attaches result fields (iteration counts, convergence flags...).
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    tracer: Tracer,
    name: String,
    id: u64,
    closed: bool,
}

impl Span {
    /// The span's id (its open event's sequence number); 0 when inert.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now, attaching `fields` to the close event.
    pub fn close_with(mut self, fields: &[(&str, Value)]) {
        self.close(fields);
    }

    fn close(&mut self, fields: &[(&str, Value)]) {
        if self.closed {
            return;
        }
        self.closed = true;
        // Pop our id from this thread's stack. Defensive: if inner spans
        // were leaked (e.g. a guard moved across threads), pop through them
        // so the stack can't grow without bound.
        pop_span(self.id);
        let seq = next_seq();
        let ev = Event {
            seq,
            kind: EventKind::SpanClose,
            name: std::mem::take(&mut self.name),
            span: current_span_id(),
            id: self.id,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.tracer.dispatch(&ev);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;
    use crate::EventKind;

    #[test]
    fn spans_nest_and_order() {
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        {
            let outer = t.span("outer", &[]);
            t.op("a", &[]);
            {
                let inner = t.span("inner", &[("depth", Value::from(2u64))]);
                t.op("b", &[]);
                inner.close_with(&[("ok", Value::from(true))]);
            }
            t.op("c", &[]);
            drop(outer);
        }
        t.op("after", &[]);

        let evs = sink.snapshot();
        assert_eq!(evs.len(), 8);
        let outer_id = evs[0].id;
        assert_eq!(evs[0].kind, EventKind::SpanOpen);
        assert_ne!(outer_id, 0);
        // "a" nests in outer
        assert_eq!(evs[1].name, "a");
        assert_eq!(evs[1].span, outer_id);
        // inner opens under outer
        let inner_id = evs[2].id;
        assert_eq!(evs[2].kind, EventKind::SpanOpen);
        assert_eq!(evs[2].span, outer_id);
        // "b" nests in inner
        assert_eq!(evs[3].span, inner_id);
        // inner close carries fields and points back at inner's id
        assert_eq!(evs[4].kind, EventKind::SpanClose);
        assert_eq!(evs[4].id, inner_id);
        assert_eq!(evs[4].span, outer_id);
        assert_eq!(evs[4].bool_field("ok"), Some(true));
        // "c" is back under outer
        assert_eq!(evs[5].span, outer_id);
        // outer close at root
        assert_eq!(evs[6].kind, EventKind::SpanClose);
        assert_eq!(evs[6].id, outer_id);
        assert_eq!(evs[6].span, 0);
        // "after" is at root
        assert_eq!(evs[7].span, 0);
        // seq strictly increasing
        for w in evs.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn helper_threads_nest_only_inside_an_adopted_span() {
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        let outer = t.span("outer", &[]);
        let parent = current_span();
        std::thread::scope(|s| {
            s.spawn(|| t.op("stray", &[]));
        });
        std::thread::scope(|s| {
            s.spawn(|| in_span(parent, || t.op("adopted", &[])));
        });
        drop(outer);
        let evs = sink.snapshot();
        let span_of = |name: &str| evs.iter().find(|e| e.name == name).unwrap().span;
        assert_eq!(span_of("stray"), 0);
        assert_eq!(span_of("adopted"), evs[0].id);
        assert_ne!(evs[0].id, 0);
        // The adopted span leaves the helper thread's stack with `in_span`.
        assert_eq!(in_span(parent, current_span), parent);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_span_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let s = t.span("x", &[]);
        assert_eq!(s.id(), 0);
        t.op("y", &[]);
        s.close_with(&[]);
        assert_eq!(t.current_span(), 0);
    }

    #[test]
    fn local_tracers_are_isolated() {
        let a = Arc::new(MemSink::new());
        let b = Arc::new(MemSink::new());
        let ta = Tracer::new(a.clone());
        let tb = Tracer::new(b.clone());
        ta.op("only_a", &[]);
        tb.op("only_b", &[]);
        assert_eq!(a.snapshot()[0].name, "only_a");
        assert_eq!(b.snapshot()[0].name, "only_b");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn drop_closes_unbalanced_spans() {
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        let outer = t.span("outer", &[]);
        let _inner = t.span("inner", &[]);
        // Close outer while inner is still open: the stack must not leak.
        outer.close_with(&[]);
        assert_eq!(t.current_span(), 0);
        drop(_inner); // emits a close, harmless
        let evs = sink.snapshot();
        assert_eq!(
            evs.iter()
                .filter(|e| e.kind == EventKind::SpanClose)
                .count(),
            2
        );
    }
}
