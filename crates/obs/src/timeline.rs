//! Fleet timelines: per-engine busy/idle/recovery segments and queue-depth
//! samples on the *simulated* clock, reconstructed from the trace stream.
//!
//! The batch scheduler's hot path emits nothing extra for this module. After
//! a batch completes, `tcqr_batch::FleetReport::emit` narrates the
//! accounting it already holds as one `engine.segment` op per job (in
//! submission order, from the coordinating thread) plus the existing
//! `fleet.engine` / `fleet.summary` rollups. Because those events are
//! emitted post-hoc from deterministic accounting — never from inside the
//! batch lanes — both their *content* and their *order* are bit-identical
//! for any worker count, and so is everything this module derives from
//! them: segments, idle gaps, queue-depth steps, and the [`FleetTimeline::digest`].

use tcqr_trace::schema::{balance, FleetEngine};
use tcqr_trace::{Event, Fingerprint};

/// One job's occupancy of one engine, on the simulated clock: the
/// `engine.segment` record itself.
pub use tcqr_trace::schema::EngineSegment as Segment;

/// A fleet lifecycle event pinned to one engine's simulated clock:
/// `"death"`, `"quarantine"`, `"rehabilitated"`, `"requeue"`,
/// `"deadline"`, or `"lost"` (see `tcqr-serve`'s `FleetMark`); the
/// `engine.mark` record itself.
pub use tcqr_trace::schema::EngineMark as TimelineMark;

/// One engine's lane: its segments in execution order plus the clock
/// bookkeeping needed to place idle gaps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineTimeline {
    /// Pool index of the engine.
    pub engine: usize,
    /// Absolute simulated clock when the batch reached this engine
    /// (pre-batch work if the pool was reused; usually 0).
    pub base_secs: f64,
    /// Modeled seconds this engine spent busy on the batch.
    pub busy_secs: f64,
    /// Absolute engine clock after the batch.
    pub clock_secs: f64,
    /// Segments in execution order (equals submission order within a lane).
    pub segments: Vec<Segment>,
    /// Lifecycle marks (deaths, quarantines, requeues...) in emission
    /// order — `tcqr-serve` emits them engine-major on the simulated
    /// clock, so this order is deterministic.
    pub marks: Vec<TimelineMark>,
}

/// The fleet's reconstructed schedule: one [`EngineTimeline`] per engine,
/// in pool order, plus the batch-wide window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetTimeline {
    /// Per-engine timelines, in pool order.
    pub engines: Vec<EngineTimeline>,
    /// Jobs reconstructed across the fleet.
    pub jobs: usize,
    /// Earliest engine base clock (the batch's simulated start).
    pub start_secs: f64,
    /// Latest segment end / engine clock (the batch's simulated end).
    pub end_secs: f64,
}

impl FleetTimeline {
    /// Reconstruct the fleet schedule from a trace event stream.
    ///
    /// Consumes `engine.segment` ops (one per job) and `fleet.engine` ops
    /// (per-engine busy/clock totals); everything else is ignored. Returns
    /// an empty timeline when the stream holds no batch.
    pub fn from_events(events: &[Event]) -> FleetTimeline {
        let mut tl = FleetTimeline::default();
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        for ev in events {
            if let Some(seg) = Segment::from_event(ev) {
                start = start.min(seg.start_secs - seg.wait_secs);
                end = end.max(seg.end_secs);
                tl.lane(seg.engine as usize).segments.push(seg);
                tl.jobs += 1;
            } else if let Some(e) = FleetEngine::from_event(ev) {
                let lane = tl.lane(e.engine as usize);
                lane.busy_secs = e.busy_secs;
                lane.clock_secs = e.clock_secs;
                lane.base_secs = e.clock_secs - e.busy_secs;
                start = start.min(lane.base_secs);
                end = end.max(e.clock_secs);
            } else if let Some(m) = TimelineMark::from_event(ev) {
                tl.lane(m.engine as usize).marks.push(m);
            }
        }
        if start.is_finite() {
            tl.start_secs = start;
            tl.end_secs = end.max(start);
        }
        tl
    }

    /// Mutable lane for `engine`, growing the pool as indices appear.
    fn lane(&mut self, engine: usize) -> &mut EngineTimeline {
        while self.engines.len() <= engine {
            let e = self.engines.len();
            self.engines.push(EngineTimeline {
                engine: e,
                ..EngineTimeline::default()
            });
        }
        &mut self.engines[engine]
    }

    /// True when no batch events were found.
    pub fn is_empty(&self) -> bool {
        self.jobs == 0 && self.engines.is_empty()
    }

    /// Simulated span of the batch.
    pub fn makespan_secs(&self) -> f64 {
        (self.end_secs - self.start_secs).max(0.0)
    }

    /// Total modeled engine-seconds across the fleet.
    pub fn busy_secs(&self) -> f64 {
        self.engines.iter().map(|e| e.busy_secs).sum()
    }

    /// `ideal / makespan` load-balance efficiency; `None` when the batch is
    /// empty or spent no simulated time (never NaN).
    pub fn efficiency(&self) -> Option<f64> {
        balance(self.busy_secs(), self.makespan_secs(), self.engines.len() as u64).efficiency
    }

    /// Queue-depth step samples `(t_secs, waiting_jobs)`: every job arrives
    /// at the batch start, so the depth starts at the job count and steps
    /// down by one at each segment start. Samples are sorted by
    /// `(time, job)` — deterministic because segment starts are.
    pub fn queue_depth(&self) -> Vec<(f64, u64)> {
        if self.jobs == 0 {
            return Vec::new();
        }
        let mut starts: Vec<(f64, u64)> = self
            .engines
            .iter()
            .flat_map(|e| e.segments.iter().map(|s| (s.start_secs, s.job)))
            .collect();
        starts.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let mut depth = self.jobs as u64;
        let mut out = Vec::with_capacity(starts.len() + 1);
        out.push((self.start_secs, depth));
        for (t, _) in starts {
            depth = depth.saturating_sub(1);
            out.push((t, depth));
        }
        out
    }

    /// Summed per-segment fault statistics `(injected, detected)`.
    pub fn fault_totals(&self) -> (u64, u64) {
        let mut inj = 0u64;
        let mut det = 0u64;
        for e in &self.engines {
            for s in &e.segments {
                inj = inj.saturating_add(s.fault_injected);
                det = det.saturating_add(s.fault_detected);
            }
        }
        (inj, det)
    }

    /// Bit-exact FNV-1a digest of the reconstructed schedule: engine order,
    /// every segment's identity, placement, outcome, and fault counts.
    /// Equal between two runs iff their timelines are bit-identical — the
    /// `--threads` invariance gate in CI compares exactly this.
    pub fn digest(&self) -> u64 {
        let mut d = Fingerprint::new();
        d.push_u64(self.engines.len() as u64);
        d.push_u64(self.jobs as u64);
        for e in &self.engines {
            d.push_u64(e.engine as u64);
            d.push_f64(e.base_secs);
            d.push_f64(e.busy_secs);
            d.push_f64(e.clock_secs);
            d.push_u64(e.segments.len() as u64);
            for s in &e.segments {
                d.push_u64(s.job);
                d.push_bytes(s.kind.as_bytes());
                d.push_f64(s.wait_secs);
                d.push_f64(s.start_secs);
                d.push_f64(s.end_secs);
                d.push_u64(s.ok as u64);
                d.push_u64(s.fault_injected);
                d.push_u64(s.fault_detected);
            }
            d.push_u64(e.marks.len() as u64);
            for m in &e.marks {
                d.push_bytes(m.kind.as_bytes());
                d.push_f64(m.t);
                d.push_u64(m.ticket.map_or(u64::MAX, |t| t));
            }
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcqr_trace::{MemSink, Tracer, Value};

    /// Narrate a two-engine, three-job batch the way `FleetReport::emit`
    /// does.
    pub(crate) fn sample_events() -> Vec<Event> {
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        let seg = |engine: usize, job: u64, wait: f64, start: f64, end: f64, ok: bool, det: u64| {
            t.op(
                Segment::NAME,
                &[
                    ("engine", Value::from(engine)),
                    ("job", Value::from(job)),
                    ("kind", Value::from("rgsqrf")),
                    ("wait_secs", Value::F64(wait)),
                    ("start_secs", Value::F64(start)),
                    ("end_secs", Value::F64(end)),
                    ("ok", Value::from(ok)),
                    ("fault_injected", Value::from(det)),
                    ("fault_detected", Value::from(det)),
                ],
            );
        };
        // Submission order: job 0 -> engine 0, job 1 -> engine 1, job 2 -> engine 0.
        seg(0, 0, 0.0, 0.0, 2.0, true, 0);
        seg(1, 1, 0.0, 0.0, 1.0, true, 1);
        seg(0, 2, 2.0, 2.0, 3.0, false, 0);
        for (e, jobs, busy) in [(0usize, 2usize, 3.0f64), (1, 1, 1.0)] {
            t.op(
                FleetEngine::NAME,
                &[
                    ("engine", Value::from(e)),
                    ("jobs", Value::from(jobs)),
                    ("busy_secs", Value::F64(busy)),
                    ("clock_secs", Value::F64(busy)),
                    ("fault_injected", Value::from(0u64)),
                    ("fault_detected", Value::from(0u64)),
                ],
            );
        }
        sink.snapshot()
    }

    #[test]
    fn reconstructs_lanes_and_window() {
        let tl = FleetTimeline::from_events(&sample_events());
        assert_eq!(tl.engines.len(), 2);
        assert_eq!(tl.jobs, 3);
        assert_eq!(tl.start_secs, 0.0);
        assert_eq!(tl.end_secs, 3.0);
        assert_eq!(tl.makespan_secs(), 3.0);
        assert_eq!(tl.busy_secs(), 4.0);
        assert!((tl.efficiency().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let e0 = &tl.engines[0];
        assert_eq!(e0.segments.len(), 2);
        assert_eq!(e0.segments[1].job, 2);
        assert!(!e0.segments[1].ok);
        let e1 = &tl.engines[1];
        assert!(e1.segments[0].recovered());
        assert_eq!(tl.fault_totals(), (1, 1));
    }

    #[test]
    fn queue_depth_steps_down_at_each_start() {
        let tl = FleetTimeline::from_events(&sample_events());
        assert_eq!(
            tl.queue_depth(),
            vec![(0.0, 3), (0.0, 2), (0.0, 1), (2.0, 0)]
        );
    }

    #[test]
    fn digest_ignores_unrelated_events_but_not_schedule_changes() {
        let events = sample_events();
        let base = FleetTimeline::from_events(&events).digest();
        // Unrelated chatter (different seq numbers, extra ops) must not
        // move the digest: it hashes the reconstruction, not the stream.
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        t.info("noise", &[("msg", Value::from("hi"))]);
        t.op("gemm", &[("phase", Value::from("update")), ("secs", Value::F64(0.5))]);
        let mut padded = sink.snapshot();
        padded.extend(events.iter().cloned());
        assert_eq!(FleetTimeline::from_events(&padded).digest(), base);
        // A one-bit schedule change must move it.
        let mut altered = events;
        for ev in &mut altered {
            if ev.name == Segment::NAME {
                for (k, v) in &mut ev.fields {
                    if k == "end_secs" {
                        if let Value::F64(x) = v {
                            *x += 1e-9;
                        }
                        break;
                    }
                }
                break;
            }
        }
        assert_ne!(FleetTimeline::from_events(&altered).digest(), base);
    }

    #[test]
    fn marks_land_on_their_lane_and_move_the_digest() {
        let mut events = sample_events();
        let base = FleetTimeline::from_events(&events).digest();
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        t.op(
            TimelineMark::NAME,
            &[
                ("engine", Value::from(1usize)),
                ("kind", Value::from("death")),
                ("t", Value::F64(0.75)),
                ("ticket", Value::from(4usize)),
            ],
        );
        t.op(
            TimelineMark::NAME,
            &[
                ("engine", Value::from(1usize)),
                ("kind", Value::from("quarantine")),
                ("t", Value::F64(0.9)),
            ],
        );
        events.extend(sink.snapshot());
        let tl = FleetTimeline::from_events(&events);
        assert!(tl.engines[0].marks.is_empty());
        assert_eq!(
            tl.engines[1].marks,
            vec![
                TimelineMark {
                    engine: 1,
                    kind: "death".into(),
                    t: 0.75,
                    ticket: Some(4),
                },
                TimelineMark {
                    engine: 1,
                    kind: "quarantine".into(),
                    t: 0.9,
                    ticket: None,
                },
            ]
        );
        // Chaos marks are part of the reconstruction: the digest must see them.
        assert_ne!(tl.digest(), base);
    }

    #[test]
    fn empty_stream_is_an_empty_timeline() {
        let tl = FleetTimeline::from_events(&[]);
        assert!(tl.is_empty());
        assert_eq!(tl.makespan_secs(), 0.0);
        assert_eq!(tl.efficiency(), None);
        assert!(tl.queue_depth().is_empty());
    }
}
