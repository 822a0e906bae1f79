//! Deterministic *availability*-fault injection for the simulated engine.
//!
//! [`crate::fault`] attacks the **data** inside a TensorCore GEMM; this
//! module attacks the **engine itself**: a production fleet must survive a
//! device that crashes mid-panel, hangs, or silently slows down. The same
//! discipline applies — faults are seed-derived, keyed off a deterministic
//! per-engine op counter, armed with a zero-cost disarmed fast path (one
//! relaxed atomic load per committed op), and fully replayable: the same
//! plan against the same instruction stream fires at the same op, every
//! run, regardless of thread count.
//!
//! The three availability modes ([`EngineFaultKind`]):
//!
//! - [`Crash`](EngineFaultKind::Crash): the engine dies *before* executing
//!   its `at_op`-th committed operation. The op never lands in the ledger;
//!   the engine unwinds with an [`EngineCrash`] panic payload that fleet
//!   schedulers catch at job boundaries (`std::panic::catch_unwind`) to
//!   mark the engine dead and re-dispatch stranded work. Every later op on
//!   a dead engine raises the same payload again, so nothing can silently
//!   keep computing on a corpse.
//! - [`Hang`](EngineFaultKind::Hang): the op completes, but only after
//!   `stall_secs` of modeled dead time is charged to [`Phase::Other`] — a
//!   driver-timeout-and-recover event. Deadline watchdogs upstream see the
//!   stall through the engine clock.
//! - [`Slowdown`](EngineFaultKind::Slowdown): ops in
//!   `[at_op, at_op + window)` charge `factor ×` their modeled time — a
//!   thermally throttled or misbehaving part. Numerics are untouched; only
//!   the clock degrades, which is exactly what makes slow engines hard to
//!   catch without timeline observability.
//!
//! None of the modes ever changes a numeric result: availability faults
//! reorder *where and when* work runs, and the fleet layers prove the
//! *what* stayed bit-identical against a healthy-pool oracle.

use crate::counters::Phase;
use densemat::splitmix64;

/// The availability-fault modes the injector can apply to an engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineFaultKind {
    /// The engine dies before its `at_op`-th committed operation and stays
    /// dead until [`crate::GpuSim::reset_in_place`].
    Crash,
    /// The engine stalls for `stall_secs` of modeled time (charged to
    /// [`Phase::Other`]) before completing the op.
    Hang {
        /// Modeled dead time charged when the fault fires.
        stall_secs: f64,
    },
    /// Ops in `[at_op, at_op + window)` charge `factor ×` their modeled
    /// time.
    Slowdown {
        /// Multiplier applied to each affected op's modeled seconds.
        factor: f64,
        /// Number of consecutive ops the slowdown covers.
        window: u64,
    },
}

impl EngineFaultKind {
    /// Stable lowercase name used in trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineFaultKind::Crash => "crash",
            EngineFaultKind::Hang { .. } => "hang",
            EngineFaultKind::Slowdown { .. } => "slowdown",
        }
    }
}

/// One scheduled availability fault: fire `kind` at the engine's
/// `at_op`-th committed operation (0-based).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedEngineFault {
    /// Index of the committed op the fault keys off.
    pub at_op: u64,
    /// What happens there.
    pub kind: EngineFaultKind,
}

/// A deterministic availability-fault campaign for one engine.
///
/// Like [`crate::fault::FaultPlan`], the plan is replayable: the op counter
/// it keys off advances once per committed operation (GEMMs, panel charges,
/// rounding records — everything that reaches the ledger/trace chokepoint),
/// and a lane's ops execute sequentially, so the firing point is
/// independent of how many threads drive the fleet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineFaultPlan {
    /// Provenance seed (recorded for reports; explicit faults don't draw
    /// from it, [`EngineFaultPlan::derive`] does).
    pub seed: u64,
    /// The scheduled faults. Empty disables the plan.
    pub faults: Vec<PlannedEngineFault>,
}

impl EngineFaultPlan {
    /// A plan with no faults: installing it must leave the engine on the
    /// zero-cost fast path, bit-identical to having no plan at all.
    pub fn disabled() -> EngineFaultPlan {
        EngineFaultPlan::default()
    }

    /// A single crash at committed op `at_op`.
    pub fn crash_at(at_op: u64) -> EngineFaultPlan {
        EngineFaultPlan {
            seed: 0,
            faults: vec![PlannedEngineFault {
                at_op,
                kind: EngineFaultKind::Crash,
            }],
        }
    }

    /// Seed-derive a single crash somewhere in `[horizon / 4, horizon)`
    /// committed ops — the "mid-stream" kill used by chaos campaigns. The
    /// same `(seed, horizon)` always lands on the same op ([`densemat::splitmix64`],
    /// the same generator as [`crate::fault`]).
    pub fn derive(seed: u64, horizon: u64) -> EngineFaultPlan {
        let horizon = horizon.max(4);
        let mut s = seed ^ 0x000C_4A05_F00D_u64;
        let draw = splitmix64(&mut s);
        let lo = horizon / 4;
        let at_op = lo + draw % (horizon - lo);
        let mut plan = EngineFaultPlan::crash_at(at_op);
        plan.seed = seed;
        plan
    }

    /// Append another scheduled fault (builder style).
    pub fn with(mut self, at_op: u64, kind: EngineFaultKind) -> EngineFaultPlan {
        self.faults.push(PlannedEngineFault { at_op, kind });
        self
    }

    /// Whether this plan can ever fire. Engines arm themselves (leave the
    /// zero-cost fast path) only for active plans.
    pub fn is_active(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Campaign counters of one engine's availability faults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AvailStats {
    /// Committed operations observed by the armed plan.
    pub ops: u64,
    /// Hang faults that fired.
    pub hangs: u64,
    /// Ops whose modeled time was stretched by an active slowdown window.
    pub slowed_ops: u64,
    /// Total modeled dead time charged by hangs.
    pub stall_secs: f64,
    /// The op index the engine crashed at, if it crashed.
    pub crashed_at: Option<u64>,
}

/// The panic payload of a crashed engine. Fleet schedulers downcast this
/// at job boundaries ([`std::panic::catch_unwind`]) to tell an injected
/// engine loss apart from a genuine bug (any other payload is resumed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineCrash {
    /// [`crate::GpuSim`] process-unique id of the engine that died.
    pub engine_id: u64,
    /// The committed-op index the crash fired at.
    pub at_op: u64,
}

impl std::fmt::Display for EngineCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine {} crashed at committed op {}",
            self.engine_id, self.at_op
        )
    }
}

/// What the armed availability plan decided for the current op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum AvailAction {
    /// Nothing scheduled here.
    Pass,
    /// Charge `.0` modeled seconds of stall to [`Phase::Other`], then run.
    Stall(f64),
    /// Multiply the op's charged seconds by `.0`.
    Slow(f64),
    /// Die before running the op.
    Crash {
        /// Op index the crash keys off (for the panic payload).
        at_op: u64,
    },
}

/// Per-engine availability state: the plan plus campaign counters.
#[derive(Clone, Debug)]
pub(crate) struct AvailState {
    plan: EngineFaultPlan,
    stats: AvailStats,
}

impl AvailState {
    pub(crate) fn new(plan: EngineFaultPlan) -> AvailState {
        AvailState {
            plan,
            stats: AvailStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> AvailStats {
        self.stats
    }

    /// Advance the op counter and resolve the action for this op. A crash
    /// latches: every op after it (including retries on the corpse)
    /// resolves to [`AvailAction::Crash`] again.
    pub(crate) fn next(&mut self) -> AvailAction {
        if let Some(at) = self.stats.crashed_at {
            return AvailAction::Crash { at_op: at };
        }
        let n = self.stats.ops;
        self.stats.ops += 1;
        for f in &self.plan.faults {
            match f.kind {
                EngineFaultKind::Crash if f.at_op == n => {
                    self.stats.crashed_at = Some(n);
                    return AvailAction::Crash { at_op: n };
                }
                EngineFaultKind::Hang { stall_secs } if f.at_op == n => {
                    self.stats.hangs += 1;
                    self.stats.stall_secs += stall_secs;
                    return AvailAction::Stall(stall_secs);
                }
                EngineFaultKind::Slowdown { factor, window }
                    if n >= f.at_op && n < f.at_op.saturating_add(window) =>
                {
                    self.stats.slowed_ops += 1;
                    return AvailAction::Slow(factor);
                }
                _ => {}
            }
        }
        AvailAction::Pass
    }
}

/// The phase availability stalls are charged to.
pub(crate) const STALL_PHASE: Phase = Phase::Other;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_mid_stream() {
        let a = EngineFaultPlan::derive(7, 100);
        let b = EngineFaultPlan::derive(7, 100);
        assert_eq!(a, b);
        let at = a.faults[0].at_op;
        assert!((25..100).contains(&at), "crash op {at} outside [25, 100)");
        assert_ne!(a.faults, EngineFaultPlan::derive(8, 100).faults);
    }

    #[test]
    fn crash_latches_across_ops() {
        let mut st = AvailState::new(EngineFaultPlan::crash_at(1));
        assert_eq!(st.next(), AvailAction::Pass);
        assert_eq!(st.next(), AvailAction::Crash { at_op: 1 });
        // A dead engine stays dead: later ops refuse to run.
        assert_eq!(st.next(), AvailAction::Crash { at_op: 1 });
        assert_eq!(st.stats().crashed_at, Some(1));
    }

    #[test]
    fn slowdown_covers_its_window_only() {
        let slowdown = EngineFaultKind::Slowdown { factor: 3.0, window: 2 };
        let mut st = AvailState::new(EngineFaultPlan::disabled().with(1, slowdown));
        assert_eq!(st.next(), AvailAction::Pass);
        assert_eq!(st.next(), AvailAction::Slow(3.0));
        assert_eq!(st.next(), AvailAction::Slow(3.0));
        assert_eq!(st.next(), AvailAction::Pass);
        assert_eq!(st.stats().slowed_ops, 2);
    }

    #[test]
    fn hang_charges_once() {
        let hang = EngineFaultKind::Hang { stall_secs: 2.5 };
        let mut st = AvailState::new(EngineFaultPlan::disabled().with(0, hang));
        assert_eq!(st.next(), AvailAction::Stall(2.5));
        assert_eq!(st.next(), AvailAction::Pass);
        let s = st.stats();
        assert_eq!(s.hangs, 1);
        assert_eq!(s.stall_secs, 2.5);
    }

    #[test]
    fn disabled_plan_is_inactive() {
        assert!(!EngineFaultPlan::disabled().is_active());
        assert!(EngineFaultPlan::crash_at(0).is_active());
    }
}
