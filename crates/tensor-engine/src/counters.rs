//! Execution accounting: flop counters, rounding-event counters, and the
//! per-phase time ledger behind the paper's panel/update breakdowns.

use halfsim::RoundStats;

/// Which part of an algorithm an operation belongs to. Figures 6-8 of the
/// paper break time down along exactly these lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Panel factorization (CAQR or SGEQRF panel).
    Panel,
    /// Trailing-matrix / recursion-level GEMM updates.
    Update,
    /// Direct-solve application (Q^T b, triangular solves).
    Solve,
    /// Iterative refinement (CGLS/LSQR iterations).
    Refine,
    /// Anything else (scaling passes, reorthogonalization bookkeeping...).
    Other,
}

const N_PHASES: usize = 5;

impl Phase {
    fn idx(self) -> usize {
        match self {
            Phase::Panel => 0,
            Phase::Update => 1,
            Phase::Solve => 2,
            Phase::Refine => 3,
            Phase::Other => 4,
        }
    }

    /// All phases, in ledger order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Panel,
        Phase::Update,
        Phase::Solve,
        Phase::Refine,
        Phase::Other,
    ];

    /// Stable lowercase name used in trace events and profile tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Panel => "panel",
            Phase::Update => "update",
            Phase::Solve => "solve",
            Phase::Refine => "refine",
            Phase::Other => "other",
        }
    }
}

/// Modeled seconds accumulated per phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    secs: [f64; N_PHASES],
}

impl Ledger {
    /// Add `secs` seconds to `phase`.
    pub fn charge(&mut self, phase: Phase, secs: f64) {
        self.secs[phase.idx()] += secs;
    }

    /// Seconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.secs[phase.idx()]
    }

    /// Total modeled seconds.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Accumulate another ledger into this one (NaN-safe: a poisoned
    /// partial contributes nothing rather than wiping the whole total).
    pub fn merge(&mut self, other: &Ledger) {
        for (dst, src) in self.secs.iter_mut().zip(other.secs.iter()) {
            *dst = add_finite(*dst, *src);
        }
    }
}

/// `a + b`, ignoring a non-finite `b` so one poisoned partial can't turn a
/// whole-run total into NaN/Inf.
fn add_finite(a: f64, b: f64) -> f64 {
    if b.is_finite() {
        a + b
    } else {
        a
    }
}

/// Work counters for the simulated engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Flops executed on the simulated tensor cores.
    pub tc_flops: f64,
    /// Flops executed as simulated FP32 CUDA-core work.
    pub fp32_flops: f64,
    /// Flops executed as simulated FP64 work.
    pub fp64_flops: f64,
    /// GEMM invocations routed through the engine.
    pub gemm_calls: u64,
    /// Panel factorizations routed through the engine.
    pub panel_calls: u64,
    /// Ops that observed at least one overflow→∞ while rounding their
    /// inputs to half — the per-*op* saturation tally behind fault-campaign
    /// reports (`round.overflow` counts individual values; this counts the
    /// operations they poisoned).
    pub overflow_ops: u64,
    /// Rounding events observed while converting GEMM inputs to half.
    pub round: RoundStats,
}

impl Counters {
    /// All flops regardless of class.
    pub fn total_flops(&self) -> f64 {
        self.tc_flops + self.fp32_flops + self.fp64_flops
    }

    /// Accumulate another set of counters into this one. Flop sums skip
    /// non-finite contributions; call counts saturate instead of wrapping;
    /// rounding stats merge via [`RoundStats::merge`] (also saturating).
    pub fn merge(&mut self, other: &Counters) {
        self.tc_flops = add_finite(self.tc_flops, other.tc_flops);
        self.fp32_flops = add_finite(self.fp32_flops, other.fp32_flops);
        self.fp64_flops = add_finite(self.fp64_flops, other.fp64_flops);
        self.gemm_calls = self.gemm_calls.saturating_add(other.gemm_calls);
        self.panel_calls = self.panel_calls.saturating_add(other.panel_calls);
        self.overflow_ops = self.overflow_ops.saturating_add(other.overflow_ops);
        self.round.merge(other.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_phase() {
        let mut l = Ledger::default();
        l.charge(Phase::Panel, 1.0);
        l.charge(Phase::Update, 2.0);
        l.charge(Phase::Panel, 0.5);
        assert_eq!(l.get(Phase::Panel), 1.5);
        assert_eq!(l.get(Phase::Update), 2.0);
        assert_eq!(l.get(Phase::Solve), 0.0);
        assert_eq!(l.total(), 3.5);
    }

    #[test]
    fn phases_have_distinct_slots() {
        let mut seen = [false; N_PHASES];
        for p in Phase::ALL {
            assert!(!seen[p.idx()], "duplicate slot for {p:?}");
            seen[p.idx()] = true;
        }
    }

    #[test]
    fn counters_total() {
        let c = Counters {
            tc_flops: 1.0,
            fp32_flops: 2.0,
            fp64_flops: 4.0,
            ..Counters::default()
        };
        assert_eq!(c.total_flops(), 7.0);
    }

    #[test]
    fn phase_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
    }

    #[test]
    fn counters_merge_is_saturating_and_nan_safe() {
        let mut a = Counters {
            tc_flops: 10.0,
            fp32_flops: 1.0,
            gemm_calls: u64::MAX - 1,
            ..Counters::default()
        };
        let b = Counters {
            tc_flops: f64::NAN,
            fp32_flops: f64::INFINITY,
            fp64_flops: 3.0,
            gemm_calls: 5,
            panel_calls: 2,
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.tc_flops, 10.0, "NaN partial ignored");
        assert_eq!(a.fp32_flops, 1.0, "Inf partial ignored");
        assert_eq!(a.fp64_flops, 3.0);
        assert_eq!(a.gemm_calls, u64::MAX, "saturates, never wraps");
        assert_eq!(a.panel_calls, 2);
    }

    #[test]
    fn round_stats_merge_saturates_through_counters() {
        // The same u64::MAX discipline as the call counters, via the
        // nested RoundStats merge.
        let mut a = Counters {
            round: RoundStats {
                total: u64::MAX - 2,
                overflow: u64::MAX,
                underflow: 7,
                nan: 0,
            },
            ..Counters::default()
        };
        let b = Counters {
            round: RoundStats {
                total: 100,
                overflow: 100,
                underflow: u64::MAX,
                nan: 1,
            },
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.round.total, u64::MAX);
        assert_eq!(a.round.overflow, u64::MAX);
        assert_eq!(a.round.underflow, u64::MAX);
        assert_eq!(a.round.nan, 1);
    }

    #[test]
    fn ledger_merge_is_nan_safe() {
        let mut a = Ledger::default();
        a.charge(Phase::Panel, 1.0);
        let mut b = Ledger::default();
        b.charge(Phase::Panel, 2.0);
        b.charge(Phase::Update, f64::NAN);
        a.merge(&b);
        assert_eq!(a.get(Phase::Panel), 3.0);
        assert_eq!(a.get(Phase::Update), 0.0);
        assert!(a.total().is_finite());
    }
}
