//! Rounding-error budgets: per-phase accounting of measured rounding
//! events against Yang-Fox-Sanders-style modeled bounds.
//!
//! Every charged GEMM in the trace carries its compute class and inner
//! dimension `k`; from those the per-phase *budget* accumulates the
//! first-order composition of the per-product error bounds of Yang, Fox &
//! Sanders (arXiv 1912.06217): deterministically
//! `2·u_in + u_in² + γ_k(u32)` per TensorCore product (fp16 inputs, fp32
//! accumulation) and probabilistically `λ(2·u_in/√k + √k·u32)` with
//! `λ = 6` (failure probability ≈ 4·exp(-λ²/2) ≈ 6e-8 per entry), with
//! the corresponding `γ_k` terms for pure fp32/fp64 products. Alongside
//! the modeled bounds, each phase tallies the rounding events the
//! simulator actually measured (elements rounded, overflows, underflows,
//! NaNs), so an accuracy regression attributes to a *phase* — "the update
//! GEMMs' modeled bound doubled", "panel roundings started overflowing" —
//! instead of only moving a final residual.
//!
//! The unit roundoffs and bound forms are the workspace's one copy in
//! `halfsim::bounds`, the same functions the `ablation-bounds` experiment
//! measures against the engine.
//!
//! Like the rest of the attribution layer, budgets are post-hoc trace
//! consumers: bound contributions are folded through the order-independent
//! [`StableSum`](crate::diff), so the budget — and the `error.budget`
//! events it emits — is bit-identical for any `--threads` interleaving.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use halfsim::bounds::{det_tc_bound, gamma, prob_tc_bound, U16, U32, U64};
use tcqr_trace::json::{push_json_number, push_json_string};
use tcqr_trace::schema::Charge;
use tcqr_trace::{Event, Fingerprint, Tracer};

use crate::diff::StableSum;

/// Probabilistic-bound confidence multiplier: failure probability
/// ≈ `4 exp(-λ²/2)` ≈ 6e-8 per entry at `λ = 6`.
pub const LAMBDA: f64 = 6.0;

/// Deterministic per-product bound for a `k`-deep accumulation in `class`.
fn det_bound(class: &str, k: usize) -> f64 {
    match class {
        "tc" => det_tc_bound(k, U16),
        "fp32" => gamma(k as f64, U32),
        _ => gamma(k as f64, U64),
    }
}

/// Probabilistic (`λ = 6`) per-product bound for a `k`-deep accumulation.
fn prob_bound(class: &str, k: usize) -> f64 {
    let sk = (k as f64).sqrt();
    match class {
        "tc" => prob_tc_bound(k, U16, LAMBDA),
        "fp32" => LAMBDA * sk * U32,
        _ => LAMBDA * sk * U64,
    }
}

pub use tcqr_trace::schema::PhaseBudget;

#[derive(Default)]
struct PhaseAcc {
    ops: u64,
    gemms: u64,
    rounded: u64,
    overflow: u64,
    underflow: u64,
    nan: u64,
    det: StableSum,
    prob: StableSum,
}

/// A run's rounding-error budget, one [`PhaseBudget`] per phase in phase
/// order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ErrorBudget {
    /// Per-phase budgets, sorted by phase name.
    pub phases: Vec<PhaseBudget>,
}

impl ErrorBudget {
    /// Fold an event stream into per-phase budgets.
    pub fn from_events(events: &[Event]) -> ErrorBudget {
        let mut acc: BTreeMap<String, PhaseAcc> = BTreeMap::new();
        for c in events.iter().filter_map(Charge::from_event) {
            let Some(phase) = c.phase else {
                continue;
            };
            let a = acc.entry(phase.to_string()).or_default();
            a.ops += 1;
            a.rounded = a.rounded.saturating_add(c.rounded.unwrap_or(0));
            a.overflow = a.overflow.saturating_add(c.overflow);
            a.underflow = a.underflow.saturating_add(c.underflow);
            a.nan = a.nan.saturating_add(c.nan);
            if let (Some(class), Some(k)) = (c.class, c.k) {
                a.gemms += 1;
                let k = k.max(1) as usize;
                a.det.push(det_bound(class, k));
                a.prob.push(prob_bound(class, k));
            }
        }
        ErrorBudget {
            phases: acc
                .into_iter()
                .map(|(phase, a)| PhaseBudget {
                    phase,
                    ops: a.ops,
                    gemms: a.gemms,
                    rounded: a.rounded,
                    overflow: a.overflow,
                    underflow: a.underflow,
                    nan: a.nan,
                    det_bound: a.det.finish(),
                    prob_bound: a.prob.finish(),
                })
                .collect(),
        }
    }

    /// True when no phased ops were found.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Narrate the budget as one `error.budget` op per phase. These are
    /// rollups of already-traced telemetry: as schema events they are never
    /// a `Charge`, so no fold or differ counts their rounding tallies twice.
    pub fn emit(&self, tracer: &Tracer) {
        for p in &self.phases {
            p.emit(tracer);
        }
    }

    /// Human "numerical blame" table for a single run.
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "error budget: (no phased ops in trace)\n".to_string();
        }
        let mut out = String::from("error budget (per phase):\n");
        let w = self
            .phases
            .iter()
            .map(|p| p.phase.len())
            .max()
            .unwrap_or(5)
            .max(5);
        out.push_str(&format!(
            "  {:<w$} {:>7} {:>7} {:>10} {:>6} {:>6} {:>5} {:>11} {:>11}\n",
            "phase", "ops", "gemms", "rounded", "ovf", "unf", "nan", "det_bound", "prob_bound",
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<w$} {:>7} {:>7} {:>10} {:>6} {:>6} {:>5} {:>11.3e} {:>11.3e}\n",
                p.phase,
                p.ops,
                p.gemms,
                p.rounded,
                p.overflow,
                p.underflow,
                p.nan,
                p.det_bound,
                p.prob_bound,
            ));
        }
        out
    }

    /// Per-phase delta table between two budgets, most salient phase
    /// first (same normalized-own-delta ranking as the trace differ).
    pub fn blame(base: &ErrorBudget, cur: &ErrorBudget) -> Vec<BudgetDelta> {
        let empty = PhaseBudget::default();
        let mut names: Vec<&String> = base.phases.iter().map(|p| &p.phase).collect();
        for p in &cur.phases {
            if !base.phases.iter().any(|b| b.phase == p.phase) {
                names.push(&p.phase);
            }
        }
        names.sort();
        let lookup = |b: &'_ ErrorBudget, name: &str| -> PhaseBudget {
            b.phases
                .iter()
                .find(|p| p.phase == name)
                .unwrap_or(&empty)
                .clone()
        };
        let mut rows: Vec<BudgetDelta> = names
            .into_iter()
            .map(|name| {
                let b = lookup(base, name);
                let c = lookup(cur, name);
                BudgetDelta {
                    phase: name.clone(),
                    score: 0.0,
                    d_rounded: c.rounded as i64 - b.rounded as i64,
                    d_overflow: c.overflow as i64 - b.overflow as i64,
                    d_underflow: c.underflow as i64 - b.underflow as i64,
                    d_nan: c.nan as i64 - b.nan as i64,
                    d_det_bound: sub_bound(b.det_bound, c.det_bound),
                    d_prob_bound: sub_bound(b.prob_bound, c.prob_bound),
                    base: b,
                    cur: c,
                }
            })
            .filter(|r| !r.is_zero())
            .collect();
        let mut maxes = [0.0f64; 6];
        for r in &rows {
            for (m, v) in maxes.iter_mut().zip(r.metrics()) {
                *m = m.max(v.abs());
            }
        }
        for r in &mut rows {
            let mut score = 0.0;
            for (m, v) in maxes.iter().zip(r.metrics()) {
                if *m > 0.0 && v.is_finite() {
                    score = f64::max(score, v.abs() / *m);
                } else if v.abs() > 0.0 {
                    score = 1.0; // ±∞ delta: maximally salient
                }
            }
            r.score = score;
        }
        rows.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.phase.cmp(&b.phase))
        });
        rows
    }

    /// Human blame table between two budgets.
    pub fn render_blame(base: &ErrorBudget, cur: &ErrorBudget) -> String {
        let rows = ErrorBudget::blame(base, cur);
        if rows.is_empty() {
            return "error budget diff: no per-phase numerical deltas\n".to_string();
        }
        let w = rows.iter().map(|r| r.phase.len()).max().unwrap().max(5);
        let mut out = String::from("error budget diff (numerical blame):\n");
        out.push_str(&format!(
            "  {:<5} {:<w$} {:>10} {:>6} {:>6} {:>5} {:>12} {:>12}\n",
            "score", "phase", "Δround", "Δovf", "Δunf", "Δnan", "Δdet_bound", "Δprob_bound",
        ));
        for r in &rows {
            out.push_str(&format!(
                "  {:<5.2} {:<w$} {:>+10} {:>+6} {:>+6} {:>+5} {:>+12.3e} {:>+12.3e}\n",
                r.score,
                r.phase,
                r.d_rounded,
                r.d_overflow,
                r.d_underflow,
                r.d_nan,
                r.d_det_bound,
                r.d_prob_bound,
            ));
        }
        out
    }

    /// Machine-readable budget.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"tcqr.errorbudget.v1\",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"phase\":");
            push_json_string(&mut out, &p.phase);
            let _ = write!(
                out,
                ",\"ops\":{},\"gemms\":{},\"rounded\":{},\"overflow\":{},\"underflow\":{},\
                 \"nan\":{},\"det_bound\":",
                p.ops, p.gemms, p.rounded, p.overflow, p.underflow, p.nan,
            );
            push_json_number(&mut out, p.det_bound);
            out.push_str(",\"prob_bound\":");
            push_json_number(&mut out, p.prob_bound);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Bit-exact FNV-1a digest of the budget.
    pub fn digest(&self) -> u64 {
        let mut d = Fingerprint::new();
        d.push_bytes(self.to_json().as_bytes());
        for p in &self.phases {
            d.push_f64(p.det_bound);
            d.push_f64(p.prob_bound);
        }
        d.finish()
    }
}

/// `cur - base` with `∞ - ∞ = 0` (both budgets saturated: no delta).
fn sub_bound(base: f64, cur: f64) -> f64 {
    if base.to_bits() == cur.to_bits() {
        0.0
    } else {
        cur - base
    }
}

/// One phase's numerical delta between two budgets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BudgetDelta {
    /// Phase label.
    pub phase: String,
    /// Salience in `[0, 1]` (normalized like [`crate::diff::BlameRow`]).
    pub score: f64,
    /// Δ elements rounded.
    pub d_rounded: i64,
    /// Δ rounding overflows.
    pub d_overflow: i64,
    /// Δ rounding underflows.
    pub d_underflow: i64,
    /// Δ rounding NaNs.
    pub d_nan: i64,
    /// Δ deterministic bound.
    pub d_det_bound: f64,
    /// Δ probabilistic bound.
    pub d_prob_bound: f64,
    /// Base phase budget.
    pub base: PhaseBudget,
    /// Current phase budget.
    pub cur: PhaseBudget,
}

impl BudgetDelta {
    fn metrics(&self) -> [f64; 6] {
        [
            self.d_rounded as f64,
            self.d_overflow as f64,
            self.d_underflow as f64,
            self.d_nan as f64,
            self.d_det_bound,
            self.d_prob_bound,
        ]
    }

    /// True when nothing moved in this phase.
    pub fn is_zero(&self) -> bool {
        self.d_rounded == 0
            && self.d_overflow == 0
            && self.d_underflow == 0
            && self.d_nan == 0
            && self.d_det_bound == 0.0
            && self.d_prob_bound == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcqr_trace::schema::FleetSummary;
    use tcqr_trace::{MemSink, Value};

    fn gemm(t: &Tracer, phase: &str, class: &str, k: u64, rounded: u64, overflow: u64) {
        t.op(
            "gemm",
            &[
                ("phase", Value::from(phase)),
                ("class", Value::from(class)),
                ("m", Value::from(64u64)),
                ("n", Value::from(64u64)),
                ("k", Value::from(k)),
                ("secs", Value::F64(1e-4)),
                ("flops", Value::F64(1e6)),
                ("rounded", Value::from(rounded)),
                ("overflow", Value::from(overflow)),
            ],
        );
    }

    fn sample(k: u64, overflow: u64) -> Vec<Event> {
        let sink = Arc::new(MemSink::new());
        let t = Tracer::new(sink.clone());
        gemm(&t, "update", "tc", k, 4096, overflow);
        gemm(&t, "panel", "fp32", 64, 0, 0);
        t.op(
            "round_half",
            &[("phase", Value::from("update")), ("rounded", Value::from(100u64))],
        );
        t.op(FleetSummary::NAME, &[("jobs", Value::from(1u64))]);
        sink.snapshot()
    }

    #[test]
    fn bounds_match_the_yang_et_al_forms() {
        let k = 4096;
        let sk = (k as f64).sqrt();
        assert_eq!(
            det_bound("tc", k),
            2.0 * U16 + U16 * U16 + gamma(k as f64, U32)
        );
        assert_eq!(prob_bound("tc", k), LAMBDA * (2.0 * U16 / sk + sk * U32));
        assert_eq!(det_bound("fp32", k), gamma(k as f64, U32));
        // The probabilistic bound beats the deterministic one at depth.
        assert!(prob_bound("tc", k) < det_bound("tc", k));
    }

    #[test]
    fn budget_accumulates_per_phase() {
        let b = ErrorBudget::from_events(&sample(4096, 7));
        assert_eq!(b.phases.len(), 2);
        let panel = &b.phases[0];
        assert_eq!(panel.phase, "panel");
        assert_eq!((panel.ops, panel.gemms), (1, 1));
        assert_eq!(panel.det_bound, det_bound("fp32", 64));
        let update = &b.phases[1];
        assert_eq!(update.phase, "update");
        // gemm + round_half ops, one gemm.
        assert_eq!((update.ops, update.gemms), (2, 1));
        assert_eq!(update.rounded, 4196);
        assert_eq!(update.overflow, 7);
        assert_eq!(update.det_bound, det_bound("tc", 4096));
        assert_eq!((update.overflow, update.rounded), (7, 4196));
        // Rollup events never feed a budget.
        assert!(b.phases.iter().all(|p| p.phase != "jobs"));
    }

    #[test]
    fn emitted_budget_round_trips_and_does_not_self_feed() {
        let b = ErrorBudget::from_events(&sample(4096, 0));
        let sink = Arc::new(MemSink::new());
        b.emit(&Tracer::new(sink.clone()));
        let emitted = sink.snapshot();
        assert_eq!(emitted.len(), 2);
        assert!(emitted.iter().all(|e| e.name == PhaseBudget::NAME));
        assert_eq!(emitted[1].str_field("phase"), Some("update"));
        assert_eq!(emitted[1].u64_field("rounded"), Some(4196));
        // Re-deriving a budget from a stream that already contains
        // error.budget ops must ignore them (no double counting).
        let mut stream = sample(4096, 0);
        stream.extend(emitted);
        assert_eq!(ErrorBudget::from_events(&stream), b);
    }

    #[test]
    fn blame_ranks_the_phase_whose_bound_moved() {
        // Same trace except the update GEMM deepens (k 512 -> 4096) and
        // starts overflowing: update must own the blame.
        let base = ErrorBudget::from_events(&sample(512, 0));
        let cur = ErrorBudget::from_events(&sample(4096, 9));
        let rows = ErrorBudget::blame(&base, &cur);
        assert_eq!(rows[0].phase, "update");
        assert_eq!(rows[0].score, 1.0);
        assert_eq!(rows[0].d_overflow, 9);
        assert!(rows[0].d_det_bound > 0.0);
        assert_eq!(rows.len(), 1, "panel did not move");
        let txt = ErrorBudget::render_blame(&base, &cur);
        assert!(txt.contains("update"));
        // Identical budgets blame nothing.
        assert!(ErrorBudget::blame(&base, &base).is_empty());
    }

    #[test]
    fn budget_is_invariant_to_op_interleaving() {
        let events = sample(4096, 1);
        let mut reordered = events.clone();
        reordered.swap(0, 2); // gemm(update) and round_half swap arrival order
        assert_eq!(
            ErrorBudget::from_events(&events).digest(),
            ErrorBudget::from_events(&reordered).digest()
        );
    }

    #[test]
    fn json_is_stable() {
        let b = ErrorBudget::from_events(&sample(4096, 1));
        assert_eq!(b.to_json(), b.to_json());
        assert!(b.to_json().starts_with("{\"schema\":\"tcqr.errorbudget.v1\""));
        assert!(ErrorBudget::default().is_empty());
        assert!(ErrorBudget::default()
            .render_text()
            .contains("no phased ops"));
    }
}
