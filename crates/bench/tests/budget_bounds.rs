//! Cross-checks the attribution layer's per-phase error budget against the
//! per-GEMM bounds of `halfsim::bounds`, the ones the `ablation-bounds`
//! experiment measures against the engine.

use halfsim::bounds::{det_tc_bound, prob_tc_bound, U16};
use std::sync::Arc;
use tcqr_obs::{budget, ErrorBudget};
use tcqr_trace::{MemSink, Tracer, Value};

#[test]
fn tc_phase_bounds_match_the_paper_bounds_per_gemm() {
    // Narrate three tc GEMMs of depth k in one phase and check the folded
    // budget equals 3x the core bounds for that depth.
    let k = 384usize;
    let sink = Arc::new(MemSink::new());
    let t = Tracer::new(sink.clone());
    for _ in 0..3 {
        t.op(
            "gemm.tc",
            &[
                ("phase", Value::from("update")),
                ("class", Value::from("tc")),
                ("k", Value::from(k as u64)),
                ("rounded", Value::from(k as u64)),
            ],
        );
    }
    let events = sink.drain();
    let b = ErrorBudget::from_events(&events);
    assert_eq!(b.phases.len(), 1);
    let p = &b.phases[0];
    assert_eq!(p.phase, "update");
    assert_eq!((p.ops, p.gemms, p.rounded), (3, 3, 3 * k as u64));

    let det = det_tc_bound(k, U16);
    let prob = prob_tc_bound(k, U16, budget::LAMBDA);
    assert!((p.det_bound - 3.0 * det).abs() <= 1e-18 + 1e-12 * p.det_bound.abs());
    assert!((p.prob_bound - 3.0 * prob).abs() <= 1e-18 + 1e-12 * p.prob_bound.abs());
}
