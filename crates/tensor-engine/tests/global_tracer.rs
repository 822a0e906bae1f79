//! An engine's tracer is fixed when the engine is built, but a global-facade
//! tracer still follows the process-global sink as it comes and goes.
//!
//! Installing and clearing the global sink is process-wide, so this lives in
//! its own integration-test binary (one `#[test]`), like
//! `crates/trace/tests/global_sink.rs`.

use std::sync::Arc;
use tcqr_trace::{clear_global, install_global, EventKind, MemSink, Tracer};
use tensor_engine::{EngineConfig, GpuSim, Phase};

#[test]
fn engines_follow_the_global_sink_installed_after_they_were_built() {
    // Both engines exist before any sink: the default one routes through the
    // global facade, the other was built with tracing off.
    let eng = GpuSim::default();
    let off = GpuSim::with_tracer(EngineConfig::default(), Tracer::disabled());
    assert!(!eng.tracer().enabled());
    eng.charge_secs(Phase::Update, 1.0);
    off.charge_secs(Phase::Panel, 1.0);

    let first = Arc::new(MemSink::new());
    install_global(first.clone());
    assert!(first.is_empty(), "ops before the install reach no sink");
    assert!(eng.tracer().enabled());
    assert!(!off.tracer().enabled());

    eng.charge_secs(Phase::Update, 2.0);
    eng.charge_secs(Phase::Solve, 3.0);
    off.charge_secs(Phase::Panel, 4.0);
    let evs = first.snapshot();
    let seen: Vec<(&str, &str, f64)> = evs
        .iter()
        .map(|e| {
            assert_eq!(e.kind, EventKind::Op);
            (
                e.name.as_str(),
                e.str_field("phase").unwrap(),
                e.f64_field("secs").unwrap(),
            )
        })
        .collect();
    assert_eq!(
        seen,
        vec![("secs", "update", 2.0), ("secs", "solve", 3.0)],
        "each op of the global-facade engine once, none of the disabled one"
    );

    clear_global();
    assert!(!eng.tracer().enabled());
    eng.charge_secs(Phase::Update, 5.0);
    off.charge_secs(Phase::Panel, 6.0);
    assert_eq!(first.len(), 2, "nothing after clear_global");

    // A later sink sees only what runs after its own install.
    let second = Arc::new(MemSink::new());
    install_global(second.clone());
    eng.charge_secs(Phase::Refine, 7.0);
    off.charge_secs(Phase::Panel, 8.0);
    clear_global();
    let evs = second.snapshot();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].str_field("phase"), Some("refine"));
    assert_eq!(first.len(), 2);

    // The accounting ran whether or not anything was listening.
    assert_eq!(eng.clock(), 1.0 + 2.0 + 3.0 + 5.0 + 7.0);
    assert_eq!(off.clock(), 1.0 + 4.0 + 6.0 + 8.0);
}
