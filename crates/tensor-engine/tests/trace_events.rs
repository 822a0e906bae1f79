//! Engine tracing: every routed op emits exactly one event whose fields
//! reproduce the ledger and counters, including under concurrent emission
//! from several threads, and the sink survives `reset` semantics.

use densemat::{Mat, Op};
use std::sync::Arc;
use tcqr_trace::{EventKind, MemSink, Tracer};
use tensor_engine::{CachedOperand, Class, EngineConfig, GpuSim, Phase};

fn traced_engine(cfg: EngineConfig) -> (GpuSim, Arc<MemSink>) {
    let sink = Arc::new(MemSink::new());
    let eng = GpuSim::with_tracer(cfg, Tracer::new(sink.clone()));
    (eng, sink)
}

fn small(m: usize, n: usize, scale: f32) -> Mat<f32> {
    Mat::from_fn(m, n, |i, j| {
        scale * (1.0 + ((i * 31 + j * 17) % 97) as f32 / 97.0)
    })
}

/// Sum of `secs` fields per phase and of `flops`/call/rounding fields over
/// op events, for comparison with the engine's own accounting.
fn aggregate(events: &[tcqr_trace::Event]) -> (f64, f64, u64, u64, u64) {
    let mut secs = 0.0;
    let mut flops = 0.0;
    let mut gemm_calls = 0;
    let mut panel_calls = 0;
    let mut overflow = 0;
    for ev in events.iter().filter(|e| e.kind == EventKind::Op) {
        secs += ev.f64_field("secs").unwrap();
        flops += ev.f64_field("flops").unwrap();
        match ev.name.as_str() {
            "gemm" => gemm_calls += 1,
            "sgeqrf" | "dgeqrf" | "caqr_panel" => panel_calls += 1,
            _ => {}
        }
        overflow += ev.u64_field("overflow").unwrap_or(0);
    }
    (secs, flops, gemm_calls, panel_calls, overflow)
}

#[test]
fn every_charge_method_emits_one_event_matching_the_ledger() {
    let (eng, sink) = traced_engine(EngineConfig::default());

    let a = small(16, 8, 1.0);
    let b = small(8, 8, 1.0);
    let mut c = Mat::zeros(16, 8);
    eng.gemm_f32(
        Phase::Update,
        1.0,
        Op::NoTrans,
        a.as_ref(),
        Op::NoTrans,
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    eng.charge_gemm(Phase::Update, Class::TensorCore, 1024, 256, 256, 0);
    eng.charge_sgeqrf(Phase::Panel, 2048, 128);
    eng.charge_dgeqrf(Phase::Panel, 2048, 128);
    eng.charge_caqr_panel(2048, 128);
    eng.charge_orgqr(Phase::Solve, Class::Fp32, 2048, 128);
    eng.charge_ormqr(Phase::Solve, Class::Fp64, 2048, 128, 4);
    eng.charge_gemv(Phase::Refine, Class::Fp32, 512, 512);
    eng.charge_trsv(Phase::Solve, Class::Fp32, 512);
    eng.charge_trsm(Phase::Solve, Class::Fp32, 512, 16);
    eng.charge_vec(Phase::Refine, Class::Fp32, 4096);
    eng.charge_secs(Phase::Other, 0.25);

    let events = sink.snapshot();
    let ops: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Op)
        .collect();
    assert_eq!(ops.len(), 12, "one op event per routed operation");
    for ev in &ops {
        assert!(ev.str_field("phase").is_some(), "{} lacks phase", ev.name);
        assert!(ev.f64_field("secs").is_some(), "{} lacks secs", ev.name);
        assert!(ev.bool_field("charged").is_some());
    }

    let (secs, flops, gemm_calls, panel_calls, _) = aggregate(&events);
    let counters = eng.counters();
    assert!(
        (secs - eng.ledger().total()).abs() <= 1e-9 * secs.abs().max(1.0),
        "event secs {secs} != ledger {}",
        eng.ledger().total()
    );
    assert!(
        (flops - counters.total_flops()).abs() <= 1e-6 * flops.max(1.0),
        "event flops {flops} != counters {}",
        counters.total_flops()
    );
    assert_eq!(gemm_calls, counters.gemm_calls);
    assert_eq!(panel_calls, counters.panel_calls);

    // Per-phase: sum secs by the event's phase label and compare slots.
    let ledger = eng.ledger();
    for phase in Phase::ALL {
        let s: f64 = ops
            .iter()
            .filter(|e| e.str_field("phase") == Some(phase.as_str()))
            .map(|e| e.f64_field("secs").unwrap())
            .sum();
        assert!(
            (s - ledger.get(phase)).abs() <= 1e-9 * s.abs().max(1.0),
            "phase {phase:?}: events {s} ledger {}",
            ledger.get(phase)
        );
    }
}

#[test]
fn uncharged_gemm_emits_event_without_time_or_flops() {
    let (eng, sink) = traced_engine(EngineConfig::default());
    let a = small(8, 4, 1.0);
    let b = small(4, 4, 1.0);
    let mut c = Mat::zeros(8, 4);
    eng.gemm_f32_cached(
        Phase::Panel,
        false,
        1.0,
        Op::NoTrans,
        CachedOperand::fresh(a.as_ref()),
        Op::NoTrans,
        CachedOperand::fresh(b.as_ref()),
        0.0,
        c.as_mut(),
    );
    let events = sink.snapshot();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "gemm");
    assert_eq!(events[0].bool_field("charged"), Some(false));
    assert_eq!(events[0].f64_field("secs"), Some(0.0));
    assert_eq!(events[0].f64_field("flops"), Some(0.0));
    assert_eq!(eng.clock(), 0.0);
    assert_eq!(eng.counters().gemm_calls, 1);
}

#[test]
fn parallel_gemms_lose_no_events() {
    let (eng, sink) = traced_engine(EngineConfig::default());
    let (n_threads, per_thread) = (2, 32);
    let n_tasks = n_threads * per_thread;
    let done: u32 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        let a = small(12, 6, 1.0);
                        let b = small(6, 6, 1.0);
                        let mut c = Mat::zeros(12, 6);
                        eng.gemm_f32(
                            Phase::Update,
                            1.0,
                            Op::NoTrans,
                            a.as_ref(),
                            Op::NoTrans,
                            b.as_ref(),
                            0.0,
                            c.as_mut(),
                        );
                    }
                    per_thread as u32
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(done, n_tasks as u32);

    let events = sink.snapshot();
    let ops: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Op)
        .collect();
    assert_eq!(ops.len(), n_tasks, "no lost events under parallel emission");

    // No torn events: every record is fully formed.
    for ev in &ops {
        assert_eq!(ev.name, "gemm");
        assert_eq!(ev.u64_field("m"), Some(12));
        assert_eq!(ev.u64_field("n"), Some(6));
        assert_eq!(ev.u64_field("k"), Some(6));
        assert!(ev.f64_field("secs").unwrap() > 0.0);
    }
    // Sequence numbers are unique (the stream interleaves but never tears).
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), events.len());

    let (secs, flops, gemm_calls, _, _) = aggregate(&events);
    assert_eq!(gemm_calls, eng.counters().gemm_calls);
    assert!((secs - eng.ledger().total()).abs() <= 1e-9 * secs.max(1.0));
    assert!((flops - eng.counters().total_flops()).abs() <= 1e-6 * flops.max(1.0));
}

#[test]
fn first_fp16_overflow_warns_once_and_reset_rearms() {
    let (eng, sink) = traced_engine(EngineConfig::default());
    let a = small(4, 4, 70000.0); // beyond fp16 max
    let b = small(4, 4, 1.0);
    for _ in 0..3 {
        let mut c = Mat::zeros(4, 4);
        eng.gemm_f32(
            Phase::Update,
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
    }
    let warns: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == EventKind::Warn)
        .collect();
    assert_eq!(warns.len(), 1, "overflow warns once per engine, not per op");
    assert_eq!(warns[0].name, "engine.fp16_overflow");
    assert!(warns[0].u64_field("overflow").unwrap() > 0);

    // The op events still carry per-op rounding stats.
    let overflow_sum: u64 = sink
        .snapshot()
        .iter()
        .filter_map(|e| e.u64_field("overflow"))
        .sum();
    assert_eq!(
        overflow_sum - warns[0].u64_field("overflow").unwrap(),
        eng.counters().round.overflow
    );

    // reset clears the sink and re-arms the warning.
    eng.reset();
    assert!(sink.is_empty(), "reset must clear attached sink state");
    let mut c = Mat::zeros(4, 4);
    eng.gemm_f32(
        Phase::Update,
        1.0,
        Op::NoTrans,
        a.as_ref(),
        Op::NoTrans,
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    let warns_after = sink
        .snapshot()
        .iter()
        .filter(|e| e.kind == EventKind::Warn)
        .count();
    assert_eq!(warns_after, 1, "warning latch re-arms after reset");
}

#[test]
fn engines_with_separate_tracers_are_isolated() {
    let (eng_a, sink_a) = traced_engine(EngineConfig::default());
    let (eng_b, sink_b) = traced_engine(EngineConfig::no_tensorcore());
    eng_a.charge_sgeqrf(Phase::Panel, 256, 32);
    eng_b.charge_dgeqrf(Phase::Panel, 256, 32);
    assert_eq!(sink_a.len(), 1);
    assert_eq!(sink_b.len(), 1);
    assert_eq!(sink_a.snapshot()[0].name, "sgeqrf");
    assert_eq!(sink_b.snapshot()[0].name, "dgeqrf");
}
