//! Service-level integration tests: the deterministic batch scheduler as a
//! bit-exact oracle for the live service (including mid-stream fault
//! arming), drain under load, drain after a panicking job, and admission
//! control under an overload burst.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use densemat::gen::{rng, uniform_pm1};
use tcqr_batch::{
    jobgen::{self, JobMixConfig},
    result_fingerprint, BatchScheduler, EngineHealth, EnginePool, Job,
};
use tcqr_core::{RecoveryPolicy, RgsqrfConfig, SolveOutput, Solver, TcqrError};
use tcqr_obs::{evaluate, FleetTimeline, SloSpec};
use tcqr_serve::{interleave_execution_order, Handle, Priority, ServeConfig, ServeError, Ticket};
use tcqr_trace::{MemSink, Tracer};
use tensor_engine::{EngineConfig, FaultPlan, GpuSim};

/// Submit a burst of pre-generated jobs with alternating priorities and
/// wait for every result, recording each ticket's result fingerprint.
fn run_burst(
    handle: &Handle,
    jobs: impl IntoIterator<Item = tcqr_batch::BatchJob>,
    fps: &mut Vec<(usize, u64)>,
) {
    let tickets: Vec<Ticket> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let pri = if i % 2 == 0 { Priority::High } else { Priority::Low };
            handle.submit_batch_job(job, pri).expect("no admission gate")
        })
        .collect();
    for t in tickets {
        let id = t.id();
        let res = t.wait().expect("worker alive");
        fps.push((id, result_fingerprint(&res)));
    }
}

/// Chaos streaming vs the deterministic oracle: two bursts with a fault
/// plan armed in between, mixed priorities racing the workers. The
/// realized per-engine order is interleaved back into a submission order
/// for `BatchScheduler::run`, which must reproduce every result — and the
/// final engine state — bit for bit.
#[test]
fn chaos_stream_matches_the_batch_oracle_bit_for_bit() {
    const K: usize = 3;
    const BURST: usize = 9; // divisible by K so each burst splits 3/3/3
    let mix = JobMixConfig {
        seed: 77,
        jobs: 2 * BURST,
        m: 96,
        n: 24,
    };
    let plan = FaultPlan::all(4242);

    // Live service: burst, settle, arm faults, burst again.
    let handle = Handle::start(ServeConfig {
        engines: K,
        ..ServeConfig::default()
    });
    let mut jobs = jobgen::job_mix(&mix);
    let second: Vec<_> = jobs.split_off(BURST);
    let mut serve_fps: Vec<(usize, u64)> = Vec::new();
    run_burst(&handle, jobs, &mut serve_fps);
    // Every burst-1 ticket has delivered, so the workers are idle and the
    // arming point is a deterministic job boundary on every engine.
    handle.pool().arm(&plan);
    run_burst(&handle, second, &mut serve_fps);
    let out = handle.drain();
    assert_eq!(out.counters.admitted, 2 * BURST as u64);
    assert_eq!(out.counters.completed, 2 * BURST as u64);
    serve_fps.sort_by_key(|&(id, _)| id);

    // Split the realized order at the burst boundary (tickets 0..BURST
    // settled before any of BURST.. was submitted).
    let split = |pred: &dyn Fn(usize) -> bool| -> Vec<Vec<usize>> {
        out.execution_order
            .iter()
            .map(|lane| lane.iter().copied().filter(|&t| pred(t)).collect())
            .collect()
    };
    let order1 = interleave_execution_order(&split(&|t| t < BURST)).expect("burst splits evenly");
    let order2 = interleave_execution_order(&split(&|t| t >= BURST)).expect("burst splits evenly");

    // Oracle: one persistent scheduler + pool, same arming point, jobs
    // permuted so static lane e replays engine e's realized sequence.
    let all_jobs = jobgen::job_mix(&mix);
    let mut slots: Vec<Option<tcqr_batch::BatchJob>> = all_jobs.into_iter().map(Some).collect();
    let permute = |order: &[usize], slots: &mut Vec<Option<tcqr_batch::BatchJob>>| {
        order
            .iter()
            .map(|&t| slots[t].take().expect("each ticket ran exactly once"))
            .collect::<Vec<_>>()
    };
    let jobs1 = permute(&order1, &mut slots);
    let jobs2 = permute(&order2, &mut slots);

    let oracle_pool = EnginePool::new(K, EngineConfig::default());
    let sched = BatchScheduler::with_threads(2);
    let out1 = sched.run(&oracle_pool, &jobs1);
    oracle_pool.arm(&plan);
    let out2 = sched.run(&oracle_pool, &jobs2);

    let mut oracle_fps: Vec<(usize, u64)> = order1
        .iter()
        .zip(&out1.results)
        .chain(order2.iter().zip(&out2.results))
        .map(|(&t, r)| (t, result_fingerprint(r)))
        .collect();
    oracle_fps.sort_by_key(|&(id, _)| id);

    assert_eq!(serve_fps, oracle_fps, "per-ticket results must be bit-identical");
    assert_eq!(
        out.pool.fingerprint(),
        oracle_pool.fingerprint(),
        "engine state (clocks, ledgers, fault stats) must be bit-identical"
    );
    // The chaos plan actually did something, or this test proves nothing.
    let injected: u64 = out.report.engines.iter().map(|e| e.fault.injected).sum();
    assert!(injected > 0, "fault plan never fired");
}

/// Drain under load: submit a pile of work and drain immediately. No job
/// may be lost, none may run twice, and every ticket still delivers.
#[test]
fn drain_under_load_loses_nothing_and_runs_nothing_twice() {
    const N: usize = 12;
    let handle = Handle::start(ServeConfig {
        engines: 2,
        ..ServeConfig::default()
    });
    let tickets: Vec<Ticket> = (0..N)
        .map(|i| {
            let job = Job::rgsqrf(
                uniform_pm1(48, 12, &mut rng(500 + i as u64)).convert(),
                RgsqrfConfig {
                    cutoff: 16,
                    ..RgsqrfConfig::default()
                },
            );
            handle.submit(job, Priority::Low).expect("intake open")
        })
        .collect();
    // Drain races the queued work: intake closes, but everything already
    // admitted must still run exactly once.
    let out = handle.drain();
    assert_eq!(out.counters.admitted, N as u64);
    assert_eq!(out.counters.completed, N as u64);
    assert_eq!(out.report.jobs.len(), N);

    // Results survive the drain, one per ticket.
    for t in tickets {
        let id = t.id();
        let res = t.wait().expect("result buffered through drain");
        assert!(res.is_ok(), "job {id} failed");
    }

    // The realized order is a permutation of the admitted tickets: nothing
    // lost, nothing duplicated.
    let mut ran: Vec<usize> = out.execution_order.iter().flatten().copied().collect();
    ran.sort_unstable();
    assert_eq!(ran, (0..N).collect::<Vec<_>>());
    // Report jobs are engine-major in execution order; with one priority
    // lane per engine that is ticket order within each engine, and the
    // per-engine segments tile the clock without gaps or overlaps.
    for (i, job) in out.report.jobs.iter().enumerate() {
        let (engine, slot) = (i / (N / 2), i % (N / 2));
        assert_eq!(job.engine, engine, "engine-major report order");
        assert_eq!(job.index, 2 * slot + engine, "round-robin pinning");
        if slot > 0 {
            let prev = &out.report.jobs[i - 1];
            let gap = job.start_secs - (prev.start_secs + prev.exec_secs);
            assert!(
                gap.abs() <= 1e-12 * job.start_secs.abs().max(1.0),
                "segments are back-to-back on the engine clock (gap {gap:e})"
            );
        }
    }
}

/// An overload burst is shed with typed `Overloaded` errors instead of
/// degrading admitted jobs' queue waits past the SLO spec.
#[test]
fn overload_burst_is_rejected_not_degraded() {
    const SPEC: &str = r#"
[objective.queue-wait]
kind = "queue_wait"
threshold_secs = 1.0
target = 0.9
window_secs = 1.0
max_burn_rate = 1.0
"#;
    let spec = SloSpec::parse(SPEC).expect("well-formed spec");
    let handle = Handle::start(ServeConfig {
        engines: 2,
        slo: Some(spec.clone()),
        ..ServeConfig::default()
    });

    let mut accepted: Vec<Ticket> = Vec::new();
    let mut rejected = 0u64;
    for i in 0..32u64 {
        let job = Job::rgsqrf(
            uniform_pm1(128, 32, &mut rng(9000 + i)).convert(),
            RgsqrfConfig {
                cutoff: 32,
                caqr_width: 8,
                ..RgsqrfConfig::default()
            },
        );
        match handle.submit(job, Priority::Low) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { burn, limit }) => {
                assert!(burn > limit, "rejection must cite burn {burn} > limit {limit}");
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // The first K submissions always land on idle engines; the burst
    // behind them trips the burn-rate gate.
    assert!(accepted.len() >= 2, "idle engines must admit");
    assert!(rejected > 0, "a 32-job burst on 2 engines must shed load");

    for t in accepted {
        t.wait().expect("worker alive").expect("admitted jobs are well-posed");
    }
    let out = handle.drain();
    assert_eq!(out.counters.rejected, rejected);
    assert!(out.admission_enabled);
    // Admission kept the live window healthy: the worst burn rate the
    // window ever saw stays within the spec.
    assert!(
        out.worst_burn <= out.burn_limit,
        "worst burn {} exceeded limit {}",
        out.worst_burn,
        out.burn_limit
    );
    // And the post-hoc SLO evaluation over the emitted trace agrees: no
    // breach the admission controller should have prevented.
    let sink = Arc::new(MemSink::new());
    out.emit(&Tracer::new(sink.clone()));
    let events = sink.snapshot();
    let timeline = FleetTimeline::from_events(&events);
    let report = evaluate(&spec, &timeline, &events);
    for o in &report.outcomes {
        assert!(o.healthy, "objective {} breached despite admission control", o.name);
    }
    // Queue-wait percentiles of admitted jobs stay under the threshold.
    assert!(out.report.queue_wait_percentile_secs(0.99) <= 1.0);
}

/// A job that blocks until its gate opens, touching no engine state.
#[derive(Debug)]
struct Plug(Arc<(Mutex<bool>, Condvar)>);

impl Solver for Plug {
    fn kind(&self) -> &'static str {
        "plug"
    }
    fn shape(&self) -> (usize, usize) {
        (0, 0)
    }
    fn solve(&self, _eng: &GpuSim, _policy: &RecoveryPolicy) -> Result<SolveOutput, TcqrError> {
        let (m, cv) = &*self.0;
        let mut open = m.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        Ok(SolveOutput::Solution(Vec::new()))
    }
}

/// A job whose solver panics: a bug, not a modeled engine loss.
#[derive(Debug)]
struct Panics;

impl Solver for Panics {
    fn kind(&self) -> &'static str {
        "panics"
    }
    fn shape(&self) -> (usize, usize) {
        (0, 0)
    }
    fn solve(&self, _eng: &GpuSim, _policy: &RecoveryPolicy) -> Result<SolveOutput, TcqrError> {
        panic!("solver bug");
    }
}

/// A job that panics resolves its ticket `Disconnected` without a retry,
/// its engine leaves rotation, its backlog fails over to the survivor,
/// and drain returns. Run on a helper thread with a timeout, so a drain
/// that hangs fails the test instead of hanging the suite.
#[test]
fn a_panicking_job_resolves_typed_and_drain_returns() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let service = std::thread::spawn(move || {
        let handle = Handle::start(ServeConfig {
            engines: 2,
            ..ServeConfig::default()
        });
        // Plugs hold both workers while the queues fill, so ticket 4 is
        // queued behind the panicking ticket 2 on engine 0.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let submit = |job: Job| handle.submit(job, Priority::High).expect("admitted");
        let plug = || Job::custom(Plug(gate.clone()));
        let plugs = [submit(plug()), submit(plug())];
        let qr = |seed| Job::rgsqrf(uniform_pm1(32, 8, &mut rng(seed)).convert(), RgsqrfConfig::default());
        let (bad, t3, t4) = (submit(Job::custom(Panics)), submit(qr(3)), submit(qr(4)));
        assert_eq!((bad.engine(), t3.engine(), t4.engine()), (0, 1, 0));
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let out = handle.drain();
        let results: Vec<_> = plugs.into_iter().chain([bad, t3, t4]).map(Ticket::wait).collect();
        done_tx.send((results, out)).unwrap();
    });
    let (results, out) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the service hung (or panicked) after a job panicked");
    service.join().expect("the service thread finished cleanly");
    assert!(
        matches!(results[2], Err(ServeError::Disconnected { engine: 0, job: 2 })),
        "{:?}",
        results[2]
    );
    for (i, r) in results.iter().enumerate().filter(|&(i, _)| i != 2) {
        assert!(matches!(r, Ok(Ok(_))), "ticket {i}: {r:?}");
    }
    let c = out.counters;
    assert_eq!((c.admitted, c.completed, c.lost, c.deaths), (5, 4, 1, 1));
    // The panicking job was not retried; the queued one failed over.
    assert_eq!((c.failovers, c.retries), (1, 0));
    assert_eq!(out.pool.health(0), EngineHealth::Dead);
    assert_eq!(out.execution_order, vec![vec![0], vec![1, 3, 4]]);
}
