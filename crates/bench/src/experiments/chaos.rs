//! `chaos`: the chaos-tolerance campaign — kill engines mid-stream at both
//! layers of the stack and prove nothing is lost, duplicated, or silently
//! wrong.
//!
//! Five studies, one table:
//!
//! 1. **Batch failover** — arm deterministic crash plans on K of N pool
//!    engines and run the seeded job mix through [`BatchScheduler`]. Every
//!    job stranded by a death is re-dispatched in a later wave; all results
//!    must be bit-identical to a healthy-pool oracle run, and a second
//!    chaos pass at a different worker count must reproduce the first
//!    bit-for-bit.
//! 2. **Serve failover** — the flagship: a live `tcqr-serve` service over
//!    N engines loses K of them mid-stream (deaths serialized through
//!    plug jobs and the [`tcqr_serve::TicketLedger`] snapshot so the run is
//!    deterministic). Every admitted ticket must resolve exactly once —
//!    zero lost, zero duplicated — and every completed output must match
//!    the same healthy-pool batch oracle per ticket.
//! 3. **Deadline watchdog** — a deadline of zero simulated seconds lets
//!    exactly the jobs that wait run; the one that queues behind real work
//!    must be cancelled with a typed `DeadlineExceeded`, never silently
//!    dropped.
//! 4. **Circuit breaker** — consecutive typed failures trip the breaker;
//!    the engine is quarantined, reset in place, proves state-fingerprint
//!    equality with a fresh engine, and re-enters rotation; the next job's
//!    output must be bit-identical to a fresh-pool run of the same job.
//! 5. **Graceful degradation** — a degraded fleet sheds low-priority
//!    intake with typed `Degraded` while high-priority work keeps landing
//!    on survivors.
//!
//! Only the serve-failover phase narrates through the global sink (its
//! fleet report, `engine.mark` lifecycle marks, and `serve.summary`); the
//! other studies keep their narration local so one `repro chaos` trace
//! holds one monotone fleet story. A final deterministic `chaos.summary`
//! op carries the campaign tallies into [`crate::report::RunReport`] and
//! the baseline gate.

use std::sync::{Arc, Condvar, Mutex};

use super::Scale;
use crate::table::{ms, Table};
use densemat::gen::{rng, uniform_pm1};
use tcqr_batch::fingerprint::Fingerprint;
use tcqr_batch::job::result_fingerprint;
use tcqr_batch::jobgen::{self, JobMixConfig};
use tcqr_batch::{BatchScheduler, EngineHealth, EnginePool, Job};
use tcqr_core::{RecoveryPolicy, RgsqrfConfig, SolveOutput, Solver, TcqrError};
use tcqr_serve::{Handle, Priority, ResilienceConfig, ServeConfig, ServeError, Ticket};
use tcqr_trace::schema::ChaosSummary;
use tcqr_trace::Tracer;
use tensor_engine::{EngineConfig, EngineFaultPlan, GpuSim};

/// Workload knobs for the `chaos` campaign.
#[derive(Clone, Copy, Debug)]
pub struct ChaosParams {
    /// Jobs in the streamed mix (shared by the batch and serve studies).
    pub jobs: usize,
    /// Engines in the pool / behind the service.
    pub engines: usize,
    /// Engines killed mid-stream (must be < `engines`).
    pub kills: usize,
    /// Worker threads for the measured batch pass; `None` uses 8 (the CI
    /// smoke compares `--threads 1` against `--threads 8`).
    pub threads: Option<usize>,
    /// Mix seed: same seed, same queue, bit-for-bit.
    pub seed: u64,
    /// Row bound for generated problems (the mix draws from `[m/2, m]`).
    pub m: usize,
    /// Column bound for generated problems (the mix draws from `[n/2, n]`).
    pub n: usize,
}

impl ChaosParams {
    /// Scale presets: K=2 of N=6 engines die at either scale; `Full` just
    /// streams a longer mix of bigger problems.
    pub fn for_scale(scale: Scale) -> ChaosParams {
        let (jobs, m, n) = match scale {
            Scale::Quick => (18, 96, 24),
            Scale::Full => (48, 256, 48),
        };
        ChaosParams {
            jobs,
            engines: 6,
            kills: 2,
            threads: None,
            seed: 2027,
            m,
            n,
        }
    }
}

/// The `chaos` campaign at a scale preset (what `repro all` runs).
pub fn chaos(scale: Scale) -> Table {
    chaos_with(&ChaosParams::for_scale(scale))
}

/// A job that blocks on a gate and touches no engine state: holds a worker
/// busy without advancing clocks or op counters, so the campaign can pin
/// queue contents (and therefore lane assignment) before releasing the
/// fleet into its injected failures.
#[derive(Debug)]
struct Plug {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Solver for Plug {
    fn kind(&self) -> &'static str {
        "plug"
    }
    fn shape(&self) -> (usize, usize) {
        (0, 0)
    }
    fn solve(&self, _eng: &GpuSim, _policy: &RecoveryPolicy) -> Result<SolveOutput, TcqrError> {
        let (m, cv) = &*self.gate;
        let mut open = m.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        Ok(SolveOutput::Solution(Vec::new()))
    }
}

fn plug() -> (Job, Arc<(Mutex<bool>, Condvar)>) {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    (
        Job::custom(Plug {
            gate: Arc::clone(&gate),
        }),
        gate,
    )
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (m, cv) = &**gate;
    *m.lock().unwrap() = true;
    cv.notify_all();
}

/// Block until engine `e`'s death has been fully processed: health flipped
/// to `Dead` *and* its depth drained to zero, i.e. the failover has
/// re-homed (or typed away) every stranded item. Releasing the next
/// injected failure only after this point keeps the survivor sets — and
/// therefore the realized execution orders — deterministic.
fn wait_for_failover(handle: &Handle, e: usize) {
    while handle.pool().health(e) != EngineHealth::Dead || handle.stats().depth()[e] != 0 {
        std::thread::yield_now();
    }
}

/// The `chaos` campaign with explicit knobs.
///
/// # Panics
///
/// Panics if any admitted ticket is lost or duplicated, if any completed
/// output differs from the healthy-pool batch oracle, if the two batch
/// chaos passes disagree, or if a quarantined engine's post-rehabilitation
/// output differs from a fresh engine's — each is a robustness-layer bug,
/// and this campaign is the gate meant to catch it.
pub fn chaos_with(p: &ChaosParams) -> Table {
    assert!(p.kills < p.engines, "the campaign needs at least one survivor");
    let mix = JobMixConfig {
        seed: p.seed,
        jobs: p.jobs,
        m: p.m,
        n: p.n,
    };
    let queue = jobgen::job_mix(&mix);

    // The shared healthy-pool oracle: one worker, no faults. Both failover
    // studies compare their per-job outputs against this run — outputs are
    // pure functions of the job, so the oracle is layout-independent.
    let oracle_pool = EnginePool::new(p.engines, EngineConfig::default());
    let oracle = BatchScheduler::with_threads(1).run(&oracle_pool, &queue);
    assert_eq!(oracle.waves, 1, "healthy oracle must not fail over");
    assert_eq!(oracle.failovers, 0);
    let oracle_fps: Vec<u64> = oracle.results.iter().map(result_fingerprint).collect();

    // Study 1: batch failover. Crash plans on `kills` engines, a few ops
    // in, so each dies mid-job and strands its backlog.
    let run_batch_chaos = |threads: usize| {
        let pool = EnginePool::new(p.engines, EngineConfig::default());
        for k in 0..p.kills {
            pool.set_avail_plan(
                2 * k + 1,
                Some(EngineFaultPlan::crash_at(3 + k as u64)),
            );
        }
        let out = BatchScheduler::with_threads(threads).run(&pool, &queue);
        (pool, out)
    };
    let (ref_pool, ref_out) = run_batch_chaos(1);
    let (batch_pool, batch_out) = run_batch_chaos(p.threads.unwrap_or(8));
    for k in 0..p.kills {
        assert_eq!(
            batch_pool.health(2 * k + 1),
            EngineHealth::Dead,
            "engine {} should have crashed",
            2 * k + 1
        );
    }
    assert!(batch_out.waves >= 2, "deaths must force extra waves");
    assert!(batch_out.failovers >= p.kills as u64);
    for (i, r) in batch_out.results.iter().enumerate() {
        assert_eq!(
            result_fingerprint(r),
            oracle_fps[i],
            "chaos batch determinism violated: job {i} differs from the \
             healthy-pool oracle after failover"
        );
    }
    assert_eq!(
        (ref_out.waves, ref_out.failovers, ref_pool.fingerprint()),
        (batch_out.waves, batch_out.failovers, batch_pool.fingerprint()),
        "chaos batch determinism violated: 1-worker and parallel passes diverge"
    );
    let batch_digest = {
        let mut fp = Fingerprint::new();
        for r in &batch_out.results {
            fp.push_u64(result_fingerprint(r));
        }
        fp.push_u64(batch_pool.fingerprint());
        fp.finish()
    };

    // Study 2: serve failover — kill `kills` engines under a live service.
    // Plugs pin one worker per engine so every submission is admitted
    // while all engines are alive (deterministic round-robin pinning);
    // deaths are then released one at a time.
    let handle = Handle::start(ServeConfig {
        engines: p.engines,
        resilience: ResilienceConfig {
            // A job can be under the crash twice (its survivor may be the
            // next victim); two retries keep the campaign loss-free.
            max_retries: 2,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    for k in 0..p.kills {
        handle
            .pool()
            .set_avail_plan(k, Some(EngineFaultPlan::crash_at(0)));
    }
    let mut gates = Vec::with_capacity(p.engines);
    let mut plug_tickets = Vec::with_capacity(p.engines);
    for _ in 0..p.engines {
        let (job, gate) = plug();
        plug_tickets.push(
            handle
                .submit(job, Priority::High)
                .expect("no admission gate"),
        );
        gates.push(gate);
    }
    let real_tickets: Vec<Ticket> = jobgen::job_mix(&mix)
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let pri = if i % 2 == 0 { Priority::High } else { Priority::Low };
            handle.submit_batch_job(job, pri).expect("no admission gate")
        })
        .collect();
    // Release the doomed engines one at a time; each crashes on its first
    // real job (plugs commit nothing) and its failover completes before
    // the next death is released.
    for (k, gate) in gates.iter().enumerate().take(p.kills) {
        open_gate(gate);
        wait_for_failover(&handle, k);
    }
    for gate in &gates[p.kills..] {
        open_gate(gate);
    }
    for t in plug_tickets {
        assert!(t.wait().expect("plug resolves").is_ok());
    }
    let mut serve_fps: Vec<(usize, u64)> = real_tickets
        .into_iter()
        .map(|t| {
            let id = t.id();
            let res = t.wait().expect("every admitted ticket resolves");
            (id, result_fingerprint(&res))
        })
        .collect();
    serve_fps.sort_by_key(|&(id, _)| id);
    let out = handle.drain();

    // Zero lost, zero duplicated: the realized execution orders must be a
    // permutation of every admitted ticket.
    let mut ran: Vec<usize> = out.execution_order.iter().flatten().copied().collect();
    ran.sort_unstable();
    assert_eq!(
        ran,
        (0..out.counters.admitted as usize).collect::<Vec<_>>(),
        "tickets lost or duplicated across the failovers"
    );
    assert_eq!(out.counters.deaths, p.kills as u64);
    assert_eq!(out.counters.lost, 0, "every stranded job must be re-homed, not lost");
    assert_eq!(out.counters.deadline_missed, 0);
    assert_eq!(out.counters.completed, out.counters.admitted);
    assert_eq!(out.counters.failed, 0);
    assert!(out.counters.failovers >= p.kills as u64);
    for k in 0..p.kills {
        assert_eq!(out.pool.health(k), EngineHealth::Dead);
    }
    for e in p.kills..p.engines {
        assert_eq!(out.pool.health(e), EngineHealth::Healthy);
    }
    // Bit-identity: ticket `engines + i` carries mix job i; its output
    // must match the healthy oracle's job i exactly.
    for (i, &fp) in oracle_fps.iter().enumerate() {
        let (id, live) = serve_fps[i];
        assert_eq!(id, p.engines + i);
        assert_eq!(
            live, fp,
            "chaos serve determinism violated: ticket {} (mix job {i}) \
             differs from the healthy-pool oracle",
            p.engines + i
        );
    }
    assert_eq!(
        out.marks.iter().filter(|m| m.kind == "death").count() as u64,
        out.counters.deaths
    );
    assert_eq!(
        out.marks.iter().filter(|m| m.kind == "requeue").count() as u64,
        out.counters.failovers
    );
    let serve_digest = {
        let mut fp = Fingerprint::new();
        for &(_, f) in &serve_fps {
            fp.push_u64(f);
        }
        fp.push_u64(out.pool.fingerprint());
        fp.finish()
    };
    // Only this study narrates globally: fleet segments, lifecycle marks,
    // and the serve.summary rollup feed the timelines, the metrics bridge,
    // and the chaos trace the CI smoke byte-compares.
    out.emit(&Tracer::global());

    // Study 3: deadline watchdog. A plug pins both submissions at clock 0;
    // the first runs (it waited nothing on the simulated clock), the
    // second queues behind real work and must be cancelled typed.
    let svc = Handle::start(ServeConfig {
        engines: 1,
        resilience: ResilienceConfig {
            deadline_secs: Some(0.0),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    let (pjob, gate) = plug();
    let t0 = svc.submit(pjob, Priority::High).expect("admitted");
    let t1 = svc
        .submit_batch_job(jobgen::job_at(&mix, 0), Priority::High)
        .expect("admitted");
    let t2 = svc
        .submit_batch_job(jobgen::job_at(&mix, 1), Priority::High)
        .expect("admitted");
    open_gate(&gate);
    assert!(t0.wait().expect("plug resolves").is_ok());
    assert_eq!(result_fingerprint(&t1.wait().expect("ran")), oracle_fps[0]);
    match t2.wait() {
        Err(ServeError::DeadlineExceeded { deadline_secs }) => {
            assert_eq!(deadline_secs, 0.0)
        }
        other => panic!("expected a typed deadline cancellation, got {other:?}"),
    }
    let deadline_out = svc.drain();
    assert_eq!(deadline_out.counters.deadline_missed, 1);
    assert_eq!(deadline_out.counters.completed, 2);

    // Study 4: circuit breaker + reset-in-place. Two consecutive typed
    // failures (wide problems the QR path rejects) trip the breaker; the
    // engine must rehabilitate through the reset-in-place fingerprint
    // proof and then produce a bit-fresh result.
    let svc = Handle::start(ServeConfig {
        engines: 1,
        resilience: ResilienceConfig {
            quarantine_after: 2,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    let (pjob, gate) = plug();
    let t0 = svc.submit(pjob, Priority::High).expect("admitted");
    let bad = |seed: u64| Job::rgsqrf(uniform_pm1(4, 8, &mut rng(seed)).convert(), RgsqrfConfig::default());
    let b1 = svc.submit(bad(1), Priority::High).expect("admitted");
    let b2 = svc.submit(bad(2), Priority::High).expect("admitted");
    let good = svc
        .submit_batch_job(jobgen::job_at(&mix, 0), Priority::High)
        .expect("admitted");
    open_gate(&gate);
    assert!(t0.wait().expect("plug resolves").is_ok());
    assert!(b1.wait().expect("resolved").is_err());
    assert!(b2.wait().expect("resolved").is_err());
    let good_fp = result_fingerprint(&good.wait().expect("resolved"));
    let breaker_out = svc.drain();
    assert_eq!(breaker_out.counters.quarantines, 1);
    assert_eq!(
        breaker_out.counters.rehabilitated, 1,
        "the reset-in-place proof must pass and re-admit the engine"
    );
    assert_eq!(breaker_out.pool.health(0), EngineHealth::Healthy);
    assert_eq!(
        good_fp, oracle_fps[0],
        "a rehabilitated engine must compute like a fresh one"
    );

    // Study 5: graceful degradation. One of two engines dies; low-priority
    // intake is shed typed while high-priority work keeps landing.
    let svc = Handle::start(ServeConfig {
        engines: 2,
        ..ServeConfig::default()
    });
    svc.pool().set_avail_plan(0, Some(EngineFaultPlan::crash_at(0)));
    let (p0, g0) = plug();
    let (p1, g1) = plug();
    let t0 = svc.submit(p0, Priority::High).expect("admitted");
    let t1 = svc.submit(p1, Priority::High).expect("admitted");
    let t2 = svc
        .submit_batch_job(jobgen::job_at(&mix, 0), Priority::High)
        .expect("admitted");
    open_gate(&g0);
    wait_for_failover(&svc, 0);
    let shed_err = svc
        .submit_batch_job(jobgen::job_at(&mix, 1), Priority::Low)
        .expect_err("degraded fleet sheds low-priority intake");
    assert_eq!(shed_err, ServeError::Degraded { dead: 1, alive: 1 });
    let t3 = svc
        .submit_batch_job(jobgen::job_at(&mix, 2), Priority::High)
        .expect("high priority still lands on the survivor");
    open_gate(&g1);
    assert!(t0.wait().expect("plug resolves").is_ok());
    assert!(t1.wait().expect("plug resolves").is_ok());
    assert_eq!(result_fingerprint(&t2.wait().expect("ran")), oracle_fps[0]);
    assert_eq!(result_fingerprint(&t3.wait().expect("ran")), oracle_fps[2]);
    let shed_out = svc.drain();
    assert_eq!(shed_out.counters.shed, 1);
    assert_eq!(shed_out.counters.deaths, 1);
    assert_eq!(shed_out.counters.lost, 0);

    // The campaign rollup: one deterministic op the run report folds into
    // chaos.* metric keys (all exact-tolerance in the baseline gate).
    ChaosSummary {
        engines: p.engines as u64,
        killed: p.kills as u64,
        batch_waves: batch_out.waves as u64,
        batch_failovers: batch_out.failovers,
        admitted: out.counters.admitted,
        completed: out.counters.completed,
        lost: out.counters.lost + shed_out.counters.lost,
        deaths: out.counters.deaths + shed_out.counters.deaths,
        failovers: out.counters.failovers + shed_out.counters.failovers,
        retries: out.counters.retries + shed_out.counters.retries,
        deadline_missed: deadline_out.counters.deadline_missed,
        shed: shed_out.counters.shed,
        quarantines: breaker_out.counters.quarantines,
        rehabilitated: breaker_out.counters.rehabilitated,
    }
    .emit(&Tracer::global());

    let report = &out.report;
    let mut t = Table::new(
        "chaos",
        "Chaos tolerance: engine kills, failover, watchdogs, and the breaker",
        &[
            "study",
            "engines",
            "killed",
            "admitted",
            "completed",
            "failover/retry",
            "typed",
            "digest",
        ],
    );
    t.note(format!(
        "{} jobs, mix seed {}, shapes up to {}x{}; {} of {} engines killed \
         mid-stream in the failover studies",
        p.jobs, p.seed, p.m, p.n, p.kills, p.engines,
    ));
    t.note(
        "bit-identity: every completed output equals the healthy-pool \
         batch-scheduler oracle (asserted per job/ticket); the batch chaos \
         pass is additionally bit-identical across worker counts",
    );
    t.row(vec![
        "batch-failover".to_string(),
        p.engines.to_string(),
        p.kills.to_string(),
        p.jobs.to_string(),
        p.jobs.to_string(),
        format!("{}/{} waves", batch_out.failovers, batch_out.waves),
        "0".to_string(),
        format!("{batch_digest:016x}"),
    ]);
    t.row(vec![
        "serve-failover".to_string(),
        p.engines.to_string(),
        p.kills.to_string(),
        out.counters.admitted.to_string(),
        out.counters.completed.to_string(),
        format!("{}/{}", out.counters.failovers, out.counters.retries),
        "0".to_string(),
        format!("{serve_digest:016x}"),
    ]);
    t.row(vec![
        "deadline".to_string(),
        "1".to_string(),
        "0".to_string(),
        deadline_out.counters.admitted.to_string(),
        deadline_out.counters.completed.to_string(),
        "0/0".to_string(),
        format!("{} DeadlineExceeded", deadline_out.counters.deadline_missed),
        "-".to_string(),
    ]);
    t.row(vec![
        "breaker".to_string(),
        "1".to_string(),
        "0".to_string(),
        breaker_out.counters.admitted.to_string(),
        breaker_out.counters.completed.to_string(),
        format!(
            "{} quarantined/{} rehabilitated",
            breaker_out.counters.quarantines, breaker_out.counters.rehabilitated
        ),
        format!("{} solver errors", breaker_out.counters.failed),
        "-".to_string(),
    ]);
    t.row(vec![
        "shed".to_string(),
        "2".to_string(),
        "1".to_string(),
        shed_out.counters.admitted.to_string(),
        shed_out.counters.completed.to_string(),
        format!("{}/{}", shed_out.counters.failovers, shed_out.counters.retries),
        format!("{} Degraded (shed)", shed_out.counters.shed),
        "-".to_string(),
    ]);
    t.note(format!(
        "serve-failover stream: {} deaths, {} failovers, {} crash retries, \
         {} lost; makespan {} ms across the survivors",
        out.counters.deaths,
        out.counters.failovers,
        out.counters.retries,
        out.counters.lost,
        ms(report.makespan_secs()),
    ));
    t.note(format!(
        "lifecycle marks (engine-major, simulated clock): {} death, {} \
         requeue, {} quarantine, {} rehabilitated",
        out.marks.iter().filter(|m| m.kind == "death").count(),
        out.marks.iter().filter(|m| m.kind == "requeue").count(),
        breaker_out
            .marks
            .iter()
            .filter(|m| m.kind == "quarantine")
            .count(),
        breaker_out
            .marks
            .iter()
            .filter(|m| m.kind == "rehabilitated")
            .count(),
    ));
    t.note(
        "breaker study: after two consecutive typed failures the engine is \
         quarantined, reset in place, proves state-fingerprint equality \
         with a fresh engine, and the next job's output is bit-identical \
         to a fresh-pool run",
    );
    t
}
