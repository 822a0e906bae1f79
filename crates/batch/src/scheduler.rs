//! Deterministic multi-threaded execution of a heterogeneous job queue.
//!
//! ## How determinism survives threading
//!
//! The scheduler splits the queue into `S` *lanes* up front, one per
//! engine in rotation: queue position `i` belongs to lane `i mod S` and a
//! lane owns its engine exclusively. Each lane executes its jobs
//! sequentially in assignment order; the scheduler's worker threads each
//! take a run of whole lanes, never individual jobs. Since an engine's
//! clock, ledger, fault-injection schedule, and precision state are only
//! ever advanced from its own lane, nothing an engine computes depends on
//! *when* or on *which* thread the host ran its lane — outputs and
//! accounting are bit-identical under 1, 2, or 64 workers. The wave's harvest then walks
//! the lanes in engine order, whatever order they finished in.
//!
//! ## How determinism survives engine loss
//!
//! An availability crash (`tensor_engine::avail`) unwinds the lane at the
//! job boundary: [`execute`] catches the [`EngineCrash`] payload and marks
//! the engine [`EngineHealth::Dead`](crate::EngineHealth), and the lane
//! reports the crashed job plus the rest of its queue as *stranded*. When
//! every lane of the wave has joined, the stranded indices, ascending, are
//! dealt over the surviving rotation by the same placement rule the first
//! deal used ([`crate::ticket::place`], through [`crate::ticket::rehome`]
//! with an unbounded retry budget) and run as the next wave. Every edge is
//! recorded in a [`TicketLedger`], the lifecycle the `tcqr-serve` service
//! drives too. The re-dispatch is a pure permutation of the lane
//! assignment (no job is duplicated, none dropped), crashes fire off
//! deterministic per-engine op counters, and wave boundaries are joins, so
//! the whole failover path is as worker-count-independent as the healthy
//! path. If the rotation empties, every remaining job fails with the typed
//! [`TcqrError::EngineLost`].
//!
//! The solvers inside a job run their kernels in one fixed order on the
//! lane's thread, so a job's floating-point results never depend on the
//! thread count either.

use crate::fleet::{EngineReport, FleetReport, JobReport};
use crate::job::{BatchJob, Job, JobOutput};
use crate::pool::EnginePool;
use crate::ticket::{place, rehome, Claim, TicketLedger};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use tcqr_core::{QrFactors, RgsqrfConfig, TcqrError};
use tensor_engine::EngineCrash;

/// Drains a queue of [`BatchJob`]s across an [`EnginePool`], running the
/// lanes of each wave on up to `threads` scoped OS threads.
#[derive(Clone, Debug)]
pub struct BatchScheduler {
    /// Most worker threads a wave runs on (at least 1).
    threads: usize,
}

impl Default for BatchScheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-job results (submission order) plus the fleet-wide accounting.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per submitted job, in submission order.
    pub results: Vec<Result<JobOutput, TcqrError>>,
    /// Fleet accounting for the batch.
    pub report: FleetReport,
    /// Dispatch waves the batch needed (1 when no engine died).
    pub waves: usize,
    /// Stranded-job re-dispatches performed (0 when no engine died).
    pub failovers: u64,
}

/// A job's result with its accounting.
type Ran = (Result<JobOutput, TcqrError>, JobReport);

/// One lane's mutable state while a wave runs.
struct Lane {
    engine: usize,
    /// Queue indices assigned to this lane, in deal order.
    jobs: Vec<usize>,
    /// Completed jobs, in lane execution order.
    done: Vec<Ran>,
    /// Queue indices the engine stranded by crashing: the job it died
    /// under plus everything still queued behind it.
    stranded: Vec<usize>,
}

/// Run one job on engine `engine` of `pool`: the one job-execution step
/// the batch lanes and the `tcqr-serve` workers share.
///
/// Installs the job's precision override for the job's lifetime (the
/// recovery ladder saves and restores around its own escalations, so the
/// tenant default is back in force on every fresh attempt), and measures
/// the engine's clock and fault-count deltas. Returns the result with its
/// [`JobReport`] (`index` as given; `queue_wait_secs` is 0 for the caller
/// to fill in, since only the caller knows when the job was enqueued).
/// Returns `None` when an [`EngineCrash`] unwound out of the job: the
/// engine is then marked dead, its clock and ledgers still describing only
/// the work it finished. Any other panic payload is resumed. Engine health
/// on a solver error is the caller's call.
pub fn execute(pool: &EnginePool, engine: usize, index: usize, bj: &BatchJob) -> Option<Ran> {
    let eng = pool.engine(engine);
    let before = eng.clock();
    let fault_before = eng.fault_stats();
    let prev = eng.precision_override();
    if bj.precision.is_some() {
        eng.set_precision_override(bj.precision);
    }
    let res = match catch_unwind(AssertUnwindSafe(|| bj.job.run(eng, &bj.policy))) {
        Ok(res) => res,
        Err(payload) if payload.is::<EngineCrash>() => {
            pool.mark_dead(engine);
            return None;
        }
        Err(payload) => resume_unwind(payload),
    };
    if bj.precision.is_some() {
        eng.set_precision_override(prev);
    }
    let after = eng.clock();
    let fault_after = eng.fault_stats();
    let report = JobReport {
        index,
        engine,
        ran: true,
        kind: bj.job.kind(),
        shape: bj.job.shape(),
        ok: res.is_ok(),
        error: res.as_ref().err().map(|e| e.to_string()),
        queue_wait_secs: 0.0,
        start_secs: before,
        exec_secs: after - before,
        fault_injected: fault_after.injected.saturating_sub(fault_before.injected),
        fault_detected: fault_after.detected.saturating_sub(fault_before.detected),
    };
    Some((res, report))
}

impl BatchScheduler {
    /// Scheduler with one worker thread per available CPU
    /// ([`std::thread::available_parallelism`], 1 if unknown).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        BatchScheduler { threads }
    }

    /// Scheduler running each wave on at most `n` threads (`n >= 1`).
    /// Worker count affects wall time only — results are bit-identical
    /// either way.
    pub fn with_threads(n: usize) -> Self {
        assert!(n >= 1, "need at least one worker thread");
        BatchScheduler { threads: n }
    }

    /// Run every lane of a wave to its end: on the calling thread when one
    /// worker suffices, otherwise on scoped threads that each take one
    /// contiguous run of lanes inside the caller's open trace span. A panic
    /// other than an engine crash is resumed here once every worker has
    /// stopped.
    fn drain(&self, lanes: &mut [Lane], pool: &EnginePool, jobs: &[BatchJob]) {
        let workers = self.threads.min(lanes.len());
        if workers <= 1 {
            for lane in lanes {
                run_lane(lane, pool, jobs);
            }
            return;
        }
        // Lanes nest under the caller's open span, as they do inline.
        let span = tcqr_trace::current_span();
        let per_worker = lanes.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .chunks_mut(per_worker)
                .map(|run| {
                    s.spawn(move || {
                        tcqr_trace::in_span(span, || {
                            for lane in run {
                                run_lane(lane, pool, jobs);
                            }
                        })
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    resume_unwind(payload);
                }
            }
        });
    }

    /// Run every job to completion (or a typed failure) and collect
    /// per-job results plus the [`FleetReport`].
    ///
    /// Queue position `i` runs on the `i mod S`-th engine in rotation
    /// (`i % pool.len()` when every engine is healthy); per-job recovery
    /// policies and precision overrides apply to that engine for exactly
    /// the job's lifetime. When an engine crashes mid-wave its stranded
    /// jobs are re-dispatched round-robin over the survivors (see the
    /// module docs); with an empty rotation they fail with
    /// [`TcqrError::EngineLost`]. Engine state (clock, ledger, fault
    /// budget) accumulates across the batch — call [`EnginePool::reset`]
    /// between batches if fresh accounting is wanted.
    pub fn run(&self, pool: &EnginePool, jobs: &[BatchJob]) -> BatchOutcome {
        let k = pool.len();
        let run_base = pool.clocks();
        let mut ledger = TicketLedger::new(k);
        let mut slots: Vec<Option<Ran>> = (0..jobs.len()).map(|_| None).collect();
        // The next wave's queue per engine. The first deal is admission;
        // with no engine in rotation nothing is admitted and every job
        // fails typed.
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); k];
        let alive = pool.alive_engines();
        let mut claims: Vec<Claim> = Vec::with_capacity(jobs.len());
        for (idx, slot) in slots.iter_mut().enumerate() {
            if alive.is_empty() {
                *slot = Some(lost(jobs, idx, 0));
            } else {
                let e = place(&alive, idx);
                claims.push(ledger.admit(e, false));
                assigned[e].push(idx);
            }
        }
        let mut waves = 0usize;

        while assigned.iter().any(|a| !a.is_empty()) {
            let mut lanes: Vec<Lane> = assigned
                .iter_mut()
                .enumerate()
                .filter(|(_, a)| !a.is_empty())
                .map(|(e, a)| Lane {
                    engine: e,
                    jobs: std::mem::take(a),
                    done: Vec::new(),
                    stranded: Vec::new(),
                })
                .collect();
            self.drain(&mut lanes, pool, jobs);
            waves += 1;

            // Harvest the wave: completed jobs into their slots, stranded
            // jobs (ascending) into the next deal.
            let mut stranded: Vec<(usize, usize, bool)> = Vec::new();
            for lane in lanes {
                let e = lane.engine;
                for (res, rep) in lane.done {
                    let idx = rep.index;
                    ledger.finish(e, claims[idx], res.is_ok());
                    slots[idx] = Some((res, rep));
                }
                if let Some(&crashed) = lane.stranded.first() {
                    ledger.crash(e, claims[crashed], pool.engine(e).clock());
                }
                let crashed_first = lane.stranded.iter().enumerate();
                stranded.extend(crashed_first.map(|(pos, &idx)| (idx, e, pos == 0)));
            }
            stranded.sort_unstable();
            let alive = pool.alive_engines();
            for (i, (idx, from, crashed)) in stranded.into_iter().enumerate() {
                let claim = &mut claims[idx];
                let t = pool.engine(from).clock();
                match rehome(&alive, i, claim, crashed, None) {
                    Some(to) => {
                        ledger.requeue(from, to, claim, crashed, t);
                        assigned[to].push(idx);
                    }
                    None => {
                        ledger.lose(from, *claim, t);
                        slots[idx] = Some(lost(jobs, idx, from));
                    }
                }
            }
        }

        let (results, job_reports): (_, Vec<JobReport>) = slots
            .into_iter()
            .map(|slot| slot.expect("every job completes or fails typed"))
            .unzip();
        let engines = (0..k)
            .map(|e| {
                let eng = pool.engine(e);
                EngineReport {
                    engine: e,
                    jobs: job_reports.iter().filter(|j| j.ran && j.engine == e).count(),
                    busy_secs: eng.clock() - run_base[e],
                    clock_secs: eng.clock(),
                    ledger: eng.ledger(),
                    counters: eng.counters(),
                    fault: eng.fault_stats(),
                }
            })
            .collect();
        BatchOutcome {
            results,
            report: FleetReport {
                jobs: job_reports,
                engines,
            },
            waves,
            failovers: ledger.counters().failovers,
        }
    }
}

/// Job `idx`, last held by `engine`, failed typed: no engine in rotation
/// remained to run it.
fn lost(jobs: &[BatchJob], idx: usize, engine: usize) -> Ran {
    let err = TcqrError::EngineLost {
        op: "batch",
        engine,
        detail: format!("no engine in rotation to re-run stranded job {idx}"),
    };
    let report = JobReport {
        index: idx,
        engine,
        ran: false,
        kind: jobs[idx].job.kind(),
        shape: jobs[idx].job.shape(),
        ok: false,
        error: Some(err.to_string()),
        queue_wait_secs: 0.0,
        start_secs: 0.0,
        exec_secs: 0.0,
        fault_injected: 0,
        fault_detected: 0,
    };
    (Err(err), report)
}

/// Execute one lane: its jobs, sequentially, on its own engine. A crash
/// reports the crashed job plus the rest of the lane as stranded; a solver
/// error marks the engine degraded.
fn run_lane(lane: &mut Lane, pool: &EnginePool, jobs: &[BatchJob]) {
    let clock_base = pool.engine(lane.engine).clock();
    for (pos, &idx) in lane.jobs.iter().enumerate() {
        let Some((res, mut report)) = execute(pool, lane.engine, idx, &jobs[idx]) else {
            lane.stranded = lane.jobs[pos..].to_vec();
            return;
        };
        if res.is_err() {
            pool.mark_degraded(lane.engine);
        }
        report.queue_wait_secs = report.start_secs - clock_base;
        lane.done.push((res, report));
    }
}

/// Batched QR: factor every `(a, cfg)` problem across the pool.
///
/// Convenience wrapper over [`BatchScheduler::run`] with default recovery
/// policies; results come back in submission order.
pub fn batch_rgsqrf(
    pool: &EnginePool,
    problems: Vec<(densemat::Mat<f32>, RgsqrfConfig)>,
) -> (Vec<Result<QrFactors, TcqrError>>, FleetReport) {
    let jobs: Vec<BatchJob> = problems
        .into_iter()
        .map(|(a, cfg)| BatchJob::from(Job::rgsqrf(a, cfg)))
        .collect();
    let out = BatchScheduler::new().run(pool, &jobs);
    let factors = out
        .results
        .into_iter()
        .map(|r| {
            r.map(|o| match o {
                JobOutput::Qr(f) => f,
                _ => unreachable!("rgsqrf jobs produce QR factors"),
            })
        })
        .collect();
    (factors, out.report)
}

/// Batched heterogeneous solve: drain `jobs` across the pool with
/// [`BatchScheduler::new`].
pub fn batch_solve(
    pool: &EnginePool,
    jobs: &[BatchJob],
) -> (Vec<Result<JobOutput, TcqrError>>, FleetReport) {
    let out = BatchScheduler::new().run(pool, jobs);
    (out.results, out.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgen::{self, JobMixConfig};
    use densemat::gen::{rng, uniform_pm1};
    use tensor_engine::EngineConfig;

    #[test]
    fn round_robin_assignment_and_order() {
        let pool = EnginePool::new(3, EngineConfig::default());
        let jobs = jobgen::job_mix(&JobMixConfig {
            seed: 2,
            jobs: 7,
            m: 48,
            n: 12,
        });
        let out = BatchScheduler::with_threads(2).run(&pool, &jobs);
        assert_eq!(out.results.len(), 7);
        for (i, j) in out.report.jobs.iter().enumerate() {
            assert_eq!(j.index, i);
            assert_eq!(j.engine, i % 3);
        }
        // Lane loads: 3, 2, 2.
        let loads: Vec<usize> = out.report.engines.iter().map(|e| e.jobs).collect();
        assert_eq!(loads, vec![3, 2, 2]);
        // Queue waits within a lane are non-decreasing in submission order.
        for e in 0..3 {
            let waits: Vec<f64> = out
                .report
                .jobs
                .iter()
                .filter(|j| j.engine == e)
                .map(|j| j.queue_wait_secs)
                .collect();
            assert!(waits.windows(2).all(|w| w[0] <= w[1]), "{waits:?}");
            assert_eq!(waits.first().copied().unwrap_or(0.0), 0.0);
        }
    }

    #[test]
    fn batch_rgsqrf_returns_factors() {
        let pool = EnginePool::new(2, EngineConfig::default());
        let cfg = RgsqrfConfig {
            cutoff: 16,
            caqr_width: 4,
            ..RgsqrfConfig::default()
        };
        let problems = (0..4)
            .map(|i| (uniform_pm1(40, 10, &mut rng(100 + i)).convert(), cfg))
            .collect();
        let (factors, report) = batch_rgsqrf(&pool, problems);
        assert_eq!(factors.len(), 4);
        for f in &factors {
            let f = f.as_ref().expect("well-posed problems factor");
            assert_eq!(f.q.ncols(), 10);
            assert_eq!(f.r.nrows(), 10);
        }
        assert_eq!(report.ok_jobs(), 4);
        assert!(report.makespan_secs() > 0.0);
        let eff = report.efficiency().expect("non-empty batch has a defined efficiency");
        assert!(eff > 0.0 && eff <= 1.0 + 1e-12);
    }

    #[test]
    fn one_scheduler_reused_across_runs_stays_bit_identical() {
        // Reusing one scheduler (the serve service's pattern) must keep
        // results and accounting bit-identical to the first run.
        let jobs = jobgen::job_mix(&JobMixConfig {
            seed: 11,
            jobs: 9,
            m: 48,
            n: 12,
        });
        let sched = BatchScheduler::with_threads(3);
        let fingerprints = |out: &crate::scheduler::BatchOutcome| -> Vec<u64> {
            out.results.iter().map(crate::job::result_fingerprint).collect()
        };
        let pool_a = EnginePool::new(3, EngineConfig::default());
        let first = sched.run(&pool_a, &jobs);
        let pool_b = EnginePool::new(3, EngineConfig::default());
        let second = sched.run(&pool_b, &jobs);
        assert_eq!(fingerprints(&first), fingerprints(&second));
        assert_eq!(pool_a.fingerprint(), pool_b.fingerprint());
        // Clones agree too.
        let pool_c = EnginePool::new(3, EngineConfig::default());
        let third = sched.clone().run(&pool_c, &jobs);
        assert_eq!(fingerprints(&first), fingerprints(&third));
    }

    #[test]
    fn lanes_run_on_several_threads_with_bit_identical_results() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        use std::thread::ThreadId;
        use tcqr_trace::{Event, TraceSink, Tracer};

        /// The OS threads the engines traced from.
        #[derive(Default)]
        struct Threads(Mutex<HashSet<ThreadId>>);
        impl TraceSink for Threads {
            fn record(&self, _: &Event) {
                self.0.lock().unwrap().insert(std::thread::current().id());
            }
        }

        let jobs = jobgen::job_mix(&JobMixConfig {
            seed: 7,
            jobs: 16,
            m: 64,
            n: 16,
        });
        let run = |threads: usize| {
            let sink = Arc::new(Threads::default());
            let pool = EnginePool::with_tracer(4, EngineConfig::default(), |_| {
                Tracer::new(sink.clone())
            });
            let out = BatchScheduler::with_threads(threads).run(&pool, &jobs);
            assert_eq!(out.waves, 1);
            let fps: Vec<u64> = out.results.iter().map(crate::job::result_fingerprint).collect();
            let seen = sink.0.lock().unwrap().len();
            (fps, pool.fingerprint(), seen)
        };
        let (fp1, pool1, seen1) = run(1);
        let (fp2, pool2, seen2) = run(2);
        assert_eq!(seen1, 1, "one worker runs every lane on the calling thread");
        assert!(seen2 > 1, "two workers ran the wave's lanes on {seen2} thread(s)");
        assert_eq!(fp1, fp2, "results differ between 1 and 2 workers");
        assert_eq!(pool1, pool2, "accounting differs between 1 and 2 workers");
    }

    #[test]
    fn failover_redispatches_stranded_jobs_bit_identically() {
        use crate::job::result_fingerprint;
        use crate::pool::EngineHealth;
        use tensor_engine::EngineFaultPlan;

        let mix = JobMixConfig {
            seed: 5,
            jobs: 9,
            m: 48,
            n: 12,
        };
        // Healthy-pool oracle: same jobs, no chaos.
        let oracle_pool = EnginePool::new(3, EngineConfig::default());
        let oracle = BatchScheduler::with_threads(1).run(&oracle_pool, &jobgen::job_mix(&mix));
        assert_eq!(oracle.waves, 1);
        assert_eq!(oracle.failovers, 0);

        let chaos = |threads: usize| {
            let pool = EnginePool::new(3, EngineConfig::default());
            pool.set_avail_plan(1, Some(EngineFaultPlan::crash_at(5)));
            let out = BatchScheduler::with_threads(threads).run(&pool, &jobgen::job_mix(&mix));
            assert_eq!(pool.health(1), EngineHealth::Dead);
            out
        };
        let out = chaos(2);
        assert!(out.waves >= 2, "the crash must force a re-dispatch wave");
        assert!(out.failovers >= 1);
        // Zero lost, zero duplicated: exactly one result per submission
        // slot, and every completed output is bit-identical to the
        // healthy-pool oracle wherever it ended up running.
        assert_eq!(out.results.len(), 9);
        for (r, o) in out.results.iter().zip(&oracle.results) {
            assert!(r.is_ok(), "{r:?}");
            assert_eq!(result_fingerprint(r), result_fingerprint(o));
        }
        // No job reports engine 1 after its death wave beyond what it
        // completed, and realized engines are recorded.
        for j in &out.report.jobs {
            assert!(j.ran);
            assert!(j.engine < 3);
        }
        // Worker count changes nothing: the failover permutation is pure.
        let out1 = chaos(1);
        let fp = |o: &BatchOutcome| -> Vec<u64> { o.results.iter().map(result_fingerprint).collect() };
        assert_eq!(fp(&out), fp(&out1));
        assert_eq!(out.waves, out1.waves);
        assert_eq!(out.failovers, out1.failovers);
    }

    #[test]
    fn empty_rotation_fails_typed_not_lost() {
        use tensor_engine::EngineFaultPlan;
        let pool = EnginePool::new(1, EngineConfig::default());
        pool.set_avail_plan(0, Some(EngineFaultPlan::crash_at(0)));
        let jobs = jobgen::job_mix(&JobMixConfig {
            seed: 3,
            jobs: 3,
            m: 32,
            n: 8,
        });
        let out = BatchScheduler::new().run(&pool, &jobs);
        assert_eq!(out.results.len(), 3, "no ticket is lost");
        for (i, r) in out.results.iter().enumerate() {
            match r {
                Err(TcqrError::EngineLost { op, engine, .. }) => {
                    assert_eq!(*op, "batch");
                    assert_eq!(*engine, 0);
                }
                other => panic!("job {i}: expected EngineLost, got {other:?}"),
            }
            assert!(!out.report.jobs[i].ran);
        }
        assert_eq!(out.report.failed_jobs(), 3);
    }

    #[test]
    fn typed_errors_surface_per_job() {
        let pool = EnginePool::new(2, EngineConfig::default());
        let good = Job::rgsqrf(uniform_pm1(32, 8, &mut rng(1)).convert(), RgsqrfConfig::default());
        let bad = Job::rgsqrf(
            uniform_pm1(4, 8, &mut rng(1)).convert(), // wide: rejected
            RgsqrfConfig::default(),
        );
        let jobs = vec![BatchJob::from(good), BatchJob::from(bad)];
        let (results, report) = batch_solve(&pool, &jobs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(TcqrError::ShapeMismatch { .. })
        ));
        assert_eq!(report.ok_jobs(), 1);
        assert_eq!(report.failed_jobs(), 1);
        assert!(report.jobs[1].error.as_deref().unwrap().contains("rgsqrf"));
    }
}
