//! The service proper: worker threads owning engines, priority lanes,
//! admission control, and graceful drain — a threaded shell around the
//! [`TicketLedger`].
//!
//! ## Determinism and the oracle
//!
//! Every admitted ticket `n` is pinned to engine `n mod K` at admission —
//! the same placement rule ([`tcqr_batch::place`]) the deterministic
//! [`tcqr_batch::BatchScheduler`] uses — and each engine is owned by
//! exactly one worker thread, so a job's engine never runs anything
//! concurrently with it. What the host's scheduler *can* change is the
//! per-engine interleaving of priorities: a High submission overtakes
//! queued Low work, so the realized per-engine execution order depends on
//! arrival timing. The service records that realized order, and
//! [`DrainOutcome::oracle_order`] converts it into a job permutation for
//! which `BatchScheduler::run` replays the exact per-engine sequences —
//! making the deterministic batch scheduler a bit-exact oracle for
//! whatever order the live service actually ran.
//!
//! ## Resilience
//!
//! Every ticket's lifecycle lives in one [`TicketLedger`] behind the state
//! lock: each submission, completion, cancellation, crash, requeue, loss,
//! and breaker trip is one ledger transition, which checks the ledger's
//! invariants and answers with the lifecycle mark to record and whether
//! drain waiters must wake. The worker whose engine dies mid-job (a
//! `tensor_engine::avail` crash, or a panic that leaves the engine's state
//! unknown) takes it out of rotation and re-homes its queue onto the
//! survivors by the failover deal ([`tcqr_batch::rehome`]): the crashed
//! job first, retry budget permitting, then its High lane, then its Low
//! lane. Admission re-pins subsequent tickets over the survivors. Every
//! admitted ticket resolves exactly once: with the job's result, or with
//! a typed [`ServeError::EngineLost`] / [`ServeError::DeadlineExceeded`] /
//! [`ServeError::Disconnected`]. Because job outputs are pure functions of
//! the job (engine accumulated state never feeds the numerics), a
//! completed ticket's output is bit-identical to what a healthy-pool
//! [`tcqr_batch::BatchScheduler`] computes for the same job, no matter
//! which engine finally ran it. A circuit breaker can additionally
//! quarantine an engine after consecutive job failures and rehabilitate
//! it through `reset_in_place` — the engine re-enters rotation only if it
//! proves state-fingerprint equality with a freshly built engine.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use tcqr_batch::{
    execute, place, rehome, BatchJob, Claim, Counters, EnginePool, EngineReport, FleetMark,
    FleetReport, Job, JobOutput, JobReport, Priority, Refusal, Step, TicketLedger,
};
use tcqr_core::{RecoveryPolicy, TcqrError};
use tcqr_obs::{BurnWindow, SloSpec};
use tcqr_trace::schema::{EngineMark, ServeSummary};
use tcqr_trace::{Tracer, Value};
use tensor_engine::EngineConfig;

use crate::error::ServeError;

/// Modeled backoff added to a crashed job's accumulated wait per re-run.
/// It counts against [`ResilienceConfig::deadline_secs`] and is never
/// charged to an engine ledger: the job did not run during the backoff.
const BACKOFF_SECS: f64 = 0.25;

/// Service construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engines in the pool (one worker thread each, `>= 1`).
    pub engines: usize,
    /// Shared engine configuration / performance model.
    pub engine: EngineConfig,
    /// Recovery policy applied to jobs submitted via [`Handle::submit`]
    /// (full-knob submissions go through [`Handle::submit_batch_job`]).
    pub policy: RecoveryPolicy,
    /// SLO spec for admission control. The first `queue_wait` objective
    /// becomes the live burn-rate gate: submissions that would push the
    /// queue-wait burn rate past its `max_burn_rate` are rejected with
    /// [`ServeError::Overloaded`]. `None` (or a spec with no `queue_wait`
    /// objective) admits everything.
    pub slo: Option<SloSpec>,
    /// Failure-handling knobs: deadline watchdog, failover retry budget,
    /// and circuit breaker.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engines: 2,
            engine: EngineConfig::default(),
            policy: RecoveryPolicy::default(),
            slo: None,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Failure-handling knobs. Everything here runs on the *simulated* clock,
/// so behavior is reproducible across hosts and worker interleavings.
/// Degraded-mode shedding is always on: once an engine is out of rotation
/// and the pending backlog already covers the survivors, [`Priority::Low`]
/// submissions are shed with [`ServeError::Degraded`] so High traffic
/// keeps its latency.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Per-job deadline on the simulated clock, measured from enqueue to
    /// execution start (queue wait plus any failover backoff). A popped
    /// job whose accumulated wait exceeds this is cancelled with
    /// [`ServeError::DeadlineExceeded`] instead of running. `None`
    /// disables the watchdog.
    pub deadline_secs: Option<f64>,
    /// How many times a job whose engine died *mid-run* may be re-run on
    /// a survivor before its ticket fails with
    /// [`ServeError::EngineLost`]. Queued (not yet started) jobs stranded
    /// by a death are always re-homed; this budget only limits re-runs of
    /// the crashed job itself, each of which adds a 0.25 s modeled backoff
    /// to the job's wait.
    pub max_retries: usize,
    /// Circuit breaker: after this many *consecutive* typed job failures
    /// on one engine, quarantine it and attempt rehabilitation via
    /// `reset_in_place` (the engine re-enters rotation only if the
    /// cleanliness proof passes). `0` disables the breaker.
    pub quarantine_after: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            deadline_secs: None,
            max_retries: 1,
            quarantine_after: 0,
        }
    }
}

/// A claim on one submitted job's result.
///
/// Results stream back per ticket: the worker sends the job's
/// `Result<JobOutput, TcqrError>` into this ticket's private channel the
/// moment the job finishes, so callers consume completions in whatever
/// order they land without polling the service.
#[derive(Debug)]
pub struct Ticket {
    id: usize,
    engine: usize,
    priority: Priority,
    rx: Receiver<TicketResult>,
}

/// What a ticket's channel carries: the service's verdict (outer), then
/// the solver's own typed outcome (inner).
type TicketResult = Result<Result<JobOutput, TcqrError>, ServeError>;

impl Ticket {
    /// Admission sequence number — also the job's `index` in the final
    /// [`FleetReport`].
    pub fn id(&self) -> usize {
        self.id
    }

    /// Engine the job was pinned to at admission (`id mod` the rotation
    /// size). If that engine later dies, failover may run the job
    /// elsewhere; the final [`FleetReport`] records the realized engine.
    pub fn engine(&self) -> usize {
        self.engine
    }

    /// The lane the submission joined.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Block until the job's result arrives. The outer error is the
    /// service's verdict ([`ServeError::EngineLost`],
    /// [`ServeError::DeadlineExceeded`], or [`ServeError::Disconnected`]
    /// if the job panicked or a worker vanished without a verdict); the
    /// inner result is the solver's own typed outcome, exactly what
    /// [`tcqr_batch::BatchScheduler::run`] would return for this job.
    ///
    /// Results survive [`Handle::drain`]: a drained service has resolved
    /// every admitted ticket, and each result waits buffered in its
    /// channel.
    pub fn wait(self) -> Result<Result<JobOutput, TcqrError>, ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ServeError::Disconnected {
                engine: self.engine,
                job: self.id,
            }),
        }
    }
}

/// One queued submission, owned by its engine's worker once popped.
struct WorkItem {
    claim: Claim,
    job: BatchJob,
    /// Lane the submission joined — kept so failover re-homes the item
    /// into the same lane on the survivor.
    priority: Priority,
    /// Engine's simulated clock at enqueue (re-stamped on failover); the
    /// job's queue wait is the clock advance between this and its start,
    /// plus `carried_wait_secs`.
    enqueue_clock: f64,
    /// Wait accumulated on previous engines plus failover backoff —
    /// counted against the deadline and reported in the job's queue wait.
    carried_wait_secs: f64,
    tx: Sender<TicketResult>,
}

impl WorkItem {
    /// Resolve the ticket with the service's verdict. The ticket may have
    /// been dropped by an uninterested caller.
    fn resolve(self, verdict: TicketResult) {
        let _ = self.tx.send(verdict);
    }
}

/// Per-engine submission queues. Two FIFO lanes; High drains first.
struct Lanes {
    high: VecDeque<WorkItem>,
    low: VecDeque<WorkItem>,
    /// Set by [`Handle::close`]: finish queued work, then exit.
    draining: bool,
}

struct WorkerQueue {
    lanes: Mutex<Lanes>,
    cv: Condvar,
}

/// Live admission control: the SLO spec's first `queue_wait` objective as
/// a burn window on the simulated clock, plus the exec-time history
/// behind each submission's projected wait.
struct Gate {
    window: BurnWindow,
    /// Sum of completed jobs' simulated exec seconds.
    exec_total_secs: f64,
    /// Monotonicized completion clock fed to the burn window: per-engine
    /// clocks are independent, so out-of-order completion stamps are
    /// clamped forward to keep the window's replay order valid.
    last_t: f64,
}

impl Gate {
    /// Classify a submission pinned behind `depth` queued jobs by its
    /// projected wait (depth times the mean observed exec time; an idle
    /// engine projects zero, an unknown service conservatively projects
    /// infinite), and return whether it is projected late plus the burn
    /// rate the window would show if every pending job and this one landed
    /// now.
    fn assess(&self, ledger: &TicketLedger, depth: u64) -> (bool, f64) {
        let done = ledger.counters().completed;
        let projected_wait = if depth == 0 {
            0.0
        } else if done == 0 {
            f64::INFINITY
        } else {
            depth as f64 * (self.exec_total_secs / done as f64)
        };
        let late = projected_wait > self.window.threshold_secs();
        let burn = self
            .window
            .hypothetical_burn(ledger.at_risk() + late as u64, ledger.pending() + 1);
        (late, burn)
    }

    /// Feed one completion (engine clock `t` after the job) to the window.
    fn record(&mut self, t: f64, wait_secs: f64, exec_secs: f64) {
        self.last_t = self.last_t.max(t);
        self.window.record(self.last_t, wait_secs);
        self.exec_total_secs += exec_secs;
    }
}

/// Live admission + accounting state, behind one mutex.
struct ServeState {
    ledger: TicketLedger,
    gate: Option<Gate>,
    /// Completed jobs' reports, appended as they finish: per engine, that
    /// is execution order.
    done: Vec<JobReport>,
    /// Lifecycle marks, in occurrence order per engine.
    marks: Vec<FleetMark>,
}

struct Shared {
    pool: EnginePool,
    /// Per-engine clock at service start (pre-existing work if any).
    clock_base: Vec<f64>,
    state: Mutex<ServeState>,
    queues: Vec<WorkerQueue>,
    tracer: Tracer,
    res: ResilienceConfig,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Job panics are caught outside every lock; a panic under one (a
    // ledger invariant failing) has already failed loudly, and the state
    // stays readable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Run one ledger transition under the state lock, record its mark,
    /// and wake drain waiters if it says so.
    fn apply(&self, transition: impl FnOnce(&mut ServeState) -> Step) {
        let wake = {
            let mut st = lock(&self.state);
            let step = transition(&mut st);
            st.marks.extend(step.mark);
            step.wake
        };
        if wake {
            // Take each queue's lock for the notify so it cannot slip into
            // a worker's check-to-wait window (the check and the wait
            // happen under that lock).
            for q in &self.queues {
                let _guard = lock(&q.lanes);
                q.cv.notify_all();
            }
        }
    }

    /// Resolve `item` without a result while engine `e` holds it.
    fn lose(&self, e: usize, item: WorkItem, verdict: ServeError) {
        let t = self.pool.engine(e).clock();
        self.apply(|st| st.ledger.lose(e, item.claim, t));
        item.resolve(Err(verdict));
    }
}

/// The submission front-end of a running service.
///
/// Owns the worker threads; dropped without [`Handle::drain`], workers are
/// detached and the pool leaks with them — always drain.
pub struct Handle {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    default_policy: RecoveryPolicy,
}

impl Handle {
    /// Start a service: build the engine pool, spawn one worker thread per
    /// engine, and return the submission handle.
    pub fn start(cfg: ServeConfig) -> Handle {
        let pool = EnginePool::new(cfg.engines, cfg.engine);
        let k = pool.len();
        let gate = cfg
            .slo
            .as_ref()
            .and_then(|s| s.objectives.iter().find_map(|o| BurnWindow::from_objective(&o.kind)))
            .map(|window| Gate {
                window,
                exec_total_secs: 0.0,
                last_t: 0.0,
            });
        let clock_base = pool.clocks();
        let shared = Arc::new(Shared {
            pool,
            clock_base,
            state: Mutex::new(ServeState {
                ledger: TicketLedger::new(k),
                gate,
                done: Vec::new(),
                marks: Vec::new(),
            }),
            queues: (0..k)
                .map(|_| WorkerQueue {
                    lanes: Mutex::new(Lanes {
                        high: VecDeque::new(),
                        low: VecDeque::new(),
                        draining: false,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            tracer: Tracer::global(),
            res: cfg.resilience,
        });
        let workers = (0..k)
            .map(|e| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tcqr-serve-{e}"))
                    .spawn(move || worker_loop(&shared, e))
                    .expect("spawning a worker thread")
            })
            .collect();
        Handle {
            shared,
            workers,
            default_policy: cfg.policy,
        }
    }

    /// The engine pool behind the service. Arm fault plans or read clocks
    /// through this; the single-worker-per-engine discipline makes
    /// mid-stream arming safe (settle the queue first if the arming point
    /// must be deterministic relative to job boundaries).
    pub fn pool(&self) -> &EnginePool {
        &self.shared.pool
    }

    /// Live snapshot of the ticket ledger, taken under the state lock.
    /// Chaos harnesses use this to sequence injected failures
    /// deterministically: after a death, `depth()[e] == 0` for the dead
    /// engine means its failover has re-homed (or typed away) every
    /// stranded item, so the next fault can be released without racing
    /// the previous one's cleanup.
    pub fn stats(&self) -> TicketLedger {
        lock(&self.shared.state).ledger.clone()
    }

    /// Submit a job on the service's default recovery policy.
    pub fn submit(&self, job: Job, priority: Priority) -> Result<Ticket, ServeError> {
        self.submit_batch_job(
            BatchJob {
                job,
                policy: self.default_policy.clone(),
                precision: None,
            },
            priority,
        )
    }

    /// Submit a job with explicit per-tenant knobs (recovery policy,
    /// precision override). Admission control runs first: if admitting the
    /// job would push the live queue-wait burn rate past the SLO spec, the
    /// submission is rejected with [`ServeError::Overloaded`] and nothing
    /// is enqueued.
    pub fn submit_batch_job(
        &self,
        job: BatchJob,
        priority: Priority,
    ) -> Result<Ticket, ServeError> {
        let mut st = lock(&self.shared.state);
        // Pin over the engines still in rotation — identical to `id mod k`
        // while the fleet is healthy.
        let engine = match st.ledger.route(priority, &self.shared.pool.alive_engines()) {
            Ok(engine) => engine,
            Err(Refusal::Closed) => return Err(ServeError::Draining),
            Err(Refusal::Degraded { out, alive }) => {
                return Err(ServeError::Degraded { dead: out, alive })
            }
        };
        let mut at_risk = false;
        if let Some(gate) = &st.gate {
            let (late, burn) = gate.assess(&st.ledger, st.ledger.depth()[engine]);
            let limit = gate.window.limit();
            if burn > limit {
                st.ledger.reject();
                drop(st);
                self.shared.tracer.info(
                    "serve.rejected",
                    &[("burn", Value::F64(burn)), ("limit", Value::F64(limit))],
                );
                return Err(ServeError::Overloaded { burn, limit });
            }
            at_risk = late;
        }
        let claim = st.ledger.admit(engine, at_risk);
        drop(st);

        let (tx, rx) = channel();
        let item = WorkItem {
            claim,
            job,
            priority,
            enqueue_clock: 0.0,
            carried_wait_secs: 0.0,
            tx,
        };
        if let Err(item) = push_item(&self.shared, engine, item, engine, false) {
            // Every engine left rotation in the race window. The ticket
            // was admitted, so resolve it typed rather than un-admitting it.
            let verdict = ServeError::EngineLost {
                engine,
                job: claim.ticket,
            };
            self.shared.lose(engine, item, verdict);
        }
        Ok(Ticket {
            id: claim.ticket,
            engine,
            priority,
            rx,
        })
    }

    /// Close intake: subsequent submissions fail with
    /// [`ServeError::Draining`]; queued and in-flight jobs still run to
    /// completion and their tickets still deliver. Terminal — intake never
    /// reopens.
    pub fn close(&self) {
        let _ = lock(&self.shared.state).ledger.close();
        for q in &self.shared.queues {
            lock(&q.lanes).draining = true;
            q.cv.notify_all();
        }
    }

    /// Graceful shutdown: close intake, finish every queued and in-flight
    /// job, join the workers, and return the final fleet accounting. Every
    /// admitted ticket's result is delivered (buffered in its channel)
    /// before this returns.
    pub fn drain(self) -> DrainOutcome {
        self.close();
        for w in self.workers {
            let _ = w.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("workers joined and hold no Arc");
        let Shared {
            pool,
            clock_base,
            state,
            queues,
            tracer: _,
            res: _,
        } = shared;
        let k = pool.len();
        let mut st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        // Backstop: an item stranded in a retired engine's lanes (a push
        // that raced the worker's own failover drain) resolves typed here
        // — no admitted ticket is ever left unresolved.
        for (e, q) in queues.iter().enumerate() {
            let mut lanes = lock(&q.lanes);
            let high: Vec<WorkItem> = lanes.high.drain(..).collect();
            for item in high.into_iter().chain(lanes.low.drain(..)) {
                let step = st.ledger.lose(e, item.claim, pool.engine(e).clock());
                st.marks.extend(step.mark);
                let job = item.claim.ticket;
                item.resolve(Err(ServeError::EngineLost { engine: e, job }));
            }
        }
        let mut jobs = std::mem::take(&mut st.done);
        // Engine-major, and within an engine in realized execution order
        // (`done` is appended under the state lock as jobs finish, and a
        // lane runs one job at a time, so the per-engine subsequence IS
        // execution order; the stable sort only groups engines together).
        // This keeps `FleetReport::emit`'s per-engine segment narration
        // monotone on the simulated clock — High-priority tickets that
        // jumped the lane would break ticket-ordered narration.
        jobs.sort_by_key(|j| j.engine);
        let mut execution_order = vec![Vec::new(); k];
        for j in &jobs {
            execution_order[j.engine].push(j.index);
        }
        let engines = (0..k)
            .map(|e| {
                let eng = pool.engine(e);
                EngineReport {
                    engine: e,
                    jobs: execution_order[e].len(),
                    busy_secs: (eng.clock() - clock_base[e]).max(0.0),
                    clock_secs: eng.clock(),
                    ledger: eng.ledger(),
                    counters: eng.counters(),
                    fault: eng.fault_stats(),
                }
            })
            .collect();
        let mut marks = std::mem::take(&mut st.marks);
        // Marks land in whatever real-time order workers recorded them;
        // canonicalize so emission and digests are deterministic.
        marks.sort_by(|a, b| {
            a.engine
                .cmp(&b.engine)
                .then(a.t_secs.total_cmp(&b.t_secs))
                .then(a.kind.cmp(b.kind))
                .then(a.ticket.cmp(&b.ticket))
        });
        DrainOutcome {
            report: FleetReport { jobs, engines },
            execution_order,
            counters: st.ledger.counters(),
            worst_burn: st.gate.as_ref().map_or(0.0, |g| g.window.worst_burn()),
            burn_limit: st.gate.as_ref().map_or(0.0, |g| g.window.limit()),
            admission_enabled: st.gate.is_some(),
            marks,
            pool,
        }
    }
}

/// Push an item into `target`'s lane, re-checking rotation membership
/// under the queue lock (a retired engine's worker drains its lanes
/// exactly once, so pushing after that check can never strand the item).
/// The item's depth currently sits on `from`; when another engine takes
/// it, the ledger's requeue moves it there (`crashed`: re-running the job
/// a crash interrupted) *before* the push becomes poppable, so completion
/// accounting can never underflow the target's depth. Lock order: lanes,
/// then state. Returns the engine that took the item, or the item back
/// when no engine in rotation remains (nothing moves in that case).
#[allow(clippy::result_large_err)] // Err returns the item's ownership, not an error code
fn push_item(
    shared: &Shared,
    mut target: usize,
    mut item: WorkItem,
    from: usize,
    crashed: bool,
) -> Result<usize, WorkItem> {
    loop {
        item.enqueue_clock = shared.pool.engine(target).clock();
        let q = &shared.queues[target];
        let mut lanes = lock(&q.lanes);
        if shared.pool.health(target).in_rotation() {
            if target != from {
                let mut st = lock(&shared.state);
                let step = st
                    .ledger
                    .requeue(from, target, &mut item.claim, crashed, item.enqueue_clock);
                st.marks.extend(step.mark);
            }
            match item.priority {
                Priority::High => lanes.high.push_back(item),
                Priority::Low => lanes.low.push_back(item),
            }
            q.cv.notify_one();
            return Ok(target);
        }
        drop(lanes);
        let alive = shared.pool.alive_engines();
        if alive.is_empty() {
            return Err(item);
        }
        target = place(&alive, item.claim.ticket);
    }
}

/// One engine's worker: pop High before Low, run the deadline watchdog,
/// run jobs to completion, record accounting, stream the result to the
/// ticket. Exits when draining and empty — or when its engine leaves the
/// rotation, after re-homing the backlog onto the survivors.
fn worker_loop(shared: &Shared, e: usize) {
    let mut consecutive_failures = 0usize;
    loop {
        let item = {
            let q = &shared.queues[e];
            let mut lanes = lock(&q.lanes);
            loop {
                if let Some(it) = lanes.high.pop_front() {
                    break Some(it);
                }
                if let Some(it) = lanes.low.pop_front() {
                    break Some(it);
                }
                // Don't retire while any job is pending anywhere: a dying
                // engine may yet re-home its backlog into these lanes.
                // The last pending resolution wakes every queue.
                if lanes.draining && lock(&shared.state).ledger.pending() == 0 {
                    break None;
                }
                lanes = q.cv.wait(lanes).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(item) = item else { return };
        // Deadline watchdog, on the simulated clock: accumulated wait is
        // checked at pop time, before any engine work is charged.
        if let Some(deadline) = shared.res.deadline_secs {
            let t = shared.pool.engine(e).clock();
            if (t - item.enqueue_clock).max(0.0) + item.carried_wait_secs > deadline {
                shared.apply(|st| st.ledger.cancel(e, item.claim, t));
                item.resolve(Err(ServeError::DeadlineExceeded {
                    deadline_secs: deadline,
                }));
                continue;
            }
        }
        match run_item(shared, e, item) {
            RunOutcome::Done { failed } => {
                consecutive_failures = if failed { consecutive_failures + 1 } else { 0 };
                let trip = shared.res.quarantine_after;
                if trip > 0 && consecutive_failures >= trip {
                    consecutive_failures = 0;
                    if !breaker_trip(shared, e) {
                        // Rehabilitation failed the cleanliness proof:
                        // the engine stays out of rotation. Re-home its
                        // backlog and retire this worker.
                        fail_over(shared, e, None);
                        return;
                    }
                }
            }
            RunOutcome::Retired(crashed) => {
                fail_over(shared, e, crashed);
                return;
            }
        }
    }
}

/// What [`run_item`] did with its work item.
enum RunOutcome {
    /// The job ran to completion (possibly with a typed solver error —
    /// `failed` feeds the circuit breaker).
    Done { failed: bool },
    /// The engine left rotation mid-job. An availability crash hands the
    /// item back for failover; a panic already resolved it.
    Retired(Option<Box<WorkItem>>),
}

fn run_item(shared: &Shared, e: usize, item: WorkItem) -> RunOutcome {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        execute(&shared.pool, e, item.claim.ticket, &item.job)
    }));
    // The engine's clock after the job (or at its death: a crashed engine
    // never accounts the fatal op, so its clock stays readable).
    let t = shared.pool.engine(e).clock();
    match ran {
        Ok(Some((res, mut report))) => {
            report.queue_wait_secs =
                (report.start_secs - item.enqueue_clock).max(0.0) + item.carried_wait_secs;
            let failed = res.is_err();
            shared.apply(|st| {
                if let Some(gate) = st.gate.as_mut() {
                    gate.record(t, report.queue_wait_secs, report.exec_secs);
                }
                st.done.push(report);
                st.ledger.finish(e, item.claim, !failed)
            });
            item.resolve(Ok(res));
            RunOutcome::Done { failed }
        }
        Ok(None) => {
            shared.apply(|st| st.ledger.crash(e, item.claim, t));
            RunOutcome::Retired(Some(Box::new(item)))
        }
        Err(_panic) => {
            // Not a modeled engine loss: the engine's state is unknown, so
            // it leaves rotation like a crashed one. The job itself is not
            // retried — it would likely panic again elsewhere.
            shared.pool.mark_dead(e);
            shared.apply(|st| st.ledger.crash(e, item.claim, t));
            let job = item.claim.ticket;
            shared.lose(e, item, ServeError::Disconnected { engine: e, job });
            RunOutcome::Retired(None)
        }
    }
}

/// Circuit breaker: quarantine the engine, then attempt rehabilitation
/// via reset-in-place. Returns whether the engine proved cleanliness and
/// re-entered rotation.
fn breaker_trip(shared: &Shared, e: usize) -> bool {
    let t = shared.pool.engine(e).clock();
    shared.pool.quarantine(e);
    shared.apply(|st| st.ledger.quarantine(e, t));
    let clean = shared.pool.rehabilitate(e);
    if clean {
        // The scrubbed engine's clock restarted from zero.
        let t = shared.pool.engine(e).clock();
        shared.apply(|st| st.ledger.rehabilitate(e, t));
    }
    clean
}

/// Re-home a retired engine's backlog onto the surviving rotation by the
/// failover deal: `crashed` (the in-flight job the death interrupted, if
/// any) first, then the High lane, then the Low lane. The crashed job
/// pays the modeled backoff and one retry — or resolves
/// [`ServeError::EngineLost`] when its retry budget is spent. Queued items
/// keep their lane and accumulated wait. With no survivors, every item
/// resolves typed.
fn fail_over(shared: &Shared, e: usize, crashed: Option<Box<WorkItem>>) {
    let t = shared.pool.engine(e).clock();
    // The health flip happened before this drain and pushers re-check
    // health under the queue lock, so nothing lands in these lanes after
    // the take.
    let (high, low) = {
        let mut lanes = lock(&shared.queues[e].lanes);
        (std::mem::take(&mut lanes.high), std::mem::take(&mut lanes.low))
    };
    let items = crashed
        .map(|it| (*it, true))
        .into_iter()
        .chain(high.into_iter().map(|it| (it, false)))
        .chain(low.into_iter().map(|it| (it, false)));
    let survivors = shared.pool.alive_engines();
    let budget = Some(shared.res.max_retries);
    for (i, (mut item, rerun)) in items.enumerate() {
        let pushed = match rehome(&survivors, i, &item.claim, rerun, budget) {
            Some(target) => {
                // Wait already accumulated here carries over; a re-run
                // pays the modeled backoff on top.
                item.carried_wait_secs += (t - item.enqueue_clock).max(0.0);
                if rerun {
                    item.carried_wait_secs += BACKOFF_SECS;
                }
                push_item(shared, target, item, e, rerun)
            }
            None => Err(item),
        };
        if let Err(item) = pushed {
            let job = item.claim.ticket;
            shared.lose(e, item, ServeError::EngineLost { engine: e, job });
        }
    }
}

/// Everything a drained service knows about what it ran.
pub struct DrainOutcome {
    /// Fleet accounting — the same shape the batch scheduler reports, so
    /// every `tcqr-obs` consumer (timelines, SLOs, dashboards) works on
    /// service runs unchanged. Jobs are engine-major in realized
    /// execution order (each [`JobReport::index`] is the ticket id), so
    /// segment narration stays monotone per engine even when a
    /// High-priority ticket jumped its lane.
    pub report: FleetReport,
    /// Realized execution order per engine: ticket ids in run order.
    pub execution_order: Vec<Vec<usize>>,
    /// The ticket ledger's final tallies: admitted, rejected, completed,
    /// failed, lost, deadline-missed, shed, and the resilience counters.
    pub counters: Counters,
    /// Worst queue-wait burn rate the live window observed (0.0 when
    /// admission control was off).
    pub worst_burn: f64,
    /// The spec's `max_burn_rate` (0.0 when admission control was off).
    pub burn_limit: f64,
    /// Whether a `queue_wait` objective was gating admission.
    pub admission_enabled: bool,
    /// Fleet lifecycle events, engine-major in simulated-clock order.
    pub marks: Vec<FleetMark>,
    /// The engine pool, returned to the caller for fingerprinting or
    /// reuse.
    pub pool: EnginePool,
}

impl DrainOutcome {
    /// The job permutation under which [`tcqr_batch::BatchScheduler`]
    /// replays this service run bit-for-bit: position `j*K + e` holds the
    /// `j`-th ticket engine `e` actually ran, so the scheduler's static
    /// lane `e` (`e, e+K, ...`) is exactly the service's realized sequence
    /// on engine `e`. `None` when the run is not a static round-robin
    /// replay (see [`interleave_execution_order`]): a failover or an
    /// uneven set of deadline cancellations moves work between engines.
    pub fn oracle_order(&self) -> Option<Vec<usize>> {
        interleave_execution_order(&self.execution_order)
    }

    /// Narrate the outcome into a trace stream: the fleet report's
    /// `engine.segment` / `fleet.*` events (so timelines, SLO evaluation,
    /// and dashboards consume service runs unchanged), one `engine.mark`
    /// op per fleet lifecycle event (deaths, quarantines, requeues —
    /// engine-major in simulated-clock order, so emission is
    /// deterministic), and finally one `serve.summary` op with the
    /// service-level tallies.
    pub fn emit(&self, tracer: &Tracer) {
        self.report.emit(tracer);
        for m in &self.marks {
            EngineMark {
                engine: m.engine as u64,
                kind: m.kind.into(),
                t: m.t_secs,
                ticket: m.ticket.map(|t| t as u64),
            }
            .emit(tracer);
        }
        let c = &self.counters;
        ServeSummary {
            admitted: c.admitted,
            rejected: c.rejected,
            completed: c.completed,
            failed: c.failed,
            engines: self.report.engines.len() as u64,
            admission: self.admission_enabled,
            worst_burn: self.worst_burn,
            burn_limit: self.burn_limit,
            deaths: c.deaths,
            failovers: c.failovers,
            retries: c.retries,
            quarantines: c.quarantines,
            rehabilitated: c.rehabilitated,
            deadline_missed: c.deadline_missed,
            shed: c.shed,
            lost: c.lost,
        }
        .emit(tracer);
    }
}

/// Interleave per-engine execution orders into the batch scheduler's
/// submission order: `out[j*K + e] = order[e][j]`. `None` unless the
/// per-engine counts form a round-robin split — every engine ran either
/// `⌈n/K⌉` or `⌊n/K⌋` jobs, the longer lanes first. A healthy service run
/// always qualifies, as does any burst whose size is a multiple of `K`; a
/// run that failed over, or cancelled unevenly, generally does not.
pub fn interleave_execution_order(order: &[Vec<usize>]) -> Option<Vec<usize>> {
    let k = order.len();
    let n: usize = order.iter().map(|lane| lane.len()).sum();
    let mut out = vec![usize::MAX; n];
    for (e, lane) in order.iter().enumerate() {
        for (j, &t) in lane.iter().enumerate() {
            let slot = out.get_mut(j * k + e).filter(|s| **s == usize::MAX)?;
            *slot = t;
        }
    }
    out.iter().all(|&t| t != usize::MAX).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{rng, uniform_pm1};
    use tcqr_batch::EngineHealth;
    use tcqr_core::{RgsqrfConfig, SolveOutput, Solver};
    use tensor_engine::{EngineFaultPlan, GpuSim};
    use tcqr_trace::schema::{EngineSegment, FleetSummary};

    fn qr_job(seed: u64) -> Job {
        Job::rgsqrf(uniform_pm1(32, 8, &mut rng(seed)).convert(), RgsqrfConfig::default())
    }

    /// A job that blocks on a gate and touches no engine state: holds a
    /// worker busy without advancing clocks or op counters, so tests can
    /// pin queue contents before releasing the fleet.
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

    fn wait_for_death(handle: &Handle, e: usize) {
        while handle.pool().health(e) != EngineHealth::Dead {
            std::thread::yield_now();
        }
    }

    #[test]
    fn submit_runs_and_streams_results() {
        let handle = Handle::start(ServeConfig {
            engines: 2,
            ..ServeConfig::default()
        });
        let t0 = handle.submit(qr_job(1), Priority::High).unwrap();
        let t1 = handle.submit(qr_job(2), Priority::Low).unwrap();
        assert_eq!((t0.id(), t0.engine()), (0, 0));
        assert_eq!((t1.id(), t1.engine()), (1, 1));
        assert_eq!(t0.priority(), Priority::High);
        let r0 = t0.wait().expect("worker alive");
        assert!(matches!(r0, Ok(JobOutput::Qr(_))));
        let r1 = t1.wait().expect("worker alive");
        assert!(r1.is_ok());
        let out = handle.drain();
        assert_eq!(out.counters.admitted, 2);
        assert_eq!(out.counters.completed, 2);
        assert_eq!(out.counters.failed, 0);
        assert_eq!(out.counters.rejected, 0);
        assert!(!out.admission_enabled);
        assert_eq!(out.report.jobs.len(), 2);
        assert_eq!(out.report.jobs[0].index, 0);
        assert_eq!(out.report.jobs[0].engine, 0);
        assert!(out.report.jobs[0].exec_secs > 0.0);
        assert_eq!(out.oracle_order(), Some(vec![0, 1]));
    }

    #[test]
    fn typed_solver_errors_stream_through() {
        let handle = Handle::start(ServeConfig {
            engines: 1,
            ..ServeConfig::default()
        });
        // Wide input: rejected by the solver with a typed error, not by
        // the service.
        let bad = Job::rgsqrf(uniform_pm1(4, 8, &mut rng(3)).convert(), RgsqrfConfig::default());
        let t = handle.submit(bad, Priority::Low).unwrap();
        let res = t.wait().expect("worker alive");
        assert!(matches!(res, Err(TcqrError::ShapeMismatch { .. })));
        let out = handle.drain();
        assert_eq!(out.counters.completed, 1);
        assert_eq!(out.counters.failed, 1);
        assert!(!out.report.jobs[0].ok);
        assert!(out.report.jobs[0].error.as_deref().unwrap().contains("rgsqrf"));
    }

    #[test]
    fn close_rejects_new_submissions_but_finishes_queued_work() {
        let handle = Handle::start(ServeConfig {
            engines: 1,
            ..ServeConfig::default()
        });
        let t = handle.submit(qr_job(5), Priority::Low).unwrap();
        handle.close();
        let err = handle.submit(qr_job(6), Priority::Low).unwrap_err();
        assert_eq!(err, ServeError::Draining);
        assert!(t.wait().expect("queued job still runs").is_ok());
        let out = handle.drain();
        assert_eq!(out.counters.admitted, 1);
        assert_eq!(out.counters.completed, 1);
    }

    #[test]
    fn drain_emits_the_serve_summary() {
        use std::sync::Arc;
        use tcqr_trace::{EventKind, MemSink};

        let handle = Handle::start(ServeConfig {
            engines: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| handle.submit(qr_job(10 + i), Priority::Low).unwrap())
            .collect();
        for t in tickets {
            t.wait().expect("worker alive").expect("well-posed");
        }
        let out = handle.drain();
        let sink = Arc::new(MemSink::new());
        out.emit(&Tracer::new(sink.clone()));
        let events = sink.snapshot();
        let segs = events.iter().filter(|e| e.name == EngineSegment::NAME).count();
        assert_eq!(segs, 4, "one segment per ticket");
        let summary = events.iter().find(|e| e.name == ServeSummary::NAME).unwrap();
        assert_eq!(summary.kind, EventKind::Op);
        assert_eq!(summary.u64_field("admitted"), Some(4));
        assert_eq!(summary.u64_field("rejected"), Some(0));
        assert_eq!(summary.bool_field("admission"), Some(false));
        // The fleet.summary rollup precedes it, so obs consumers see the
        // standard event taxonomy.
        assert!(events.iter().any(|e| e.name == FleetSummary::NAME));
    }

    #[test]
    fn interleave_rebuilds_round_robin_order() {
        // 2 engines; engine 0 ran tickets [0, 2], engine 1 ran [3, 1]
        // (a High overtake): the oracle order alternates lanes.
        let order = vec![vec![0, 2], vec![3, 1]];
        assert_eq!(interleave_execution_order(&order), Some(vec![0, 3, 2, 1]));
        // Uneven (valid round-robin) split: 3 jobs over 2 engines.
        let order = vec![vec![0, 2], vec![1]];
        assert_eq!(interleave_execution_order(&order), Some(vec![0, 1, 2]));
    }

    #[test]
    fn interleave_rejects_impossible_splits() {
        // Engine 1 ran two jobs while engine 0 ran none, or engine 1 ran
        // more than engine 0: no round-robin submission order produces
        // either.
        assert_eq!(interleave_execution_order(&[Vec::new(), vec![0, 1]]), None);
        assert_eq!(interleave_execution_order(&[vec![0], vec![1, 2]]), None);
    }

    #[test]
    fn interleave_handles_empty_and_single_engine_inputs() {
        // Degenerate inputs are valid round-robin splits: no engines and
        // no jobs...
        assert_eq!(interleave_execution_order(&[]), Some(Vec::new()));
        // ...one engine with no jobs...
        assert_eq!(interleave_execution_order(&[Vec::new()]), Some(Vec::new()));
        // ...and one engine, whose realized order IS the oracle order.
        assert_eq!(interleave_execution_order(&[vec![4, 2, 7]]), Some(vec![4, 2, 7]));
    }

    #[test]
    fn oracle_order_is_none_after_a_failover() {
        let handle = Handle::start(ServeConfig {
            engines: 2,
            ..ServeConfig::default()
        });
        handle
            .pool()
            .set_avail_plan(1, Some(EngineFaultPlan::crash_at(0)));
        // High, so no submission racing the death is shed.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| handle.submit(qr_job(90 + i), Priority::High).unwrap())
            .collect();
        for t in tickets {
            t.wait().expect("re-homed, not lost").expect("well-posed");
        }
        let out = handle.drain();
        // Engine 1 died on ticket 1; everything ran on engine 0, which no
        // static round-robin over two engines reproduces.
        assert_eq!(out.counters.deaths, 1);
        assert_eq!(out.execution_order[0].len(), 4);
        assert!(out.execution_order[1].is_empty());
        assert_eq!(out.oracle_order(), None);
    }

    #[test]
    fn submit_after_close_rejects_both_priorities() {
        let handle = Handle::start(ServeConfig {
            engines: 1,
            ..ServeConfig::default()
        });
        handle.close();
        assert_eq!(
            handle.submit(qr_job(40), Priority::High).unwrap_err(),
            ServeError::Draining
        );
        assert_eq!(
            handle.submit(qr_job(41), Priority::Low).unwrap_err(),
            ServeError::Draining
        );
        let out = handle.drain();
        assert_eq!(out.counters.admitted, 0);
    }

    #[test]
    fn drain_with_zero_submissions_is_empty_but_consistent() {
        let out = Handle::start(ServeConfig {
            engines: 3,
            ..ServeConfig::default()
        })
        .drain();
        assert_eq!(out.counters.admitted, 0);
        assert_eq!(out.counters.completed, 0);
        assert_eq!(out.counters.failed, 0);
        let c = out.counters;
        assert_eq!((c.deaths, c.lost, c.deadline_missed, c.shed), (0, 0, 0, 0));
        assert!(out.report.jobs.is_empty());
        assert_eq!(out.report.engines.len(), 3);
        assert!(out.marks.is_empty());
        assert_eq!(out.execution_order, vec![Vec::<usize>::new(); 3]);
        assert_eq!(out.oracle_order(), Some(Vec::new()));
    }

    #[test]
    fn engine_loss_fails_over_and_outputs_match_the_oracle() {
        use tcqr_batch::{output_fingerprint, BatchScheduler, EnginePool};

        let handle = Handle::start(ServeConfig {
            engines: 2,
            ..ServeConfig::default()
        });
        // Crash engine 0 on its first committed op; plugs commit none, so
        // the first real job popped there dies mid-run.
        handle
            .pool()
            .set_avail_plan(0, Some(EngineFaultPlan::crash_at(0)));
        let (p0, g0) = plug();
        let (p1, g1) = plug();
        let _t0 = handle.submit(p0, Priority::Low).unwrap();
        let _t1 = handle.submit(p1, Priority::Low).unwrap();
        // Tickets 2..6 pin round-robin: 2, 4 on engine 0; 3, 5 on engine 1.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| handle.submit(qr_job(50 + i), Priority::Low).unwrap())
            .collect();
        open_gate(&g0);
        open_gate(&g1);
        let out = handle.drain();

        assert_eq!(out.counters.deaths, 1);
        // The crashed job (ticket 2) plus the one queued behind it
        // (ticket 4) re-homed onto engine 1; the crashed one was a re-run.
        assert_eq!(out.counters.failovers, 2);
        assert_eq!(out.counters.retries, 1);
        assert_eq!((out.counters.lost, out.counters.deadline_missed), (0, 0));
        assert_eq!(out.counters.admitted, 6);
        assert_eq!(out.counters.completed, 6);
        assert_eq!(out.counters.failed, 0);
        assert_eq!(out.pool.health(0), EngineHealth::Dead);
        // Engine 0 only ever finished its plug; engine 1 ran its own lane
        // then the re-homed work in failover order.
        assert_eq!(out.execution_order[0], vec![0]);
        assert_eq!(out.execution_order[1], vec![1, 3, 5, 2, 4]);
        assert!(out.marks.iter().any(|m| m.kind == "death" && m.engine == 0));
        assert_eq!(out.marks.iter().filter(|m| m.kind == "requeue").count(), 2);

        // Every completed output is bit-identical to the healthy-pool
        // batch oracle: outputs are pure functions of the job.
        let oracle_jobs: Vec<BatchJob> = (0..4)
            .map(|i| BatchJob {
                job: qr_job(50 + i),
                policy: RecoveryPolicy::default(),
                precision: None,
            })
            .collect();
        let oracle = BatchScheduler::with_threads(1).run(
            &EnginePool::new(1, EngineConfig::default()),
            &oracle_jobs,
        );
        for (t, want) in tickets.into_iter().zip(&oracle.results) {
            let got = t.wait().expect("ticket resolves").expect("well-posed job");
            let want = want.as_ref().expect("oracle job is well-posed");
            assert_eq!(output_fingerprint(&got), output_fingerprint(want));
        }
    }

    #[test]
    fn deadline_watchdog_cancels_late_jobs_typed() {
        let handle = Handle::start(ServeConfig {
            engines: 1,
            resilience: ResilienceConfig {
                deadline_secs: Some(0.0),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        });
        let (p, g) = plug();
        let _t0 = handle.submit(p, Priority::Low).unwrap();
        // Both enqueue at clock 0 (the plug charges nothing). Ticket 1
        // pops at clock 0 (wait 0, not > 0) and runs; ticket 2 pops after
        // ticket 1 advanced the clock and blows the zero deadline.
        let t1 = handle.submit(qr_job(60), Priority::Low).unwrap();
        let t2 = handle.submit(qr_job(61), Priority::Low).unwrap();
        open_gate(&g);
        let out = handle.drain();
        assert!(t1.wait().expect("ran").is_ok());
        assert_eq!(
            t2.wait().unwrap_err(),
            ServeError::DeadlineExceeded { deadline_secs: 0.0 }
        );
        assert_eq!(out.counters.deadline_missed, 1);
        assert_eq!(out.counters.completed, 2, "plug and ticket 1; ticket 2 never ran");
        assert!(out.marks.iter().any(|m| m.kind == "deadline" && m.ticket == Some(2)));
    }

    #[test]
    fn breaker_quarantines_then_rehabilitates_via_reset_proof() {
        let handle = Handle::start(ServeConfig {
            engines: 1,
            resilience: ResilienceConfig {
                quarantine_after: 2,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        });
        let (p, g) = plug();
        let _t0 = handle.submit(p, Priority::Low).unwrap();
        let bad = || Job::rgsqrf(uniform_pm1(4, 8, &mut rng(9)).convert(), RgsqrfConfig::default());
        let t1 = handle.submit(bad(), Priority::Low).unwrap();
        let t2 = handle.submit(bad(), Priority::Low).unwrap();
        let t3 = handle.submit(qr_job(62), Priority::Low).unwrap();
        open_gate(&g);
        let out = handle.drain();
        assert!(matches!(t1.wait().unwrap(), Err(TcqrError::ShapeMismatch { .. })));
        assert!(matches!(t2.wait().unwrap(), Err(TcqrError::ShapeMismatch { .. })));
        // Two consecutive typed failures tripped the breaker; the engine
        // passed the reset-in-place cleanliness proof, re-entered
        // rotation, and ran the good job.
        assert!(t3.wait().unwrap().is_ok());
        assert_eq!(out.counters.quarantines, 1);
        assert_eq!(out.counters.rehabilitated, 1);
        assert_eq!(out.pool.health(0), EngineHealth::Healthy);
        assert!(out.marks.iter().any(|m| m.kind == "quarantine"));
        assert!(out.marks.iter().any(|m| m.kind == "rehabilitated"));
    }

    #[test]
    fn degraded_fleet_sheds_low_priority_first() {
        let handle = Handle::start(ServeConfig {
            engines: 2,
            ..ServeConfig::default()
        });
        handle
            .pool()
            .set_avail_plan(0, Some(EngineFaultPlan::crash_at(0)));
        let (p0, g0) = plug();
        let (p1, g1) = plug();
        let _t0 = handle.submit(p0, Priority::Low).unwrap();
        // High, so lane order (not whether worker 1 has popped it yet)
        // puts the plug ahead of ticket 3 on engine 1.
        let _t1 = handle.submit(p1, Priority::High).unwrap();
        let t2 = handle.submit(qr_job(70), Priority::Low).unwrap();
        assert_eq!(t2.engine(), 0);
        open_gate(&g0);
        wait_for_death(&handle, 0);
        // One engine dead and the backlog (plug 1 + re-homed ticket 2)
        // covers the lone survivor: Low intake sheds, High still lands.
        let err = handle.submit(qr_job(71), Priority::Low).unwrap_err();
        assert_eq!(err, ServeError::Degraded { dead: 1, alive: 1 });
        let t4 = handle.submit(qr_job(72), Priority::High).unwrap();
        assert_eq!(t4.engine(), 1);
        open_gate(&g1);
        let out = handle.drain();
        assert!(t2.wait().unwrap().is_ok(), "re-homed Low job still completes");
        assert!(t4.wait().unwrap().is_ok());
        assert_eq!(out.counters.shed, 1);
        assert_eq!(out.counters.deaths, 1);
        assert_eq!(out.counters.admitted, 4);
        assert_eq!(out.counters.completed, 4);
        // High overtook the re-homed Low job on the survivor.
        assert_eq!(out.execution_order[1], vec![1, 3, 2]);
    }

    #[test]
    fn no_survivors_resolves_every_ticket_typed() {
        let handle = Handle::start(ServeConfig {
            engines: 1,
            resilience: ResilienceConfig {
                max_retries: 0,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        });
        handle
            .pool()
            .set_avail_plan(0, Some(EngineFaultPlan::crash_at(0)));
        let (p, g) = plug();
        let _t0 = handle.submit(p, Priority::Low).unwrap();
        let t1 = handle.submit(qr_job(80), Priority::Low).unwrap();
        let t2 = handle.submit(qr_job(81), Priority::Low).unwrap();
        open_gate(&g);
        wait_for_death(&handle, 0);
        // The whole rotation is gone: intake rejects even High, typed.
        let err = handle.submit(qr_job(82), Priority::High).unwrap_err();
        assert_eq!(err, ServeError::Degraded { dead: 1, alive: 0 });
        let out = handle.drain();
        // The crashed job had no retry budget; the queued one had no
        // survivor. Both tickets resolved, nothing silently dropped.
        assert_eq!(t1.wait().unwrap_err(), ServeError::EngineLost { engine: 0, job: 1 });
        assert_eq!(t2.wait().unwrap_err(), ServeError::EngineLost { engine: 0, job: 2 });
        assert_eq!(out.counters.lost, 2);
        assert_eq!(out.counters.deaths, 1);
        assert_eq!(out.counters.completed, 1, "only the plug finished");
        assert_eq!(out.marks.iter().filter(|m| m.kind == "lost").count(), 2);
    }
}
