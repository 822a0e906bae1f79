//! # tcqr-batch
//!
//! Batched multi-engine execution for the HPDC '20 QR reproduction.
//!
//! The paper motivates TensorCore QR with data-center workloads: many
//! independent least-squares and low-rank problems, not one giant
//! factorization. This crate adds that layer on top of the single-tenant
//! solvers of [`tcqr_core`]:
//!
//! - [`EnginePool`] — N independent [`tensor_engine::GpuSim`] instances
//!   sharing one [`tensor_engine::EngineConfig`] / performance model, with
//!   per-engine fault plans and precision overrides (each tenant keeps its
//!   own recovery ladder);
//! - [`Job`] / [`BatchJob`] — heterogeneous job descriptors (built by
//!   [`Job::rgsqrf`], [`Job::lls`], [`Job::qr_svd`], [`Job::lu_ir`], or
//!   [`Job::custom`] for any other [`tcqr_core::Solver`]) that dispatch
//!   through the shared [`tcqr_core::Solver`] trait and return typed
//!   [`tcqr_core::TcqrError`]s per job;
//! - [`BatchScheduler`] — drains a job queue over scoped threads, one
//!   engine-owning lane at a time per thread, returning per-job
//!   results plus a [`FleetReport`] (per-engine clocks and ledgers,
//!   aggregate simulated throughput, makespan vs. ideal, queue-wait
//!   histogram) fed from the existing ledger/trace machinery and narrated
//!   as typed trace events, which `tcqr_metrics` folds into the
//!   `tcqr_batch_*` series;
//! - [`ticket`] — the ticket lifecycle the scheduler and the `tcqr-serve`
//!   service both drive: a pure [`TicketLedger`] of counters, depth, and
//!   invariants, and the one placement rule ([`place`]);
//! - [`execute`] — the one job-execution step both run each job through;
//! - [`jobgen`] — a self-contained seeded workload generator for benches
//!   and tests (no external RNG crate, so generated problems are identical
//!   under every build configuration).
//!
//! ## Determinism contract
//!
//! Batched results are **bit-identical regardless of worker count or
//! scheduling order**. The scheduler assigns job `i` to the `i mod S`-th
//! engine *in rotation* (static round-robin lanes over
//! [`pool::EnginePool::alive_engines`] — identical to `i mod K` when every
//! engine is healthy); each lane runs its jobs sequentially in assignment
//! order on an engine that the jobs own for their lifetime, and the
//! worker threads merely take whole lanes. Scheduling therefore
//! decides *when* a lane executes, never *what* it computes: outputs,
//! per-engine ledgers/clocks, and per-engine fault-injection schedules do
//! not depend on thread count. The simulated queue-wait and makespan
//! figures come from the engines' modeled clocks, which are equally
//! scheduling-independent.
//!
//! ## Failover preserves the contract
//!
//! When an engine dies mid-run (a `tensor_engine::avail` crash), its lane
//! unwinds at the job boundary and every job the corpse stranded is
//! re-dispatched in a new *wave*: stranded indices, ascending, are dealt
//! over the surviving rotation by the same [`place`] rule as the first
//! deal — a pure permutation of the lane assignment, so the bit-identity
//! argument above still applies wave by wave. Engine crashes fire off
//! deterministic per-engine op counters, lanes run their jobs
//! sequentially, and wave boundaries are joins; no part of the
//! re-dispatch depends on worker count. Job outputs are pure
//! functions of the job (engine accumulated state never feeds the
//! numerics), so a healthy-pool [`BatchScheduler`] run of the same jobs
//! remains the bit-exact oracle for every job that completes, wherever it
//! ended up running.
//!
//! ```
//! use tcqr_batch::{jobgen, BatchScheduler, EnginePool};
//! use tensor_engine::EngineConfig;
//!
//! let pool = EnginePool::new(2, EngineConfig::default());
//! let jobs = jobgen::job_mix(&jobgen::JobMixConfig {
//!     seed: 7,
//!     jobs: 4,
//!     m: 96,
//!     n: 24,
//! });
//! let out = BatchScheduler::new().run(&pool, &jobs);
//! assert_eq!(out.results.len(), 4);
//! assert!(out.results.iter().all(|r| r.is_ok()));
//! assert!(out.report.makespan_secs() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod fingerprint;
pub mod fleet;
pub mod job;
pub mod jobgen;
pub mod pool;
pub mod scheduler;
pub mod ticket;

pub use fleet::{EngineReport, FleetReport, JobReport};
pub use job::{output_fingerprint, result_fingerprint, BatchJob, Job, JobOutput, LlsMethod};
pub use pool::{EngineHealth, EnginePool};
pub use scheduler::{execute, BatchOutcome, BatchScheduler};
pub use ticket::{
    place, rehome, Claim, Counters, FleetMark, Priority, Refusal, Step, TicketLedger,
};
