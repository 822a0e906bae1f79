//! # tcqr-core
//!
//! The primary contribution of *"High Accuracy Matrix Computations on Neural
//! Engines: A Study of QR Factorization and its Applications"* (HPDC '20),
//! implemented against the simulated neural engine of [`tensor_engine`]:
//!
//! - [`rgsqrf`] — recursive Gram-Schmidt QR (Algorithm 1), the factorization
//!   that exposes enough locality for tensor cores;
//! - [`caqr`] + [`mgs`] — the communication-avoiding Gram-Schmidt panel
//!   (§3.1.3, Algorithm 2), entered through [`caqr::tsqr`];
//! - [`reortho`] — re-orthogonalization, "twice is enough" (§3.3);
//! - [`scaling`] — exact power-of-two column scaling against FP16
//!   overflow/underflow (§3.5);
//! - [`health`] — numerical-health monitors: orthogonality-drift sampling,
//!   scaling-exponent reporting, residual-decay slopes (off by default,
//!   switched on by [`health::set_enabled`]);
//! - [`lls`] — least-squares solvers: RGSQRF direct, cuSOLVER-style
//!   baselines, and the CGLS/LSQR refiners with R as right preconditioner
//!   (Algorithm 3);
//! - [`lowrank`] — QR-SVD optimal low-rank approximation (§3.4);
//! - [`solver`] — the [`solver::Solver`] trait: one dispatch surface over
//!   the `try_*` entry points, shared by the batch scheduler and the
//!   `tcqr-serve` service (new workloads implement it once and plug into
//!   both);
//! - [`recovery`] + [`error`] — the fault-recovery ladder (retry, dynamic
//!   rescale, bf16/f32 escalation) behind the engine's ABFT detectors, and
//!   the typed errors the `try_*` solver entry points return;
//! - [`cholqr`] — the CholeskyQR/CholeskyQR2 related-work baseline (§5);
//! - [`perf_est`] — the paper's analytic performance formulas (4)/(7) and
//!   the Table 2 hybrid pipeline model;
//! - [`cost`] — the one charge schedule: every modeled charge sequence a
//!   solver and its paper-scale charge-only replay both make, written once
//!   and called by both.
//!
//! Each operation has one body and one way in: a solver's `try_*` function
//! returns `Result<_, TcqrError>`, and its plain name (`cgls_qr`,
//! `lu_ir_solve`, ...) is a one-line shell that panics with the error's
//! message.
//!
//! ## Quick start
//!
//! ```
//! use densemat::gen::{self, rng};
//! use tcqr_core::rgsqrf::{rgsqrf, RgsqrfConfig};
//! use tensor_engine::GpuSim;
//!
//! let a = gen::gaussian(512, 128, &mut rng(0)).convert::<f32>();
//! let engine = GpuSim::default(); // TensorCore in the trailing update
//! let f = rgsqrf(&engine, a.as_ref(), &RgsqrfConfig::default());
//! assert_eq!(f.q.ncols(), 128);
//! println!("modeled V100 time: {:.3} ms", engine.clock() * 1e3);
//! ```

#![warn(missing_docs)]

pub mod caqr;
pub mod cholqr;
pub mod cost;
pub mod error;
pub mod error_analysis;
pub mod health;
pub mod lls;
pub mod lowrank;
pub mod lu_ir;
pub mod mgs;
pub mod perf_est;
pub mod recovery;
pub mod reortho;
pub mod rgsqrf;
pub mod scaling;
pub mod solver;

pub use error::TcqrError;
pub use lls::{RefineConfig, RefineOutcome};
pub use solver::{
    LlsMethod, LlsProblem, LuIrProblem, QrSvdProblem, RgsqrfProblem, SolveOutput, Solver,
};
pub use recovery::{OnExhausted, RecoveryPolicy, Rung};
pub use rgsqrf::{PanelKind, QrFactors, RgsqrfConfig};
