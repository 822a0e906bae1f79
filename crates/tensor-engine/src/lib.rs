//! # tensor-engine
//!
//! The simulated neural engine for the HPDC '20 QR reproduction.
//!
//! The paper runs on an NVIDIA V100's TensorCore units; this crate stands in
//! for the device with two coupled pieces:
//!
//! - **Numerics** ([`engine::GpuSim`]): mixed-precision GEMM that rounds its
//!   inputs through a software 16-bit format (binary16 or bfloat16, from
//!   [`halfsim`]) and accumulates in `f32` — bit-faithful to the TensorCore
//!   pipeline up to accumulation order, because the product of two binary16
//!   values is exact in binary32.
//! - **Time** ([`perf::PerfModel`]): an analytic device model calibrated to
//!   the paper's own Table 3 V100 microbenchmarks ([`calibration`]), charged
//!   to a per-phase clock ([`counters`]) as the numerics execute.
//!
//! One execution therefore produces both the accuracy data (Figures 3, 4, 9;
//! Table 4) and the performance data (Figures 1, 2, 5-8; Table 2) of the
//! paper.
//!
//! ```
//! use densemat::{Mat, Op};
//! use tensor_engine::{GpuSim, Phase};
//!
//! let engine = GpuSim::default(); // TensorCore in the trailing update
//! let a = Mat::from_fn(64, 32, |i, j| (i + j) as f32 * 0.01);
//! let b = Mat::from_fn(32, 16, |i, j| (i * j) as f32 * 0.01);
//! let mut c: Mat<f32> = Mat::zeros(64, 16);
//!
//! // Executes real fp16-rounded numerics AND charges modeled V100 time.
//! engine.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(),
//!                 Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
//!
//! assert!(engine.clock() > 0.0);                    // modeled seconds
//! assert!(engine.counters().tc_flops > 0.0);        // ran on tensor cores
//! assert_eq!(engine.counters().round.overflow, 0);  // inputs fit fp16
//! ```

#![warn(missing_docs)]

pub mod avail;
pub mod calibration;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod halfmat;
pub mod perf;

pub use avail::{AvailStats, EngineCrash, EngineFaultKind, EngineFaultPlan, PlannedEngineFault};
pub use counters::{Counters, Ledger, Phase};
pub use engine::{
    global_precision, set_global_precision, EngineConfig, GlobalPrecisionGuard, GpuSim,
    PrecisionOverride,
};
pub use fault::{FaultKind, FaultPlan, FaultStats, GlobalPlanGuard};
pub use halfmat::{CachedOperand, HalfMat};
pub use perf::{Class, PerfModel};
