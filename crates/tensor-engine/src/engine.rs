//! The simulated neural engine.
//!
//! [`GpuSim`] plays the role of the V100 in the paper: algorithms hand it
//! their GEMMs and panel factorizations, and it
//!
//! 1. **executes the numerics faithfully** — a TensorCore GEMM rounds both
//!    inputs through the configured 16-bit format ([`halfsim`]) and
//!    accumulates in `f32`, which is bit-equivalent to the hardware pipeline
//!    up to accumulation order;
//! 2. **charges modeled time** to a simulated clock using the
//!    Table-3-calibrated [`crate::perf::PerfModel`], broken down
//!    by [`Phase`] so the paper's panel/update analyses can be reproduced;
//! 3. **counts events** — flops per class and, crucially for §3.5,
//!    overflow/underflow during input rounding.
//!
//! Baseline solvers that do not route numerics through the engine (the f64
//! cuSOLVER stand-ins) still charge their modeled cost via the `charge_*`
//! methods, so every method in an experiment reads off the same clock.
//!
//! ## Tracing
//!
//! Every routed operation additionally emits one structured [`tcqr_trace`]
//! event carrying the op kind, shape, [`Class`], [`Phase`], the modeled
//! seconds charged, and the rounding statistics of its half-precision
//! inputs. Events go to the engine's [`Tracer`], fixed when the engine is
//! built: by default the process-global one (a no-op until
//! `tcqr_trace::install_global` runs), or an engine-local tracer via
//! [`GpuSim::with_tracer`].
//! The event's `secs` field is the *same* `f64` charged to the [`Ledger`],
//! so summing a trace per phase reproduces the ledger exactly (up to f64
//! re-association). The first FP16 overflow→∞ observed during input
//! rounding *per op kind* additionally emits a `Warn` event
//! (`engine.fp16_overflow`), the §3.5 failure mode made visible; the
//! [`Counters::overflow_ops`] tally counts every op that saturated.
//!
//! ## Fault injection
//!
//! When an active [`crate::fault::FaultPlan`] is armed (per engine via
//! [`GpuSim::set_fault_plan`], or process-wide via
//! [`crate::fault::set_global_plan`] for engines constructed afterwards),
//! every TensorCore GEMM additionally runs the ABFT checksum pipeline of
//! [`crate::fault`]: scheduled faults are injected (`fault.injected` op
//! events) and checksum / non-finite violations are flagged
//! (`fault.detected` warnings, counted in [`GpuSim::fault_stats`]). An
//! unarmed engine pays one relaxed atomic load per GEMM for all of this.

use crate::avail::{self, AvailAction, AvailState, AvailStats, EngineCrash, EngineFaultPlan};
use crate::counters::{Counters, Ledger, Phase};
use crate::fault::{self, FaultKind, FaultPlan, FaultState, FaultStats};
use crate::halfmat::{CachedOperand, HalfMat};
use crate::perf::{Class, PerfModel};
use densemat::par::Scratch;
use densemat::{gemm, Mat, MatMut, MatRef, Op};
use halfsim::{Bf16Format, Fp16Format, HalfFormat, RoundStats};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use tcqr_trace::schema::{FaultDetected, FaultInjected};
use tcqr_trace::{Fingerprint, Tracer, Value};

/// Process-wide engine-id source, used to tag [`HalfMat`] caches with the
/// engine that created them.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// Engine configuration: where TensorCore is allowed to run.
///
/// The default matches the paper's chosen operating point (Figure 7's middle
/// bar): TensorCore in the trailing update, full FP32 in the panel.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Use TensorCore for trailing-update GEMMs.
    pub tc_update: bool,
    /// Use TensorCore inside panel factorizations.
    pub tc_panel: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tc_update: true,
            tc_panel: false,
        }
    }
}

impl EngineConfig {
    /// All-FP32 configuration (TensorCore disabled everywhere) — the
    /// rightmost bars of Figure 7.
    pub fn no_tensorcore() -> Self {
        EngineConfig {
            tc_update: false,
            tc_panel: false,
        }
    }

    /// TensorCore everywhere — the leftmost bars of Figure 7.
    pub fn tensorcore_everywhere() -> Self {
        EngineConfig {
            tc_update: true,
            tc_panel: true,
        }
    }
}

/// `precision_override` encoding: no override, the configured format runs.
const OVERRIDE_NONE: u8 = 0;
/// `precision_override` encoding: round TC operands through bfloat16.
const OVERRIDE_BF16: u8 = 1;
/// `precision_override` encoding: TensorCore disabled, full-f32 GEMMs.
const OVERRIDE_F32: u8 = 2;
/// `precision_override` encoding: error-corrected TC GEMM (hi/lo split).
const OVERRIDE_EC: u8 = 3;

/// A temporary precision escalation, applied between recovery-ladder
/// attempts (see `tcqr_core::recovery`): re-run the corrupted computation
/// with error-corrected tensor-core GEMM, wider-range operand rounding
/// (bfloat16), or the tensor cores disabled entirely (full f32). Installed
/// via [`GpuSim::set_precision_override`] and cleared with `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionOverride {
    /// Error-corrected TC GEMM (Ootomo & Yokota, arXiv 2203.03341): each
    /// f32 operand is split into hi/lo binary16 parts and three TC products
    /// are accumulated in f32, recovering ~2^-22 relative operand precision
    /// from the fp16 multipliers at three TC products plus split traffic —
    /// far cheaper than the full-f32 escalation on GEMM-rich shapes.
    ErrorCorrected,
    /// Round TC operands through bfloat16 instead of the configured format
    /// (f32's exponent range: immune to fp16 overflow, less precise).
    Bf16,
    /// Disable the simulated tensor cores: every GEMM runs in full f32.
    Fp32,
}

/// Encode an override as its `precision_override` atomic value.
fn encode_override(o: Option<PrecisionOverride>) -> u8 {
    match o {
        None => OVERRIDE_NONE,
        Some(PrecisionOverride::Bf16) => OVERRIDE_BF16,
        Some(PrecisionOverride::Fp32) => OVERRIDE_F32,
        Some(PrecisionOverride::ErrorCorrected) => OVERRIDE_EC,
    }
}

/// Process-global precision override, inherited by every [`GpuSim`]
/// constructed afterwards — how `repro --precision` reaches the engines an
/// experiment builds internally (mirrors [`fault::set_global_plan`]).
static GLOBAL_PRECISION: Mutex<Option<PrecisionOverride>> = Mutex::new(None);

/// Install (or clear, with `None`) the process-global precision override.
/// Only engines constructed *after* the call observe it; prefer the RAII
/// [`GlobalPrecisionGuard`] so a panicking experiment cannot leak the
/// override into the next one.
pub fn set_global_precision(o: Option<PrecisionOverride>) {
    *GLOBAL_PRECISION.lock().unwrap() = o;
}

/// The currently installed process-global precision override.
pub fn global_precision() -> Option<PrecisionOverride> {
    *GLOBAL_PRECISION.lock().unwrap()
}

/// RAII guard for the process-global precision override: installs it on
/// [`GlobalPrecisionGuard::arm`] and clears it on drop (including unwind).
#[must_use = "the override is cleared when the guard drops"]
pub struct GlobalPrecisionGuard {
    _priv: (),
}

impl GlobalPrecisionGuard {
    /// Install `o` as the process-global override for the guard's lifetime.
    pub fn arm(o: PrecisionOverride) -> Self {
        set_global_precision(Some(o));
        GlobalPrecisionGuard { _priv: () }
    }
}

impl Drop for GlobalPrecisionGuard {
    fn drop(&mut self) {
        set_global_precision(None);
    }
}

#[derive(Default)]
struct State {
    ledger: Ledger,
    counters: Counters,
    /// Op names that have already raised the FP16 overflow→∞ warning, so a
    /// solve that overflows on every GEMM warns once per *op kind* (a new
    /// kind overflowing is new information), not thousands of times.
    /// Cleared by [`GpuSim::reset`].
    warned_overflow_ops: BTreeSet<&'static str>,
}

/// One routed operation, on its way to the counters, the ledger, and the
/// trace. `secs`/`flops` are zero for uncharged ops (composite kernels
/// whose time is charged once as an aggregate).
struct OpRecord {
    name: &'static str,
    phase: Phase,
    class: Option<Class>,
    secs: f64,
    flops: f64,
    charged: bool,
    gemm_call: bool,
    panel_call: bool,
    round: RoundStats,
}

impl OpRecord {
    fn charge(name: &'static str, phase: Phase, class: Class, secs: f64, flops: f64) -> Self {
        OpRecord {
            name,
            phase,
            class: Some(class),
            secs,
            flops,
            charged: true,
            gemm_call: false,
            panel_call: false,
            round: RoundStats::default(),
        }
    }
}

/// An injection the armed GEMM path applied and kept.
struct InjectedFault {
    kind: FaultKind,
    /// Row of the corrupted element / tile origin (0 for NanColumn).
    row: usize,
    /// Column of the corrupted element / tile origin, or the inner index
    /// of the flipped operand element for BitFlip.
    col: usize,
    /// Flipped encoding bit (BitFlip only, 0 otherwise).
    bit: u32,
}

/// What one armed GEMM did: the injection it kept (if any) and the
/// detector violation it raised (if any).
struct ArmedOutcome {
    injected: Option<InjectedFault>,
    violation: Option<fault::AbftViolation>,
}

/// The simulated neural engine (see module docs).
pub struct GpuSim {
    cfg: EngineConfig,
    pm: PerfModel,
    state: Mutex<State>,
    /// Where events go, fixed at construction. A global-facade tracer is
    /// enabled only while a global sink is installed, so a traced op checks
    /// it per op and takes no lock.
    tracer: Tracer,
    /// Process-unique id, stamped into [`HalfMat`] caches.
    id: u64,
    /// Bumped by [`GpuSim::reset`]; a [`HalfMat`] from an older generation
    /// is stale and rejected.
    generation: AtomicU64,
    /// Fast-path flag mirroring "an *active* [`FaultPlan`] is installed":
    /// one relaxed load per GEMM when disarmed.
    fault_armed: AtomicBool,
    /// Injection state (plan, RNG, campaign counters) when a plan is set.
    fault: Mutex<Option<FaultState>>,
    /// Recovery-ladder precision escalation (`OVERRIDE_*` encoding).
    precision_override: AtomicU8,
    /// Fast-path flag mirroring "an *active* [`EngineFaultPlan`] is
    /// installed": one relaxed load per committed op when disarmed.
    avail_armed: AtomicBool,
    /// Availability-fault state (plan, op counter, campaign counters).
    avail: Mutex<Option<AvailState>>,
}

impl Default for GpuSim {
    fn default() -> Self {
        GpuSim::new(EngineConfig::default())
    }
}

impl GpuSim {
    /// Create an engine with the given configuration and a zeroed clock.
    /// Events go to the process-global tracer (a no-op until a global sink
    /// is installed).
    pub fn new(cfg: EngineConfig) -> Self {
        GpuSim::with_tracer(cfg, Tracer::global())
    }

    /// Create an engine that emits events through a specific tracer —
    /// needed by tests that must not share the process-global sink.
    ///
    /// A process-global [`FaultPlan`] (see [`fault::set_global_plan`]) and
    /// a process-global precision override (see [`set_global_precision`])
    /// are picked up here, so engines created inside an experiment inherit
    /// the campaign / precision mode the bench harness armed.
    pub fn with_tracer(cfg: EngineConfig, tracer: Tracer) -> Self {
        let plan = fault::global_plan();
        let armed = plan.as_ref().is_some_and(FaultPlan::is_active);
        let precision = encode_override(global_precision());
        GpuSim {
            cfg,
            pm: PerfModel,
            state: Mutex::new(State::default()),
            tracer,
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            fault_armed: AtomicBool::new(armed),
            fault: Mutex::new(plan.map(FaultState::new)),
            precision_override: AtomicU8::new(precision),
            avail_armed: AtomicBool::new(false),
            avail: Mutex::new(None),
        }
    }

    /// Install (or clear, with `None`) this engine's fault-injection plan.
    ///
    /// The engine arms itself only for an *active* plan
    /// ([`FaultPlan::is_active`]); installing a constructed-but-inactive
    /// plan leaves the zero-cost fast path in place and every output
    /// bit-identical to a run with no plan. Resets the campaign counters.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let armed = plan.as_ref().is_some_and(FaultPlan::is_active);
        *self.fault.lock().unwrap() = plan.map(FaultState::new);
        self.fault_armed.store(armed, Ordering::Release);
    }

    /// Whether an active fault plan is currently armed on this engine.
    pub fn fault_armed(&self) -> bool {
        self.fault_armed.load(Ordering::Relaxed)
    }

    /// Snapshot of the fault campaign counters (zeros when no plan is set).
    /// The recovery ladder diffs this across an attempt to decide whether
    /// the attempt was corrupted.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .lock()
            .unwrap()
            .as_ref()
            .map(FaultState::stats)
            .unwrap_or_default()
    }

    /// Install (or clear, with `None`) this engine's availability-fault
    /// plan (see [`crate::avail`]).
    ///
    /// Like [`GpuSim::set_fault_plan`], the engine arms itself only for an
    /// *active* plan; an inactive plan keeps the zero-cost fast path.
    /// Installing a plan starts a fresh campaign: the op counter restarts
    /// and a previously dead engine is revived (chaos harnesses re-arm
    /// between waves).
    pub fn set_avail_plan(&self, plan: Option<EngineFaultPlan>) {
        let armed = plan.as_ref().is_some_and(EngineFaultPlan::is_active);
        *self.avail.lock().unwrap() = plan.map(AvailState::new);
        self.avail_armed.store(armed, Ordering::Release);
    }

    /// Whether an active availability-fault plan is armed on this engine.
    pub fn avail_armed(&self) -> bool {
        self.avail_armed.load(Ordering::Relaxed)
    }

    /// Snapshot of the availability campaign counters (zeros when no plan
    /// is installed).
    pub fn avail_stats(&self) -> AvailStats {
        self.avail
            .lock()
            .unwrap()
            .as_ref()
            .map(AvailState::stats)
            .unwrap_or_default()
    }

    /// Scrub the engine between tenants: zero the ledger, counters, and
    /// overflow latch, restart the data-fault campaign, drop the
    /// availability plan, revive a dead engine, clear any precision
    /// escalation, and invalidate every [`HalfMat`] cache (generation
    /// bump). Returns `true` iff the scrubbed state is bit-identical to a
    /// freshly constructed engine's [`GpuSim::state_fingerprint`] — the
    /// cleanliness proof a quarantine controller demands before putting
    /// the engine back in rotation.
    ///
    /// Unlike [`GpuSim::reset`] this does **not** drop state buffered in
    /// the trace sink: in a live fleet the trace is a shared, append-only
    /// audit log, and scrubbing one engine must not unpublish the fleet's
    /// history.
    pub fn reset_in_place(&self) -> bool {
        *self.state.lock().unwrap() = State::default();
        {
            let mut f = self.fault.lock().unwrap();
            if let Some(st) = f.as_mut() {
                *st = FaultState::new(st.plan.clone());
            }
        }
        *self.avail.lock().unwrap() = None;
        self.avail_armed.store(false, Ordering::Release);
        // Back to the ambient precision: a tenant's escalation is dropped,
        // but a process-global override (how `repro --precision` configures
        // a whole run) is what a freshly built engine would start with.
        self.precision_override
            .store(encode_override(global_precision()), Ordering::Release);
        self.generation.fetch_add(1, Ordering::Relaxed);
        let fresh = GpuSim::with_tracer(self.cfg, Tracer::disabled());
        self.state_fingerprint() == fresh.state_fingerprint()
    }

    /// Order-sensitive FNV-1a fingerprint of the engine's *scrubbable*
    /// state: per-phase ledger seconds, every counter, fault-campaign
    /// stats, availability stats (a crash included), and the precision
    /// override. Identity (`id`/`generation`) and installed-but-unfired
    /// plans are deliberately excluded — two clean engines fingerprint
    /// identically regardless of what campaigns they are armed with.
    pub fn state_fingerprint(&self) -> u64 {
        let av = self.avail_stats();
        let mut fp = Fingerprint::new();
        self.push_accounting(&mut fp);
        fp.push_u64(av.ops);
        fp.push_u64(av.hangs);
        fp.push_u64(av.slowed_ops);
        fp.push_f64(av.stall_secs);
        fp.push_u64(av.crashed_at.map_or(0, |a| a.wrapping_add(1)));
        fp.push_u64(self.precision_override.load(Ordering::Relaxed) as u64);
        fp.finish()
    }

    /// Absorb the engine's accounting into `fp`, in a fixed order: the
    /// per-phase ledger seconds, every [`Counters`] field, then the fault
    /// campaign's injected and detected counts. Shared by
    /// [`GpuSim::state_fingerprint`] and the batch pool's fingerprint, whose
    /// digests depend on this order.
    pub fn push_accounting(&self, fp: &mut Fingerprint) {
        let led = self.ledger();
        let c = self.counters();
        let fs = self.fault_stats();
        for p in Phase::ALL {
            fp.push_f64(led.get(p));
        }
        fp.push_f64(c.tc_flops);
        fp.push_f64(c.fp32_flops);
        fp.push_f64(c.fp64_flops);
        fp.push_u64(c.gemm_calls);
        fp.push_u64(c.panel_calls);
        fp.push_u64(c.overflow_ops);
        fp.push_u64(c.round.total);
        fp.push_u64(c.round.overflow);
        fp.push_u64(c.round.underflow);
        fp.push_u64(c.round.nan);
        fp.push_u64(fs.injected);
        fp.push_u64(fs.detected);
    }

    /// Resolve the armed availability plan's action for the op being
    /// committed. Called with **no** engine locks held: a crash must
    /// unwind without poisoning the state mutex, so accounting stays
    /// readable on the corpse.
    fn avail_gate(&self) -> (f64, f64) {
        let action = {
            let mut av = self.avail.lock().unwrap();
            av.as_mut().map(AvailState::next).unwrap_or(AvailAction::Pass)
        };
        match action {
            AvailAction::Pass => (0.0, 1.0),
            AvailAction::Stall(s) => (s, 1.0),
            AvailAction::Slow(f) => (0.0, f),
            AvailAction::Crash { at_op } => {
                if self.tracer.enabled() {
                    self.tracer.warn(
                        "engine.crash",
                        &[
                            ("engine_id", Value::from(self.id)),
                            ("at_op", Value::from(at_op)),
                            (
                                "msg",
                                Value::from(
                                    "availability fault: engine died before this op; \
                                     stranded work must fail over to survivors",
                                ),
                            ),
                        ],
                    );
                }
                std::panic::panic_any(EngineCrash {
                    engine_id: self.id,
                    at_op,
                });
            }
        }
    }

    /// Apply (or clear, with `None`) a recovery-ladder precision
    /// escalation. Also invalidates every [`HalfMat`] this engine created:
    /// a cache rounded under the previous precision must not be consumed
    /// under the new one.
    pub fn set_precision_override(&self, o: Option<PrecisionOverride>) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.precision_override.store(encode_override(o), Ordering::Release);
    }

    /// The currently applied precision escalation, if any.
    pub fn precision_override(&self) -> Option<PrecisionOverride> {
        match self.precision_override.load(Ordering::Relaxed) {
            OVERRIDE_BF16 => Some(PrecisionOverride::Bf16),
            OVERRIDE_F32 => Some(PrecisionOverride::Fp32),
            OVERRIDE_EC => Some(PrecisionOverride::ErrorCorrected),
            _ => None,
        }
    }

    /// Whether TC operands are rounded through bfloat16 right now (under a
    /// [`PrecisionOverride::Bf16`] override) rather than binary16. The
    /// error-corrected mode splits through binary16 (the technique is
    /// specific to fp16 tensor cores — its hi part *is* the fp16 rounding),
    /// and the `Fp32` override disables TC via [`GpuSim::uses_tc`] instead.
    #[inline]
    fn bf16_active(&self) -> bool {
        self.precision_override.load(Ordering::Relaxed) == OVERRIDE_BF16
    }

    /// Whether the error-corrected GEMM path is active.
    #[inline]
    fn ec_active(&self) -> bool {
        self.precision_override.load(Ordering::Relaxed) == OVERRIDE_EC
    }

    /// The performance model the engine charges against.
    pub fn perf(&self) -> &PerfModel {
        &self.pm
    }

    /// A clone of the engine's tracer handle.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Modeled seconds elapsed so far.
    pub fn clock(&self) -> f64 {
        self.state.lock().unwrap().ledger.total()
    }

    /// Per-phase time breakdown.
    pub fn ledger(&self) -> Ledger {
        self.state.lock().unwrap().ledger
    }

    /// Work and rounding-event counters.
    pub fn counters(&self) -> Counters {
        self.state.lock().unwrap().counters
    }

    /// Zero the clock, ledger, counters, and the overflow-warning latch,
    /// and drop any state buffered in the attached trace sink. Also
    /// invalidates every [`HalfMat`] previously created by this engine:
    /// a reset marks a new experiment, and cached operands must not leak
    /// across it.
    pub fn reset(&self) {
        *self.state.lock().unwrap() = State::default();
        {
            // A reset marks a new experiment: restart the fault campaign
            // (fresh RNG, zeroed injected/detected counters) so runs after
            // a reset see the same deterministic schedule as a fresh engine.
            let mut f = self.fault.lock().unwrap();
            if let Some(st) = f.as_mut() {
                *st = FaultState::new(st.plan.clone());
            }
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.tracer.reset_sink();
    }

    /// Update accounting for one routed op and emit its trace event. The
    /// state lock is released before the sink runs, so a slow sink can't
    /// serialize the threads sharing this engine against its state.
    fn commit(&self, mut rec: OpRecord, dims: &[(&'static str, usize)]) {
        // Availability gate first, with no locks held: a scheduled crash
        // unwinds here, before the op is accounted ("the engine died
        // before executing it"), and cannot poison the state mutex. One
        // relaxed load when disarmed.
        let mut stall_secs = 0.0;
        if self.avail_armed.load(Ordering::Relaxed) {
            let (stall, factor) = self.avail_gate();
            stall_secs = stall;
            if rec.charged && factor != 1.0 {
                rec.secs *= factor;
            }
        }
        let mut warn_overflow = false;
        {
            let mut st = self.state.lock().unwrap();
            if stall_secs > 0.0 {
                st.ledger.charge(avail::STALL_PHASE, stall_secs);
            }
            if rec.charged {
                st.ledger.charge(rec.phase, rec.secs);
                match rec.class {
                    Some(Class::TensorCore) => st.counters.tc_flops += rec.flops,
                    Some(Class::Fp32) => st.counters.fp32_flops += rec.flops,
                    Some(Class::Fp64) => st.counters.fp64_flops += rec.flops,
                    None => {}
                }
            }
            if rec.gemm_call {
                st.counters.gemm_calls += 1;
            }
            if rec.panel_call {
                st.counters.panel_calls += 1;
            }
            st.counters.round.merge(rec.round);
            if rec.round.overflow > 0 {
                // Campaign-visible saturation tally: how many *ops* had at
                // least one operand value overflow to Inf during rounding.
                st.counters.overflow_ops = st.counters.overflow_ops.saturating_add(1);
                if st.warned_overflow_ops.insert(rec.name) {
                    warn_overflow = true;
                }
            }
        }
        // Fast path: when tracing is off, skip building the fields
        // entirely — disabled tracing must cost nothing per op.
        if self.tracer.enabled() {
            let tracer = &self.tracer;
            let mut fields: Vec<(&str, Value)> = Vec::with_capacity(10 + dims.len());
            fields.push(("phase", Value::from(rec.phase.as_str())));
            if let Some(class) = rec.class {
                fields.push(("class", Value::from(class.as_str())));
            }
            for (k, v) in dims {
                fields.push((k, Value::from(*v)));
            }
            fields.push(("secs", Value::from(rec.secs)));
            fields.push(("flops", Value::from(rec.flops)));
            fields.push(("charged", Value::from(rec.charged)));
            if rec.round.total > 0 {
                fields.push(("rounded", Value::from(rec.round.total)));
                fields.push(("overflow", Value::from(rec.round.overflow)));
                fields.push(("underflow", Value::from(rec.round.underflow)));
                fields.push(("nan", Value::from(rec.round.nan)));
            }
            tracer.op(rec.name, &fields);
            if stall_secs > 0.0 {
                tracer.warn(
                    "engine.stall",
                    &[
                        ("op", Value::from(rec.name)),
                        ("stall_secs", Value::from(stall_secs)),
                        (
                            "msg",
                            Value::from(
                                "availability fault: engine hung before completing this op; \
                                 the stall is charged to the 'other' phase",
                            ),
                        ),
                    ],
                );
            }
            if warn_overflow {
                tracer.warn(
                    "engine.fp16_overflow",
                    &[
                        ("op", Value::from(rec.name)),
                        ("phase", Value::from(rec.phase.as_str())),
                        ("overflow", Value::from(rec.round.overflow)),
                        (
                            "msg",
                            Value::from(
                                "finite values overflowed to Inf while rounding GEMM inputs \
                                 to half precision; results may be Inf/NaN-contaminated \
                                 (see the paper's §3.5 scaling procedure)",
                            ),
                        ),
                    ],
                );
            }
        }
    }

    /// Whether a GEMM in `phase` runs on the simulated tensor cores. A
    /// [`PrecisionOverride::Fp32`] recovery escalation forces this off for
    /// every phase.
    pub fn uses_tc(&self, phase: Phase) -> bool {
        if self.precision_override.load(Ordering::Relaxed) == OVERRIDE_F32 {
            return false;
        }
        match phase {
            Phase::Update => self.cfg.tc_update,
            Phase::Panel => self.cfg.tc_panel,
            _ => false,
        }
    }

    /// Stage one operand of a TensorCore product: its cached payload when
    /// it carries one, else a rounding of its raw view into the scratch
    /// buffer `hi`, converting each column as it is copied. With `lo`
    /// (error-corrected mode) a raw view is split into fp16 hi/lo parts in
    /// the same pass, and a cached operand hands over its lo payload too.
    /// The returned events are those of the rounding this call performed —
    /// none for a cached operand; a split records its hi rounding only, so
    /// `round.*` counters stay comparable across precision modes.
    ///
    /// Panics if the operand's cache was built by a different engine, or
    /// before its last reset or precision change.
    fn stage_operand<'a>(
        &self,
        x: CachedOperand<'a>,
        hi: &'a mut Scratch,
        lo: Option<&'a mut Scratch>,
    ) -> (MatRef<'a, f32>, Option<MatRef<'a, f32>>, RoundStats) {
        if let Some(h) = x.half {
            self.validate_half(h.tag);
            let lo = lo.map(|_| h.lo.expect("EC cache carries a lo payload"));
            return (h.view, lo, RoundStats::default());
        }
        let (m, n) = (x.raw.nrows(), x.raw.ncols());
        let hv = hi.slice::<f32>(m * n);
        let mut lv = lo.map(|l| l.slice::<f32>(m * n));
        let stats = stage(x.raw, self.bf16_active(), hv, lv.as_deref_mut());
        let view = |v: &'a [f32]| MatRef::from_col_major_slice(v, m, n);
        (view(hv), lv.map(|l| view(l)), stats)
    }

    /// Round `a` once for reuse across several GEMMs in `phase`.
    ///
    /// Returns `None` when the phase does not run on the simulated tensor
    /// cores — the FP32 path multiplies raw operands, so there is nothing
    /// to cache and [`GpuSim::gemm_f32_cached`] will use the raw view,
    /// keeping results bit-identical to [`GpuSim::gemm_f32`].
    ///
    /// The rounding events are recorded against the counters and the trace
    /// **here**, once (as an uncharged `round_half` op — modeled GEMM time
    /// already includes operand ingestion), so `Counters::round` reflects
    /// the roundings actually performed; GEMMs consuming the cache add
    /// nothing for it. The first overflow still raises the
    /// `engine.fp16_overflow` warning from this op. This is a
    /// [`GpuSim::cache_shell`] filled by one [`GpuSim::cache_cols`] call.
    pub fn cache_operand(&self, phase: Phase, a: MatRef<'_, f32>) -> Option<HalfMat> {
        let mut h = self.cache_shell(phase, a.nrows(), a.ncols())?;
        self.cache_cols(phase, &mut h, 0, a);
        Some(h)
    }

    /// Allocate an empty `m x n` cache whose column blocks will be filled
    /// incrementally with [`GpuSim::cache_cols`] as they are finalized.
    ///
    /// This is how the recursive factorizations round each Q panel **once
    /// per factorization**: a panel's columns never change after its panel
    /// factorization finishes, so its rounded image — written right then —
    /// serves every later level's reduction and update GEMM via
    /// [`CachedOperand::cols`]. Returns `None` when the phase does not run
    /// on the simulated tensor cores (nothing would ever be rounded).
    pub fn cache_shell(&self, phase: Phase, m: usize, n: usize) -> Option<HalfMat> {
        if !self.uses_tc(phase) {
            return None;
        }
        Some(HalfMat {
            data: Mat::zeros(m, n),
            lo: self.ec_active().then(|| Mat::zeros(m, n)),
            stats: RoundStats::default(),
            engine_id: self.id,
            generation: self.generation.load(Ordering::Relaxed),
        })
    }

    /// Round the finalized values `cols` into columns `j0..j0 + cols.ncols()`
    /// of `cache` (from [`GpuSim::cache_shell`]), recording the rounding
    /// events against the counters and the trace as one uncharged
    /// `round_half` op.
    ///
    /// `phase` must be a TensorCore phase (the shell would not exist
    /// otherwise); panics if the window falls outside the cache or the
    /// cache is stale.
    pub fn cache_cols(&self, phase: Phase, cache: &mut HalfMat, j0: usize, cols: MatRef<'_, f32>) {
        self.validate_half(cache);
        let (m, w) = (cols.nrows(), cols.ncols());
        assert_eq!(m, cache.data.nrows(), "cache_cols: row count mismatch");
        assert!(
            j0 + w <= cache.data.ncols(),
            "cache_cols: column window {}..{} outside cache of {} columns",
            j0,
            j0 + w,
            cache.data.ncols()
        );
        // Columns j0..j0+w of a col-major Mat are one contiguous range. An
        // error-corrected cache splits the finalized columns into its hi
        // window (the main payload) and its lo window.
        let window = m * j0..m * (j0 + w);
        let lo = cache.lo.as_mut().map(|lo| &mut lo.data_mut()[window.clone()]);
        let stats = stage(cols, self.bf16_active(), &mut cache.data.data_mut()[window], lo);
        cache.stats.merge(stats);
        self.commit(
            OpRecord {
                name: "round_half",
                phase,
                class: None,
                secs: 0.0,
                flops: 0.0,
                charged: false,
                gemm_call: false,
                panel_call: false,
                round: stats,
            },
            &[("m", m), ("n", w)],
        );
    }

    /// Panic unless `h` was created by this engine since its last reset or
    /// precision change ([`GpuSim::set_precision_override`] bumps the
    /// generation too, so a live cache is always in the current format).
    fn validate_half(&self, h: &HalfMat) {
        assert_eq!(
            h.engine_id, self.id,
            "HalfMat belongs to another engine (id {} != {})",
            h.engine_id, self.id
        );
        let gen = self.generation.load(Ordering::Relaxed);
        assert_eq!(
            h.generation, gen,
            "stale HalfMat: created at engine generation {} but the engine \
             has been reset (now {})",
            h.generation, gen
        );
    }

    /// `C = alpha op(A) op(B) + beta C` through the engine.
    ///
    /// If the configuration enables TensorCore for `phase`, A and B are
    /// rounded through the half format first (C and the accumulation stay
    /// f32, as on the hardware) and TensorCore time is charged; otherwise a
    /// plain f32 GEMM runs at the FP32 rate.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_f32(
        &self,
        phase: Phase,
        alpha: f32,
        op_a: Op,
        a: MatRef<'_, f32>,
        op_b: Op,
        b: MatRef<'_, f32>,
        beta: f32,
        c: MatMut<'_, f32>,
    ) {
        self.gemm_f32_cached(
            phase,
            true,
            alpha,
            op_a,
            CachedOperand::fresh(a),
            op_b,
            CachedOperand::fresh(b),
            beta,
            c,
        );
    }

    /// [`GpuSim::gemm_f32`] over [`CachedOperand`]s, with explicit control
    /// over time charging. Operands that carry a [`HalfMat`] skip the
    /// per-call rounding on the TensorCore path (their rounding was counted
    /// once at [`GpuSim::cache_operand`] time); operands without one are
    /// rounded into a buffer of the per-thread scratch pool
    /// ([`densemat::par::Scratch`]). On the FP32 path the raw
    /// views are multiplied directly. Either way the result is
    /// bit-identical to the uncached [`GpuSim::gemm_f32`]. The flops
    /// charged are the same; so is the time, except in error-corrected
    /// mode, where operand-split traffic is charged only for operands this
    /// call actually split. A cached operand's split is charged nowhere:
    /// [`GpuSim::cache_cols`] records its rounding as an uncharged op.
    /// [`GpuSim::charge_gemm`] prices its GEMMs the same way.
    ///
    /// `charge = false` executes the numerics (including half rounding when
    /// TensorCore applies) and updates the call and rounding counters, but
    /// does not advance the clock or count flops — for composite kernels
    /// whose time is charged once as an aggregate, the way the paper
    /// benchmarks its hand-written panel as a unit.
    ///
    /// Panics if a supplied cache was built by a different engine, or
    /// before its last [`GpuSim::reset`] or precision change.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_f32_cached(
        &self,
        phase: Phase,
        charge: bool,
        alpha: f32,
        op_a: Op,
        a: CachedOperand<'_>,
        op_b: Op,
        b: CachedOperand<'_>,
        beta: f32,
        c: MatMut<'_, f32>,
    ) {
        let cm = c.nrows();
        let cn = c.ncols();
        let k = match op_a {
            Op::NoTrans => a.raw.ncols(),
            Op::Trans => a.raw.nrows(),
        };
        let use_tc = self.uses_tc(phase);
        let ec = use_tc && self.ec_active();
        let class = if use_tc { Class::TensorCore } else { Class::Fp32 };
        // Only the rounding performed *by this call* lands in its record;
        // cached operands were already counted when the cache was built.
        let mut round = RoundStats::default();
        // Likewise EC split traffic: an operand split once into a cache is
        // not re-charged by every consuming GEMM.
        let fresh_elems: usize = [&a, &b]
            .iter()
            .filter(|x| x.half.is_none())
            .map(|x| x.raw.nrows() * x.raw.ncols())
            .sum();
        let mut armed_outcome: Option<ArmedOutcome> = None;
        if use_tc {
            let (mut buf_a, mut buf_b) = (Scratch::take(), Scratch::take());
            let (mut lo_a, mut lo_b) = (ec.then(Scratch::take), ec.then(Scratch::take));
            let (ah, al, stats_a) = self.stage_operand(a, &mut buf_a, lo_a.as_mut());
            let (bh, bl, stats_b) = self.stage_operand(b, &mut buf_b, lo_b.as_mut());
            round.merge(stats_a);
            round.merge(stats_b);
            // One relaxed load when disarmed — the fault machinery costs
            // nothing unless a campaign is running.
            if self.fault_armed.load(Ordering::Relaxed) {
                armed_outcome =
                    Some(self.gemm_tc_armed(alpha, op_a, ah, al, op_b, bh, bl, beta, c));
            } else {
                gemm_tc(alpha, op_a, ah, al, op_b, bh, bl, beta, c);
            }
        } else {
            gemm(alpha, op_a, a.raw, op_b, b.raw, beta, c);
        }
        // Flops and time are only tallied for charged operations so
        // composite kernels (whose aggregate charge already counts them)
        // don't double-count.
        let (secs, flops) = if charge {
            self.price_gemm(class, cm, cn, k, fresh_elems)
        } else {
            (0.0, 0.0)
        };
        self.commit(
            OpRecord {
                name: "gemm",
                phase,
                class: Some(class),
                secs,
                flops,
                charged: charge,
                gemm_call: true,
                panel_call: false,
                round,
            },
            &[("m", cm), ("n", cn), ("k", k)],
        );
        if let Some(out) = armed_outcome {
            self.emit_fault_events(phase, cm, cn, k, &out);
        }
    }

    /// Run a TensorCore GEMM under an armed fault plan: compute the ABFT
    /// checksum reference from the rounded operands, possibly inject the
    /// scheduled fault, and run the checksum / non-finite detectors on the
    /// result. An injected fault whose effect falls below the detection
    /// threshold is rolled back and not counted (see [`crate::fault`]).
    ///
    /// When `al`/`bl` are present (error-corrected mode) the checksum
    /// reference is computed from the *recomposed* composite operands
    /// (`hi + lo·2^-11`) so the tolerance tracks the corrected near-f32
    /// result rather than the fp16-rounded one: the only EC-specific
    /// deviation from that reference is the dropped `lo·lo` term, about
    /// `2^-22` relative — comfortably inside the checksum fudge band.
    #[allow(clippy::too_many_arguments)]
    fn gemm_tc_armed(
        &self,
        alpha: f32,
        op_a: Op,
        ah: MatRef<'_, f32>,
        al: Option<MatRef<'_, f32>>,
        op_b: Op,
        bh: MatRef<'_, f32>,
        bl: Option<MatRef<'_, f32>>,
        beta: f32,
        mut c: MatMut<'_, f32>,
    ) -> ArmedOutcome {
        /// Result-tile edge for the Overflow / DroppedTile modes.
        const TILE: usize = 8;
        let m = c.nrows();
        let n = c.ncols();
        let a_trans = matches!(op_a, Op::Trans);
        let b_trans = matches!(op_b, Op::Trans);
        let k = if a_trans { ah.nrows() } else { ah.ncols() };
        let planned = self.fault.lock().unwrap().as_mut().and_then(FaultState::next);
        let a_comp = al.map(|l| recompose_mat(ah, l));
        let b_comp = bl.map(|l| recompose_mat(bh, l));
        let ar = a_comp.as_ref().map_or(ah, Mat::as_ref);
        let br = b_comp.as_ref().map_or(bh, Mat::as_ref);
        let abft = fault::abft_reference(alpha, a_trans, ar, b_trans, br, beta, c.as_ref());
        // The stale-accumulator snapshot must be taken before the GEMM.
        let stale = planned
            .filter(|p| p.kind == FaultKind::DroppedTile)
            .map(|p| {
                let i0 = (p.r[0] % m as u64) as usize;
                let j0 = (p.r[1] % n as u64) as usize;
                let mut vals = Vec::new();
                for jj in j0..(j0 + TILE).min(n) {
                    for ii in i0..(i0 + TILE).min(m) {
                        vals.push(c.get(ii, jj));
                    }
                }
                (i0, j0, vals)
            });
        gemm_tc(alpha, op_a, ah, al, op_b, bh, bl, beta, c.rb());
        // Apply the scheduled fault, remembering every overwritten value so
        // a sub-threshold injection can be rolled back bit-exactly.
        let mut undo: Vec<(usize, usize, f32)> = Vec::new();
        let injected = planned.map(|p| match p.kind {
            FaultKind::BitFlip => {
                let i = (p.r[0] % m as u64) as usize;
                let j = (p.r[1] % k as u64) as usize;
                // Exponent bits only: the loud corruptions ABFT exists for.
                let bf16 = self.bf16_active();
                let bit = if bf16 { 7 + (p.r[2] % 8) as u32 } else { 10 + (p.r[2] % 5) as u32 };
                let orig = if a_trans { ah.col(i)[j] } else { ah.col(j)[i] };
                let flipped = if bf16 {
                    halfsim::flip_bf16_bit(orig, bit)
                } else {
                    halfsim::flip_f16_bit(orig, bit)
                };
                // Flipping Â[i,j] pre-GEMM perturbs row i of C by
                // α·Δ·op(B̂)[j,·] — apply that rank-1 row update, which is
                // the flip's exact algebraic effect. Under EC the flipped
                // hi element multiplies the composite B (hi + lo·2^-11),
                // which is exactly what `br` holds.
                let delta = flipped as f64 - orig as f64;
                for jj in 0..n {
                    let old = c.get(i, jj);
                    undo.push((i, jj, old));
                    let bv = if b_trans { br.col(j)[jj] } else { br.col(jj)[j] };
                    c.set(i, jj, old + (alpha as f64 * delta * bv as f64) as f32);
                }
                InjectedFault { kind: p.kind, row: i, col: j, bit }
            }
            FaultKind::Overflow => {
                let i0 = (p.r[0] % m as u64) as usize;
                let j0 = (p.r[1] % n as u64) as usize;
                let inf = if p.r[2] & 1 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
                for jj in j0..(j0 + TILE).min(n) {
                    for ii in i0..(i0 + TILE).min(m) {
                        undo.push((ii, jj, c.get(ii, jj)));
                        c.set(ii, jj, inf);
                    }
                }
                InjectedFault { kind: p.kind, row: i0, col: j0, bit: 0 }
            }
            FaultKind::NanColumn => {
                let j = (p.r[0] % n as u64) as usize;
                for ii in 0..m {
                    undo.push((ii, j, c.get(ii, j)));
                    c.set(ii, j, f32::NAN);
                }
                InjectedFault { kind: p.kind, row: 0, col: j, bit: 0 }
            }
            FaultKind::DroppedTile => {
                let (i0, j0, vals) = stale.clone().expect("snapshot taken pre-GEMM");
                let mut it = vals.into_iter();
                for jj in j0..(j0 + TILE).min(n) {
                    for ii in i0..(i0 + TILE).min(m) {
                        let stale_v = it.next().expect("snapshot covers the tile");
                        let computed = c.get(ii, jj);
                        if computed.to_bits() != stale_v.to_bits() {
                            undo.push((ii, jj, computed));
                            c.set(ii, jj, stale_v);
                        }
                    }
                }
                InjectedFault { kind: p.kind, row: i0, col: j0, bit: 0 }
            }
        });
        let violation = fault::abft_check(&abft, k, c.as_ref());
        let (injected, violation) = match (injected, violation) {
            (Some(f), Some(v)) => (Some(f), Some(v)),
            (Some(_), None) => {
                // Sub-threshold: roll back bit-exactly and do not count.
                for &(i, j, v) in undo.iter().rev() {
                    c.set(i, j, v);
                }
                (None, None)
            }
            (None, v) => (None, v),
        };
        if let Some(st) = self.fault.lock().unwrap().as_mut() {
            st.record(injected.is_some(), violation.is_some());
        }
        ArmedOutcome { injected, violation }
    }

    /// Emit the trace events of one armed GEMM: a `fault.injected` op for a
    /// kept injection and a `fault.detected` warning for a checksum /
    /// non-finite violation.
    fn emit_fault_events(&self, phase: Phase, m: usize, n: usize, k: usize, out: &ArmedOutcome) {
        if (out.injected.is_none() && out.violation.is_none()) || !self.tracer.enabled() {
            return;
        }
        let tracer = &self.tracer;
        if let Some(f) = &out.injected {
            FaultInjected {
                kind: f.kind.as_str().into(),
                phase: phase.as_str().into(),
                m: m as u64,
                n: n as u64,
                k: k as u64,
                row: f.row as u64,
                col: f.col as u64,
                bit: f.bit as u64,
            }
            .emit(tracer);
        }
        if let Some(v) = &out.violation {
            FaultDetected {
                op: "gemm".into(),
                phase: phase.as_str().into(),
                detector: v.detector().into(),
                row: v.row as u64,
                err: v.err,
                tol: v.tol,
                msg: "TensorCore GEMM result disagrees with its ABFT checksum \
                      reference; treating the op as corrupted (recovery may retry)"
                    .into(),
            }
            .emit(tracer);
        }
    }

    /// Charge raw modeled seconds to a phase.
    pub fn charge_secs(&self, phase: Phase, secs: f64) {
        self.commit(
            OpRecord {
                name: "secs",
                phase,
                class: None,
                secs,
                flops: 0.0,
                charged: true,
                gemm_call: false,
                panel_call: false,
                round: RoundStats::default(),
            },
            &[],
        );
    }

    /// Modeled seconds and flops of a `C(cm x cn) += A(cm x k) B(k x cn)`
    /// GEMM of `class` that stages `fresh` operand elements itself: the one
    /// price of routed and charge-only GEMMs. An error-corrected TensorCore
    /// GEMM runs three TC products (hi·hi plus the two hi·lo corrections),
    /// so it performs — and is charged — 6mnk, plus the split traffic of
    /// its fresh operands.
    #[inline]
    fn price_gemm(&self, class: Class, cm: usize, cn: usize, k: usize, fresh: usize) -> (f64, f64) {
        let ec = class == Class::TensorCore && self.ec_active();
        let flops = if ec { 6.0 } else { 2.0 } * cm as f64 * cn as f64 * k as f64;
        let secs = if ec {
            self.pm.ec_gemm_charge_secs(cm, cn, k, fresh)
        } else {
            self.pm.gemm_secs(class, cm, cn, k)
        };
        (secs, flops)
    }

    /// Charge a GEMM's modeled time without executing numerics (for
    /// baselines whose numerics run elsewhere, and the charge-only replays
    /// of `tcqr_core::cost`). `fresh` counts the operand elements a routed
    /// call would stage itself rather than read from a [`HalfMat`] (0 for
    /// FP32 GEMMs): under the error-corrected override a TensorCore GEMM is
    /// then priced exactly like the routed one.
    pub fn charge_gemm(
        &self,
        phase: Phase,
        class: Class,
        cm: usize,
        cn: usize,
        k: usize,
        fresh: usize,
    ) {
        let (secs, flops) = self.price_gemm(class, cm, cn, k, fresh);
        self.commit(
            OpRecord::charge("charge_gemm", phase, class, secs, flops),
            &[("m", cm), ("n", cn), ("k", k)],
        );
    }

    /// Charge a cuSOLVER-style `SGEQRF` on `m x n`.
    pub fn charge_sgeqrf(&self, phase: Phase, m: usize, n: usize) {
        let mut rec = OpRecord::charge(
            "sgeqrf",
            phase,
            Class::Fp32,
            self.pm.sgeqrf_secs(m, n),
            crate::perf::householder_qr_flops(m, n),
        );
        rec.panel_call = true;
        self.commit(rec, &[("m", m), ("n", n)]);
    }

    /// Charge a `DGEQRF` on `m x n`.
    pub fn charge_dgeqrf(&self, phase: Phase, m: usize, n: usize) {
        let mut rec = OpRecord::charge(
            "dgeqrf",
            phase,
            Class::Fp64,
            self.pm.dgeqrf_secs(m, n),
            crate::perf::householder_qr_flops(m, n),
        );
        rec.panel_call = true;
        self.commit(rec, &[("m", m), ("n", n)]);
    }

    /// Charge the hand-coded CAQR Gram-Schmidt panel on `m x n`.
    ///
    /// When the engine is configured with TensorCore in the panel, the
    /// modeled time shrinks by a small factor only: Figure 7 of the paper
    /// shows the (on, on) and (off, on) bars nearly coincide ("TensorCore
    /// does not help much in the panel"), because the panel is dominated by
    /// the in-shared-memory Gram-Schmidt, not its small GEMMs.
    pub fn charge_caqr_panel(&self, m: usize, n: usize) {
        /// Modeled panel speedup from enabling TensorCore in the panel.
        const TC_PANEL_GAIN: f64 = 1.1;
        let secs = if self.cfg.tc_panel {
            self.pm.caqr_panel_secs(m, n) / TC_PANEL_GAIN
        } else {
            self.pm.caqr_panel_secs(m, n)
        };
        let mut rec = OpRecord::charge(
            "caqr_panel",
            Phase::Panel,
            Class::Fp32,
            secs,
            crate::perf::rgsqrf_flops(m, n),
        );
        rec.panel_call = true;
        self.commit(rec, &[("m", m), ("n", n)]);
    }

    /// Charge an xORGQR explicit-Q formation (rated like the factorization).
    pub fn charge_orgqr(&self, phase: Phase, class: Class, m: usize, n: usize) {
        let class = match class {
            Class::Fp64 => Class::Fp64,
            _ => Class::Fp32,
        };
        self.commit(
            OpRecord::charge(
                "orgqr",
                phase,
                class,
                self.pm.orgqr_secs(class, m, n),
                crate::perf::orgqr_flops(m, n),
            ),
            &[("m", m), ("n", n)],
        );
    }

    /// Charge an xORMQR application.
    pub fn charge_ormqr(&self, phase: Phase, class: Class, m: usize, n: usize, k: usize) {
        let counted = match class {
            Class::Fp64 => Class::Fp64,
            _ => Class::Fp32,
        };
        // Seconds follow the requested class (a TensorCore ORMQR is rated
        // as a TC update GEMM) but the flops land in the fp32/fp64 buckets,
        // which is also what the event reports as `class`.
        let rec = OpRecord::charge(
            "ormqr",
            phase,
            counted,
            self.pm.ormqr_secs(class, m, n, k),
            4.0 * m as f64 * n as f64 * k as f64,
        );
        self.commit(rec, &[("m", m), ("n", n), ("k", k)]);
    }

    /// Charge a memory-bound GEMV over an `m x n` operand.
    pub fn charge_gemv(&self, phase: Phase, class: Class, m: usize, n: usize) {
        let rec = OpRecord::charge("gemv", phase, class, self.pm.gemv_secs(class, m, n), 0.0);
        self.commit(rec, &[("m", m), ("n", n)]);
    }

    /// Charge a single-RHS triangular solve with an `n x n` factor.
    pub fn charge_trsv(&self, phase: Phase, class: Class, n: usize) {
        let rec = OpRecord::charge("trsv", phase, class, self.pm.trsv_secs(class, n), 0.0);
        self.commit(rec, &[("n", n)]);
    }

    /// Charge a multi-RHS triangular solve.
    pub fn charge_trsm(&self, phase: Phase, class: Class, n: usize, nrhs: usize) {
        let rec = OpRecord::charge("trsm", phase, class, self.pm.trsm_secs(class, n, nrhs), 0.0);
        self.commit(rec, &[("n", n), ("nrhs", nrhs)]);
    }

    /// Charge a streaming vector operation of length `n`.
    pub fn charge_vec(&self, phase: Phase, class: Class, n: usize) {
        let rec = OpRecord::charge("vec", phase, class, self.pm.vec_secs(class, n), 0.0);
        self.commit(rec, &[("n", n)]);
    }
}

/// The f32-accumulated tensor-core product of staged operands:
/// `C = α·AhBh + βC`. When both lo halves are present (error-corrected
/// GEMM, arXiv 2203.03341) the two `2^-11`-weighted correction products
/// `α·2^-11·(AhBl + AlBh)` follow; the `2^-22`-weighted `AlBl` term is
/// dropped, as in the paper's scheme. The `α·2^-11` scaling is exact (a
/// power of two), so each product is still a faithful fp16×fp16 multiply
/// with f32 accumulation.
#[allow(clippy::too_many_arguments)]
fn gemm_tc(
    alpha: f32,
    op_a: Op,
    ah: MatRef<'_, f32>,
    al: Option<MatRef<'_, f32>>,
    op_b: Op,
    bh: MatRef<'_, f32>,
    bl: Option<MatRef<'_, f32>>,
    beta: f32,
    mut c: MatMut<'_, f32>,
) {
    gemm(alpha, op_a, ah, op_b, bh, beta, c.rb());
    if let (Some(al), Some(bl)) = (al, bl) {
        let corr = alpha * halfsim::SPLIT_INV_SCALE;
        gemm(corr, op_a, ah, op_b, bl, 1.0, c.rb());
        gemm(corr, op_a, al, op_b, bh, 1.0, c.rb());
    }
}

/// Recompose split operands into the composite `hi + lo·2^-11` matrix the
/// EC checksum reference is computed against.
fn recompose_mat(hi: MatRef<'_, f32>, lo: MatRef<'_, f32>) -> Mat<f32> {
    let mut out = hi.to_owned();
    {
        let mut v = out.as_mut();
        for j in 0..lo.ncols() {
            for (i, &l) in lo.col(j).iter().enumerate() {
                let x = v.get(i, j) + l * halfsim::SPLIT_INV_SCALE;
                v.set(i, j, x);
            }
        }
    }
    out
}

/// Round `a` through binary16 (bfloat16 with `bf16`) — or, when `lo` is
/// given, split it into fp16 hi/lo parts — into the dense column-major `hi`
/// (and `lo`), converting each column as it is copied: one pass, whatever
/// `a`'s leading dimension. The events are those of the (hi) rounding, the
/// same as a rounding pass over a dense copy of `a`.
fn stage(
    a: MatRef<'_, f32>,
    bf16: bool,
    hi: &mut [f32],
    mut lo: Option<&mut [f32]>,
) -> RoundStats {
    let (m, n) = (a.nrows(), a.ncols());
    assert_eq!(hi.len(), m * n, "stage: destination length");
    let mut stats = RoundStats::default();
    for j in 0..n {
        let (src, col) = (a.col(j), m * j..m * (j + 1));
        let dst = &mut hi[col.clone()];
        stats.merge(match lo.as_deref_mut() {
            Some(lo) => halfsim::split_f16_slice(src, dst, &mut lo[col]),
            None if bf16 => Bf16Format::round_into(src, dst),
            None => Fp16Format::round_into(src, dst),
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(m: usize, n: usize, scale: f32) -> Mat<f32> {
        Mat::from_fn(m, n, |i, j| scale * (1.0 + ((i * 31 + j * 17) % 97) as f32 / 97.0))
    }

    #[test]
    fn tc_gemm_matches_rounded_reference() {
        let eng = GpuSim::default();
        let a = small(20, 8, 1.0);
        let b = small(8, 6, 1.0);
        let mut c = Mat::zeros(20, 6);
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
        // Reference: round inputs to f16 by hand, f32 gemm.
        let mut ar = a.clone();
        Fp16Format::round_slice(ar.data_mut());
        let mut br = b.clone();
        Fp16Format::round_slice(br.data_mut());
        let mut cr = Mat::zeros(20, 6);
        gemm(1.0, Op::NoTrans, ar.as_ref(), Op::NoTrans, br.as_ref(), 0.0, cr.as_mut());
        assert_eq!(c, cr);
        assert!(eng.counters().tc_flops > 0.0);
        assert_eq!(eng.counters().fp32_flops, 0.0);
        assert!(eng.clock() > 0.0);
    }

    /// Run one GEMM uncached and one with both operands pre-cached and
    /// check the results are bit-identical, for every op combination.
    fn check_cached_matches_uncached(eng: &GpuSim, other: &GpuSim, phase: Phase) {
        for (op_a, op_b) in [
            (Op::NoTrans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::NoTrans),
            (Op::Trans, Op::Trans),
        ] {
            // Shapes: C is 12 x 10 with inner dimension 8.
            let a = match op_a {
                Op::NoTrans => small(12, 8, 1.0),
                Op::Trans => small(8, 12, 1.0),
            };
            let b = match op_b {
                Op::NoTrans => small(8, 10, 0.5),
                Op::Trans => small(10, 8, 0.5),
            };
            let mut c1 = Mat::zeros(12, 10);
            eng.gemm_f32(phase, 1.0, op_a, a.as_ref(), op_b, b.as_ref(), 0.0, c1.as_mut());

            let ah = other.cache_operand(phase, a.as_ref());
            let bh = other.cache_operand(phase, b.as_ref());
            assert_eq!(
                ah.is_some(),
                other.uses_tc(phase),
                "cache_operand must exist exactly on TC phases"
            );
            let mut c2 = Mat::zeros(12, 10);
            other.gemm_f32_cached(
                phase,
                true,
                1.0,
                op_a,
                CachedOperand::new(a.as_ref(), ah.as_ref()),
                op_b,
                CachedOperand::new(b.as_ref(), bh.as_ref()),
                0.0,
                c2.as_mut(),
            );
            assert_eq!(c1, c2, "cached operands changed bits for ({op_a:?}, {op_b:?})");
        }
    }

    #[test]
    fn cached_operands_are_bit_identical_on_tensorcore() {
        let eng = GpuSim::default();
        let other = GpuSim::default();
        check_cached_matches_uncached(&eng, &other, Phase::Update);
        // Identical GEMMs, but the cached engine rounded each operand once
        // per cache instead of once per GEMM — same rounding totals here
        // since each operand fed exactly one GEMM.
        assert_eq!(eng.counters().round.total, other.counters().round.total);
        // And identical charged time: caching must not change the cost model.
        assert_eq!(eng.clock(), other.clock());
    }

    #[test]
    fn cached_operands_are_bit_identical_off_tensorcore() {
        // Panel phase on the default config runs FP32: cache_operand returns
        // None and the raw product must be untouched.
        let eng = GpuSim::default();
        let other = GpuSim::default();
        check_cached_matches_uncached(&eng, &other, Phase::Panel);
        assert_eq!(other.counters().round.total, 0);
    }

    /// A cache as an operand that *is* its rounded payload: both the
    /// TensorCore and the FP32 path multiply the already-rounded values.
    fn payload(h: &HalfMat) -> CachedOperand<'_> {
        CachedOperand::new(h.as_ref(), Some(h))
    }

    /// A charged GEMM of two cached payloads on `eng`'s update phase.
    fn gemm_payloads(eng: &GpuSim, a: &HalfMat, op_b: Op, b: &HalfMat, c: MatMut<'_, f32>) {
        eng.gemm_f32_cached(Phase::Update, true, 1.0, Op::NoTrans, payload(a), op_b, payload(b), 0.0, c);
    }

    #[test]
    fn cached_payloads_are_multiplied_as_is() {
        let eng = GpuSim::default();
        let a = small(6, 4, 1.0);
        let b = small(4, 5, 1.0);
        let ah = eng.cache_operand(Phase::Update, a.as_ref()).unwrap();
        let bh = eng.cache_operand(Phase::Update, b.as_ref()).unwrap();
        let mut c = Mat::zeros(6, 5);
        gemm_payloads(&eng, &ah, Op::NoTrans, &bh, c.as_mut());
        let mut cr = Mat::zeros(6, 5);
        gemm(1.0, Op::NoTrans, ah.as_ref(), Op::NoTrans, bh.as_ref(), 0.0, cr.as_mut());
        assert_eq!(c, cr);
    }

    /// A 16 x 10 operand with an fp16 overflow in column 1 and an fp16
    /// underflow in column 6, so both cache windows record events.
    fn windowed_operand() -> Mat<f32> {
        let mut a = small(16, 10, 1.0);
        a[(2, 1)] = 70000.0;
        a[(5, 6)] = 1e-7;
        a
    }

    /// Cache `a` whole on one fresh engine and as a shell filled in two
    /// column windows on another, check the payloads (hi and lo), the
    /// cache stats and the engines' round tallies agree, and return the
    /// second engine with its shell.
    fn whole_vs_windows(fresh: impl Fn() -> GpuSim, a: &Mat<f32>) -> (GpuSim, HalfMat) {
        let (e1, e2) = (fresh(), fresh());
        let whole = e1.cache_operand(Phase::Update, a.as_ref()).unwrap();
        let mut shell = e2.cache_shell(Phase::Update, 16, 10).unwrap();
        e2.cache_cols(Phase::Update, &mut shell, 0, a.as_ref().submatrix(0, 0, 16, 3));
        e2.cache_cols(Phase::Update, &mut shell, 3, a.as_ref().submatrix(0, 3, 16, 7));
        assert_eq!(whole.as_ref().to_owned(), shell.as_ref().to_owned());
        assert_eq!(
            whole.lo().map(|l| l.to_owned()),
            shell.lo().map(|l| l.to_owned()),
            "lo windows must match the whole split"
        );
        assert_eq!(whole.stats(), shell.stats());
        let round = e1.counters().round;
        assert_eq!((round.total, round.overflow, round.underflow), (160, 1, 1));
        assert_eq!(round, e2.counters().round, "engine round tallies");
        (e2, shell)
    }

    #[test]
    fn cache_cols_fills_windows_identical_to_whole_rounding() {
        let a = windowed_operand();
        let (eng, shell) = whole_vs_windows(GpuSim::default, &a);
        assert!(shell.lo().is_none(), "plain caches carry no lo payload");
        // A column window of the shell is a usable cached operand.
        let win = a.as_ref().submatrix(0, 3, 16, 7);
        let mut c1 = Mat::zeros(7, 7);
        eng.gemm_f32_cached(
            Phase::Update,
            true,
            1.0,
            Op::Trans,
            CachedOperand::cols(win, &shell, 3),
            Op::NoTrans,
            CachedOperand::fresh(win),
            0.0,
            c1.as_mut(),
        );
        let mut c2 = Mat::zeros(7, 7);
        eng.gemm_f32(Phase::Update, 1.0, Op::Trans, win, Op::NoTrans, win, 0.0, c2.as_mut());
        assert_eq!(c1, c2);
    }

    /// Bit patterns of a matrix, for comparisons that must hold on NaNs.
    fn bits_of(a: MatRef<'_, f32>) -> Vec<u32> {
        (0..a.ncols()).flat_map(|j| a.col(j).iter().map(|x| x.to_bits())).collect()
    }

    #[test]
    fn strided_views_stage_like_a_dense_copy() {
        // Column-wise staging of views with ld > nrows, at every row offset
        // of an 8-lane vector and across the vector-body/scalar-tail seam,
        // against rounding (or splitting) a dense copy.
        let bf16 = GpuSim::default();
        bf16.set_precision_override(Some(PrecisionOverride::Bf16));
        let specials = [70000.0, -65520.0, 1e-7, -3e-39, f32::NAN, -0.0, 1.0 + 2.0f32.powi(-11)];
        for eng in [GpuSim::default(), bf16, ec_engine()] {
            for m in 0..=17 {
                for off in 1..8 {
                    let big = Mat::from_fn(m + 8, 5, |i, j| match (i + 3 * j) % 4 {
                        0 => specials[(i + j) % specials.len()],
                        _ => ((i * 7 + j) as f32 * 0.37).sin() * 2.0f32.powi((i % 9) as i32 - 4),
                    });
                    let view = big.as_ref().submatrix(off, 1, m, 4);
                    let what = format!("{:?} m={m} off={off}", eng.precision_override());
                    let dense = view.to_owned();
                    let (mut hi, mut lo) = (dense.clone(), dense.clone());
                    let want = if eng.ec_active() {
                        halfsim::split_f16_slice(dense.data(), hi.data_mut(), lo.data_mut())
                    } else if eng.bf16_active() {
                        Bf16Format::round_slice(hi.data_mut())
                    } else {
                        Fp16Format::round_slice(hi.data_mut())
                    };

                    let whole = eng.cache_operand(Phase::Update, view).unwrap();
                    assert_eq!(bits_of(whole.as_ref()), bits_of(hi.as_ref()), "{what}");
                    assert_eq!(whole.stats(), want, "{what}");
                    if let Some(l) = whole.lo() {
                        assert_eq!(bits_of(l), bits_of(lo.as_ref()), "{what} lo");
                    }
                    let mut shell = eng.cache_shell(Phase::Update, m, 4).unwrap();
                    eng.cache_cols(Phase::Update, &mut shell, 0, view.submatrix(0, 0, m, 1));
                    eng.cache_cols(Phase::Update, &mut shell, 1, view.submatrix(0, 1, m, 3));
                    assert_eq!(bits_of(shell.as_ref()), bits_of(hi.as_ref()), "{what} cols");
                    assert_eq!(shell.stats(), want, "{what} cols");

                    // The GEMM path stages the view through the scratch pool:
                    // same product and events as from the dense copy.
                    let gemm_of = |a: MatRef<'_, f32>| {
                        eng.reset();
                        let mut c = Mat::zeros(4, 4);
                        let (t, n) = (Op::Trans, Op::NoTrans);
                        eng.gemm_f32(Phase::Update, 1.0, t, a, n, a, 0.0, c.as_mut());
                        (bits_of(c.as_ref()), eng.counters().round)
                    };
                    assert_eq!(gemm_of(view), gemm_of(dense.as_ref()), "{what} gemm");
                }
            }
        }
    }

    #[test]
    fn cache_operand_records_rounding_once() {
        let eng = GpuSim::default();
        let a = small(10, 6, 1.0);
        let h = eng.cache_operand(Phase::Update, a.as_ref()).unwrap();
        assert_eq!(h.stats().total, 60);
        assert_eq!(eng.counters().round.total, 60, "counted at cache time");
        let mut c = Mat::zeros(6, 6);
        let op = payload(&h);
        eng.gemm_f32_cached(Phase::Update, true, 1.0, Op::Trans, op, Op::NoTrans, op, 0.0, c.as_mut());
        assert_eq!(
            eng.counters().round.total,
            60,
            "consuming the cache must not re-count roundings"
        );
    }

    #[test]
    #[should_panic(expected = "stale HalfMat")]
    fn stale_cache_is_rejected_after_reset() {
        let eng = GpuSim::default();
        let a = small(4, 4, 1.0);
        let h = eng.cache_operand(Phase::Update, a.as_ref()).unwrap();
        eng.reset();
        let mut c = Mat::zeros(4, 4);
        gemm_payloads(&eng, &h, Op::NoTrans, &h, c.as_mut());
    }

    #[test]
    #[should_panic(expected = "belongs to another engine")]
    fn foreign_cache_is_rejected() {
        let eng = GpuSim::default();
        let other = GpuSim::default();
        let a = small(4, 4, 1.0);
        let h = other.cache_operand(Phase::Update, a.as_ref()).unwrap();
        let mut c = Mat::zeros(4, 4);
        gemm_payloads(&eng, &h, Op::NoTrans, &h, c.as_mut());
    }

    #[test]
    fn non_update_phase_stays_fp32() {
        let eng = GpuSim::default(); // tc_panel = false
        let a = small(10, 4, 1.0);
        let b = small(4, 4, 1.0);
        let mut c = Mat::zeros(10, 4);
        eng.gemm_f32(
            Phase::Panel,
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        assert_eq!(eng.counters().tc_flops, 0.0);
        assert!(eng.counters().fp32_flops > 0.0);
        // And the result is the exact f32 product (no half rounding).
        let mut cr = Mat::zeros(10, 4);
        gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, cr.as_mut());
        assert_eq!(c, cr);
    }

    #[test]
    fn overflow_during_rounding_is_counted() {
        let eng = GpuSim::default();
        let a = small(4, 4, 70000.0); // beyond fp16 max
        let b = small(4, 4, 1.0);
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
        let stats = eng.counters().round;
        assert!(stats.overflow > 0, "overflow not observed");
        assert!(!c.all_finite(), "infs must propagate into the product");
    }

    #[test]
    fn bf16_engine_does_not_overflow_at_that_scale() {
        let eng = GpuSim::default();
        eng.set_precision_override(Some(PrecisionOverride::Bf16));
        let a = small(4, 4, 70000.0);
        let b = small(4, 4, 1.0);
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
        assert_eq!(eng.counters().round.overflow, 0);
        assert!(c.all_finite());
    }

    #[test]
    fn tc_update_is_charged_faster_than_fp32() {
        let tc = GpuSim::default();
        let no = GpuSim::new(EngineConfig::no_tensorcore());
        // Charge identical large updates on both engines.
        tc.charge_gemm(Phase::Update, Class::TensorCore, 32768, 4096, 4096, 0);
        no.charge_gemm(Phase::Update, Class::Fp32, 32768, 4096, 4096, 0);
        assert!(tc.clock() < no.clock() / 5.0);
    }

    #[test]
    fn reset_clears_everything() {
        let eng = GpuSim::default();
        eng.charge_sgeqrf(Phase::Panel, 1000, 100);
        assert!(eng.clock() > 0.0);
        eng.reset();
        assert_eq!(eng.clock(), 0.0);
        assert_eq!(eng.counters().total_flops(), 0.0);
        assert_eq!(eng.counters().panel_calls, 0);
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical_to_no_plan() {
        let plain = GpuSim::default();
        let planned = GpuSim::default();
        planned.set_fault_plan(Some(FaultPlan::disabled()));
        assert!(!planned.fault_armed());
        let a = small(24, 8, 1.0);
        let b = small(8, 12, 0.5);
        let mut c1 = Mat::zeros(24, 12);
        let mut c2 = Mat::zeros(24, 12);
        plain.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c1.as_mut());
        planned.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
        assert_eq!(c1, c2);
        assert_eq!(plain.clock(), planned.clock());
        assert_eq!(plain.counters().round.total, planned.counters().round.total);
        assert_eq!(planned.fault_stats(), crate::fault::FaultStats::default());
    }

    #[test]
    fn each_fault_kind_is_injected_and_detected() {
        use std::sync::Arc;
        use tcqr_trace::{MemSink, Tracer};
        for kind in FaultKind::ALL {
            let sink = Arc::new(MemSink::new());
            let eng = GpuSim::with_tracer(EngineConfig::default(), Tracer::new(sink.clone()));
            let mut plan = FaultPlan::new(7, vec![kind]);
            plan.period = 1;
            plan.max_faults = 1;
            eng.set_fault_plan(Some(plan));
            assert!(eng.fault_armed());
            let a = small(32, 16, 1.0);
            let b = small(16, 24, 0.5);
            let mut c = Mat::zeros(32, 24);
            let mut clean = Mat::zeros(32, 24);
            eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
            GpuSim::default().gemm_f32(
                Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, clean.as_mut(),
            );
            let stats = eng.fault_stats();
            assert_eq!(stats.injected, 1, "{kind:?} not injected");
            assert_eq!(stats.detected, 1, "{kind:?} escaped detection");
            assert_ne!(c, clean, "{kind:?} left the product untouched");
            let events = sink.drain();
            let inj: Vec<_> = events.iter().filter(|e| e.name == FaultInjected::NAME).collect();
            assert_eq!(inj.len(), 1);
            assert_eq!(inj[0].str_field("kind"), Some(kind.as_str()));
            let det: Vec<_> = events.iter().filter(|e| e.name == FaultDetected::NAME).collect();
            assert_eq!(det.len(), 1);
            assert!(det[0].str_field("detector").is_some());
        }
    }

    #[test]
    fn fault_budget_caps_injections_and_retries_run_clean() {
        let eng = GpuSim::default();
        let mut plan = FaultPlan::all(3);
        plan.period = 1;
        plan.max_faults = 2;
        eng.set_fault_plan(Some(plan));
        let a = small(16, 8, 1.0);
        let b = small(8, 8, 0.5);
        let reference = {
            let clean = GpuSim::default();
            let mut c = Mat::zeros(16, 8);
            clean.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
            c
        };
        for _ in 0..6 {
            let mut c = Mat::zeros(16, 8);
            eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        }
        assert!(eng.fault_stats().injected <= 2, "budget exceeded");
        // Budget exhausted: the next GEMM must run clean.
        let mut c = Mat::zeros(16, 8);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        assert_eq!(c, reference);
    }

    #[test]
    fn precision_override_escalates_and_restores() {
        let eng = GpuSim::default();
        let a = small(8, 8, 70000.0); // overflows fp16, fits bf16
        let b = small(8, 8, 1.0);
        let mut c = Mat::zeros(8, 8);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        assert!(!c.all_finite(), "fp16 must overflow at this scale");
        assert!(eng.counters().overflow_ops > 0);

        eng.set_precision_override(Some(PrecisionOverride::Bf16));
        assert_eq!(eng.precision_override(), Some(PrecisionOverride::Bf16));
        let mut c2 = Mat::zeros(8, 8);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
        assert!(c2.all_finite(), "bf16 escalation must not overflow");

        eng.set_precision_override(Some(PrecisionOverride::Fp32));
        assert!(!eng.uses_tc(Phase::Update), "f32 escalation disables TC");
        let mut c3 = Mat::zeros(8, 8);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c3.as_mut());
        let mut exact = Mat::zeros(8, 8);
        gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, exact.as_mut());
        assert_eq!(c3, exact, "f32 escalation must run the raw product");

        eng.set_precision_override(None);
        assert!(eng.uses_tc(Phase::Update));
        assert_eq!(eng.precision_override(), None);
    }

    #[test]
    fn overflow_warns_again_for_a_new_op_kind() {
        use std::sync::Arc;
        use tcqr_trace::{MemSink, Tracer};
        let sink = Arc::new(MemSink::new());
        let eng = GpuSim::with_tracer(EngineConfig::default(), Tracer::new(sink.clone()));
        let a = small(4, 4, 70000.0);
        let b = small(4, 4, 1.0);
        let mut c = Mat::zeros(4, 4);
        // Two overflowing GEMMs: one warning.
        for _ in 0..2 {
            eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        }
        // A different op kind overflowing: warns again.
        let _ = eng.cache_operand(Phase::Update, a.as_ref());
        let warns: Vec<_> = sink
            .drain()
            .into_iter()
            .filter(|e| e.name == "engine.fp16_overflow")
            .collect();
        assert_eq!(warns.len(), 2, "one warning per overflowing op kind");
        assert_eq!(warns[0].str_field("op"), Some("gemm"));
        assert_eq!(warns[1].str_field("op"), Some("round_half"));
        assert_eq!(eng.counters().overflow_ops, 3, "every saturated op tallied");
    }

    #[test]
    fn ledger_separates_phases() {
        let eng = GpuSim::default();
        eng.charge_caqr_panel(32768, 128);
        eng.charge_gemm(Phase::Update, Class::TensorCore, 32768, 8192, 8192, 0);
        let l = eng.ledger();
        assert!(l.get(Phase::Panel) > 0.0);
        assert!(l.get(Phase::Update) > 0.0);
        assert_eq!(l.get(Phase::Solve), 0.0);
        assert!((l.total() - eng.clock()).abs() < 1e-15);
    }

    #[test]
    fn crash_fires_at_the_planned_op_and_latches() {
        let eng = GpuSim::default();
        eng.set_avail_plan(Some(EngineFaultPlan::crash_at(1)));
        assert!(eng.avail_armed());
        // Op 0 runs; op 1 dies before being accounted.
        eng.charge_secs(Phase::Other, 1.0);
        let clock_before = eng.clock();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.charge_secs(Phase::Other, 5.0);
        }));
        let payload = caught.expect_err("op 1 must crash");
        let crash = payload
            .downcast_ref::<EngineCrash>()
            .expect("payload is an EngineCrash");
        assert_eq!(crash.at_op, 1);
        assert_eq!(crash.engine_id, eng.id);
        assert!(eng.avail_stats().crashed_at.is_some());
        // The crashed op never landed in the ledger, and accounting on the
        // corpse stays readable (the state mutex was not poisoned).
        assert_eq!(eng.clock(), clock_before);
        // Every further op refuses to run with the same payload.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.charge_secs(Phase::Other, 1.0);
        }));
        assert!(again.is_err(), "a dead engine must not compute");
    }

    #[test]
    fn hang_and_slowdown_shape_the_clock_not_the_numerics() {
        // Hang: op completes, stall charged to Other.
        let eng = GpuSim::default();
        let hang = avail::EngineFaultKind::Hang { stall_secs: 2.5 };
        eng.set_avail_plan(Some(EngineFaultPlan::disabled().with(0, hang)));
        eng.charge_secs(Phase::Solve, 1.0);
        assert_eq!(eng.ledger().get(Phase::Other), 2.5);
        assert_eq!(eng.ledger().get(Phase::Solve), 1.0);
        assert_eq!(eng.avail_stats().hangs, 1);

        // Slowdown: charged time scales inside the window, numerics exact.
        let slow = GpuSim::default();
        let slowdown = avail::EngineFaultKind::Slowdown { factor: 3.0, window: u64::MAX };
        slow.set_avail_plan(Some(EngineFaultPlan::disabled().with(0, slowdown)));
        let base = GpuSim::default();
        let a = small(16, 8, 1.0);
        let b = small(8, 8, 1.0);
        let mut c1 = Mat::zeros(16, 8);
        let mut c2 = Mat::zeros(16, 8);
        slow.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c1.as_mut());
        base.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
        assert_eq!(c1, c2, "a slow engine still computes exact bits");
        assert!((slow.clock() - 3.0 * base.clock()).abs() < 1e-18);
        assert!(slow.avail_stats().slowed_ops > 0);
    }

    #[test]
    fn disabled_avail_plan_never_arms() {
        let eng = GpuSim::default();
        eng.set_avail_plan(Some(EngineFaultPlan::disabled()));
        assert!(!eng.avail_armed());
        eng.charge_secs(Phase::Other, 1.0);
        assert_eq!(eng.avail_stats().ops, 0, "disarmed plan observes nothing");
    }

    #[test]
    fn reset_in_place_proves_cleanliness_against_a_fresh_engine() {
        let eng = GpuSim::default();
        let fresh_fp = GpuSim::default().state_fingerprint();
        assert_eq!(eng.state_fingerprint(), fresh_fp, "fresh engines agree");

        // Dirty the engine every way the fingerprint watches: accounting,
        // a precision escalation, and a crash.
        eng.set_avail_plan(Some(EngineFaultPlan::crash_at(2)));
        let a = small(16, 8, 1.0);
        let b = small(8, 8, 1.0);
        let mut c = Mat::zeros(16, 8);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        eng.set_precision_override(Some(PrecisionOverride::Bf16));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.charge_secs(Phase::Other, 1.0);
            eng.charge_secs(Phase::Other, 1.0);
        }));
        assert!(eng.avail_stats().crashed_at.is_some());
        assert_ne!(eng.state_fingerprint(), fresh_fp);

        // Scrub-in-place: clean bill of health, engine revived and usable.
        assert!(eng.reset_in_place(), "scrubbed state matches a fresh engine");
        assert_eq!(eng.state_fingerprint(), fresh_fp);
        assert_eq!(eng.avail_stats().crashed_at, None);
        assert!(!eng.avail_armed(), "tenant's availability plan is dropped");
        assert_eq!(eng.precision_override(), None);
        eng.charge_secs(Phase::Solve, 1.0);
        assert_eq!(eng.clock(), 1.0);
    }

    /// An engine with the error-corrected override armed.
    fn ec_engine() -> GpuSim {
        let eng = GpuSim::default();
        eng.set_precision_override(Some(PrecisionOverride::ErrorCorrected));
        eng
    }

    #[test]
    fn ec_gemm_matches_split_composite_reference() {
        let eng = ec_engine();
        let a = small(20, 8, 1.0);
        let b = small(8, 6, 0.5);
        let mut c = Mat::zeros(20, 6);
        eng.gemm_f32(Phase::Update, 2.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        // Reference: split by hand, three f32-accumulated products.
        let split = |m: &Mat<f32>| {
            let mut hi = Mat::zeros(m.nrows(), m.ncols());
            let mut lo = Mat::zeros(m.nrows(), m.ncols());
            halfsim::split_f16_slice(m.data(), hi.data_mut(), lo.data_mut());
            (hi, lo)
        };
        let (ah, al) = split(&a);
        let (bh, bl) = split(&b);
        let mut cr = Mat::zeros(20, 6);
        gemm(2.0, Op::NoTrans, ah.as_ref(), Op::NoTrans, bh.as_ref(), 0.0, cr.as_mut());
        let corr = 2.0 * halfsim::SPLIT_INV_SCALE;
        gemm(corr, Op::NoTrans, ah.as_ref(), Op::NoTrans, bl.as_ref(), 1.0, cr.as_mut());
        gemm(corr, Op::NoTrans, al.as_ref(), Op::NoTrans, bh.as_ref(), 1.0, cr.as_mut());
        assert_eq!(c, cr);
    }

    #[test]
    fn ec_is_far_more_accurate_than_plain_f16() {
        let a = small(24, 12, 1.0);
        let b = small(12, 10, 1.0);
        let mut exact = Mat::zeros(24, 10);
        gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, exact.as_mut());
        let run = |eng: &GpuSim| {
            let mut c = Mat::zeros(24, 10);
            eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
            c.data()
                .iter()
                .zip(exact.data())
                .map(|(x, y)| (x - y).abs() as f64)
                .fold(0.0f64, f64::max)
        };
        let err_f16 = run(&GpuSim::default());
        let err_ec = run(&ec_engine());
        assert!(
            err_ec < err_f16 / 64.0,
            "EC must beat plain fp16 by a wide margin: ec={err_ec:.3e} f16={err_f16:.3e}"
        );
    }

    #[test]
    fn ec_armed_then_disarmed_is_bit_identical_to_baseline() {
        // Mirrors `inactive_fault_plan_is_bit_identical_to_no_plan`: arming
        // and clearing the EC override before any op must leave the engine
        // indistinguishable from one that never saw it.
        let plain = GpuSim::default();
        let toggled = GpuSim::default();
        toggled.set_precision_override(Some(PrecisionOverride::ErrorCorrected));
        toggled.set_precision_override(None);
        let a = small(24, 8, 1.0);
        let b = small(8, 12, 0.5);
        let mut c1 = Mat::zeros(24, 12);
        let mut c2 = Mat::zeros(24, 12);
        plain.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c1.as_mut());
        toggled.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
        assert_eq!(c1, c2);
        assert_eq!(plain.clock(), toggled.clock());
        for p in Phase::ALL {
            assert_eq!(plain.ledger().get(p), toggled.ledger().get(p), "{p:?}");
        }
        assert_eq!(plain.counters().round, toggled.counters().round);
        assert_eq!(plain.counters().gemm_calls, toggled.counters().gemm_calls);
        assert_eq!(plain.counters().tc_flops, toggled.counters().tc_flops);
        assert_eq!(plain.state_fingerprint(), toggled.state_fingerprint());
    }

    #[test]
    fn ec_charges_exactly_three_tc_products_plus_split() {
        let eng = ec_engine();
        let base = GpuSim::default();
        let a = small(12, 8, 1.0);
        let b = small(8, 10, 0.5);
        let mut c1 = Mat::zeros(12, 10);
        let mut c2 = Mat::zeros(12, 10);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c1.as_mut());
        base.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
        // Closed form for the uncached call, which splits both operands
        // itself: 3 TC products of the same shape plus both sides' split
        // traffic.
        let pm = PerfModel;
        let split = 8 * (12 + 10);
        assert_eq!(eng.clock(), pm.ec_gemm_charge_secs(12, 10, 8, split));
        assert_eq!(eng.clock(), 3.0 * base.clock() + pm.ec_split_elems_secs(split));
        // Three products perform 3x the flops; rounding events are counted
        // once per operand element, exactly like the plain pass.
        assert_eq!(eng.counters().tc_flops, 3.0 * base.counters().tc_flops);
        assert_eq!(eng.counters().round, base.counters().round);
        assert_eq!(eng.counters().gemm_calls, 1);
    }

    #[test]
    fn charge_gemm_prices_like_a_routed_gemm_under_every_override() {
        let (a, b) = (small(12, 8, 1.0), small(8, 10, 0.5));
        let overrides = [
            None,
            Some(PrecisionOverride::ErrorCorrected),
            Some(PrecisionOverride::Bf16),
            Some(PrecisionOverride::Fp32),
        ];
        for o in overrides {
            let (routed, charged) = (GpuSim::default(), GpuSim::default());
            routed.set_precision_override(o);
            charged.set_precision_override(o);
            let mut c = Mat::zeros(12, 10);
            let (na, nb) = (a.as_ref(), b.as_ref());
            routed.gemm_f32(Phase::Update, 1.0, Op::NoTrans, na, Op::NoTrans, nb, 0.0, c.as_mut());
            let tc = charged.uses_tc(Phase::Update);
            let class = if tc { Class::TensorCore } else { Class::Fp32 };
            // A routed call stages both operands itself: 12x8 + 8x10 fresh elements.
            charged.charge_gemm(Phase::Update, class, 12, 10, 8, 12 * 8 + 8 * 10);
            assert_eq!(routed.clock().to_bits(), charged.clock().to_bits(), "{o:?}");
            let (r, q) = (routed.counters(), charged.counters());
            assert_eq!((r.tc_flops, r.fp32_flops), (q.tc_flops, q.fp32_flops), "{o:?}");
        }
    }

    #[test]
    fn ec_cache_operand_records_rounding_once_and_carries_lo() {
        let eng = ec_engine();
        let a = small(10, 6, 1.0);
        let h = eng.cache_operand(Phase::Update, a.as_ref()).unwrap();
        assert!(h.lo().is_some(), "EC cache must carry the lo payload");
        assert_eq!(h.stats().total, 60);
        assert_eq!(eng.counters().round.total, 60, "counted at cache time");
        let mut c1 = Mat::zeros(6, 6);
        let op = payload(&h);
        eng.gemm_f32_cached(Phase::Update, true, 1.0, Op::Trans, op, Op::NoTrans, op, 0.0, c1.as_mut());
        assert_eq!(
            eng.counters().round.total,
            60,
            "consuming the cache must not re-count roundings"
        );
        // And the cached product is bit-identical to the uncached one.
        let uncached = ec_engine();
        let mut c3 = Mat::zeros(6, 6);
        uncached.gemm_f32(Phase::Update, 1.0, Op::Trans, a.as_ref(), Op::NoTrans, a.as_ref(), 0.0, c3.as_mut());
        let cached = ec_engine();
        let h2 = cached.cache_operand(Phase::Update, a.as_ref()).unwrap();
        let mut c4 = Mat::zeros(6, 6);
        cached.gemm_f32_cached(
            Phase::Update,
            true,
            1.0,
            Op::Trans,
            CachedOperand::new(a.as_ref(), Some(&h2)),
            Op::NoTrans,
            CachedOperand::new(a.as_ref(), Some(&h2)),
            0.0,
            c4.as_mut(),
        );
        assert_eq!(c3, c4, "cached EC operands must not change bits");
        // The cached call split nothing itself, so it is charged the three
        // TC products without any split traffic; the uncached call paid for
        // splitting both 10x6 operands (120 elements).
        let pm = PerfModel;
        assert_eq!(cached.clock(), pm.ec_gemm_charge_secs(6, 6, 10, 0));
        assert_eq!(
            uncached.clock(),
            cached.clock() + pm.ec_split_elems_secs(120),
            "uncached call pays exactly the two operands' split traffic"
        );
    }

    #[test]
    fn ec_cache_cols_fills_hi_and_lo_windows_identical_to_whole() {
        let a = windowed_operand();
        let (eng, shell) = whole_vs_windows(ec_engine, &a);
        assert!(shell.lo().is_some(), "EC caches carry the lo payload");
        // A column window of the EC shell is a usable cached operand.
        let win = a.as_ref().submatrix(0, 3, 16, 7);
        let mut c1 = Mat::zeros(7, 7);
        eng.gemm_f32_cached(
            Phase::Update,
            true,
            1.0,
            Op::Trans,
            CachedOperand::cols(win, &shell, 3),
            Op::NoTrans,
            CachedOperand::fresh(win),
            0.0,
            c1.as_mut(),
        );
        let mut c2 = Mat::zeros(7, 7);
        eng.gemm_f32(Phase::Update, 1.0, Op::Trans, win, Op::NoTrans, win, 0.0, c2.as_mut());
        assert_eq!(c1, c2);
    }

    #[test]
    fn ec_armed_fault_plan_injects_and_detects_each_kind() {
        for kind in FaultKind::ALL {
            let eng = ec_engine();
            let mut plan = FaultPlan::new(7, vec![kind]);
            plan.period = 1;
            plan.max_faults = 1;
            eng.set_fault_plan(Some(plan));
            let a = small(32, 16, 1.0);
            let b = small(16, 24, 0.5);
            let mut c = Mat::zeros(32, 24);
            let mut clean = Mat::zeros(32, 24);
            eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
            ec_engine().gemm_f32(
                Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, clean.as_mut(),
            );
            let stats = eng.fault_stats();
            assert_eq!(stats.injected, 1, "{kind:?} not injected under EC");
            assert_eq!(stats.detected, 1, "{kind:?} escaped the EC-aware detector");
            assert_ne!(c, clean, "{kind:?} left the EC product untouched");
        }
    }

    #[test]
    fn ec_armed_but_unfired_plan_raises_no_false_positives() {
        // The checksum reference is computed from the recomposed composite
        // operands; an EC result must sit inside its tolerance, so once the
        // fault budget is exhausted the still-armed detector sees nothing
        // and the armed pipeline changes no bits.
        let eng = ec_engine();
        let mut plan = FaultPlan::all(11);
        plan.period = 1;
        plan.max_faults = 1;
        eng.set_fault_plan(Some(plan));
        assert!(eng.fault_armed());
        let quiet = ec_engine();
        let a = small(40, 24, 1.0);
        let b = small(24, 32, 0.5);
        // First GEMM absorbs the one budgeted injection.
        let mut c0 = Mat::zeros(40, 32);
        eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c0.as_mut());
        let after_first = eng.fault_stats();
        // Budget exhausted: every further armed GEMM runs the full checksum
        // pipeline but must be bit-identical to an unarmed EC engine.
        for _ in 0..4 {
            let mut c1 = Mat::zeros(40, 32);
            let mut c2 = Mat::zeros(40, 32);
            eng.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c1.as_mut());
            quiet.gemm_f32(Phase::Update, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c2.as_mut());
            assert_eq!(c1, c2, "armed-but-unfired EC GEMM changed bits");
        }
        let stats = eng.fault_stats();
        assert_eq!(stats.injected, after_first.injected, "budget exceeded");
        assert_eq!(stats.detected, after_first.detected, "false positive under EC");
    }

    #[test]
    fn ec_override_round_trips_and_escalates() {
        let eng = GpuSim::default();
        eng.set_precision_override(Some(PrecisionOverride::ErrorCorrected));
        assert_eq!(eng.precision_override(), Some(PrecisionOverride::ErrorCorrected));
        assert!(eng.uses_tc(Phase::Update), "EC is a TC mode");
        eng.set_precision_override(None);
        assert_eq!(eng.precision_override(), None);
    }

    #[test]
    fn stale_cache_rejected_after_reset_in_place() {
        let eng = GpuSim::default();
        let a = small(8, 4, 1.0);
        let h = eng.cache_operand(Phase::Update, a.as_ref()).expect("TC phase");
        assert!(eng.reset_in_place());
        let mut c = Mat::zeros(8, 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gemm_payloads(&eng, &h, Op::Trans, &h, c.as_mut());
        }));
        assert!(r.is_err(), "pre-scrub HalfMat must not survive the scrub");
    }
}
