//! Retry-with-escalation recovery for fault-corrupted factorizations.
//!
//! When a fault-injection campaign is armed on the engine
//! ([`GpuSim::fault_armed`]), the solvers wrap their engine-facing work in
//! [`run_with_recovery`]: after each attempt they poll the engine's
//! [`FaultStats`](tensor_engine::FaultStats) and the output's finiteness,
//! and on corruption they retry up an escalation ladder
//! ([`RecoveryPolicy::escalation`]):
//!
//! 1. [`Rung::Recompute`] — run the same computation again (transient faults
//!    are the common case; the campaign budget also drains).
//! 2. [`Rung::Rescale`] — tighten the §3.5 column scaling by extra
//!    power-of-two headroom bits, pulling intermediates further from the
//!    fp16 overflow edge (a dynamic generalization of the paper's scaling).
//! 3. [`Rung::EscalateEc`] — rerun with the engine in error-corrected mode
//!    ([`PrecisionOverride::ErrorCorrected`], the Ootomo–Yokota hi/lo split):
//!    near-f32 accuracy while staying on the tensor cores, at roughly 3×
//!    TensorCore cost — far cheaper than abandoning the units outright.
//! 4. [`Rung::EscalateBf16`] — rerun with the engine's half format
//!    overridden to bfloat16 (f32's exponent range: overflow faults lose
//!    their bite).
//! 5. [`Rung::EscalateF32`] — disable TensorCore entirely for the attempt.
//!    No TC GEMMs means no injection sites, so this rung always runs clean —
//!    the ladder's safety net.
//!
//! **The ladder is gated strictly on [`GpuSim::fault_armed`]**: with faults
//! off, [`run_with_recovery`] makes exactly one attempt and returns it
//! unconditionally, so solver outputs, ledger charges, and the ablations'
//! intentional-overflow experiments are bit-identical to the pre-recovery
//! code.

use crate::error::TcqrError;
use tcqr_trace::schema::{RecoveryOutcome, RecoveryRetry};
use tensor_engine::{GpuSim, PrecisionOverride};

/// One escalation step of the recovery ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Retry the identical computation.
    Recompute,
    /// Retry with extra power-of-two column-scaling headroom.
    Rescale,
    /// Retry in error-corrected mode (hi/lo split GEMM on the tensor
    /// cores): near-f32 accuracy at ~3× TensorCore cost.
    EscalateEc,
    /// Retry with the engine's half format overridden to bfloat16.
    EscalateBf16,
    /// Retry with TensorCore disabled (plain f32 — no injection sites).
    EscalateF32,
}

impl Rung {
    /// Stable lowercase name used in trace events and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Recompute => "recompute",
            Rung::Rescale => "rescale",
            Rung::EscalateEc => "escalate-ec",
            Rung::EscalateBf16 => "escalate-bf16",
            Rung::EscalateF32 => "escalate-f32",
        }
    }
}

/// What [`run_with_recovery`] does when every permitted attempt came back
/// corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnExhausted {
    /// Return [`TcqrError::RetryBudgetExhausted`] (or
    /// [`TcqrError::FaultDetected`] when the policy permitted no retries).
    Error,
    /// Return the last attempt's (corrupted) result anyway — for callers
    /// that prefer degraded output over no output.
    KeepLast,
}

/// Governs how hard the solvers fight a detected corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries permitted after the initial attempt. 0 means detect-only.
    pub max_retries: usize,
    /// The escalation ladder; retry `i` uses `escalation[i - 1]`, and the
    /// last rung repeats if `max_retries` exceeds the ladder length. An
    /// empty ladder retries with [`Rung::Recompute`].
    pub escalation: Vec<Rung>,
    /// Behavior when every attempt was corrupted.
    pub on_exhausted: OnExhausted,
}

impl Default for RecoveryPolicy {
    /// The full ladder. Because [`Rung::EscalateF32`] removes every
    /// injection site, the default policy is guaranteed to terminate with a
    /// clean result — campaigns against the panicking solver wrappers can
    /// never exhaust it.
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 5,
            escalation: vec![
                Rung::Recompute,
                Rung::Rescale,
                Rung::EscalateEc,
                Rung::EscalateBf16,
                Rung::EscalateF32,
            ],
            on_exhausted: OnExhausted::Error,
        }
    }
}

impl RecoveryPolicy {
    /// The rung retry number `retry` (1-based) escalates to.
    fn rung_for(&self, retry: usize) -> Rung {
        self.escalation
            .get(retry - 1)
            .or(self.escalation.last())
            .copied()
            .unwrap_or(Rung::Recompute)
    }
}

/// Per-attempt knobs handed to the solver body by [`run_with_recovery`].
#[derive(Clone, Copy, Debug)]
pub struct Attempt {
    /// 0 for the initial attempt, then 1..=max_retries.
    pub index: usize,
    /// The rung this retry escalated to (`None` on the initial attempt).
    pub rung: Option<Rung>,
    /// Extra power-of-two column-scaling headroom bits accumulated from
    /// [`Rung::Rescale`] rungs (2 bits per rung).
    pub headroom: u32,
}

impl Attempt {
    fn first() -> Attempt {
        Attempt {
            index: 0,
            rung: None,
            headroom: 0,
        }
    }
}

/// Restores the engine's precision override on scope exit, panic included.
struct OverrideGuard<'a> {
    eng: &'a GpuSim,
    prev: Option<PrecisionOverride>,
}

impl Drop for OverrideGuard<'_> {
    fn drop(&mut self) {
        self.eng.set_precision_override(self.prev);
    }
}

/// Run `body` with the engine's recovery ladder.
///
/// With no armed fault plan this is exactly one call to `body`, returned
/// unconditionally — bit-identical to the pre-recovery behavior, including
/// for runs that legitimately overflow fp16 (the ablations rely on that).
///
/// Armed, each attempt is judged corrupted when the engine's detected-fault
/// count grew during it or `healthy` rejects its output; corrupted attempts
/// retry up the policy's escalation ladder. Each retry emits a
/// `recovery.retry` warning and the loop closes with a `recovery.outcome`
/// op event (fields: `op`, `attempts`, `recovered`, `rung`).
pub fn run_with_recovery<T>(
    eng: &GpuSim,
    op: &'static str,
    policy: &RecoveryPolicy,
    mut body: impl FnMut(&Attempt) -> T,
    healthy: impl Fn(&T) -> bool,
) -> Result<T, TcqrError> {
    if !eng.fault_armed() {
        return Ok(body(&Attempt::first()));
    }

    let tracer = eng.tracer();
    let guard = OverrideGuard {
        eng,
        prev: eng.precision_override(),
    };
    let mut attempt = Attempt::first();
    loop {
        let before = eng.fault_stats().detected;
        let out = body(&attempt);
        let detected = eng.fault_stats().detected - before;
        let corrupted = detected > 0 || !healthy(&out);
        if !corrupted {
            RecoveryOutcome {
                op: op.into(),
                attempts: attempt.index as u64 + 1,
                recovered: true,
                rung: attempt.rung.map_or("none", Rung::as_str).into(),
            }
            .emit(&tracer);
            drop(guard);
            return Ok(out);
        }

        if attempt.index >= policy.max_retries {
            RecoveryOutcome {
                op: op.into(),
                attempts: attempt.index as u64 + 1,
                recovered: false,
                rung: attempt.rung.map_or("none", Rung::as_str).into(),
            }
            .emit(&tracer);
            drop(guard);
            return match policy.on_exhausted {
                OnExhausted::KeepLast => Ok(out),
                OnExhausted::Error if policy.max_retries == 0 => {
                    Err(TcqrError::FaultDetected {
                        op,
                        detail: format!(
                            "a fault campaign corrupted the computation \
                             ({detected} detection(s)) and the policy permits no retries"
                        ),
                    })
                }
                OnExhausted::Error => Err(TcqrError::RetryBudgetExhausted {
                    op,
                    attempts: attempt.index + 1,
                    detail: format!(
                        "every attempt was corrupted (last: {detected} detection(s))"
                    ),
                }),
            };
        }

        // Escalate.
        let retry = attempt.index + 1;
        let rung = policy.rung_for(retry);
        attempt.index = retry;
        attempt.rung = Some(rung);
        match rung {
            Rung::Recompute => {}
            Rung::Rescale => attempt.headroom += 2,
            // The precision override is sticky for the rest of the ladder:
            // once ec/bf16/f32 was needed, dropping back down would just
            // fail again. The guard restores the caller's override on exit.
            Rung::EscalateEc => {
                eng.set_precision_override(Some(PrecisionOverride::ErrorCorrected))
            }
            Rung::EscalateBf16 => {
                eng.set_precision_override(Some(PrecisionOverride::Bf16))
            }
            Rung::EscalateF32 => {
                eng.set_precision_override(Some(PrecisionOverride::Fp32))
            }
        }
        RecoveryRetry {
            op: op.into(),
            attempt: retry as u64,
            rung: rung.as_str().into(),
            detected,
            msg: "a detected fault corrupted the computation; retrying up \
                  the recovery ladder"
                .into(),
        }
        .emit(&tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::{Mat, Op};
    use tensor_engine::{FaultKind, FaultPlan, Phase};

    #[test]
    fn rung_schedule_follows_the_ladder_then_repeats_the_last() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.rung_for(1), Rung::Recompute);
        assert_eq!(p.rung_for(2), Rung::Rescale);
        assert_eq!(p.rung_for(3), Rung::EscalateEc);
        assert_eq!(p.rung_for(4), Rung::EscalateBf16);
        assert_eq!(p.rung_for(5), Rung::EscalateF32);
        assert_eq!(p.rung_for(9), Rung::EscalateF32, "last rung repeats");
        let empty = RecoveryPolicy {
            escalation: vec![],
            ..RecoveryPolicy::default()
        };
        assert_eq!(empty.rung_for(1), Rung::Recompute);
    }

    #[test]
    fn rung_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = [
            Rung::Recompute,
            Rung::Rescale,
            Rung::EscalateEc,
            Rung::EscalateBf16,
            Rung::EscalateF32,
        ]
        .iter()
        .map(|r| r.as_str())
        .collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn unarmed_engine_makes_exactly_one_attempt() {
        let eng = GpuSim::default();
        let mut calls = 0;
        let out = run_with_recovery(
            &eng,
            "test",
            &RecoveryPolicy::default(),
            |att| {
                calls += 1;
                assert_eq!(att.index, 0);
                42
            },
            |_| false, // even "unhealthy" output is returned unconditionally
        )
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(calls, 1);
    }

    /// Drives a real armed engine through the ladder: every attempt runs a
    /// TC GEMM that the plan corrupts (period 1, ample budget), so only the
    /// f32 rung — no TensorCore, no injection sites — can come back clean.
    #[test]
    fn armed_engine_climbs_to_the_f32_rung_and_restores_the_override() {
        let eng = GpuSim::default();
        let mut plan = FaultPlan::new(9, vec![FaultKind::NanColumn]);
        plan.period = 1;
        plan.max_faults = 1000;
        eng.set_fault_plan(Some(plan));

        let a = Mat::from_fn(24, 16, |i, j| ((i * 7 + j) % 5) as f32 * 0.25 + 0.1);
        let b = Mat::from_fn(16, 12, |i, j| ((i + 2 * j) % 3) as f32 * 0.5 - 0.4);
        let mut rungs = Vec::new();
        let out = run_with_recovery(
            &eng,
            "test",
            &RecoveryPolicy::default(),
            |att| {
                rungs.push(att.rung);
                let mut c: Mat<f32> = Mat::zeros(24, 12);
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
                c
            },
            |c| c.all_finite(),
        )
        .unwrap();
        assert!(out.all_finite());
        assert_eq!(
            rungs.last().copied().flatten(),
            Some(Rung::EscalateF32),
            "ladder should have climbed to f32: {rungs:?}"
        );
        assert_eq!(eng.precision_override(), None, "override must be restored");
        let stats = eng.fault_stats();
        assert!(stats.injected >= 1);
        assert_eq!(stats.detected, stats.injected, "nothing may escape");
    }

    #[test]
    fn detect_only_policy_returns_fault_detected() {
        let eng = GpuSim::default();
        let mut plan = FaultPlan::new(3, vec![FaultKind::NanColumn]);
        plan.period = 1;
        plan.max_faults = 1000;
        eng.set_fault_plan(Some(plan));

        let a = Mat::from_fn(16, 8, |i, j| (i + j) as f32 * 0.1 + 0.2);
        let err = run_with_recovery(
            &eng,
            "test",
            // Detect only: no retries, typed error on corruption.
            &RecoveryPolicy {
                max_retries: 0,
                escalation: Vec::new(),
                on_exhausted: OnExhausted::Error,
            },
            |_| {
                let mut c: Mat<f32> = Mat::zeros(16, 8);
                eng.gemm_f32(
                    Phase::Update,
                    1.0,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    Mat::from_fn(8, 8, |i, j| ((i * j) % 4) as f32 * 0.3).as_ref(),
                    0.0,
                    c.as_mut(),
                );
                c
            },
            |c: &Mat<f32>| c.all_finite(),
        )
        .unwrap_err();
        assert!(matches!(err, TcqrError::FaultDetected { op: "test", .. }), "{err}");
    }

    #[test]
    fn keep_last_returns_the_corrupted_result() {
        let eng = GpuSim::default();
        let mut plan = FaultPlan::new(5, vec![FaultKind::NanColumn]);
        plan.period = 1;
        plan.max_faults = 1000;
        eng.set_fault_plan(Some(plan));
        let policy = RecoveryPolicy {
            max_retries: 1,
            escalation: vec![Rung::Recompute],
            on_exhausted: OnExhausted::KeepLast,
        };
        let a = Mat::from_fn(16, 8, |i, j| (i + j) as f32 * 0.1 + 0.2);
        let b = Mat::from_fn(8, 8, |i, j| ((i * j) % 4) as f32 * 0.3 + 0.1);
        let out = run_with_recovery(
            &eng,
            "test",
            &policy,
            |_| {
                let mut c: Mat<f32> = Mat::zeros(16, 8);
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
                c
            },
            |c: &Mat<f32>| c.all_finite(),
        )
        .unwrap();
        assert!(!out.all_finite(), "KeepLast hands back the degraded result");
    }
}
