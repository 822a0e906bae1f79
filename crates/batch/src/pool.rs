//! A fleet of independent simulated engines sharing one configuration.

use crate::fingerprint::Fingerprint;
use densemat::splitmix64;
use std::sync::atomic::{AtomicU8, Ordering};
use tensor_engine::{
    AvailStats, Counters, EngineConfig, EngineFaultPlan, FaultPlan, FaultStats, GpuSim, Ledger,
    PrecisionOverride,
};
use tcqr_trace::Tracer;

/// Lifecycle state of one engine in the pool.
///
/// The ladder only ever moves in one direction during a run —
/// `Healthy → Degraded → Quarantined → Dead` — except for the one
/// supervised transition back: [`EnginePool::rehabilitate`] returns a
/// `Quarantined` engine to `Healthy` **iff** its
/// [`GpuSim::reset_in_place`] cleanliness proof passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineHealth {
    /// In rotation, no observed failures.
    Healthy,
    /// In rotation, but has failed jobs since its last clean bill of
    /// health — a circuit breaker watches it.
    Degraded,
    /// Out of rotation pending a reset-in-place cleanliness proof.
    Quarantined,
    /// Crashed; only [`EnginePool::rehabilitate`] can revive it.
    Dead,
}

impl EngineHealth {
    /// Stable lowercase name used in trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineHealth::Healthy => "healthy",
            EngineHealth::Degraded => "degraded",
            EngineHealth::Quarantined => "quarantined",
            EngineHealth::Dead => "dead",
        }
    }

    /// Whether the engine may be handed new work.
    pub fn in_rotation(self) -> bool {
        matches!(self, EngineHealth::Healthy | EngineHealth::Degraded)
    }

    fn to_u8(self) -> u8 {
        match self {
            EngineHealth::Healthy => 0,
            EngineHealth::Degraded => 1,
            EngineHealth::Quarantined => 2,
            EngineHealth::Dead => 3,
        }
    }

    fn from_u8(v: u8) -> EngineHealth {
        match v {
            0 => EngineHealth::Healthy,
            1 => EngineHealth::Degraded,
            2 => EngineHealth::Quarantined,
            _ => EngineHealth::Dead,
        }
    }
}

/// `N` independent [`GpuSim`] instances sharing one [`EngineConfig`] (and
/// therefore one performance model), standing in for a device partitioned
/// into `N` single-tenant slices.
///
/// Each engine keeps its own clock, ledger, counters, fault plan, and
/// precision override, so one tenant's fault campaign or bf16/f32
/// escalation never bleeds into a neighbor. The pool itself is `Sync`:
/// the [`crate::BatchScheduler`] shares it across its worker threads, with the
/// job-to-engine assignment guaranteeing that at most one job touches an
/// engine at a time.
///
/// Observability contract: mid-run engine events reach the trace from
/// whichever thread runs the lane, so their interleaving across
/// engines is *not* deterministic (only the per-engine content is). Fleet
/// observability — timelines, SLOs, dashboards in `tcqr-obs` — therefore
/// consumes the post-hoc `engine.segment` / `fleet.*` events that
/// `FleetReport::emit` replays from this accounting on the calling thread,
/// never the raw mid-run stream.
pub struct EnginePool {
    engines: Vec<GpuSim>,
    /// Per-engine [`EngineHealth`], `to_u8`-encoded. Atomics (not a
    /// `Mutex<Vec<_>>`) so a lane's thread can mark its engine dead while
    /// other lanes keep running.
    health: Vec<AtomicU8>,
}

impl EnginePool {
    /// Create a pool of `n` engines (`n >= 1`) sharing `cfg`.
    ///
    /// Like [`GpuSim::new`], every engine picks up the process-global
    /// fault plan (if armed) and the global tracer; use
    /// [`EnginePool::set_fault_plan`] / [`EnginePool::arm`] for per-tenant
    /// plans and [`EnginePool::with_tracer`] for per-engine sinks.
    pub fn new(n: usize, cfg: EngineConfig) -> Self {
        assert!(n >= 1, "EnginePool needs at least one engine");
        EnginePool {
            engines: (0..n).map(|_| GpuSim::new(cfg)).collect(),
            health: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Create a pool whose engine `i` traces into `mk(i)`.
    pub fn with_tracer(n: usize, cfg: EngineConfig, mut mk: impl FnMut(usize) -> Tracer) -> Self {
        assert!(n >= 1, "EnginePool needs at least one engine");
        EnginePool {
            engines: (0..n).map(|i| GpuSim::with_tracer(cfg, mk(i))).collect(),
            health: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Number of engines in the pool.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Always false: the constructors reject empty pools.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Borrow engine `i`.
    pub fn engine(&self, i: usize) -> &GpuSim {
        &self.engines[i]
    }

    /// All engines, in pool order.
    pub fn engines(&self) -> &[GpuSim] {
        &self.engines
    }

    /// Install (or clear, with `None`) a fault plan on engine `i` only.
    pub fn set_fault_plan(&self, i: usize, plan: Option<FaultPlan>) {
        self.engines[i].set_fault_plan(plan);
    }

    /// Arm every engine with a copy of `base` whose seed is decorrelated
    /// per engine (splitmix64 of `base.seed` and the engine index), so
    /// tenants see independent fault schedules from one campaign spec.
    pub fn arm(&self, base: &FaultPlan) {
        for (i, eng) in self.engines.iter().enumerate() {
            let mut plan = base.clone();
            plan.seed = derive_seed(base.seed, i as u64);
            eng.set_fault_plan(Some(plan));
        }
    }

    /// Set (or clear) a precision override on engine `i` only.
    pub fn set_precision_override(&self, i: usize, o: Option<PrecisionOverride>) {
        self.engines[i].set_precision_override(o);
    }

    /// Install (or clear) an availability-fault plan on engine `i` only.
    pub fn set_avail_plan(&self, i: usize, plan: Option<EngineFaultPlan>) {
        self.engines[i].set_avail_plan(plan);
    }

    /// Per-engine availability-campaign statistics, in pool order.
    pub fn avail_stats(&self) -> Vec<AvailStats> {
        self.engines.iter().map(|e| e.avail_stats()).collect()
    }

    /// Current health of engine `i`.
    pub fn health(&self, i: usize) -> EngineHealth {
        EngineHealth::from_u8(self.health[i].load(Ordering::Acquire))
    }

    /// Force engine `i` into `h`. Schedulers use the specific transitions
    /// ([`EnginePool::mark_dead`], [`EnginePool::mark_degraded`],
    /// [`EnginePool::quarantine`], [`EnginePool::rehabilitate`]); this raw
    /// setter exists for tests and campaign setup.
    pub fn set_health(&self, i: usize, h: EngineHealth) {
        self.health[i].store(h.to_u8(), Ordering::Release);
    }

    /// Record that engine `i` crashed. Idempotent.
    pub fn mark_dead(&self, i: usize) {
        self.health[i].store(EngineHealth::Dead.to_u8(), Ordering::Release);
    }

    /// Record a job failure on engine `i`: `Healthy → Degraded`. Never
    /// promotes a `Quarantined`/`Dead` engine back into rotation.
    pub fn mark_degraded(&self, i: usize) {
        let _ = self.health[i].compare_exchange(
            EngineHealth::Healthy.to_u8(),
            EngineHealth::Degraded.to_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Take engine `i` out of rotation pending a cleanliness proof.
    pub fn quarantine(&self, i: usize) {
        self.health[i].store(EngineHealth::Quarantined.to_u8(), Ordering::Release);
    }

    /// Attempt to return engine `i` to rotation: run the
    /// [`GpuSim::reset_in_place`] scrub and, iff its fingerprint matches a
    /// fresh engine's, mark the engine `Healthy` again. On a failed proof
    /// the engine is left `Quarantined`. Returns whether rehabilitation
    /// succeeded.
    pub fn rehabilitate(&self, i: usize) -> bool {
        let clean = self.engines[i].reset_in_place();
        if clean {
            self.set_health(i, EngineHealth::Healthy);
        } else {
            self.quarantine(i);
        }
        clean
    }

    /// Pool indices of engines currently in rotation
    /// ([`EngineHealth::in_rotation`]), ascending. The deterministic
    /// routing domain: lane assignment is a pure function of this set.
    pub fn alive_engines(&self) -> Vec<usize> {
        (0..self.engines.len())
            .filter(|&i| self.health(i).in_rotation())
            .collect()
    }

    /// Per-engine modeled clocks, in pool order.
    pub fn clocks(&self) -> Vec<f64> {
        self.engines.iter().map(|e| e.clock()).collect()
    }

    /// Per-engine ledgers, in pool order.
    pub fn ledgers(&self) -> Vec<Ledger> {
        self.engines.iter().map(|e| e.ledger()).collect()
    }

    /// Per-engine work counters, in pool order.
    pub fn counters(&self) -> Vec<Counters> {
        self.engines.iter().map(|e| e.counters()).collect()
    }

    /// Per-engine fault-campaign statistics, in pool order.
    pub fn fault_stats(&self) -> Vec<FaultStats> {
        self.engines.iter().map(|e| e.fault_stats()).collect()
    }

    /// Reset every engine's clock, ledger, counters, and fault statistics.
    pub fn reset(&self) {
        for eng in &self.engines {
            eng.reset();
        }
    }

    /// Bit-exact fingerprint of the pool's observable accounting state:
    /// per-engine clock, per-phase ledger seconds, counters, and fault
    /// statistics. Two runs of the same job set must agree on this hash
    /// regardless of worker count.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for eng in &self.engines {
            fp.push_f64(eng.clock());
            eng.push_accounting(&mut fp);
        }
        fp.finish()
    }
}

/// splitmix64 seed decorrelation for per-engine fault schedules.
fn derive_seed(base: u64, lane: u64) -> u64 {
    let mut z = base.wrapping_add(lane.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    splitmix64(&mut z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_engine::Phase;

    #[test]
    fn engines_are_independent() {
        let pool = EnginePool::new(3, EngineConfig::default());
        assert_eq!(pool.len(), 3);
        // Arming one engine leaves the others untouched.
        pool.set_fault_plan(1, Some(FaultPlan::all(42)));
        assert!(!pool.engine(0).fault_armed());
        assert!(pool.engine(1).fault_armed());
        assert!(!pool.engine(2).fault_armed());
        pool.set_fault_plan(1, None);
        assert!(!pool.engine(1).fault_armed());
    }

    #[test]
    fn arm_decorrelates_seeds() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_pool_rejected() {
        let _ = EnginePool::new(0, EngineConfig::default());
    }

    #[test]
    fn health_ladder_and_rotation() {
        let pool = EnginePool::new(3, EngineConfig::default());
        assert_eq!(pool.alive_engines(), vec![0, 1, 2]);
        pool.mark_degraded(1);
        assert_eq!(pool.health(1), EngineHealth::Degraded);
        assert_eq!(pool.alive_engines(), vec![0, 1, 2], "degraded stays in rotation");
        pool.mark_dead(2);
        assert_eq!(pool.alive_engines(), vec![0, 1]);
        assert_eq!(pool.health(2), EngineHealth::Dead);
        // mark_degraded never resurrects a dead engine.
        pool.mark_degraded(2);
        assert_eq!(pool.health(2), EngineHealth::Dead);
        pool.quarantine(1);
        assert_eq!(pool.alive_engines(), vec![0]);
    }

    #[test]
    fn rehabilitate_requires_the_cleanliness_proof() {
        let pool = EnginePool::new(2, EngineConfig::default());
        // Dirty engine 1 and kill it.
        pool.engine(1).charge_secs(Phase::Other, 3.0);
        pool.mark_dead(1);
        assert_eq!(pool.alive_engines(), vec![0]);
        assert!(pool.rehabilitate(1), "reset-in-place scrub must pass");
        assert_eq!(pool.health(1), EngineHealth::Healthy);
        assert_eq!(pool.engine(1).clock(), 0.0, "tenant state scrubbed");
        assert_eq!(pool.alive_engines(), vec![0, 1]);
    }
}
