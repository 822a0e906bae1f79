//! Concurrency fault stress: a fault-armed campaign across the pool must
//! detect every injected fault, recover every job, and never bleed one
//! tenant's fault plan into a neighbor's engine.

use densemat::gen::{rng, uniform_pm1};
use tcqr_batch::job::result_fingerprint;
use tcqr_batch::jobgen::{self, JobMixConfig};
use tcqr_batch::{BatchScheduler, EnginePool};
use tensor_engine::{EngineConfig, FaultPlan};

fn mix(seed: u64, jobs: usize) -> Vec<tcqr_batch::BatchJob> {
    jobgen::job_mix(&JobMixConfig {
        seed,
        jobs,
        m: 80,
        n: 20,
    })
}

#[test]
fn armed_campaign_has_zero_escapes_fleet_wide() {
    let jobs = mix(77, 12);
    let pool = EnginePool::new(4, EngineConfig::default());
    pool.arm(&FaultPlan {
        period: 3,
        ..FaultPlan::all(999)
    });
    let out = BatchScheduler::with_threads(8).run(&pool, &jobs);

    // The default recovery ladder ends in an injection-free f32 rung, so
    // every job must come back clean.
    for (i, r) in out.results.iter().enumerate() {
        assert!(r.is_ok(), "job {i} failed under recovery: {:?}", r.as_ref().err());
    }
    // Fleet-wide ABFT: every injected fault was detected (zero escapes).
    let totals = out.report.fault_totals();
    assert!(totals.injected > 0, "campaign injected nothing — not a stress test");
    assert_eq!(
        totals.injected, totals.detected,
        "escaped faults: {} injected vs {} detected",
        totals.injected, totals.detected
    );
    // And per engine, not just in aggregate.
    for e in &out.report.engines {
        assert_eq!(
            e.fault.injected, e.fault.detected,
            "engine {} let a fault escape",
            e.engine
        );
    }
}

/// Jobs that are guaranteed to run TensorCore GEMMs (recursion above the
/// cutoff with trailing updates), so an armed engine always has injection
/// sites.
fn tc_heavy_jobs(n_jobs: usize) -> Vec<tcqr_batch::BatchJob> {
    use tcqr_batch::Job;
    use tcqr_core::RgsqrfConfig;
    (0..n_jobs)
        .map(|i| {
            tcqr_batch::BatchJob::from(Job::rgsqrf(
                uniform_pm1(160, 48, &mut rng(900 + i as u64)).convert(),
                RgsqrfConfig {
                    cutoff: 16,
                    caqr_width: 8,
                    ..RgsqrfConfig::default()
                },
            ))
        })
        .collect()
}

#[test]
fn fault_plans_do_not_bleed_across_engines() {
    let jobs = tc_heavy_jobs(8);

    // Reference: a completely unarmed fleet.
    let clean_pool = EnginePool::new(4, EngineConfig::default());
    let clean = BatchScheduler::with_threads(4).run(&clean_pool, &jobs);

    // Same fleet, but only engine 1 is armed.
    let pool = EnginePool::new(4, EngineConfig::default());
    pool.set_fault_plan(1, Some(FaultPlan::all(555)));
    let out = BatchScheduler::with_threads(4).run(&pool, &jobs);

    for (i, (a, b)) in clean.results.iter().zip(&out.results).enumerate() {
        if i % 4 == 1 {
            // The armed tenant's jobs may take the recovery ladder; they
            // must still succeed.
            assert!(b.is_ok(), "armed-engine job {i} failed: {:?}", b.as_ref().err());
        } else {
            // Unarmed engines must be bit-identical to the clean fleet —
            // a neighbor's campaign is invisible.
            assert_eq!(
                result_fingerprint(a),
                result_fingerprint(b),
                "job {i} on an unarmed engine changed because engine 1 was armed"
            );
        }
    }
    // No injections outside engine 1.
    let stats = pool.fault_stats();
    for (e, s) in stats.iter().enumerate() {
        if e == 1 {
            assert!(s.injected > 0, "armed engine never injected");
            assert_eq!(s.injected, s.detected, "engine 1 let a fault escape");
        } else {
            assert_eq!(s.injected, 0, "fault plan bled into engine {e}");
        }
    }
}

#[test]
fn repeated_armed_batches_are_reproducible() {
    // Stress the whole path twice from scratch: same seeds, same plans,
    // same worker count — the campaign (injections included) must replay
    // bit-for-bit.
    let jobs = mix(13, 10);
    let run = || {
        let pool = EnginePool::new(3, EngineConfig::default());
        pool.arm(&FaultPlan::all(4242));
        let out = BatchScheduler::with_threads(8).run(&pool, &jobs);
        let fps: Vec<u64> = out.results.iter().map(result_fingerprint).collect();
        (fps, pool.fingerprint())
    };
    let (fp_a, pool_a) = run();
    let (fp_b, pool_b) = run();
    assert_eq!(fp_a, fp_b);
    assert_eq!(pool_a, pool_b);
}
