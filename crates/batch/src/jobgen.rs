//! Seeded synthetic workload generation for benches and tests.
//!
//! Deliberately self-contained: problems are drawn from the splitmix64
//! streams of [`densemat::gen`] rather than an external RNG crate, so the same
//! seed produces bit-identical job mixes under every build configuration.
//! That keeps the committed `batch.*` baseline values meaningful — the
//! throughput numbers depend only on the seed, not on which RNG backend
//! the build happened to link.

use crate::job::{BatchJob, Job, LlsMethod};
use densemat::gen::{rng, uniform_pm1};
use densemat::{splitmix64, Mat};
use tcqr_core::lowrank::QrKind;
use tcqr_core::lu_ir::LuIrConfig;
use tcqr_core::{RefineConfig, RgsqrfConfig};

/// Seeded diagonally dominant `n x n` system (always nonsingular and well
/// conditioned, so LU-IR converges).
pub fn diag_dominant_f64(n: usize, seed: u64) -> Mat<f64> {
    let mut a = uniform_pm1(n, n, &mut rng(seed));
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Parameters of a synthetic job mix.
#[derive(Clone, Copy, Debug)]
pub struct JobMixConfig {
    /// Base seed; every matrix and right-hand side derives from it.
    pub seed: u64,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Upper bound on problem rows; each job draws from `[m/2, m]`.
    pub m: usize,
    /// Upper bound on problem columns; each job draws from `[n/2, n]`.
    pub n: usize,
}

/// Generate a deterministic heterogeneous job mix: jobs cycle through
/// RGSQRF factorizations, CGLS / LSQR / direct least-squares solves,
/// QR-SVD, and LU-IR, with shapes varied per job from the seed.
///
/// Job `i` depends only on `(cfg.seed, i)` — prefixes of longer mixes are
/// themselves valid mixes.
pub fn job_mix(cfg: &JobMixConfig) -> Vec<BatchJob> {
    assert!(cfg.m >= 8 && cfg.n >= 4, "job mix needs m >= 8, n >= 4");
    (0..cfg.jobs).map(|i| job_at(cfg, i)).collect()
}

/// The `i`-th job of the mix described by `cfg`.
pub fn job_at(cfg: &JobMixConfig, i: usize) -> BatchJob {
    // Per-job stream, decorrelated from the neighbors.
    let mut state = cfg.seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    let draw = splitmix64(&mut state);

    // Shape in [m/2, m] x [n/2, n], keeping the problem tall.
    let m = cfg.m / 2 + (draw as usize % (cfg.m / 2 + 1));
    let n = (cfg.n / 2 + ((draw >> 32) as usize % (cfg.n / 2 + 1))).min(m);
    let n = n.max(2);
    let m = m.max(2 * n);

    // Small-problem QR configuration: exercise the recursion even at the
    // modest batched sizes.
    let qr_cfg = RgsqrfConfig {
        cutoff: 32,
        caqr_width: 8,
        ..RgsqrfConfig::default()
    };
    let refine = RefineConfig::default();
    let mat_seed = splitmix64(&mut state);

    let job = match i % 6 {
        0 => Job::rgsqrf(uniform_pm1(m, n, &mut rng(mat_seed)).convert(), qr_cfg),
        1 => Job::lls(
            uniform_pm1(m, n, &mut rng(mat_seed)),
            uniform_pm1(m, 1, &mut rng(splitmix64(&mut state))).data().to_vec(),
            LlsMethod::Cgls,
            qr_cfg,
            refine,
        ),
        2 => Job::lls(
            uniform_pm1(m, n, &mut rng(mat_seed)),
            uniform_pm1(m, 1, &mut rng(splitmix64(&mut state))).data().to_vec(),
            LlsMethod::Lsqr,
            qr_cfg,
            refine,
        ),
        3 => Job::qr_svd(uniform_pm1(m, n, &mut rng(mat_seed)).convert(), QrKind::Rgsqrf, qr_cfg),
        4 => Job::lu_ir(
            diag_dominant_f64(n, mat_seed),
            uniform_pm1(n, 1, &mut rng(splitmix64(&mut state))).data().to_vec(),
            LuIrConfig {
                block: 8,
                ..LuIrConfig::default()
            },
        ),
        _ => Job::lls(
            uniform_pm1(m, n, &mut rng(mat_seed)),
            uniform_pm1(m, 1, &mut rng(splitmix64(&mut state))).data().to_vec(),
            LlsMethod::Direct,
            qr_cfg,
            refine,
        ),
    };
    BatchJob::from(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_prefix_stable() {
        let cfg = JobMixConfig {
            seed: 11,
            jobs: 8,
            m: 64,
            n: 16,
        };
        let a = job_mix(&cfg);
        let b = job_mix(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.job.kind(), y.job.kind());
            assert_eq!(x.job.shape(), y.job.shape());
        }
        // Prefix stability: job i of a longer mix equals job i alone.
        let longer = job_mix(&JobMixConfig { jobs: 12, ..cfg });
        for (x, y) in a.iter().zip(&longer) {
            assert_eq!(x.job.kind(), y.job.kind());
            assert_eq!(x.job.shape(), y.job.shape());
        }
    }

    #[test]
    fn shapes_are_solvable() {
        let cfg = JobMixConfig {
            seed: 3,
            jobs: 24,
            m: 96,
            n: 24,
        };
        for bj in job_mix(&cfg) {
            let (m, n) = bj.job.shape();
            assert!(n >= 2);
            if bj.job.kind() != "lu_ir" {
                assert!(m >= 2 * n, "tall problems only (got {m} x {n})");
            }
        }
    }

    #[test]
    fn diag_dominant_diagonal_dominates() {
        let d = diag_dominant_f64(8, 5);
        for i in 0..8 {
            assert!(d.data()[i * 8 + i].abs() > 4.0);
        }
    }
}
