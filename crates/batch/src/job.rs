//! Heterogeneous job descriptors over the [`tcqr_core::Solver`] workloads.
//!
//! Dispatch lives in `tcqr_core::solver`: a [`Job`] boxes a problem struct
//! implementing [`Solver`], and [`Job::run`] delegates through the trait.
//! The batch scheduler and the `tcqr-serve` service therefore share one
//! dispatch surface — a new workload implements [`Solver`] once and rides
//! in via [`Job::custom`] without touching either scheduler.

use crate::fingerprint::Fingerprint;
use densemat::Mat;
use tcqr_core::lowrank::QrKind;
use tcqr_core::lu_ir::LuIrConfig;
use tcqr_core::{
    LlsProblem, LuIrProblem, QrSvdProblem, RecoveryPolicy, RefineConfig, RgsqrfConfig,
    RgsqrfProblem, Solver, TcqrError,
};
use tensor_engine::{GpuSim, PrecisionOverride};

pub use tcqr_core::solver::LlsMethod;
pub use tcqr_core::solver::SolveOutput as JobOutput;

/// One unit of batched work: any [`Solver`] workload, the built-in ones of
/// [`tcqr_core`] or another one given to [`Job::custom`].
#[derive(Debug)]
pub struct Job(Box<dyn Solver>);

impl Job {
    /// Mixed-precision QR factorization job (with column scaling).
    pub fn rgsqrf(a: Mat<f32>, cfg: RgsqrfConfig) -> Job {
        Job::custom(RgsqrfProblem { a, cfg })
    }

    /// Least-squares job `min ||Ax - b||` via `method`.
    pub fn lls(
        a: Mat<f64>,
        b: Vec<f64>,
        method: LlsMethod,
        qr_cfg: RgsqrfConfig,
        refine: RefineConfig,
    ) -> Job {
        Job::custom(LlsProblem {
            a,
            b,
            method,
            qr_cfg,
            refine,
        })
    }

    /// QR-SVD low-rank approximation job (§3.4).
    pub fn qr_svd(a: Mat<f32>, qr_kind: QrKind, cfg: RgsqrfConfig) -> Job {
        Job::custom(QrSvdProblem { a, qr_kind, cfg })
    }

    /// LU-with-iterative-refinement job on a square system.
    pub fn lu_ir(a: Mat<f64>, b: Vec<f64>, cfg: LuIrConfig) -> Job {
        Job::custom(LuIrProblem { a, b, cfg })
    }

    /// Wrap any [`Solver`] workload as a job: the extension point that lets
    /// new solvers run on the batch scheduler and the serve front-end.
    pub fn custom(solver: impl Solver + 'static) -> Job {
        Job(Box::new(solver))
    }

    /// The workload behind this job — the single dispatch surface shared
    /// with the serve front-end.
    pub fn solver(&self) -> &dyn Solver {
        self.0.as_ref()
    }

    /// Stable job-kind label for reports and trace events.
    pub fn kind(&self) -> &'static str {
        self.solver().kind()
    }

    /// Problem shape `(rows, cols)`, for reports.
    pub fn shape(&self) -> (usize, usize) {
        self.solver().shape()
    }

    /// Run the job on `eng` under `policy`. The engine is owned by this
    /// job for the duration of the call (the scheduler guarantees it).
    pub fn run(&self, eng: &GpuSim, policy: &RecoveryPolicy) -> Result<JobOutput, TcqrError> {
        self.solver().solve(eng, policy)
    }
}

/// A [`Job`] plus its per-tenant execution knobs.
#[derive(Debug)]
pub struct BatchJob {
    /// The work itself.
    pub job: Job,
    /// Recovery ladder for this job's fault retries.
    pub policy: RecoveryPolicy,
    /// Optional per-tenant precision override, installed on the engine for
    /// the duration of the job and restored afterwards (the recovery
    /// ladder's own escalations still nest inside it).
    pub precision: Option<PrecisionOverride>,
}

impl From<Job> for BatchJob {
    fn from(job: Job) -> Self {
        BatchJob {
            job,
            policy: RecoveryPolicy::default(),
            precision: None,
        }
    }
}

/// Bit-exact fingerprint of a [`JobOutput`]'s numerical payload (see
/// [`crate::fingerprint`]): identical runs must produce identical hashes,
/// bit for bit.
pub fn output_fingerprint(out: &JobOutput) -> u64 {
    let mut fp = Fingerprint::new();
    match out {
        JobOutput::Qr(f) => {
            fp.push_str("qr");
            fp.push_u64(f.q.nrows() as u64);
            fp.push_u64(f.q.ncols() as u64);
            fp.push_f32s(f.q.data());
            fp.push_f32s(f.r.data());
        }
        JobOutput::Solution(x) => {
            fp.push_str("solution");
            fp.push_f32s(x);
        }
        JobOutput::Refine(o) => {
            fp.push_str("refine");
            fp.push_f64s(&o.x);
            fp.push_u64(o.iterations as u64);
            fp.push_u64(o.converged as u64);
            fp.push_u64(o.stalled as u64);
            fp.push_f64s(&o.history);
        }
        JobOutput::Svd(s) => {
            fp.push_str("svd");
            fp.push_u64(s.q.nrows() as u64);
            fp.push_u64(s.q.ncols() as u64);
            fp.push_f32s(s.q.data());
            fp.push_f64s(s.u.data());
            fp.push_f64s(&s.s);
            fp.push_f64s(s.v.data());
        }
    }
    fp.finish()
}

/// Fingerprint of a per-job result: the output's hash when it succeeded,
/// a hash of the typed error's message when it failed. Errors are part of
/// the determinism contract too.
pub fn result_fingerprint(r: &Result<JobOutput, TcqrError>) -> u64 {
    match r {
        Ok(out) => output_fingerprint(out),
        Err(e) => {
            let mut fp = Fingerprint::new();
            fp.push_str("err");
            fp.push_str(&e.to_string());
            fp.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{rng, uniform_pm1};
    use tensor_engine::EngineConfig;

    fn small(m: usize, n: usize, seed: u64) -> Mat<f32> {
        uniform_pm1(m, n, &mut rng(seed)).convert()
    }

    #[test]
    fn shape_errors_are_typed_not_panics() {
        let eng = GpuSim::new(EngineConfig::default());
        let job = Job::rgsqrf(small(8, 16, 1), RgsqrfConfig::default()); // wide: invalid
        let err = job.run(&eng, &RecoveryPolicy::default()).unwrap_err();
        assert!(matches!(err, TcqrError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn identical_jobs_fingerprint_identically() {
        let cfg = RgsqrfConfig {
            cutoff: 16,
            caqr_width: 4,
            ..RgsqrfConfig::default()
        };
        let job = Job::rgsqrf(small(48, 12, 3), cfg);
        let a = {
            let eng = GpuSim::new(EngineConfig::default());
            result_fingerprint(&job.run(&eng, &RecoveryPolicy::default()))
        };
        let b = {
            let eng = GpuSim::new(EngineConfig::default());
            result_fingerprint(&job.run(&eng, &RecoveryPolicy::default()))
        };
        assert_eq!(a, b);
    }

    #[test]
    fn custom_solver_jobs_dispatch_through_the_trait() {
        /// A workload the batch crate has never heard of: kind/shape/solve
        /// all come from the trait impl.
        #[derive(Debug)]
        struct DoubleQr {
            a: Mat<f32>,
            cfg: RgsqrfConfig,
        }
        impl Solver for DoubleQr {
            fn kind(&self) -> &'static str {
                "double_qr"
            }
            fn shape(&self) -> (usize, usize) {
                (self.a.nrows(), self.a.ncols())
            }
            fn solve(
                &self,
                eng: &GpuSim,
                policy: &RecoveryPolicy,
            ) -> Result<JobOutput, TcqrError> {
                // Factor twice, return the second set: exercises repeated
                // engine use inside one custom job.
                let first = RgsqrfProblem {
                    a: self.a.clone(),
                    cfg: self.cfg,
                }
                .solve(eng, policy)?;
                drop(first);
                RgsqrfProblem {
                    a: self.a.clone(),
                    cfg: self.cfg,
                }
                .solve(eng, policy)
            }
        }

        let job = Job::custom(DoubleQr {
            a: small(32, 8, 9),
            cfg: RgsqrfConfig::default(),
        });
        assert_eq!(job.kind(), "double_qr");
        assert_eq!(job.shape(), (32, 8));
        let eng = GpuSim::new(EngineConfig::default());
        let out = job.run(&eng, &RecoveryPolicy::default()).unwrap();
        assert!(matches!(out, JobOutput::Qr(_)));
    }
}
