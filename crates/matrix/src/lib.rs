//! # densemat
//!
//! Dense column-major matrix library: the CPU substrate underneath the
//! HPDC '20 neural-engine QR reproduction. It provides, from scratch:
//!
//! - owned matrices and leading-dimension views ([`Mat`], [`MatRef`],
//!   [`MatMut`]) that make the paper's recursive column-splitting free;
//! - register-tiled BLAS kernels ([`gemm()`], [`gemv`],
//!   triangular solves/multiplies, Cholesky);
//! - [`par::both`], the one two-way thread split the kernels use, each
//!   half keeping the bits one thread gives its outputs;
//! - LAPACK-style blocked Householder QR ([`lapack`]) — the `SGEQRF` /
//!   `DGEQRF` baselines the paper measures against;
//! - one-sided Jacobi SVD ([`svd`]);
//! - seeded MAGMA-style random test-matrix generators ([`gen`]) with exact
//!   condition-number and spectrum control;
//! - the paper's accuracy metrics ([`metrics`]) and norms ([`norms`]).
//!
//! Everything is generic over [`Real`] (`f32`/`f64`), so a single
//! implementation doubles as the single- and double-precision baselines.
//!
//! ```
//! use densemat::{gemm, Mat, Op};
//!
//! // C = A * B on column-major matrices.
//! let a = Mat::from_col_major(2, 2, vec![1.0f64, 3.0, 2.0, 4.0]); // [[1,2],[3,4]]
//! let b: Mat<f64> = Mat::identity(2, 2);
//! let mut c = Mat::zeros(2, 2);
//! gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
//! assert_eq!(c, a);
//!
//! // Householder least squares, LAPACK-style.
//! use densemat::lapack::Householder;
//! let tall = Mat::from_fn(8, 2, |i, j| (i + j) as f64 + if j == 1 { 0.5 * i as f64 } else { 1.0 });
//! let rhs: Vec<f64> = (0..8).map(|i| i as f64).collect();
//! let x = Householder::factor(tall).solve_lls(&rhs);
//! assert_eq!(x.len(), 2);
//! ```

#![warn(missing_docs)]

#[macro_use]
mod fma;

pub mod blas1;
pub mod gemm;
pub mod gen;
pub mod lapack;
pub mod lu;
pub mod mat;
pub mod metrics;
pub mod norms;
pub mod par;
pub mod real;
pub mod svd;
pub mod tri;

pub use gemm::{gemm, gemm_naive, gemv, ger, Op};
pub use gen::splitmix64;
pub use mat::{Mat, MatMut, MatRef};
pub use real::Real;
