//! Runtime choice of the AVX2+FMA copy of the hot kernels.
//!
//! Each hot kernel that loops over [`Real::mul_add`](crate::Real::mul_add)
//! (gemm's leaves, `dot`, `axpy`, `nrm2`, `gemv` NoTrans, `ger`,
//! `trmm_left_upper`, `fro_norm`, one sweep of the Jacobi SVD) is one
//! `#[inline(always)]` body compiled
//! twice: as-is, where on the default x86-64 target every `mul_add` is an
//! out-of-line call into the runtime's `fma`/`fmaf`, and inside a
//! `#[target_feature(enable = "avx2,fma")]` wrapper, where it becomes
//! `vfmadd` and the loops vectorize. Both round
//! each fused product-sum once, and Rust never reassociates or contracts
//! floating point, so the two copies return the same bits. Off x86-64,
//! `mul_add` is already a native instruction and only the portable copy
//! exists.
//!
//! `dots` (and `gemv` Trans, which runs on it) is the one kernel whose
//! AVX2+FMA copy is written in explicit vectors rather than compiled from
//! the portable body (see `blas1.rs`); it too returns the portable bits.

/// True when the host runs AVX2 and FMA (std caches the probe).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn hw_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2")
}

/// `fma_dispatch!(body::<T>(arg: Type, ...) -> Ret)` returns
/// `body(arg, ...)` from the enclosing function, compiled for AVX2+FMA, when
/// the host has both; otherwise it falls through to the code after it,
/// which calls `body` as-is.
macro_rules! fma_dispatch {
    ($body:ident::<$t:ident>($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        if crate::fma::hw_fma() {
            /// # Safety
            /// The host must support AVX2 and FMA.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn with_fma<$t: crate::Real>($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            // SAFETY: `hw_fma` just confirmed AVX2 and FMA on this host.
            return unsafe { with_fma($($arg),*) };
        }
    };
}
