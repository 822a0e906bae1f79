//! Runtime choice of the tier the hot kernels run in.
//!
//! Each hot kernel that loops over [`Real::mul_add`](crate::Real::mul_add)
//! (gemm's leaves, `dot`, `axpy`, `nrm2`, `gemv` NoTrans, `ger`,
//! `trmm_left_upper`, `fro_norm`, one sweep of the Jacobi SVD) is one
//! `#[inline(always)]` body compiled three times, one copy per [`Tier`]:
//!
//! - **portable**: as-is, where on the default x86-64 target every
//!   `mul_add` is an out-of-line call into the runtime's `fma`/`fmaf`;
//! - **AVX2+FMA**: inside a `#[target_feature(enable = "avx2,fma")]`
//!   wrapper, where `mul_add` becomes `vfmadd` and the loops vectorize on
//!   256-bit registers;
//! - **AVX-512**: inside a `#[target_feature(enable = "avx512f,avx2,fma")]`
//!   wrapper, where they may use 512-bit registers. gemm's leaf is the one
//!   kernel whose AVX-512 copy also runs explicit `std::arch` tiles (see
//!   `gemm.rs`).
//!
//! All three return the same bits. Each C element or partial sum gets the
//! same operations in the same order at every width: every `mul_add` rounds
//! each fused product-sum once, and Rust never reassociates or contracts
//! floating point, so a wider register only runs more independent chains at
//! once. The host's highest tier is picked at each call ([`tier`]); std
//! caches the CPU probe. Off x86-64, `mul_add` is already a native
//! instruction and only the portable copy exists.
//!
//! `dots` (and `gemv` Trans, which runs on it) is written in explicit AVX2
//! vectors rather than compiled from the portable body (see `blas1.rs`); it
//! runs that copy in both vector tiers and too returns the portable bits.

/// One copy of the hot kernels, ordered by what the host must run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The bodies as written.
    Portable,
    /// The bodies compiled for AVX2 and FMA.
    Avx2,
    /// The bodies compiled for AVX-512F, AVX2 and FMA, and gemm's explicit
    /// 512-bit tiles.
    Avx512,
}

/// The highest tier this host runs.
#[inline]
fn host_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("fma") {
            return if has!("avx512f") { Tier::Avx512 } else { Tier::Avx2 };
        }
    }
    Tier::Portable
}

/// The tier the kernels run in: the host's highest. In this crate's unit
/// tests, [`tests::with_cap`] can hold it lower on the calling thread.
#[inline]
pub(crate) fn tier() -> Tier {
    #[cfg(test)]
    return host_tier().min(tests::cap());
    #[cfg(not(test))]
    host_tier()
}

/// `fma_dispatch!(body::<T>(arg: Type, ...) -> Ret)` returns
/// `body(arg, ...)` from the enclosing function, compiled for the highest
/// [`Tier`] the host runs; on a host with neither vector tier it falls
/// through to the code after it, which calls `body` as-is.
///
/// `fma_dispatch!(body::<T>(...) -> Ret; avx512 = wide)` runs `wide`, an
/// `unsafe fn` with the same arguments compiled for AVX-512F, AVX2 and FMA,
/// as the AVX-512 tier instead of compiling `body` for it.
macro_rules! fma_dispatch {
    ($body:ident::<$t:ident>($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        /// The host must support AVX-512F, AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx2,fma")]
        unsafe fn with_avx512<$t: crate::Real>($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
        fma_dispatch!($body::<$t>($($arg: $ty),*) $(-> $ret)?; avx512 = with_avx512);
    };
    ($body:ident::<$t:ident>($($arg:ident: $ty:ty),*) $(-> $ret:ty)?; avx512 = $wide:path) => {
        #[cfg(target_arch = "x86_64")]
        match crate::fma::tier() {
            crate::fma::Tier::Avx512 => {
                // SAFETY: `tier` just confirmed AVX-512F, AVX2 and FMA on
                // this host.
                return unsafe { $wide($($arg),*) };
            }
            crate::fma::Tier::Avx2 => {
                /// # Safety
                /// The host must support AVX2 and FMA.
                #[target_feature(enable = "avx2,fma")]
                unsafe fn with_fma<$t: crate::Real>($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // SAFETY: `tier` just confirmed AVX2 and FMA on this host.
                return unsafe { with_fma($($arg),*) };
            }
            crate::fma::Tier::Portable => {}
        }
    };
}

/// Test-only entries to each tier's copy of the kernels.
#[cfg(test)]
pub(crate) mod tests {
    use super::{host_tier, Tier};
    use std::cell::Cell;

    thread_local! {
        static CAP: Cell<Tier> = const { Cell::new(Tier::Avx512) };
    }

    /// The tier [`with_cap`] holds this thread to.
    pub(crate) fn cap() -> Tier {
        CAP.with(Cell::get)
    }

    /// Every tier this host runs, lowest first.
    pub(crate) fn host_tiers() -> Vec<Tier> {
        [Tier::Portable, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|&t| t <= host_tier())
            .collect()
    }

    /// Run `f` with every kernel this thread calls dispatched to `tier`, or
    /// to the host's highest tier if that is lower.
    pub(crate) fn with_cap<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
        let old = CAP.with(|c| c.replace(tier));
        let out = f();
        CAP.with(|c| c.set(old));
        out
    }
}
