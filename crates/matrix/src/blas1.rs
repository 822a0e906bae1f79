//! Level-1 BLAS: vector-vector kernels.
//!
//! These run in the "panel" parts of every factorization — the low
//! arithmetic-intensity work the paper's §3.1.1 identifies as the reason
//! naive TensorCore substitution fails. `dot`, `axpy` and `nrm2` each run one
//! `*_body`, compiled for the host's highest tier (AVX-512, AVX2+FMA, or
//! as-is); every copy returns the same bits (see `fma.rs`).
//!
//! [`dots`] is the multi-column form of `dot` that the level-2 kernels and
//! the Gram-Schmidt panels run on: `out[j] == dot(x, cols.col(j))` bit for
//! bit. Its portable copy is that loop. Its AVX2+FMA copy, which the AVX-512
//! tier runs too, takes eight columns per pass over `x`, each column with
//! its own vector of `dot`'s four lane partials, so eight independent FMA
//! chains share every load of `x`: one chain is bound by FMA latency, and
//! eight cover the latency of two FMA units.

use crate::mat::MatRef;
use crate::real::Real;

/// Dot product `x . y`. Panics on length mismatch.
pub fn dot<T: Real>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    fma_dispatch!(dot_body::<T>(x: &[T], y: &[T]) -> T);
    dot_body(x, y)
}

/// [`dot`] without the length check or the dispatch.
#[inline(always)]
pub(crate) fn dot_body<T: Real>(x: &[T], y: &[T]) -> T {
    // Four independent partial sums break the FMA dependency chain,
    // letting the CPU pipeline the reductions.
    let mut s0 = T::ZERO;
    let mut s1 = T::ZERO;
    let mut s2 = T::ZERO;
    let mut s3 = T::ZERO;
    let (xc, yc) = (x.chunks_exact(4), y[..x.len()].chunks_exact(4));
    let tail = xc.remainder().iter().zip(yc.remainder());
    for (xb, yb) in xc.zip(yc) {
        s0 = xb[0].mul_add(yb[0], s0);
        s1 = xb[1].mul_add(yb[1], s1);
        s2 = xb[2].mul_add(yb[2], s2);
        s3 = xb[3].mul_add(yb[3], s3);
    }
    for (&xi, &yi) in tail {
        s0 = xi.mul_add(yi, s0);
    }
    (s0 + s1) + (s2 + s3)
}

/// `out[j] = dot(x, cols.col(j))` for every column of `cols`, with the same
/// bits as that loop. Panics on shape mismatch.
pub fn dots<T: Real>(x: &[T], cols: MatRef<'_, T>, out: &mut [T]) {
    assert_eq!(x.len(), cols.nrows(), "dots: length mismatch");
    assert_eq!(out.len(), cols.ncols(), "dots: out length");
    // SAFETY: `tier` just confirmed AVX2 and FMA on this host, and the
    // asserts above fixed the shapes.
    #[cfg(target_arch = "x86_64")]
    if crate::fma::tier() >= crate::fma::Tier::Avx2 && unsafe { x86::dots(x, cols, out) } {
        return;
    }
    dots_body(x, cols, out)
}

/// [`dots`] as the per-column loop: the spec the AVX2+FMA copy matches.
pub(crate) fn dots_body<T: Real>(x: &[T], cols: MatRef<'_, T>, out: &mut [T]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_body(x, cols.col(j));
    }
}

/// Euclidean norm `||x||_2`, with scaling to avoid overflow/underflow of the
/// intermediate sum of squares (LAPACK `xNRM2` semantics). NaN when any
/// entry is NaN.
pub fn nrm2<T: Real>(x: &[T]) -> T {
    fma_dispatch!(nrm2_body::<T>(x: &[T]) -> T);
    nrm2_body(x)
}

/// [`nrm2`] without the dispatch.
#[inline(always)]
pub(crate) fn nrm2_body<T: Real>(x: &[T]) -> T {
    let amax = x.iter().fold(T::ZERO, |m, &v| m.maxv(v.abs()));
    if amax == T::ZERO || !amax.is_finite_v() {
        // The max scan skips NaN, so look for one before reading 0 or inf
        // as the norm. Past this point a NaN reaches the sum of squares.
        let nan = x.iter().copied().find(|v| v.partial_cmp(v).is_none());
        return nan.unwrap_or(amax);
    }
    // Scale by a power of two near 1/amax so the squares stay in range and
    // the scaling itself is exact.
    let k = -(amax.to_f64().log2().round() as i32);
    let scale = T::exp2i(k);
    let mut s = T::ZERO;
    for &v in x {
        let sv = v * scale;
        s = sv.mul_add(sv, s);
    }
    s.sqrt() * T::exp2i(-k)
}

/// `y += alpha * x`.
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    fma_dispatch!(axpy_body::<T>(alpha: T, x: &[T], y: &mut [T]));
    axpy_body(alpha, x, y)
}

/// [`axpy`] without the length check or the dispatch.
#[inline(always)]
pub(crate) fn axpy_body<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi.mul_add(alpha, *yi);
    }
}

/// `x *= alpha`.
pub fn scal<T: Real>(alpha: T, x: &mut [T]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Index of the entry with the largest absolute value (0 for empty input).
pub fn iamax<T: Real>(x: &[T]) -> usize {
    let mut best = 0;
    let mut bestv = T::ZERO;
    for (i, &v) in x.iter().enumerate() {
        if v.abs() > bestv {
            bestv = v.abs();
            best = i;
        }
    }
    best
}

/// The AVX2+FMA copy of [`dots`], in explicit vectors: written as arrays of
/// scalar partials, LLVM transposes the columns' partials across vectors
/// and gains nothing. One vector holds one column's four lane
/// partials (`__m128` for f32, `__m256d` for f64), so lane `l` of a column
/// accumulates rows `l, l + 4, ...` exactly as [`dot_body`]'s `s_l` does.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::mat::MatRef;
    use crate::real::Real;
    use core::any::TypeId;
    use core::arch::x86_64::*;

    /// [`super::dots`] for `f32` or `f64`; false (and `out` untouched) for
    /// any other `T`.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `x.len() == cols.nrows()` and
    /// `out.len() == cols.ncols()`.
    pub(super) unsafe fn dots<T: Real>(x: &[T], cols: MatRef<'_, T>, out: &mut [T]) -> bool {
        if TypeId::of::<T>() == TypeId::of::<f32>() {
            // SAFETY: `T` is `f32`; the caller vouches for the host and the
            // shapes.
            unsafe { retyped(x, cols, out, dots_f32) };
        } else if TypeId::of::<T>() == TypeId::of::<f64>() {
            // SAFETY: `T` is `f64`; the caller vouches for the host and the
            // shapes.
            unsafe { retyped(x, cols, out, dots_f64) };
        } else {
            return false;
        }
        true
    }

    /// Run `kernel` on the arguments viewed as `U`s.
    ///
    /// # Safety
    /// `T` and `U` must be the same type, and `kernel`'s own safety
    /// conditions must hold.
    unsafe fn retyped<T: Real, U: Real>(
        x: &[T],
        cols: MatRef<'_, T>,
        out: &mut [T],
        kernel: unsafe fn(&[U], MatRef<'_, U>, &mut [U]),
    ) {
        // SAFETY: `T` is `U`, so each view keeps its pointer, length and
        // layout and only changes its name for the element type.
        unsafe {
            let xu = core::slice::from_raw_parts(x.as_ptr().cast::<U>(), x.len());
            let cu = MatRef::from_raw_parts(
                cols.as_ptr().cast::<U>(),
                cols.nrows(),
                cols.ncols(),
                cols.ld(),
            );
            let ou = core::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<U>(), out.len());
            kernel(xu, cu, ou)
        }
    }

    /// `dots_f32`/`dots_f64`: groups of eight columns, then one group of
    /// the remaining one to seven. The intrinsics work on four lanes of
    /// `$t`.
    macro_rules! dots_kernel {
        ($name:ident, $t:ty, $zero:ident, $load:ident, $fmadd:ident, $store:ident) => {
            /// # Safety
            /// The host must support AVX2 and FMA; `x.len() == cols.nrows()`
            /// and `out.len() == cols.ncols()`.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $name(x: &[$t], cols: MatRef<'_, $t>, out: &mut [$t]) {
                /// `G` columns in one pass over `x`.
                ///
                /// # Safety
                /// The host must support AVX2 and FMA; every column is as
                /// long as `x`.
                #[inline]
                #[target_feature(enable = "avx2,fma")]
                unsafe fn group<const G: usize>(x: &[$t], cols: [&[$t]; G], out: &mut [$t]) {
                    let m = x.len();
                    let body = m - m % 4;
                    // SAFETY: every load reads four of the first `body <= m`
                    // elements of `x` or of a column as long as `x`.
                    unsafe {
                        let mut acc = [$zero(); G];
                        let mut i = 0;
                        while i < body {
                            let xv = $load(x.as_ptr().add(i));
                            for (s, col) in acc.iter_mut().zip(&cols) {
                                *s = $fmadd(xv, $load(col.as_ptr().add(i)), *s);
                            }
                            i += 4;
                        }
                        for ((o, s), col) in out.iter_mut().zip(acc).zip(&cols) {
                            let mut p = [0.0 as $t; 4];
                            $store(p.as_mut_ptr(), s);
                            for (&xi, &yi) in x[body..].iter().zip(&col[body..m]) {
                                p[0] = xi.mul_add(yi, p[0]);
                            }
                            *o = (p[0] + p[1]) + (p[2] + p[3]);
                        }
                    }
                }
                debug_assert!(x.len() == cols.nrows() && out.len() == cols.ncols());
                let n = cols.ncols();
                let full = n - n % 8;
                // SAFETY: the caller vouches for AVX2 and FMA, and every
                // column of `cols` has `cols.nrows() == x.len()` elements.
                unsafe {
                    let mut j = 0;
                    while j < full {
                        let c = core::array::from_fn(|g| cols.col(j + g));
                        group::<8>(x, c, &mut out[j..j + 8]);
                        j += 8;
                    }
                    let rest = &mut out[full..];
                    let c = |g| cols.col(full + g);
                    match n - full {
                        7 => group::<7>(x, core::array::from_fn(c), rest),
                        6 => group::<6>(x, core::array::from_fn(c), rest),
                        5 => group::<5>(x, core::array::from_fn(c), rest),
                        4 => group::<4>(x, core::array::from_fn(c), rest),
                        3 => group::<3>(x, core::array::from_fn(c), rest),
                        2 => group::<2>(x, core::array::from_fn(c), rest),
                        1 => group::<1>(x, core::array::from_fn(c), rest),
                        _ => {}
                    }
                }
            }
        };
    }

    dots_kernel!(
        dots_f32,
        f32,
        _mm_setzero_ps,
        _mm_loadu_ps,
        _mm_fmadd_ps,
        _mm_storeu_ps
    );
    dots_kernel!(
        dots_f64,
        f64,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_fmadd_pd,
        _mm256_storeu_pd
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..103).map(|i| (i as f64) * 0.5 - 20.0).collect();
        let y: Vec<f64> = (0..103).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_handles_short_and_empty() {
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0f64], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0f64, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn nrm2_basic_and_scaled() {
        assert_eq!(nrm2(&[3.0f64, 4.0]), 5.0);
        assert_eq!(nrm2::<f64>(&[]), 0.0);
        // Would overflow f32 if squared naively.
        let big = vec![1e30f32; 4];
        let n = nrm2(&big);
        assert!((n - 2e30).abs() / 2e30 < 1e-6);
        // Would underflow to zero if squared naively.
        let small = vec![1e-30f32; 4];
        let n = nrm2(&small);
        assert!((n - 2e-30).abs() / 2e-30 < 1e-6);
    }

    #[test]
    fn nrm2_is_nan_when_any_entry_is() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for x in [
            vec![nan],
            vec![nan; 5],
            vec![0.0, nan, 0.0],
            vec![inf, nan],
            vec![1.0, nan],
        ] {
            assert!(nrm2(&x).is_nan(), "{x:?}");
            let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            assert!(nrm2(&x32).is_nan(), "{x:?}");
        }
        assert_eq!(nrm2(&[inf, 1.0]), inf);
    }

    #[test]
    fn nrm2_exact_powers_of_two() {
        // Scaling is by powers of two, so these are exact.
        assert_eq!(nrm2(&[2.0f64.powi(100)]), 2.0f64.powi(100));
        assert_eq!(nrm2(&[-(2.0f64.powi(-100))]), 2.0f64.powi(-100));
    }

    #[test]
    fn axpy_scal_iamax() {
        let x = [1.0f64, -2.0, 3.0];
        let mut y = [10.0f64, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 6.0, 16.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [6.0, 3.0, 8.0]);
        assert_eq!(iamax(&y), 2);
        assert_eq!(iamax(&[1.0f64, -5.0, 4.9]), 1);
        assert_eq!(iamax::<f64>(&[]), 0);
    }
}
