//! Matrix norms.

use crate::blas1::nrm2;
use crate::gemm::{gemv, Op};
use crate::mat::MatRef;
use crate::real::Real;

/// Frobenius norm, computed with power-of-two scaling against overflow.
pub fn fro_norm<T: Real>(a: MatRef<'_, T>) -> T {
    fma_dispatch!(fro_norm_body::<T>(a: MatRef<'_, T>) -> T);
    fro_norm_body(a)
}

/// [`fro_norm`] without the dispatch.
#[inline(always)]
fn fro_norm_body<T: Real>(a: MatRef<'_, T>) -> T {
    let amax = a.max_abs();
    if amax == T::ZERO || !amax.is_finite_v() {
        return amax;
    }
    let k = -(amax.to_f64().log2().round() as i32);
    let scale = T::exp2i(k);
    let mut s = T::ZERO;
    for j in 0..a.ncols() {
        for &x in a.col(j) {
            let v = x * scale;
            s = v.mul_add(v, s);
        }
    }
    s.sqrt() * T::exp2i(-k)
}

/// Spectral norm (largest singular value) by power iteration on `A^T A`.
///
/// Converges fast whenever there is any gap below the top singular value;
/// 200 iterations with a relative tolerance of `8 eps` is far more than
/// enough for the error-metric uses in this crate (which only need a couple
/// of digits).
pub fn spectral_norm<T: Real>(a: MatRef<'_, T>) -> T {
    let m = a.nrows();
    let n = a.ncols();
    if m == 0 || n == 0 {
        return T::ZERO;
    }
    // Any non-finite entry makes the norm meaningless; report infinity so
    // error metrics read "the factorization blew up" rather than a bogus
    // small number (NaN would be swallowed by max-reductions below).
    for j in 0..n {
        if a.col(j).iter().any(|x| !x.is_finite_v()) {
            return T::from_f64(f64::INFINITY);
        }
    }
    // Deterministic non-degenerate start vector.
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64(1.0 + (i as f64 % 7.0) * 0.1))
        .collect();
    let mut av = vec![T::ZERO; m];
    let mut sigma = T::ZERO;
    let tol = T::from_f64(8.0) * T::EPSILON;
    for _ in 0..200 {
        let vn = nrm2(&v);
        if vn == T::ZERO || !vn.is_finite_v() {
            return vn; // zero matrix, or inf/nan contamination
        }
        crate::blas1::scal(vn.recip(), &mut v);
        gemv(T::ONE, Op::NoTrans, a, &v, T::ZERO, &mut av);
        gemv(T::ONE, Op::Trans, a, &av, T::ZERO, &mut v);
        let new_sigma = nrm2(&av);
        if !new_sigma.is_finite_v() {
            return new_sigma;
        }
        if (new_sigma - sigma).abs() <= tol * new_sigma.maxv(T::ONE) {
            return new_sigma;
        }
        sigma = new_sigma;
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    #[test]
    fn fro_norm_known() {
        let a = Mat::from_col_major(2, 2, vec![3.0f64, 0.0, 0.0, 4.0]);
        assert!((fro_norm(a.as_ref()) - 5.0).abs() < 1e-14);
        let z: Mat<f64> = Mat::zeros(3, 3);
        assert_eq!(fro_norm(z.as_ref()), 0.0);
    }

    #[test]
    fn fro_norm_avoids_overflow() {
        let a: Mat<f32> = Mat::from_fn(2, 2, |_, _| 1e30);
        assert!((fro_norm(a.as_ref()) - 2e30).abs() / 2e30 < 1e-6);
    }

    #[test]
    fn spectral_norm_diagonal() {
        let mut a: Mat<f64> = Mat::zeros(4, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 7.0;
        a[(2, 2)] = 0.5;
        let s = spectral_norm(a.as_ref());
        assert!((s - 7.0).abs() < 1e-9, "s={s}");
    }

    #[test]
    fn spectral_norm_orthogonal_is_one() {
        let q = crate::gen::haar_orthonormal(30, 8, &mut crate::gen::rng(1));
        let s = spectral_norm(q.as_ref());
        assert!((s - 1.0).abs() < 1e-9, "s={s}");
    }

    #[test]
    fn spectral_norm_matches_svd() {
        let a = crate::gen::gaussian(20, 12, &mut crate::gen::rng(2));
        let s_pow = spectral_norm(a.as_ref());
        let s_svd = crate::svd::singular_values(a.as_ref())[0];
        assert!((s_pow - s_svd).abs() / s_svd < 1e-8);
    }

    #[test]
    fn spectral_norm_reports_nonfinite_as_infinity() {
        let mut a: Mat<f64> = Mat::identity(3, 3);
        a[(1, 1)] = f64::NAN;
        assert_eq!(spectral_norm(a.as_ref()), f64::INFINITY);
        a[(1, 1)] = f64::INFINITY;
        assert_eq!(spectral_norm(a.as_ref()), f64::INFINITY);
        // All-NaN must NOT read as zero.
        let b: Mat<f64> = Mat::from_fn(2, 2, |_, _| f64::NAN);
        assert_eq!(spectral_norm(b.as_ref()), f64::INFINITY);
    }

    #[test]
    fn spectral_norm_zero_and_empty() {
        let z: Mat<f64> = Mat::zeros(5, 4);
        assert_eq!(spectral_norm(z.as_ref()), 0.0);
        let e: Mat<f64> = Mat::zeros(0, 0);
        assert_eq!(spectral_norm(e.as_ref()), 0.0);
    }
}
