//! Triangular kernels: solves, multiplies, and Cholesky.
//!
//! Only the *upper* triangle variants are implemented — every triangular
//! matrix in this workspace is an R factor from QR or a Cholesky factor
//! `A^T A = U^T U`, both upper. All kernels walk columns (contiguous in the
//! column-major layout).

use crate::gemm::Op;
use crate::mat::{MatMut, MatRef};
use crate::real::Real;

/// Error from [`potrf_upper`]: the matrix is not positive definite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the first pivot that was not strictly positive.
    pub pivot: usize,
}

impl core::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Solve `op(U) x = b` in place for upper-triangular `U` (diagonal from the
/// matrix, not unit). Panics on shape mismatch or zero diagonal in debug.
pub fn trsv_upper<T: Real>(op: Op, u: MatRef<'_, T>, x: &mut [T]) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n, "trsv: U must be square");
    assert_eq!(x.len(), n, "trsv: length mismatch");
    match op {
        Op::NoTrans => {
            // Back substitution, column-oriented.
            for j in (0..n).rev() {
                let col = u.col(j);
                debug_assert!(col[j] != T::ZERO, "trsv: zero diagonal");
                let xj = x[j] / col[j];
                x[j] = xj;
                if xj != T::ZERO {
                    crate::blas1::axpy(-xj, &col[..j], &mut x[..j]);
                }
            }
        }
        Op::Trans => {
            // Forward substitution on U^T, dot-product form.
            for j in 0..n {
                let col = u.col(j);
                debug_assert!(col[j] != T::ZERO, "trsv: zero diagonal");
                let s = crate::blas1::dot(&col[..j], &x[..j]);
                x[j] = (x[j] - s) / col[j];
            }
        }
    }
}

/// Solve `op(L) x = b` in place for *unit* lower-triangular `L` (the
/// diagonal is taken as 1 and never read; the strict upper triangle is
/// ignored). This is the `L` convention of an LU factorization.
pub fn trsv_unit_lower<T: Real>(op: Op, l: MatRef<'_, T>, x: &mut [T]) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "trsv: L must be square");
    assert_eq!(x.len(), n, "trsv: length mismatch");
    match op {
        Op::NoTrans => {
            // Forward substitution, column-oriented.
            for j in 0..n {
                let xj = x[j];
                if xj != T::ZERO {
                    let col = l.col(j);
                    crate::blas1::axpy(-xj, &col[j + 1..], &mut x[j + 1..]);
                }
            }
        }
        Op::Trans => {
            // Backward substitution on L^T, dot-product form.
            for j in (0..n).rev() {
                let col = l.col(j);
                let s = crate::blas1::dot(&col[j + 1..], &x[j + 1..]);
                x[j] -= s;
            }
        }
    }
}

/// Solve `L X = alpha B` in place for unit lower-triangular `L` (the
/// blocked-LU `A12 <- L11^{-1} A12` update).
pub fn trsm_left_unit_lower<T: Real>(alpha: T, l: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "trsm: L must be square");
    assert_eq!(b.nrows(), n, "trsm: row mismatch");
    if alpha != T::ONE {
        b.scale(alpha);
    }
    for j in 0..b.ncols() {
        trsv_unit_lower(Op::NoTrans, l, b.col_mut(j));
    }
}

/// Solve `X op(U) = alpha B` in place (`B` overwritten by `X`), upper `U`.
///
/// With `Op::NoTrans` this is the `A R^{-1}` operation of CholeskyQR and of
/// explicit preconditioning.
pub fn trsm_right_upper<T: Real>(alpha: T, op: Op, u: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n, "trsm: U must be square");
    assert_eq!(b.ncols(), n, "trsm: col mismatch");
    if alpha != T::ONE {
        b.scale(alpha);
    }
    match op {
        Op::NoTrans => {
            // X U = B: forward over columns of X.
            for j in 0..n {
                let ucol = u.col(j);
                // x_j = (b_j - sum_{l<j} x_l U[l,j]) / U[j,j]
                for (l, &f) in ucol.iter().enumerate().take(j) {
                    if f != T::ZERO {
                        // Columns l < j are disjoint from column j.
                        let (left, mut right) = b.rb().split_at_col_mut(j);
                        crate::blas1::axpy(-f, left.col(l), right.col_mut(0));
                    }
                }
                let d = ucol[j];
                debug_assert!(d != T::ZERO, "trsm: zero diagonal");
                crate::blas1::scal(d.recip(), b.col_mut(j));
            }
        }
        Op::Trans => {
            // X U^T = B: backward over columns of X.
            for j in (0..n).rev() {
                let d = u.get(j, j);
                debug_assert!(d != T::ZERO, "trsm: zero diagonal");
                crate::blas1::scal(d.recip(), b.col_mut(j));
                // Eliminate x_j from earlier columns: B[:,l] -= U[l,j]^T ...
                // For X U^T = B: b_l -= x_j * U[j, l] for l < j  (U^T[j,l]=U[l,j])
                for l in 0..j {
                    let f = u.get(l, j);
                    if f != T::ZERO {
                        let (mut left, right) = b.rb().split_at_col_mut(j);
                        crate::blas1::axpy(-f, right.col(0), left.col_mut(l));
                    }
                }
            }
        }
    }
}

/// `B = alpha op(U) B` in place for upper-triangular `U`.
pub fn trmm_left_upper<T: Real>(alpha: T, op: Op, u: MatRef<'_, T>, b: MatMut<'_, T>) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n, "trmm: U must be square");
    assert_eq!(b.nrows(), n, "trmm: row mismatch");
    fma_dispatch!(trmm_left_upper_body::<T>(
        alpha: T, op: Op, u: MatRef<'_, T>, b: MatMut<'_, T>
    ));
    trmm_left_upper_body(alpha, op, u, b)
}

/// [`trmm_left_upper`] without the shape checks or the dispatch.
#[inline(always)]
fn trmm_left_upper_body<T: Real>(alpha: T, op: Op, u: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    let n = u.nrows();
    for j in 0..b.ncols() {
        let x = b.col_mut(j);
        match op {
            Op::NoTrans => {
                // y_i = sum_{l>=i} U[i,l] x_l : forward, overwrite from top.
                for i in 0..n {
                    let mut s = T::ZERO;
                    for (l, &xl) in x.iter().enumerate().skip(i) {
                        s = u.get(i, l).mul_add(xl, s);
                    }
                    x[i] = alpha * s;
                }
            }
            Op::Trans => {
                // y_i = sum_{l<=i} U[l,i] x_l : process from bottom.
                for i in (0..n).rev() {
                    let ucol = u.col(i);
                    let s = crate::blas1::dot_body(&ucol[..=i], &x[..=i]);
                    x[i] = alpha * s;
                }
            }
        }
    }
}

/// Cholesky factorization `A = U^T U` of the upper triangle, in place.
///
/// Only the upper triangle of `a` is read and written; the strict lower
/// triangle is left untouched. Returns the pivot index on failure.
pub fn potrf_upper<T: Real>(mut a: MatMut<'_, T>) -> Result<(), NotPositiveDefinite> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "potrf: matrix must be square");
    for j in 0..n {
        // d = A[j,j] - U[0..j,j] . U[0..j,j]
        let col_j = a.col(j);
        let d = a.get(j, j) - crate::blas1::dot(&col_j[..j], &col_j[..j]);
        // `!(d > 0)` deliberately catches NaN pivots as well as d <= 0.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(d > T::ZERO) || !d.is_finite_v() {
            return Err(NotPositiveDefinite { pivot: j });
        }
        let ujj = d.sqrt();
        a.set(j, j, ujj);
        let inv = ujj.recip();
        for k in j + 1..n {
            // U[j,k] = (A[j,k] - U[0..j,j] . U[0..j,k]) / U[j,j]
            let (left, mut right) = a.rb().split_at_col_mut(k);
            let cj = left.col(j);
            let colk = right.col_mut(0);
            let s = crate::blas1::dot(&cj[..j], &colk[..j]);
            colk[j] = (colk[j] - s) * inv;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Op};
    use crate::mat::Mat;

    fn upper(n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(n, n, |i, j| {
            if i > j {
                0.0
            } else {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                if i == j {
                    v + 3.0 // keep well away from singular
                } else {
                    v
                }
            }
        })
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn trsv_notrans_roundtrip() {
        let u = upper(9, 1);
        let x0: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        // b = U x0
        let mut b = x0.clone();
        trmm_left_upper(
            1.0,
            Op::NoTrans,
            u.as_ref(),
            crate::mat::MatMut::from_col_major_slice_mut(&mut b, 9, 1),
        );
        trsv_upper(Op::NoTrans, u.as_ref(), &mut b);
        for i in 0..9 {
            assert!((b[i] - x0[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn trsv_trans_roundtrip() {
        let u = upper(8, 2);
        let x0: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let mut b = x0.clone();
        trmm_left_upper(
            1.0,
            Op::Trans,
            u.as_ref(),
            crate::mat::MatMut::from_col_major_slice_mut(&mut b, 8, 1),
        );
        trsv_upper(Op::Trans, u.as_ref(), &mut b);
        for i in 0..8 {
            assert!((b[i] - x0[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn trsm_right_notrans() {
        let n = 10;
        let u = upper(n, 6);
        let x0 = rand_mat(7, n, 7);
        // B = X0 U
        let mut b = Mat::zeros(7, n);
        gemm(1.0, Op::NoTrans, x0.as_ref(), Op::NoTrans, u.as_ref(), 0.0, b.as_mut());
        trsm_right_upper(1.0, Op::NoTrans, u.as_ref(), b.as_mut());
        for j in 0..n {
            for i in 0..7 {
                assert!((b[(i, j)] - x0[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_right_trans() {
        let n = 10;
        let u = upper(n, 8);
        let x0 = rand_mat(6, n, 9);
        // B = X0 U^T
        let mut b = Mat::zeros(6, n);
        gemm(1.0, Op::NoTrans, x0.as_ref(), Op::Trans, u.as_ref(), 0.0, b.as_mut());
        trsm_right_upper(1.0, Op::Trans, u.as_ref(), b.as_mut());
        for j in 0..n {
            for i in 0..6 {
                assert!((b[(i, j)] - x0[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn potrf_recovers_cholesky_factor() {
        let n = 16;
        let r0 = upper(n, 10);
        // A = R0^T R0 is SPD with known factor (up to diagonal signs; our
        // diagonal is positive by construction).
        let mut a = Mat::zeros(n, n);
        gemm(1.0, Op::Trans, r0.as_ref(), Op::NoTrans, r0.as_ref(), 0.0, a.as_mut());
        potrf_upper(a.as_mut()).expect("SPD");
        for j in 0..n {
            for i in 0..=j {
                assert!(
                    (a[(i, j)] - r0[(i, j)]).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    a[(i, j)],
                    r0[(i, j)]
                );
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a: Mat<f64> = Mat::identity(3, 3);
        a[(2, 2)] = -1.0;
        let err = potrf_upper(a.as_mut()).unwrap_err();
        assert_eq!(err.pivot, 2);
        assert!(err.to_string().contains("pivot 2"));
    }

    #[test]
    fn potrf_leaves_lower_triangle() {
        let n = 5;
        let r0 = upper(n, 11);
        let mut a = Mat::zeros(n, n);
        gemm(1.0, Op::Trans, r0.as_ref(), Op::NoTrans, r0.as_ref(), 0.0, a.as_mut());
        let before = a.clone();
        potrf_upper(a.as_mut()).unwrap();
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(a[(i, j)], before[(i, j)]);
            }
        }
    }
}
