//! LU factorization with partial pivoting (xGETRF).
//!
//! The substrate for the LU-with-iterative-refinement comparator the paper's
//! §5 positions itself against (Haidar et al. 2017/2018 accelerate *LU* on
//! TensorCore the way this paper accelerates QR). The blocked right-looking
//! form has the same panel/trailing-update structure as blocked QR —
//! `A22 -= A21 A12` is the GEMM a neural engine can eat — which is what the
//! mixed-precision variant in `tcqr-core::lu_ir` exploits.
//!
//! Unlike QR, column scaling cannot bound LU's intermediate growth (§3.5
//! points this out), so the fp16 variant is intrinsically more fragile;
//! the ablation benchmarks measure exactly that.

use crate::blas1::iamax;
use crate::gemm::{gemm, Op};
use crate::mat::MatMut;
use crate::real::Real;
use crate::tri::trsm_left_unit_lower;

/// Error: a pivot column was exactly zero (matrix singular to working
/// precision).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularLu {
    /// Column at which elimination broke down.
    pub column: usize,
}

impl core::fmt::Display for SingularLu {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LU factorization broke down at column {}", self.column)
    }
}

impl std::error::Error for SingularLu {}

/// Swap rows `i` and `p` across all columns of `a`.
fn swap_rows<T: Real>(a: &mut MatMut<'_, T>, i: usize, p: usize) {
    if i == p {
        return;
    }
    for j in 0..a.ncols() {
        let vi = a.get(i, j);
        let vp = a.get(p, j);
        a.set(i, j, vp);
        a.set(p, j, vi);
    }
}

/// Unblocked LU with partial pivoting on columns `k0..k0+nb` of the full
/// matrix view, swapping entire rows and recording absolute pivot indices.
/// Exposed so mixed-precision variants (engine-charged trailing updates)
/// can reuse the exact same panel.
pub fn getrf_panel_range<T: Real>(
    mut a: MatMut<'_, T>,
    k0: usize,
    nb: usize,
    piv: &mut [usize],
) -> Result<(), SingularLu> {
    getrf_panel(&mut a, k0, nb, piv)
}

fn getrf_panel<T: Real>(
    a: &mut MatMut<'_, T>,
    k0: usize,
    nb: usize,
    piv: &mut [usize],
) -> Result<(), SingularLu> {
    let m = a.nrows();
    for j in k0..k0 + nb {
        // Pivot: largest magnitude in A[j.., j].
        let col = a.col(j);
        let rel = iamax(&col[j..m]);
        let p = j + rel;
        let pval = a.get(p, j);
        if pval == T::ZERO {
            return Err(SingularLu { column: j });
        }
        piv[j] = p;
        swap_rows(a, j, p);
        // Scale multipliers, update the remaining panel columns.
        let inv = a.get(j, j).recip();
        {
            let colj = a.col_mut(j);
            crate::blas1::scal(inv, &mut colj[j + 1..m]);
        }
        for c in j + 1..k0 + nb {
            let f = a.get(j, c);
            if f != T::ZERO {
                let (left, mut right) = a.rb().split_at_col_mut(c);
                let lcol = &left.col(j)[j + 1..m];
                crate::blas1::axpy(-f, lcol, &mut right.col_mut(0)[j + 1..m]);
            }
        }
    }
    Ok(())
}

/// Blocked LU factorization with partial pivoting, in place.
///
/// On exit `a` holds the unit-lower L (multipliers below the diagonal) and
/// upper U; `piv[k]` records the row swapped with row `k` (LAPACK `ipiv`
/// convention, zero-based). Requires a square matrix.
pub fn getrf_blocked<T: Real>(
    mut a: MatMut<'_, T>,
    piv: &mut [usize],
    block: usize,
) -> Result<(), SingularLu> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "getrf: square matrices only");
    assert_eq!(piv.len(), n, "getrf: pivot length");
    assert!(block >= 1);
    let mut k = 0;
    while k < n {
        let nb = block.min(n - k);
        getrf_panel(&mut a, k, nb, piv)?;
        if k + nb < n {
            let (head, tail) = a.rb().split_at_col_mut(k + nb);
            let l11 = head.as_ref().submatrix(k, k, nb, nb);
            let a21 = head.as_ref().submatrix(k + nb, k, n - k - nb, nb);
            let tail_rows = tail.submatrix_mut(k, 0, n - k, n - k - nb);
            let (mut a12, a22) = tail_rows.split_at_row_mut(nb);
            // A12 <- L11^{-1} A12
            trsm_left_unit_lower(T::ONE, l11, a12.rb());
            // A22 <- A22 - A21 A12
            gemm(-T::ONE, Op::NoTrans, a21, Op::NoTrans, a12.as_ref(), T::ONE, a22);
        }
        k += nb;
    }
    Ok(())
}

/// Apply the pivot sequence to a right-hand side (forward order).
pub fn apply_pivots<T: Real>(piv: &[usize], b: &mut [T]) {
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemv;
    use crate::gen::{self, rng};
    use crate::mat::Mat;
    use crate::tri::{trsv_unit_lower, trsv_upper};

    fn solve_check(n: usize, seed: u64, tol: f64) {
        let mut a = gen::gaussian(n, n, &mut rng(seed));
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        gemv(1.0, Op::NoTrans, a.as_ref(), &xtrue, 0.0, &mut x);
        let mut piv = vec![0usize; n];
        getrf_blocked(a.as_mut(), &mut piv, 32).expect("nonsingular");
        // The exact solve `lu_ir` runs: P b, then L, then U.
        apply_pivots(&piv, &mut x);
        trsv_unit_lower(Op::NoTrans, a.as_ref(), &mut x);
        trsv_upper(Op::NoTrans, a.as_ref(), &mut x);
        for i in 0..n {
            assert!((x[i] - xtrue[i]).abs() < tol, "x[{i}]: {} vs {}", x[i], xtrue[i]);
        }
    }

    #[test]
    fn solves_random_systems() {
        solve_check(1, 1, 1e-12);
        solve_check(7, 2, 1e-10);
        solve_check(33, 3, 1e-9); // crosses the block boundary
        solve_check(100, 4, 1e-8);
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = gen::gaussian(50, 50, &mut rng(5));
        let mut a1 = a.clone();
        let mut p1 = vec![0usize; 50];
        getrf_blocked(a1.as_mut(), &mut p1, 1).unwrap();
        let mut a2 = a.clone();
        let mut p2 = vec![0usize; 50];
        getrf_blocked(a2.as_mut(), &mut p2, 16).unwrap();
        assert_eq!(p1, p2, "pivot sequences must agree");
        for j in 0..50 {
            for i in 0..50 {
                assert!(
                    (a1[(i, j)] - a2[(i, j)]).abs() < 1e-10,
                    "LU mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn reconstruction_pa_equals_lu() {
        let n = 24;
        let a = gen::gaussian(n, n, &mut rng(6));
        let mut f = a.clone();
        let mut piv = vec![0usize; n];
        getrf_blocked(f.as_mut(), &mut piv, 8).unwrap();
        // Build P A by applying the pivot swaps to A's rows.
        let mut pa = a.clone();
        for (k, &p) in piv.iter().enumerate() {
            if p != k {
                for j in 0..n {
                    let vi = pa[(k, j)];
                    pa[(k, j)] = pa[(p, j)];
                    pa[(p, j)] = vi;
                }
            }
        }
        // L U from the packed factors.
        let mut l: Mat<f64> = Mat::identity(n, n);
        let mut u: Mat<f64> = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = f[(i, j)];
                } else {
                    u[(i, j)] = f[(i, j)];
                }
            }
        }
        let mut rec = Mat::zeros(n, n);
        gemm(1.0, Op::NoTrans, l.as_ref(), Op::NoTrans, u.as_ref(), 0.0, rec.as_mut());
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (rec[(i, j)] - pa[(i, j)]).abs() < 1e-11,
                    "PA != LU at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn pivoting_bounds_multipliers() {
        let a = gen::gaussian(40, 40, &mut rng(7));
        let mut f = a.clone();
        let mut piv = vec![0usize; 40];
        getrf_blocked(f.as_mut(), &mut piv, 32).unwrap();
        for j in 0..40 {
            for i in j + 1..40 {
                assert!(f[(i, j)].abs() <= 1.0 + 1e-12, "multiplier ({i},{j})");
            }
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a: Mat<f64> = Mat::zeros(5, 5);
        for i in 0..5 {
            a[(i, 0)] = 1.0; // rank-1
            a[(0, i)] = 1.0;
        }
        let mut piv = vec![0usize; 5];
        let err = match getrf_blocked(a.as_mut(), &mut piv, 32) {
            Err(e) => e,
            Ok(()) => panic!("rank-1 matrix must not factor"),
        };
        assert!(err.column >= 1, "breakdown past the first column: {err}");
    }

    #[test]
    fn pivot_free_diag_dominant_identity_like() {
        // Strictly diagonally dominant: no swaps expected.
        let n = 10;
        let a = Mat::from_fn(n, n, |i, j| if i == j { 10.0 } else { 0.1 });
        let mut f = a.clone();
        let mut piv = vec![0usize; n];
        getrf_blocked(f.as_mut(), &mut piv, 32).unwrap();
        assert_eq!(piv, (0..n).collect::<Vec<_>>());
    }
}
