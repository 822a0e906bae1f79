//! Householder QR: the LAPACK-style baseline the paper compares against.
//!
//! `geqrf` is the blocked compact-WY factorization (xGEQRF): unblocked panel
//! (`geqr2`), triangular block-reflector factor (`larft`), and a GEMM-rich
//! trailing update (`larfb`). Instantiated at `f32` it plays the role of
//! cuSOLVER `SGEQRF`, at `f64` of `DGEQRF`. `orgqr`/`ormqr` form and apply
//! the orthogonal factor (SORMQR/DORMQR in the paper's terminology).

use crate::blas1::{axpy, dot, nrm2, scal};
use crate::gemm::{gemm, Op};
use crate::mat::{Mat, MatMut, MatRef};
use crate::real::Real;
use crate::tri::trmm_left_upper;

/// Default panel width for the blocked factorization.
pub const DEFAULT_BLOCK: usize = 32;

/// Unblocked Householder QR (xGEQR2).
///
/// On exit the upper triangle of `a` holds R, the strict lower triangle the
/// reflector vectors (unit component implicit), and `tau` the reflector
/// scalars. `tau.len()` must be `min(m, n)`.
pub fn geqr2<T: Real>(mut a: MatMut<'_, T>, tau: &mut [T]) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert_eq!(tau.len(), k, "geqr2: tau length");
    for j in 0..k {
        // Generate the reflector for column j from A[j.., j].
        let (alpha, tail_norm) = {
            let col = a.col(j);
            (col[j], nrm2(&col[j + 1..]))
        };
        if tail_norm == T::ZERO {
            // Column already triangular below the diagonal; H = I.
            tau[j] = T::ZERO;
            continue;
        }
        let norm = hypot(alpha, tail_norm);
        let beta = if alpha >= T::ZERO { -norm } else { norm };
        tau[j] = (beta - alpha) / beta;
        let inv = (alpha - beta).recip();
        {
            let col = a.col_mut(j);
            scal(inv, &mut col[j + 1..]);
            col[j] = beta;
        }
        if j + 1 == n {
            continue;
        }
        // Apply H = I - tau v v^T to the trailing columns, v = [1; A[j+1..,j]].
        let tj = tau[j];
        let (vpart, mut rest) = a.rb().split_at_col_mut(j + 1);
        let v = &vpart.col(j)[j + 1..];
        for c in 0..rest.ncols() {
            let col = rest.col_mut(c);
            let w = tj * (col[j] + dot(v, &col[j + 1..]));
            col[j] -= w;
            axpy(-w, v, &mut col[j + 1..]);
        }
    }
}

/// Euclidean length of `(a, b)` without undue overflow.
fn hypot<T: Real>(a: T, b: T) -> T {
    let aa = a.abs();
    let ab = b.abs();
    let (big, small) = if aa >= ab { (aa, ab) } else { (ab, aa) };
    if big == T::ZERO {
        return T::ZERO;
    }
    let r = small / big;
    big * (T::ONE + r * r).sqrt()
}

/// Form the upper-triangular block reflector factor `T` (xLARFT, forward
/// columnwise): `H_0 H_1 ... H_{nb-1} = I - V T V^T`.
///
/// `v` is the factored panel (unit lower trapezoidal reflectors in its strict
/// lower part), `tau` the scalars, and `t` a `nb x nb` output.
pub fn larft<T: Real>(v: MatRef<'_, T>, tau: &[T], mut t: MatMut<'_, T>) {
    let nb = v.ncols();
    let m = v.nrows();
    assert_eq!(tau.len(), nb, "larft: tau length");
    assert_eq!(t.nrows(), nb, "larft: t rows");
    assert_eq!(t.ncols(), nb, "larft: t cols");
    t.fill(T::ZERO);
    for j in 0..nb {
        let tj = tau[j];
        if tj == T::ZERO {
            // H_j = I: T gets a zero row/column.
            t.set(j, j, T::ZERO);
            continue;
        }
        // w[i] = v_i^T v_j restricted to rows j..m:
        //       = V[j, i] + V[j+1.., i] . V[j+1.., j]     (i < j)
        let mut w = vec![T::ZERO; j];
        {
            let vj = &v.col(j)[j + 1..m];
            for (i, wi) in w.iter_mut().enumerate() {
                let vi = v.col(i);
                *wi = vi[j] + dot(&vi[j + 1..m], vj);
            }
        }
        // T[0..j, j] = -tau_j * T[0..j, 0..j] * w
        if j > 0 {
            let tsub = t.as_ref().submatrix(0, 0, j, j).to_owned();
            let mut wj = w.clone();
            // wj = T_sub * w (upper triangular multiply)
            let wm = MatMut::from_col_major_slice_mut(&mut wj, j, 1);
            trmm_left_upper(T::ONE, Op::NoTrans, tsub.as_ref(), wm);
            for (i, &wv) in wj.iter().enumerate().take(j) {
                t.set(i, j, -tj * wv);
            }
        }
        t.set(j, j, tj);
    }
}

/// Apply a block reflector (xLARFB, forward columnwise, from the left):
///
/// - `trans = Op::Trans`  : `C = (I - V T^T V^T) C = H^T C`
/// - `trans = Op::NoTrans`: `C = (I - V T V^T) C  = H C`
///
/// `v` is the factored panel; its strict upper triangle and diagonal are
/// ignored (taken as zero/one).
pub fn larfb<T: Real>(trans: Op, v: MatRef<'_, T>, t: MatRef<'_, T>, mut c: MatMut<'_, T>) {
    let m = v.nrows();
    let nb = v.ncols();
    assert_eq!(c.nrows(), m, "larfb: row mismatch");
    if c.ncols() == 0 || nb == 0 {
        return;
    }
    // Materialize V with explicit unit diagonal / zero upper triangle so the
    // two applications below are plain GEMMs (the flops saved by exploiting
    // the trapezoid are negligible at panel widths of 32-128).
    let mut vx: Mat<T> = Mat::zeros(m, nb);
    for j in 0..nb {
        let src = v.col(j);
        let dst = vx.col_mut(j);
        dst[j] = T::ONE;
        dst[j + 1..m].copy_from_slice(&src[j + 1..m]);
    }
    // W = V^T C  (nb x nc)
    let mut w: Mat<T> = Mat::zeros(nb, c.ncols());
    gemm(T::ONE, Op::Trans, vx.as_ref(), Op::NoTrans, c.as_ref(), T::ZERO, w.as_mut());
    // W = op(T) W
    trmm_left_upper(T::ONE, trans, t, w.as_mut());
    // C -= V W
    gemm(-T::ONE, Op::NoTrans, vx.as_ref(), Op::NoTrans, w.as_ref(), T::ONE, c.rb());
}

/// Blocked Householder QR factorization (xGEQRF).
///
/// Returns the reflector panel in `a` (R in the upper triangle) and fills
/// `tau`. `block` is the panel width (defaults to [`DEFAULT_BLOCK`] via
/// [`geqrf`]).
pub fn geqrf_blocked<T: Real>(mut a: MatMut<'_, T>, tau: &mut [T], block: usize) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert_eq!(tau.len(), k, "geqrf: tau length");
    assert!(block >= 1);
    let mut j = 0;
    while j < k {
        let jb = block.min(k - j);
        // Panel factorization.
        let panel_and_trailing = a.rb().submatrix_mut(j, j, m - j, n - j);
        let (mut panel, trailing) = panel_and_trailing.split_at_col_mut(jb);
        geqr2(panel.rb(), &mut tau[j..j + jb]);
        // Trailing update via the compact-WY representation.
        if trailing.ncols() > 0 {
            let mut t: Mat<T> = Mat::zeros(jb, jb);
            larft(panel.as_ref(), &tau[j..j + jb], t.as_mut());
            larfb(Op::Trans, panel.as_ref(), t.as_ref(), trailing);
        }
        j += jb;
    }
}

/// Blocked Householder QR with the default panel width.
pub fn geqrf<T: Real>(a: MatMut<'_, T>, tau: &mut [T]) {
    geqrf_blocked(a, tau, DEFAULT_BLOCK);
}

/// Extract the `n x n` upper-triangular R factor from a factored matrix.
pub fn extract_r<T: Real>(a: MatRef<'_, T>) -> Mat<T> {
    let n = a.ncols();
    let k = a.nrows().min(n);
    let mut r = Mat::zeros(k, n);
    for j in 0..n {
        let rows = (j + 1).min(k);
        r.col_mut(j)[..rows].copy_from_slice(&a.col(j)[..rows]);
    }
    r
}

/// Form the explicit thin orthogonal factor `Q` (`m x k`) from a factored
/// matrix (xORGQR).
pub fn orgqr<T: Real>(a: MatRef<'_, T>, tau: &[T], block: usize) -> Mat<T> {
    let m = a.nrows();
    let k = a.ncols().min(m).min(tau.len());
    let mut q: Mat<T> = Mat::identity(m, k);
    // Apply blocks in reverse: Q = H_0 (H_1 (... H_{k-1} I)).
    let mut starts: Vec<usize> = (0..k).step_by(block.max(1)).collect();
    starts.reverse();
    for &j in &starts {
        let jb = block.min(k - j);
        let panel = a.submatrix(j, j, m - j, jb);
        let mut t: Mat<T> = Mat::zeros(jb, jb);
        larft(panel, &tau[j..j + jb], t.as_mut());
        // Columns < j of Q are untouched by this block (zero below row j).
        let c = q.as_mut().submatrix_mut(j, j, m - j, k - j);
        larfb(Op::NoTrans, panel, t.as_ref(), c);
    }
    q
}

/// Apply `Q^T` (`trans = Op::Trans`) or `Q` (`Op::NoTrans`) from a factored
/// matrix to `C`, in place (xORMQR, side = left).
pub fn ormqr<T: Real>(trans: Op, a: MatRef<'_, T>, tau: &[T], mut c: MatMut<'_, T>, block: usize) {
    let m = a.nrows();
    let k = a.ncols().min(m).min(tau.len());
    assert_eq!(c.nrows(), m, "ormqr: row mismatch");
    let starts: Vec<usize> = (0..k).step_by(block.max(1)).collect();
    let order: Vec<usize> = match trans {
        Op::Trans => starts.clone(),                      // H_{k-1} ... H_0 C
        Op::NoTrans => starts.iter().rev().copied().collect(), // H_0 ... H_{k-1} C
    };
    for &j in &order {
        let jb = block.min(k - j);
        let panel = a.submatrix(j, j, m - j, jb);
        let mut t: Mat<T> = Mat::zeros(jb, jb);
        larft(panel, &tau[j..j + jb], t.as_mut());
        let nc = c.ncols();
        let csub = c.rb().submatrix_mut(j, 0, m - j, nc);
        larfb(trans, panel, t.as_ref(), csub);
    }
}

/// Convenience owner for a Householder factorization.
///
/// This couples the factored storage with `tau` and exposes the operations
/// the LLS baselines need (`SGEQRF + SORMQR + STRSM` pipelines).
pub struct Householder<T> {
    factored: Mat<T>,
    tau: Vec<T>,
    block: usize,
}

impl<T: Real> Householder<T> {
    /// Factor `a` (consumed) with the default block size.
    pub fn factor(a: Mat<T>) -> Self {
        Self::factor_blocked(a, DEFAULT_BLOCK)
    }

    /// Factor `a` (consumed) with an explicit block size.
    pub fn factor_blocked(mut a: Mat<T>, block: usize) -> Self {
        let k = a.nrows().min(a.ncols());
        let mut tau = vec![T::ZERO; k];
        geqrf_blocked(a.as_mut(), &mut tau, block);
        Householder {
            factored: a,
            tau,
            block,
        }
    }

    /// Rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.factored.nrows()
    }

    /// Columns of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.factored.ncols()
    }

    /// The upper-triangular factor R (`min(m,n) x n`).
    pub fn r(&self) -> Mat<T> {
        extract_r(self.factored.as_ref())
    }

    /// The `min(m,n)` diagonal entries of R, in order.
    pub fn r_diagonal(&self) -> impl Iterator<Item = T> + '_ {
        let k = self.nrows().min(self.ncols());
        (0..k).map(move |j| self.factored[(j, j)])
    }

    /// The explicit thin Q (`m x min(m,n)`).
    pub fn q(&self) -> Mat<T> {
        orgqr(self.factored.as_ref(), &self.tau, self.block)
    }

    /// Apply `Q^T` to `c` in place.
    pub fn apply_qt(&self, c: MatMut<'_, T>) {
        ormqr(Op::Trans, self.factored.as_ref(), &self.tau, c, self.block);
    }

    /// Least-squares solve `min ||A x - b||` via `x = R \ (Q^T b)[..n]`.
    ///
    /// Requires `m >= n` and a nonsingular R.
    pub fn solve_lls(&self, b: &[T]) -> Vec<T> {
        let m = self.nrows();
        let n = self.ncols();
        assert!(m >= n, "solve_lls: need m >= n");
        assert_eq!(b.len(), m, "solve_lls: rhs length");
        let mut qtb = b.to_vec();
        let c = MatMut::from_col_major_slice_mut(&mut qtb, m, 1);
        self.apply_qt(c);
        let mut x = qtb[..n].to_vec();
        let r = self.r();
        crate::tri::trsv_upper(Op::NoTrans, r.as_ref(), &mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn check_qr(m: usize, n: usize, block: usize, seed: u64) {
        let a = rand_mat(m, n, seed);
        let h = Householder::factor_blocked(a.clone(), block);
        let q = h.q();
        let r = h.r();
        // Backward error: A ~= Q R.
        let mut qr = Mat::zeros(m, n);
        gemm_naive(1.0, Op::NoTrans, q.as_ref(), Op::NoTrans, r.as_ref(), 0.0, qr.as_mut());
        for j in 0..n {
            for i in 0..m {
                assert!(
                    (qr[(i, j)] - a[(i, j)]).abs() < 1e-12 * (m as f64),
                    "A != QR at ({i},{j})"
                );
            }
        }
        // Orthogonality: Q^T Q ~= I.
        let k = m.min(n);
        let mut qtq = Mat::zeros(k, k);
        gemm_naive(1.0, Op::Trans, q.as_ref(), Op::NoTrans, q.as_ref(), 0.0, qtq.as_mut());
        for j in 0..k {
            for i in 0..k {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-13 * (m as f64));
            }
        }
        // R upper triangular.
        for j in 0..n {
            for i in j + 1..k {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_square_and_tall() {
        check_qr(10, 10, 4, 1);
        check_qr(40, 12, 5, 2);
        check_qr(64, 64, 32, 3);
        check_qr(100, 30, 32, 4); // block > n/3, exercises remainder
        check_qr(33, 17, 8, 5);
    }

    #[test]
    fn qr_single_column_and_row_edge() {
        check_qr(8, 1, 4, 6);
        check_qr(1, 1, 1, 7);
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = rand_mat(30, 18, 8);
        let mut a1 = a.clone();
        let mut tau1 = vec![0.0; 18];
        geqr2(a1.as_mut(), &mut tau1);
        let mut a2 = a.clone();
        let mut tau2 = vec![0.0; 18];
        geqrf_blocked(a2.as_mut(), &mut tau2, 5);
        // Same factorization (Householder QR is deterministic).
        for j in 0..18 {
            assert!((tau1[j] - tau2[j]).abs() < 1e-12, "tau[{j}]");
            for i in 0..30 {
                assert!((a1[(i, j)] - a2[(i, j)]).abs() < 1e-11, "({i},{j})");
            }
        }
    }

    #[test]
    fn geqr2_handles_zero_tail_column() {
        // Second column is e_1-aligned after the first reflector: tau may be 0.
        let mut a = Mat::zeros(4, 2);
        a[(0, 0)] = 2.0;
        a[(1, 0)] = 0.0;
        a[(0, 1)] = 1.0;
        a[(1, 1)] = 0.0;
        let mut tau = vec![0.0; 2];
        geqr2(a.as_mut(), &mut tau);
        assert_eq!(tau[0], 0.0, "no reflection needed for e1-aligned column");
        assert_eq!(a[(0, 0)], 2.0);
    }

    #[test]
    fn ormqr_transpose_then_notrans_is_identity() {
        let a = rand_mat(20, 8, 9);
        let h = Householder::factor(a);
        let c0 = rand_mat(20, 3, 10);
        let mut c = c0.clone();
        h.apply_qt(c.as_mut());
        ormqr(Op::NoTrans, h.factored.as_ref(), &h.tau, c.as_mut(), h.block);
        for j in 0..3 {
            for i in 0..20 {
                assert!((c[(i, j)] - c0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apply_qt_matches_explicit_q() {
        let a = rand_mat(15, 6, 11);
        let h = Householder::factor(a);
        let q = h.q();
        let c0 = rand_mat(15, 2, 12);
        let mut c = c0.clone();
        h.apply_qt(c.as_mut());
        // Explicit: Q^T C (thin Q: only first 6 rows comparable).
        let mut expect = Mat::zeros(6, 2);
        gemm_naive(1.0, Op::Trans, q.as_ref(), Op::NoTrans, c0.as_ref(), 0.0, expect.as_mut());
        for j in 0..2 {
            for i in 0..6 {
                assert!((c[(i, j)] - expect[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_lls_exact_system() {
        // Consistent overdetermined system: b in range(A).
        let a = rand_mat(25, 7, 13);
        let xtrue: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let mut b = vec![0.0; 25];
        crate::gemm::gemv(1.0, Op::NoTrans, a.as_ref(), &xtrue, 0.0, &mut b);
        let h = Householder::factor(a);
        let x = h.solve_lls(&b);
        for i in 0..7 {
            assert!((x[i] - xtrue[i]).abs() < 1e-10, "x[{i}]");
        }
    }

    #[test]
    fn solve_lls_residual_orthogonal_to_range() {
        let a = rand_mat(30, 5, 14);
        let b: Vec<f64> = (0..30).map(|i| (i as f64).cos()).collect();
        let h = Householder::factor(a.clone());
        let x = h.solve_lls(&b);
        // r = b - A x must satisfy A^T r = 0.
        let mut r = b.clone();
        crate::gemm::gemv(-1.0, Op::NoTrans, a.as_ref(), &x, 1.0, &mut r);
        let mut atr = vec![0.0; 5];
        crate::gemm::gemv(1.0, Op::Trans, a.as_ref(), &r, 0.0, &mut atr);
        for v in atr {
            assert!(v.abs() < 1e-11, "normal equations residual {v}");
        }
    }

    #[test]
    fn extract_r_wide_matrix() {
        let a = rand_mat(3, 5, 15);
        let mut f = a.clone();
        let mut tau = vec![0.0; 3];
        geqrf(f.as_mut(), &mut tau);
        let r = extract_r(f.as_ref());
        assert_eq!(r.nrows(), 3);
        assert_eq!(r.ncols(), 5);
        assert_eq!(r[(2, 1)], 0.0);
        assert_eq!(r[(1, 3)], f[(1, 3)]);
    }
}
