//! Modified Gram-Schmidt QR — Algorithm 2 of the paper.
//!
//! This is the kernel the paper runs inside one GPU threadblock on a 256x32
//! tile held in shared memory. Here it is the sequential building block of
//! the CAQR panel (`caqr` module), run once per row block.
//!
//! MGS is used instead of classical Gram-Schmidt because its loss of
//! orthogonality grows only linearly with the condition number (Björck 1994,
//! the paper's §3.6), and instead of Householder because every operation is
//! a vector update that stays in the tile.
//!
//! Step `k` runs three densemat kernels, each with run-time vector copies:
//! `nrm2` for `R[k,k]`, `dots` for the row `R[k, k+1..]` (eight columns per
//! pass over `q_k`) and `ger` for the rank-1 update of the trailing columns.
//! `cgs_qr` runs `dots` and `gemv` NoTrans. Both return the bits of the
//! per-column `dot`/`axpy` loops they replace.

use densemat::blas1::{dots, nrm2, scal};
use densemat::{gemv, ger, MatMut, Op, Real};

/// In-place modified Gram-Schmidt QR of a tall tile.
///
/// On exit `q` (shape `m x n`, `m >= n`) holds the orthonormal factor and
/// `r` (at least `n x n`) holds R in its upper triangle with an explicitly
/// zeroed strict lower triangle.
///
/// An exactly zero (or fully annihilated) column produces a zero column in
/// `q` and a zero row in `r` — the rank-deficient convention shared with the
/// SVD module.
pub fn mgs_qr<T: Real>(mut q: MatMut<'_, T>, mut r: MatMut<'_, T>) {
    let m = q.nrows();
    let n = q.ncols();
    assert!(m >= n, "mgs_qr: need m >= n (got {m} x {n})");
    assert!(r.nrows() >= n && r.ncols() >= n, "mgs_qr: R too small");
    for j in 0..n {
        r.col_mut(j)[..n].fill(T::ZERO);
    }
    let mut row = vec![T::ZERO; n];
    for k in 0..n {
        // R[k,k] = ||q_k||; q_k /= R[k,k]
        let rkk = nrm2(q.col(k));
        r.set(k, k, rkk);
        if rkk == T::ZERO {
            continue; // rank deficient: leave the zero column in place
        }
        scal(rkk.recip(), q.col_mut(k));
        // R[k, k+1..] = q_k^T Q[:, k+1..];  Q[:, k+1..] -= q_k R[k, k+1..]
        let (head, tail) = q.rb().split_at_col_mut(k + 1);
        let qk = head.col(k);
        let row = &mut row[k + 1..];
        dots(qk, tail.as_ref(), row);
        for (jj, v) in (k + 1..n).zip(row.iter_mut()) {
            r.set(k, jj, *v);
            // Negated here rather than through `alpha = -1`, which would
            // leave a NaN's sign unflipped.
            *v = -*v;
        }
        ger(T::ONE, qk, row, tail);
    }
}

/// Classical Gram-Schmidt QR of a tall tile (projections against the
/// *original* columns, all computed before subtraction).
///
/// Only used by the ablation benchmarks: its loss of orthogonality grows
/// with the *square* of the condition number (Giraud et al. 2005), which is
/// exactly the contrast §3.6 of the paper draws against MGS.
pub fn cgs_qr<T: Real>(mut q: MatMut<'_, T>, mut r: MatMut<'_, T>) {
    let m = q.nrows();
    let n = q.ncols();
    assert!(m >= n, "cgs_qr: need m >= n (got {m} x {n})");
    assert!(r.nrows() >= n && r.ncols() >= n, "cgs_qr: R too small");
    for j in 0..n {
        r.col_mut(j)[..n].fill(T::ZERO);
    }
    let mut neg = vec![T::ZERO; n];
    for k in 0..n {
        // Project the ORIGINAL column k against all previous q's at once.
        let (head, mut tail) = q.rb().split_at_col_mut(k);
        let col = tail.col_mut(0);
        let rcol = &mut r.col_mut(k)[..k];
        dots(col, head.as_ref(), rcol);
        // -R[..k, k], negated as in `mgs_qr`.
        let neg = &mut neg[..k];
        for (v, &rik) in neg.iter_mut().zip(rcol.iter()) {
            *v = -rik;
        }
        gemv(T::ONE, Op::NoTrans, head.as_ref(), neg, T::ONE, col);
        let rkk = nrm2(col);
        r.set(k, k, rkk);
        if rkk != T::ZERO {
            scal(rkk.recip(), col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::blas1::{axpy, dot};
    use densemat::gen::{self, rng};
    use densemat::metrics::{orthogonality_error, qr_backward_error};
    use densemat::Mat;

    fn run_mgs(a: &Mat<f64>) -> (Mat<f64>, Mat<f64>) {
        let mut q = a.clone();
        let n = a.ncols();
        let mut r = Mat::zeros(n, n);
        mgs_qr(q.as_mut(), r.as_mut());
        (q, r)
    }

    #[test]
    fn mgs_factorizes_random_tile() {
        let a = gen::gaussian(256, 32, &mut rng(1));
        let (q, r) = run_mgs(&a);
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-14);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
        for j in 0..32 {
            assert!(r[(j, j)] > 0.0, "R diagonal positive for full rank");
            for i in j + 1..32 {
                assert_eq!(r[(i, j)], 0.0, "strict lower triangle zeroed");
            }
        }
    }

    #[test]
    fn mgs_square_matrix() {
        let a = gen::gaussian(16, 16, &mut rng(2));
        let (q, r) = run_mgs(&a);
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-14);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
    }

    #[test]
    fn mgs_zero_column_is_rank_deficient_safe() {
        let mut a = gen::gaussian(20, 4, &mut rng(3));
        a.col_mut(2).fill(0.0);
        let (q, r) = run_mgs(&a);
        assert_eq!(r[(2, 2)], 0.0);
        assert!(q.col(2).iter().all(|&x| x == 0.0));
        // Other columns still orthonormal.
        for j in [0usize, 1, 3] {
            let nq = densemat::blas1::nrm2(q.col(j));
            assert!((nq - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mgs_duplicate_column_annihilates() {
        let mut a = gen::gaussian(20, 3, &mut rng(4));
        for i in 0..20 {
            let v = a[(i, 0)];
            a[(i, 2)] = v;
        }
        let (q, r) = run_mgs(&a);
        assert!(r[(2, 2)].abs() < 1e-12, "duplicate column has zero diagonal");
        let _ = q;
    }

    #[test]
    fn mgs_orthogonality_degrades_linearly_cgs_quadratically() {
        // The §3.6 contrast, at f32 so the effect is visible at small sizes.
        let cond = 1e4;
        let a64 = gen::rand_svd(128, 16, gen::Spectrum::Geometric { cond }, &mut rng(5));
        let a: Mat<f32> = a64.convert();
        let n = 16;

        let mut qm = a.clone();
        let mut rm: Mat<f32> = Mat::zeros(n, n);
        mgs_qr(qm.as_mut(), rm.as_mut());
        let mgs_err = orthogonality_error(qm.convert::<f64>().as_ref());

        let mut qc = a.clone();
        let mut rc: Mat<f32> = Mat::zeros(n, n);
        cgs_qr(qc.as_mut(), rc.as_mut());
        let cgs_err = orthogonality_error(qc.convert::<f64>().as_ref());

        let u = f32::EPSILON as f64;
        assert!(
            mgs_err < 50.0 * cond * u,
            "MGS orthogonality {mgs_err} not O(kappa u)"
        );
        assert!(
            cgs_err > 5.0 * mgs_err,
            "CGS ({cgs_err}) should lose much more orthogonality than MGS ({mgs_err})"
        );
    }

    #[test]
    fn cgs_factorizes_well_conditioned() {
        let a = gen::gaussian(64, 8, &mut rng(6));
        let mut q = a.clone();
        let mut r = Mat::zeros(8, 8);
        cgs_qr(q.as_mut(), r.as_mut());
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
    }

    #[test]
    fn r_factor_reproduces_column_norms() {
        // ||a_j||^2 == ||R[..,j]||^2 since Q has orthonormal columns.
        let a = gen::gaussian(100, 10, &mut rng(7));
        let (_, r) = run_mgs(&a);
        for j in 0..10 {
            let na = densemat::blas1::nrm2(a.col(j));
            let nr = densemat::blas1::nrm2(&r.col(j)[..10]);
            assert!((na - nr).abs() < 1e-12 * na);
        }
    }

    /// `mgs_qr` as a per-column `dot`/`axpy` loop: the spec `dots` + `ger`
    /// must match bit for bit.
    fn mgs_reference<T: Real>(q: &mut Mat<T>, r: &mut Mat<T>) {
        let n = q.ncols();
        r.data_mut().fill(T::ZERO);
        for k in 0..n {
            let rkk = nrm2(q.col(k));
            r[(k, k)] = rkk;
            if rkk == T::ZERO {
                continue;
            }
            scal(rkk.recip(), q.col_mut(k));
            let qk = q.col(k).to_vec();
            for j in k + 1..n {
                let rkj = dot(&qk, q.col(j));
                r[(k, j)] = rkj;
                if rkj != T::ZERO {
                    axpy(-rkj, &qk, q.col_mut(j));
                }
            }
        }
    }

    /// `cgs_qr` as a per-column `dot`/`axpy` loop.
    fn cgs_reference<T: Real>(q: &mut Mat<T>, r: &mut Mat<T>) {
        let n = q.ncols();
        r.data_mut().fill(T::ZERO);
        for k in 0..n {
            for i in 0..k {
                r[(i, k)] = dot(q.col(i), q.col(k));
            }
            for i in 0..k {
                let rik = r[(i, k)];
                if rik != T::ZERO {
                    let qi = q.col(i).to_vec();
                    axpy(-rik, &qi, q.col_mut(k));
                }
            }
            let rkk = nrm2(q.col(k));
            r[(k, k)] = rkk;
            if rkk != T::ZERO {
                scal(rkk.recip(), q.col_mut(k));
            }
        }
    }

    /// A seeded tile with a zero column, a duplicate column and one scaled
    /// into the subnormal range, whose products underflow (to -0.0 among
    /// others).
    fn hard_tile<T: Real>(m: usize, n: usize, seed: u64) -> Mat<T> {
        let mut a: Mat<T> = gen::gaussian(m, n, &mut rng(seed)).convert();
        let tiny = T::from_f64(if T::NAME == "f32" { 1e-41 } else { 1e-315 });
        for (j, dup, zero, small) in [(n / 2, 0, 1, 2), (n - 1, 1, 3, 5)] {
            if n > small {
                for v in a.col_mut(small) {
                    *v *= tiny;
                }
            }
            if n > zero {
                a.col_mut(zero).fill(T::ZERO);
            }
            if j > dup {
                let c = a.col(dup).to_vec();
                a.col_mut(j).copy_from_slice(&c);
            }
        }
        a
    }

    fn same_bits<T: Real>(what: &str, got: &Mat<T>, want: &Mat<T>) {
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{what}: entry {i}: {g} vs {w}"
            );
        }
    }

    fn pin_to_reference<T: Real>() {
        gen::for_each_seed(24, |rng| {
            let seed = rng.next_u64();
            let (m, n) = [(256, 32), (64, 8), (37, 9), (33, 17), (6, 6), (1, 1)][seed as usize % 6];
            let a: Mat<T> = hard_tile(m, n, seed);
            let what = format!("{} {m}x{n} seed {seed}", T::NAME);
            for (name, fast, slow) in [
                (
                    "mgs",
                    mgs_qr::<T> as fn(MatMut<'_, T>, MatMut<'_, T>),
                    mgs_reference::<T> as fn(&mut Mat<T>, &mut Mat<T>),
                ),
                ("cgs", cgs_qr::<T>, cgs_reference::<T>),
            ] {
                let (mut q, mut r) = (a.clone(), Mat::zeros(n, n));
                fast(q.as_mut(), r.as_mut());
                let (mut q_ref, mut r_ref) = (a.clone(), Mat::zeros(n, n));
                slow(&mut q_ref, &mut r_ref);
                same_bits(&format!("{name} Q {what}"), &q, &q_ref);
                same_bits(&format!("{name} R {what}"), &r, &r_ref);
            }
        });
    }

    #[test]
    fn mgs_and_cgs_match_the_per_column_loops_bit_for_bit() {
        pin_to_reference::<f32>();
        pin_to_reference::<f64>();
    }

    #[test]
    fn mgs_reconstruction_column_by_column() {
        let a = gen::gaussian(40, 6, &mut rng(8));
        let (q, r) = run_mgs(&a);
        // a_j must equal Q * R[:, j].
        let mut out = Mat::zeros(40, 6);
        for j in 0..6 {
            densemat::gemv(1.0, Op::NoTrans, q.as_ref(), r.col(j), 0.0, out.col_mut(j));
        }
        for j in 0..6 {
            for i in 0..40 {
                assert!((out[(i, j)] - a[(i, j)]).abs() < 1e-13);
            }
        }
    }
}
