//! Property tests for the BLAS-level kernels: the fast implementations must
//! agree with naive reference evaluations on arbitrary shapes, strides, and
//! scalars, and the triangular solves must invert the triangular multiplies.

use densemat::gen::{for_each_seed, Rng};
use densemat::tri::{potrf_upper, trmm_left_upper, trsm_right_upper, trsv_upper};
use densemat::{gemm, gemm_naive, gemv, ger, Mat, Op};

/// Cases per property.
const CASES: u64 = 64;

fn dim(r: &mut Rng) -> usize {
    r.usize_in(1..24)
}

fn matrix(r: &mut Rng, m: usize, n: usize) -> Mat<f64> {
    Mat::from_fn(m, n, |_, _| r.f64_in(-10.0..10.0))
}

fn op(r: &mut Rng) -> Op {
    if r.below(2) == 0 {
        Op::NoTrans
    } else {
        Op::Trans
    }
}

/// Upper-triangular matrix with a dominant diagonal (safely invertible).
fn upper_wellcond(r: &mut Rng, n: usize) -> Mat<f64> {
    Mat::from_fn(n, n, |i, j| {
        let x = r.f64_in(-1.0..1.0);
        if i > j {
            0.0
        } else if i == j {
            3.0 + x.abs()
        } else {
            x
        }
    })
}

fn assert_close(a: &Mat<f64>, b: &Mat<f64>, tol: f64) {
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            let d = (a[(i, j)] - b[(i, j)]).abs();
            let scale = a[(i, j)].abs().max(b[(i, j)].abs()).max(1.0);
            assert!(
                d <= tol * scale,
                "({i},{j}): {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

#[test]
fn gemm_agrees_with_naive() {
    for_each_seed(CASES, |r| {
        let (m, n, k) = (dim(r), dim(r), dim(r));
        let (op_a, op_b) = (op(r), op(r));
        let alpha = r.f64_in(-3.0..3.0);
        let beta = r.f64_in(-2.0..2.0);
        let shape_a = match op_a {
            Op::NoTrans => (m, k),
            Op::Trans => (k, m),
        };
        let shape_b = match op_b {
            Op::NoTrans => (k, n),
            Op::Trans => (n, k),
        };
        let a = matrix(r, shape_a.0, shape_a.1);
        let b = matrix(r, shape_b.0, shape_b.1);
        let c0 = matrix(r, m, n);

        let mut fast = c0.clone();
        gemm(
            alpha,
            op_a,
            a.as_ref(),
            op_b,
            b.as_ref(),
            beta,
            fast.as_mut(),
        );
        let mut slow = c0;
        gemm_naive(
            alpha,
            op_a,
            a.as_ref(),
            op_b,
            b.as_ref(),
            beta,
            slow.as_mut(),
        );
        assert_close(&fast, &slow, 1e-11 * (k as f64 + 1.0));
    });
}

#[test]
fn gemm_on_offset_views_agrees_with_naive() {
    for_each_seed(CASES, |r| {
        let pad = r.usize_in(1..5);
        let (m, n, k) = (dim(r), dim(r), dim(r));
        // Exercise ld > nrows through interior views.
        let abig = Mat::from_fn(m + 2 * pad, k + 2 * pad, |i, j| {
            ((i * 7 + j * 3) % 11) as f64 - 5.0
        });
        let bbig = Mat::from_fn(k + 2 * pad, n + 2 * pad, |i, j| {
            ((i * 5 + j) % 13) as f64 - 6.0
        });
        let a = abig.as_ref().submatrix(pad, pad, m, k);
        let b = bbig.as_ref().submatrix(pad, pad, k, n);
        let mut fast = Mat::zeros(m, n);
        gemm(1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, fast.as_mut());
        let mut slow = Mat::zeros(m, n);
        gemm_naive(1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, slow.as_mut());
        assert_close(&fast, &slow, 1e-12 * (k as f64 + 1.0));
    });
}

#[test]
fn gemm_is_linear_in_alpha() {
    for_each_seed(CASES, |r| {
        let (m, n, k) = (dim(r), dim(r), dim(r));
        let alpha = r.f64_in(-3.0..3.0);
        let a = Mat::from_fn(m, k, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let b = Mat::from_fn(k, n, |i, j| ((3 * i + j) % 5) as f64 - 2.0);
        let mut c1 = Mat::zeros(m, n);
        gemm(
            alpha,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c1.as_mut(),
        );
        let mut c2 = Mat::zeros(m, n);
        gemm(
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c2.as_mut(),
        );
        for j in 0..n {
            for i in 0..m {
                assert!((c1[(i, j)] - alpha * c2[(i, j)]).abs() < 1e-10);
            }
        }
    });
}

#[test]
fn gemv_matches_gemm_column() {
    for_each_seed(CASES, |r| {
        let (m, n) = (dim(r), dim(r));
        let o = op(r);
        let alpha = r.f64_in(-2.0..2.0);
        let beta = r.f64_in(-2.0..2.0);
        let a = Mat::from_fn(m, n, |i, j| ((i * 3 + j * 5) % 9) as f64 - 4.0);
        let (rows, cols) = match o {
            Op::NoTrans => (m, n),
            Op::Trans => (n, m),
        };
        let x: Vec<f64> = (0..cols).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let y0: Vec<f64> = (0..rows).map(|i| (i as f64) * 0.1 - 0.4).collect();

        let mut y = y0.clone();
        gemv(alpha, o, a.as_ref(), &x, beta, &mut y);

        let xm = Mat::from_col_major(cols, 1, x);
        let mut ym = Mat::from_col_major(rows, 1, y0);
        gemm_naive(
            alpha,
            o,
            a.as_ref(),
            Op::NoTrans,
            xm.as_ref(),
            beta,
            ym.as_mut(),
        );
        for i in 0..rows {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-11, "row {i}");
        }
    });
}

#[test]
fn ger_is_rank_one_gemm() {
    for_each_seed(CASES, |r| {
        let (m, n) = (dim(r), dim(r));
        let alpha = r.f64_in(-2.0..2.0);
        let x: Vec<f64> = (0..m).map(|i| (i as f64) * 0.2 - 1.0).collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let a0 = Mat::from_fn(m, n, |i, j| (i + j) as f64 * 0.01);
        let mut fast = a0.clone();
        ger(alpha, &x, &y, fast.as_mut());
        let xm = Mat::from_col_major(m, 1, x);
        let ym = Mat::from_col_major(n, 1, y);
        let mut slow = a0;
        gemm_naive(
            alpha,
            Op::NoTrans,
            xm.as_ref(),
            Op::Trans,
            ym.as_ref(),
            1.0,
            slow.as_mut(),
        );
        assert_close(&fast, &slow, 1e-12);
    });
}

#[test]
fn trsv_inverts_trmm() {
    for_each_seed(CASES, |r| {
        let n = r.usize_in(1..20);
        let o = op(r);
        let u = upper_wellcond(r, n);
        let x0: Vec<f64> = (0..n).map(|_| r.f64_in(-6.0..6.0)).collect();
        let mut x = x0.clone();
        let xm = densemat::MatMut::from_col_major_slice_mut(&mut x, n, 1);
        trmm_left_upper(1.0, o, u.as_ref(), xm);
        trsv_upper(o, u.as_ref(), &mut x);
        for i in 0..n {
            assert!((x[i] - x0[i]).abs() < 1e-8, "i={i}: {} vs {}", x[i], x0[i]);
        }
    });
}

#[test]
fn trsm_left_right_roundtrips() {
    for_each_seed(CASES, |r| {
        let n = r.usize_in(1..16);
        let nrhs = r.usize_in(1..12);
        let u = upper_wellcond(r, n);

        // Left: U X = B with known X.
        let x0 = Mat::from_fn(n, nrhs, |i, j| ((i * 3 + j * 7) % 9) as f64 - 4.0);
        let mut b = x0.clone();
        trmm_left_upper(1.0, Op::NoTrans, u.as_ref(), b.as_mut());
        for j in 0..nrhs {
            trsv_upper(Op::NoTrans, u.as_ref(), b.col_mut(j));
        }
        assert_close(&b, &x0, 1e-8);

        // Right: X U = B with known X.
        let y0 = Mat::from_fn(nrhs, n, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let mut b2 = Mat::zeros(nrhs, n);
        gemm_naive(
            1.0,
            Op::NoTrans,
            y0.as_ref(),
            Op::NoTrans,
            u.as_ref(),
            0.0,
            b2.as_mut(),
        );
        trsm_right_upper(1.0, Op::NoTrans, u.as_ref(), b2.as_mut());
        assert_close(&b2, &y0, 1e-8);
    });
}

#[test]
fn potrf_factor_squares_back() {
    for_each_seed(CASES, |r| {
        let n = r.usize_in(1..16);
        let r0 = upper_wellcond(r, n);
        let mut g = Mat::zeros(n, n);
        gemm_naive(
            1.0,
            Op::Trans,
            r0.as_ref(),
            Op::NoTrans,
            r0.as_ref(),
            0.0,
            g.as_mut(),
        );
        potrf_upper(g.as_mut()).expect("SPD by construction");
        for j in 0..n {
            for i in 0..=j {
                assert!(
                    (g[(i, j)] - r0[(i, j)]).abs() < 1e-8 * r0[(j, j)].abs().max(1.0),
                    "({i},{j})"
                );
            }
        }
    });
}

#[test]
fn nrm2_is_scale_homogeneous() {
    for_each_seed(CASES, |r| {
        let v: Vec<f64> = (0..r.usize_in(1..50))
            .map(|_| r.f64_in(-100.0..100.0))
            .collect();
        let k = r.usize_in(0..80) as i32 - 40;
        let s = 2.0f64.powi(k);
        let scaled: Vec<f64> = v.iter().map(|x| x * s).collect();
        let n1 = densemat::blas1::nrm2(&v) * s;
        let n2 = densemat::blas1::nrm2(&scaled);
        assert!(
            (n1 - n2).abs() <= 1e-12 * n1.abs().max(1e-300),
            "{n1} vs {n2}"
        );
    });
}

#[test]
fn dot_is_symmetric_and_cauchy_schwarz() {
    for_each_seed(CASES, |r| {
        let v: Vec<f64> = (0..r.usize_in(1..60))
            .map(|_| r.f64_in(-10.0..10.0))
            .collect();
        let w_seed = r.next_u64();
        let w: Vec<f64> = v
            .iter()
            .enumerate()
            .map(|(i, x)| x * 0.5 + ((i as u64 ^ w_seed) % 7) as f64 - 3.0)
            .collect();
        let d1 = densemat::blas1::dot(&v, &w);
        let d2 = densemat::blas1::dot(&w, &v);
        assert!((d1 - d2).abs() < 1e-9);
        let bound = densemat::blas1::nrm2(&v) * densemat::blas1::nrm2(&w);
        assert!(d1.abs() <= bound * (1.0 + 1e-12) + 1e-12);
    });
}
