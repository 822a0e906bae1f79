//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The QR-SVD low-rank pipeline of the paper (§3.4) only ever needs the SVD
//! of the small square `R` factor, for which one-sided Jacobi is a good fit:
//! simple, independent across the pairs of a rotation round, and accurate to
//! high relative precision even for small singular values — exactly what the
//! condition-number-controlled test matrices need.
//!
//! Sweeps use the classic round-robin tournament ordering: each round
//! pairs every column with a distinct partner, so the rotations of a round
//! touch disjoint column pairs. The schedule is built once per call.
//!
//! The working matrix holds `G` (rows `0..m`) stacked over `V` (rows
//! `m..m + n`), so one rotation is one pass over a column pair. A round runs
//! in three phases: the Gram entries of every pair (one pass over the two
//! `G` columns, each sum in [`dot`](crate::blas1::dot)'s lane order), then
//! every pair's skip test and rotation, then every rotation. The pairs of a
//! round share no column, so this gives exactly the bits of rotating pair
//! by pair. A whole sweep is one kernel, compiled for the host's tier (see
//! `fma.rs`).

use crate::blas1::{nrm2, scal};
use crate::mat::{Mat, MatRef};
use crate::real::Real;

/// Result of [`jacobi_svd`]: `A = U diag(s) V^T` with `s` descending.
pub struct Svd<T> {
    /// Left singular vectors, `m x n` (thin).
    pub u: Mat<T>,
    /// Singular values, descending.
    pub s: Vec<T>,
    /// Right singular vectors, `n x n`.
    pub v: Mat<T>,
    /// Number of sweeps the iteration took.
    pub sweeps: usize,
}

/// Maximum number of cyclic sweeps before giving up (convergence for
/// well-posed inputs is typically < 12).
const MAX_SWEEPS: usize = 40;

/// Columns `p < q` of the column-major `data` (`rows` per column) as two
/// disjoint mutable slices.
fn col_pair<T>(data: &mut [T], rows: usize, p: usize, q: usize) -> (&mut [T], &mut [T]) {
    let (lo, hi) = data.split_at_mut(q * rows);
    (&mut lo[p * rows..(p + 1) * rows], &mut hi[..rows])
}

/// One-sided Jacobi SVD of an `m x n` matrix with `m >= n`.
///
/// Exactly-zero singular values produce zero columns in `U` (the
/// corresponding left vectors are not defined); callers doing orthogonality
/// checks on `U` should restrict to the numerical rank.
pub fn jacobi_svd<T: Real>(a: MatRef<'_, T>) -> Svd<T> {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "jacobi_svd: need m >= n (pass A^T otherwise)");
    // G = A over V = I.
    let rows = m + n;
    let mut gv = Mat::zeros(rows, n);
    for j in 0..n {
        let col = gv.col_mut(j);
        col[..m].copy_from_slice(a.col(j));
        col[m + j] = T::ONE;
    }
    let pairs = tournament(n);
    let mut steps = vec![([T::ZERO; 3], None); n / 2];
    let tol = T::EPSILON;

    let mut sweeps = 0;
    for sweep in 0..MAX_SWEEPS {
        sweeps = sweep + 1;
        if !run_sweep(gv.data_mut(), rows, m, &pairs, tol, &mut steps) {
            break;
        }
    }

    // Extract singular values and normalize the left vectors.
    let mut sv: Vec<(T, usize)> = (0..n).map(|j| (nrm2(&gv.col(j)[..m]), j)).collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(core::cmp::Ordering::Equal));

    let mut u = Mat::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vperm = Mat::zeros(n, n);
    for (dst, &(sigma, src)) in sv.iter().enumerate() {
        s.push(sigma);
        let (gcol, vcol) = gv.col(src).split_at(m);
        vperm.col_mut(dst).copy_from_slice(vcol);
        let ucol = u.col_mut(dst);
        ucol.copy_from_slice(gcol);
        if sigma > T::ZERO {
            scal(sigma.recip(), ucol);
        }
    }
    Svd {
        u,
        s,
        v: vperm,
        sweeps,
    }
}

/// The round-robin schedule over `n` columns, round after round, `n / 2`
/// pairs `(p, q)` with `p < q` per round: `n` rounded up to even players,
/// player `np - 1` fixed and the others rotating (the circle method). For
/// odd `n` the last player is a dummy, and its pair is left out.
fn tournament(n: usize) -> Vec<(usize, usize)> {
    let np = n + (n & 1);
    (0..np.saturating_sub(1))
        .flat_map(|r| {
            (0..np / 2).map(move |i| {
                let p = if i == 0 { np - 1 } else { (r + i) % (np - 1) };
                let q = (r + np - 1 - i) % (np - 1);
                (p.min(q), p.max(q))
            })
        })
        .filter(|&(_, q)| q < n)
        .collect()
}

/// One pair's results within a round: its Gram entries `[α, β, γ]`
/// (phase a), then its rotation `(c, s)` if it rotates (phase b).
type PairStep<T> = ([T; 3], Option<(T, T)>);

/// One full sweep of the stacked `G`-over-`V` matrix `gv` (`rows` per
/// column, the first `m` of them `G`) in `pairs`' order, `steps.len()` pairs
/// per round. Returns whether any rotation was applied (i.e. not yet
/// converged).
fn run_sweep<T: Real>(
    gv: &mut [T],
    rows: usize,
    m: usize,
    pairs: &[(usize, usize)],
    tol: T,
    steps: &mut [PairStep<T>],
) -> bool {
    fma_dispatch!(sweep_body::<T>(
        gv: &mut [T],
        rows: usize,
        m: usize,
        pairs: &[(usize, usize)],
        tol: T,
        steps: &mut [PairStep<T>]
    ) -> bool);
    sweep_body(gv, rows, m, pairs, tol, steps)
}

/// [`run_sweep`] without the dispatch.
#[inline(always)]
fn sweep_body<T: Real>(
    gv: &mut [T],
    rows: usize,
    m: usize,
    pairs: &[(usize, usize)],
    tol: T,
    steps: &mut [PairStep<T>],
) -> bool {
    // Fewer than two columns: no pairs (and `chunks_exact` needs a nonzero
    // round size).
    if steps.is_empty() {
        return false;
    }
    let mut any = false;
    for round in pairs.chunks_exact(steps.len()) {
        let g_col = |j: usize| &gv[j * rows..j * rows + m];
        for (step, &(p, q)) in steps.iter_mut().zip(round) {
            step.0 = gram(g_col(p), g_col(q));
        }
        for step in steps.iter_mut() {
            step.1 = rotation(step.0, tol);
        }
        for (step, &(p, q)) in steps.iter().zip(round) {
            if let Some((c, s)) = step.1 {
                let (x, y) = col_pair(gv, rows, p, q);
                rotate_cols(c, s, x, y);
                any = true;
            }
        }
    }
    any
}

/// `[x·x, y·y, x·y]` in one pass, each sum in `dot`'s order: four lanes
/// over chunks of four, the tail into lane 0, then `(s0 + s1) + (s2 + s3)`.
#[inline(always)]
fn gram<T: Real>(x: &[T], y: &[T]) -> [T; 3] {
    let mut xx = [T::ZERO; 4];
    let mut yy = [T::ZERO; 4];
    let mut xy = [T::ZERO; 4];
    let (xc, yc) = (x.chunks_exact(4), y[..x.len()].chunks_exact(4));
    let tail = xc.remainder().iter().zip(yc.remainder());
    for (xb, yb) in xc.zip(yc) {
        for l in 0..4 {
            xx[l] = xb[l].mul_add(xb[l], xx[l]);
            yy[l] = yb[l].mul_add(yb[l], yy[l]);
            xy[l] = xb[l].mul_add(yb[l], xy[l]);
        }
    }
    for (&xi, &yi) in tail {
        xx[0] = xi.mul_add(xi, xx[0]);
        yy[0] = yi.mul_add(yi, yy[0]);
        xy[0] = xi.mul_add(yi, xy[0]);
    }
    let sum = |s: [T; 4]| (s[0] + s[1]) + (s[2] + s[3]);
    [sum(xx), sum(yy), sum(xy)]
}

/// The Jacobi rotation `(c, s)` of a column pair with Gram entries
/// `[α, β, γ]`, or `None` when a column is zero or the pair is already
/// orthogonal to `tol`.
#[inline(always)]
fn rotation<T: Real>([alpha, beta, gamma]: [T; 3], tol: T) -> Option<(T, T)> {
    if alpha == T::ZERO || beta == T::ZERO {
        return None;
    }
    if gamma.abs() <= tol * (alpha * beta).sqrt() {
        return None;
    }
    // Rutishauser's stable rotation computation.
    let two = T::from_f64(2.0);
    let zeta = (beta - alpha) / (two * gamma);
    let t = {
        let sign = if zeta >= T::ZERO { T::ONE } else { -T::ONE };
        sign / (zeta.abs() + (T::ONE + zeta * zeta).sqrt())
    };
    let c = (T::ONE + t * t).sqrt().recip();
    Some((c, c * t))
}

#[inline(always)]
fn rotate_cols<T: Real>(c: T, s: T, x: &mut [T], y: &mut [T]) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let xv = *xi;
        let yv = *yi;
        *xi = c * xv - s * yv;
        *yi = s * xv + c * yv;
    }
}

/// Singular values only (descending).
pub fn singular_values<T: Real>(a: MatRef<'_, T>) -> Vec<T> {
    if a.nrows() >= a.ncols() {
        jacobi_svd(a).s
    } else {
        let at = a.to_owned().transpose();
        jacobi_svd(at.as_ref()).s
    }
}

/// 2-norm condition number estimate from the full SVD.
pub fn cond2<T: Real>(a: MatRef<'_, T>) -> f64 {
    let s = singular_values(a);
    match (s.first(), s.last()) {
        (Some(&smax), Some(&smin)) if smin > T::ZERO => smax.to_f64() / smin.to_f64(),
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::blas1::dot_body;
    use crate::gemm::{gemm_naive, Op};
    use crate::lapack::Householder;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn check_svd(a: &Mat<f64>, tol: f64) {
        let m = a.nrows();
        let n = a.ncols();
        let svd = jacobi_svd(a.as_ref());
        // Descending.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1], "singular values not sorted");
        }
        // Reconstruction A = U S V^T.
        let mut us = svd.u.clone();
        for j in 0..n {
            scal(svd.s[j], us.col_mut(j));
        }
        let mut rec = Mat::zeros(m, n);
        gemm_naive(1.0, Op::NoTrans, us.as_ref(), Op::Trans, svd.v.as_ref(), 0.0, rec.as_mut());
        let scale = svd.s.first().copied().unwrap_or(1.0).max(1.0);
        for j in 0..n {
            for i in 0..m {
                assert!(
                    (rec[(i, j)] - a[(i, j)]).abs() < tol * scale,
                    "reconstruction off at ({i},{j}): {} vs {}",
                    rec[(i, j)],
                    a[(i, j)]
                );
            }
        }
        // V orthogonal.
        let mut vtv = Mat::zeros(n, n);
        gemm_naive(1.0, Op::Trans, svd.v.as_ref(), Op::NoTrans, svd.v.as_ref(), 0.0, vtv.as_mut());
        for j in 0..n {
            for i in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < tol);
            }
        }
    }

    #[test]
    fn svd_random_square_and_tall() {
        check_svd(&rand_mat(12, 12, 1), 1e-10);
        check_svd(&rand_mat(30, 9, 2), 1e-10);
        check_svd(&rand_mat(64, 32, 3), 1e-9);
    }

    #[test]
    fn svd_known_diagonal() {
        let mut a: Mat<f64> = Mat::zeros(5, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = -5.0; // sign absorbed into vectors
        a[(2, 2)] = 1.0;
        let svd = jacobi_svd(a.as_ref());
        assert!((svd.s[0] - 5.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        assert!((svd.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_rank_deficient() {
        // Two identical columns: one zero singular value.
        let mut a = rand_mat(10, 3, 4);
        for i in 0..10 {
            let v = a[(i, 0)];
            a[(i, 2)] = v;
        }
        let svd = jacobi_svd(a.as_ref());
        assert!(svd.s[2] < 1e-12 * svd.s[0], "expected a ~zero sigma");
        check_svd(&a, 1e-9);
    }

    #[test]
    fn svd_orthogonal_input_gives_unit_sigmas() {
        // Q from Householder QR of a random matrix.
        let a = rand_mat(20, 6, 5);
        let h = crate::lapack::Householder::factor(a);
        let q = h.q();
        let svd = jacobi_svd(q.as_ref());
        for &s in &svd.s {
            assert!((s - 1.0).abs() < 1e-12, "sigma {s}");
        }
    }

    #[test]
    fn singular_values_transpose_invariant() {
        let a = rand_mat(14, 6, 6);
        let at = a.transpose();
        let s1 = singular_values(a.as_ref());
        let s2 = singular_values(at.as_ref());
        for (x, y) in s1.iter().zip(&s2) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn cond2_of_identity_is_one() {
        let a: Mat<f64> = Mat::identity(8, 8);
        assert!((cond2(a.as_ref()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cond2_scales_with_diagonal() {
        let mut a: Mat<f64> = Mat::identity(4, 4);
        a[(3, 3)] = 1e-6;
        let c = cond2(a.as_ref());
        assert!((c - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    fn svd_converges_in_few_sweeps() {
        let a = rand_mat(40, 20, 7);
        let svd = jacobi_svd(a.as_ref());
        assert!(svd.sweeps < 20, "took {} sweeps", svd.sweeps);
    }

    #[test]
    fn svd_single_column() {
        let a = rand_mat(9, 1, 8);
        let svd = jacobi_svd(a.as_ref());
        assert!((svd.s[0] - nrm2(a.col(0))).abs() < 1e-12);
    }

    /// The per-pair sweep [`jacobi_svd`] replaced, kept as its bit oracle:
    /// `G` and `V` apart, the tournament recomputed per pair, and three
    /// portable `dot`s, the skip test and both rotations pair by pair.
    fn jacobi_svd_per_pair<T: Real>(a: MatRef<'_, T>) -> Svd<T> {
        fn run_sweep<T: Real>(g: &mut Mat<T>, v: &mut Mat<T>, tol: T) -> bool {
            let n = g.ncols();
            if n < 2 {
                return false;
            }
            let np = n + (n & 1);
            let rounds = np - 1;
            let gm = g.nrows();
            let mut any = false;
            for r in 0..rounds {
                let pairs = (0..np / 2)
                    .map(|i| {
                        let p = if i == 0 { np - 1 } else { (r + i) % (np - 1) };
                        let q = (r + np - 1 - i) % (np - 1);
                        (p.min(q), p.max(q))
                    })
                    .filter(|&(p, q)| p != q && q < n);
                for (p, q) in pairs {
                    let (gpcol, gqcol) = col_pair(g.data_mut(), gm, p, q);
                    let (vpcol, vqcol) = col_pair(v.data_mut(), n, p, q);
                    any |= rotate_pair(gpcol, gqcol, vpcol, vqcol, tol);
                }
            }
            any
        }

        fn rotate_pair<T: Real>(
            gpcol: &mut [T],
            gqcol: &mut [T],
            vpcol: &mut [T],
            vqcol: &mut [T],
            tol: T,
        ) -> bool {
            let alpha = dot_body(gpcol, gpcol);
            let beta = dot_body(gqcol, gqcol);
            let gamma = dot_body(gpcol, gqcol);
            if alpha == T::ZERO || beta == T::ZERO {
                return false;
            }
            if gamma.abs() <= tol * (alpha * beta).sqrt() {
                return false;
            }
            let two = T::from_f64(2.0);
            let zeta = (beta - alpha) / (two * gamma);
            let t = {
                let sign = if zeta >= T::ZERO { T::ONE } else { -T::ONE };
                sign / (zeta.abs() + (T::ONE + zeta * zeta).sqrt())
            };
            let c = (T::ONE + t * t).sqrt().recip();
            let s = c * t;
            rotate_cols(c, s, gpcol, gqcol);
            rotate_cols(c, s, vpcol, vqcol);
            true
        }

        fn rotate_cols<T: Real>(c: T, s: T, x: &mut [T], y: &mut [T]) {
            for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
                let xv = *xi;
                let yv = *yi;
                *xi = c * xv - s * yv;
                *yi = s * xv + c * yv;
            }
        }

        fn col_pair<T>(data: &mut [T], rows: usize, p: usize, q: usize) -> (&mut [T], &mut [T]) {
            let (lo, hi) = data.split_at_mut(q * rows);
            (&mut lo[p * rows..(p + 1) * rows], &mut hi[..rows])
        }

        let (m, n) = (a.nrows(), a.ncols());
        let mut g = a.to_owned();
        let mut v: Mat<T> = Mat::identity(n, n);
        let mut sweeps = 0;
        for sweep in 0..MAX_SWEEPS {
            sweeps = sweep + 1;
            if !run_sweep(&mut g, &mut v, T::EPSILON) {
                break;
            }
        }
        let mut sv: Vec<(T, usize)> = (0..n).map(|j| (nrm2(g.col(j)), j)).collect();
        sv.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(core::cmp::Ordering::Equal));
        let mut u = Mat::zeros(m, n);
        let mut s = Vec::with_capacity(n);
        let mut vperm = Mat::zeros(n, n);
        for (dst, &(sigma, src)) in sv.iter().enumerate() {
            s.push(sigma);
            vperm.col_mut(dst).copy_from_slice(v.col(src));
            let ucol = u.col_mut(dst);
            ucol.copy_from_slice(g.col(src));
            if sigma > T::ZERO {
                scal(sigma.recip(), ucol);
            }
        }
        Svd {
            u,
            s,
            v: vperm,
            sweeps,
        }
    }

    /// Bits of `x` with every NaN folded to one pattern.
    fn bits<T: Real>(x: T) -> u64 {
        let x = x.to_f64();
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn assert_same_bits<T: Real>(what: &str, got: &[T], want: &[T]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// The R factor of a Householder QR of a seeded `m x n` matrix.
    fn householder_r(m: usize, n: usize, seed: u64) -> Mat<f64> {
        Householder::factor(rand_mat(m, n, seed)).r()
    }

    /// [`jacobi_svd`] (on the calling thread's tier, see `fma.rs`) against
    /// the portable per-pair loop, bit for bit on `U`, `s`, `V` and the
    /// sweep count: R factors (`qr_svd`'s input) at the serve-mix widths
    /// and at odd widths, tall inputs, one and two columns, a zero and a
    /// duplicated column, and a NaN or +-inf entry. A NaN entry runs every
    /// one of the `MAX_SWEEPS` sweeps.
    pub(crate) fn jacobi_oracle_for<T: Real>() {
        let mut cases: Vec<(String, Mat<f64>)> = Vec::new();
        for n in [0, 1, 2, 3, 5, 7, 8, 9, 16, 32, 48, 64] {
            cases.push((format!("R {n}x{n}"), householder_r(2 * n + 3, n, 100 + n as u64)));
        }
        for (m, n) in [(1, 1), (2, 1), (5, 2), (9, 4), (30, 9), (61, 13), (130, 32)] {
            cases.push((format!("tall {m}x{n}"), rand_mat(m, n, 200 + (m * n) as u64)));
        }
        let mut zero = rand_mat(21, 7, 301);
        zero.col_mut(3).fill(0.0);
        cases.push(("zero column".into(), zero));
        let mut dup = rand_mat(19, 6, 302);
        let c1 = dup.col(1).to_vec();
        dup.col_mut(4).copy_from_slice(&c1);
        cases.push(("duplicated column".into(), dup));
        for (name, (i, j), x) in [
            ("NaN", (2, 3), f64::NAN),
            ("+inf", (0, 1), f64::INFINITY),
            ("-inf", (4, 5), f64::NEG_INFINITY),
        ] {
            let mut a = householder_r(11, 6, 303);
            a[(i, j)] = x;
            cases.push((format!("R 6x6 with {name}"), a));
        }
        for (what, a) in cases {
            let what = format!("{} {what}", T::NAME);
            let a: Mat<T> = a.convert();
            let got = jacobi_svd(a.as_ref());
            let want = jacobi_svd_per_pair(a.as_ref());
            assert_eq!(got.sweeps, want.sweeps, "{what}: sweeps");
            assert_same_bits(&format!("{what}: s"), &got.s, &want.s);
            assert_same_bits(&format!("{what}: U"), got.u.data(), want.u.data());
            assert_same_bits(&format!("{what}: V"), got.v.data(), want.v.data());
            if what.ends_with("NaN") {
                assert_eq!(got.sweeps, MAX_SWEEPS, "{what}: a NaN never converges");
            }
        }
    }

    #[test]
    fn jacobi_sweep_is_bit_identical_to_the_per_pair_loop() {
        jacobi_oracle_for::<f32>();
        jacobi_oracle_for::<f64>();
    }

    #[test]
    fn tournament_meets_every_pair_once_in_disjoint_rounds() {
        for n in 0..=12 {
            let pairs = tournament(n);
            let per_round = n / 2;
            assert_eq!(pairs.len(), n * n.saturating_sub(1) / 2, "n={n}");
            let mut seen = std::collections::BTreeSet::new();
            for round in pairs.chunks(per_round.max(1)) {
                assert_eq!(round.len(), per_round, "n={n}");
                let mut cols: Vec<usize> = round.iter().flat_map(|&(p, q)| [p, q]).collect();
                cols.sort_unstable();
                cols.dedup();
                assert_eq!(cols.len(), 2 * per_round, "n={n}: a column twice in a round");
                for &(p, q) in round {
                    assert!(p < q && q < n && seen.insert((p, q)), "n={n}: ({p},{q})");
                }
            }
        }
    }

    /// Wall time of `jacobi_svd` on the f64 R factors `qr_svd` jobs pass
    /// it, at the serve-mix widths. Prints best-of-run ms per call and the
    /// sweep count; run with `cargo test -p densemat --release
    /// jacobi_shape -- --nocapture`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing: run with --release")]
    fn jacobi_shape_timing() {
        use std::time::{Duration, Instant};
        println!("{:>4} {:>4} {:>7} {:>8}", "m", "n", "sweeps", "ms");
        for (m, n) in [(192, 32), (192, 48), (192, 64)] {
            let r = householder_r(m, n, 400 + n as u64);
            let sweeps = jacobi_svd(r.as_ref()).sweeps;
            let start = Instant::now();
            let mut best = f64::INFINITY;
            while start.elapsed() < Duration::from_millis(300) {
                let t = Instant::now();
                std::hint::black_box(jacobi_svd(std::hint::black_box(r.as_ref())));
                best = best.min(t.elapsed().as_secs_f64());
            }
            println!("{m:>4} {n:>4} {sweeps:>7} {:>8.4}", best * 1e3);
        }
    }
}
