//! Communication-avoiding QR panel (§3.1.3, equation (8)).
//!
//! A tall panel is split into row blocks (256 rows in the paper — one GPU
//! threadblock's shared-memory tile). Each block is QR-factorized
//! independently with modified Gram-Schmidt, the stacked R factors are
//! reduced recursively the same way until they fit one block, and the
//! block Q factors are multiplied back in a batch of small GEMMs. The
//! result is the QR of the original panel (step 5 of eq. (8)): the product
//! of orthonormal factors is orthonormal.
//!
//! Here a level of at least `PAR_BLOCKS` blocks (RGSQRF's 1024-row panel
//! leaves among them) runs its two halves of blocks on two threads
//! ([`densemat::par::both`]), for the block factorizations and for the Q
//! updates. The blocks share no output, so every block gets the bits one
//! thread gives it; the `caqr.block` events are emitted on the calling
//! thread after the join, in block order.
//!
//! Time on the simulated device is charged by the caller as one aggregate
//! panel cost — the paper benchmarks its hand-written CUDA panel the same
//! way (0.33 TFLOPS on a 32768x128 panel, 3.3x cuSOLVER's SGEQRF).

use crate::error::TcqrError;
use crate::mgs::mgs_qr;
use densemat::par::both;
use densemat::{gemm, lapack, Mat, MatMut, Op, Real};
use tcqr_trace::{Tracer, Value};

/// Row-block size: the paper's shared-memory tile height.
pub const DEFAULT_BLOCK_ROWS: usize = 256;

/// A reduction level of at least this many blocks runs its two halves of
/// blocks on two threads: at 256-row blocks, panels of at least 1024 rows.
/// lls-tall-skinny's 16384x32 panels (64 blocks, then 8) split at both
/// levels, and so do the first level of qr-f16's and qr-ec's 1024x32 panel
/// leaves (4 blocks); the 128-row stack above them is one block.
const PAR_BLOCKS: usize = 4;

/// Per-block QR kernel of the tall-skinny reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsqrKernel {
    /// Modified Gram-Schmidt (Algorithm 2) — the paper's choice: every
    /// operation is a vector update that stays in the tile.
    Mgs,
    /// Householder QR per block — the Ootomo & Yokota (SC '19) variant the
    /// paper's §5 contrasts with: unconditionally orthogonal blocks at the
    /// cost of a less fusable kernel.
    Householder,
}

/// Split a view into row blocks of `block` rows; the remainder is folded
/// into the last block so every block keeps at least `block` rows.
fn split_rows<T: Real>(m: MatMut<'_, T>, block: usize) -> Vec<MatMut<'_, T>> {
    let total = m.nrows();
    let nb = (total / block).max(1);
    let mut out = Vec::with_capacity(nb);
    let mut rest = m;
    for _ in 0..nb - 1 {
        let (head, tail) = rest.split_at_row_mut(block);
        out.push(head);
        rest = tail;
    }
    out.push(rest);
    out
}

/// Factor one tile in place with the chosen kernel: `q` becomes the
/// orthonormal factor, `r` (at least `n x n`) the triangular one.
fn block_qr<T: Real>(kernel: TsqrKernel, q: MatMut<'_, T>, mut r: MatMut<'_, T>) {
    match kernel {
        TsqrKernel::Mgs => mgs_qr(q, r),
        TsqrKernel::Householder => {
            let mut q = q;
            let m = q.nrows();
            let n = q.ncols();
            let mut f = q.to_owned();
            let mut tau = vec![T::ZERO; n.min(m)];
            lapack::geqr2(f.as_mut(), &mut tau);
            for j in 0..n {
                let col = f.col(j);
                let rcol = r.col_mut(j);
                rcol[..n].fill(T::ZERO);
                let take = (j + 1).min(n);
                rcol[..take].copy_from_slice(&col[..take]);
            }
            let qx = lapack::orgqr(f.as_ref(), &tau, lapack::DEFAULT_BLOCK);
            q.copy_from(qx.as_ref());
        }
    }
}

/// Communication-avoiding tall-skinny QR with a selectable per-block kernel
/// ([`TsqrKernel::Mgs`] is the paper's panel).
///
/// `q` (`m x n`, `m >= n`) is overwritten by the orthonormal factor; `r`
/// (at least `n x n`) receives the triangular factor. `block_rows` must be
/// at least `2n` so each reduction level strictly shrinks the stacked R
/// matrix (the paper uses 256 rows for 32-column panels — an 8x reduction
/// per level, `log_8(m/256)` passes over the panel); a violated shape comes
/// back as a [`TcqrError`]. Each reduction level opens a `caqr.tsqr` span
/// on `tracer` (fields: level, rows, cols, block count) and each block
/// factorization emits a `caqr.block` op event inside that span.
pub fn tsqr<T: Real>(
    tracer: &Tracer,
    q: MatMut<'_, T>,
    r: MatMut<'_, T>,
    block_rows: usize,
    kernel: TsqrKernel,
) -> Result<(), TcqrError> {
    let m = q.nrows();
    let n = q.ncols();
    if m < n {
        return Err(TcqrError::shape("caqr_tsqr", format!("need m >= n (got {m} x {n})")));
    }
    if block_rows < 2 * n {
        return Err(TcqrError::shape(
            "caqr_tsqr",
            "block_rows must be >= 2x panel width",
        ));
    }
    tsqr_level(tracer, q, r, block_rows, kernel, 0);
    Ok(())
}

fn tsqr_level<T: Real>(
    tracer: &Tracer,
    mut q: MatMut<'_, T>,
    r: MatMut<'_, T>,
    block_rows: usize,
    kernel: TsqrKernel,
    level: usize,
) {
    let m = q.nrows();
    let n = q.ncols();
    if m <= block_rows {
        block_qr(kernel, q, r);
        tracer.op(
            "caqr.block",
            &[
                ("rows", Value::from(m)),
                ("cols", Value::from(n)),
                ("level", Value::from(level)),
            ],
        );
        return;
    }

    // Step 1: independent block factorizations, R factors stacked.
    let mut blocks = split_rows(q.rb(), block_rows);
    let nb = blocks.len();
    let span = tracer.span(
        "caqr.tsqr",
        &[
            ("level", Value::from(level)),
            ("rows", Value::from(m)),
            ("cols", Value::from(n)),
            ("blocks", Value::from(nb)),
        ],
    );
    // A level of at least `PAR_BLOCKS` blocks factors and updates its two
    // halves of blocks on two threads; each half owns its Q blocks, its rows
    // of the stack and its product buffer.
    let half = if nb >= PAR_BLOCKS { nb / 2 } else { nb };
    let mut stack: Mat<T> = Mat::zeros(nb * n, n);
    {
        let mut sblocks = split_rows(stack.as_mut(), n);
        let (q1, q2) = blocks.split_at_mut(half);
        let (s1, s2) = sblocks.split_at_mut(half);
        both(
            half < nb,
            || factor_blocks(kernel, q1, s1),
            || factor_blocks(kernel, q2, s2),
        );
    }
    for qb in &blocks {
        tracer.op(
            "caqr.block",
            &[
                ("rows", Value::from(qb.nrows())),
                ("cols", Value::from(qb.ncols())),
                ("level", Value::from(level)),
            ],
        );
    }

    // Steps 2-3: reduce the stacked R factors recursively.
    tsqr_level(tracer, stack.as_mut(), r, block_rows, kernel, level + 1);

    // Step 4: batched Q updates, Q_i <- Q_i * Q2_i.
    let q2blocks = split_rows(stack.as_mut(), n);
    let (q1, q2) = blocks.split_at_mut(half);
    let (s1, s2) = q2blocks.split_at(half);
    both(
        half < nb,
        || update_blocks(q1, s1),
        || update_blocks(q2, s2),
    );
    drop(span);
}

/// Step 1 of [`tsqr_level`] on a run of blocks: factor each Q block in
/// place, its R factor into the matching rows of the stack.
fn factor_blocks<T: Real>(kernel: TsqrKernel, qs: &mut [MatMut<'_, T>], ss: &mut [MatMut<'_, T>]) {
    for (qb, sb) in qs.iter_mut().zip(ss) {
        block_qr(kernel, qb.rb(), sb.rb());
    }
}

/// Step 4 of [`tsqr_level`] on a run of blocks: `Q_i <- Q_i * Q2_i` through
/// one product buffer as tall as the run's tallest block (`beta = 0` clears
/// it each time).
fn update_blocks<T: Real>(qs: &mut [MatMut<'_, T>], q2s: &[MatMut<'_, T>]) {
    let n = q2s.first().map_or(0, |q2b| q2b.ncols());
    let tallest = qs.iter().map(|qb| qb.nrows()).max().unwrap_or(0);
    let mut buf = vec![T::ZERO; tallest * n];
    for (qb, q2b) in qs.iter_mut().zip(q2s) {
        let rows = qb.nrows();
        let mut tmp = MatMut::from_col_major_slice_mut(&mut buf[..rows * n], rows, n);
        gemm(
            T::ONE,
            Op::NoTrans,
            qb.as_ref(),
            Op::NoTrans,
            q2b.as_ref(),
            T::ZERO,
            tmp.rb(),
        );
        qb.copy_from(tmp.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gen::{self, rng};
    use densemat::metrics::{orthogonality_error, qr_backward_error};

    fn run(a: &Mat<f64>, block_rows: usize) -> (Mat<f64>, Mat<f64>) {
        let mut q = a.clone();
        let n = a.ncols();
        let mut r = Mat::zeros(n, n);
        tsqr(&Tracer::disabled(), q.as_mut(), r.as_mut(), block_rows, TsqrKernel::Mgs).unwrap();
        (q, r)
    }

    /// `tsqr` as one thread ran it: blocks factored in order, the stack
    /// reduced, then Q blocks updated in order. Pushes the `caqr.block`
    /// events it would emit as (rows, cols, level).
    fn one_thread_tsqr<T: Real>(
        q: MatMut<'_, T>,
        r: MatMut<'_, T>,
        block_rows: usize,
        kernel: TsqrKernel,
        level: usize,
        events: &mut Vec<(u64, u64, u64)>,
    ) {
        let (m, n) = (q.nrows(), q.ncols());
        if m <= block_rows {
            block_qr(kernel, q, r);
            events.push((m as u64, n as u64, level as u64));
            return;
        }
        let mut blocks = split_rows(q, block_rows);
        let mut stack: Mat<T> = Mat::zeros(blocks.len() * n, n);
        for (qb, sb) in blocks.iter_mut().zip(split_rows(stack.as_mut(), n)) {
            block_qr(kernel, qb.rb(), sb);
            events.push((qb.nrows() as u64, n as u64, level as u64));
        }
        one_thread_tsqr(stack.as_mut(), r, block_rows, kernel, level + 1, events);
        for (qb, q2b) in blocks.iter_mut().zip(split_rows(stack.as_mut(), n)) {
            let mut prod: Mat<T> = Mat::zeros(qb.nrows(), n);
            gemm(
                T::ONE,
                Op::NoTrans,
                qb.as_ref(),
                Op::NoTrans,
                q2b.as_ref(),
                T::ZERO,
                prod.as_mut(),
            );
            qb.copy_from(prod.as_ref());
        }
    }

    /// Split `tsqr` on an `m x n` Gaussian `T` matrix in `block_rows`-row
    /// blocks against [`one_thread_tsqr`]: Q and R bit for bit, and the
    /// `caqr.block` events in block order inside their levels' spans.
    fn split_levels_match_for<T: Real>(m: usize, n: usize, block_rows: usize) {
        use std::sync::Arc;
        use tcqr_trace::{EventKind, MemSink};
        for kernel in [TsqrKernel::Mgs, TsqrKernel::Householder] {
            let what = format!("{} {m}x{n} in {block_rows}-row blocks, {kernel:?}", T::NAME);
            let a: Mat<T> = gen::gaussian(m, n, &mut rng(m as u64)).convert();
            let sink = Arc::new(MemSink::new());
            let (mut q, mut r) = (a.clone(), Mat::zeros(n, n));
            tsqr(
                &Tracer::new(sink.clone()),
                q.as_mut(),
                r.as_mut(),
                block_rows,
                kernel,
            )
            .unwrap();
            let (mut q1, mut r1) = (a.clone(), Mat::zeros(n, n));
            let mut want = Vec::new();
            one_thread_tsqr(q1.as_mut(), r1.as_mut(), block_rows, kernel, 0, &mut want);
            let bits = |x: &Mat<T>| {
                x.data()
                    .iter()
                    .map(|v| v.to_f64().to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&q), bits(&q1), "{what}: Q");
            assert_eq!(bits(&r), bits(&r1), "{what}: R");

            let events = sink.snapshot();
            let level_spans: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == EventKind::SpanOpen && e.name == "caqr.tsqr")
                .map(|e| e.id)
                .collect();
            let got: Vec<(u64, u64, u64)> = events
                .iter()
                .filter(|e| e.name == "caqr.block")
                .map(|e| {
                    assert!(
                        level_spans.contains(&e.span),
                        "{what}: block outside a level"
                    );
                    let field = |k| e.u64_field(k).expect("caqr.block field");
                    (field("rows"), field("cols"), field("level"))
                })
                .collect();
            assert_eq!(got, want, "{what}: caqr.block events");
            assert!(
                want.iter().filter(|b| b.2 == 0).count() >= PAR_BLOCKS,
                "{what}"
            );
        }
    }

    #[test]
    fn split_levels_match_the_one_thread_block_order_bit_for_bit() {
        // (rows, cols, block rows), in f64:
        // - 37 blocks (odd, 5 rows folded into the last), then 18, 9 (odd),
        //   4 and 2: four split levels above one unsplit one;
        // - 8 blocks with 5 rows folded in, over a one-block level;
        // - 9 blocks (odd) with 3 rows folded in.
        for (m, n, block_rows) in [(301, 4, 8), (2053, 32, 256), (579, 8, 64)] {
            split_levels_match_for::<f64>(m, n, block_rows);
        }
        // The RGSQRF panel leaf of qr-f16 and qr-ec: 4 blocks, split, over
        // a one-block level.
        split_levels_match_for::<f32>(1024, 32, 256);
    }

    #[test]
    fn single_block_equals_mgs() {
        let a = gen::gaussian(100, 8, &mut rng(1));
        let (q1, r1) = run(&a, 256); // m <= block: plain MGS path
        let mut q2 = a.clone();
        let mut r2 = Mat::zeros(8, 8);
        mgs_qr(q2.as_mut(), r2.as_mut());
        assert_eq!(q1, q2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn multi_level_factorization_is_valid_qr() {
        // 2050 rows / 256-row blocks: 8 blocks + remainder folding, and the
        // 8*32 = 256-row stack reduces in exactly one more level.
        let a = gen::gaussian(2050, 32, &mut rng(2));
        let (q, r) = run(&a, 256);
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        for j in 0..32 {
            for i in j + 1..32 {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn three_level_reduction() {
        // Small blocks force a deeper reduction tree: 512 rows of width 4
        // with 8-row blocks -> 64 R-blocks -> 32 -> ... several levels.
        let a = gen::gaussian(512, 4, &mut rng(3));
        let (q, r) = run(&a, 8);
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
    }

    #[test]
    fn agrees_with_flat_mgs_r_factor() {
        // Full-rank QR with positive diagonal is unique, so the CAQR R must
        // match the flat MGS R up to roundoff.
        let a = gen::gaussian(1000, 16, &mut rng(4));
        let (_, r_caqr) = run(&a, 256);
        let mut qf = a.clone();
        let mut r_flat = Mat::zeros(16, 16);
        mgs_qr(qf.as_mut(), r_flat.as_mut());
        for j in 0..16 {
            for i in 0..=j {
                assert!(
                    (r_caqr[(i, j)] - r_flat[(i, j)]).abs() < 1e-10 * r_flat[(j, j)].abs().max(1.0),
                    "R mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn non_multiple_row_count() {
        // 777 = 3*256 + 9: remainder folds into the last block.
        let a = gen::gaussian(777, 32, &mut rng(5));
        let (q, r) = run(&a, 256);
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
    }

    #[test]
    fn width_half_of_block_rows() {
        // The tightest legal ratio: each reduction level halves the stack.
        let a = gen::gaussian(64, 8, &mut rng(6));
        let (q, r) = run(&a, 16);
        assert!(qr_backward_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
        assert!(orthogonality_error(q.as_ref()) < 1e-11);
    }

    #[test]
    fn householder_kernel_factorizes_and_stays_orthogonal_when_ill_conditioned() {
        // The Ootomo/Yokota-style variant: per-block Householder keeps the
        // panel orthogonal regardless of conditioning, where MGS degrades.
        let cond = 1e6;
        let a64 = gen::rand_svd(2048, 16, gen::Spectrum::Geometric { cond }, &mut rng(9));
        let a: Mat<f32> = a64.convert();

        let mut qh = a.clone();
        let mut rh: Mat<f32> = Mat::zeros(16, 16);
        tsqr(&Tracer::disabled(), qh.as_mut(), rh.as_mut(), 256, TsqrKernel::Householder).unwrap();
        let oh = orthogonality_error(qh.convert::<f64>().as_ref());

        let mut qm = a.clone();
        let mut rm: Mat<f32> = Mat::zeros(16, 16);
        tsqr(&Tracer::disabled(), qm.as_mut(), rm.as_mut(), 256, TsqrKernel::Mgs).unwrap();
        let om = orthogonality_error(qm.convert::<f64>().as_ref());

        assert!(oh < 1e-4, "Householder TSQR orthogonality {oh}");
        assert!(
            om > 10.0 * oh,
            "MGS should visibly degrade at cond {cond}: mgs {om} vs hh {oh}"
        );
        // Both still factorize A.
        let be = qr_backward_error(
            a64.as_ref(),
            qh.convert::<f64>().as_ref(),
            rh.convert::<f64>().as_ref(),
        );
        assert!(be < 1e-5, "backward error {be}");
    }

    #[test]
    fn householder_kernel_well_conditioned_matches_mgs_r_up_to_sign() {
        let a = gen::gaussian(777, 8, &mut rng(10));
        let mut q1 = a.clone();
        let mut r1 = Mat::zeros(8, 8);
        tsqr(&Tracer::disabled(), q1.as_mut(), r1.as_mut(), 64, TsqrKernel::Householder).unwrap();
        let mut q2 = a.clone();
        let mut r2 = Mat::zeros(8, 8);
        tsqr(&Tracer::disabled(), q2.as_mut(), r2.as_mut(), 64, TsqrKernel::Mgs).unwrap();
        for j in 0..8 {
            for i in 0..=j {
                assert!(
                    (r1[(i, j)].abs() - r2[(i, j)].abs()).abs() < 1e-9 * r2[(j, j)].abs().max(1.0),
                    "|R| mismatch ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn f32_panel_accuracy_is_single_precision() {
        let a64 = gen::gaussian(2048, 32, &mut rng(7));
        let a: Mat<f32> = a64.convert();
        let mut q = a.clone();
        let mut r: Mat<f32> = Mat::zeros(32, 32);
        tsqr(&Tracer::disabled(), q.as_mut(), r.as_mut(), 256, TsqrKernel::Mgs).unwrap();
        let be = qr_backward_error(
            a.convert::<f64>().as_ref(),
            q.convert::<f64>().as_ref(),
            r.convert::<f64>().as_ref(),
        );
        assert!(be < 1e-5, "backward error {be} beyond single precision");
        let oe = orthogonality_error(q.convert::<f64>().as_ref());
        assert!(oe < 1e-4, "orthogonality {oe}");
    }

    #[test]
    #[should_panic(expected = "block_rows must be >= 2x panel width")]
    fn rejects_blocks_narrower_than_twice_panel() {
        let a = gen::gaussian(100, 16, &mut rng(8));
        let _ = run(&a, 16);
    }

    #[test]
    fn try_variant_reports_typed_shape_errors() {
        use crate::error::TcqrError;
        let a = gen::gaussian(100, 16, &mut rng(11));
        let mut q = a.clone();
        let mut r = Mat::zeros(16, 16);
        let err = tsqr(&Tracer::disabled(), q.as_mut(), r.as_mut(), 16, TsqrKernel::Mgs).unwrap_err();
        assert!(matches!(err, TcqrError::ShapeMismatch { op: "caqr_tsqr", .. }));
        assert!(err.to_string().contains("2x panel width"), "{err}");
        // A legal call succeeds and produces the factors `run` checks.
        tsqr(&Tracer::disabled(), q.as_mut(), r.as_mut(), 64, TsqrKernel::Mgs).unwrap();
        let (q2, r2) = run(&a, 64);
        assert_eq!(q, q2);
        assert_eq!(r, r2);
    }
}
