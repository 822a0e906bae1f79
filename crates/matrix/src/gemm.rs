//! Level-3 BLAS: general matrix-matrix multiplication, plus GEMV/GER.
//!
//! `gemm` computes `C = alpha * op(A) * op(B) + beta * C` for all four
//! transpose combinations. The implementation follows the structure the
//! hpc-parallel guides prescribe:
//!
//! - **binary recursion** over the output matrix: C is split along its
//!   larger dimension until a leaf tile is reached and the halves run in
//!   order. The split is the blocking order, and it never splits the k
//!   dimension, so no C element's accumulation depends on it;
//! - **packed B panels** for NN and NT: per `KC` block of the inner
//!   dimension, `alpha * op(B)` is copied `NR` columns at a time into a
//!   contiguous panel that stays in L1 while tiles of A stream past it, so
//!   NT reads B the way NN does. A is read in place (packing it cost more
//!   than it saved at these sizes);
//! - **register-tiled microkernels** with fixed-size accumulator arrays and
//!   explicit `mul_add`: 16x6 (f32) or 8x6 (f64) for NN/NT, 2x6 (f32) or
//!   2x4 (f64) banks of 8 k-lanes for TN, with TN's B columns held in L1 as
//!   the outer loop. Rust does not reassociate floating point, so every
//!   kernel keeps its SIMD lanes on *independent* accumulators (rows of C
//!   for NN/NT, unrolled k-lanes for TN) rather than relying on
//!   `-ffast-math`-style reduction vectorization, and the tiling never
//!   changes any C element's order of operations;
//! - **runtime dispatch** at each sequential leaf, by the host's tier (see
//!   `fma.rs`). The portable and AVX2+FMA tiers run the tiles above,
//!   compiled from one source; with AVX2+FMA, `mul_add` is a vector FMA
//!   instead of a call per element. The AVX-512 tier first runs explicit
//!   512-bit tiles (module `x86`): 32x6 (f32) or 16x6 (f64) for NN/NT, one
//!   row tile at a time against every panel of a KC block; for TN, 4 rows
//!   by 4 pairs of B columns in f32, one register per pair of 8-lane banks
//!   over a packed copy of B, or 4x4 banks in f64. The compiled tiles take
//!   the rows these leave. Every tier returns the same bits.

use crate::mat::{Mat, MatMut, MatRef};
use crate::real::Real;

/// Transpose selector for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

/// Inner-dimension cache block of the NN/NT kernel: one packed `KC x NR`
/// panel of `alpha * op(B)` (6 KB in f32, 12 KB in f64) stays in L1.
const KC: usize = 256;
/// Column tile of the NN/NT kernel: the width of a packed panel. Its row tile
/// `MR` is two AVX2 vectors, 16 f32 or 8 f64, or two AVX-512 vectors on that
/// tier (see [`nn_accum`]).
const NR: usize = 6;
/// Stop splitting C below this many output elements.
const LEAF: usize = 128 * 128;

/// A sequential kernel for one leaf tile: `C = alpha op_a(A) op_b(B) + beta C`.
type Leaf<T> = fn(T, Op, MatRef<'_, T>, Op, MatRef<'_, T>, T, MatMut<'_, T>);

#[inline]
fn op_dims<T: Real>(op: Op, m: MatRef<'_, T>) -> (usize, usize) {
    match op {
        Op::NoTrans => (m.nrows(), m.ncols()),
        Op::Trans => (m.ncols(), m.nrows()),
    }
}

/// `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Panics if the shapes are inconsistent.
pub fn gemm<T: Real>(
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_with(seq_dispatch, alpha, op_a, a, op_b, b, beta, c);
}

/// [`gemm`] with the given kernel at every leaf of the recursion.
#[allow(clippy::too_many_arguments)] // the leaf plus gemm's own seven
fn gemm_with<T: Real>(
    leaf: Leaf<T>,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (am, ak) = op_dims(op_a, a);
    let (bk, bn) = op_dims(op_b, b);
    assert_eq!(am, c.nrows(), "gemm: row mismatch");
    assert_eq!(bn, c.ncols(), "gemm: col mismatch");
    assert_eq!(ak, bk, "gemm: inner dimension mismatch");
    if c.nrows() == 0 || c.ncols() == 0 {
        return;
    }
    if ak == 0 || alpha == T::ZERO {
        scale_c(beta, c.rb());
        return;
    }
    split_rec(leaf, alpha, op_a, a, op_b, b, beta, c);
}

/// Apply `C *= beta`, mapping `beta == 0` to an explicit fill so stale NaN or
/// infinity in C cannot leak through (BLAS semantics).
#[inline(always)]
fn scale_c<T: Real>(beta: T, mut c: MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else {
        c.scale(beta);
    }
}

#[allow(clippy::too_many_arguments)] // the leaf plus gemm's own seven
fn split_rec<T: Real>(
    leaf: Leaf<T>,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    if c.nrows() * c.ncols() <= LEAF {
        leaf(alpha, op_a, a, op_b, b, beta, c);
        return;
    }
    if c.ncols() >= c.nrows() {
        // Split C and op_b(B) by output column.
        let j = c.ncols() / 2;
        let (c1, c2) = c.split_at_col_mut(j);
        let (b1, b2) = match op_b {
            Op::NoTrans => b.split_at_col(j),
            Op::Trans => b.split_at_row(j),
        };
        split_rec(leaf, alpha, op_a, a, op_b, b1, beta, c1);
        split_rec(leaf, alpha, op_a, a, op_b, b2, beta, c2);
    } else {
        // Split C and op_a(A) by output row.
        let i = c.nrows() / 2;
        let (c1, c2) = c.split_at_row_mut(i);
        let (a1, a2) = match op_a {
            Op::NoTrans => a.split_at_row(i),
            Op::Trans => a.split_at_col(i),
        };
        split_rec(leaf, alpha, op_a, a1, op_b, b, beta, c1);
        split_rec(leaf, alpha, op_a, a2, op_b, b, beta, c2);
    }
}

/// The leaf [`gemm`] runs: [`seq_body`] compiled for AVX2+FMA, or
/// [`x86::seq_wide`] with the explicit 512-bit tiles, by the host's tier.
fn seq_dispatch<T: Real>(
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    fma_dispatch!(seq_body::<T>(
        alpha: T, op_a: Op, a: MatRef<'_, T>, op_b: Op, b: MatRef<'_, T>, beta: T, c: MatMut<'_, T>
    ); avx512 = x86::seq_wide);
    seq_body(alpha, op_a, a, op_b, b, beta, c)
}

/// One leaf tile, sequentially, as the portable and AVX2+FMA tiers run it.
#[inline(always)]
fn seq_body<T: Real>(
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    leaf_body::<T, false>(alpha, op_a, a, op_b, b, beta, c)
}

/// One leaf tile, sequentially: scale C, then the kernel for the op pair.
/// `WIDE` adds the explicit 512-bit tiles; only the AVX-512 leaf
/// ([`x86::seq_wide`]) sets it.
#[inline(always)]
fn leaf_body<T: Real, const WIDE: bool>(
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    scale_c(beta, c.rb());
    match (op_a, op_b) {
        (Op::NoTrans, _) => nn_accum::<T, WIDE>(alpha, a, op_b, b, c),
        (Op::Trans, Op::NoTrans) => tn_accum::<T, WIDE>(alpha, a, b, c),
        (Op::Trans, Op::Trans) => {
            // C += alpha (B A)^T: compute D = B A into scratch, add D^T.
            // This combination never appears on a hot path here.
            let mut d: Mat<T> = Mat::zeros(c.ncols(), c.nrows());
            nn_accum::<T, WIDE>(alpha, b, Op::NoTrans, a, d.as_mut());
            for j in 0..c.ncols() {
                for i in 0..c.nrows() {
                    let v = c.get(i, j) + d[(j, i)];
                    c.set(i, j, v);
                }
            }
        }
    }
}

/// `C += alpha * A * op_b(B)`, with `op_b(B)` packed: NN and NT share one
/// kernel and differ only in how a panel is read from B.
///
/// Per `KC` block of the inner dimension and per `NR` columns of C, the
/// products `alpha * op_b(B)[l, j]` go into a contiguous `lb x NR` panel
/// that stays in L1 while `MR`-row tiles of A stream past it. The register
/// tile is `MR x NR`: two AVX2 vectors of rows (16 f32 or 8 f64) in each of
/// six columns, twelve accumulators with room left for the A loads and the
/// broadcast. The last `n mod NR` columns run a narrower tile over a
/// narrower panel, and the last `m mod MR` rows a full tile over a
/// zero-padded copy of their A rows; neither falls back to scalar code.
/// Each C element still accumulates `a * (alpha * b)` onto itself in k
/// order, exactly as an unpacked loop would. With `WIDE`, the explicit
/// AVX-512 tile of twice as many rows takes the first `m - m mod 2 MR` rows
/// once every panel of a KC block is packed (see [`x86`]), and the `MR`-row
/// tiles take the rest.
#[inline(always)]
fn nn_accum<T: Real, const WIDE: bool>(
    alpha: T,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
) {
    if core::mem::size_of::<T>() == 4 {
        nn_blocks::<T, 16, WIDE>(alpha, a, op_b, b, c);
    } else {
        nn_blocks::<T, 8, WIDE>(alpha, a, op_b, b, c);
    }
}

/// [`nn_accum`] with the row tile fixed at `MR`.
#[inline(always)]
fn nn_blocks<T: Real, const MR: usize, const WIDE: bool>(
    alpha: T,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = a.ncols();
    let full = m - m % MR;
    // The rows the wide tiles take, `2 MR` at a time. Those tiles run after
    // every panel of a KC block is packed, side by side in `panels` (column
    // `j` of the block at `j * lb`), so each one's A rows stay in L1 while
    // all the panels stream past them.
    #[cfg(target_arch = "x86_64")]
    let wide = if WIDE && x86::has_tiles::<T>() { m - m % (2 * MR) } else { 0 };
    #[cfg(not(target_arch = "x86_64"))]
    let wide = 0;
    let mut panel = [T::ZERO; KC * NR];
    let mut heap = Vec::new();
    if wide > 0 && KC.min(k) * n > panel.len() {
        heap = vec![T::ZERO; KC.min(k) * n];
    }
    let panels: &mut [T] = if heap.is_empty() { &mut panel } else { &mut heap };
    // Zeroed once, and only when some rows do not fill a tile.
    let mut rest_buf: Option<[[T; MR]; KC]> = None;
    let mut l0 = 0;
    while l0 < k {
        let lb = KC.min(k - l0);
        let a_blk = a.submatrix(0, l0, m, lb);
        let rest = if full < m {
            // The closure keeps the 16 KB fill out of calls that never
            // need it.
            #[allow(clippy::unnecessary_lazy_evaluations)]
            let buf = rest_buf.get_or_insert_with(|| [[T::ZERO; MR]; KC]);
            for (l, row) in buf[..lb].iter_mut().enumerate() {
                row[..m - full].copy_from_slice(&a_blk.col(l)[full..]);
            }
            MatRef::from_col_major_slice(buf.as_flattened(), MR, KC)
        } else {
            a_blk
        };
        let mut j0 = 0;
        while j0 < n {
            let jb = NR.min(n - j0);
            let at = if wide > 0 { j0 * lb } else { 0 };
            let panel = &mut panels[at..at + lb * jb];
            let b_pan = match op_b {
                Op::NoTrans => b.submatrix(l0, j0, lb, jb),
                Op::Trans => b.submatrix(j0, l0, jb, lb),
            };
            let c_pan = c.rb().submatrix_mut(wide, j0, m - wide, jb);
            let (a_pan, i0) = (a_blk.submatrix(wide, 0, m - wide, lb), full - wide);
            match jb {
                6 => nn_panel::<T, MR, 6>(alpha, op_b, b_pan, panel, a_pan, i0, rest, c_pan),
                5 => nn_panel::<T, MR, 5>(alpha, op_b, b_pan, panel, a_pan, i0, rest, c_pan),
                4 => nn_panel::<T, MR, 4>(alpha, op_b, b_pan, panel, a_pan, i0, rest, c_pan),
                3 => nn_panel::<T, MR, 3>(alpha, op_b, b_pan, panel, a_pan, i0, rest, c_pan),
                2 => nn_panel::<T, MR, 2>(alpha, op_b, b_pan, panel, a_pan, i0, rest, c_pan),
                _ => nn_panel::<T, MR, 1>(alpha, op_b, b_pan, panel, a_pan, i0, rest, c_pan),
            }
            j0 += NR;
        }
        #[cfg(target_arch = "x86_64")]
        if wide > 0 {
            // SAFETY: `wide > 0` only in the AVX-512 leaf for a `T` with
            // tiles; `wide` is a multiple of `2 MR` and at most `m`, the
            // block has `lb <= KC` columns, and `panels` holds it packed.
            let c_wide = c.rb().submatrix_mut(0, 0, wide, n);
            unsafe { x86::nn_rows(a_blk, &panels[..lb * n], c_wide) };
        }
        l0 += lb;
    }
}

/// One panel: pack `alpha * op_b(B)` for `NB` columns of C into `panel`,
/// then run it against the rows of C: full `MR`-row tiles reading A in
/// place below `full`, then the leftover rows reading `rest` (their A rows,
/// zero-padded to `MR`).
#[allow(clippy::too_many_arguments)] // the panel's operands and its row split
#[inline(always)]
fn nn_panel<T: Real, const MR: usize, const NB: usize>(
    alpha: T,
    op_b: Op,
    b: MatRef<'_, T>,
    panel: &mut [T],
    a: MatRef<'_, T>,
    full: usize,
    rest: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
) {
    match op_b {
        Op::NoTrans => {
            let cols: [&[T]; NB] = core::array::from_fn(|jj| b.col(jj));
            for (l, row) in panel.chunks_exact_mut(NB).enumerate() {
                for (p, col) in row.iter_mut().zip(&cols) {
                    *p = alpha * col[l];
                }
            }
        }
        Op::Trans => {
            for (l, row) in panel.chunks_exact_mut(NB).enumerate() {
                for (p, &x) in row.iter_mut().zip(b.col(l)) {
                    *p = alpha * x;
                }
            }
        }
    }
    let panel = &*panel;
    let m = c.nrows();
    let mut i0 = 0;
    while i0 < full {
        let mut acc = [[T::ZERO; MR]; NB];
        for (jj, accj) in acc.iter_mut().enumerate() {
            accj.copy_from_slice(&c.col(jj)[i0..i0 + MR]);
        }
        nn_tile(&mut acc, a, i0, panel);
        for (jj, accj) in acc.iter().enumerate() {
            c.col_mut(jj)[i0..i0 + MR].copy_from_slice(accj);
        }
        i0 += MR;
    }
    if full < m {
        let mut acc = [[T::ZERO; MR]; NB];
        for (jj, accj) in acc.iter_mut().enumerate() {
            accj[..m - full].copy_from_slice(&c.col(jj)[full..]);
        }
        nn_tile(&mut acc, rest, 0, panel);
        for (jj, accj) in acc.iter().enumerate() {
            c.col_mut(jj)[full..].copy_from_slice(&accj[..m - full]);
        }
    }
}

/// The `MR x NB` register tile: rows `i0..i0 + MR` of A's columns against
/// the packed panel, one broadcast per panel entry, lanes down the rows.
#[inline(always)]
fn nn_tile<T: Real, const MR: usize, const NB: usize>(
    acc: &mut [[T; MR]; NB],
    a: MatRef<'_, T>,
    i0: usize,
    panel: &[T],
) {
    for (l, bl) in panel.chunks_exact(NB).enumerate() {
        let acol: &[T; MR] = a.col(l)[i0..i0 + MR]
            .try_into()
            .expect("an MR-long slice converts to [T; MR]");
        for (accj, &bv) in acc.iter_mut().zip(bl) {
            for (s, &x) in accj.iter_mut().zip(acol) {
                *s = x.mul_add(bv, *s);
            }
        }
    }
}

/// k-lanes of the TN kernel: each C entry sums its products in this many
/// independent partial sums.
const LANES: usize = 8;

/// `C += alpha * A^T * B`.
///
/// Here both operands stream contiguously along k (their stored columns), so
/// the microkernel keeps an unrolled bank of 8 k-lanes per C entry and
/// reduces them once at the end — vector FMAs without reassociating a single
/// scalar sum. Each C entry's order is fixed: lane `l mod 8` accumulates
/// `l = lane, lane + 8, ...` in turn, the `k mod 8` tail sums separately, and
/// `tail + (((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7)))` closes it.
///
/// That order covers the entries in the first `m - m mod 2` rows and
/// `n - n mod 4` columns; the rest (an odd last row, the `n mod 4` last
/// columns) are plain dot products. The interior runs in register tiles of
/// 2 columns of A by `TJ` of B, with the B columns as the outer loop, so
/// their `TJ k` elements stay in L1 while every pair of A columns streams
/// past them. `TJ` is 6 in f32 (12 banks; 4 for the last columns where 6
/// do not fit) and 4 in f64. With `WIDE`, the explicit AVX-512 tiles first
/// take the first `m - m mod 4` rows (see [`x86`]), and the 2-row tiles
/// only a last row pair.
#[inline(always)]
fn tn_accum<T: Real, const WIDE: bool>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
) {
    let m = c.nrows(); // = A.ncols
    let n = c.ncols(); // = B.ncols
    let (mi, nj) = (m - m % 2, n - n % 4);
    let mut i_wide = 0;
    #[cfg(target_arch = "x86_64")]
    if WIDE {
        // SAFETY: only the AVX-512 leaf sets `WIDE`; `a` and `b` have
        // `c.nrows()` and `c.ncols()` columns of equal length, and
        // `nj = n - n mod 4`.
        i_wide = unsafe { x86::tn_rows(alpha, a, b, c.rb(), nj) };
    }
    let mut j0 = 0;
    while j0 < nj {
        let left = nj - j0;
        let tj = match core::mem::size_of::<T>() {
            4 if left == 6 || left >= 10 => 6,
            _ => 4,
        };
        let mut i0 = i_wide;
        while i0 < mi {
            match tj {
                6 => tn_tile::<T, 6>(alpha, a, b, c.rb(), i0, j0),
                _ => tn_tile::<T, 4>(alpha, a, b, c.rb(), i0, j0),
            }
            i0 += 2;
        }
        j0 += tj;
    }
    // Edge: plain dot products (still contiguous streams).
    let mut dot_into = |i: usize, j: usize| {
        let s = crate::blas1::dot_body(a.col(i), b.col(j));
        let v = c.get(i, j) + alpha * s;
        c.set(i, j, v);
    };
    for i in mi..m {
        for j in 0..nj {
            dot_into(i, j);
        }
    }
    for j in nj..n {
        for i in 0..m {
            dot_into(i, j);
        }
    }
}

/// The TN register tile: C entries `(i0..i0 + 2, j0..j0 + TJ)`, a bank of
/// `LANES` accumulators each.
#[inline(always)]
fn tn_tile<T: Real, const TJ: usize>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    i0: usize,
    j0: usize,
) {
    let k = a.nrows();
    let chunks = k / LANES;
    let acols = [a.col(i0), a.col(i0 + 1)];
    let mut bcols: [&[T]; TJ] = [&[]; TJ];
    for (jj, col) in bcols.iter_mut().enumerate() {
        *col = b.col(j0 + jj);
    }
    let a8 = [lanes(acols[0], chunks), lanes(acols[1], chunks)];
    let mut b8: [&[[T; LANES]]; TJ] = [&[]; TJ];
    for (col8, col) in b8.iter_mut().zip(&bcols) {
        *col8 = lanes(col, chunks);
    }
    let mut acc = [[[T::ZERO; LANES]; TJ]; 2];
    // The same FMAs in two loop shapes. The vectorizer maps the first onto
    // the lanes, with no spill, only for the 12 banks of a 2x6 f32 tile;
    // the other tiles are faster in the second, which it vectorizes across
    // the banks. The index loops unroll into register-resident banks.
    #[allow(clippy::needless_range_loop)]
    for ch in 0..chunks {
        if core::mem::size_of::<T>() == 4 && TJ == 6 {
            // One B chunk at a time against both A chunks: two A vectors
            // and one B vector live beside the 12 banks.
            let av = [&a8[0][ch], &a8[1][ch]];
            for jj in 0..TJ {
                let bv = &b8[jj][ch];
                for ii in 0..2 {
                    fma_lanes(&mut acc[ii][jj], av[ii], bv);
                }
            }
        } else {
            let av = [a8[0][ch], a8[1][ch]];
            let mut bv = [[T::ZERO; LANES]; TJ];
            for (bv_j, col8) in bv.iter_mut().zip(&b8) {
                *bv_j = col8[ch];
            }
            for (acc_i, av_i) in acc.iter_mut().zip(&av) {
                for (acc_ij, bv_j) in acc_i.iter_mut().zip(&bv) {
                    for ((s, &x), &y) in acc_ij.iter_mut().zip(av_i).zip(bv_j) {
                        *s = x.mul_add(y, *s);
                    }
                }
            }
        }
    }
    let mut tail = [[T::ZERO; TJ]; 2];
    for l in chunks * LANES..k {
        for (tail_i, acol) in tail.iter_mut().zip(&acols) {
            for (s, bcol) in tail_i.iter_mut().zip(&bcols) {
                *s = acol[l].mul_add(bcol[l], *s);
            }
        }
    }
    for (ii, (acc_i, tail_i)) in acc.iter().zip(&tail).enumerate() {
        for (jj, (lanes, &tail)) in acc_i.iter().zip(tail_i).enumerate() {
            let v = c.get(i0 + ii, j0 + jj) + alpha * tn_tree(lanes, tail);
            c.set(i0 + ii, j0 + jj, v);
        }
    }
}

/// One TN entry's sum: its `k mod 8` tail plus the fixed tree over its bank
/// of `LANES` partials.
#[inline(always)]
fn tn_tree<T: Real>(lanes: &[T; LANES], tail: T) -> T {
    let [l0, l1, l2, l3, l4, l5, l6, l7] = *lanes;
    tail + (((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7)))
}

/// `s += x * y` lane by lane, spelled out: as a loop it stays scalar here.
#[inline(always)]
fn fma_lanes<T: Real>(s: &mut [T; LANES], x: &[T; LANES], y: &[T; LANES]) {
    *s = [
        x[0].mul_add(y[0], s[0]),
        x[1].mul_add(y[1], s[1]),
        x[2].mul_add(y[2], s[2]),
        x[3].mul_add(y[3], s[3]),
        x[4].mul_add(y[4], s[4]),
        x[5].mul_add(y[5], s[5]),
        x[6].mul_add(y[6], s[6]),
        x[7].mul_add(y[7], s[7]),
    ];
}

/// The first `chunks * LANES` elements of `col` as `chunks` arrays of
/// `LANES`, so the tile loop indexes whole chunks with one bounds check
/// the compiler can hoist.
#[inline(always)]
fn lanes<T: Real>(col: &[T], chunks: usize) -> &[[T; LANES]] {
    let col = &col[..chunks * LANES];
    // SAFETY: `[T; LANES]` is `LANES` consecutive `T`s with `T`'s alignment,
    // and `col` holds exactly `chunks * LANES` of them.
    unsafe { core::slice::from_raw_parts(col.as_ptr().cast::<[T; LANES]>(), chunks) }
}

/// The AVX-512 leaf and its explicit 512-bit tiles.
///
/// Each tile gives every C element the operations [`leaf_body`]'s portable
/// tiles give it, in the same order, so the leaf returns their bits:
///
/// - NN/NT: `2 * MR` rows (32 f32 or 16 f64, two `zmm` per column) by up
///   to 6 columns of C against a packed panel, one broadcast per panel
///   entry: each C element still gets `fma(a, alpha * b, c)` in k order.
///   A row tile runs every panel of its KC block in turn, from a contiguous
///   copy of its A rows that stays in L1 (read in place, a power-of-two
///   leading dimension maps them onto a few cache sets).
/// - TN, f32: four A columns by four pairs of B columns (two for a last
///   block of 4). One `zmm` holds the 8 k-lanes of C entries `(i, j)` and
///   `(i, j + 1)`, so the chunk of A column `i` is one 256-bit broadcast (a
///   load-port operation) and each 8-column block of B is packed once,
///   chunk by chunk, as `[b_j chunk | b_{j+1} chunk]`. Sixteen
///   accumulators and the five vectors they read fit in the 32 registers,
///   and A streams past once per 8 columns of C.
/// - TN, f64: a bank of 8 f64 lanes is one `zmm` already, so the tile is
///   four A columns by four B columns, read in place.
///
/// The TN tiles keep `tn_tile`'s lanes, its `k mod 8` tail summed from
/// zero, its tree ([`tn_tree`]) and `c + alpha * s`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{leaf_body, tn_tree, Op, LANES};
    use crate::mat::{MatMut, MatRef};
    use crate::real::Real;
    use core::any::TypeId;
    use core::arch::x86_64::*;

    /// The fewest rows of C the f32 TN tiles take: packing a block of B
    /// costs about as much as one 4-row tile saves, so it pays from two on;
    /// twice as many once the block outgrows [`TN_STACK`] (k > 512),
    /// where the extra pass over B runs at memory speed.
    const TN_PACK_ROWS: usize = 8;
    /// The f32 TN packing buffer on the stack: 16 KB.
    const TN_STACK: usize = 4096;

    /// [`leaf_body`] with the explicit 512-bit tiles.
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn seq_wide<T: Real>(
        alpha: T,
        op_a: Op,
        a: MatRef<'_, T>,
        op_b: Op,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        leaf_body::<T, true>(alpha, op_a, a, op_b, b, beta, c)
    }

    /// `T`'s view of an `f32` or `f64` matrix: `U` must be `T`.
    ///
    /// # Safety
    /// `T` and `U` must be the same type.
    unsafe fn retype<T: Real, U: Real>(m: MatRef<'_, T>) -> MatRef<'_, U> {
        // SAFETY: `T` is `U`, so the view keeps its pointer and layout.
        unsafe { MatRef::from_raw_parts(m.as_ptr().cast(), m.nrows(), m.ncols(), m.ld()) }
    }

    /// [`retype`] for a mutable view.
    ///
    /// # Safety
    /// `T` and `U` must be the same type.
    unsafe fn retype_mut<T: Real, U: Real>(mut m: MatMut<'_, T>) -> MatMut<'_, U> {
        let (nrows, ncols, ld) = (m.nrows(), m.ncols(), m.ld());
        // SAFETY: `T` is `U`, so the view keeps its pointer and layout.
        unsafe { MatMut::from_raw_parts(m.as_mut_ptr().cast(), nrows, ncols, ld) }
    }

    /// Whether `T` has explicit tiles: `f32` and `f64` do.
    pub(super) fn has_tiles<T: Real>() -> bool {
        TypeId::of::<T>() == TypeId::of::<f32>() || TypeId::of::<T>() == TypeId::of::<f64>()
    }

    /// Run the NN/NT tile of `2 * MR` rows (32 f32 or 16 f64) over every
    /// row of C, a row tile at a time and every panel per row tile.
    /// `panels` holds the `lb x n` packed block: the panel of columns
    /// `j0..j0 + jb` (`jb = min(6, n - j0)`) at `j0 * lb`, its row `l`
    /// holding `alpha * op_b(B)[l, j]` for those columns.
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA; [`has_tiles`] holds
    /// for `T`; `a` has `lb <= KC` columns and at least `c.nrows()` rows,
    /// `c.nrows()` is a multiple of `2 * MR`, and `panels` holds
    /// `lb * c.ncols()` entries.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn nn_rows<T: Real>(a: MatRef<'_, T>, panels: &[T], c: MatMut<'_, T>) {
        debug_assert!(a.nrows() >= c.nrows() && a.ncols() <= super::KC);
        debug_assert_eq!(panels.len(), a.ncols() * c.ncols());
        // SAFETY: each branch runs only when `T` is the kernel's type; the
        // caller vouches for the host and the shapes.
        unsafe {
            if TypeId::of::<T>() == TypeId::of::<f32>() {
                nn_rows_f32(retype(a), panels.as_ptr().cast(), retype_mut(c));
            } else {
                debug_assert!(TypeId::of::<T>() == TypeId::of::<f64>());
                nn_rows_f64(retype(a), panels.as_ptr().cast(), retype_mut(c));
            }
        }
    }

    /// `nn_rows_f32`/`nn_rows_f64` and their tiles: the intrinsics work on
    /// `$w` lanes of `$t`, two vectors per column of the tile.
    macro_rules! nn_kernel {
        (
            $rows:ident,
            $tile:ident,
            $t:ty,
            $w:expr,
            $zero:ident,
            $load:ident,
            $store:ident,
            $set1:ident,
            $fmadd:ident
        ) => {
            /// # Safety
            /// As for [`nn_rows`], with `panels` pointing at its entries.
            #[inline]
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn $rows(a: MatRef<'_, $t>, panels: *const $t, mut c: MatMut<'_, $t>) {
                let (m, n, lb) = (c.nrows(), c.ncols(), a.ncols());
                let (ap, lda, ldc) = (a.as_ptr(), a.ld(), c.ld());
                let cp = c.as_mut_ptr();
                // The row tile's A rows, copied contiguous so they stay in
                // L1 across the panels (in place, a power-of-two `lda`
                // maps them onto a few cache sets).
                let mut rows = core::mem::MaybeUninit::<[[$t; $w]; 2 * super::KC]>::uninit();
                let rp = rows.as_mut_ptr().cast::<$t>();
                let mut i0 = 0;
                while i0 < m {
                    // SAFETY: rows `i0..i0 + 2 $w <= m` of A's `lb <= KC`
                    // columns, into the first `2 lb` vectors of `rows`,
                    // which the tiles below read back.
                    unsafe {
                        for l in 0..lb {
                            let p = ap.add(l * lda + i0);
                            $store(rp.add(2 * l * $w), $load(p));
                            $store(rp.add((2 * l + 1) * $w), $load(p.add($w)));
                        }
                    }
                    let mut j0 = 0;
                    while j0 < n {
                        // SAFETY: rows `i0..i0 + 2 $w <= m` of A and C,
                        // columns `j0..j0 + jb <= n` of C, and the panel at
                        // `j0 * lb`.
                        unsafe {
                            let panel = panels.add(j0 * lb);
                            let c = cp.add(j0 * ldc + i0);
                            match n - j0 {
                                1 => $tile::<1>(rp, lb, panel, c, ldc),
                                2 => $tile::<2>(rp, lb, panel, c, ldc),
                                3 => $tile::<3>(rp, lb, panel, c, ldc),
                                4 => $tile::<4>(rp, lb, panel, c, ldc),
                                5 => $tile::<5>(rp, lb, panel, c, ldc),
                                _ => $tile::<6>(rp, lb, panel, c, ldc),
                            }
                        }
                        j0 += super::NR;
                    }
                    i0 += 2 * $w;
                }
            }

            /// The `2 $w x NB` tile: `2 $w` rows of A's `lb` columns
            /// (contiguous at `a`) against an `lb x NB` panel, onto the C
            /// tile at `c` (columns `ldc` apart).
            ///
            /// # Safety
            /// The host must support AVX-512F, AVX2 and FMA, and every
            /// pointer must cover what it is read or written for.
            #[inline]
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn $tile<const NB: usize>(
                a: *const $t,
                lb: usize,
                panel: *const $t,
                c: *mut $t,
                ldc: usize,
            ) {
                // SAFETY: the caller vouches for every pointer.
                unsafe {
                    let mut acc = [[$zero(); 2]; NB];
                    for (jj, accj) in acc.iter_mut().enumerate() {
                        let p = c.add(jj * ldc);
                        *accj = [$load(p), $load(p.add($w))];
                    }
                    for l in 0..lb {
                        let p = a.add(l * 2 * $w);
                        let (a0, a1) = ($load(p), $load(p.add($w)));
                        for (jj, accj) in acc.iter_mut().enumerate() {
                            let bv = $set1(*panel.add(l * NB + jj));
                            accj[0] = $fmadd(a0, bv, accj[0]);
                            accj[1] = $fmadd(a1, bv, accj[1]);
                        }
                    }
                    for (jj, accj) in acc.iter().enumerate() {
                        let p = c.add(jj * ldc);
                        $store(p, accj[0]);
                        $store(p.add($w), accj[1]);
                    }
                }
            }
        };
    }

    nn_kernel!(
        nn_rows_f32,
        nn_tile_f32,
        f32,
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps
    );
    nn_kernel!(
        nn_rows_f64,
        nn_tile_f64,
        f64,
        8,
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        _mm512_fmadd_pd
    );

    /// Run the TN tiles over the first `m - m mod 4` rows of C and its first
    /// `nj` columns; returns how many rows they ran (0 for a `T` other than
    /// `f32` and `f64`).
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA; `a` and `b` have
    /// `c.nrows()` and `c.ncols()` columns, all of one length, and
    /// `nj <= c.ncols()` is a multiple of 4.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn tn_rows<T: Real>(
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
        nj: usize,
    ) -> usize {
        debug_assert!(a.ncols() == c.nrows() && b.ncols() == c.ncols());
        debug_assert!(a.nrows() == b.nrows() && nj <= c.ncols() && nj.is_multiple_of(4));
        let alpha = alpha.to_f64();
        // SAFETY: each branch runs only when `T` is the kernel's type (so
        // `alpha` converts back exactly); the caller vouches for the rest.
        unsafe {
            if TypeId::of::<T>() == TypeId::of::<f32>() {
                tn_rows_f32(alpha as f32, retype(a), retype(b), retype_mut(c), nj)
            } else if TypeId::of::<T>() == TypeId::of::<f64>() {
                tn_rows_f64(alpha, retype(a), retype(b), retype_mut(c), nj)
            } else {
                0
            }
        }
    }

    /// Close the C entries of one TN tile: `banks[ii][jj]` holds the lanes
    /// of entry `(i0 + ii, j0 + jj)`.
    #[inline(always)]
    fn tn_store<T: Real, const TJ: usize>(
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
        banks: &[[[T; LANES]; TJ]; 4],
        (i0, j0): (usize, usize),
    ) {
        for (ii, banks_i) in banks.iter().enumerate() {
            for (jj, lanes) in banks_i.iter().enumerate() {
                let (i, j) = (i0 + ii, j0 + jj);
                let (x, y) = (a.col(i), b.col(j));
                let whole = x.len() - x.len() % LANES;
                let tail = (whole..x.len()).fold(T::ZERO, |s, l| x[l].mul_add(y[l], s));
                let v = c.get(i, j) + alpha * tn_tree(lanes, tail);
                c.set(i, j, v);
            }
        }
    }

    /// The f32 TN tiles: per block of 8 of the first `nj` columns (the
    /// last may have 4), pack the block, then run 4-row tiles down C. A C
    /// with fewer rows than [`TN_PACK_ROWS`] asks for runs none (returns
    /// 0).
    ///
    /// # Safety
    /// As for [`tn_rows`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn tn_rows_f32(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        mut c: MatMut<'_, f32>,
        nj: usize,
    ) -> usize {
        let m = c.nrows();
        let rows = m - m % 4;
        let chunks = a.nrows() / LANES;
        // One packed block, reused by every block and filled before it is
        // read: on the stack while it fits in 16 KB, on the heap past that.
        let len = chunks * 8 * LANES;
        let on_stack = len <= TN_STACK;
        if rows < TN_PACK_ROWS || (rows < 2 * TN_PACK_ROWS && !on_stack) {
            return 0;
        }
        let mut stack = [const { core::mem::MaybeUninit::<f32>::uninit() }; TN_STACK];
        let mut heap: Vec<f32> = Vec::new();
        let pk = if on_stack {
            stack.as_mut_ptr().cast::<f32>()
        } else {
            heap.reserve_exact(len);
            heap.as_mut_ptr()
        };
        let mut j0 = 0;
        while j0 < nj {
            // SAFETY: the caller vouches for the host and the shapes, `nj`
            // is a multiple of 4, and `pk` has room for `chunks` rows of
            // 8 chunks.
            unsafe {
                if nj - j0 >= 8 {
                    tn_block_f32::<4, 8>(alpha, a, b, c.rb(), rows, j0, pk);
                } else {
                    tn_block_f32::<2, 4>(alpha, a, b, c.rb(), rows, j0, pk);
                }
            }
            j0 += 8;
        }
        rows
    }

    /// Columns `j0..j0 + TJ` (`P = TJ / 2` pairs) of the first `rows` rows
    /// of C: pack the block into `pk`, then run the `4 x TJ` tile down C.
    ///
    /// # Safety
    /// As for [`tn_rows`], with `rows % 4 == 0`, `j0 + TJ <= c.ncols()` and
    /// `pk` writable for `TJ * (a.nrows() / 8) * 8` entries.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn tn_block_f32<const P: usize, const TJ: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        mut c: MatMut<'_, f32>,
        rows: usize,
        j0: usize,
        pk: *mut f32,
    ) {
        let chunks = a.nrows() / LANES;
        // SAFETY: every load reads a whole chunk of a column of A or B,
        // every store and load of `pk` one of its `chunks * TJ` chunks.
        unsafe {
            for p in 0..P {
                let (b0, b1) = (b.col(j0 + 2 * p).as_ptr(), b.col(j0 + 2 * p + 1).as_ptr());
                for ch in 0..chunks {
                    let dst = pk.add((ch * P + p) * 2 * LANES);
                    _mm256_storeu_ps(dst, _mm256_loadu_ps(b0.add(ch * LANES)));
                    _mm256_storeu_ps(dst.add(LANES), _mm256_loadu_ps(b1.add(ch * LANES)));
                }
            }
            let mut i0 = 0;
            while i0 < rows {
                let acols: [*const f32; 4] = [0, 1, 2, 3].map(|ii| a.col(i0 + ii).as_ptr());
                let mut acc = [[_mm512_setzero_ps(); P]; 4];
                for ch in 0..chunks {
                    let mut bv = [_mm512_setzero_ps(); P];
                    for (p, bv_p) in bv.iter_mut().enumerate() {
                        *bv_p = _mm512_loadu_ps(pk.add((ch * P + p) * 2 * LANES));
                    }
                    for (acc_i, acol) in acc.iter_mut().zip(&acols) {
                        let chunk = _mm256_loadu_pd(acol.add(ch * LANES).cast::<f64>());
                        let av = _mm512_castpd_ps(_mm512_broadcast_f64x4(chunk));
                        for (s, &y) in acc_i.iter_mut().zip(&bv) {
                            *s = _mm512_fmadd_ps(av, y, *s);
                        }
                    }
                }
                let mut banks = [[[0.0f32; LANES]; TJ]; 4];
                for (banks_i, acc_i) in banks.iter_mut().zip(&acc) {
                    for (pair, s) in banks_i.chunks_exact_mut(2).zip(acc_i) {
                        _mm512_storeu_ps(pair.as_mut_ptr().cast::<f32>(), *s);
                    }
                }
                tn_store(alpha, a, b, &mut c, &banks, (i0, j0));
                i0 += 4;
            }
        }
    }

    /// The f64 TN tiles: per block of 4 of the first `nj` columns, 4-row
    /// tiles down C, B read in place. Sixteen banks and the eight chunks
    /// they read fit in the 32 vector registers, and a block as wide as
    /// `tn_tile`'s streams A no more often.
    ///
    /// # Safety
    /// As for [`tn_rows`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn tn_rows_f64(
        alpha: f64,
        a: MatRef<'_, f64>,
        b: MatRef<'_, f64>,
        mut c: MatMut<'_, f64>,
        nj: usize,
    ) -> usize {
        let m = c.nrows();
        let rows = m - m % 4;
        if rows == 0 {
            return 0;
        }
        for j0 in (0..nj).step_by(4) {
            // SAFETY: the caller vouches for the host and the shapes, and
            // `nj` is a multiple of 4.
            unsafe { tn_block_f64::<4>(alpha, a, b, c.rb(), rows, j0) };
        }
        rows
    }

    /// Columns `j0..j0 + TJ` of the first `rows` rows of C in `4 x TJ`
    /// tiles.
    ///
    /// # Safety
    /// As for [`tn_rows`], with `rows % 4 == 0` and `j0 + TJ <= c.ncols()`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn tn_block_f64<const TJ: usize>(
        alpha: f64,
        a: MatRef<'_, f64>,
        b: MatRef<'_, f64>,
        mut c: MatMut<'_, f64>,
        rows: usize,
        j0: usize,
    ) {
        let chunks = a.nrows() / LANES;
        let bcols: [*const f64; TJ] = core::array::from_fn(|jj| b.col(j0 + jj).as_ptr());
        // SAFETY: every load reads a whole chunk of a column of A or B.
        unsafe {
            let mut i0 = 0;
            while i0 < rows {
                let acols: [*const f64; 4] = [0, 1, 2, 3].map(|ii| a.col(i0 + ii).as_ptr());
                let mut acc = [[_mm512_setzero_pd(); TJ]; 4];
                for ch in 0..chunks {
                    let mut bv = [_mm512_setzero_pd(); TJ];
                    for (bv_j, bcol) in bv.iter_mut().zip(&bcols) {
                        *bv_j = _mm512_loadu_pd(bcol.add(ch * LANES));
                    }
                    for (acc_i, acol) in acc.iter_mut().zip(&acols) {
                        let av = _mm512_loadu_pd(acol.add(ch * LANES));
                        for (s, &y) in acc_i.iter_mut().zip(&bv) {
                            *s = _mm512_fmadd_pd(av, y, *s);
                        }
                    }
                }
                let mut banks = [[[0.0f64; LANES]; TJ]; 4];
                for (banks_i, acc_i) in banks.iter_mut().zip(&acc) {
                    for (bank, s) in banks_i.iter_mut().zip(acc_i) {
                        _mm512_storeu_pd(bank.as_mut_ptr(), *s);
                    }
                }
                tn_store(alpha, a, b, &mut c, &banks, (i0, j0));
                i0 += 4;
            }
        }
    }
}

/// `y = alpha * op(A) * x + beta * y`.
///
/// After `y *= beta` (`beta == 0` clears it), NoTrans adds `a_j * (alpha *
/// x_j)` onto every `y_i` in ascending `j`, one FMA each, skipping every `j`
/// with `alpha * x_j == 0`; Trans sets `y_j = alpha * d_j + y_j` in one FMA,
/// with `d_j` the [`dots`](crate::blas1::dots) of column `j` and `x`.
pub fn gemv<T: Real>(
    alpha: T,
    op: Op,
    a: MatRef<'_, T>,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    let (m, n) = op_dims(op, a);
    assert_eq!(x.len(), n, "gemv: x length");
    assert_eq!(y.len(), m, "gemv: y length");
    if beta == T::ZERO {
        y.fill(T::ZERO);
    } else if beta != T::ONE {
        crate::blas1::scal(beta, y);
    }
    match op {
        Op::NoTrans => {
            fma_dispatch!(gemv_n_body::<T>(alpha: T, a: MatRef<'_, T>, x: &[T], y: &mut [T]));
            gemv_n_body(alpha, a, x, y)
        }
        Op::Trans => {
            // The dots go through a stack buffer, a block of columns at a time.
            let mut d = [T::ZERO; 64];
            for (j0, yb) in (0..m).step_by(d.len()).zip(y.chunks_mut(d.len())) {
                let d = &mut d[..yb.len()];
                crate::blas1::dots(x, a.submatrix(0, j0, n, yb.len()), d);
                for (yj, &dj) in yb.iter_mut().zip(d.iter()) {
                    *yj = alpha.mul_add(dj, *yj);
                }
            }
        }
    }
}

/// `y += A * (alpha * x)` over the columns with `alpha * x_j != 0`, four
/// at a time so each pass over `y` loads and stores it once per four FMAs;
/// every `y_i` still gets its FMAs in ascending `j`.
#[inline(always)]
fn gemv_n_body<T: Real>(alpha: T, a: MatRef<'_, T>, x: &[T], y: &mut [T]) {
    let mut group: [(&[T], T); 4] = [(&[], T::ZERO); 4];
    let mut len = 0;
    for (j, &xv) in x.iter().enumerate() {
        let xj = alpha * xv;
        if xj != T::ZERO {
            group[len] = (a.col(j), xj);
            len += 1;
            if len == 4 {
                let [(a0, x0), (a1, x1), (a2, x2), (a3, x3)] = group;
                let cols = a0.iter().zip(a1).zip(a2.iter().zip(a3));
                for (yi, ((&v0, &v1), (&v2, &v3))) in y.iter_mut().zip(cols) {
                    let s = v0.mul_add(x0, *yi);
                    let s = v1.mul_add(x1, s);
                    let s = v2.mul_add(x2, s);
                    *yi = v3.mul_add(x3, s);
                }
                len = 0;
            }
        }
    }
    for &(col, xj) in &group[..len] {
        crate::blas1::axpy_body(xj, col, y);
    }
}

/// Rank-1 update `A += alpha * x * y^T`: column `j` gets `x * (alpha * y_j)`,
/// one FMA per entry, unless `alpha * y_j == 0`.
pub fn ger<T: Real>(alpha: T, x: &[T], y: &[T], a: MatMut<'_, T>) {
    assert_eq!(x.len(), a.nrows(), "ger: x length");
    assert_eq!(y.len(), a.ncols(), "ger: y length");
    fma_dispatch!(ger_body::<T>(alpha: T, x: &[T], y: &[T], a: MatMut<'_, T>));
    ger_body(alpha, x, y, a)
}

/// [`ger`] column by column. Taking four columns per pass over `x` measured
/// no faster: the update is bound by its stores, one per entry either way.
#[inline(always)]
fn ger_body<T: Real>(alpha: T, x: &[T], y: &[T], mut a: MatMut<'_, T>) {
    for (j, &yv) in y.iter().enumerate() {
        let yj = alpha * yv;
        if yj != T::ZERO {
            crate::blas1::axpy_body(yj, x, a.col_mut(j));
        }
    }
}

/// Reference triple-loop GEMM used by the test suite to validate the fast
/// kernels. Exact same contraction order sensitivity aside, results must
/// agree to rounding.
pub fn gemm_naive<T: Real>(
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (am, ak) = op_dims(op_a, a);
    let (bk, bn) = op_dims(op_b, b);
    assert_eq!(am, c.nrows());
    assert_eq!(bn, c.ncols());
    assert_eq!(ak, bk);
    let at = |i: usize, l: usize| match op_a {
        Op::NoTrans => a.get(i, l),
        Op::Trans => a.get(l, i),
    };
    let bt = |l: usize, j: usize| match op_b {
        Op::NoTrans => b.get(l, j),
        Op::Trans => b.get(j, l),
    };
    for j in 0..bn {
        for i in 0..am {
            let mut s = T::ZERO;
            for l in 0..ak {
                s += at(i, l) * bt(l, j);
            }
            let v = if beta == T::ZERO {
                alpha * s
            } else {
                alpha * s + beta * c.get(i, j)
            };
            c.set(i, j, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fma::tests::{host_tiers, with_cap};
    use crate::fma::Tier;
    use crate::mat::Mat;

    fn filled(m: usize, n: usize, seed: u64) -> Mat<f64> {
        // Small deterministic pseudo-random values.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn assert_close(a: &Mat<f64>, b: &Mat<f64>, tol: f64) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                let d = (a[(i, j)] - b[(i, j)]).abs();
                assert!(d <= tol, "mismatch at ({i},{j}): {} vs {}", a[(i, j)], b[(i, j)]);
            }
        }
    }

    fn check_all_ops(m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        for (op_a, op_b) in [
            (Op::NoTrans, Op::NoTrans),
            (Op::Trans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::Trans),
        ] {
            let a = match op_a {
                Op::NoTrans => filled(m, k, 1),
                Op::Trans => filled(k, m, 1),
            };
            let b = match op_b {
                Op::NoTrans => filled(k, n, 2),
                Op::Trans => filled(n, k, 2),
            };
            let c0 = filled(m, n, 3);
            let mut c_fast = c0.clone();
            let mut c_ref = c0.clone();
            gemm(alpha, op_a, a.as_ref(), op_b, b.as_ref(), beta, c_fast.as_mut());
            gemm_naive(alpha, op_a, a.as_ref(), op_b, b.as_ref(), beta, c_ref.as_mut());
            assert_close(&c_fast, &c_ref, 1e-10 * (k as f64).max(1.0));
        }
    }

    #[test]
    fn gemm_matches_reference_small_shapes() {
        check_all_ops(5, 7, 3, 1.0, 0.0);
        check_all_ops(1, 1, 1, 2.0, -1.0);
        check_all_ops(17, 19, 23, -0.5, 0.25);
    }

    #[test]
    fn gemm_matches_reference_kernel_boundary_shapes() {
        // Exercise the MR/NR/KC edges.
        check_all_ops(16, 4, 8, 1.0, 1.0);
        check_all_ops(15, 5, 9, 1.0, 0.0);
        check_all_ops(33, 6, 257, 1.0, 0.5);
        check_all_ops(64, 64, 300, -1.0, 1.0);
    }

    #[test]
    fn gemm_above_parallel_leaf() {
        check_all_ops(160, 140, 30, 1.0, 0.0);
    }

    #[test]
    fn gemm_tt_above_parallel_leaf() {
        // The TT path computes D = B A into a transposed scratch per leaf;
        // make sure it composes with the recursion splitting C along both
        // dimensions (150 x 145 > LEAF, near-square so both
        // split directions trigger).
        let a = filled(40, 150, 7); // op_a = Trans: 150 output rows
        let b = filled(145, 40, 8); // op_b = Trans: 145 output cols
        let c0 = filled(150, 145, 9);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        gemm(1.5, Op::Trans, a.as_ref(), Op::Trans, b.as_ref(), 0.5, c_fast.as_mut());
        gemm_naive(1.5, Op::Trans, a.as_ref(), Op::Trans, b.as_ref(), 0.5, c_ref.as_mut());
        assert_close(&c_fast, &c_ref, 1e-10 * 40.0);
    }

    #[test]
    fn gemm_tt_on_submatrix_views() {
        // TT on interior views whose leading dimension exceeds their row
        // count: the scratch accumulate must respect both view strides.
        let abig = filled(12, 11, 10);
        let bbig = filled(13, 9, 11);
        let a = abig.as_ref().submatrix(2, 1, 5, 6); // k x m as stored
        let b = bbig.as_ref().submatrix(3, 2, 7, 5); // n x k as stored
        let c0 = filled(6, 7, 12);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        gemm(-0.5, Op::Trans, a, Op::Trans, b, 1.0, c_fast.as_mut());
        gemm_naive(-0.5, Op::Trans, a, Op::Trans, b, 1.0, c_ref.as_mut());
        assert_close(&c_fast, &c_ref, 1e-12);
    }

    #[test]
    fn gemm_zero_k_scales_c() {
        let a: Mat<f64> = Mat::zeros(3, 0);
        let b: Mat<f64> = Mat::zeros(0, 2);
        let mut c = filled(3, 2, 9);
        let expect = Mat::from_fn(3, 2, |i, j| 2.0 * c[(i, j)]);
        gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 2.0, c.as_mut());
        assert_close(&c, &expect, 0.0);
    }

    #[test]
    fn gemm_beta_zero_clears_nan() {
        let a: Mat<f64> = Mat::identity(2, 2);
        let b: Mat<f64> = Mat::identity(2, 2);
        let mut c = Mat::zeros(2, 2);
        c[(0, 0)] = f64::NAN;
        gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        assert!(c.all_finite());
        assert_eq!(c[(0, 0)], 1.0);
    }

    #[test]
    fn gemm_alpha_zero_only_scales() {
        let a = filled(4, 4, 1);
        let b = filled(4, 4, 2);
        let mut c = filled(4, 4, 3);
        let expect = Mat::from_fn(4, 4, |i, j| 0.5 * c[(i, j)]);
        gemm(0.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.5, c.as_mut());
        assert_close(&c, &expect, 0.0);
    }

    #[test]
    fn gemm_on_submatrix_views() {
        // Operate on interior views with ld > nrows.
        let abig = filled(10, 10, 4);
        let bbig = filled(10, 10, 5);
        let a = abig.as_ref().submatrix(1, 1, 6, 4);
        let b = bbig.as_ref().submatrix(2, 3, 4, 5);
        let mut c = Mat::zeros(6, 5);
        gemm(1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, c.as_mut());
        let mut c_ref = Mat::zeros(6, 5);
        gemm_naive(1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, c_ref.as_mut());
        assert_close(&c, &c_ref, 1e-12);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_checked() {
        let a: Mat<f64> = Mat::zeros(2, 3);
        let b: Mat<f64> = Mat::zeros(4, 2);
        let mut c: Mat<f64> = Mat::zeros(2, 2);
        gemm(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    }

    #[test]
    fn gemv_matches_gemm() {
        let a = filled(7, 5, 11);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut y = vec![1.0f64; 7];
        gemv(2.0, Op::NoTrans, a.as_ref(), &x, 3.0, &mut y);
        // Reference via gemm on column vectors.
        let xm = Mat::from_col_major(5, 1, x.clone());
        let mut ym = Mat::from_col_major(7, 1, vec![1.0f64; 7]);
        gemm_naive(2.0, Op::NoTrans, a.as_ref(), Op::NoTrans, xm.as_ref(), 3.0, ym.as_mut());
        for i in 0..7 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-12);
        }
        // Transposed.
        let mut z = vec![0.5f64; 5];
        gemv(1.0, Op::Trans, a.as_ref(), &y, -1.0, &mut z);
        let ym2 = Mat::from_col_major(7, 1, y.clone());
        let mut zm = Mat::from_col_major(5, 1, vec![0.5f64; 5]);
        gemm_naive(1.0, Op::Trans, a.as_ref(), Op::NoTrans, ym2.as_ref(), -1.0, zm.as_mut());
        for j in 0..5 {
            assert!((z[j] - zm[(j, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn ger_matches_reference() {
        let mut a = filled(4, 3, 6);
        let a0 = a.clone();
        let x = [1.0f64, -1.0, 2.0, 0.5];
        let y = [3.0f64, 0.0, -2.0];
        ger(0.5, &x, &y, a.as_mut());
        for j in 0..3 {
            for i in 0..4 {
                let expect = a0[(i, j)] + 0.5 * x[i] * y[j];
                assert!((a[(i, j)] - expect).abs() < 1e-14);
            }
        }
    }

    /// Bits of `x`, widened to f64 (exact for f32, including -0.0 and
    /// subnormals). Every NaN maps to one value: IEEE 754 fixes neither the
    /// sign nor the payload an operation gives a NaN result.
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

    /// The per-element order one sequential leaf promises, in plain scalar
    /// code: NN/NT accumulate `a * (alpha * b)` onto the scaled C in k order;
    /// TT builds `D = B A` that way from zero and adds it; TN sums 8 k-lanes,
    /// a tail and a fixed tree inside its 2x4 tiles and uses `dot`'s 4-lane
    /// order at the edges, then adds `alpha * s`.
    #[allow(clippy::too_many_arguments)]
    fn leaf_spec<T: Real>(
        alpha: T,
        op_a: Op,
        a: MatRef<'_, T>,
        op_b: Op,
        b: MatRef<'_, T>,
        beta: T,
        c: MatRef<'_, T>,
        i: usize,
        j: usize,
    ) -> T {
        let (m, k) = op_dims(op_a, a);
        let n = c.ncols();
        let c0 = if beta == T::ONE {
            c.get(i, j)
        } else if beta == T::ZERO {
            T::ZERO
        } else {
            c.get(i, j) * beta
        };
        match (op_a, op_b) {
            (Op::NoTrans, _) => (0..k).fold(c0, |s, l| {
                let bv = match op_b {
                    Op::NoTrans => b.get(l, j),
                    Op::Trans => b.get(j, l),
                };
                a.get(i, l).mul_add(alpha * bv, s)
            }),
            (Op::Trans, Op::Trans) => {
                c0 + (0..k).fold(T::ZERO, |d, l| b.get(j, l).mul_add(alpha * a.get(l, i), d))
            }
            (Op::Trans, Op::NoTrans) => {
                let (x, y) = (a.col(i), b.col(j));
                let s = if i < m - m % 2 && j < n - n % 4 {
                    let mut lanes = [T::ZERO; 8];
                    for l in 0..k - k % 8 {
                        lanes[l % 8] = x[l].mul_add(y[l], lanes[l % 8]);
                    }
                    let tail = (k - k % 8..k).fold(T::ZERO, |s, l| x[l].mul_add(y[l], s));
                    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
                    tail + (((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7)))
                } else {
                    let mut p = [T::ZERO; 4];
                    for l in 0..k - k % 4 {
                        p[l % 4] = x[l].mul_add(y[l], p[l % 4]);
                    }
                    p[0] = (k - k % 4..k).fold(p[0], |s, l| x[l].mul_add(y[l], s));
                    (p[0] + p[1]) + (p[2] + p[3])
                };
                c0 + alpha * s
            }
        }
    }

    /// `gemm` under every tier in `tiers` against the portable leaf, bit
    /// for bit, and the portable leaf against [`leaf_spec`].
    fn gemm_oracle_for<T: Real>(tiers: &[Tier]) {
        // Shapes straddle the NN/NT row tiles (16 and 32 rows in f32, 8 and
        // 16 in f64) and their NR = 6 columns, KC = 256, the TN tiles (2
        // rows by 4 or 6 columns, 4 rows by 4 pairs in f32 or 4 columns in
        // f64, 8 k-lanes with k mod 8 != 0) and LEAF = 128 * 128 (the last
        // two of the first list split). Then whole leaves (one full and one
        // single-column last KC block, and both remainders at once). Then
        // the edges of the 512-bit tiles: row counts around 32 and 64 and
        // every m mod 4, by every n mod 6 and n mod 4 (a lone last column
        // of a pair included), at a short k and at a k past KC.
        let shapes = [
            (1, 1, 1),
            (2, 4, 8),
            (3, 5, 9),
            (15, 3, 7),
            (16, 4, 8),
            (17, 9, 13),
            (33, 7, 255),
            (31, 6, 257),
            (20, 10, 300),
            (131, 127, 21),
            (129, 133, 11),
            (128, 128, 1024),
            (128, 128, 257),
            (98, 130, 64),
        ];
        let edges = [4, 5, 6, 7, 16, 17, 31, 32, 33, 34, 47, 48, 63, 64, 65]
            .into_iter()
            .flat_map(|m| {
                (1..=13usize).map(move |n| (m, n, if n.is_multiple_of(2) { 19 } else { 261 }))
            });
        for (m, n, k) in shapes.into_iter().chain(edges) {
            for (op_a, op_b) in [
                (Op::NoTrans, Op::NoTrans),
                (Op::Trans, Op::NoTrans),
                (Op::NoTrans, Op::Trans),
                (Op::Trans, Op::Trans),
            ] {
                let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                // Interior views: every leading dimension exceeds its rows.
                let abig: Mat<T> = filled(ar + 3, ac + 2, 1).convert();
                let bbig: Mat<T> = filled(br + 2, bc + 1, 2).convert();
                let mut cbig: Mat<T> = filled(m + 4, n + 2, 3).convert();
                // NaN in C, which beta = 0 must clear.
                cbig[(1, 1)] = T::from_f64(f64::NAN);
                cbig[(m, n)] = T::from_f64(f64::NAN);
                let a = abig.as_ref().submatrix(2, 1, ar, ac);
                let b = bbig.as_ref().submatrix(1, 1, br, bc);
                for alpha in [1.0, -0.5] {
                    for beta in [0.0, 1.0, 0.25] {
                        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                        let what = format!(
                            "{} gemm {op_a:?}/{op_b:?} {m}x{n}x{k} alpha={alpha} beta={beta}",
                            T::NAME
                        );
                        let mut want = cbig.clone();
                        let want_c = want.as_mut().submatrix_mut(1, 1, m, n);
                        gemm_with(seq_body, alpha, op_a, a, op_b, b, beta, want_c);
                        for &tier in tiers {
                            let mut got = cbig.clone();
                            let got_c = got.as_mut().submatrix_mut(1, 1, m, n);
                            with_cap(tier, || gemm(alpha, op_a, a, op_b, b, beta, got_c));
                            assert_same_bits(&format!("{tier:?} {what}"), got.data(), want.data());
                        }
                        if m * n <= LEAF {
                            let c = cbig.as_ref().submatrix(1, 1, m, n);
                            for j in 0..n {
                                for i in 0..m {
                                    let spec = leaf_spec(alpha, op_a, a, op_b, b, beta, c, i, j);
                                    assert_eq!(
                                        bits(want[(i + 1, j + 1)]),
                                        bits(spec),
                                        "{what}: ({i},{j}) departs from the leaf order"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Values spread over many binades, with NaN, +-inf, a subnormal and
    /// -0.0 planted by `specials` (a bit set: 1 NaN, 2 inf, 4 subnormal and
    /// -0.0).
    fn blas1_input<T: Real>(len: usize, seed: u64, specials: u32) -> Vec<T> {
        let mut v: Vec<T> = filled(len, 1, seed)
            .data()
            .iter()
            .enumerate()
            .map(|(i, &x)| T::from_f64(x * 2f64.powi((i % 13) as i32 - 6)))
            .collect();
        let subnormal = T::from_f64(if T::NAME == "f32" { 1e-40 } else { 1e-310 });
        let mut plant = |bit: u32, at: usize, x: T| {
            if specials & bit != 0 && len > 0 {
                v[at % len] = x;
            }
        };
        plant(1, 3, T::from_f64(f64::NAN));
        plant(2, 5, T::from_f64(f64::INFINITY));
        plant(2, 11, T::from_f64(f64::NEG_INFINITY));
        plant(4, 2, subnormal);
        plant(4, 7, T::from_f64(-0.0));
        v
    }

    fn blas1_oracle_for<T: Real>() {
        use crate::blas1::{axpy, axpy_body, dot, dot_body, nrm2, nrm2_body};
        for len in (0..=40).chain([1024]) {
            for specials in 0..8 {
                let x: Vec<T> = blas1_input(len, 10 + len as u64, specials);
                let y: Vec<T> = blas1_input(len, 20 + len as u64, specials & 4);
                let what = format!("{} len={len} specials={specials}", T::NAME);
                assert_same_bits(&format!("dot {what}"), &[dot(&x, &y)], &[dot_body(&x, &y)]);
                assert_same_bits(&format!("nrm2 {what}"), &[nrm2(&x)], &[nrm2_body(&x)]);
                for alpha in [1.0, -0.75] {
                    let alpha = T::from_f64(alpha);
                    let mut got = y.clone();
                    let mut want = y.clone();
                    axpy(alpha, &x, &mut got);
                    axpy_body(alpha, &x, &mut want);
                    assert_same_bits(&format!("axpy alpha={alpha} {what}"), &got, &want);
                }
            }
        }
    }

    /// An `m x n` interior view's backing matrix (rows `1..=m`, columns
    /// `1..=n`): column `j` is a [`blas1_input`] with `specials` on even
    /// columns and only the subnormal and -0.0 on odd ones; column 5 is
    /// zero and column 7 repeats column 1.
    fn level2_input<T: Real>(m: usize, n: usize, seed: u64, specials: u32) -> Mat<T> {
        let mut a: Mat<T> = filled(m + 3, n + 2, seed).convert();
        for j in 0..n {
            let bits = if j % 2 == 0 { specials } else { specials & 4 };
            let col: Vec<T> = match j {
                5 => vec![T::ZERO; m],
                7 => blas1_input(m, seed + 1, specials & 4),
                _ => blas1_input(m, seed + j as u64, bits),
            };
            a.col_mut(j + 1)[1..=m].copy_from_slice(&col);
        }
        a
    }

    /// A level-2 kernel's vector: a [`blas1_input`] with entries 2 and 6
    /// set to +0.0 and -0.0, so the `alpha * x_j == 0` skips run.
    fn level2_vec<T: Real>(len: usize, seed: u64, specials: u32) -> Vec<T> {
        let mut v: Vec<T> = blas1_input(len, seed, specials);
        for (at, z) in [(2, 0.0), (6, -0.0)] {
            if at < len {
                v[at] = T::from_f64(z);
            }
        }
        v
    }

    /// `dots`, `gemv` and `ger` against the per-column loops they replace:
    /// `dot_body` per column, `axpy_body` per non-skipped column in
    /// ascending order, and one `alpha * d_j + y_j` FMA per Trans entry.
    fn level2_oracle_for<T: Real>() {
        use crate::blas1::{axpy_body, dot_body, dots};
        for m in (0..=40).chain([1024]) {
            for n in 0..=9 {
                for specials in 0..8 {
                    let what = format!("{} {m}x{n} specials={specials}", T::NAME);
                    let abig: Mat<T> = level2_input(m, n, 30 + m as u64, specials);
                    let a = abig.as_ref().submatrix(1, 1, m, n);
                    let xm: Vec<T> = level2_vec(m, 40 + m as u64, specials);
                    let xn: Vec<T> = level2_vec(n, 50 + n as u64, specials);

                    let mut got = vec![T::from_f64(7.0); n];
                    dots(&xm, a, &mut got);
                    let want: Vec<T> = (0..n).map(|j| dot_body(&xm, a.col(j))).collect();
                    assert_same_bits(&format!("dots {what}"), &got, &want);

                    for (alpha, beta) in [(1.0, 0.0), (-1.0, 1.0), (0.5, -2.0)] {
                        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                        // `y *= beta`, with `beta == 0` clearing it.
                        let scaled = |y: &[T]| -> Vec<T> {
                            let scale = |v: T| if beta == T::ZERO { T::ZERO } else { v * beta };
                            y.iter().map(|&v| scale(v)).collect()
                        };
                        let what = format!("{what} alpha={alpha} beta={beta}");
                        let y0: Vec<T> = level2_vec(m, 60 + m as u64, specials & 4);
                        let mut got = y0.clone();
                        gemv(alpha, Op::NoTrans, a, &xn, beta, &mut got);
                        let mut want = scaled(&y0);
                        for (j, &xv) in xn.iter().enumerate() {
                            if alpha * xv != T::ZERO {
                                axpy_body(alpha * xv, a.col(j), &mut want);
                            }
                        }
                        assert_same_bits(&format!("gemv N {what}"), &got, &want);

                        let y0: Vec<T> = level2_vec(n, 70 + n as u64, specials & 4);
                        let mut got = y0.clone();
                        gemv(alpha, Op::Trans, a, &xm, beta, &mut got);
                        let mut want = scaled(&y0);
                        for (j, w) in want.iter_mut().enumerate() {
                            *w = alpha.mul_add(dot_body(a.col(j), &xm), *w);
                        }
                        assert_same_bits(&format!("gemv T {what}"), &got, &want);

                        let mut got = abig.clone();
                        ger(alpha, &xm, &xn, got.as_mut().submatrix_mut(1, 1, m, n));
                        let mut want = abig.clone();
                        for (j, &yv) in xn.iter().enumerate() {
                            if alpha * yv != T::ZERO {
                                axpy_body(alpha * yv, &xm, &mut want.col_mut(j + 1)[1..=m]);
                            }
                        }
                        assert_same_bits(&format!("ger {what}"), got.data(), want.data());
                    }
                }
            }
        }
    }

    /// The best wall time of one call of `f`, over calls run for at least
    /// `budget` and at least five times.
    fn best_secs(budget: std::time::Duration, f: &mut dyn FnMut()) -> f64 {
        use std::time::Instant;
        let start = Instant::now();
        let mut best = f64::INFINITY;
        let mut runs = 0;
        while runs < 5 || start.elapsed() < budget {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
            runs += 1;
        }
        best
    }

    /// GFLOP/s of `alpha = -1, beta = 1` gemm at C = `cm x cn`, inner
    /// dimension `k`, best of calls over `budget`.
    fn gemm_gflops<T: Real>(
        op_a: Op,
        op_b: Op,
        (cm, cn, k): (usize, usize, usize),
        budget: std::time::Duration,
    ) -> f64 {
        let (ar, ac) = if op_a == Op::NoTrans { (cm, k) } else { (k, cm) };
        let (br, bc) = if op_b == Op::NoTrans { (k, cn) } else { (cn, k) };
        let a: Mat<T> = filled(ar, ac, 1).convert();
        let b: Mat<T> = filled(br, bc, 2).convert();
        let mut c: Mat<T> = filled(cm, cn, 3).convert();
        let minus_one = T::from_f64(-1.0);
        let secs = best_secs(budget, &mut || {
            gemm(minus_one, op_a, a.as_ref(), op_b, b.as_ref(), T::ONE, c.as_mut());
            std::hint::black_box(c.data());
        });
        2.0 * (cm * cn * k) as f64 / secs * 1e-9
    }

    /// Wall rate of the small products a serve-mix job runs, against which
    /// kernel changes are judged shape by shape. For m in 128..=256 and a
    /// job width w in {32, 48, 64}: NN at m x w x w and at the recursion's
    /// m x w/2 x w/2 update, TN at its w/2 x w/2 x m reduction, and NT at
    /// the low-rank reconstruction's m x w x w. Prints best-of-run GFLOP/s
    /// per vector tier this host has; run with `cargo test -p densemat
    /// --release gemm_shape_grid -- --nocapture`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing: run with --release")]
    fn gemm_shape_grid_timing() {
        let budget = std::time::Duration::from_millis(40);
        let (nn, tn, nt) = (Op::NoTrans, Op::Trans, Op::NoTrans);
        let tiers: Vec<Tier> = host_tiers().into_iter().filter(|&t| t > Tier::Portable).collect();
        let names: Vec<String> = tiers.iter().map(|t| format!("{:>8}", format!("{t:?}"))).collect();
        println!("  op    m    n    k {}  (GFLOP/s)", names.join(" "));
        for m in [128, 160, 192, 224, 256] {
            let nn_shapes = [16, 24, 32, 48, 64].map(|n| ("NN", nn, nn, m, n, n));
            let tn_shapes = [16, 24, 32].map(|h| ("TN", tn, nn, h, h, m));
            let nt_shapes = [32, 48, 64].map(|n| ("NT", nt, Op::Trans, m, n, n));
            let shapes = nn_shapes.into_iter().chain(tn_shapes).chain(nt_shapes);
            for (name, op_a, op_b, cm, cn, k) in shapes {
                let rates: Vec<String> = tiers
                    .iter()
                    .map(|&tier| {
                        let gflops =
                            with_cap(tier, || gemm_gflops::<f32>(op_a, op_b, (cm, cn, k), budget));
                        format!("{gflops:>8.2}")
                    })
                    .collect();
                println!("{name:>4} {cm:>4} {cn:>4} {k:>4} {}", rates.join(" "));
            }
        }
    }

    /// Wall rate of the products the benchmark's update paths run, per
    /// tier this host has, in f32 and f64: the RGSQRF trailing updates
    /// (TN `QᵀA` and NN `A - QR` at two panel widths), the CAQR panel
    /// products of a 16384-row least-squares problem, and the TSQR Q
    /// update. Prints best-of-run GFLOP/s, the tiers taking turns three
    /// times per shape so a slow spell of a shared host hits them alike;
    /// run with `cargo test -p densemat --release update_shape --
    /// --nocapture`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing: run with --release")]
    fn update_shape_timing() {
        let budget = std::time::Duration::from_millis(50);
        let (nn, tn) = (Op::NoTrans, Op::Trans);
        let shapes = [
            (tn, (256, 256, 1024)),
            (nn, (1024, 256, 256)),
            (tn, (128, 128, 1024)),
            (nn, (1024, 128, 128)),
            (tn, (64, 64, 16384)),
            (tn, (32, 32, 16384)),
            (nn, (16384, 64, 64)),
            (nn, (16384, 32, 32)),
            (nn, (256, 32, 32)),
        ];
        let tiers = host_tiers();
        let names: Vec<String> = tiers.iter().map(|t| format!("{:>8}", format!("{t:?}"))).collect();
        println!("type op     m     n     k {}  (GFLOP/s)", names.join(" "));
        for name in ["f32", "f64"] {
            for &(op_a, (m, n, k)) in &shapes {
                let mut best = vec![0.0f64; tiers.len()];
                for _ in 0..3 {
                    for (b, &tier) in best.iter_mut().zip(&tiers) {
                        let gflops = with_cap(tier, || match name {
                            "f32" => gemm_gflops::<f32>(op_a, nn, (m, n, k), budget),
                            _ => gemm_gflops::<f64>(op_a, nn, (m, n, k), budget),
                        });
                        *b = b.max(gflops);
                    }
                }
                let rates: Vec<String> = best.iter().map(|g| format!("{g:>8.2}")).collect();
                let op = if op_a == tn { "TN" } else { "NN" };
                println!("{name:>4} {op:>2} {m:>5} {n:>5} {k:>5} {}", rates.join(" "));
            }
        }
    }

    #[test]
    fn fma_path_is_bit_identical_to_portable_path() {
        let tiers = host_tiers();
        println!("comparing the {tiers:?} kernels with the portable kernels");
        if !tiers.contains(&Tier::Avx512) {
            println!("no AVX-512F on this host: the AVX-512 kernels did not run");
        }
        gemm_oracle_for::<f32>(&tiers);
        gemm_oracle_for::<f64>(&tiers);
        for &tier in &tiers {
            with_cap(tier, || {
                blas1_oracle_for::<f32>();
                blas1_oracle_for::<f64>();
                level2_oracle_for::<f32>();
                level2_oracle_for::<f64>();
                crate::svd::tests::jacobi_oracle_for::<f32>();
                crate::svd::tests::jacobi_oracle_for::<f64>();
            });
        }
    }
}
