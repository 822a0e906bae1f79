//! Level-3 BLAS: general matrix-matrix multiplication, plus GEMV/GER.
//!
//! `gemm` computes `C = alpha * op(A) * op(B) + beta * C` for all four
//! transpose combinations. C is scaled by `beta` first (`beta == 0` clears
//! it), then each op pair runs its kernel:
//!
//! - **NN and NT: blocked loops over packed operands**, in the GotoBLAS
//!   order. Per `NC`-column block of C and `KC` block of the inner
//!   dimension, `alpha * op(B)` is packed once into `NR`-wide micro-panels
//!   (zero-padded past the last column) that every row of C reuses. Then,
//!   two 512-bit vectors of rows at a time (32 f32 or 16 f64), those rows
//!   of A are packed into one contiguous micro-panel (zero-padded past the
//!   last row), read in sequence by a register tile that runs it against
//!   each B micro-panel onto C. C is loaded and stored back exactly around
//!   every KC block, so each C element gets `fma(a, alpha * b, c)` in k
//!   order whatever the block sizes, and they are free to follow the
//!   caches: the A micro-panel stays in L1 while the packed B block
//!   streams past it from L2.
//! - **TN: a binary recursion over C, then lanes.** C is split along its
//!   larger dimension until a leaf of at most `LEAF` elements is reached.
//!   Inside a leaf, both operands stream along k (their stored columns), so
//!   each C entry keeps a bank of 8 k-lanes reduced once at the end; the
//!   entries of an odd last row and the `n mod 4` last columns of *each
//!   leaf* are plain dot products instead. That rule is why TN keeps the
//!   recursion: another partition would change the bits of those entries.
//! - **TT** (no hot path uses it) builds `D = B (alpha A)` with the NN
//!   kernel into scratch and adds `D^T`.
//!
//! A product of at least `PAR` multiply-adds runs as two halves on two
//! threads (rows of C for NN/NT; for TN, the recursion's first split, or
//! the columns of a lone leaf at a multiple of 4), and `gemv` on at least
//! `GEMV_PAR` entries of A splits y in two the same way, each half
//! computing its outputs exactly as one thread would (see
//! [`crate::par::both`]).
//!
//! The pack buffers come from the per-thread scratch pool
//! ([`crate::par::Scratch`]), which grows each buffer to the largest shape
//! it has served and reuses it in every later call; each buffer is written
//! before it is read. Rust does not reassociate floating point, so every
//! kernel keeps its SIMD lanes on *independent* accumulators (rows of C for
//! NN/NT, k-lanes for TN) and the blocking never changes any C element's
//! order of operations.
//!
//! Every kernel runs in the host's tier (see `fma.rs`), dispatched once per
//! NN/NT call and once per TN leaf. The portable and AVX2+FMA tiers compile
//! one source: NN/NT's `MR x 6` sub-tiles of the packed tile (`MR` = 16 f32
//! or 8 f64) and TN's tiles of 2 rows by `TJ` columns. The AVX-512 tier runs
//! explicit 512-bit tiles (module `x86`) instead: the whole `2 MR x 12`
//! packed tile for NN/NT, and for TN 4-row tiles over k blocks whose packed
//! B block and A stream fit L1. Every tier returns the same bits.

use crate::mat::{Mat, MatMut, MatRef};
use crate::par::{both, Scratch};
use crate::real::Real;

/// Transpose selector for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

/// Inner-dimension block of the NN/NT kernel: a packed `KC x NR` micro-panel
/// of `alpha * op(B)` (12 KB in f32, 24 KB in f64) stays in L1.
const KC: usize = 256;
/// Column block of the NN/NT kernel: the packed `KC x NC` block of
/// `alpha * op(B)` that every row block reuses. A multiple of `NR`.
const NC: usize = 1008;
/// Width of a packed B micro-panel: the NN/NT register tile's columns.
const NR: usize = 12;
/// Products of at least this many multiply-adds run in two halves on two
/// threads: NN/NT by rows of C, TN by the recursion's first split (a lone
/// leaf by its columns), so every C element keeps its order. Posting a
/// half to the helper thread costs the caller under 2 us, and a parked
/// helper begins it about 15 us later, against the 340 us or so one of
/// qr-ec's 2^24-sized update products (NN 1024x128x128, TN 128x128x1024)
/// takes on one thread. This crate's unit tests split from 64K on, so the
/// oracle runs the split too.
#[cfg(not(test))]
const PAR: usize = 1 << 24;
#[cfg(test)]
const PAR: usize = 1 << 16;
/// Stop splitting a TN C below this many output elements.
const LEAF: usize = 128 * 128;

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
    scale_c(beta, c.rb());
    if ak == 0 || alpha == T::ZERO {
        return;
    }
    let par = am * bn * ak >= PAR;
    match (op_a, op_b) {
        (Op::NoTrans, _) if par && am >= 64 => {
            // Whole f32 micro-panels per half; each half packs B itself.
            let i = (am / 2).next_multiple_of(32);
            let (a1, a2) = a.split_at_row(i);
            let (c1, c2) = c.split_at_row_mut(i);
            both(
                true,
                || nn_dispatch(alpha, a1, op_b, b, c1),
                || nn_dispatch(alpha, a2, op_b, b, c2),
            );
        }
        (Op::NoTrans, _) => nn_dispatch(alpha, a, op_b, b, c),
        (Op::Trans, Op::NoTrans) => split_rec(alpha, a, b, c, par),
        (Op::Trans, Op::Trans) => {
            // C += alpha (B A)^T: compute D = B A into scratch, add D^T.
            let mut d: Mat<T> = Mat::zeros(c.ncols(), c.nrows());
            nn_dispatch(alpha, b, Op::NoTrans, a, d.as_mut());
            for j in 0..c.ncols() {
                for i in 0..c.nrows() {
                    let v = c.get(i, j) + d[(j, i)];
                    c.set(i, j, v);
                }
            }
        }
    }
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

/// The NN/NT kernel [`gemm`] runs: [`nn_body`] compiled for AVX2+FMA, or
/// [`x86::nn_wide`] with the explicit 512-bit tile, by the host's tier.
fn nn_dispatch<T: Real>(alpha: T, a: MatRef<'_, T>, op_b: Op, b: MatRef<'_, T>, c: MatMut<'_, T>) {
    fma_dispatch!(nn_body::<T>(
        alpha: T, a: MatRef<'_, T>, op_b: Op, b: MatRef<'_, T>, c: MatMut<'_, T>
    ); avx512 = x86::nn_wide);
    nn_body(alpha, a, op_b, b, c)
}

/// `C += alpha * A * op_b(B)` as the portable and AVX2+FMA tiers run it.
#[inline(always)]
fn nn_body<T: Real>(alpha: T, a: MatRef<'_, T>, op_b: Op, b: MatRef<'_, T>, c: MatMut<'_, T>) {
    nn_accum::<T, false>(alpha, a, op_b, b, c)
}

/// `C += alpha * A * op_b(B)`: NN and NT share one kernel and differ only
/// in how B is packed. `WIDE` runs the explicit AVX-512 tile; only
/// [`x86::nn_wide`] sets it.
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

/// [`nn_accum`] with A micro-panels of `2 MR` rows, in the GotoBLAS loops:
/// column blocks of C, KC blocks (pack B), A micro-panels (pack each one as
/// it is reached), then every B micro-panel against it in the register
/// tile. A packed A block of more than one micro-panel measured slower on
/// the small shapes (NN 256x32x32 f32: about 1 us of a 5 us call went to
/// writing it out of L1) and no faster on the large ones, whose micro-panel
/// (32 KB at KC) stays in L1 across the B micro-panels either way. Neither
/// the textbook order (B micro-panels outside a packed block of A rows) nor
/// software prefetch of the next C tile and A micro-panel ran qr-ec's
/// update products faster.
#[inline(always)]
fn nn_blocks<T: Real, const MR: usize, const WIDE: bool>(
    alpha: T,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
) {
    let (m, n, k) = (c.nrows(), c.ncols(), a.ncols());
    let mp = 2 * MR;
    let kc_max = KC.min(k);
    let a_len = mp * kc_max;
    let b_len = kc_max * NC.min(n).next_multiple_of(NR);
    let mut scratch = Scratch::take();
    let (a_buf, b_buf) = scratch.slice::<T>(a_len + b_len).split_at_mut(a_len);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b_blk = match op_b {
                Op::NoTrans => b.submatrix(pc, jc, kc, nc),
                Op::Trans => b.submatrix(jc, pc, nc, kc),
            };
            let bp = pack_b(alpha, op_b, b_blk, b_buf);
            for ic in (0..m).step_by(mp) {
                let mc = mp.min(m - ic);
                let ap = pack_a(mp, a.submatrix(ic, pc, mc, kc), a_buf);
                let c_row = c.rb().submatrix_mut(ic, jc, mc, nc);
                #[cfg(target_arch = "x86_64")]
                if WIDE && x86::has_tiles::<T>() {
                    // SAFETY: only the AVX-512 kernel sets `WIDE`; `ap` holds
                    // `2 MR` rows of `kc`, and `bp` every B micro-panel of
                    // the block.
                    unsafe { x86::nn_row(ap, bp, c_row) };
                    continue;
                }
                nn_row::<T, MR>(ap, bp, c_row);
            }
        }
    }
}

/// Pack `alpha * op_b(B)` for one block (`b` is the block as stored: `kc x
/// nc` for NoTrans, `nc x kc` for Trans) into `ceil(nc / NR)` micro-panels
/// of `kc` rows of `NR`, zero-padded past column `nc`, and return them.
#[inline(always)]
fn pack_b<'s, T: Real>(alpha: T, op_b: Op, b: MatRef<'_, T>, buf: &'s mut [T]) -> &'s [T] {
    let (kc, nc) = op_dims(op_b, b);
    let buf = &mut buf[..kc * nc.next_multiple_of(NR)];
    // The pad columns of an edge micro-panel read zeros (times alpha: no C
    // entry ever reads them).
    let zeros = [T::ZERO; KC];
    for (q, pan) in buf.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = q * NR;
        let w = NR.min(nc - j0);
        match op_b {
            Op::NoTrans => {
                let cols: [&[T]; NR] = core::array::from_fn(|jj| {
                    if jj < w {
                        &b.col(j0 + jj)[..kc]
                    } else {
                        &zeros[..kc]
                    }
                });
                for (l, row) in pan.chunks_exact_mut(NR).enumerate() {
                    for (p, col) in row.iter_mut().zip(&cols) {
                        *p = alpha * col[l];
                    }
                }
            }
            Op::Trans => {
                for (l, row) in pan.chunks_exact_mut(NR).enumerate() {
                    let (head, pad) = row.split_at_mut(w);
                    for (p, &x) in head.iter_mut().zip(&b.col(l)[j0..j0 + w]) {
                        *p = alpha * x;
                    }
                    pad.fill(T::ZERO);
                }
            }
        }
    }
    buf
}

/// Pack the `mc x kc` block `a` (`mc <= mp`) into one micro-panel of `kc`
/// columns of `mp` rows, zero-padded past row `mc`, and return it.
#[inline(always)]
fn pack_a<'s, T: Real>(mp: usize, a: MatRef<'_, T>, buf: &'s mut [T]) -> &'s [T] {
    let (mc, kc) = (a.nrows(), a.ncols());
    let buf = &mut buf[..mp * kc];
    for (l, dst) in buf.chunks_exact_mut(mp).enumerate() {
        let (head, pad) = dst.split_at_mut(mc);
        head.copy_from_slice(a.col(l));
        pad.fill(T::ZERO);
    }
    buf
}

/// Up to `2 MR` rows of C from one packed A micro-panel `ap` against every
/// B micro-panel in `bp`, as the compiled tiers run it.
#[inline(always)]
fn nn_row<T: Real, const MR: usize>(ap: &[T], bp: &[T], mut c: MatMut<'_, T>) {
    let (m, n) = (c.nrows(), c.ncols());
    let kc = ap.len() / (2 * MR);
    for (j, b_pan) in (0..n).step_by(NR).zip(bp.chunks_exact(kc * NR)) {
        nn_tile::<T, MR>(ap, b_pan, c.rb().submatrix_mut(0, j, m, NR.min(n - j)));
    }
}

/// The packed tile as the compiled tiers run it: the `2 MR x NR` tile of C
/// (its valid `rows x cols` corner is `c`) in four `MR x 6` register
/// sub-tiles, each of the A micro-panel `ap` (`2 MR` entries per k) against
/// six columns of the B micro-panel `bp` (`NR` per k), one broadcast per
/// B entry, lanes down the rows.
#[inline(always)]
fn nn_tile<T: Real, const MR: usize>(ap: &[T], bp: &[T], mut c: MatMut<'_, T>) {
    let (rows, cols) = (c.nrows(), c.ncols());
    for r0 in (0..rows).step_by(MR) {
        let h = MR.min(rows - r0);
        for j0 in (0..cols).step_by(6) {
            let w = 6.min(cols - j0);
            if h == MR && w == 6 {
                // A whole sub-tile loads straight into the registers; a
                // runtime-length copy into `acc` would keep it in memory.
                let mut acc: [[T; MR]; 6] = core::array::from_fn(|jj| {
                    c.col(j0 + jj)[r0..r0 + MR]
                        .try_into()
                        .expect("an MR-long slice converts to [T; MR]")
                });
                nn_sub(&mut acc, ap, r0, bp, j0);
                for (jj, accj) in acc.iter().enumerate() {
                    c.col_mut(j0 + jj)[r0..r0 + MR].copy_from_slice(accj);
                }
                continue;
            }
            let mut acc = [[T::ZERO; MR]; 6];
            for (jj, accj) in acc[..w].iter_mut().enumerate() {
                accj[..h].copy_from_slice(&c.col(j0 + jj)[r0..r0 + h]);
            }
            nn_sub(&mut acc, ap, r0, bp, j0);
            for (jj, accj) in acc[..w].iter().enumerate() {
                c.col_mut(j0 + jj)[r0..r0 + h].copy_from_slice(&accj[..h]);
            }
        }
    }
}

/// One `MR x 6` register sub-tile: rows `r0..r0 + MR` of each A entry row
/// against columns `j0..j0 + 6` of each B entry row, onto `acc`.
#[inline(always)]
fn nn_sub<T: Real, const MR: usize>(
    acc: &mut [[T; MR]; 6],
    ap: &[T],
    r0: usize,
    bp: &[T],
    j0: usize,
) {
    for (al, bl) in ap.chunks_exact(2 * MR).zip(bp.chunks_exact(NR)) {
        let acol: &[T; MR] = al[r0..r0 + MR]
            .try_into()
            .expect("an MR-long slice converts to [T; MR]");
        let brow: &[T; 6] = bl[j0..j0 + 6]
            .try_into()
            .expect("a 6-long slice converts to [T; 6]");
        for (accj, &bv) in acc.iter_mut().zip(brow) {
            for (s, &x) in accj.iter_mut().zip(acol) {
                *s = x.mul_add(bv, *s);
            }
        }
    }
}

/// Split C (and the matching operand) along its larger dimension until a
/// leaf of at most [`LEAF`] elements, and run each leaf: the TN leaves
/// whose edges [`tn_accum`] defines. With `par`, the first split's halves
/// run on two threads, and a C that is one leaf already runs as two column
/// blocks split at a multiple of 4: the first has no `n mod 4` edge and the
/// second keeps the leaf's, and both keep its rows, so every entry keeps
/// the leaf's order.
fn split_rec<T: Real>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>, par: bool) {
    let leaf = c.nrows() * c.ncols() <= LEAF;
    let j = if leaf {
        c.ncols() / 2 / 4 * 4
    } else {
        c.ncols() / 2
    };
    if leaf && (!par || j == 0) {
        tn_dispatch(alpha, a, b, c);
    } else if leaf || c.ncols() >= c.nrows() {
        let (c1, c2) = c.split_at_col_mut(j);
        let (b1, b2) = b.split_at_col(j);
        both(
            par,
            || split_rec(alpha, a, b1, c1, false),
            || split_rec(alpha, a, b2, c2, false),
        );
    } else {
        let i = c.nrows() / 2;
        let (c1, c2) = c.split_at_row_mut(i);
        let (a1, a2) = a.split_at_col(i);
        both(
            par,
            || split_rec(alpha, a1, b, c1, false),
            || split_rec(alpha, a2, b, c2, false),
        );
    }
}

/// One TN leaf: [`tn_body`] compiled for AVX2+FMA, or [`x86::tn_wide`]
/// with the explicit 512-bit tiles, by the host's tier.
fn tn_dispatch<T: Real>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>) {
    fma_dispatch!(tn_body::<T>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>);
        avx512 = x86::tn_wide);
    tn_body(alpha, a, b, c)
}

/// One TN leaf as the portable and AVX2+FMA tiers run it.
#[inline(always)]
fn tn_body<T: Real>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>) {
    tn_accum::<T, false>(alpha, a, b, c)
}

/// k-lanes of the TN kernel: each C entry sums its products in this many
/// independent partial sums.
const LANES: usize = 8;

/// `C += alpha * A^T * B` on one leaf.
///
/// Here both operands stream contiguously along k (their stored columns), so
/// the microkernel keeps an unrolled bank of 8 k-lanes per C entry and
/// reduces them once at the end — vector FMAs without reassociating a single
/// scalar sum. Each C entry's order is fixed: lane `l mod 8` accumulates
/// `l = lane, lane + 8, ...` in turn, the `k mod 8` tail sums separately, and
/// `tail + (((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7)))` closes it.
///
/// That order covers the entries in the leaf's first `m - m mod 2` rows and
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

/// The AVX-512 kernels and their explicit 512-bit tiles.
///
/// Each tile gives every C element the operations the compiled tiles give
/// it, in the same order, so every tier returns their bits:
///
/// - NN/NT: the whole packed tile, `2 * MR` rows (32 f32 or 16 f64, two
///   `zmm` per column) by 12 columns, 24 accumulators: per k, two aligned
///   loads of the A micro-panel and one broadcast per B entry, so each C
///   element still gets `fma(a, alpha * b, c)` in k order. Edge tiles load
///   and store C under a row mask, and run 4, 8 or 12 columns.
/// - TN, f32: four A columns by four pairs of B columns (two for a last
///   block of 4). One `zmm` holds the 8 k-lanes of C entries `(i, j)` and
///   `(i, j + 1)`, so the chunk of A column `i` is one 256-bit broadcast (a
///   load-port operation) and each block of B is packed chunk by chunk as
///   `[b_j chunk | b_{j+1} chunk]`. Sixteen accumulators and the five
///   vectors they read fit in the 32 registers.
/// - TN, f64: a bank of 8 f64 lanes is one `zmm` already, so the tile is
///   four A columns by four B columns, read in place.
///
/// The f32 TN tiles walk k in blocks of [`TK`] outermost, so a packed
/// block of B and the A columns of a tile stay in L1 while the tiles run
/// down C, and a k block of A serves every column block; their lanes are
/// stored in a pooled scratch buffer between blocks and reloaded exactly.
/// They keep `tn_tile`'s lanes, its `k mod 8` tail summed from zero, its
/// tree ([`tn_tree`]) and `c + alpha * s`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{nn_accum, tn_accum, Op, Scratch, LANES, NR};
    use crate::mat::{MatMut, MatRef};
    use crate::real::Real;
    use core::any::TypeId;
    use core::arch::x86_64::*;

    /// The k block of the f32 TN tiles: 16 KB of packed B and a tile's 8 KB
    /// of A columns stay in L1 together.
    const TK: usize = 512;

    /// [`nn_accum`] with the explicit 512-bit tile.
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn nn_wide<T: Real>(
        alpha: T,
        a: MatRef<'_, T>,
        op_b: Op,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
    ) {
        nn_accum::<T, true>(alpha, a, op_b, b, c)
    }

    /// [`tn_accum`] with the explicit 512-bit tiles. An f32 leaf of fewer
    /// than 4 rows, which they do not take, runs the AVX2+FMA copy: there
    /// the 2-row tiles run faster compiled for AVX2 than for AVX-512.
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn tn_wide<T: Real>(
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
    ) {
        if TypeId::of::<T>() == TypeId::of::<f32>() && c.nrows() < 4 {
            // SAFETY: the caller vouches for AVX2 and FMA.
            return unsafe { tn_avx2(alpha, a, b, c) };
        }
        tn_accum::<T, true>(alpha, a, b, c)
    }

    /// [`tn_accum`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tn_avx2<T: Real>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>) {
        tn_accum::<T, false>(alpha, a, b, c)
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

    /// Up to `2 * MR` rows of C (32 f32 or 16 f64) from one packed A
    /// micro-panel `ap` (`kc` rows of `2 * MR` entries) against every B
    /// micro-panel in `bp` (`kc` rows of `NR` entries of `alpha * op_b(B)`
    /// each).
    ///
    /// # Safety
    /// The host must support AVX-512F, AVX2 and FMA; [`has_tiles`] holds
    /// for `T`; `c` has at most `128 / size_of::<T>()` rows, `ap` holds
    /// `128 / size_of::<T>() * kc` entries and `bp` at least `ceil(c.ncols()
    /// / NR)` B micro-panels of that `kc`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn nn_row<T: Real>(ap: &[T], bp: &[T], c: MatMut<'_, T>) {
        let kc = core::mem::size_of_val(ap) / 128;
        debug_assert!(c.nrows() * core::mem::size_of::<T>() <= 128);
        debug_assert!(bp.len() >= kc * c.ncols().next_multiple_of(NR));
        // SAFETY: each branch runs only when `T` is the kernel's type; the
        // caller vouches for the host and the packs.
        unsafe {
            if TypeId::of::<T>() == TypeId::of::<f32>() {
                nn_row_f32(ap.as_ptr().cast(), bp.as_ptr().cast(), kc, retype_mut(c));
            } else {
                debug_assert!(TypeId::of::<T>() == TypeId::of::<f64>());
                nn_row_f64(ap.as_ptr().cast(), bp.as_ptr().cast(), kc, retype_mut(c));
            }
        }
    }

    /// `nn_row_f32`/`nn_row_f64` and their tile bodies: the
    /// intrinsics work on `$w` lanes of `$t` under `$m` row masks, two
    /// vectors per column of the tile.
    macro_rules! nn_kernel {
        (
            $row:ident,
            $body:ident,
            $t:ty,
            $m:ty,
            $w:expr,
            $zero:ident,
            $load:ident,
            $maskz_load:ident,
            $mask_store:ident,
            $set1:ident,
            $fmadd:ident
        ) => {
            /// # Safety
            /// As for [`nn_row`], with `a` and `b` pointing at its packs of
            /// `kc` rows.
            #[inline]
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn $row(a: *const $t, b: *const $t, kc: usize, mut c: MatMut<'_, $t>) {
                let (m, n, ldc) = (c.nrows(), c.ncols(), c.ld());
                let mask = |r: usize| -> $m {
                    if r >= $w {
                        !0
                    } else {
                        (1 << r) - 1
                    }
                };
                let masks = [mask(m), mask(m.saturating_sub($w))];
                let cp = c.as_mut_ptr();
                for j in (0..n).step_by(NR) {
                    let cols = NR.min(n - j);
                    // SAFETY: the caller vouches for the packs, whose
                    // micro-panel for columns `j..` starts at `j kc`;
                    // columns `j..j + cols` of C hold `m` rows, and the
                    // masks keep every access of C inside them.
                    unsafe {
                        let (bp, ct) = (b.add(j * kc), cp.add(j * ldc));
                        match cols.div_ceil(4) {
                            1 => $body::<4>(a, bp, kc, ct, ldc, cols, masks),
                            2 => $body::<8>(a, bp, kc, ct, ldc, cols, masks),
                            _ => $body::<12>(a, bp, kc, ct, ldc, cols, masks),
                        }
                    }
                }
            }

            /// The tile over the first `NB` columns of the B micro-panel,
            /// onto the `cols <= NB` columns of C at `c` (`ldc` apart),
            /// whose rows `masks` select.
            ///
            /// # Safety
            /// The host must support AVX-512F, AVX2 and FMA, and every
            /// pointer must cover what it is read or written for.
            #[inline]
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn $body<const NB: usize>(
                a: *const $t,
                b: *const $t,
                kc: usize,
                c: *mut $t,
                ldc: usize,
                cols: usize,
                masks: [$m; 2],
            ) {
                // SAFETY: the caller vouches for every pointer; the second
                // vector of a column is only touched through its mask, so
                // its address is formed with `wrapping_add`.
                unsafe {
                    let mut acc = [[$zero(); 2]; NB];
                    for (jj, accj) in acc.iter_mut().enumerate().take(cols) {
                        let p = c.add(jj * ldc);
                        *accj = [
                            $maskz_load(masks[0], p),
                            $maskz_load(masks[1], p.wrapping_add($w)),
                        ];
                    }
                    for l in 0..kc {
                        let p = a.add(l * 2 * $w);
                        let (a0, a1) = ($load(p), $load(p.add($w)));
                        let q = b.add(l * NR);
                        for (jj, accj) in acc.iter_mut().enumerate() {
                            let bv = $set1(*q.add(jj));
                            accj[0] = $fmadd(a0, bv, accj[0]);
                            accj[1] = $fmadd(a1, bv, accj[1]);
                        }
                    }
                    for (jj, accj) in acc.iter().enumerate().take(cols) {
                        let p = c.add(jj * ldc);
                        $mask_store(p, masks[0], accj[0]);
                        $mask_store(p.wrapping_add($w), masks[1], accj[1]);
                    }
                }
            }
        };
    }

    nn_kernel!(
        nn_row_f32,
        nn_body_f32,
        f32,
        u16,
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_maskz_loadu_ps,
        _mm512_mask_storeu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps
    );
    nn_kernel!(
        nn_row_f64,
        nn_body_f64,
        f64,
        u8,
        8,
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_maskz_loadu_pd,
        _mm512_mask_storeu_pd,
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

    /// Close the C entries of one TN tile: `sums[ii][jj]` holds the tree
    /// sum of entry `(i0 + ii, j0 + jj)`'s lanes; add its `k mod 8` tail
    /// (summed from zero) in front, then `c + alpha * s`.
    #[inline(always)]
    fn tn_close<T: Real, const TJ: usize>(
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
        sums: &[[T; TJ]; 4],
        (i0, j0): (usize, usize),
    ) {
        let k = a.nrows();
        let whole = k - k % LANES;
        for (jj, j) in (j0..j0 + TJ).enumerate() {
            let y = &b.col(j)[whole..];
            let col = &mut c.col_mut(j)[i0..i0 + 4];
            for (ii, cij) in col.iter_mut().enumerate() {
                let x = &a.col(i0 + ii)[whole..];
                let tail = x
                    .iter()
                    .zip(y)
                    .fold(T::ZERO, |s, (&xl, &yl)| xl.mul_add(yl, s));
                *cij += alpha * (tail + sums[ii][jj]);
            }
        }
    }

    /// [`super::tn_tree`] on both 8-lane banks of `v` at once: lanes 0 and 8 of
    /// the result hold `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))`
    /// of the low and the high bank (addition commutes exactly, so each
    /// pair's order does not matter).
    ///
    /// # Safety
    /// The host must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn tree_f32(v: __m512) -> __m512 {
        let u = _mm512_add_ps(v, _mm512_shuffle_f32x4(v, v, 0b10_11_00_01));
        let w = _mm512_add_ps(u, _mm512_permute_ps(u, 0b10_11_00_01));
        _mm512_add_ps(w, _mm512_permute_ps(w, 0b01_00_11_10))
    }

    /// [`super::tn_tree`] on the 8-lane bank of `v`: lane 0 of the result holds
    /// `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))`.
    ///
    /// # Safety
    /// The host must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn tree_f64(v: __m512d) -> __m512d {
        let u = _mm512_add_pd(v, _mm512_shuffle_f64x2(v, v, 0b01_00_11_10));
        let w = _mm512_add_pd(u, _mm512_permute_pd(u, 0b0101_0101));
        _mm512_add_pd(w, _mm512_permutex_pd(w, 0b01_00_11_10))
    }

    /// The k blocks of the TN tiles, as `(first chunk, chunks, first block,
    /// last block)`: `blk` chunks of `LANES` each, at least one block.
    fn tn_blocks(chunks: usize, blk: usize) -> impl Iterator<Item = (usize, usize, bool, bool)> {
        let blocks = chunks.div_ceil(blk.max(1)).max(1);
        (0..blocks).map(move |q| {
            let ch0 = q * blk;
            (ch0, blk.min(chunks - ch0), q == 0, q + 1 == blocks)
        })
    }

    /// The f32 TN tiles: per k block and per block of 8 of the first `nj`
    /// columns (the last may have 4), pack that block of B, then run 4-row
    /// tiles down C. Packing pays even for one tile (TN 4x8x64: about 17
    /// GFLOP/s from the 2-row tiles, 22 to 24 from one packed tile).
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
        if rows == 0 {
            return 0;
        }
        let chunks = a.nrows() / LANES;
        let blk = chunks.min(TK / LANES);
        // The packed block, then every tile's lanes between k blocks.
        let pk_len = blk * 8 * LANES;
        let lanes_len = if chunks > blk { rows * nj * LANES } else { 0 };
        let mut scratch = Scratch::take();
        let (pk, lanes) = scratch
            .slice::<f32>(pk_len + lanes_len)
            .split_at_mut(pk_len);
        let (pk, lanes) = (pk.as_mut_ptr(), lanes.as_mut_ptr());
        for kb in tn_blocks(chunks, blk) {
            for j0 in (0..nj).step_by(8) {
                // SAFETY: the caller vouches for the host and the shapes,
                // `nj` is a multiple of 4, `pk` has room for `blk` rows of
                // 8 chunks and, when k has two blocks, `lanes` for the
                // `rows x nj` banks, those of columns `j0..` from `rows j0`.
                unsafe {
                    let lanes = lanes.wrapping_add(rows * j0 * LANES);
                    if nj - j0 >= 8 {
                        tn_block_f32::<4, 8>(alpha, a, b, c.rb(), (rows, j0), kb, pk, lanes);
                    } else {
                        tn_block_f32::<2, 4>(alpha, a, b, c.rb(), (rows, j0), kb, pk, lanes);
                    }
                }
            }
        }
        rows
    }

    /// One k block `(ch0, chn, first, last)` of columns `j0..j0 + TJ` (`P
    /// = TJ / 2` pairs) of the first `rows` rows of C: pack the block of B
    /// into `pk`, then run the `4 x TJ` tile down C, its lanes starting
    /// from zero in the first block, kept in `lanes` until the last block
    /// closes them.
    ///
    /// # Safety
    /// As for [`tn_rows`], with `rows % 4 == 0`, `j0 + TJ <= c.ncols()`,
    /// `pk` writable for `TJ * chn * LANES` entries and, unless the block
    /// is both first and last, `lanes` for `rows * TJ * LANES`.
    #[allow(clippy::too_many_arguments)] // the operands, the tile's place and its buffers
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn tn_block_f32<const P: usize, const TJ: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        mut c: MatMut<'_, f32>,
        (rows, j0): (usize, usize),
        (ch0, chn, first, last): (usize, usize, bool, bool),
        pk: *mut f32,
        lanes: *mut f32,
    ) {
        // SAFETY: every load reads a whole chunk of a column of A or B,
        // every access of `pk` one of its `chn * P` chunk pairs, and every
        // access of `lanes` one of the tile's `4 * P` vectors, stored in an
        // earlier block before a later one loads it.
        unsafe {
            for p in 0..P {
                let b0 = b.col(j0 + 2 * p).as_ptr().add(ch0 * LANES);
                let b1 = b.col(j0 + 2 * p + 1).as_ptr().add(ch0 * LANES);
                for ch in 0..chn {
                    let dst = pk.add((ch * P + p) * 2 * LANES);
                    _mm256_storeu_ps(dst, _mm256_loadu_ps(b0.add(ch * LANES)));
                    _mm256_storeu_ps(dst.add(LANES), _mm256_loadu_ps(b1.add(ch * LANES)));
                }
            }
            for i0 in (0..rows).step_by(4) {
                let saved = lanes.wrapping_add(i0 * TJ * LANES);
                let acols: [*const f32; 4] =
                    [0, 1, 2, 3].map(|ii| a.col(i0 + ii).as_ptr().add(ch0 * LANES));
                let mut acc = [[_mm512_setzero_ps(); P]; 4];
                if !first {
                    for (ii, acc_i) in acc.iter_mut().enumerate() {
                        for (p, s) in acc_i.iter_mut().enumerate() {
                            *s = _mm512_loadu_ps(saved.add((ii * P + p) * 2 * LANES));
                        }
                    }
                }
                for ch in 0..chn {
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
                if last {
                    let mut sums = [[0.0f32; TJ]; 4];
                    for (sums_i, acc_i) in sums.iter_mut().zip(&acc) {
                        for (pair, &s) in sums_i.chunks_exact_mut(2).zip(acc_i) {
                            let mut lanes = [0.0f32; 2 * LANES];
                            _mm512_storeu_ps(lanes.as_mut_ptr(), tree_f32(s));
                            pair.copy_from_slice(&[lanes[0], lanes[LANES]]);
                        }
                    }
                    tn_close(alpha, a, b, &mut c, &sums, (i0, j0));
                } else {
                    for (ii, acc_i) in acc.iter().enumerate() {
                        for (p, s) in acc_i.iter().enumerate() {
                            _mm512_storeu_ps(saved.add((ii * P + p) * 2 * LANES), *s);
                        }
                    }
                }
            }
        }
    }

    /// The f64 TN tiles: per block of 4 of the first `nj` columns, 4-row
    /// tiles down C over the whole of k, B read in place. Sixteen banks and
    /// the eight chunks they read fit in the 32 vector registers, and a
    /// block as wide as `tn_tile`'s streams A no more often. Walking k in
    /// blocks with the lanes kept between them, as the f32 tiles do, ran
    /// TN 64x64x1024 at 0.38 of the FMA loop against 0.50 for this loop in
    /// a probe of 300 ms budgets.
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
                let mut sums = [[0.0f64; TJ]; 4];
                for (sums_i, acc_i) in sums.iter_mut().zip(&acc) {
                    for (sum, &s) in sums_i.iter_mut().zip(acc_i) {
                        *sum = _mm512_cvtsd_f64(tree_f64(s));
                    }
                }
                tn_close(alpha, a, b, &mut c, &sums, (i0, j0));
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
/// with `d_j` the [`dots`](crate::blas1::dots) of column `j` and `x`. An A
/// of at least `GEMV_PAR` entries runs as two halves of y on two threads,
/// split at a multiple of 64 (rows of A for NoTrans, columns for Trans).
pub fn gemv<T: Real>(alpha: T, op: Op, a: MatRef<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    let (m, n) = op_dims(op, a);
    assert_eq!(x.len(), n, "gemv: x length");
    assert_eq!(y.len(), m, "gemv: y length");
    if beta == T::ZERO {
        y.fill(T::ZERO);
    } else if beta != T::ONE {
        crate::blas1::scal(beta, y);
    }
    let kernel = gemv_kernel::<T>(op);
    let half = (m / 2).next_multiple_of(64);
    if a.nrows() * a.ncols() < GEMV_PAR || half >= m {
        return kernel(alpha, a, x, y);
    }
    let (a1, a2) = match op {
        Op::NoTrans => a.split_at_row(half),
        Op::Trans => a.split_at_col(half),
    };
    let (y1, y2) = y.split_at_mut(half);
    both(
        true,
        || kernel(alpha, a1, x, y1),
        || kernel(alpha, a2, x, y2),
    );
}

/// `gemv` on matrices of at least this many entries runs two halves of y
/// on two threads. The product is bound by streaming A, and handing a half
/// to the helper thread costs about 15 us at most: timed in place on a
/// 2-CPU host, the 2^19-entry f64 products (1024x512) of qr-ec's output
/// checks went from 170-181 us to 69-94 us (medians of 450 calls) when
/// split. This crate's unit tests split from 4K on, so the oracle runs the
/// split too.
#[cfg(not(test))]
const GEMV_PAR: usize = 1 << 19;
#[cfg(test)]
const GEMV_PAR: usize = 1 << 12;

/// The one-thread body of [`gemv`] for `op`, after `y *= beta`.
fn gemv_kernel<T: Real>(op: Op) -> fn(T, MatRef<'_, T>, &[T], &mut [T]) {
    match op {
        Op::NoTrans => gemv_n,
        Op::Trans => gemv_t,
    }
}

/// `y += A * (alpha * x)`: [`gemv_n_body`] in the host's tier.
fn gemv_n<T: Real>(alpha: T, a: MatRef<'_, T>, x: &[T], y: &mut [T]) {
    fma_dispatch!(gemv_n_body::<T>(alpha: T, a: MatRef<'_, T>, x: &[T], y: &mut [T]));
    gemv_n_body(alpha, a, x, y)
}

/// `y_j = alpha * d_j + y_j`, the dots going through a stack buffer a
/// block of 64 columns at a time.
fn gemv_t<T: Real>(alpha: T, a: MatRef<'_, T>, x: &[T], y: &mut [T]) {
    let mut d = [T::ZERO; 64];
    for (j0, yb) in (0..y.len()).step_by(d.len()).zip(y.chunks_mut(d.len())) {
        let d = &mut d[..yb.len()];
        crate::blas1::dots(x, a.submatrix(0, j0, x.len(), yb.len()), d);
        for (yj, &dj) in yb.iter_mut().zip(d.iter()) {
            *yj = alpha.mul_add(dj, *yj);
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
                assert!(
                    d <= tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
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
            gemm(
                alpha,
                op_a,
                a.as_ref(),
                op_b,
                b.as_ref(),
                beta,
                c_fast.as_mut(),
            );
            gemm_naive(
                alpha,
                op_a,
                a.as_ref(),
                op_b,
                b.as_ref(),
                beta,
                c_ref.as_mut(),
            );
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
        gemm(
            1.5,
            Op::Trans,
            a.as_ref(),
            Op::Trans,
            b.as_ref(),
            0.5,
            c_fast.as_mut(),
        );
        gemm_naive(
            1.5,
            Op::Trans,
            a.as_ref(),
            Op::Trans,
            b.as_ref(),
            0.5,
            c_ref.as_mut(),
        );
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
        gemm(
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            2.0,
            c.as_mut(),
        );
        assert_close(&c, &expect, 0.0);
    }

    #[test]
    fn gemm_beta_zero_clears_nan() {
        let a: Mat<f64> = Mat::identity(2, 2);
        let b: Mat<f64> = Mat::identity(2, 2);
        let mut c = Mat::zeros(2, 2);
        c[(0, 0)] = f64::NAN;
        gemm(
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        assert!(c.all_finite());
        assert_eq!(c[(0, 0)], 1.0);
    }

    #[test]
    fn gemm_alpha_zero_only_scales() {
        let a = filled(4, 4, 1);
        let b = filled(4, 4, 2);
        let mut c = filled(4, 4, 3);
        let expect = Mat::from_fn(4, 4, |i, j| 0.5 * c[(i, j)]);
        gemm(
            0.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.5,
            c.as_mut(),
        );
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
        gemm(
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
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
        gemm_naive(
            2.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            xm.as_ref(),
            3.0,
            ym.as_mut(),
        );
        for i in 0..7 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-12);
        }
        // Transposed.
        let mut z = vec![0.5f64; 5];
        gemv(1.0, Op::Trans, a.as_ref(), &y, -1.0, &mut z);
        let ym2 = Mat::from_col_major(7, 1, y.clone());
        let mut zm = Mat::from_col_major(5, 1, vec![0.5f64; 5]);
        gemm_naive(
            1.0,
            Op::Trans,
            a.as_ref(),
            Op::NoTrans,
            ym2.as_ref(),
            -1.0,
            zm.as_mut(),
        );
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

    /// Where entry `(i, j)` of an `m x n` TN product lands: `(i, j, m, n)`
    /// within its leaf. Walks the recursion's halving on its own: split the
    /// larger side (columns on a tie) in half until at most `LEAF` entries
    /// remain.
    fn tn_leaf_of(
        mut m: usize,
        mut n: usize,
        mut i: usize,
        mut j: usize,
    ) -> (usize, usize, usize, usize) {
        while m * n > LEAF {
            let (half, side, at) = if n >= m {
                (n / 2, &mut n, &mut j)
            } else {
                (m / 2, &mut m, &mut i)
            };
            if *at < half {
                *side = half;
            } else {
                *at -= half;
                *side -= half;
            }
        }
        (i, j, m, n)
    }

    /// The per-element order `gemm` promises, in plain scalar code: NN/NT
    /// accumulate `a * (alpha * b)` onto the scaled C in k order; TT builds
    /// `D = B A` that way from zero and adds it; TN sums 8 k-lanes, a tail
    /// and a fixed tree, except at its leaf's edges (an odd last row, the
    /// `n mod 4` last columns), which use `dot`'s 4-lane order, then adds
    /// `alpha * s`.
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
                let (li, lj, lm, ln) = tn_leaf_of(m, n, i, j);
                let s = if li < lm - lm % 2 && lj < ln - ln % 4 {
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

    /// `gemm` under every tier in `tiers` against the portable tier, bit
    /// for bit, and the portable tier against [`leaf_spec`] on every shape
    /// of at most one TN leaf and wherever else that costs under 4M scalar
    /// steps.
    fn gemm_oracle_for<T: Real>(tiers: &[Tier]) {
        // Shapes straddle the NN/NT micro-panels (16 and 32 rows in f32, 8
        // and 16 in f64, NR = 12 columns run as 4, 8 or 12, and the compiled
        // tiers' 6-column sub-tiles), KC = 256, the TN tiles (2 rows by 4
        // or 6 columns, 4 rows by 4 pairs in f32 or 4 columns in f64, 8
        // k-lanes with k mod 8 != 0) and LEAF = 128 * 128 (the TN leaves of
        // 131x127, 129x133 and 257x67 have odd rows and n mod 4 != 0 edges
        // of their own). Then whole leaves (one full and one single-column
        // last KC block, and both remainders at once), and the block edges:
        // m of several A micro-panels, k past two KC blocks, n past NC =
        // 1008, and TN k = 1000 + r and 2000 + r (r = 1..7), whose lanes
        // cross a k block of the AVX-512 TN tiles (512 in f32, 1024 in f64)
        // before the last block takes their tail. Single TN leaves above
        // the split threshold run as two column blocks: 128x128x1024, and
        // each n mod 4 edge in the second block, two of them under an odd
        // last row (127x125x600, 64x66x1100, 33x71x4000). Then the edges
        // of the 512-bit tiles: row counts around 32 and 64 and every m mod 4, by
        // every n mod 12 and n mod 4 (a lone last column of a pair
        // included), at a short k and at a k past KC.
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
            (257, 67, 9),
            (128, 128, 1024),
            (128, 128, 257),
            (98, 130, 64),
            (300, 13, 40),
            (40, 13, 530),
            (9, 1013, 12),
            (127, 125, 600),
            (64, 66, 1100),
            (33, 71, 4000),
        ];
        let k_blocks = (1..=7).flat_map(|r| [(12, 9, 1000 + r), (8, 12, 2000 + r)]);
        let edges = [4, 5, 6, 7, 16, 17, 31, 32, 33, 34, 47, 48, 63, 64, 65]
            .into_iter()
            .flat_map(|m| {
                (1..=13usize)
                    .chain([23, 24, 25])
                    .map(move |n| (m, n, if n.is_multiple_of(2) { 19 } else { 261 }))
            });
        for (m, n, k) in shapes.into_iter().chain(k_blocks).chain(edges) {
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
                        with_cap(Tier::Portable, || {
                            gemm(alpha, op_a, a, op_b, b, beta, want_c)
                        });
                        for &tier in tiers {
                            let mut got = cbig.clone();
                            let got_c = got.as_mut().submatrix_mut(1, 1, m, n);
                            with_cap(tier, || gemm(alpha, op_a, a, op_b, b, beta, got_c));
                            assert_same_bits(&format!("{tier:?} {what}"), got.data(), want.data());
                        }
                        if m * n <= LEAF || m * n * k <= 1 << 22 {
                            let c = cbig.as_ref().submatrix(1, 1, m, n);
                            for j in 0..n {
                                for i in 0..m {
                                    let spec = leaf_spec(alpha, op_a, a, op_b, b, beta, c, i, j);
                                    assert_eq!(
                                        bits(want[(i + 1, j + 1)]),
                                        bits(spec),
                                        "{what}: ({i},{j}) departs from the promised order"
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

    /// `gemv` split in two halves of y against the one-thread body on the
    /// whole of y: both ops, `beta` of 0, 1 and -1, x with zero entries (the
    /// NoTrans skips), and y lengths that are not multiples of 8 or 64.
    fn gemv_split_oracle_for<T: Real>() {
        for (m, n) in [(203, 71), (130, 197), (333, 77)] {
            assert!(m * n >= GEMV_PAR, "{m}x{n} is below the split threshold");
            let abig: Mat<T> = level2_input(m, n, 80 + m as u64, 7);
            let a = abig.as_ref().submatrix(1, 1, m, n);
            for op in [Op::NoTrans, Op::Trans] {
                let (ylen, xlen) = op_dims(op, a);
                assert!(
                    (ylen / 2).next_multiple_of(64) < ylen,
                    "{m}x{n} {op:?} splits"
                );
                let x: Vec<T> = level2_vec(xlen, 90 + xlen as u64, 7);
                let y0: Vec<T> = level2_vec(ylen, 100 + ylen as u64, 4);
                for (alpha, beta) in [(1.0, 0.0), (-0.5, 1.0), (2.0, -1.0)] {
                    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                    let what = format!("{} {m}x{n} {op:?} alpha={alpha} beta={beta}", T::NAME);
                    let mut got = y0.clone();
                    gemv(alpha, op, a, &x, beta, &mut got);
                    let mut want: Vec<T> = y0
                        .iter()
                        .map(|&v| if beta == T::ZERO { T::ZERO } else { v * beta })
                        .collect();
                    gemv_kernel::<T>(op)(alpha, a, &x, &mut want);
                    assert_same_bits(&format!("gemv split {what}"), &got, &want);
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
        let (ar, ac) = if op_a == Op::NoTrans {
            (cm, k)
        } else {
            (k, cm)
        };
        let (br, bc) = if op_b == Op::NoTrans {
            (k, cn)
        } else {
            (cn, k)
        };
        let a: Mat<T> = filled(ar, ac, 1).convert();
        let b: Mat<T> = filled(br, bc, 2).convert();
        let mut c: Mat<T> = filled(cm, cn, 3).convert();
        let minus_one = T::from_f64(-1.0);
        let secs = best_secs(budget, &mut || {
            gemm(
                minus_one,
                op_a,
                a.as_ref(),
                op_b,
                b.as_ref(),
                T::ONE,
                c.as_mut(),
            );
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
        let tiers: Vec<Tier> = host_tiers()
            .into_iter()
            .filter(|&t| t > Tier::Portable)
            .collect();
        let names: Vec<String> = tiers
            .iter()
            .map(|t| format!("{:>8}", format!("{t:?}")))
            .collect();
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

    /// `acc = acc * x + y` on 12 independent f32 vectors as wide as the
    /// tier [`with_cap`] allows (a scalar in the portable tier), `rounds`
    /// times; returns the lanes' sum and how many there are.
    fn fma_loop(rounds: usize) -> (f32, usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::*;
            /// # Safety
            /// The host must support AVX-512F.
            #[target_feature(enable = "avx512f")]
            unsafe fn zmm(rounds: usize) -> f32 {
                let (x, y) = (_mm512_set1_ps(0.5), _mm512_set1_ps(1.0));
                let mut acc = [_mm512_setzero_ps(); 12];
                for _ in 0..rounds {
                    for s in &mut acc {
                        *s = _mm512_fmadd_ps(*s, x, y);
                    }
                }
                acc.iter().map(|&v| _mm512_reduce_add_ps(v)).sum()
            }
            /// # Safety
            /// The host must support AVX and FMA.
            #[target_feature(enable = "avx,fma")]
            unsafe fn ymm(rounds: usize) -> f32 {
                let (x, y) = (_mm256_set1_ps(0.5), _mm256_set1_ps(1.0));
                let mut acc = [_mm256_setzero_ps(); 12];
                for _ in 0..rounds {
                    for s in &mut acc {
                        *s = _mm256_fmadd_ps(*s, x, y);
                    }
                }
                let mut lanes = [0.0f32; 8];
                acc.iter().fold(0.0, |sum, &v| {
                    _mm256_storeu_ps(lanes.as_mut_ptr(), v);
                    sum + lanes.iter().sum::<f32>()
                })
            }
            match crate::fma::tier() {
                // SAFETY: `tier` confirmed AVX-512F (or AVX2 and FMA).
                Tier::Avx512 => return (unsafe { zmm(rounds) }, 12 * 16),
                Tier::Avx2 => return (unsafe { ymm(rounds) }, 12 * 8),
                Tier::Portable => {}
            }
        }
        let (x, y) = (std::hint::black_box(0.5f32), std::hint::black_box(1.0f32));
        let mut acc = [0.0f32; 12];
        for _ in 0..rounds {
            for s in &mut acc {
                *s = s.mul_add(x, y);
            }
        }
        (acc.iter().sum(), 12)
    }

    /// GFLOP/s of [`fma_loop`] in `T`'s terms (half the f32 rate for f64),
    /// best of calls over `budget`: the host's FMA peak in the current
    /// tier, as near as one thread reaches it.
    fn fma_loop_gflops<T: Real>(budget: std::time::Duration) -> f64 {
        let rounds = 1 << 14;
        let mut lanes = 0;
        let secs = best_secs(budget, &mut || {
            let (sum, n) = fma_loop(std::hint::black_box(rounds));
            std::hint::black_box(sum);
            lanes = n;
        });
        2.0 * (rounds * lanes) as f64 / secs * 1e-9 * 4.0 / core::mem::size_of::<T>() as f64
    }

    /// Wall rate of the products the benchmark's update paths run, per
    /// tier this host has, in f32 and f64: the RGSQRF trailing updates
    /// (TN `QᵀA` and NN `A - QR` at two panel widths), their panel products
    /// at the next two widths down, the CAQR panel products of a
    /// 16384-row least-squares problem, and the TSQR Q update. Prints
    /// best-of-run GFLOP/s and, in parentheses, the median over three
    /// rounds of its ratio to an FMA-only loop run just after it in the
    /// same tier: a shared host's speed drifts between minutes, and the
    /// ratio drifts less. The tiers take turns per round, so a slow spell
    /// hits them alike; run with `cargo test -p densemat --release
    /// update_shape -- --nocapture`.
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
            (tn, (64, 64, 1024)),
            (tn, (32, 32, 1024)),
            (nn, (1024, 64, 64)),
            (tn, (64, 64, 16384)),
            (tn, (32, 32, 16384)),
            (nn, (16384, 64, 64)),
            (nn, (16384, 32, 32)),
            (nn, (256, 32, 32)),
        ];
        let tiers = host_tiers();
        let names: Vec<String> = tiers
            .iter()
            .map(|t| format!("{:>15}", format!("{t:?}")))
            .collect();
        println!(
            "type op     m     n     k {}  (GFLOP/s, fraction of the FMA loop)",
            names.join(" ")
        );
        for name in ["f32", "f64"] {
            for &(op_a, (m, n, k)) in &shapes {
                let mut best = vec![0.0f64; tiers.len()];
                let mut fracs = vec![Vec::new(); tiers.len()];
                for _ in 0..3 {
                    for ((b, f), &tier) in best.iter_mut().zip(&mut fracs).zip(&tiers) {
                        let (gflops, peak) = with_cap(tier, || match name {
                            "f32" => (
                                gemm_gflops::<f32>(op_a, nn, (m, n, k), budget),
                                fma_loop_gflops::<f32>(budget),
                            ),
                            _ => (
                                gemm_gflops::<f64>(op_a, nn, (m, n, k), budget),
                                fma_loop_gflops::<f64>(budget),
                            ),
                        });
                        *b = b.max(gflops);
                        f.push(gflops / peak);
                    }
                }
                let rates: Vec<String> = best
                    .iter()
                    .zip(&mut fracs)
                    .map(|(g, f)| {
                        f.sort_by(f64::total_cmp);
                        format!("{g:>8.2} ({:.2})", f[1])
                    })
                    .collect();
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
                gemv_split_oracle_for::<f32>();
                gemv_split_oracle_for::<f64>();
                crate::svd::tests::jacobi_oracle_for::<f32>();
                crate::svd::tests::jacobi_oracle_for::<f64>();
            });
        }
    }
}
