//! Two-way splits onto a second thread, and the per-thread pack arena.
//!
//! [`both`] is the one place the workspace's kernels start a thread: gemm's
//! largest products, gemv on large matrices and the wide levels of the CAQR
//! reduction each hand it two halves whose outputs are disjoint. Each half
//! computes its outputs with exactly the operations and order one thread
//! gives them, so the split changes no bit.
//!
//! gemm's pack buffers come from a per-thread arena (`Scratch`) that grows
//! to the largest call's shape and is reused by every later call. [`both`]
//! lends the second thread an arena of the caller's and takes it back after
//! the join, so a repeated split allocates nothing.

use core::cell::Cell;
use core::mem::MaybeUninit;
use std::sync::OnceLock;

/// One cache line of arena memory.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u8; 64]);

thread_local! {
    /// This thread's arena: the largest pack buffer a call has needed yet.
    static ARENA: Cell<Vec<MaybeUninit<Line>>> = const { Cell::new(Vec::new()) };
    /// The arena this thread lends to the second thread of a split.
    static LENT: Cell<Vec<MaybeUninit<Line>>> = const { Cell::new(Vec::new()) };
}

/// A pack buffer taken from this thread's arena and given back on drop, so
/// later calls reuse it. A call made while one is out gets a fresh one.
pub(crate) struct Scratch(Vec<MaybeUninit<Line>>);

impl Scratch {
    /// The arena's buffer, grown to hold `len` elements of `T` if it holds
    /// fewer. Growing leaves the new memory uninitialized.
    pub(crate) fn take<T>(len: usize) -> Self {
        let bytes = len
            .checked_mul(core::mem::size_of::<T>())
            .expect("Scratch: length overflows");
        let mut lines = ARENA.try_with(Cell::take).unwrap_or_default();
        if lines.len() < bytes.div_ceil(64) {
            lines.resize(bytes.div_ceil(64), MaybeUninit::uninit());
        }
        Scratch(lines)
    }

    /// The first `len` elements of `T`, 64-byte aligned and uninitialized:
    /// a caller writes what it reads.
    pub(crate) fn slice<T>(&mut self, len: usize) -> &mut [MaybeUninit<T>] {
        assert!(
            core::mem::align_of::<T>() <= 64,
            "Scratch: over-aligned element"
        );
        assert!(
            len.checked_mul(core::mem::size_of::<T>())
                .is_some_and(|bytes| bytes <= self.0.len() * 64),
            "Scratch: taken too small"
        );
        // SAFETY: the buffer holds at least `len * size_of::<T>()` bytes,
        // aligned for `T`, and `MaybeUninit<T>` is valid for any bytes.
        unsafe { core::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), len) }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let lines = core::mem::take(&mut self.0);
        // A thread whose arena is already gone just frees the buffer.
        let _ = ARENA.try_with(|a| a.set(lines));
    }
}

/// Whether this process may run on more than one CPU, read once: a
/// one-CPU or CPU-quota-limited host runs both halves of every split
/// inline and never pays a thread start.
fn many_cpus() -> bool {
    static MANY: OnceLock<bool> = OnceLock::new();
    *MANY.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Run `f` then `g`, or, when `par` holds and the process may use more than
/// one CPU, `f` on a second thread alongside `g` on this one.
///
/// The second thread packs into an arena this thread lends it and keeps for
/// the next split, so it allocates nothing; in this crate's unit tests it
/// runs the caller's kernel tier. A panic in `f` resumes on this thread
/// after `g` returns.
pub fn both(par: bool, f: impl FnOnce() + Send, g: impl FnOnce()) {
    if !par || !many_cpus() {
        f();
        g();
        return;
    }
    #[cfg(test)]
    let f = {
        let cap = crate::fma::tests::cap();
        move || crate::fma::tests::with_cap(cap, f)
    };
    let lent = LENT.with(Cell::take);
    let back = std::thread::scope(|s| {
        let second = s.spawn(move || {
            ARENA.with(|a| a.set(lent));
            f();
            ARENA.with(Cell::take)
        });
        g();
        second.join()
    });
    match back {
        Ok(arena) => LENT.with(|l| l.set(arena)),
        Err(panic) => std::panic::resume_unwind(panic),
    }
}
