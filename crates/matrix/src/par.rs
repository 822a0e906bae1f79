//! Two-way splits onto one parked helper thread, and the per-thread
//! scratch pool.
//!
//! [`both`] is the one place the workspace's kernels hand work to a second
//! thread: gemm's large products, gemv on large matrices and the CAQR
//! reduction levels of four or more blocks each hand it two halves whose
//! outputs are disjoint. Each half computes its outputs with exactly the
//! operations and order one thread gives them, so the split changes no bit.
//!
//! The second thread is one helper per process, started by the first split.
//! It takes a posted half from a single atomic slot, runs it, spins briefly
//! for the next one and then parks. The caller runs its own half, then takes
//! the posted half back and runs it inline if the helper has not begun it,
//! so a split never waits for the helper to wake up. A split made while the
//! slot is taken runs both halves inline: a split nested in a half, or one
//! made by a second thread while the helper serves the first.
//!
//! [`Scratch`] is the workspace's one per-thread scratch pool: gemm's pack
//! buffers and the engine's staged (rounded or hi/lo split) operands are
//! taken from it and given back on drop, so a steady loop of calls reuses
//! the same allocations. The helper keeps its own pool for the life of the
//! process, so a repeated split allocates nothing.

use core::any::TypeId;
use core::cell::{RefCell, UnsafeCell};
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// One cache line of pool memory.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u8; 64]);

/// Upper bound on buffers kept per thread; anything beyond is freed. One
/// error-corrected GEMM holds five at once: four staged operands and
/// gemm's pack buffer.
const MAX_POOLED: usize = 8;

thread_local! {
    /// This thread's free buffers, the last one given back on top.
    static POOL: RefCell<Vec<Vec<Line>>> = const { RefCell::new(Vec::new()) };
}

/// A scratch buffer taken from this thread's pool and given back on drop
/// (the pool keeps up to 8), so later calls reuse it. Buffers taken while
/// others are out are distinct.
pub struct Scratch(Vec<Line>);

impl Scratch {
    /// The buffer on top of this thread's pool, or an empty one.
    pub fn take() -> Self {
        let pooled = POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten();
        Scratch(pooled.unwrap_or_default())
    }

    /// The first `len` elements of `T` (`f32` or `f64`), 64-byte aligned,
    /// growing the buffer with zeros only if it is shorter. The elements
    /// hold whatever the buffer's previous user left there: a caller
    /// writes what it reads.
    pub fn slice<T: 'static>(&mut self, len: usize) -> &mut [T] {
        assert!(
            TypeId::of::<T>() == TypeId::of::<f32>() || TypeId::of::<T>() == TypeId::of::<f64>(),
            "Scratch: only f32 and f64"
        );
        let lines = len
            .checked_mul(core::mem::size_of::<T>())
            .expect("Scratch: length overflows")
            .div_ceil(64);
        if self.0.len() < lines {
            self.0.resize(lines, Line([0; 64]));
        }
        // SAFETY: the buffer holds at least `len * size_of::<T>()`
        // initialized bytes, aligned for `T`, and every bit pattern is an
        // `f32` or an `f64`.
        unsafe { core::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), len) }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let lines = core::mem::take(&mut self.0);
        // A buffer never grown is not worth a slot.
        if lines.capacity() == 0 {
            return;
        }
        // A thread whose pool is already gone just frees the buffer.
        let _ = POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(lines);
            }
        });
    }
}

/// The helper's slot: [`IDLE`], [`BUSY`] while a half runs on the helper,
/// or the address of a posted [`Head`]. A caller posts with a `Release`
/// exchange that the helper's `Acquire` take pairs with, so the helper sees
/// the whole job; a caller that takes its job back saw it only itself.
static SLOT: AtomicUsize = AtomicUsize::new(IDLE);
/// The slot is free: a split may post its half.
const IDLE: usize = 0;
/// The helper runs a half (or a test holds the slot): splits run inline.
const BUSY: usize = 1;

/// How long the helper spins for its next half, and a caller for the
/// helper's half, before parking.
const SPIN: Duration = Duration::from_micros(50);

/// A panic's payload, carried from the helper to the caller.
type Panic = Box<dyn Any + Send>;

/// A posted half as the helper sees it: the head of a [`Job`] whose
/// closure type `run` knows.
struct Head {
    /// Runs the job's half, catching a panic.
    run: unsafe fn(*const Head) -> Result<(), Panic>,
    /// The helper's panic, if any, written before `done`.
    panic: UnsafeCell<Option<Panic>>,
    /// Set (`Release`, paired with the caller's `Acquire` load) by the
    /// helper once it no longer touches the job, after writing `panic`.
    done: AtomicBool,
    /// The thread that posted the job, unparked after `done`.
    caller: Thread,
}

/// A half posted to the helper; lives on the caller's stack until both
/// halves are done.
#[repr(C)]
struct Job<F> {
    head: Head,
    f: UnsafeCell<Option<F>>,
}

/// Run the half of the `Job<F>` that `head` starts.
///
/// # Safety
/// `head` must be the head of a live `Job<F>` whose `f` no other thread
/// touches until the job is done.
unsafe fn run_job<F: FnOnce()>(head: *const Head) -> Result<(), Panic> {
    // SAFETY: `Job` is `repr(C)` with the head first, and the caller
    // vouches for the job and for sole access to `f`.
    let f = unsafe { (*(*head.cast::<Job<F>>()).f.get()).take() };
    catch_unwind(AssertUnwindSafe(|| f.expect("a posted half runs once")()))
}

/// The helper thread, started by the first call. `None` when the process
/// may use only one CPU (then every split runs inline and no thread starts)
/// or the thread could not be started. It is never joined: it lives as
/// long as the process, and catches every panic of the halves it runs for
/// their callers to resume.
fn helper() -> Option<&'static Thread> {
    static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
    HELPER
        .get_or_init(|| {
            if !thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
                return None;
            }
            let spawned = thread::Builder::new()
                .name("densemat-par".into())
                .spawn(serve);
            spawned.ok().map(|h| h.thread().clone())
        })
        .as_ref()
}

/// The helper's loop: take each posted half out of the slot (marking the
/// slot busy), run it, free the slot, then tell the caller.
fn serve() {
    loop {
        let mut posted = IDLE;
        wait_for(|| {
            posted = SLOT.load(Ordering::Relaxed);
            posted > BUSY
                && SLOT
                    .compare_exchange(posted, BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        });
        // SAFETY: the caller keeps the job alive until `done`.
        let head = unsafe { &*(posted as *const Head) };
        // SAFETY: `run` is `run_job` for the job's own closure type, and
        // taking the job out of the slot gave this thread sole access to it.
        let out = unsafe { (head.run)(head) };
        // SAFETY: the caller reads `panic` only after `done`.
        unsafe { *head.panic.get() = out.err() };
        let caller = head.caller.clone();
        // Frees the slot for the next split; publishes nothing.
        SLOT.store(IDLE, Ordering::Relaxed);
        head.done.store(true, Ordering::Release);
        caller.unpark();
    }
}

/// Return once `ready` holds: call it in a spin loop for [`SPIN`], then
/// park between calls (whoever makes it hold unparks this thread).
fn wait_for(mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() < SPIN {
            core::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

/// Run `f` then `g`, or, when `par` holds and the process may use more than
/// one CPU, `f` on the helper thread alongside `g` on this one.
///
/// This thread runs `f` itself, after `g`, if the helper has not begun it
/// by then, and runs both inline when the helper is busy (a split nested in
/// a half, or another thread's split). The helper packs into its own pool;
/// in this crate's unit tests it runs the caller's kernel tier. Once `f`
/// is posted, a panic in either half resumes on this thread after both
/// halves have finished (`g`'s if both panicked).
pub fn both(par: bool, f: impl FnOnce() + Send, g: impl FnOnce()) {
    let Some(helper) = par.then(helper).flatten() else {
        f();
        g();
        return;
    };
    #[cfg(test)]
    let f = {
        let cap = crate::fma::tests::cap();
        move || crate::fma::tests::with_cap(cap, f)
    };
    split(helper, f, g)
}

/// [`both`]'s two-thread path, with `f`'s type named for [`run_job`].
fn split<F: FnOnce() + Send>(helper: &Thread, f: F, g: impl FnOnce()) {
    let mut job = Job {
        head: Head {
            run: run_job::<F>,
            panic: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            caller: thread::current(),
        },
        f: UnsafeCell::new(Some(f)),
    };
    let addr = &job.head as *const Head as usize;
    if SLOT
        .compare_exchange(IDLE, addr, Ordering::Release, Ordering::Relaxed)
        .is_err()
    {
        // The helper is busy: both halves here, in order.
        job.f.into_inner().expect("f is still posted")();
        return g();
    }
    helper.unpark();
    let g_out = catch_unwind(AssertUnwindSafe(g));
    let f_out = if SLOT
        .compare_exchange(addr, IDLE, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        // The helper never took `f`: run it here.
        catch_unwind(AssertUnwindSafe(
            job.f.get_mut().take().expect("f is still posted"),
        ))
    } else {
        wait_for(|| job.head.done.load(Ordering::Acquire));
        job.head.panic.get_mut().take().map_or(Ok(()), Err)
    };
    if let Err(panic) = g_out.and(f_out) {
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    /// Run `f` with the slot held, so every split it makes (and every split
    /// any other thread makes meanwhile) runs inline: the one-thread order.
    fn one_thread<R>(f: impl FnOnce() -> R) -> R {
        while SLOT
            .compare_exchange(IDLE, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            thread::yield_now();
        }
        let out = catch_unwind(AssertUnwindSafe(f));
        SLOT.store(IDLE, Ordering::Release);
        out.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// Repeat `attempt` until it reports that the path it wants ran, at most
    /// 2000 times. On a one-CPU host only the inline path exists.
    fn until_seen(what: &str, mut attempt: impl FnMut() -> bool) {
        if helper().is_none() {
            return;
        }
        for _ in 0..2000 {
            if attempt() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("{what}: never ran");
    }

    /// Spin until `flag` is set, or give up after a second.
    fn await_flag(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(1) {
            core::hint::spin_loop();
        }
    }

    /// Run `f` on a new thread, whose pool starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send) {
        thread::scope(|s| {
            s.spawn(f)
                .join()
                .unwrap_or_else(|panic| resume_unwind(panic))
        });
    }

    /// The number of buffers in this thread's pool.
    fn pooled() -> usize {
        POOL.with(|p| p.borrow().len())
    }

    #[test]
    fn buffers_are_recycled_not_reallocated() {
        on_fresh_thread(|| {
            // Warm the pool, remember the allocation, and check the next take
            // on this thread hands the same allocation back.
            let ptr = Scratch::take().slice::<f32>(4096).as_ptr();
            let again = Scratch::take().slice::<f32>(4096).as_ptr();
            assert_eq!(again, ptr, "steady state must not allocate");
            let shorter = Scratch::take().slice::<f32>(100).as_ptr();
            assert_eq!(shorter, ptr, "a shorter use reuses it too");
        });
    }

    #[test]
    fn pool_is_bounded() {
        on_fresh_thread(|| {
            let bufs: Vec<Scratch> = (0..2 * MAX_POOLED)
                .map(|_| {
                    let mut b = Scratch::take();
                    b.slice::<f32>(1);
                    b
                })
                .collect();
            drop(bufs);
            assert_eq!(pooled(), MAX_POOLED);
        });
    }

    #[test]
    fn a_buffer_grown_for_f32_serves_f64_aligned_in_place() {
        on_fresh_thread(|| {
            let p32 = Scratch::take().slice::<f32>(1000).as_ptr() as usize;
            assert_eq!(p32 % 64, 0);
            // 500 f64 fill the same 4000 bytes.
            let p64 = Scratch::take().slice::<f64>(500).as_ptr() as usize;
            assert_eq!(p64, p32, "the f32 buffer is reused for f64");
        });
    }

    #[test]
    fn nested_takes_get_distinct_buffers_that_all_return() {
        on_fresh_thread(|| {
            // One error-corrected GEMM: four staged operands, then gemm's
            // pack buffer, all out at once.
            let nest = || {
                let mut bufs: Vec<Scratch> = (0..5).map(|_| Scratch::take()).collect();
                let mut ptrs: Vec<usize> = bufs
                    .iter_mut()
                    .map(|b| b.slice::<f32>(1024).as_ptr() as usize)
                    .collect();
                assert!(ptrs.iter().all(|p| p % 64 == 0));
                ptrs.sort_unstable();
                ptrs.dedup();
                assert_eq!(ptrs.len(), 5, "nested takes share a buffer");
                drop(bufs);
                assert_eq!(pooled(), 5);
                ptrs
            };
            let first = nest();
            assert_eq!(nest(), first, "the second nest reuses the first's buffers");
        });
    }

    #[test]
    #[should_panic(expected = "Scratch: only f32 and f64")]
    fn scratch_refuses_other_element_types() {
        Scratch::take().slice::<u32>(1);
    }

    #[test]
    fn a_panic_resumes_on_the_caller_after_both_halves_finish() {
        for (f_panics, g_panics) in [(true, false), (false, true), (true, true)] {
            until_seen("a panicking half on the helper", || {
                let caller = thread::current().id();
                let f_thread = Mutex::new(None);
                let (f_done, g_done) = (AtomicBool::new(false), AtomicBool::new(false));
                let out = catch_unwind(AssertUnwindSafe(|| {
                    both(
                        true,
                        || {
                            *f_thread.lock().unwrap() = Some(thread::current().id());
                            f_done.store(true, Ordering::Release);
                            if f_panics {
                                panic!("f");
                            }
                        },
                        || {
                            // Leave the helper time to take `f`.
                            await_flag(&f_done);
                            g_done.store(true, Ordering::Release);
                            if g_panics {
                                panic!("g");
                            }
                        },
                    )
                }));
                let panic = out.expect_err("a half panicked");
                if f_thread.into_inner().unwrap() == Some(caller) {
                    // The helper was busy, and `f` ran inline first.
                    return false;
                }
                assert!(f_done.load(Ordering::Acquire) && g_done.load(Ordering::Acquire));
                let want = if g_panics { "g" } else { "f" };
                assert_eq!(panic.downcast_ref::<&str>(), Some(&want));
                true
            });
        }
        // Each case after the first also shows the helper outlived a panic.
    }

    #[test]
    fn a_nested_split_runs_inline_without_deadlock() {
        until_seen("a nested split under a helper half", || {
            let caller = thread::current().id();
            let f_thread = Mutex::new(None);
            let ran = Mutex::new(Vec::new());
            let leaf = |name: &'static str| {
                let ran = &ran;
                move || ran.lock().unwrap().push((name, thread::current().id()))
            };
            both(
                true,
                || {
                    *f_thread.lock().unwrap() = Some(thread::current().id());
                    both(true, leaf("f.f"), leaf("f.g"));
                },
                || {
                    both(
                        true,
                        || both(true, leaf("g.f.f"), leaf("g.f.g")),
                        leaf("g.g"),
                    )
                },
            );
            let f_thread = f_thread.into_inner().unwrap().expect("f ran");
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable_by_key(|r| r.0);
            let names: Vec<_> = ran.iter().map(|r| r.0).collect();
            assert_eq!(names, ["f.f", "f.g", "g.f.f", "g.f.g", "g.g"]);
            if f_thread == caller {
                return false;
            }
            // A split inside a half on the helper finds the helper busy.
            assert!(ran[..2].iter().all(|r| r.1 == f_thread), "{ran:?}");
            true
        });
    }

    #[test]
    fn two_threads_splitting_at_once_get_the_one_thread_bits() {
        use crate::{gemm, Mat, Op};
        // NN and TN above the unit tests' split threshold (2^16).
        let a: Mat<f64> = crate::gen::gaussian(256, 96, &mut crate::gen::rng(1));
        let b: Mat<f64> = crate::gen::gaussian(256, 128, &mut crate::gen::rng(2));
        let products = |c_nn: &mut Mat<f64>, c_tn: &mut Mat<f64>| {
            let bt = b.as_ref().submatrix(0, 0, 96, 128);
            gemm(
                1.0,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                bt,
                0.0,
                c_nn.as_mut(),
            );
            gemm(
                1.0,
                Op::Trans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                0.0,
                c_tn.as_mut(),
            );
        };
        let (mut nn, mut tn) = (Mat::zeros(256, 128), Mat::zeros(96, 128));
        one_thread(|| products(&mut nn, &mut tn));
        let bits = |x: &Mat<f64>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (nn, tn) = (bits(&nn), bits(&tn));
        let start = Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        let (mut c_nn, mut c_tn) = (Mat::zeros(256, 128), Mat::zeros(96, 128));
                        products(&mut c_nn, &mut c_tn);
                        assert_eq!(bits(&c_nn), nn, "NN");
                        assert_eq!(bits(&c_tn), tn, "TN");
                    }
                });
            }
        });
    }

    #[test]
    fn the_caller_runs_a_half_the_helper_never_took() {
        until_seen("a reclaimed half", || {
            let caller = thread::current().id();
            let g_ran = AtomicBool::new(false);
            let f_seen = Mutex::new(None);
            both(
                true,
                || {
                    let id = thread::current().id();
                    *f_seen.lock().unwrap() = Some((id, g_ran.load(Ordering::Relaxed)));
                },
                || g_ran.store(true, Ordering::Relaxed),
            );
            // The inline path runs `f` first; only a reclaimed `f` runs on
            // this thread after `g`.
            f_seen.into_inner().unwrap() == Some((caller, true))
        });
    }

    #[test]
    fn the_process_starts_one_helper() {
        let helpers: Mutex<Vec<ThreadId>> = Mutex::default();
        until_seen("a half on the helper", || {
            let start = Barrier::new(2);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        let caller = thread::current().id();
                        for _ in 0..200 {
                            let started = AtomicBool::new(false);
                            let record = || {
                                let id = thread::current().id();
                                if id != caller {
                                    helpers.lock().unwrap().push(id);
                                }
                                started.store(true, Ordering::Release);
                            };
                            // Waiting for `f` leaves the helper time to take it.
                            both(true, record, || await_flag(&started));
                        }
                    });
                }
            });
            !helpers.lock().unwrap().is_empty()
        });
        // Every half that left its caller ran on the one helper.
        let helper = helper().map(Thread::id);
        let helpers = helpers.into_inner().unwrap();
        assert!(helpers.iter().all(|&id| Some(id) == helper), "{helpers:?}");
    }
}
