//! # seal-pool
//!
//! A hermetic, dependency-free work-sharing thread pool — the single
//! parallelism substrate of the SEAL reproduction. Every multi-threaded
//! code path in the workspace (tensor kernels, `seal-serve` workers, the
//! figure harnesses' scheme sweeps) routes through this crate;
//! `clippy.toml`'s `disallowed-methods` rejects raw `std::thread::spawn` /
//! `std::thread::scope` anywhere else.
//!
//! ## Design
//!
//! * **Work sharing, not work stealing.** A parallel region publishes one
//!   *job* — a task count plus a `Fn(usize)` body — and every participant
//!   (the caller **and** the pool's persistent helper threads) claims task
//!   indices from a single shared atomic counter until the range drains.
//!   There are no per-thread deques and no stealing: the shared counter is
//!   the whole scheduler.
//! * **Determinism by construction.** The pool never decides how work is
//!   split — callers pass fixed task/chunk boundaries derived from the
//!   problem shape alone (never from the thread count), and each output
//!   region is written by exactly one task with a fixed sequential
//!   accumulation order. Which OS thread runs a task is therefore
//!   unobservable: results are bitwise identical for any `SEAL_THREADS`.
//! * **Caller participation + single-thread fallback.** The calling thread
//!   always executes tasks itself, so a pool with one thread (or a machine
//!   with one core) degrades to plain sequential execution with no
//!   synchronisation beyond one atomic check.
//! * **Panic-safe join.** A panic inside a task is caught, the region
//!   drains (remaining tasks are abandoned, in-flight ones finish), every
//!   helper is joined out of the region, and the first payload is re-thrown
//!   in the caller — never a deadlock, never a leaked borrow.
//! * **Nested regions run inline.** A task that itself calls
//!   [`parallel_for`] executes the inner region sequentially on its own
//!   thread — nesting cannot deadlock and cannot oversubscribe.
//! * **Busy pools degrade gracefully.** If another thread is already
//!   running a region on the same pool (e.g. two `seal-serve` workers both
//!   inside a conv kernel), later callers run their region inline instead
//!   of queueing — results are identical either way.
//!
//! ## Thread-count resolution
//!
//! 1. an explicit [`configure`] call (first one wins, before first use),
//! 2. the `SEAL_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`,
//! 4. single-threaded as the final fallback.
//!
//! ## Example
//!
//! ```
//! let mut out = vec![0u64; 1000];
//! seal_pool::par_chunks_mut(&mut out, 128, |chunk_idx, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 128 + i) as u64 * 2;
//!     }
//! });
//! assert_eq!(out[999], 1998);
//! ```

#![warn(missing_docs)]
#![warn(missing_unsafe_on_extern)]
#![warn(missing_debug_implementations)]
#![allow(
    clippy::disallowed_methods,
    reason = "seal-pool is the one crate that creates threads"
)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod supervisor;

pub use supervisor::{spawn_supervised, SupervisedWorker, SupervisorReport, SupervisorStats};

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard upper bound on pool threads — far above any machine this
/// reproduction targets, it only guards against a typo'd `SEAL_THREADS`.
pub const MAX_THREADS: usize = 256;

/// Errors from pool configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// [`configure`] was called with zero threads.
    ZeroThreads,
    /// [`configure`] was called after the global pool already started (or
    /// after an earlier `configure`) with a *different* thread count.
    AlreadyConfigured {
        /// The thread count that is already in force.
        current: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::ZeroThreads => write!(f, "pool thread count must be >= 1"),
            PoolError::AlreadyConfigured { current } => write!(
                f,
                "pool already configured with {current} thread(s); \
                 configure() must run before first use"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// Poison-recovering lock: pool bookkeeping stays consistent after any
/// task panic (panics never unwind while the slot lock is held anyway).
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Job: one parallel region.
// ---------------------------------------------------------------------------

/// One published parallel region. Lives on the caller's stack; helpers
/// reach it through a raw pointer that is only handed out under the slot
/// lock and only dereferenced while registered as `active` — the caller
/// joins every active helper before the region returns, so the pointee
/// outlives every use.
struct Job {
    /// Type-erased task body (`*const` erases the caller's lifetime).
    task: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index — the work-sharing counter.
    next: AtomicUsize,
    /// One past the last task index.
    total: usize,
    /// Helpers currently inside the region (claiming or running tasks).
    active: AtomicUsize,
    /// Set on the first task panic: participants stop claiming new tasks.
    panicked: AtomicBool,
    /// First panic payload, re-thrown by the caller after the join.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Job {
    /// Claims and runs tasks until the range drains or a panic aborts the
    /// region. Called by the region's owner and by helper threads alike.
    fn run_tasks(&self) {
        // SAFETY: the caller of `Inner::run` keeps the closure alive until
        // every participant has left the region (active == 0 under lock).
        let task = unsafe { &*self.task };
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = locked(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// The raw job pointer helpers pick up from the slot. Only ever created,
/// shared and cleared under the slot lock.
#[derive(Clone, Copy)]
struct JobRef(*const Job);

// SAFETY: the pointee is kept alive by the publishing caller until every
// helper has deregistered (see `Inner::run`), and all shared state inside
// `Job` is atomics/mutexes.
unsafe impl Send for JobRef {}

// ---------------------------------------------------------------------------
// Pool internals.
// ---------------------------------------------------------------------------

/// The slot helpers watch: at most one published job at a time.
struct Slot {
    /// Bumped on every publication so sleeping helpers can tell a new job
    /// from the one they already finished.
    seq: u64,
    /// The in-flight job, if any.
    job: Option<JobRef>,
    /// Set by `Pool::drop`: helpers exit their loop.
    quit: bool,
}

struct Inner {
    /// Total participant count (caller + helpers); helpers = threads - 1.
    threads: usize,
    slot: Mutex<Slot>,
    /// Helpers sleep here between jobs.
    work_ready: Condvar,
    /// The region owner sleeps here waiting for `active` to reach zero.
    helpers_done: Condvar,
    /// Claimed by the thread that currently owns the published region.
    busy: AtomicBool,
}

impl Inner {
    /// Runs `task(0..total)` with helper participation where profitable,
    /// inline otherwise. This is the pool's only entry point; all public
    /// functions funnel here.
    fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        // Inline paths: single-threaded pool, a single task, a nested
        // region (we are already inside a pool task), or a pool whose
        // helpers are busy with another caller's region. Running inline
        // is always valid because task boundaries — not thread identity —
        // define the result.
        if self.threads <= 1 || total == 1 || inside_pool_region() {
            for i in 0..total {
                task(i);
            }
            return;
        }
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            for i in 0..total {
                task(i);
            }
            return;
        }

        // SAFETY: erases the borrow's lifetime from the fat pointer. The
        // pointee outlives every dereference because this function joins
        // all participants (active == 0 under lock) before returning.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Job {
            task: erased,
            next: AtomicUsize::new(0),
            total,
            active: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        {
            let mut slot = locked(&self.slot);
            slot.seq = slot.seq.wrapping_add(1);
            slot.job = Some(JobRef(&job as *const Job));
        }
        self.work_ready.notify_all();

        // Participate. The region flag makes any nested parallel_for from
        // inside our own tasks run inline.
        let was_inside = REGION.with(|r| r.replace(true));
        job.run_tasks();
        REGION.with(|r| r.set(was_inside));

        // Retire the job: unpublish it so no new helper joins, then wait
        // for every helper that did join to leave. After this loop no
        // thread can touch `job` again, so the stack borrow ends safely.
        {
            let mut slot = locked(&self.slot);
            slot.job = None;
            while job.active.load(Ordering::Acquire) > 0 {
                slot = self
                    .helpers_done
                    .wait(slot)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        self.busy.store(false, Ordering::Release);

        let payload = locked(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Helper-thread main loop: sleep on the slot, join any newly published
/// job, drain tasks, deregister, repeat.
fn helper_loop(inner: &Inner) {
    // Helpers are permanently "inside" the pool: any parallel_for reached
    // from a task they run must execute inline.
    REGION.with(|r| r.set(true));
    let mut last_seen = 0u64;
    let mut slot = locked(&inner.slot);
    loop {
        if slot.quit {
            return;
        }
        if slot.seq != last_seen {
            last_seen = slot.seq;
            if let Some(job_ref) = slot.job {
                // SAFETY: taken under the lock from a live publication;
                // we register as active before releasing the lock, and the
                // publisher joins all active helpers before invalidating
                // the pointee.
                let job = unsafe { &*job_ref.0 };
                job.active.fetch_add(1, Ordering::AcqRel);
                drop(slot);
                job.run_tasks();
                slot = locked(&inner.slot);
                job.active.fetch_sub(1, Ordering::AcqRel);
                inner.helpers_done.notify_all();
                continue; // re-check: a new job may already be published
            }
        }
        slot = inner
            .work_ready
            .wait(slot)
            .unwrap_or_else(|e| e.into_inner());
    }
}

thread_local! {
    /// True while this thread is executing inside a pool region (helper
    /// threads: always). Gates the inline-nested-region rule.
    static REGION: Cell<bool> = const { Cell::new(false) };
    /// Pools temporarily installed by [`with_pool`], innermost last.
    static CURRENT: std::cell::RefCell<Vec<Arc<Inner>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn inside_pool_region() -> bool {
    REGION.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Pool handle.
// ---------------------------------------------------------------------------

/// A work-sharing thread pool with `threads` participants (the caller
/// counts as one; `threads - 1` helper OS threads are spawned).
///
/// Most code uses the process-global pool through the free functions
/// ([`parallel_for`], [`par_chunks_mut`], …). Explicit `Pool` values exist
/// for tests and benchmarks that compare thread counts in one process —
/// activate one with [`with_pool`].
pub struct Pool {
    inner: Arc<Inner>,
    helpers: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.inner.threads)
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl Pool {
    /// Creates a pool with exactly `threads` participants (clamped to
    /// `1..=`[`MAX_THREADS`]). `Pool::new(1)` spawns no helper threads and
    /// always runs inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.clamp(1, MAX_THREADS);
        let inner = Arc::new(Inner {
            threads,
            slot: Mutex::new(Slot {
                seq: 0,
                job: None,
                quit: false,
            }),
            work_ready: Condvar::new(),
            helpers_done: Condvar::new(),
            busy: AtomicBool::new(false),
        });
        let mut helpers = Vec::with_capacity(threads.saturating_sub(1));
        for i in 1..threads {
            let inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("seal-pool-{i}"))
                .spawn(move || helper_loop(&inner));
            // A failed helper spawn (OS resource exhaustion) degrades the
            // pool, it does not break it: the caller still participates.
            if let Ok(handle) = spawned {
                helpers.push(handle);
            }
        }
        Pool { inner, helpers }
    }

    /// The participant count this pool was built with.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs `task(i)` for every `i in 0..total` on this pool, returning
    /// after all tasks completed. Panics inside tasks are re-thrown here
    /// after the region has fully drained.
    pub fn parallel_for(&self, total: usize, task: impl Fn(usize) + Sync) {
        self.inner.run(total, &task);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = locked(&self.inner.slot);
            slot.quit = true;
        }
        self.inner.work_ready.notify_all();
        for h in self.helpers.drain(..) {
            // A helper that panicked outside a task already aborted its
            // loop; nothing to recover at teardown.
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool + configuration.
// ---------------------------------------------------------------------------

static CONFIGURED: OnceLock<usize> = OnceLock::new();
static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Parses a `SEAL_THREADS`-style value: positive integers pass (clamped to
/// [`MAX_THREADS`]); anything else is `None` (fall through to auto).
fn parse_threads(value: Option<&str>) -> Option<usize> {
    let n: usize = value?.trim().parse().ok()?;
    if n == 0 {
        return None;
    }
    Some(n.min(MAX_THREADS))
}

/// The thread count the global pool uses (or would use): `configure()`
/// override, then `SEAL_THREADS`, then `available_parallelism`, then 1.
fn resolved_threads() -> usize {
    if let Some(&n) = CONFIGURED.get() {
        return n;
    }
    let env = std::env::var("SEAL_THREADS").ok();
    if let Some(n) = parse_threads(env.as_deref()) {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_THREADS)
}

fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(resolved_threads()))
}

/// Overrides the global pool's thread count. Must run before the pool's
/// first use; the first configuration wins for the whole process.
///
/// # Errors
///
/// [`PoolError::ZeroThreads`] for `threads == 0`;
/// [`PoolError::AlreadyConfigured`] if the global pool already started (or
/// was already configured) with a different count. Re-configuring to the
/// count already in force is accepted as a no-op.
pub fn configure(threads: usize) -> Result<(), PoolError> {
    if threads == 0 {
        return Err(PoolError::ZeroThreads);
    }
    let threads = threads.min(MAX_THREADS);
    if let Some(pool) = GLOBAL.get() {
        if pool.threads() == threads {
            return Ok(());
        }
        return Err(PoolError::AlreadyConfigured {
            current: pool.threads(),
        });
    }
    let winner = *CONFIGURED.get_or_init(|| threads);
    if winner == threads {
        Ok(())
    } else {
        Err(PoolError::AlreadyConfigured { current: winner })
    }
}

/// The participant count of the pool the *current thread* would use: the
/// innermost [`with_pool`] override if one is active, else the global pool
/// (starting it if needed).
pub fn current_threads() -> usize {
    if let Some(inner) = CURRENT.with(|c| c.borrow().last().cloned()) {
        return inner.threads;
    }
    global().threads()
}

/// Runs `f` with `pool` installed as the current thread's pool: every
/// [`parallel_for`] / `par_*` call made (directly) from `f` uses it
/// instead of the global pool. Restores the previous pool on exit, also
/// on panic. Used by benchmarks and the determinism suite to compare
/// thread counts inside one process.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    CURRENT.with(|c| c.borrow_mut().push(Arc::clone(&pool.inner)));
    let _guard = Uninstall;
    f()
}

fn current_or_global() -> Arc<Inner> {
    if let Some(inner) = CURRENT.with(|c| c.borrow().last().cloned()) {
        return inner;
    }
    Arc::clone(&global().inner)
}

// ---------------------------------------------------------------------------
// Public parallel primitives.
// ---------------------------------------------------------------------------

/// Runs `task(i)` for every `i in 0..total` on the current pool (the
/// innermost [`with_pool`] override, else the global pool).
///
/// The task body must tolerate running on any participant thread in any
/// claim order; determinism comes from each index owning a disjoint,
/// internally-sequential piece of work.
pub fn parallel_for(total: usize, task: impl Fn(usize) + Sync) {
    current_or_global().run(total, &task);
}

/// Base pointer of a mutable slice, smuggled into `Fn` tasks. Sound
/// because every task touches a disjoint index range and the region joins
/// before the borrow ends.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the bare raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: `SendPtr` is only handed to tasks that write disjoint index
// ranges of the pointee slice, and `parallel_for` joins every task before
// the caller's mutable borrow ends; `T: Send` carries the element bound.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `SendPtr` across workers is sound for the same reason —
// no two tasks alias an element, so `&SendPtr` grants no shared mutation.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Splits `data` into `chunk`-sized pieces (last one may be short) and
/// runs `f(chunk_index, chunk)` for each in parallel. Chunk boundaries
/// depend only on `data.len()` and `chunk` — never on the thread count —
/// so any writes are placed identically for every `SEAL_THREADS`.
///
/// # Panics
///
/// Panics if `chunk == 0`.
// seal-lint: allow(panic-freedom) — the geometry asserts are the documented `# Panics` contract — a violation is a caller bug we fail loudly on
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "par_chunks_mut chunk size must be >= 1");
    let len = data.len();
    if len == 0 {
        return;
    }
    let tasks = len.div_ceil(chunk);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(tasks, |i| {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: [start, end) ranges are pairwise disjoint across task
        // indices and within the live borrow of `data`.
        let part = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, part);
    });
}

/// Like [`par_chunks_mut`] over two slices at once: task `i` receives the
/// `i`-th chunk of `a` (size `chunk_a`) and the `i`-th chunk of `b` (size
/// `chunk_b`). Both slices must produce the same number of chunks — the
/// idiom for writing paired outputs (values + indices, sums + squares)
/// from one deterministic pass.
///
/// # Panics
///
/// Panics if either chunk size is zero or the chunk counts disagree.
// seal-lint: allow(panic-freedom) — the paired-length asserts are the documented `# Panics` contract guarding disjoint-range safety
pub fn par_chunks_pair_mut<T, U, F>(a: &mut [T], chunk_a: usize, b: &mut [U], chunk_b: usize, f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(
        chunk_a > 0 && chunk_b > 0,
        "par_chunks_pair_mut chunk sizes must be >= 1"
    );
    let (len_a, len_b) = (a.len(), b.len());
    let tasks = len_a.div_ceil(chunk_a);
    assert!(
        tasks == len_b.div_ceil(chunk_b),
        "par_chunks_pair_mut slices disagree on chunk count"
    );
    if tasks == 0 {
        return;
    }
    let base_a = SendPtr(a.as_mut_ptr());
    let base_b = SendPtr(b.as_mut_ptr());
    parallel_for(tasks, |i| {
        let (sa, ea) = (i * chunk_a, ((i + 1) * chunk_a).min(len_a));
        let (sb, eb) = (i * chunk_b, ((i + 1) * chunk_b).min(len_b));
        // SAFETY: disjoint ranges per task in both slices, within the live
        // borrows of `a` and `b`.
        let pa = unsafe { std::slice::from_raw_parts_mut(base_a.get().add(sa), ea - sa) };
        // SAFETY: same argument as `pa` — `sb..eb` is disjoint per task and
        // clamped to `len_b`, inside `b`'s live mutable borrow.
        let pb = unsafe { std::slice::from_raw_parts_mut(base_b.get().add(sb), eb - sb) };
        f(i, pa, pb);
    });
}

/// Maps `f` over `items` with **one scoped OS thread per item**, returning
/// results in input order and re-throwing the first worker panic.
///
/// This is the pool's escape hatch for *coarse, blocking* concurrency —
/// closed-loop load-generator clients, figure-harness scheme sweeps —
/// where items block on external events and must all be in flight at
/// once, which a fixed-width pool cannot guarantee. CPU-bound data
/// parallelism belongs on [`parallel_for`] instead.
pub fn scoped_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    })
}

/// Spawns a named, long-lived runtime thread (e.g. a `seal-serve` worker).
/// The audited alternative to raw `std::thread::spawn` for threads that
/// outlive any parallel region; short-lived CPU work belongs on
/// [`parallel_for`] / [`scoped_map`].
///
/// # Errors
///
/// Propagates the OS error if the thread cannot be created.
pub fn spawn_worker<F, T>(
    name: impl Into<String>,
    f: F,
) -> std::io::Result<std::thread::JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new().name(name.into()).spawn(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_runs_exactly_once_for_any_thread_count() {
        for threads in [1, 2, 7] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_many_regions() {
        let pool = Pool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.parallel_for(10, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * 45);
    }

    #[test]
    fn par_chunks_mut_covers_uneven_tail() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            with_pool(&pool, || {
                let mut data = vec![0usize; 1001];
                par_chunks_mut(&mut data, 64, |ci, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = ci * 64 + j + 1;
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
            });
        }
    }

    #[test]
    fn par_chunks_pair_mut_writes_both_outputs() {
        let pool = Pool::new(5);
        with_pool(&pool, || {
            let mut vals = vec![0u32; 40];
            let mut tags = vec![0u8; 10];
            par_chunks_pair_mut(&mut vals, 4, &mut tags, 1, |i, v, t| {
                for x in v.iter_mut() {
                    *x = i as u32;
                }
                t[0] = i as u8;
            });
            assert_eq!(vals[5], 1);
            assert_eq!(tags, (0..10).collect::<Vec<u8>>());
        });
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let pool = Pool::new(4);
        let count = AtomicUsize::new(0);
        pool.parallel_for(8, |_| {
            // Nested region: must execute inline on this participant.
            parallel_for(5, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(16, |i| {
                if i == 7 {
                    // A seeded failure, not library code reaching a bad
                    // state.
                    panic!("task 7 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still work after a panicked region.
        let ran = AtomicUsize::new(0);
        pool.parallel_for(4, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn with_pool_installs_and_restores() {
        let p2 = Pool::new(2);
        let outer = current_threads();
        with_pool(&p2, || {
            assert_eq!(current_threads(), 2);
            let p7 = Pool::new(7);
            with_pool(&p7, || assert_eq!(current_threads(), 7));
            assert_eq!(current_threads(), 2);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn scoped_map_preserves_input_order() {
        let out = scoped_map((0..20).collect::<Vec<_>>(), |i| i * i);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("junk")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_threads(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    fn configure_zero_is_rejected() {
        assert_eq!(configure(0), Err(PoolError::ZeroThreads));
    }

    #[test]
    fn dropping_a_pool_joins_helpers() {
        let pool = Pool::new(6);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        drop(pool); // must not hang
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn busy_pool_runs_second_caller_inline() {
        // Two threads race regions on the same pool; both must complete
        // with correct results regardless of who wins the helpers.
        let pool = std::sync::Arc::new(Pool::new(4));
        let results = scoped_map(vec![0usize; 4], |_| {
            let total = AtomicUsize::new(0);
            pool.parallel_for(64, |i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            total.load(Ordering::Relaxed)
        });
        assert!(results.iter().all(|&r| r == 64 * 65 / 2));
    }
}
