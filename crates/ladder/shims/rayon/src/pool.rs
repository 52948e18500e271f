//! The process-wide pool behind [`join`] and the parallel iterators.
//!
//! A caller publishes `helpers` references to a closure that lives on its own
//! stack, runs its share of the work itself, takes back the references no
//! worker picked up, and waits (running other queued jobs meanwhile) for the
//! ones that did. A thread therefore only ever waits for jobs that are
//! running on a live thread, so nested calls cannot deadlock.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Polls of the queue length an idle thread makes before it gives up the
/// processor (a worker sleeps on the condition variable, a waiting caller
/// starts yielding). Roughly two milliseconds: long enough that a worker is
/// still awake when the serial stretch between two parallel loops of a BD
/// step ends, so handing over work does not depend on how fast the host
/// wakes a halted virtual CPU — the largest source of run-to-run spread
/// measured with a shorter spin.
const IDLE_SPINS: u32 = 40_000;

/// What a caller shares with its helpers. Lives on the caller's stack.
struct Shared<'a> {
    body: &'a (dyn Fn() + Sync),
    /// Published references not yet run to completion or taken back.
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

#[derive(Clone, Copy)]
struct JobRef(*const Shared<'static>);

// SAFETY: `Shared` holds a `Sync` closure reference, an atomic and a mutex,
// so `&Shared` may cross threads; `run_with_helpers` keeps the pointee alive
// until every `JobRef` to it has been executed or removed from the queue.
unsafe impl Send for JobRef {}

struct Queue {
    jobs: VecDeque<JobRef>,
    sleepers: usize,
}

struct Pool {
    /// Threads that can run work at once, the calling thread included.
    threads: usize,
    queue: Mutex<Queue>,
    /// Mirror of `queue.jobs.len()` for polling without the lock.
    queued: AtomicUsize,
    wake: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No invariant spans a panic in any critical section below: they only
    // move whole values in and out.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
            .unwrap_or(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            threads,
            queue: Mutex::new(Queue { jobs: VecDeque::new(), sleepers: 0 }),
            queued: AtomicUsize::new(0),
            wake: Condvar::new(),
        }));
        for i in 1..threads {
            // Workers are detached on purpose: they serve the pool until
            // the process exits, as rayon's global pool does.
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker thread");
        }
        pool
    })
}

impl Pool {
    fn push(&self, job: JobRef, copies: usize) {
        let mut q = lock(&self.queue);
        for _ in 0..copies {
            q.jobs.push_back(job);
        }
        self.queued.fetch_add(copies, Ordering::Release);
        if q.sleepers > 0 {
            if copies == 1 {
                self.wake.notify_one();
            } else {
                self.wake.notify_all();
            }
        }
    }

    fn try_pop(&self) -> Option<JobRef> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = lock(&self.queue);
        let job = q.jobs.pop_front();
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::Release);
        }
        job
    }

    /// Remove every queued reference to `target`; returns how many.
    fn retract(&self, target: *const Shared<'static>) -> usize {
        let mut q = lock(&self.queue);
        let before = q.jobs.len();
        q.jobs.retain(|j| !std::ptr::eq(j.0, target));
        let removed = before - q.jobs.len();
        self.queued.fetch_sub(removed, Ordering::Release);
        removed
    }

    fn worker_loop(&self) {
        loop {
            if let Some(job) = self.try_pop() {
                // SAFETY: the reference came off the queue, so its caller is
                // still inside `run_with_helpers` waiting for it.
                unsafe { execute(job) };
                continue;
            }
            if (0..IDLE_SPINS).any(|_| {
                std::hint::spin_loop();
                self.queued.load(Ordering::Relaxed) > 0
            }) {
                continue;
            }
            let mut q = lock(&self.queue);
            while q.jobs.is_empty() {
                q.sleepers += 1;
                q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.sleepers -= 1;
            }
        }
    }
}

/// Run the job's closure, record a panic for the caller, mark it finished.
///
/// # Safety
/// `job` must point at a `Shared` whose owner is still waiting in
/// `run_with_helpers` (true for every reference taken from the queue).
unsafe fn execute(job: JobRef) {
    // SAFETY: guaranteed by the caller; see above.
    let shared = unsafe { &*job.0 };
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (shared.body)())) {
        lock(&shared.panic).get_or_insert(payload);
    }
    // Last touch: once `pending` reaches zero the owner may free `shared`.
    shared.pending.fetch_sub(1, Ordering::Release);
}

/// Offer `body` to up to `helpers` other threads while this thread runs
/// `caller`. Returns `caller`'s result and how many offers nobody took.
/// Panics from either side are re-raised here after every helper is done.
pub(crate) fn run_with_helpers<R>(
    body: &(dyn Fn() + Sync),
    helpers: usize,
    caller: impl FnOnce() -> R,
) -> (R, usize) {
    let pool = pool();
    let shared = Shared { body, pending: AtomicUsize::new(helpers), panic: Mutex::new(None) };
    // The lifetime is erased only for the queue; nothing outlives this frame.
    let target = std::ptr::from_ref(&shared).cast::<Shared<'static>>();
    pool.push(JobRef(target), helpers);

    let mine = panic::catch_unwind(AssertUnwindSafe(caller));

    let retracted = pool.retract(target);
    shared.pending.fetch_sub(retracted, Ordering::Relaxed);
    let mut idle = 0u32;
    while shared.pending.load(Ordering::Acquire) != 0 {
        if let Some(job) = pool.try_pop() {
            // SAFETY: taken from the queue, so its owner is waiting for it.
            unsafe { execute(job) };
            idle = 0;
        } else if idle < IDLE_SPINS {
            std::hint::spin_loop();
            idle += 1;
        } else {
            std::thread::yield_now();
        }
    }
    if let Some(payload) = lock(&shared.panic).take() {
        panic::resume_unwind(payload);
    }
    match mine {
        Ok(r) => (r, retracted),
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Threads that run parallel work at once (the caller is one of them).
pub fn current_num_threads() -> usize {
    pool().threads
}

/// Run both closures, possibly in parallel, and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() == 1 {
        return (a(), b());
    }
    let b_fn = Mutex::new(Some(b));
    let b_out = Mutex::new(None);
    let run_b = || {
        let f = lock(&b_fn).take();
        if let Some(f) = f {
            let r = f();
            *lock(&b_out) = Some(r);
        }
    };
    let (ra, retracted) = run_with_helpers(&run_b, 1, a);
    if retracted == 1 {
        run_b();
    }
    let rb = b_out.into_inner().unwrap_or_else(PoisonError::into_inner);
    (ra, rb.expect("join: the second closure ran exactly once"))
}
