//! `hibd-alloctrack`: a counting global allocator for steady-state
//! allocation regression tests.
//!
//! The PME/PSE apply paths promise to be allocation-free at steady state
//! (scratch is grown by `resize` and reused; see CLAUDE.md and DESIGN.md
//! "Invariants & audit tooling"). This crate turns that promise into a
//! failing test: install [`CountingAlloc`] as the global allocator of a test
//! binary with [`install!`], warm the operator up, then assert via
//! [`measure`] that repeated applies cause **zero net heap growth** across
//! all threads.
//!
//! ## Why *net* growth, not "zero `malloc` calls"
//!
//! Rayon's work distribution itself allocates: submitting a parallel job
//! from a non-pool thread pushes onto a `crossbeam` injector queue that
//! grows in 32-slot blocks, and `for_each_init` closures run once per work
//! split, so worker-side scratch (e.g. the FFT twiddle buffers) is
//! allocated and freed on every batched transform. Those transients are
//! real but bounded and they net out to ~zero; what the invariant forbids
//! is *monotone* growth — a `vec!` per apply that the allocator never gets
//! back, or scratch that `memory_bytes` fails to count. The tests therefore
//! assert `net_bytes` deltas (with a small tolerance for lazy runtime
//! initialization) rather than intercepting individual calls, and the
//! lexical side — "no `vec!` in a `#[hibd::hot]` body at all" — is enforced
//! separately by `cargo run -p xtask -- audit`.
//!
//! Counters are process-global atomics, so tests that measure must hold the
//! [`exclusive`] lock to keep other tests in the same binary from polluting
//! the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use hibd_linalg::LinearOperator;

/// Net live heap bytes since process start (allocs minus deallocs).
static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
/// High-water mark of [`NET_BYTES`]; reset with [`reset_peak`].
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Total number of allocation calls (allocs + grow side of reallocs).
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
/// Largest single allocation request since the last [`measure`] began.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

fn record_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    LARGEST_ALLOC.fetch_max(size, Ordering::Relaxed);
    let net = NET_BYTES.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
    PEAK_BYTES.fetch_max(net, Ordering::Relaxed);
}

fn record_dealloc(size: usize) {
    NET_BYTES.fetch_sub(size as isize, Ordering::Relaxed);
}

/// A [`System`]-delegating allocator that keeps process-global counts of net
/// live bytes, the high-water mark, and the number of allocation calls.
///
/// The bookkeeping is a handful of relaxed atomic ops per call and never
/// allocates itself, so it is safe to install unconditionally in test
/// binaries (the perf cost is negligible next to `System`).
pub struct CountingAlloc;

// SAFETY: every method delegates the actual memory management to `System`
// (which upholds the `GlobalAlloc` contract) and only adds atomic counter
// updates, which cannot affect the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `layout` validity.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `layout` validity.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller guarantees `ptr` came from
        // this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller guarantees `ptr`/`layout`
        // validity and a nonzero rounded `new_size`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // Count as free(old) + alloc(new) so `net_bytes` tracks live
            // bytes exactly (a shrink records negative growth).
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Installs [`CountingAlloc`] as the `#[global_allocator]` of the current
/// binary. Invoke once at the top of each test file that measures.
#[macro_export]
macro_rules! install {
    () => {
        #[global_allocator]
        static HIBD_COUNTING_ALLOC: $crate::CountingAlloc = $crate::CountingAlloc;
    };
}

/// Net live heap bytes right now (allocations minus deallocations since
/// process start). Only meaningful when [`install!`] is in effect.
pub fn net_bytes() -> isize {
    NET_BYTES.load(Ordering::Relaxed)
}

/// Number of allocation calls since process start.
pub fn alloc_calls() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// High-water mark of [`net_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> isize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current net, so the next
/// [`peak_bytes`] reading reflects only what happens afterwards.
pub fn reset_peak() {
    PEAK_BYTES.store(NET_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Serializes measuring tests within a binary: the counters are process
/// global, so concurrent tests would pollute each other's deltas.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking measurement test must not poison every later one.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What happened to the heap across a [`measure`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Measurement {
    /// Net live-byte growth: allocated minus freed, all threads.
    pub net_bytes: isize,
    /// Number of allocation calls (transients included).
    pub alloc_calls: usize,
    /// Highest net growth above the starting point reached at any moment
    /// during the call (the closure's true scratch footprint).
    pub peak_bytes: isize,
    /// Largest single allocation request made during the call: a buffer
    /// that is dropped and allocated again leaves `net_bytes` and
    /// `peak_bytes` alone but shows here.
    pub largest_alloc: usize,
}

/// Runs `f` and reports the heap delta it caused across **all** threads.
///
/// Callers that assert on the result must hold [`exclusive`] around the
/// whole warm-up + measure sequence.
pub fn measure<R>(f: impl FnOnce() -> R) -> (Measurement, R) {
    reset_peak();
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    let net0 = net_bytes();
    let calls0 = alloc_calls();
    let out = f();
    let m = Measurement {
        net_bytes: net_bytes() - net0,
        alloc_calls: alloc_calls() - calls0,
        peak_bytes: peak_bytes() - net0,
        largest_alloc: LARGEST_ALLOC.load(Ordering::Relaxed),
    };
    (m, out)
}

/// A [`LinearOperator`] decorator that measures the heap effect of every
/// `apply`/`apply_multi` it forwards, accumulating totals.
///
/// Used by the Krylov regression tests: wrap the PME operator, run block
/// Lanczos once to warm scratch, [`AllocCheckedOp::reset`], run again, and
/// assert [`AllocCheckedOp::total_net_bytes`] stayed ~zero — i.e. the
/// operator applies inside the iteration are allocation-free even though
/// the surrounding Lanczos bookkeeping is not.
pub struct AllocCheckedOp<Op> {
    inner: Op,
    applies: usize,
    total_net_bytes: isize,
    max_apply_net_bytes: isize,
}

impl<Op: LinearOperator> AllocCheckedOp<Op> {
    pub fn new(inner: Op) -> Self {
        AllocCheckedOp { inner, applies: 0, total_net_bytes: 0, max_apply_net_bytes: 0 }
    }

    /// Clears the accumulated statistics (e.g. after a warm-up pass).
    pub fn reset(&mut self) {
        self.applies = 0;
        self.total_net_bytes = 0;
        self.max_apply_net_bytes = 0;
    }

    /// Number of forwarded applies since the last [`AllocCheckedOp::reset`].
    pub fn applies(&self) -> usize {
        self.applies
    }

    /// Summed net heap growth across all forwarded applies.
    pub fn total_net_bytes(&self) -> isize {
        self.total_net_bytes
    }

    /// Largest single-apply net heap growth observed.
    pub fn max_apply_net_bytes(&self) -> isize {
        self.max_apply_net_bytes
    }

    pub fn into_inner(self) -> Op {
        self.inner
    }

    fn record(&mut self, m: Measurement) {
        self.applies += 1;
        self.total_net_bytes += m.net_bytes;
        self.max_apply_net_bytes = self.max_apply_net_bytes.max(m.net_bytes);
    }
}

impl<Op: LinearOperator> LinearOperator for AllocCheckedOp<Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let inner = &mut self.inner;
        let (m, ()) = measure(|| inner.apply(x, y));
        self.record(m);
    }

    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        let inner = &mut self.inner;
        let (m, ()) = measure(|| inner.apply_multi(x, y, s));
        self.record(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_linalg::{DMat, DenseOp};

    // Unit tests of the *arithmetic*; the allocator itself is exercised by
    // the integration suites in pme/krylov/pse/core, whose binaries install
    // it globally.
    #[test]
    fn measurement_arithmetic_nets_out() {
        let _guard = exclusive();
        let (m, v) = measure(|| std::hint::black_box(vec![0u8; 4096]));
        drop(v);
        // Without `install!` in this (unit-test) binary the counters are
        // inert; all we can assert is internal consistency.
        assert!(m.peak_bytes >= m.net_bytes);
    }

    #[test]
    fn checked_op_forwards_and_counts() {
        let m = DMat::from_fn(4, 4, |i, j| if i == j { 2.0 } else { 0.0 });
        let mut op = AllocCheckedOp::new(DenseOp::new(m));
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        op.apply(&x, &mut y);
        assert_eq!(y, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(op.applies(), 1);
        op.reset();
        assert_eq!(op.applies(), 0);
        assert_eq!(op.total_net_bytes(), 0);
    }
}
