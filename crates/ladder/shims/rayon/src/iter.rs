//! Indexed parallel iterators: every source here knows its length and can
//! hand out item `i` directly, which is all `for_each` needs to split work.

use crate::pool::{current_num_threads, run_with_helpers};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Index blocks per thread: enough slack for uneven items to balance.
const BLOCKS_PER_THREAD: usize = 4;

pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;

    /// Number of items.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce item `index`.
    ///
    /// # Safety
    /// `index < self.len()`, and each index is requested at most once over
    /// the iterator's lifetime (items may be exclusive borrows).
    unsafe fn get(&self, index: usize) -> Self::Item;

    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.for_each_init(|| (), |(), item| op(item));
    }

    /// Like [`for_each`](Self::for_each) with a scratch value built once per
    /// participating thread.
    fn for_each_init<T, INIT, F>(self, init: INIT, op: F)
    where
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, Self::Item) + Sync + Send,
    {
        let len = self.len();
        let threads = current_num_threads();
        if threads == 1 || len <= 1 {
            let mut scratch = init();
            for i in 0..len {
                // SAFETY: `i < len`, each index once.
                op(&mut scratch, unsafe { self.get(i) });
            }
            return;
        }
        let block = (len / (threads * BLOCKS_PER_THREAD)).max(1);
        let next = AtomicUsize::new(0);
        let body = || {
            let mut scratch = None;
            loop {
                let start = next.fetch_add(block, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let scratch = scratch.get_or_insert_with(&init);
                for i in start..(start + block).min(len) {
                    // SAFETY: the counter hands each index in `0..len` to
                    // exactly one thread.
                    op(scratch, unsafe { self.get(i) });
                }
            }
        };
        let helpers = (threads - 1).min(len.div_ceil(block) - 1);
        run_with_helpers(&body, helpers, body);
    }
}

pub trait IndexedParallelIterator: ParallelIterator {
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Pairs items up to the shorter length.
    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        Zip { a: self, b: other.into_par_iter() }
    }
}

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Iter = Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Iter = Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut [T] {
    type Iter = IterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> IterMut<'a, T> {
        IterMut { ptr: self.as_mut_ptr(), len: self.len(), marker: PhantomData }
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = IterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> IterMut<'a, T> {
        self.as_mut_slice().into_par_iter()
    }
}

/// `par_iter()` on anything whose shared reference iterates in parallel.
pub trait IntoParallelRefIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    type Item = <&'a C as IntoParallelIterator>::Item;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut()` on anything whose exclusive reference iterates in parallel.
pub trait IntoParallelRefMutIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoParallelIterator,
{
    type Iter = <&'a mut C as IntoParallelIterator>::Iter;
    type Item = <&'a mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Parallel iterator over `&T`.
pub struct Iter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn get(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

impl<'a, T: Sync + 'a> IndexedParallelIterator for Iter<'a, T> {}

/// Parallel iterator over `&mut T`.
pub struct IterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    marker: PhantomData<&'a mut [T]>,
}

// SAFETY: an `IterMut` is an exclusive borrow of a `[T]` split into disjoint
// `&mut T`; handing those to other threads needs exactly `T: Send`.
unsafe impl<T: Send> Send for IterMut<'_, T> {}
// SAFETY: `&IterMut` only exposes `get`, whose contract (each index once)
// keeps the `&mut T` it returns disjoint.
unsafe impl<T: Send> Sync for IterMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn get(&self, index: usize) -> &'a mut T {
        assert!(index < self.len);
        // SAFETY: in bounds by the assert; unaliased because the caller
        // requests each index at most once.
        unsafe { &mut *self.ptr.add(index) }
    }
}

impl<'a, T: Send + 'a> IndexedParallelIterator for IterMut<'a, T> {}

pub struct Enumerate<I> {
    base: I,
}

impl<I: IndexedParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn get(&self, index: usize) -> (usize, I::Item) {
        // SAFETY: forwarded contract.
        (index, unsafe { self.base.get(index) })
    }
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn get(&self, index: usize) -> (A::Item, B::Item) {
        // SAFETY: `index` is below both lengths; forwarded contract.
        unsafe { (self.a.get(index), self.b.get(index)) }
    }
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {}
