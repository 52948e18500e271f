//! `par_chunks` / `par_chunks_mut` on slices.

use crate::iter::{IndexedParallelIterator, ParallelIterator};
use std::marker::PhantomData;

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    /// Parallel version of `chunks`: the last chunk may be shorter.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks { slice: self.as_parallel_slice(), chunk_size }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    /// Parallel version of `chunks_mut`: the last chunk may be shorter.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        let slice = self.as_parallel_slice_mut();
        ChunksMut { ptr: slice.as_mut_ptr(), len: slice.len(), chunk_size, marker: PhantomData }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

pub struct Chunks<'a, T> {
    slice: &'a [T],
    chunk_size: usize,
}

impl<'a, T: Sync + 'a> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }
    unsafe fn get(&self, index: usize) -> &'a [T] {
        let start = index * self.chunk_size;
        &self.slice[start..(start + self.chunk_size).min(self.slice.len())]
    }
}

impl<'a, T: Sync + 'a> IndexedParallelIterator for Chunks<'a, T> {}

pub struct ChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk_size: usize,
    marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a `ChunksMut` is an exclusive borrow of a `[T]` split into disjoint
// `&mut [T]`; handing those to other threads needs exactly `T: Send`.
unsafe impl<T: Send> Send for ChunksMut<'_, T> {}
// SAFETY: `&ChunksMut` only exposes `get`, whose contract (each index once)
// keeps the chunks it returns disjoint.
unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk_size)
    }
    unsafe fn get(&self, index: usize) -> &'a mut [T] {
        let start = index * self.chunk_size;
        assert!(start < self.len);
        let n = self.chunk_size.min(self.len - start);
        // SAFETY: `start + n <= len` by construction; chunks of distinct
        // indices do not overlap and the caller requests each index once.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), n) }
    }
}

impl<'a, T: Send + 'a> IndexedParallelIterator for ChunksMut<'a, T> {}
