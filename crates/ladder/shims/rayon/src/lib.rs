//! Offline stand-in for the subset of `rayon` the hibd crates use: indexed
//! parallel iterators over slices (`par_iter`, `par_iter_mut`, `par_chunks`,
//! `par_chunks_mut`, `zip`, `enumerate`, `for_each`, `for_each_init`),
//! [`join`] and [`current_num_threads`].
//!
//! One process-wide pool: `RAYON_NUM_THREADS` (else the available
//! parallelism) threads in total, counting the thread that makes the call,
//! so `RAYON_NUM_THREADS = 1` runs everything inline. Work is handed out in
//! index blocks from an atomic counter; every hibd call site writes disjoint
//! outputs and reduces nothing, so results do not depend on the schedule.

mod pool;

pub mod iter;
pub mod slice;

pub mod prelude {
    pub use crate::iter::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

pub use pool::{current_num_threads, join};

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunked_zip_enumerate_visits_every_item_once() {
        let n = 10_007;
        let src: Vec<u64> = (0..n as u64).collect();
        let mut dst = vec![0u64; n];
        dst.par_chunks_mut(64).zip(src.par_chunks(64)).enumerate().for_each(|(c, (d, s))| {
            for (k, (d, s)) in d.iter_mut().zip(s).enumerate() {
                *d += 2 * s + (c * 64 + k) as u64;
            }
        });
        assert!(dst.iter().enumerate().all(|(i, &v)| v == 3 * i as u64));
        let visits = AtomicUsize::new(0);
        dst.par_iter_mut().enumerate().for_each(|(i, v)| {
            *v = i as u64;
            visits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(visits.load(Ordering::Relaxed), n);
        assert!(src.par_iter().zip(dst.par_iter()).len() == n && src == dst);
        Vec::<u8>::new().par_iter().for_each(|_| unreachable!());
    }

    #[test]
    fn for_each_init_builds_scratch_per_thread_not_per_item() {
        let inits = AtomicUsize::new(0);
        let mut out = vec![0usize; 4096];
        out.par_chunks_mut(8).for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::with_capacity(8)
            },
            |scratch, chunk| {
                scratch.clear();
                scratch.extend(chunk.iter().map(|_| 7));
                chunk.copy_from_slice(scratch);
            },
        );
        assert!(out.iter().all(|&v| v == 7));
        let built = inits.load(Ordering::Relaxed);
        assert!((1..=crate::current_num_threads()).contains(&built), "{built} scratch values");
    }

    #[test]
    fn join_nests_and_returns_both_results() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 32 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = crate::join(|| sum(lo, mid), || sum(mid, hi));
            a + b
        }
        assert_eq!(sum(0, 100_000), 100_000 * 99_999 / 2);
        // Parallel loops inside both arms of a join.
        let (mut left, mut right) = (vec![1u32; 5000], vec![2u32; 5000]);
        crate::join(
            || left.par_iter_mut().for_each(|v| *v += 10),
            || right.par_chunks_mut(7).for_each(|c| c.iter_mut().for_each(|v| *v += 20)),
        );
        assert!(left.iter().all(|&v| v == 11) && right.iter().all(|&v| v == 22));
    }

    #[test]
    fn a_panic_in_any_thread_reaches_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            (0..1000usize)
                .collect::<Vec<_>>()
                .par_iter()
                .for_each(|&i| assert!(i != 777, "boom at {i}"));
        });
        assert!(caught.is_err());
        let caught =
            std::panic::catch_unwind(|| crate::join(|| 1, || -> i32 { panic!("right arm") }));
        assert!(caught.is_err());
        let mut v = vec![0u8; 1000];
        v.par_iter_mut().for_each(|b| *b = 1);
        assert_eq!(v.iter().map(|&b| usize::from(b)).sum::<usize>(), 1000);
    }
}
