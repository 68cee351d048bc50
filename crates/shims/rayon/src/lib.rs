//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot reach crates.io, so this workspace ships
//! the slice of the rayon API its campaign engine uses:
//! `into_par_iter()` over ranges, vectors and slices, followed by
//! `.map(..).collect()`, `.for_each(..)`, `.sum()` or `.reduce(..)`.
//! Work is self-scheduled on [`std::thread::scope`] threads (one per
//! available core): each worker claims the next unclaimed item as soon
//! as it finishes its last one, so one slow item never idles the other
//! cores behind a fixed share of the work. Results come back **in input
//! order** — the same observable contract rayon's indexed parallel
//! iterators give.

#![deny(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Re-exports that make `use rayon::prelude::*` work.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter};
}

/// Number of worker threads used for a job of `n` items.
fn thread_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(n)
        .max(1)
}

/// One item of a [`par_map`] job: its input until a worker claims it,
/// then its result.
enum Slot<T, R> {
    Pending(T),
    Running,
    Done(R),
}

/// Ordered parallel map: applies `f` to every item on a thread pool and
/// returns the results in input order.
///
/// Workers claim item indices one at a time from a shared counter, so
/// the items are spread over the threads by their actual cost. A panic
/// in `f` stops further claims and is re-raised on the caller's thread
/// once every worker has returned.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = thread_count(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // The slots are both the work list and the ordered result buffer.
    // `f` runs with no slot locked, so a slot mutex is never poisoned.
    let slots: Vec<Mutex<Slot<T, R>>> = items
        .into_iter()
        .map(|item| Mutex::new(Slot::Pending(item)))
        .collect();
    // The counter only hands out indices; the slot mutexes publish the
    // items and results, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let worker = || {
        while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
            let Slot::Pending(item) =
                std::mem::replace(&mut *slot.lock().expect("slot poisoned"), Slot::Running)
            else {
                unreachable!("par_map item claimed twice");
            };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
                Ok(result) => *slot.lock().expect("slot poisoned") = Slot::Done(result),
                Err(payload) => {
                    next.store(n, Ordering::Relaxed);
                    std::panic::resume_unwind(payload);
                }
            }
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().expect("slot poisoned") {
            Slot::Done(result) => result,
            Slot::Pending(_) | Slot::Running => unreachable!("par_map item never ran"),
        })
        .collect()
}

/// A materialized parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` in parallel, preserving order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map(self.items, f);
    }
}

/// A parallel map stage awaiting collection.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Executes the map and collects the ordered results.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map(self.items, self.f).into_iter().collect()
    }

    /// Executes the map and sums the results.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        par_map(self.items, self.f).into_iter().sum()
    }

    /// Executes the map and folds the results with `op`, seeded by
    /// `identity`.
    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> R
    where
        Id: Fn() -> R,
        Op: Fn(R, R) -> R,
    {
        par_map(self.items, self.f).into_iter().fold(identity(), op)
    }
}

/// Conversion into a [`ParIter`].
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;

    /// Materializes the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

macro_rules! impl_into_par_iter_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_into_par_iter_range!(u32, u64, usize, i32, i64);

macro_rules! impl_into_par_iter_range_inclusive {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::RangeInclusive<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_into_par_iter_range_inclusive!(u32, u64, usize, i32, i64);

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x).collect();
        let expected: Vec<u64> = (0u64..1000).map(|x| x * x).collect();
        assert_eq!(squares, expected);
    }

    #[test]
    fn for_each_visits_everything() {
        let sum = AtomicU64::new(0);
        (1u64..=100).into_par_iter().for_each(|x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn sum_and_reduce_agree() {
        let s: u64 = (1u64..=50).into_par_iter().map(|x| x).sum();
        let r: u64 = (1u64..=50)
            .into_par_iter()
            .map(|x| x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 1275);
        assert_eq!(r, 1275);
    }

    #[test]
    fn slice_par_iter_borrows() {
        let v = vec![1u64, 2, 3];
        let doubled: Vec<u64> = v.as_slice().into_par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn actually_uses_multiple_threads_when_available() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let ids: Vec<std::thread::ThreadId> = (0u64..64)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
            .collect();
        let mut unique: Vec<String> = ids.iter().map(|id| format!("{id:?}")).collect();
        unique.sort();
        unique.dedup();
        assert!(unique.len() > 1, "expected work on >1 thread");
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_items_after_it() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        // Item 0 keeps its thread busy until every other item has
        // finished, so they can only finish on other threads. A fixed
        // split would leave some of them queued behind item 0 and time
        // the wait out.
        let finished = (Mutex::new(0usize), Condvar::new());
        let others = 64;
        let results: Vec<(u64, ThreadId, bool)> = (0u64..=others as u64)
            .into_par_iter()
            .map(|i| {
                let (count, all_done) = &finished;
                let mut done = count.lock().unwrap();
                let waited = if i == 0 {
                    let (guard, timeout) = all_done
                        .wait_timeout_while(done, Duration::from_secs(10), |d| *d < others)
                        .unwrap();
                    done = guard;
                    !timeout.timed_out()
                } else {
                    *done += 1;
                    all_done.notify_all();
                    true
                };
                drop(done);
                (i * i, std::thread::current().id(), waited)
            })
            .collect();
        let squares: Vec<u64> = results.iter().map(|r| r.0).collect();
        let expected: Vec<u64> = (0u64..=others as u64).map(|x| x * x).collect();
        assert_eq!(squares, expected, "results out of input order");
        assert!(results[0].2, "item 0 waited out its timeout");
        let beside_item0 = results[1..].iter().filter(|r| r.1 != results[0].1).count();
        assert_eq!(beside_item0, others, "items ran behind item 0");
    }

    #[test]
    #[should_panic(expected = "item 7 failed")]
    fn a_panicking_item_propagates_its_panic() {
        (0u64..32).into_par_iter().for_each(|i| {
            assert!(i != 7, "item 7 failed");
        });
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|x| x + 1).collect();
        assert!(empty.is_empty());
        let single: Vec<u64> = vec![41u64].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(single, vec![42]);
    }
}
