//! Deterministic fan-out: independent jobs on every core, results in
//! input order.
//!
//! [`map`] is an ordered farm (FastFlow's pattern): the calling thread
//! and `threads − 1` scoped workers pull job indices from one atomic
//! counter, and each result lands in its index's slot. Which thread ran
//! a job, and when, never reaches the output, so a caller whose jobs
//! share nothing mutable gets the same `Vec` at every thread count.
//! [`threads`] is the one place the workspace reads the host's core
//! count.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most threads [`threads`] offers, however many cores the host has.
const MAX_THREADS: usize = 8;

/// Threads a fan-out uses on this host: the cores the process may run
/// on, capped at 8 (1 when the host cannot say).
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get).min(MAX_THREADS)
}

/// Apply `f` to every item on up to `threads` threads and return the
/// results in input order. With `threads <= 1` or at most one item it
/// runs inline on the calling thread and spawns nothing; otherwise the
/// calling thread is one of the workers.
///
/// # Panics
///
/// Re-raises the panic of a job that panicked, with its original
/// payload, after every worker has stopped.
pub fn map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices: `fetch_add` gives each index
    // to exactly one thread at any ordering, and the results travel back
    // through `join`, which synchronizes on its own.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut parts = vec![work()];
        for handle in spawned {
            // Joining takes the panic out of the scope's hands, so the
            // caller sees the job's own payload rather than "a scoped
            // thread panicked".
            parts.push(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|r| r.expect("every index is claimed by exactly one thread")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn results_keep_input_order() {
        let square = |x: &u64| x * x;
        for (len, threads) in [(0, 4), (1, 4), (3, 8), (1000, 4), (1000, 1)] {
            let items: Vec<u64> = (0..len).collect();
            let want: Vec<u64> = items.iter().map(square).collect();
            assert_eq!(map(&items, threads, square), want, "{len} items on {threads} threads");
        }
    }

    #[test]
    fn one_thread_or_one_item_runs_inline() {
        let caller = std::thread::current().id();
        let ran_on = |items: &[u32], threads| -> Vec<ThreadId> {
            map(items, threads, |_| std::thread::current().id())
        };
        assert!(ran_on(&[1, 2, 3, 4], 1).iter().all(|&t| t == caller));
        assert!(ran_on(&[1, 2, 3, 4], 0).iter().all(|&t| t == caller));
        assert_eq!(ran_on(&[7], 4), vec![caller]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two items, two threads, and each job waits for the other: both
        // jobs must be in flight at once, on two different threads.
        let barrier = Barrier::new(2);
        let ids = map(&[0, 1], 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[derive(Debug, PartialEq)]
    struct JobFailed(u32);

    #[test]
    fn a_workers_panic_surfaces_with_its_own_payload() {
        // The barrier puts one job on the caller and one on the spawned
        // worker; only the worker's panics. A bare `thread::scope` would
        // replace its payload with "a scoped thread panicked".
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let seen = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(&[10, 11], 2, |&job| {
                barrier.wait();
                seen.lock().expect("no job panics holding the lock").push(job);
                if std::thread::current().id() != caller {
                    std::panic::panic_any(JobFailed(job));
                }
                job
            })
        }));
        let payload = result.expect_err("the worker's job panicked");
        let got = payload.downcast_ref::<JobFailed>().expect("the job's own payload type");
        assert!(matches!(got, JobFailed(10 | 11)), "{got:?}");
        assert_eq!(seen.into_inner().expect("lock not poisoned").len(), 2);
    }
}
