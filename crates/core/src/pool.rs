//! A persistent worker pool with a graceful, draining shutdown.
//!
//! Nothing in the workspace runs on this pool any more: the serve
//! replay, which was its one user, knows all its jobs up front and fans
//! them out with `gpstream_util::fanout::map` instead. It is kept only
//! because the `benchmark/` package times it (`core.pool.job_ns`), and
//! it goes when that probe does.
//!
//! [`NativeExecutor`](crate::exec::native::NativeExecutor) spawns scoped
//! workers for the lifetime of one batch run; a long-lived *service*
//! needs workers that outlive any single job and can be stopped without
//! losing work. [`WorkerPool`] keeps the same architecture — one OS
//! thread per worker, each fed by its own bounded SPSC ring (the paper's
//! memory-mapped work queue stand-in), each worker parking on its own
//! spot when idle and woken only by a push to its ring — but decouples
//! worker lifetime from job lifetime and adds the one operation a
//! service layer needs that a batch executor does not:
//! [`WorkerPool::drain`], a stop that closes the intake, lets every
//! already-accepted job run to completion, and only then joins the
//! threads. The shutdown contract is exact: every job for which
//! [`WorkerPool::submit`] returned `Ok` is executed exactly once, and
//! every job refused (ring full or pool draining) is handed back to the
//! caller — nothing is lost and nothing runs twice, which the
//! shutdown-under-load test asserts.
//!
//! Like the paper's control thread, the submitting side is
//! single-threaded: one producer owns all rings. This is enforced by
//! requiring `&mut self` on [`WorkerPool::submit`].

use crate::park::{DeathNotice, ParkingSpot};
use crate::spsc::SpscRing;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why [`WorkerPool::submit`] handed a job back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The target worker's ring is full — backpressure; retry later.
    Full,
    /// [`WorkerPool::drain`] has begun; the pool accepts no new work.
    Draining,
}

/// Tally of one pool's lifetime, returned by [`WorkerPool::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted by `submit` (and therefore executed), per worker.
    pub accepted: Vec<u64>,
    /// Jobs each worker executed; equals `accepted` after a drain.
    pub executed: Vec<u64>,
}

struct Control {
    draining: AtomicBool,
    /// Set by a worker's [`DeathNotice`] when its handler panics.
    dead: AtomicBool,
    /// One parking spot per worker, indexed like the rings.
    spots: Vec<ParkingSpot>,
}

/// A fixed-size pool of worker threads consuming per-worker SPSC rings.
///
/// `J` is the job payload; the handler runs on the worker thread and
/// receives `(worker index, job)`.
pub struct WorkerPool<J: Send + 'static> {
    rings: Vec<Arc<SpscRing<J>>>,
    control: Arc<Control>,
    threads: Vec<std::thread::JoinHandle<u64>>,
    accepted: Vec<u64>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawn `workers` threads, each consuming a ring of `capacity`
    /// entries and running `handler` on every job it pops.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `capacity` is zero.
    #[must_use]
    pub fn new<F>(workers: usize, capacity: usize, handler: F) -> Self
    where
        F: Fn(usize, J) + Send + Sync + 'static,
    {
        assert!(workers > 0, "a pool needs at least one worker");
        assert!(capacity > 0, "rings need positive capacity");
        let handler = Arc::new(handler);
        let control = Arc::new(Control {
            draining: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            spots: (0..workers).map(|_| ParkingSpot::new()).collect(),
        });
        let rings: Vec<Arc<SpscRing<J>>> =
            (0..workers).map(|_| Arc::new(SpscRing::new(capacity))).collect();
        let threads = rings
            .iter()
            .enumerate()
            .map(|(w, ring)| {
                let ring = Arc::clone(ring);
                let control = Arc::clone(&control);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || worker_loop(w, &ring, &control, handler.as_ref()))
            })
            .collect();
        WorkerPool { rings, control, threads, accepted: vec![0; workers] }
    }

    /// Number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    /// Enqueue `job` on `worker`'s ring. An `Ok` is a completion
    /// guarantee: the job will be executed exactly once even if the pool
    /// is drained immediately afterwards. On `Err` the job is returned
    /// to the caller untouched.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the ring has no room (backpressure),
    /// [`SubmitError::Draining`] once [`WorkerPool::drain`] has begun.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range. Once a worker has panicked —
    /// its ring would never drain — joins the pool and re-raises the
    /// first worker panic with its original payload, as
    /// [`WorkerPool::drain`] does.
    pub fn submit(&mut self, worker: usize, job: J) -> Result<(), (SubmitError, J)> {
        assert!(worker < self.rings.len(), "worker {worker} out of range");
        if self.control.dead.load(Ordering::Acquire) {
            if let (_, Some(p)) = self.stop() {
                std::panic::resume_unwind(p);
            }
        }
        if self.control.draining.load(Ordering::Acquire) {
            return Err((SubmitError::Draining, job));
        }
        match self.rings[worker].push(job) {
            Ok(()) => {
                self.accepted[worker] += 1;
                self.control.spots[worker].wake();
                Ok(())
            }
            Err(job) => Err((SubmitError::Full, job)),
        }
    }

    /// Graceful draining stop: close the intake, let the workers finish
    /// every job already accepted (in-flight and still queued), then
    /// join them. Returns the accepted/executed tallies — equal per
    /// worker by the shutdown contract.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked; the original payload is
    /// re-raised.
    #[must_use]
    pub fn drain(mut self) -> PoolStats {
        let (executed, panic) = self.stop();
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        PoolStats { accepted: std::mem::take(&mut self.accepted), executed }
    }

    /// Close the intake and join every worker (each finishes its ring
    /// first). Returns what each worker executed and the first worker
    /// panic, if any.
    fn stop(&mut self) -> (Vec<u64>, Option<Box<dyn std::any::Any + Send>>) {
        self.control.draining.store(true, Ordering::Release);
        for spot in &self.control.spots {
            spot.wake();
        }
        let mut executed = Vec::with_capacity(self.threads.len());
        let mut panic = None;
        for t in self.threads.drain(..) {
            match t.join() {
                Ok(n) => executed.push(n),
                Err(p) => panic = panic.or(Some(p)),
            }
        }
        (executed, panic)
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    /// Dropping without [`WorkerPool::drain`] still drains: accepted
    /// jobs are part of the pool's contract whether or not the caller
    /// asked for the stats.
    fn drop(&mut self) {
        // Swallow a worker panic here (drop must not double-panic); an
        // explicit drain() surfaces it.
        let _ = self.stop();
    }
}

/// Worker loop: pop and run jobs; once draining is flagged *and* the
/// ring is empty, exit. The flag is checked only after an empty pop, so
/// every job pushed before the flag was raised is executed.
fn worker_loop<J: Send>(
    w: usize,
    ring: &SpscRing<J>,
    control: &Control,
    handler: &(impl Fn(usize, J) + ?Sized),
) -> u64 {
    let _notice = DeathNotice { dead: &control.dead, spots: &control.spots };
    let mut executed = 0u64;
    loop {
        if let Some(job) = ring.pop() {
            handler(w, job);
            executed += 1;
            continue;
        }
        if control.draining.load(Ordering::Acquire) && ring.is_empty() {
            return executed;
        }
        // Park until a submit or the drain wakes this worker's spot.
        control.spots[w]
            .wait_until(|| !ring.is_empty() || control.draining.load(Ordering::Acquire));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};
    use std::sync::Mutex;

    #[test]
    fn runs_every_accepted_job_once() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut pool = {
            let hits = Arc::clone(&hits);
            WorkerPool::new(3, 8, move |_, v: u64| {
                hits.fetch_add(v, Ordering::Relaxed);
            })
        };
        let mut sum = 0u64;
        for i in 0..300u64 {
            let w = (i % 3) as usize;
            let mut job = i;
            loop {
                match pool.submit(w, job) {
                    Ok(()) => break,
                    Err((SubmitError::Full, back)) => {
                        job = back;
                        std::thread::yield_now();
                    }
                    Err((SubmitError::Draining, _)) => unreachable!("nobody is draining"),
                }
            }
            sum += i;
        }
        let stats = pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), sum);
        assert_eq!(stats.accepted, stats.executed);
        assert_eq!(stats.accepted.iter().sum::<u64>(), 300);
    }

    #[test]
    fn submit_after_drain_flag_is_refused() {
        // drain() consumes the pool, so model the race by raising the
        // flag directly: this is exactly the state a concurrent drainer
        // puts the pool in between flag-store and join.
        let mut pool = WorkerPool::new(1, 4, |_, (): ()| {});
        pool.control.draining.store(true, Ordering::Release);
        assert_eq!(pool.submit(0, ()).unwrap_err().0, SubmitError::Draining);
    }

    #[test]
    fn no_job_lost_or_double_completed_on_shutdown_under_load() {
        // The satellite's shutdown contract, under real concurrency: a
        // producer thread hammers submissions with slow workers while
        // the main thread drains mid-stream. Every job the producer got
        // an Ok for must run exactly once; every refused job must be
        // handed back (and counted by the producer, not the pool).
        const JOBS: usize = 2_000;
        let seen: Arc<Vec<AtomicU32>> = Arc::new((0..JOBS).map(|_| AtomicU32::new(0)).collect());
        let pool = {
            let seen = Arc::clone(&seen);
            WorkerPool::new(4, 16, move |_, id: usize| {
                // Slow the workers enough that the drain lands while
                // jobs are queued and in flight.
                std::hint::black_box(&seen);
                for _ in 0..500 {
                    std::hint::spin_loop();
                }
                let prev = seen[id].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "job {id} double-completed");
            })
        };
        let pool = Arc::new(Mutex::new(Some(pool)));
        let producer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                for id in 0..JOBS {
                    let w = id % 4;
                    loop {
                        let mut guard = pool.lock().unwrap();
                        let Some(p) = guard.as_mut() else { return accepted };
                        match p.submit(w, id) {
                            Ok(()) => {
                                accepted.push(id);
                                break;
                            }
                            Err((SubmitError::Draining, _)) => return accepted,
                            Err((SubmitError::Full, _)) => {
                                drop(guard);
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                accepted
            })
        };
        // Let the producer build a backlog, then drain mid-load.
        while seen[0].load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let p = pool.lock().unwrap().take().expect("pool still present");
        let stats = p.drain();
        let accepted = producer.join().expect("producer");
        assert_eq!(stats.accepted, stats.executed, "drain finished every accepted job");
        // Exactly the accepted jobs ran, each exactly once.
        let mut ran = Vec::new();
        for (id, c) in seen.iter().enumerate() {
            match c.load(Ordering::SeqCst) {
                0 => {}
                1 => ran.push(id),
                n => panic!("job {id} completed {n} times"),
            }
        }
        assert_eq!(ran, accepted, "completed set == accepted set");
        assert!(
            (accepted.len() as u64) < JOBS as u64,
            "drain should have landed mid-stream (got all {JOBS} in — workers too fast)"
        );
    }

    #[test]
    fn drop_without_drain_still_finishes_accepted_jobs() {
        let hits = Arc::new(AtomicU64::new(0));
        {
            let hits = Arc::clone(&hits);
            let mut pool = WorkerPool::new(2, 8, move |_, (): ()| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            for i in 0..10 {
                while pool.submit(i % 2, ()).is_err() {
                    std::thread::yield_now();
                }
            }
        }
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn submit_reraises_a_dead_workers_panic() {
        // serve's retry-on-`Full` loop against a worker that dies on its
        // first job: the dead worker's ring never drains, so without the
        // death notice the submitter spins forever.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let mut pool =
                    WorkerPool::new(1, 4, |_, id: u32| assert!(id != 0, "job {id} died"));
                for id in 0..64u32 {
                    let mut job = id;
                    loop {
                        match pool.submit(0, job) {
                            Ok(()) => break,
                            Err((SubmitError::Full, back)) => {
                                job = back;
                                std::thread::yield_now();
                            }
                            Err((SubmitError::Draining, _)) => unreachable!("nobody is draining"),
                        }
                    }
                }
                pool.drain()
            });
            let _ = tx.send(outcome.err().and_then(|p| p.downcast_ref::<String>().cloned()));
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the submitter hung on the dead worker's full ring");
        assert_eq!(msg.as_deref(), Some("job 0 died"));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0, 4, |_, (): ()| {});
    }
}
