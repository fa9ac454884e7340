//! A bounded single-producer / single-consumer ring buffer.
//!
//! An in-process stand-in for the paper's memory-mapped work queues: one
//! thread is the only producer and one worker owns the queue as the only
//! consumer, so a wait-free ring with one atomic head and one atomic
//! tail is enough — exactly the "simple loads and stores" the paper
//! relies on instead of locked queue operations. No executor uses it
//! now (the native executor's queues are fixed lists); its one user is
//! [`crate::pool::WorkerPool`], kept only for the `benchmark/` package's
//! `core.pool.job_ns` probe, and it goes with the pool.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded SPSC queue of `T`.
///
/// `push` may only be called from one thread at a time and `pop` from one
/// thread at a time (they may be different threads); this is enforced by
/// the executor's structure, not the type system, so the queue is kept
/// crate-private.
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read; advanced only by the consumer.
    head: AtomicUsize,
    /// Next slot to write; advanced only by the producer.
    tail: AtomicUsize,
}

// SAFETY: the producer and consumer touch disjoint slots — a slot is
// written before `tail` advances past it and read before `head` does —
// and the Acquire/Release pairs on head/tail order those accesses.
unsafe impl<T: Send> Sync for SpscRing<T> {}
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        // One extra slot distinguishes full from empty.
        let slots = capacity + 1;
        let buf = (0..slots)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing { buf, head: AtomicUsize::new(0), tail: AtomicUsize::new(0) }
    }

    fn next(&self, i: usize) -> usize {
        let n = i + 1;
        if n == self.buf.len() {
            0
        } else {
            n
        }
    }

    /// Producer side: enqueue `item`, or hand it back if the ring is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let next = self.next(tail);
        if next == self.head.load(Ordering::Acquire) {
            return Err(item);
        }
        // SAFETY: `tail` is owned by this (sole) producer and the slot is
        // outside the consumer's [head, tail) window, so no other thread
        // is touching it.
        unsafe { (*self.buf[tail].get()).write(item) };
        self.tail.store(next, Ordering::Release);
        Ok(())
    }

    /// Consumer side: dequeue the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: head != tail, so the slot was fully written by the
        // producer before its Release store to `tail`; advancing `head`
        // afterwards hands the slot back to the producer.
        let item = unsafe { (*self.buf[head].get()).assume_init_read() };
        self.head.store(self.next(head), Ordering::Release);
        Some(item)
    }

    /// Whether the ring currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let q = SpscRing::new(3);
        assert!(q.is_empty());
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.push(4), Err(4), "ring holds exactly `capacity`");
        assert_eq!(q.pop(), Some(1));
        q.push(4).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn two_thread_stream() {
        let q = std::sync::Arc::new(SpscRing::new(8));
        // Keep the cross-thread stream short under Miri: the interpreter
        // is ~3 orders of magnitude slower and the interleavings it
        // explores do not grow with the item count.
        let n = if cfg!(miri) { 200u64 } else { 10_000u64 };
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut item = i;
                    while let Err(back) = q.push(item) {
                        item = back;
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expect = 0u64;
        while expect < n {
            if let Some(v) = q.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn drops_queued_items() {
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        struct Bump(std::sync::Arc<AtomicUsize>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = SpscRing::new(4);
            assert!(q.push(Bump(counter.clone())).is_ok());
            assert!(q.push(Bump(counter.clone())).is_ok());
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }
}
