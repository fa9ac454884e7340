//! One parking spot per thread: the wait primitive of the native executor
//! and the worker pool.
//!
//! A thread that has nothing to do parks on its own [`ParkingSpot`]; a
//! thread that makes progress possible wakes exactly the spots that can
//! use it. Nothing on either path takes a lock. The protocol is a Dekker
//! handshake between two SeqCst fences:
//!
//! * the owner raises `parked`, fences, re-checks its condition and only
//!   then calls [`std::thread::park`];
//! * a waker makes its state change (ring push, completion flag, window
//!   clear), fences, and unparks only if it sees `parked` raised — and
//!   lowers it, so that one waker, not every one, makes the system call.
//!
//! Either the owner's re-check sees the waker's change, or the waker sees
//! `parked` — so a wake-up cannot be lost, and a waker whose target is
//! busy pays one fence and one load, not a system call. `park` may return
//! spuriously (or on a stale token), which is why the owner waits in a
//! loop around its condition.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;

/// Where one thread sleeps while it cannot proceed.
#[derive(Debug, Default)]
pub(crate) struct ParkingSpot {
    /// Raised by the owner just before it parks.
    parked: AtomicBool,
    /// The owner, recorded the first time it waits (a waker that finds
    /// `parked` raised always finds this set).
    thread: OnceLock<Thread>,
}

impl ParkingSpot {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Owner side: return once `ready()` holds, parking in between. Only
    /// the thread that owns the spot may call this.
    pub(crate) fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        let owner = self.thread.get_or_init(std::thread::current);
        debug_assert_eq!(owner.id(), std::thread::current().id(), "waiting on another's spot");
        while !ready() {
            self.parked.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            if !ready() {
                std::thread::park();
            }
            self.parked.store(false, Ordering::Relaxed);
        }
    }

    /// Waker side, after the state change the owner may be waiting for:
    /// unpark the owner if it is parked.
    pub(crate) fn wake(&self) {
        self.wake_if(|| true);
    }

    /// [`ParkingSpot::wake`], but only when `worth_it()` also holds —
    /// evaluated after the fence, so it sees every change this thread
    /// made before the call. Of several wakers that find the owner
    /// parked, only the one that lowers `parked` pays for the unpark.
    pub(crate) fn wake_if(&self, worth_it: impl FnOnce() -> bool) {
        fence(Ordering::SeqCst);
        // The load only filters; the swap's Acquire pairs with the
        // owner's Release store of `parked`, which follows its recording
        // of `thread`.
        if self.parked.load(Ordering::Relaxed)
            && worth_it()
            && self.parked.swap(false, Ordering::Acquire)
        {
            if let Some(owner) = self.thread.get() {
                owner.unpark();
            }
        }
    }
}

/// On-drop guard a worker thread holds for its whole loop: if the worker
/// unwinds, raise `dead` and wake every spot — otherwise a thread can
/// sleep forever on work only the dead worker would have done. The pool's
/// workers and the native executor's workers both hold one.
pub(crate) struct DeathNotice<'a> {
    pub(crate) dead: &'a AtomicBool,
    pub(crate) spots: &'a [ParkingSpot],
}

impl Drop for DeathNotice<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.dead.store(true, Ordering::Release);
            for spot in self.spots {
                spot.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Ping-pong through two spots: each side waits for the counter to
    /// reach its turn, bumps it and wakes the other. A lost wake-up
    /// leaves both parked for good. Small enough to run under Miri.
    #[test]
    fn ping_pong_never_loses_a_wake_up() {
        const ROUNDS: usize = 200;
        let spots = Arc::new([ParkingSpot::new(), ParkingSpot::new()]);
        let turn = Arc::new(AtomicUsize::new(0));
        let side = |me: usize| {
            let (spots, turn) = (Arc::clone(&spots), Arc::clone(&turn));
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mine = 2 * round + me;
                    spots[me].wait_until(|| turn.load(Ordering::Acquire) == mine);
                    turn.store(mine + 1, Ordering::Release);
                    spots[1 - me].wake();
                }
            })
        };
        let (a, b) = (side(0), side(1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(turn.load(Ordering::Acquire), 2 * ROUNDS);
    }

    /// A wake whose condition does not hold leaves the owner parked; the
    /// one that does hold releases it.
    #[test]
    fn wake_if_only_releases_when_worth_it() {
        let spot = Arc::new(ParkingSpot::new());
        let level = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let (spot, level) = (Arc::clone(&spot), Arc::clone(&level));
            std::thread::spawn(move || spot.wait_until(|| level.load(Ordering::Acquire) >= 3))
        };
        for _ in 0..3 {
            level.fetch_add(1, Ordering::AcqRel);
            spot.wake_if(|| level.load(Ordering::Acquire) >= 3);
        }
        waiter.join().unwrap();
    }

    /// A waker that runs before the owner ever waited finds no thread to
    /// unpark and must not need one: the owner's first check sees the
    /// change.
    #[test]
    fn wake_before_first_wait_is_harmless() {
        let spot = ParkingSpot::new();
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::Release);
        spot.wake();
        spot.wait_until(|| flag.load(Ordering::Acquire));
    }

    /// A dying thread's notice raises the flag and wakes a parked peer.
    #[test]
    fn death_notice_wakes_everyone() {
        let spots = Arc::new([ParkingSpot::new(), ParkingSpot::new()]);
        let dead = Arc::new(AtomicBool::new(false));
        let peer = {
            let (spots, dead) = (Arc::clone(&spots), Arc::clone(&dead));
            std::thread::spawn(move || spots[0].wait_until(|| dead.load(Ordering::Acquire)))
        };
        let dying = {
            let (spots, dead) = (Arc::clone(&spots), Arc::clone(&dead));
            std::thread::spawn(move || {
                let _notice = DeathNotice { dead: &dead, spots: &spots[..] };
                panic!("worker died");
            })
        };
        assert!(dying.join().is_err());
        peer.join().unwrap();
        assert!(dead.load(Ordering::Acquire));
    }
}
