//! The distributed work queue of Section III-B and Figure 7.
//!
//! Two bounded queues — one for memory tasks (gathers/scatters), one for
//! compute tasks (kernels) — are fed by the control thread. Dependencies
//! between in-flight tasks are encoded as *bit-vectors* over a window of
//! at most [`WINDOW`] concurrently-enqueued tasks: each enqueued task holds
//! a mask of the window slots it depends on, and finishing a task clears
//! its slot bit everywhere ("setting and clearing dependence information
//! could be performed rapidly using simple or/and instructions").
//!
//! [`DependencyWindow`] is that shared bit-vector: one atomic pending
//! mask plus the task occupying each slot. The control thread is the only
//! thread that sets bits ([`DependencyWindow::admit`]); the worker that
//! finishes a task clears its slot ([`DependencyWindow::complete`]); both
//! take `&self`, so the native executor shares one window with no lock.
//! Workers test readiness on per-task completion flags, not on mask
//! snapshots: a snapshot goes stale when a completed dependency's slot is
//! reused (see the slot-reuse ABA property test in the workspace-level
//! `tests/properties.rs`).

use crate::task::TaskId;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Error returned when the 64-entry window has no free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFull;

impl fmt::Display for WindowFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dependency window is full ({WINDOW} tasks in flight)")
    }
}

impl std::error::Error for WindowFull {}

/// Maximum number of tasks in flight, as in the paper ("we handle this
/// problem by enqueuing at most a fixed maximum number (e.g. 64) of
/// elements in the queue at any given time").
pub const WINDOW: usize = 64;

/// Slot-allocation and dependency-mask bookkeeping for the in-flight
/// window, safe to share between one admitting thread and any number of
/// completing threads.
#[derive(Debug)]
pub struct DependencyWindow {
    /// Bit `s` set: slot `s` holds a task that has not completed.
    pending: AtomicU64,
    /// Id of the task in each slot; meaningful only while its bit is set.
    occupant: [AtomicU32; WINDOW],
}

impl Default for DependencyWindow {
    fn default() -> Self {
        DependencyWindow {
            pending: AtomicU64::new(0),
            occupant: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

impl DependencyWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmask of in-flight (incomplete) slots.
    #[must_use]
    pub fn pending_mask(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Whether a new task can be admitted.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.pending_mask() != u64::MAX
    }

    /// The slot `task` holds among the `live` slots, if any.
    fn find(&self, live: u64, task: TaskId) -> Option<u8> {
        let mut rest = live;
        while rest != 0 {
            let slot = rest.trailing_zeros() as usize;
            if self.occupant[slot].load(Ordering::Relaxed) == task.0 {
                return Some(slot as u8);
            }
            rest &= rest - 1;
        }
        None
    }

    /// Admit `task` into the window, returning its slot. Only one thread
    /// may admit (the control thread); any thread may complete.
    ///
    /// # Errors
    ///
    /// Returns [`WindowFull`] if the window is full (the control thread
    /// must wait for a completion first).
    ///
    /// # Panics
    ///
    /// Panics if `task` is already in flight: re-admitting would leave it
    /// holding two slots, and the one `complete` does not find would stay
    /// pending forever, so enough duplicates would wedge the window
    /// permanently full (every admission is a scheduling bug, exactly
    /// like completing an unknown task).
    pub fn admit(&self, task: TaskId) -> Result<u8, WindowFull> {
        let live = self.pending_mask();
        assert!(
            self.find(live, task).is_none(),
            "task {task:?} admitted twice (already holds a window slot)"
        );
        let free = (!live).trailing_zeros();
        if free >= WINDOW as u32 {
            return Err(WindowFull);
        }
        let slot = free as u8;
        // Publish the occupant before the bit: a thread that sees the bit
        // (Acquire) sees who holds the slot.
        self.occupant[free as usize].store(task.0, Ordering::Relaxed);
        let before = self.pending.fetch_or(1u64 << slot, Ordering::Release);
        debug_assert_eq!(before & (1u64 << slot), 0, "two threads admitted at once");
        Ok(slot)
    }

    /// Dependency mask for `deps`: bits of the slots still occupied by
    /// incomplete dependencies. Dependencies that already completed (and
    /// left the window) contribute nothing.
    #[must_use]
    pub fn mask_for(&self, deps: &[TaskId]) -> u64 {
        let live = self.pending_mask();
        deps.iter().filter_map(|&d| self.find(live, d)).fold(0, |m, s| m | 1u64 << s)
    }

    /// Mark `task` complete, freeing its slot. Returns the freed slot.
    ///
    /// # Panics
    ///
    /// Panics if the task is not in flight (a scheduling bug).
    pub fn complete(&self, task: TaskId) -> u8 {
        let slot = self.find(self.pending_mask(), task).expect("completing unknown task");
        self.pending.fetch_and(!(1u64 << slot), Ordering::AcqRel);
        slot
    }

    /// Is a task with dependency mask `mask` ready, given the current
    /// pending set?
    #[must_use]
    pub fn is_ready(&self, mask: u64) -> bool {
        self.pending_mask() & mask == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_complete_cycle() {
        let w = DependencyWindow::new();
        let s0 = w.admit(TaskId(0)).unwrap();
        let s1 = w.admit(TaskId(1)).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(w.pending_mask().count_ones(), 2);
        let freed = w.complete(TaskId(0));
        assert_eq!(freed, s0);
        assert_eq!(w.pending_mask().count_ones(), 1);
    }

    #[test]
    fn mask_ignores_completed_deps() {
        let w = DependencyWindow::new();
        w.admit(TaskId(0)).unwrap();
        w.admit(TaskId(1)).unwrap();
        w.complete(TaskId(0));
        let mask = w.mask_for(&[TaskId(0), TaskId(1)]);
        assert_eq!(mask.count_ones(), 1, "only the still-pending dep contributes");
        assert!(!w.is_ready(mask));
        w.complete(TaskId(1));
        // The mask snapshot is stale now, but the pending set cleared.
        assert!(w.is_ready(mask));
    }

    #[test]
    fn window_fills_at_64() {
        let w = DependencyWindow::new();
        for i in 0..WINDOW as u32 {
            w.admit(TaskId(i)).unwrap();
        }
        assert!(!w.has_room());
        assert!(w.admit(TaskId(999)).is_err());
        w.complete(TaskId(7));
        assert!(w.has_room());
        let slot = w.admit(TaskId(999)).unwrap();
        assert_eq!(slot, 7, "freed slot is reused");
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn completing_unknown_task_panics() {
        let w = DependencyWindow::new();
        w.complete(TaskId(3));
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn duplicate_admission_panics() {
        let w = DependencyWindow::new();
        w.admit(TaskId(0)).unwrap();
        w.admit(TaskId(1)).unwrap();
        // Re-admitting an in-flight task would move it to a fresh slot and
        // leak the old pending bit; it must be rejected instead.
        let _ = w.admit(TaskId(0));
    }

    #[test]
    fn readmission_after_completion_is_fine() {
        let w = DependencyWindow::new();
        w.admit(TaskId(0)).unwrap();
        w.complete(TaskId(0));
        // A completed task has left the window; running it again (e.g. a
        // repeated program) admits cleanly.
        w.admit(TaskId(0)).unwrap();
        assert_eq!(w.pending_mask().count_ones(), 1);
    }

    #[test]
    fn readiness_tracks_pending() {
        let w = DependencyWindow::new();
        w.admit(TaskId(0)).unwrap();
        let mask = w.mask_for(&[TaskId(0)]);
        assert!(!w.is_ready(mask));
        w.complete(TaskId(0));
        assert!(w.is_ready(mask));
    }

    /// The executor's sharing pattern without a lock: this thread admits
    /// task after task, each into a slot no live task holds, and hands it
    /// to one of two completer threads over a channel. Sized to run under
    /// Miri as well as natively.
    #[test]
    fn one_admitter_many_completers_share_the_window() {
        const TASKS: u32 = 300;
        let w = DependencyWindow::new();
        std::thread::scope(|s| {
            let completers: Vec<_> = (0..2)
                .map(|_| {
                    let (tx, rx) = std::sync::mpsc::channel::<(TaskId, u8)>();
                    let w = &w;
                    s.spawn(move || {
                        for (task, slot) in rx {
                            assert_eq!(w.complete(task), slot, "complete found another slot");
                        }
                    });
                    tx
                })
                .collect();
            for i in 0..TASKS {
                let slot = loop {
                    match w.admit(TaskId(i)) {
                        Ok(slot) => break slot,
                        Err(WindowFull) => std::thread::yield_now(),
                    }
                };
                completers[i as usize % 2].send((TaskId(i), slot)).unwrap();
            }
        });
        assert_eq!(w.pending_mask(), 0, "every admitted task was completed");
    }
}
