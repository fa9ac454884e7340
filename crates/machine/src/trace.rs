//! Cycle-resolved event tracing for the timing engine.
//!
//! Every figure in the paper is a claim about *where cycles go* —
//! dispatch latency on the SMT contexts, bus occupancy, TLB walks,
//! prefetch coverage — and the aggregate counters in
//! [`MemStats`](crate::stats::MemStats) cannot show *why* a run won or
//! lost. When tracing is enabled
//! ([`Machine::enable_trace`](crate::Machine::enable_trace)), the engine records a
//! [`MachineEvent`] at each op boundary, bus grant, prefetch cover, TLB
//! walk and cross-context wakeup, stamped with the local cycle clock of
//! the context that caused it.
//!
//! The sink is **zero-cost when disabled**: every emission site is an
//! `Option` check plus a closure that is never called, so a machine
//! built without tracing runs the exact same arithmetic as before the
//! sink existed. The higher layers (`gpstream-core`) translate these
//! events into task-attributed executor events and export Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto.

use crate::ops::WaitPolicy;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineEventKind {
    /// A context began working on the op at index `op` of its stream.
    OpStart {
        /// Index into the context's `Vec<BulkOp>`.
        op: u32,
    },
    /// A context retired the op at index `op` of its stream.
    OpRetire {
        /// Index into the context's `Vec<BulkOp>`.
        op: u32,
    },
    /// The front-side bus granted a transfer.
    BusGrant {
        /// Bytes moved by the transfer.
        bytes: u64,
        /// Cycles the request waited for the bus (grant - request).
        queued: u64,
    },
    /// A waiting context observed its signal and resumed.
    Wakeup {
        /// Signal id the context was blocked on.
        id: u32,
        /// Wait policy that was in effect.
        policy: WaitPolicy,
        /// Dispatch cycles paid to resume (PAUSE / MWAIT / OS cost).
        dispatch: u64,
    },
    /// An L2 miss whose latency was hidden by a prefetcher.
    PrefetchCover {
        /// `true` for software (non-temporal) prefetch, `false` for the
        /// hardware stream prefetcher.
        sw: bool,
    },
    /// A DTLB miss triggered a hardware page walk.
    TlbWalk {
        /// Cycles of the walk (serialized on the single walker).
        cycles: u64,
    },
    /// A write-combining buffer flushed a non-temporal store burst.
    WcFlush,
}

/// One traced event, stamped with the local clock of context `ctx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineEvent {
    /// Cycle (context-local clock) at which the event occurred.
    pub t: u64,
    /// Hardware context (0 or 1) that caused the event.
    pub ctx: u8,
    /// What happened.
    pub kind: MachineEventKind,
}

/// Per-context cycle attribution accumulated during a run — the
/// per-phase breakdown the bench harness reports next to the end-of-run
/// totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Cycles advancing compute ops (straight-line kernels and
    /// compute-class loops).
    pub compute: u64,
    /// Cycles advancing bulk memory ops (gathers/scatters and
    /// memory-class loops).
    pub memory: u64,
    /// Cycles parked waiting for a cross-context signal (idle time from
    /// entering the wait to the signal being raised).
    pub idle_wait: u64,
    /// Dispatch cycles paid on wakeups (the PAUSE / MWAIT / OS cost of
    /// Section III-B) plus queue-dequeue overhead.
    pub dispatch: u64,
}

impl PhaseCycles {
    /// Total attributed cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compute + self.memory + self.idle_wait + self.dispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total_sums_fields() {
        let p = PhaseCycles { compute: 1, memory: 2, idle_wait: 3, dispatch: 4 };
        assert_eq!(p.total(), 10);
    }
}
