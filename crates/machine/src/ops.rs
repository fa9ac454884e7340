//! The bulk-operation vocabulary consumed by the timing engine.
//!
//! Executors (see `gpstream-core`) lower stream programs and regular code
//! into per-context sequences of [`BulkOp`]s. Bulk ops are deliberately
//! coarse — a whole gather, a whole kernel invocation over a strip, a whole
//! regular loop nest — and carry [`AccessPattern`]s that the engine expands
//! element by element against the cache/TLB/bus models.

use std::sync::Arc;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rw {
    /// Load from memory.
    Read,
    /// Store to memory.
    Write,
}

/// An address-generation pattern over an array in (virtual) memory.
#[derive(Debug, Clone)]
pub enum AccessPattern {
    /// Contiguous bytes `[base, base + count * elem)` touched in
    /// `elem`-byte element accesses.
    Seq {
        /// Starting address.
        base: u64,
        /// Element size in bytes.
        elem: u64,
        /// Number of elements.
        count: u64,
    },
    /// `field_bytes` at `base + i * record + field_offset` for ascending
    /// `i` — a strided field walk over an array of records.
    Strided {
        /// Array base address.
        base: u64,
        /// Record size (stride) in bytes.
        record: u64,
        /// Offset of the accessed field within the record.
        field_offset: u64,
        /// Size of the accessed field in bytes.
        field_bytes: u64,
        /// Number of records visited.
        count: u64,
    },
    /// `field_bytes` at `base + indices[i] * record + field_offset` — a
    /// random (indexed) gather/scatter.
    Indexed {
        /// Array base address.
        base: u64,
        /// Record size in bytes.
        record: u64,
        /// Offset of the accessed field within the record.
        field_offset: u64,
        /// Size of the accessed field in bytes.
        field_bytes: u64,
        /// Record indices in visit order.
        indices: Arc<[u32]>,
    },
}

impl AccessPattern {
    /// Number of element accesses the pattern generates.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            AccessPattern::Seq { count, .. } | AccessPattern::Strided { count, .. } => *count,
            AccessPattern::Indexed { indices, .. } => indices.len() as u64,
        }
    }

    /// Bytes of useful data moved (sum of element sizes).
    #[must_use]
    pub fn useful_bytes(&self) -> u64 {
        match self {
            AccessPattern::Seq { elem, count, .. } => elem * count,
            AccessPattern::Strided { field_bytes, count, .. } => field_bytes * count,
            AccessPattern::Indexed { field_bytes, indices, .. } => {
                field_bytes * indices.len() as u64
            }
        }
    }

    /// Address and size of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.count()`.
    #[must_use]
    pub fn element(&self, i: u64) -> (u64, u64) {
        match self {
            AccessPattern::Seq { base, elem, count } => {
                assert!(i < *count);
                (base + i * elem, *elem)
            }
            AccessPattern::Strided { base, record, field_offset, field_bytes, count } => {
                assert!(i < *count);
                (base + i * record + field_offset, *field_bytes)
            }
            AccessPattern::Indexed { base, record, field_offset, field_bytes, indices } => {
                let idx = indices[i as usize] as u64;
                (base + idx * record + field_offset, *field_bytes)
            }
        }
    }

    /// Whether the addresses ascend monotonically with small stride — the
    /// kind of pattern a software prefetch loop can run ahead of trivially.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        matches!(self, AccessPattern::Seq { .. } | AccessPattern::Strided { .. })
    }
}

/// Copy direction between global memory and the SRF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDir {
    /// `streamGather`: memory pattern -> contiguous SRF region.
    GatherToSrf,
    /// `streamScatter`: contiguous SRF region -> memory pattern.
    ScatterFromSrf,
}

/// Activity class of an op, used for SMT contention between contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// ALU-bound work.
    Compute,
    /// Bulk memory work.
    Memory,
}

/// Wait policy for cross-context dispatch (paper Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Busy-wait with the PAUSE instruction: fastest dispatch, but the
    /// spin loop consumes shared issue resources.
    SpinPause,
    /// MONITOR/MWAIT: the waiting context halts (partner runs in ST mode),
    /// at the cost of a longer wake-up.
    Mwait,
    /// OS-level block/wake: cheapest when idle, dispatch measured in tens
    /// of thousands of cycles.
    OsBlock,
}

/// One bulk operation executed by a hardware context.
#[derive(Debug, Clone)]
pub enum BulkOp {
    /// Straight-line computation of `uops` micro-ops.
    Compute {
        /// Number of micro-ops.
        uops: u64,
    },
    /// Bulk copy between a memory access pattern and a contiguous SRF
    /// region starting at `srf_base`. With `nt` set the copy uses software
    /// non-temporal prefetches (gathers) or non-temporal stores (scatters).
    Copy {
        /// The global-memory side of the copy.
        mem: AccessPattern,
        /// SRF-side base address (contiguous, element-packed).
        srf_base: u64,
        /// Gather or scatter.
        dir: CopyDir,
        /// Use non-temporal hints.
        nt: bool,
    },
    /// A loop nest: per iteration, element `i` of every pattern is
    /// accessed and `uops_per_iter` micro-ops execute. This models both
    /// "regular" interleaved code (`class = Memory` or `Compute` by
    /// dominance) and stream kernels reading strips out of the SRF.
    Loop {
        /// Patterns accessed each iteration (all with the same count).
        patterns: Vec<(AccessPattern, Rw)>,
        /// Compute micro-ops per iteration.
        uops_per_iter: u64,
        /// Contention class presented to the other context.
        class: OpClass,
    },
    /// Record completion of event `id` at the current context time.
    Signal {
        /// Event identifier.
        id: u32,
    },
    /// Wait until event `id` has been signaled, then pay the dispatch
    /// latency of `policy`. While waiting the context presents the
    /// corresponding activity (spin / halted) to its partner.
    Wait {
        /// Event identifier to wait for.
        id: u32,
        /// How the context waits.
        policy: WaitPolicy,
    },
    /// Unconditional stall of `cycles` (fixed overheads).
    Delay {
        /// Stall length in cycles.
        cycles: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_elements() {
        let p = AccessPattern::Seq { base: 0x1000, elem: 4, count: 3 };
        assert_eq!(p.count(), 3);
        assert_eq!(p.useful_bytes(), 12);
        assert_eq!(p.element(0), (0x1000, 4));
        assert_eq!(p.element(2), (0x1008, 4));
        assert!(p.is_sequential());
    }

    #[test]
    fn strided_elements() {
        let p = AccessPattern::Strided {
            base: 0,
            record: 128,
            field_offset: 8,
            field_bytes: 4,
            count: 4,
        };
        assert_eq!(p.element(3), (3 * 128 + 8, 4));
        assert_eq!(p.useful_bytes(), 16);
        assert!(p.is_sequential());
    }

    #[test]
    fn indexed_elements() {
        let idx: Arc<[u32]> = vec![5u32, 0, 2].into();
        let p = AccessPattern::Indexed {
            base: 0x100,
            record: 16,
            field_offset: 0,
            field_bytes: 8,
            indices: idx,
        };
        assert_eq!(p.count(), 3);
        assert_eq!(p.element(0), (0x100 + 5 * 16, 8));
        assert_eq!(p.element(1), (0x100, 8));
        assert!(!p.is_sequential());
    }

    #[test]
    #[should_panic]
    fn element_out_of_range_panics() {
        let p = AccessPattern::Seq { base: 0, elem: 4, count: 1 };
        let _ = p.element(1);
    }
}
