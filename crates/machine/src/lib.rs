//! # gpstream-machine
//!
//! A deterministic, cycle-approximate timing model of the machine the
//! paper *Stream Programming on General-Purpose Processors* (Gummaraju &
//! Rosenblum, MICRO 2005) evaluates on: a 3.4 GHz hyper-threaded Intel
//! Pentium 4 (Prescott) with a 1 MB 8-way L2 cache, a 6.4 GB/s front-side
//! bus, a hardware stream prefetcher, non-temporal load/store hints, and
//! the PAUSE / MONITOR+MWAIT inter-context primitives.
//!
//! The model is *mechanistic*, not cycle-exact: it reproduces the
//! behaviours the paper's evaluation depends on —
//!
//! * cache-line granularity of fills (useful bandwidth drops as record
//!   size grows past the accessed field);
//! * TLB-walk serialization dominating random gathers/scatters;
//! * read-for-ownership halving plain store bandwidth;
//! * prefetcher lookahead hiding sequential miss latency up to the bus
//!   rate, and thrashing when too many streams interleave;
//! * non-temporal fills confined to reserved ways so the cached SRF
//!   survives gather/scatter traffic;
//! * SMT resource sharing between a compute context and a memory context
//!   (the paper's Figure 6), and the PAUSE vs MWAIT trade-off (Figure 8).
//!
//! # Example
//!
//! ```
//! use gpstream_machine::{Machine, MachineConfig};
//! use gpstream_machine::ops::{AccessPattern, BulkOp, CopyDir};
//!
//! let mut m = Machine::new(MachineConfig::prescott());
//! let gather = BulkOp::Copy {
//!     mem: AccessPattern::Seq { base: 0x1000_0000, elem: 4, count: 1 << 16 },
//!     srf_base: 0x8000_0000,
//!     dir: CopyDir::GatherToSrf,
//!     nt: false,
//! };
//! let result = m.run_single(vec![gather]);
//! assert!(result.cycles > 0);
//! let gbps = result.bandwidth_gbps((1u64 << 16) * 4, 3.4);
//! assert!(gbps > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod engine;
pub mod ops;
pub mod prefetch;
pub mod stats;
pub mod tlb;
pub mod trace;

pub use config::{CacheGeometry, MachineConfig, SmtFactors, SmtModel, WaitCosts};
pub use engine::{
    ContextProgram, Machine, StepMode, TaskNode, DEQUEUE_CYCLES, MACHINE_TRACE_CAPACITY,
};
pub use ops::{AccessPattern, BulkOp, CopyDir, OpClass, Rw, WaitPolicy};
pub use stats::{
    CounterSample, EngineStats, ExactReason, MemStats, OpProfile, Retired, RunResult, TaskIssue,
};
pub use trace::{MachineEvent, MachineEventKind, PhaseCycles};
