//! Performance-counter profiler for the simulated machine.
//!
//! The paper's whole evaluation methodology is hardware-performance-
//! counter driven (the Pentium 4's L2-miss, bus-utilization and prefetch
//! counters behind Figures 5–9). This crate turns the simulator's raw
//! [`MemStats`](gpstream_machine::MemStats) /
//! [`PhaseCycles`](gpstream_machine::PhaseCycles) blobs into a real
//! profiler with four layers:
//!
//! - [`counters`]: a typed [`CounterSet`] over the
//!   machine's counter registry plus derived metrics (miss rates, bus
//!   occupancy, prefetch coverage, SRF eviction rate, overlap
//!   efficiency).
//! - [`topdown`]: top-down cycle accounting — run → context → op class →
//!   task — built from the sim executor's per-task attribution, rendered
//!   as a self/total tree and exportable in collapsed-stack (flamegraph)
//!   format.
//! - [`report`]: a `perf stat`-style text report, deterministic JSON
//!   export, the interval-sample CSV time-series, and the native
//!   executor's wall-clock parity report.
//! - [`baseline`]: baseline counter snapshots with per-metric tolerance
//!   bands, checked by `figures profile --check` in CI so counter-level
//!   regressions fail the build even when total cycles don't move.
//!
//! Everything except the native parity report is byte-deterministic for
//! a fixed workload and machine configuration, in keeping with the
//! repo's seeded-determinism rule.

#![warn(missing_docs)]

pub mod artifact;
pub mod baseline;
pub mod counters;
pub mod labels;
pub mod report;
pub mod topdown;

pub use artifact::{Artifact, ArtifactKind, Metric};
pub use baseline::{Baseline, Violation};
pub use counters::{CounterSet, DerivedMetric};
pub use topdown::TopNode;
