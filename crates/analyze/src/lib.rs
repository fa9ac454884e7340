//! Critical-path analyzer: turns a simulated run into an explanation.
//!
//! The paper's evaluation keeps asking *why* a workload lands where it
//! does — why streamSPAS loses to the scalar loop (gather copies on the
//! critical path), why MONITOR/MWAIT's 680-cycle dispatch doesn't hurt
//! (it's hidden off the path), how much headroom doubling the bus
//! would buy. This crate answers those questions mechanically, in four
//! layers:
//!
//! - [`model`]: rebuild the executed task DAG from the simulator's
//!   task-issue log ([`gpstream_core::exec::sim::SimReport::task_runs`])
//!   and replay the engine's issue arithmetic analytically — the
//!   identity replay reproduces the recorded cycle times exactly.
//! - [`path`]: extract the critical path (the binding chain), per-task
//!   slack, and attribute path cycles to op class and root cause
//!   (bus-bound, dependency-bound, issue-bound, SRF-capacity-bound).
//! - [`whatif`]: Coz-style virtual speedups — replay with one
//!   component's cost rescaled (bus 2×, a kernel 25 % faster, memory
//!   ops free) for an upper-bound speedup table, validated against real
//!   re-simulations where an equivalent machine change exists.
//! - [`diff`]: compare two artifacts (committed baselines,
//!   `figures profile --out` documents, `figures analyze --out`
//!   reports) with per-metric deltas, tolerance-band awareness and a
//!   structural critical-path diff.
//!
//! Everything is deterministic and byte-stable: the analyzer re-runs
//! nothing, it replays the recorded DAG.

#![warn(missing_docs)]

pub mod diff;
pub mod model;
pub mod path;
pub mod render;
pub mod runner;
pub mod whatif;

pub use model::{ModelTask, Replay, RunModel};
pub use path::{critical_members, critical_path, slack, Binding, PathReport, PathSegment};
pub use runner::{analyze, analyze_run, analyze_with, analyze_workload, Analysis};
pub use whatif::{predict, table, Scenario, WhatIfRow};
