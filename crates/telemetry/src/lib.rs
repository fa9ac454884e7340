//! # gpstream-telemetry — the runtime's as-it-runs observation plane
//!
//! Everything this workspace could observe before this crate was
//! post-hoc: traces, counter baselines and critical paths all analyze a
//! *finished* run. This crate is the substrate for watching a run while
//! it happens — in the runtime's own virtual time, with the same
//! determinism contract as every committed artifact:
//!
//! * [`registry`] — a deterministic metrics registry: named counters,
//!   gauges and exact [`gpstream_util::Histogram`]s, aggregated into
//!   cycle-stamped tumbling windows — one dense ring of resident
//!   windows, so a stamp is an index and an add (or a push onto the
//!   window's raw sample buffer). Per-window snapshots are *deltas*:
//!   summing a counter's windows reproduces its run total exactly, and
//!   merging a histogram's windows reproduces the run-total histogram
//!   byte-identically (property-tested, not assumed). Run totals are
//!   [`gpstream_util::Sketch`]es — the exact form by default, log
//!   buckets on request. Time series export as CSV and canonical JSON.
//! * [`stream`] — the registry's streaming mode: tumbling windows are
//!   finalized and evicted as a virtual-time watermark advances past
//!   them, flushed through incremental CSV/JSON appenders, so registry
//!   memory is O(open windows) at any run length. `Telemetry::series()` is the same window walk run to the
//!   end over a copy, so the two exports cannot disagree.
//! * [`slo`] — per-tenant service-level objectives (latency threshold +
//!   objective fraction) with error-budget and burn-rate accounting per
//!   window, rendered as text and as the workspace's `slo` artifact
//!   kind for `figures diff`.
//! * [`sim`] — a bridge from the simulator's cumulative interval
//!   counter samples ([`gpstream_machine::CounterSample`]) into a
//!   windowed [`registry::Telemetry`], so machine-level counters and
//!   service-level metrics read through one plane.
//!
//! Nothing here touches a wall clock: every stamp is a virtual cycle
//! supplied by the producer, which is what lets the serving harness
//! keep its byte-identical-artifact guarantee while exporting live
//! windows. This plane is also the feed a future online controller
//! (ROADMAP item 4) reads at strip boundaries: window deltas are
//! available the moment a window closes, mid-run.

pub mod registry;
pub mod sim;
pub mod slo;
pub mod stream;

pub use registry::{CounterId, GaugeId, HistId, Telemetry, TimeSeries, WindowSnapshot};
pub use slo::{SloReport, SloTarget, SloTracker, TenantSlo};
pub use stream::{StreamedSeries, StreamingTelemetry};
