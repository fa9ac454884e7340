//! # gpstream-util
//!
//! Small dependency-free utilities shared by every crate in the
//! workspace: a deterministic seedable PRNG ([`rng::Rng64`]), a minimal
//! JSON value builder/writer/parser ([`json::Json`]), a stable content
//! fingerprint ([`hash::Fingerprint`]), an exact latency histogram
//! ([`hist::Histogram`]), its bounded-memory sketch counterpart
//! ([`sketch::Sketch`]), a property-test harness
//! ([`check::run_cases`]), the argv reader every binary shares
//! ([`args::Args`]) and an ordered, thread-count-independent fan-out
//! ([`fanout::map`]). The build environment has no network access to a
//! crate registry, so these stand in for `rand`, `serde`, `proptest`,
//! `clap` and `rayon` respectively; everything here is deliberately tiny
//! and deterministic (fixed seeds produce identical data on every run,
//! which the golden timing tests depend on).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod check;
pub mod fanout;
pub mod hash;
pub mod hist;
pub mod json;
pub mod render;
pub mod rng;
pub mod sketch;

pub use hash::Fingerprint;
pub use hist::{Histogram, Summary};
pub use json::Json;
pub use rng::Rng64;
pub use sketch::Sketch;
