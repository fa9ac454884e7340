//! The eight workloads. Each module builds its inputs from the seed,
//! runs passes through the program's public functions, and checks the
//! outputs.

pub mod figs;
pub mod native;
pub mod serve;
pub mod sim;
pub mod tune;

use crate::harness::{Params, Workload};
use crate::spans::Recorder;
use crate::spec;

/// Set `name` up: inputs, oracles, compiles, snapshots, variant tables.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI rejects those first).
#[must_use]
pub fn set_up(name: &str, p: &Params, rec: &Recorder) -> Box<dyn Workload> {
    match name {
        "sim-dense" => Box::new(sim::Sim::set_up(&spec::SIM_DENSE, 10, p, rec)),
        "sim-gather" => Box::new(sim::Sim::set_up(&spec::SIM_GATHER, 3, p, rec)),
        "paper-figs" => Box::new(figs::Figs::set_up(p)),
        "tune-explain" => Box::new(tune::TuneExplain::set_up(p, rec)),
        "native-exec" => Box::new(native::Native::set_up(p, rec)),
        "serve-stream" => Box::new(serve::Serve::set_up(serve::Shape::Stream, p, rec)),
        "serve-overload" => Box::new(serve::Serve::set_up(serve::Shape::Overload, p, rec)),
        "serve-exact" => Box::new(serve::Serve::set_up(serve::Shape::Exact, p, rec)),
        other => panic!("`{other}` is not a workload"),
    }
}
