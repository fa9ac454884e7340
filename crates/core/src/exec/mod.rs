//! Executors for scheduled stream programs.
//!
//! Three executors share one task body, `Region::execute_task` (private
//! module `region`), and differ in what else they do:
//!
//! * [`functional::FunctionalExecutor`] — single-threaded reference
//!   execution, the golden result for tests.
//! * [`sim::SimExecutor`] — functional execution **plus** a timing run on
//!   the simulated machine: gathers/scatters become bulk ops on the memory
//!   context, kernels run on the compute context, cross-queue dependencies
//!   become signal/wait pairs paying the configured dispatch latency.
//! * [`native::NativeExecutor`] — a real multi-thread runtime for running
//!   stream programs on the host: one worker per topology context, each
//!   walking its own queue of the program's tasks. Its workers run the
//!   same task body at the same time, with no lock.
//!
//! Each runs only a [`CheckedProgram`](crate::task::CheckedProgram), with
//! the graph it was checked against, so none checks a schedule or panics
//! on one it cannot run.
//!
//! The task body copies only what the modelled machine copies: a gather
//! moves a strip from its array into the SRF, a scatter moves it back,
//! and a kernel computes in place on its SRF strips. Each task borrows
//! exactly the SRF and array bytes it touches, and the schedule proof
//! makes those of any two tasks that may run at once disjoint; the
//! `region` module states the safety argument. Every executor grows its
//! SRF to the program it runs ([`SrfBuffer::fit`](crate::srf::SrfBuffer::fit)):
//! the native and simulating executors start each run from an empty
//! buffer, and the functional executor keeps one across runs and never
//! clears it.

pub mod functional;
pub mod native;
mod region;
pub mod sim;
