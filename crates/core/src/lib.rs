//! # gpstream-core
//!
//! The Stream Virtual Machine (SVM) runtime of the paper *Stream
//! Programming on General-Purpose Processors* (Gummaraju & Rosenblum,
//! MICRO 2005): typed stream-program authoring, an SRF mapped onto the
//! processor cache, the distributed work queue with bit-vector
//! dependencies, and three executors (reference, simulated-timing and
//! native two-thread).
//!
//! A stream program is authored with [`GraphBuilder`] as a Synchronous
//! Data Flow graph — gathers from arrays, kernels over streams, scatters
//! back to arrays — compiled by `gpstream-compiler` into a
//! [`task::ScheduledProgram`], and executed by one of the executors in
//! [`exec`].
//!
//! ```
//! use gpstream_core::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.array("a", &[1.0f32, 2.0, 3.0, 4.0]);
//! let y = b.array_zeroed::<f32>("y", 4);
//! let xs = b.gather_seq("xs", a);
//! let ys = b.stream::<f32>("ys", 4);
//! b.kernel("double", &[xs.id()], &[ys.id()], 4, |args| {
//!     let x = args.input::<f32>(0);
//!     for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
//!         *o = 2.0 * v;
//!     }
//! });
//! b.scatter_seq(ys, y);
//! let (graph, world) = b.build()?;
//! assert_eq!(graph.kernels().len(), 1);
//! # Ok::<(), gpstream_core::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub(crate) mod check;
pub mod exec;
pub mod graph;
pub mod hazard;
pub mod metrics;
pub(crate) mod park;
pub mod pod;
pub mod pool;
pub mod regular;
pub(crate) mod spsc;
pub mod srf;
pub mod task;
pub mod topology;
pub mod trace;
pub mod tuned;
pub mod workqueue;
pub mod world;

pub use graph::{
    AccessKind, ArrayBinding, ArrayId, ArrayRef, GraphBuilder, GraphError, KernelArgs, KernelDecl,
    KernelId, StreamDecl, StreamGraph, StreamId, StreamRef,
};
pub use metrics::{BandwidthPoint, BandwidthSeries, Comparison, NormalizedBar};
pub use pod::{AlignedBytes, Pod};
pub use pool::{PoolStats, SubmitError, WorkerPool};
pub use regular::{RegularAccess, RegularPhase, RegularProgram};
pub use srf::{SrfBuffer, SrfConfig};
pub use task::{CheckedProgram, PortBinding, ScheduledProgram, TaskDesc, TaskId, TaskKind};
pub use topology::Topology;
pub use trace::{chrome_trace, ExecEvent, ExecEventKind, TraceBuffer, TraceRun};
pub use tuned::TunedConfig;
pub use world::{MemArray, World};
