//! # gpstream-compiler
//!
//! The stream compiler: lowers a validated [`StreamGraph`] into a
//! [`CheckedProgram`] — a schedule the one schedule check has proven —
//! through the passes the paper performed by hand (Section IV-A):
//!
//! * **strip mining** — streams are broken into strips whose working set
//!   fits the SRF;
//! * **double buffering** — strips are renamed across two buffers so
//!   loads of strip `s+1` overlap computation on strip `s`;
//! * **kernel fusion** — adjacent kernels sharing input streams are fused;
//! * **dependency generation** — a data-flow pass over the SDF graph
//!   emits the bit-vector-ready dependency lists, each dependency but
//!   the phase barrier derived from `gpstream_core::hazard`, the rules
//!   the schedule check proves;
//! * field alignment/selection is expressed at graph-authoring time via
//!   the typed `gather_field_seq` API, as the paper's programmers did.
//!
//! ```
//! use gpstream_core::GraphBuilder;
//! use gpstream_compiler::{compile, CompilerOptions};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.array("a", &vec![1.0f32; 1 << 16]);
//! let y = b.array_zeroed::<f32>("y", 1 << 16);
//! let xs = b.gather_seq("xs", a);
//! let ys = b.stream::<f32>("ys", 1 << 16);
//! b.kernel("scale", &[xs.id()], &[ys.id()], 8, |args| {
//!     let x = args.input::<f32>(0);
//!     for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
//!         *o = 2.0 * v;
//!     }
//! });
//! b.scatter_seq(ys, y);
//! let (graph, _world) = b.build()?;
//! let compiled = compile(&graph, &CompilerOptions::paper())?;
//! assert!(compiled.schedule.n_strips > 1, "4 MB of streams needs strips");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod options;
pub mod passes;

pub use error::CompileError;
pub use options::CompilerOptions;

use gpstream_core::{CheckedProgram, StreamGraph};

/// A compiled stream program: the (possibly fused) graph plus its
/// schedule. Executors need both — the schedule references kernels by id
/// in `graph`.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The graph the schedule refers to (kernels may have been fused).
    pub graph: StreamGraph,
    /// The scheduled task list, checked against `graph` once here so
    /// that executors run it without checking it again.
    pub schedule: CheckedProgram,
    /// Kernel pairs fused by the fusion pass.
    pub fused: Vec<(String, String)>,
}

/// Compile a stream graph with the given options.
///
/// # Errors
///
/// Returns a [`CompileError`] if the graph is invalid or does not fit the
/// configured SRF.
pub fn compile(
    graph: &StreamGraph,
    opts: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let (graph, fused) = if opts.fuse_kernels {
        let out = passes::fuse::fuse_shared_input_kernels(graph)?;
        (out.graph, out.fused)
    } else {
        (graph.clone(), Vec::new())
    };
    let schedule = passes::schedule::schedule(&graph, opts)?;
    Ok(CompiledProgram { graph, schedule, fused })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_core::exec::functional::FunctionalExecutor;
    use gpstream_core::exec::native::{NativeExecutor, NativeWaitPolicy};
    use gpstream_core::exec::sim::SimExecutor;
    use gpstream_core::{GraphBuilder, World};
    use std::sync::Arc;

    /// A two-kernel producer-consumer pipeline over enough data to need
    /// several strips: y[i] = (a[idx[i]] + b[i]) * b[i].
    fn pipeline(n: usize) -> (StreamGraph, World, gpstream_core::ArrayId, Vec<f32>) {
        let a_data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let b_data: Vec<f32> = (0..n).map(|i| 1.0 + (i % 7) as f32).collect();
        let idx: Vec<u32> =
            (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761) % n as u32).collect();
        let expected: Vec<f32> =
            (0..n).map(|i| (a_data[idx[i] as usize] + b_data[i]) * b_data[i]).collect();

        let mut bld = GraphBuilder::new();
        let a = bld.array("a", &a_data);
        let b = bld.array("b", &b_data);
        let y = bld.array_zeroed::<f32>("y", n);
        let s_a = bld.gather_indexed("as", a, Arc::new(idx));
        let s_b = bld.gather_seq("bs", b);
        let s_sum = bld.stream::<f32>("sum", n);
        let s_y = bld.stream::<f32>("ys", n);
        bld.kernel("add", &[s_a.id(), s_b.id()], &[s_sum.id()], 4, |args| {
            let xa = args.input::<f32>(0);
            let xb = args.input::<f32>(1);
            for (o, (va, vb)) in args.output::<f32>(0).iter_mut().zip(xa.iter().zip(xb)) {
                *o = va + vb;
            }
        });
        // `mul` shares input `bs` with `add` => fusion candidate.
        bld.kernel("mul", &[s_sum.id(), s_b.id()], &[s_y.id()], 4, |args| {
            let xs = args.input::<f32>(0);
            let xb = args.input::<f32>(1);
            for (o, (vs, vb)) in args.output::<f32>(0).iter_mut().zip(xs.iter().zip(xb)) {
                *o = vs * vb;
            }
        });
        bld.scatter_seq(s_y, y);
        let (graph, world) = bld.build().unwrap();
        (graph, world, y.id(), expected)
    }

    #[test]
    fn compile_produces_pipelined_schedule() {
        let (graph, _world, _y, _exp) = pipeline(200_000);
        let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();
        assert!(compiled.schedule.n_strips > 1);
        assert!(compiled.schedule.srf_bytes <= CompilerOptions::paper().srf.capacity);
        assert_eq!(compiled.fused.len(), 1, "add+mul share `bs` and must fuse");
        assert_eq!(compiled.graph.kernels().len(), 1);
        // Intermediate stream removed from the SRF working set.
        assert!(compiled.graph.streams().iter().all(|s| !s.name.starts_with("sum")));
    }

    #[test]
    fn functional_execution_matches_expected() {
        let (graph, mut world, y, expected) = pipeline(50_000);
        let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
        assert_eq!(world.slice::<f32>(y), expected.as_slice());
    }

    #[test]
    fn fusion_off_still_correct() {
        let (graph, mut world, y, expected) = pipeline(50_000);
        let opts = CompilerOptions { fuse_kernels: false, ..CompilerOptions::paper() };
        let compiled = compile(&graph, &opts).unwrap();
        assert!(compiled.fused.is_empty());
        assert_eq!(compiled.graph.kernels().len(), 2);
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
        assert_eq!(world.slice::<f32>(y), expected.as_slice());
    }

    #[test]
    fn single_buffer_still_correct() {
        let (graph, mut world, y, expected) = pipeline(50_000);
        let opts = CompilerOptions { double_buffer: false, ..CompilerOptions::paper() };
        let compiled = compile(&graph, &opts).unwrap();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
        assert_eq!(world.slice::<f32>(y), expected.as_slice());
    }

    #[test]
    fn sim_executor_matches_functional_and_reports_cycles() {
        let (graph, mut world, y, expected) = pipeline(50_000);
        let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();
        let report = SimExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
        assert_eq!(world.slice::<f32>(y), expected.as_slice());
        assert!(report.timing.cycles > 50_000, "cycles = {}", report.timing.cycles);
    }

    #[test]
    fn native_executor_matches_functional() {
        for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
            let (graph, mut world, y, expected) = pipeline(20_000);
            let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();
            let report = NativeExecutor::new().with_wait_policy(policy).run(
                &compiled.schedule,
                &compiled.graph,
                &mut world,
            );
            assert_eq!(world.slice::<f32>(y), expected.as_slice(), "{policy:?}");
            assert_eq!(report.memory_tasks + report.compute_tasks, compiled.schedule.tasks.len());
        }
    }

    #[test]
    fn forced_small_strips_are_correct() {
        let (graph, mut world, y, expected) = pipeline(10_000);
        let opts = CompilerOptions { strip_items: Some(777), ..CompilerOptions::paper() };
        let compiled = compile(&graph, &opts).unwrap();
        assert_eq!(compiled.schedule.strip_items, 777);
        assert_eq!(compiled.schedule.n_strips, 13);
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
        assert_eq!(world.slice::<f32>(y), expected.as_slice());
    }
}
