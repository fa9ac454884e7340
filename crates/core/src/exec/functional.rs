//! Single-threaded reference executor.

use crate::exec::region::Region;
use crate::graph::StreamGraph;
use crate::srf::{SrfBuffer, SrfConfig};
use crate::task::CheckedProgram;
use crate::world::World;

/// Runs a scheduled program in task order on one thread. Used as the
/// golden reference: every other executor must produce bit-identical
/// array contents.
///
/// The executor owns its SRF and keeps it across runs, as the paper
/// keeps its one pinned region: the buffer grows to the largest program
/// run and is never cleared ([`SrfBuffer::fit`]). Keep one executor per
/// thread to run many programs without allocating or zeroing an SRF.
#[derive(Debug, Clone, Default)]
pub struct FunctionalExecutor {
    srf: SrfBuffer,
}

impl FunctionalExecutor {
    /// An executor with the default (Prescott-sized) SRF.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a custom SRF configuration.
    #[must_use]
    pub fn with_srf(srf_cfg: SrfConfig) -> Self {
        FunctionalExecutor { srf: SrfBuffer::new(srf_cfg) }
    }

    /// Execute `program` against `world`, mutating scattered arrays in
    /// place. Returns the number of tasks run.
    ///
    /// Only a checked program runs, so nothing about the schedule is
    /// checked here:
    ///
    /// ```
    /// use gpstream_core::exec::functional::FunctionalExecutor;
    /// use gpstream_core::{GraphBuilder, ScheduledProgram};
    ///
    /// let (graph, mut world) = GraphBuilder::new().build()?;
    /// let program = ScheduledProgram::default().check(&graph)?;
    /// assert_eq!(FunctionalExecutor::new().run(&program, &graph, &mut world), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// and a raw [`ScheduledProgram`](crate::task::ScheduledProgram) does
    /// not type-check:
    ///
    /// ```compile_fail
    /// use gpstream_core::exec::functional::FunctionalExecutor;
    /// use gpstream_core::{GraphBuilder, ScheduledProgram};
    ///
    /// let (graph, mut world) = GraphBuilder::new().build()?;
    /// let program = ScheduledProgram::default();
    /// assert_eq!(FunctionalExecutor::new().run(&program, &graph, &mut world), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `program` was checked against a graph other than
    /// `graph` (a clone of it is the same graph), if `world` does not
    /// hold the arrays `graph` binds with room for each binding, or if
    /// the program needs more SRF bytes than the executor's SRF
    /// configuration holds.
    pub fn run(
        &mut self,
        program: &CheckedProgram,
        graph: &StreamGraph,
        world: &mut World,
    ) -> usize {
        let region = Region::new(program, graph, world, &mut self.srf);
        for task in &program.tasks {
            region.execute_task(task.id);
        }
        program.tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::task::{PortBinding, ScheduledProgram, TaskDesc, TaskId, TaskKind};

    /// Hand-build a tiny schedule: gather -> kernel(double) -> scatter.
    #[test]
    fn gather_kernel_scatter_roundtrip() {
        let mut b = GraphBuilder::new();
        let a = b.array("a", &[1.0f32, 2.0, 3.0, 4.0]);
        let y = b.array_zeroed::<f32>("y", 4);
        let s_in = b.gather_seq("as", a);
        let s_out = b.stream::<f32>("ys", 4);
        b.kernel("double", &[s_in.id()], &[s_out.id()], 4, |args| {
            let x = args.input::<f32>(0);
            for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
                *o = v * 2.0;
            }
        });
        b.scatter_seq(s_out, y);
        let (graph, mut world) = b.build().unwrap();

        let in_b = PortBinding { stream: s_in.id(), srf_offset: 0, elems: 0..4, elem_bytes: 4 };
        let out_b = PortBinding { stream: s_out.id(), srf_offset: 64, elems: 0..4, elem_bytes: 4 };
        let program = ScheduledProgram {
            tasks: vec![
                TaskDesc {
                    id: TaskId(0),
                    kind: TaskKind::Gather { binding: in_b.clone(), nt: true },
                    deps: vec![],
                    strip: 0,
                },
                TaskDesc {
                    id: TaskId(1),
                    kind: TaskKind::Kernel {
                        kernel: crate::graph::KernelId(0),
                        items: 0..4,
                        inputs: vec![in_b],
                        outputs: vec![out_b.clone()],
                    },
                    deps: vec![TaskId(0)],
                    strip: 0,
                },
                TaskDesc {
                    id: TaskId(2),
                    kind: TaskKind::Scatter { binding: out_b, nt: true },
                    deps: vec![TaskId(1)],
                    strip: 0,
                },
            ],
            srf_bytes: 128,
            n_strips: 1,
            strip_items: 4,
        };

        let program = program.check(&graph).unwrap();
        let n = FunctionalExecutor::new().run(&program, &graph, &mut world);
        assert_eq!(n, 3);
        assert_eq!(world.slice::<f32>(y.id()), &[2.0, 4.0, 6.0, 8.0]);
    }
}
