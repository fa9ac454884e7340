//! The scheduled task list produced by the stream compiler.
//!
//! A [`ScheduledProgram`] is the executable form of a stream program: a
//! software-pipelined sequence of gather / kernel / scatter tasks over
//! strips, each carrying its SRF buffer assignment and its dependencies.
//! It corresponds to the output of the paper's hand-compilation step
//! (Section IV-A): once checked, it is what every executor runs, the
//! paper's control thread and distributed work queue included.

use crate::graph::{KernelId, StreamId};
use std::ops::Range;

pub use crate::check::CheckedProgram;

/// Identifies a task within a scheduled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Binding of one kernel port (or copy endpoint) to an SRF strip buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBinding {
    /// The stream being accessed.
    pub stream: StreamId,
    /// Byte offset of the strip buffer within the SRF.
    pub srf_offset: usize,
    /// Element index range of the stream covered by this strip.
    pub elems: Range<usize>,
    /// Bytes per element (copied from the stream declaration so the SRF
    /// byte range is known without consulting the graph).
    pub elem_bytes: usize,
}

impl PortBinding {
    /// Number of elements in the strip.
    #[must_use]
    pub fn len(&self) -> usize {
        self.elems.end - self.elems.start
    }

    /// Whether the strip is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Byte range of the strip buffer within the SRF.
    #[must_use]
    pub fn srf_range(&self) -> Range<usize> {
        self.srf_offset..self.srf_offset + self.len() * self.elem_bytes
    }
}

/// What a task does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// Bulk-load a strip of a stream from global memory into the SRF.
    Gather {
        /// Stream strip and SRF destination.
        binding: PortBinding,
        /// Use non-temporal prefetch hints.
        nt: bool,
    },
    /// Bulk-store a strip of a stream from the SRF to global memory.
    Scatter {
        /// Stream strip and SRF source.
        binding: PortBinding,
        /// Use non-temporal store instructions.
        nt: bool,
    },
    /// Run a kernel over one strip.
    Kernel {
        /// Which kernel.
        kernel: KernelId,
        /// Logical item range of the strip.
        items: Range<usize>,
        /// Input port bindings (one per kernel input).
        inputs: Vec<PortBinding>,
        /// Output port bindings (one per kernel output).
        outputs: Vec<PortBinding>,
    },
}

impl TaskKind {
    /// Whether this task belongs in the memory queue (as opposed to the
    /// compute queue).
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, TaskKind::Gather { .. } | TaskKind::Scatter { .. })
    }

    /// The SRF strips this task reads and the ones it writes: a scatter
    /// reads its binding, a gather writes it, a kernel reads its inputs
    /// and writes its outputs.
    #[must_use]
    pub fn srf_ports(&self) -> (&[PortBinding], &[PortBinding]) {
        match self {
            TaskKind::Gather { binding, .. } => (&[], std::slice::from_ref(binding)),
            TaskKind::Scatter { binding, .. } => (std::slice::from_ref(binding), &[]),
            TaskKind::Kernel { inputs, outputs, .. } => (inputs, outputs),
        }
    }
}

/// One scheduled task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDesc {
    /// Task id (position in the schedule).
    pub id: TaskId,
    /// What to do.
    pub kind: TaskKind,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
    /// Which strip this task belongs to (for diagnostics).
    pub strip: u32,
}

/// A fully scheduled stream program. Executors run it only once
/// [`ScheduledProgram::check`] has turned it into a [`CheckedProgram`].
#[derive(Debug, Clone, Default)]
pub struct ScheduledProgram {
    /// Tasks in control-thread enqueue order.
    pub tasks: Vec<TaskDesc>,
    /// Total SRF bytes used by the buffer assignment.
    pub srf_bytes: usize,
    /// Number of strips the streams were broken into.
    pub n_strips: u32,
    /// The strip size in items that the compiler chose.
    pub strip_items: usize,
}

impl ScheduledProgram {
    /// Number of kernel tasks.
    #[must_use]
    pub fn kernel_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| !t.kind.is_memory()).count()
    }

    /// Number of memory (gather/scatter) tasks.
    #[must_use]
    pub fn memory_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.kind.is_memory()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_classification() {
        let b = PortBinding { stream: StreamId(0), srf_offset: 0, elems: 0..4, elem_bytes: 4 };
        assert!(TaskKind::Gather { binding: b.clone(), nt: true }.is_memory());
        assert!(TaskKind::Scatter { binding: b, nt: true }.is_memory());
        let k =
            TaskKind::Kernel { kernel: KernelId(0), items: 0..4, inputs: vec![], outputs: vec![] };
        assert!(!k.is_memory());
    }

    #[test]
    fn port_binding_len() {
        let b = PortBinding { stream: StreamId(0), srf_offset: 0, elems: 4..10, elem_bytes: 4 };
        assert_eq!(b.len(), 6);
        assert!(!b.is_empty());
    }
}
