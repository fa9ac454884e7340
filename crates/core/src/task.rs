//! The scheduled task list produced by the stream compiler.
//!
//! A [`ScheduledProgram`] is the executable form of a stream program: a
//! software-pipelined sequence of gather / kernel / scatter tasks over
//! strips, each carrying its SRF buffer assignment and its dependencies.
//! It corresponds to the output of the paper's hand-compilation step
//! (Section IV-A) and is what the control thread feeds into the
//! distributed work queue.

use crate::graph::{KernelId, StreamGraph, StreamId};
use crate::hazard::{self, ranges_overlap, ArrayAccess, DupFree};
use std::collections::HashMap;
use std::ops::Range;

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

/// A fully scheduled stream program.
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

/// Hazard checking builds per-task ancestor bitsets, which is
/// `O(n²/64)` time and space in the number of tasks. Programs larger
/// than this get only the per-task checks (structure, SRF bounds,
/// in-place kernel strips): their SRF and array hazards between tasks go
/// unchecked — at compile time as well as at run time, since the
/// compiler's scheduler calls the same [`ScheduledProgram::check`].
const MAX_HAZARD_TASKS: usize = 8192;

/// Transitive dependency reachability as one bitset row per task.
struct Reach {
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    /// Build ancestor sets: `reaches(i, d)` for every `d` transitively
    /// dependency-before `i`. Requires structurally valid tasks (deps
    /// precede dependents).
    fn build(tasks: &[TaskDesc]) -> Self {
        let n = tasks.len();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for t in tasks {
            let i = t.id.0 as usize;
            for d in &t.deps {
                let d = d.0 as usize;
                let (pre, rest) = bits.split_at_mut(i * words);
                let drow = &pre[d * words..(d + 1) * words];
                for (w, dw) in rest[..words].iter_mut().zip(drow) {
                    *w |= dw;
                }
                rest[d / 64] |= 1 << (d % 64);
            }
        }
        Self { words, bits }
    }

    fn reaches(&self, later: usize, earlier: usize) -> bool {
        self.bits[later * self.words + earlier / 64] >> (earlier % 64) & 1 == 1
    }
}

/// A live SRF region: who wrote it last and who has read it since.
struct SrfRegion {
    range: Range<usize>,
    writer: usize,
    readers: Vec<usize>,
}

impl ScheduledProgram {
    /// Check internal consistency: dependency ids precede their
    /// dependents, all ids are dense, every binding ends inside the
    /// program's `srf_bytes`, no kernel output overlaps another output or
    /// an input of the same kernel (kernels compute in place on the SRF),
    /// and — for programs small enough to analyse — every pair of tasks
    /// touching overlapping SRF bytes with at least one writer is
    /// connected by an explicit dependency path.
    ///
    /// With out-of-order work queues (Figure 7's `tail_depend`) queue
    /// position orders nothing, so a schedule whose correctness relies on
    /// implicit same-queue ordering is rejected here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.check_inner(None)
    }

    /// Full schedule check: everything [`ScheduledProgram::validate`]
    /// does plus global-array hazards (gather-vs-scatter aliasing), which
    /// need the graph's array bindings. The compiler runs this on every
    /// schedule it emits.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check(&self, graph: &StreamGraph) -> Result<(), String> {
        self.check_inner(Some(graph))
    }

    /// [`ScheduledProgram::check`] plus topology coverage: every task
    /// class in the schedule must have at least one accepting context.
    /// The executors run this when a non-default queue topology is in
    /// play.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_with_topology(
        &self,
        graph: &StreamGraph,
        topology: &crate::topology::Topology,
    ) -> Result<(), String> {
        self.check(graph)?;
        topology.validate_for(self)
    }

    fn check_inner(&self, graph: Option<&StreamGraph>) -> Result<(), String> {
        for (i, t) in self.tasks.iter().enumerate() {
            if t.id.0 as usize != i {
                return Err(format!("task {} has id {:?}", i, t.id));
            }
            for d in &t.deps {
                if d.0 >= t.id.0 {
                    return Err(format!("task {:?} depends on later or same task {:?}", t.id, d));
                }
            }
            self.check_srf_bindings(t)?;
        }
        if self.tasks.len() > MAX_HAZARD_TASKS {
            return Ok(());
        }
        let reach = Reach::build(&self.tasks);
        self.check_srf_hazards(&reach)?;
        if let Some(graph) = graph {
            self.check_array_hazards(graph, &reach)?;
        }
        Ok(())
    }

    /// One task's own SRF bindings: each ends inside `srf_bytes` (the
    /// executors allocate no more), and a kernel's non-empty outputs are
    /// disjoint from each other and from its inputs, so the kernel can
    /// read and write its strips where they sit.
    fn check_srf_bindings(&self, t: &TaskDesc) -> Result<(), String> {
        let (inputs, outputs) = match &t.kind {
            TaskKind::Gather { binding, .. } | TaskKind::Scatter { binding, .. } => {
                (std::slice::from_ref(binding), &[][..])
            }
            TaskKind::Kernel { inputs, outputs, .. } => (inputs.as_slice(), outputs.as_slice()),
        };
        for b in inputs.iter().chain(outputs) {
            let r = b.srf_range();
            if r.end > self.srf_bytes {
                return Err(format!(
                    "SRF bounds: task {} binds SRF bytes {r:?} of stream {}, past the \
                     program's {} SRF bytes",
                    t.id.0, b.stream.0, self.srf_bytes
                ));
            }
        }
        for (k, out) in outputs.iter().enumerate() {
            let w = out.srf_range();
            let clash = |other: &PortBinding| {
                let r = other.srf_range();
                !r.is_empty() && !w.is_empty() && ranges_overlap(&w, &r)
            };
            let port = if let Some(j) = inputs.iter().position(clash) {
                format!("input {j}")
            } else if let Some(j) = outputs[k + 1..].iter().position(clash) {
                format!("output {}", k + 1 + j)
            } else {
                continue;
            };
            return Err(format!(
                "kernel strip overlap: task {} output {k} writes SRF bytes {w:?} that its {port} \
                 also covers — a kernel computes in place, so its outputs must be disjoint from \
                 each other and from its inputs",
                t.id.0
            ));
        }
        Ok(())
    }

    /// SRF buffer hazards: a frontier of live regions (last writer plus
    /// readers since) is enough because reachability is transitive — if
    /// every new conflicting access reaches the frontier, it reaches all
    /// older conflicting accesses through it.
    fn check_srf_hazards(&self, reach: &Reach) -> Result<(), String> {
        let mut regions: Vec<SrfRegion> = Vec::new();
        let ordered = |earlier: usize, later: usize, what: &str| -> Result<(), String> {
            if earlier != later && !reach.reaches(later, earlier) {
                return Err(format!(
                    "{what}: task {later} conflicts with task {earlier} in the SRF but has no \
                     dependency path to it — the schedule relies on implicit queue order"
                ));
            }
            Ok(())
        };
        for t in &self.tasks {
            let i = t.id.0 as usize;
            let mut reads: Vec<Range<usize>> = Vec::new();
            let mut writes: Vec<Range<usize>> = Vec::new();
            match &t.kind {
                TaskKind::Gather { binding, .. } => writes.push(binding.srf_range()),
                TaskKind::Scatter { binding, .. } => reads.push(binding.srf_range()),
                TaskKind::Kernel { inputs, outputs, .. } => {
                    reads.extend(inputs.iter().map(PortBinding::srf_range));
                    writes.extend(outputs.iter().map(PortBinding::srf_range));
                }
            }
            for r in reads.iter().filter(|r| !r.is_empty()) {
                for region in &mut regions {
                    if ranges_overlap(&region.range, r) {
                        ordered(region.writer, i, "read-after-write")?;
                        region.readers.push(i);
                    }
                }
            }
            for w in writes.iter().filter(|w| !w.is_empty()) {
                for region in &regions {
                    if ranges_overlap(&region.range, w) {
                        ordered(region.writer, i, "write-after-write")?;
                        for &r in &region.readers {
                            ordered(r, i, "write-after-read")?;
                        }
                    }
                }
                // A full overwrite supersedes the old region; partial
                // overlaps are kept (still conservative — their writers
                // genuinely conflict with later accesses).
                regions.retain(|e| !(w.start <= e.range.start && e.range.end <= w.end));
                regions.push(SrfRegion { range: w.clone(), writer: i, readers: Vec::new() });
            }
        }
        Ok(())
    }

    /// Global-array hazards between gathers and scatters, using the
    /// conservative aliasing rules in [`crate::hazard`].
    fn check_array_hazards(&self, graph: &StreamGraph, reach: &Reach) -> Result<(), String> {
        let mut dup = DupFree::default();
        // Per array: every write and read seen so far (frontier
        // compression is unsound for may-alias accesses, so keep all).
        let mut writes: HashMap<u32, Vec<(usize, ArrayAccess)>> = HashMap::new();
        let mut reads: HashMap<u32, Vec<(usize, ArrayAccess)>> = HashMap::new();
        for t in &self.tasks {
            let Some(acc) = hazard::array_access(&t.kind, graph) else { continue };
            let i = t.id.0 as usize;
            let ordered = |earlier: usize, what: &str| -> Result<(), String> {
                if !reach.reaches(i, earlier) {
                    return Err(format!(
                        "{what}: task {i} conflicts with task {earlier} on array {} but has no \
                         dependency path to it — the schedule relies on implicit queue order",
                        acc.array
                    ));
                }
                Ok(())
            };
            for (w, prev) in writes.get(&acc.array).map_or(&[][..], Vec::as_slice) {
                if hazard::accesses_conflict(&acc, prev, graph, &mut dup) {
                    ordered(*w, if acc.write { "write-after-write" } else { "read-after-write" })?;
                }
            }
            if acc.write {
                for (r, prev) in reads.get(&acc.array).map_or(&[][..], Vec::as_slice) {
                    if hazard::accesses_conflict(&acc, prev, graph, &mut dup) {
                        ordered(*r, "write-after-read")?;
                    }
                }
                writes.entry(acc.array).or_default().push((i, acc));
            } else {
                reads.entry(acc.array).or_default().push((i, acc));
            }
        }
        Ok(())
    }

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

    fn gather(id: u32, deps: Vec<TaskId>) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            kind: TaskKind::Gather {
                binding: PortBinding {
                    stream: StreamId(0),
                    srf_offset: 0,
                    elems: 0..4,
                    elem_bytes: 4,
                },
                nt: true,
            },
            deps,
            strip: 0,
        }
    }

    #[test]
    fn validate_accepts_forward_deps() {
        let p = ScheduledProgram {
            tasks: vec![gather(0, vec![]), gather(1, vec![TaskId(0)])],
            srf_bytes: 16,
            n_strips: 1,
            strip_items: 4,
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_backward_deps() {
        let p = ScheduledProgram {
            tasks: vec![gather(0, vec![TaskId(1)]), gather(1, vec![])],
            srf_bytes: 0,
            n_strips: 1,
            strip_items: 4,
        };
        assert!(p.validate().is_err());
    }

    fn binding(stream: u32, srf_offset: usize, elems: Range<usize>) -> PortBinding {
        PortBinding { stream: StreamId(stream), srf_offset, elems, elem_bytes: 4 }
    }

    fn kernel(inputs: Vec<PortBinding>, outputs: Vec<PortBinding>) -> TaskDesc {
        TaskDesc {
            id: TaskId(0),
            kind: TaskKind::Kernel { kernel: KernelId(0), items: 0..4, inputs, outputs },
            deps: vec![],
            strip: 0,
        }
    }

    /// Per-task SRF rules hold at every program size: each row is one
    /// task, checked alone and again as the last of more than
    /// `MAX_HAZARD_TASKS` tasks (where the pairwise hazard check is off).
    #[test]
    fn validate_rejects_bad_srf_bindings_at_every_size() {
        let rows: Vec<(&str, TaskDesc, Option<&str>)> = vec![
            ("disjoint kernel", kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 16, 0..4)]), None),
            (
                "empty output inside an input",
                kernel(vec![binding(0, 0, 0..8)], vec![binding(1, 16, 0..0)]),
                None,
            ),
            (
                "output over its own input",
                kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 8, 0..4)]),
                Some("kernel strip overlap: task 0 output 0 writes SRF bytes 8..24 that its input 0"),
            ),
            (
                "two outputs over each other",
                kernel(vec![], vec![binding(1, 0, 0..4), binding(2, 12, 0..4)]),
                Some("kernel strip overlap: task 0 output 0 writes SRF bytes 0..16 that its output 1"),
            ),
            (
                "gather past srf_bytes",
                TaskDesc {
                    kind: TaskKind::Gather { binding: binding(0, 20, 0..4), nt: true },
                    ..gather(0, vec![])
                },
                Some("SRF bounds: task 0 binds SRF bytes 20..36 of stream 0, past the program's 32"),
            ),
            (
                "kernel output past srf_bytes",
                kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 24, 0..4)]),
                Some("SRF bounds: task 0 binds SRF bytes 24..40 of stream 1"),
            ),
            (
                "empty binding past srf_bytes",
                kernel(vec![binding(0, 40, 0..0)], vec![]),
                Some("SRF bounds: task 0 binds SRF bytes 40..40"),
            ),
        ];
        for (what, task, want) in rows {
            for filler in [0, MAX_HAZARD_TASKS] {
                let mut tasks: Vec<TaskDesc> =
                    (0..filler as u32).map(|i| gather(i, vec![])).collect();
                tasks.push(TaskDesc { id: TaskId(filler as u32), ..task.clone() });
                let p = ScheduledProgram { tasks, srf_bytes: 32, n_strips: 1, strip_items: 4 };
                match (p.validate(), want) {
                    (Ok(()), None) => {}
                    (Err(e), Some(want)) => {
                        let want = want.replace("task 0", &format!("task {filler}"));
                        assert!(e.starts_with(&want), "{what} ({filler} before): got {e}");
                    }
                    (got, _) => panic!("{what} ({filler} before): got {got:?}, want {want:?}"),
                }
            }
        }
    }

    #[test]
    fn task_classification() {
        let g = gather(0, vec![]);
        assert!(g.kind.is_memory());
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
