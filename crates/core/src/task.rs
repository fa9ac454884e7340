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

    /// The SRF strips this task reads and the ones it writes: a scatter
    /// reads its binding, a gather writes it, a kernel reads its inputs
    /// and writes its outputs.
    fn srf_ports(&self) -> (&[PortBinding], &[PortBinding]) {
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
/// in-place kernel strips) and the one-pass SRF define-before-use rule:
/// their SRF and array hazards between tasks go unchecked — at compile
/// time as well as at run time, since the compiler's scheduler calls the
/// same [`ScheduledProgram::check`].
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

/// The SRF bytes written so far: disjoint ranges that do not touch, in
/// ascending order.
#[derive(Default)]
struct WrittenRanges(Vec<Range<usize>>);

impl WrittenRanges {
    /// Mark `w` written, merging it with every range it overlaps or
    /// touches.
    fn insert(&mut self, w: Range<usize>) {
        if w.is_empty() {
            return;
        }
        let lo = self.0.partition_point(|r| r.end < w.start);
        let hi = self.0.partition_point(|r| r.start <= w.end);
        let merged =
            if lo < hi { self.0[lo].start.min(w.start)..self.0[hi - 1].end.max(w.end) } else { w };
        self.0.splice(lo..hi, [merged]);
    }

    /// The first bytes of `r` not yet written, if any.
    fn first_gap(&self, r: Range<usize>) -> Option<Range<usize>> {
        if r.is_empty() {
            return None;
        }
        let i = self.0.partition_point(|w| w.end <= r.start);
        match self.0.get(i) {
            Some(w) if w.start <= r.start => (w.end < r.end)
                .then(|| w.end..self.0.get(i + 1).map_or(r.end, |next| next.start.min(r.end))),
            Some(w) => Some(r.start..w.start.min(r.end)),
            None => Some(r),
        }
    }
}

impl ScheduledProgram {
    /// Check internal consistency: dependency ids precede their
    /// dependents, all ids are dense, every binding ends inside the
    /// program's `srf_bytes`, no kernel output overlaps another output or
    /// an input of the same kernel (kernels compute in place on the SRF),
    /// every SRF byte a task reads was written by an earlier task (so an
    /// SRF's contents are undefined until written and no executor needs
    /// a cleared one), and — for programs small enough to analyse — every
    /// pair of tasks touching overlapping SRF bytes with at least one
    /// writer is connected by an explicit dependency path.
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
        self.check_srf_defined()?;
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
        let (inputs, outputs) = t.kind.srf_ports();
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

    /// Define before use: every SRF byte a scatter or a kernel input
    /// reads was written by an earlier gather or kernel output. One pass
    /// in task order over the written bytes, kept as merged ranges.
    fn check_srf_defined(&self) -> Result<(), String> {
        let mut written = WrittenRanges::default();
        for t in &self.tasks {
            let (reads, writes) = t.kind.srf_ports();
            for b in reads {
                if let Some(gap) = written.first_gap(b.srf_range()) {
                    return Err(format!(
                        "SRF read before write: task {} reads SRF bytes {gap:?} of stream {} \
                         that no earlier task writes",
                        t.id.0, b.stream.0
                    ));
                }
            }
            for b in writes {
                written.insert(b.srf_range());
            }
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
            let (reads, writes) = t.kind.srf_ports();
            for r in reads.iter().map(PortBinding::srf_range).filter(|r| !r.is_empty()) {
                for region in &mut regions {
                    if ranges_overlap(&region.range, &r) {
                        ordered(region.writer, i, "read-after-write")?;
                        region.readers.push(i);
                    }
                }
            }
            for w in writes.iter().map(PortBinding::srf_range).filter(|w| !w.is_empty()) {
                for region in &regions {
                    if ranges_overlap(&region.range, &w) {
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
                regions.push(SrfRegion { range: w, writer: i, readers: Vec::new() });
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

    /// Task `id` of a table row doing `kind` after the row's tasks `deps`.
    fn task(id: u32, kind: TaskKind, deps: &[u32]) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            kind,
            deps: deps.iter().copied().map(TaskId).collect(),
            strip: 0,
        }
    }

    /// A gather into `binding`'s SRF bytes.
    fn fill(binding: PortBinding) -> TaskKind {
        TaskKind::Gather { binding, nt: true }
    }

    /// A scatter out of `binding`'s SRF bytes.
    fn drain(binding: PortBinding) -> TaskKind {
        TaskKind::Scatter { binding, nt: true }
    }

    fn kernel(inputs: Vec<PortBinding>, outputs: Vec<PortBinding>) -> TaskKind {
        TaskKind::Kernel { kernel: KernelId(0), items: 0..4, inputs, outputs }
    }

    /// The SRF rules that need no pairwise hazard analysis hold at every
    /// program size: each row is a few tasks, checked alone and again
    /// after `MAX_HAZARD_TASKS` filler gathers of SRF bytes 0..16 (where
    /// the pairwise hazard check is off). A rejected row fails at its
    /// last task, `task #` in the expected text.
    #[test]
    fn validate_rejects_bad_srf_bindings_at_every_size() {
        let rows: Vec<(&str, Vec<TaskDesc>, Option<&str>)> = vec![
            (
                "disjoint kernel",
                vec![
                    task(0, fill(binding(0, 0, 0..4)), &[]),
                    task(1, kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 16, 0..4)]), &[0]),
                ],
                None,
            ),
            (
                "empty output inside an input",
                vec![
                    task(0, fill(binding(0, 0, 0..8)), &[]),
                    task(1, kernel(vec![binding(0, 0, 0..8)], vec![binding(1, 16, 0..0)]), &[0]),
                ],
                None,
            ),
            (
                "two adjacent gathers cover one read",
                vec![
                    task(0, fill(binding(0, 16, 0..2)), &[]),
                    task(1, fill(binding(1, 24, 0..2)), &[]),
                    task(2, drain(binding(2, 16, 0..4)), &[0, 1]),
                ],
                None,
            ),
            (
                "output over its own input",
                vec![task(0, kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 8, 0..4)]), &[])],
                Some("kernel strip overlap: task # output 0 writes SRF bytes 8..24 that its input 0"),
            ),
            (
                "two outputs over each other",
                vec![task(0, kernel(vec![], vec![binding(1, 0, 0..4), binding(2, 12, 0..4)]), &[])],
                Some("kernel strip overlap: task # output 0 writes SRF bytes 0..16 that its output 1"),
            ),
            (
                "gather past srf_bytes",
                vec![task(0, fill(binding(0, 20, 0..4)), &[])],
                Some("SRF bounds: task # binds SRF bytes 20..36 of stream 0, past the program's 32"),
            ),
            (
                "kernel output past srf_bytes",
                vec![task(0, kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 24, 0..4)]), &[])],
                Some("SRF bounds: task # binds SRF bytes 24..40 of stream 1"),
            ),
            (
                "empty binding past srf_bytes",
                vec![task(0, kernel(vec![binding(0, 40, 0..0)], vec![]), &[])],
                Some("SRF bounds: task # binds SRF bytes 40..40"),
            ),
            (
                "scatter of a never-gathered strip",
                vec![task(0, drain(binding(0, 16, 0..4)), &[])],
                Some("SRF read before write: task # reads SRF bytes 16..32 of stream 0"),
            ),
            (
                "kernel input only partly covered",
                vec![
                    task(0, fill(binding(0, 16, 0..2)), &[]),
                    task(1, kernel(vec![binding(0, 16, 0..4)], vec![]), &[0]),
                ],
                Some("SRF read before write: task # reads SRF bytes 24..32 of stream 0"),
            ),
            (
                "a read one byte past a write",
                vec![
                    task(0, fill(binding(0, 16, 0..3)), &[]),
                    task(1, drain(binding(0, 17, 0..3)), &[0]),
                ],
                Some("SRF read before write: task # reads SRF bytes 28..29 of stream 0"),
            ),
        ];
        for (what, row, want) in rows {
            for filler in [0, MAX_HAZARD_TASKS as u32] {
                let mut tasks: Vec<TaskDesc> = (0..filler).map(|i| gather(i, vec![])).collect();
                tasks.extend(row.iter().map(|t| TaskDesc {
                    id: TaskId(t.id.0 + filler),
                    deps: t.deps.iter().map(|d| TaskId(d.0 + filler)).collect(),
                    ..t.clone()
                }));
                let last = tasks.len() - 1;
                let p = ScheduledProgram { tasks, srf_bytes: 32, n_strips: 1, strip_items: 4 };
                match (p.validate(), want) {
                    (Ok(()), None) => {}
                    (Err(e), Some(want)) => {
                        let want = want.replace("task #", &format!("task {last}"));
                        assert!(e.starts_with(&want), "{what} ({filler} before): got {e}");
                    }
                    (got, _) => panic!("{what} ({filler} before): got {got:?}, want {want:?}"),
                }
            }
        }
    }

    /// The merged written ranges answer like a map of every byte: on
    /// random writes and reads over 64 bytes, `first_gap` names the
    /// first unwritten run of the read, and the ranges stay sorted,
    /// disjoint and apart.
    #[test]
    fn written_ranges_answer_like_a_byte_map() {
        gpstream_util::check::run_cases("srf-written-ranges", 0x6a79_2005, 256, |rng| {
            let mut ranges = WrittenRanges::default();
            let mut bytes = [false; 64];
            for _ in 0..rng.range_usize_inclusive(0, 24) {
                let a = rng.below_usize(65);
                let b = rng.range_usize_inclusive(a, 64.min(a + 20));
                if rng.bool() {
                    ranges.insert(a..b);
                    bytes[a..b].fill(true);
                } else {
                    let start = (a..b).find(|&i| !bytes[i]);
                    let want = start.map(|s| s..(s..b).find(|&i| bytes[i]).unwrap_or(b));
                    assert_eq!(ranges.first_gap(a..b), want, "read {a}..{b}");
                }
            }
            for pair in ranges.0.windows(2) {
                assert!(pair[0].end < pair[1].start, "{:?} not merged", ranges.0);
            }
            assert!(ranges.0.iter().all(|r| !r.is_empty()));
        });
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
