//! The schedule check: the one proof an executor relies on.
//!
//! With out-of-order work queues (Figure 7's `tail_depend`) queue
//! position orders nothing, so a schedule is correct only if its
//! dependencies alone order every two tasks that touch a common byte —
//! in the SRF or in a global array — with at least one of them writing.
//! [`ScheduledProgram::check`] proves that, and every structural fact
//! the executors lean on, at every program size, and hands back the
//! [`CheckedProgram`] that is the only thing an executor runs. The
//! compiler checks each schedule once; no executor checks again.

use crate::graph::StreamGraph;
use crate::hazard::{self, ranges_overlap, AccessIndex, SrfFrontier};
use crate::task::{PortBinding, ScheduledProgram, TaskDesc, TaskKind};
use std::fmt;
use std::ops::Deref;

/// A [`ScheduledProgram`] that passed [`ScheduledProgram::check`]. It
/// derefs to the program and cannot be built or changed any other way,
/// so an executor that takes one never re-checks it and never meets a
/// schedule it cannot run.
///
/// The proof covers the graph the program was checked against, and the
/// program records that graph's identity: every executor refuses to run
/// it with any other graph (a clone of that graph is the same graph).
/// `CompiledProgram` in `gpstream-compiler` keeps the two together.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    program: ScheduledProgram,
    /// [`StreamGraph::identity`] of the graph the proof covers.
    graph: u64,
}

impl CheckedProgram {
    /// Whether the proof covers `graph`.
    pub(crate) fn covers(&self, graph: &StreamGraph) -> bool {
        self.graph == graph.identity()
    }
}

impl Deref for CheckedProgram {
    type Target = ScheduledProgram;

    fn deref(&self) -> &ScheduledProgram {
        &self.program
    }
}

impl ScheduledProgram {
    /// Prove the program safe to run against `graph` and return it as a
    /// [`CheckedProgram`]. The proof is exact at every program size:
    ///
    /// - task ids are dense, and every dependency names an earlier task;
    /// - every kernel and stream a task names is one of `graph`'s, a
    ///   kernel task binds as many inputs and outputs as its kernel
    ///   declares, each binding has its stream's element size and lies
    ///   inside the stream, a gather's stream reads an array and a
    ///   scatter's writes one;
    /// - every binding ends inside `srf_bytes` (executors allocate no
    ///   more), and a kernel's non-empty outputs are disjoint from each
    ///   other and from its inputs (kernels compute in place on the SRF);
    /// - every SRF byte a task reads was written by an earlier task, so
    ///   SRF contents are undefined until written and no executor needs
    ///   a cleared SRF;
    /// - every two tasks that touch a common SRF byte, or may touch a
    ///   common array record by the conservative rules of
    ///   [`crate::hazard`], at least one of them writing, are connected
    ///   by a dependency path. A schedule whose correctness relies on
    ///   implicit same-queue order is rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check(self, graph: &StreamGraph) -> Result<CheckedProgram, String> {
        for (i, t) in self.tasks.iter().enumerate() {
            self.check_task(i, t, graph)?;
        }
        let mut paths = DepPaths::new(&self.tasks);
        self.check_srf(&mut paths)?;
        self.check_array_hazards(graph, &mut paths)?;
        Ok(CheckedProgram { program: self, graph: graph.identity() })
    }

    /// One task on its own: its id and dependencies, what it names in
    /// `graph`, and its SRF bindings.
    fn check_task(&self, i: usize, t: &TaskDesc, graph: &StreamGraph) -> Result<(), String> {
        if t.id.0 as usize != i {
            return Err(format!("task {} has id {:?}", i, t.id));
        }
        if let Some(d) = t.deps.iter().find(|d| d.0 >= t.id.0) {
            return Err(format!("task {:?} depends on later or same task {:?}", t.id, d));
        }
        let id = t.id.0;
        match &t.kind {
            TaskKind::Gather { binding, .. } | TaskKind::Scatter { binding, .. } => {
                self.check_binding(id, binding, graph)?;
                let decl = graph.stream(binding.stream);
                if matches!(t.kind, TaskKind::Gather { .. }) && decl.src.is_none() {
                    return Err(format!(
                        "gather without a source: task {id} gathers stream {}, which reads no \
                         array",
                        binding.stream.0
                    ));
                }
                if matches!(t.kind, TaskKind::Scatter { .. }) && decl.dst.is_none() {
                    return Err(format!(
                        "scatter without a destination: task {id} scatters stream {}, which \
                         writes no array",
                        binding.stream.0
                    ));
                }
            }
            TaskKind::Kernel { kernel, inputs, outputs, .. } => {
                let Some(decl) = graph.kernels().get(kernel.0 as usize) else {
                    return Err(format!(
                        "unknown kernel: task {id} runs kernel {}, but the graph declares {}",
                        kernel.0,
                        graph.kernels().len()
                    ));
                };
                if (decl.inputs.len(), decl.outputs.len()) != (inputs.len(), outputs.len()) {
                    return Err(format!(
                        "kernel arity: task {id} binds {} inputs and {} outputs to kernel `{}`, \
                         which declares {} and {}",
                        inputs.len(),
                        outputs.len(),
                        decl.name,
                        decl.inputs.len(),
                        decl.outputs.len()
                    ));
                }
                for b in inputs.iter().chain(outputs) {
                    self.check_binding(id, b, graph)?;
                }
                check_kernel_strips(id, inputs, outputs)?;
            }
        }
        Ok(())
    }

    /// One binding: a stream of `graph`'s, with the stream's element
    /// size, elements inside the stream, and SRF bytes inside
    /// `srf_bytes`.
    fn check_binding(&self, id: u32, b: &PortBinding, graph: &StreamGraph) -> Result<(), String> {
        let s = b.stream.0;
        let Some(decl) = graph.streams().get(s as usize) else {
            return Err(format!(
                "unknown stream: task {id} binds stream {s}, but the graph declares {}",
                graph.streams().len()
            ));
        };
        if b.elem_bytes != decl.elem_bytes {
            return Err(format!(
                "element size: task {id} binds stream {s} with {}-byte elements, but the \
                 stream's are {} bytes",
                b.elem_bytes, decl.elem_bytes
            ));
        }
        if b.elems.start > b.elems.end || b.elems.end > decl.count {
            return Err(format!(
                "stream range: task {id} binds elements {:?} of stream {s}, which has {}",
                b.elems, decl.count
            ));
        }
        let bytes = b.len() * b.elem_bytes;
        if b.srf_offset > self.srf_bytes || bytes > self.srf_bytes - b.srf_offset {
            return Err(format!(
                "SRF bounds: task {id} binds SRF bytes {}..{} of stream {s}, past the program's \
                 {} SRF bytes",
                b.srf_offset,
                b.srf_offset.saturating_add(bytes),
                self.srf_bytes
            ));
        }
        Ok(())
    }

    /// SRF define-before-use and hazards, over one [`SrfFrontier`] walked
    /// across every binding's bytes: a read must not reach bytes no
    /// earlier task wrote, and each access must reach every earlier task
    /// the frontier names. The `schedule_check` integration test finds
    /// this agreeing with full ancestor bitsets and a frontier of whole
    /// regions on every catalog schedule and on mutants that drop one
    /// dependency.
    fn check_srf(&self, paths: &mut DepPaths<'_>) -> Result<(), String> {
        let mut srf = SrfFrontier::default();
        for t in &self.tasks {
            let i = t.id.0 as usize;
            let mut require = |e, what| paths.require(e, i, what, "in the SRF");
            let (reads, writes) = t.kind.srf_ports();
            for b in reads {
                if let Some(gap) = srf.access(i, b.srf_range(), false, &mut require)? {
                    return Err(format!(
                        "SRF read before write: task {i} reads SRF bytes {gap:?} of stream {} \
                         that no earlier task writes",
                        b.stream.0
                    ));
                }
            }
            for b in writes {
                srf.access(i, b.srf_range(), true, &mut require)?;
            }
        }
        Ok(())
    }

    /// Global-array hazards between gathers and scatters, by the
    /// conservative aliasing rules of [`crate::hazard`]. May-alias
    /// accesses admit no frontier, so each access is checked against
    /// every earlier access of its array it conflicts with (found through
    /// an [`AccessIndex`]), except those below the settled floor, which
    /// every task from here on reaches.
    fn check_array_hazards(
        &self,
        graph: &StreamGraph,
        paths: &mut DepPaths<'_>,
    ) -> Result<(), String> {
        let mut index = AccessIndex::default();
        for t in &self.tasks {
            let Some(acc) = hazard::array_access(&t.kind, graph) else { continue };
            let i = t.id.0 as usize;
            let array = acc.array;
            index.forget_below(array, paths.settled[i] as usize);
            index.for_each_conflict(&acc, graph, |e, what| {
                paths.require(e, i, what, format_args!("on array {array}"))
            })?;
            index.push(i, acc);
        }
        Ok(())
    }
}

/// A kernel's non-empty outputs are disjoint from each other and from
/// its inputs, so it can read and write its strips where they sit.
fn check_kernel_strips(
    id: u32,
    inputs: &[PortBinding],
    outputs: &[PortBinding],
) -> Result<(), String> {
    for (k, out) in outputs.iter().enumerate() {
        let w = out.srf_range();
        let clash = |other: &PortBinding| ranges_overlap(&w, &other.srf_range());
        let port = if let Some(j) = inputs.iter().position(clash) {
            format!("input {j}")
        } else if let Some(j) = outputs[k + 1..].iter().position(clash) {
            format!("output {}", k + 1 + j)
        } else {
            continue;
        };
        return Err(format!(
            "kernel strip overlap: task {id} output {k} writes SRF bytes {w:?} that its {port} \
             also covers — a kernel computes in place, so its outputs must be disjoint from each \
             other and from its inputs"
        ));
    }
    Ok(())
}

/// Whether one task reaches another through its dependencies, answered
/// exactly without a transitive closure.
///
/// Each task gets a *floor*: it reaches every task below it. Task `i`
/// reaches every task below `d + 1` when its dependencies hold every
/// task below `d + 1` that has no dependent below `d + 1` (each task of
/// that prefix is an ancestor of one of those sinks); the test is a
/// count, against each task's first dependent. The floor is then the
/// greatest such `d + 1`, or the greatest floor of `i`'s dependencies,
/// whichever is larger. A phase barrier lifts every later task's floor
/// past the whole phase, so the questions that cross phases are
/// answered without a search.
///
/// Any other question, "does `later` reach `earlier`", is a search over
/// `later`'s dependencies that never descends below `earlier` (ids are
/// topological, so nothing there reaches it) and stops at the first
/// task whose floor passes `earlier`. Floors only claim paths that
/// exist and the search visits every other ancestor that could lead to
/// `earlier`, so every answer equals a full closure's.
struct DepPaths<'p> {
    tasks: &'p [TaskDesc],
    /// `floor[i]`: task `i` reaches every task below it.
    floor: Vec<u32>,
    /// `settled[i]`: every task from `i` on reaches every task below it
    /// (the least floor from `i` on).
    settled: Vec<u32>,
    /// Search marks: task `t` was visited by the search stamped `seen[t]`.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<usize>,
}

impl<'p> DepPaths<'p> {
    /// Floors and settled floors of structurally valid `tasks` (ids
    /// dense, dependencies earlier).
    fn new(tasks: &'p [TaskDesc]) -> Self {
        let n = tasks.len();
        let none = n as u32;
        // The first task that depends on each task (`n`: none does).
        let mut first_dependent = vec![none; n];
        for t in tasks {
            for d in &t.deps {
                let f = &mut first_dependent[d.0 as usize];
                *f = (*f).min(t.id.0);
            }
        }
        // sinks[k]: tasks below k with no dependent below k. Task k joins
        // the sinks of prefix k + 1, and the tasks whose first dependent
        // is k leave them.
        let mut leaving = vec![0u32; n + 1];
        for &f in &first_dependent {
            leaving[f as usize] += 1;
        }
        let mut sinks = vec![0u32; n + 1];
        for k in 0..n {
            sinks[k + 1] = sinks[k] + 1 - leaving[k];
        }
        let mut floor = vec![0u32; n];
        let (mut deps, mut firsts): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for t in tasks {
            deps.clear();
            deps.extend(t.deps.iter().map(|d| d.0));
            if !deps.windows(2).all(|w| w[0] < w[1]) {
                deps.sort_unstable();
                deps.dedup();
            }
            // `deps[j]` is `d`. A dependency is a sink of the tasks up to
            // `d` when it is at most `d` and its first dependent is above
            // `d`; one whose first dependent is at most `d` lies below `d`.
            // So `deps[..=j]` holds `j + 1` less `closed` such sinks,
            // `closed` counting the first dependents at most `d`.
            firsts.clear();
            firsts.extend(deps.iter().map(|&d| first_dependent[d as usize]));
            firsts.sort_unstable();
            let (mut f, mut closed) = (0, 0);
            for (j, &d) in deps.iter().enumerate() {
                f = f.max(floor[d as usize]);
                while firsts.get(closed).is_some_and(|&x| x <= d) {
                    closed += 1;
                }
                if (j + 1 - closed) as u32 == sinks[d as usize + 1] {
                    f = f.max(d + 1);
                }
            }
            floor[t.id.0 as usize] = f;
        }
        let mut settled = floor.clone();
        for i in (1..n).rev() {
            settled[i - 1] = settled[i - 1].min(settled[i]);
        }
        DepPaths { tasks, floor, settled, seen: vec![0; n], stamp: 0, stack: Vec::new() }
    }

    /// Whether `later` reaches `earlier` (`earlier < later`).
    fn reaches(&mut self, later: usize, earlier: usize) -> bool {
        if earlier < self.floor[later] as usize {
            return true;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
        self.stack.push(later);
        while let Some(t) = self.stack.pop() {
            for d in &self.tasks[t].deps {
                let d = d.0 as usize;
                if d == earlier || self.floor[d] as usize > earlier {
                    return true;
                }
                if d > earlier && self.seen[d] != self.stamp {
                    self.seen[d] = self.stamp;
                    self.stack.push(d);
                }
            }
        }
        false
    }

    /// `Ok` when `later` is ordered after `earlier` (a task is ordered
    /// with itself), else the `what` hazard between them, `place`
    /// naming where they meet.
    fn require(
        &mut self,
        earlier: usize,
        later: usize,
        what: &str,
        place: impl fmt::Display,
    ) -> Result<(), String> {
        if earlier == later || self.reaches(later, earlier) {
            return Ok(());
        }
        Err(format!(
            "{what}: task {later} conflicts with task {earlier} {place} but has no dependency \
             path to it — the schedule relies on implicit queue order"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, KernelId, StreamId};
    use crate::task::TaskId;
    use std::ops::Range;

    /// The graph every table row is checked against. Its five streams
    /// hold 16 four-byte elements each: 0 gathers array 0 and scatters
    /// to array 1; 1 is kernel 0's output, scattered to array 0; 2 and 3
    /// are kernel 2's outputs, scattered to array 1; 4 gathers array 0
    /// for kernel 1. Kernel 0 has one input and one output, kernel 1 one
    /// input and none, kernel 2 no input and two outputs.
    fn table_graph() -> StreamGraph {
        let mut b = GraphBuilder::new();
        let a = b.array_zeroed::<f32>("a", 16);
        let y = b.array_zeroed::<f32>("y", 16);
        let s0 = b.gather_seq("s0", a);
        b.scatter_seq(s0, y);
        let s1 = b.stream::<f32>("s1", 16);
        b.scatter_seq(s1, a);
        let s2 = b.stream::<f32>("s2", 16);
        b.scatter_seq(s2, y);
        let s3 = b.stream::<f32>("s3", 16);
        b.scatter_seq(s3, y);
        let s4 = b.gather_seq("s4", a);
        b.kernel("one-to-one", &[s0.id()], &[s1.id()], 1, |_| {});
        b.kernel("sink", &[s4.id()], &[], 1, |_| {});
        b.kernel("source", &[], &[s2.id(), s3.id()], 1, |_| {});
        b.build().expect("the table graph builds").0
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

    /// A kernel task run by the table graph's kernel of its arity.
    fn kernel(inputs: Vec<PortBinding>, outputs: Vec<PortBinding>) -> TaskKind {
        let kernel = match (inputs.len(), outputs.len()) {
            (1, 1) => 0,
            (1, 0) => 1,
            _ => 2,
        };
        TaskKind::Kernel { kernel: KernelId(kernel), items: 0..4, inputs, outputs }
    }

    /// Every rule holds at every program size. Each row is a few tasks
    /// in a 32-byte SRF, checked alone and again behind 100 000 filler
    /// gathers that form a dependency chain over SRF bytes 0..16 (the
    /// row's tasks without dependencies follow the last filler). The
    /// expected text names row task `k` as `#k`.
    #[test]
    fn check_rejects_what_an_executor_cannot_run_at_every_size() {
        let graph = table_graph();
        let rows: Vec<(&str, Vec<TaskDesc>, Option<&str>)> = vec![
            (
                "a gather chain",
                vec![task(0, fill(binding(0, 16, 0..4)), &[]), task(1, fill(binding(0, 16, 4..8)), &[0])],
                None,
            ),
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
                    task(1, fill(binding(0, 24, 2..4)), &[]),
                    task(2, drain(binding(2, 16, 0..4)), &[0, 1]),
                ],
                None,
            ),
            (
                "a reused buffer with every SRF hazard ordered",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, drain(binding(0, 16, 0..4)), &[0]),
                    task(2, fill(binding(0, 16, 4..8)), &[1]),
                    task(3, drain(binding(0, 16, 4..8)), &[2]),
                ],
                None,
            ),
            (
                "a reader of an overwritten part does not order a writer of the rest",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, fill(binding(0, 24, 2..4)), &[0]),
                    task(2, drain(binding(0, 24, 2..4)), &[1]),
                    task(3, fill(binding(0, 16, 0..2)), &[0]),
                ],
                None,
            ),
            (
                "a reader of one part of a strip does not order a writer of the other part",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, drain(binding(0, 16, 0..2)), &[0]),
                    task(2, fill(binding(0, 24, 2..4)), &[0]),
                ],
                None,
            ),
            (
                "an array write after a read, ordered",
                vec![
                    task(0, fill(binding(0, 0, 4..6)), &[]),
                    task(1, kernel(vec![binding(0, 0, 4..6)], vec![binding(1, 8, 0..2)]), &[0]),
                    task(2, fill(binding(0, 16, 0..2)), &[]),
                    task(3, drain(binding(1, 8, 0..2)), &[1, 2]),
                ],
                None,
            ),
            (
                "a dependency on a later task",
                vec![task(0, fill(binding(0, 16, 0..4)), &[1]), task(1, fill(binding(0, 16, 4..8)), &[])],
                Some("task TaskId(#0) depends on later or same task TaskId(#1)"),
            ),
            (
                "an unknown kernel",
                vec![task(
                    0,
                    TaskKind::Kernel { kernel: KernelId(3), items: 0..4, inputs: vec![], outputs: vec![] },
                    &[],
                )],
                Some("unknown kernel: task #0 runs kernel 3, but the graph declares 3"),
            ),
            (
                "an unknown stream",
                vec![task(0, fill(binding(5, 0, 0..4)), &[])],
                Some("unknown stream: task #0 binds stream 5, but the graph declares 5"),
            ),
            (
                "a kernel task missing an input",
                vec![task(
                    0,
                    TaskKind::Kernel {
                        kernel: KernelId(0),
                        items: 0..4,
                        inputs: vec![],
                        outputs: vec![binding(1, 16, 0..4)],
                    },
                    &[],
                )],
                Some(
                    "kernel arity: task #0 binds 0 inputs and 1 outputs to kernel `one-to-one`, \
                     which declares 1 and 1",
                ),
            ),
            (
                "a gather of a stream that reads no array",
                vec![task(0, fill(binding(1, 0, 0..4)), &[])],
                Some("gather without a source: task #0 gathers stream 1, which reads no array"),
            ),
            (
                "a scatter of a stream that writes no array",
                vec![task(0, fill(binding(4, 0, 0..4)), &[]), task(1, drain(binding(4, 0, 0..4)), &[0])],
                Some("scatter without a destination: task #1 scatters stream 4, which writes no array"),
            ),
            (
                "a binding with another element size",
                vec![task(
                    0,
                    fill(PortBinding { stream: StreamId(0), srf_offset: 0, elems: 0..2, elem_bytes: 8 }),
                    &[],
                )],
                Some("element size: task #0 binds stream 0 with 8-byte elements, but the stream's are 4"),
            ),
            (
                "a binding past its stream's elements",
                vec![task(0, fill(binding(0, 0, 14..18)), &[])],
                Some("stream range: task #0 binds elements 14..18 of stream 0, which has 16"),
            ),
            (
                "a reversed element range",
                vec![task(0, fill(binding(0, 0, Range { start: 4, end: 2 })), &[])],
                Some("stream range: task #0 binds elements 4..2 of stream 0"),
            ),
            (
                "output over its own input",
                vec![task(0, kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 8, 0..4)]), &[])],
                Some("kernel strip overlap: task #0 output 0 writes SRF bytes 8..24 that its input 0"),
            ),
            (
                "two outputs over each other",
                vec![task(0, kernel(vec![], vec![binding(2, 0, 0..4), binding(3, 12, 0..4)]), &[])],
                Some("kernel strip overlap: task #0 output 0 writes SRF bytes 0..16 that its output 1"),
            ),
            (
                "gather past srf_bytes",
                vec![task(0, fill(binding(0, 20, 0..4)), &[])],
                Some("SRF bounds: task #0 binds SRF bytes 20..36 of stream 0, past the program's 32"),
            ),
            (
                "kernel output past srf_bytes",
                vec![task(0, kernel(vec![binding(0, 0, 0..4)], vec![binding(1, 24, 0..4)]), &[])],
                Some("SRF bounds: task #0 binds SRF bytes 24..40 of stream 1"),
            ),
            (
                "empty binding past srf_bytes",
                vec![task(0, kernel(vec![binding(0, 40, 0..0)], vec![]), &[])],
                Some("SRF bounds: task #0 binds SRF bytes 40..40"),
            ),
            (
                "scatter of a never-gathered strip",
                vec![task(0, drain(binding(0, 16, 0..4)), &[])],
                Some("SRF read before write: task #0 reads SRF bytes 16..32 of stream 0"),
            ),
            (
                "kernel input only partly covered",
                vec![
                    task(0, fill(binding(0, 16, 0..2)), &[]),
                    task(1, kernel(vec![binding(0, 16, 0..4)], vec![]), &[0]),
                ],
                Some("SRF read before write: task #1 reads SRF bytes 24..32 of stream 0"),
            ),
            (
                "a read one byte past a write",
                vec![
                    task(0, fill(binding(0, 16, 0..3)), &[]),
                    task(1, drain(binding(0, 17, 0..3)), &[0]),
                ],
                Some("SRF read before write: task #1 reads SRF bytes 28..29 of stream 0"),
            ),
            (
                "an SRF read after a write with no edge",
                vec![task(0, fill(binding(0, 16, 0..4)), &[]), task(1, drain(binding(0, 16, 0..4)), &[])],
                Some("read-after-write: task #1 conflicts with task #0 in the SRF"),
            ),
            (
                "a read after a rewrite, ordered only after the first write",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, fill(binding(0, 16, 4..8)), &[0]),
                    task(2, drain(binding(0, 16, 4..8)), &[0]),
                ],
                Some("read-after-write: task #2 conflicts with task #1 in the SRF"),
            ),
            (
                "a read of the part left of an overwrite, with no edge to its writer",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, fill(binding(0, 20, 0..2)), &[0]),
                    task(2, drain(binding(0, 16, 0..1)), &[]),
                ],
                Some("read-after-write: task #2 conflicts with task #0 in the SRF"),
            ),
            (
                "a read of the part right of an overwrite, with no edge to its writer",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, fill(binding(0, 20, 0..2)), &[0]),
                    task(2, drain(binding(0, 28, 3..4)), &[]),
                ],
                Some("read-after-write: task #2 conflicts with task #0 in the SRF"),
            ),
            (
                "an SRF write after a read with no edge",
                vec![
                    task(0, fill(binding(0, 16, 0..4)), &[]),
                    task(1, drain(binding(0, 16, 0..4)), &[0]),
                    task(2, fill(binding(0, 16, 4..8)), &[0]),
                ],
                Some("write-after-read: task #2 conflicts with task #1 in the SRF"),
            ),
            (
                "an SRF write after a write with no edge",
                vec![task(0, fill(binding(0, 16, 0..4)), &[]), task(1, fill(binding(0, 16, 4..8)), &[])],
                Some("write-after-write: task #1 conflicts with task #0 in the SRF"),
            ),
            (
                "an array write after a read with no edge",
                vec![
                    task(0, fill(binding(0, 0, 4..6)), &[]),
                    task(1, kernel(vec![binding(0, 0, 4..6)], vec![binding(1, 8, 0..2)]), &[0]),
                    task(2, fill(binding(0, 16, 0..2)), &[]),
                    task(3, drain(binding(1, 8, 0..2)), &[1]),
                ],
                Some("write-after-read: task #3 conflicts with task #2 on array 0"),
            ),
        ];
        let fillers = 100_000u32;
        let chain: Vec<TaskDesc> = (0..fillers)
            .map(|f| {
                let deps = if f == 0 { vec![] } else { vec![f - 1] };
                task(f, fill(binding(0, 0, 0..4)), &deps)
            })
            .collect();
        for (what, row, want) in rows {
            for filler in [0, fillers] {
                let mut tasks = chain[..filler as usize].to_vec();
                tasks.extend(row.iter().map(|t| {
                    let mut deps: Vec<TaskId> =
                        t.deps.iter().map(|d| TaskId(d.0 + filler)).collect();
                    if deps.is_empty() && filler > 0 {
                        deps.push(TaskId(filler - 1));
                    }
                    TaskDesc { id: TaskId(t.id.0 + filler), deps, ..t.clone() }
                }));
                let p = ScheduledProgram { tasks, srf_bytes: 32, n_strips: 1, strip_items: 4 };
                match (p.check(&graph), want) {
                    (Ok(_), None) => {}
                    (Err(e), Some(want)) => {
                        let want = (0..row.len()).fold(want.to_string(), |w, k| {
                            w.replace(&format!("#{k}"), &(k as u32 + filler).to_string())
                        });
                        assert!(e.starts_with(&want), "{what} ({filler} before): got {e}");
                    }
                    (got, _) => {
                        panic!("{what} ({filler} before): got {:?}, want {want:?}", got.err())
                    }
                }
            }
        }
    }

    /// The floors and the pruned search answer every reachability
    /// question as a transitive closure does, on random DAGs that mix
    /// short-range dependencies, long-range ones and phase barriers
    /// (a task that depends on every sink so far).
    #[test]
    fn dep_paths_answer_like_a_closure() {
        gpstream_util::check::run_cases("dep-paths-closure", 0x6a79_2005, 256, |rng| {
            let n = rng.range_usize_inclusive(1, 128);
            let mut tasks: Vec<TaskDesc> = Vec::with_capacity(n);
            let mut has_dependent = vec![false; n];
            for i in 0..n {
                let deps: Vec<u32> = if i > 0 && rng.bool_with(0.1) {
                    (0..i).filter(|&t| !has_dependent[t]).map(|t| t as u32).collect()
                } else {
                    (0..rng.below_usize(4))
                        .filter(|_| i > 0)
                        .map(|_| {
                            let lo = if rng.bool_with(0.8) { i.saturating_sub(6) } else { 0 };
                            rng.range_usize_inclusive(lo, i - 1) as u32
                        })
                        .collect()
                };
                for &d in &deps {
                    has_dependent[d as usize] = true;
                }
                tasks.push(task(i as u32, fill(binding(0, 0, 0..1)), &deps));
            }
            let mut closure = vec![0u128; n];
            for t in &tasks {
                let i = t.id.0 as usize;
                for d in &t.deps {
                    closure[i] |= closure[d.0 as usize] | 1 << d.0;
                }
            }
            let mut paths = DepPaths::new(&tasks);
            for later in 0..n {
                for earlier in 0..later {
                    let want = closure[later] >> earlier & 1 == 1;
                    assert_eq!(paths.reaches(later, earlier), want, "{later} -> {earlier}");
                }
                assert!(
                    (0..paths.settled[later] as usize)
                        .all(|e| (later..n).all(|j| closure[j] >> e & 1 == 1)),
                    "settled floor of {later} claims a missing path"
                );
            }
        });
    }
}
