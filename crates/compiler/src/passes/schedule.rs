//! Scheduling: phase partitioning, software-pipelined task generation
//! with double buffering, and dependency synthesis.
//!
//! Kernels connected by streams form a *pipeline component* and run
//! strip-by-strip, software pipelined: gathers are enqueued ahead of the
//! kernels that consume them and the previous strip's scatters (the
//! paper's memory queue executes out of order past a blocked scatter —
//! Figure 7's `tail_depend`; with in-order queues the same pipelining is
//! obtained by this enqueue order). Buffer-reuse (write-after-read)
//! dependencies tie strip `s` to strip `s - B` where `B` is the buffer
//! count.
//!
//! Components that *gather from an array another component scatters to*
//! (e.g. streamFEM's per-cell kernels reading the flux array the per-edge
//! kernel produced) are ordered into **phases** with a barrier between
//! them: the indexed gather may read any element, so every scatter of the
//! producing phase must complete first.
//!
//! Determining the dependencies is "a straightforward data-flow pass on
//! the SDF graph" (Section IV-A) — this module is that pass.

use crate::error::CompileError;
use crate::options::CompilerOptions;
use crate::passes::strip::{choose_strip_items, max_strip_elems, SRF_ALIGN};
use gpstream_core::graph::{KernelId, StreamGraph, StreamId};
use gpstream_core::hazard::{self, AccessIndex};
use gpstream_core::srf::SrfAllocator;
use gpstream_core::task::{
    CheckedProgram, PortBinding, ScheduledProgram, TaskDesc, TaskId, TaskKind,
};
use std::collections::HashMap;

/// One phase: a set of pipeline-connected kernels plus any copy-only
/// streams at the same level.
#[derive(Debug, Clone, Default)]
struct Phase {
    kernels: Vec<KernelId>,
    copy_streams: Vec<StreamId>,
}

/// Union-find over components. Iterative two-pass path compression: the
/// recursive form overflows the stack on deep producer chains in large
/// generated graphs.
fn find(parent: &mut [usize], x: usize) -> usize {
    let mut root = x;
    while parent[root] != root {
        root = parent[root];
    }
    let mut cur = x;
    while parent[cur] != root {
        let next = parent[cur];
        parent[cur] = root;
        cur = next;
    }
    root
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra] = rb;
    }
}

/// Streams touched by a phase (kernel ports plus copy-only streams).
fn streams_of_phase(graph: &StreamGraph, phase: &Phase) -> Vec<StreamId> {
    let mut out: Vec<StreamId> = Vec::new();
    for &k in &phase.kernels {
        let kd = graph.kernel(k);
        for &sid in kd.inputs.iter().chain(kd.outputs.iter()) {
            if !out.contains(&sid) {
                out.push(sid);
            }
        }
    }
    for &sid in &phase.copy_streams {
        if !out.contains(&sid) {
            out.push(sid);
        }
    }
    out
}

/// Partition the graph into barrier-separated phases.
fn partition_phases(graph: &StreamGraph) -> Vec<Phase> {
    let nk = graph.kernels().len();
    // Components: kernels 0..nk, copy-only streams nk..nk+ns.
    let ns = graph.streams().len();
    let mut parent: Vec<usize> = (0..nk + ns).collect();
    for (si, _) in graph.streams().iter().enumerate() {
        let sid = StreamId(si as u32);
        let producer = graph.producer_of(sid);
        let consumers = graph.consumers_of(sid);
        let mut members: Vec<usize> = Vec::new();
        if let Some(p) = producer {
            members.push(p.0 as usize);
        }
        members.extend(consumers.iter().map(|k| k.0 as usize));
        if members.is_empty() {
            members.push(nk + si); // copy-only stream is its own node
        }
        for w in members.windows(2) {
            union(&mut parent, w[0], w[1]);
        }
    }

    // The component that *writes* each array (via a scatter binding).
    let mut writer_of_array: HashMap<u32, Vec<usize>> = HashMap::new();
    for (si, decl) in graph.streams().iter().enumerate() {
        if let Some(dst) = &decl.dst {
            let sid = StreamId(si as u32);
            let comp = match graph.producer_of(sid) {
                Some(p) => find(&mut parent, p.0 as usize),
                None => find(&mut parent, nk + si),
            };
            writer_of_array.entry(dst.array.0).or_default().push(comp);
        }
    }

    // Array-RAW edges between components.
    let mut comp_ids: Vec<usize> = Vec::new();
    for k in 0..nk {
        comp_ids.push(find(&mut parent, k));
    }
    for (si, decl) in graph.streams().iter().enumerate() {
        if decl.src.is_some()
            && graph.producer_of(StreamId(si as u32)).is_none()
            && graph.consumers_of(StreamId(si as u32)).is_empty()
        {
            comp_ids.push(find(&mut parent, nk + si));
        }
    }
    comp_ids.sort_unstable();
    comp_ids.dedup();
    let comp_index: HashMap<usize, usize> =
        comp_ids.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let nc = comp_ids.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nc];
    let mut indeg = vec![0usize; nc];
    for (si, decl) in graph.streams().iter().enumerate() {
        let Some(src) = &decl.src else { continue };
        let sid = StreamId(si as u32);
        let reader_comp = {
            let consumers = graph.consumers_of(sid);
            let node = consumers.first().map_or(nk + si, |k| k.0 as usize);
            find(&mut parent, node)
        };
        let Some(&reader) = comp_index.get(&reader_comp) else { continue };
        if let Some(writers) = writer_of_array.get(&src.array.0) {
            for &w in writers {
                let Some(&writer) = comp_index.get(&w) else { continue };
                if writer != reader && !edges[writer].contains(&reader) {
                    edges[writer].push(reader);
                    indeg[reader] += 1;
                }
            }
        }
    }

    // Longest-path levels (Kahn).
    let mut level = vec![0usize; nc];
    let mut ready: Vec<usize> = (0..nc).filter(|&c| indeg[c] == 0).collect();
    let mut seen = 0usize;
    while let Some(c) = ready.pop() {
        seen += 1;
        for &n in &edges[c].clone() {
            level[n] = level[n].max(level[c] + 1);
            indeg[n] -= 1;
            if indeg[n] == 0 {
                ready.push(n);
            }
        }
    }
    // A cycle through memory (component writes an array another reads and
    // vice versa) collapses to one phase: fall back to a single phase.
    if seen != nc {
        let mut phase =
            Phase { kernels: (0..nk as u32).map(KernelId).collect(), copy_streams: Vec::new() };
        for (si, decl) in graph.streams().iter().enumerate() {
            let sid = StreamId(si as u32);
            if decl.src.is_some()
                && decl.dst.is_some()
                && graph.producer_of(sid).is_none()
                && graph.consumers_of(sid).is_empty()
            {
                phase.copy_streams.push(sid);
            }
        }
        return vec![phase];
    }

    let n_levels = level.iter().copied().max().unwrap_or(0) + 1;
    let mut phases = vec![Phase::default(); n_levels];
    for k in 0..nk {
        let c = comp_index[&find(&mut parent, k)];
        phases[level[c]].kernels.push(KernelId(k as u32));
    }
    for (si, decl) in graph.streams().iter().enumerate() {
        let sid = StreamId(si as u32);
        if decl.src.is_some()
            && decl.dst.is_some()
            && graph.producer_of(sid).is_none()
            && graph.consumers_of(sid).is_empty()
        {
            let c = comp_index[&find(&mut parent, nk + si)];
            phases[level[c]].copy_streams.push(sid);
        }
    }
    phases.retain(|p| !p.kernels.is_empty() || !p.copy_streams.is_empty());
    phases
}

/// Bookkeeping during task emission.
///
/// Out-of-order queues execute any task whose dependencies have cleared,
/// so nothing may rely on queue position: every ordering the program
/// needs — phase barriers, buffer reuse, array aliasing — is emitted as
/// an explicit dependency here and proven by the schedule checker
/// afterwards.
struct Emitter {
    tasks: Vec<TaskDesc>,
    gather_task: HashMap<(u32, u32), TaskId>,
    kernel_task: HashMap<(u32, u32), TaskId>,
    scatter_task: HashMap<(u32, u32), TaskId>,
    /// First task id of the current phase.
    phase_start: u32,
    /// Sink tasks (no dependents) of the previous phase; inherited as
    /// deps by every current-phase task without intra-phase deps.
    barrier: Vec<TaskId>,
    /// Whether task `i` has at least one dependent (for sink discovery).
    has_dependent: Vec<bool>,
    /// Array accesses of the current phase, for aliasing dependencies.
    accesses: AccessIndex,
    /// Strip buffers per stream: strip `s` reuses strip `s - bufs`'s.
    bufs: u32,
    nt_gather: bool,
    nt_scatter: bool,
    /// Scatters of kernel outputs (binding, strip, producing kernel),
    /// issued behind the next strip's gathers.
    pending: Vec<(PortBinding, u32, TaskId)>,
}

impl Emitter {
    fn push(
        &mut self,
        graph: &StreamGraph,
        kind: TaskKind,
        mut deps: Vec<TaskId>,
        strip: u32,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        // Array-aliasing hazards within the phase: a gather must follow
        // conflicting scatters (RAW), a scatter must follow conflicting
        // gathers and scatters (WAR/WAW).
        let acc = hazard::array_access(&kind, graph);
        if let Some(acc) = &acc {
            let conflicts = self.accesses.for_each_conflict(acc, graph, |t, _| {
                deps.push(TaskId(t as u32));
                Ok::<(), std::convert::Infallible>(())
            });
            let Ok(()) = conflicts;
        }
        // Phase barrier: a task with no intra-phase deps inherits the
        // previous phase's sink set, so every task transitively follows
        // the whole previous phase.
        if !deps.iter().any(|d| d.0 >= self.phase_start) {
            deps.extend(self.barrier.iter().copied());
        }
        deps.sort_unstable();
        deps.dedup();
        for d in &deps {
            self.has_dependent[d.0 as usize] = true;
        }
        self.has_dependent.push(false);
        if let Some(acc) = acc {
            self.accesses.push(id.0 as usize, acc);
        }
        self.tasks.push(TaskDesc { id, kind, deps, strip });
        id
    }

    /// Install a barrier: collect the finished phase's sinks (every other
    /// task of the phase is an ancestor of some sink) and start a new
    /// phase. Subsequent tasks without intra-phase deps depend on all
    /// sinks, which orders the phases without trusting queue order.
    fn barrier(&mut self) {
        let start = self.phase_start as usize;
        self.barrier = (start..self.tasks.len())
            .filter(|&i| !self.has_dependent[i])
            .map(|i| TaskId(i as u32))
            .collect();
        self.phase_start = self.tasks.len() as u32;
        self.accesses.clear();
    }

    /// Tasks that read stream `sid`'s strip-`s` buffer: its consuming
    /// kernels and its scatter.
    fn consumers_in_strip(&self, graph: &StreamGraph, sid: StreamId, s: u32) -> Vec<TaskId> {
        let mut deps: Vec<TaskId> = graph
            .consumers_of(sid)
            .iter()
            .filter_map(|k| self.kernel_task.get(&(k.0, s)).copied())
            .collect();
        deps.extend(self.scatter_task.get(&(sid.0, s)));
        deps
    }

    /// Gather strip `s` into binding `b`, whose buffer strip `s - bufs`
    /// used last: the gather follows that strip's consumers (WAR) and its
    /// gather (WAW, which covers strips whose consumers emitted no tasks).
    /// `None` when the strip is empty.
    fn gather(&mut self, graph: &StreamGraph, b: PortBinding, s: u32) -> Option<TaskId> {
        if b.is_empty() {
            return None;
        }
        let sid = b.stream;
        let mut deps = Vec::new();
        if let Some(prev) = s.checked_sub(self.bufs) {
            deps = self.consumers_in_strip(graph, sid, prev);
            deps.extend(self.gather_task.get(&(sid.0, prev)));
        }
        let id = self.push(graph, TaskKind::Gather { binding: b, nt: self.nt_gather }, deps, s);
        self.gather_task.insert((sid.0, s), id);
        Some(id)
    }

    /// Scatter strip `s` from binding `b` once task `dep` has filled it.
    fn scatter(&mut self, graph: &StreamGraph, b: PortBinding, s: u32, dep: TaskId) {
        let sid = b.stream;
        let id =
            self.push(graph, TaskKind::Scatter { binding: b, nt: self.nt_scatter }, vec![dep], s);
        self.scatter_task.insert((sid.0, s), id);
    }

    /// Issue the pending kernel-output scatters.
    fn flush_scatters(&mut self, graph: &StreamGraph) {
        for (b, s, dep) in std::mem::take(&mut self.pending) {
            self.scatter(graph, b, s, dep);
        }
    }
}

/// Lower a validated graph to a scheduled program, checked against it.
///
/// # Errors
///
/// Returns [`CompileError::SrfTooSmall`] if no strip size fits the SRF,
/// or [`CompileError::Empty`] for a graph with no streams.
#[allow(clippy::too_many_lines)]
pub fn schedule(
    graph: &StreamGraph,
    opts: &CompilerOptions,
) -> Result<CheckedProgram, CompileError> {
    if graph.streams().is_empty() {
        return Err(CompileError::Empty);
    }
    let strip_items = choose_strip_items(graph, opts).ok_or_else(|| {
        let needed: usize = graph
            .streams()
            .iter()
            .map(|s| {
                opts.buffers_per_stream()
                    * (max_strip_elems(s, 1) * s.elem_bytes).div_ceil(SRF_ALIGN)
                    * SRF_ALIGN
            })
            .sum();
        CompileError::SrfTooSmall { needed, capacity: opts.srf.capacity }
    })?;
    let bufs = opts.buffers_per_stream();
    let phases = partition_phases(graph);

    // Per-stream strip sizes in items, derived from each stream's own
    // phase (all streams of a phase complete in the same number of strips).
    let strips_for = |strip_items: usize| -> HashMap<u32, usize> {
        let mut m = HashMap::new();
        for phase in &phases {
            let streams = streams_of_phase(graph, phase);
            let pace = streams.iter().map(|&s| graph.stream(s).items).max().unwrap_or(1).max(1);
            let n_strips = pace.div_ceil(strip_items).max(1);
            for &sid in &streams {
                let items = graph.stream(sid).items;
                m.insert(sid.0, items.div_ceil(n_strips).max(1));
            }
        }
        m
    };
    let needed_bytes = |wmap: &HashMap<u32, usize>| -> usize {
        graph
            .streams()
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let w = wmap.get(&(si as u32)).copied().unwrap_or(1);
                let bytes = max_strip_elems(s, w) * s.elem_bytes;
                bufs * bytes.max(1).div_ceil(SRF_ALIGN) * SRF_ALIGN
            })
            .sum()
    };
    // Shrink the strip size until the phased working set fits (the strip
    // chooser's estimate uses a global pace and can be slightly off for
    // multi-phase graphs).
    let mut strip_items = strip_items;
    let mut wmap = strips_for(strip_items);
    while needed_bytes(&wmap) > opts.srf.capacity {
        if strip_items <= 1 {
            return Err(CompileError::SrfTooSmall {
                needed: needed_bytes(&wmap),
                capacity: opts.srf.capacity,
            });
        }
        strip_items = (strip_items / 2).max(1);
        wmap = strips_for(strip_items);
    }
    let strip_items = strip_items;
    let wmap = wmap;

    let mut alloc = SrfAllocator::new(opts.srf);
    let mut offsets: Vec<Vec<usize>> = Vec::with_capacity(graph.streams().len());
    for (si, s) in graph.streams().iter().enumerate() {
        let w = wmap.get(&(si as u32)).copied().unwrap_or(1);
        let bytes = max_strip_elems(s, w) * s.elem_bytes;
        let mut per_parity = Vec::with_capacity(bufs);
        for _ in 0..bufs {
            let off = alloc.alloc(bytes.max(1), SRF_ALIGN).map_err(|e| {
                CompileError::SrfTooSmall { needed: e.requested, capacity: opts.srf.capacity }
            })?;
            per_parity.push(off);
        }
        offsets.push(per_parity);
    }

    let topo = graph.topo_order().map_err(CompileError::Graph)?;
    let mut em = Emitter {
        tasks: Vec::new(),
        gather_task: HashMap::new(),
        kernel_task: HashMap::new(),
        scatter_task: HashMap::new(),
        phase_start: 0,
        barrier: Vec::new(),
        has_dependent: Vec::new(),
        accesses: AccessIndex::default(),
        bufs: bufs as u32,
        nt_gather: opts.nt_gather,
        nt_scatter: opts.nt_scatter,
        pending: Vec::new(),
    };
    let mut total_strips = 0u32;

    for (pi, phase) in phases.iter().enumerate() {
        if pi > 0 {
            em.barrier();
        }
        // Streams and pace local to this phase.
        let phase_kernels: Vec<KernelId> =
            topo.iter().copied().filter(|k| phase.kernels.contains(k)).collect();
        let phase_streams = streams_of_phase(graph, phase);
        let pace = phase_streams.iter().map(|&s| graph.stream(s).items).max().unwrap_or(1).max(1);
        let n_strips = (pace.div_ceil(strip_items).max(1)) as u32;
        total_strips += n_strips;

        let item_range = |sid: StreamId, s: u32| -> std::ops::Range<usize> {
            let decl = graph.stream(sid);
            // The same per-stream strip size the buffers were sized with.
            let w = wmap[&sid.0];
            let lo = (s as usize * w).min(decl.items);
            let hi = ((s as usize + 1) * w).min(decl.items);
            lo..hi
        };
        let binding_for = |sid: StreamId, s: u32| -> PortBinding {
            let decl = graph.stream(sid);
            let items = item_range(sid, s);
            let elems = decl.elems_for_items(items.start, items.end);
            PortBinding {
                stream: sid,
                srf_offset: offsets[sid.0 as usize][s as usize % bufs],
                elems,
                elem_bytes: decl.elem_bytes,
            }
        };
        for s in 0..n_strips {
            // Gathers for every array-bound stream consumed this strip.
            for &kid in &phase_kernels {
                for &sid in &graph.kernel(kid).inputs {
                    if graph.stream(sid).src.is_some() && !em.gather_task.contains_key(&(sid.0, s))
                    {
                        em.gather(graph, binding_for(sid, s), s);
                    }
                }
            }

            // Previous strip's scatters follow the gathers in the queue.
            em.flush_scatters(graph);

            // Kernels in dataflow order.
            for &kid in &phase_kernels {
                let kdecl = graph.kernel(kid);
                let first_port = kdecl
                    .inputs
                    .first()
                    .copied()
                    .or_else(|| kdecl.outputs.first().copied())
                    .expect("kernel with no ports");
                let items = item_range(first_port, s);
                if items.is_empty() {
                    continue;
                }
                let mut deps: Vec<TaskId> = Vec::new();
                for &sid in &kdecl.inputs {
                    if let Some(&g) = em.gather_task.get(&(sid.0, s)) {
                        deps.push(g);
                    }
                    if let Some(p) = graph.producer_of(sid) {
                        if let Some(&t) = em.kernel_task.get(&(p.0, s)) {
                            deps.push(t);
                        }
                    }
                }
                if let Some(prev) = s.checked_sub(em.bufs) {
                    for &sid in &kdecl.outputs {
                        deps.extend(em.consumers_in_strip(graph, sid, prev));
                    }
                    // Buffer WAW with this kernel's own earlier write of
                    // the parity buffer.
                    if let Some(&k) = em.kernel_task.get(&(kid.0, prev)) {
                        deps.push(k);
                    }
                }
                let kind = TaskKind::Kernel {
                    kernel: kid,
                    items: items.clone(),
                    inputs: kdecl.inputs.iter().map(|&sid| binding_for(sid, s)).collect(),
                    outputs: kdecl.outputs.iter().map(|&sid| binding_for(sid, s)).collect(),
                };
                let id = em.push(graph, kind, deps, s);
                em.kernel_task.insert((kid.0, s), id);

                for &sid in &kdecl.outputs {
                    let b = binding_for(sid, s);
                    if graph.stream(sid).dst.is_some() && !b.is_empty() {
                        em.pending.push((b, s, id));
                    }
                }
            }

            // Copy-only streams assigned to this phase.
            for &sid in &phase.copy_streams {
                let b = binding_for(sid, s);
                if let Some(g) = em.gather(graph, b.clone(), s) {
                    em.scatter(graph, b, s, g);
                }
            }
        }

        // Phase epilogue: final strip's scatters (must complete before the
        // next phase's barrier).
        em.flush_scatters(graph);
    }

    let program = ScheduledProgram {
        tasks: em.tasks,
        srf_bytes: alloc.used(),
        n_strips: total_strips,
        strip_items,
    };
    // Internal invariant: every ordering an out-of-order queue needs
    // must have been emitted as an explicit dependency above.
    Ok(program
        .check(graph)
        .unwrap_or_else(|e| unreachable!("scheduler produced inconsistent program: {e}")))
}
