//! Scheduling: phase partitioning, software-pipelined task generation
//! with double buffering, and dependency synthesis.
//!
//! Kernels connected by streams form a *pipeline component* and run
//! strip-by-strip, software pipelined: gathers are enqueued ahead of the
//! kernels that consume them and the previous strip's scatters (the
//! paper's memory queue executes out of order past a blocked scatter —
//! Figure 7's `tail_depend`; with in-order queues the same pipelining is
//! obtained by this enqueue order). Strip `s` of a stream uses buffer
//! `s mod B`, `B` the buffer count, so the SRF frontier of
//! [`gpstream_core::hazard`] ties strip `s` to strip `s - B`'s readers
//! and writer (buffer reuse) as it ties each reader to its writer
//! (dataflow).
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
use crate::passes::strip::{choose_strip_items, max_strip_elems, srf_bytes_for, SRF_ALIGN};
use gpstream_core::graph::{KernelId, StreamGraph, StreamId};
use gpstream_core::hazard::{self, AccessIndex, SrfFrontier};
use gpstream_core::srf::SrfAllocator;
use gpstream_core::task::{
    CheckedProgram, PortBinding, ScheduledProgram, TaskDesc, TaskId, TaskKind,
};
use std::collections::HashMap;
use std::convert::Infallible;

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
    let ports = phase
        .kernels
        .iter()
        .map(|&k| graph.kernel(k))
        .flat_map(|kd| kd.inputs.iter().chain(&kd.outputs));
    let mut out: Vec<StreamId> = Vec::new();
    for &sid in ports.chain(&phase.copy_streams) {
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
    for si in 0..ns {
        let sid = StreamId(si as u32);
        let members: Vec<usize> = graph
            .producer_of(sid)
            .iter()
            .chain(&graph.consumers_of(sid))
            .map(|k| k.0 as usize)
            .collect();
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
    let mut comp_ids: Vec<usize> = (0..nk).map(|k| find(&mut parent, k)).collect();
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
    // vice versa) collapses to one phase.
    if seen != nc {
        level.fill(0);
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
/// needs is emitted as an explicit dependency here and proven by the
/// schedule checker afterwards. The hazards come from [`hazard`], the
/// rules the checker proves: SRF dataflow and buffer reuse from an
/// [`SrfFrontier`] walked over whole strip buffers, array aliasing from
/// an [`AccessIndex`]. Only the phase barrier is a policy of its own.
struct Emitter {
    tasks: Vec<TaskDesc>,
    /// SRF bytes of each stream's strip buffers, indexed by stream.
    buffer_bytes: Vec<usize>,
    /// Every SRF access so far, each widened to its whole buffer.
    srf: SrfFrontier,
    /// First task id of the current phase.
    phase_start: u32,
    /// Sink tasks (no dependents) of the previous phase; inherited as
    /// deps by every current-phase task without intra-phase deps.
    barrier: Vec<TaskId>,
    /// Whether task `i` has at least one dependent (for sink discovery).
    has_dependent: Vec<bool>,
    /// Array accesses of the current phase, for aliasing dependencies.
    accesses: AccessIndex,
    nt_gather: bool,
    nt_scatter: bool,
    /// Scatters of kernel outputs (binding, strip), issued behind the
    /// next strip's gathers.
    pending: Vec<(PortBinding, u32)>,
}

impl Emitter {
    /// Emit `kind` with a dependency on every earlier task it conflicts
    /// with. Each SRF binding is widened to the buffer the allocator
    /// gave its stream: a byte-precise binding would add dependencies
    /// the buffer's own order already implies, and in-order lowering
    /// emits a wait for each.
    fn push(&mut self, graph: &StreamGraph, kind: TaskKind, strip: u32) {
        let id = TaskId(self.tasks.len() as u32);
        let mut deps = Vec::new();
        let mut dep = |t: usize, _: &'static str| {
            deps.push(TaskId(t as u32));
            Ok::<(), Infallible>(())
        };
        let buffer =
            |b: &PortBinding| b.srf_offset..b.srf_offset + self.buffer_bytes[b.stream.0 as usize];
        let (reads, writes) = kind.srf_ports();
        for (bindings, write) in [(reads, false), (writes, true)] {
            for b in bindings {
                let Ok(_) = self.srf.access(id.0 as usize, buffer(b), write, &mut dep);
            }
        }
        let acc = hazard::array_access(&kind, graph);
        if let Some(acc) = &acc {
            let Ok(()) = self.accesses.for_each_conflict(acc, graph, &mut dep);
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

    /// Gather strip `s` into binding `b`, unless the strip is empty.
    fn gather(&mut self, graph: &StreamGraph, b: PortBinding, s: u32) {
        if !b.is_empty() {
            self.push(graph, TaskKind::Gather { binding: b, nt: self.nt_gather }, s);
        }
    }

    /// Scatter strip `s` from binding `b`.
    fn scatter(&mut self, graph: &StreamGraph, b: PortBinding, s: u32) {
        self.push(graph, TaskKind::Scatter { binding: b, nt: self.nt_scatter }, s);
    }

    /// Issue the pending kernel-output scatters.
    fn flush_scatters(&mut self, graph: &StreamGraph) {
        for (b, s) in std::mem::take(&mut self.pending) {
            self.scatter(graph, b, s);
        }
    }
}

/// The strip sizes of a schedule at pacing strip `strip_items`: every
/// stream of a phase completes in the number of strips the phase's
/// longest stream needs (a stream in no phase gets one-item strips).
struct StripPlan {
    strip_items: usize,
    /// Strips of each phase.
    phase_strips: Vec<u32>,
    /// Items per strip of each stream, indexed by stream.
    stream_items: Vec<usize>,
    /// SRF bytes of one strip buffer of each stream, indexed by stream.
    buffer_bytes: Vec<usize>,
}

impl StripPlan {
    fn new(graph: &StreamGraph, phases: &[Phase], strip_items: usize) -> Self {
        let mut stream_items = vec![1; graph.streams().len()];
        let phase_strips = phases
            .iter()
            .map(|phase| {
                let streams = streams_of_phase(graph, phase);
                let pace = streams.iter().map(|&s| graph.stream(s).items).max().unwrap_or(1);
                let n_strips = pace.max(1).div_ceil(strip_items).max(1);
                for sid in streams {
                    stream_items[sid.0 as usize] =
                        graph.stream(sid).items.div_ceil(n_strips).max(1);
                }
                n_strips as u32
            })
            .collect();
        let buffer_bytes = graph
            .streams()
            .iter()
            .zip(&stream_items)
            .map(|(s, &w)| (max_strip_elems(s, w) * s.elem_bytes).max(1))
            .collect();
        StripPlan { strip_items, phase_strips, stream_items, buffer_bytes }
    }

    /// The strip plan `opts` asks for: a forced strip size is kept or
    /// refused, never shrunk. The heuristic size, which the strip chooser
    /// estimates with one global pace that a multi-phase graph can
    /// exceed, is halved until the phased working set fits.
    fn choose(
        graph: &StreamGraph,
        phases: &[Phase],
        opts: &CompilerOptions,
    ) -> Result<Self, CompileError> {
        let capacity = opts.srf.capacity;
        let mut strip_items = match opts.strip_items {
            Some(0) => return Err(CompileError::StripZero),
            Some(forced) => forced,
            None => choose_strip_items(graph, opts).ok_or_else(|| CompileError::SrfTooSmall {
                needed: srf_bytes_for(graph, 1, opts),
                capacity,
            })?,
        };
        loop {
            let plan = Self::new(graph, phases, strip_items);
            let needed: usize = plan
                .buffer_bytes
                .iter()
                .map(|b| opts.buffers_per_stream() * b.div_ceil(SRF_ALIGN) * SRF_ALIGN)
                .sum();
            match opts.strip_items {
                _ if needed <= capacity => return Ok(plan),
                Some(forced) => {
                    return Err(CompileError::StripTooLarge {
                        strip_items: forced,
                        needed,
                        capacity,
                    })
                }
                None if strip_items <= 1 => {
                    return Err(CompileError::SrfTooSmall { needed, capacity })
                }
                None => strip_items = (strip_items / 2).max(1),
            }
        }
    }
}

/// Whether [`schedule`] keeps the strip size `opts` forces on `graph`
/// (the typed error when it refuses it).
pub(crate) fn check_strip(graph: &StreamGraph, opts: &CompilerOptions) -> Result<(), CompileError> {
    StripPlan::choose(graph, &partition_phases(graph), opts).map(drop)
}

/// Lower a validated graph to a scheduled program, checked against it.
///
/// # Errors
///
/// Returns [`CompileError::SrfTooSmall`] if no strip size fits the SRF,
/// [`CompileError::StripZero`] or [`CompileError::StripTooLarge`] for a
/// forced strip size it cannot keep, or [`CompileError::Empty`] for a
/// graph with no streams.
pub fn schedule(
    graph: &StreamGraph,
    opts: &CompilerOptions,
) -> Result<CheckedProgram, CompileError> {
    if graph.streams().is_empty() {
        return Err(CompileError::Empty);
    }
    let bufs = opts.buffers_per_stream();
    let phases = partition_phases(graph);
    let plan = StripPlan::choose(graph, &phases, opts)?;

    let mut alloc = SrfAllocator::new(opts.srf);
    let mut offsets: Vec<Vec<usize>> = Vec::with_capacity(graph.streams().len());
    for &bytes in &plan.buffer_bytes {
        let mut per_parity = Vec::with_capacity(bufs);
        for _ in 0..bufs {
            let off = alloc.alloc(bytes, SRF_ALIGN).map_err(|e| CompileError::SrfTooSmall {
                needed: e.requested,
                capacity: opts.srf.capacity,
            })?;
            per_parity.push(off);
        }
        offsets.push(per_parity);
    }

    let topo = graph.topo_order().map_err(CompileError::Graph)?;
    let mut em = Emitter {
        tasks: Vec::new(),
        buffer_bytes: plan.buffer_bytes,
        srf: SrfFrontier::default(),
        phase_start: 0,
        barrier: Vec::new(),
        has_dependent: Vec::new(),
        accesses: AccessIndex::default(),
        nt_gather: opts.nt_gather,
        nt_scatter: opts.nt_scatter,
        pending: Vec::new(),
    };
    let stream_items = &plan.stream_items;

    for (pi, (phase, &n_strips)) in phases.iter().zip(&plan.phase_strips).enumerate() {
        if pi > 0 {
            em.barrier();
        }
        let phase_kernels: Vec<KernelId> =
            topo.iter().copied().filter(|k| phase.kernels.contains(k)).collect();
        // Array-bound streams the phase's kernels consume, each gathered
        // once per strip.
        let mut gathered: Vec<StreamId> = Vec::new();
        for &kid in &phase_kernels {
            for &sid in &graph.kernel(kid).inputs {
                if graph.stream(sid).src.is_some() && !gathered.contains(&sid) {
                    gathered.push(sid);
                }
            }
        }

        let item_range = |sid: StreamId, s: u32| -> std::ops::Range<usize> {
            let decl = graph.stream(sid);
            // The same per-stream strip size the buffers were sized with.
            let w = stream_items[sid.0 as usize];
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
            for &sid in &gathered {
                em.gather(graph, binding_for(sid, s), s);
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
                let kind = TaskKind::Kernel {
                    kernel: kid,
                    items,
                    inputs: kdecl.inputs.iter().map(|&sid| binding_for(sid, s)).collect(),
                    outputs: kdecl.outputs.iter().map(|&sid| binding_for(sid, s)).collect(),
                };
                em.push(graph, kind, s);

                for &sid in &kdecl.outputs {
                    let b = binding_for(sid, s);
                    if graph.stream(sid).dst.is_some() && !b.is_empty() {
                        em.pending.push((b, s));
                    }
                }
            }

            // Copy-only streams assigned to this phase.
            for &sid in &phase.copy_streams {
                let b = binding_for(sid, s);
                if !b.is_empty() {
                    em.gather(graph, b.clone(), s);
                    em.scatter(graph, b, s);
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
        n_strips: plan.phase_strips.iter().sum(),
        strip_items: plan.strip_items,
    };
    // Internal invariant: every ordering an out-of-order queue needs
    // must have been emitted as an explicit dependency above.
    Ok(program
        .check(graph)
        .unwrap_or_else(|e| unreachable!("scheduler produced inconsistent program: {e}")))
}
