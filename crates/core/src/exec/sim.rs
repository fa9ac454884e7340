//! Simulating executor: functional execution plus a timing run on the
//! simulated machine.
//!
//! The mapping follows the paper's two-context scheme (Section III-B-2):
//! one hardware context is dedicated to the bulk memory operations
//! (gathers and scatters), the other runs the computation kernels (the
//! control thread's enqueue work overlaps with the pipeline and is not
//! separately modeled).
//!
//! By default each queue issues *out of order* within a small window,
//! per the paper's Figure 7 `tail_depend` scheme: a blocked entry parks
//! and later entries whose dependencies have cleared may issue, so a
//! scatter waiting on a kernel no longer stalls the gathers queued
//! behind it. Cross-queue wake-ups pay the PAUSE / MWAIT dispatch
//! latency measured in the paper (175 / 680 cycles). The
//! [`SimExecutor::in_order`] toggle restores head-blocking queues
//! (same-queue dependencies free by order, cross-queue dependencies as
//! signal/wait pairs) for ablation; under [`Topology::single`] it is the
//! paper's fallback for processors without SMT (Section III-B-2): the
//! gather, kernel and scatter stages software-pipelined on one context,
//! so no cross-context dispatch is paid but nothing overlaps either.

use crate::exec::region::Region;
use crate::graph::{AccessKind, ArrayBinding, StreamGraph};
use crate::srf::{SrfBuffer, SrfConfig};
use crate::task::{CheckedProgram, PortBinding, ScheduledProgram, TaskId, TaskKind};
use crate::topology::Topology;
use crate::trace::{ExecEvent, ExecEventKind};
use crate::world::World;
use gpstream_machine::ops::{AccessPattern, BulkOp, CopyDir, OpClass, Rw, WaitPolicy};
use gpstream_machine::{
    ContextProgram, CounterSample, EngineStats, Machine, MachineConfig, MachineEventKind, MemStats,
    RunResult, StepMode, TaskNode,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Report from a simulated run.
#[derive(Clone)]
pub struct SimReport {
    /// Timing result from the machine model.
    pub timing: RunResult,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Cycle-stamped, task-attributed events of the timing run (present
    /// when [`SimExecutor::with_trace`] enabled tracing). Lane 0 is the
    /// compute context, lane 1 the memory context.
    pub trace: Option<Vec<ExecEvent>>,
    /// Per-task counter attribution and interval counter samples of the
    /// timing run (present when [`SimExecutor::with_profile`] enabled
    /// profiling).
    pub profile: Option<SimProfile>,
    /// The executed task DAG of the timing run: one record per issued
    /// work-queue entry with its start/end cycles and induced edges
    /// (present when [`SimExecutor::with_task_log`] enabled logging on
    /// an out-of-order mapping; the in-order view has no work queues to
    /// log).
    pub task_runs: Option<Vec<TaskRun>>,
    /// Events the machine's bounded trace sink dropped at capacity
    /// during the measured iteration (0 when tracing was off or nothing
    /// overflowed). A nonzero count means `trace` is truncated —
    /// consumers must surface it, not silently render a partial trace.
    pub trace_dropped: u64,
    /// See [`SimReport::engine_stats`].
    engine: EngineStats,
}

impl SimReport {
    /// How the engine retired the measured iteration's bulk work (fast
    /// routes versus the exact path, and why). Host-side: it describes
    /// the simulator, differs between step modes by design, and is
    /// therefore left out of the report's `Debug` text — the text the
    /// step-mode identity tests compare.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }
}

impl std::fmt::Debug for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimReport")
            .field("timing", &self.timing)
            .field("tasks", &self.tasks)
            .field("trace", &self.trace)
            .field("profile", &self.profile)
            .field("task_runs", &self.task_runs)
            .field("trace_dropped", &self.trace_dropped)
            .finish()
    }
}

/// Start/end cycles and induced-edge record of one executed task,
/// translated from the machine's task-issue log (queue indices mapped
/// back to schedule task ids). See `gpstream_machine::TaskIssue` for
/// field semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRun {
    /// The task.
    pub task: TaskId,
    /// Hardware context it ran on (0 = compute, 1 = memory).
    pub ctx: u8,
    /// Context-local cycle when the issuer picked the task.
    pub issue_t: u64,
    /// Cycle its dependencies had all been signaled (0 when none).
    pub ready_t: u64,
    /// The dependency whose completion signal gated issue, if any —
    /// the dependency edge the run actually waited on.
    pub wake: Option<TaskId>,
    /// Dequeue or wake-up dispatch cycles paid before the ops began.
    pub overhead: u64,
    /// Whether `overhead` was a wake-up dispatch (idle wait preceded).
    pub dispatch_paid: bool,
    /// Cycle the task's first op started.
    pub start: u64,
    /// Cycle the task's last op retired (its completion signal time).
    pub end: u64,
}

/// Cycles and counter deltas attributed to one task of the schedule by
/// the per-step machine profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskProfile {
    /// The task.
    pub task: TaskId,
    /// Hardware context it ran on (0 = compute, 1 = memory; under
    /// [`Topology::single`] everything runs on 0).
    pub ctx: u8,
    /// Cycles the context spent executing the task's ops (synchronization
    /// ops included; queue dispatch and idle waiting are not attributable
    /// to a single task and are reported in the run's phase breakdown).
    pub cycles: u64,
    /// Counter deltas accumulated while executing the task's ops.
    pub stats: MemStats,
}

/// Profile of one simulated run: per-task attribution plus the interval
/// sampler's cumulative counter time-series. Both are byte-deterministic
/// for a fixed program and machine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimProfile {
    /// Sampling interval in cycles.
    pub interval: u64,
    /// Per-task cycle and counter attribution, sorted by task id (tasks
    /// split across contexts never happen: each task runs on one context).
    pub tasks: Vec<TaskProfile>,
    /// Cumulative counter samples every `interval` cycles plus a final
    /// sample at end of run (so interval deltas sum to the run totals).
    pub samples: Vec<CounterSample>,
}

/// Per-context lowering: the op streams plus, per op, the task that
/// produced it (for trace attribution). One entry per topology context.
#[derive(Debug)]
struct Lowered {
    ops: Vec<Vec<BulkOp>>,
    owners: Vec<Vec<TaskId>>,
    /// The work-queue entries partitioning `ops`; `None` for the
    /// in-order view, whose streams carry their `Wait`/`Signal` ops
    /// inline.
    queues: Option<Vec<Vec<TaskNode>>>,
}

impl Lowered {
    /// One timing iteration of the lowered schedule on `machine`.
    fn run(&self, machine: &mut Machine, policy: WaitPolicy) -> RunResult {
        match &self.queues {
            Some(queues) => {
                let progs: Vec<ContextProgram> = self
                    .ops
                    .iter()
                    .zip(queues)
                    .map(|(ops, tasks)| ContextProgram { ops: ops.clone(), tasks: tasks.clone() })
                    .collect();
                machine.run_tasks(progs, policy, crate::workqueue::WINDOW)
            }
            None => machine.run(self.ops.clone()),
        }
    }
}

/// Executor that runs the program functionally and on the timing model.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    machine_cfg: MachineConfig,
    srf_cfg: SrfConfig,
    topology: Topology,
    wait_policy: WaitPolicy,
    warmup: bool,
    in_order: bool,
    trace: bool,
    profile: bool,
    task_log: bool,
    fast_sim: bool,
    sample_interval: u64,
}

/// Warmed engine state captured after the functional pass, lowering, and
/// (if configured) the warm-up timing iteration. Cloning the contained
/// machine and running only the measured iteration via
/// [`SimExecutor::resume_from`] yields a report byte-identical to
/// [`SimExecutor::run`] on the same executor. No caller shares one
/// snapshot between variants: each resumes its own, with the executor
/// that took it (the what-if replays do not simulate at all).
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    machine: Machine,
    lowered: Arc<Lowered>,
    task_ids: Arc<[TaskId]>,
    wait_policy: WaitPolicy,
    trace: bool,
    profile: bool,
    task_log: bool,
    sample_interval: u64,
}

/// Default interval (in cycles) between counter samples when profiling;
/// catalog-size runs land a few dozen to a few hundred samples.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 16_384;

impl Default for SimExecutor {
    fn default() -> Self {
        SimExecutor {
            machine_cfg: MachineConfig::prescott(),
            srf_cfg: SrfConfig::prescott(),
            topology: Topology::two_context(),
            wait_policy: WaitPolicy::Mwait,
            warmup: false,
            in_order: false,
            trace: false,
            profile: false,
            task_log: false,
            fast_sim: true,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
        }
    }
}

impl SimExecutor {
    /// An executor with the paper's machine and SRF configuration and the
    /// MONITOR/MWAIT wait policy the paper adopted.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the machine configuration.
    #[must_use]
    pub fn with_machine(mut self, cfg: MachineConfig) -> Self {
        self.machine_cfg = cfg;
        self
    }

    /// Override the SRF configuration.
    #[must_use]
    pub fn with_srf(mut self, cfg: SrfConfig) -> Self {
        self.srf_cfg = cfg;
        self
    }

    /// Override the queue topology — how task classes map onto hardware
    /// contexts. The default is the paper's [`Topology::two_context`]
    /// split (context 0 computes, context 1 moves memory); wider
    /// topologies farm each class round-robin across its contexts. The
    /// timing machine is widened to at least `topology.contexts()`
    /// contexts.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Override the inter-context wait policy.
    #[must_use]
    pub fn with_wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.wait_policy = policy;
        self
    }

    /// Apply a tuned knob vector: wait policy, issue order and the
    /// software-prefetch depth of the bulk copy loops. Call *after*
    /// [`SimExecutor::with_machine`] — the prefetch-depth override is
    /// applied to the machine configuration in effect at this point.
    /// (The compiler-side knobs of the same
    /// [`TunedConfig`](crate::tuned::TunedConfig) are consumed
    /// by `CompilerOptions::apply_tuned` in `gpstream-compiler`.)
    #[must_use]
    pub fn with_tuned(mut self, tuned: &crate::tuned::TunedConfig) -> Self {
        self.machine_cfg = tuned.machine_config(&self.machine_cfg);
        self.wait_policy = tuned.wait_policy;
        self.in_order = tuned.in_order;
        self
    }

    /// Measure a warm steady-state iteration: the timing pass runs once to
    /// warm caches and TLBs, resets the clocks, and runs again — like the
    /// paper's applications, which iterate for "several hundred time
    /// steps".
    #[must_use]
    pub fn with_warmup(mut self, warmup: bool) -> Self {
        self.warmup = warmup;
        self
    }

    /// Force head-blocking work queues: each context executes its queue
    /// strictly in order, waiting at the head (the pre-`tail_depend`
    /// behaviour, kept as an ablation baseline). Default is `false`:
    /// out-of-order issue within a [`crate::workqueue::WINDOW`]-entry
    /// window, per the paper's Figure 7. With [`Topology::single`] this
    /// is the paper's single-context mapping (Section III-B-2).
    #[must_use]
    pub fn in_order(mut self, in_order: bool) -> Self {
        self.in_order = in_order;
        self
    }

    /// Record cycle-stamped events during the timing run; the report's
    /// `trace` field carries them (attributed to tasks) for the Chrome
    /// exporter in [`crate::trace`]. When a warm-up run is configured,
    /// only the measured iteration is traced.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Attribute cycles and counters per task and record the interval
    /// counter time-series during the timing run; the report's `profile`
    /// field carries both. When a warm-up run is configured, only the
    /// measured iteration is profiled. Profiling reads counters without
    /// touching the model, so timing is identical with it on or off.
    #[must_use]
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Record the executed task DAG during the timing run: one
    /// [`TaskRun`] per issued work-queue entry, in issue order, in the
    /// report's `task_runs` field. Only out-of-order issue has work
    /// queues to log — the in-order view leaves `task_runs` as `None`.
    /// When a
    /// warm-up run is configured, only the measured iteration is logged.
    /// Logging reads issue-time state without touching the model, so
    /// timing is identical with it on or off.
    #[must_use]
    pub fn with_task_log(mut self, on: bool) -> Self {
        self.task_log = on;
        self
    }

    /// Select the engine of the timing pass: `true` (the default) is the
    /// event engine ([`StepMode::Event`]), `false` the cycle-stepped
    /// reference ([`StepMode::Stepped`]) the event engine is checked
    /// against. Results are byte-identical either way (the differential
    /// suite in `tests/differential.rs` asserts this across the workload
    /// catalog); only wall-clock time changes, so only the identity
    /// tests and the benchmark pass `false`.
    #[must_use]
    pub fn fast_sim(mut self, on: bool) -> Self {
        self.fast_sim = on;
        self
    }

    /// Override the interval (in cycles) between counter samples taken
    /// while profiling.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_sample_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        self.sample_interval = interval;
        self
    }

    /// The machine configuration in use.
    #[must_use]
    pub fn machine_config(&self) -> &MachineConfig {
        &self.machine_cfg
    }

    /// Execute `program`: array results land in `world`, and the returned
    /// report carries the cycle count of the two-context timing run.
    ///
    /// # Panics
    ///
    /// Panics if `program` was checked against a graph other than
    /// `graph` (a clone of it is the same graph), if `world` does not
    /// hold the arrays `graph` binds with room for each binding, or if
    /// the program needs more SRF bytes than the executor's SRF
    /// configuration holds.
    pub fn run(
        &self,
        program: &CheckedProgram,
        graph: &StreamGraph,
        world: &mut World,
    ) -> SimReport {
        let snap = self.snapshot(program, graph, world);
        self.resume_from(&snap)
    }

    /// Run the functional pass, lower the schedule, and (when a warm-up
    /// is configured) run the warm-up timing iteration, capturing the
    /// warmed engine just before the measured iteration. Array results
    /// land in `world` exactly as with [`SimExecutor::run`].
    ///
    /// # Panics
    ///
    /// Panics if `program` was checked against a graph other than
    /// `graph` (a clone of it is the same graph), if `world` does not
    /// hold the arrays `graph` binds with room for each binding, or if
    /// the program needs more SRF bytes than the executor's SRF
    /// configuration holds.
    pub fn snapshot(
        &self,
        program: &CheckedProgram,
        graph: &StreamGraph,
        world: &mut World,
    ) -> SimSnapshot {
        // Functional pass (same semantics as the reference executor).
        let mut srf = SrfBuffer::new(self.srf_cfg);
        let region = Region::new(program, graph, world, &mut srf);
        for task in &program.tasks {
            region.execute_task(task.id);
        }
        drop(region);

        // Timing-pass setup. The machine must have a context per topology
        // queue; with the default two-context topology this leaves the
        // configured machine untouched.
        let mut machine_cfg = self.machine_cfg.clone();
        machine_cfg.contexts = machine_cfg.contexts.max(self.topology.contexts());
        let mut machine = Machine::new(machine_cfg);
        machine.install_srf(self.srf_cfg.range());
        machine.set_step_mode(if self.fast_sim { StepMode::Event } else { StepMode::Stepped });
        if self.trace {
            machine.enable_trace();
        }
        if self.profile {
            machine.enable_profile(self.sample_interval);
        }
        let task_log = self.task_log && !self.in_order;
        if task_log {
            machine.enable_task_log();
        }
        let lowered = self.lower(program, graph, world);
        if self.warmup {
            let _ = lowered.run(&mut machine, self.wait_policy);
            machine.reset_time(); // also drops the warm-up's trace events
        }
        SimSnapshot {
            machine,
            lowered: Arc::new(lowered),
            task_ids: program.tasks.iter().map(|t| t.id).collect(),
            wait_policy: self.wait_policy,
            trace: self.trace,
            profile: self.profile,
            task_log,
            sample_interval: self.sample_interval,
        }
    }

    /// Run the measured timing iteration from a warmed snapshot. The
    /// snapshot is not consumed — its machine state is cloned — so
    /// resuming it again replays the same iteration. `self.run(..)` and
    /// `self.resume_from(&self.snapshot(..))` produce byte-identical
    /// reports.
    #[must_use]
    pub fn resume_from(&self, snap: &SimSnapshot) -> SimReport {
        let mut machine = snap.machine.clone();
        let lowered = &*snap.lowered;
        let timing = lowered.run(&mut machine, snap.wait_policy);
        let trace =
            snap.trace.then(|| attribute_events(machine.take_trace(), lowered, &snap.task_ids));
        let trace_dropped = machine.trace_dropped();
        let profile = snap.profile.then(|| SimProfile {
            interval: snap.sample_interval,
            tasks: attribute_profile(machine.take_profile(), lowered),
            samples: machine.take_samples(),
        });
        let task_runs = snap.task_log.then(|| {
            machine
                .take_task_log()
                .into_iter()
                .map(|rec| TaskRun {
                    task: lowered.owners[rec.ctx as usize][rec.queue_index as usize],
                    ctx: rec.ctx,
                    issue_t: rec.issue_t,
                    ready_t: rec.ready_t,
                    // Signal ids on the task-form lowering *are* task ids.
                    wake: rec.wake.map(TaskId),
                    overhead: rec.overhead,
                    dispatch_paid: rec.dispatch_paid,
                    start: rec.start_t,
                    end: rec.end_t,
                })
                .collect()
        });
        SimReport {
            timing,
            tasks: snap.task_ids.len(),
            trace,
            profile,
            task_runs,
            trace_dropped,
            engine: machine.engine_stats(),
        }
    }

    /// The single machine-level bulk op a task lowers to.
    fn task_op(&self, kind: &TaskKind, graph: &StreamGraph, world: &World) -> BulkOp {
        match kind {
            TaskKind::Gather { binding, nt } | TaskKind::Scatter { binding, nt } => {
                let gather = matches!(kind, TaskKind::Gather { .. });
                let decl = graph.stream(binding.stream);
                // The schedule check refuses a gather whose stream reads
                // no array and a scatter whose stream writes none; such a
                // copy would move nothing.
                let side = if gather { &decl.src } else { &decl.dst };
                let mem =
                    side.as_ref().map_or(AccessPattern::Seq { base: 0, elem: 0, count: 0 }, |ab| {
                        self.mem_pattern(binding, ab, world)
                    });
                BulkOp::Copy {
                    mem,
                    srf_base: self.srf_cfg.base + binding.srf_offset as u64,
                    dir: if gather { CopyDir::GatherToSrf } else { CopyDir::ScatterFromSrf },
                    nt: *nt,
                }
            }
            TaskKind::Kernel { kernel, items, inputs, outputs } => {
                let decl = graph.kernel(*kernel);
                let n_items = (items.end - items.start).max(1);
                let mut patterns = Vec::new();
                for (b, rw) in inputs
                    .iter()
                    .map(|b| (b, Rw::Read))
                    .chain(outputs.iter().map(|b| (b, Rw::Write)))
                {
                    let total = b.len() * graph.stream(b.stream).elem_bytes;
                    let per_item = total.div_ceil(n_items).max(1);
                    patterns.push((
                        AccessPattern::Seq {
                            base: self.srf_cfg.base + b.srf_offset as u64,
                            elem: per_item as u64,
                            count: n_items as u64,
                        },
                        rw,
                    ));
                }
                BulkOp::Loop {
                    patterns,
                    uops_per_iter: decl.uops_per_item as u64,
                    class: OpClass::Compute,
                }
            }
        }
    }

    /// Lower the schedule — the one walk over it. Each task lands on the
    /// context the topology assigns it (under the default two-context
    /// topology, the paper's kind split: kernels on 0, gathers/scatters
    /// on 1) as one work-queue entry carrying *all* of its dependencies
    /// (the out-of-order issuer gets nothing for free from queue order),
    /// a completion signal if anything depends on it, and a
    /// `feeds_partner` hint when a cross-context task does.
    ///
    /// The in-order mapping is a view of those queues: each entry, in
    /// queue order, becomes one `Wait` per dependency on another context
    /// (same-queue order is free), its op, and a `Signal` exactly when it
    /// feeds another context. Under [`Topology::single`] nothing crosses
    /// contexts, so the view is the schedule's ops in task order.
    fn lower(&self, program: &ScheduledProgram, graph: &StreamGraph, world: &World) -> Lowered {
        let assignment = self.topology.assign(&program.tasks);
        let n = program.tasks.len();
        let mut has_dependent = vec![false; n];
        let mut feeds_partner = vec![false; n];
        for t in &program.tasks {
            for d in &t.deps {
                has_dependent[d.0 as usize] = true;
                if assignment[d.0 as usize] != assignment[t.id.0 as usize] {
                    feeds_partner[d.0 as usize] = true;
                }
            }
        }

        let nctx = self.topology.contexts();
        let mut ops: Vec<Vec<BulkOp>> = vec![Vec::new(); nctx];
        let mut queues: Vec<Vec<TaskNode>> = vec![Vec::new(); nctx];
        let mut owners: Vec<Vec<TaskId>> = vec![Vec::new(); nctx];
        for t in &program.tasks {
            let (c, i) = (assignment[t.id.0 as usize], t.id.0 as usize);
            let start = ops[c].len();
            ops[c].push(self.task_op(&t.kind, graph, world));
            owners[c].push(t.id);
            queues[c].push(TaskNode {
                ops: start..ops[c].len(),
                deps: t.deps.iter().map(|d| d.0).collect(),
                signal: has_dependent[i].then_some(t.id.0),
                feeds_partner: feeds_partner[i],
            });
        }
        if !self.in_order {
            return Lowered { ops, owners, queues: Some(queues) };
        }

        let mut flat: Vec<Vec<BulkOp>> = vec![Vec::new(); nctx];
        let mut flat_owners: Vec<Vec<TaskId>> = vec![Vec::new(); nctx];
        for (c, ((ops, queue), owners)) in ops.into_iter().zip(&queues).zip(&owners).enumerate() {
            let (flat, flat_owners) = (&mut flat[c], &mut flat_owners[c]);
            let mut ops = ops.into_iter();
            for (node, &task) in queue.iter().zip(owners) {
                let before = flat.len();
                flat.extend(
                    node.deps
                        .iter()
                        .filter(|&&d| assignment[d as usize] != c)
                        .map(|&d| BulkOp::Wait { id: d, policy: self.wait_policy }),
                );
                flat.extend(ops.by_ref().take(node.ops.len()));
                if node.feeds_partner {
                    flat.push(BulkOp::Signal { id: task.0 });
                }
                flat_owners.extend(std::iter::repeat_n(task, flat.len() - before));
            }
        }
        Lowered { ops: flat, owners: flat_owners, queues: None }
    }

    /// Build the machine-level access pattern of a gather or scatter
    /// binding over `ab`, the array side of its stream it copies.
    fn mem_pattern(
        &self,
        binding: &PortBinding,
        ab: &ArrayBinding,
        world: &World,
    ) -> AccessPattern {
        let arr = world.array(ab.array);
        let record = arr.record_bytes as u64;
        let start = binding.elems.start;
        let count = binding.len() as u64;
        match &ab.access {
            AccessKind::Sequential => {
                if ab.field_bytes == arr.record_bytes {
                    AccessPattern::Seq {
                        base: arr.base + start as u64 * record,
                        elem: record,
                        count,
                    }
                } else {
                    AccessPattern::Strided {
                        base: arr.base + start as u64 * record,
                        record,
                        field_offset: ab.field_offset as u64,
                        field_bytes: ab.field_bytes as u64,
                        count,
                    }
                }
            }
            AccessKind::Indexed(idx) => {
                let slice: Arc<[u32]> = idx[binding.elems.clone()].to_vec().into();
                AccessPattern::Indexed {
                    base: arr.base,
                    record,
                    field_offset: ab.field_offset as u64,
                    field_bytes: ab.field_bytes as u64,
                    indices: slice,
                }
            }
        }
    }
}

/// Fold the machine's per-(ctx, op) profile into per-task attribution
/// via the lowering's op → owner map. A task may own several ops (its
/// bulk op plus synchronization ops in the in-order view); their cycles
/// and counter deltas merge. Output is sorted by task id.
fn attribute_profile(ops: Vec<gpstream_machine::OpProfile>, lowered: &Lowered) -> Vec<TaskProfile> {
    let mut by_task: std::collections::BTreeMap<(u32, u8), (u64, MemStats)> =
        std::collections::BTreeMap::new();
    for p in ops {
        let Some(&task) = lowered.owners.get(p.ctx as usize).and_then(|o| o.get(p.op as usize))
        else {
            continue;
        };
        let slot = by_task.entry((task.0, p.ctx)).or_insert((0, MemStats::default()));
        slot.0 += p.cycles;
        slot.1.accumulate(&p.stats);
    }
    by_task
        .into_iter()
        .map(|((task, ctx), (cycles, stats))| TaskProfile {
            task: TaskId(task),
            ctx,
            cycles,
            stats,
        })
        .collect()
}

/// Translate the machine's cycle-stamped events into task-attributed
/// executor events.
///
/// Synchronization ops map to queue-shaped events rather than slices: a
/// `Wait` op's start becomes a dependency-mask wait instant, the engine's
/// wakeup becomes the resume, and `Signal` ops vanish (their cost is
/// folded into the preceding op). Each task additionally gets an
/// `Enqueue` instant at cycle 0 — the control thread's enqueue work
/// overlaps the pipeline and is not separately timed — and a `Ready`
/// instant when its first real op starts.
fn attribute_events(
    events: Vec<gpstream_machine::MachineEvent>,
    lowered: &Lowered,
    task_ids: &[TaskId],
) -> Vec<ExecEvent> {
    let mut out: Vec<ExecEvent> = Vec::with_capacity(events.len() + task_ids.len());
    for (c, owners) in lowered.owners.iter().enumerate() {
        if owners.is_empty() {
            continue;
        }
        let owned: HashSet<TaskId> = owners.iter().copied().collect();
        for id in task_ids {
            if owned.contains(id) {
                out.push(ExecEvent {
                    ts: 0,
                    who: c as u8,
                    task: Some(*id),
                    kind: ExecEventKind::Enqueue,
                });
            }
        }
    }
    let mut started: HashSet<TaskId> = HashSet::new();
    for e in events {
        let ctx = e.ctx as usize;
        let (op_idx, starting) = match e.kind {
            MachineEventKind::OpStart { op } => (Some(op as usize), true),
            MachineEventKind::OpRetire { op } => (Some(op as usize), false),
            _ => (None, false),
        };
        if let Some(i) = op_idx {
            let Some(&task) = lowered.owners.get(ctx).and_then(|o| o.get(i)) else { continue };
            let kind = match &lowered.ops[ctx][i] {
                BulkOp::Signal { .. } => continue,
                BulkOp::Wait { id, .. } => {
                    if !starting {
                        continue; // waits "retire" at wait entry; skip
                    }
                    ExecEventKind::DepWait { mask: 1u64 << (id % 64) }
                }
                _ if starting => {
                    if started.insert(task) {
                        out.push(ExecEvent {
                            ts: e.t,
                            who: e.ctx,
                            task: Some(task),
                            kind: ExecEventKind::Ready,
                        });
                    }
                    ExecEventKind::Start
                }
                _ => ExecEventKind::Finish,
            };
            out.push(ExecEvent { ts: e.t, who: e.ctx, task: Some(task), kind });
            continue;
        }
        let kind = match e.kind {
            MachineEventKind::BusGrant { bytes, queued } => ExecEventKind::Bus { bytes, queued },
            MachineEventKind::Wakeup { dispatch, .. } => ExecEventKind::Wakeup { dispatch },
            MachineEventKind::PrefetchCover { sw } => ExecEventKind::PrefetchCover { sw },
            MachineEventKind::TlbWalk { cycles } => ExecEventKind::TlbWalk { cycles },
            MachineEventKind::WcFlush => ExecEventKind::WcFlush,
            MachineEventKind::OpStart { .. } | MachineEventKind::OpRetire { .. } => {
                unreachable!("handled above")
            }
        };
        out.push(ExecEvent { ts: e.t, who: e.ctx, task: None, kind });
    }
    out.sort_by_key(|e| e.ts);
    out
}
