//! The analytical run model: the executed task DAG with per-task costs,
//! rebuilt from the simulator's task-issue log, plus an exact replay of
//! the engine's issue arithmetic.
//!
//! The replay is the analyzer's workhorse: identity replay (recorded
//! costs, recorded overhead constants) reproduces the recorded start and
//! end cycle of every task *exactly* — per context, issue order equals
//! completion order and the engine advances one task at a time, so the
//! recorded times satisfy the same recurrence the replay computes. Every
//! other question the analyzer answers (critical path, slack, what-if
//! speedups) is a replay with something changed.

use gpstream_core::exec::sim::SimReport;
use gpstream_core::task::{ScheduledProgram, TaskId, TaskKind};
use gpstream_core::StreamGraph;
use gpstream_machine::{MachineConfig, WaitPolicy};
use gpstream_profile::labels::task_class_and_label;

/// One task of the executed DAG.
#[derive(Debug, Clone)]
pub struct ModelTask {
    /// Task id in the scheduled program.
    pub id: TaskId,
    /// Hardware context it ran on (0 = compute, 1 = memory).
    pub ctx: u8,
    /// Op class (`"gather"`, `"scatter"`, `"kernel kN name"`).
    pub class: String,
    /// Display label (shared vocabulary with the profiler's reports).
    pub label: String,
    /// Bulk memory operation (gather/scatter) vs kernel.
    pub is_memory: bool,
    /// Kernel name, for kernel-targeted what-if scenarios.
    pub kernel: Option<String>,
    /// Dependencies, as indices into [`RunModel::tasks`].
    pub deps: Vec<usize>,
    /// Per-dependency flag: the dependency is a scatter this gather
    /// waits on only because they reuse the same SRF space (the
    /// scheduler's WAR buffer-reuse edge), not because data flows.
    pub srf_reuse_dep: Vec<bool>,
    /// Cycles the task's ops took (end − start; excludes issue overhead).
    pub cost: u64,
    /// Bus-busy cycles attributed to this task (per-task counter delta).
    pub bus: u64,
    /// TLB-walk cycles attributed to this task.
    pub walk: u64,
    /// Recorded start cycle (after issue overhead).
    pub start: u64,
    /// Recorded end cycle (completion signal time).
    pub end: u64,
    /// Recorded issue overhead (dequeue or wake-up dispatch).
    pub overhead: u64,
    /// Whether the recorded overhead was a wake-up dispatch.
    pub dispatch_paid: bool,
}

/// Times computed by one replay of the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Start cycle per task (model index order).
    pub start: Vec<u64>,
    /// End cycle per task.
    pub end: Vec<u64>,
    /// When the last context retired its last task.
    pub makespan: u64,
}

/// The executed task DAG of one simulated run.
#[derive(Debug, Clone)]
pub struct RunModel {
    /// Every executed task. Indices into this vector are the model's
    /// task handles.
    pub tasks: Vec<ModelTask>,
    /// Per-context issue order (== completion order) as model indices.
    pub ctx_order: [Vec<usize>; 2],
    /// Bus-drain tail: recorded run cycles minus the last task's end.
    pub drain: u64,
    /// Recorded total run cycles (max context end + drain).
    pub cycles: u64,
    /// Queue-dequeue overhead constant the run paid per ready issue.
    pub dequeue: u64,
    /// Wake-up dispatch overhead constant the run paid per idle wake.
    pub dispatch: u64,
    /// The worst SMT compute-rate factor any partner activity can
    /// impose (min over the config's compute-side factors). Recorded
    /// kernel cycles ran at *some* blend of these rates; multiplying by
    /// this floor credits them all the way back to (at or below) their
    /// uncontended cost, which is what the what-if scenarios that idle
    /// the partner context need for a sound upper bound.
    pub comp_floor: f64,
}

/// Byte range a task occupies in the SRF, for WAR buffer-reuse edge
/// classification. Kernels return the union-span of their bindings.
fn srf_range(kind: &TaskKind) -> (u64, u64) {
    let of = |b: &gpstream_core::task::PortBinding| {
        let lo = b.srf_offset as u64;
        (lo, lo + (b.len() * b.elem_bytes) as u64)
    };
    match kind {
        TaskKind::Gather { binding, .. } | TaskKind::Scatter { binding, .. } => of(binding),
        TaskKind::Kernel { inputs, outputs, .. } => {
            let mut lo = u64::MAX;
            let mut hi = 0;
            for b in inputs.iter().chain(outputs) {
                let (l, h) = of(b);
                lo = lo.min(l);
                hi = hi.max(h);
            }
            (lo.min(hi), hi)
        }
    }
}

impl RunModel {
    /// Build the model from a run's schedule and report. The report must
    /// carry both the task-issue log ([`SimReport::task_runs`]) and the
    /// per-task profile (for bus/walk attribution). `cfg` and `wait`
    /// must be the configuration the run used — they supply the
    /// overhead constants the replay re-applies.
    ///
    /// # Panics
    ///
    /// Panics if the report has no task log (the run was in-order, or
    /// logging was off).
    #[must_use]
    pub fn build(
        program: &ScheduledProgram,
        graph: &StreamGraph,
        report: &SimReport,
        cfg: &MachineConfig,
        wait: WaitPolicy,
    ) -> RunModel {
        let dispatch = match wait {
            WaitPolicy::SpinPause => cfg.wait.pause_dispatch,
            WaitPolicy::Mwait => cfg.wait.mwait_dispatch,
            WaitPolicy::OsBlock => cfg.wait.os_dispatch,
        };
        let runs = report.task_runs.as_ref().expect("run was recorded with task logging");
        // Per-task bus/walk attribution, when profiling was on.
        let mut bus_walk = vec![(0u64, 0u64); program.tasks.len()];
        if let Some(prof) = &report.profile {
            for tp in &prof.tasks {
                bus_walk[tp.task.0 as usize] = (tp.stats.bus_busy_cycles, tp.stats.walk_cycles);
            }
        }
        let mut index_of = vec![usize::MAX; program.tasks.len()];
        for (i, r) in runs.iter().enumerate() {
            index_of[r.task.0 as usize] = i;
        }
        let mut tasks = Vec::with_capacity(runs.len());
        let mut ctx_order: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (i, r) in runs.iter().enumerate() {
            let desc = &program.tasks[r.task.0 as usize];
            let (class, label) = task_class_and_label(&desc.kind, graph);
            let (my_lo, my_hi) = srf_range(&desc.kind);
            let deps: Vec<usize> = desc.deps.iter().map(|d| index_of[d.0 as usize]).collect();
            let srf_reuse_dep = desc
                .deps
                .iter()
                .map(|d| {
                    let dep_kind = &program.tasks[d.0 as usize].kind;
                    let war = matches!(dep_kind, TaskKind::Scatter { .. })
                        && matches!(desc.kind, TaskKind::Gather { .. });
                    if !war {
                        return false;
                    }
                    let (lo, hi) = srf_range(dep_kind);
                    lo < my_hi && my_lo < hi
                })
                .collect();
            let kernel = match &desc.kind {
                TaskKind::Kernel { kernel, .. } => Some(graph.kernel(*kernel).name.clone()),
                _ => None,
            };
            let (bus, walk) = bus_walk[r.task.0 as usize];
            ctx_order[r.ctx as usize].push(i);
            tasks.push(ModelTask {
                id: r.task,
                ctx: r.ctx,
                class,
                label,
                is_memory: desc.kind.is_memory(),
                kernel,
                deps,
                srf_reuse_dep,
                cost: r.end - r.start,
                bus,
                walk,
                start: r.start,
                end: r.end,
                overhead: r.overhead,
                dispatch_paid: r.dispatch_paid,
            });
        }
        let last_end = tasks.iter().map(|t| t.end).max().unwrap_or(0);
        RunModel {
            tasks,
            ctx_order,
            drain: report.timing.cycles - last_end,
            cycles: report.timing.cycles,
            dequeue: gpstream_machine::DEQUEUE_CYCLES,
            dispatch,
            comp_floor: cfg
                .smt
                .factors
                .comp_vs_comp
                .min(cfg.smt.factors.comp_vs_mem)
                .min(cfg.smt.factors.comp_vs_pause),
        }
    }

    /// The recorded per-task costs (replaying these must reproduce the
    /// recorded times exactly).
    #[must_use]
    pub fn recorded_costs(&self) -> Vec<u64> {
        self.tasks.iter().map(|t| t.cost).collect()
    }

    /// Replay the engine's issue arithmetic over the fixed DAG and
    /// per-context issue order with the given per-task costs and
    /// overhead constants. Per task:
    ///
    /// - `ready` = max end of its dependencies (0 when none);
    /// - no dependencies → `start` = context cursor, no overhead;
    /// - cursor ≥ `ready` → `start` = cursor + `dequeue`;
    /// - cursor < `ready` → idle wait, `start` = `ready` + `dispatch`;
    /// - `end` = `start` + cost; cursor = `end`.
    ///
    /// # Panics
    ///
    /// Panics if `costs` has the wrong length or the model's dependency
    /// structure is inconsistent with its issue order (cannot happen for
    /// a model built from a recorded run).
    #[must_use]
    pub fn replay(&self, costs: &[u64], dequeue: u64, dispatch: u64) -> Replay {
        assert_eq!(costs.len(), self.tasks.len(), "one cost per task");
        let n = self.tasks.len();
        let mut start = vec![0u64; n];
        let mut end = vec![0u64; n];
        let mut done = vec![false; n];
        let mut cursor = [0u64; 2];
        let mut pos = [0usize; 2];
        let mut remaining = n;
        while remaining > 0 {
            let mut progressed = false;
            for c in 0..2 {
                while pos[c] < self.ctx_order[c].len() {
                    let i = self.ctx_order[c][pos[c]];
                    let t = &self.tasks[i];
                    if !t.deps.iter().all(|&d| done[d]) {
                        break;
                    }
                    let ready = t.deps.iter().map(|&d| end[d]).max().unwrap_or(0);
                    start[i] = if t.deps.is_empty() {
                        cursor[c]
                    } else if cursor[c] >= ready {
                        cursor[c] + dequeue
                    } else {
                        ready + dispatch
                    };
                    end[i] = start[i] + costs[i];
                    cursor[c] = end[i];
                    done[i] = true;
                    pos[c] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            assert!(progressed, "replay deadlocked: issue order inconsistent with deps");
        }
        Replay { start, end, makespan: cursor[0].max(cursor[1]) }
    }

    /// Identity replay: recorded costs and overhead constants. The
    /// returned times equal the recorded ones, and
    /// `makespan + drain == cycles`.
    #[must_use]
    pub fn identity_replay(&self) -> Replay {
        self.replay(&self.recorded_costs(), self.dequeue, self.dispatch)
    }
}
