//! Real multi-worker executor using the distributed work queue.
//!
//! One OS worker thread runs per topology context — under the default
//! [`Topology::two_context`] layout that is the paper's division of
//! labour exactly: a *memory thread* (gathers and scatters), a *compute
//! thread* (kernels), and the caller's thread as the control thread that
//! enqueues tasks. Wider topologies ([`NativeExecutor::with_topology`])
//! farm each task class round-robin across several workers,
//! FastFlow-style. Tasks flow to workers through per-worker
//! single-producer/single-consumer rings ([`crate::spsc`], the
//! in-process analogue of the paper's memory-mapped queues); dependencies
//! use the bit-vector window of [`crate::workqueue`]; workers wait for
//! readiness either by spinning with the PAUSE hint or by parking, the two
//! policies whose trade-off Figure 8 measures.
//!
//! By default each worker issues *out of order* within a small in-flight
//! window (Figure 7's `tail_depend`): it pops up to
//! [`NATIVE_ISSUE_WINDOW`] entries from its ring, runs any whose
//! dependencies have cleared, and waits only when none of them are
//! ready — a blocked scatter no longer stalls the gathers queued behind
//! it. [`NativeExecutor::in_order`] restores head-blocking queues.
//!
//! Functional effects (array contents) are identical to the reference
//! executor; a single data mutex serializes task *bodies* (the simulator,
//! not this runtime, is the timing vehicle — see DESIGN.md).
//!
//! With [`NativeExecutor::with_trace`], the control thread and every
//! worker stamp nanosecond-resolution [`ExecEventKind`] events
//! (enqueue / ready / start / finish, window slot admit / clear,
//! dependency waits) into a shared [`TraceBuffer`] for the Chrome
//! exporter in [`crate::trace`].

use crate::exec::execute_task;
use crate::graph::StreamGraph;
use crate::pool::{notify_all, DeathNotice};
use crate::spsc::SpscRing;
use crate::srf::{SrfBuffer, SrfConfig};
use crate::task::{ScheduledProgram, TaskId};
use crate::topology::Topology;
use crate::trace::{ExecEventKind, TraceBuffer};
use crate::workqueue::{DependencyWindow, QueuedTask};
use crate::world::World;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// NOTE on readiness: the bit-vector window (DependencyWindow) bounds the
// number of in-flight tasks to 64 and is what the control thread uses for
// admission, mirroring the paper. Worker *readiness* checks use per-task
// completion flags rather than the mask snapshot: a mask snapshot can go
// stale when a completed dependency's slot is recycled for a later task
// (an ABA hazard that would deadlock a queue on itself).

/// How many ring entries a worker keeps in flight for out-of-order
/// issue. Any value >= 1 is deadlock-free: queues are filled in task-id
/// order, so the globally smallest incomplete task is always the oldest
/// unexecuted entry of its queue — inside every window.
pub const NATIVE_ISSUE_WINDOW: usize = 16;

/// Trace lane of the control thread. The worker for context `c` stamps
/// lane `c + 1`.
pub const LANE_CONTROL: u8 = 0;

/// How a worker thread waits for its dependencies to clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NativeWaitPolicy {
    /// Busy-wait with the PAUSE hint (`std::hint::spin_loop`): lowest
    /// dispatch latency, burns a hardware context while idle.
    Spin,
    /// Park on a condition variable: frees the core, pays a wake-up.
    #[default]
    Park,
}

/// Report from a native run.
#[derive(Debug, Clone)]
pub struct NativeReport {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Memory-class tasks (gathers/scatters) executed, summed over
    /// workers.
    pub memory_tasks: usize,
    /// Compute-class tasks (kernels) executed, summed over workers.
    pub compute_tasks: usize,
    /// Tasks executed by each worker, indexed by topology context.
    pub worker_tasks: Vec<usize>,
    /// Wall-clock self time of each task body, sorted by task id (present
    /// when [`NativeExecutor::with_task_timing`] enabled timing).
    pub task_times: Option<Vec<TaskTime>>,
}

/// Wall-clock self time of one task body measured by the native
/// executor: the `execute_task` call only, excluding queueing, dependency
/// waits and data-lock acquisition. Unlike everything the simulator
/// reports, these are real nanoseconds and vary run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTime {
    /// The task.
    pub task: TaskId,
    /// Trace lane of the worker that ran it (topology context + 1; under
    /// the default topology 1 computes and 2 moves memory).
    pub lane: u8,
    /// Task-body wall time in nanoseconds.
    pub ns: u64,
}

struct Shared<'a> {
    graph: &'a StreamGraph,
    data: Mutex<(World, SrfBuffer)>,
    window: Mutex<DependencyWindow>,
    completed: Vec<AtomicBool>,
    window_cv: Condvar,
    done: AtomicBool,
    /// Set when a worker dies (panics) so the control thread and the
    /// surviving worker stop waiting on completions that will never come.
    dead: AtomicBool,
    program: &'a ScheduledProgram,
    trace: Option<TraceBuffer>,
    /// Per-task body wall times, collected when task timing is on.
    times: Option<Mutex<Vec<TaskTime>>>,
}

impl Shared<'_> {
    /// Lock the window even if a panicking peer poisoned it (the window
    /// holds no invariants a panic can break mid-update that we rely on
    /// for shutdown).
    fn lock_window(&self) -> MutexGuard<'_, DependencyWindow> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Multi-worker work-queue executor (one worker thread per topology
/// context; two by default).
#[derive(Debug, Clone, Default)]
pub struct NativeExecutor {
    srf_cfg: SrfConfig,
    topology: Topology,
    policy: NativeWaitPolicy,
    in_order: bool,
    trace: Option<TraceBuffer>,
    time_tasks: bool,
}

impl NativeExecutor {
    /// Executor with the default SRF and the parking wait policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Choose the worker wait policy.
    #[must_use]
    pub fn with_wait_policy(mut self, policy: NativeWaitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use a custom SRF configuration.
    #[must_use]
    pub fn with_srf(mut self, cfg: SrfConfig) -> Self {
        self.srf_cfg = cfg;
        self
    }

    /// Choose the queue topology: one worker thread runs per context,
    /// consuming its own ring, and tasks of each class are dealt
    /// round-robin across the workers accepting that class. The default
    /// is the paper's two-worker compute/memory split.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Force head-blocking queues: each worker executes its ring
    /// strictly in order, waiting at the head until the head's
    /// dependencies clear (the pre-`tail_depend` baseline). Default is
    /// `false`: out-of-order issue within [`NATIVE_ISSUE_WINDOW`]
    /// entries.
    #[must_use]
    pub fn in_order(mut self, in_order: bool) -> Self {
        self.in_order = in_order;
        self
    }

    /// Record executor events (nanosecond timestamps) into `buf`.
    #[must_use]
    pub fn with_trace(mut self, buf: TraceBuffer) -> Self {
        self.trace = Some(buf);
        self
    }

    /// Measure each task body's wall-clock self time; the report's
    /// `task_times` field carries them. These are real nanoseconds —
    /// profile several repeats and aggregate, they are not deterministic.
    #[must_use]
    pub fn with_task_timing(mut self, on: bool) -> Self {
        self.time_tasks = on;
        self
    }

    /// Execute `program` against `world` using one worker thread per
    /// topology context.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation or topology coverage, does
    /// not fit the SRF, or a worker thread panics.
    pub fn run(
        &self,
        program: &ScheduledProgram,
        graph: &StreamGraph,
        world: &mut World,
    ) -> NativeReport {
        program
            .check_with_topology(graph, &self.topology)
            .expect("scheduled program must be consistent and covered by the topology");
        assert!(
            program.srf_bytes <= self.srf_cfg.capacity,
            "program needs {} SRF bytes but only {} are configured",
            program.srf_bytes,
            self.srf_cfg.capacity
        );

        let mut window = DependencyWindow::new();
        if let Some(buf) = &self.trace {
            window.set_trace(buf.clone(), LANE_CONTROL);
        }
        let shared = Shared {
            graph,
            data: Mutex::new((std::mem::take(world), SrfBuffer::new(self.srf_cfg))),
            window: Mutex::new(window),
            completed: (0..program.tasks.len()).map(|_| AtomicBool::new(false)).collect(),
            window_cv: Condvar::new(),
            done: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            program,
            trace: self.trace.clone(),
            times: self.time_tasks.then(|| Mutex::new(Vec::with_capacity(program.tasks.len()))),
        };
        let assignment = self.topology.assign(&program.tasks);
        let queues: Vec<SpscRing<QueuedTask>> = (0..self.topology.contexts())
            .map(|_| SpscRing::<QueuedTask>::new(crate::workqueue::WINDOW))
            .collect();
        let policy = self.policy;
        let issue_window = if self.in_order { 1 } else { NATIVE_ISSUE_WINDOW };

        let counts: Vec<WorkerCount> = std::thread::scope(|s| {
            let shared = &shared;
            let workers: Vec<_> = queues
                .iter()
                .enumerate()
                .map(|(c, queue)| {
                    let lane = (c + 1) as u8;
                    s.spawn(move || worker_loop(shared, queue, lane, policy, issue_window))
                })
                .collect();

            // Control thread: admit tasks into the window in order and
            // push them to their assigned queue. Each queue has a single
            // producer (this thread) and a single consumer (its worker).
            'enqueue: for task in &program.tasks {
                let queued = loop {
                    if shared.dead.load(Ordering::Acquire) {
                        break 'enqueue;
                    }
                    let mut w = shared.lock_window();
                    if let Ok(slot) = w.admit(task.id) {
                        let dep_mask = w.mask_for(&task.deps) & !(1u64 << slot);
                        break QueuedTask { task: task.id, slot, dep_mask };
                    }
                    // Window full: wait for a completion (or a death
                    // notice — a dead worker frees no slots).
                    let _unused = shared.window_cv.wait(w).unwrap_or_else(PoisonError::into_inner);
                };
                let queue = &queues[assignment[task.id.0 as usize]];
                let mut item = queued;
                while let Err(back) = queue.push(item) {
                    if shared.dead.load(Ordering::Acquire) {
                        break 'enqueue;
                    }
                    item = back;
                    std::hint::spin_loop();
                }
                // Wake any worker parked on an empty ring; notifying
                // under the window lock orders the push before its re-check.
                notify_all(&shared.window, &shared.window_cv);
                if let Some(buf) = &shared.trace {
                    buf.push(LANE_CONTROL, Some(task.id), ExecEventKind::Enqueue);
                }
            }
            shared.done.store(true, Ordering::Release);
            notify_all(&shared.window, &shared.window_cv);
            let mut counts = Vec::with_capacity(workers.len());
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for w in workers {
                match w.join() {
                    Ok(c) => counts.push(c),
                    // Remember the first worker panic and re-raise it with
                    // its original payload rather than a generic "worker
                    // panicked" (the panic poisons the data mutex, so
                    // masking it would surface as an unrelated poison
                    // error below).
                    Err(p) => panic = panic.or(Some(p)),
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            counts
        });

        let task_times = shared.times.map(|m| {
            let mut v = m.into_inner().expect("times mutex poisoned");
            v.sort_by_key(|t| (t.task.0, t.lane));
            v
        });
        let (w, _srf) = shared.data.into_inner().expect("data mutex poisoned");
        *world = w;
        NativeReport {
            tasks: program.tasks.len(),
            memory_tasks: counts.iter().map(|c| c.memory).sum(),
            compute_tasks: counts.iter().map(|c| c.executed - c.memory).sum(),
            worker_tasks: counts.iter().map(|c| c.executed).collect(),
            task_times,
        }
    }
}

/// Per-worker tally returned by [`worker_loop`].
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCount {
    /// Tasks this worker executed.
    executed: usize,
    /// How many of them were memory-class (gathers/scatters).
    memory: usize,
}

/// Worker loop with out-of-order issue: keep up to `issue_window` popped
/// entries in flight, run the oldest one whose dependencies have all
/// completed, and wait (per `policy`) only when none of them is ready —
/// the paper's `tail_depend` consumer. `issue_window == 1` degenerates
/// to the head-blocking in-order consumer.
///
/// Returns its execution tally; exits early (without running the
/// remaining entries) when a peer worker dies, since their dependencies
/// can never complete.
fn worker_loop(
    shared: &Shared<'_>,
    queue: &SpscRing<QueuedTask>,
    lane: u8,
    policy: NativeWaitPolicy,
    issue_window: usize,
) -> WorkerCount {
    // A dying worker wakes the control thread, which could otherwise
    // sleep forever waiting for a window slot the worker will never free.
    let _notice = DeathNotice { dead: &shared.dead, lock: &shared.window, cv: &shared.window_cv };
    let mut count = WorkerCount::default();
    // In-flight entries, oldest first (queue order == task-id order).
    let mut local: Vec<QueuedTask> = Vec::with_capacity(issue_window);
    let ready = |item: &QueuedTask| {
        shared.program.tasks[item.task.0 as usize]
            .deps
            .iter()
            .all(|d| shared.completed[d.0 as usize].load(Ordering::Acquire))
    };
    let mut waited = false;
    loop {
        if shared.dead.load(Ordering::Acquire) {
            return count;
        }
        while local.len() < issue_window {
            match queue.pop() {
                Some(item) => local.push(item),
                None => break,
            }
        }
        if local.is_empty() {
            if shared.done.load(Ordering::Acquire) && queue.is_empty() {
                return count;
            }
            match policy {
                NativeWaitPolicy::Spin => {
                    // PAUSE-style spin; yield so single-core hosts make
                    // progress.
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                NativeWaitPolicy::Park => {
                    // Park until the control thread enqueues something
                    // (it notifies after every push), declares the run
                    // done, or a peer dies. The ring re-check under the
                    // window lock pairs with the notifier taking that
                    // lock, so the wake-up cannot be lost.
                    let mut w = shared.lock_window();
                    while queue.is_empty()
                        && !shared.done.load(Ordering::Acquire)
                        && !shared.dead.load(Ordering::Acquire)
                    {
                        w = shared.window_cv.wait(w).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
            continue;
        }
        let Some(pos) = local.iter().position(ready) else {
            // Nothing in the window is ready: this is the only place a
            // worker blocks on dependencies. The oldest entry records the
            // wait with its *live* unmet-dependency mask, recomputed from
            // the window — the admit-time `dep_mask` snapshot can name a
            // recycled slot once a completed dependency's slot has been
            // reused by a later task (an ABA on slot recycling that made
            // traces blame the wrong tasks).
            if !waited {
                waited = true;
                if let Some(buf) = &shared.trace {
                    let deps = &shared.program.tasks[local[0].task.0 as usize].deps;
                    let live = shared.lock_window().mask_for(deps);
                    buf.push(lane, Some(local[0].task), ExecEventKind::DepWait { mask: live });
                }
            }
            match policy {
                NativeWaitPolicy::Spin => {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                NativeWaitPolicy::Park => {
                    let any_ready =
                        || local.iter().any(&ready) || shared.dead.load(Ordering::Acquire);
                    let mut w = shared.lock_window();
                    while !any_ready() {
                        w = shared.window_cv.wait(w).unwrap_or_else(PoisonError::into_inner);
                    }
                    drop(w);
                }
            }
            continue;
        };
        let item = local.remove(pos);
        waited = false;
        if let Some(buf) = &shared.trace {
            buf.push(lane, Some(item.task), ExecEventKind::Ready);
            buf.push(lane, Some(item.task), ExecEventKind::Start);
        }
        {
            let task = &shared.program.tasks[item.task.0 as usize];
            // A poisoned data mutex means a peer died mid-task; exit
            // cleanly and let the control thread re-raise its panic.
            let Ok(mut data) = shared.data.lock() else {
                return count;
            };
            let (world, srf) = &mut *data;
            let t0 = shared.times.is_some().then(Instant::now);
            execute_task(task, shared.graph, world, srf);
            if let (Some(t0), Some(times)) = (t0, &shared.times) {
                let ns = t0.elapsed().as_nanos() as u64;
                times.lock().expect("times mutex poisoned").push(TaskTime {
                    task: item.task,
                    lane,
                    ns,
                });
            }
        }
        {
            let mut w = shared.lock_window();
            w.complete(item.task);
            shared.completed[item.task.0 as usize].store(true, Ordering::Release);
            shared.window_cv.notify_all();
        }
        if let Some(buf) = &shared.trace {
            buf.push(lane, Some(item.task), ExecEventKind::Finish);
        }
        count.executed += 1;
        if shared.program.tasks[item.task.0 as usize].kind.is_memory() {
            count.memory += 1;
        }
    }
}
