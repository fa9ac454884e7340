//! Real multi-worker executor using the distributed work queue.
//!
//! One OS worker thread runs per topology context — under the default
//! [`Topology::two_context`] layout that is the paper's division of
//! labour exactly: a *memory thread* (gathers and scatters), a *compute
//! thread* (kernels), and the caller's thread as the control thread that
//! enqueues tasks. Wider topologies ([`NativeExecutor::with_topology`])
//! farm each task class round-robin across several workers,
//! FastFlow-style. Tasks flow to workers through per-worker
//! single-producer/single-consumer rings (`spsc`, the
//! in-process analogue of the paper's memory-mapped queues); dependencies
//! use the lock-free bit-vector window of [`crate::workqueue`]; workers
//! wait for readiness either by spinning with the PAUSE hint or by
//! parking, the two policies whose trade-off Figure 8 measures.
//!
//! Dispatch takes no lock, and a thread is woken only when it can
//! proceed (FastFlow's rule, see PAPERS.md). Every thread has one parking
//! spot: a push wakes only the worker whose ring received the task, a
//! completion wakes parked peers, and the control thread, once the
//! window is full, sleeps until the workers have drained it to half
//! (`LOW_WATER`) and then refills it in one batch.
//!
//! By default each worker issues *out of order* within a small in-flight
//! window (Figure 7's `tail_depend`): it pops up to
//! [`NATIVE_ISSUE_WINDOW`] entries from its ring, runs any whose
//! dependencies have cleared, and waits only when none of them are
//! ready — a blocked scatter no longer stalls the gathers queued behind
//! it. [`NativeExecutor::in_order`] restores head-blocking queues.
//!
//! The world and the SRF each sit behind a lock, and both locks cover
//! copies only. A gather walks its source array under the world lock
//! into a staging buffer, then copies that into the SRF under the SRF
//! lock; a scatter is the mirror image; a kernel holds the SRF lock for
//! its copy-in and its copy-out and computes with no lock held. So a
//! kernel on a compute worker overlaps the gathers and scatters on a
//! memory worker — the paper's claim 2, on real threads — and each waits
//! for the other at most one strip copy.
//! [`ScheduledProgram::check`](crate::task::ScheduledProgram::check)
//! proves, once, for every [`CheckedProgram`] this executor runs, that
//! tasks with no dependency path between them touch disjoint SRF bytes
//! and array elements, so no interleaving changes a byte:
//! functional effects are identical to the reference executor (the
//! simulator, not this runtime, is the timing vehicle — see DESIGN.md).
//!
//! With [`NativeExecutor::with_trace`], the control thread and every
//! worker stamp nanosecond-resolution [`ExecEventKind`] events
//! (enqueue / ready / start / finish, window slot admit / clear,
//! dependency waits) into a shared [`TraceBuffer`] for the Chrome
//! exporter in [`crate::trace`].

use crate::exec::{gather_strip, scatter_strip, strip_bytes, KernelStrip};
use crate::graph::{ArrayId, StreamGraph};
use crate::hazard;
use crate::park::{DeathNotice, ParkingSpot};
use crate::spsc::SpscRing;
use crate::srf::{SrfBuffer, SrfConfig};
use crate::task::{CheckedProgram, TaskDesc, TaskId, TaskKind};
use crate::topology::Topology;
use crate::trace::{ExecEventKind, TraceBuffer};
use crate::workqueue::{DependencyWindow, WINDOW};
use crate::world::World;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;

// NOTE on readiness: the bit-vector window (DependencyWindow) bounds the
// number of in-flight tasks to 64 and is what the control thread uses for
// admission, mirroring the paper. Worker *readiness* checks use per-task
// completion flags rather than a mask snapshot: a snapshot can go stale
// when a completed dependency's slot is recycled for a later task (an ABA
// hazard that would deadlock a queue on itself).

/// How many ring entries a worker keeps in flight for out-of-order
/// issue. Any value >= 1 is deadlock-free: queues are filled in task-id
/// order, so the globally smallest incomplete task is always the oldest
/// unexecuted entry of its queue — inside every window.
pub const NATIVE_ISSUE_WINDOW: usize = 16;

/// In-flight tasks at which a control thread waiting on a full window is
/// woken: half the window, so it refills in batches rather than once per
/// completion, and the workers still hold half a window of work while it
/// does.
const LOW_WATER: u32 = WINDOW as u32 / 2;

/// `try_lock` attempts a thread makes on a held data lock before it
/// blocks on it. A lock is held for one strip copy, which is usually
/// shorter than a futex sleep and wake-up.
const LOCK_SPINS: u32 = 1 << 12;

/// Trace lane of the control thread. The worker for context `c` stamps
/// lane `c + 1`.
pub const LANE_CONTROL: u8 = 0;

/// How a worker thread waits for its dependencies to clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NativeWaitPolicy {
    /// Busy-wait with the PAUSE hint (`std::hint::spin_loop`): lowest
    /// dispatch latency, burns a hardware context while idle.
    Spin,
    /// Park the thread until a waker unparks it: frees the core, pays a
    /// wake-up.
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
/// executor: the gather or scatter, or the kernel's copy-in, compute and
/// copy-out, excluding queueing, dependency waits and data-lock waits.
/// Unlike everything the simulator reports, these are real nanoseconds
/// and vary run to run.
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
    world: Mutex<World>,
    srf: Mutex<SrfBuffer>,
    window: DependencyWindow,
    completed: Vec<AtomicBool>,
    /// One parking spot per thread, indexed by trace lane: the control
    /// thread's at [`LANE_CONTROL`], context `c`'s worker at `c + 1`.
    spots: Vec<ParkingSpot>,
    done: AtomicBool,
    /// Set when a worker dies (panics) so the control thread and the
    /// surviving workers stop waiting on completions that will never come.
    dead: AtomicBool,
    program: &'a CheckedProgram,
    trace: Option<TraceBuffer>,
    /// Per-task body wall times, collected when task timing is on.
    times: Option<Mutex<Vec<TaskTime>>>,
}

impl Shared<'_> {
    fn is_complete(&self, task: TaskId) -> bool {
        self.completed[task.0 as usize].load(Ordering::Acquire)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
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
    /// Panics if the program needs more SRF bytes than the executor's
    /// SRF configuration holds, or if a kernel panics on a worker.
    pub fn run(
        &self,
        program: &CheckedProgram,
        graph: &StreamGraph,
        world: &mut World,
    ) -> NativeReport {
        let srf = SrfBuffer::for_program(self.srf_cfg, program);
        // Unshare every array a scatter writes here, on the calling
        // thread. Copied at its first scatter instead, an array would be
        // allocated from a memory worker's malloc arena, which keeps it
        // resident after the caller frees it.
        for acc in program.tasks.iter().filter_map(|t| hazard::array_access(&t.kind, graph)) {
            if acc.write {
                world.bytes_mut(ArrayId(acc.array));
            }
        }

        let mut window = DependencyWindow::new();
        if let Some(buf) = &self.trace {
            window.set_trace(buf.clone(), LANE_CONTROL);
        }
        let contexts = self.topology.contexts();
        let shared = Shared {
            graph,
            world: Mutex::new(std::mem::take(world)),
            srf: Mutex::new(srf),
            window,
            completed: (0..program.tasks.len()).map(|_| AtomicBool::new(false)).collect(),
            spots: (0..=contexts).map(|_| ParkingSpot::new()).collect(),
            done: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            program,
            trace: self.trace.clone(),
            times: self.time_tasks.then(|| Mutex::new(Vec::with_capacity(program.tasks.len()))),
        };
        let assignment = self.topology.assign(&program.tasks);
        // A ring only ever holds admitted, incomplete tasks, and the
        // window admits at most WINDOW of them: a push cannot fail.
        let queues: Vec<SpscRing<TaskId>> = (0..contexts).map(|_| SpscRing::new(WINDOW)).collect();
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
            let control = &shared.spots[LANE_CONTROL as usize];
            'enqueue: for task in &program.tasks {
                while shared.window.admit(task.id).is_err() {
                    // Window full: sleep until the workers have drained
                    // it to the low-water mark (or one died — a dead
                    // worker frees no slots, so its notice wakes us).
                    control.wait_until(|| {
                        shared.window.pending_mask().count_ones() <= LOW_WATER || shared.is_dead()
                    });
                    if shared.is_dead() {
                        break 'enqueue;
                    }
                }
                let c = assignment[task.id.0 as usize];
                assert!(queues[c].push(task.id).is_ok(), "a ring outgrew the window");
                shared.spots[c + 1].wake();
                if let Some(buf) = &shared.trace {
                    buf.push(LANE_CONTROL, Some(task.id), ExecEventKind::Enqueue);
                }
            }
            shared.done.store(true, Ordering::Release);
            for spot in &shared.spots[1..] {
                spot.wake();
            }
            let mut counts = Vec::with_capacity(workers.len());
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for w in workers {
                match w.join() {
                    Ok(c) => counts.push(c),
                    // Remember the first worker panic and re-raise it with
                    // its original payload rather than a generic "worker
                    // panicked" (a panic inside a copy poisons a data
                    // lock, so masking it would surface as an unrelated
                    // poison error below).
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
        *world = shared.world.into_inner().expect("world lock poisoned");
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

/// Wait per `policy` for `ready`: one PAUSE-and-yield round (the caller
/// loops), or park on `spot` until it holds.
fn idle(policy: NativeWaitPolicy, spot: &ParkingSpot, ready: impl FnMut() -> bool) {
    match policy {
        NativeWaitPolicy::Spin => {
            // Yield so single-core hosts make progress.
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        NativeWaitPolicy::Park => spot.wait_until(ready),
    }
}

/// Run `f`, adding its wall time to `ns` when `on`.
fn timed<R>(on: bool, ns: &mut u64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    *ns += t0.elapsed().as_nanos() as u64;
    r
}

/// Lock `m`, spinning on `try_lock` for up to [`LOCK_SPINS`] attempts
/// before blocking. `None` if a peer panicked while holding it.
fn lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    for _ in 0..LOCK_SPINS {
        match m.try_lock() {
            Ok(guard) => return Some(guard),
            Err(TryLockError::Poisoned(_)) => return None,
            Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
        }
    }
    m.lock().ok()
}

/// Run one task body, holding a data lock around each copy only: a
/// gather or scatter stages its strip in `staging` between the world and
/// the SRF, and a kernel computes between its copy-in and copy-out.
/// Returns the body's self time (zero unless task timing is on), or
/// `None` if a peer died mid-copy and poisoned a lock.
fn run_body(shared: &Shared<'_>, task: &TaskDesc, staging: &mut Vec<u8>) -> Option<u64> {
    let graph = shared.graph;
    let on = shared.times.is_some();
    let mut ns = 0;
    match &task.kind {
        TaskKind::Gather { binding, .. } => {
            staging.resize(strip_bytes(binding, graph), 0);
            let world = lock(&shared.world)?;
            timed(on, &mut ns, || gather_strip(binding, graph, &world, staging));
            drop(world);
            let mut srf = lock(&shared.srf)?;
            let dst = srf.bytes_mut(binding.srf_offset, staging.len());
            timed(on, &mut ns, || dst.copy_from_slice(staging));
        }
        TaskKind::Scatter { binding, .. } => {
            staging.clear();
            let srf = lock(&shared.srf)?;
            let src = srf.bytes(binding.srf_offset, strip_bytes(binding, graph));
            timed(on, &mut ns, || staging.extend_from_slice(src));
            drop(srf);
            let mut world = lock(&shared.world)?;
            timed(on, &mut ns, || scatter_strip(binding, graph, &mut world, staging));
        }
        TaskKind::Kernel { kernel, items, inputs, outputs } => {
            let srf = lock(&shared.srf)?;
            let mut strip = timed(on, &mut ns, || {
                KernelStrip::copy_in(*kernel, items, inputs, outputs, graph, &srf)
            });
            drop(srf);
            timed(on, &mut ns, || strip.compute());
            let mut srf = lock(&shared.srf)?;
            timed(on, &mut ns, || strip.copy_out(&mut srf));
        }
    }
    Some(ns)
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
    queue: &SpscRing<TaskId>,
    lane: u8,
    policy: NativeWaitPolicy,
    issue_window: usize,
) -> WorkerCount {
    // A dying worker wakes every thread, which could otherwise sleep
    // forever waiting for a slot or a completion it will never post.
    let _notice = DeathNotice { dead: &shared.dead, spots: &shared.spots };
    let spot = &shared.spots[lane as usize];
    let mut count = WorkerCount::default();
    let mut staging = Vec::new();
    // In-flight entries, oldest first (queue order == task-id order).
    let mut local: Vec<TaskId> = Vec::with_capacity(issue_window);
    let ready = |task: &TaskId| {
        shared.program.tasks[task.0 as usize].deps.iter().all(|&d| shared.is_complete(d))
    };
    let mut waited = false;
    loop {
        if shared.is_dead() {
            return count;
        }
        while local.len() < issue_window {
            match queue.pop() {
                Some(task) => local.push(task),
                None => break,
            }
        }
        if local.is_empty() {
            if shared.done.load(Ordering::Acquire) && queue.is_empty() {
                return count;
            }
            // Until the control thread pushes here, finishes, or a peer
            // dies.
            idle(policy, spot, || {
                !queue.is_empty() || shared.done.load(Ordering::Acquire) || shared.is_dead()
            });
            continue;
        }
        let Some(pos) = local.iter().position(ready) else {
            // Nothing in the window is ready: this is the only place a
            // worker blocks on dependencies. The oldest entry records the
            // wait with its *live* unmet-dependency mask — the window
            // slots of the dependencies whose completion flags are still
            // clear, the same flags `ready` reads.
            if !waited {
                waited = true;
                if let Some(buf) = &shared.trace {
                    let deps = &shared.program.tasks[local[0].0 as usize].deps;
                    let unmet: Vec<TaskId> =
                        deps.iter().copied().filter(|&d| !shared.is_complete(d)).collect();
                    let mask = shared.window.mask_for(&unmet);
                    buf.push(lane, Some(local[0]), ExecEventKind::DepWait { mask });
                }
            }
            // Until a peer's completion readies an entry, a push lands
            // while the window has room, or a peer dies.
            idle(policy, spot, || {
                local.iter().any(ready)
                    || (local.len() < issue_window && !queue.is_empty())
                    || shared.is_dead()
            });
            continue;
        };
        let id = local.remove(pos);
        waited = false;
        if let Some(buf) = &shared.trace {
            buf.push(lane, Some(id), ExecEventKind::Ready);
            buf.push(lane, Some(id), ExecEventKind::Start);
        }
        let task = &shared.program.tasks[id.0 as usize];
        // A poisoned data lock means a peer died mid-copy; exit cleanly
        // and let the control thread re-raise its panic.
        let Some(ns) = run_body(shared, task, &mut staging) else {
            return count;
        };
        if let Some(times) = &shared.times {
            times.lock().expect("times mutex poisoned").push(TaskTime { task: id, lane, ns });
        }
        shared.completed[id.0 as usize].store(true, Ordering::Release);
        shared.window.complete(id);
        // Wake whoever this completion can unblock: parked peers, and the
        // control thread once the window has drained to the low-water
        // mark.
        for (i, peer) in shared.spots.iter().enumerate() {
            if i == usize::from(LANE_CONTROL) {
                peer.wake_if(|| shared.window.pending_mask().count_ones() <= LOW_WATER);
            } else if i != usize::from(lane) {
                peer.wake();
            }
        }
        if let Some(buf) = &shared.trace {
            buf.push(lane, Some(id), ExecEventKind::Finish);
        }
        count.executed += 1;
        if task.kind.is_memory() {
            count.memory += 1;
        }
    }
}
