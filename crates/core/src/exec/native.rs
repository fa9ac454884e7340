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
//! Tasks run in place, with no lock and no staging copy: each task
//! borrows exactly the SRF and array bytes it touches, through the
//! region every executor runs tasks on (private module `region`), and a
//! gather reads its array records straight into its SRF strip while a
//! kernel on another worker computes on its own strips. So a kernel on
//! a compute worker overlaps the gathers and scatters on a memory worker
//! — the paper's claim 2, on real threads — and neither ever waits for
//! the other's data. That is sound for the one reason the region states:
//! [`ScheduledProgram::check`](crate::task::ScheduledProgram::check)
//! proves, once, for every [`CheckedProgram`] this executor runs, that
//! tasks with no dependency path between them touch disjoint SRF bytes
//! and array bytes, and a task's writes reach its dependants through its
//! completion flag's `Release` store and their readiness check's
//! `Acquire` load. So no interleaving changes a byte: functional effects
//! are identical to the reference executor (the simulator, not this
//! runtime, is the timing vehicle — see DESIGN.md).
//!
//! With [`NativeExecutor::with_trace`], the control thread and every
//! worker stamp nanosecond-resolution [`ExecEventKind`] events
//! (enqueue / ready / start / finish, window slot admit / clear,
//! dependency waits) into a shared [`TraceBuffer`] for the Chrome
//! exporter in [`crate::trace`].

use crate::exec::region::Region;
use crate::graph::StreamGraph;
use crate::park::{DeathNotice, ParkingSpot};
use crate::spsc::SpscRing;
use crate::srf::{SrfBuffer, SrfConfig};
use crate::task::{CheckedProgram, TaskId};
use crate::topology::Topology;
use crate::trace::{ExecEventKind, TraceBuffer};
use crate::workqueue::{DependencyWindow, WINDOW};
use crate::world::World;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

// NOTE on readiness: the bit-vector window (DependencyWindow) bounds the
// number of in-flight tasks to 64 and is what the control thread uses for
// admission, mirroring the paper. Worker *readiness* checks use the
// region's per-task completion flags rather than a mask snapshot: a
// snapshot can go stale when a completed dependency's slot is recycled
// for a later task (an ABA hazard that would deadlock a queue on itself).

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
/// executor: the gather, scatter or kernel strip, run in place,
/// excluding queueing and dependency waits (a task body waits for
/// nothing else). Unlike everything the simulator reports, these are
/// real nanoseconds and vary run to run.
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
    /// The SRF and the world, lent task by task; it also holds each
    /// task's completion flag.
    region: Region<'a>,
    window: DependencyWindow,
    /// One parking spot per thread, indexed by trace lane: the control
    /// thread's at [`LANE_CONTROL`], context `c`'s worker at `c + 1`.
    spots: Vec<ParkingSpot>,
    done: AtomicBool,
    /// Set when a worker dies (panics) so the control thread and the
    /// surviving workers stop waiting on completions that will never come.
    dead: AtomicBool,
    program: &'a CheckedProgram,
    trace: Option<TraceBuffer>,
    /// Whether to measure each task body's wall time.
    time_tasks: bool,
}

impl Shared<'_> {
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
    /// Panics, before any worker starts, if `program` was checked
    /// against a graph other than `graph` (a clone of it is the same
    /// graph), if `world` does not hold the arrays `graph` binds with
    /// room for each binding, or if the program needs more SRF bytes than
    /// the executor's SRF configuration holds; and if a kernel panics on
    /// a worker.
    pub fn run(
        &self,
        program: &CheckedProgram,
        graph: &StreamGraph,
        world: &mut World,
    ) -> NativeReport {
        let mut srf = SrfBuffer::new(self.srf_cfg);
        let region = Region::new(program, graph, world, &mut srf);
        let mut window = DependencyWindow::new();
        if let Some(buf) = &self.trace {
            window.set_trace(buf.clone(), LANE_CONTROL);
        }
        let contexts = self.topology.contexts();
        let shared = Shared {
            region,
            window,
            spots: (0..=contexts).map(|_| ParkingSpot::new()).collect(),
            done: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            program,
            trace: self.trace.clone(),
            time_tasks: self.time_tasks,
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
                    // panicked".
                    Err(p) => panic = panic.or(Some(p)),
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            counts
        });

        let task_times = self.time_tasks.then(|| {
            let mut v: Vec<TaskTime> =
                counts.iter().flat_map(|c| c.times.iter().copied()).collect();
            v.sort_by_key(|t| (t.task.0, t.lane));
            v
        });
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
#[derive(Debug, Clone, Default)]
struct WorkerCount {
    /// Tasks this worker executed.
    executed: usize,
    /// How many of them were memory-class (gathers/scatters).
    memory: usize,
    /// Its task bodies' wall times, when task timing is on.
    times: Vec<TaskTime>,
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

/// Worker loop with out-of-order issue: keep up to `issue_window` popped
/// entries in flight, run the oldest one whose dependencies have all
/// completed, and wait (per `policy`) only when none of them is ready —
/// the paper's `tail_depend` consumer. `issue_window == 1` degenerates
/// to the head-blocking in-order consumer.
///
/// Returns its execution tally; exits early (without running the
/// remaining entries) when a peer worker dies, since their dependencies
/// can never complete. A task body waits for nothing: it runs in place
/// in the region.
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
    // In-flight entries, oldest first (queue order == task-id order).
    let mut local: Vec<TaskId> = Vec::with_capacity(issue_window);
    let ready = |task: &TaskId| {
        shared.program.tasks[task.0 as usize].deps.iter().all(|&d| shared.region.is_done(d))
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
                        deps.iter().copied().filter(|&d| !shared.region.is_done(d)).collect();
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
        if shared.time_tasks {
            let t0 = Instant::now();
            shared.region.execute_task(id);
            count.times.push(TaskTime { task: id, lane, ns: t0.elapsed().as_nanos() as u64 });
        } else {
            shared.region.execute_task(id);
        }
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
        if shared.program.tasks[id.0 as usize].kind.is_memory() {
            count.memory += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::functional::FunctionalExecutor;
    use crate::graph::{GraphBuilder, KernelId, StreamId};
    use crate::task::{PortBinding, ScheduledProgram, TaskDesc, TaskKind};

    /// Items per strip and strips: small enough for Miri, with strips
    /// enough that gathers, kernels and scatters of different strips
    /// run at once.
    const STRIP: usize = 8;
    const STRIPS: usize = 6;

    /// A kernel with two outputs (`2x` and `x + 1`) over `STRIPS` strips,
    /// each buffer double-buffered in the SRF, and the world it runs on.
    fn two_output_program() -> (StreamGraph, World, CheckedProgram) {
        let n = STRIP * STRIPS;
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let mut b = GraphBuilder::new();
        let a = b.array("a", &data);
        let (y0, y1) = (b.array_zeroed::<f32>("y0", n), b.array_zeroed::<f32>("y1", n));
        let xs = b.gather_seq("xs", a);
        let (d, p) = (b.stream::<f32>("double", n), b.stream::<f32>("plus", n));
        b.kernel("split", &[xs.id()], &[d.id(), p.id()], 2, |args| {
            let x = args.input::<f32>(0);
            let (double, plus) = (args.output::<f32>(0), args.output::<f32>(1));
            for ((v, d), p) in x.iter().zip(double).zip(plus) {
                (*d, *p) = (2.0 * v, v + 1.0);
            }
        });
        b.scatter_seq(d, y0);
        b.scatter_seq(p, y1);
        let (graph, world) = b.build().unwrap();
        let bytes = STRIP * 4;
        let binding = |stream: StreamId, buffer: usize, s: usize| PortBinding {
            stream,
            srf_offset: (2 * buffer + s % 2) * bytes,
            elems: s * STRIP..(s + 1) * STRIP,
            elem_bytes: 4,
        };
        let mut tasks = Vec::new();
        for s in 0..STRIPS {
            let id = 4 * s as u32;
            let two_back = |k: u32| if s >= 2 { vec![TaskId(id - 8 + k)] } else { vec![] };
            let task = |k: u32, kind, deps| TaskDesc { id: TaskId(id + k), kind, deps, strip: 0 };
            let (input, outs) =
                (binding(xs.id(), 0, s), [binding(d.id(), 1, s), binding(p.id(), 2, s)]);
            // The gather refills the buffer the kernel two strips back
            // read; the kernel rewrites the buffers that strip's scatters
            // read.
            tasks.push(task(
                0,
                TaskKind::Gather { binding: input.clone(), nt: false },
                two_back(1),
            ));
            let mut deps = vec![TaskId(id)];
            deps.extend(two_back(2).into_iter().chain(two_back(3)));
            let kind = TaskKind::Kernel {
                kernel: KernelId(0),
                items: s * STRIP..(s + 1) * STRIP,
                inputs: vec![input],
                outputs: outs.to_vec(),
            };
            tasks.push(task(1, kind, deps));
            for (k, out) in outs.into_iter().enumerate() {
                tasks.push(task(
                    2 + k as u32,
                    TaskKind::Scatter { binding: out, nt: false },
                    vec![TaskId(id + 1)],
                ));
            }
        }
        let program = ScheduledProgram {
            tasks,
            srf_bytes: 6 * bytes,
            n_strips: STRIPS as u32,
            strip_items: STRIP,
        };
        let program = program.check(&graph).unwrap();
        (graph, world, program)
    }

    /// Under both wait policies, on the paper's two workers and on a
    /// farm of two compute and two memory workers, a kernel writing two
    /// outputs in place leaves the world byte-identical to the reference
    /// executor's.
    #[test]
    fn native_runs_match_the_reference_on_two_and_four_workers() {
        let (graph, world, program) = two_output_program();
        let mut want = world.clone();
        FunctionalExecutor::new().run(&program, &graph, &mut want);
        for topology in [Topology::two_context(), Topology::scaled(4)] {
            for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
                let mut got = world.clone();
                let exec =
                    NativeExecutor::new().with_topology(topology.clone()).with_wait_policy(policy);
                let report = exec.run(&program, &graph, &mut got);
                assert_eq!(report.tasks, program.tasks.len());
                assert_eq!(report.compute_tasks, STRIPS, "{topology:?} {policy:?}");
                for (g, w) in got.iter().zip(want.iter()) {
                    assert_eq!(
                        g.data.as_bytes(),
                        w.data.as_bytes(),
                        "`{}` under {topology:?} {policy:?}",
                        g.name
                    );
                }
            }
        }
        let y1 = want.iter().nth(2).unwrap().data.as_slice::<f32>();
        assert_eq!(y1[5], 3.5, "the reference computes x + 1");
    }
}
