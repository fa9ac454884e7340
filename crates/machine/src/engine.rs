//! The N-context timing engine.
//!
//! [`Machine::run`] advances `MachineConfig::contexts` hardware contexts
//! over their [`BulkOp`] streams in interleaved chunks, always stepping
//! the context whose local clock is behind. Shared resources — the L2
//! cache, the front-side bus, the page walker and the issue bandwidth of
//! each SMT core — couple the timelines:
//!
//! * compute throughput is scaled by the activity of every same-core
//!   sibling context (the product of the pairwise
//!   [`SmtFactors`](crate::config::SmtFactors) measured in the paper's
//!   Figure 6 experiment; see [`crate::config::SmtModel`]);
//! * line fills, writebacks and non-temporal store bursts occupy the one
//!   shared bus, arbitrated across all N contexts;
//! * TLB misses serialize on the single page walker (the dominant cost of
//!   random gathers/scatters per the paper);
//! * cross-context dispatch pays the PAUSE / MWAIT / OS wake-up costs of
//!   Section III-B.
//!
//! With `contexts = 2` (the default) the engine reproduces the paper's
//! two-hyper-thread machine bit for bit: one sibling exists, so the
//! factor product degenerates to the pairwise lookup.
//!
//! # Host cost
//!
//! A simulated hit is four stamp updates, and the engine is built so
//! that it costs about that much. Geometry is power-of-two by
//! construction, so no per-access path divides (`line_shift` and
//! `page_shift` are fields, and the bus keeps its line occupancy). In
//! [`StepMode::Event`] a bulk copy's hits never reach `mem_access` at
//! all: `Seq`/`Strided` patterns replay same-line runs arithmetically
//! (O(1) per line, `copy_fast_run`), `Indexed` patterns retire proven
//! hits one by one in program order (`copy_hit_run`), and only the
//! element neither can take — a miss, a walk, a line-straddling record
//! — is stepped exactly.
//! A [`BulkOp::Loop`] iteration is always stepped exactly. Both routes
//! leave every cache, TLB and counter in the state stepping would, so
//! results are byte-identical in either mode; which route took what,
//! and why the rest was stepped, is tallied host-side in
//! [`EngineStats`].

use crate::bus::{Bus, Transfer};
use crate::cache::{Cache, FillPolicy};
use crate::config::MachineConfig;
use crate::ops::{AccessPattern, BulkOp, CopyDir, OpClass, Rw, WaitPolicy};
use crate::prefetch::Prefetcher;
use crate::stats::{
    CounterSample, EngineStats, ExactReason, MemStats, OpProfile, RunResult, TaskIssue,
};
use crate::tlb::Tlb;
use crate::trace::{MachineEvent, MachineEventKind, PhaseCycles};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// What a context currently presents to its SMT partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Activity {
    /// Finished (or empty program): partner runs in single-thread mode.
    Idle,
    /// ALU-bound work in flight.
    Compute,
    /// Bulk memory work in flight.
    Memory,
    /// Busy-waiting with PAUSE (consumes shared issue slots).
    PauseSpin,
    /// Halted in MWAIT or blocked in the OS.
    Halted,
}

impl Activity {
    /// What a context blocked under `policy` presents.
    fn parked(policy: WaitPolicy) -> Self {
        match policy {
            WaitPolicy::SpinPause => Activity::PauseSpin,
            WaitPolicy::Mwait | WaitPolicy::OsBlock => Activity::Halted,
        }
    }
}

/// The interference a stepped context experiences from every other
/// context this chunk: same-core issue-rate factors (see
/// [`Machine::smt_mix`]) and whether the bus is contended.
#[derive(Debug, Clone, Copy)]
struct Smt {
    /// Compute-side issue-rate factor (product over non-idle siblings).
    comp: f64,
    /// Memory-side issue-rate factor (product over non-idle siblings).
    mem: f64,
    /// Some other context (any core) is streaming memory, so bus
    /// transfers pay the arbitration turnaround.
    contended: bool,
}

/// Per-context write-combining buffer for non-temporal stores: `start` is
/// the line address being combined into, `len` the bytes accumulated.
#[derive(Debug, Clone, Copy, Default)]
struct WriteCombiner {
    start: u64,
    len: u64,
}

#[derive(Debug)]
struct Cursor {
    ops: Vec<BulkOp>,
    idx: usize,
    /// Progress (elements or uops) within the current op.
    progress: u64,
    /// Byte progress within the current op (SRF-side offset of a copy).
    progress_bytes: u64,
    t: u64,
    waiting: Option<(u32, WaitPolicy)>,
}

impl Cursor {
    fn new(ops: Vec<BulkOp>) -> Self {
        Cursor { ops, idx: 0, progress: 0, progress_bytes: 0, t: 0, waiting: None }
    }

    fn done(&self) -> bool {
        self.idx >= self.ops.len()
    }
}

/// One schedulable work-queue entry for [`Machine::run_tasks`]: a slice
/// of the context's flat op stream plus its dependency events.
///
/// This is the engine-level form of the paper's Figure 7 distributed
/// work queue: the consumer walks the queue in order but may *issue any
/// entry whose dependencies have cleared* (`tail_depend`), so a blocked
/// scatter no longer stalls the gathers queued behind it.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// Ops belonging to this task (indices into the context's op vec).
    pub ops: Range<usize>,
    /// Events that must have been signaled before the task may issue.
    pub deps: Vec<u32>,
    /// Event signaled when the task retires (if anything depends on it).
    pub signal: Option<u32>,
    /// Whether some *other-context* task depends on this one — used as
    /// an issue-priority hint: among equally ready entries, work that
    /// feeds the partner context goes first (gathers before scatters).
    pub feeds_partner: bool,
}

/// A per-context program in task form: the flat op stream plus the work
/// queue entries that partition it.
#[derive(Debug, Clone, Default)]
pub struct ContextProgram {
    /// Flat op stream (no `Signal`/`Wait` ops — dependencies live on the
    /// task nodes).
    pub ops: Vec<BulkOp>,
    /// Work-queue entries in queue order.
    pub tasks: Vec<TaskNode>,
}

/// Signal times indexed by signal id, sized once from the largest id the
/// programs name (task-form ids are task ids, so the table is dense).
/// `pick` probes it for every dependency of every candidate on every
/// scheduling iteration.
struct Signals(Vec<Option<u64>>);

impl Signals {
    fn sized_for(ids: impl Iterator<Item = u32>) -> Self {
        Signals(vec![None; ids.max().map_or(0, |m| m as usize + 1)])
    }

    fn get(&self, id: u32) -> Option<u64> {
        self.0[id as usize]
    }

    fn insert(&mut self, id: u32, t: u64) {
        self.0[id as usize] = Some(t);
    }
}

/// Issue bookkeeping for one context of [`Machine::run_tasks`].
#[derive(Debug)]
struct IssueState {
    tasks: Vec<TaskNode>,
    issued: Vec<bool>,
    /// Lowest unissued queue index (issued prefix is skipped).
    head: usize,
    n_done: usize,
    /// Currently executing task, if any.
    active: Option<usize>,
}

impl IssueState {
    fn new(tasks: Vec<TaskNode>) -> Self {
        let n = tasks.len();
        IssueState { tasks, issued: vec![false; n], head: 0, n_done: 0, active: None }
    }

    fn all_done(&self) -> bool {
        self.n_done == self.tasks.len()
    }

    /// Best issueable entry among the first `window` unissued ones:
    /// minimal `(ready_t, !feeds_partner, queue position)`. Returns
    /// `(index, ready_t, waking dep id)`.
    fn pick(&self, signals: &Signals, window: usize) -> Option<(usize, u64, u32)> {
        let mut best: Option<(u64, bool, usize, u32)> = None;
        let mut seen = 0usize;
        for (i, node) in self.tasks.iter().enumerate().skip(self.head) {
            if self.issued[i] {
                continue;
            }
            seen += 1;
            if seen > window {
                break;
            }
            let mut ready_t = 0u64;
            let mut wake = u32::MAX;
            let mut ok = true;
            for &d in &node.deps {
                match signals.get(d) {
                    Some(t) => {
                        if t >= ready_t {
                            ready_t = t;
                            wake = d;
                        }
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let key = (ready_t, !node.feeds_partner, i, wake);
            if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
                best = Some(key);
            }
        }
        best.map(|(rt, _, i, wake)| (i, rt, wake))
    }
}

/// How the run loops advance simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Reference mode: advance in fixed element/cycle chunks, re-picking
    /// the context and re-resolving waits between every chunk. Kept as
    /// the oracle the event engine is checked against; only tests, the
    /// differential suite and the benchmark's identity check select it.
    Stepped,
    /// The engine (default): while the partner context is blocked, run
    /// the picked context's current op to completion in one span, and
    /// replay provably-hitting cache/TLB reference runs arithmetically.
    /// Produces bit-identical results, counters, traces, profiles and
    /// samples to [`StepMode::Stepped`] (asserted by the differential
    /// equivalence suite).
    #[default]
    Event,
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    l1: Vec<Cache>,
    l2: Cache,
    tlb: Vec<Tlb>,
    last_page: Vec<u64>,
    pf: Prefetcher,
    bus: Bus,
    walker_free: u64,
    /// Set per chunk: some other context is also streaming memory, so bus
    /// transfers pay the arbitration turnaround.
    bus_contended: bool,
    /// Set per access: uncovered miss latency is exposed beyond the
    /// reorder window (interleaved-loop misses).
    loop_window: bool,
    /// Set per access: the address is data-dependent (indexed), so even an
    /// L2 hit exposes some latency.
    dependent: bool,
    wc: Vec<WriteCombiner>,
    /// Outstanding uncovered-miss completion times per context (MSHR
    /// model): the context stalls only when all miss buffers are busy, so
    /// fill latency is hidden behind whatever else serializes the loop
    /// (compute, page walks) up to `mshrs` deep.
    fills: Vec<VecDeque<u64>>,
    stats: MemStats,
    /// Per-context cycle attribution, accumulated every step.
    phases: Vec<PhaseCycles>,
    /// Event sink; `None` (the default) records nothing and costs one
    /// branch per emission site. Bounded at
    /// [`MACHINE_TRACE_CAPACITY`]; overflow is counted in
    /// `trace_dropped` instead of growing without limit on long runs.
    trace: Option<Vec<MachineEvent>>,
    /// Trace sink capacity; [`MACHINE_TRACE_CAPACITY`] unless lowered.
    trace_capacity: usize,
    /// Events discarded because the trace sink was at capacity.
    trace_dropped: u64,
    /// Per-op attribution and interval samples; `None` (the default)
    /// skips the around-step snapshots entirely.
    profile: Option<Profile>,
    /// Task-issue log for `run_tasks`; `None` (the default) records
    /// nothing.
    task_log: Option<Vec<TaskIssue>>,
    /// Time-advance strategy; see [`StepMode`].
    mode: StepMode,
    /// `log2` of the L2 line size (the granularity `mem_access` splits
    /// elements at) and of the page size: runtime constants of `cfg`,
    /// kept so no per-access path divides.
    line_shift: u32,
    page_shift: u32,
    /// L1 and L2 lines are the same size, so one line index serves both
    /// levels — the one geometry condition batching needs beyond those
    /// construction asserts. `false` falls back to stepped inner loops
    /// even in [`StepMode::Event`].
    lines_equal: bool,
    /// Host-side tally of how work was retired; never part of a result.
    engine: EngineStats,
}

/// Profiler state: per-`(context, op)` cycle and counter attribution,
/// and cumulative counter snapshots every `interval` cycles of the
/// stepped context's local clock plus one final snapshot at end of run.
#[derive(Debug, Clone)]
struct Profile {
    ops: BTreeMap<(u8, u32), (u64, MemStats)>,
    interval: u64,
    next_t: u64,
    samples: Vec<CounterSample>,
}

/// Number of work units (elements / iterations) per engine step; keeps the
/// partner-activity sampling fresh without per-cycle simulation.
const CHUNK_ELEMS: u64 = 64;
/// Target cycles per compute chunk.
const CHUNK_CYCLES: u64 = 256;
/// How far ahead of the bus posted non-temporal stores may run, in line
/// transfers, before the store queue backpressures the context.
const WC_WINDOW_LINES: u64 = 4;
/// Cycles to dequeue a task that is already available (no wake-up
/// needed). Public so the analytical DAG replay in `gpstream-analyze`
/// can reproduce the issue arithmetic exactly.
pub const DEQUEUE_CYCLES: u64 = 30;

/// Event-trace sink capacity: a few million events before dropping —
/// far above any catalog run, low enough that a runaway traced loop
/// cannot exhaust memory. Mirrors the executor-level
/// `TraceBuffer` default in `gpstream-core`.
pub const MACHINE_TRACE_CAPACITY: usize = 4 << 20;

/// Resolve `key`'s slot through a one-entry `(key, slot)` memo, calling
/// `find` only when the key changed. `false` when `find` comes up empty.
#[inline(always)]
fn memo(m: &mut (u64, usize), key: u64, find: impl FnOnce(u64) -> Option<usize>) -> bool {
    if m.0 != key {
        match find(key) {
            Some(slot) => *m = (key, slot),
            None => return false,
        }
    }
    true
}

/// [`ExactReason`] for a load whose L1 line is absent.
fn l1_miss_reason(l2: &Cache, addr: u64) -> ExactReason {
    if l2.contains(addr) {
        ExactReason::L1MissL2Hit
    } else {
        ExactReason::L2Miss
    }
}

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.contexts` is outside `1..=64`, if a cache geometry
    /// or the page size is rejected by [`Cache::new`] / [`Tlb::new`]
    /// (line, set count and page must be powers of two), or if an L2
    /// line is larger than a page (a line is translated once).
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.contexts;
        assert!((1..=64).contains(&n), "contexts must be in 1..=64, got {n}");
        assert!(
            cfg.l2.line <= cfg.page_bytes,
            "`l2.line` ({}) must not exceed `page_bytes` ({})",
            cfg.l2.line,
            cfg.page_bytes
        );
        let l1: Vec<Cache> = (0..n).map(|_| Cache::new(cfg.l1, 0)).collect();
        let l2 = Cache::new(cfg.l2, cfg.nt_ways);
        let tlb: Vec<Tlb> = (0..n).map(|_| Tlb::new(cfg.dtlb_entries, cfg.page_bytes)).collect();
        let pf = Prefetcher::new(cfg.l2.line, cfg.hw_pf_streams);
        let bus = Bus::new(&cfg);
        Machine {
            line_shift: cfg.l2.line.trailing_zeros(),
            page_shift: cfg.page_bytes.trailing_zeros(),
            lines_equal: cfg.l1.line == cfg.l2.line,
            engine: EngineStats::default(),
            cfg,
            l1,
            l2,
            tlb,
            last_page: vec![u64::MAX; n],
            pf,
            bus,
            walker_free: 0,
            bus_contended: false,
            loop_window: false,
            dependent: false,
            wc: vec![WriteCombiner::default(); n],
            fills: vec![VecDeque::new(); n],
            stats: MemStats::default(),
            phases: vec![PhaseCycles::default(); n],
            trace: None,
            trace_capacity: MACHINE_TRACE_CAPACITY,
            trace_dropped: 0,
            profile: None,
            task_log: None,
            mode: StepMode::default(),
        }
    }

    /// Number of hardware contexts this machine steps.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.cfg.contexts
    }

    /// Select the time-advance strategy for subsequent runs.
    pub fn set_step_mode(&mut self, mode: StepMode) {
        self.mode = mode;
    }

    /// Start recording [`MachineEvent`]s. Events accumulate across runs
    /// until [`Machine::take_trace`] drains them.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Drain and return the recorded events (empty if tracing was never
    /// enabled). Tracing stays enabled afterwards.
    pub fn take_trace(&mut self) -> Vec<MachineEvent> {
        match self.trace.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Events dropped because the trace sink hit
    /// [`MACHINE_TRACE_CAPACITY`]. Persists across
    /// [`Machine::take_trace`] (read it before reusing the sink);
    /// cleared by [`Machine::reset_time`] with the warm-up events it
    /// discards.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Lower (or raise) the trace sink's capacity. Exposed so tests and
    /// tools can exercise the overflow path without recording millions
    /// of events; the default is [`MACHINE_TRACE_CAPACITY`].
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
    }

    /// Start profiling: attribute cycles and counter deltas to each
    /// `(context, op)` pair, and sample cumulative counters every
    /// `interval` cycles (of the stepped context's local clock) plus once
    /// at end of run, so interval deltas always sum to the run totals.
    /// Counters only move inside `Machine::step` for the stepped
    /// context, so snapshotting around each step attributes them exactly;
    /// timing is unaffected (the snapshots only read counters).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_profile(&mut self, interval: u64) {
        assert!(interval > 0, "sampling interval must be positive");
        self.profile =
            Some(Profile { ops: BTreeMap::new(), interval, next_t: interval, samples: Vec::new() });
    }

    /// Drain the per-op profile, sorted by `(ctx, op)` (empty if
    /// profiling was never enabled). Profiling stays enabled afterwards.
    pub fn take_profile(&mut self) -> Vec<OpProfile> {
        match self.profile.as_mut() {
            Some(p) => std::mem::take(&mut p.ops)
                .into_iter()
                .map(|((ctx, op), (cycles, stats))| OpProfile { ctx, op, cycles, stats })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Drain the recorded counter samples (empty if profiling was never
    /// enabled). Sampling stays enabled, rewound to the first interval.
    pub fn take_samples(&mut self) -> Vec<CounterSample> {
        match self.profile.as_mut() {
            Some(s) => {
                s.next_t = s.interval;
                std::mem::take(&mut s.samples)
            }
            None => Vec::new(),
        }
    }

    /// Start recording one [`TaskIssue`] per work-queue entry issued by
    /// [`Machine::run_tasks`] (the in-order `run` paths record nothing —
    /// their issue order carries no information beyond the op streams).
    /// Recording only reads the issue-time state, so timing is identical
    /// with it on or off.
    pub fn enable_task_log(&mut self) {
        if self.task_log.is_none() {
            self.task_log = Some(Vec::new());
        }
    }

    /// Drain the recorded task-issue log, in issue order (empty if the
    /// log was never enabled). Logging stays enabled afterwards.
    pub fn take_task_log(&mut self) -> Vec<TaskIssue> {
        match self.task_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The counters as of "now", with the live bus totals folded in (the
    /// run loops only publish bus totals into `stats` at end of run).
    #[must_use]
    pub fn stats_now(&self) -> MemStats {
        let mut s = self.stats;
        s.bus_bytes = self.bus.bytes_moved();
        s.bus_busy_cycles = self.bus.busy_cycles();
        s
    }

    /// How the engine retired the work since the last
    /// [`Machine::reset_time`]: which route each copy element took and
    /// why the exact ones did, and how many loop iterations it stepped.
    /// Host-side only — it differs between step modes by design and is
    /// part of no result.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// Record one event; compiles to a single branch when disabled.
    /// Bounded: at capacity the event is dropped and counted instead.
    #[inline]
    fn emit(&mut self, t: u64, ctx: usize, kind: impl FnOnce() -> MachineEventKind) {
        if let Some(buf) = self.trace.as_mut() {
            if buf.len() >= self.trace_capacity {
                self.trace_dropped += 1;
                return;
            }
            buf.push(MachineEvent { t, ctx: ctx as u8, kind: kind() });
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Register and pre-warm the SRF address range: SRF lines are brought
    /// into the L2 and non-temporal fills will never evict them.
    pub fn install_srf(&mut self, range: Range<u64>) {
        self.l2.set_srf_range(Some(range.clone()));
        self.l2.warm(range);
    }

    /// Pre-load an address range into the L2 (e.g. to model data that is
    /// already resident before the measured region).
    pub fn warm(&mut self, range: Range<u64>) {
        self.l2.warm(range);
    }

    /// Reset all *timing* state (clocks, bus/walker schedules, outstanding
    /// misses, statistics) while keeping cache, TLB and prefetcher
    /// contents. Used to measure a warm steady-state iteration, like the
    /// paper's "several hundred time steps".
    pub fn reset_time(&mut self) {
        self.bus.reset();
        self.walker_free = 0;
        self.bus_contended = false;
        self.loop_window = false;
        self.dependent = false;
        let n = self.cfg.contexts;
        self.wc = vec![WriteCombiner::default(); n];
        self.fills = vec![VecDeque::new(); n];
        self.stats = MemStats::default();
        self.engine = EngineStats::default();
        self.phases = vec![PhaseCycles::default(); n];
        if let Some(buf) = self.trace.as_mut() {
            buf.clear();
        }
        self.trace_dropped = 0;
        if let Some(p) = self.profile.as_mut() {
            p.ops.clear();
            p.samples.clear();
            p.next_t = p.interval;
        }
        if let Some(log) = self.task_log.as_mut() {
            log.clear();
        }
    }

    /// Run a single-context program (every other context is idle, so the
    /// core runs in single-thread mode throughout).
    pub fn run_single(&mut self, ops: Vec<BulkOp>) -> RunResult {
        self.run(vec![ops])
    }

    /// Run one op stream per hardware context to completion. Fewer
    /// streams than contexts are padded with empty (idle) programs.
    ///
    /// # Panics
    ///
    /// Panics if more streams than contexts are supplied, or if every
    /// unfinished context waits on an event that is never signaled (a
    /// deadlock in the generated schedule).
    pub fn run(&mut self, progs: impl Into<Vec<Vec<BulkOp>>>) -> RunResult {
        let n = self.cfg.contexts;
        let mut progs: Vec<Vec<BulkOp>> = progs.into();
        assert!(progs.len() <= n, "{} op streams for {n} contexts", progs.len());
        progs.resize_with(n, Vec::new);
        let mut signals = Signals::sized_for(progs.iter().flatten().filter_map(|op| match op {
            BulkOp::Signal { id } | BulkOp::Wait { id, .. } => Some(*id),
            _ => None,
        }));
        let mut cur: Vec<Cursor> = progs.into_iter().map(Cursor::new).collect();
        self.phases = vec![PhaseCycles::default(); n];
        // Per-iteration activity snapshot, reused to keep the hot loop
        // allocation-free.
        let mut acts: Vec<Activity> = Vec::with_capacity(n);

        loop {
            self.engine.sched_iters += 1;
            // Resolve waits that can now complete.
            for (ci, c) in cur.iter_mut().enumerate() {
                if let Some((id, policy)) = c.waiting {
                    if let Some(sig_t) = signals.get(id) {
                        (c.t, _) = self.resume(ci, c.t, sig_t, id, policy);
                        c.waiting = None;
                    }
                }
            }

            // Step the runnable context whose local clock is furthest
            // behind (ties pick the lowest index).
            let runnable = |c: &Cursor| !c.done() && c.waiting.is_none();
            let mut pick = None;
            for (i, c) in cur.iter().enumerate() {
                if runnable(c) && pick.is_none_or(|p: usize| c.t < cur[p].t) {
                    pick = Some(i);
                }
            }
            let Some(pick) = pick else {
                if cur.iter().all(|c| c.done() && c.waiting.is_none()) {
                    break;
                }
                let stuck: Vec<(usize, Option<(u32, WaitPolicy)>)> = cur
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.waiting.is_some())
                    .map(|(i, c)| (i, c.waiting))
                    .collect();
                panic!("deadlock: contexts wait on events never signaled (waiting: {stuck:?})");
            };

            acts.clear();
            acts.extend(cur.iter().map(|c| self.activity_of(c)));
            let smt = self.smt_mix(pick, &acts);
            // Every other context is finished or waiting on an event only
            // this context can signal: nothing they observe can change
            // until the current op completes.
            let alone = cur.iter().enumerate().all(|(i, c)| i == pick || !runnable(c));
            self.step_profiled(&mut cur, pick, smt, &mut signals, alone);
        }

        self.finish_run(cur.iter().map(|c| c.t).collect())
    }

    /// Statistics accumulated so far (valid after `run`).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Run one task-form program per hardware context to completion with
    /// out-of-order issue: each context scans the first `window` entries
    /// of its queue and issues any whose dependencies have been signaled,
    /// parking with `policy` only when none are ready (Figure 7's
    /// `tail_depend` semantics).
    ///
    /// # Panics
    ///
    /// Panics if no context can issue or make progress while tasks remain
    /// (a dependency cycle or an event never signaled — the schedule
    /// checker should have rejected such a program).
    pub fn run_tasks(
        &mut self,
        progs: impl Into<Vec<ContextProgram>>,
        policy: WaitPolicy,
        window: usize,
    ) -> RunResult {
        let n = self.cfg.contexts;
        let mut progs: Vec<ContextProgram> = progs.into();
        assert!(progs.len() <= n, "{} task programs for {n} contexts", progs.len());
        progs.resize_with(n, ContextProgram::default);
        let mut signals = Signals::sized_for(
            progs
                .iter()
                .flat_map(|p| &p.tasks)
                .flat_map(|t| t.signal.iter().chain(&t.deps))
                .copied(),
        );
        let mut cur: Vec<Cursor> = Vec::with_capacity(n);
        let mut st: Vec<IssueState> = Vec::with_capacity(n);
        for p in progs {
            cur.push(Cursor::new(p.ops));
            st.push(IssueState::new(p.tasks));
        }
        self.phases = vec![PhaseCycles::default(); n];
        let window = window.max(1);
        // Index into `task_log` of each context's open (issued, not yet
        // completed) record, when logging is enabled.
        let mut log_open: Vec<Option<usize>> = vec![None; n];
        // Per-iteration activity snapshot and issue candidates, reused to
        // keep the hot loop allocation-free.
        let mut acts: Vec<Activity> = Vec::with_capacity(n);
        let mut cand: Vec<Option<(usize, u64, u32)>> = Vec::with_capacity(n);

        loop {
            self.engine.sched_iters += 1;
            // Earliest time each context could act: step its active task,
            // or issue its best ready queue entry. The event-driven mode
            // skips the queue scan for contexts mid-task: `avail` ignores
            // their candidate and `pick` is a pure function of (signals,
            // issued), so laziness cannot change the schedule.
            let lazy = self.mode == StepMode::Event;
            cand.clear();
            cand.extend(st.iter().map(|s| {
                if lazy && s.active.is_some() {
                    None
                } else {
                    s.pick(&signals, window)
                }
            }));
            let avail = |c: usize| -> Option<u64> {
                if st[c].active.is_some() {
                    Some(cur[c].t)
                } else {
                    cand[c].map(|(_, rt, _)| cur[c].t.max(rt))
                }
            };
            // Pick the earliest-available context (ties pick the lowest
            // index).
            let mut best: Option<(u64, usize)> = None;
            for i in 0..n {
                if let Some(a) = avail(i) {
                    if best.is_none_or(|(b, _)| a < b) {
                        best = Some((a, i));
                    }
                }
            }
            let Some((_, c)) = best else {
                if st.iter().all(IssueState::all_done) {
                    break;
                }
                let progress: Vec<String> =
                    st.iter().map(|s| format!("{}/{}", s.n_done, s.tasks.len())).collect();
                panic!(
                    "deadlock: no context can issue (done {progress:?} tasks) — \
                     a dependency is never signaled"
                );
            };

            if st[c].active.is_none() {
                // Issue the chosen entry, paying the dequeue / wake-up
                // cost exactly as `run` does for a resolved `Wait`.
                let (i, ready_t, wake) = cand[c].expect("picked context has a candidate");
                let issue_t = cur[c].t;
                st[c].issued[i] = true;
                while st[c].head < st[c].issued.len() && st[c].issued[st[c].head] {
                    st[c].head += 1;
                }
                let has_deps = !st[c].tasks[i].deps.is_empty();
                let dispatch_paid = has_deps && issue_t < ready_t;
                let mut overhead = 0;
                if has_deps {
                    (cur[c].t, overhead) = self.resume(c, issue_t, ready_t, wake, policy);
                }
                cur[c].idx = st[c].tasks[i].ops.start;
                cur[c].progress = 0;
                cur[c].progress_bytes = 0;
                st[c].active = Some(i);
                if let Some(log) = self.task_log.as_mut() {
                    log_open[c] = Some(log.len());
                    log.push(TaskIssue {
                        ctx: c as u8,
                        queue_index: i as u32,
                        issue_t,
                        ready_t,
                        wake: has_deps.then_some(wake),
                        overhead,
                        dispatch_paid,
                        start_t: cur[c].t,
                        end_t: cur[c].t,
                    });
                }
            }

            let i = st[c].active.expect("active task set above");
            if cur[c].idx < st[c].tasks[i].ops.end {
                acts.clear();
                acts.extend(cur.iter().zip(&st).map(|(cc, ss)| self.task_activity(cc, ss, policy)));
                let smt = self.smt_mix(c, &acts);
                // No other context has an issueable entry; each can only
                // get one when this task completes and signals.
                let alone = (0..n).all(|j| j == c || (st[j].active.is_none() && cand[j].is_none()));
                self.step_profiled(&mut cur, c, smt, &mut signals, alone);
            }
            if cur[c].idx >= st[c].tasks[i].ops.end {
                if let Some(id) = st[c].tasks[i].signal {
                    signals.insert(id, cur[c].t);
                }
                if let Some(k) = log_open[c].take() {
                    if let Some(log) = self.task_log.as_mut() {
                        log[k].end_t = cur[c].t;
                    }
                }
                st[c].active = None;
                st[c].n_done += 1;
            }
        }

        self.finish_run(cur.iter().map(|c| c.t).collect())
    }

    /// Shared end-of-run accounting: publish the bus totals, extend the
    /// wall clock to the final bus drain (posted stores and writebacks
    /// may outlive the issuing context — the run is not over until the
    /// bus is quiet, which also makes `bus_busy_cycles <= cycles` an
    /// invariant), and record the profiler's final sample.
    fn finish_run(&mut self, ctx_cycles: Vec<u64>) -> RunResult {
        self.stats.bus_bytes = self.bus.bytes_moved();
        self.stats.bus_busy_cycles = self.bus.busy_cycles();
        let cycles = ctx_cycles.iter().copied().max().unwrap_or(0).max(self.bus.next_free());
        if let Some(p) = self.profile.as_mut() {
            // Final cumulative sample at end of run: interval deltas then
            // sum to the run totals by construction. Replace a tick that
            // landed exactly on the end cycle (its bus totals predate the
            // publish above).
            if p.samples.last().is_some_and(|last| last.t >= cycles) {
                p.samples.pop();
            }
            p.samples.push(CounterSample { t: cycles, stats: self.stats });
        }
        RunResult { ctx_cycles, cycles, mem: self.stats, phases: self.phases.clone() }
    }

    /// Step context `c`, wrapped in the profiler's counter snapshots when
    /// it is on (they only *read* counters, so timing is bit-identical
    /// with and without them). In [`StepMode::Event`], when the context is
    /// `alone` (no other context can act: each is finished, waiting on an
    /// unsignaled event, or holding no issueable task), its *current op*
    /// runs to completion in one span without re-picking or re-resolving
    /// waits: the others' observable state — and hence every SMT factor,
    /// pick decision and wait resolution the stepped loop would recompute
    /// per chunk — is frozen until the op retires. Otherwise it steps one
    /// chunk, not greedy: the other contexts interleave at chunk
    /// granularity, and shared-structure (bus, L2) access order across
    /// contexts must match the stepped loop exactly.
    fn step_profiled(
        &mut self,
        cur: &mut [Cursor],
        c: usize,
        smt: Smt,
        signals: &mut Signals,
        alone: bool,
    ) {
        let (op0, t0) = (cur[c].idx, cur[c].t);
        let before = self.profile.is_some().then(|| self.stats_now());
        if alone && self.mode == StepMode::Event {
            self.engine.spans += 1;
            // Unprofiled, chunk boundaries inside the span are
            // unobservable (no samples, hits emit no trace events), so
            // where copies take their batched routes (one line index) a
            // chunk takes the rest of its op. Profiled, chunks keep their
            // size so samples land on the stepped loop's ticks.
            let greedy = before.is_none() && self.lines_equal;
            while cur[c].idx == op0 {
                self.step(cur, c, smt, signals, greedy);
                self.sample_tick(cur[c].t);
            }
        } else {
            self.step(cur, c, smt, signals, false);
            self.sample_tick(cur[c].t);
        }
        if let Some(before) = before {
            let delta = self.stats_now().delta(&before);
            if let Some(p) = self.profile.as_mut() {
                let slot = p.ops.entry((c as u8, op0 as u32)).or_insert((0, MemStats::default()));
                slot.0 += cur[c].t.saturating_sub(t0);
                slot.1.accumulate(&delta);
            }
        }
    }

    /// Record the interval samples due by `now`, each with the counters
    /// as they stand.
    fn sample_tick(&mut self, now: u64) {
        if self.profile.as_ref().is_some_and(|p| p.next_t <= now) {
            let stats = self.stats_now();
            if let Some(p) = self.profile.as_mut() {
                while p.next_t <= now {
                    p.samples.push(CounterSample { t: p.next_t, stats });
                    p.next_t += p.interval;
                }
            }
        }
    }

    /// Partner activity under task issue: executing contexts present
    /// their current op; a context with nothing ready is parked per the
    /// wait policy; a finished context is idle.
    fn task_activity(&self, c: &Cursor, st: &IssueState, policy: WaitPolicy) -> Activity {
        if st.active.is_some() {
            Self::activity_of_op(&c.ops[c.idx])
        } else if st.all_done() {
            Activity::Idle
        } else {
            Activity::parked(policy)
        }
    }

    fn activity_of_op(op: &BulkOp) -> Activity {
        match op {
            BulkOp::Compute { .. } => Activity::Compute,
            BulkOp::Copy { .. } => Activity::Memory,
            BulkOp::Loop { class, .. } => match class {
                OpClass::Compute => Activity::Compute,
                OpClass::Memory => Activity::Memory,
            },
            _ => Activity::Compute,
        }
    }

    fn activity_of(&self, c: &Cursor) -> Activity {
        match c.waiting {
            Some((_, policy)) => Activity::parked(policy),
            None if c.done() => Activity::Idle,
            None => Self::activity_of_op(&c.ops[c.idx]),
        }
    }

    fn dispatch_cost(&self, policy: WaitPolicy) -> u64 {
        match policy {
            WaitPolicy::SpinPause => self.cfg.wait.pause_dispatch,
            WaitPolicy::Mwait => self.cfg.wait.mwait_dispatch,
            WaitPolicy::OsBlock => self.cfg.wait.os_dispatch,
        }
    }

    /// Resume context `c`, at local time `t`, past event `id` signaled at
    /// `ready`: a dequeue when the signal came first, otherwise an idle
    /// wait and then `policy`'s wake-up dispatch. Charges both to the
    /// context's phases, emits the `Wakeup`, and returns the resumed time
    /// and the cycles paid — the arithmetic `gpstream-analyze` replays.
    /// `run` resumes a signaled `Wait` here, `run_tasks` an issued entry
    /// with dependencies.
    fn resume(&mut self, c: usize, t: u64, ready: u64, id: u32, policy: WaitPolicy) -> (u64, u64) {
        let (resumed, paid) = if t >= ready {
            (t + DEQUEUE_CYCLES, DEQUEUE_CYCLES)
        } else {
            let dispatch = self.dispatch_cost(policy);
            self.phases[c].idle_wait += ready - t;
            (ready + dispatch, dispatch)
        };
        self.phases[c].dispatch += paid;
        self.emit(resumed, c, || MachineEventKind::Wakeup { id, policy, dispatch: paid });
        (resumed, paid)
    }

    /// Rate factor for my compute-side issue given one sibling's activity.
    fn comp_factor(&self, other: Activity) -> f64 {
        match other {
            Activity::Idle | Activity::Halted => 1.0,
            Activity::Compute => self.cfg.smt.factors.comp_vs_comp,
            Activity::Memory => self.cfg.smt.factors.comp_vs_mem,
            Activity::PauseSpin => self.cfg.smt.factors.comp_vs_pause,
        }
    }

    /// Rate factor for my memory-side issue given one sibling's activity.
    fn mem_factor(&self, other: Activity) -> f64 {
        match other {
            Activity::Idle | Activity::Halted => 1.0,
            Activity::Compute => self.cfg.smt.factors.mem_vs_comp,
            Activity::Memory => self.cfg.smt.factors.mem_vs_mem,
            Activity::PauseSpin => self.cfg.smt.factors.mem_vs_pause,
        }
    }

    /// Interference seen by context `c` this step: the product of the
    /// pairwise rate factors over every *same-core* sibling (per
    /// [`crate::config::SmtModel`]), and whether any other context — on
    /// any core — is streaming memory (bus arbitration). With one sibling
    /// the product is `1.0 * f`, which is IEEE-exact, so the two-context
    /// machine reproduces the pairwise model bit for bit.
    fn smt_mix(&self, c: usize, acts: &[Activity]) -> Smt {
        let tpc = self.cfg.smt.threads_per_core.max(1);
        let mut smt = Smt { comp: 1.0, mem: 1.0, contended: false };
        for (j, &a) in acts.iter().enumerate() {
            if j == c {
                continue;
            }
            if a == Activity::Memory {
                smt.contended = true;
            }
            if j / tpc == c / tpc {
                smt.comp *= self.comp_factor(a);
                smt.mem *= self.mem_factor(a);
            }
        }
        smt
    }

    /// Cycles for `uops` micro-ops at the contended issue rate.
    fn uop_cycles(&self, uops: u64, factor: f64) -> u64 {
        ((uops as f64) / (self.cfg.base_ipc * factor)).ceil() as u64
    }

    /// Issue cycles every element of a bulk copy pays before its two
    /// accesses: the copy loop's micro-ops, plus the software prefetch a
    /// non-temporal gather issues per element.
    fn copy_issue_cycles(&self, dir: CopyDir, nt: bool, f: f64) -> u64 {
        let prefetch = if nt && dir == CopyDir::GatherToSrf {
            self.uop_cycles(self.cfg.sw_prefetch_uops, f)
        } else {
            0
        };
        self.uop_cycles(self.cfg.copy_uops_per_elem, f) + prefetch
    }

    /// Uncovered misses a bulk copy keeps in flight: sequential copies
    /// overlap them up to the miss buffers; random (indexed) copies are
    /// dependent chains (index load -> address -> data load, TLB walk in
    /// the middle) and keep one.
    fn copy_mlp(&self, mem: &AccessPattern) -> usize {
        if mem.is_sequential() {
            self.cfg.mshrs.max(1) as usize
        } else {
            1
        }
    }

    /// Why [`Machine::step`] runs a copy chunk's exact body: stepped
    /// mode always does; event mode only when the geometry gate is
    /// closed.
    fn stepped_reason(&self) -> ExactReason {
        match self.mode {
            StepMode::Stepped => ExactReason::Stepped,
            StepMode::Event => ExactReason::Geometry,
        }
    }

    /// One chunk step of context `c`'s current op — the only chunk
    /// function, in both step modes. A `Copy` or `Loop` chunk is sized
    /// here once (the rest of the op when `greedy`, else one chunk). A
    /// copy chunk is retired by its batched route (`copy_chunk_fast`) in
    /// [`StepMode::Event`] when one line index serves both cache levels,
    /// or by the exact body otherwise; a loop chunk always steps its
    /// iterations exactly. The stepped oracle never takes a batched
    /// route, so it checks them all.
    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        cur: &mut [Cursor],
        c: usize,
        smt: Smt,
        signals: &mut Signals,
        greedy: bool,
    ) {
        // Take the op out to appease the borrow checker; ops are cheap to
        // clone except for Indexed patterns which are Arc-backed.
        let op = cur[c].ops[cur[c].idx].clone();
        if cur[c].progress == 0 && cur[c].progress_bytes == 0 {
            let (t0, op_idx) = (cur[c].t, cur[c].idx as u32);
            self.emit(t0, c, || MachineEventKind::OpStart { op: op_idx });
        }
        // Which phase bucket this op's elapsed cycles belong to.
        let bucket = match &op {
            BulkOp::Compute { .. } => 0u8,
            BulkOp::Copy { .. } => 1,
            BulkOp::Loop { class, .. } => match class {
                OpClass::Compute => 0,
                OpClass::Memory => 1,
            },
            BulkOp::Delay { .. } => 2,
            BulkOp::Signal { .. } | BulkOp::Wait { .. } => 3,
        };
        let t_before = cur[c].t;
        match op {
            BulkOp::Compute { uops } => {
                let f = smt.comp;
                let chunk_uops = ((CHUNK_CYCLES as f64) * self.cfg.base_ipc * f).max(1.0) as u64;
                let remaining = uops - cur[c].progress;
                let take = remaining.min(chunk_uops);
                cur[c].t += self.uop_cycles(take, f);
                cur[c].progress += take;
                if cur[c].progress >= uops {
                    self.advance(c, &mut cur[c]);
                }
            }
            BulkOp::Copy { mem, srf_base, dir, nt } => {
                self.bus_contended = smt.contended;
                let total = mem.count();
                let remaining = total - cur[c].progress;
                let take = if greedy { remaining } else { remaining.min(CHUNK_ELEMS) };
                let issue = self.copy_issue_cycles(dir, nt, smt.mem);
                let mlp = self.copy_mlp(&mem);
                if self.mode == StepMode::Event && self.lines_equal {
                    self.copy_chunk_fast(c, &mut cur[c], &mem, srf_base, dir, nt, take, issue, mlp);
                } else {
                    let (t0, start) = (cur[c].t, cur[c].progress);
                    let (mut t, mut srf_off) = (t0, cur[c].progress_bytes);
                    for i in start..start + take {
                        let (addr, bytes) = mem.element(i);
                        let srf_addr = srf_base + srf_off;
                        t = self.copy_element(c, t, addr, srf_addr, bytes, dir, nt, issue, mlp);
                        srf_off += bytes;
                    }
                    self.engine.exact_copy(self.stepped_reason(), take, t - t0);
                    cur[c].t = t;
                    cur[c].progress_bytes = srf_off;
                }
                cur[c].progress += take;
                if cur[c].progress >= total {
                    // The op's last flush is posted; nothing waits on it.
                    let _ = self.flush_wc(c, cur[c].t);
                    self.advance(c, &mut cur[c]);
                }
            }
            BulkOp::Loop { patterns, uops_per_iter, .. } => {
                let total = patterns.first().map_or(0, |(p, _)| p.count());
                debug_assert!(
                    patterns.iter().all(|(p, _)| p.count() == total),
                    "all loop patterns must have the same element count"
                );
                let remaining = total - cur[c].progress;
                // Take enough iterations to fill the chunk budget.
                let iters_budget = (CHUNK_CYCLES / uops_per_iter.max(1)).clamp(1, CHUNK_ELEMS);
                let take = if greedy { remaining } else { remaining.min(iters_budget) };
                self.bus_contended = smt.contended;
                // Adjacent loads within one iteration are independent and
                // overlap up to the miss buffers; the computation between
                // iterations occupies the reorder window, so overlap does
                // not extend across iterations beyond that.
                let reads = patterns.iter().filter(|(_, rw)| *rw == Rw::Read).count();
                let mlp = reads.clamp(1, self.cfg.mshrs.max(1) as usize);
                let issue = self.uop_cycles(self.cfg.copy_uops_per_elem, smt.mem);
                let iter_cycles = self.uop_cycles(uops_per_iter, smt.comp);
                let (t0, start) = (cur[c].t, cur[c].progress);
                let mut t = t0;
                for i in start..start + take {
                    t = self.loop_iteration(c, t, &patterns, i, issue, iter_cycles, mlp);
                }
                self.engine.loops.add(take, t - t0);
                cur[c].t = t;
                cur[c].progress += take;
                if cur[c].progress >= total {
                    self.advance(c, &mut cur[c]);
                }
            }
            BulkOp::Signal { id } => {
                signals.insert(id, cur[c].t);
                self.advance(c, &mut cur[c]);
            }
            BulkOp::Wait { id, policy } => {
                // `run` resolves the wait; mark and advance past the op so
                // that on resume we continue with the next one.
                cur[c].waiting = Some((id, policy));
                self.advance(c, &mut cur[c]);
            }
            BulkOp::Delay { cycles } => {
                cur[c].t += cycles;
                self.advance(c, &mut cur[c]);
            }
        }
        let dt = cur[c].t - t_before;
        match bucket {
            0 => self.phases[c].compute += dt,
            1 => self.phases[c].memory += dt,
            2 => self.phases[c].idle_wait += dt,
            _ => self.phases[c].dispatch += dt,
        }
    }

    /// One exact copy element: its issue cycles, then its two accesses
    /// in stepped order, the loaded side first. The exact body and the
    /// batched routes' hand-over both run it.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn copy_element(
        &mut self,
        c: usize,
        t: u64,
        addr: u64,
        srf_addr: u64,
        bytes: u64,
        dir: CopyDir,
        nt: bool,
        issue: u64,
        mlp: usize,
    ) -> u64 {
        let t = t + issue;
        match dir {
            CopyDir::GatherToSrf => {
                let t = self.mem_access(c, t, addr, bytes, Rw::Read, nt, nt, mlp);
                self.mem_access(c, t, srf_addr, bytes, Rw::Write, false, false, mlp)
            }
            CopyDir::ScatterFromSrf => {
                let t = self.mem_access(c, t, srf_addr, bytes, Rw::Read, false, false, mlp);
                self.mem_access(c, t, addr, bytes, Rw::Write, nt, nt, mlp)
            }
        }
    }

    /// One exact loop iteration: per pattern its issue cycles and its
    /// access, then the iteration's computation. Returns the new time.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn loop_iteration(
        &mut self,
        c: usize,
        mut t: u64,
        patterns: &[(AccessPattern, Rw)],
        i: u64,
        issue: u64,
        iter_cycles: u64,
        mlp: usize,
    ) -> u64 {
        for (p, rw) in patterns {
            let (addr, bytes) = p.element(i);
            t += issue;
            // Misses inside an interleaved loop are limited by the
            // reorder window: it holds the loop's computation, not enough
            // future loads to pipeline the fills the way a bulk copy does.
            self.loop_window = true;
            self.dependent = !p.is_sequential();
            t = self.mem_access(c, t, addr, bytes, *rw, false, false, mlp);
        }
        self.loop_window = false;
        self.dependent = false;
        t + iter_cycles
    }

    /// The batched route of a [`BulkOp::Copy`] chunk of `take` elements,
    /// sized by [`Machine::step`]: one fast route per pattern kind — the
    /// arithmetic same-line replay ([`Machine::copy_fast_run`]) for
    /// `Seq`/`Strided`, the in-order hit run ([`Machine::copy_hit_run`])
    /// for `Indexed` — and the exact element ([`Machine::copy_element`])
    /// both hand over to. Kept out of line, like `copy_hit_run`.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn copy_chunk_fast(
        &mut self,
        c: usize,
        cur: &mut Cursor,
        mem: &AccessPattern,
        srf_base: u64,
        dir: CopyDir,
        nt: bool,
        take: u64,
        issue: u64,
        mlp: usize,
    ) {
        let (line_shift, page_shift) = (self.line_shift, self.page_shift);
        // Cycles of a fully hitting element: its issue, plus the
        // one-cycle L1-bypass tax `line_access` charges NT loads.
        let hit_cycles = issue + u64::from(nt && dir == CopyDir::GatherToSrf);
        // (stride, element bytes) of an affine pattern.
        let affine = match mem {
            AccessPattern::Seq { elem, .. } => Some((*elem, *elem)),
            AccessPattern::Strided { record, field_bytes, .. } => Some((*record, *field_bytes)),
            AccessPattern::Indexed { .. } => None,
        };
        let end = cur.progress + take;
        let mut i = cur.progress;
        let mut srf_off = cur.progress_bytes;
        let mut t = cur.t;
        // Consecutive batches over the same page pair merge their TLB
        // accounting: `touch_cycle` stamps depend only on the final clock,
        // so touching (pair, r1) then (pair, r2) leaves the TLB in the
        // same state as one (pair, r1 + r2) touch. While a merge is
        // pending the pair is known resident (touches never evict), so
        // `copy_fast_run` skips its residency probes for matching pairs.
        let mut pend: Option<([u64; 2], u64)> = None;
        // Lines proven resident by the most recent exact element: its
        // accesses fill both sides' lines (every miss path installs the
        // line) and translate both pages, so a batch over the same lines
        // needs no residency probes at all. This is the dominant regime
        // for L2-resident streams: the first element of each line misses
        // the L1 and steps exactly, then the rest of the line batches.
        let mut known: Option<(u64, u64)> = None;
        while i < end {
            let run = match affine {
                Some((stride, b)) if b > 0 => self.copy_fast_run(
                    c,
                    mem,
                    i,
                    end,
                    srf_base + srf_off,
                    stride,
                    b,
                    dir,
                    nt,
                    pend.map(|(p, _)| p),
                    known,
                ),
                Some(_) => Err(ExactReason::SpansLines),
                None => {
                    // Retired in place, in program order; what comes
                    // back is the element that stopped the run.
                    let srf_addr = srf_base + srf_off;
                    let (_, bytes) = mem.element(i);
                    let (n, stop) = match (dir, nt) {
                        (CopyDir::GatherToSrf, false) => {
                            self.copy_hit_run::<true, false>(c, mem, i, end, srf_addr)
                        }
                        (CopyDir::GatherToSrf, true) => {
                            self.copy_hit_run::<true, true>(c, mem, i, end, srf_addr)
                        }
                        (CopyDir::ScatterFromSrf, false) => {
                            self.copy_hit_run::<false, false>(c, mem, i, end, srf_addr)
                        }
                        (CopyDir::ScatterFromSrf, true) => {
                            self.copy_hit_run::<false, true>(c, mem, i, end, srf_addr)
                        }
                    };
                    self.engine.copy_in_order.add(n, n * hit_cycles);
                    t += n * hit_cycles;
                    srf_off += n * bytes;
                    i += n;
                    match stop {
                        Some(why) => Err(why),
                        None => break,
                    }
                }
            };
            if let Ok(run @ 2..) = run {
                let (addr, bytes) = mem.element(i);
                let srf_addr = srf_base + srf_off;
                let mem_page = addr >> page_shift;
                let srf_page = srf_addr >> page_shift;
                // Pages in the order the stepped path translates them.
                let pages = match dir {
                    CopyDir::GatherToSrf => [mem_page, srf_page],
                    CopyDir::ScatterFromSrf => [srf_page, mem_page],
                };
                pend = match pend {
                    Some((p, reps)) if p == pages => Some((p, reps + run)),
                    other => {
                        if let Some((p, reps)) = other {
                            self.tlb[c].touch_cycle(&p, reps);
                            self.stats.tlb_hits += 2 * reps;
                        }
                        Some((pages, run))
                    }
                };
                match (dir, nt) {
                    (CopyDir::GatherToSrf, false) => {
                        self.l1[c].touch_cycle(&[(addr, false)], run);
                        self.stats.l1_accesses += run;
                        self.stats.l1_hits += run;
                        self.l2.touch_cycle(&[(srf_addr, true)], run);
                        self.stats.l2_accesses += run;
                        self.stats.l2_hits += run;
                        self.last_page[c] = srf_page;
                    }
                    (CopyDir::GatherToSrf, true) => {
                        self.l2.touch_cycle(&[(addr, false), (srf_addr, true)], run);
                        self.stats.l2_accesses += 2 * run;
                        self.stats.l2_hits += 2 * run;
                        self.last_page[c] = srf_page;
                    }
                    (CopyDir::ScatterFromSrf, false) => {
                        self.l1[c].touch_cycle(&[(srf_addr, false)], run);
                        self.stats.l1_accesses += run;
                        self.stats.l1_hits += run;
                        self.l2.touch_cycle(&[(addr, true)], run);
                        self.stats.l2_accesses += run;
                        self.stats.l2_hits += run;
                        self.last_page[c] = mem_page;
                    }
                    (CopyDir::ScatterFromSrf, true) => {
                        // Write-combining stores that stay in the open line
                        // and below the flush threshold: time does not move
                        // beyond issue, bytes accumulate.
                        self.l1[c].touch_cycle(&[(srf_addr, false)], run);
                        self.stats.l1_accesses += run;
                        self.stats.l1_hits += run;
                        self.wc[c].len += run * bytes;
                        self.last_page[c] = mem_page;
                    }
                }
                self.engine.copy_replayed.add(run, run * hit_cycles);
                t += run * hit_cycles;
                srf_off += run * bytes;
                i += run;
            } else {
                // The pending TLB touches must land before this element's
                // real translations read the clock.
                if let Some((p, reps)) = pend.take() {
                    self.tlb[c].touch_cycle(&p, reps);
                    self.stats.tlb_hits += 2 * reps;
                }
                let (addr, bytes) = mem.element(i);
                let srf_addr = srf_base + srf_off;
                let t0 = t;
                t = self.copy_element(c, t, addr, srf_addr, bytes, dir, nt, issue, mlp);
                // A replay of one is an element alone before a line or
                // chunk boundary.
                self.engine.exact_copy(run.err().unwrap_or(ExactReason::ShortRun), 1, t - t0);
                known =
                    Some(((addr + bytes - 1) >> line_shift, (srf_addr + bytes - 1) >> line_shift));
                srf_off += bytes;
                i += 1;
            }
        }
        if let Some((p, reps)) = pend {
            self.tlb[c].touch_cycle(&p, reps);
            self.stats.tlb_hits += 2 * reps;
        }
        cur.t = t;
        cur.progress_bytes = srf_off;
    }

    /// Longest run of copy elements starting at `i` that provably hit
    /// everywhere (TLB, caches, open write-combining line) and stay in
    /// one cache line per side, or why element `i` must take the exact
    /// stepped path.
    #[allow(clippy::too_many_arguments)]
    fn copy_fast_run(
        &self,
        c: usize,
        mem: &AccessPattern,
        i: u64,
        end: u64,
        srf_addr: u64,
        stride: u64,
        b: u64,
        dir: CopyDir,
        nt: bool,
        pend_pages: Option<[u64; 2]>,
        known: Option<(u64, u64)>,
    ) -> Result<u64, ExactReason> {
        let (line_shift, page_shift) = (self.line_shift, self.page_shift);
        let line = self.cfg.l2.line;
        let (addr, _) = mem.element(i);
        let mem_off = addr & (line - 1);
        let srf_line_off = srf_addr & (line - 1);
        if mem_off + b > line || srf_line_off + b > line {
            return Err(ExactReason::SpansLines);
        }
        let mem_page = addr >> page_shift;
        let srf_page = srf_addr >> page_shift;
        if mem_page == srf_page {
            return Err(ExactReason::PageCarry);
        }
        // Lines the most recent exact element just accessed need no
        // probes: that element installed both lines (and translated both
        // pages, evicting nothing since), so residency is settled.
        let lines_known = known == Some((addr >> line_shift, srf_addr >> line_shift));
        let pages = match dir {
            CopyDir::GatherToSrf => [mem_page, srf_page],
            CopyDir::ScatterFromSrf => [srf_page, mem_page],
        };
        if !lines_known && pend_pages != Some(pages) {
            // The stepped path's consecutive-same-page shortcut must not
            // trigger inside the batch: the first page translated per
            // element has to differ from the sticky `last_page`. (A
            // pending merge or known-lines element over this pair implies
            // `last_page == pages[1] != pages[0]`, and the pages stay
            // resident, so both checks are settled.)
            if self.last_page[c] == pages[0] {
                return Err(ExactReason::PageCarry);
            }
            if !self.tlb[c].contains_page(mem_page) || !self.tlb[c].contains_page(srf_page) {
                return Err(ExactReason::TlbMiss);
            }
        }
        let mut cap = end - i;
        if let Some(q) = (line - mem_off - b).checked_div(stride) {
            cap = cap.min(q + 1);
        }
        cap = cap.min((line - srf_line_off - b) / b + 1);
        if !lines_known {
            // The load side probes the L1, the store side the L2.
            let (load, store) = match dir {
                CopyDir::GatherToSrf => (addr, srf_addr),
                CopyDir::ScatterFromSrf => (srf_addr, addr),
            };
            let nt_load = nt && dir == CopyDir::GatherToSrf;
            if nt_load && !self.l2.contains(load) {
                return Err(ExactReason::L2Miss);
            }
            if !nt_load && !self.l1[c].contains(load) {
                return Err(l1_miss_reason(&self.l2, load));
            }
            let nt_store = nt && dir == CopyDir::ScatterFromSrf;
            if !nt_store && !self.l2.contains(store) {
                return Err(ExactReason::L2Miss);
            }
        }
        if nt && dir == CopyDir::ScatterFromSrf {
            let wc = &self.wc[c];
            if wc.len == 0 || wc.start != addr >> line_shift || wc.len + b >= line {
                return Err(ExactReason::WcClosed);
            }
            // Stop before the element whose store fills the buffer
            // (that one flushes and must take the stepped path).
            cap = cap.min((line - 1 - wc.len) / b);
        }
        Ok(cap)
    }

    /// The in-order hit run of an `Indexed` copy: walk elements from `i`
    /// in program order and retire each one that is a *pure hit* —
    /// single-line on both sides, every page it translates in the TLB,
    /// its memory line in the level it reads or writes (or the open
    /// write-combining line, with room), its SRF line resident — by
    /// applying exactly the stepped updates in the stepped order. Stops
    /// at `end` or at the first element that is anything else, which is
    /// left untouched for the exact path. Returns the number retired and
    /// why the run stopped short of `end`.
    ///
    /// Nothing is predicted: every probe reads the state the previous
    /// elements of the run left behind, so duplicate indices, aliasing
    /// pages and the same-page shortcut need no argument — this *is* the
    /// stepped semantics with the miss paths cut off. Slots are
    /// memoised per side for the length of the run (hits move nothing),
    /// so a same-page or same-line neighbour skips its probe.
    ///
    /// Kept out of line: folded into its caller the loop spills.
    #[inline(never)]
    fn copy_hit_run<const GATHER: bool, const NT: bool>(
        &mut self,
        c: usize,
        mem: &AccessPattern,
        i: u64,
        end: u64,
        srf_addr: u64,
    ) -> (u64, Option<ExactReason>) {
        let AccessPattern::Indexed { base, record, field_offset, field_bytes, indices } = mem
        else {
            unreachable!("the in-order run serves indexed patterns only")
        };
        let (base, record, b) = (base + field_offset, *record, *field_bytes);
        if b == 0 {
            return (0, Some(ExactReason::SpansLines));
        }
        let (line_shift, page_shift) = (self.line_shift, self.page_shift);
        let line = self.cfg.l2.line;
        let (tlb, l1, l2, wc) = (&mut self.tlb[c], &mut self.l1[c], &mut self.l2, &mut self.wc[c]);
        let mut last_page = self.last_page[c];
        // (key, slot) memos: TLB slot per page, cache slot per line.
        const NONE: (u64, usize) = (u64::MAX, 0);
        let (mut mem_tlb, mut srf_tlb, mut mem_line, mut srf_line) = (NONE, NONE, NONE, NONE);
        let mut srf = srf_addr;
        let mut n = 0u64;
        let stop = loop {
            if i + n == end {
                break None;
            }
            let addr = base + u64::from(indices[(i + n) as usize]) * record;
            if (addr & (line - 1)) + b > line || (srf & (line - 1)) + b > line {
                break Some(ExactReason::SpansLines);
            }
            // Translations in stepped order: the loaded side first. A
            // page equal to the one translated just before takes the
            // stepped shortcut and never consults the TLB.
            let (mem_page, srf_page) = (addr >> page_shift, srf >> page_shift);
            let ((p0, m0), (p1, m1)) = if GATHER {
                ((mem_page, &mut mem_tlb), (srf_page, &mut srf_tlb))
            } else {
                ((srf_page, &mut srf_tlb), (mem_page, &mut mem_tlb))
            };
            if (p0 != last_page && !memo(m0, p0, |p| tlb.slot_of(p)))
                || (p1 != p0 && !memo(m1, p1, |p| tlb.slot_of(p)))
            {
                break Some(ExactReason::TlbMiss);
            }
            // Residency: loads read the L1 (NT loads the L2), stores
            // write the L2 (NT stores the open write-combining line).
            let (mem_key, srf_key) = (addr >> line_shift, srf >> line_shift);
            if GATHER {
                if NT {
                    if !memo(&mut mem_line, mem_key, |_| l2.slot_of(addr)) {
                        break Some(ExactReason::L2Miss);
                    }
                } else if !memo(&mut mem_line, mem_key, |_| l1.slot_of(addr)) {
                    break Some(l1_miss_reason(l2, addr));
                }
                if !memo(&mut srf_line, srf_key, |_| l2.slot_of(srf)) {
                    break Some(ExactReason::L2Miss);
                }
            } else {
                if !memo(&mut srf_line, srf_key, |_| l1.slot_of(srf)) {
                    break Some(l1_miss_reason(l2, srf));
                }
                if NT {
                    if wc.len == 0 || wc.start != mem_key || wc.len + b >= line {
                        break Some(ExactReason::WcClosed);
                    }
                } else if !memo(&mut mem_line, mem_key, |_| l2.slot_of(addr)) {
                    break Some(ExactReason::L2Miss);
                }
            }
            // A pure hit: apply it.
            if p0 != last_page {
                tlb.hit(m0.1);
            }
            if p1 != p0 {
                tlb.hit(m1.1);
            }
            last_page = p1;
            if GATHER {
                if NT {
                    l2.hit(mem_line.1, false);
                } else {
                    l1.hit(mem_line.1, false);
                }
                l2.hit(srf_line.1, true);
            } else {
                l1.hit(srf_line.1, false);
                if NT {
                    wc.len += b;
                } else {
                    l2.hit(mem_line.1, true);
                }
            }
            srf += b;
            n += 1;
        };
        self.last_page[c] = last_page;
        self.stats.tlb_hits += 2 * n;
        // Loads reference the L1 (NT loads the L2), stores the L2 (NT
        // stores neither).
        let (l1_refs, l2_refs) = match (GATHER, NT) {
            (true, true) => (0, 2 * n),
            (false, true) => (n, 0),
            (_, false) => (n, n),
        };
        self.stats.l1_accesses += l1_refs;
        self.stats.l1_hits += l1_refs;
        self.stats.l2_accesses += l2_refs;
        self.stats.l2_hits += l2_refs;
        (n, stop)
    }

    fn advance(&mut self, ctx: usize, c: &mut Cursor) {
        let (t, op_idx) = (c.t, c.idx as u32);
        self.emit(t, ctx, || MachineEventKind::OpRetire { op: op_idx });
        c.idx += 1;
        c.progress = 0;
        c.progress_bytes = 0;
    }

    /// Time one element access of `bytes` at `addr` through TLB, caches and
    /// bus. Elements spanning multiple cache lines touch each line in turn.
    /// Returns the context's new local time.
    ///
    /// `nt` selects the non-temporal path (NT fill for loads, write
    /// combining for stores). `sw_prefetched` marks loads that a software
    /// prefetch loop runs ahead of (their latency is hidden up to the
    /// software prefetch depth).
    #[allow(clippy::too_many_arguments)]
    fn mem_access(
        &mut self,
        ctx: usize,
        mut t: u64,
        addr: u64,
        bytes: u64,
        rw: Rw,
        nt: bool,
        sw_prefetched: bool,
        mlp: usize,
    ) -> u64 {
        let line_shift = self.line_shift;
        let bytes = bytes.max(1);

        // Non-temporal stores bypass the caches through write-combining
        // buffers (translation still happens per page, and the store
        // buffer can run only a few line-flushes ahead of it). The buffer
        // holds one line's worth of writes: stores within the same line
        // combine regardless of order or gaps; touching a new line
        // flushes.
        if rw == Rw::Write && nt {
            let avail = self.translate(ctx, t, addr);
            t = t.max(avail.saturating_sub(WC_WINDOW_LINES * self.bus.line_cycles()));
            let line_addr = addr >> line_shift;
            let wc = &mut self.wc[ctx];
            if wc.len > 0 && wc.start == line_addr {
                wc.len += bytes;
            } else {
                t = self.flush_wc(ctx, t);
                self.wc[ctx] = WriteCombiner { start: line_addr, len: bytes };
            }
            if self.wc[ctx].len >= self.cfg.l2.line {
                t = self.flush_wc(ctx, t);
            }
            return t;
        }

        let first_line = addr >> line_shift;
        let last_line = (addr + bytes - 1) >> line_shift;
        for l in first_line..=last_line {
            let a = if l == first_line { addr } else { l << line_shift };
            t = self.line_access(ctx, t, a, rw, nt, sw_prefetched, mlp);
        }
        t
    }

    /// Translate `addr`. Returns the cycle the translation is available:
    /// `t` on a TLB hit, or the completion of a page walk on a miss. Walks
    /// serialize on the single hardware walker, but the *context* is not
    /// stalled here — the caller charges the availability where the data
    /// is actually consumed, so an out-of-order core hides walk latency
    /// behind independent work.
    fn translate(&mut self, ctx: usize, t: u64, addr: u64) -> u64 {
        let page = addr >> self.page_shift;
        if page != self.last_page[ctx] {
            self.last_page[ctx] = page;
            if self.tlb[ctx].access(addr) {
                self.stats.tlb_hits += 1;
            } else {
                self.stats.tlb_misses += 1;
                let walk_start = t.max(self.walker_free);
                self.walker_free = walk_start + self.cfg.walk_cycles;
                self.stats.walk_cycles += self.cfg.walk_cycles;
                let walk = self.cfg.walk_cycles;
                self.emit(walk_start, ctx, || MachineEventKind::TlbWalk { cycles: walk });
                return self.walker_free;
            }
        } else {
            self.stats.tlb_hits += 1;
        }
        t
    }

    /// Access one cache line (cacheable path).
    #[allow(clippy::too_many_arguments)]
    fn line_access(
        &mut self,
        ctx: usize,
        mut t: u64,
        addr: u64,
        rw: Rw,
        nt: bool,
        sw_prefetched: bool,
        mlp: usize,
    ) -> u64 {
        let avail = self.translate(ctx, t, addr);

        // NT loads bypass the L1 and pay extra micro-ops at L2; plain loads
        // check L1 first.
        if rw == Rw::Read && !nt {
            self.stats.l1_accesses += 1;
            if self.l1[ctx].access(addr, false, FillPolicy::Normal).hit {
                self.stats.l1_hits += 1;
                return t.max(avail);
            }
            self.stats.l1_misses += 1;
        } else if rw == Rw::Read && nt {
            // NT loads bypass the L1: charge a small per-line tax.
            t += 1;
        }

        let policy = if nt { FillPolicy::NonTemporal } else { FillPolicy::Normal };
        self.stats.l2_accesses += 1;
        let out = self.l2.access(addr, rw == Rw::Write, policy);
        if out.hit {
            self.stats.l2_hits += 1;
            if self.dependent && rw == Rw::Read {
                t += self.cfg.l2_dep_exposed;
            }
            return t.max(avail);
        }
        self.stats.l2_misses += 1;
        if out.evicted_srf {
            self.stats.srf_evictions += 1;
        }
        if out.writeback.is_some() {
            // Fire-and-forget writeback; occupies the bus.
            self.bus_line(ctx, t);
            self.stats.writebacks += 1;
        }

        // Prefetch coverage.
        let (covered, depth) = if sw_prefetched {
            self.pf.note_software_prefetch();
            self.stats.sw_prefetch_covered += 1;
            (true, self.cfg.sw_pf_depth)
        } else if self.pf.observe_miss(addr) {
            self.stats.hw_prefetch_covered += 1;
            (true, self.cfg.hw_pf_depth)
        } else {
            (false, 0)
        };

        if covered {
            let transfer = self.bus_line(ctx, t.max(avail));
            self.emit(transfer.start, ctx, || MachineEventKind::PrefetchCover {
                sw: sw_prefetched,
            });
            // The prefetcher (or software prefetch loop) ran `depth`
            // line-transfers ahead: the context stalls only if the bus —
            // or, for random patterns, the serialized page walker feeding
            // it — cannot keep up within that window.
            t = t.max(transfer.data_ready.saturating_sub(depth * self.bus.line_cycles()));
        } else if rw == Rw::Read {
            // Demand load miss: the out-of-order core keeps up to `mlp`
            // misses in flight. A new miss stalls only when every miss
            // buffer is occupied — so fill latency is absorbed by whatever
            // else serializes the loop (computation between loads, page
            // walks of later accesses) and is exposed only when misses are
            // back to back, exactly the asymmetry the paper exploits.
            if self.fills[ctx].len() >= mlp.max(1) {
                if let Some(ready) = self.fills[ctx].pop_front() {
                    t = t.max(ready);
                }
            }
            let transfer = self.bus_line(ctx, t.max(avail));
            if self.loop_window {
                // The reorder window hides only `ooo_window_cycles` of the
                // *fill* latency; the page walk overlaps it (the walker is
                // a separate unit serving later accesses), so the walker
                // only binds through its throughput floor.
                let w = self.cfg.ooo_window_cycles;
                let start = t.max(avail);
                let lat = transfer.data_ready.saturating_sub(start);
                t = t.max(avail.saturating_sub(w)) + lat.saturating_sub(w);
            } else {
                self.fills[ctx].push_back(transfer.data_ready);
            }
        } else {
            // Uncovered store miss (read-for-ownership): store-buffer
            // stalls hide part but not all of the fill; inside a loop the
            // translation overlaps like a load's.
            let transfer = self.bus_line(ctx, t.max(avail));
            if self.loop_window {
                let w = self.cfg.ooo_window_cycles;
                t = t.max(avail.saturating_sub(w)) + self.cfg.store_miss_exposed;
            } else {
                t = t.max(transfer.start + self.cfg.store_miss_exposed);
            }
        }
        t
    }

    /// Flush the context's write-combining buffer (if any) at time `t`;
    /// returns when the context may go on.
    fn flush_wc(&mut self, ctx: usize, t: u64) -> u64 {
        if self.wc[ctx].len == 0 {
            return t;
        }
        self.wc[ctx] = WriteCombiner::default();
        // A write-combining flush occupies the bus for a full line slot
        // whether or not the buffer was full (partial flushes are chunked
        // on the front-side bus).
        let transfer = self.bus_line(ctx, t);
        self.stats.wc_flushes += 1;
        self.emit(transfer.start, ctx, || MachineEventKind::WcFlush);
        // Posted writes: the context only stalls if it runs too far ahead
        // of the store queue.
        t.max(transfer.bus_free.saturating_sub(WC_WINDOW_LINES * self.bus.line_cycles()))
    }

    /// Move one line over the bus for context `ctx`, requested at `at`,
    /// and trace the grant.
    fn bus_line(&mut self, ctx: usize, at: u64) -> Transfer {
        let transfer = self.bus.request(at, ctx as u8, self.bus_contended);
        let bytes = self.cfg.l2.line;
        self.emit(transfer.start, ctx, || MachineEventKind::BusGrant {
            bytes,
            queued: transfer.start.saturating_sub(at),
        });
        transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AccessPattern, BulkOp};

    fn machine() -> Machine {
        Machine::new(MachineConfig::prescott())
    }

    #[test]
    fn empty_program_finishes_at_zero() {
        let mut m = machine();
        let r = m.run_single(Vec::new());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn compute_takes_uops_over_ipc() {
        let mut m = machine();
        let r = m.run_single(vec![BulkOp::Compute { uops: 10_000 }]);
        // base_ipc = 1.0, idle partner => ~10_000 cycles (chunk rounding).
        assert!(r.cycles >= 10_000 && r.cycles < 10_100, "cycles = {}", r.cycles);
    }

    #[test]
    fn two_compute_contexts_interfere() {
        let mut m = machine();
        let solo = m.run_single(vec![BulkOp::Compute { uops: 100_000 }]).cycles;
        let mut m = machine();
        let both = m
            .run([vec![BulkOp::Compute { uops: 100_000 }], vec![BulkOp::Compute { uops: 100_000 }]])
            .cycles;
        // Together they should be faster than serial (2x solo) but slower
        // than perfect overlap (1x solo).
        assert!(both > solo, "SMT sharing must slow each thread: {both} vs {solo}");
        assert!(both < 2 * solo, "SMT must beat time-slicing: {both} vs {}", 2 * solo);
        // With comp_vs_comp = 0.63 each thread runs at 0.63x => ~1.59x solo.
        let ratio = both as f64 / solo as f64;
        assert!((1.4..1.8).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn sequential_copy_is_bus_or_issue_bound() {
        let mut m = machine();
        let n = 64 * 1024u64; // 64K elements x 4B = 256KB
        let mem = AccessPattern::Seq { base: 0x1000_0000, elem: 4, count: n };
        let r = m.run_single(vec![BulkOp::Copy {
            mem,
            srf_base: 0x8000_0000,
            dir: CopyDir::GatherToSrf,
            nt: false,
        }]);
        let bw = r.bandwidth_gbps(n * 4, 3.4);
        // Should land in the GB/s range (HW prefetch covered, bus ~6.4 GB/s
        // gross, issue-limited around 3-5 GB/s).
        assert!(bw > 1.0 && bw < 7.0, "sequential gather bw = {bw}");
    }

    #[test]
    fn random_gather_is_tlb_bound() {
        let mut m = machine();
        let n = 32 * 1024usize;
        // Random permutation over a 64 MB array: every access a fresh page.
        let mut idx: Vec<u32> = (0..n as u32).map(|i| i * 509 % n as u32).collect();
        idx.dedup();
        let mem = AccessPattern::Indexed {
            base: 0x1000_0000,
            record: 2048,
            field_offset: 0,
            field_bytes: 4,
            indices: idx.into(),
        };
        let useful = mem.useful_bytes();
        let r = m.run_single(vec![BulkOp::Copy {
            mem,
            srf_base: 0x8000_0000,
            dir: CopyDir::GatherToSrf,
            nt: false,
        }]);
        let bw = r.bandwidth_gbps(useful, 3.4);
        assert!(bw < 0.2, "random gather must be slow: {bw} GB/s");
        assert!(r.mem.tlb_misses > (n as u64) / 2, "TLB misses dominate");
    }

    #[test]
    fn signal_wait_ordering() {
        let mut m = machine();
        let r = m.run([
            vec![BulkOp::Compute { uops: 50_000 }, BulkOp::Signal { id: 1 }],
            vec![
                BulkOp::Wait { id: 1, policy: WaitPolicy::Mwait },
                BulkOp::Compute { uops: 1_000 },
            ],
        ]);
        // Ctx1 must finish after ctx0 signaled (~50k at SMT-shared rate)
        // plus the MWAIT dispatch and its own compute.
        assert!(r.ctx_cycles[1] > 50_000);
        assert!(r.ctx_cycles[1] >= r.ctx_cycles[0]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let mut m = machine();
        let _ = m.run([
            vec![BulkOp::Wait { id: 1, policy: WaitPolicy::SpinPause }],
            vec![BulkOp::Wait { id: 2, policy: WaitPolicy::SpinPause }],
        ]);
    }

    #[test]
    fn pause_spin_slows_partner_compute_mwait_does_not() {
        let uops = 200_000;
        let spin = {
            let mut m = machine();
            m.run([
                vec![BulkOp::Compute { uops }, BulkOp::Signal { id: 1 }],
                vec![BulkOp::Wait { id: 1, policy: WaitPolicy::SpinPause }],
            ])
            .ctx_cycles[0]
        };
        let mwait = {
            let mut m = machine();
            m.run([
                vec![BulkOp::Compute { uops }, BulkOp::Signal { id: 1 }],
                vec![BulkOp::Wait { id: 1, policy: WaitPolicy::Mwait }],
            ])
            .ctx_cycles[0]
        };
        assert!(
            spin as f64 > mwait as f64 * 1.2,
            "PAUSE spinning must slow the computing context: spin={spin} mwait={mwait}"
        );
    }

    fn traceable_program() -> [Vec<BulkOp>; 2] {
        let mem = AccessPattern::Seq { base: 0x1000_0000, elem: 4, count: 16 * 1024 };
        [
            vec![BulkOp::Compute { uops: 20_000 }, BulkOp::Signal { id: 1 }],
            vec![
                BulkOp::Wait { id: 1, policy: WaitPolicy::Mwait },
                BulkOp::Copy { mem, srf_base: 0x8000_0000, dir: CopyDir::GatherToSrf, nt: false },
            ],
        ]
    }

    #[test]
    fn tracing_emits_events_without_perturbing_timing() {
        let mut plain = machine();
        let untraced = plain.run(traceable_program());
        assert!(plain.take_trace().is_empty(), "no sink when tracing is off");

        let mut traced = machine();
        traced.enable_trace();
        let r = traced.run(traceable_program());
        assert_eq!(r, untraced, "tracing must not change the model");

        let events = traced.take_trace();
        assert!(!events.is_empty());
        let has = |f: fn(&MachineEventKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(|k| matches!(k, MachineEventKind::OpRetire { .. })));
        assert!(has(|k| matches!(k, MachineEventKind::BusGrant { .. })));
        assert!(has(|k| matches!(k, MachineEventKind::Wakeup { .. })));
        // Every bus transfer is traced.
        let granted: u64 = events
            .iter()
            .map(|e| match e.kind {
                MachineEventKind::BusGrant { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(granted, r.mem.bus_bytes);
        // Timestamps never exceed the run length and are per-context
        // monotone for retirements.
        let mut last = [0u64; 2];
        for e in &events {
            assert!(e.t <= r.cycles);
            if let MachineEventKind::OpRetire { .. } = e.kind {
                let c = e.ctx as usize;
                assert!(e.t >= last[c], "retire times must be monotone per ctx");
                last[c] = e.t;
            }
        }
    }

    #[test]
    fn bounded_trace_drops_and_counts_without_perturbing_timing() {
        let mut plain = machine();
        let bare = plain.run(traceable_program());

        let mut capped = machine();
        capped.enable_trace();
        capped.set_trace_capacity(4);
        let r = capped.run(traceable_program());
        assert_eq!(r, bare, "dropping trace events must not change the model");
        assert_eq!(capped.take_trace().len(), 4, "only the first `capacity` events survive");
        let dropped = capped.trace_dropped();
        assert!(dropped > 0, "this program emits more than 4 events");
        assert_eq!(capped.trace_dropped(), dropped, "count persists across take_trace");
        capped.reset_time();
        assert_eq!(capped.trace_dropped(), 0, "reset_time discards warm-up drops");
    }

    #[test]
    fn profiling_and_sampling_do_not_perturb_timing() {
        let mut plain = machine();
        let bare = plain.run(traceable_program());
        assert!(plain.take_profile().is_empty(), "no profile when off");
        assert!(plain.take_samples().is_empty(), "no samples when off");

        let mut instrumented = machine();
        instrumented.enable_profile(1024);
        let r = instrumented.run(traceable_program());
        assert_eq!(r, bare, "profiling must not change the model");

        // Per-op attribution covers every counter exactly: summing the
        // per-op deltas reproduces the end-of-run totals.
        let ops = instrumented.take_profile();
        assert!(!ops.is_empty());
        let mut sum = MemStats::default();
        for p in &ops {
            sum.accumulate(&p.stats);
        }
        assert_eq!(sum, r.mem, "op deltas must sum to run totals");
        // The gather's bus traffic lands on ctx1's copy op, not ctx0.
        let ctx1_bytes: u64 = ops.iter().filter(|p| p.ctx == 1).map(|p| p.stats.bus_bytes).sum();
        assert_eq!(ctx1_bytes, r.mem.bus_bytes);

        // Samples are cumulative, monotone, and end at the run totals.
        let samples = instrumented.take_samples();
        assert!(samples.len() >= 2);
        for w in samples.windows(2) {
            assert!(w[0].t < w[1].t);
            for (a, b) in w[0].stats.fields().iter().zip(w[1].stats.fields()) {
                assert!(a.1 <= b.1, "counter {} must be monotone", a.0);
            }
        }
        let last = samples.last().unwrap();
        assert_eq!(last.t, r.cycles);
        assert_eq!(last.stats, r.mem, "final sample must equal run totals");
    }

    /// One indexed gather over a small, reused table, then a loop over
    /// it, in both step modes with the profiler on (so event mode
    /// keeps chunk boundaries): identical results and samples, and the
    /// engine's own account adds up — every element on exactly one
    /// route, every exact element with a reason, every loop iteration
    /// counted once.
    #[test]
    fn engine_stats_account_for_every_indexed_copy_element() {
        let n = 4096u32;
        let indices: Vec<u32> = (0..n).map(|i| i * 7919 % 1024).collect();
        let table = AccessPattern::Indexed {
            base: 0x1000_0000,
            record: 8,
            field_offset: 0,
            field_bytes: 8,
            indices: indices.into(),
        };
        let copy = |nt| BulkOp::Copy {
            mem: table.clone(),
            srf_base: 0x8000_0000,
            dir: CopyDir::GatherToSrf,
            nt,
        };
        let out = AccessPattern::Seq { base: 0x2000_0000, elem: 8, count: u64::from(n) };
        let looped = BulkOp::Loop {
            patterns: vec![(table.clone(), Rw::Read), (out, Rw::Write)],
            uops_per_iter: 12,
            class: OpClass::Compute,
        };
        let run = |mode| {
            let mut m = machine();
            m.set_step_mode(mode);
            m.enable_profile(512);
            let r = m.run_single(vec![copy(false), copy(true), looped.clone()]);
            (r, m.take_samples(), m.engine_stats())
        };
        let (stepped, stepped_samples, by_step) = run(StepMode::Stepped);
        let (event, event_samples, by_event) = run(StepMode::Event);
        assert_eq!(event, stepped);
        assert_eq!(event_samples, stepped_samples);

        let total = 2 * u64::from(n);
        assert_eq!(by_step.copy_exact.items, total, "stepped mode steps everything");
        assert_eq!(by_step.exact_reasons[ExactReason::Stepped as usize], total);
        assert_eq!(by_event.copy_items(), total, "{by_event}");
        assert_eq!(by_event.copy_replayed.items, 0, "indexed patterns never replay");
        assert!(by_event.copy_in_order.items > total / 2, "a reused 8 KB table hits: {by_event}");
        assert_eq!(by_event.exact_reasons[ExactReason::Stepped as usize], 0);
        for e in [&by_step, &by_event] {
            assert_eq!(e.exact_reasons.iter().sum::<u64>(), e.copy_exact.items, "{e}");
            assert_eq!(e.loops.items, u64::from(n), "every iteration counted once: {e}");
        }
        assert_eq!(by_step.loops, by_event.loops, "both modes step every iteration");
        let covered = |e: &EngineStats| {
            e.copy_replayed.cycles + e.copy_in_order.cycles + e.copy_exact.cycles + e.loops.cycles
        };
        assert_eq!(covered(&by_event), event.ctx_cycles[0], "routes cover the context's cycles");
        assert_eq!(covered(&by_step), covered(&by_event));

        let mut m = machine();
        let _ = m.run_single(vec![copy(false)]);
        m.reset_time();
        assert_eq!(m.engine_stats(), EngineStats::default(), "reset_time clears the tally");
    }

    #[test]
    fn run_ends_only_when_bus_drains() {
        // A pure NT-store stream leaves posted writes on the bus after the
        // context retires; the wall clock must cover the drain so that
        // bus_busy_cycles <= cycles holds.
        let mem = AccessPattern::Seq { base: 0x2000_0000, elem: 4, count: 64 * 1024 };
        let mut m = machine();
        let r = m.run_single(vec![BulkOp::Copy {
            mem,
            srf_base: 0x8000_0000,
            dir: CopyDir::ScatterFromSrf,
            nt: true,
        }]);
        assert!(r.cycles >= r.ctx_cycles[0]);
        assert!(r.mem.bus_busy_cycles <= r.cycles, "bus occupancy cannot exceed the wall clock");
    }

    /// A two-context task program with a cross-context dependency chain:
    /// ctx1 gathers (signal 0), ctx0 computes after it (signal 1), ctx1
    /// scatters after that.
    fn task_program() -> [ContextProgram; 2] {
        let gather = AccessPattern::Seq { base: 0x1000_0000, elem: 4, count: 16 * 1024 };
        let scatter = AccessPattern::Seq { base: 0x2000_0000, elem: 4, count: 16 * 1024 };
        let compute = ContextProgram {
            ops: vec![BulkOp::Compute { uops: 20_000 }],
            tasks: vec![TaskNode {
                ops: 0..1,
                deps: vec![0],
                signal: Some(1),
                feeds_partner: true,
            }],
        };
        let memory = ContextProgram {
            ops: vec![
                BulkOp::Copy {
                    mem: gather,
                    srf_base: 0x8000_0000,
                    dir: CopyDir::GatherToSrf,
                    nt: false,
                },
                BulkOp::Copy {
                    mem: scatter,
                    srf_base: 0x8000_0000,
                    dir: CopyDir::ScatterFromSrf,
                    nt: true,
                },
            ],
            tasks: vec![
                TaskNode { ops: 0..1, deps: vec![], signal: Some(0), feeds_partner: true },
                TaskNode { ops: 1..2, deps: vec![1], signal: None, feeds_partner: false },
            ],
        };
        [compute, memory]
    }

    #[test]
    fn task_log_records_issues_without_perturbing_timing() {
        let mut plain = machine();
        let bare = plain.run_tasks(task_program(), WaitPolicy::Mwait, 16);
        assert!(plain.take_task_log().is_empty(), "no log when disabled");

        let mut logged = machine();
        logged.enable_task_log();
        let r = logged.run_tasks(task_program(), WaitPolicy::Mwait, 16);
        assert_eq!(r, bare, "task logging must not change the model");

        let log = logged.take_task_log();
        assert_eq!(log.len(), 3, "one record per issued entry: {log:?}");
        for rec in &log {
            assert_eq!(rec.issue_t.max(rec.ready_t) + rec.overhead, rec.start_t, "{rec:?}");
            assert!(rec.end_t >= rec.start_t, "{rec:?}");
        }
        // Records of one context are disjoint and ordered, and the last
        // end matches the context's retire cycle.
        for c in 0..2u8 {
            let mine: Vec<_> = log.iter().filter(|rec| rec.ctx == c).collect();
            for w in mine.windows(2) {
                assert!(w[0].end_t <= w[1].issue_t, "{:?} then {:?}", w[0], w[1]);
            }
            assert_eq!(mine.last().unwrap().end_t, r.ctx_cycles[c as usize]);
        }
        // The compute task waited on the gather: its waking dependency is
        // recorded and it paid the MWAIT dispatch.
        let compute = log.iter().find(|rec| rec.ctx == 0).unwrap();
        assert_eq!(compute.wake, Some(0));
        assert!(compute.dispatch_paid);
        assert_eq!(compute.start_t, compute.ready_t + 680);

        // A drained log stays enabled but starts empty.
        assert!(logged.take_task_log().is_empty());
    }

    #[test]
    fn phase_breakdown_accounts_for_run() {
        let mut m = machine();
        let r = m.run(traceable_program());
        let (c0, c1) = (&r.phases[0], &r.phases[1]);
        assert!(c0.compute > 0, "ctx0 ran compute: {c0:?}");
        assert_eq!(c0.memory, 0, "ctx0 issued no bulk copies: {c0:?}");
        assert!(c1.memory > 0, "ctx1 ran the gather: {c1:?}");
        assert!(c1.idle_wait > 0, "ctx1 waited for the signal: {c1:?}");
        assert!(c1.dispatch > 0, "resuming from MWAIT costs dispatch: {c1:?}");
        // Each context's buckets never exceed its finish time.
        assert!(c0.total() <= r.ctx_cycles[0]);
        assert!(c1.total() <= r.ctx_cycles[1]);
    }

    fn machine_n(contexts: usize) -> Machine {
        let mut cfg = MachineConfig::prescott();
        cfg.contexts = contexts;
        Machine::new(cfg)
    }

    #[test]
    fn one_context_machine_runs_single_thread() {
        let mut wide = machine_n(1);
        let narrow = wide.run(vec![vec![BulkOp::Compute { uops: 100_000 }]]);
        let mut two = machine();
        let idle_partner = two.run_single(vec![BulkOp::Compute { uops: 100_000 }]);
        assert_eq!(narrow.cycles, idle_partner.cycles, "an idle partner costs nothing");
        assert_eq!(narrow.ctx_cycles.len(), 1);
        assert_eq!(narrow.phases.len(), 1);
    }

    #[test]
    fn four_compute_contexts_on_one_core_compound_interference() {
        let mut cfg = MachineConfig::prescott();
        cfg.contexts = 4;
        cfg.smt.threads_per_core = 4;
        let mut m = Machine::new(cfg);
        let solo = machine().run_single(vec![BulkOp::Compute { uops: 100_000 }]).cycles;
        let progs: Vec<Vec<BulkOp>> =
            (0..4).map(|_| vec![BulkOp::Compute { uops: 100_000 }]).collect();
        let r = m.run(progs);
        assert_eq!(r.ctx_cycles.len(), 4);
        // Three computing siblings at 0.63 each => ~0.25x per-thread rate:
        // slower than two-way SMT, faster than serializing four threads.
        let two_way = {
            let mut m = machine();
            m.run([
                vec![BulkOp::Compute { uops: 100_000 }],
                vec![BulkOp::Compute { uops: 100_000 }],
            ])
            .cycles
        };
        assert!(
            r.cycles > two_way,
            "4-way sharing is slower than 2-way: {} vs {two_way}",
            r.cycles
        );
        let ratio = r.cycles as f64 / solo as f64;
        // 1 / 0.63^3 ~ 4.0 per thread; allow chunk-rounding slack.
        assert!((3.0..5.0).contains(&ratio), "4-way ratio = {ratio}");
    }

    #[test]
    fn separate_cores_do_not_share_issue_slots() {
        // Two contexts on *different* cores (threads_per_core = 1): no
        // issue interference, identical finish times to two solo runs.
        let mut cfg = MachineConfig::prescott();
        cfg.contexts = 2;
        cfg.smt.threads_per_core = 1;
        let mut m = Machine::new(cfg);
        let r = m.run([
            vec![BulkOp::Compute { uops: 100_000 }],
            vec![BulkOp::Compute { uops: 100_000 }],
        ]);
        let solo = machine().run_single(vec![BulkOp::Compute { uops: 100_000 }]).cycles;
        assert_eq!(r.ctx_cycles[0], solo, "separate cores run at full rate");
        assert_eq!(r.ctx_cycles[1], solo, "separate cores run at full rate");
    }

    #[test]
    fn n_context_task_ring_completes() {
        // A dependency ring across 4 contexts: each computes after its
        // predecessor signals. Exercises pick/issue with N > 2.
        let mut m = machine_n(4);
        let progs: Vec<ContextProgram> = (0..4u32)
            .map(|i| ContextProgram {
                ops: vec![BulkOp::Compute { uops: 10_000 }],
                tasks: vec![TaskNode {
                    ops: 0..1,
                    deps: if i == 0 { vec![] } else { vec![i - 1] },
                    signal: Some(i),
                    feeds_partner: i < 3,
                }],
            })
            .collect();
        let r = m.run_tasks(progs, WaitPolicy::Mwait, 16);
        assert_eq!(r.ctx_cycles.len(), 4);
        for w in r.ctx_cycles.windows(2) {
            assert!(w[0] < w[1], "chained contexts finish in order: {:?}", r.ctx_cycles);
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn n_context_task_deadlock_detected() {
        let mut m = machine_n(3);
        let progs: Vec<ContextProgram> = (0..3u32)
            .map(|i| ContextProgram {
                ops: vec![BulkOp::Compute { uops: 100 }],
                tasks: vec![TaskNode {
                    // 0 -> 1 -> 2 -> 0: a true cycle, nobody can start.
                    ops: 0..1,
                    deps: vec![(i + 2) % 3],
                    signal: Some(i),
                    feeds_partner: true,
                }],
            })
            .collect();
        let _ = m.run_tasks(progs, WaitPolicy::SpinPause, 16);
    }

    #[test]
    #[should_panic(expected = "must not exceed `page_bytes`")]
    fn line_larger_than_page_rejected() {
        let mut cfg = MachineConfig::prescott();
        cfg.page_bytes = 64;
        let _ = Machine::new(cfg);
    }

    #[test]
    #[should_panic(expected = "op streams")]
    fn too_many_programs_rejected() {
        let mut m = machine_n(1);
        let _ = m.run([Vec::new(), Vec::new()]);
    }
}
