//! Aggregate statistics reported by a simulation run.

use crate::trace::PhaseCycles;

/// Applies a macro to the full list of [`MemStats`] counter fields.
///
/// Keeping the list in one place guarantees the registry
/// ([`MemStats::fields`]), the delta/accumulate arithmetic, and every
/// downstream exporter agree on the counter set: adding a field here adds
/// it everywhere at compile time.
macro_rules! with_mem_stats_fields {
    ($m:ident) => {
        $m!(
            l1_accesses,
            l1_hits,
            l1_misses,
            l2_accesses,
            l2_hits,
            l2_misses,
            tlb_hits,
            tlb_misses,
            walk_cycles,
            writebacks,
            srf_evictions,
            hw_prefetch_covered,
            sw_prefetch_covered,
            wc_flushes,
            bus_bytes,
            bus_busy_cycles
        )
    };
}

/// Memory-system counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 data-cache accesses (cacheable loads; stores and non-temporal
    /// loads bypass the L1 in this model).
    pub l1_accesses: u64,
    /// L1 data-cache hits (loads only; stores are modeled at L2).
    pub l1_hits: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 accesses (every cacheable line access that reached the L2).
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (lines filled from memory).
    pub l2_misses: u64,
    /// DTLB hits.
    pub tlb_hits: u64,
    /// DTLB misses (hardware page walks).
    pub tlb_misses: u64,
    /// Total cycles spent walking page tables (serialized on one walker).
    pub walk_cycles: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Fills that evicted a line belonging to the SRF range.
    pub srf_evictions: u64,
    /// L2 misses whose latency was hidden by the hardware prefetcher.
    pub hw_prefetch_covered: u64,
    /// L2 misses whose latency was hidden by software (non-temporal)
    /// prefetching.
    pub sw_prefetch_covered: u64,
    /// Write-combining buffer flushes (non-temporal stores).
    pub wc_flushes: u64,
    /// Bytes moved over the front-side bus (fills + writebacks + NT stores).
    pub bus_bytes: u64,
    /// Cycles the front-side bus was occupied.
    pub bus_busy_cycles: u64,
}

impl MemStats {
    /// Number of counters in the registry.
    pub const NUM_FIELDS: usize = 16;

    /// The counter registry: every field as a `(name, value)` pair, in
    /// declaration order. Exporters iterate this instead of hard-coding
    /// field lists, so new counters propagate automatically.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); Self::NUM_FIELDS] {
        macro_rules! emit {
            ($($f:ident),+) => { [$((stringify!($f), self.$f)),+] };
        }
        with_mem_stats_fields!(emit)
    }

    /// Look a counter up by registry name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields().iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Field-wise difference `self - earlier` (saturating). Counters are
    /// monotonic within a run, so for two snapshots of the same run this
    /// is the activity between them.
    #[must_use]
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        macro_rules! emit {
            ($($f:ident),+) => { MemStats { $($f: self.$f.saturating_sub(earlier.$f)),+ } };
        }
        with_mem_stats_fields!(emit)
    }

    /// Field-wise accumulate `self += d`.
    pub fn accumulate(&mut self, d: &MemStats) {
        macro_rules! emit {
            ($($f:ident),+) => { $(self.$f += d.$f;)+ };
        }
        with_mem_stats_fields!(emit);
    }
}

/// One interval-sampler snapshot: the *cumulative* counters as of cycle
/// `t`. Consecutive samples differ by the activity in that interval, and
/// the final sample (taken at end of run) equals the run totals — so
/// interval deltas sum to the totals by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Cycle the sample was taken.
    pub t: u64,
    /// Cumulative counters at `t`.
    pub stats: MemStats,
}

/// Cycles and counter deltas attributed to one `(context, op)` pair by
/// the per-step profiler. Counters only move inside `Machine::step` for
/// the stepped context, so snapshotting around each step attributes them
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfile {
    /// Hardware context that executed the op.
    pub ctx: u8,
    /// Index of the op in that context's op stream.
    pub op: u32,
    /// Cycles the context spent stepping this op.
    pub cycles: u64,
    /// Counter deltas accumulated while stepping this op.
    pub stats: MemStats,
}

/// One issued work-queue entry, recorded by the task-issue log
/// (`Machine::enable_task_log`) during `Machine::run_tasks`.
///
/// Records capture the *executed* task DAG: `wake` is the dependency
/// edge that actually gated issue, consecutive records of one context
/// form the induced queue-occupancy edges, and `start_t`/`end_t` bound
/// the cycles the entry occupied its context. The critical-path
/// analyzer rebuilds the run from nothing but these records (plus the
/// schedule), which is what makes its what-if replays exact when
/// nothing is scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskIssue {
    /// Hardware context that issued the entry.
    pub ctx: u8,
    /// Index of the entry in its context's work queue.
    pub queue_index: u32,
    /// Context-local cycle when the issuer picked the entry (before any
    /// dequeue / wake-up overhead was paid).
    pub issue_t: u64,
    /// Cycle the entry's dependencies had all been signaled (0 when it
    /// has none).
    pub ready_t: u64,
    /// The dependency event whose signal determined `ready_t` — the
    /// dependency edge that actually gated issue (`None` when the entry
    /// has no dependencies).
    pub wake: Option<u32>,
    /// Dequeue or wake-up dispatch cycles paid before the ops began.
    pub overhead: u64,
    /// Whether `overhead` was a wake-up dispatch (the context sat idle
    /// until `ready_t`) rather than a plain dequeue.
    pub dispatch_paid: bool,
    /// Cycle the entry's first op started (after overhead).
    pub start_t: u64,
    /// Cycle the entry's last op retired (its completion signal time).
    pub end_t: u64,
}

/// Why the engine sent a copy element down the exact per-access path
/// instead of a batched route: the first condition that disqualified
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactReason {
    /// `StepMode::Stepped`: every access is stepped.
    Stepped,
    /// L1 and L2 line sizes differ, so event mode batches nothing.
    Geometry,
    /// A page it translates is not in the TLB.
    TlbMiss,
    /// Its load misses the L1 and will hit the L2.
    L1MissL2Hit,
    /// A line it touches is not in the L2.
    L2Miss,
    /// It straddles a cache line on one side (or has no bytes).
    SpansLines,
    /// The write-combining line is closed, elsewhere, or about to fill.
    WcClosed,
    /// The same-page translation shortcut would change mid-replay
    /// (affine replay only; the in-order run follows it).
    PageCarry,
    /// It stands alone before a line or chunk boundary: a replay of one.
    ShortRun,
}

impl ExactReason {
    /// Every reason, in discriminant order.
    pub const ALL: [ExactReason; 9] = [
        ExactReason::Stepped,
        ExactReason::Geometry,
        ExactReason::TlbMiss,
        ExactReason::L1MissL2Hit,
        ExactReason::L2Miss,
        ExactReason::SpansLines,
        ExactReason::WcClosed,
        ExactReason::PageCarry,
        ExactReason::ShortRun,
    ];

    /// Stable snake-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExactReason::Stepped => "stepped",
            ExactReason::Geometry => "geometry",
            ExactReason::TlbMiss => "tlb_miss",
            ExactReason::L1MissL2Hit => "l1_miss_l2_hit",
            ExactReason::L2Miss => "l2_miss",
            ExactReason::SpansLines => "spans_lines",
            ExactReason::WcClosed => "wc_closed",
            ExactReason::PageCarry => "page_carry",
            ExactReason::ShortRun => "short_run",
        }
    }
}

/// Work retired over one route: items (copy elements or loop
/// iterations) and the simulated cycles they covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retired {
    /// Copy elements or loop iterations.
    pub items: u64,
    /// Simulated cycles those items advanced their context by.
    pub cycles: u64,
}

impl Retired {
    pub(crate) fn add(&mut self, items: u64, cycles: u64) {
        self.items += items;
        self.cycles += cycles;
    }
}

/// How the engine retired a run's bulk work — the harness observing
/// itself, not the simulated machine. Host-side only: stepped and event
/// mode differ here by design, so this is never a field of
/// [`RunResult`], [`MemStats`] or any artifact. Read it through
/// `Machine::engine_stats`; cleared by `Machine::reset_time`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Copy elements retired by the arithmetic same-line replay
    /// (`Seq`/`Strided` patterns).
    pub copy_replayed: Retired,
    /// Copy elements retired by the in-order hit run (`Indexed`).
    pub copy_in_order: Retired,
    /// Copy elements stepped through the exact per-access path.
    pub copy_exact: Retired,
    /// Loop iterations, every one stepped through the exact per-access
    /// path.
    pub loops: Retired,
    /// Exact copy elements by [`ExactReason`] (indexed by
    /// discriminant); sums to `copy_exact.items`.
    pub exact_reasons: [u64; ExactReason::ALL.len()],
    /// Blocked-partner spans taken (`step_op_span`).
    pub spans: u64,
    /// Iterations of the `run` / `run_tasks` scheduling loop.
    pub sched_iters: u64,
}

impl EngineStats {
    pub(crate) fn exact_copy(&mut self, why: ExactReason, items: u64, cycles: u64) {
        self.copy_exact.add(items, cycles);
        self.exact_reasons[why as usize] += items;
    }

    /// Copy elements retired over all three routes.
    #[must_use]
    pub fn copy_items(&self) -> u64 {
        self.copy_replayed.items + self.copy_in_order.items + self.copy_exact.items
    }
}

/// One line: per copy route its share of items / share of cycles, the
/// loop iterations, then the exact copy path's reasons, most frequent
/// first.
impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routes = [
            ("replayed", self.copy_replayed),
            ("in-order", self.copy_in_order),
            ("exact", self.copy_exact),
        ];
        let (items, cycles) = (self.copy_items(), routes.iter().map(|(_, r)| r.cycles).sum());
        write!(f, "copy {items} elems {cycles} cyc [")?;
        let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
        for (k, (name, r)) in routes.iter().enumerate() {
            let sep = if k == 0 { "" } else { " " };
            let (pi, pc) = (pct(r.items, items), pct(r.cycles, cycles));
            write!(f, "{sep}{name} {pi:.1}%/{pc:.1}%")?;
        }
        write!(f, "]; loop {} iters {} cyc", self.loops.items, self.loops.cycles)?;
        let mut reasons: Vec<(ExactReason, u64)> = ExactReason::ALL
            .into_iter()
            .map(|r| (r, self.exact_reasons[r as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        reasons.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        write!(f, "; exact by reason:")?;
        if reasons.is_empty() {
            write!(f, " none")?;
        }
        for (k, (r, n)) in reasons.iter().enumerate() {
            write!(f, "{} {} {n}", if k == 0 { "" } else { "," }, r.name())?;
        }
        write!(f, "; spans {}, scheduling iterations {}", self.spans, self.sched_iters)
    }
}

/// Result of running N op streams to completion (one per hardware
/// context; the machine's `contexts` knob sets the length of the
/// per-context vectors).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Cycle at which each context retired its last op.
    pub ctx_cycles: Vec<u64>,
    /// Wall-clock cycles for the whole run: the later of the last context
    /// retirement and the final bus drain (posted non-temporal stores and
    /// writebacks may still occupy the bus after the issuing context has
    /// retired; the run is not over until they land).
    pub cycles: u64,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Per-context cycle attribution (compute / memory / wait /
    /// dispatch), accumulated whether or not event tracing is on.
    pub phases: Vec<PhaseCycles>,
}

impl RunResult {
    /// Seconds at the given clock frequency.
    #[must_use]
    pub fn secs(&self, freq_ghz: f64) -> f64 {
        self.cycles as f64 / (freq_ghz * 1e9)
    }

    /// Achieved bandwidth in GB/s for `useful_bytes` of payload.
    #[must_use]
    pub fn bandwidth_gbps(&self, useful_bytes: u64, freq_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        useful_bytes as f64 / self.secs(freq_ghz) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let r =
            RunResult { ctx_cycles: vec![3_400_000, 0], cycles: 3_400_000, ..RunResult::default() };
        // 3.4M cycles at 3.4GHz = 1 ms; 1 MB in 1 ms = 1 GB/s.
        let bw = r.bandwidth_gbps(1_000_000, 3.4);
        assert!((bw - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_zero_bandwidth() {
        let r = RunResult::default();
        assert_eq!(r.bandwidth_gbps(100, 3.4), 0.0);
    }

    #[test]
    fn registry_covers_every_field() {
        let s = MemStats { l1_accesses: 1, bus_busy_cycles: 9, ..MemStats::default() };
        let f = s.fields();
        assert_eq!(f.len(), MemStats::NUM_FIELDS);
        assert_eq!(f[0], ("l1_accesses", 1));
        assert_eq!(f[MemStats::NUM_FIELDS - 1], ("bus_busy_cycles", 9));
        assert_eq!(s.field("bus_busy_cycles"), Some(9));
        assert_eq!(s.field("nope"), None);
    }

    #[test]
    fn delta_and_accumulate_round_trip() {
        let a = MemStats { l1_hits: 10, l2_misses: 3, ..MemStats::default() };
        let mut b = a;
        b.l1_hits = 25;
        b.bus_bytes = 640;
        let d = b.delta(&a);
        assert_eq!(d.l1_hits, 15);
        assert_eq!(d.l2_misses, 0);
        assert_eq!(d.bus_bytes, 640);
        let mut back = a;
        back.accumulate(&d);
        assert_eq!(back, b);
    }
}
