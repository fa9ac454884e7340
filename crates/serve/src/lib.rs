//! # gpstream-serve — a multi-tenant streaming service harness
//!
//! The batch figures answer "how fast does one stream program run?";
//! this crate answers the serving question: what happens when stream
//! jobs — compiled catalog graphs fed one input chunk each — arrive
//! continuously from several tenants, and the runtime has to admit,
//! schedule and retire them under load?
//!
//! The pipeline, one stage per module:
//!
//! 1. [`job`] builds the workload's *variant table*: each `(kernel
//!    class, chunk size)` pair compiled once, then priced and oracle'd
//!    by one run on the simulated machine (the event-driven fast path,
//!    which the differential suite holds byte-identical to cycle
//!    stepping).
//! 2. [`load`] generates a deterministic open-loop Poisson arrival
//!    trace — seeded [`gpstream_util::Rng64`], a bit-exact `ln` — that
//!    never slows down because the service is busy.
//! 3. [`sched`] runs the service in virtual time: bounded admission
//!    with explicit retry-after, weighted fair sharing across tenants,
//!    batching of small jobs under backpressure, work-conserving
//!    dispatch to the least-loaded free worker.
//! 4. [`exec`] replays every completed job *functionally* on real
//!    threads — one [`gpstream_util::fanout::map`] over fixed partitions
//!    of the records — oracle-checks each output, and checks that every
//!    tenant's completed ids were replayed exactly once.
//! 5. [`telemetry`] is the run's one observer
//!    ([`sched::SchedObserver`]): riding the scheduler's event loop, it
//!    folds each resolved job once into windowed metric time series,
//!    per-tenant SLO burn rates, the latency distributions (exact, or
//!    bounded-memory sketches in sketch mode), a job-lifecycle span
//!    trace with per-tenant lanes and the kept records.
//! 6. [`report`] renders those distributions and the schedule's
//!    counters as the `latency` artifact and the terminal summary.
//!
//! The split between 3 and 4 is the determinism story: every *timing*
//! decision is virtual and seeded, so the artifact is byte-identical
//! across runs and across replay thread counts; the threads
//! only prove the jobs really execute. The telemetry plane hangs off
//! the virtual side of that split, so it inherits the same guarantee.

pub mod exec;
pub mod job;
pub mod load;
pub mod report;
pub mod sched;
pub mod telemetry;

pub use exec::ExecSummary;
pub use job::{build_table, VariantTable, WORKLOADS};
pub use load::{Arrivals, LoadConfig, OfferedJob};
pub use report::{artifact_json, render, LatencySummary, TenantLatency};
pub use sched::{
    schedule_stream, JobRecord, Outcome, RecordKeeper, SchedConfig, SchedObserver, SchedStats,
};
pub use telemetry::{ServeTelemetry, TelemetryOutcome, DEFAULT_SPAN_CAPACITY};

use gpstream_telemetry::SloTarget;
use gpstream_util::Sketch;

use gpstream_machine::WaitPolicy;
use gpstream_microbench::spinwait;

/// Default RNG seed (the paper's venue, MICRO 2005).
pub const DEFAULT_SEED: u64 = 0x6a79_2005;

/// Most offered jobs exact mode will accept. Exact estimators keep
/// per-distinct-value state and exact mode keeps every record for the
/// functional replay, so memory grows with the job count; past this
/// point a run must opt into bounded memory with sketch mode
/// ([`ServeConfig::sketch`], `figures serve --sketch`).
pub const EXACT_MODE_MAX_JOBS: usize = 200_000;

/// Most windows an explicit [`ServeConfig::window_cycles`] may cut the
/// offered trace into (each is a CSV row and a JSON object): a window
/// far shorter than the trace is a typo, not a resolution.
const MAX_SERIES_WINDOWS: u64 = 1 << 20;

/// Arrival-clock headroom: an exponential gap drawn from a 53-bit
/// uniform never exceeds ~37 means, so `jobs` arrivals and the service
/// that follows them end before `jobs * 64 * mean`.
const CLOCK_HEADROOM: u64 = 64;

/// Full configuration of one serving run. Zero/empty means "derive the
/// default" for the fields documented as such.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Offered jobs.
    pub jobs: usize,
    /// Offered arrival rate in jobs per second.
    pub rate: f64,
    /// Tenants sharing the service.
    pub tenants: usize,
    /// Service workers.
    pub workers: usize,
    /// Simulated contexts per worker.
    pub ctx: usize,
    /// Bounded admission (backpressure) vs. queue-everything.
    pub bounded: bool,
    /// Pending cap for bounded admission; 0 derives `64 * workers`.
    pub queue_cap: usize,
    /// Max jobs per dispatch batch.
    pub batch_max: usize,
    /// Retry-after signal in cycles; 0 derives the mean inter-arrival.
    pub retry_after: u64,
    /// Re-offers before a producer accepts rejection.
    pub max_retries: u32,
    /// Fair-share weights; empty derives all-equal.
    pub weights: Vec<u64>,
    /// Arrival shares; empty derives a hot tenant 0 (`3,1,1,...`).
    pub arrival_shares: Vec<u64>,
    /// RNG seed for the arrival trace.
    pub seed: u64,
    /// Threads the functional replay runs on (1 runs it inline on the
    /// caller). Never affects the artifact.
    pub exec_pool_threads: usize,
    /// Per-tenant SLO latency thresholds in cycles (total latency, each
    /// positive); empty derives `4 x (max service + dispatch)` for
    /// every tenant, a single value broadcasts to all tenants.
    pub slo_latency: Vec<u64>,
    /// SLO objective fraction shared by every tenant; 0 derives 0.99.
    pub slo_objective: f64,
    /// Telemetry/SLO tumbling-window length in cycles; 0 derives
    /// roughly 48 windows across the offered trace.
    pub window_cycles: u64,
    /// Bounded-memory mode: sketch quantile estimators and sampled
    /// record keeping (registry windows stream in both modes).
    /// Required above [`EXACT_MODE_MAX_JOBS`] offered jobs.
    pub sketch: bool,
    /// Sketch relative-error bound γ; 0 derives
    /// [`gpstream_util::sketch::DEFAULT_GAMMA`] (1%). The estimator
    /// rounds it down to the next power of two.
    pub sketch_gamma: f64,
    /// Span-trace buffer capacity in events; 0 derives
    /// [`DEFAULT_SPAN_CAPACITY`]. Overflow drops spans and counts them
    /// (`spans_dropped`), never grows the buffer.
    pub span_capacity: usize,
    /// Print a stderr progress heartbeat (roughly every 10% of offered
    /// jobs). Never affects artifacts; the CLI enables it only on a
    /// TTY and without `--quiet`.
    pub progress: bool,
}

impl ServeConfig {
    /// Defaults matching the committed artifacts: 10 000 jobs at
    /// 500 jobs/s from 4 tenants onto 2 two-context workers, bounded.
    #[must_use]
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            jobs: 10_000,
            rate: 500.0,
            tenants: 4,
            workers: 2,
            ctx: 2,
            bounded: true,
            queue_cap: 0,
            batch_max: 8,
            retry_after: 0,
            max_retries: 3,
            weights: Vec::new(),
            arrival_shares: Vec::new(),
            seed: DEFAULT_SEED,
            exec_pool_threads: 2,
            slo_latency: Vec::new(),
            slo_objective: 0.0,
            window_cycles: 0,
            sketch: false,
            sketch_gamma: 0.0,
            span_capacity: 0,
            progress: false,
        }
    }

    /// Check everything a caller can get wrong, before any work is
    /// done: the CLI reports the message as a usage error,
    /// [`schedule_service`] refuses a config that fails. The asserts
    /// further down the pipeline stay as internal invariants.
    ///
    /// # Errors
    ///
    /// One line naming the offending field (by its `figures serve`
    /// flag where it has one) and what it accepts.
    pub fn validate(&self) -> Result<(), String> {
        let &Self { jobs, rate, tenants, workers, ctx, window_cycles, .. } = self;
        let (objective, gamma) = (self.slo_objective, self.sketch_gamma);
        let ensure = |ok: bool, why: String| if ok { Ok(()) } else { Err(why) };
        let per_tenant = |given: usize| given == 0 || given == tenants;
        ensure(
            tenants > 0 && workers > 0 && self.batch_max > 0,
            "--tenants, --workers and batch_max need positive numbers".to_string(),
        )?;
        ensure((1..=64).contains(&ctx), format!("--ctx needs 1..=64 contexts, got {ctx}"))?;
        ensure(
            tenants + workers <= 256,
            format!("--tenants {tenants} + --workers {workers} exceed the 256 trace lanes"),
        )?;
        let clock_hz = self.freq_ghz() * 1e9;
        ensure(
            rate > 0.0 && rate <= clock_hz,
            format!("--rate needs 0 < jobs/s <= the {clock_hz:.1e} Hz simulated clock, got {rate}"),
        )?;
        let gap = self.mean_interarrival_cycles();
        let trace_cycles = (jobs as u64).checked_mul(gap);
        ensure(
            trace_cycles.is_some_and(|t| t.checked_mul(CLOCK_HEADROOM).is_some()),
            format!("--jobs {jobs} arriving {gap} cycles apart do not fit the 64-bit cycle clock"),
        )?;
        // The last arrival's re-offers land past that headroom; they must fit too.
        let (retry_after, max_retries) = (self.effective_retry_after(), self.max_retries);
        ensure(
            u64::from(max_retries)
                .checked_mul(retry_after)
                .zip(trace_cycles.and_then(|t| t.checked_mul(CLOCK_HEADROOM)))
                .is_some_and(|(retrying, headroom)| retrying.checked_add(headroom).is_some()),
            format!(
                "retry_after {retry_after} x max_retries {max_retries} re-offers after the last \
                 arrival overflow the 64-bit cycle clock"
            ),
        )?;
        ensure(
            window_cycles == 0 || trace_cycles.unwrap_or(0) / window_cycles <= MAX_SERIES_WINDOWS,
            format!(
                "--window {window_cycles} cuts the trace into over {MAX_SERIES_WINDOWS} windows"
            ),
        )?;
        ensure(
            per_tenant(self.weights.len()) && !self.weights.contains(&0),
            format!("weights needs one positive weight per tenant ({tenants})"),
        )?;
        ensure(
            per_tenant(self.arrival_shares.len())
                && (self.arrival_shares.is_empty() || self.arrival_shares.iter().any(|&s| s > 0)),
            format!("arrival_shares needs one share per tenant ({tenants}), not all zero"),
        )?;
        ensure(
            (self.slo_latency.len() == 1 || per_tenant(self.slo_latency.len()))
                && !self.slo_latency.contains(&0),
            format!("--slo-latency needs one positive threshold, or one per tenant ({tenants})"),
        )?;
        ensure(
            objective == 0.0 || (objective > 0.0 && objective < 1.0),
            "--slo-objective needs a fraction strictly between 0 and 1".to_string(),
        )?;
        ensure(
            gamma == 0.0 || Sketch::accepts_gamma(gamma),
            format!("--sketch-gamma needs a relative error in [2^-32, 0.5), got {gamma}"),
        )?;
        ensure(
            self.sketch || jobs <= EXACT_MODE_MAX_JOBS,
            format!(
                "--jobs {jobs} exceeds the exact-mode limit of {EXACT_MODE_MAX_JOBS} (every record \
                 and distinct latency is kept); larger runs must use sketch mode (--sketch)"
            ),
        )
    }

    /// The simulated clock, in GHz (the paper's 3.4 GHz Prescott).
    #[must_use]
    pub fn freq_ghz(&self) -> f64 {
        gpstream_machine::MachineConfig::prescott().freq_ghz
    }

    /// Mean inter-arrival gap in cycles for the offered rate.
    #[must_use]
    pub fn mean_interarrival_cycles(&self) -> u64 {
        assert!(self.rate > 0.0, "offered rate must be positive");
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cycles = (self.freq_ghz() * 1e9 / self.rate) as u64;
        cycles.max(1)
    }

    /// The pending cap actually used (`queue_cap`, or `64 * workers`).
    #[must_use]
    pub fn effective_queue_cap(&self) -> usize {
        if self.queue_cap == 0 {
            64 * self.workers
        } else {
            self.queue_cap
        }
    }

    /// The retry-after actually used (`retry_after`, or one mean
    /// inter-arrival gap — a producer backs off roughly one arrival).
    #[must_use]
    pub fn effective_retry_after(&self) -> u64 {
        if self.retry_after == 0 {
            self.mean_interarrival_cycles()
        } else {
            self.retry_after
        }
    }

    /// The weight vector actually used (all ones when unset).
    #[must_use]
    pub fn effective_weights(&self) -> Vec<u64> {
        if self.weights.is_empty() {
            vec![1; self.tenants]
        } else {
            assert_eq!(self.weights.len(), self.tenants, "one weight per tenant");
            self.weights.clone()
        }
    }

    /// The arrival shares actually used (hot tenant 0 when unset).
    #[must_use]
    pub fn effective_arrival_shares(&self) -> Vec<u64> {
        if self.arrival_shares.is_empty() {
            (0..self.tenants).map(|t| if t == 0 { 3 } else { 1 }).collect()
        } else {
            assert_eq!(self.arrival_shares.len(), self.tenants, "one share per tenant");
            self.arrival_shares.clone()
        }
    }

    /// The SLO objective actually used (0.99 when unset).
    #[must_use]
    pub fn effective_slo_objective(&self) -> f64 {
        if self.slo_objective == 0.0 {
            0.99
        } else {
            self.slo_objective
        }
    }

    /// The per-tenant SLO latency thresholds actually used.
    /// `default_cycles` is the derived fallback (the harness passes
    /// `4 x (max service + dispatch)`, generous enough that a healthy
    /// run meets it and a saturated one visibly burns budget); a single
    /// configured value broadcasts to every tenant.
    ///
    /// # Panics
    ///
    /// Panics if the configured vector is neither empty, a singleton,
    /// nor one threshold per tenant.
    #[must_use]
    pub fn effective_slo_latency(&self, default_cycles: u64) -> Vec<u64> {
        match self.slo_latency.len() {
            0 => vec![default_cycles; self.tenants],
            1 => vec![self.slo_latency[0]; self.tenants],
            n => {
                assert_eq!(n, self.tenants, "one SLO threshold per tenant");
                self.slo_latency.clone()
            }
        }
    }

    /// The telemetry window actually used: `window_cycles`, or roughly
    /// 48 windows across the offered trace (never below one mean
    /// inter-arrival gap).
    #[must_use]
    pub fn effective_window_cycles(&self) -> u64 {
        if self.window_cycles != 0 {
            return self.window_cycles;
        }
        let gap = self.mean_interarrival_cycles();
        (self.jobs as u64 * gap / 48).max(gap).max(1)
    }

    /// The sketch relative-error bound actually used (1% when unset).
    #[must_use]
    pub fn effective_sketch_gamma(&self) -> f64 {
        if self.sketch_gamma == 0.0 {
            gpstream_util::sketch::DEFAULT_GAMMA
        } else {
            self.sketch_gamma
        }
    }

    /// The span-trace capacity actually used, in events.
    #[must_use]
    pub fn effective_span_capacity(&self) -> usize {
        if self.span_capacity == 0 {
            DEFAULT_SPAN_CAPACITY
        } else {
            self.span_capacity
        }
    }

    /// Record-keeping stride: exact mode keeps every record; sketch
    /// mode keeps a deterministic 1-in-stride sample by job id (~1024
    /// records) for the functional replay and spot checks.
    #[must_use]
    pub fn record_stride(&self) -> usize {
        if self.sketch {
            (self.jobs / 1024).max(1)
        } else {
            1
        }
    }
}

/// The virtual half of one serving run: the schedule and every
/// aggregate derived from it, but no functional replay yet.
pub struct ScheduledService {
    /// Dispatch overhead charged per batch (measured MWAIT wake-up).
    pub dispatch_cycles: u64,
    /// Kept records, sorted by id — every offered job in exact mode, a
    /// deterministic 1-in-stride sample in sketch mode.
    pub records: Vec<JobRecord>,
    /// Scheduler counters.
    pub stats: SchedStats,
    /// The three latency distributions (exact or sketched per config).
    pub summary: LatencySummary,
    /// The telemetry plane's view of the run.
    pub telemetry: TelemetryOutcome,
}

/// Schedule `cfg`'s offered load against an already-built variant
/// table, streaming every job through the aggregation plane: arrivals
/// are drawn lazily, records retire into latency estimators, windowed
/// metrics, SLO accounting and the bounded span buffer as they
/// resolve. Memory is O(pending + latencies stamped into the open
/// windows + span capacity + kept records): in sketch mode nothing
/// else outlives a window — the run-wide state is a fixed set of
/// sketches — so for a given window length it is independent of the
/// job count. (The derived default cuts the trace into ~48 windows, so
/// there an open window buffers about 1/48 of the run's completions,
/// one 32-byte latency row each: ~7 MB at 10⁷ jobs.)
///
/// This is also what the benchmark's `serve-stream` and
/// `serve-overload` workloads time: the whole virtual pipeline without
/// the functional replay.
///
/// # Panics
///
/// Panics if `cfg` fails [`ServeConfig::validate`] — for one, if
/// `cfg.jobs` exceeds [`EXACT_MODE_MAX_JOBS`] without `cfg.sketch`:
/// exact mode keeps per-value and per-record state, which is exactly
/// what sketch mode exists to avoid.
#[must_use]
pub fn schedule_service(cfg: &ServeConfig, table: &VariantTable) -> ScheduledService {
    if let Err(why) = cfg.validate() {
        panic!("invalid serve config: {why}");
    }
    let arrivals = Arrivals::new(&LoadConfig {
        jobs: cfg.jobs,
        mean_interarrival: cfg.mean_interarrival_cycles(),
        tenants: cfg.tenants,
        arrival_shares: cfg.effective_arrival_shares(),
        variants: table.variants.len(),
        seed: cfg.seed,
    });
    // Dispatch overhead: the measured MONITOR/MWAIT wake-up latency on
    // the same machine the variants were priced on.
    let dispatch_cycles = spinwait::dispatch_latency(WaitPolicy::Mwait, &table.machine);
    let sched_cfg = SchedConfig {
        workers: cfg.workers,
        bounded: cfg.bounded,
        queue_cap: cfg.effective_queue_cap(),
        batch_max: cfg.batch_max,
        dispatch_cycles,
        retry_after: cfg.effective_retry_after(),
        max_retries: cfg.max_retries,
        weights: cfg.effective_weights(),
        check_invariants: cfg!(debug_assertions),
    };
    // SLO default: four times the worst-case single-job service time
    // (plus its dispatch fee) — met with headroom by a healthy run,
    // visibly burned through under saturation.
    let max_service = table.service_cycles().iter().copied().max().unwrap_or(0);
    let default_slo = 4 * (max_service + dispatch_cycles);
    let objective = cfg.effective_slo_objective();
    let targets: Vec<SloTarget> = cfg
        .effective_slo_latency(default_slo)
        .into_iter()
        .map(|cycles| SloTarget::new(cycles, objective))
        .collect();
    let mut plane = ServeTelemetry::new(cfg, &targets);
    let stats = sched::schedule_stream(arrivals, &table.service_cycles(), &sched_cfg, &mut plane);
    let (telemetry, summary, records) = plane.finish(cfg);
    ScheduledService { dispatch_cycles, records, stats, summary, telemetry }
}

/// Everything one serving run produced.
pub struct ServiceOutcome {
    /// The config the run used (defaults resolved where applicable).
    pub cfg: ServeConfig,
    /// Dispatch overhead charged per batch (measured MWAIT wake-up).
    pub dispatch_cycles: u64,
    /// Kept records, sorted by id — every offered job in exact mode, a
    /// deterministic 1-in-stride sample by id in sketch mode.
    pub records: Vec<JobRecord>,
    /// Scheduler counters.
    pub stats: SchedStats,
    /// The three latency distributions (exact or sketched per config).
    pub summary: LatencySummary,
    /// What the functional replay did (oracle-checked, exactly-once)
    /// with the kept records.
    pub exec: ExecSummary,
    /// The `latency` artifact document (single line + newline).
    pub artifact: String,
    /// Human-readable summary.
    pub text: String,
    /// The telemetry plane's view: windowed time series, SLO burn
    /// rates, span trace. Same determinism contract as `artifact`.
    pub telemetry: TelemetryOutcome,
}

/// Run the full service pipeline. Returns `None` for an unknown
/// workload name.
///
/// The artifact depends only on `(cfg minus exec_pool_threads)` — it is
/// byte-identical across runs and across replay thread counts.
///
/// # Panics
///
/// Panics if `cfg.jobs` exceeds [`EXACT_MODE_MAX_JOBS`] without
/// `cfg.sketch` (see [`schedule_service`]).
#[must_use]
pub fn run_service(cfg: &ServeConfig) -> Option<ServiceOutcome> {
    let table = build_table(&cfg.workload, cfg.ctx)?;
    let scheduled = schedule_service(cfg, &table);
    let ScheduledService { dispatch_cycles, records, stats, summary, telemetry } = scheduled;
    let exec = exec::execute(&table, &records, cfg.exec_pool_threads.max(1));
    let artifact = artifact_json(cfg, &stats, &summary, telemetry.spans_dropped).to_doc_string();
    let mut text = render(cfg, &stats, &summary);
    text.push_str(&telemetry.slo.render());
    Some(ServiceOutcome {
        cfg: cfg.clone(),
        dispatch_cycles,
        records,
        stats,
        summary,
        exec,
        artifact,
        text,
        telemetry,
    })
}

/// Estimated saturation rate (jobs/s) of `cfg`'s worker fleet: each job
/// costs its mean service time plus a dispatch fee.
#[must_use]
pub fn estimated_capacity_jobs_per_sec(cfg: &ServeConfig, table: &VariantTable) -> f64 {
    let dispatch = spinwait::dispatch_latency(WaitPolicy::Mwait, &table.machine);
    let per_job = table.mean_service_cycles() + dispatch;
    cfg.workers as f64 * cfg.freq_ghz() * 1e9 / per_job as f64
}

/// The backpressure ablation: the same overloaded trace (2x estimated
/// capacity) served twice — bounded admission vs. unbounded queueing.
/// Returns `(bounded, unbounded)`, or `None` for an unknown workload.
///
/// Under sustained overload the unbounded queue grows without limit and
/// p99 *total* latency scales with the whole backlog; bounded admission
/// sheds load at the door (paying rejects and bounded retry delay) and
/// keeps queues — and therefore tail latency — flat. The integration
/// suite asserts the p99 win rather than trusting this comment.
#[must_use]
pub fn ablation(base: &ServeConfig) -> Option<(ServiceOutcome, ServiceOutcome)> {
    let table = build_table(&base.workload, base.ctx)?;
    let overload_rate = 2.0 * estimated_capacity_jobs_per_sec(base, &table);
    let mut bounded_cfg = base.clone();
    bounded_cfg.rate = overload_rate;
    bounded_cfg.bounded = true;
    let mut unbounded_cfg = bounded_cfg.clone();
    unbounded_cfg.bounded = false;
    let bounded = run_service(&bounded_cfg)?;
    let unbounded = run_service(&unbounded_cfg)?;
    Some((bounded, unbounded))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_derive_sensibly() {
        let cfg = ServeConfig::new("mix");
        assert_eq!(cfg.effective_queue_cap(), 128);
        assert_eq!(cfg.effective_weights(), vec![1; 4]);
        assert_eq!(cfg.effective_arrival_shares(), vec![3, 1, 1, 1]);
        assert_eq!(cfg.effective_retry_after(), cfg.mean_interarrival_cycles());
        // 3.4 GHz at 500 jobs/s: 6.8M cycles between arrivals.
        assert_eq!(cfg.mean_interarrival_cycles(), 6_800_000);
    }

    #[test]
    fn validate_names_the_field_it_refuses() {
        let refused = |edit: fn(&mut ServeConfig)| {
            let mut cfg = ServeConfig::new("mix");
            edit(&mut cfg);
            cfg.validate().expect_err("must be refused")
        };
        assert_eq!(ServeConfig::new("mix").validate(), Ok(()));
        assert!(refused(|c| c.tenants = 0).contains("--tenants"));
        assert!(refused(|c| c.ctx = 300).contains("--ctx"));
        assert!(refused(|c| c.tenants = 300).contains("256 trace lanes"));
        assert!(refused(|c| c.workers = 300).contains("256 trace lanes"));
        assert!(refused(|c| c.batch_max = 0).contains("batch_max"));
        for rate in [f64::NAN, f64::INFINITY, 0.0, -1.0, 1e10] {
            let mut cfg = ServeConfig::new("mix");
            cfg.rate = rate;
            assert!(cfg.validate().expect_err("bad rate").contains("--rate"), "rate {rate}");
        }
        // 100 arrivals a saturated-u64 gap apart: the clock would wrap.
        let overflow = refused(|c| (c.jobs, c.rate) = (100, 1e-30));
        assert!(overflow.contains("do not fit the 64-bit cycle clock"), "{overflow}");
        // A library caller's retry-after that would wrap the clock.
        let wrap = refused(|c| (c.retry_after, c.max_retries) = (u64::MAX / 3, 3));
        assert!(wrap.contains("retry_after") && wrap.contains("max_retries"), "{wrap}");
        assert!(refused(|c| (c.jobs, c.window_cycles) = (100, 1)).contains("--window"));
        assert!(refused(|c| c.weights = vec![1, 1]).contains("weights"));
        assert!(refused(|c| c.weights = vec![1, 0, 1, 1]).contains("weights"));
        assert!(refused(|c| c.arrival_shares = vec![0; 4]).contains("arrival_shares"));
        assert!(refused(|c| c.slo_latency = vec![5, 6]).contains("--slo-latency"));
        assert!(refused(|c| c.slo_latency = vec![0]).contains("--slo-latency"));
        assert!(refused(|c| c.slo_latency = vec![5, 0, 5, 5]).contains("--slo-latency"));
        assert!(refused(|c| c.slo_objective = 1.0).contains("--slo-objective"));
        assert!(refused(|c| c.sketch_gamma = 0.9).contains("--sketch-gamma"));
        assert!(refused(|c| c.sketch_gamma = 1e-12).contains("--sketch-gamma"));
        assert!(refused(|c| c.jobs = EXACT_MODE_MAX_JOBS + 1).contains("--sketch"));
        // The same configs in range pass.
        let mut ok = ServeConfig::new("mix");
        (ok.jobs, ok.sketch, ok.sketch_gamma) = (EXACT_MODE_MAX_JOBS + 1, true, 0.25);
        (ok.slo_latency, ok.weights, ok.rate) = (vec![5], vec![2, 1, 1, 1], 3.4e9);
        (ok.retry_after, ok.max_retries) = (u64::MAX / 8, 3);
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(run_service(&ServeConfig::new("nope")).is_none());
    }

    #[test]
    fn small_run_completes_and_reports() {
        let mut cfg = ServeConfig::new("ldstcomp");
        cfg.jobs = 300;
        cfg.rate = 2_000.0;
        cfg.workers = 2;
        cfg.tenants = 3;
        let out = run_service(&cfg).expect("known workload");
        assert_eq!(out.stats.offered, 300);
        assert_eq!(out.stats.admitted, out.stats.completed);
        assert_eq!(out.exec.executed, out.stats.completed);
        assert!(out.artifact.contains("\"kind\":\"latency\""));
        assert!(out.artifact.ends_with('\n'));
        assert!(out.text.contains("ldstcomp"));
        assert!(out.dispatch_cycles > 0);
    }

    #[test]
    fn telemetry_totals_match_scheduler_stats() {
        let mut exact = ServeConfig::new("ldstcomp");
        (exact.jobs, exact.rate, exact.tenants, exact.queue_cap) = (400, 5_000.0, 3, 8);
        // Long and loaded enough that the run-wide sketches leave their
        // exact low-count path.
        let mut sketch = exact.clone();
        (sketch.jobs, sketch.rate, sketch.sketch) = (6_000, 20_000.0, true);
        for cfg in [exact, sketch] {
            let out = run_service(&cfg).expect("known workload");
            let s = &out.telemetry.series;
            let total = |name: &str| {
                let i = s.counter_names.iter().position(|n| n == name).expect("registered");
                s.counter_totals[i]
            };
            // The observer counts every decision the scheduler tallies —
            // and the registry asserts window deltas sum to these totals.
            assert_eq!(total("arrivals"), out.stats.offered + out.stats.retries);
            assert_eq!(total("admits"), out.stats.admitted);
            assert_eq!(total("reject_events"), out.stats.reject_events);
            assert_eq!(total("final_rejects"), out.stats.rejected);
            assert_eq!(total("batches"), out.stats.batches);
            assert_eq!(total("dispatch_cycles"), out.stats.dispatch_cycles_total);
            assert_eq!(total("completions"), out.stats.completed);
            assert_eq!(total("served_cycles"), out.stats.served_cycles.iter().sum::<u64>());
            for t in 0..cfg.tenants {
                let done = out.stats.completed_per_tenant[t];
                assert_eq!(total(&format!("tenant{t}_completed")), done);
            }
            // Histogram totals equal the report's run-wide distributions,
            // and those are the merge of the per-tenant ones.
            let summary = &out.summary;
            assert_eq!(summary.total.is_promoted(), cfg.sketch, "sketch {}", cfg.sketch);
            let hi = |name: &str| {
                let i = s.hist_names.iter().position(|n| n == name).expect("registered hist");
                &s.hist_totals[i]
            };
            assert_eq!(*hi("queue_cycles"), summary.queue);
            assert_eq!(*hi("service_cycles"), summary.service);
            assert_eq!(*hi("total_cycles"), summary.total);
            let mut merged = [(); 3].map(|()| summary.total.fresh_like());
            for t in &summary.per_tenant {
                merged[0].merge(&t.queue);
                merged[1].merge(&t.service);
                merged[2].merge(&t.total);
            }
            let run_wide = [&summary.queue, &summary.service, &summary.total];
            assert_eq!(merged.each_ref(), run_wide, "sketch {}", cfg.sketch);
            // SLO events cover every completion.
            let events: u64 = out.telemetry.slo.tenants.iter().map(|t| t.events).sum();
            assert_eq!(events, out.stats.completed);
            assert!(out.telemetry.slo_artifact.contains("\"kind\":\"slo\""));
            assert!(out.text.contains("SLO report"));
        }
    }

    #[test]
    fn span_trace_has_per_tenant_lanes_and_paired_slices() {
        let mut cfg = ServeConfig::new("ldstcomp");
        cfg.jobs = 120;
        cfg.rate = 2_000.0;
        cfg.tenants = 2;
        let out = run_service(&cfg).expect("known workload");
        let trace = &out.telemetry.trace;
        assert_eq!(trace.lanes.len(), cfg.tenants + cfg.workers);
        assert_eq!(trace.lanes[0], "tenant 0");
        assert_eq!(trace.lanes[cfg.tenants], "worker 0");
        let json = out.telemetry.chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""), "span slices missing");
        assert!(json.contains("\"cat\":\"queue\""));
        assert!(json.contains("\"cat\":\"service\""));
        assert!(json.contains("tenant 0") && json.contains("worker 0"));
        // Every completed job contributes exactly one queue and one
        // service slice (2 Start + 2 Finish events), plus one Enqueue
        // instant per admission and one Wakeup per batch.
        let slices = trace
            .events
            .iter()
            .filter(|e| e.kind == gpstream_core::trace::ExecEventKind::Finish)
            .count() as u64;
        assert_eq!(slices, 2 * out.stats.completed);
    }

    #[test]
    fn artifact_ignores_exec_pool_threads() {
        let mut cfg = ServeConfig::new("gatscat");
        cfg.jobs = 200;
        cfg.rate = 3_000.0;
        cfg.exec_pool_threads = 1;
        let a = run_service(&cfg).expect("known workload");
        cfg.exec_pool_threads = 4;
        let b = run_service(&cfg).expect("known workload");
        assert_eq!(a.artifact, b.artifact, "replay threads must not leak into the artifact");
        assert_eq!(
            a.telemetry.series.json, b.telemetry.series.json,
            "replay threads must not leak into the time series"
        );
        assert_eq!(a.telemetry.slo_artifact, b.telemetry.slo_artifact);
        assert_eq!(a.telemetry.series.csv, b.telemetry.series.csv);
    }
}
