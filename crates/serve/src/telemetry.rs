//! The serving harness's telemetry plane: the one [`SchedObserver`] of
//! a serving run. From the scheduler's own event loop it feeds windowed
//! metrics, per-tenant SLO accounting, the per-tenant latency
//! distributions and job-lifecycle spans, keeps the sampled records and
//! ticks the stderr heartbeat — each completed job decomposed into
//! queue/service/total latency once.
//!
//! Everything is stamped in the scheduler's virtual time, so the whole
//! plane inherits the byte-identical determinism guarantee: time
//! series, SLO artifact, latency summary and span trace depend only on
//! the schedule, never on pool thread counts or wall clocks. The
//! observer is write-only during the run (the scheduler cannot see it),
//! and [`ServeTelemetry::finish`] folds it into a [`TelemetryOutcome`],
//! a [`LatencySummary`] and the kept records.
//!
//! Two properties make the plane safe at 10⁶–10⁷ jobs:
//!
//! * **Streaming registry.** The metrics registry is always wrapped in
//!   a [`StreamingTelemetry`]: the scheduler's event-loop clock is a
//!   watermark, windows strictly behind it are finalized, flushed
//!   through the incremental CSV/JSON appenders and evicted, so
//!   registry memory is O(open windows) regardless of run length, in
//!   exact and sketch mode alike. Latency stamps land at a job's *finish* cycle, which is
//!   ahead of the event-loop clock (a dispatched batch finishes in the
//!   future) — that is exactly the watermark-safe direction, so the
//!   wrapper only ever advances past windows nothing can stamp into
//!   anymore.
//! * **Bounded span buffer.** The span trace keeps at most a
//!   configurable number of events; once full, new spans are dropped
//!   and counted (`spans_dropped`), mirroring the machine-level
//!   `TraceBuffer`. Task ids are assigned compactly as spans are
//!   actually kept, so the name table scales with the buffer, not with
//!   the offered job count.
//!
//! The span model reuses the executor-level Chrome-trace vocabulary
//! ([`ExecEventKind`]) rather than inventing a new one:
//!
//! * lane per **tenant** (queue residency) then lane per **worker**
//!   (service), so a run opens in a trace viewer with per-tenant lanes;
//! * each job gets a *queue* slice (admission → service start, on its
//!   tenant's lane) and a *service* slice (start → finish, on its
//!   worker's lane);
//! * admission is an `Enqueue` instant, a bounced offer a `DepWait`
//!   instant (the producer is blocked by backpressure; the mask is the
//!   attempt number), and each batch dispatch a `Wakeup` instant on the
//!   worker lane carrying the dispatch fee it paid.

use crate::load::OfferedJob;
use crate::report::{LatencySummary, TenantLatency};
use crate::sched::{JobRecord, Outcome, RecordKeeper, SchedObserver};
use crate::ServeConfig;
use gpstream_core::trace::{chrome_trace, ExecEvent, ExecEventKind, TraceRun};
use gpstream_core::TaskId;
use gpstream_telemetry::{
    CounterId, GaugeId, HistId, SloReport, SloTarget, SloTracker, StreamedSeries,
    StreamingTelemetry, Telemetry,
};
use gpstream_util::{Json, Sketch};
use std::collections::BTreeMap;

/// Default span-trace capacity in events (not jobs): enough to hold a
/// full default 10⁴-job run (~6 events per completed job) with room to
/// spare, small enough that a 10⁷-job run stays bounded.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 18;

/// A capacity-bounded span-event buffer with compact task-id
/// assignment. Once the buffer is full new events are dropped and
/// counted, never silently lost — the same contract as the machine
/// trace's `TraceBuffer`.
struct SpanBuffer {
    events: Vec<ExecEvent>,
    capacity: usize,
    dropped: u64,
    /// `(job id, is_service)` → compact task id, assigned in the order
    /// tasks first appear in a *kept* event.
    task_ids: BTreeMap<(usize, bool), u32>,
    task_names: Vec<String>,
    task_cats: Vec<&'static str>,
}

impl SpanBuffer {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
            task_ids: BTreeMap::new(),
            task_names: Vec::new(),
            task_cats: Vec::new(),
        }
    }

    /// The compact task id for a job's queue or service slice, naming
    /// it on first use. Only called on the kept path, so the name table
    /// scales with the buffer.
    fn task(&mut self, job: usize, is_service: bool, name: impl FnOnce() -> String) -> TaskId {
        if let Some(&id) = self.task_ids.get(&(job, is_service)) {
            return TaskId(id);
        }
        let id = u32::try_from(self.task_names.len()).expect("span task table fits u32");
        self.task_ids.insert((job, is_service), id);
        self.task_names.push(name());
        self.task_cats.push(if is_service { "service" } else { "queue" });
        TaskId(id)
    }

    /// Room for `n` more events? Counts the whole group as dropped when
    /// not — pairs are kept or dropped atomically so the exporter's
    /// Start/Finish pairing never sees a widowed event.
    fn reserve(&mut self, n: usize) -> bool {
        if self.events.len() + n > self.capacity {
            self.dropped += n as u64;
            return false;
        }
        true
    }
}

/// A stderr progress heartbeat: one line roughly every 10% of offered
/// jobs. Writes only to stderr, so it can never perturb an artifact.
struct Heartbeat {
    enabled: bool,
    total: u64,
    resolved: u64,
    step: u64,
    next_mark: u64,
}

impl Heartbeat {
    fn new(enabled: bool, total: u64) -> Self {
        let step = (total / 10).max(1);
        Self { enabled, total, resolved: 0, step, next_mark: step }
    }

    fn tick(&mut self) {
        self.resolved += 1;
        if self.enabled && self.resolved >= self.next_mark {
            eprintln!("serve: {}/{} jobs resolved", self.resolved, self.total);
            self.next_mark += self.step;
        }
    }
}

/// The scheduler observer of a serving run.
pub struct ServeTelemetry {
    reg: StreamingTelemetry,
    slo: SloTracker,
    c_arrivals: CounterId,
    c_admits: CounterId,
    c_rejects: CounterId,
    c_final_rejects: CounterId,
    c_batches: CounterId,
    c_dispatch_cycles: CounterId,
    c_completions: CounterId,
    c_served_cycles: CounterId,
    c_tenant_completed: Vec<CounterId>,
    g_pending: GaugeId,
    h_queue: HistId,
    h_service: HistId,
    h_total: HistId,
    per_tenant: Vec<TenantLatency>,
    keeper: RecordKeeper,
    heartbeat: Heartbeat,
    spans: SpanBuffer,
    tenants: usize,
}

impl ServeTelemetry {
    /// The observer for one run of `cfg`, with one SLO target per
    /// tenant. Everything else comes from `cfg`: the window, tenant and
    /// worker lanes, exact or sketched latency distributions
    /// ([`ServeConfig::sketch`]), the span capacity, the record stride
    /// and the heartbeat.
    ///
    /// # Panics
    ///
    /// Panics if the target count disagrees with the tenant count, if
    /// `tenants + workers` exceeds the 256 trace lanes an event's
    /// `who: u8` can name, or if the span capacity is zero.
    #[must_use]
    pub fn new(cfg: &ServeConfig, targets: &[SloTarget]) -> Self {
        let &ServeConfig { tenants, workers, .. } = cfg;
        assert_eq!(targets.len(), tenants, "one SLO target per tenant");
        assert!(tenants + workers <= 256, "trace lanes are indexed by a u8");
        let window_cycles = cfg.effective_window_cycles();
        let mut tel = Telemetry::new(window_cycles);
        let mut slo = SloTracker::new(window_cycles);
        for (t, target) in targets.iter().enumerate() {
            let _ = slo.tenant(&format!("tenant{t}"), *target);
        }
        let c_arrivals = tel.counter("arrivals");
        let c_admits = tel.counter("admits");
        let c_rejects = tel.counter("reject_events");
        let c_final_rejects = tel.counter("final_rejects");
        let c_batches = tel.counter("batches");
        let c_dispatch_cycles = tel.counter("dispatch_cycles");
        let c_completions = tel.counter("completions");
        let c_served_cycles = tel.counter("served_cycles");
        let c_tenant_completed =
            (0..tenants).map(|t| tel.counter(&format!("tenant{t}_completed"))).collect();
        let g_pending = tel.gauge("pending");
        let sketch_gamma = cfg.sketch.then(|| cfg.effective_sketch_gamma());
        let hist = |tel: &mut Telemetry, name: &str| match sketch_gamma {
            Some(gamma) => tel.hist_sketch(name, gamma),
            None => tel.hist(name),
        };
        let h_queue = hist(&mut tel, "queue_cycles");
        let h_service = hist(&mut tel, "service_cycles");
        let h_total = hist(&mut tel, "total_cycles");
        let template = sketch_gamma.map_or_else(Sketch::exact, Sketch::new);
        Self {
            reg: StreamingTelemetry::new(tel),
            slo,
            c_arrivals,
            c_admits,
            c_rejects,
            c_final_rejects,
            c_batches,
            c_dispatch_cycles,
            c_completions,
            c_served_cycles,
            c_tenant_completed,
            g_pending,
            h_queue,
            h_service,
            h_total,
            per_tenant: (0..tenants).map(|_| TenantLatency::fresh(&template)).collect(),
            keeper: RecordKeeper::new(cfg.record_stride()),
            heartbeat: Heartbeat::new(cfg.progress, cfg.jobs as u64),
            spans: SpanBuffer::new(cfg.effective_span_capacity()),
            tenants,
        }
    }

    fn tenant_lane(&self, tenant: usize) -> u8 {
        u8::try_from(tenant).expect("tenant lane fits u8")
    }

    fn worker_lane(&self, worker: usize) -> u8 {
        u8::try_from(self.tenants + worker).expect("worker lane fits u8")
    }

    fn queue_task(&mut self, id: usize, tenant: usize) -> TaskId {
        self.spans.task(id, false, || format!("job {id} queue (t{tenant})"))
    }

    /// A refused offer: one `reject_events` count and a `DepWait`
    /// instant on the tenant's lane, its mask the attempt number.
    fn refuse(&mut self, now: u64, id: usize, tenant: usize, attempt: u32) {
        self.reg.advance(now);
        self.reg.add(self.c_rejects, now, 1);
        if self.spans.reserve(1) {
            let who = self.tenant_lane(tenant);
            let task = Some(self.queue_task(id, tenant));
            self.spans.events.push(ExecEvent {
                ts: now,
                who,
                task,
                kind: ExecEventKind::DepWait { mask: u64::from(attempt) },
            });
        }
    }

    /// Fold the observed run into what it produced: the exported
    /// telemetry, the latency summary — its run-wide distributions are
    /// the registry's run totals — and the kept records, sorted by id.
    /// `cfg` labels the trace and the SLO artifact.
    ///
    /// # Panics
    ///
    /// Panics if the flushed window deltas fail to re-merge into the
    /// run totals (the sum-to-total invariant).
    #[must_use]
    pub fn finish(self, cfg: &ServeConfig) -> (TelemetryOutcome, LatencySummary, Vec<JobRecord>) {
        let series = self.reg.finish();
        let [queue, service, total] = <[Sketch; 3]>::try_from(series.hist_totals.clone())
            .expect("the registry's histograms are queue, service and total");
        let summary = LatencySummary { queue, service, total, per_tenant: self.per_tenant };
        let slo = self.slo.report();
        let slo_artifact = slo
            .artifact_json(
                &cfg.workload,
                &[
                    ("jobs", Json::from(cfg.jobs)),
                    ("rate_jobs_per_sec", Json::F64(cfg.rate)),
                    ("tenants", Json::from(cfg.tenants)),
                    ("workers", Json::from(cfg.workers)),
                    ("bounded", Json::from(cfg.bounded)),
                    ("seed", Json::U64(cfg.seed)),
                    ("freq_ghz", Json::F64(cfg.freq_ghz())),
                ],
            )
            .to_doc_string();

        let mut lanes: Vec<String> = (0..cfg.tenants).map(|t| format!("tenant {t}")).collect();
        lanes.extend((0..cfg.workers).map(|w| format!("worker {w}")));
        let spans_dropped = self.spans.dropped;
        let trace = TraceRun {
            name: format!("serve-{}", cfg.workload),
            ticks_per_us: cfg.freq_ghz() * 1e3,
            lanes,
            task_names: self.spans.task_names,
            task_cats: self.spans.task_cats,
            events: self.spans.events,
            dropped: spans_dropped,
        };
        let telemetry = TelemetryOutcome { series, slo, slo_artifact, trace, spans_dropped };
        (telemetry, summary, self.keeper.into_records())
    }
}

impl SchedObserver for ServeTelemetry {
    fn on_arrival(&mut self, now: u64, _job: &OfferedJob, _attempt: u32) {
        self.reg.advance(now);
        self.reg.add(self.c_arrivals, now, 1);
    }

    fn on_reject(&mut self, now: u64, job: &OfferedJob, attempt: u32) {
        self.refuse(now, job.id, job.tenant, attempt);
    }

    fn on_rejected(&mut self, rec: &JobRecord) {
        let Outcome::Rejected { last_attempt } = rec.outcome else {
            unreachable!("on_rejected only fires for rejected jobs");
        };
        self.refuse(last_attempt, rec.id, rec.tenant, rec.attempts);
        self.reg.add(self.c_final_rejects, last_attempt, 1);
        self.keeper.keep(rec);
        self.heartbeat.tick();
    }

    fn on_admit(&mut self, now: u64, job: &OfferedJob, _attempt: u32, pending: usize) {
        self.reg.advance(now);
        self.reg.add(self.c_admits, now, 1);
        self.reg.set(self.g_pending, now, pending as u64);
        if self.spans.reserve(1) {
            let who = self.tenant_lane(job.tenant);
            let task = Some(self.queue_task(job.id, job.tenant));
            self.spans.events.push(ExecEvent { ts: now, who, task, kind: ExecEventKind::Enqueue });
        }
    }

    fn on_dispatch(
        &mut self,
        now: u64,
        worker: usize,
        _tenant: usize,
        _batch: usize,
        dispatch_cycles: u64,
        pending: usize,
    ) {
        self.reg.advance(now);
        self.reg.add(self.c_batches, now, 1);
        self.reg.add(self.c_dispatch_cycles, now, dispatch_cycles);
        self.reg.set(self.g_pending, now, pending as u64);
        if self.spans.reserve(1) {
            self.spans.events.push(ExecEvent {
                ts: now,
                who: self.worker_lane(worker),
                task: None,
                kind: ExecEventKind::Wakeup { dispatch: dispatch_cycles },
            });
        }
    }

    fn on_complete(&mut self, rec: &JobRecord) {
        let Outcome::Completed { admit, start, finish, worker } = rec.outcome else {
            unreachable!("on_complete only fires for completed jobs");
        };
        let (queue, service, total) = (start - admit, finish - start, finish - rec.arrival);
        // Windowed metrics are stamped at the *finish* cycle: a latency
        // is only known once the job completes, and filing it where it
        // completed is what makes window deltas sum to run totals. The
        // finish lies ahead of the event-loop clock, so these stamps
        // never land behind the streaming watermark.
        self.reg.add(self.c_completions, finish, 1);
        self.reg.add(self.c_served_cycles, finish, service);
        self.reg.add(self.c_tenant_completed[rec.tenant], finish, 1);
        self.reg.observe(self.h_queue, finish, queue);
        self.reg.observe(self.h_service, finish, service);
        self.reg.observe(self.h_total, finish, total);
        self.per_tenant[rec.tenant].record(queue, service, total);
        self.slo.record(rec.tenant, finish, total);
        self.keeper.keep(rec);
        self.heartbeat.tick();

        let tenant = self.tenant_lane(rec.tenant);
        let worker = self.worker_lane(worker);
        // Start precedes Finish in event order (the exporter pairs by
        // order, not by timestamp), so emit each slice's pair together
        // — and keep or drop it atomically.
        if self.spans.reserve(2) {
            let qt = Some(self.queue_task(rec.id, rec.tenant));
            self.spans.events.extend([
                ExecEvent { ts: admit, who: tenant, task: qt, kind: ExecEventKind::Start },
                ExecEvent { ts: start, who: tenant, task: qt, kind: ExecEventKind::Finish },
            ]);
        }
        if self.spans.reserve(2) {
            let (id, variant) = (rec.id, rec.variant);
            let st = Some(self.spans.task(id, true, || format!("job {id} service (v{variant})")));
            self.spans.events.extend([
                ExecEvent { ts: start, who: worker, task: st, kind: ExecEventKind::Start },
                ExecEvent { ts: finish, who: worker, task: st, kind: ExecEventKind::Finish },
            ]);
        }
    }
}

/// The telemetry plane's exported view of one serving run.
#[derive(Debug, Clone)]
pub struct TelemetryOutcome {
    /// The windowed metric series: names, run totals and the CSV/JSON
    /// documents appended window by window as the run progressed (the
    /// delta-sum invariants already asserted). The per-window data
    /// lives in the documents, not in memory.
    pub series: StreamedSeries,
    /// Per-tenant SLO accounting.
    pub slo: SloReport,
    /// The `slo` artifact document (single line + newline).
    pub slo_artifact: String,
    /// The job-lifecycle span trace (per-tenant queue lanes, per-worker
    /// service lanes), bounded; see `spans_dropped`.
    pub trace: TraceRun,
    /// Span events the bounded buffer dropped at capacity.
    pub spans_dropped: u64,
}

impl TelemetryOutcome {
    /// The span trace as Chrome `trace_event` JSON.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        chrome_trace(std::slice::from_ref(&self.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{Arrivals, LoadConfig};
    use crate::sched::{schedule_stream, SchedConfig};

    #[test]
    fn exact_mode_streams_windows_out_of_the_registry_in_order() {
        // A 20 000-job overloaded run through an *exact-mode* plane — a
        // panic while exact mode kept a materialized registry.
        let mut cfg = ServeConfig::new("synthetic");
        (cfg.tenants, cfg.workers, cfg.window_cycles, cfg.span_capacity) = (3, 2, 250_000, 64);
        let tenants = cfg.tenants;
        let targets = vec![SloTarget::new(1_000_000, 0.99); tenants];
        let mut plane = ServeTelemetry::new(&cfg, &targets);
        let arrivals = Arrivals::new(&LoadConfig {
            jobs: 20_000,
            mean_interarrival: 9_000,
            tenants,
            arrival_shares: vec![3, 1, 1],
            variants: 2,
            seed: 7,
        });
        let sched = SchedConfig {
            workers: cfg.workers,
            bounded: true,
            queue_cap: 16,
            batch_max: 4,
            dispatch_cycles: 400,
            retry_after: 9_000,
            max_retries: 2,
            weights: vec![1; tenants],
            check_invariants: true,
        };
        let stats = schedule_stream(arrivals, &[15_000, 30_000], &sched, &mut plane);
        assert!(stats.rejected > 0 && stats.retries > 0, "the run must exercise every counter");

        // Residency is O(open windows): when the last event has been
        // handled every window behind the clock has already left the
        // registry, and only the tail the last batch finishes in remains.
        let evicted_during_run = plane.reg.windows_flushed();
        let series = plane.finish(&cfg).0.series;
        assert!(evicted_during_run > 500, "a long run: {evicted_during_run} windows");
        assert!(series.windows_flushed - evicted_during_run <= 2, "closed windows stayed resident");
        assert_eq!(series.hist_totals[0].kind(), "exact");

        // The streamed CSV holds every window once, in order, dense
        // from 0 ...
        let mut lines = series.csv.lines();
        let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
        let rows: Vec<Vec<u64>> = lines
            .map(|row| row.split(',').map(|cell| cell.parse().expect("integer cell")).collect())
            .collect();
        assert_eq!(rows.len() as u64, series.windows_flushed);
        assert!(rows.iter().enumerate().all(|(i, row)| row[0] == i as u64));
        // ... and its summed counter deltas are the scheduler's tallies.
        let summed = |name: &str| {
            let i = header.iter().position(|&n| n == name).expect("exported column");
            rows.iter().map(|row| row[i]).sum::<u64>()
        };
        assert_eq!(summed("arrivals"), stats.offered + stats.retries);
        assert_eq!(summed("admits"), stats.admitted);
        assert_eq!(summed("reject_events"), stats.reject_events);
        assert_eq!(summed("final_rejects"), stats.rejected);
        assert_eq!(summed("batches"), stats.batches);
        assert_eq!(summed("dispatch_cycles"), stats.dispatch_cycles_total);
        assert_eq!(summed("completions"), stats.completed);
        assert_eq!(summed("served_cycles"), stats.served_cycles.iter().sum::<u64>());
        assert_eq!(summed("total_cycles_count"), stats.completed);
    }
}
