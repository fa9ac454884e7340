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
//! Each hook pays as little per event as the registry allows — the
//! paper's strip-at-a-time rule applied to the observer itself:
//!
//! * **Clock window.** The six decisions stamped at the event-loop
//!   clock (arrivals, admits, reject events, final rejects, batches and
//!   their dispatch cycles) add into a fixed array for the clock's
//!   current window, and the `pending` gauge keeps its last level there.
//!   A hook's only test is one compare against the window's end; when
//!   the clock leaves the window, the array is filed in one stamp and
//!   only then does the registry's watermark advance.
//! * **One stamp per completion.** A completed job is known at its
//!   *finish* cycle, which lies ahead of the clock (a dispatched batch
//!   finishes in the future), so its window is still resident:
//!   `on_complete` takes one [`Stamp`](gpstream_telemetry::Stamp) of
//!   it — one window lookup — for its three counters and one latency
//!   row, `{tenant, queue, service, total}`, appended to the window's
//!   rows in one push. The registry's window ring is the only buffer of
//!   completions: when a window is evicted, each latency column is read
//!   out once — recorded into its tenants' run totals and sorted for the
//!   window's summary — and the run-wide distributions are the merge of
//!   the per-tenant ones. A job's SLO verdict is one index into the
//!   tracker's dense window tallies.
//!
//! Two properties make the plane safe at 10⁶–10⁷ jobs:
//!
//! * **Streaming registry.** The metrics registry is always wrapped in
//!   a [`StreamingTelemetry`]: windows strictly behind the clock are
//!   finalized, flushed through the incremental CSV/JSON appenders and
//!   evicted, so registry memory is O(open windows) regardless of run
//!   length, in exact and sketch mode alike.
//! * **Bounded span buffer.** The span trace keeps at most a
//!   configurable number of events; once full, new spans are dropped
//!   and counted (`spans_dropped`), mirroring the machine's bounded
//!   event sink (`MACHINE_TRACE_CAPACITY`). Task ids are assigned
//!   compactly as spans are actually kept, so the name table scales
//!   with the buffer, not with the offered job count.
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
/// counted, never silently lost — the same contract as the machine's
/// event sink, whose drop count the trace footer also reports.
struct SpanBuffer {
    events: Vec<ExecEvent>,
    capacity: usize,
    dropped: u64,
    /// Job id → compact id of its queue task, for the jobs not yet
    /// resolved: a queue slice is named by its job's first *kept* event
    /// and retired with the job, so the map holds only live jobs. Task
    /// ids are assigned in the order tasks first appear.
    live: BTreeMap<usize, u32>,
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
            live: BTreeMap::new(),
            task_names: Vec::new(),
            task_cats: Vec::new(),
        }
    }

    /// A new task, named on the kept path only, so the name table
    /// scales with the buffer.
    fn task(&mut self, name: String, cat: &'static str) -> TaskId {
        let id = u32::try_from(self.task_names.len()).expect("span task table fits u32");
        self.task_names.push(name);
        self.task_cats.push(cat);
        TaskId(id)
    }

    /// The queue task of live job `job`, naming it on first use.
    fn queue_task(&mut self, job: usize, name: impl FnOnce() -> String) -> TaskId {
        if let Some(&id) = self.live.get(&job) {
            return TaskId(id);
        }
        let task = self.task(name(), "queue");
        self.live.insert(job, task.0);
        task
    }

    /// Job `job` resolved: no later event names its queue task.
    fn retire(&mut self, job: usize) {
        self.live.remove(&job);
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

/// The counters stamped at the event-loop clock, in registration order.
const CLOCK_COUNTERS: [&str; 6] =
    ["arrivals", "admits", "reject_events", "final_rejects", "batches", "dispatch_cycles"];
const ARRIVALS: usize = 0;
const ADMITS: usize = 1;
const REJECT_EVENTS: usize = 2;
const FINAL_REJECTS: usize = 3;
const BATCHES: usize = 4;
const DISPATCH_CYCLES: usize = 5;

/// What the event-loop clock's current window has seen: the clock
/// counters' deltas and the last `pending` level, filed into the
/// registry in one go when the clock leaves the window.
struct ClockWindow {
    index: u64,
    /// First cycle past the window — the one compare a hook makes.
    end: u64,
    counts: [u64; CLOCK_COUNTERS.len()],
    pending: Option<u64>,
}

impl ClockWindow {
    fn at(index: u64, window_cycles: u64) -> Self {
        let end = (index + 1).saturating_mul(window_cycles);
        Self { index, end, counts: [0; CLOCK_COUNTERS.len()], pending: None }
    }
}

/// The registry instruments a serving run feeds, by handle.
struct Instruments {
    clock: [CounterId; CLOCK_COUNTERS.len()],
    completions: CounterId,
    served_cycles: CounterId,
    tenant_completed: Vec<CounterId>,
    pending: GaugeId,
    /// Queue, service and total latency, one row per completion,
    /// labeled by tenant.
    latency: HistId,
}

/// The scheduler observer of a serving run.
pub struct ServeTelemetry {
    reg: StreamingTelemetry,
    slo: SloTracker,
    window_cycles: u64,
    ids: Instruments,
    clock: ClockWindow,
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
        let clock = CLOCK_COUNTERS.map(|name| tel.counter(name));
        let completions = tel.counter("completions");
        let served_cycles = tel.counter("served_cycles");
        let tenant_completed =
            (0..tenants).map(|t| tel.counter(&format!("tenant{t}_completed"))).collect();
        let pending = tel.gauge("pending");
        let gamma = cfg.sketch.then(|| cfg.effective_sketch_gamma());
        let latency =
            tel.hist_rows(&["queue_cycles", "service_cycles", "total_cycles"], tenants, gamma);
        Self {
            reg: StreamingTelemetry::new(tel),
            slo,
            window_cycles,
            ids: Instruments {
                clock,
                completions,
                served_cycles,
                tenant_completed,
                pending,
                latency,
            },
            clock: ClockWindow::at(0, window_cycles),
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
        self.spans.queue_task(id, || format!("job {id} queue (t{tenant})"))
    }

    /// Move the clock to `now`. Crossing the clock window's end files
    /// the window, and only then advances the registry's watermark past
    /// it.
    fn tick(&mut self, now: u64) {
        if now < self.clock.end {
            return;
        }
        let index = now / self.window_cycles;
        self.file_clock();
        self.reg.advance(now);
        self.clock = ClockWindow::at(index, self.window_cycles);
    }

    /// File the clock window's deltas and last gauge level, if it saw
    /// any hook.
    fn file_clock(&mut self) {
        let ClockWindow { index, counts, pending, .. } = self.clock;
        if counts == [0; CLOCK_COUNTERS.len()] {
            return;
        }
        let mut stamp = self.reg.at(index * self.window_cycles);
        for (&id, delta) in self.ids.clock.iter().zip(counts) {
            stamp.add(id, delta);
        }
        if let Some(level) = pending {
            stamp.set(self.ids.pending, level);
        }
    }

    /// A refused offer: one `reject_events` count and a `DepWait`
    /// instant on the tenant's lane, its mask the attempt number.
    fn refuse(&mut self, now: u64, id: usize, tenant: usize, attempt: u32) {
        self.tick(now);
        self.clock.counts[REJECT_EVENTS] += 1;
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
    /// telemetry, the latency summary — its distributions are the
    /// registry's run totals, per tenant and merged — and the kept
    /// records, sorted by id. `cfg` labels the trace and the SLO
    /// artifact.
    ///
    /// # Panics
    ///
    /// Panics if the flushed window deltas fail to re-merge into the
    /// run totals (the sum-to-total invariant).
    #[must_use]
    pub fn finish(
        mut self,
        cfg: &ServeConfig,
    ) -> (TelemetryOutcome, LatencySummary, Vec<JobRecord>) {
        self.file_clock();
        let series = self.reg.finish();
        let summary = latency_summary(&series);
        let slo = self.slo.report();
        let slo_artifact = slo_artifact(&slo, cfg);

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

/// The latency summary a streamed run's queue/service/total histograms
/// carry: their run totals and, per tenant, their label totals.
fn latency_summary(series: &StreamedSeries) -> LatencySummary {
    let [queue, service, total] = <[Sketch; 3]>::try_from(series.hist_totals.clone())
        .expect("the registry's histograms are queue, service and total");
    let [q, s, t] = [0, 1, 2].map(|h| series.hist_labels[h].iter());
    let per_tenant = q
        .zip(s)
        .zip(t)
        .map(|((queue, service), total)| TenantLatency {
            queue: queue.clone(),
            service: service.clone(),
            total: total.clone(),
        })
        .collect();
    LatencySummary { queue, service, total, per_tenant }
}

/// The `slo` artifact document of a run of `cfg`.
fn slo_artifact(slo: &SloReport, cfg: &ServeConfig) -> String {
    slo.artifact_json(
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
    .to_doc_string()
}

impl SchedObserver for ServeTelemetry {
    fn on_arrival(&mut self, now: u64, _job: &OfferedJob, _attempt: u32) {
        self.tick(now);
        self.clock.counts[ARRIVALS] += 1;
    }

    fn on_reject(&mut self, now: u64, job: &OfferedJob, attempt: u32) {
        self.refuse(now, job.id, job.tenant, attempt);
    }

    fn on_rejected(&mut self, rec: &JobRecord) {
        let Outcome::Rejected { last_attempt } = rec.outcome else {
            unreachable!("on_rejected only fires for rejected jobs");
        };
        self.refuse(last_attempt, rec.id, rec.tenant, rec.attempts);
        self.spans.retire(rec.id);
        self.clock.counts[FINAL_REJECTS] += 1;
        self.keeper.keep(rec);
        self.heartbeat.tick();
    }

    fn on_admit(&mut self, now: u64, job: &OfferedJob, _attempt: u32, pending: usize) {
        self.tick(now);
        self.clock.counts[ADMITS] += 1;
        self.clock.pending = Some(pending as u64);
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
        self.tick(now);
        self.clock.counts[BATCHES] += 1;
        self.clock.counts[DISPATCH_CYCLES] += dispatch_cycles;
        self.clock.pending = Some(pending as u64);
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
        // Filed under the *finish* window: a latency is only known once
        // the job completes, and filing it where it completed is what
        // makes window deltas sum to run totals. The finish lies ahead
        // of the clock, so the window is never one already flushed.
        let (ids, t) = (&self.ids, rec.tenant);
        let mut stamp = self.reg.at(finish);
        stamp.add(ids.completions, 1);
        stamp.add(ids.served_cycles, service);
        stamp.add(ids.tenant_completed[t], 1);
        stamp.observe(ids.latency, t, &[queue, service, total]);
        self.slo.record(t, finish, total);
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
        self.spans.retire(rec.id);
        if self.spans.reserve(2) {
            let (id, variant) = (rec.id, rec.variant);
            let st = Some(self.spans.task(format!("job {id} service (v{variant})"), "service"));
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
    use gpstream_util::check::run_cases;
    use std::cell::Cell;

    /// The per-event observer [`ServeTelemetry`] replaced, kept as its
    /// oracle: every hook advances the registry and stamps it at its own
    /// cycle, and every completion is recorded one by one — into
    /// one-label run-wide histograms, separately kept per-tenant
    /// sketches and the SLO tracker.
    struct Reference {
        reg: StreamingTelemetry,
        slo: SloTracker,
        clock: [CounterId; CLOCK_COUNTERS.len()],
        completions: CounterId,
        served_cycles: CounterId,
        tenant_completed: Vec<CounterId>,
        pending: GaugeId,
        hists: [HistId; 3],
        per_tenant: Vec<[Sketch; 3]>,
    }

    impl Reference {
        fn new(cfg: &ServeConfig, targets: &[SloTarget]) -> Self {
            let window_cycles = cfg.effective_window_cycles();
            let mut tel = Telemetry::new(window_cycles);
            let mut slo = SloTracker::new(window_cycles);
            for (t, target) in targets.iter().enumerate() {
                let _ = slo.tenant(&format!("tenant{t}"), *target);
            }
            let clock = CLOCK_COUNTERS.map(|name| tel.counter(name));
            let completions = tel.counter("completions");
            let served_cycles = tel.counter("served_cycles");
            let tenant_completed =
                (0..cfg.tenants).map(|t| tel.counter(&format!("tenant{t}_completed"))).collect();
            let pending = tel.gauge("pending");
            let gamma = cfg.sketch.then(|| cfg.effective_sketch_gamma());
            let hists =
                ["queue_cycles", "service_cycles", "total_cycles"].map(|name| match gamma {
                    Some(gamma) => tel.hist_sketch(name, gamma),
                    None => tel.hist(name),
                });
            let fresh = gamma.map_or_else(Sketch::exact, Sketch::new);
            Self {
                reg: StreamingTelemetry::new(tel),
                slo,
                clock,
                completions,
                served_cycles,
                tenant_completed,
                pending,
                hists,
                per_tenant: vec![[(); 3].map(|()| fresh.clone()); cfg.tenants],
            }
        }

        fn stamp(&mut self, now: u64, counter: usize, delta: u64) {
            self.reg.advance(now);
            self.reg.add(self.clock[counter], now, delta);
        }

        fn finish(self, cfg: &ServeConfig) -> (StreamedSeries, String, LatencySummary) {
            let series = self.reg.finish();
            let slo = slo_artifact(&self.slo.report(), cfg);
            let [queue, service, total] = <[Sketch; 3]>::try_from(series.hist_totals.clone())
                .expect("queue, service and total");
            let per_tenant = self
                .per_tenant
                .into_iter()
                .map(|[queue, service, total]| TenantLatency { queue, service, total })
                .collect();
            (series, slo, LatencySummary { queue, service, total, per_tenant })
        }
    }

    impl SchedObserver for Reference {
        fn on_arrival(&mut self, now: u64, _job: &OfferedJob, _attempt: u32) {
            self.stamp(now, ARRIVALS, 1);
        }

        fn on_reject(&mut self, now: u64, _job: &OfferedJob, _attempt: u32) {
            self.stamp(now, REJECT_EVENTS, 1);
        }

        fn on_rejected(&mut self, rec: &JobRecord) {
            let Outcome::Rejected { last_attempt } = rec.outcome else { unreachable!() };
            self.stamp(last_attempt, REJECT_EVENTS, 1);
            self.stamp(last_attempt, FINAL_REJECTS, 1);
        }

        fn on_admit(&mut self, now: u64, _job: &OfferedJob, _attempt: u32, pending: usize) {
            self.stamp(now, ADMITS, 1);
            self.reg.set(self.pending, now, pending as u64);
        }

        fn on_dispatch(
            &mut self,
            now: u64,
            _: usize,
            _: usize,
            _: usize,
            fee: u64,
            pending: usize,
        ) {
            self.stamp(now, BATCHES, 1);
            self.stamp(now, DISPATCH_CYCLES, fee);
            self.reg.set(self.pending, now, pending as u64);
        }

        fn on_complete(&mut self, rec: &JobRecord) {
            let Outcome::Completed { admit, start, finish, .. } = rec.outcome else {
                unreachable!()
            };
            let latencies = [start - admit, finish - start, finish - rec.arrival];
            self.reg.add(self.completions, finish, 1);
            self.reg.add(self.served_cycles, finish, latencies[1]);
            self.reg.add(self.tenant_completed[rec.tenant], finish, 1);
            for ((&h, sketch), v) in
                self.hists.iter().zip(&mut self.per_tenant[rec.tenant]).zip(latencies)
            {
                self.reg.observe(h, finish, v);
                sketch.record(v);
            }
            self.slo.record(rec.tenant, finish, latencies[2]);
        }
    }

    /// Every distribution of a summary: run-wide, then per tenant.
    fn distributions(s: &LatencySummary) -> Vec<&Sketch> {
        let mut all = vec![&s.queue, &s.service, &s.total];
        s.per_tenant.iter().for_each(|t| all.extend([&t.queue, &t.service, &t.total]));
        all
    }

    #[test]
    fn batched_stamps_reproduce_per_event_stamping_byte_for_byte() {
        // Every combination of bounded and unbounded queues, exact and
        // sketched distributions, and 0.8x and 2x of the two workers'
        // capacity, each under a random window from three ranges: below
        // one service time (a batch's completions land many windows
        // ahead of the clock, with empty windows between), a few to
        // thousands of windows per run, and longer than the whole run.
        const SERVICE: [u64; 2] = [15_000, 30_000];
        let (case_no, promoted) = (Cell::new(0), Cell::new(0));
        run_cases("serve-batched-vs-per-event", 0x6a79_2005, 24, |rng| {
            let i = case_no.replace(case_no.get() + 1);
            let (bounded, sketch, overload) = (i & 1 == 1, i & 2 == 2, i & 4 == 4);
            let load = if overload { 2.0 } else { 0.8 };
            // Sketched runs are long enough for distributions to promote.
            let jobs = if sketch { rng.range_usize_inclusive(3_000, 6_000) } else { 1_000 };
            let (tenants, workers) = (3, 2);
            let run_cycles = jobs as u64 * 15_000;
            let window_cycles = match i / 8 {
                0 => rng.range_u64(1_000, SERVICE[0]),
                1 => rng.range_u64(SERVICE[0], run_cycles / 8),
                _ => rng.range_u64(run_cycles, 4 * run_cycles),
            };
            let mut cfg = ServeConfig::new("synthetic");
            (cfg.jobs, cfg.tenants, cfg.workers) = (jobs, tenants, workers);
            (cfg.window_cycles, cfg.sketch, cfg.span_capacity) = (window_cycles, sketch, 64);
            let mean_service = SERVICE.iter().sum::<u64>() / 2;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let mean_interarrival = (mean_service as f64 / (workers as f64 * load)) as u64;
            let load_cfg = LoadConfig {
                jobs,
                mean_interarrival,
                tenants,
                arrival_shares: vec![3, 2, 1],
                variants: SERVICE.len(),
                seed: rng.next_u64(),
            };
            let sched = SchedConfig {
                workers,
                bounded,
                queue_cap: 16,
                batch_max: 4,
                dispatch_cycles: 400,
                retry_after: 9_000,
                max_retries: 2,
                weights: vec![2, 1, 1],
                check_invariants: true,
            };
            let targets: Vec<SloTarget> =
                (0..tenants).map(|t| SloTarget::new(40_000 * (t as u64 + 1), 0.99)).collect();

            let mut plane = ServeTelemetry::new(&cfg, &targets);
            let stats = schedule_stream(Arrivals::new(&load_cfg), &SERVICE, &sched, &mut plane);
            let mut oracle = Reference::new(&cfg, &targets);
            let again = schedule_stream(Arrivals::new(&load_cfg), &SERVICE, &sched, &mut oracle);
            assert_eq!(stats, again);
            let (got, got_summary, _) = plane.finish(&cfg);
            let (want, want_slo, want_summary) = oracle.finish(&cfg);

            let case =
                format!("window {window_cycles} load {load} bounded {bounded} sketch {sketch}");
            assert_eq!(got.series.csv, want.csv, "{case}");
            assert_eq!(got.series.json, want.json, "{case}");
            assert_eq!(got.slo_artifact, want_slo, "{case}");
            assert_eq!(distributions(&got_summary), distributions(&want_summary), "{case}");
            // One latency row per completion, never more resident.
            assert!(got.series.peak_buffered as u64 <= stats.completed, "{case}");
            promoted.set(promoted.get() + u32::from(got_summary.total.is_promoted()));
        });
        assert!(promoted.get() >= 3, "only {} runs left the exact low-count path", promoted.get());
    }

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
        let TelemetryOutcome { series, .. } = plane.finish(&cfg).0;
        assert!(evicted_during_run > 500, "a long run: {evicted_during_run} windows");
        assert!(series.windows_flushed - evicted_during_run <= 2, "closed windows stayed resident");
        // So are the latency rows, one per completion: never more than a
        // few windows' worth at once.
        let peak = series.peak_buffered;
        assert!(peak > 0 && peak * 100 < stats.completed as usize, "{peak} rows");
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
