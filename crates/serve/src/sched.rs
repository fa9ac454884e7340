//! The service scheduler: admission control, weighted fair sharing,
//! batching and backpressure, run as a discrete-event simulation in
//! virtual (cycle) time.
//!
//! Determinism is the design constraint everything here obeys: the
//! latency artifact must be byte-identical for a fixed seed and config,
//! however many OS threads later execute the admitted jobs. So the
//! scheduler makes *every* decision in virtual time — no wall-clock, no
//! hashing, no thread interleaving — and the execution pool merely
//! replays its decisions functionally (see [`crate::exec`]).
//!
//! The timeline is ordered by `(cycle, sequence)` and merges three
//! sources that are each already in that order, so the next event is
//! the least of their heads:
//!
//! * **Arrivals** — nondecreasing in cycle, one pulled ahead; the i-th
//!   carries sequence `i`.
//! * **Retries** — a FIFO: each fires `retry_after` after its refusal,
//!   and refusals happen in clock order.
//! * **Worker frees** — one slot per worker, empty while it waits for
//!   work: a busy worker has exactly one pending free.
//!
//! Retries and frees number from the last arrival's sequence upward, in
//! push order, so an arrival wins every tie.
//!
//! The protocol, front to back:
//!
//! * **Admission** — a bounded pending queue. A job arriving while
//!   `pending >= queue_cap` is refused with an explicit retry-after
//!   signal; the open-loop producer re-offers it up to `max_retries`
//!   times before counting a final reject. This is the backpressure
//!   path producers *see* (unbounded mode admits everything, the
//!   ablation's baseline).
//! * **Fair sharing** — per-tenant FIFO queues drained by virtual-time
//!   weighted fair queuing: each tenant accumulates normalized service
//!   (`cycles / weight`); the backlogged tenant with the least
//!   accumulated service is picked next, and a tenant returning from
//!   idle is lifted to the global virtual floor so it cannot claim a
//!   retroactive refund. One hot tenant saturates its own share and no
//!   more.
//! * **Batching** — a free worker takes up to `batch_max` consecutive
//!   jobs from the chosen tenant in one dispatch, paying the dispatch
//!   overhead once. Under light load batches are singletons; under
//!   backpressure queues are deep and batches fill, amortizing
//!   dispatch exactly when the system needs relief.

use crate::load::OfferedJob;
use std::collections::VecDeque;

/// Fixed-point scale for normalized (per-weight) virtual time.
const VSCALE: u128 = 1 << 20;

/// Scheduler parameters (the service-side half of
/// [`ServeConfig`](crate::ServeConfig)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Service workers (each one priced as a `ctx`-context machine).
    pub workers: usize,
    /// Bounded admission (the backpressure path). `false` queues
    /// without limit — the ablation baseline.
    pub bounded: bool,
    /// Pending-job cap for bounded admission (jobs admitted but not yet
    /// dispatched).
    pub queue_cap: usize,
    /// Max jobs coalesced into one dispatch.
    pub batch_max: usize,
    /// Cycles of dispatch overhead paid once per batch.
    pub dispatch_cycles: u64,
    /// Retry-after signal handed to a refused producer, in cycles.
    pub retry_after: u64,
    /// Re-offers a producer makes before accepting a final reject.
    pub max_retries: u32,
    /// Fair-share weight per tenant (also fixes the tenant count).
    pub weights: Vec<u64>,
    /// Assert work conservation after every dispatch round (tests).
    pub check_invariants: bool,
}

/// How one offered job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Admitted and served.
    Completed {
        /// Cycle the job passed admission.
        admit: u64,
        /// Cycle its service began on the worker.
        start: u64,
        /// Cycle its service finished.
        finish: u64,
        /// Worker that served it.
        worker: usize,
    },
    /// Refused `max_retries + 1` times; the producer gave up.
    Rejected {
        /// Cycle of the last refused attempt.
        last_attempt: u64,
    },
}

/// The resolved fate of one offered job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Job id (dense, arrival order).
    pub id: usize,
    /// Submitting tenant.
    pub tenant: usize,
    /// Variant index (prices the service time).
    pub variant: usize,
    /// First-attempt arrival cycle.
    pub arrival: u64,
    /// Submission attempts made (1 = admitted first try).
    pub attempts: u32,
    /// Completion or final rejection.
    pub outcome: Outcome,
}

/// Aggregate counters of one scheduled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs offered by the load generator.
    pub offered: u64,
    /// Jobs that passed admission (each at most once).
    pub admitted: u64,
    /// Jobs served to completion.
    pub completed: u64,
    /// Jobs finally rejected after retries.
    pub rejected: u64,
    /// Individual refusals (every bounced attempt, retried or not).
    pub reject_events: u64,
    /// Re-offers scheduled by the retry-after signal.
    pub retries: u64,
    /// Dispatches issued (batches).
    pub batches: u64,
    /// Total dispatch-overhead cycles paid.
    pub dispatch_cycles_total: u64,
    /// Busy cycles (dispatch + service) per worker.
    pub busy_cycles: Vec<u64>,
    /// Service cycles delivered per tenant.
    pub served_cycles: Vec<u64>,
    /// Completed jobs per tenant.
    pub completed_per_tenant: Vec<u64>,
    /// Admission decisions taken while `pending >= high_water`.
    pub backpressure_events: u64,
    /// The occupancy high-water mark those events were counted against.
    pub high_water: usize,
    /// Deepest the pending queue ever got.
    pub max_pending: usize,
    /// Most refused offers ever waiting out their retry-after at once.
    pub peak_retries: usize,
    /// First offered arrival cycle.
    pub first_arrival: u64,
    /// Last service completion cycle.
    pub last_finish: u64,
}

impl SchedStats {
    /// Virtual span of the run, arrival of the first job to the last
    /// completion.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.last_finish.saturating_sub(self.first_arrival)
    }
}

/// Scheduler lifecycle hooks, called synchronously from inside the
/// event loop — in virtual time, before any OS thread touches a job —
/// so an observer inherits the scheduler's determinism for free. This
/// is how the telemetry plane watches a run without the scheduler
/// knowing what a metric is.
///
/// One hook per decision: every offer fires `on_arrival` and then
/// exactly one of `on_reject` (bounced, will retry), `on_rejected`
/// (refused for good) or `on_admit`; a dispatch fires `on_complete`
/// once per job of its batch, then `on_dispatch`. Every hook has a
/// no-op default; implement only what you watch.
pub trait SchedObserver {
    /// An offer hit admission at cycle `now` (first try or retry).
    fn on_arrival(&mut self, now: u64, job: &OfferedJob, attempt: u32) {
        let _ = (now, job, attempt);
    }
    /// The offer was refused and the producer will re-offer it after
    /// the retry-after signal. A refusal the producer gives up on fires
    /// only [`SchedObserver::on_rejected`].
    fn on_reject(&mut self, now: u64, job: &OfferedJob, attempt: u32) {
        let _ = (now, job, attempt);
    }
    /// The offer passed admission; `pending` counts it.
    fn on_admit(&mut self, now: u64, job: &OfferedJob, attempt: u32, pending: usize) {
        let _ = (now, job, attempt, pending);
    }
    /// Worker `worker` took a `batch`-job batch from `tenant` at `now`,
    /// paying `dispatch_cycles` once; `pending` no longer counts them.
    fn on_dispatch(
        &mut self,
        now: u64,
        worker: usize,
        tenant: usize,
        batch: usize,
        dispatch_cycles: u64,
        pending: usize,
    ) {
        let _ = (now, worker, tenant, batch, dispatch_cycles, pending);
    }
    /// One job of the batch resolved (always `Outcome::Completed` here).
    fn on_complete(&mut self, rec: &JobRecord) {
        let _ = rec;
    }
    /// The offer was refused for the last time: the producer gave up
    /// (always `Outcome::Rejected` here, `last_attempt` the refusal's
    /// cycle and `attempts` its attempt number). Together with
    /// [`SchedObserver::on_complete`] this hands the observer exactly
    /// one resolved [`JobRecord`] per offered job ([`RecordKeeper`] is
    /// the observer that collects them).
    fn on_rejected(&mut self, rec: &JobRecord) {
        let _ = rec;
    }
}

/// The observer that watches nothing.
pub struct NoopObserver;

impl SchedObserver for NoopObserver {}

/// The collecting observer: keeps a deterministic 1-in-`stride` sample
/// of resolved records by job id (stride 1 keeps every one). Records
/// retire in completion order; [`RecordKeeper::into_records`] returns
/// them sorted by id, which is what downstream consumers (the
/// functional replay's exactly-once bookkeeping) expect.
pub struct RecordKeeper {
    stride: usize,
    records: Vec<JobRecord>,
}

impl RecordKeeper {
    /// A keeper of every `stride`-th job id.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "record stride must be positive");
        Self { stride, records: Vec::new() }
    }

    pub(crate) fn keep(&mut self, rec: &JobRecord) {
        if rec.id.is_multiple_of(self.stride) {
            self.records.push(*rec);
        }
    }

    /// The kept records, sorted by job id.
    #[must_use]
    pub fn into_records(mut self) -> Vec<JobRecord> {
        self.records.sort_unstable_by_key(|r| r.id);
        self.records
    }
}

impl SchedObserver for RecordKeeper {
    fn on_complete(&mut self, rec: &JobRecord) {
        self.keep(rec);
    }
    fn on_rejected(&mut self, rec: &JobRecord) {
        self.keep(rec);
    }
}

/// A job sitting in its tenant queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: usize,
    variant: usize,
    arrival: u64,
    admit: u64,
    attempts: u32,
    service: u64,
}

/// An offer on its way to admission: the look-ahead arrival (`seq` its
/// index in the stream) or a retry (`seq` from the shared counter).
#[derive(Debug, Clone, Copy)]
struct Ev {
    time: u64,
    seq: u64,
    job: OfferedJob,
    attempt: u32,
}

/// The key of an absent head: after every event, since no `seq` reaches
/// `u64::MAX`.
const NO_EVENT: (u64, u64) = (u64::MAX, u64::MAX);

struct Tenant {
    queue: VecDeque<Pending>,
    /// Accumulated normalized service, `Σ service · VSCALE / weight`.
    vtime: u128,
}

/// Run the schedule: pull arrivals lazily from an iterator
/// (nondecreasing in time), resolve every offered job to a
/// [`JobRecord`] retired through the observer — exactly once, by
/// [`SchedObserver::on_complete`] or [`SchedObserver::on_rejected`] —
/// and tally the run. Pure virtual time; deterministic for fixed
/// inputs. Live state is the pending queues, the waiting retries, one
/// free slot per worker and one look-ahead arrival — O(pending),
/// independent of how many jobs the iterator will offer.
///
/// The observer cannot change a single decision — hooks fire after
/// each one is made — so any two observers see the same schedule.
///
/// # Panics
///
/// Panics on structurally invalid input: empty worker set or weights, a
/// zero weight, a job naming a tenant or variant out of range, arrivals
/// that go backwards in time, a retry or a service finish past the
/// 64-bit cycle clock, or (with `check_invariants`) a violation of work
/// conservation.
#[must_use]
pub fn schedule_stream<I>(
    offered: I,
    service_cycles: &[u64],
    cfg: &SchedConfig,
    obs: &mut dyn SchedObserver,
) -> SchedStats
where
    I: IntoIterator<Item = OfferedJob>,
    I::IntoIter: ExactSizeIterator,
{
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.batch_max > 0, "batches hold at least one job");
    assert!(!cfg.weights.is_empty(), "need at least one tenant");
    assert!(cfg.weights.iter().all(|&w| w > 0), "weights must be positive");
    assert!(!cfg.bounded || cfg.queue_cap > 0, "bounded admission needs a positive cap");
    let tenants_n = cfg.weights.len();

    let mut arrivals = offered.into_iter();
    let total = arrivals.len();
    // Retries and frees continue the sequence after the offered arrivals.
    let mut seq = total as u64;

    // One-arrival look-ahead.
    let mut pulled = 0u64;
    let mut last_arrival_time = 0u64;
    let mut next_arrival: Option<Ev> = None;
    // Refused offers in firing order.
    let mut retries: VecDeque<Ev> = VecDeque::new();
    // Each worker's pending free `(cycle, seq)`; `None` while it waits.
    let mut frees: Vec<Option<(u64, u64)>> = vec![None; cfg.workers];

    let mut tenants: Vec<Tenant> =
        (0..tenants_n).map(|_| Tenant { queue: VecDeque::new(), vtime: 0 }).collect();
    let mut vfloor: u128 = 0;
    let mut pending = 0usize;
    let high_water =
        if cfg.bounded { (cfg.queue_cap * 3 / 4).max(1) } else { cfg.workers * cfg.batch_max * 8 };

    let mut stats = SchedStats {
        offered: total as u64,
        admitted: 0,
        completed: 0,
        rejected: 0,
        reject_events: 0,
        retries: 0,
        batches: 0,
        dispatch_cycles_total: 0,
        busy_cycles: vec![0; cfg.workers],
        served_cycles: vec![0; tenants_n],
        completed_per_tenant: vec![0; tenants_n],
        backpressure_events: 0,
        high_water,
        max_pending: 0,
        peak_retries: 0,
        first_arrival: 0,
        last_finish: 0,
    };

    loop {
        if next_arrival.is_none() {
            if let Some(job) = arrivals.next() {
                assert!(
                    job.tenant < tenants_n,
                    "job {} names tenant {} of {tenants_n}",
                    job.id,
                    job.tenant
                );
                assert!(job.variant < service_cycles.len(), "job {} variant out of range", job.id);
                assert!(
                    job.arrival >= last_arrival_time,
                    "job {} arrives at {} after the stream reached {last_arrival_time}",
                    job.id,
                    job.arrival
                );
                last_arrival_time = job.arrival;
                if pulled == 0 {
                    stats.first_arrival = job.arrival;
                }
                next_arrival = Some(Ev { time: job.arrival, seq: pulled, job, attempt: 1 });
                pulled += 1;
            }
        }
        // The next event is the least key of the three heads; keys are
        // distinct, and an empty head sorts after every event.
        let key = |ev: Option<&Ev>| ev.map_or(NO_EVENT, |ev| (ev.time, ev.seq));
        let (arrival, retry) = (key(next_arrival.as_ref()), key(retries.front()));
        let (free, freed) = (frees.iter().map(|f| f.unwrap_or(NO_EVENT)).zip(0..))
            .min()
            .expect("at least one worker");
        let now = if free < arrival.min(retry) {
            frees[freed] = None;
            free.0
        } else {
            let head = if arrival < retry { next_arrival.take() } else { retries.pop_front() };
            let Some(Ev { time: now, job, attempt, .. }) = head else { break };
            obs.on_arrival(now, &job, attempt);
            if pending >= high_water {
                stats.backpressure_events += 1;
            }
            if cfg.bounded && pending >= cfg.queue_cap {
                // Refuse with retry-after; the producer re-offers
                // until it runs out of patience.
                stats.reject_events += 1;
                if attempt <= cfg.max_retries {
                    obs.on_reject(now, &job, attempt);
                    stats.retries += 1;
                    let time = now
                        .checked_add(cfg.retry_after)
                        .expect("retry cycle overflows the 64-bit clock");
                    debug_assert!(
                        retries.back().is_none_or(|last| last.time <= time),
                        "retry FIFO order"
                    );
                    retries.push_back(Ev { time, seq, job, attempt: attempt + 1 });
                    seq += 1;
                    stats.peak_retries = stats.peak_retries.max(retries.len());
                } else {
                    stats.rejected += 1;
                    obs.on_rejected(&JobRecord {
                        id: job.id,
                        tenant: job.tenant,
                        variant: job.variant,
                        arrival: job.arrival,
                        attempts: attempt,
                        outcome: Outcome::Rejected { last_attempt: now },
                    });
                }
            } else {
                stats.admitted += 1;
                let tn = &mut tenants[job.tenant];
                if tn.queue.is_empty() {
                    // Returning from idle: no retroactive credit.
                    tn.vtime = tn.vtime.max(vfloor);
                }
                tn.queue.push_back(Pending {
                    id: job.id,
                    variant: job.variant,
                    arrival: job.arrival,
                    admit: now,
                    attempts: attempt,
                    service: service_cycles[job.variant],
                });
                pending += 1;
                stats.max_pending = stats.max_pending.max(pending);
                obs.on_admit(now, &job, attempt, pending);
            }
            now
        };

        // Work-conserving dispatch: while a worker is idle and any
        // tenant is backlogged, hand the fair-share pick a batch.
        while let Some(w) = frees.iter().position(Option::is_none) {
            let Some(t) = tenants
                .iter()
                .enumerate()
                .filter(|(_, tn)| !tn.queue.is_empty())
                .min_by_key(|&(i, tn)| (tn.vtime, i))
                .map(|(i, _)| i)
            else {
                break;
            };
            let take = cfg.batch_max.min(tenants[t].queue.len());
            let mut service_sum = 0u64;
            let mut cursor = now
                .checked_add(cfg.dispatch_cycles)
                .expect("dispatch cycle overflows the 64-bit clock");
            for _ in 0..take {
                let p = tenants[t].queue.pop_front().expect("tenant is backlogged");
                let start = cursor;
                let finish = start
                    .checked_add(p.service)
                    .expect("service finish overflows the 64-bit clock");
                cursor = finish;
                service_sum += p.service;
                let rec = JobRecord {
                    id: p.id,
                    tenant: t,
                    variant: p.variant,
                    arrival: p.arrival,
                    attempts: p.attempts,
                    outcome: Outcome::Completed { admit: p.admit, start, finish, worker: w },
                };
                obs.on_complete(&rec);
                stats.completed += 1;
                stats.completed_per_tenant[t] += 1;
                stats.served_cycles[t] += p.service;
            }
            pending -= take;
            obs.on_dispatch(now, w, t, take, cfg.dispatch_cycles, pending);
            vfloor = vfloor.max(tenants[t].vtime);
            tenants[t].vtime += u128::from(service_sum) * VSCALE / u128::from(cfg.weights[t]);
            stats.batches += 1;
            stats.dispatch_cycles_total += cfg.dispatch_cycles;
            stats.busy_cycles[w] += cfg.dispatch_cycles + service_sum;
            stats.last_finish = stats.last_finish.max(cursor);
            frees[w] = Some((cursor, seq));
            seq += 1;
        }
        if cfg.check_invariants {
            let waiting = frees.iter().any(Option::is_none);
            let backlogged = tenants.iter().any(|tn| !tn.queue.is_empty());
            assert!(
                !(waiting && backlogged),
                "work conservation violated at cycle {now}: idle worker with a backlogged tenant"
            );
        }
    }

    debug_assert_eq!(stats.admitted, stats.completed, "every admitted job completes");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offered(arrivals: &[(u64, usize, usize)]) -> Vec<OfferedJob> {
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &(arrival, tenant, variant))| OfferedJob { id, tenant, variant, arrival })
            .collect()
    }

    /// Schedule `jobs` keeping every record, sorted by id.
    fn run(
        jobs: &[OfferedJob],
        service: &[u64],
        cfg: &SchedConfig,
    ) -> (Vec<JobRecord>, SchedStats) {
        let mut keeper = RecordKeeper::new(1);
        let stats = schedule_stream(jobs.iter().copied(), service, cfg, &mut keeper);
        (keeper.into_records(), stats)
    }

    fn base_cfg(workers: usize, tenants: usize) -> SchedConfig {
        SchedConfig {
            workers,
            bounded: false,
            queue_cap: 8,
            batch_max: 4,
            dispatch_cycles: 10,
            retry_after: 100,
            max_retries: 2,
            weights: vec![1; tenants],
            check_invariants: true,
        }
    }

    #[test]
    fn single_job_timeline() {
        let jobs = offered(&[(5, 0, 0)]);
        let (recs, stats) = run(&jobs, &[1000], &base_cfg(1, 1));
        assert_eq!(
            recs[0].outcome,
            Outcome::Completed { admit: 5, start: 15, finish: 1015, worker: 0 }
        );
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.makespan(), 1010);
    }

    #[test]
    fn batch_amortizes_dispatch_and_serializes_service() {
        // Three same-tenant jobs queued behind a busy worker come out as
        // one batch: one dispatch fee, back-to-back service.
        let jobs = offered(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]);
        let (recs, stats) = run(&jobs, &[100], &base_cfg(1, 1));
        // Job 0 dispatches alone at t=0 (queue had one entry).
        assert_eq!(
            recs[0].outcome,
            Outcome::Completed { admit: 0, start: 10, finish: 110, worker: 0 }
        );
        // Jobs 1..3 batch when the worker frees at 110.
        let starts: Vec<u64> = recs[1..]
            .iter()
            .map(|r| match r.outcome {
                Outcome::Completed { start, .. } => start,
                Outcome::Rejected { .. } => panic!("unexpected reject"),
            })
            .collect();
        assert_eq!(starts, vec![120, 220, 320]);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.dispatch_cycles_total, 20);
    }

    #[test]
    fn bounded_admission_rejects_with_retry_then_gives_up() {
        let mut cfg = base_cfg(1, 1);
        cfg.bounded = true;
        cfg.queue_cap = 1;
        cfg.batch_max = 1;
        cfg.max_retries = 1;
        cfg.retry_after = 5;
        // One huge job occupies the worker; the second fills the queue;
        // the third bounces twice and is finally rejected.
        let jobs = offered(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
        let (recs, stats) = run(&jobs, &[1_000_000], &cfg);
        assert!(matches!(recs[2].outcome, Outcome::Rejected { last_attempt: 7 }));
        assert_eq!(recs[2].attempts, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.reject_events, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn weighted_tenant_gets_proportional_service_under_saturation() {
        // Two tenants, weights 3:1, both permanently backlogged on one
        // worker: served cycles must split close to 3:1.
        let mut cfg = base_cfg(1, 2);
        cfg.weights = vec![3, 1];
        cfg.batch_max = 2;
        let mut jobs = Vec::new();
        for i in 0..400 {
            jobs.push((0u64, i % 2, 0usize));
        }
        let jobs = offered(&jobs);
        let (recs, stats) = run(&jobs, &[1_000], &cfg);
        let (a, b) = (stats.served_cycles[0] as f64, stats.served_cycles[1] as f64);
        // Everything completes eventually, so compare in-progress shares
        // via completion *order* instead: tenant 0 should finish its
        // backlog far earlier. served_cycles equalize at the end, so
        // check the ratio among the first half of completions.
        assert_eq!(a, b, "equal totals once both backlogs drain fully");
        let mut finishes: Vec<(u64, usize)> = Vec::new();
        for r in &recs {
            if let Outcome::Completed { finish, .. } = r.outcome {
                finishes.push((finish, r.tenant));
            }
        }
        finishes.sort_unstable();
        let first_half = &finishes[..finishes.len() / 2];
        let t0 = first_half.iter().filter(|&&(_, t)| t == 0).count() as f64;
        let share = t0 / first_half.len() as f64;
        assert!(
            (share - 0.75).abs() < 0.05,
            "weight-3 tenant got {share} of early service, want ~0.75"
        );
    }

    #[test]
    fn observer_sees_every_decision_and_changes_nothing() {
        #[derive(Default)]
        struct Counting {
            records: Vec<JobRecord>,
            arrivals: u64,
            bounces: u64,
            final_rejects: u64,
            admits: u64,
            dispatches: u64,
            completes: u64,
            batched_jobs: u64,
        }
        impl SchedObserver for Counting {
            fn on_arrival(&mut self, _now: u64, _job: &OfferedJob, _attempt: u32) {
                self.arrivals += 1;
            }
            fn on_reject(&mut self, _now: u64, _job: &OfferedJob, _attempt: u32) {
                self.bounces += 1;
            }
            fn on_admit(&mut self, _now: u64, _job: &OfferedJob, _attempt: u32, _pending: usize) {
                self.admits += 1;
            }
            fn on_dispatch(
                &mut self,
                _now: u64,
                _worker: usize,
                _tenant: usize,
                batch: usize,
                _dispatch_cycles: u64,
                _pending: usize,
            ) {
                self.dispatches += 1;
                self.batched_jobs += batch as u64;
            }
            fn on_complete(&mut self, rec: &JobRecord) {
                assert!(matches!(rec.outcome, Outcome::Completed { .. }));
                self.completes += 1;
                self.records.push(*rec);
            }
            fn on_rejected(&mut self, rec: &JobRecord) {
                assert!(matches!(rec.outcome, Outcome::Rejected { .. }));
                self.final_rejects += 1;
                self.records.push(*rec);
            }
        }

        let mut cfg = base_cfg(2, 3);
        cfg.bounded = true;
        cfg.queue_cap = 3;
        cfg.max_retries = 1;
        let mut jobs = Vec::new();
        for i in 0..300u64 {
            jobs.push((i * 13 % 511, (i % 3) as usize, 0usize));
        }
        let mut jobs = offered(&jobs);
        jobs.sort_by_key(|j| j.arrival);
        for (id, j) in jobs.iter_mut().enumerate() {
            j.id = id;
        }
        let (plain, plain_stats) = run(&jobs, &[2_000], &cfg);
        let mut obs = Counting::default();
        let watched_stats = schedule_stream(jobs.iter().copied(), &[2_000], &cfg, &mut obs);
        obs.records.sort_unstable_by_key(|r| r.id);
        assert_eq!(plain, obs.records, "observer must not perturb the schedule");
        assert_eq!(plain_stats, watched_stats);
        assert_eq!(obs.arrivals, watched_stats.offered + watched_stats.retries);
        // One hook per refusal: a bounce or a final rejection, never both.
        assert_eq!(obs.bounces, watched_stats.retries);
        assert_eq!(obs.bounces + obs.final_rejects, watched_stats.reject_events);
        assert!(obs.bounces > 0 && obs.final_rejects > 0, "the trace must exercise both");
        assert_eq!(obs.final_rejects, watched_stats.rejected);
        assert_eq!(obs.admits, watched_stats.admitted);
        assert_eq!(obs.dispatches, watched_stats.batches);
        assert_eq!(obs.completes, watched_stats.completed);
        assert_eq!(obs.batched_jobs, watched_stats.completed);
    }

    #[test]
    fn unresolved_is_impossible_and_order_is_deterministic() {
        let mut jobs = Vec::new();
        for i in 0..200u64 {
            jobs.push((i * 37 % 997, (i % 3) as usize, (i % 2) as usize));
        }
        let mut jobs = offered(&jobs);
        jobs.sort_by_key(|j| j.arrival);
        for (id, j) in jobs.iter_mut().enumerate() {
            j.id = id;
        }
        let cfg = base_cfg(2, 3);
        let (a, sa) = run(&jobs, &[500, 900], &cfg);
        let (b, sb) = run(&jobs, &[500, 900], &cfg);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.completed, 200);
    }

    #[test]
    #[should_panic(expected = "retry cycle overflows the 64-bit clock")]
    fn a_retry_past_the_clock_panics_by_name() {
        let mut cfg = base_cfg(1, 1);
        (cfg.bounded, cfg.queue_cap, cfg.batch_max) = (true, 1, 1);
        cfg.retry_after = u64::MAX;
        // The worker is busy and the queue full, so job 2 bounces at
        // cycle 2 and would retry at 2 + u64::MAX.
        let _ = run(&offered(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]), &[1_000_000], &cfg);
    }

    /// Every hook call, in order, with its arguments.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Hook {
        Arrival(u64, usize, u32),
        Reject(u64, usize, u32),
        Admit(u64, usize, u32, usize),
        Dispatch(u64, usize, usize, usize, u64, usize),
        Complete(JobRecord),
        Rejected(JobRecord),
    }

    #[derive(Default)]
    struct Recording(Vec<Hook>);

    impl SchedObserver for Recording {
        fn on_arrival(&mut self, now: u64, job: &OfferedJob, attempt: u32) {
            self.0.push(Hook::Arrival(now, job.id, attempt));
        }
        fn on_reject(&mut self, now: u64, job: &OfferedJob, attempt: u32) {
            self.0.push(Hook::Reject(now, job.id, attempt));
        }
        fn on_admit(&mut self, now: u64, job: &OfferedJob, attempt: u32, pending: usize) {
            self.0.push(Hook::Admit(now, job.id, attempt, pending));
        }
        fn on_dispatch(&mut self, n: u64, w: usize, t: usize, b: usize, d: u64, p: usize) {
            self.0.push(Hook::Dispatch(n, w, t, b, d, p));
        }
        fn on_complete(&mut self, rec: &JobRecord) {
            self.0.push(Hook::Complete(*rec));
        }
        fn on_rejected(&mut self, rec: &JobRecord) {
            self.0.push(Hook::Rejected(*rec));
        }
    }

    /// The reference timeline: every retry and worker free goes through
    /// one binary heap ordered by `(cycle, seq)`, merged against the
    /// arrivals. [`schedule_stream`] must make the same decisions.
    fn heap_schedule(
        jobs: &[OfferedJob],
        service_cycles: &[u64],
        cfg: &SchedConfig,
        obs: &mut dyn SchedObserver,
    ) -> SchedStats {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Kind {
            Arrival { job: (usize, usize, usize, u64), attempt: u32 },
            Free { worker: usize },
        }
        let (tenants_n, total) = (cfg.weights.len(), jobs.len() as u64);
        // `(cycle, seq, kind)`: seqs are distinct, so `kind` never decides.
        let mut heap: BinaryHeap<Reverse<(u64, u64, Kind)>> = jobs
            .iter()
            .zip(0..)
            .map(|(j, seq)| {
                let job = (j.id, j.tenant, j.variant, j.arrival);
                Reverse((j.arrival, seq, Kind::Arrival { job, attempt: 1 }))
            })
            .collect();
        let mut seq = total;
        let mut tenants: Vec<Tenant> =
            (0..tenants_n).map(|_| Tenant { queue: VecDeque::new(), vtime: 0 }).collect();
        let mut idle = vec![true; cfg.workers];
        let (mut vfloor, mut pending, mut waiting) = (0u128, 0usize, 0usize);
        let high_water = if cfg.bounded {
            (cfg.queue_cap * 3 / 4).max(1)
        } else {
            cfg.workers * cfg.batch_max * 8
        };
        let mut stats = SchedStats {
            offered: total,
            admitted: 0,
            completed: 0,
            rejected: 0,
            reject_events: 0,
            retries: 0,
            batches: 0,
            dispatch_cycles_total: 0,
            busy_cycles: vec![0; cfg.workers],
            served_cycles: vec![0; tenants_n],
            completed_per_tenant: vec![0; tenants_n],
            backpressure_events: 0,
            high_water,
            max_pending: 0,
            peak_retries: 0,
            first_arrival: jobs.first().map_or(0, |j| j.arrival),
            last_finish: 0,
        };
        while let Some(Reverse((now, _, kind))) = heap.pop() {
            match kind {
                Kind::Arrival { job: (id, tenant, variant, arrival), attempt } => {
                    let job = OfferedJob { id, tenant, variant, arrival };
                    waiting -= usize::from(attempt > 1);
                    obs.on_arrival(now, &job, attempt);
                    if pending >= high_water {
                        stats.backpressure_events += 1;
                    }
                    if cfg.bounded && pending >= cfg.queue_cap {
                        stats.reject_events += 1;
                        if attempt <= cfg.max_retries {
                            obs.on_reject(now, &job, attempt);
                            stats.retries += 1;
                            let job = (id, tenant, variant, arrival);
                            let retry = Kind::Arrival { job, attempt: attempt + 1 };
                            heap.push(Reverse((now + cfg.retry_after, seq, retry)));
                            seq += 1;
                            waiting += 1;
                            stats.peak_retries = stats.peak_retries.max(waiting);
                        } else {
                            stats.rejected += 1;
                            let outcome = Outcome::Rejected { last_attempt: now };
                            let attempts = attempt;
                            obs.on_rejected(&JobRecord {
                                id,
                                tenant,
                                variant,
                                arrival,
                                attempts,
                                outcome,
                            });
                        }
                    } else {
                        stats.admitted += 1;
                        let tn = &mut tenants[tenant];
                        if tn.queue.is_empty() {
                            tn.vtime = tn.vtime.max(vfloor);
                        }
                        let service = service_cycles[variant];
                        let (admit, attempts) = (now, attempt);
                        tn.queue.push_back(Pending {
                            id,
                            variant,
                            arrival,
                            admit,
                            attempts,
                            service,
                        });
                        pending += 1;
                        stats.max_pending = stats.max_pending.max(pending);
                        obs.on_admit(now, &job, attempt, pending);
                    }
                }
                Kind::Free { worker } => idle[worker] = true,
            }
            while let Some(w) = idle.iter().position(|&free| free) {
                let Some(t) = (0..tenants_n)
                    .filter(|&i| !tenants[i].queue.is_empty())
                    .min_by_key(|&i| (tenants[i].vtime, i))
                else {
                    break;
                };
                let take = cfg.batch_max.min(tenants[t].queue.len());
                let (mut service_sum, mut cursor) = (0u64, now + cfg.dispatch_cycles);
                for _ in 0..take {
                    let p = tenants[t].queue.pop_front().expect("tenant is backlogged");
                    let (start, finish) = (cursor, cursor + p.service);
                    cursor = finish;
                    service_sum += p.service;
                    obs.on_complete(&JobRecord {
                        id: p.id,
                        tenant: t,
                        variant: p.variant,
                        arrival: p.arrival,
                        attempts: p.attempts,
                        outcome: Outcome::Completed { admit: p.admit, start, finish, worker: w },
                    });
                    stats.completed += 1;
                    stats.completed_per_tenant[t] += 1;
                    stats.served_cycles[t] += p.service;
                }
                pending -= take;
                obs.on_dispatch(now, w, t, take, cfg.dispatch_cycles, pending);
                vfloor = vfloor.max(tenants[t].vtime);
                tenants[t].vtime += u128::from(service_sum) * VSCALE / u128::from(cfg.weights[t]);
                idle[w] = false;
                stats.batches += 1;
                stats.dispatch_cycles_total += cfg.dispatch_cycles;
                stats.busy_cycles[w] += cfg.dispatch_cycles + service_sum;
                stats.last_finish = stats.last_finish.max(cursor);
                heap.push(Reverse((cursor, seq, Kind::Free { worker: w })));
                seq += 1;
            }
        }
        stats
    }

    /// The three ordered heads make exactly the heap's decisions. Every
    /// time is a multiple of one quantum, so arrivals share cycles and
    /// finishes land on arrival and retry cycles: the ties are where the
    /// two timelines could part.
    #[test]
    fn three_heads_match_the_heap_oracle() {
        gpstream_util::check::run_cases("sched-heap-oracle", 0x6a79_2005, 192, |rng| {
            let q = rng.range_u64(1, 8);
            let tenants = rng.range_usize_inclusive(1, 3);
            let variants = rng.range_usize_inclusive(1, 3);
            let retry_after = match rng.below(3) {
                0 => 0,
                1 => 1,
                _ => q * rng.range_u64(1, 40),
            };
            let cfg = SchedConfig {
                workers: rng.range_usize_inclusive(1, 4),
                bounded: rng.bool(),
                queue_cap: rng.range_usize_inclusive(1, 8),
                batch_max: rng.range_usize_inclusive(1, 8),
                dispatch_cycles: q * rng.below(3),
                retry_after,
                max_retries: rng.below(4) as u32,
                weights: (0..tenants).map(|_| rng.range_u64(1, 5)).collect(),
                check_invariants: true,
            };
            let service: Vec<u64> = (0..variants).map(|_| q * rng.range_u64(1, 30)).collect();
            let mut clock = 0;
            let jobs: Vec<OfferedJob> = (0..rng.range_usize_inclusive(1, 120))
                .map(|id| {
                    clock += q * rng.below(4);
                    let (tenant, variant) = (rng.below_usize(tenants), rng.below_usize(variants));
                    OfferedJob { id, tenant, variant, arrival: clock }
                })
                .collect();
            let (mut heads, mut heap) = (Recording::default(), Recording::default());
            let stats = schedule_stream(jobs.iter().copied(), &service, &cfg, &mut heads);
            let oracle = heap_schedule(&jobs, &service, &cfg, &mut heap);
            assert_eq!(stats, oracle, "{cfg:?}");
            assert!(heads.0 == heap.0, "hook sequences differ for {cfg:?}");
            let (records, _) = run(&jobs, &service, &cfg);
            let mut keeper = RecordKeeper::new(1);
            let _ = heap_schedule(&jobs, &service, &cfg, &mut keeper);
            assert_eq!(records, keeper.into_records(), "{cfg:?}");
        });
    }
}
