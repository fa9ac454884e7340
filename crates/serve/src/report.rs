//! Latency summarization and the `latency` artifact.
//!
//! Everything here is a pure function of the scheduler's output — the
//! resolved [`JobRecord`](crate::sched::JobRecord)s and [`SchedStats`] — plus the run's config.
//! The functional replay's results never enter the artifact, which is
//! what lets the byte-identical guarantee span replay thread counts:
//! threads race, the schedule does not.
//!
//! The artifact is the workspace's fourth kind (after `baseline`,
//! `profile` and `analysis`): a single-line canonical JSON document via
//! [`Json::to_doc_string`], so committed artifacts diff cleanly and the
//! determinism gate can compare raw bytes.

use crate::sched::SchedStats;
use crate::ServeConfig;
use gpstream_util::{Json, Sketch};
use std::fmt::Write as _;

/// Version stamp of the latency artifact schema. v3 records which
/// quantile estimator produced the latency counters (`config.estimator`
/// plus its `quantile_rel_error_bound`) and the `spans_dropped` count of
/// the bounded span-trace buffer. v2 added per-tenant latency quantiles
/// (before that a tenant's stats were only completed counts and summed
/// service cycles, so one tenant's SLO violation was invisible in the
/// artifact).
pub const LATENCY_ARTIFACT_VERSION: u64 = 3;

/// One tenant's latency distributions, same split as the run-wide
/// [`LatencySummary`].
#[derive(Debug, Clone)]
pub struct TenantLatency {
    /// Admission to service start.
    pub queue: Sketch,
    /// Service start to finish.
    pub service: Sketch,
    /// First arrival attempt to finish.
    pub total: Sketch,
}

/// The three latency distributions of a serving run, in cycles: what
/// [`ServeTelemetry::finish`](crate::ServeTelemetry::finish) hands back.
/// The per-tenant ones are the telemetry registry's label totals — each
/// completed job recorded once, into its tenant's three — and the
/// run-wide three are the registry's run totals, their merge.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Admission to service start (includes dispatch overhead and any
    /// time spent behind other tenants).
    pub queue: Sketch,
    /// Service start to finish.
    pub service: Sketch,
    /// First arrival attempt to finish — what a client experiences,
    /// retry delays included.
    pub total: Sketch,
    /// The same three distributions split per tenant; merging a
    /// distribution across tenants reproduces the run-wide one exactly.
    pub per_tenant: Vec<TenantLatency>,
}

fn hist_counters(out: &mut Vec<(String, Json)>, prefix: &str, h: &Sketch) {
    let (p50, p99, p999) = h.p50_p99_p999();
    out.push((format!("{prefix}_p50_cycles"), Json::U64(p50)));
    out.push((format!("{prefix}_p99_cycles"), Json::U64(p99)));
    out.push((format!("{prefix}_p999_cycles"), Json::U64(p999)));
    out.push((format!("{prefix}_max_cycles"), Json::U64(h.max().unwrap_or(0))));
}

/// Build the `latency` artifact document. `spans_dropped` is the count
/// of span-trace events the bounded buffer had to drop (0 when the
/// trace fit).
#[must_use]
pub fn artifact_json(
    cfg: &ServeConfig,
    stats: &SchedStats,
    summary: &LatencySummary,
    spans_dropped: u64,
) -> Json {
    let freq_hz = cfg.freq_ghz() * 1e9;
    let makespan = stats.makespan();
    let makespan_secs = makespan as f64 / freq_hz;
    let throughput = if makespan == 0 { 0.0 } else { stats.completed as f64 / makespan_secs };
    let busy_total: u64 = stats.busy_cycles.iter().sum();
    let utilization = if makespan == 0 {
        0.0
    } else {
        busy_total as f64 / (makespan as f64 * stats.busy_cycles.len() as f64)
    };
    let mean_batch =
        if stats.batches == 0 { 0.0 } else { stats.completed as f64 / stats.batches as f64 };

    let config = Json::obj([
        ("workload", Json::from(cfg.workload.as_str())),
        ("jobs", Json::from(cfg.jobs)),
        ("rate_jobs_per_sec", Json::F64(cfg.rate)),
        ("tenants", Json::from(cfg.tenants)),
        ("workers", Json::from(cfg.workers)),
        ("ctx", Json::from(cfg.ctx)),
        ("bounded", Json::from(cfg.bounded)),
        ("queue_cap", Json::from(cfg.effective_queue_cap())),
        ("batch_max", Json::from(cfg.batch_max)),
        ("retry_after_cycles", Json::U64(cfg.effective_retry_after())),
        ("max_retries", Json::U64(u64::from(cfg.max_retries))),
        ("seed", Json::U64(cfg.seed)),
        ("freq_ghz", Json::F64(cfg.freq_ghz())),
        ("weights", Json::arr(cfg.effective_weights().into_iter().map(Json::U64))),
        ("arrival_shares", Json::arr(cfg.effective_arrival_shares().into_iter().map(Json::U64))),
        ("estimator", Json::from(summary.total.kind())),
        ("quantile_rel_error_bound", Json::F64(summary.total.rel_error_bound())),
    ]);

    let mut counters: Vec<(String, Json)> = vec![
        ("jobs_offered".into(), Json::U64(stats.offered)),
        ("jobs_admitted".into(), Json::U64(stats.admitted)),
        ("jobs_completed".into(), Json::U64(stats.completed)),
        ("jobs_rejected".into(), Json::U64(stats.rejected)),
        ("reject_events".into(), Json::U64(stats.reject_events)),
        ("retries".into(), Json::U64(stats.retries)),
        ("batches".into(), Json::U64(stats.batches)),
        ("backpressure_events".into(), Json::U64(stats.backpressure_events)),
        ("max_pending".into(), Json::U64(stats.max_pending as u64)),
        ("dispatch_cycles_total".into(), Json::U64(stats.dispatch_cycles_total)),
        ("makespan_cycles".into(), Json::U64(makespan)),
        ("spans_dropped".into(), Json::U64(spans_dropped)),
    ];
    hist_counters(&mut counters, "queue", &summary.queue);
    hist_counters(&mut counters, "service", &summary.service);
    hist_counters(&mut counters, "total", &summary.total);
    for (t, (&done, &served)) in
        stats.completed_per_tenant.iter().zip(&stats.served_cycles).enumerate()
    {
        counters.push((format!("tenant{t}_completed"), Json::U64(done)));
        counters.push((format!("tenant{t}_service_cycles"), Json::U64(served)));
    }
    for (t, lat) in summary.per_tenant.iter().enumerate() {
        hist_counters(&mut counters, &format!("tenant{t}_queue"), &lat.queue);
        hist_counters(&mut counters, &format!("tenant{t}_service"), &lat.service);
        hist_counters(&mut counters, &format!("tenant{t}_total"), &lat.total);
    }
    for (w, &busy) in stats.busy_cycles.iter().enumerate() {
        counters.push((format!("worker{w}_busy_cycles"), Json::U64(busy)));
    }

    let derived = Json::obj([
        ("throughput_jobs_per_sec", Json::F64(throughput)),
        ("offered_rate_jobs_per_sec", Json::F64(cfg.rate)),
        ("utilization", Json::F64(utilization)),
        (
            "completion_ratio",
            Json::F64(if stats.offered == 0 {
                0.0
            } else {
                stats.completed as f64 / stats.offered as f64
            }),
        ),
        ("mean_queue_cycles", Json::F64(summary.queue.mean())),
        ("mean_service_cycles", Json::F64(summary.service.mean())),
        ("mean_total_cycles", Json::F64(summary.total.mean())),
        ("mean_batch_jobs", Json::F64(mean_batch)),
    ]);

    Json::obj([
        ("v", Json::U64(LATENCY_ARTIFACT_VERSION)),
        ("kind", Json::from("latency")),
        ("workload", Json::from(cfg.workload.as_str())),
        ("config", config),
        ("counters", Json::Obj(counters)),
        ("derived", derived),
    ])
}

fn fmt_hist_line(out: &mut String, name: &str, h: &Sketch, freq_ghz: f64) {
    let (p50, p99, p999) = h.p50_p99_p999();
    let us = |cycles: u64| cycles as f64 / (freq_ghz * 1e3);
    let _ = writeln!(
        out,
        "  {name:<8} p50 {:>10.1} us   p99 {:>10.1} us   p999 {:>10.1} us   max {:>10.1} us",
        us(p50),
        us(p99),
        us(p999),
        us(h.max().unwrap_or(0)),
    );
}

/// Human-readable run summary for the terminal.
#[must_use]
pub fn render(cfg: &ServeConfig, stats: &SchedStats, summary: &LatencySummary) -> String {
    let mut out = String::new();
    let freq = cfg.freq_ghz();
    let makespan_secs = stats.makespan() as f64 / (freq * 1e9);
    let throughput = if makespan_secs > 0.0 { stats.completed as f64 / makespan_secs } else { 0.0 };
    let _ = writeln!(
        out,
        "serve {} | {} tenants, {} workers x {} ctx, {} admission",
        cfg.workload,
        cfg.tenants,
        cfg.workers,
        cfg.ctx,
        if cfg.bounded { "bounded" } else { "unbounded" },
    );
    let _ = writeln!(
        out,
        "  offered {} @ {:.0} jobs/s | admitted {} | completed {} | rejected {} ({} bounce, {} retry)",
        stats.offered, cfg.rate, stats.admitted, stats.completed, stats.rejected,
        stats.reject_events, stats.retries,
    );
    let _ = writeln!(
        out,
        "  throughput {throughput:.0} jobs/s | makespan {:.3} s | batches {} (mean {:.2} jobs) | max pending {}",
        makespan_secs,
        stats.batches,
        if stats.batches == 0 { 0.0 } else { stats.completed as f64 / stats.batches as f64 },
        stats.max_pending,
    );
    if summary.total.kind() == "sketch" {
        let _ = writeln!(
            out,
            "  quantiles: sketch estimator, relative error <= {:.4}",
            summary.total.rel_error_bound(),
        );
    }
    fmt_hist_line(&mut out, "queue", &summary.queue, freq);
    fmt_hist_line(&mut out, "service", &summary.service, freq);
    fmt_hist_line(&mut out, "total", &summary.total, freq);
    for (t, &done) in stats.completed_per_tenant.iter().enumerate() {
        let _ =
            writeln!(out, "  tenant {t}: {done} jobs, {} service cycles", stats.served_cycles[t]);
        if let Some(lat) = summary.per_tenant.get(t) {
            if !lat.total.is_empty() {
                fmt_hist_line(&mut out, &format!("t{t} total"), &lat.total, freq);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{JobRecord, Outcome, SchedObserver};
    use crate::ServeTelemetry;
    use gpstream_telemetry::SloTarget;

    fn rec(id: usize, arrival: u64, admit: u64, start: u64, finish: u64) -> JobRecord {
        JobRecord {
            id,
            tenant: 0,
            variant: 0,
            arrival,
            attempts: 1,
            outcome: Outcome::Completed { admit, start, finish, worker: 0 },
        }
    }

    /// Resolve `records` through the one observer a run has.
    fn summarize(records: &[JobRecord], tenants: usize) -> LatencySummary {
        let mut cfg = ServeConfig::new("ldstcomp");
        cfg.tenants = tenants;
        let mut plane = ServeTelemetry::new(&cfg, &vec![SloTarget::new(1_000, 0.99); tenants]);
        for r in records {
            match r.outcome {
                Outcome::Completed { .. } => plane.on_complete(r),
                Outcome::Rejected { .. } => plane.on_rejected(r),
            }
        }
        plane.finish(&cfg).1
    }

    #[test]
    fn summary_splits_queue_service_total() {
        let records = vec![
            rec(0, 100, 100, 150, 250),
            rec(1, 200, 210, 300, 360),
            JobRecord {
                id: 2,
                tenant: 0,
                variant: 0,
                arrival: 300,
                attempts: 3,
                outcome: Outcome::Rejected { last_attempt: 500 },
            },
        ];
        let s = summarize(&records, 2);
        assert_eq!(s.queue.count(), 2, "rejected jobs carry no latency");
        assert_eq!(s.queue.max(), Some(90));
        assert_eq!(s.service.max(), Some(100));
        assert_eq!(s.total.max(), Some(160));
        // Tenant split: all completions were tenant 0's; per-tenant
        // histograms merged back equal the run-wide ones.
        assert_eq!(s.per_tenant.len(), 2);
        assert_eq!(s.per_tenant[0].total.count(), 2);
        assert!(s.per_tenant[1].total.is_empty());
        let mut merged = s.per_tenant[0].total.clone();
        merged.merge(&s.per_tenant[1].total);
        assert_eq!(merged, s.total);
    }

    #[test]
    fn artifact_has_the_latency_shape() {
        let cfg = ServeConfig::new("ldstcomp");
        let records = vec![rec(0, 0, 0, 10, 110)];
        let stats = SchedStats {
            offered: 1,
            admitted: 1,
            completed: 1,
            rejected: 0,
            reject_events: 0,
            retries: 0,
            batches: 1,
            dispatch_cycles_total: 10,
            busy_cycles: vec![110, 0],
            served_cycles: vec![100, 0, 0, 0],
            completed_per_tenant: vec![1, 0, 0, 0],
            backpressure_events: 0,
            high_water: 96,
            max_pending: 1,
            peak_retries: 0,
            first_arrival: 0,
            last_finish: 110,
        };
        let summary = summarize(&records, 4);
        let doc = artifact_json(&cfg, &stats, &summary, 7);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("latency"));
        assert_eq!(doc.get("v").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("config").and_then(|c| c.get("estimator")).and_then(Json::as_str),
            Some("exact")
        );
        let counters = doc.get("counters").expect("counters object");
        assert_eq!(counters.get("jobs_completed").and_then(Json::as_u64), Some(1));
        assert_eq!(counters.get("spans_dropped").and_then(Json::as_u64), Some(7));
        assert_eq!(counters.get("total_p50_cycles").and_then(Json::as_u64), Some(110));
        assert_eq!(counters.get("tenant0_total_p99_cycles").and_then(Json::as_u64), Some(110));
        assert_eq!(counters.get("tenant3_total_p99_cycles").and_then(Json::as_u64), Some(0));
        assert!(doc.get("derived").and_then(|d| d.get("throughput_jobs_per_sec")).is_some());
        // Canonical doc text parses back; whole-number floats re-read as
        // integers, so compare through the numeric accessor.
        let text = doc.to_doc_string();
        let back = Json::parse(text.trim_end()).unwrap();
        assert_eq!(back.get("kind").and_then(Json::as_str), Some("latency"));
        assert_eq!(
            back.get("config").and_then(|c| c.get("rate_jobs_per_sec")).and_then(Json::as_f64),
            Some(500.0)
        );
        // Render shouldn't panic and mentions the workload.
        let text = render(&cfg, &stats, &summary);
        assert!(text.contains("ldstcomp"));
    }
}
