//! `serve-stream`, `serve-overload`, `serve-exact`: the serving harness
//! at a utilisation where queues are live, at twice capacity, and on
//! the small exact path with the functional replay.

use crate::harness::{Checks, Params, PassOut, Workload, PROGRAM_THREADS};
use crate::spans::Recorder;
use gpstream_serve::{
    build_table, estimated_capacity_jobs_per_sec, run_service, schedule_service, LatencySummary,
    SchedStats, ServeConfig, VariantTable,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 1.5 M jobs at 0.8x capacity, sketches.
    Stream,
    /// 1.5 M jobs at 2x capacity, sketches.
    Overload,
    /// 20 k jobs at 0.8x capacity, exact, with the functional replay.
    Exact,
}

const STREAM_JOBS: usize = 1_500_000;
const EXACT_JOBS: usize = 20_000;

/// `mix` at the committed default shape (4 tenants, 2 workers, bounded)
/// offered at `load` times the table's estimated capacity.
#[must_use]
pub fn config(
    jobs: usize,
    load: f64,
    sketch: bool,
    p: &Params,
    table: &VariantTable,
) -> ServeConfig {
    let mut cfg = ServeConfig::new("mix");
    cfg.jobs = jobs;
    cfg.sketch = sketch;
    cfg.seed = p.seed;
    cfg.exec_pool_threads = PROGRAM_THREADS;
    cfg.rate = load * estimated_capacity_jobs_per_sec(&cfg, table);
    cfg
}

/// The `mix` variant table (each variant compiled, oracle'd and priced).
#[must_use]
pub fn mix_table(rec: &Recorder) -> VariantTable {
    rec.span("serve", "build_table:mix", || {
        build_table("mix", 2).expect("`mix` is a serve workload")
    })
}

/// Simulated total-latency p99 in microseconds of simulated time.
#[must_use]
pub fn sim_p99_us(cfg: &ServeConfig, summary: &LatencySummary) -> f64 {
    summary.total.quantile(0.99).map_or(f64::NAN, |cycles| cycles as f64 / (cfg.freq_ghz() * 1e3))
}

/// The conservation laws every schedule must keep.
pub fn check_stats(stats: &SchedStats, jobs: usize, checks: &mut Checks) {
    checks.check(stats.offered == jobs as u64, || format!("offered {} of {jobs}", stats.offered));
    checks.check(stats.offered == stats.admitted + stats.rejected, || {
        format!(
            "offered {} != admitted {} + rejected {}",
            stats.offered, stats.admitted, stats.rejected
        )
    });
    checks.check(stats.completed == stats.admitted, || {
        format!("completed {} != admitted {}", stats.completed, stats.admitted)
    });
}

pub struct Serve {
    shape: Shape,
    cfg: ServeConfig,
    table: VariantTable,
    first: Option<SchedStats>,
    p99_us: f64,
}

impl Serve {
    pub fn set_up(shape: Shape, p: &Params, rec: &Recorder) -> Self {
        let table = mix_table(rec);
        // `--smoke`: 20 k streamed jobs, and a quarter of that replayed.
        let (stream, exact) =
            if p.smoke { (EXACT_JOBS, EXACT_JOBS / 4) } else { (STREAM_JOBS, EXACT_JOBS) };
        let cfg = match shape {
            Shape::Stream => config(stream, 0.8, true, p, &table),
            Shape::Overload => config(stream, 2.0, true, p, &table),
            Shape::Exact => config(exact, 0.8, false, p, &table),
        };
        Serve { shape, cfg, table, first: None, p99_us: f64::NAN }
    }
}

impl Workload for Serve {
    fn pass(&mut self, rec: &Recorder, checks: &mut Checks) -> PassOut {
        let (stats, summary) = if self.shape == Shape::Exact {
            // `run_service` builds its own table: exact runs pay it.
            let out = rec.span("serve", "run_service", || run_service(&self.cfg));
            let out = out.expect("`mix` is a serve workload");
            // `execute` asserts every replayed job against its oracle.
            checks.check(out.exec.executed == out.stats.completed, || {
                format!("replayed {} of {} completed jobs", out.exec.executed, out.stats.completed)
            });
            (out.stats, out.summary)
        } else {
            let run =
                rec.span("serve", "schedule_service", || schedule_service(&self.cfg, &self.table));
            (run.stats, run.summary)
        };
        check_stats(&stats, self.cfg.jobs, checks);
        self.p99_us = sim_p99_us(&self.cfg, &summary);
        let first = self.first.get_or_insert_with(|| stats.clone());
        checks.check(stats == *first, || "SchedStats changed between passes".to_string());
        let sim = vec![stats.completed, stats.rejected, stats.batches, self.p99_us.to_bits()];
        PassOut { work: stats.offered, work_secs: None, sim }
    }

    fn notes(&self) -> Vec<String> {
        let Some(s) = &self.first else { return Vec::new() };
        vec![
            format!(
                "  offered {} at {:.1} jobs/s: admitted {}, rejected {}, {} batches, {} reject \
                 events, {} retries, max pending {}",
                s.offered,
                self.cfg.rate,
                s.admitted,
                s.rejected,
                s.batches,
                s.reject_events,
                s.retries,
                s.max_pending
            ),
            format!("sim_p99_us = {:.3} us of simulated time (exact)", self.p99_us),
        ]
    }
}
