//! Integration gates for the serving harness.
//!
//! Four contracts are enforced here rather than trusted:
//!
//! * **Determinism** — the same seed and config produce a byte-identical
//!   latency artifact across repeated runs *and* across execution-pool
//!   thread counts, at the acceptance scale (10 000 open-loop jobs,
//!   4 tenants). The telemetry plane (windowed time series, SLO
//!   artifact, span trace) is held to the same byte-identical bar.
//! * **Committed SLO baseline** — re-running the catalog-mix SLO
//!   experiment reproduces `profiles/serve/slo-mix.json` byte for byte.
//! * **Backpressure** — under 2x overload, bounded admission beats
//!   unbounded queueing on p99 total latency, and both sides reproduce
//!   the committed `profiles/serve/ablation-{bounded,unbounded}.json`
//!   byte for byte.
//! * **Fair sharing** — the weighted fair scheduler is work-conserving
//!   (asserted inside `schedule_stream` on every dispatch round) and delivers
//!   service in proportion to tenant weights while everyone is
//!   backlogged, over long deterministic traces.
//!
//! Plus a regression test that `figures diff --strict` semantics treat a
//! latency-vs-profile comparison as a kind mismatch.

use gpstream_serve::{
    ablation, build_table, run_service, schedule_service, schedule_stream, JobRecord, OfferedJob,
    Outcome, RecordKeeper, SchedConfig, SchedStats, ServeConfig, EXACT_MODE_MAX_JOBS,
};
use gpstream_util::check::run_cases;
use gpstream_util::{Rng64, Sketch};

/// Schedule a time-ordered trace keeping every record, sorted by id.
fn schedule(
    offered: &[OfferedJob],
    service_cycles: &[u64],
    cfg: &SchedConfig,
) -> (Vec<JobRecord>, SchedStats) {
    let mut keeper = RecordKeeper::new(1);
    let stats = schedule_stream(offered.iter().copied(), service_cycles, cfg, &mut keeper);
    (keeper.into_records(), stats)
}

#[test]
fn ten_thousand_jobs_same_seed_byte_identical_artifact() {
    let mut cfg = ServeConfig::new("ldstcomp");
    cfg.jobs = 10_000;
    cfg.tenants = 4;
    cfg.rate = 2_000.0;
    cfg.exec_pool_threads = 1;
    let a = run_service(&cfg).expect("known workload");
    assert_eq!(a.stats.offered, 10_000);
    assert_eq!(
        a.stats.completed + a.stats.rejected,
        10_000,
        "every offered job resolves to completion or final rejection"
    );
    assert!(a.stats.completed >= 9_000, "the service sustains the offered load");
    assert_eq!(a.exec.executed, a.stats.completed, "every completion really executed");

    // Fresh run of the same config on a different execution-pool thread
    // count: identical bytes. One comparison covers both halves of the
    // gate — run-to-run reproducibility and pool-size independence —
    // because the runs share nothing but the config.
    cfg.exec_pool_threads = 4;
    let b = run_service(&cfg).expect("known workload");
    assert_eq!(a.artifact, b.artifact, "artifact must be byte-identical across runs and pools");
    // The whole telemetry plane is held to the same bar: windowed time
    // series, SLO burn-rate artifact, and the span trace all in virtual
    // time, so pool threads must not move a byte of any of them.
    assert_eq!(
        a.telemetry.series.csv, b.telemetry.series.csv,
        "windowed time series must be byte-identical across runs and pools"
    );
    assert_eq!(
        a.telemetry.series.json, b.telemetry.series.json,
        "time-series JSON must be byte-identical across runs and pools"
    );
    assert_eq!(
        a.telemetry.slo_artifact, b.telemetry.slo_artifact,
        "SLO artifact must be byte-identical across runs and pools"
    );
    assert_eq!(
        a.telemetry.chrome_trace(),
        b.telemetry.chrome_trace(),
        "span trace must be byte-identical across runs and pools"
    );

    // A different seed genuinely moves the artifact (the gate is not
    // vacuously comparing constants); cheap at a small job count.
    cfg.jobs = 500;
    let c = run_service(&cfg).expect("known workload");
    cfg.seed ^= 1;
    let d = run_service(&cfg).expect("known workload");
    assert_ne!(c.artifact, d.artifact);
}

#[test]
fn committed_slo_artifact_reproduces_byte_for_byte() {
    // The exact run CI publishes and diffs:
    //   figures serve mix --slo --jobs 5000 --out profiles/serve/slo-mix.json
    // Regenerate it here and compare against the committed bytes, so the
    // baseline can never drift silently out of sync with the code.
    let mut cfg = ServeConfig::new("mix");
    cfg.jobs = 5_000;
    let outcome = run_service(&cfg).expect("known workload");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles/serve/slo-mix.json");
    let committed = std::fs::read_to_string(path).expect(
        "profiles/serve/slo-mix.json is committed; regenerate with \
         `figures serve mix --slo --jobs 5000 --out profiles/serve/slo-mix.json`",
    );
    assert_eq!(
        outcome.telemetry.slo_artifact, committed,
        "SLO artifact for the catalog mix drifted from the committed baseline; \
         regenerate profiles/serve/slo-mix.json if the change is intentional"
    );
    // The committed document parses as an `slo`-kind artifact, so
    // `figures diff` can read it.
    let art = gpstream_profile::Artifact::parse(committed.trim_end()).expect("slo parses");
    assert_eq!(art.kind.name(), "slo");
}

#[test]
fn bounded_admission_beats_unbounded_on_p99_total_under_overload() {
    // The committed ablation, written by
    //   figures serve ldstcomp --jobs 5000 --ablation --out profiles/serve/ablation.json
    let mut cfg = ServeConfig::new("ldstcomp");
    cfg.jobs = 5_000;
    let (bounded, unbounded) = ablation(&cfg).expect("known workload");
    for (side, outcome) in [("bounded", &bounded), ("unbounded", &unbounded)] {
        let path =
            format!("{}/../../profiles/serve/ablation-{side}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed ablation artifact");
        assert_eq!(outcome.artifact, committed, "ablation-{side}.json drifted");
    }
    assert!(bounded.cfg.bounded && !unbounded.cfg.bounded);
    assert_eq!(bounded.cfg.rate, unbounded.cfg.rate, "same overload on both sides");
    let pb = bounded.summary.total.quantile(0.99).expect("bounded completions");
    let pu = unbounded.summary.total.quantile(0.99).expect("unbounded completions");
    assert!(pb < pu, "bounded admission must beat unbounded on p99 total latency ({pb} vs {pu})");
    // The mechanism, not just the outcome: bounded sheds load and keeps
    // the pending queue near its cap; unbounded admits everything and
    // the queue grows far past it.
    assert!(bounded.stats.reject_events > 0, "overload must trigger admission rejects");
    assert!(bounded.stats.max_pending <= bounded.cfg.effective_queue_cap());
    assert!(unbounded.stats.rejected == 0);
    assert!(unbounded.stats.max_pending > 4 * bounded.cfg.effective_queue_cap());
}

/// A saturating synthetic trace: `jobs` arrivals one cycle apart,
/// round-robin across tenants, so every tenant stays backlogged for the
/// whole arrival window.
fn saturating_trace(jobs: usize, tenants: usize) -> Vec<OfferedJob> {
    (0..jobs)
        .map(|id| OfferedJob { id, tenant: id % tenants, variant: 0, arrival: 1 + id as u64 })
        .collect()
}

#[test]
fn fair_share_property_service_tracks_weights_while_backlogged() {
    // Weighted shares within tolerance over long deterministic traces:
    // random weight vectors, one saturated worker, service measured only
    // inside the window where every tenant is still backlogged.
    run_cases("wfq-shares", 0x5e4e_0001, 24, |rng: &mut Rng64| {
        let tenants = rng.range_usize_inclusive(2, 5);
        let weights: Vec<u64> = (0..tenants).map(|_| 1 + rng.below(7)).collect();
        let jobs = 4_000;
        let offered = saturating_trace(jobs, tenants);
        let service = 1_000u64;
        let cfg = SchedConfig {
            workers: 1,
            bounded: false,
            queue_cap: 0,
            batch_max: rng.range_usize_inclusive(1, 4),
            dispatch_cycles: rng.below(20),
            retry_after: 1,
            max_retries: 0,
            weights: weights.clone(),
            check_invariants: true,
        };
        let (records, stats) = schedule(&offered, &[service], &cfg);
        assert_eq!(stats.completed, jobs as u64);

        // Service delivered per tenant among jobs finishing while the
        // arrival window is still open (every tenant backlogged there).
        let window_end = offered.last().unwrap().arrival;
        let mut served = vec![0u64; tenants];
        for r in &records {
            if let Outcome::Completed { finish, .. } = r.outcome {
                if finish <= window_end {
                    served[r.tenant] += service;
                }
            }
        }
        let total: u64 = served.iter().sum();
        assert!(total > 0, "window long enough to complete work");
        let weight_total: u64 = weights.iter().sum();
        for (t, (&got, &w)) in served.iter().zip(&weights).enumerate() {
            let want = total as f64 * w as f64 / weight_total as f64;
            // One batch of slack either way, plus 2% tolerance.
            let slack = cfg.batch_max as f64 * service as f64 + 0.02 * total as f64;
            assert!(
                (got as f64 - want).abs() <= slack,
                "tenant {t} (weight {w}/{weight_total}) got {got} of {total} service cycles, \
                 want ~{want:.0} (weights {weights:?}, batch_max {})",
                cfg.batch_max,
            );
        }
    });
}

#[test]
fn fair_share_property_work_conserving_under_random_load() {
    // `check_invariants` asserts after every dispatch round that no
    // worker idles while any tenant is backlogged; drive it across
    // random shapes (bursty arrivals, mixed service times, bounded and
    // unbounded admission).
    run_cases("wfq-work-conserving", 0x5e4e_0002, 24, |rng: &mut Rng64| {
        let tenants = rng.range_usize_inclusive(1, 4);
        let variants: Vec<u64> =
            (0..rng.range_usize_inclusive(1, 4)).map(|_| 100 + rng.below(5_000)).collect();
        let mut arrival = 0u64;
        let offered: Vec<OfferedJob> = (0..600)
            .map(|id| {
                arrival += rng.below(800);
                OfferedJob {
                    id,
                    tenant: rng.below_usize(tenants),
                    variant: rng.below_usize(variants.len()),
                    arrival,
                }
            })
            .collect();
        let cfg = SchedConfig {
            workers: rng.range_usize_inclusive(1, 4),
            bounded: rng.below(2) == 0,
            queue_cap: rng.range_usize_inclusive(2, 32),
            batch_max: rng.range_usize_inclusive(1, 8),
            dispatch_cycles: rng.below(300),
            retry_after: 1 + rng.below(5_000),
            max_retries: rng.below(4) as u32,
            weights: (0..tenants).map(|_| 1 + rng.below(5)).collect(),
            check_invariants: true,
        };
        let (records, stats) = schedule(&offered, &variants, &cfg);
        assert_eq!(records.len(), 600);
        assert_eq!(stats.completed + stats.rejected, 600);
        // Busy cycles can never exceed the span each worker had.
        for &busy in &stats.busy_cycles {
            assert!(busy <= stats.last_finish);
        }
    });
}

#[test]
fn retries_are_bounded_and_recorded() {
    // A producer re-offers at most `max_retries` times; attempts on the
    // final record never exceed `max_retries + 1`.
    let offered = saturating_trace(400, 2);
    let cfg = SchedConfig {
        workers: 1,
        bounded: true,
        queue_cap: 4,
        batch_max: 2,
        dispatch_cycles: 50,
        retry_after: 900,
        max_retries: 3,
        weights: vec![1, 1],
        check_invariants: true,
    };
    let (records, stats) = schedule(&offered, &[10_000], &cfg);
    assert!(stats.rejected > 0, "tiny queue under saturation must shed load");
    for r in &records {
        assert!(r.attempts <= cfg.max_retries + 1, "job {} took {} attempts", r.id, r.attempts);
        if let Outcome::Rejected { .. } = r.outcome {
            assert_eq!(r.attempts, cfg.max_retries + 1);
        }
    }
    let completed =
        records.iter().filter(|r| matches!(r.outcome, Outcome::Completed { .. })).count() as u64;
    assert_eq!(completed, stats.completed);
}

#[test]
fn diff_flags_latency_vs_profile_as_kind_mismatch() {
    // `figures diff --strict` must fail a latency-vs-profile comparison
    // rather than report a clean pass; the CLI's failing path keys off
    // `DiffReport::kind_mismatch`, pinned here.
    let mut cfg = ServeConfig::new("prodcon");
    cfg.jobs = 50;
    cfg.rate = 5_000.0;
    let outcome = run_service(&cfg).expect("known workload");
    let latency =
        gpstream_profile::Artifact::parse(outcome.artifact.trim_end()).expect("latency parses");
    assert_eq!(latency.kind.name(), "latency");

    // A minimal profile-shaped document (same structure `figures
    // profile --out` emits).
    let profile_text = concat!(
        "{\"v\":1,\"workload\":\"prodcon\",\"cycles\":1000,\"ctx_cycles\":[1000,800],",
        "\"counters\":{\"l1_misses\":10},\"derived\":{\"l1_miss_rate\":0.1}}"
    );
    let profile = gpstream_profile::Artifact::parse(profile_text).expect("profile parses");
    assert_eq!(profile.kind.name(), "profile");

    let report = gpstream_analyze::diff::diff(&latency, &profile);
    assert_eq!(report.kind_mismatch, Some(("latency", "profile")));
    let rendered = gpstream_analyze::diff::render(&report);
    assert!(rendered.contains("artifact kinds differ"));

    // Same-kind latency diff carries no mismatch: strict mode passes on
    // an in-band rerun.
    let rerun = run_service(&cfg).expect("known workload");
    let rerun_art =
        gpstream_profile::Artifact::parse(rerun.artifact.trim_end()).expect("latency parses");
    let same = gpstream_analyze::diff::diff(&latency, &rerun_art);
    assert_eq!(same.kind_mismatch, None);
    assert!(same.out_of_band().is_empty(), "identical runs diff clean");
}

#[test]
fn committed_latency_artifact_reproduces_byte_for_byte() {
    // The exact-mode baseline CI diffs freshly regenerated artifacts
    // against:
    //   figures serve mix --quiet --out profiles/serve/latency-mix-10k.json
    // (the default config: 10 000 jobs, 500 jobs/s, 4 tenants).
    let outcome = run_service(&ServeConfig::new("mix")).expect("known workload");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles/serve/latency-mix-10k.json");
    let committed = std::fs::read_to_string(path).expect(
        "profiles/serve/latency-mix-10k.json is committed; regenerate with \
         `figures serve mix --quiet --out profiles/serve/latency-mix-10k.json`",
    );
    assert_eq!(
        outcome.artifact, committed,
        "latency artifact for the catalog mix drifted from the committed baseline; \
         regenerate profiles/serve/latency-mix-10k.json if the change is intentional"
    );
}

#[test]
fn committed_loaded_sketch_artifacts_reproduce_byte_for_byte() {
    // The byte gate on the path the other baselines never reach: 2x
    // capacity, so rejects, retries, full batches and promoted sketches
    // in every distribution, over ~49 windows. Written by
    //   figures serve mix --jobs 200000 --rate 37000 --sketch --slo \
    //     --out profiles/serve/slo-mix-200k-2x-sketch.json \
    //     --timeseries profiles/serve/timeseries-mix-200k-2x-sketch.csv
    // and the same without `--slo` for the latency artifact.
    let mut cfg = ServeConfig::new("mix");
    (cfg.jobs, cfg.rate, cfg.sketch) = (200_000, 37_000.0, true);
    let outcome = run_service(&cfg).expect("known workload");
    assert!(outcome.stats.rejected > 0 && outcome.stats.retries > 0, "the run must shed load");
    assert!(outcome.summary.queue.is_promoted() && outcome.summary.total.is_promoted());
    for (file, regenerated) in [
        ("latency-mix-200k-2x-sketch.json", &outcome.artifact),
        ("slo-mix-200k-2x-sketch.json", &outcome.telemetry.slo_artifact),
        ("timeseries-mix-200k-2x-sketch.csv", &outcome.telemetry.series.csv),
    ] {
        let path = format!("{}/../../profiles/serve/{file}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed loaded-sketch baseline");
        assert_eq!(*regenerated, committed, "{file} drifted from the committed baseline");
    }
}

#[test]
fn sketch_mode_is_byte_identical_and_bounded() {
    // The bounded-memory pipeline (sketch estimators, streaming
    // registry, sampled records) is held to the same determinism bar as
    // exact mode: byte-identical artifacts across runs and pool thread
    // counts.
    let mut cfg = ServeConfig::new("ldstcomp");
    cfg.jobs = 10_000;
    cfg.rate = 2_000.0;
    cfg.sketch = true;
    cfg.exec_pool_threads = 1;
    let a = run_service(&cfg).expect("known workload");
    cfg.exec_pool_threads = 4;
    let b = run_service(&cfg).expect("known workload");
    assert_eq!(a.artifact, b.artifact, "sketch artifact must not depend on runs or pools");
    assert_eq!(a.telemetry.series.csv, b.telemetry.series.csv);
    assert_eq!(a.telemetry.series.json, b.telemetry.series.json);
    assert_eq!(a.telemetry.slo_artifact, b.telemetry.slo_artifact);
    assert_eq!(a.telemetry.chrome_trace(), b.telemetry.chrome_trace());

    // The artifact names its estimator and bound (v3 schema).
    assert!(a.artifact.contains("\"estimator\":\"sketch\""));
    assert!(a.artifact.contains("\"quantile_rel_error_bound\""));
    // Record keeping really sampled: ~1024 kept out of 10 000.
    assert_eq!(cfg.record_stride(), 9);
    assert!(a.records.len() < 2_000, "sketch mode keeps a sample, got {}", a.records.len());
    assert_eq!(
        a.exec.executed,
        a.records.iter().filter(|r| matches!(r.outcome, Outcome::Completed { .. })).count() as u64
    );

    // The streamed registry flushed every window and the CSV matches
    // the exact-mode export byte for byte: windows are exact in both
    // modes, only run totals are sketched.
    assert!(a.telemetry.series.windows_flushed > 0);
    let mut exact_cfg = cfg.clone();
    exact_cfg.sketch = false;
    let e = run_service(&exact_cfg).expect("known workload");
    assert_eq!(
        a.telemetry.series.csv, e.telemetry.series.csv,
        "sketch-mode window CSV must equal the exact-mode export"
    );
}

#[test]
fn sketch_quantiles_stay_within_their_declared_bound_of_exact() {
    // The acceptance differential at 10^4 scale: every sketch quantile
    // of every latency distribution lands within its declared relative
    // error bound of the exact histogram's answer on the same schedule.
    let mut cfg = ServeConfig::new("mix");
    cfg.jobs = 10_000;
    cfg.rate = 2_000.0;
    let table = build_table(&cfg.workload, cfg.ctx).expect("known workload");
    let exact = schedule_service(&cfg, &table);
    cfg.sketch = true;
    let sketch = schedule_service(&cfg, &table);
    assert_eq!(exact.stats, sketch.stats, "estimator choice must not move the schedule");

    let dists: [(&str, &Sketch, &Sketch); 3] = [
        ("queue", &exact.summary.queue, &sketch.summary.queue),
        ("service", &exact.summary.service, &sketch.summary.service),
        ("total", &exact.summary.total, &sketch.summary.total),
    ];
    let mut pairs: Vec<(String, Sketch, Sketch)> =
        dists.iter().map(|(n, e, s)| ((*n).to_string(), (*e).clone(), (*s).clone())).collect();
    for (t, (te, ts)) in exact.summary.per_tenant.iter().zip(&sketch.summary.per_tenant).enumerate()
    {
        pairs.push((format!("tenant{t} queue"), te.queue.clone(), ts.queue.clone()));
        pairs.push((format!("tenant{t} service"), te.service.clone(), ts.service.clone()));
        pairs.push((format!("tenant{t} total"), te.total.clone(), ts.total.clone()));
    }
    for (name, e, s) in &pairs {
        assert_eq!(e.kind(), "exact");
        assert_eq!(s.kind(), "sketch");
        assert_eq!(e.count(), s.count(), "{name}: same multiset size");
        for q in [0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = e.quantile(q).expect("completions exist");
            let (got, bound) = s.quantile_with_bound(q).expect("completions exist");
            // A sketch still on its exact low-count path declares a
            // zero bound — and must then answer exactly.
            assert!(bound <= cfg.effective_sketch_gamma());
            let err = (got as f64 - want as f64).abs();
            assert!(
                err <= bound * want as f64 + 1.0,
                "{name} q{q}: sketch {got} vs exact {want} — error {err:.1} exceeds \
                 declared bound {bound} (allowance {:.1})",
                bound * want as f64 + 1.0,
            );
        }
    }
    // The differential is not vacuous: at this scale at least one
    // distribution must have left the exact low-count path and really
    // exercised the bucketed estimator.
    assert!(
        pairs.iter().any(|(_, _, s)| s.rel_error_bound() > 0.0),
        "no distribution promoted to sketch buckets — differential is vacuous"
    );
}

#[test]
#[should_panic(expected = "must use sketch mode")]
fn exact_mode_fails_fast_above_the_job_limit() {
    let mut cfg = ServeConfig::new("ldstcomp");
    cfg.jobs = EXACT_MODE_MAX_JOBS + 1;
    let table = build_table(&cfg.workload, cfg.ctx).expect("known workload");
    // Panics before scheduling a single job.
    let _ = schedule_service(&cfg, &table);
}

#[test]
fn span_buffer_is_bounded_and_counts_drops() {
    let mut cfg = ServeConfig::new("ldstcomp");
    cfg.jobs = 500;
    cfg.rate = 2_000.0;
    cfg.span_capacity = 64;
    let out = run_service(&cfg).expect("known workload");
    assert!(out.telemetry.trace.events.len() <= 64, "span buffer overflowed its capacity");
    assert!(out.telemetry.spans_dropped > 0, "500 jobs must overflow a 64-event buffer");
    assert_eq!(out.telemetry.trace.dropped, out.telemetry.spans_dropped);
    // The drop count reaches the artifact (a latency counter) so a
    // truncated trace can never masquerade as a complete one.
    assert!(out.artifact.contains(&format!("\"spans_dropped\":{}", out.telemetry.spans_dropped)));
    // The task-name table scales with the buffer, not the job count.
    assert!(out.telemetry.trace.task_names.len() <= 64);

    // An uncapped (default) run of the same shape drops nothing.
    cfg.span_capacity = 0;
    let full = run_service(&cfg).expect("known workload");
    assert_eq!(full.telemetry.spans_dropped, 0);
    assert!(full.artifact.contains("\"spans_dropped\":0"));
}
