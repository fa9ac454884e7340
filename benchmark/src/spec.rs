//! The benchmark's contract: workload names, end-to-end metrics with
//! their bounds, and the per-layer metric list. `BENCHMARK.json` at the
//! repository root is this module printed (`benchmark spec`); a
//! self-test holds the committed file to it.

use gpstream_util::Json;

/// Seconds of timed passes per run.
pub const RUN_SECONDS: u64 = 8;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one unit of `work_per_s` is on this workload.
    pub work_unit: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "sim-dense",
        work_unit: "simulated cycles",
        why: "event-engine resume of five sequential-stream members: the batched fast path does \
              nearly all the work, so any engine change must leave this flat or better",
    },
    WorkloadSpec {
        name: "sim-gather",
        work_unit: "simulated cycles",
        why: "event-engine resume of three indexed-gather members that take the exact per-access \
              fallback: a gather fast path should move this and leave sim-dense flat",
    },
    WorkloadSpec {
        name: "paper-figs",
        work_unit: "figure data points",
        why:
            "the reproducer end to end, the same engine used differently: stepped mode, cold runs \
              with warm-up, regular-code lowering, per-call mesh generation; yields the paper error",
    },
    WorkloadSpec {
        name: "tune-explain",
        work_unit: "tuner evaluations",
        why: "tune, profile, analyze on short runs, where compile, lowering, World clones and \
              snapshots are a large share and engine steady state is not",
    },
    WorkloadSpec {
        name: "native-exec",
        work_unit: "scheduled tasks",
        why: "the paper's work queues on real threads under Spin and Park, no simulator: a \
              dispatch-bound member and a copy-bound one separate queue overhead from memcpy",
    },
    WorkloadSpec {
        name: "serve-stream",
        work_unit: "offered jobs",
        why:
            "1.5 M jobs through schedule_service at 0.8x capacity with sketches: queues, batching \
              and window flushes are live, the engine does nothing after set-up",
    },
    WorkloadSpec {
        name: "serve-overload",
        work_unit: "offered jobs",
        why: "the same service at 2x capacity: half the jobs bounce and retry, so admission \
              bookkeeping dominates and a steady-state win that hurts shedding shows here",
    },
    WorkloadSpec {
        name: "serve-exact",
        work_unit: "offered jobs",
        why: "run_service on 20 k jobs with exact histograms, materialized series and the \
              oracle-checked replay on the worker pool: the small-run path and core::pool",
    },
];

/// The unit `work_per_s` counts on `workload`.
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn work_unit(workload: &str) -> &'static str {
    WORKLOADS.iter().find(|w| w.name == workload).expect("known workload").work_unit
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Host-time metrics every workload reports. Simulated results (cycles,
/// latencies, paper error) are never mixed in: they are compared exactly,
/// as checks and as per-layer counts.
///
/// Every bound is the contract's cap of a quarter, because the 2-core
/// shared sandbox's own noise reaches half of that: over four sets of
/// ten runs on ten seeds the quartile spread of `wall_s` ran from 0.3 %
/// (a quiet quarter hour) to 12.7 %, and same-code medians taken half an
/// hour apart moved by up to 16 % (`REPEATABILITY.md`). A tighter claim
/// needs paired, alternating runs, not a tighter gate.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub const SIM_DENSE: [&str; 5] = ["triad-64k", "ldstcomp", "prodcon", "fem-mhd-quad", "neo-16384"];
pub const SIM_GATHER: [&str; 3] = ["spas-32000", "cdp-6n-8192", "gatscat"];
pub const STEPPED: [&str; 4] = ["triad-64k", "ldstcomp", "cdp-6n-8192", "spas-32000"];
pub const CATALOG: [&str; 7] = gpstream_tune::workloads::CATALOG;
pub const CORE_MEMBERS: [&str; 3] = ["gatscat", "fem-mhd-quad", "ldstcomp"];
pub const EXPLAIN_MEMBERS: [&str; 2] = ["gatscat", "fem-mhd-quad"];
pub const NATIVE_MEMBERS: [&str; 2] = ["fem-mhd-quad", "ldstcomp"];
/// The members of `sim-dense` then `sim-gather`.
#[must_use]
pub fn sim_members() -> Vec<&'static str> {
    [&SIM_DENSE[..], &SIM_GATHER[..]].concat()
}

/// What `--smoke` cuts member lists to.
pub const SMOKE_MEMBERS: [&str; 2] = ["ldstcomp", "gatscat"];

/// Members of `list` a run uses: all of them, or under `--smoke` only
/// those in [`SMOKE_MEMBERS`].
#[must_use]
pub fn members(list: &[&'static str], smoke: bool) -> Vec<&'static str> {
    list.iter().copied().filter(|m| !smoke || SMOKE_MEMBERS.contains(m)).collect()
}

pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A simulated result or a deterministic count: two runs of one
    /// commit on one seed agree on it exactly.
    pub exact: bool,
}

/// Every per-layer metric.
#[must_use]
pub fn per_layer() -> Vec<LayerMetric> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut push =
        |name: String, unit, better, exact| out.push(LayerMetric { name, unit, better, exact });
    let mut each = |prefix: &str, members: &[&str], unit, better| {
        for m in members {
            push(format!("{prefix}.{m}"), unit, better, false);
        }
    };
    each("machine.event.cyc_per_s", &sim_members(), "1/s", Higher);
    each("machine.event.ns_per_access", &sim_members(), "ns", Lower);
    each("machine.stepped.cyc_per_s", &STEPPED, "1/s", Higher);
    each("apps.build_ms", &CATALOG, "ms", Lower);
    each("compiler.compile_us", &CATALOG, "us", Lower);
    each("core.sim.snapshot_ms", &CORE_MEMBERS, "ms", Lower);
    each("core.functional.us_per_run", &CORE_MEMBERS, "us", Lower);
    each("core.world_clone_us", &CORE_MEMBERS, "us", Lower);
    each("core.native.spin.us_per_task", &NATIVE_MEMBERS, "us", Lower);
    each("core.native.park.us_per_task", &NATIVE_MEMBERS, "us", Lower);
    each("core.native.overhead_us_per_task", &NATIVE_MEMBERS, "us", Lower);
    each("tune.evaluate_ms", &EXPLAIN_MEMBERS, "ms", Lower);
    each("profile.profile_workload_ms", &EXPLAIN_MEMBERS, "ms", Lower);
    each("analyze.model_build_ms", &EXPLAIN_MEMBERS, "ms", Lower);
    each("analyze.replay_us", &EXPLAIN_MEMBERS, "us", Lower);
    each("analyze.whatif_ms", &EXPLAIN_MEMBERS, "ms", Lower);
    for (name, unit, better, exact) in [
        ("core.window.admit_complete_ns", "ns", Lower, false),
        ("core.pool.job_ns", "ns", Lower, false),
        ("tune.cold.evals_per_s", "1/s", Higher, false),
        ("tune.warm.evals_per_s", "1/s", Higher, false),
        ("tune.sim_runs", "count", Lower, true),
        ("tune.cache_hits", "count", Higher, true),
        ("profile.topdown_ms", "ms", Lower, false),
        ("profile.artifact_parse_us", "us", Lower, false),
        ("serve.build_table_ms", "ms", Lower, false),
        ("serve.arrivals.draw_ns", "ns", Lower, false),
        ("serve.sched.noop.jobs_per_s.0.8x", "1/s", Higher, false),
        ("serve.sched.noop.jobs_per_s.2x", "1/s", Higher, false),
        ("serve.observer_share.0.8x", "share", Lower, false),
        ("serve.observer_share.2x", "share", Lower, false),
        ("serve.exec.replay_us_per_job", "us", Lower, false),
        ("serve.artifact_json_ms", "ms", Lower, false),
        ("serve.batches.0.8x", "count", Lower, true),
        ("serve.max_pending.0.8x", "count", Lower, true),
        ("serve.reject_events.2x", "count", Lower, true),
        ("serve.retries.2x", "count", Lower, true),
        ("serve.rejected_share.2x", "share", Lower, true),
        ("serve.sim_p99_us.0.8x", "us", Lower, true),
        ("serve.sim_p99_us.2x", "us", Lower, true),
        ("telemetry.stream.observe_ns", "ns", Lower, false),
        ("telemetry.stream.flush_us_per_window", "us", Lower, false),
        ("telemetry.windows_flushed", "count", Lower, true),
        ("telemetry.registry.series_ms", "ms", Lower, false),
        ("telemetry.slo.record_ns", "ns", Lower, false),
        ("util.sketch.record_ns", "ns", Lower, false),
        ("util.sketch.merge_ns", "ns", Lower, false),
        ("util.sketch.quantile_us", "us", Lower, false),
        ("util.hist.record_ns", "ns", Lower, false),
        ("util.json.write_mb_per_s", "MB/s", Higher, false),
        ("util.rng.next_ns", "ns", Lower, false),
        ("microbench.fig5_ms", "ms", Lower, false),
        ("microbench.fig6_ms", "ms", Lower, false),
        ("microbench.fig8_ms", "ms", Lower, false),
        ("microbench.fig9_series_ms", "ms", Lower, false),
        ("bench.fig9_ms", "ms", Lower, false),
        ("bench.fig11a_ms", "ms", Lower, false),
        ("bench.fig11b_ms", "ms", Lower, false),
        ("bench.fig11c_ms", "ms", Lower, false),
        ("bench.paper_err_mean_pct", "%", Lower, true),
        ("bench.trace_overhead_pct", "%", Lower, false),
    ] {
        push(name.to_string(), unit, better, exact);
    }
    out
}

/// Why the contract refuses `name`, if it does: names start with a
/// letter or digit and hold at most 64 of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn name_error(name: &str) -> Option<String> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    if name.is_empty() || name.len() > 64 {
        Some(format!("`{name}`: a name has 1 to 64 characters"))
    } else if !name.starts_with(|c: char| c.is_ascii_alphanumeric()) {
        Some(format!("`{name}`: a name starts with a letter or a digit"))
    } else if !name.chars().all(ok_char) {
        Some(format!("`{name}`: a name is made of letters, digits, `_`, `.` and `-`"))
    } else {
        None
    }
}

/// Everything wrong with a set of names against the contract's limits
/// (2 to 8 workloads, 1 to 16 end-to-end, 1 to 128 per-layer metrics,
/// every name well-formed and used once).
#[must_use]
pub fn validate(workloads: &[&str], end_to_end: &[&str], per_layer: &[&str]) -> Vec<String> {
    let mut errors = Vec::new();
    for (what, names, lo, hi) in [
        ("workloads", workloads, 2, 8),
        ("end-to-end metrics", end_to_end, 1, 16),
        ("per-layer metrics", per_layer, 1, 128),
    ] {
        if names.len() < lo || names.len() > hi {
            errors.push(format!("{} {what}: the contract allows {lo} to {hi}", names.len()));
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for name in workloads.iter().chain(end_to_end).chain(per_layer) {
        errors.extend(name_error(name));
        if !seen.insert(*name) {
            errors.push(format!("`{name}` is used twice"));
        }
    }
    errors
}

/// `BENCHMARK.json`, generated.
#[must_use]
pub fn benchmark_json() -> Json {
    let command = ["cargo", "run", "--release", "--quiet", "--offline", "--manifest-path"]
        .into_iter()
        .chain(["benchmark/Cargo.toml", "--"]);
    Json::obj([
        ("command", Json::arr(command.map(Json::from))),
        ("paths", Json::arr([Json::from("benchmark")])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(WORKLOADS.iter().map(|w| {
                let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                Json::obj([("name", Json::from(w.name)), ("why", Json::from(why))])
            })),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().map(|m| {
                Json::obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.as_str())),
                    ("bound", Json::F64(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Json::arr(per_layer().into_iter().map(|m| {
                Json::obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.as_str())),
                ])
            })),
        ),
    ])
}

/// `benchmark spec`: print `BENCHMARK.json`, unless the contract would
/// refuse it.
pub fn print() -> Result<std::process::ExitCode, String> {
    let errors = validate_spec();
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    print!("{}", benchmark_json().to_doc_string());
    Ok(std::process::ExitCode::SUCCESS)
}

/// [`validate`] applied to this module's own lists.
fn validate_spec() -> Vec<String> {
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layers = per_layer();
    let layers: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
    validate(&workloads, &end_to_end, &layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_meets_the_contract() {
        assert_eq!(validate_spec(), Vec::<String>::new());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS.iter().all(|w| w.why.split_whitespace().count() > 3));
        for w in &WORKLOADS {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why is {} characters", w.name, why.len());
        }
    }

    #[test]
    fn validation_rejects_bad_names_and_counts() {
        assert!(name_error("machine.event.cyc_per_s.cdp-6n-8192").is_none());
        assert!(name_error("0.8x").is_none());
        assert!(name_error("").is_some());
        assert!(name_error(".hidden").is_some());
        assert!(name_error("has space").is_some());
        assert!(name_error("slash/inside").is_some());
        assert!(name_error(&"x".repeat(65)).is_some());
        let nine: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
        let nine: Vec<&str> = nine.iter().map(String::as_str).collect();
        assert_eq!(validate(&nine, &["a"], &["b"]).len(), 1);
        assert_eq!(validate(&["w1"], &["a"], &["b"]).len(), 1);
        let seventeen: Vec<String> = (0..17).map(|i| format!("e{i}")).collect();
        let seventeen: Vec<&str> = seventeen.iter().map(String::as_str).collect();
        assert_eq!(validate(&["w1", "w2"], &seventeen, &["b"]).len(), 1);
        let many: Vec<String> = (0..129).map(|i| format!("l{i}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        assert_eq!(validate(&["w1", "w2"], &["a"], &many).len(), 1);
        assert_eq!(validate(&["w1", "w2"], &["a"], &["a"]), vec!["`a` is used twice".to_string()]);
    }

    #[test]
    fn committed_benchmark_json_is_the_spec_printed() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            Json::parse(&benchmark_json().to_doc_string()).expect("generated spec parses"),
            "BENCHMARK.json is out of date: regenerate it with `benchmark spec`"
        );
    }
}
