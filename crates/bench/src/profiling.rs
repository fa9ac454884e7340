//! `figures profile`: run one catalog workload under the simulating
//! executor with full counter instrumentation and render every report
//! the profiler produces. All outputs except the native parity report
//! are byte-deterministic for a fixed workload.

use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::native::NativeExecutor;
use gpstream_core::exec::sim::{SimExecutor, DEFAULT_SAMPLE_INTERVAL};
use gpstream_machine::{EngineStats, MachineConfig};
use gpstream_profile::{report, topdown, CounterSet};
use gpstream_tune::workloads;

/// Every deterministic artifact of one profiled run, plus the engine's
/// account of how it simulated it.
pub struct ProfileOutputs {
    /// Workload name (catalog id).
    pub workload: String,
    /// The counter set the reports were rendered from (baselines
    /// capture/check against this).
    pub counters: CounterSet,
    /// `perf stat`-style text report.
    pub perf_stat: String,
    /// Top-down self/total tree, rendered.
    pub topdown: String,
    /// Collapsed-stack (flamegraph) export.
    pub folded: String,
    /// Interval counter time-series as CSV.
    pub samples_csv: String,
    /// The same counter stream re-aggregated through the
    /// `gpstream-telemetry` windowed registry (one counter per memory
    /// statistic, tumbling windows of four sample intervals) as CSV.
    /// Window deltas provably sum to the run totals.
    pub telemetry_csv: String,
    /// The whole profile as one JSON document.
    pub json: String,
    /// How the engine retired the run's bulk work: host-side, depends
    /// on the step mode, part of no artifact.
    pub engine: EngineStats,
}

/// Profile one catalog workload (see
/// [`workloads::CATALOG`]) at the given sampling interval. `in_order`
/// profiles the run with head-blocking work queues instead of the
/// default out-of-order `tail_depend` issue — diffing the two
/// artifacts shows what the out-of-order queues buy. `fast` runs the
/// timing pass in the event-driven step mode; every artifact is
/// byte-identical either way (the differential suite asserts it), so
/// baselines captured in one mode check cleanly in the other. Returns
/// `None` for an unknown workload name.
///
/// # Panics
///
/// Panics if the workload fails to compile under the paper's default
/// options or the run does not reproduce the functional oracle.
#[must_use]
pub fn profile_workload(
    name: &str,
    interval: Option<u64>,
    in_order: bool,
    fast: bool,
) -> Option<ProfileOutputs> {
    let wl = workloads::named(name)?;
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("catalog workload compiles");
    let mut world = wl.world.clone();
    let sim_report = SimExecutor::new()
        .with_machine(MachineConfig::prescott())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .in_order(in_order)
        .fast_sim(fast)
        .with_profile(true)
        .with_sample_interval(interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL))
        .run(&compiled.schedule, &compiled.graph, &mut world);
    assert!(wl.matches_oracle(&world), "profiled run must reproduce the oracle");
    let engine = sim_report.engine_stats();
    let prof = sim_report.profile.expect("profiling was enabled");
    let counters = CounterSet::from(&sim_report.timing);
    let tree = topdown::topdown(
        name,
        &compiled.schedule,
        &compiled.graph,
        &prof,
        &sim_report.timing.ctx_cycles,
        &sim_report.timing.phases,
    );
    // Tumbling windows of four sample intervals: coarse enough that the
    // windowed view aggregates rather than mirrors the raw samples,
    // still fine enough to see phase transitions.
    let window = interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL) * 4;
    let telemetry_csv =
        gpstream_telemetry::sim::from_sim_samples(&prof.samples, window).series().to_csv();
    Some(ProfileOutputs {
        workload: name.to_string(),
        perf_stat: report::perf_stat_text(name, &counters),
        topdown: topdown::render(&tree),
        folded: topdown::collapsed(&tree),
        samples_csv: report::samples_csv(&prof.samples),
        telemetry_csv,
        json: report::profile_json(name, &counters, &tree, &prof).to_doc_string(),
        counters,
        engine,
    })
}

/// Native-executor parity report: run the workload `repeats` times on
/// the real two-thread runtime with per-task wall-clock timing and
/// render min/median/max nanoseconds per task in the same class-grouped
/// shape as the simulated top-down tree. Returns `None` for an unknown
/// workload. Wall-clock numbers are *not* deterministic.
///
/// # Panics
///
/// Panics if `repeats` is zero or a run breaks the functional oracle.
#[must_use]
pub fn native_parity(name: &str, repeats: usize) -> Option<String> {
    assert!(repeats > 0, "need at least one repeat");
    let wl = workloads::named(name)?;
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("catalog workload compiles");
    let exec = NativeExecutor::new().with_srf(copts.srf).with_task_timing(true);
    let mut runs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut world = wl.world.clone();
        let report = exec.run(&compiled.schedule, &compiled.graph, &mut world);
        assert!(wl.matches_oracle(&world), "native run must reproduce the oracle");
        runs.push(report.task_times.expect("task timing was enabled"));
    }
    Some(report::native_profile_text(name, &compiled.schedule, &compiled.graph, &runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_none() {
        assert!(profile_workload("not-a-workload", None, false, false).is_none());
    }

    #[test]
    fn profile_outputs_are_deterministic_and_mode_independent() {
        let a = profile_workload("ldstcomp", None, false, false).unwrap();
        let b = profile_workload("ldstcomp", None, false, true).unwrap();
        assert_eq!(a.perf_stat, b.perf_stat);
        assert_eq!(a.topdown, b.topdown);
        assert_eq!(a.folded, b.folded);
        assert_eq!(a.samples_csv, b.samples_csv);
        assert_eq!(a.telemetry_csv, b.telemetry_csv);
        assert_eq!(a.json, b.json);
        assert!(a.perf_stat.contains("cycles"));
        assert!(a.folded.contains("ldstcomp;"));
        assert!(a.telemetry_csv.starts_with("window,start_cycle,end_cycle,"));
        assert!(a.telemetry_csv.lines().count() > 1, "windowed series has rows");
    }

    #[test]
    fn native_parity_report_covers_all_tasks() {
        let text = native_parity("ldstcomp", 3).unwrap();
        assert!(text.contains("3 runs"));
        assert!(text.contains("median ns"));
    }
}
