//! Run a workload under the simulator with task logging and produce the
//! full analysis: critical path, attributions, what-if table.

use crate::model::RunModel;
use crate::path::{critical_path, PathReport};
use crate::whatif::{table, WhatIfRow};
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::{SimExecutor, SimReport};
use gpstream_core::task::ScheduledProgram;
use gpstream_core::StreamGraph;
use gpstream_machine::{MachineConfig, WaitPolicy};
use gpstream_tune::workloads::{self, Workload};

/// Everything `figures analyze` reports for one run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Workload name.
    pub workload: String,
    /// Recorded run cycles.
    pub cycles: u64,
    /// The executed-DAG model the analysis was computed from.
    pub model: RunModel,
    /// The critical path with its attributions.
    pub path: PathReport,
    /// The what-if speedup table.
    pub whatif: Vec<WhatIfRow>,
}

/// Analyze an already-recorded run (the report must carry the task log
/// and profile; see [`SimExecutor::with_task_log`]). `cfg` and `wait`
/// must be the configuration the run used.
///
/// # Panics
///
/// Panics if the report has no task log.
#[must_use]
pub fn analyze_run(
    name: &str,
    program: &ScheduledProgram,
    graph: &StreamGraph,
    report: &SimReport,
    cfg: &MachineConfig,
    wait: WaitPolicy,
) -> Analysis {
    let model = RunModel::build(program, graph, report, cfg, wait);
    let replay = model.identity_replay();
    let path = critical_path(&model, &replay);
    let whatif = table(&model);
    Analysis { workload: name.to_string(), cycles: model.cycles, model, path, whatif }
}

/// Compile and simulate `wl` under the paper's defaults (out-of-order
/// queues, MWAIT) with task logging and profiling on, then analyze it.
///
/// # Panics
///
/// Panics if the workload fails to compile or breaks its oracle.
#[must_use]
pub fn analyze(wl: &Workload) -> Analysis {
    analyze_with(wl, true)
}

/// [`analyze`] with the engine named: `fast == false` runs the timing
/// pass on the cycle-stepped reference. The analysis artifact is
/// byte-identical either way (the differential suite asserts it on the
/// whole catalog); `fast` only changes how long the run takes.
///
/// # Panics
///
/// Panics if the workload fails to compile or breaks its oracle.
#[must_use]
pub fn analyze_with(wl: &Workload, fast: bool) -> Analysis {
    let cfg = MachineConfig::prescott();
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("workload compiles");
    let mut world = wl.world.clone();
    let report = SimExecutor::new()
        .with_machine(cfg.clone())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .with_profile(true)
        .with_task_log(true)
        .fast_sim(fast)
        .run(&compiled.schedule, &compiled.graph, &mut world);
    assert!(wl.matches_oracle(&world), "analyzed run must reproduce the oracle");
    analyze_run(&wl.name, &compiled.schedule, &compiled.graph, &report, &cfg, WaitPolicy::Mwait)
}

/// Analyze one catalog workload by name. Returns `None` for an unknown
/// name.
#[must_use]
pub fn analyze_workload(name: &str) -> Option<Analysis> {
    workloads::named(name).map(|wl| analyze(&wl))
}
