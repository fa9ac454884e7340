//! Analyzer test suite: identity-replay exactness, critical-path sanity
//! properties, what-if validation against real re-simulations, the
//! memory-free differential bound, and the artifact-diff acceptance
//! checks.

use gpstream_analyze::{
    analyze, analyze_run, critical_members, diff::diff, predict, render, slack, Scenario,
};
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::{SimExecutor, SimReport};
use gpstream_machine::{MachineConfig, WaitPolicy};
use gpstream_profile::artifact::Artifact;
use gpstream_profile::{report, topdown, CounterSet};
use gpstream_tune::workloads::{self, Workload};

/// Run `wl` with task logging and profiling under the paper defaults,
/// optionally with a modified machine configuration.
fn record(
    wl: &Workload,
    cfg: &MachineConfig,
) -> (gpstream_core::CheckedProgram, gpstream_core::StreamGraph, SimReport) {
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("workload compiles");
    let mut world = wl.world.clone();
    let report = SimExecutor::new()
        .with_machine(cfg.clone())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .with_profile(true)
        .with_task_log(true)
        .run(&compiled.schedule, &compiled.graph, &mut world);
    (compiled.schedule, compiled.graph, report)
}

/// Total cycles of a plain run of `wl` under `cfg`.
fn sim_cycles(wl: &Workload, cfg: &MachineConfig) -> u64 {
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("workload compiles");
    let mut world = wl.world.clone();
    SimExecutor::new()
        .with_machine(cfg.clone())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .run(&compiled.schedule, &compiled.graph, &mut world)
        .timing
        .cycles
}

fn small_workloads() -> Vec<Workload> {
    vec![
        workloads::micro("ldstcomp", 2048, 2),
        workloads::micro("gatscat", 2048, 4),
        workloads::micro("prodcon", 2048, 2),
    ]
}

#[test]
fn identity_replay_reproduces_recorded_times_exactly() {
    for wl in small_workloads() {
        let cfg = MachineConfig::prescott();
        let (program, graph, rep) = record(&wl, &cfg);
        let a = analyze_run(&wl.name, &program, &graph, &rep, &cfg, WaitPolicy::Mwait);
        let r = a.model.identity_replay();
        for (i, t) in a.model.tasks.iter().enumerate() {
            assert_eq!(r.start[i], t.start, "{}: task #{} start", wl.name, t.id.0);
            assert_eq!(r.end[i], t.end, "{}: task #{} end", wl.name, t.id.0);
        }
        assert_eq!(
            r.makespan + a.model.drain,
            a.cycles,
            "{}: makespan + drain == recorded cycles",
            wl.name
        );
    }
}

#[test]
fn path_length_equals_run_cycles() {
    for wl in small_workloads() {
        let cfg = MachineConfig::prescott();
        let (program, graph, rep) = record(&wl, &cfg);
        let a = analyze_run(&wl.name, &program, &graph, &rep, &cfg, WaitPolicy::Mwait);
        assert_eq!(
            a.path.task_cycles + a.path.edge_cycles + a.path.drain,
            a.cycles,
            "{}: path segments + drain account for every cycle",
            wl.name
        );
        assert_eq!(a.path.makespan + a.path.drain, a.cycles, "{}", wl.name);
        // Attribution tables partition the same total.
        let by_class: u64 = a.path.by_class.iter().map(|(_, v)| v).sum();
        let by_cause: u64 = a.path.by_cause.iter().map(|(_, v)| v).sum();
        assert_eq!(by_class, a.cycles, "{}: by-class totals", wl.name);
        assert_eq!(by_cause, a.cycles, "{}: by-cause totals", wl.name);
    }
}

#[test]
fn extracted_path_tasks_have_zero_slack_and_zero_slack_implies_membership() {
    let wl = workloads::micro("gatscat", 2048, 4);
    let cfg = MachineConfig::prescott();
    let (program, graph, rep) = record(&wl, &cfg);
    let a = analyze_run(&wl.name, &program, &graph, &rep, &cfg, WaitPolicy::Mwait);
    let r = a.model.identity_replay();
    let members = critical_members(&a.model, &r);
    for s in &a.path.segments {
        assert!(members[s.task], "extracted path task is a member");
        assert_eq!(slack(&a.model, s.task), 0, "path task #{} has zero slack", s.task);
    }
    // Every zero-slack task lies on some critical path, and slack is
    // consistent with membership the other way too.
    for (i, member) in members.iter().enumerate() {
        let s = slack(&a.model, i);
        if s == 0 {
            assert!(member, "zero-slack task #{i} must be on some critical path");
        } else {
            assert!(!member, "task #{i} with slack {s} cannot be on a critical path");
        }
    }
}

#[test]
fn whatif_identity_is_exact_and_scenarios_speed_up() {
    for wl in small_workloads() {
        let cfg = MachineConfig::prescott();
        let (program, graph, rep) = record(&wl, &cfg);
        let a = analyze_run(&wl.name, &program, &graph, &rep, &cfg, WaitPolicy::Mwait);
        assert_eq!(
            predict(&a.model, &Scenario::Identity),
            a.cycles,
            "{}: what-if(nothing scaled) is the identity",
            wl.name
        );
        for row in &a.whatif {
            assert!(
                row.predicted_cycles <= a.cycles,
                "{}: scenario {} must not slow the run down",
                wl.name,
                row.scenario
            );
        }
    }
}

#[test]
fn memory_free_upper_bounds_zero_latency_bus_resim() {
    // Satellite: the analytical "memory ops free" bound must be at
    // least as optimistic as actually re-simulating with a free memory
    // system (zero latency, effectively infinite bus bandwidth).
    for name in ["ldstcomp", "gatscat", "prodcon"] {
        let wl = workloads::named(name).unwrap();
        let cfg = MachineConfig::prescott();
        let (program, graph, rep) = record(&wl, &cfg);
        let a = analyze_run(&wl.name, &program, &graph, &rep, &cfg, WaitPolicy::Mwait);
        let mut free = cfg.clone();
        free.mem_lat = 0;
        free.bus_turnaround = 0;
        free.bus_bytes_per_cycle = 1e9;
        let real = sim_cycles(&wl, &free);
        let predicted = predict(&a.model, &Scenario::MemoryFree);
        let predicted_speedup = a.cycles as f64 / predicted.max(1) as f64;
        let real_speedup = a.cycles as f64 / real as f64;
        assert!(
            predicted_speedup >= real_speedup,
            "{name}: memory-free bound {predicted_speedup:.3}x must be ≥ real \
             zero-latency-bus speedup {real_speedup:.3}x (predicted {predicted}, real {real})"
        );
    }
}

#[test]
fn whatif_predictions_validate_against_resimulation() {
    // Scenarios with a stated error bound must land within it when the
    // equivalent machine change is actually re-simulated.
    for (name, n) in [("ldstcomp", 4096), ("gatscat", 8192)] {
        let wl = workloads::micro(name, n, 4);
        let cfg = MachineConfig::prescott();
        let (program, graph, rep) = record(&wl, &cfg);
        let a = analyze_run(&wl.name, &program, &graph, &rep, &cfg, WaitPolicy::Mwait);

        let mut no_dispatch = cfg.clone();
        no_dispatch.wait.mwait_dispatch = 0;
        let real = sim_cycles(&wl, &no_dispatch);
        let predicted = predict(&a.model, &Scenario::DispatchFree);
        let bound = Scenario::DispatchFree.error_bound().unwrap();
        let err = (predicted as f64 - real as f64).abs() / real as f64;
        assert!(
            err <= bound,
            "{}: dispatch-free predicted {predicted} vs re-sim {real} (err {err:.4} > {bound})",
            wl.name
        );

        let mut bus2 = cfg.clone();
        bus2.bus_bytes_per_cycle *= 2.0;
        let real = sim_cycles(&wl, &bus2);
        let predicted = predict(&a.model, &Scenario::BusScale(2.0));
        let bound = Scenario::BusScale(2.0).error_bound().unwrap();
        let err = (predicted as f64 - real as f64).abs() / real as f64;
        assert!(
            err <= bound,
            "{}: bus-2x predicted {predicted} vs re-sim {real} (err {err:.4} > {bound})",
            wl.name
        );
    }
}

#[test]
fn analysis_artifact_is_byte_stable_and_parses() {
    let a1 = analyze(&workloads::micro("gatscat", 2048, 4));
    let a2 = analyze(&workloads::micro("gatscat", 2048, 4));
    let doc1 = render::to_json(&a1).to_doc_string();
    let doc2 = render::to_json(&a2).to_doc_string();
    assert_eq!(doc1, doc2, "analysis artifact must be byte-deterministic");
    assert!(doc1.ends_with('\n') && doc1.lines().count() == 1, "one canonical line");
    assert_eq!(render::text(&a1), render::text(&a2), "text report too");
    let art = Artifact::parse(&doc1).unwrap();
    assert_eq!(art.kind, gpstream_profile::ArtifactKind::Analysis);
    assert_eq!(art.metric("cycles").unwrap().value, a1.cycles as f64);
    let path = art.critical_path.as_ref().unwrap();
    assert_eq!(path.len(), a1.path.segments.len());
}

/// Build a `figures profile`-equivalent JSON artifact for `wl` with the
/// chosen queue-issue mode.
fn profile_artifact(wl: &Workload, in_order: bool) -> String {
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("workload compiles");
    let mut world = wl.world.clone();
    let rep = SimExecutor::new()
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .in_order(in_order)
        .with_profile(true)
        .run(&compiled.schedule, &compiled.graph, &mut world);
    let prof = rep.profile.as_ref().unwrap();
    let counters = CounterSet::from(&rep.timing);
    let tree = topdown::topdown(
        &wl.name,
        &compiled.schedule,
        &compiled.graph,
        prof,
        &rep.timing.ctx_cycles,
        &rep.timing.phases,
    );
    report::profile_json(&wl.name, &counters, &tree, prof).to_doc_string()
}

#[test]
fn diff_of_in_order_vs_ooo_gatscat_shows_the_known_cycle_delta() {
    // The repo's out-of-order work-queue change was merged on the
    // strength of GAT-SCAT-COMP (n=8192, COMP=4) going from 3,190,853
    // to 3,172,896 cycles; `figures diff` over the two profile
    // artifacts must surface exactly that delta.
    const IN_ORDER_CYCLES: f64 = 3_190_853.0;
    const OOO_CYCLES: f64 = 3_172_896.0;
    let wl = workloads::micro("gatscat", 8192, 4);
    let a = Artifact::parse(&profile_artifact(&wl, true)).unwrap();
    let b = Artifact::parse(&profile_artifact(&wl, false)).unwrap();
    let rel = |v: f64, want: f64| (v - want).abs() / want;
    assert!(rel(a.metric("cycles").unwrap().value, IN_ORDER_CYCLES) < 0.02);
    assert!(rel(b.metric("cycles").unwrap().value, OOO_CYCLES) < 0.02);
    let d = diff(&a, &b);
    let cycles = d.metrics.iter().find(|m| m.name == "cycles").unwrap();
    let delta = cycles.delta.unwrap();
    assert!(
        (delta - (OOO_CYCLES - IN_ORDER_CYCLES)).abs() <= 16.0,
        "cycle delta {delta} must match the recorded OoO win of {}",
        OOO_CYCLES - IN_ORDER_CYCLES
    );
    // 0.56 % is inside the 2 % default band: reported, not flagged.
    assert!(cycles.within_band);
    // The memory context's idle-wait reduction is the whole story
    // (blocked scatters no longer stall queued gathers) and lands far
    // outside its band.
    let idle = d.metrics.iter().find(|m| m.name == "ctx1_idle_wait_cycles").unwrap();
    assert!(!idle.within_band, "idle-wait delta is the out-of-band signal");
}

#[test]
fn diff_against_baseline_and_missing_metrics() {
    let wl = workloads::micro("ldstcomp", 2048, 2);
    let art = Artifact::parse(&profile_artifact(&wl, false)).unwrap();
    // A baseline captured from the same counters diffs clean.
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).unwrap();
    let mut world = wl.world.clone();
    let rep =
        SimExecutor::new().with_srf(copts.srf).run(&compiled.schedule, &compiled.graph, &mut world);
    let base = gpstream_profile::Baseline::capture(&wl.name, &CounterSet::from(&rep.timing));
    let base_art = Artifact::parse(&base.to_json().to_doc_string()).unwrap();
    let d = diff(&base_art, &art);
    assert!(d.out_of_band().is_empty(), "same run must diff clean: {:?}", d.out_of_band());
    // Baseline vs profile is a cross-kind diff: flagged, so `--strict`
    // can refuse to vouch for it (regression: it used to pass silently
    // after comparing only the shared fields).
    assert_eq!(d.kind_mismatch, Some(("baseline", "profile")));
    // An analysis artifact tracks different metrics; the diff lists
    // them as one-sided instead of erroring.
    let an = analyze(&wl);
    let an_art = Artifact::parse(&render::to_json(&an).to_doc_string()).unwrap();
    let d = diff(&art, &an_art);
    assert_eq!(d.kind_mismatch, Some(("profile", "analysis")));
    assert!(d.metrics.iter().any(|m| m.a.is_some() && m.b.is_none()));
    assert!(d.metrics.iter().any(|m| m.name == "memory_share" && m.a.is_none()));
    let text = gpstream_analyze::diff::render(&d);
    assert!(text.contains("[only in A]") && text.contains("[only in B]"));
    assert!(text.contains("WARNING: artifact kinds differ (profile vs analysis)"), "{text}");
    // Same-kind diffs stay unflagged.
    assert_eq!(diff(&art, &art).kind_mismatch, None);
}

#[test]
fn spas_critical_path_is_memory_dominated() {
    // Acceptance: the paper's streamSPAS loss narrative — the gather
    // copies sit on the critical path, so its memory share must exceed
    // its compute share.
    let a = gpstream_analyze::analyze_workload("spas-32000").expect("catalog workload");
    assert!(
        a.path.memory_share > a.path.compute_share,
        "spas-32000: memory share {:.3} must exceed compute share {:.3}",
        a.path.memory_share,
        a.path.compute_share
    );
    let text = render::text(&a);
    assert!(text.contains("gather"), "path report names the gather copies:\n{text}");
}
