//! Cross-crate integration tests: the full stack from graph authoring
//! through compilation to all three executors, plus figure-level shape
//! checks at reduced sizes.

use gpstream::compiler::{compile, CompilerOptions};
use gpstream::core::exec::functional::FunctionalExecutor;
use gpstream::core::exec::native::{NativeExecutor, NativeWaitPolicy};
use gpstream::core::exec::sim::SimExecutor;
use gpstream::core::GraphBuilder;
use gpstream::machine::{MachineConfig, WaitPolicy};
use std::sync::Arc;

/// A three-kernel diamond with indexed gathers, used by several tests.
fn diamond(
    n: usize,
) -> (gpstream::core::StreamGraph, gpstream::core::World, gpstream::core::ArrayId, Vec<f32>) {
    let a: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 3.0).collect();
    let idx: Vec<u32> = (0..n as u32).map(|i| (i.wrapping_mul(2_654_435_761)) % n as u32).collect();
    let expected: Vec<f32> = (0..n)
        .map(|i| {
            let left = a[i] * 2.0;
            let right = a[idx[i] as usize] + 1.0;
            left * right + left
        })
        .collect();

    let mut b = GraphBuilder::new();
    let arr = b.array("a", &a);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", arr);
    let gs = b.gather_indexed("gs", arr, Arc::new(idx));
    let l = b.stream::<f32>("left", n);
    let r = b.stream::<f32>("right", n);
    let o = b.stream::<f32>("out", n);
    b.kernel("double", &[xs.id()], &[l.id()], 4, |args| {
        let x = args.input::<f32>(0);
        for (out, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *out = v * 2.0;
        }
    });
    b.kernel("inc", &[gs.id()], &[r.id()], 4, |args| {
        let x = args.input::<f32>(0);
        for (out, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *out = v + 1.0;
        }
    });
    b.kernel("combine", &[l.id(), r.id()], &[o.id()], 6, |args| {
        let xl = args.input::<f32>(0);
        let xr = args.input::<f32>(1);
        for (out, (vl, vr)) in args.output::<f32>(0).iter_mut().zip(xl.iter().zip(xr)) {
            *out = vl * vr + vl;
        }
    });
    b.scatter_seq(o, y);
    let (graph, world) = b.build().unwrap();
    (graph, world, y.id(), expected)
}

#[test]
fn all_three_executors_agree() {
    let (graph, world, y, expected) = diamond(60_000);
    let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();

    let mut w_func = world.clone();
    FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w_func);
    assert_eq!(w_func.slice::<f32>(y), expected.as_slice());

    let mut w_sim = world.clone();
    let report = SimExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w_sim);
    assert_eq!(w_sim.slice::<f32>(y), expected.as_slice());
    assert!(report.timing.cycles > 0);

    let mut w_native = world.clone();
    NativeExecutor::new().with_wait_policy(NativeWaitPolicy::Park).run(
        &compiled.schedule,
        &compiled.graph,
        &mut w_native,
    );
    assert_eq!(w_native.slice::<f32>(y), expected.as_slice());
}

#[test]
fn every_compiler_option_combination_is_correct() {
    let (graph, world, y, expected) = diamond(20_000);
    for fuse in [false, true] {
        for double in [false, true] {
            for nt in [false, true] {
                let opts = CompilerOptions {
                    fuse_kernels: fuse,
                    double_buffer: double,
                    nt_gather: nt,
                    nt_scatter: nt,
                    ..CompilerOptions::paper()
                };
                let compiled = compile(&graph, &opts).unwrap();
                let mut w = world.clone();
                FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w);
                assert_eq!(
                    w.slice::<f32>(y),
                    expected.as_slice(),
                    "fuse={fuse} double={double} nt={nt}"
                );
            }
        }
    }
}

#[test]
fn sim_results_are_deterministic() {
    let (graph, world, _y, _e) = diamond(30_000);
    let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();
    let run = || {
        let mut w = world.clone();
        SimExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w).timing.cycles
    };
    assert_eq!(run(), run(), "cycle counts must be reproducible");
}

#[test]
fn figure6_ordering_holds() {
    use gpstream::microbench::overlap::{normalized_time, Scenario};
    let cfg = MachineConfig::prescott();
    let cc = normalized_time(Scenario::CompComp, &cfg);
    let mm = normalized_time(Scenario::MemMem, &cfg);
    let cm = normalized_time(Scenario::CompMem, &cfg);
    assert!(cm < 90.0 && cc < 90.0, "overlap must pay off: comp+mem={cm:.1} comp+comp={cc:.1}");
    assert!(mm > 95.0, "two memory streams must not overlap: {mm:.1}");
}

#[test]
fn dispatch_latencies_match_paper_constants() {
    use gpstream::microbench::spinwait::dispatch_latency;
    let cfg = MachineConfig::prescott();
    assert_eq!(dispatch_latency(WaitPolicy::SpinPause, &cfg), 175);
    assert_eq!(dispatch_latency(WaitPolicy::Mwait, &cfg), 680);
}

#[test]
fn ld_st_comp_speedup_declines_with_comp() {
    use gpstream::microbench::kernels::figure9_series;
    let series = figure9_series(
        "LD-ST-COMP",
        &[1, 32],
        4096,
        &CompilerOptions::paper(),
        &MachineConfig::prescott(),
    );
    let (low, high) = (series[0].1, series[1].1);
    assert!(low > 1.3, "memory-bound LD-ST-COMP must win big: {low:.2}");
    assert!(high < low, "speedup must decline as COMP grows: {low:.2} -> {high:.2}");
    assert!(high > 0.9, "compute-bound case must be near parity: {high:.2}");
}

#[test]
fn spas_small_loses_large_wins() {
    use gpstream::apps::spas::spas_bench;
    let copts = CompilerOptions::paper();
    let mcfg = MachineConfig::prescott();
    let small = spas_bench(2_000, 46, 7).compare(&copts, &mcfg, WaitPolicy::Mwait).speedup();
    let large = spas_bench(65_536, 46, 7).compare(&copts, &mcfg, WaitPolicy::Mwait).speedup();
    assert!(small < 0.95, "small SPAS must lose: {small:.2}");
    assert!(large > small, "SPAS must improve with size: {small:.2} -> {large:.2}");
}

/// Figure 7 `tail_depend`: letting each queue issue past a blocked head
/// must shorten the run and cut the memory queue's idle-wait on
/// GAT-SCAT-COMP (gathers overtake sink scatters), and must not slow
/// down streamFEM's multi-kernel phases.
#[test]
fn ooo_issue_reduces_idle_wait() {
    use gpstream::apps::fem;
    use gpstream::microbench::kernels::gat_scat_comp;
    let copts = CompilerOptions::paper();
    let mcfg = MachineConfig::prescott();

    // A comparison consumes its bench: each mode gets a fresh one.
    let inord = gat_scat_comp(8192, 4).compare_mode(&copts, &mcfg, WaitPolicy::Mwait, true);
    let ooo = gat_scat_comp(8192, 4).compare_mode(&copts, &mcfg, WaitPolicy::Mwait, false);
    assert!(
        ooo.stream_cycles < inord.stream_cycles,
        "GAT-SCAT-COMP: ooo must be faster ({} vs {})",
        ooo.stream_cycles,
        inord.stream_cycles
    );
    let mem_idle =
        |c: &gpstream::core::metrics::Comparison| c.phases.as_ref().unwrap()[1].idle_wait;
    assert!(
        mem_idle(&ooo) < mem_idle(&inord),
        "GAT-SCAT-COMP: memory-queue idle wait must shrink ({} vs {})",
        mem_idle(&ooo),
        mem_idle(&inord)
    );

    let fem = || fem::fem_bench(fem::CONFIGS[0], 600, 7);
    let fem_inord = fem().compare_mode(&copts, &mcfg, WaitPolicy::Mwait, true);
    let fem_ooo = fem().compare_mode(&copts, &mcfg, WaitPolicy::Mwait, false);
    assert!(
        fem_ooo.stream_cycles <= fem_inord.stream_cycles,
        "streamFEM: ooo must not regress ({} vs {})",
        fem_ooo.stream_cycles,
        fem_inord.stream_cycles
    );
}

#[test]
fn neo_hookean_streaming_wins() {
    use gpstream::apps::neo::neo_bench;
    let cmp = neo_bench(8192, 7).compare(
        &CompilerOptions::paper(),
        &MachineConfig::prescott(),
        WaitPolicy::Mwait,
    );
    assert!(cmp.speedup() > 1.05, "producer-consumer locality must pay: {:.2}", cmp.speedup());
}

#[test]
fn serving_plane_conserves_jobs_and_streams_identical_windows_in_both_modes() {
    use gpstream_serve::{run_service, Outcome, ServeConfig};
    let mut cfg = ServeConfig::new("ldstcomp");
    (cfg.jobs, cfg.rate, cfg.queue_cap) = (2_000, 40_000.0, 16); // ~1.3x capacity
    let exact = run_service(&cfg).expect("known workload");
    cfg.sketch = true;
    let sketch = run_service(&cfg).expect("known workload");

    let finishes = |records: &[gpstream_serve::JobRecord]| -> Vec<u64> {
        let finish = |r: &gpstream_serve::JobRecord| match r.outcome {
            Outcome::Completed { finish, .. } => Some(finish),
            Outcome::Rejected { .. } => None,
        };
        records.iter().filter_map(finish).collect()
    };
    for out in [&exact, &sketch] {
        let s = &out.stats;
        assert_eq!(s.offered, 2_000);
        assert_eq!(s.offered, s.admitted + s.rejected, "every offer is admitted or rejected");
        assert_eq!(s.completed, s.admitted, "every admitted job completes");
        assert!(s.rejected > 0, "a 16-deep queue at this rate must shed load");
        assert_eq!(out.exec.executed, finishes(&out.records).len() as u64);
    }
    assert_eq!(exact.records.len(), 2_000, "exact mode keeps every record");
    assert_eq!(sketch.records.len(), 2_000usize.div_ceil(cfg.record_stride()));
    assert_eq!(exact.stats, sketch.stats, "the estimator must not move the schedule");
    assert_eq!(exact.telemetry.series.csv, sketch.telemetry.series.csv);

    // The streamed plane against the materialized registry: refiling
    // the kept completions reproduces the `completions` column.
    let mut lines = exact.telemetry.series.csv.lines();
    let header = lines.next().expect("header row");
    let col = header.split(',').position(|c| c == "completions").expect("completions column");
    let streamed: Vec<u64> =
        lines.map(|l| l.split(',').nth(col).expect("dense row").parse().expect("count")).collect();
    let mut tel = gpstream_telemetry::Telemetry::new(exact.telemetry.series.window_cycles);
    let completions = tel.counter("completions");
    finishes(&exact.records).into_iter().for_each(|cycle| tel.add(completions, cycle, 1));
    let refiled: Vec<u64> = tel.series().windows.iter().map(|w| w.counters[0]).collect();
    assert_eq!(streamed, refiled);
    assert_eq!(refiled.iter().sum::<u64>(), exact.stats.completed);
}
