//! Differential executor tests: for each application and several strip
//! sizes, the reference, simulating and native executors must leave the
//! World in a byte-identical state.
//!
//! This is the strongest cross-check the three-executor design offers:
//! the functional executor is the semantics oracle, the simulating
//! executor adds the timing pass (which must not perturb results), and
//! the native executor re-orders work across real threads (where any
//! dependency bug shows up as a divergent byte).
//!
//! The second half is the **sim-equivalence suite**: the event engine
//! every tool runs must be *byte-identical* to the cycle-stepped
//! reference ([`SimExecutor::fast_sim`] names each side explicitly) —
//! same `RunResult`, trace, task log, profile counters, interval
//! samples, and analyze artifacts — across the workload catalog × every
//! lowering a figure of record uses × two strip sizes. Per-commit runs
//! use micro-sized versions of all seven catalog shapes; the full
//! paper-scale catalog runs under `--ignored` in release CI.
//!
//! The last two tests hold the SRF contract that lets an executor keep
//! one SRF and never clear it: a poisoned, reused SRF replays every
//! program like a fresh one, and every executor refuses a schedule that
//! reads an SRF byte before a task writes it.

use gpstream::apps::{cdp, fem, neo, spas};
use gpstream::compiler::{compile, CompiledProgram, CompilerOptions};
use gpstream::core::exec::functional::FunctionalExecutor;
use gpstream::core::exec::native::{NativeExecutor, NativeWaitPolicy};
use gpstream::core::exec::sim::{SimExecutor, SimReport};
use gpstream::core::{
    GraphBuilder, KernelId, PortBinding, ScheduledProgram, SrfConfig, StreamGraph, TaskDesc,
    TaskId, TaskKind, Topology, World,
};
use gpstream::machine::{MachineConfig, WaitPolicy};
use gpstream_analyze::{render as analyze_render, runner::analyze_run};
use gpstream_profile::counters::CounterSet;
use gpstream_profile::report::{profile_json, samples_csv};
use gpstream_profile::topdown::topdown;
use gpstream_tune::workloads::{self, Workload};
use gpstream_util::fanout;

const SEED: u64 = 0xd1ff;

/// Byte-level snapshot of every array in a world.
fn world_bytes(w: &World) -> Vec<(String, Vec<u8>)> {
    w.iter().map(|a| (a.name.clone(), a.data.as_bytes().to_vec())).collect()
}

fn assert_worlds_identical(name: &str, label_a: &str, a: &World, label_b: &str, b: &World) {
    let wa = world_bytes(a);
    let wb = world_bytes(b);
    assert_eq!(wa.len(), wb.len(), "{name}: array count differs");
    for ((na, da), (nb, db)) in wa.iter().zip(&wb) {
        assert_eq!(na, nb, "{name}: array order/name differs");
        assert_eq!(da, db, "{name}: array `{na}` differs between {label_a} and {label_b}");
    }
}

/// Run every executor variant on the same program and compare final
/// worlds byte for byte: the simulating executor with head-blocking and
/// with out-of-order (`tail_depend`) queues, and the native executor
/// over the {in-order, out-of-order} x {Spin, Park} matrix.
fn differential(name: &str, graph: &StreamGraph, world: &World, copts: &CompilerOptions) {
    let compiled = compile(graph, copts).expect("app compiles");

    let mut functional = world.clone();
    FunctionalExecutor::with_srf(copts.srf).run(
        &compiled.schedule,
        &compiled.graph,
        &mut functional,
    );

    for in_order in [true, false] {
        let mut simulated = world.clone();
        let _ = SimExecutor::new()
            .with_srf(copts.srf)
            .with_wait_policy(WaitPolicy::Mwait)
            .in_order(in_order)
            .run(&compiled.schedule, &compiled.graph, &mut simulated);
        let label = format!("sim in_order={in_order}");
        assert_worlds_identical(name, "functional", &functional, &label, &simulated);
    }

    for (in_order, policy) in [
        (true, NativeWaitPolicy::Park),
        (false, NativeWaitPolicy::Spin),
        (false, NativeWaitPolicy::Park),
    ] {
        let mut native = world.clone();
        let _ = NativeExecutor::new()
            .with_srf(copts.srf)
            .with_wait_policy(policy)
            .in_order(in_order)
            .run(&compiled.schedule, &compiled.graph, &mut native);
        let label = format!("native in_order={in_order} policy={policy:?}");
        assert_worlds_identical(name, "functional", &functional, &label, &native);
    }
}

/// Exercise an app at two strip sizes (a small one forcing many strips
/// and the compiler's own choice).
fn differential_at_strips(name: &str, graph: &StreamGraph, world: &World) {
    for strip in [Some(64usize), None] {
        let copts = CompilerOptions { strip_items: strip, ..CompilerOptions::paper() };
        differential(&format!("{name} strip={strip:?}"), graph, world, &copts);
    }
}

/// Canonical JSON of the profile artifact figures would write for a run.
fn profile_doc(
    wl_name: &str,
    program: &ScheduledProgram,
    graph: &StreamGraph,
    r: &SimReport,
) -> String {
    let prof = r.profile.as_ref().expect("profiling was enabled");
    let cs = CounterSet::from(&r.timing);
    let tree = topdown(wl_name, program, graph, prof, &r.timing.ctx_cycles, &r.timing.phases);
    profile_json(wl_name, &cs, &tree, prof).to_doc_string()
}

/// Canonical JSON of the analyzer artifact for a task-logged run.
fn analyze_doc(
    wl_name: &str,
    program: &ScheduledProgram,
    graph: &StreamGraph,
    r: &SimReport,
) -> String {
    let analysis = analyze_run(
        wl_name,
        program,
        graph,
        r,
        SimExecutor::new().machine_config(),
        WaitPolicy::Mwait,
    );
    analyze_render::to_json(&analysis).to_doc_string()
}

/// Every lowering a figure of record runs, as a fresh executor: the
/// paper's out-of-order queues, head-blocking queues (`--in-order`, the
/// Figure 7 ablation), the single-context software pipeline (Section
/// III-B-2), and the scaled topologies `figures scale` and serve pricing
/// run, at 1 and 4 contexts on a machine of exactly that many contexts.
fn lowerings() -> [(&'static str, SimExecutor); 5] {
    let scaled = |n: usize| {
        let mut cfg = MachineConfig::prescott();
        cfg.contexts = n;
        SimExecutor::new().with_machine(cfg).with_topology(Topology::scaled(n))
    };
    [
        ("out-of-order", SimExecutor::new()),
        ("in-order", SimExecutor::new().in_order(true)),
        ("single-context", SimExecutor::new().with_topology(Topology::single()).in_order(true)),
        ("scaled-1", scaled(1)),
        ("scaled-4", scaled(4)),
    ]
}

/// Run `wl` on both engines across every lowering × two strip sizes and
/// assert every observable is byte-identical: the final world,
/// `RunResult`, the trace event stream, the task log, the profile
/// artifact, the interval-sample CSV, and (for the paper's two-context
/// run) the analyzer artifact.
fn sim_equivalence(wl: &Workload) {
    for strip in [Some(64usize), None] {
        let copts = CompilerOptions { strip_items: strip, ..CompilerOptions::paper() };
        let compiled = compile(&wl.graph, &copts).expect("workload compiles");
        for (lowering, base) in lowerings() {
            let ctx = format!("{} strip={strip:?} {lowering}", wl.name);
            let exec = |fast: bool| {
                base.clone()
                    .with_srf(copts.srf)
                    .with_warmup(wl.warmup)
                    .with_trace(true)
                    .with_profile(true)
                    .with_task_log(true)
                    .with_sample_interval(4096)
                    .fast_sim(fast)
            };
            let mut w_stepped = wl.world.clone();
            let stepped = exec(false).run(&compiled.schedule, &compiled.graph, &mut w_stepped);
            let mut w_event = wl.world.clone();
            let event = exec(true).run(&compiled.schedule, &compiled.graph, &mut w_event);

            assert!(wl.matches_oracle(&w_stepped), "{ctx}: stepped run broke the oracle");
            assert_worlds_identical(&ctx, "stepped", &w_stepped, "event", &w_event);
            assert_eq!(
                format!("{:?}", stepped.timing),
                format!("{:?}", event.timing),
                "{ctx}: RunResult differs between step modes"
            );
            assert_eq!(
                format!("{:?}", stepped.trace),
                format!("{:?}", event.trace),
                "{ctx}: trace events differ between step modes"
            );
            assert_eq!(
                format!("{:?}", stepped.task_runs),
                format!("{:?}", event.task_runs),
                "{ctx}: task log differs between step modes"
            );
            assert_eq!(
                profile_doc(&wl.name, &compiled.schedule, &compiled.graph, &stepped),
                profile_doc(&wl.name, &compiled.schedule, &compiled.graph, &event),
                "{ctx}: profile artifact differs between step modes"
            );
            let csv = |r: &SimReport| samples_csv(&r.profile.as_ref().unwrap().samples);
            assert_eq!(
                csv(&stepped),
                csv(&event),
                "{ctx}: interval samples differ between step modes"
            );
            // The analyzer models the paper's two-context run, the one
            // `figures analyze` makes.
            if lowering == "out-of-order" {
                assert_eq!(
                    analyze_doc(&wl.name, &compiled.schedule, &compiled.graph, &stepped),
                    analyze_doc(&wl.name, &compiled.schedule, &compiled.graph, &event),
                    "{ctx}: analyze artifact differs between step modes"
                );
            }

            // Uninstrumented runs: with no sampler attached the event
            // mode may run whole ops greedily inside spans — a different
            // internal path than the sampled runs above, so it gets its
            // own byte-identity check.
            let bare =
                |fast: bool| base.clone().with_srf(copts.srf).with_warmup(wl.warmup).fast_sim(fast);
            let mut wb_stepped = wl.world.clone();
            let b_stepped = bare(false).run(&compiled.schedule, &compiled.graph, &mut wb_stepped);
            let mut wb_event = wl.world.clone();
            let b_event = bare(true).run(&compiled.schedule, &compiled.graph, &mut wb_event);
            assert_worlds_identical(&ctx, "bare stepped", &wb_stepped, "bare event", &wb_event);
            assert_eq!(
                format!("{:?}", b_stepped.timing),
                format!("{:?}", b_event.timing),
                "{ctx}: uninstrumented RunResult differs between step modes"
            );
        }
    }
}

/// Micro-sized versions of all seven catalog workload shapes — same
/// kernels, access patterns and task graphs as the paper-scale catalog,
/// shrunk so the stepped reference stays affordable per commit.
fn micro_catalog() -> Vec<Workload> {
    let s = workloads::SEED;
    let app = |name: &str, b: gpstream::apps::common::AppBench| {
        Workload::new(name, b.graph, b.stream_world, b.stream_outputs, true)
    };
    vec![
        workloads::micro("ldstcomp", 4096, 4),
        workloads::micro("gatscat", 4096, 4),
        workloads::micro("prodcon", 4096, 4),
        app("fem-mhd-quad-micro", fem::fem_bench(fem::CONFIGS[3], 600, s)),
        app("cdp-6n-micro", cdp::cdp_bench(cdp::CdpConfig { name: "6n-512", k: 6, n: 512 }, s)),
        app("neo-micro", neo::neo_bench(512, s)),
        app("spas-micro", spas::spas_bench(400, 24, s)),
    ]
}

#[test]
fn ldstcomp_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[0]);
}

/// TRIAD is the workload the sim-speed report's ≥10× claim rests on, so
/// its byte-identity is pinned here alongside the catalog shapes.
#[test]
fn triad_sim_modes_agree() {
    let m = gpstream_microbench::kernels::stream_triad(4096);
    let wl = Workload::new("triad-micro", m.graph, m.stream_world, vec![m.stream_output], true);
    sim_equivalence(&wl);
}

#[test]
fn gatscat_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[1]);
}

#[test]
fn prodcon_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[2]);
}

#[test]
fn fem_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[3]);
}

#[test]
fn cdp_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[4]);
}

#[test]
fn neo_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[5]);
}

#[test]
fn spas_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[6]);
}

/// The acceptance-criterion oracle: the full paper-scale catalog, both
/// step modes, byte-identical artifacts, one fan-out job per member.
/// Expensive — run in release CI via `cargo test --release --test
/// differential -- --ignored`.
#[test]
#[ignore = "paper-scale catalog; run with --release -- --ignored (CI does)"]
fn full_catalog_sim_modes_agree() {
    fanout::map(&workloads::CATALOG, fanout::threads(), |name| {
        sim_equivalence(&workloads::named(name).expect("catalog name resolves"));
    });
}

#[test]
fn fem_executors_agree() {
    let bench = fem::fem_bench(fem::CONFIGS[0], 600, SEED);
    differential_at_strips("fem", &bench.graph, &bench.stream_world);
}

#[test]
fn cdp_executors_agree() {
    let bench = cdp::cdp_bench(cdp::CdpConfig { name: "4n-diff", k: 4, n: 512 }, SEED);
    differential_at_strips("cdp", &bench.graph, &bench.stream_world);
}

#[test]
fn neo_executors_agree() {
    let bench = neo::neo_bench(512, SEED);
    differential_at_strips("neo", &bench.graph, &bench.stream_world);
}

#[test]
fn spas_executors_agree() {
    let bench = spas::spas_bench(400, 24, SEED);
    differential_at_strips("spas", &bench.graph, &bench.stream_world);
}

/// A one-kernel copy graph over `n` words of `fill` and a schedule that
/// runs `tasks(stream in, stream out)` on it: the poison program and the
/// planted read-before-write one.
fn copy_program(
    n: usize,
    fill: u32,
    srf_bytes: usize,
    tasks: impl FnOnce(PortBinding, PortBinding) -> Vec<TaskDesc>,
) -> (StreamGraph, World, ScheduledProgram) {
    let mut b = GraphBuilder::new();
    let a = b.array("a", &vec![fill; n]);
    let y = b.array_zeroed::<u32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<u32>("ys", n);
    b.kernel("copy", &[xs.id()], &[ys.id()], 1, |args| {
        let x = args.input::<u32>(0);
        args.output::<u32>(0).copy_from_slice(x);
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build().expect("copy graph builds");
    let bind = |stream, srf_offset| PortBinding { stream, srf_offset, elems: 0..n, elem_bytes: 4 };
    let tasks = tasks(bind(xs.id(), 0), bind(ys.id(), 4 * n));
    (graph, world, ScheduledProgram { tasks, srf_bytes, n_strips: 1, strip_items: n })
}

fn task(id: u32, kind: TaskKind, deps: &[u32]) -> TaskDesc {
    TaskDesc { id: TaskId(id), kind, deps: deps.iter().copied().map(TaskId).collect(), strip: 0 }
}

/// One functional executor keeps its SRF across runs and never clears
/// it. After a gather fills the whole 768 KiB SRF with `0xA5` bytes,
/// the seven catalog members and the twelve `mix` serve variants run
/// through that one executor, largest SRF first and then smallest
/// first, and each leaves its world byte-identical to a fresh
/// executor's: no program reads an SRF byte it did not write.
#[test]
fn a_warm_srf_replays_like_a_fresh_one() {
    let srf = SrfConfig::prescott();
    let n = srf.capacity / 4;
    let (graph, mut world, poison) = copy_program(n, 0xA5A5_A5A5, srf.capacity, |xs, _| {
        vec![task(0, TaskKind::Gather { binding: xs, nt: true }, &[])]
    });
    let mut warm = FunctionalExecutor::with_srf(srf);
    warm.run(&poison, &graph, &mut world);

    let mut programs: Vec<(String, CompiledProgram, World)> = workloads::CATALOG
        .iter()
        .map(|name| {
            let wl = workloads::named(name).expect("catalog name resolves");
            let compiled = compile(&wl.graph, &CompilerOptions::paper()).expect("compiles");
            ((*name).to_string(), compiled, wl.world)
        })
        .collect();
    let mix = gpstream_serve::build_table("mix", 2).expect("`mix` is a serve workload");
    assert_eq!(mix.variants.len(), 12);
    programs.extend(mix.variants.into_iter().map(|v| (v.label, v.compiled, v.world)));
    programs.sort_by_key(|(_, c, _)| std::cmp::Reverse(c.schedule.srf_bytes));
    let ascending = programs.iter().rev();
    for (name, compiled, world) in programs.iter().chain(ascending) {
        let (program, graph) = (&compiled.schedule, &compiled.graph);
        let mut fresh = world.clone();
        FunctionalExecutor::with_srf(srf).run(program, graph, &mut fresh);
        let mut reused = world.clone();
        warm.run(program, graph, &mut reused);
        assert_worlds_identical(name, "fresh SRF", &fresh, "warm SRF", &reused);
    }
}

/// A schedule whose kernel reads SRF bytes no task wrote is refused by
/// all three executors, each through the schedule check.
#[test]
fn every_executor_refuses_a_read_before_write() {
    let (graph, world, planted) = copy_program(16, 7, 128, |xs, ys| {
        vec![
            task(
                0,
                TaskKind::Kernel {
                    kernel: KernelId(0),
                    items: 0..16,
                    inputs: vec![xs],
                    outputs: vec![ys.clone()],
                },
                &[],
            ),
            task(1, TaskKind::Scatter { binding: ys, nt: true }, &[0]),
        ]
    });
    let want = "SRF read before write: task 0 reads SRF bytes 0..64 of stream 0";
    assert!(planted.validate().unwrap_err().starts_with(want));
    for name in ["functional", "native", "sim"] {
        let mut w = world.clone();
        let run = std::panic::AssertUnwindSafe(|| match name {
            "functional" => {
                FunctionalExecutor::new().run(&planted, &graph, &mut w);
            }
            "native" => {
                NativeExecutor::new().run(&planted, &graph, &mut w);
            }
            _ => {
                SimExecutor::new().run(&planted, &graph, &mut w);
            }
        });
        let err = std::panic::catch_unwind(run).expect_err("a read before write must be refused");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains(want), "{name} executor panicked with {msg:?}");
    }
}
