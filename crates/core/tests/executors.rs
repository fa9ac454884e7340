//! Executor-level integration tests for gpstream-core (hand-built
//! schedules, no compiler dependency).

use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::exec::native::{NativeExecutor, NativeWaitPolicy};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::task::{
    CheckedProgram, PortBinding, ScheduledProgram, TaskDesc, TaskId, TaskKind,
};
use gpstream_core::{GraphBuilder, KernelId, Topology, World};
use gpstream_machine::ops::WaitPolicy;
use gpstream_machine::{ExactReason, StepMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Hand-build a two-strip schedule exercising double buffering and
/// cross-queue dependencies.
fn two_strip_setup() -> (
    gpstream_core::StreamGraph,
    gpstream_core::World,
    gpstream_core::ArrayId,
    CheckedProgram,
    Vec<f32>,
) {
    let n = 8usize;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let expected: Vec<f32> = data.iter().map(|v| v * 10.0).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("x10", &[xs.id()], &[ys.id()], 2, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v * 10.0;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build().unwrap();

    // Two strips of 4 items with double-buffered offsets.
    let mut tasks = Vec::new();
    for s in 0..2usize {
        let elems = s * 4..(s + 1) * 4;
        let in_b = PortBinding {
            stream: xs.id(),
            srf_offset: 128 * (s % 2),
            elems: elems.clone(),
            elem_bytes: 4,
        };
        let out_b = PortBinding {
            stream: ys.id(),
            srf_offset: 256 + 128 * (s % 2),
            elems: elems.clone(),
            elem_bytes: 4,
        };
        let base = (tasks.len()) as u32;
        tasks.push(TaskDesc {
            id: TaskId(base),
            kind: TaskKind::Gather { binding: in_b.clone(), nt: true },
            deps: vec![],
            strip: s as u32,
        });
        tasks.push(TaskDesc {
            id: TaskId(base + 1),
            kind: TaskKind::Kernel {
                kernel: KernelId(0),
                items: elems.clone(),
                inputs: vec![in_b],
                outputs: vec![out_b.clone()],
            },
            deps: vec![TaskId(base)],
            strip: s as u32,
        });
        tasks.push(TaskDesc {
            id: TaskId(base + 2),
            kind: TaskKind::Scatter { binding: out_b, nt: true },
            deps: vec![TaskId(base + 1)],
            strip: s as u32,
        });
    }
    let program = ScheduledProgram { tasks, srf_bytes: 512, n_strips: 2, strip_items: 4 };
    let program = program.check(&graph).unwrap();
    (graph, world, y.id(), program, expected)
}

#[test]
fn hand_built_schedule_runs_on_all_executors() {
    let (graph, world, y, program, expected) = two_strip_setup();
    let mut w1 = world.clone();
    FunctionalExecutor::new().run(&program, &graph, &mut w1);
    assert_eq!(w1.slice::<f32>(y), expected.as_slice());

    let mut w2 = world.clone();
    let rep = SimExecutor::new().run(&program, &graph, &mut w2);
    assert_eq!(w2.slice::<f32>(y), expected.as_slice());
    assert!(rep.timing.cycles > 0);

    let mut w3 = world.clone();
    NativeExecutor::new().with_wait_policy(NativeWaitPolicy::Spin).run(&program, &graph, &mut w3);
    assert_eq!(w3.slice::<f32>(y), expected.as_slice());
}

/// An executor's run on a world, by name.
type Run<'a> = (&'a str, &'a dyn Fn(&mut World));

/// The text of a caught panic.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Tasks borrow array bytes through raw pointers, so a world that does
/// not fit the graph is refused whole, before any task runs: an array
/// shorter than a sequential stream, and records narrower than the
/// field a stream copies. Under every executor no kernel is called and
/// the refused world's bytes are unchanged.
#[test]
fn a_world_that_does_not_fit_the_graph_is_refused_before_any_task_runs() {
    let n = 1024usize;
    let ran = Arc::new(AtomicUsize::new(0));
    let mut b = GraphBuilder::new();
    let a = b.array("a", &vec![1.0f32; n]);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    let counter = Arc::clone(&ran);
    b.kernel("copy", &[xs.id()], &[ys.id()], 1, move |args| {
        counter.fetch_add(1, Ordering::SeqCst);
        let x = args.input::<f32>(0);
        args.output::<f32>(0).copy_from_slice(x);
    });
    b.scatter_seq(ys, y);
    let (graph, _) = b.build().unwrap();
    let program = gpstream_compiler_shim::compile_tiny_strips(&graph);
    let mut shorter = World::new();
    shorter.add_array("a", &vec![1.0f32; n / 2]);
    shorter.add_array_zeroed::<f32>("y", n);
    let mut narrower = World::new();
    narrower.add_array("a", &vec![1u16; n]);
    narrower.add_array_zeroed::<f32>("y", n);
    let cases = [
        (shorter, "world mismatch: stream `xs` spans 1024 records of array `a`, which holds 512"),
        (
            narrower,
            "world mismatch: stream `xs` copies 4-byte elements from bytes 0.. of each 2-byte \
             record of array `a`",
        ),
    ];
    for (world, want) in cases {
        let native = NativeExecutor::new();
        let runs: [Run<'_>; 3] = [
            ("functional", &|w| {
                FunctionalExecutor::new().run(&program, &graph, w);
            }),
            ("sim", &|w| drop(SimExecutor::new().run(&program, &graph, w))),
            ("native", &|w| drop(native.run(&program, &graph, w))),
        ];
        for (label, run) in runs {
            let mut w = world.clone();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut w)));
            let text = panic_text(&*caught.expect_err("a world that does not fit is refused"));
            assert_eq!(text, want, "{label}");
            assert_eq!(world_bytes(&w), world_bytes(&world), "{label} wrote the refused world");
        }
    }
    assert_eq!(ran.load(Ordering::SeqCst), 0, "a kernel ran on a world that does not fit");
}

/// Every array's bytes, deep-copied.
fn world_bytes(w: &gpstream_core::World) -> Vec<Vec<u8>> {
    w.iter().map(|a| a.data.as_bytes().to_vec()).collect()
}

/// Which arrays of `a` still share their bytes with `b`.
fn shared_arrays(a: &gpstream_core::World, b: &gpstream_core::World) -> Vec<bool> {
    a.iter().zip(b.iter()).map(|(x, y)| Arc::ptr_eq(&x.data, &y.data)).collect()
}

/// A cloned world shares every array until one side writes; a write —
/// by any executor's scatter or by `slice_mut` — copies only the array
/// written and leaves the source world byte-identical.
#[test]
fn world_clones_share_arrays_until_written() {
    let (graph, world, y, program, expected) = two_strip_setup();
    let before = world_bytes(&world);
    let run_on_clone = |label: &str, run: &dyn Fn(&mut gpstream_core::World)| {
        let mut w = world.clone();
        assert_eq!(shared_arrays(&world, &w), vec![true, true], "{label}: a clone shares all");
        run(&mut w);
        assert_eq!(w.slice::<f32>(y), expected.as_slice(), "{label}: wrong output");
        assert_eq!(world_bytes(&world), before, "{label}: the source world changed");
        // Array 0 is only gathered; array 1 (`y`) is scattered.
        assert_eq!(
            shared_arrays(&world, &w),
            vec![true, false],
            "{label}: copied the wrong arrays"
        );
    };
    run_on_clone("functional", &|w| {
        FunctionalExecutor::new().run(&program, &graph, w);
    });
    run_on_clone("sim snapshot", &|w| {
        let _ = SimExecutor::new().snapshot(&program, &graph, w);
    });
    for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
        run_on_clone(&format!("native {policy:?}"), &|w| {
            NativeExecutor::new().with_wait_policy(policy).run(&program, &graph, w);
        });
    }
    run_on_clone("slice_mut", &|w| w.slice_mut::<f32>(y).copy_from_slice(&expected));
}

/// Kernels write their outputs in place, and every executor hands a
/// kernel zeroed output strips. Two strips, double-buffered so that the
/// second strip's output buffer is the first strip's input buffer: a
/// kernel that accumulates (`o[i] += x[i]`) gives `x` only if that
/// buffer is zeroed before it runs.
#[test]
fn kernels_accumulate_into_zeroed_output_strips_on_every_executor() {
    let data: Vec<f32> = (1..=8).map(|i| i as f32 * 1.5).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array("y", &[-1.0f32; 8]);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", 8);
    b.kernel("acc", &[xs.id()], &[ys.id()], 1, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o += v;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build().unwrap();

    // Buffers at 0 and 64: strip 0 gathers into 0 and writes 64, strip 1
    // gathers into 64 (after strip 0's scatter) and writes 0.
    let mut tasks: Vec<TaskDesc> = Vec::new();
    for s in 0..2u32 {
        let elems = s as usize * 4..(s as usize + 1) * 4;
        let bind = |stream, buf: u32| PortBinding {
            stream,
            srf_offset: 64 * ((s + buf) % 2) as usize,
            elems: elems.clone(),
            elem_bytes: 4,
        };
        let (in_b, out_b) = (bind(xs.id(), 0), bind(ys.id(), 1));
        let base = 3 * s;
        let gather_deps = if s == 0 { vec![] } else { vec![TaskId(base - 1)] };
        tasks.push(TaskDesc {
            id: TaskId(base),
            kind: TaskKind::Gather { binding: in_b.clone(), nt: true },
            deps: gather_deps,
            strip: s,
        });
        tasks.push(TaskDesc {
            id: TaskId(base + 1),
            kind: TaskKind::Kernel {
                kernel: KernelId(0),
                items: elems.clone(),
                inputs: vec![in_b],
                outputs: vec![out_b.clone()],
            },
            deps: vec![TaskId(base)],
            strip: s,
        });
        tasks.push(TaskDesc {
            id: TaskId(base + 2),
            kind: TaskKind::Scatter { binding: out_b, nt: true },
            deps: vec![TaskId(base + 1)],
            strip: s,
        });
    }
    let program = ScheduledProgram { tasks, srf_bytes: 128, n_strips: 2, strip_items: 4 };
    let program = program.check(&graph).expect("a consistent double-buffered schedule");

    let mut runs: Vec<(String, Vec<u8>)> = Vec::new();
    let mut out = |label: String, w: gpstream_core::World| {
        runs.push((label, w.array(y.id()).data.as_bytes().to_vec()));
    };
    let mut w = world.clone();
    FunctionalExecutor::new().run(&program, &graph, &mut w);
    out("functional".into(), w);
    let mut w = world.clone();
    let _ = SimExecutor::new().run(&program, &graph, &mut w);
    out("sim".into(), w);
    for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
        let mut w = world.clone();
        NativeExecutor::new().with_wait_policy(policy).run(&program, &graph, &mut w);
        out(format!("native {policy:?}"), w);
    }
    let want: Vec<u8> = data.iter().flat_map(|v| v.to_ne_bytes()).collect();
    for (label, got) in &runs {
        assert_eq!(got, &want, "{label}: an output strip was not zeroed before its kernel");
    }
}

/// The event engine is the default at both layers; the cycle-stepped
/// reference runs only when named (`fast_sim(false)`), where the
/// engine's own tally files every copy element under `stepped`.
#[test]
fn event_engine_is_the_default() {
    assert_eq!(StepMode::default(), StepMode::Event);
    let (graph, world, y, program, expected) = two_strip_setup();
    let stepped_elems = |exec: SimExecutor| {
        let mut w = world.clone();
        let rep = exec.run(&program, &graph, &mut w);
        assert_eq!(w.slice::<f32>(y), expected.as_slice());
        rep.engine_stats().exact_reasons[ExactReason::Stepped as usize]
    };
    assert_eq!(stepped_elems(SimExecutor::new()), 0, "the default must be the event engine");
    assert!(stepped_elems(SimExecutor::new().fast_sim(false)) > 0, "false is the reference");
}

/// Section III-B-2's single-context mapping is the in-order view of the
/// one-context topology.
#[test]
fn one_context_mapping_is_correct_and_slower_or_equal() {
    let (graph, world, y, program, expected) = two_strip_setup();
    let run = |exec: SimExecutor| {
        let mut w = world.clone();
        let rep = exec.run(&program, &graph, &mut w);
        assert_eq!(w.slice::<f32>(y), expected.as_slice());
        rep.timing.cycles
    };
    let dual = run(SimExecutor::new());
    let single = run(SimExecutor::new().with_topology(Topology::single()).in_order(true));
    // With only 8 elements the difference is dominated by dispatch costs,
    // but single-context must never be faster than the overlapped mapping
    // by more than the dispatch overhead it saves.
    assert!(single > 0 && dual > 0);
}

#[test]
fn wait_policies_change_sim_timing_not_results() {
    let (graph, world, y, program, expected) = two_strip_setup();
    let mut cycles = Vec::new();
    for policy in [WaitPolicy::SpinPause, WaitPolicy::Mwait, WaitPolicy::OsBlock] {
        let mut w = world.clone();
        let rep = SimExecutor::new().with_wait_policy(policy).run(&program, &graph, &mut w);
        assert_eq!(w.slice::<f32>(y), expected.as_slice());
        cycles.push(rep.timing.cycles);
    }
    assert!(cycles[0] < cycles[2], "PAUSE dispatch must beat OS dispatch: {cycles:?}");
}

#[test]
fn native_executor_handles_many_small_tasks() {
    // Hundreds of tiny tasks: hundreds of completions per run, each
    // waking the other worker.
    let n = 4096usize;
    let data: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("neg", &[xs.id()], &[ys.id()], 1, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = -v;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, mut world) = b.build().unwrap();
    let compiled = gpstream_compiler_shim::compile_tiny_strips(&graph);
    let report = NativeExecutor::new().run(&compiled, &graph, &mut world);
    assert!(report.tasks > 128, "want >128 tasks to stress the workers, got {}", report.tasks);
    let got = world.slice::<f32>(y.id());
    assert!(got.iter().zip(&data).all(|(g, d)| *g == -d));
}

/// A panicking kernel must terminate the run and surface its *original*
/// panic payload — not hang a worker waiting on completions the dead
/// worker will never post (hundreds of strips leave the memory workers
/// plenty to wait for), and not mask the payload behind a generic
/// "worker panicked". The kernels run on context 0, the calling thread,
/// under every topology here, and on a spawned worker too under
/// `scaled(4)`.
#[test]
fn worker_panic_propagates_original_payload() {
    let n = 4096usize; // hundreds of strips: hundreds of gathers wait on the kernels
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("boom", &[xs.id()], &[ys.id()], 1, |_args| {
        panic!("kernel exploded deliberately");
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build().unwrap();
    let compiled = gpstream_compiler_shim::compile_tiny_strips(&graph);
    for topology in [Topology::two_context(), Topology::single(), Topology::scaled(4)] {
        for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
            let mut w = world.clone();
            let exec =
                NativeExecutor::new().with_topology(topology.clone()).with_wait_policy(policy);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.run(&compiled, &graph, &mut w)
            }));
            let payload = result.expect_err("run must propagate the worker panic");
            let msg = panic_text(&*payload);
            assert!(
                msg.contains("kernel exploded deliberately"),
                "original panic payload must survive propagation ({topology:?}, {policy:?}), \
                 got: {msg}"
            );
        }
    }
}

/// The native runtime has no control thread: the caller runs context 0's
/// worker itself, so context 0's share — every task under `single`,
/// every kernel under `two_context` — runs on the calling thread.
#[test]
fn the_calling_thread_runs_context_zero() {
    let n = 64usize;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let ran_on = Arc::new(Mutex::new(Vec::<ThreadId>::new()));
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    let log = Arc::clone(&ran_on);
    b.kernel("neg", &[xs.id()], &[ys.id()], 1, move |args| {
        log.lock().unwrap().push(std::thread::current().id());
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = -v;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build().unwrap();
    let program = gpstream_compiler_shim::compile_tiny_strips(&graph);
    let kernels = program.tasks.iter().filter(|t| !t.kind.is_memory()).count();
    let want: Vec<f32> = data.iter().map(|v| -v).collect();
    let caller = std::thread::current().id();
    for topology in [Topology::single(), Topology::two_context()] {
        for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
            ran_on.lock().unwrap().clear();
            let mut w = world.clone();
            let exec =
                NativeExecutor::new().with_topology(topology.clone()).with_wait_policy(policy);
            exec.run(&program, &graph, &mut w);
            assert_eq!(w.slice::<f32>(y.id()), want.as_slice(), "{topology:?} {policy:?}");
            let ran_on = ran_on.lock().unwrap();
            assert_eq!(ran_on.len(), kernels, "{topology:?} {policy:?}");
            assert!(
                ran_on.iter().all(|&t| t == caller),
                "every kernel must run on the calling thread ({topology:?} {policy:?})"
            );
        }
    }
}

/// Kernels hold no lock — each borrows only its own SRF strips — so two
/// independent kernels on the two compute workers of
/// `Topology::scaled(4)` run at the same time: each body announces itself and then waits (at most 10 s) for
/// the other to start. A runtime that serializes task bodies lets only
/// one in at a time, so the first one gives up alone.
#[test]
fn independent_kernels_overlap_on_two_compute_workers() {
    const WAIT: Duration = Duration::from_secs(10);
    let n = 8usize;
    let started = Arc::new(AtomicUsize::new(0));
    let met = Arc::new(AtomicUsize::new(0));
    let mut b = GraphBuilder::new();
    let mut ports = Vec::new();
    for side in ["left", "right"] {
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let a = b.array(&format!("{side}_in"), &data);
        let y = b.array_zeroed::<f32>(&format!("{side}_out"), n);
        let xs = b.gather_seq(&format!("{side}_xs"), a);
        let ys = b.stream::<f32>(&format!("{side}_ys"), n);
        let (started, met) = (Arc::clone(&started), Arc::clone(&met));
        b.kernel(side, &[xs.id()], &[ys.id()], 1, move |args| {
            started.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while started.load(Ordering::SeqCst) < 2 && t0.elapsed() < WAIT {
                std::thread::yield_now();
            }
            if started.load(Ordering::SeqCst) >= 2 {
                met.fetch_add(1, Ordering::SeqCst);
            }
            let x = args.input::<f32>(0);
            args.output::<f32>(0).copy_from_slice(x);
        });
        b.scatter_seq(ys, y);
        ports.push((xs.id(), ys.id(), y.id()));
    }
    let (graph, world) = b.build().unwrap();
    let binding = |stream, slot: usize| PortBinding {
        stream,
        srf_offset: 64 * slot,
        elems: 0..n,
        elem_bytes: 4,
    };
    let task = |id: u32, kind, deps: Vec<u32>| TaskDesc {
        id: TaskId(id),
        kind,
        deps: deps.into_iter().map(TaskId).collect(),
        strip: 0,
    };
    // Gathers 0 and 1, kernels 2 and 3, scatters 4 and 5: the farm deals
    // the kernels to contexts 0 and 2, the memory tasks to 1 and 3.
    let mut tasks = Vec::new();
    for (k, &(xs, _, _)) in ports.iter().enumerate() {
        tasks.push(task(k as u32, TaskKind::Gather { binding: binding(xs, k), nt: false }, vec![]));
    }
    for (k, &(xs, ys, _)) in ports.iter().enumerate() {
        let kind = TaskKind::Kernel {
            kernel: KernelId(k as u32),
            items: 0..n,
            inputs: vec![binding(xs, k)],
            outputs: vec![binding(ys, 2 + k)],
        };
        tasks.push(task(2 + k as u32, kind, vec![k as u32]));
    }
    for (k, &(_, ys, _)) in ports.iter().enumerate() {
        let kind = TaskKind::Scatter { binding: binding(ys, 2 + k), nt: false };
        tasks.push(task(4 + k as u32, kind, vec![2 + k as u32]));
    }
    let program = ScheduledProgram { tasks, srf_bytes: 256, n_strips: 1, strip_items: n };
    let program = program.check(&graph).unwrap();
    assert_eq!(Topology::scaled(4).assign(&program.tasks), vec![1, 3, 0, 2, 1, 3]);

    let mut w = world;
    NativeExecutor::new().with_topology(Topology::scaled(4)).run(&program, &graph, &mut w);
    assert_eq!(met.load(Ordering::SeqCst), 2, "each kernel body must see the other one running");
    for (_, _, y) in ports {
        let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assert_eq!(w.slice::<f32>(y), want.as_slice());
    }
}

/// Many short runs over tiny strips (hundreds of tasks, so hundreds of
/// completions and park/wake round-trips per run) under every wait
/// policy and topology shape. Each run happens on its own thread and
/// must report back within 10 s, so a lost wake-up fails here in seconds
/// instead of hanging the suite.
#[test]
fn tiny_strip_runs_never_lose_a_wake_up() {
    const RUNS: usize = 100;
    let n = 1024usize;
    let data: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("neg", &[xs.id()], &[ys.id()], 1, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = -v;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build().unwrap();
    let program = gpstream_compiler_shim::compile_tiny_strips(&graph);
    assert!(program.tasks.len() > 2 * 64, "workers must park and wake repeatedly");
    let want: Vec<f32> = data.iter().map(|v| -v).collect();
    let setup = Arc::new((graph, world, program, want));

    let topologies = [
        ("single", Topology::single()),
        ("two_context", Topology::two_context()),
        ("scaled(4)", Topology::scaled(4)),
    ];
    for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
        for (name, topology) in &topologies {
            let exec =
                NativeExecutor::new().with_wait_policy(policy).with_topology(topology.clone());
            let (tx, rx) = mpsc::channel();
            let setup = Arc::clone(&setup);
            std::thread::spawn(move || {
                let (graph, world, program, want) = &*setup;
                for _ in 0..RUNS {
                    let mut w = world.clone();
                    exec.run(program, graph, &mut w);
                    let ok = w.slice::<f32>(y.id()) == want.as_slice();
                    if tx.send(ok).is_err() {
                        return;
                    }
                }
            });
            for run in 0..RUNS {
                let label = format!("{policy:?} {name} run {run}");
                let ok = rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("{label}: no result in 10 s (lost wake-up?)"));
                assert!(ok, "{label}: wrong result");
            }
        }
    }
}

/// Local shim: build a many-strip schedule without depending on the
/// compiler crate (gpstream-core must stay independently testable).
mod gpstream_compiler_shim {
    use super::*;

    pub fn compile_tiny_strips(graph: &gpstream_core::StreamGraph) -> CheckedProgram {
        let xs = gpstream_core::StreamId(0);
        let ys = gpstream_core::StreamId(1);
        let n = graph.stream(xs).count;
        let strip = 16usize;
        let mut tasks = Vec::new();
        for (s, start) in (0..n).step_by(strip).enumerate() {
            let elems = start..(start + strip).min(n);
            let in_b = PortBinding {
                stream: xs,
                srf_offset: 1024 * (s % 2),
                elems: elems.clone(),
                elem_bytes: 4,
            };
            let out_b = PortBinding {
                stream: ys,
                srf_offset: 8192 + 1024 * (s % 2),
                elems: elems.clone(),
                elem_bytes: 4,
            };
            let base = tasks.len() as u32;
            let mut gather_deps = Vec::new();
            let mut kernel_deps = vec![TaskId(base)];
            if s >= 2 {
                // WAR: buffer reused from strip s-2; its kernel was task
                // base-5 relative to this strip's base (3 tasks per strip).
                gather_deps.push(TaskId(base - 5));
                // WAR: the kernel overwrites the out-buffer that strip
                // s-2's scatter (base-4) reads. With in-order queues the
                // memory queue ordered scatter(s-2) before gather(s); an
                // out-of-order issuer needs this explicit.
                kernel_deps.push(TaskId(base - 4));
            }
            tasks.push(TaskDesc {
                id: TaskId(base),
                kind: TaskKind::Gather { binding: in_b.clone(), nt: true },
                deps: gather_deps,
                strip: s as u32,
            });
            tasks.push(TaskDesc {
                id: TaskId(base + 1),
                kind: TaskKind::Kernel {
                    kernel: KernelId(0),
                    items: elems.clone(),
                    inputs: vec![in_b],
                    outputs: vec![out_b.clone()],
                },
                deps: kernel_deps,
                strip: s as u32,
            });
            tasks.push(TaskDesc {
                id: TaskId(base + 2),
                kind: TaskKind::Scatter { binding: out_b, nt: true },
                deps: vec![TaskId(base + 1)],
                strip: s as u32,
            });
        }
        let program = ScheduledProgram {
            tasks,
            srf_bytes: 16384,
            n_strips: n.div_ceil(strip) as u32,
            strip_items: strip,
        };
        program.check(graph).unwrap()
    }
}
