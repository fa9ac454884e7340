//! Scheduler tests for phase partitioning (array-carried dependencies
//! between kernel pipelines) and copy-only streams.

use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::task::TaskKind;
use gpstream_core::GraphBuilder;
use std::sync::Arc;

/// Two pipelines communicating through an array with an indexed gather —
/// like streamFEM's flux array.
#[test]
fn array_raw_dependency_creates_ordered_phases() {
    let n = 3000usize;
    let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    let rev: Vec<u32> = (0..n as u32).rev().collect();
    let expected: Vec<f32> = (0..n).map(|i| (data[n - 1 - i] + 1.0) * 3.0).collect();

    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let mid_arr = b.array_zeroed::<f32>("mid", n);
    let y = b.array_zeroed::<f32>("y", n);
    // Phase 1: sequential kernel writing mid.
    let xs = b.gather_seq("xs", a);
    let m1 = b.stream::<f32>("m1", n);
    b.kernel("inc", &[xs.id()], &[m1.id()], 2, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v + 1.0;
        }
    });
    b.scatter_seq(m1, mid_arr);
    // Phase 2: random gather from mid (reads elements any strip wrote).
    let gs = b.gather_indexed("gs", mid_arr, Arc::new(rev));
    let m2 = b.stream::<f32>("m2", n);
    b.kernel("triple", &[gs.id()], &[m2.id()], 2, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v * 3.0;
        }
    });
    b.scatter_seq(m2, y);
    let (graph, mut world) = b.build().unwrap();

    // Small strips so the phases matter.
    let opts = CompilerOptions { strip_items: Some(256), ..CompilerOptions::paper() };
    let compiled = compile(&graph, &opts).unwrap();

    // Every gather of `gs` must come after every scatter of `m1`.
    let mut last_m1_scatter = 0usize;
    let mut first_gs_gather = usize::MAX;
    for (i, t) in compiled.schedule.tasks.iter().enumerate() {
        match &t.kind {
            TaskKind::Scatter { binding, .. }
                if compiled.graph.stream(binding.stream).name == "m1" =>
            {
                last_m1_scatter = last_m1_scatter.max(i);
            }
            TaskKind::Gather { binding, .. }
                if compiled.graph.stream(binding.stream).name == "gs" =>
            {
                first_gs_gather = first_gs_gather.min(i);
            }
            _ => {}
        }
    }
    assert!(
        last_m1_scatter < first_gs_gather,
        "phase barrier violated: scatter at {last_m1_scatter}, gather at {first_gs_gather}"
    );

    FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
    let got: Vec<f32> = world.slice::<f32>(y.id()).to_vec();
    assert_eq!(got, expected);
}

#[test]
fn copy_only_stream_schedules_as_gather_scatter_pairs() {
    let n = 2000usize;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let s = b.gather_seq("copy", a);
    b.scatter_seq(s, y);
    let (graph, mut world) = b.build().unwrap();
    let opts = CompilerOptions { strip_items: Some(500), ..CompilerOptions::paper() };
    let compiled = compile(&graph, &opts).unwrap();
    assert_eq!(compiled.schedule.kernel_tasks(), 0);
    assert_eq!(compiled.schedule.memory_tasks(), 8, "4 strips x (gather + scatter)");
    FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
    assert_eq!(world.slice::<f32>(y.id()), data.as_slice());
}

#[test]
fn srf_too_small_is_reported() {
    let mut b = GraphBuilder::new();
    let a = b.array("a", &vec![0.0f32; 64]);
    let y = b.array_zeroed::<f32>("y", 64);
    let s = b.gather_seq("s", a);
    b.scatter_seq(s, y);
    let (graph, _) = b.build().unwrap();
    let opts = CompilerOptions {
        srf: gpstream_core::SrfConfig { base: 0x0100_0000, capacity: 16 },
        ..CompilerOptions::paper()
    };
    let err = compile(&graph, &opts).unwrap_err();
    assert!(matches!(err, gpstream_compiler::CompileError::SrfTooSmall { .. }), "{err}");
}

#[test]
fn fusion_chains_through_three_kernels() {
    // k1 -> k2 -> k3, all sharing one input stream: greedy fusion should
    // collapse the whole chain.
    let n = 1000usize;
    let data: Vec<f32> = (0..n).map(|i| (i % 9) as f32).collect();
    let expected: Vec<f32> = data.iter().map(|v| ((v + 1.0) + v) * 2.0 + v).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let s1 = b.stream::<f32>("s1", n);
    let s2 = b.stream::<f32>("s2", n);
    let s3 = b.stream::<f32>("s3", n);
    b.kernel("k1", &[xs.id()], &[s1.id()], 1, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v + 1.0;
        }
    });
    b.kernel("k2", &[s1.id(), xs.id()], &[s2.id()], 1, |args| {
        let x1 = args.input::<f32>(0);
        let xx = args.input::<f32>(1);
        for (o, (v1, vx)) in args.output::<f32>(0).iter_mut().zip(x1.iter().zip(xx)) {
            *o = (v1 + vx) * 2.0;
        }
    });
    b.kernel("k3", &[s2.id(), xs.id()], &[s3.id()], 1, |args| {
        let x2 = args.input::<f32>(0);
        let xx = args.input::<f32>(1);
        for (o, (v2, vx)) in args.output::<f32>(0).iter_mut().zip(x2.iter().zip(xx)) {
            *o = v2 + vx;
        }
    });
    b.scatter_seq(s3, y);
    let (graph, mut world) = b.build().unwrap();
    let compiled = compile(&graph, &CompilerOptions::paper()).unwrap();
    assert_eq!(compiled.graph.kernels().len(), 1, "chain must fuse fully");
    assert_eq!(compiled.fused.len(), 2);
    FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
    assert_eq!(world.slice::<f32>(y.id()), expected.as_slice());
}

#[test]
fn variable_rate_streams_schedule_with_worst_case_buffers() {
    // SpMV-like shape: value stream at nnz rate, output at row rate.
    let rows = 600usize;
    let lens: Vec<usize> = (0..rows).map(|r| 1 + r % 7).collect();
    let nnz: usize = lens.iter().sum();
    let mut bounds = vec![0u32];
    for l in &lens {
        bounds.push(bounds.last().unwrap() + *l as u32);
    }
    let vals: Vec<f32> = (0..nnz).map(|i| (i % 5) as f32).collect();
    let expected: Vec<f32> = (0..rows)
        .map(|r| vals[bounds[r] as usize..bounds[r + 1] as usize].iter().sum::<f32>())
        .collect();

    let mut b = GraphBuilder::new();
    let a_vals = b.array("vals", &vals);
    let a_len = b.array("lens", &lens.iter().map(|&l| l as u32).collect::<Vec<u32>>());
    let y = b.array_zeroed::<f32>("y", rows);
    let sv = b.gather_seq("vals", a_vals);
    b.set_boundaries(sv, Arc::new(bounds));
    let sl = b.gather_seq("lens", a_len);
    let sy = b.stream::<f32>("ys", rows);
    b.kernel("rowsum", &[sv.id(), sl.id()], &[sy.id()], 8, |args| {
        let v = args.input::<f32>(0);
        let l = args.input::<u32>(1);
        let out = args.output::<f32>(0);
        let mut off = 0usize;
        for (r, o) in out.iter_mut().enumerate() {
            let len = l[r] as usize;
            *o = v[off..off + len].iter().sum();
            off += len;
        }
    });
    b.scatter_seq(sy, y);
    let (graph, mut world) = b.build().unwrap();
    let opts = CompilerOptions { strip_items: Some(100), ..CompilerOptions::paper() };
    let compiled = compile(&graph, &opts).unwrap();
    FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
    assert_eq!(world.slice::<f32>(y.id()), expected.as_slice());
}
