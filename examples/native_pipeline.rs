//! The native two-thread runtime: a real compute thread (the caller's)
//! and memory thread, each walking its own queue of the compiled
//! program's tasks and running any whose dependencies have completed,
//! with both of the paper's wait policies. Tasks run in place with no
//! data lock and no staging copy — each borrows only the SRF and array
//! bytes it touches — so the compute thread's kernels overlap the memory
//! thread's gathers and scatters.
//!
//! Run with: `cargo run --release --example native_pipeline`

use gpstream::compiler::{compile, CompilerOptions};
use gpstream::core::exec::native::{NativeExecutor, NativeWaitPolicy};
use gpstream::core::GraphBuilder;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 19;
    let data: Vec<f32> = (0..n).map(|i| (i % 37) as f32).collect();

    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ms = b.stream::<f32>("mid", n);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("square", &[xs.id()], &[ms.id()], 6, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v * v;
        }
    });
    b.kernel("offset", &[ms.id()], &[ys.id()], 6, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v + 1.0;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build()?;
    let compiled = compile(&graph, &CompilerOptions::paper())?;
    println!(
        "{} tasks ({} memory / {} compute) over {} strips",
        compiled.schedule.tasks.len(),
        compiled.schedule.memory_tasks(),
        compiled.schedule.kernel_tasks(),
        compiled.schedule.n_strips
    );

    for (name, policy) in
        [("spin (PAUSE)", NativeWaitPolicy::Spin), ("park (unpark)", NativeWaitPolicy::Park)]
    {
        let mut w = world.clone();
        let start = Instant::now();
        let report = NativeExecutor::new().with_wait_policy(policy).run(
            &compiled.schedule,
            &compiled.graph,
            &mut w,
        );
        println!(
            "{name:<16} {:>7.2?}  (memory thread ran {} tasks, compute thread {})",
            start.elapsed(),
            report.memory_tasks,
            report.compute_tasks
        );
        assert_eq!(w.slice::<f32>(y.id())[10], data[10] * data[10] + 1.0);
    }
    Ok(())
}
