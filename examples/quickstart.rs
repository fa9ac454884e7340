//! Quickstart: author a stream program, compile it with the paper's
//! optimizations, and run it on the reference executor and the simulated
//! hyper-threaded Pentium 4.
//!
//! Run with: `cargo run --release --example quickstart`

use gpstream::compiler::{compile, CompilerOptions};
use gpstream::core::exec::functional::FunctionalExecutor;
use gpstream::core::exec::sim::SimExecutor;
use gpstream::core::GraphBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 18; // 256K elements, 1 MB per array: larger than the L2.

    // Gather two arrays, compute, scatter the result — the stream version
    // of the paper's Figure 1/2 example.
    let a_data: Vec<f32> = (0..n).map(|i| (i % 100) as f32).collect();
    let b_data: Vec<f32> = (0..n).map(|i| 0.5 * (i % 17) as f32).collect();

    let mut b = GraphBuilder::new();
    let a = b.array("a", &a_data);
    let bb = b.array("b", &b_data);
    let y = b.array_zeroed::<f32>("y", n);
    let as_ = b.gather_seq("as", a);
    let bs = b.gather_seq("bs", bb);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("madd", &[as_.id(), bs.id()], &[ys.id()], 12, |args| {
        let xa = args.input::<f32>(0);
        let xb = args.input::<f32>(1);
        for (o, (va, vb)) in args.output::<f32>(0).iter_mut().zip(xa.iter().zip(xb)) {
            *o = va.mul_add(2.0, *vb);
        }
    });
    b.scatter_seq(ys, y);
    let (graph, world) = b.build()?;

    // Compile: strip mining, double buffering, fusion, non-temporal hints.
    let compiled = compile(&graph, &CompilerOptions::paper())?;
    println!(
        "compiled: {} tasks over {} strips of {} items ({} SRF bytes)",
        compiled.schedule.tasks.len(),
        compiled.schedule.n_strips,
        compiled.schedule.strip_items,
        compiled.schedule.srf_bytes,
    );

    // Reference execution.
    let mut w1 = world.clone();
    FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w1);
    println!("functional: y[42] = {}", w1.slice::<f32>(y.id())[42]);

    // Timing on the simulated machine (compute thread + memory thread).
    let mut w2 = world.clone();
    let report = SimExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w2);
    assert_eq!(w1.slice::<f32>(y.id()), w2.slice::<f32>(y.id()));
    println!(
        "simulated: {} cycles ({:.3} ms at 3.4 GHz), {:.2} GB/s of stream traffic",
        report.timing.cycles,
        report.timing.secs(3.4) * 1e3,
        report.timing.bandwidth_gbps((3 * n * 4) as u64, 3.4),
    );
    Ok(())
}
