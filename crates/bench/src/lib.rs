//! # gpstream-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. The library exposes one function per figure
//! returning structured data; the `figures` binary prints them in the
//! form the paper reports (and as JSON / Chrome traces on request). Host
//! time is measured only by the benchmark of record under `benchmark/`.

#![warn(missing_docs)]
#![warn(clippy::all)]

use gpstream_apps::cdp::{cdp_bench, CdpConfig, CONFIGS as CDP_CONFIGS};
use gpstream_apps::common::AppBench;
use gpstream_apps::fem::{fem_bench, FemConfig, CONFIGS as FEM_CONFIGS, PAPER_CELLS};
use gpstream_apps::neo::neo_bench;
use gpstream_apps::spas::{spas_bench, PAPER_NNZ_PER_ROW};
use gpstream_compiler::CompilerOptions;
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::metrics::{BandwidthSeries, Comparison, NormalizedBar};
use gpstream_core::{Topology, World};
use gpstream_machine::ops::WaitPolicy;
use gpstream_machine::MachineConfig;
use gpstream_microbench::kernels::Microbench;
use gpstream_microbench::{bwprobe, kernels, overlap, spinwait};
use gpstream_tune::{workloads as tune_workloads, EvalCache, TuneOutcome, Tuner};
use gpstream_util::fanout;

pub mod profiling;
pub mod scale;

/// Default seed for every figure (results are fully deterministic).
pub const SEED: u64 = 0x6a79_2005;

/// Figure 5: bandwidth curves.
#[must_use]
pub fn figure5(cfg: &MachineConfig) -> Vec<BandwidthSeries> {
    bwprobe::figure5(cfg)
}

/// Figure 6: overlap scenarios, serial = 100.
#[must_use]
pub fn figure6(cfg: &MachineConfig) -> Vec<NormalizedBar> {
    overlap::figure6(cfg)
}

/// Figure 8: PAUSE vs MWAIT bars, solo = 100.
#[must_use]
pub fn figure8(cfg: &MachineConfig) -> Vec<NormalizedBar> {
    spinwait::figure8(cfg)
}

/// Section III-B: dispatch latencies per wait policy, in cycles.
#[must_use]
pub fn dispatch_latencies(cfg: &MachineConfig) -> Vec<(String, u64)> {
    [
        ("PAUSE spin loop", WaitPolicy::SpinPause),
        ("MONITOR/MWAIT", WaitPolicy::Mwait),
        ("OS block/wake", WaitPolicy::OsBlock),
    ]
    .into_iter()
    .map(|(n, p)| (n.to_string(), spinwait::dispatch_latency(p, cfg)))
    .collect()
}

/// One Figure 9 series.
#[derive(Debug, Clone)]
pub struct Fig9Series {
    /// Micro-benchmark name.
    pub name: String,
    /// (COMP, speedup) points.
    pub points: Vec<(usize, f64)>,
}

/// Figure 9: micro-benchmark speedups over the COMP sweep.
#[must_use]
pub fn figure9(cfg: &MachineConfig, copts: &CompilerOptions) -> Vec<Fig9Series> {
    ["LD-ST-COMP", "GAT-SCAT-COMP", "PROD-CON"]
        .into_iter()
        .map(|name| Fig9Series {
            name: name.to_string(),
            points: kernels::figure9_series(
                name,
                &kernels::FIG9_COMPS,
                kernels::FIG9_N,
                copts,
                cfg,
            ),
        })
        .collect()
}

/// One point of Figure 11: the application bench a comparison row is
/// built from.
#[derive(Debug, Clone, Copy)]
enum AppPoint {
    Fem(FemConfig),
    Cdp(CdpConfig),
    Neo(usize),
    Spas(usize),
}

impl AppPoint {
    fn bench(self) -> AppBench {
        match self {
            AppPoint::Fem(c) => fem_bench(c, PAPER_CELLS, SEED),
            AppPoint::Cdp(c) => cdp_bench(c, SEED),
            AppPoint::Neo(n) => neo_bench(n, SEED),
            AppPoint::Spas(rows) => spas_bench(rows, PAPER_NNZ_PER_ROW, SEED),
        }
    }
}

/// Build and compare every point, one fan-out job each; rows come back
/// in point order.
fn compare_apps(
    points: &[AppPoint],
    cfg: &MachineConfig,
    copts: &CompilerOptions,
    in_order: bool,
) -> Vec<Comparison> {
    fanout::map(points, fanout::threads(), |p| {
        p.bench().compare_mode(copts, cfg, WaitPolicy::Mwait, in_order)
    })
}

/// Figure 11(a): streamFEM speedups for the four configurations.
/// `in_order` forces head-blocking work queues (the Figure 7 ablation
/// baseline); `false` is the paper's out-of-order `tail_depend` issue.
#[must_use]
pub fn figure11a(cfg: &MachineConfig, copts: &CompilerOptions, in_order: bool) -> Vec<Comparison> {
    compare_apps(&FEM_CONFIGS.map(AppPoint::Fem), cfg, copts, in_order)
}

/// Figure 11(b): streamCDP speedups for 4n/6n x 4096/8192.
#[must_use]
pub fn figure11b(cfg: &MachineConfig, copts: &CompilerOptions, in_order: bool) -> Vec<Comparison> {
    compare_apps(&CDP_CONFIGS.map(AppPoint::Cdp), cfg, copts, in_order)
}

/// Element counts swept in Figure 11(c).
pub const FIG11C_ELEMS: [usize; 3] = [4096, 16384, 65536];

/// Figure 11(c): neo-hookean speedups over element counts.
#[must_use]
pub fn figure11c(cfg: &MachineConfig, copts: &CompilerOptions, in_order: bool) -> Vec<Comparison> {
    compare_apps(&FIG11C_ELEMS.map(AppPoint::Neo), cfg, copts, in_order)
}

/// Matrix sizes (rows) swept in Figure 11(d).
pub const FIG11D_ROWS: [usize; 4] = [2_000, 8_000, 32_000, 131_072];

/// Figure 11(d): streamSPAS speedups over matrix sizes (slowdown for
/// small, cache-friendly meshes; crossover as the mesh grows).
#[must_use]
pub fn figure11d(cfg: &MachineConfig, copts: &CompilerOptions, in_order: bool) -> Vec<Comparison> {
    compare_apps(&FIG11D_ROWS.map(AppPoint::Spas), cfg, copts, in_order)
}

/// Figure 7 ablation: in-order (head-blocking) vs out-of-order
/// (`tail_depend`) issue in the work queues, on the paper's motivating
/// micro-benchmark and on streamFEM. Returns one comparison row per
/// (workload, mode), in-order rows first; the interesting delta is the
/// per-context `idle_wait` phase, which out-of-order issue shrinks by
/// letting gathers run past blocked scatters. Each row builds its own
/// bench.
#[must_use]
pub fn ooo_ablation(cfg: &MachineConfig, copts: &CompilerOptions) -> Vec<Comparison> {
    // (in_order, streamFEM) per row.
    let rows = [(true, false), (true, true), (false, false), (false, true)];
    let wait = WaitPolicy::Mwait;
    fanout::map(&rows, fanout::threads(), |&(in_order, fem)| {
        let mut c = if fem {
            fem_bench(FEM_CONFIGS[0], 600, SEED).compare_mode(copts, cfg, wait, in_order)
        } else {
            kernels::gat_scat_comp(8192, 4).compare_mode(copts, cfg, wait, in_order)
        };
        let tag = if in_order { "in-order" } else { "ooo" };
        c.name = format!("{} [{tag}]", c.name);
        c
    })
}

/// A micro-benchmark builder, `(n, comp) -> bench`.
type MicroBuilder = fn(usize, usize) -> Microbench;

/// Section III-B-2: one hardware context (software-pipelined
/// gather/kernel/scatter on a single thread) vs. the two-context
/// mapping, per micro-benchmark at a middling COMP.
#[must_use]
pub fn single_vs_dual_context(cfg: &MachineConfig, copts: &CompilerOptions) -> Vec<(String, f64)> {
    let benches: [(&str, MicroBuilder); 3] = [
        ("LD-ST-COMP", kernels::ld_st_comp),
        ("GAT-SCAT-COMP", kernels::gat_scat_comp),
        ("PROD-CON", kernels::prod_con),
    ];
    fanout::map(&benches, fanout::threads(), |&(name, build)| {
        let mb = build(8192, 4);
        let compiled = gpstream_compiler::compile(&mb.graph, copts).expect("compiles");
        let run = |exec: SimExecutor, mut w: World| {
            exec.with_machine(cfg.clone())
                .with_srf(copts.srf)
                .run(&compiled.schedule, &compiled.graph, &mut w)
                .timing
                .cycles
        };
        let dual = run(SimExecutor::new(), mb.stream_world.clone());
        let single = run(
            SimExecutor::new().with_topology(Topology::single()).in_order(true),
            mb.stream_world,
        );
        (name.to_string(), single as f64 / dual as f64)
    })
}

/// Section V-A / VI: the paper's proposed architectural enhancements
/// (more issue bandwidth, bigger TLB, cheaper walks, deeper prefetch).
/// Returns per-benchmark stream-code cycles on the Prescott vs. the
/// enhanced machine.
#[must_use]
pub fn enhanced_machine(copts: &CompilerOptions) -> Vec<(String, u64, u64)> {
    let (base, enh) = (MachineConfig::prescott(), MachineConfig::enhanced());
    let benches: [(&str, MicroBuilder); 2] =
        [("GAT-SCAT-COMP c4", kernels::gat_scat_comp), ("PROD-CON c4", kernels::prod_con)];
    fanout::map(&benches, fanout::threads(), |&(name, build)| {
        // A comparison consumes its bench: one per machine.
        let cycles = |mcfg| build(8192, 4).compare(copts, mcfg, WaitPolicy::Mwait).stream_cycles;
        (name.to_string(), cycles(&base), cycles(&enh))
    })
}

/// Headline summary (paper Section I): best/worst micro-benchmark and
/// best scientific-application speedups.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Best micro-benchmark speedup.
    pub micro_best: f64,
    /// Worst micro-benchmark speedup.
    pub micro_worst: f64,
    /// Best scientific-application speedup.
    pub sci_best: f64,
    /// Worst scientific-application speedup.
    pub sci_worst: f64,
}

/// Default per-workload evaluation budget for [`tuned`]: enough for the
/// halving strategy to sample broadly and coordinate-descend on the
/// winning axes, small enough that the whole table regenerates in
/// seconds.
pub const TUNED_BUDGET: usize = 24;

/// "Tuned vs default": run the autotuner over every catalog workload
/// (the three micro-benchmarks and the four scientific applications)
/// and report each winner against the default-heuristic baseline. Pass
/// [`EvalCache::disabled`] for a pure run, or a directory-backed cache
/// to make regeneration incremental.
#[must_use]
pub fn tuned(budget: usize, threads: usize, cache: &EvalCache) -> Vec<TuneOutcome> {
    tune_workloads::CATALOG
        .iter()
        .map(|name| {
            let wl = tune_workloads::named(name).expect("catalog names resolve");
            Tuner { budget, threads, cache: cache.clone(), ..Tuner::default() }.tune(&wl)
        })
        .collect()
}

/// Compute the headline summary over Figures 9 and 11.
#[must_use]
pub fn summary(cfg: &MachineConfig, copts: &CompilerOptions) -> Summary {
    let micro: Vec<f64> = figure9(cfg, copts)
        .into_iter()
        .flat_map(|s| s.points.into_iter().map(|(_, v)| v))
        .collect();
    let mut sci: Vec<f64> = Vec::new();
    sci.extend(figure11a(cfg, copts, false).iter().map(Comparison::speedup));
    sci.extend(figure11b(cfg, copts, false).iter().map(Comparison::speedup));
    sci.extend(figure11c(cfg, copts, false).iter().map(Comparison::speedup));
    sci.extend(figure11d(cfg, copts, false).iter().map(Comparison::speedup));
    let fold = |v: &[f64], init: f64, f: fn(f64, f64) -> f64| v.iter().copied().fold(init, f);
    Summary {
        micro_best: fold(&micro, f64::MIN, f64::max),
        micro_worst: fold(&micro, f64::MAX, f64::min),
        sci_best: fold(&sci, f64::MIN, f64::max),
        sci_worst: fold(&sci, f64::MAX, f64::min),
    }
}
