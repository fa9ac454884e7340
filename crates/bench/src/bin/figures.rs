//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! figures [SELECTOR] [--in-order] [--json PATH] [--trace PATH]
//! figures profile WORKLOAD [--out DIR] [--interval N] [--in-order] [--check]
//!                 [--update-baseline] [--baselines DIR] [--native [REPEATS]]
//! figures analyze WORKLOAD [--out FILE]
//! figures scale [WORKLOAD] [--max N] [--out FILE]
//! figures diff A.json B.json [--strict]
//! figures serve [WORKLOAD] [--jobs N] [--rate R] [--tenants T] [--workers W]
//!               [--ctx C] [--seed S] [--unbounded] [--ablation] [--out FILE]
//!               [--slo] [--slo-latency CYC[,CYC..]] [--slo-objective F]
//!               [--window CYC] [--trace FILE] [--timeseries FILE]
//!               [--sketch] [--sketch-gamma G] [--span-cap N] [--quiet]
//! figures --list
//! ```
//!
//! `SELECTOR` is one of `fig5|fig6|fig8|fig9|fig11a|fig11b|fig11c|fig11d|
//! ooo|latencies|single|enhanced|summary|tuned|all` (default `all`);
//! `--list` prints the available selectors. An unknown selector prints
//! them too and exits non-zero.
//!
//! `tuned` runs the `gpstream-tune` autotuner over every catalog
//! workload and reports each winner against the default-heuristic
//! configuration. It is not part of `all` (the paper's figures use the
//! defaults); run it explicitly.
//!
//! `--in-order` runs the Figure 11 applications with head-blocking
//! (in-order) work queues instead of the default out-of-order
//! `tail_depend` issue — compare two `--json` dumps to see the idle-wait
//! reduction. The `ooo` selector prints both modes side by side.
//!
//! `--json PATH` additionally writes the comparison figures as JSON,
//! including the per-context phase breakdown (compute / memory / wait /
//! dispatch cycles) of every stream run.
//!
//! `--trace PATH` records one micro-benchmark and one application run
//! under the simulating executor and writes a Chrome `trace_event` file
//! that loads directly into `chrome://tracing` or
//! <https://ui.perfetto.dev>. The simulator's event buffer is bounded;
//! if any events were dropped at capacity the count is surfaced as
//! `droppedEvents` in the trace footer, as top-level `trace_dropped` in
//! the `--json` document, and as a stderr warning.
//!
//! `profile WORKLOAD` runs one catalog workload (`--list` inside the
//! subcommand prints the names) with full counter instrumentation and
//! prints a `perf stat`-style report plus the top-down cycle tree.
//! With `--out DIR` it also writes `perfstat.txt`, `topdown.txt`,
//! `profile.json`, `WORKLOAD.folded` (flamegraph collapsed-stack),
//! `samples.csv` (interval counter time-series) and `telemetry.csv`
//! (the same counters re-aggregated through the `gpstream-telemetry`
//! windowed registry; window deltas sum exactly to the run totals). `--in-order` profiles
//! with head-blocking work queues instead of the default out-of-order
//! issue (diff the two artifacts to see what the OoO queues buy).
//! `--check` compares the run against the committed baseline in
//! `--baselines DIR` (default `profiles/baselines`) and exits non-zero
//! on any out-of-band counter — or, when the baseline is missing or
//! unparseable, after listing every current counter value so the run
//! is still inspectable; `--update-baseline` regenerates the snapshot.
//! Baselines are out-of-order runs, so `--in-order` with either is a
//! usage error. `--native [REPEATS]` appends the native executor's
//! wall-clock parity report (not deterministic, never written to
//! `--out`). Every selector and subcommand runs the timing pass on the
//! event engine; no flag selects the cycle-stepped reference, which the
//! differential suite and the `figures all` golden check it against.
//! `profile` also says how the event engine retired the run's bulk
//! work in one stderr line (`engine: copy N elems … [replayed a%/b%
//! in-order c%/d% exact e%/f%]; loop M iters C cyc; exact by reason: …`
//! — per copy route its share of elements / of cycles, then the loop
//! iterations, all stepped exactly, then why the exact copy elements
//! were stepped); it is never in stdout or an artifact.
//!
//! `analyze WORKLOAD` runs one catalog workload with task logging on
//! and prints the critical-path report: per-segment cycle attribution
//! (op class + root cause), the by-class/by-cause tables, and the
//! Coz-style what-if speedup table. `--out FILE` also writes the
//! analysis as a canonical one-line JSON artifact.
//!
//! `scale [WORKLOAD]` measures context-scaling curves: every catalog
//! workload (or just `WORKLOAD`) runs on the simulated machine at 1,
//! 2, 4, … contexts under the scaled pipeline topology, and the table
//! reports total cycles plus the speedup over one context per point.
//! `--max N` caps the context count (the sweep doubles from 1 up to
//! `N`, default 8); `--out FILE` also writes the curves as a
//! deterministic JSON artifact.
//!
//! `diff A.json B.json` compares two artifacts — committed baselines,
//! `profile --out` documents, `analyze --out` reports, in any
//! combination — with per-metric deltas flagged against A's tolerance
//! bands and, when both sides carry one, a structural critical-path
//! diff. Informational by default (exit 0); `--strict` exits non-zero
//! when any shared metric lands out of band, or when the two artifacts
//! are of different kinds (a cross-kind diff only covers the shared
//! metrics, so it cannot vouch for the artifacts as a whole).
//!
//! `serve [WORKLOAD]` runs the multi-tenant streaming-service harness
//! (`gpstream-serve`): a deterministic open-loop Poisson arrival trace
//! of small stream jobs — catalog kernels at service-sized chunks —
//! admitted under backpressure, scheduled with weighted fair sharing
//! across tenants, batched onto simulated workers, and functionally
//! executed (oracle-checked) on real replay threads. Prints the
//! throughput and p50/p99/p999 queue/service/total latency report;
//! `--out FILE` writes the `latency` artifact (canonical one-line JSON,
//! byte-identical for a fixed seed and config — `figures diff` reads
//! it). Workloads: `ldstcomp`, `gatscat`, `prodcon` or `mix` (default).
//! `--unbounded` disables admission control (queue everything);
//! `--ablation` instead runs the committed backpressure experiment —
//! the same 2x-overload trace with bounded vs unbounded admission —
//! and writes `serve-bounded.json` / `serve-unbounded.json` next to
//! `--out FILE` (or prints only, without `--out`), exiting non-zero if
//! bounded admission fails to beat unbounded on p99 total latency. It
//! writes no SLO artifact, span trace or time series, so `--slo`,
//! `--trace` and `--timeseries` with it are usage errors.
//!
//! Every serve run carries the `gpstream-telemetry` plane: windowed
//! counters, per-tenant SLO burn rates (the report is appended to the
//! text output), and a job-lifecycle span trace. `--slo` makes `--out`
//! write the windowed SLO artifact instead of the latency artifact;
//! `--slo-latency` sets the per-tenant latency thresholds in cycles
//! (one value broadcasts; the default is 4x the worst service time
//! plus dispatch) and `--slo-objective` the target fraction of jobs
//! under threshold (default 0.99). `--window` overrides the tumbling
//! aggregation window in cycles (default ~48 windows per trace).
//! `--trace FILE` writes the admit -> queue -> dispatch -> execute ->
//! complete span trace as Chrome `trace_event` JSON with one lane per
//! tenant and per worker; `--timeseries FILE` writes the per-window
//! counter/gauge/histogram series as CSV. All of it is byte-identical
//! for a fixed seed and config.
//!
//! `--sketch` switches the run to bounded memory for 10⁶–10⁷-job
//! traces: latency quantiles come from a mergeable log-bucketed sketch
//! (relative error ≤ `--sketch-gamma`, default 1%; the artifact
//! records the estimator kind and its bound), registry windows stream
//! out and are evicted as virtual time passes them, and only a
//! deterministic 1-in-stride record sample is kept for the functional
//! replay — memory is O(pending + open windows), independent of
//! `--jobs`. Exact mode refuses more than 200 000 jobs and points
//! here. The span buffer is always bounded (`--span-cap`, default
//! 262144 events); overflow drops spans, counts them in the artifact's
//! `spans_dropped`, and warns on stderr. Every run ends with one stderr
//! line on the harness's own speed (`host: N jobs in X s (Y jobs/s), W
//! windows flushed, S span events dropped, peak P completions
//! buffered`), and long runs print a
//! stderr heartbeat every ~10% of jobs when stderr is a TTY; `--quiet`
//! silences both. None of this changes artifact bytes or stdout.

use gpstream_apps::fem;
use gpstream_bench as fig;
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::metrics::Comparison;
use gpstream_core::{chrome_trace, StreamGraph, TraceRun, World};
use gpstream_machine::{MachineConfig, PhaseCycles, WaitPolicy};
use gpstream_tune::workloads::CATALOG;
use gpstream_util::args::{usage_exit, write_or_exit, Args};
use gpstream_util::Json;

/// A subcommand's usage text: its synopsis (the doc header above is
/// the long form) plus the names its positional accepts.
fn usage(synopsis: &str, label: &str, names: &[&str]) -> String {
    format!("usage: figures {synopsis}\n{label}: {}", names.join(" "))
}

fn unknown_workload(name: &str, usage: &str) -> ! {
    usage_exit(&format!("unknown workload `{name}`"), usage)
}

fn print_comparisons(title: &str, rows: &[Comparison]) {
    println!("== {title} ==");
    println!("{:<28} {:>14} {:>14} {:>8}", "case", "regular (cyc)", "stream (cyc)", "speedup");
    for c in rows {
        println!(
            "{:<28} {:>14} {:>14} {:>7.2}x",
            c.name,
            c.regular_cycles,
            c.stream_cycles,
            c.speedup()
        );
        if let Some(ph) = &c.phases {
            for (lane, p) in ["compute ctx", "memory ctx"].iter().zip(ph) {
                println!(
                    "  {lane:<12} compute {:>10}  memory {:>10}  wait {:>10}  dispatch {:>8}",
                    p.compute, p.memory, p.idle_wait, p.dispatch
                );
            }
        }
    }
    println!();
}

fn phases_json(p: &PhaseCycles) -> Json {
    Json::obj([
        ("compute", Json::U64(p.compute)),
        ("memory", Json::U64(p.memory)),
        ("idle_wait", Json::U64(p.idle_wait)),
        ("dispatch", Json::U64(p.dispatch)),
        ("total", Json::U64(p.total())),
    ])
}

fn comparison_json(c: &Comparison) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(c.name.clone())),
        ("regular_cycles".to_string(), Json::U64(c.regular_cycles)),
        ("stream_cycles".to_string(), Json::U64(c.stream_cycles)),
        ("speedup".to_string(), Json::F64(c.speedup())),
    ];
    if let Some(ph) = &c.phases {
        pairs.push((
            "phases".to_string(),
            Json::obj([("compute_ctx", phases_json(&ph[0])), ("memory_ctx", phases_json(&ph[1]))]),
        ));
    }
    if let Some(m) = &c.mem {
        pairs.push(("mem".to_string(), gpstream_profile::counters::mem_stats_json(m)));
    }
    Json::Obj(pairs)
}

/// Run `graph` once on the simulated machine with event tracing on and
/// package the result for the Chrome exporter.
fn traced_sim_run(
    name: &str,
    graph: &StreamGraph,
    world: &World,
    cfg: &MachineConfig,
    copts: &CompilerOptions,
) -> TraceRun {
    let compiled = compile(graph, copts).expect("traced program compiles");
    let mut w = world.clone();
    let report = SimExecutor::new()
        .with_machine(cfg.clone())
        .with_srf(copts.srf)
        .with_wait_policy(WaitPolicy::Mwait)
        .with_trace(true)
        .run(&compiled.schedule, &compiled.graph, &mut w);
    let ticks_per_us = cfg.freq_ghz * 1000.0;
    TraceRun::new(
        name,
        ticks_per_us,
        &["compute ctx", "memory ctx"],
        &compiled.schedule,
        report.trace.expect("tracing was enabled"),
    )
    .with_dropped(report.trace_dropped)
}

/// Returns the total number of events the bounded trace buffers dropped
/// across the recorded runs (also surfaced in the `--json` document).
fn write_trace(path: &str, cfg: &MachineConfig, copts: &CompilerOptions) -> u64 {
    let mb = gpstream_microbench::kernels::gat_scat_comp(2048, 2);
    let app = fem::fem_bench(fem::CONFIGS[0], 600, 0x6a79_2005);
    let runs = vec![
        traced_sim_run("GAT-SCAT-COMP comp=2 (sim)", &mb.graph, &mb.stream_world, cfg, copts),
        traced_sim_run(&format!("{} (sim)", app.name), &app.graph, &app.stream_world, cfg, copts),
    ];
    let dropped: u64 = runs.iter().map(|r| r.dropped).sum();
    write_or_exit(path, chrome_trace(&runs));
    println!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    if dropped > 0 {
        eprintln!(
            "warning: trace buffers dropped {dropped} event(s) at capacity; \
             the trace is truncated (droppedEvents in the footer)"
        );
    }
    dropped
}

const SELECTORS: [&str; 15] = [
    "all",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig11a",
    "fig11b",
    "fig11c",
    "fig11d",
    "ooo",
    "latencies",
    "single",
    "enhanced",
    "summary",
    "tuned",
];

fn tuned_json(o: &gpstream_tune::TuneOutcome) -> Json {
    Json::obj([
        ("workload", Json::Str(o.workload.clone())),
        ("strategy", Json::from(o.strategy)),
        ("baseline_cycles", Json::U64(o.baseline_cycles)),
        ("tuned_cycles", Json::U64(o.best_cycles)),
        ("speedup", Json::F64(o.speedup())),
        ("best", o.best.to_json()),
    ])
}

/// `figures profile` subcommand. Exits the process: 0 on success, 1 on
/// baseline violations, 2 on usage errors.
fn profile_main(argv: &[String]) -> ! {
    let usage = usage(
        "profile WORKLOAD [--out DIR] [--interval N] [--in-order] [--check] [--update-baseline] \
         [--baselines DIR] [--native [REPEATS]]",
        "workloads",
        &CATALOG,
    );
    let mut args = Args::new(argv, &usage);
    args.list(&CATALOG);
    let out_dir = args.value("--out");
    let interval = args.parsed("--interval", "a positive cycle count", |&n: &u64| n > 0);
    let check = args.flag("--check");
    let in_order = args.flag("--in-order");
    let update_baseline = args.flag("--update-baseline");
    let baselines = args.value("--baselines").unwrap_or_else(|| "profiles/baselines".to_string());
    let native = args.optional("--native", "a positive repeat count", |&n: &usize| n > 0, 5);
    let Some(workload) = args.finish(1).pop() else { usage_exit("missing WORKLOAD", &usage) };
    // The baseline path carries no issue order: every committed baseline
    // is an out-of-order run, so an in-order run may neither be checked
    // against one nor overwrite it.
    if in_order && (check || update_baseline) {
        let with = if check { "--check" } else { "--update-baseline" };
        usage_exit(&format!("--in-order cannot be combined with {with}"), &usage);
    }
    let Some(out) = fig::profiling::profile_workload(&workload, interval, in_order, true) else {
        unknown_workload(&workload, &usage)
    };

    print!("{}", out.perf_stat);
    println!();
    print!("{}", out.topdown);
    eprintln!("engine: {}", out.engine);

    if let Some(dir) = &out_dir {
        let dir = std::path::Path::new(dir);
        for (name, text) in [
            ("perfstat.txt", &out.perf_stat),
            ("topdown.txt", &out.topdown),
            ("profile.json", &out.json),
            (format!("{workload}.folded").as_str(), &out.folded),
            ("samples.csv", &out.samples_csv),
            ("telemetry.csv", &out.telemetry_csv),
        ] {
            write_or_exit(dir.join(name), text);
        }
        println!("\nwrote profile artifacts to {}", dir.display());
    }

    let baseline_path = std::path::Path::new(&baselines).join(format!("{workload}.json"));
    if update_baseline {
        let base = gpstream_profile::Baseline::capture(&workload, &out.counters);
        write_or_exit(&baseline_path, base.to_json().to_doc_string());
        println!("updated baseline {}", baseline_path.display());
    }
    if check {
        // A broken baseline still gets a per-metric listing of the run
        // that was checked, so CI logs show what `--update-baseline`
        // would snapshot.
        let no_baseline = |why: String| -> ! {
            eprintln!("{why}");
            eprintln!(
                "current values for `{workload}` ({} metrics):",
                out.counters.all_values().len()
            );
            for (name, value) in out.counters.all_values() {
                if value == value.trunc() && value.abs() < 1e15 {
                    eprintln!("  {name} = {value}");
                } else {
                    eprintln!("  {name} = {value:.6}");
                }
            }
            eprintln!("run with --update-baseline to (re)create the snapshot");
            std::process::exit(1);
        };
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            no_baseline(format!("cannot read baseline {} ({e})", baseline_path.display()))
        });
        let base = gpstream_profile::Baseline::from_json(&text).unwrap_or_else(|e| {
            no_baseline(format!("malformed baseline {}: {e}", baseline_path.display()))
        });
        let violations = base.check(&out.counters);
        if violations.is_empty() {
            println!("baseline check passed ({} tracked values)", base.entries.len());
        } else {
            eprintln!("baseline check FAILED for `{workload}`:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
    if let Some(repeats) = native {
        let text = fig::profiling::native_parity(&workload, repeats)
            .expect("workload resolved once already");
        println!();
        print!("{text}");
    }
    std::process::exit(0);
}

/// `figures analyze` subcommand. Exits the process: 0 on success, 2 on
/// usage errors.
fn analyze_main(argv: &[String]) -> ! {
    let usage = usage("analyze WORKLOAD [--out FILE]", "workloads", &CATALOG);
    let mut args = Args::new(argv, &usage);
    args.list(&CATALOG);
    let out_file = args.value("--out");
    let Some(workload) = args.finish(1).pop() else { usage_exit("missing WORKLOAD", &usage) };
    let Some(analysis) = gpstream_analyze::analyze_workload(&workload) else {
        unknown_workload(&workload, &usage)
    };
    print!("{}", gpstream_analyze::render::text(&analysis));
    if let Some(path) = out_file {
        write_or_exit(&path, gpstream_analyze::render::to_json(&analysis).to_doc_string());
        println!("\nwrote analysis artifact to {path}");
    }
    std::process::exit(0);
}

/// `figures scale` subcommand. Exits the process: 0 on success, 2 on
/// usage errors.
fn scale_main(argv: &[String]) -> ! {
    let usage = usage("scale [WORKLOAD] [--max N] [--out FILE]", "workloads", &CATALOG);
    let mut args = Args::new(argv, &usage);
    args.list(&CATALOG);
    let in_engine = |n: &usize| (1..=64).contains(n);
    let max = args.parsed("--max", "a context count in 1..=64", in_engine).unwrap_or(8);
    let out_file = args.value("--out");
    let workload = args.finish(1).pop();
    // Context counts double from 1 and always include the cap itself.
    let counts: Vec<usize> =
        std::iter::successors(Some(1usize), |&n| (n < max).then(|| (n * 2).min(max))).collect();
    let names: Vec<String> = match &workload {
        Some(w) => vec![w.clone()],
        None => CATALOG.iter().map(ToString::to_string).collect(),
    };
    let mut rows = Vec::with_capacity(names.len());
    for name in &names {
        let Some(row) = fig::scale::scale_workload(name, &counts) else {
            unknown_workload(name, &usage)
        };
        rows.push(row);
    }
    print!("{}", fig::scale::render(&rows));
    if let Some(path) = &out_file {
        write_or_exit(path, fig::scale::to_json(&rows).to_doc_string());
        println!("wrote scaling curves to {path}");
    }
    std::process::exit(0);
}

/// `figures diff` subcommand. Exits the process: 0 on success (even
/// with out-of-band deltas, unless `--strict`), 1 on unreadable or
/// unparseable artifacts or strict out-of-band deltas, 2 on usage
/// errors.
fn diff_main(argv: &[String]) -> ! {
    let usage = "usage: figures diff A.json B.json [--strict]";
    let mut args = Args::new(argv, usage);
    let strict = args.flag("--strict");
    let paths = args.finish(2);
    if paths.len() != 2 {
        usage_exit("diff compares two artifacts", usage);
    }
    let load = |path: &str| -> gpstream_profile::Artifact {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        gpstream_profile::Artifact::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        })
    };
    let a = load(&paths[0]);
    let b = load(&paths[1]);
    let d = gpstream_analyze::diff::diff(&a, &b);
    print!("{}", gpstream_analyze::diff::render(&d));
    let mut failing = false;
    if let Some((ka, kb)) = d.kind_mismatch {
        // A cross-kind diff compares only the metrics the kinds share,
        // so strict mode must not report it as a clean pass.
        println!(
            "artifact kinds differ ({ka} vs {kb}){}",
            if strict { " (strict: failing)" } else { "" }
        );
        failing = true;
    }
    let out_of_band = d.out_of_band();
    if !out_of_band.is_empty() {
        println!(
            "{} metric(s) out of band{}",
            out_of_band.len(),
            if strict { " (strict: failing)" } else { "" }
        );
        failing = true;
    }
    if strict && failing {
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `figures serve` subcommand. Exits the process: 0 on success, 1 when
/// `--ablation` finds bounded admission not beating unbounded on p99
/// total latency, 2 on usage errors.
fn serve_main(argv: &[String]) -> ! {
    let usage = usage(
        "serve [WORKLOAD] [--jobs N] [--rate R] [--tenants T] [--workers W] [--ctx C] [--seed S] \
         [--unbounded] [--ablation] [--out FILE] [--slo] [--slo-latency CYC[,CYC..]] \
         [--slo-objective F] [--window CYC] [--trace FILE] [--timeseries FILE] [--sketch] \
         [--sketch-gamma G] [--span-cap N] [--quiet]",
        "workloads",
        &gpstream_serve::WORKLOADS,
    );
    let mut args = Args::new(argv, &usage);
    args.list(&gpstream_serve::WORKLOADS);
    let mut cfg = gpstream_serve::ServeConfig::new("mix");
    cfg.jobs = args.number("--jobs").unwrap_or(cfg.jobs);
    cfg.rate = args.number("--rate").unwrap_or(cfg.rate);
    cfg.tenants = args.number("--tenants").unwrap_or(cfg.tenants);
    cfg.workers = args.number("--workers").unwrap_or(cfg.workers);
    cfg.ctx = args.number("--ctx").unwrap_or(cfg.ctx);
    cfg.seed = args.number("--seed").unwrap_or(cfg.seed);
    cfg.bounded = !args.flag("--unbounded");
    cfg.sketch = args.flag("--sketch");
    // Zero means "derive the default" in `ServeConfig`, so an explicit
    // zero is refused here; `validate` below checks everything else.
    let fraction: fn(&f64) -> bool = |&f| f > 0.0 && f < 1.0;
    let slo_latency = args.value("--slo-latency");
    cfg.slo_objective = args
        .parsed("--slo-objective", "a fraction strictly between 0 and 1", fraction)
        .unwrap_or(0.0);
    cfg.window_cycles =
        args.parsed("--window", "a positive cycle count", |&n: &u64| n > 0).unwrap_or(0);
    cfg.sketch_gamma = args
        .parsed("--sketch-gamma", "a fraction strictly between 0 and 1", fraction)
        .unwrap_or(0.0);
    cfg.span_capacity =
        args.parsed("--span-cap", "a positive event count", |&n: &usize| n > 0).unwrap_or(0);
    let ablation = args.flag("--ablation");
    let slo = args.flag("--slo");
    let quiet = args.flag("--quiet");
    let trace_file = args.value("--trace");
    let timeseries_file = args.value("--timeseries");
    let out_file = args.value("--out");
    if let Some(workload) = args.finish(1).pop() {
        cfg.workload = workload;
    }
    if let Some(list) = slo_latency {
        let thresholds: Result<Vec<u64>, _> = list.split(',').map(|v| v.trim().parse()).collect();
        cfg.slo_latency = thresholds.unwrap_or_else(|_| {
            usage_exit("--slo-latency needs cycle counts, comma-separated", &usage)
        });
    }
    if let Err(why) = cfg.validate() {
        usage_exit(&why, &usage);
    }
    // Progress heartbeat: stderr-only, so it can never perturb an
    // artifact; auto-off when stderr is not a terminal (CI logs).
    cfg.progress = !quiet && std::io::IsTerminal::is_terminal(&std::io::stderr());
    if ablation {
        // The ablation writes only its two latency artifacts: refuse an
        // output it would silently skip.
        let outputs = [
            ("--slo", slo),
            ("--trace", trace_file.is_some()),
            ("--timeseries", timeseries_file.is_some()),
        ];
        if let Some((flag, _)) = outputs.iter().find(|&&(_, given)| given) {
            usage_exit(&format!("--ablation cannot be combined with {flag}"), &usage);
        }
        let Some((bounded, unbounded)) = gpstream_serve::ablation(&cfg) else {
            unknown_workload(&cfg.workload, &usage)
        };
        print!("{}", bounded.text);
        print!("{}", unbounded.text);
        let p99 = |o: &gpstream_serve::ServiceOutcome| o.summary.total.quantile(0.99).unwrap_or(0);
        let (pb, pu) = (p99(&bounded), p99(&unbounded));
        println!(
            "backpressure ablation @ {:.0} jobs/s (2x capacity): p99 total {} cycles bounded vs {} cycles unbounded ({:.1}x)",
            bounded.cfg.rate,
            pb,
            pu,
            pu as f64 / pb.max(1) as f64,
        );
        if let Some(path) = &out_file {
            let stem = path.strip_suffix(".json").unwrap_or(path);
            for (side, outcome) in [("bounded", &bounded), ("unbounded", &unbounded)] {
                let p = format!("{stem}-{side}.json");
                write_or_exit(&p, &outcome.artifact);
                println!("wrote {side} latency artifact to {p}");
            }
        }
        if pb >= pu {
            eprintln!("ablation FAILED: bounded p99 total ({pb}) did not beat unbounded ({pu})");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    // The harness's own speed, timed here because no library crate reads
    // a clock, and said on stderr because no artifact may carry it.
    let started = std::time::Instant::now();
    let Some(outcome) = gpstream_serve::run_service(&cfg) else {
        unknown_workload(&cfg.workload, &usage)
    };
    if !quiet {
        let secs = started.elapsed().as_secs_f64();
        let series = &outcome.telemetry.series;
        eprintln!(
            "host: {} jobs in {secs:.3} s ({:.0} jobs/s), {} windows flushed, {} span events \
             dropped, peak {} completions buffered, peak {} retries waiting",
            cfg.jobs,
            cfg.jobs as f64 / secs,
            series.windows_flushed,
            outcome.telemetry.spans_dropped,
            series.peak_buffered,
            outcome.stats.peak_retries
        );
    }
    print!("{}", outcome.text);
    if outcome.telemetry.spans_dropped > 0 {
        eprintln!(
            "warning: span buffer full — dropped {} span events (raise --span-cap to keep more)",
            outcome.telemetry.spans_dropped
        );
    }
    if let Some(path) = &out_file {
        // `--slo` switches the `--out` artifact from the latency summary
        // to the windowed SLO burn-rate document (`figures diff` reads
        // both by their `kind` tag).
        let (kind, doc) = if slo {
            ("slo", &outcome.telemetry.slo_artifact)
        } else {
            ("latency", &outcome.artifact)
        };
        write_or_exit(path, doc);
        println!("wrote {kind} artifact to {path}");
    }
    if let Some(path) = &trace_file {
        write_or_exit(path, outcome.telemetry.chrome_trace());
        println!(
            "wrote span trace to {path} (open in chrome://tracing or ui.perfetto.dev; \
             one lane per tenant, one per worker)"
        );
    }
    if let Some(path) = &timeseries_file {
        write_or_exit(path, &outcome.telemetry.series.csv);
        println!(
            "wrote telemetry time series to {path} ({} cycles per window)",
            outcome.telemetry.series.window_cycles
        );
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("profile") => profile_main(&raw[1..]),
        Some("analyze") => analyze_main(&raw[1..]),
        Some("scale") => scale_main(&raw[1..]),
        Some("diff") => diff_main(&raw[1..]),
        Some("serve") => serve_main(&raw[1..]),
        _ => {}
    }
    let usage =
        usage("[SELECTOR] [--in-order] [--json PATH] [--trace PATH]", "selectors", &SELECTORS);
    let mut args = Args::new(&raw, &usage);
    args.list(&SELECTORS);
    let in_order = args.flag("--in-order");
    let json_file = args.value("--json");
    let trace_file = args.value("--trace");
    let which = args.finish(1).pop().unwrap_or_else(|| "all".to_string());
    let which = which.as_str();
    if !SELECTORS.contains(&which) {
        usage_exit(&format!("unknown selector `{which}`"), &usage);
    }
    let cfg = MachineConfig::prescott();
    let copts = CompilerOptions::paper();
    let all = which == "all";
    // (figure id, comparison rows) pairs accumulated for --json.
    let mut json_figures: Vec<(String, Vec<Comparison>)> = Vec::new();
    // `tuned` rows, if that selector ran (not part of `all`).
    let mut tuned_rows: Vec<gpstream_tune::TuneOutcome> = Vec::new();

    if all || which == "fig5" {
        println!("== Figure 5: gather/scatter bandwidth vs record size (GB/s) ==");
        println!(
            "record bytes:                              4       8      16      32      64     128"
        );
        for s in fig::figure5(&cfg) {
            print!("{:<40}", s.name);
            for p in &s.points {
                print!(" {:7.3}", p.gbps);
            }
            println!();
        }
        println!();
    }
    if all || which == "fig6" {
        println!(
            "== Figure 6: computation/memory overlap (normalized, serial in ST mode = 100) =="
        );
        for b in fig::figure6(&cfg) {
            println!("{:<32} {:6.1}", b.name, b.normalized_time);
        }
        println!();
    }
    if all || which == "fig8" {
        println!("== Figure 8: busy-waiting impact (normalized, task alone = 100) ==");
        for b in fig::figure8(&cfg) {
            println!("{:<32} {:6.1}", b.name, b.normalized_time);
        }
        println!();
    }
    if all || which == "latencies" {
        println!("== Section III-B: work-queue dispatch latencies ==");
        for (name, cycles) in fig::dispatch_latencies(&cfg) {
            println!("{name:<24} {cycles:>6} cycles");
        }
        println!();
    }
    // The summary folds the Figure 9 and 11 rows computed here (Figure
    // 11's out of order even under `--in-order`), so none runs twice.
    let summarize = all || which == "summary";
    let fig9 =
        if all || which == "fig9" || summarize { fig::figure9(&cfg, &copts) } else { Vec::new() };
    if all || which == "fig9" {
        println!("== Figure 9: micro-benchmark speedups vs COMP (COMP=1 ~ 50 cycles) ==");
        for s in &fig9 {
            print!("{:<16}", s.name);
            for (c, v) in &s.points {
                print!("  COMP={c}: {v:.2}x");
            }
            println!();
        }
        println!();
    }
    let mode = if in_order { " [in-order queues]" } else { "" };
    let mut fig11: Vec<Comparison> = Vec::new();
    for (id, title, f) in [
        (
            "fig11a",
            "Figure 11(a): streamFEM (4816 cells)",
            fig::figure11a as fn(&MachineConfig, &CompilerOptions, bool) -> Vec<Comparison>,
        ),
        ("fig11b", "Figure 11(b): streamCDP", fig::figure11b),
        ("fig11c", "Figure 11(c): neo-hookean", fig::figure11c),
        ("fig11d", "Figure 11(d): streamSPAS (nnz/row ~ 46)", fig::figure11d),
    ] {
        let rows = (all || which == id).then(|| f(&cfg, &copts, in_order));
        if summarize {
            match &rows {
                Some(rows) if !in_order => fig11.extend(rows.iter().cloned()),
                _ => fig11.extend(f(&cfg, &copts, false)),
            }
        }
        if let Some(rows) = rows {
            print_comparisons(&format!("{title}{mode}"), &rows);
            json_figures.push((id.to_string(), rows));
        }
    }
    if all || which == "ooo" {
        let rows = fig::ooo_ablation(&cfg, &copts);
        print_comparisons(
            "Figure 7 ablation: in-order vs out-of-order (tail_depend) queue issue",
            &rows,
        );
        json_figures.push(("ooo".to_string(), rows));
    }
    if all || which == "single" {
        println!("== Section III-B-2: single-context mapping overhead (single / dual cycles) ==");
        for (name, ratio) in fig::single_vs_dual_context(&cfg, &copts) {
            println!("{name:<16} {ratio:5.2}x slower on one context");
        }
        println!();
    }
    if all || which == "enhanced" {
        println!("== Section V-A/VI: proposed architectural enhancements ==");
        for (name, base, enh) in fig::enhanced_machine(&copts) {
            println!(
                "{name:<18} prescott {base:>10} cyc -> enhanced {enh:>10} cyc ({:.2}x)",
                base as f64 / enh as f64
            );
        }
        println!();
    }
    if which == "tuned" {
        println!(
            "== Tuned vs default heuristics (autotuner, budget {} per workload) ==",
            fig::TUNED_BUDGET
        );
        println!(
            "{:<16} {:>14} {:>14} {:>8}  winning knobs",
            "workload", "default (cyc)", "tuned (cyc)", "speedup"
        );
        tuned_rows = fig::tuned(
            fig::TUNED_BUDGET,
            gpstream_util::fanout::threads(),
            &gpstream_tune::EvalCache::disabled(),
        );
        for o in &tuned_rows {
            println!(
                "{:<16} {:>14} {:>14} {:>7.3}x  {}",
                o.workload,
                o.baseline_cycles,
                o.best_cycles,
                o.speedup(),
                o.best.describe()
            );
        }
        println!();
    }
    if summarize {
        let s = fig::summary(&fig9, &fig11);
        println!("== Headline summary (paper Section I) ==");
        println!("micro-benchmarks: best {:.2}x, worst {:.2}x", s.micro_best, s.micro_worst);
        println!("scientific apps:  best {:.2}x, worst {:.2}x", s.sci_best, s.sci_worst);
    }

    // Trace before JSON: the JSON document surfaces the dropped-event
    // count from the traced runs at its top level.
    let trace_dropped = trace_file.as_ref().map_or(0, |path| write_trace(path, &cfg, &copts));
    if let Some(path) = &json_file {
        let mut pairs = vec![(
            "figures".to_string(),
            Json::arr(json_figures.iter().map(|(id, rows)| {
                Json::obj([
                    ("figure", Json::Str(id.clone())),
                    ("rows", Json::arr(rows.iter().map(comparison_json))),
                ])
            })),
        )];
        if !tuned_rows.is_empty() {
            pairs.push(("tuned".to_string(), Json::arr(tuned_rows.iter().map(tuned_json))));
        }
        pairs.push(("trace_dropped".to_string(), Json::U64(trace_dropped)));
        let doc = Json::Obj(pairs);
        write_or_exit(path, doc.to_string());
        println!("wrote figure JSON to {path}");
    }
}
