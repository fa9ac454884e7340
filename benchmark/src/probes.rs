//! Per-layer probes: each layer's public functions timed in isolation,
//! bottom-up, so every higher number is explained by the lower ones
//! (bare queue ns/op, then executor overhead per task, then the
//! application). Every probe runs under the traced run's recorder — the
//! metric is the median duration of its spans over a deterministic work
//! count printed beside it.

use crate::harness::{Checks, Metric, Params, PROGRAM_THREADS};
use crate::members;
use crate::spans::Recorder;
use crate::spec;
use crate::stats;
use crate::workloads::{figs, native, serve, sim, tune};
use gpstream_analyze::{critical_path, whatif, RunModel};
use gpstream_bench::profiling::profile_workload;
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::task::TaskId;
use gpstream_core::workqueue::DependencyWindow;
use gpstream_core::{TunedConfig, WorkerPool, World};
use gpstream_machine::{MachineConfig, WaitPolicy};
use gpstream_microbench::{kernels, spinwait};
use gpstream_profile::artifact::Artifact;
use gpstream_profile::topdown;
use gpstream_serve::sched::NoopObserver;
use gpstream_serve::{
    artifact_json, schedule_service, schedule_stream, Arrivals, LoadConfig, SchedConfig,
    ServeConfig, VariantTable,
};
use gpstream_telemetry::{SloTarget, SloTracker, StreamingTelemetry, Telemetry};
use gpstream_tune::EvalCache;
use gpstream_util::{Histogram, Json, Rng64, Sketch};
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions of a probe that takes milliseconds or more.
const REPS: usize = 3;
/// Repetitions of a probe that takes microseconds.
const FAST_REPS: usize = 15;
/// Operations per repetition of a nanosecond-scale probe.
const OPS: u64 = 1_000_000;

struct Probes<'a> {
    p: &'a Params,
    rec: &'a Recorder,
    checks: &'a mut Checks,
    out: Vec<Metric>,
}

impl Probes<'_> {
    /// Run `f` `reps` times, each inside a span `name` of `layer`.
    /// Returns the median seconds and the last result.
    fn time<R>(
        &self,
        layer: &'static str,
        name: &str,
        reps: usize,
        mut f: impl FnMut() -> R,
    ) -> (f64, R) {
        let mut last = None;
        for _ in 0..reps.max(1) {
            last = Some(self.rec.span(layer, name, &mut f));
        }
        (stats::median(&self.rec.durations_ns(name)) / 1e9, last.expect("at least one repetition"))
    }

    /// Report `value`, with the deterministic work count of one
    /// repetition beside it.
    fn push(&mut self, name: &str, unit: &'static str, value: f64, work: u64, of: &str) {
        let metric = Metric { name: name.to_string(), unit, value };
        metric.print(&format!("{work} {of}"));
        self.out.push(metric);
    }

    fn reps(&self, reps: usize) -> usize {
        if self.p.smoke {
            1
        } else {
            reps
        }
    }

    fn ops(&self) -> u64 {
        if self.p.smoke {
            OPS / 50
        } else {
            OPS
        }
    }
}

/// Run every probe.
pub fn run_all(p: &Params, rec: &Recorder, checks: &mut Checks) -> Vec<Metric> {
    let mut pr = Probes { p, rec, checks, out: Vec::new() };
    machine(&mut pr);
    apps_and_compiler(&mut pr);
    core_members(&mut pr);
    core_primitives(&mut pr);
    explain_members(&mut pr);
    tuner_cache(&mut pr);
    profile_pieces(&mut pr);
    serving(&mut pr);
    telemetry(&mut pr);
    util(&mut pr);
    figures(&mut pr);
    pr.out
}

/// `machine`: host speed of the engine per member, event and stepped.
/// ns per L1 access is the number to compare across members (stall
/// cycles are skipped for free, so cycles/s flatters stall-bound runs).
fn machine(pr: &mut Probes) {
    for name in spec::members(&spec::sim_members(), pr.p.smoke) {
        let m = sim::Member::set_up(name, pr.p.seed, pr.rec);
        let (secs, r) = pr.time("machine", &format!("event:{name}"), pr.reps(REPS), || {
            m.exec.resume_from(&m.snap).timing
        });
        let (cycles, accesses) = (r.cycles, r.mem.l1_accesses);
        let per_s = cycles as f64 / secs;
        pr.push(
            &format!("machine.event.cyc_per_s.{name}"),
            "1/s",
            per_s,
            cycles,
            "simulated cycles",
        );
        let per_access = secs * 1e9 / accesses as f64;
        pr.push(
            &format!("machine.event.ns_per_access.{name}"),
            "ns",
            per_access,
            accesses,
            "L1 accesses",
        );
        if spec::STEPPED.contains(&name) {
            let exec = sim::executor(m.wl.warmup, false);
            let mut world = m.wl.world.clone();
            let snap = exec.snapshot(&m.compiled.schedule, &m.compiled.graph, &mut world);
            let (secs, s) = pr.time("machine", &format!("stepped:{name}"), pr.reps(2), || {
                exec.resume_from(&snap).timing
            });
            pr.checks.check(s == r, || format!("{name}: stepped probe != event probe"));
            let per_s = cycles as f64 / secs;
            pr.push(
                &format!("machine.stepped.cyc_per_s.{name}"),
                "1/s",
                per_s,
                cycles,
                "simulated cycles",
            );
        }
    }
}

/// `apps` generators and `compiler` passes over the catalog.
fn apps_and_compiler(pr: &mut Probes) {
    let copts = CompilerOptions::paper();
    for name in spec::members(&spec::CATALOG, pr.p.smoke) {
        let (secs, g) = pr.time("apps", &format!("generate:{name}"), pr.reps(REPS), || {
            members::generate(name, pr.p.seed)
        });
        pr.push(
            &format!("apps.build_ms.{name}"),
            "ms",
            secs * 1e3,
            world_bytes(&g.world),
            "array bytes",
        );
        let (secs, c) = pr.time("compiler", &format!("compile:{name}"), pr.reps(FAST_REPS), || {
            compile(&g.graph, &copts).expect("catalog member compiles")
        });
        let tasks = c.schedule.tasks.len() as u64;
        pr.push(&format!("compiler.compile_us.{name}"), "us", secs * 1e6, tasks, "scheduled tasks");
    }
}

fn world_bytes(world: &World) -> u64 {
    world.iter().map(|a| a.data.as_bytes().len() as u64).sum()
}

/// `core` per member: the snapshot prefix, the functional executor,
/// World clones, and the native executor against the functional one.
fn core_members(pr: &mut Probes) {
    let copts = CompilerOptions::paper();
    for name in spec::members(&spec::CORE_MEMBERS, pr.p.smoke) {
        let m = native::Member::set_up(name, pr.p.seed, pr.rec);
        let (schedule, graph) = (&m.compiled.schedule, &m.compiled.graph);
        let tasks = schedule.tasks.len() as u64;
        let exec = sim::executor(m.wl.warmup, true);
        let (secs, _) = pr.time("core", &format!("snapshot:{name}"), pr.reps(REPS), || {
            exec.snapshot(schedule, graph, &mut m.wl.world.clone())
        });
        pr.push(
            &format!("core.sim.snapshot_ms.{name}"),
            "ms",
            secs * 1e3,
            tasks,
            "scheduled tasks",
        );
        let (func_s, _) = pr.time("core", &format!("functional:{name}"), pr.reps(5), || {
            let mut world = m.wl.world.clone();
            FunctionalExecutor::with_srf(copts.srf).run(schedule, graph, &mut world)
        });
        pr.push(
            &format!("core.functional.us_per_run.{name}"),
            "us",
            func_s * 1e6,
            tasks,
            "scheduled tasks",
        );
        let (clone_s, _) =
            pr.time("core", &format!("world_clone:{name}"), pr.reps(FAST_REPS), || {
                m.wl.world.clone()
            });
        pr.push(
            &format!("core.world_clone_us.{name}"),
            "us",
            clone_s * 1e6,
            world_bytes(&m.wl.world),
            "array bytes",
        );
        if !spec::NATIVE_MEMBERS.contains(&name) {
            continue;
        }
        let per_task = |secs: f64| secs * 1e6 / tasks as f64;
        let mut native_s = 0.0;
        for (policy_name, policy) in native::POLICIES {
            for _ in 0..pr.reps(10) {
                let ok = m.run(policy_name, policy, pr.rec);
                pr.checks.check(ok, || format!("{name} ({policy_name}): wrong output"));
            }
            let spans = pr.rec.durations_ns(&format!("native.{policy_name}:{name}"));
            native_s = stats::median(&spans) / 1e9;
            pr.push(
                &format!("core.native.{policy_name}.us_per_task.{name}"),
                "us",
                per_task(native_s),
                tasks,
                "tasks",
            );
        }
        // Against Park, the last policy run and the executor's default.
        // The functional span includes its World clone; the native spans
        // do not.
        let overhead = per_task(native_s - (func_s - clone_s));
        pr.push(
            &format!("core.native.overhead_us_per_task.{name}"),
            "us",
            overhead,
            tasks,
            "tasks",
        );
    }
}

/// One tuner evaluation replayed through `tune::eval::evaluate`'s public
/// steps, then `profile` and the analyzer's stages, per member.
fn explain_members(pr: &mut Probes) {
    let (mcfg, copts) = (MachineConfig::prescott(), CompilerOptions::paper());
    let point = TunedConfig::default_heuristic(&mcfg);
    for name in spec::members(&spec::EXPLAIN_MEMBERS, pr.p.smoke) {
        let wl = members::workload(name, pr.p.seed);
        let rec = pr.rec;
        let mut oracle_ok = true;
        let (secs, cycles) = pr.time("tune", &format!("evaluate:{name}"), pr.reps(REPS), || {
            let copts = copts.apply_tuned(&point);
            let compiled = rec.span("compiler", "evaluate.compile", || {
                compile(&wl.graph, &copts).expect("the default point compiles")
            });
            let exec = SimExecutor::new()
                .with_machine(mcfg.clone())
                .with_srf(copts.srf)
                .with_warmup(wl.warmup)
                .with_tuned(&point)
                .fast_sim(true);
            let mut world = wl.world.clone();
            let snap = rec.span("core", "evaluate.snapshot", || {
                exec.snapshot(&compiled.schedule, &compiled.graph, &mut world)
            });
            oracle_ok &= rec.span("tune", "evaluate.matches_oracle", || wl.matches_oracle(&world));
            rec.span("machine", "evaluate.resume_from", || exec.resume_from(&snap)).timing.cycles
        });
        pr.checks.check(oracle_ok, || format!("{name}: the default point misses the oracle"));
        pr.push(&format!("tune.evaluate_ms.{name}"), "ms", secs * 1e3, cycles, "simulated cycles");

        let (secs, prof) =
            pr.time("profile", &format!("profile_workload:{name}"), pr.reps(2), || {
                profile_workload(name, None, false, true).expect("a catalog workload")
            });
        let bytes = prof.json.len() as u64;
        pr.push(
            &format!("profile.profile_workload_ms.{name}"),
            "ms",
            secs * 1e3,
            bytes,
            "profile.json bytes",
        );

        let compiled = compile(&wl.graph, &copts).expect("catalog member compiles");
        let report = SimExecutor::new()
            .with_machine(mcfg.clone())
            .with_srf(copts.srf)
            .with_warmup(wl.warmup)
            .with_profile(true)
            .with_task_log(true)
            .fast_sim(true)
            .run(&compiled.schedule, &compiled.graph, &mut wl.world.clone());
        let (secs, model) = pr.time("analyze", &format!("model_build:{name}"), pr.reps(5), || {
            RunModel::build(&compiled.schedule, &compiled.graph, &report, &mcfg, WaitPolicy::Mwait)
        });
        let tasks = model.tasks.len() as u64;
        pr.push(&format!("analyze.model_build_ms.{name}"), "ms", secs * 1e3, tasks, "model tasks");
        let (secs, path) =
            pr.time("analyze", &format!("replay:{name}"), pr.reps(FAST_REPS), || {
                critical_path(&model, &model.identity_replay())
            });
        let segments = path.segments.len() as u64;
        pr.push(
            &format!("analyze.replay_us.{name}"),
            "us",
            secs * 1e6,
            segments,
            "critical-path segments",
        );
        let (secs, table) =
            pr.time("analyze", &format!("whatif:{name}"), pr.reps(REPS), || whatif::table(&model));
        pr.push(
            &format!("analyze.whatif_ms.{name}"),
            "ms",
            secs * 1e3,
            table.len() as u64,
            "what-if rows",
        );
    }
}

/// `core` primitives: the dependency window and the worker pool.
/// `SpscRing` is private to `gpstream-core`, so the bare ring cannot be
/// timed from outside; the pool's submit→drain of no-op jobs is the
/// thinnest public wrapper around it.
fn core_primitives(pr: &mut Probes) {
    let ops = pr.ops();
    let mut window = DependencyWindow::new();
    let (secs, _) = pr.time("core", "window.admit_complete", pr.reps(5), || {
        for i in 0..ops as u32 {
            black_box(window.admit(TaskId(i)).expect("the window has room"));
            black_box(window.complete(TaskId(i)));
        }
    });
    pr.push(
        "core.window.admit_complete_ns",
        "ns",
        secs * 1e9 / ops as f64,
        ops,
        "admit+complete pairs",
    );

    let jobs = ops / 10;
    let (secs, executed) = pr.time("core", "pool.submit_drain", pr.reps(REPS), || {
        let mut pool = WorkerPool::new(PROGRAM_THREADS, 256, |_, job: u64| {
            black_box(job);
        });
        for i in 0..jobs {
            let mut job = i;
            while let Err((_, back)) = pool.submit(0, job) {
                job = back;
                std::thread::yield_now();
            }
        }
        pool.drain().executed.iter().sum::<u64>()
    });
    pr.checks.check(executed == jobs, || format!("the pool ran {executed} of {jobs} jobs"));
    pr.push("core.pool.job_ns", "ns", secs * 1e9 / jobs as f64, jobs, "no-op jobs");
}

/// `tune`: a cold search filling an on-disk cache, then the same search
/// answered from it.
fn tuner_cache(pr: &mut Probes) {
    let dir = crate::harness::out_dir().join(format!("tune-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wl = members::workload("gatscat", pr.p.seed);
    let tuner = tune::tuner(pr.p, EvalCache::at(&dir));
    let (cold_s, cold) = pr.time("tune", "tune.cold:gatscat", 1, || tuner.tune(&wl));
    let (warm_s, warm) = pr.time("tune", "tune.warm:gatscat", pr.reps(REPS), || tuner.tune(&wl));
    let _ = std::fs::remove_dir_all(&dir);
    pr.checks.check(warm.sim_runs == 0 && warm.best == cold.best, || {
        "the warm search re-simulated or picked another winner".to_string()
    });
    let evals = cold.evaluations as u64;
    pr.push("tune.cold.evals_per_s", "1/s", evals as f64 / cold_s, evals, "evaluations");
    pr.push("tune.warm.evals_per_s", "1/s", warm.evaluations as f64 / warm_s, evals, "evaluations");
    pr.push("tune.sim_runs", "count", cold.sim_runs as f64, evals, "evaluations, cold");
    pr.push("tune.cache_hits", "count", warm.cache_hits as f64, evals, "evaluations, warm");
}

/// `profile`: the top-down tree and the artifact parser.
fn profile_pieces(pr: &mut Probes) {
    let copts = CompilerOptions::paper();
    let wl = members::workload("gatscat", pr.p.seed);
    let compiled = compile(&wl.graph, &copts).expect("gatscat compiles");
    let report = SimExecutor::new()
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .with_profile(true)
        .fast_sim(true)
        .run(&compiled.schedule, &compiled.graph, &mut wl.world.clone());
    let prof = report.profile.expect("profiling was on");
    let (secs, tree) = pr.time("profile", "topdown:gatscat", pr.reps(5), || {
        topdown::topdown(
            "gatscat",
            &compiled.schedule,
            &compiled.graph,
            &prof,
            &report.timing.ctx_cycles,
            &report.timing.phases,
        )
    });
    pr.push(
        "profile.topdown_ms",
        "ms",
        secs * 1e3,
        topdown::collapsed(&tree).lines().count() as u64,
        "stacks",
    );

    let path = format!("{}/../profiles/baselines/gatscat.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (secs, parsed) =
        pr.time("profile", "artifact_parse", pr.reps(FAST_REPS), || Artifact::parse(&text));
    pr.checks.check(parsed.is_ok(), || format!("{path} does not parse as an artifact"));
    pr.push("profile.artifact_parse_us", "us", secs * 1e6, text.len() as u64, "bytes");
}

/// Offered jobs of each serving probe.
const SERVE_JOBS: usize = 300_000;
const REPLAY_JOBS: usize = 5_000;

/// The scheduler configuration `schedule_service` derives from `cfg`.
fn sched_config(cfg: &ServeConfig, table: &VariantTable) -> SchedConfig {
    SchedConfig {
        workers: cfg.workers,
        bounded: cfg.bounded,
        queue_cap: cfg.effective_queue_cap(),
        batch_max: cfg.batch_max,
        dispatch_cycles: spinwait::dispatch_latency(WaitPolicy::Mwait, &table.machine),
        retry_after: cfg.effective_retry_after(),
        max_retries: cfg.max_retries,
        weights: cfg.effective_weights(),
        check_invariants: false,
    }
}

fn arrivals(cfg: &ServeConfig, table: &VariantTable) -> Arrivals {
    Arrivals::new(&LoadConfig {
        jobs: cfg.jobs,
        mean_interarrival: cfg.mean_interarrival_cycles(),
        tenants: cfg.tenants,
        arrival_shares: cfg.effective_arrival_shares(),
        variants: table.variants.len(),
        seed: cfg.seed,
    })
}

/// `serve`: arrivals alone, the scheduler with no observer, the full
/// service (their difference is the observers' share), the replay.
fn serving(pr: &mut Probes) {
    let (secs, table) =
        pr.time("serve", "build_table:mix", pr.reps(2), || serve::mix_table(&Recorder::new(false)));
    let variants = table.variants.len() as u64;
    pr.push("serve.build_table_ms", "ms", secs * 1e3, variants, "variants priced");
    let jobs = if pr.p.smoke { SERVE_JOBS / 60 } else { SERVE_JOBS };

    let loads = [("0.8x", 0.8), ("2x", 2.0)];
    let cfgs: Vec<ServeConfig> =
        loads.iter().map(|&(_, load)| serve::config(jobs, load, true, pr.p, &table)).collect();
    let (secs, drawn) =
        pr.time("serve", "arrivals.drain", pr.reps(REPS), || arrivals(&cfgs[0], &table).count());
    pr.push(
        "serve.arrivals.draw_ns",
        "ns",
        secs * 1e9 / drawn as f64,
        drawn as u64,
        "arrivals drawn",
    );

    let mut full_runs = Vec::new();
    for ((tag, _), cfg) in loads.iter().zip(&cfgs) {
        let sched = sched_config(cfg, &table);
        let (noop_s, bare) =
            pr.time("serve", &format!("schedule_stream.noop:{tag}"), pr.reps(REPS), || {
                schedule_stream(
                    arrivals(cfg, &table),
                    &table.service_cycles(),
                    &sched,
                    &mut NoopObserver,
                )
            });
        let (full_s, run) =
            pr.time("serve", &format!("schedule_service:{tag}"), pr.reps(REPS), || {
                schedule_service(cfg, &table)
            });
        serve::check_stats(&run.stats, jobs, pr.checks);
        pr.checks.check(bare == run.stats, || format!("{tag}: observers changed the schedule"));
        let per_s = jobs as f64 / noop_s;
        pr.push(
            &format!("serve.sched.noop.jobs_per_s.{tag}"),
            "1/s",
            per_s,
            jobs as u64,
            "offered jobs",
        );
        let share = 1.0 - noop_s / full_s;
        pr.push(
            &format!("serve.observer_share.{tag}"),
            "share",
            share,
            jobs as u64,
            "offered jobs",
        );
        let p99 = serve::sim_p99_us(cfg, &run.summary);
        pr.push(
            &format!("serve.sim_p99_us.{tag}"),
            "us",
            p99,
            run.stats.completed,
            "completed jobs",
        );
        full_runs.push(run.stats);
    }
    let (steady, over) = (&full_runs[0], &full_runs[1]);
    let offered = jobs as u64;
    pr.push("serve.batches.0.8x", "count", steady.batches as f64, offered, "offered jobs");
    pr.push("serve.max_pending.0.8x", "count", steady.max_pending as f64, offered, "offered jobs");
    pr.push("serve.reject_events.2x", "count", over.reject_events as f64, offered, "offered jobs");
    pr.push("serve.retries.2x", "count", over.retries as f64, offered, "offered jobs");
    let rejected_share = over.rejected as f64 / over.offered as f64;
    pr.push("serve.rejected_share.2x", "share", rejected_share, offered, "offered jobs");

    let table = Arc::new(table);
    let exact_cfg =
        serve::config(if pr.p.smoke { 1_000 } else { REPLAY_JOBS }, 0.8, false, pr.p, &table);
    let exact = schedule_service(&exact_cfg, &table);
    let (secs, summary) = pr.time("serve", "exec.execute", pr.reps(2), || {
        gpstream_serve::exec::execute(&table, &exact.records, PROGRAM_THREADS)
    });
    pr.checks
        .check(summary.executed == exact.stats.completed, || "the replay dropped jobs".to_string());
    pr.push(
        "serve.exec.replay_us_per_job",
        "us",
        secs * 1e6 / summary.executed as f64,
        summary.executed,
        "jobs replayed",
    );
    let (secs, doc) = pr.time("serve", "artifact_json", pr.reps(5), || {
        artifact_json(&exact_cfg, &exact.stats, &exact.summary, exact.telemetry.spans_dropped)
            .to_doc_string()
    });
    pr.push("serve.artifact_json_ms", "ms", secs * 1e3, doc.len() as u64, "bytes");
}

/// Cycles per telemetry window in the probes below: 1000 observations.
const WINDOW_CYCLES: u64 = 100_000;
const CYCLES_PER_OBSERVATION: u64 = 100;

fn registry() -> (Telemetry, gpstream_telemetry::CounterId, gpstream_telemetry::HistId) {
    let mut tel = Telemetry::new(WINDOW_CYCLES);
    let counter = tel.counter("completions");
    let hist = tel.hist_sketch("total_cycles", gpstream_util::sketch::DEFAULT_GAMMA);
    (tel, counter, hist)
}

/// `n` latency-like values drawn from the run's seed.
fn latencies(seed: u64, n: u64) -> Vec<u64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| rng.range_u64(1_000, 5_000_000)).collect()
}

/// Stream `values` into a fresh registry, one per 100 cycles, with the
/// watermark either following the clock (windows flush as they close)
/// or never advanced (nothing flushes).
fn ingest(values: &[u64], follow_clock: bool) -> StreamingTelemetry {
    let (tel, counter, hist) = registry();
    let mut stream = StreamingTelemetry::new(tel);
    for (i, &v) in values.iter().enumerate() {
        let cycle = i as u64 * CYCLES_PER_OBSERVATION;
        if follow_clock {
            stream.advance(cycle);
        }
        stream.add(counter, cycle, 1);
        stream.observe(hist, cycle, v);
    }
    stream
}

/// `telemetry`: the streaming registry's ingest and window flush, the
/// materialized series, the SLO tracker.
fn telemetry(pr: &mut Probes) {
    let ops = pr.ops();
    let values = latencies(pr.p.seed, ops);
    let (observe_s, _) =
        pr.time("telemetry", "stream.observe", pr.reps(REPS), || ingest(&values, false));
    pr.push(
        "telemetry.stream.observe_ns",
        "ns",
        observe_s * 1e9 / ops as f64,
        ops,
        "add+observe pairs",
    );
    // What flushing costs is the extra time of the same ingest with it.
    let (flush_s, windows) =
        pr.time("telemetry", "stream.observe_and_flush", pr.reps(REPS), || {
            ingest(&values, true).windows_flushed()
        });
    let per_window = (flush_s - observe_s) * 1e6 / windows as f64;
    pr.push("telemetry.stream.flush_us_per_window", "us", per_window, windows, "windows flushed");
    pr.push("telemetry.windows_flushed", "count", windows as f64, ops, "add+observe pairs");

    let (mut tel, counter, _) = registry();
    let hist = tel.hist("queue_cycles");
    for (i, &v) in values.iter().enumerate().take(ops as usize / 10) {
        tel.add(counter, i as u64 * CYCLES_PER_OBSERVATION, 1);
        tel.observe(hist, i as u64 * CYCLES_PER_OBSERVATION, v % 4096);
    }
    let (secs, series) = pr.time("telemetry", "registry.series", pr.reps(REPS), || tel.series());
    pr.push(
        "telemetry.registry.series_ms",
        "ms",
        secs * 1e3,
        series.windows.len() as u64,
        "windows materialized",
    );

    let (secs, _) = pr.time("telemetry", "slo.record", pr.reps(REPS), || {
        let mut slo = SloTracker::new(WINDOW_CYCLES);
        let tenants: Vec<usize> = (0..4)
            .map(|t| slo.tenant(&format!("tenant{t}"), SloTarget::new(2_500_000, 0.99)))
            .collect();
        for (i, &v) in values.iter().enumerate() {
            slo.record(tenants[i % 4], i as u64 * CYCLES_PER_OBSERVATION, v);
        }
        slo
    });
    pr.push("telemetry.slo.record_ns", "ns", secs * 1e9 / ops as f64, ops, "records");
}

/// `util`: sketches, the exact histogram, the JSON writer, the RNG.
fn util(pr: &mut Probes) {
    let ops = pr.ops();
    let values = latencies(pr.p.seed, ops);
    let (secs, sketch) = pr.time("util", "sketch.record", pr.reps(5), || {
        let mut s = Sketch::new(gpstream_util::sketch::DEFAULT_GAMMA);
        values.iter().for_each(|&v| s.record(v));
        s
    });
    pr.checks.check(sketch.is_promoted(), || "the sketch stayed on its exact path".to_string());
    pr.push("util.sketch.record_ns", "ns", secs * 1e9 / ops as f64, ops, "records");
    let merges = 1_000;
    let (secs, _) = pr.time("util", "sketch.merge", pr.reps(5), || {
        let mut into = sketch.clone();
        (0..merges).for_each(|_| into.merge(black_box(&sketch)));
        into
    });
    pr.push(
        "util.sketch.merge_ns",
        "ns",
        secs * 1e9 / f64::from(merges),
        merges as u64,
        "merges of promoted sketches",
    );
    let (secs, _) = pr.time("util", "sketch.quantile", pr.reps(5), || {
        (0..merges).fold(None, |_, i| sketch.quantile(black_box(0.5 + f64::from(i) / 2_048.0)))
    });
    pr.push(
        "util.sketch.quantile_us",
        "us",
        secs * 1e6 / f64::from(merges),
        merges as u64,
        "quantile queries",
    );
    // Exact histograms keep one bucket per distinct value; serve-exact's
    // latencies repeat heavily, so draw from 4096 distinct values.
    let (secs, _) = pr.time("util", "hist.record", pr.reps(5), || {
        let mut h = Histogram::new();
        values.iter().for_each(|&v| h.record(v % 4096));
        h
    });
    pr.push("util.hist.record_ns", "ns", secs * 1e9 / ops as f64, ops, "records");

    let rows = (ops / 20) as usize;
    let doc = Json::arr(values.iter().take(rows).enumerate().map(|(i, &v)| {
        Json::obj([
            ("name", Json::from(format!("span-{i}"))),
            ("ts", Json::F64(v as f64 / 1e3)),
            ("dur", Json::U64(v)),
            ("ok", Json::Bool(i % 2 == 0)),
        ])
    }));
    let (secs, text) = pr.time("util", "json.write", pr.reps(5), || doc.to_doc_string());
    pr.push(
        "util.json.write_mb_per_s",
        "MB/s",
        text.len() as f64 / 1e6 / secs,
        text.len() as u64,
        "bytes",
    );

    let draws = ops * 10;
    let (secs, _) = pr.time("util", "rng.next", pr.reps(5), || {
        let mut rng = Rng64::seed_from_u64(pr.p.seed);
        (0..draws).fold(0u64, |acc, _| acc ^ rng.next_u64())
    });
    pr.push("util.rng.next_ns", "ns", secs * 1e9 / draws as f64, draws, "draws");
}

/// `microbench` and `bench`: the paper-figure functions one by one, and
/// the paper error they yield.
fn figures(pr: &mut Probes) {
    let (cfg, copts) = (MachineConfig::prescott(), CompilerOptions::paper());
    let mut n = figs::FigureNumbers::default();
    let rec = pr.rec;
    if !pr.p.smoke {
        let (secs, s) = pr.time("microbench", "figure5", 1, || gpstream_bench::figure5(&cfg));
        pr.push(
            "microbench.fig5_ms",
            "ms",
            secs * 1e3,
            s.iter().map(|s| s.points.len() as u64).sum(),
            "points",
        );
        let (secs, bars) = pr.time("microbench", "figure6", 1, || gpstream_bench::figure6(&cfg));
        pr.push("microbench.fig6_ms", "ms", secs * 1e3, bars.len() as u64, "bars");
    }
    let (secs, bars) = pr.time("microbench", "figure8", 1, || gpstream_bench::figure8(&cfg));
    pr.push("microbench.fig8_ms", "ms", secs * 1e3, bars.len() as u64, "bars");
    figs::dispatch(&cfg, &mut n);
    if !pr.p.smoke {
        // Figure 9 as `gpstream_bench::figure9` builds it, one series at
        // a time so the microbench layer shows under the bench span.
        let (fig9_s, best) = pr.time("bench", "figure9", 1, || {
            ["LD-ST-COMP", "GAT-SCAT-COMP", "PROD-CON"]
                .into_iter()
                .flat_map(|name| {
                    rec.span("microbench", "figure9_series", || {
                        kernels::figure9_series(
                            name,
                            &kernels::FIG9_COMPS,
                            kernels::FIG9_N,
                            &copts,
                            &cfg,
                        )
                    })
                })
                .map(|(_, speedup)| speedup)
                .fold(f64::MIN, f64::max)
        });
        n.measured.insert("fig9.best".into(), best);
        let points = kernels::FIG9_COMPS.len() as u64;
        let series_s = stats::median(&rec.durations_ns("figure9_series")) / 1e9;
        pr.push("microbench.fig9_series_ms", "ms", series_s * 1e3, points, "COMP points");
        pr.push("bench.fig9_ms", "ms", fig9_s * 1e3, 3 * points, "COMP points");
        let (secs, ()) = pr.time("bench", "figure11a", 1, || figs::fig11a(&cfg, &copts, &mut n));
        pr.push("bench.fig11a_ms", "ms", secs * 1e3, 4, "configurations");
        let (secs, ()) = pr.time("bench", "figure11b", 1, || figs::fig11b(&cfg, &copts, &mut n));
        pr.push("bench.fig11b_ms", "ms", secs * 1e3, 4, "configurations");
        let (secs, ()) = pr.time("bench", "figure11c", 1, || figs::fig11c(&cfg, &copts, &mut n));
        pr.push("bench.fig11c_ms", "ms", secs * 1e3, 3, "element counts");
    }
    let points = figs::paper_points(figs::PAPER_POINTS_JSON);
    let (err, count) =
        figs::paper_error_pct(&points, &n.measured).expect("dispatch is always measured");
    pr.push("bench.paper_err_mean_pct", "%", err, count as u64, "paper points");
}
