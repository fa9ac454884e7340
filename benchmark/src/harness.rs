//! The measuring loop shared by every workload: repeated set-up, one
//! warm-up pass, timed passes, checks, and the two kinds of run
//! (untraced for end-to-end metrics, traced for per-layer metrics).

use crate::probes;
use crate::spans::{self, Recorder};
use crate::spec;
use crate::stats;
use crate::workloads;
use gpstream_util::Json;
use std::time::Instant;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Feeds only the input generators.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// One pass, members cut to ldstcomp/gatscat, small serve runs.
    pub smoke: bool,
}

/// Threads given to the tuner's fan-out and to the serve replay pool.
/// One, not `min(2, nproc)`: with two busy threads on a two-core shared
/// host, a neighbour taking one core for a few minutes slowed
/// `tune-explain` by 45 % while single-threaded workloads held. The only
/// program that must bring its own threads is `native-exec`.
pub const PROGRAM_THREADS: usize = 1;

/// Output checks: the denominators and numerators of the failed share.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one pass did.
pub struct PassOut {
    /// Deterministic work count (cycles, evaluations, tasks, jobs,
    /// figure points): the numerator of `work_per_s`.
    pub work: u64,
    /// Host seconds the work count is divided by, when that is only a
    /// part of the pass (`tune-explain` divides evaluations by the time
    /// of the `tune` calls); `None` means the whole pass.
    pub work_secs: Option<f64>,
    /// Every simulated result of the pass, as bits. Passes of one run
    /// must agree exactly.
    pub sim: Vec<u64>,
}

/// One of the eight workloads, set up and ready to run passes.
pub trait Workload {
    /// Run one pass, wrapping each call into a layer in a span.
    fn pass(&mut self, rec: &Recorder, checks: &mut Checks) -> PassOut;
    /// One-off output checks that are no part of set-up or of a pass.
    fn verify(&mut self, _checks: &mut Checks) {}
    /// Simulated results worth printing beside the host times.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    /// One line: name, value, unit, and the deterministic work count (or
    /// other context) the value stands beside.
    pub fn print(&self, beside: &str) {
        println!("{:<44} {:>18.6} {:<6} ({beside})", self.name, self.value, self.unit);
    }
}

/// Everything a run reports.
pub struct RunOutput {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

/// Set-up is repeated (and its median reported) until this many seconds
/// are spent or [`SETUP_REPEATS`] is reached.
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_REPEATS: usize = 5;

/// Timed passes never number fewer than this (except `--smoke`).
const MIN_PASSES: usize = 3;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Set up and run the untimed warm-up pass, timing both together:
/// `setup_s` is the host time before the first timed pass.
fn set_up(name: &str, p: &Params, checks: &mut Checks) -> (Box<dyn Workload>, PassOut, f64) {
    let off = Recorder::new(false);
    let t0 = Instant::now();
    let mut wl = workloads::set_up(name, p, &off);
    let warm = wl.pass(&off, checks);
    (wl, warm, t0.elapsed().as_secs_f64())
}

struct Timed {
    wall_s: Vec<f64>,
    work_s: Vec<f64>,
    work: u64,
}

impl Timed {
    fn new() -> Self {
        Self { wall_s: Vec::new(), work_s: Vec::new(), work: 0 }
    }

    /// Time one pass and hold it to the warm-up pass's simulated results.
    fn pass(&mut self, wl: &mut dyn Workload, rec: &Recorder, checks: &mut Checks, warm: &PassOut) {
        let t0 = Instant::now();
        let out = wl.pass(rec, checks);
        let dt = t0.elapsed().as_secs_f64();
        checks.check(out.sim == warm.sim && out.work == warm.work, || {
            "a pass disagrees with the warm-up pass on simulated results".to_string()
        });
        self.wall_s.push(dt);
        self.work_s.push(out.work_secs.unwrap_or(dt));
        self.work = out.work;
    }
}

/// The untraced run: every end-to-end metric, tracing off.
pub fn run_untraced(name: &str, p: &Params) -> RunOutput {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let t0 = Instant::now();
    let (mut wl, warm) = loop {
        let (wl, warm, secs) = set_up(name, p, &mut checks);
        setups.push(secs);
        let done = p.smoke
            || setups.len() == SETUP_REPEATS
            || t0.elapsed().as_secs_f64() + secs > SETUP_BUDGET_S;
        if done {
            break (wl, warm);
        }
    };
    wl.verify(&mut checks);

    let off = Recorder::new(false);
    let mut timed = Timed::new();
    let (min_passes, seconds) = if p.smoke { (1, 0.0) } else { (MIN_PASSES, p.seconds) };
    let t0 = Instant::now();
    while timed.wall_s.len() < min_passes || t0.elapsed().as_secs_f64() < seconds {
        timed.pass(wl.as_mut(), &off, &mut checks, &warm);
    }

    println!("{}", stats::describe("wall_s", "s", &timed.wall_s));
    println!("{}", stats::describe("setup_s", "s", &setups));
    for note in wl.notes() {
        println!("{note}");
    }
    let work_s = stats::median(&timed.work_s);
    let work = format!("{} {} per pass", timed.work, spec::work_unit(name));
    let metric = |name: &str, unit, value, beside: &str| {
        let m = Metric { name: name.into(), unit, value };
        m.print(beside);
        m
    };
    let metrics = vec![
        metric("wall_s", "s", stats::median(&timed.wall_s), &work),
        metric("work_per_s", "1/s", timed.work as f64 / work_s, &work),
        metric("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM of this process"),
        metric("setup_s", "s", stats::median(&setups), "inputs, oracles, compiles, warm-up pass"),
    ];
    RunOutput { checks, metrics }
}

/// The traced run: the workload's passes alternate untraced and traced
/// (their median difference is the tracing overhead), then the layer
/// probes run under the same recorder. Every per-layer metric comes
/// from here; spans are written out when the run ends.
pub fn run_traced(name: &str, p: &Params) -> RunOutput {
    let mut checks = Checks::default();
    let (mut wl, warm, _) = set_up(name, p, &mut checks);
    let (off, rec) = (Recorder::new(false), Recorder::new(true));
    let (mut plain, mut traced) = (Timed::new(), Timed::new());
    let pairs = if p.smoke { 1 } else { MIN_PASSES };
    for pass in 0..pairs {
        plain.pass(wl.as_mut(), &off, &mut checks, &warm);
        rec.set_pass(pass as u32);
        rec.span("bench", name, || traced.pass(wl.as_mut(), &rec, &mut checks, &warm));
    }
    drop(wl);
    let (plain_s, traced_s) = (stats::median(&plain.wall_s), stats::median(&traced.wall_s));
    println!("{}", stats::describe("wall_s untraced", "s", &plain.wall_s));
    println!("{}", stats::describe("wall_s traced", "s", &traced.wall_s));
    let overhead = Metric {
        name: "bench.trace_overhead_pct".into(),
        unit: "%",
        value: 100.0 * (traced_s - plain_s) / plain_s,
    };
    overhead.print(&format!("{name}: {} spans per traced pass", rec.span_count() / pairs));
    let mut metrics = vec![overhead];

    rec.set_pass(pairs as u32);
    metrics.extend(probes::run_all(p, &rec, &mut checks));

    let mut wanted: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
    let mut got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    wanted.sort_unstable();
    got.sort_unstable();
    if p.smoke {
        checks.check(got.iter().all(|g| wanted.iter().any(|w| w == g)), || {
            "a probe reported a metric BENCHMARK.json does not name".to_string()
        });
    } else {
        checks.check(got == wanted, || {
            "the traced run's metrics differ from the per-layer list".to_string()
        });
    }

    let spans = rec.into_spans();
    println!("self time by layer (workload passes and probes):");
    for (layer, ns) in spans::self_ns_by_layer(&spans) {
        println!("  {layer:<12} {:>12.3} ms", ns as f64 / 1e6);
    }
    let dir = out_dir();
    let path = dir.join(format!("trace-{name}-{:#x}.json", p.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(&spans).to_doc_string()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("{} spans written to {}", spans.len(), path.display());
    RunOutput { checks, metrics }
}

/// `benchmark/out/`, the only place the benchmark writes (git-ignored).
#[must_use]
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_json(out: &RunOutput) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::U64(out.checks.attempted)),
        ("failed", Json::U64(out.checks.failed)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|m| {
                let value =
                    Json::obj([("value", Json::F64(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.clone(), value)
            })),
        ),
    ])
}
