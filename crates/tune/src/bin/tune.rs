//! `tune` — run the autotuner on one workload from the catalog.
//!
//! ```text
//! tune --workload NAME [--budget N] [--seed N] [--threads N]
//!      [--cache-dir DIR] [--out FILE]
//! tune --list
//! ```
//!
//! `--list` prints the workload catalog. `--cache-dir` enables the
//! on-disk evaluation cache (re-running with an unchanged workload then
//! performs zero new simulator runs). `--out` writes the winning
//! `TunedConfig` artifact as JSON.

use gpstream_tune::{artifact, workloads, EvalCache, Tuner};
use gpstream_util::args::{usage_exit, write_or_exit, Args};
use gpstream_util::fanout;
use std::path::PathBuf;

fn main() {
    let usage = format!(
        "usage: tune --workload NAME [--budget N] [--seed N] [--threads N] [--cache-dir DIR] \
         [--out FILE] | tune --list\nworkloads: {}",
        workloads::CATALOG.join(" ")
    );
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args::new(&argv, &usage);
    args.list(&workloads::CATALOG);
    let workload = args.value("--workload");
    let budget = args.parsed("--budget", "a positive evaluation count", |&n| n > 0).unwrap_or(64);
    let seed = args.number("--seed").unwrap_or(workloads::SEED);
    let threads = args.number("--threads").unwrap_or_else(fanout::threads);
    let cache_dir = args.value("--cache-dir").map(PathBuf::from);
    let out_file = args.value("--out").map(PathBuf::from);
    args.finish(0);
    let Some(name) = workload else { usage_exit("missing --workload (or --list)", &usage) };
    let Some(wl) = workloads::named(&name) else {
        usage_exit(&format!("unknown workload `{name}`"), &usage)
    };

    let cache = cache_dir.as_ref().map_or_else(EvalCache::disabled, EvalCache::at);
    let tuner = Tuner { budget, seed, threads, cache, ..Tuner::default() };
    let out = tuner.tune(&wl);

    println!(
        "== tuned `{}` (strategy {}, budget {}, seed {:#x}) ==",
        out.workload, out.strategy, out.budget, out.seed
    );
    println!("baseline {:>12} cyc  {}", out.baseline_cycles, out.baseline.describe());
    println!("best     {:>12} cyc  {}", out.best_cycles, out.best.describe());
    println!(
        "speedup {:.3}x  evaluations {} (sim {}, cached {}, rejected {})",
        out.speedup(),
        out.evaluations,
        out.sim_runs,
        out.cache_hits,
        out.rejected
    );

    if let Some(path) = &out_file {
        write_or_exit(path, artifact::artifact_string(&out));
        println!("wrote TunedConfig artifact to {}", path.display());
    }
}
