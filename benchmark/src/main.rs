//! The benchmark of record for gpstream.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! benchmark all [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//! benchmark compare A.json B.json
//! benchmark spec
//! ```
//!
//! The first form is the driver's contract: one workload, one process,
//! and as the last line of standard output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `all` runs every workload that way in child processes and writes a
//! ledger; `compare` judges two ledgers; `spec` prints `BENCHMARK.json`.

mod compare;
mod harness;
mod ledger;
mod members;
mod probes;
mod spans;
mod spec;
mod stats;
mod workloads;

use harness::Params;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       benchmark all [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
       benchmark compare A.json B.json
       benchmark spec
seeds: default 0x6a792005 (the catalog seed); 0x5eed0002 is the held-out seed";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.push(("smoke".to_string(), "1".to_string())),
                Some(flag) => {
                    let value = raw.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    flags.push((flag.to_string(), value));
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !allowed.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }

    /// Decimal or `0x` hexadecimal (underscores allowed).
    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.get("seed") else { return Ok(members::CATALOG_SEED) };
        let clean = text.replace('_', "");
        let parsed = match clean.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => clean.parse(),
        };
        parsed.map_err(|_| format!("--seed {text}: not a whole number"))
    }

    fn seconds(&self) -> Result<f64, String> {
        let text = self.get("seconds").map_or(spec::RUN_SECONDS.to_string(), str::to_string);
        match text.parse::<f64>() {
            Ok(s) if s > 0.0 && s <= 60.0 => Ok(s),
            _ => Err(format!("--seconds {text}: expected a number in (0, 60]")),
        }
    }

    fn params(&self) -> Result<Params, String> {
        Ok(Params {
            seed: self.seed()?,
            seconds: self.seconds()?,
            smoke: self.get("smoke").is_some(),
        })
    }
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|w| w.name == name) {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload `{name}`; one of {}", known.join(", ")));
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let p = args.params()?;
    println!(
        "{name}: seed {:#x}, {} s of passes, {} core(s) available, closed loop, {}",
        p.seed,
        p.seconds,
        std::thread::available_parallelism().map_or(1, usize::from),
        if traced { "traced" } else { "untraced" },
    );
    let out = if traced { harness::run_traced(name, &p) } else { harness::run_untraced(name, &p) };
    for failure in &out.checks.failures {
        println!("FAILED CHECK: {failure}");
    }
    println!("failed_share = {} of {} checks", out.checks.failed, out.checks.attempted);
    println!("{}", harness::result_json(&out));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.words.first().map(String::as_str) {
        None if args.get("workload").is_some() => run_one(&args),
        Some("all") => ledger::run_all(&args),
        Some("compare") => compare::run(&args.words[1..]),
        Some("spec") => spec::print(),
        _ => Err("nothing to do".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` on every workload, untraced and traced: one pass, cut
    /// members, small serve runs — and still every check.
    #[test]
    fn smoke_runs_every_workload_and_fails_no_check() {
        let p = Params { seed: 0x5eed_0002, seconds: 1.0, smoke: true };
        for w in &spec::WORKLOADS {
            let untraced = harness::run_untraced(w.name, &p);
            assert_eq!(untraced.checks.failures, Vec::<String>::new(), "{} untraced", w.name);
            assert!(untraced.checks.attempted > 0, "{}: no check ran", w.name);
            let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
            let wanted: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, wanted, "{}: end-to-end metrics", w.name);
            assert!(untraced.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));

            let traced = harness::run_traced(w.name, &p);
            assert_eq!(traced.checks.failures, Vec::<String>::new(), "{} traced", w.name);
            let line = harness::result_json(&traced).to_string();
            let parsed = gpstream_util::Json::parse(&line).expect("the result line parses");
            let pairs = parsed.as_obj().expect("the result line is an object");
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        let args =
            |s: &str| Args::parse(["--seed".to_string(), s.to_string()].into_iter()).unwrap();
        assert_eq!(args("0x5eed_0002").seed(), Ok(0x5eed_0002));
        assert_eq!(args("17").seed(), Ok(17));
        assert!(args("seventeen").seed().is_err());
        assert_eq!(Args::parse(std::iter::empty()).unwrap().seed(), Ok(members::CATALOG_SEED));
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
    }
}
