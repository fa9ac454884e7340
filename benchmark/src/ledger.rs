//! `benchmark all`: every workload in its own child process, untraced
//! then traced, collected into one ledger file `compare` can judge.

use crate::harness;
use crate::spec;
use crate::stats;
use crate::Args;
use gpstream_util::Json;
use std::process::{Command, ExitCode};

/// Every value one (workload, metric) pair took, one per run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub values: Vec<f64>,
}

/// The failed share is not one of the driver's metrics (it rides in the
/// result line's `failed` and `attempted`); the ledger keeps it as a row.
pub const FAILED_SHARE: &str = "failed_share";

/// Run one child and parse the result line it prints last.
fn child(workload: &str, traced: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", if traced { "1" } else { "0" }]);
    for flag in ["seed", "seconds"] {
        if let Some(v) = args.get(flag) {
            cmd.args([format!("--{flag}"), v.to_string()]);
        }
    }
    if args.get("smoke").is_some() {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload} exited with {}:\n{stdout}{stderr}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last)
        .map_err(|e| format!("{workload}: the last line is not a result ({e}): {last}"))
}

/// Fold one result line into `rows`.
fn record(rows: &mut Vec<Row>, workload: &str, result: &Json) -> Result<(), String> {
    let mut add = |metric: &str, unit: &str, value: f64| match rows
        .iter_mut()
        .find(|r| r.workload == workload && r.metric == metric)
    {
        Some(row) => row.values.push(value),
        None => rows.push(Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            values: vec![value],
        }),
    };
    let bad = || format!("{workload}: malformed result line");
    let count = |key: &str| result.get(key).and_then(Json::as_u64).ok_or_else(bad);
    add(FAILED_SHARE, "share", count("failed")? as f64 / count("attempted")? as f64);
    for (name, m) in result.get("metrics").and_then(Json::as_obj).ok_or_else(bad)? {
        let value = m.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
        add(name, m.get("unit").and_then(Json::as_str).ok_or_else(bad)?, value);
    }
    Ok(())
}

#[must_use]
pub fn to_json(rows: &[Row]) -> Json {
    Json::obj([(
        "rows",
        Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("workload", Json::from(r.workload.as_str())),
                ("metric", Json::from(r.metric.as_str())),
                ("unit", Json::from(r.unit.as_str())),
                ("values", Json::arr(r.values.iter().map(|&v| Json::F64(v)))),
            ])
        })),
    )])
}

/// Parse a ledger file's text.
pub fn from_json(text: &str) -> Result<Vec<Row>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("no `rows` array")?;
    rows.iter()
        .map(|r| {
            let text = |key: &str| r.get(key).and_then(Json::as_str).map(str::to_string);
            let values = r.get("values").and_then(Json::as_arr)?;
            Some(Row {
                workload: text("workload")?,
                metric: text("metric")?,
                unit: text("unit")?,
                values: values.iter().map(Json::as_f64).collect::<Option<_>>()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "a row lacks workload, metric, unit or values".to_string())
}

/// `benchmark all`: `--runs` untraced runs and one traced run of every
/// workload; the ledger goes to `--out` (default `benchmark/out/ledger.json`).
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    args.only(&["seed", "seconds", "runs", "smoke", "out"])?;
    args.params()?;
    let runs: usize = match args.get("runs").map_or(Ok(1), str::parse) {
        Ok(r) if (1..=100).contains(&r) => r,
        _ => return Err("--runs: expected a whole number from 1 to 100".to_string()),
    };
    let path = args.get("out").map_or_else(|| harness::out_dir().join("ledger.json"), Into::into);
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        for run in 0..runs {
            eprintln!("{}: untraced run {} of {runs}", w.name, run + 1);
            record(&mut rows, w.name, &child(w.name, false, args)?)?;
        }
        eprintln!("{}: traced run", w.name);
        record(&mut rows, w.name, &child(w.name, true, args)?)?;
    }
    println!(
        "{:<16} {:<44} {:>16} {:>14} {:>14} {:>3}  unit",
        "workload", "metric", "median", "min", "max", "N"
    );
    for r in &rows {
        let s = stats::summarize(&r.values);
        println!(
            "{:<16} {:<44} {:>16.6} {:>14.6} {:>14.6} {:>3}  {}",
            r.workload, r.metric, s.median, s.min, s.max, s.n, r.unit
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, to_json(&rows).to_doc_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("ledger written to {}", path.display());
    let failed = rows.iter().any(|r| r.metric == FAILED_SHARE && r.values.iter().any(|&v| v > 0.0));
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
