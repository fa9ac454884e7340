//! The `figures` command-line contract: exit codes and the one line a
//! user reads, driven through the real binary from one table per
//! concern. 0 is success, 1 a failed check or an I/O error, 2 a usage
//! error (message + usage line) — never a panic (101) or an abort.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// `(argv, exit code, substring of stdout+stderr)`.
type Row = (&'static [&'static str], i32, &'static str);

const BASELINE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles/baselines/ldstcomp.json");
const SLO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles/serve/slo-mix.json");
const NOT_AN_ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");

fn figures(argv: &[&str]) -> (i32, String, Duration) {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_figures")).args(argv).output().expect("spawn");
    let text = [out.stdout, out.stderr].concat();
    let code = out.status.code().unwrap_or(-1); // killed by a signal (abort)
    (code, String::from_utf8_lossy(&text).into_owned(), started.elapsed())
}

fn check(rows: &[Row]) {
    for &(argv, want, needle) in rows {
        let (code, text, took) = figures(argv);
        let cmd = argv.join(" ");
        assert_eq!(code, want, "`figures {cmd}` exited {code}, want {want}:\n{text}");
        assert!(text.contains(needle), "`figures {cmd}` never said {needle:?}:\n{text}");
        assert!(!text.contains("panicked"), "`figures {cmd}` panicked:\n{text}");
        // Refusals come before any simulation; the bound is loose only
        // because this runs an unoptimized binary on a loaded machine.
        assert!(took < Duration::from_secs(60), "`figures {cmd}` took {took:?}");
    }
}

/// What the verify recipe and CI rely on.
#[test]
fn documented_behaviours_hold() {
    check(&[
        (&["nosuch"], 2, "fig11a"),
        (&["--list"], 0, "fig11a"),
        (&["serve", "--list"], 0, "mix"),
        (&["profile", "--list"], 0, "spas-32000"),
        (&["profile", "nope"], 2, "unknown workload `nope`"),
        (&["analyze", "nope"], 2, "unknown workload `nope`"),
        (&["scale", "nope"], 2, "unknown workload `nope`"),
        (&["serve", "nope", "--jobs", "10"], 2, "unknown workload `nope`"),
        (&["profile"], 2, "usage: figures profile WORKLOAD"),
        (&["diff", BASELINE], 2, "usage: figures diff A.json B.json"),
        (&["diff", NOT_AN_ARTIFACT, NOT_AN_ARTIFACT], 1, "cannot parse"),
        (&["diff", "/no/such/a.json", BASELINE], 1, "cannot read /no/such/a.json"),
        (&["diff", BASELINE, SLO, "--strict"], 1, "artifact kinds differ (baseline vs slo)"),
        (&["diff", BASELINE, SLO], 0, "artifact kinds differ (baseline vs slo)"),
        // Retired with the benchmark of record: no such subcommands or flag.
        (&["simspeed"], 2, "unknown selector `simspeed`"),
        (&["servespeed", "--check"], 2, "unknown argument `--check`"),
        (&["profile", "ldstcomp", "--fast-sim"], 2, "unknown argument `--fast-sim`"),
        (&["serve", "--jobs", "200001"], 2, "--sketch"),
        (&["serve", "--bogus"], 2, "unknown argument `--bogus`"),
    ]);
}

/// Argv that used to end in a panic, an abort or a minutes-long hang.
#[test]
fn hostile_argv_is_a_usage_error() {
    check(&[
        (&["--json"], 2, "--json needs a value"),
        (&["fig11b", "--trace"], 2, "--trace needs a value"),
        (&["serve", "--tenants", "300"], 2, "trace lanes"),
        (&["serve", "--workers", "300"], 2, "trace lanes"),
        (&["serve", "--ctx", "300"], 2, "--ctx"),
        (&["serve", "--rate", "nan"], 2, "--rate"),
        (&["serve", "--rate", "inf"], 2, "--rate"),
        (&["serve", "ldstcomp", "--jobs", "100", "--rate", "1e-30"], 2, "cycle clock"),
        (&["serve", "--jobs", "100", "--window", "1"], 2, "--window"),
        (&["serve", "--sketch", "--sketch-gamma", "0.9"], 2, "--sketch-gamma"),
        (&["serve", "--sketch", "--sketch-gamma", "1e-12"], 2, "--sketch-gamma"),
        (&["serve", "--slo-latency", "5,6", "--tenants", "3"], 2, "--slo-latency"),
        // A zero threshold used to reach `SloTarget::new` when the CLI
        // stopped filtering; `validate` refuses it.
        (&["serve", "--slo-latency", "0"], 2, "--slo-latency"),
        (&["serve", "--slo-latency", "x"], 2, "--slo-latency needs cycle counts"),
        (&["profile", "ldstcomp", "--interval", "0"], 2, "--interval needs"),
        (&["profile", "ldstcomp", "--native", "0"], 2, "--native needs"),
        (&["scale", "ldstcomp", "--max", "300"], 2, "--max needs"),
        // Baselines are out-of-order runs: an in-order run used to fail
        // the check (exit 1) or silently overwrite the baseline.
        (
            &["profile", "gatscat", "--in-order", "--check"],
            2,
            "--in-order cannot be combined with --check",
        ),
        (
            &["profile", "gatscat", "--in-order", "--update-baseline"],
            2,
            "--in-order cannot be combined with --update-baseline",
        ),
        // The ablation writes only its latency artifacts; these outputs
        // used to be skipped without a word (exit 0).
        (&["serve", "--ablation", "--slo"], 2, "--ablation cannot be combined with --slo"),
        (
            &["serve", "--ablation", "--trace", "t.json"],
            2,
            "--ablation cannot be combined with --trace",
        ),
        (
            &["serve", "--ablation", "--timeseries", "s.csv"],
            2,
            "--ablation cannot be combined with --timeseries",
        ),
        // No process can create a file under /proc/nope.
        (&["profile", "ldstcomp", "--out", "/proc/nope/x"], 1, "cannot write /proc/nope/x"),
        (&["analyze", "ldstcomp", "--out", "/proc/nope/x"], 1, "cannot write /proc/nope/x"),
        (&["serve", "--jobs", "100", "--out", "/proc/nope/x"], 1, "cannot write /proc/nope/x"),
    ]);
}

/// 50 000 open brackets used to overflow the parser's stack (SIGABRT).
#[test]
fn deeply_nested_artifact_is_a_parse_error() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-deep.json");
    std::fs::write(&path, "[".repeat(50_000)).expect("temp file");
    let (code, text, _) = figures(&["diff", BASELINE, path.to_str().expect("utf-8 temp path")]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("cannot parse") && text.contains("nested"), "{text}");
}

#[test]
fn serve_artifact_is_byte_identical_across_runs() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let paths = [dir.join("cli-serve-a.json"), dir.join("cli-serve-b.json")];
    for p in &paths {
        let path = p.to_str().expect("utf-8 temp path");
        let (code, text, _) = figures(&["serve", "ldstcomp", "--jobs", "300", "--out", path]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("wrote latency artifact"), "{text}");
    }
    let [a, b] = paths.map(|p| std::fs::read(p).expect("artifact written"));
    assert!(!a.is_empty() && a == b, "same config must write the same bytes");
}

/// The `host:` line explains the run's speed on stderr and nowhere else:
/// stdout and every written artifact are the same bytes with `--quiet`.
#[test]
fn serve_host_line_is_stderr_only_and_quiet_silences_it() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let files = ["cli-host.json", "cli-host-trace.json", "cli-host.csv"].map(|f| dir.join(f));
    let [out, trace, csv] = files.each_ref().map(|p| p.to_str().expect("utf-8 temp path"));
    let run = |quiet: &[&str]| {
        let argv = ["serve", "ldstcomp", "--jobs", "300", "--sketch"];
        let outputs = ["--out", out, "--trace", trace, "--timeseries", csv];
        let ran = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(argv)
            .args(outputs)
            .args(quiet)
            .output()
            .expect("spawn");
        assert!(ran.status.success(), "{}", String::from_utf8_lossy(&ran.stderr));
        let written = files.each_ref().map(|p| std::fs::read(p).expect("artifact written"));
        (ran.stdout, written, String::from_utf8_lossy(&ran.stderr).into_owned())
    };
    let (stdout, written, stderr) = run(&[]);
    let (quiet_stdout, quiet_written, quiet_stderr) = run(&["--quiet"]);
    assert!(stderr.contains("host: 300 jobs in ") && stderr.contains(" windows flushed, 0 span"));
    assert!(stderr.contains(" dropped, peak ") && stderr.contains(" completions buffered, peak "));
    assert!(stderr.contains(" retries waiting\n"), "{stderr}");
    assert!(!quiet_stderr.contains("host:"), "{quiet_stderr}");
    assert!(stdout == quiet_stdout && written == quiet_written, "--quiet moved output bytes");
    assert!(written.iter().all(|w| !String::from_utf8_lossy(w).contains("host:")));
}

/// Past capacity the `host:` line counts the refused offers waiting
/// out their retry-after (at most one per offered job).
#[test]
fn serve_host_line_reports_waiting_retries_under_overload() {
    let ran = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["serve", "mix", "--jobs", "20000", "--rate", "37000", "--sketch"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&ran.stderr);
    assert!(ran.status.success(), "{stderr}");
    let peak = stderr
        .split_once(" completions buffered, peak ")
        .and_then(|(_, rest)| rest.split_once(" retries waiting\n"))
        .and_then(|(n, _)| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no retries count in {stderr}"));
    assert!((1..=20_000).contains(&peak), "peak {peak} retries waiting");
}

/// `profile` accounts for the engine's routes on stderr and nowhere
/// else: stdout carries the reports only.
#[test]
fn profile_engine_line_is_stderr_only() {
    let ran = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["profile", "ldstcomp"])
        .output()
        .expect("spawn");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&ran.stdout), String::from_utf8_lossy(&ran.stderr));
    assert!(ran.status.success(), "{stderr}");
    assert!(stderr.contains("engine: copy ") && stderr.contains("exact by reason:"), "{stderr}");
    assert!(stdout.contains("ldstcomp") && !stdout.contains("engine:"), "{stdout}");
}

/// The figures of record, byte for byte: stdout of `figures all`. It is
/// the only stepped ≡ event oracle for the Figure 5/6/8 machine probes,
/// the regular-code lowering and the `enhanced` machine, whose golden
/// was written by the cycle-stepped engine. The headline summary, which
/// folds the Figure 9 and 11 rows `figures` computed, must print the
/// golden's last section on its own and under `all --in-order` (whose
/// summary still folds out-of-order rows). Ignored because a debug run
/// takes a few minutes; CI runs it in release. Refresh after a
/// deliberate model change with
/// `UPDATE_GOLDEN=1 cargo test --release -p gpstream-bench --test cli -- --ignored figures_all`.
#[test]
#[ignore = "minutes unoptimized; run with --release -- --ignored (CI does)"]
fn figures_all_matches_golden() {
    let stdout = |argv: &[&str]| {
        let ran = Command::new(env!("CARGO_BIN_EXE_figures")).args(argv).output().expect("spawn");
        assert!(ran.status.success(), "{}", String::from_utf8_lossy(&ran.stderr));
        String::from_utf8(ran.stdout).expect("utf-8 stdout")
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures-all.txt");
    let current = stdout(&["all"]);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &current).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden snapshot present");
    let first = want.lines().zip(current.lines()).position(|(w, c)| w != c).map(|i| i + 1);
    assert!(
        want == current,
        "`figures all` left the golden (first differing line {first:?}):\n{current}"
    );
    let summary = &want[want.rfind("== Headline summary").expect("golden ends in the summary")..];
    assert_eq!(stdout(&["summary"]), summary, "`figures summary`");
    let in_order = stdout(&["all", "--in-order"]);
    assert!(in_order.ends_with(summary), "`figures all --in-order` summary:\n{in_order}");
}
