//! The `tune` command-line contract, from one table: 0 success, 2 a
//! usage error with a message and the usage text — never a panic.

use std::process::Command;

#[test]
fn usage_errors_exit_two_with_a_reason() {
    let rows: [(&[&str], i32, &str); 8] = [
        (&["--list"], 0, "spas-32000"),
        (&[], 2, "missing --workload"),
        (&["--workload", "nope"], 2, "unknown workload `nope`"),
        (&["--workload"], 2, "--workload needs a value"),
        (&["--workload", "gatscat", "--budget", "lots"], 2, "--budget needs a positive"),
        (
            &["--workload", "gatscat", "--budget", "0"],
            2,
            "--budget needs a positive evaluation count",
        ),
        (&["--workload", "gatscat", "--bogus"], 2, "unknown argument `--bogus`"),
        (&["gatscat"], 2, "unexpected argument `gatscat`"),
    ];
    for (argv, want, needle) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_tune")).args(argv).output().expect("spawn");
        let text = String::from_utf8_lossy(&[out.stdout, out.stderr].concat()).into_owned();
        assert_eq!(out.status.code(), Some(want), "`tune {}`:\n{text}", argv.join(" "));
        assert!(text.contains(needle), "`tune {}` never said {needle:?}:\n{text}", argv.join(" "));
        assert_eq!(want == 2, text.contains("usage: tune --workload NAME"), "{text}");
    }
}
