//! The one argv grammar every binary in the workspace speaks: `--flag`,
//! `--flag VALUE` (parsed and range-checked in the same call), bare
//! positionals, `--list`. Anything else is a usage error — message,
//! usage text, exit 2 — never a panic. Flags are claimed by name; the
//! first problem met is reported by [`Args::finish`].

use std::path::Path;
use std::str::FromStr;

/// Print `msg` and the usage text to stderr and exit 2.
pub fn usage_exit(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2);
}

/// Write `bytes` to `path`, creating its parent directory if needed;
/// on failure print `cannot write PATH: reason` and exit 1.
pub fn write_or_exit(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) {
    let path = path.as_ref();
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let made = parent.map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = made.and_then(|()| std::fs::write(path, bytes)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The arguments not yet claimed by a flag, and the first error met.
pub struct Args {
    rest: Vec<String>,
    usage: String,
    err: Option<String>,
}

impl Args {
    /// A reader over `argv` (program and subcommand names stripped)
    /// that reports problems together with `usage`.
    #[must_use]
    pub fn new(argv: &[String], usage: &str) -> Self {
        Self { rest: argv.to_vec(), usage: usage.to_string(), err: None }
    }

    /// Claim every occurrence of the bare flag `name`.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// `--list`: print `names` one a line and exit 0.
    pub fn list(&mut self, names: &[&str]) {
        if self.flag("--list") {
            names.iter().for_each(|n| println!("{n}"));
            std::process::exit(0);
        }
    }

    /// Claim `name VALUE` (the last occurrence wins). A value never
    /// starts with `--`, so a flag cannot be swallowed as one.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let mut got = None;
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(i);
            if self.rest.get(i).is_some_and(|v| !v.starts_with("--")) {
                got = Some(self.rest.remove(i));
            } else {
                self.err.get_or_insert(format!("{name} needs a value"));
            }
        }
        got
    }

    /// Claim `name VALUE` where the value must parse as a `T` that
    /// `ok` accepts; `want` names that set in the error message.
    pub fn parsed<T: FromStr>(
        &mut self,
        name: &str,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let text = self.value(name)?;
        let value = text.parse().ok().filter(ok);
        if value.is_none() {
            self.err.get_or_insert(format!("{name} needs {want}, got `{text}`"));
        }
        value
    }

    /// [`Args::parsed`] for a number with no further constraint.
    pub fn number<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.parsed(name, "a number", |_| true)
    }

    /// Claim `name [VALUE]`: the value is taken only if it parses as a
    /// `T` (and must then pass `ok`); a bare flag yields `bare`.
    pub fn optional<T: FromStr>(
        &mut self,
        name: &str,
        want: &str,
        ok: impl Fn(&T) -> bool,
        bare: T,
    ) -> Option<T> {
        let i = self.rest.iter().position(|a| a == name)?;
        if self.rest.get(i + 1).is_some_and(|v| v.parse::<T>().is_ok()) {
            return self.parsed(name, want, ok);
        }
        self.rest.remove(i);
        Some(bare)
    }

    /// The positionals, once every flag has been claimed.
    ///
    /// # Errors
    ///
    /// The first recorded problem, a leftover `-…` token, or more than
    /// `max` positionals, as the message to show.
    pub fn check(self, max: usize) -> Result<Vec<String>, String> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if let Some(bad) = self.rest.iter().find(|a| a.starts_with('-')) {
            return Err(format!("unknown argument `{bad}`"));
        }
        match self.rest.get(max) {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(self.rest),
        }
    }

    /// [`Args::check`], exiting 2 with the message and usage on error.
    pub fn finish(self, max: usize) -> Vec<String> {
        let usage = self.usage.clone();
        self.check(max).unwrap_or_else(|e| usage_exit(&e, &usage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new(&argv.iter().map(ToString::to_string).collect::<Vec<_>>(), "usage: t")
    }

    #[test]
    fn flags_values_and_one_positional() {
        let mut a = args(&["--fast", "wl", "--out", "f", "--n", "7", "--native", "--reps", "3"]);
        assert!(a.flag("--fast") && !a.flag("--fast"));
        assert!(!a.flag("--list") && args(&["x", "--list"]).flag("--list"));
        assert_eq!(a.value("--out").as_deref(), Some("f"));
        assert_eq!(a.parsed("--n", "1..=9", |n: &u32| (1..=9).contains(n)), Some(7));
        assert_eq!(a.optional("--native", "a count", |&n: &usize| n > 0, 5), Some(5));
        assert_eq!(a.optional("--reps", "a count", |&n: &usize| n > 0, 5), Some(3));
        assert_eq!(a.number::<u64>("--absent"), None);
        assert_eq!(a.check(1), Ok(vec!["wl".to_string()]));
    }

    #[test]
    fn every_malformed_argv_is_an_error_message() {
        let err = |argv: &[&str], read: fn(&mut Args)| {
            let mut a = args(argv);
            read(&mut a);
            a.check(1).expect_err("must be refused")
        };
        let n = |a: &mut Args| {
            assert_eq!(a.parsed("--n", "1..=64", |n: &usize| (1..=64).contains(n)), None);
        };
        assert_eq!(err(&["--n"], n), "--n needs a value");
        assert_eq!(err(&["--n", "--other"], n), "--n needs a value");
        assert_eq!(err(&["--n", "seven"], n), "--n needs 1..=64, got `seven`");
        assert_eq!(err(&["--n", "300"], n), "--n needs 1..=64, got `300`");
        assert_eq!(err(&["--n", "-1"], n), "--n needs 1..=64, got `-1`");
        assert_eq!(err(&["a", "b"], |_| ()), "unexpected argument `b`");
        assert_eq!(err(&["a", "--bogus"], |_| ()), "unknown argument `--bogus`");
        let native = |a: &mut Args| {
            assert_eq!(a.optional("--native", "a count", |&n: &usize| n > 0, 5), None);
        };
        assert_eq!(err(&["--native", "0"], native), "--native needs a count, got `0`");
        // The first problem wins, in the order the flags are read.
        assert_eq!(err(&["--bogus", "--n"], n), "--n needs a value");
    }
}
