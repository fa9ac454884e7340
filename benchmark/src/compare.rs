//! `benchmark compare A.json B.json`: judge ledger B against ledger A,
//! one row per (metric, workload).

use crate::ledger::{self, Row, FAILED_SHARE};
use crate::spec::{self, Better};
use crate::stats;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is within the bound of A's, either way.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs spread wider than the bound and the two ranges overlap:
    /// the ledgers cannot tell.
    Unresolved,
    /// A simulated result or count that must agree exactly, and does.
    Same,
    /// A simulated result or count that must agree exactly, and does not.
    Differs,
    /// A per-layer timing: it has no bound, the delta is for reading.
    Unbounded,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Unbounded => "-",
        }
    }
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    Bounded { better: Better, bound: f64 },
    Exact,
    Unbounded,
}

/// The rule for `metric`, from the benchmark's own spec.
#[must_use]
pub fn rule(metric: &str) -> Rule {
    if metric == FAILED_SHARE {
        return Rule::Bounded { better: Better::Lower, bound: 0.0 };
    }
    if let Some(m) = spec::END_TO_END.iter().find(|m| m.name == metric) {
        return Rule::Bounded { better: m.better, bound: m.bound };
    }
    match spec::per_layer().iter().find(|m| m.name == metric) {
        Some(m) if m.exact => Rule::Exact,
        _ => Rule::Unbounded,
    }
}

/// Run-to-run spread as a share of the median: the quartile distance
/// with four or more runs, the full range with two or three, and
/// nothing to go on with one.
fn spread(values: &[f64]) -> f64 {
    let s = stats::summarize(values);
    match s.n {
        0 | 1 => 0.0,
        2 | 3 => (s.max - s.min) / s.median.abs(),
        _ => stats::quartile_spread(values).abs(),
    }
}

/// Judge B's runs against A's.
#[must_use]
pub fn judge(rule: Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    match rule {
        Rule::Unbounded => Verdict::Unbounded,
        // Every run of both ledgers read the same value.
        Rule::Exact if sa.min == sa.max && sb.min == sb.max && sa.min == sb.min => Verdict::Same,
        Rule::Exact => Verdict::Differs,
        Rule::Bounded { better, bound } => {
            let sign = if better == Better::Lower { 1.0 } else { -1.0 };
            // Positive when B is worse; a share of A's median (absolute
            // when A's median is zero, as the failed share's is).
            let scale = if sa.median == 0.0 { 1.0 } else { sa.median.abs() };
            let worse_by = sign * (sb.median - sa.median) / scale;
            let overlap = sa.min <= sb.max && sb.min <= sa.max;
            if bound > 0.0 && overlap && spread(a).max(spread(b)) > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else if worse_by < -bound {
                Verdict::Better
            } else {
                Verdict::Within
            }
        }
    }
}

fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ledger::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; fail on any `worse` (a rise in the failed
/// share is one: its bound is 0).
pub fn run(files: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else { return Err("compare takes two ledger files".to_string()) };
    let (a_rows, b_rows) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<16} {:<44} {:>16} {:>16} {:>9} {:>7}  {:<10} unit",
        "workload", "metric", "A median", "B median", "delta", "bound", "verdict"
    );
    let (mut worse, mut differs, mut unresolved) = (0, 0, 0);
    for a in &a_rows {
        let Some(b) = b_rows.iter().find(|b| b.workload == a.workload && b.metric == a.metric)
        else {
            println!("{:<16} {:<44} missing from B", a.workload, a.metric);
            worse += 1;
            continue;
        };
        let rule = rule(&a.metric);
        let verdict = judge(rule, &a.values, &b.values);
        let (ma, mb) = (stats::median(&a.values), stats::median(&b.values));
        let delta = if ma == 0.0 { mb - ma } else { (mb - ma) / ma.abs() };
        let bound = match rule {
            Rule::Bounded { bound, .. } => format!("{:.0}%", bound * 100.0),
            Rule::Exact => "exact".to_string(),
            Rule::Unbounded => "-".to_string(),
        };
        println!(
            "{:<16} {:<44} {:>16.6} {:>16.6} {:>+8.2}% {:>7}  {:<10} {}",
            a.workload,
            a.metric,
            ma,
            mb,
            delta * 100.0,
            bound,
            verdict.as_str(),
            a.unit
        );
        worse += usize::from(verdict == Verdict::Worse);
        differs += usize::from(verdict == Verdict::Differs);
        unresolved += usize::from(verdict == Verdict::Unresolved);
    }
    println!(
        "{worse} worse, {unresolved} unresolved, {differs} simulated results or counts differ"
    );
    if differs > 0 {
        println!("simulated results differ: B changes the model or its inputs, not only its speed");
    }
    Ok(if worse > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: Rule = Rule::Bounded { better: Better::Lower, bound: 0.1 };
    const RATE: Rule = Rule::Bounded { better: Better::Higher, bound: 0.1 };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(judge(WALL, &[1.0, 1.01, 0.99], &[1.05, 1.06, 1.04]), Verdict::Within);
        assert_eq!(judge(WALL, &[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19]), Verdict::Worse);
        assert_eq!(judge(WALL, &[1.0, 1.01, 0.99], &[0.8, 0.81, 0.79]), Verdict::Better);
        // Disjoint runs inside the bound are drift, not a gain.
        assert_eq!(judge(WALL, &[1.0, 1.01, 0.99], &[0.95, 0.96, 0.94]), Verdict::Within);
        assert_eq!(judge(RATE, &[100.0, 101.0], &[80.0, 81.0]), Verdict::Worse);
        assert_eq!(judge(RATE, &[100.0, 101.0], &[120.0, 121.0]), Verdict::Better);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        assert_eq!(judge(WALL, &[1.0, 1.3, 0.9], &[1.1, 1.25, 0.95]), Verdict::Unresolved);
        // As wide, but every run of B beyond every run of A: resolved.
        assert_eq!(judge(WALL, &[1.0, 1.3, 0.9], &[2.0, 2.4, 1.9]), Verdict::Worse);
    }

    #[test]
    fn any_rise_in_the_failed_share_is_worse() {
        let r = rule(FAILED_SHARE);
        assert_eq!(judge(r, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Within);
        assert_eq!(judge(r, &[0.0, 0.0], &[0.001, 0.001]), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_agree_exactly_or_differ() {
        assert_eq!(rule("bench.paper_err_mean_pct"), Rule::Exact);
        assert_eq!(rule("serve.retries.2x"), Rule::Exact);
        assert_eq!(rule("core.pool.job_ns"), Rule::Unbounded);
        assert_eq!(rule("wall_s"), Rule::Bounded { better: Better::Lower, bound: 0.25 });
        assert_eq!(judge(Rule::Exact, &[10.86], &[10.86]), Verdict::Same);
        assert_eq!(judge(Rule::Exact, &[10.86], &[10.87]), Verdict::Differs);
        assert_eq!(judge(Rule::Unbounded, &[1.0], &[9.0]), Verdict::Unbounded);
    }

    #[test]
    fn ledgers_round_trip() {
        let rows = vec![Row {
            workload: "sim-dense".into(),
            metric: "wall_s".into(),
            unit: "s".into(),
            values: vec![0.687366646, 0.7],
        }];
        assert_eq!(ledger::from_json(&ledger::to_json(&rows).to_doc_string()), Ok(rows));
        assert!(ledger::from_json("{}").is_err());
    }
}
