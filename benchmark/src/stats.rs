//! Order statistics for pass timings.
//!
//! A run takes a handful of passes, so the only honest summary is the
//! median with min, max and N beside it; [`highest_percentile`] says
//! which tail percentile (if any) the sample count can support.

/// Median, extremes and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Summarize `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let v = sorted(values);
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    Summary { median, min: v[0], max: v[n - 1], n }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Tail percentiles worth reporting, lowest first, each with the
/// number of samples it takes to put one beyond it.
const TAILS: [(f64, usize); 4] = [(90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000)];

/// The highest percentile above the median that still has at least ten
/// of `n` samples beyond it, or `None` when even p90 does not (n < 100):
/// a p99 of nine samples is the maximum under another name.
#[must_use]
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAILS.iter().rev().find(|(_, one_in)| n >= 10 * one_in).map(|&(p, _)| p)
}

/// One line describing a timing: median, min, max, N, and either the
/// supported tail percentile or the reason none is printed.
#[must_use]
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let s = summarize(values);
    let tail = match highest_percentile(s.n) {
        Some(p) => {
            let v = sorted(values);
            let rank = ((p / 100.0) * s.n as f64).ceil() as usize;
            format!("p{p} {:.6}", v[rank.clamp(1, s.n) - 1])
        }
        None => format!("N={} too small for a percentile above the median", s.n),
    };
    format!(
        "{name:<28} median {:.6} {unit}  min {:.6}  max {:.6}  N {}  ({tail})",
        s.median, s.min, s.max, s.n
    )
}

/// Interquartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method) — the
/// spread the driver holds each end-to-end metric to.
///
/// # Panics
///
/// Panics with fewer than two samples.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(3) - q(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[5.0, 9.0, 7.0]);
        assert_eq!((s.min, s.max, s.n), (5.0, 9.0, 3));
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        // 15 passes: even p90 has 1.5 samples beyond it.
        assert_eq!(highest_percentile(15), None);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert!(describe("wall_s", "s", &[1.0; 15]).contains("too small"));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(describe("x", "ns", &many).contains("p90 90.0"));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
