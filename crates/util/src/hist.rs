//! An exact integer-valued histogram with nearest-rank quantiles.
//!
//! The serving harness reports p50/p99/p999 latencies in cycles; a
//! bucketed (HDR-style) histogram would make those approximate and
//! resolution-dependent, so this one is *exact*: it counts occurrences
//! per distinct value in a `BTreeMap`, which the latency workloads keep
//! small (tens of thousands of samples collapse onto far fewer distinct
//! cycle counts). Quantiles use the nearest-rank definition — the value
//! at (1-indexed) rank `max(1, ceil(q * n))` of the sorted multiset — so
//! `quantile(q)` equals indexing a fully sorted copy of the samples,
//! which the property tests assert verbatim. [`Summary`] is the report
//! every such multiset exports, read either off a histogram or straight
//! off a sorted sample buffer.

use crate::Json;
use std::collections::BTreeMap;

/// Exact multiset of `u64` samples with order-statistic queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Iterate `(value, occurrences)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &n)| (v, n))
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Arithmetic mean of the samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: the sample a fully sorted copy would hold
    /// at (1-indexed) rank `max(1, ceil(q * count))`. `quantile(0.0)` is
    /// the minimum and `quantile(1.0)` the maximum. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        for (&v, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(v);
            }
        }
        unreachable!("rank {rank} <= count {} must land inside the histogram", self.count)
    }

    /// The standard latency triple (p50, p99, p999), zeros when empty.
    #[must_use]
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
            self.quantile(0.999).unwrap_or(0),
        )
    }

    /// The histogram's [`Summary`].
    fn summary(&self) -> Summary {
        let (p50, p99, p999) = self.p50_p99_p999();
        Summary {
            count: self.count,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            sum: self.sum,
            p50,
            p99,
            p999,
        }
    }

    /// Summary of the histogram as a JSON object ([`Summary::to_json`]).
    /// Deterministic for a fixed sample multiset.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        self.summary().to_json()
    }
}

/// The 1-indexed nearest rank of quantile `q` among `count > 0`
/// samples: `max(1, ceil(q * count))`, at most `count`.
#[must_use]
pub(crate) fn nearest_rank(q: f64, count: u64) -> u64 {
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = (q * count as f64).ceil() as u64;
    rank.clamp(1, count)
}

/// What a report reads off one sample multiset: the count, the exact
/// extremes and sum, and the nearest-rank p50/p99/p999 — all zero when
/// empty. [`Summary::of_sorted`] reads it straight off a sorted sample
/// buffer, which is how a telemetry window is summarized as it closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of the samples.
    pub sum: u128,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Nearest-rank 99.9th percentile.
    pub p999: u64,
}

impl Summary {
    /// The summary of an ascending sample slice: every statistic is one
    /// index into it, plus one pass for the sum.
    #[must_use]
    pub fn of_sorted(sorted: &[u64]) -> Self {
        debug_assert!(sorted.is_sorted(), "summary input must be sorted");
        let count = sorted.len() as u64;
        if count == 0 {
            return Self::default();
        }
        #[allow(clippy::cast_possible_truncation)] // a rank within a slice
        let at = |q: f64| sorted[nearest_rank(q, count) as usize - 1];
        Self {
            count,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            sum: sorted.iter().map(|&v| u128::from(v)).sum(),
            p50: at(0.50),
            p99: at(0.99),
            p999: at(0.999),
        }
    }

    /// Arithmetic mean, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The summary as a JSON object: `count`, `min`, `max`, `mean` and
    /// the p50/p99/p999 triple.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("min", Json::U64(self.min)),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            ("p50", Json::U64(self.p50)),
            ("p99", Json::U64(self.p99)),
            ("p999", Json::U64(self.p999)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_cases;

    /// Reference nearest-rank quantile over an explicitly sorted vector.
    fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50_p99_p999(), (0, 0, 0));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(42);
        for q in [0.0, 0.25, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(42));
        }
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn quantiles_match_sorted_reference_on_random_inputs() {
        // The histogram's order statistics must agree with indexing a
        // sorted copy of the raw samples, for every quantile we report.
        run_cases("hist-vs-sorted", 0x6a79_2005, 128, |rng| {
            let n = rng.range_usize_inclusive(1, 400);
            // A narrow value range forces heavy duplication, the regime
            // where a cumulative-count walk can off-by-one.
            let bound = *[3u64, 17, 1000, u64::from(u32::MAX)].get(rng.below_usize(4)).unwrap();
            let mut h = Histogram::new();
            let mut raw = Vec::with_capacity(n);
            for _ in 0..n {
                let v = rng.below(bound);
                h.record(v);
                raw.push(v);
            }
            raw.sort_unstable();
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.min(), Some(raw[0]));
            assert_eq!(h.max(), Some(raw[n - 1]));
            for _ in 0..16 {
                let q = rng.f64();
                assert_eq!(
                    h.quantile(q),
                    Some(sorted_quantile(&raw, q)),
                    "q={q} n={n} bound={bound}"
                );
            }
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(h.quantile(q), Some(sorted_quantile(&raw, q)), "q={q}");
            }
            let sum: u128 = raw.iter().map(|&v| u128::from(v)).sum();
            let mean = sum as f64 / n as f64;
            assert!((h.mean() - mean).abs() <= mean.abs() * 1e-12 + 1e-9);
        });
    }

    #[test]
    fn sorted_summary_equals_the_histogram_summary() {
        run_cases("hist-sorted-summary", 0x6a79_2005, 64, |rng| {
            let bound = *[3u64, 1000, u64::MAX].get(rng.below_usize(3)).unwrap();
            let mut samples: Vec<u64> =
                (0..rng.range_usize_inclusive(0, 300)).map(|_| rng.below(bound)).collect();
            let mut recorded = Histogram::new();
            samples.iter().for_each(|&v| recorded.record(v));
            samples.sort_unstable();
            let summary = Summary::of_sorted(&samples);
            assert_eq!(summary, recorded.summary());
            assert_eq!(summary.mean().to_bits(), recorded.mean().to_bits());
            assert_eq!(summary.to_json().to_string(), recorded.summary_json().to_string());
        });
    }

    #[test]
    fn summary_json_is_deterministic() {
        let mut h = Histogram::new();
        for v in [5u64, 1, 9, 5, 7] {
            h.record(v);
        }
        let j = h.summary_json().to_string();
        assert_eq!(j, h.clone().summary_json().to_string());
        assert!(j.contains("\"count\":5"));
        assert!(j.contains("\"p50\":5"));
        assert!(j.contains("\"max\":9"));
    }
}
