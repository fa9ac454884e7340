//! A deterministic, mergeable log-bucketed sketch histogram.
//!
//! The exact [`Histogram`] keeps one `BTreeMap` entry per *distinct*
//! sample, which is perfect at 10⁴ jobs and O(jobs) at 10⁶: streaming
//! the serving harness needs quantiles in bounded space. [`Sketch`] is
//! the DDSketch/HDR-style answer, built under this workspace's rules:
//!
//! * **Pure integer bucketing** — a value's bucket is derived from its
//!   bit length and top `s` mantissa bits, no `log`/floating point, so
//!   the sketch is byte-identical across platforms and runs.
//! * **Declared relative-error bound** — `gamma()` = 2^−(s+1). Every
//!   bucketed quantile answer is the bucket midpoint, clamped to the
//!   exact observed `[min, max]`, which keeps the relative error within
//!   the declared bound ([`Sketch::quantile_with_bound`] carries it).
//! * **Exact low-count path** — until the multiset exceeds
//!   [`EXACT_DISTINCT_CAP`] distinct values, the sketch stores raw
//!   values and answers exactly (bound 0.0). Values below `2^(s+1)` are
//!   exact even after promotion (their buckets are singletons).
//! * **Mergeable and order-independent** — the final state is a pure
//!   function of the recorded multiset: merging shards in any grouping
//!   or order produces byte-identical state (`Sketch` is `Eq`; the
//!   property tests assert associativity rather than trusting this
//!   comment). This is what lets the telemetry registry fold evicted
//!   windows back into a run total and still assert the re-merge
//!   invariant byte for byte.
//!
//! A sketch that has not promoted *is* an exact histogram (raw-value
//! keys, the same nearest-rank walk), so "exact estimator" is not a
//! second type: [`Sketch::exact`] builds the form whose promotion
//! threshold is unreachable. The serving report switches estimators per
//! run by picking a constructor; every line of artifact code is shared.
//!
//! Recording is the serving plane's hottest operation (nine per job), so
//! the key → count store is flat where keys are small: keys below
//! [`FLAT_KEYS`] index a lazily grown `Vec<u64>`, which covers every
//! bucket index of the default γ = 0.01 geometry for any `u64` (at most
//! 58 octaves × 64 sub-buckets + 63 = 3 775), so a promoted sketch
//! records with one shift, one bounds check and one add. Larger keys —
//! raw values before promotion, bucket indices of tiny-γ geometries —
//! stay in a `BTreeMap`, so memory is bounded by the distinct keys seen,
//! never by their magnitude.

use crate::{Histogram, Json};
use std::collections::BTreeMap;

/// Distinct-value cap of the exact low-count path; one more distinct
/// value promotes the sketch to log buckets.
pub const EXACT_DISTINCT_CAP: usize = 2048;

/// Keys below this are counted in the store's flat array; 2^13 covers
/// every bucket index at [`DEFAULT_GAMMA`] for any `u64` sample.
const FLAT_KEYS: u64 = 1 << 13;

/// The key → occurrences store of a [`Sketch`], iterated in ascending
/// key order: flat below [`FLAT_KEYS`], a map above.
///
/// Counts only ever grow and `flat` is grown to exactly the largest
/// small key seen, so `flat` never ends in a zero and no map entry is
/// zero: the representation is a pure function of the counted multiset,
/// which is what lets `Eq` be derived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    flat: Vec<u64>,
    sparse: BTreeMap<u64, u64>,
    /// Keys with a nonzero count (the promotion test reads it per record).
    distinct: usize,
}

impl Counts {
    /// Count `n > 0` more occurrences of `key`.
    fn add(&mut self, key: u64, n: u64) {
        let slot = if key < FLAT_KEYS {
            #[allow(clippy::cast_possible_truncation)] // < 2^13
            let k = key as usize;
            if k >= self.flat.len() {
                self.flat.resize(k + 1, 0);
            }
            &mut self.flat[k]
        } else {
            self.sparse.entry(key).or_insert(0)
        };
        self.distinct += usize::from(*slot == 0);
        *slot += n;
    }

    /// `(key, occurrences)` pairs in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let flat = self.flat.iter().enumerate().filter(|&(_, &n)| n > 0);
        flat.map(|(k, &n)| (k as u64, n)).chain(self.sparse.iter().map(|(&k, &n)| (k, n)))
    }
}

/// Default relative-error target for sketch quantiles (the serving
/// harness's `--sketch` mode). The realized bound is the next power of
/// two at or below it: 2^−7 ≈ 0.0078.
pub const DEFAULT_GAMMA: f64 = 0.01;

/// Log-bucketed quantile sketch with an exact low-count path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// Sub-bucket (mantissa) bits per octave; the error bound is
    /// 2^−(sub_bits+1).
    sub_bits: u32,
    /// Distinct raw values held before promoting to log buckets:
    /// [`EXACT_DISTINCT_CAP`], or `usize::MAX` for the exact form,
    /// which therefore never promotes.
    promote_after: usize,
    /// `false`: `counts` keys are raw values (exact). `true`: keys are
    /// bucket indices.
    promoted: bool,
    counts: Counts,
    count: u64,
    sum: u128,
    /// Exact extremes (valid when `count > 0`); quantile answers are
    /// clamped into `[min, max]`.
    min: u64,
    max: u64,
}

impl Sketch {
    /// A sketch whose quantile relative error is at most `gamma`
    /// (once promoted; exact before). The realized bound — the largest
    /// power of two at or below `gamma`, see [`Sketch::gamma`] — is
    /// what answers are measured against.
    ///
    /// # Panics
    ///
    /// Panics unless [`Sketch::accepts_gamma`].
    #[must_use]
    pub fn new(gamma: f64) -> Self {
        assert!(Self::accepts_gamma(gamma), "sketch gamma {gamma} outside [2^-32, 0.5)");
        // Smallest s with 2^-(s+1) <= gamma; pure integer search so the
        // same gamma always lands on the same geometry.
        let mut sub_bits = 0u32;
        while 1.0 / (1u64 << (sub_bits + 1)) as f64 > gamma {
            sub_bits += 1;
        }
        Self::empty(sub_bits, EXACT_DISTINCT_CAP)
    }

    /// Whether `gamma` is a bound [`Sketch::new`] can realize:
    /// `2^-32 <= gamma < 0.5`.
    #[must_use]
    pub fn accepts_gamma(gamma: f64) -> bool {
        gamma < 0.5 && gamma >= 1.0 / (1u64 << 32) as f64
    }

    /// The exact form: never promotes, so every answer is the exact
    /// histogram's and the declared error bound is 0.
    #[must_use]
    pub fn exact() -> Self {
        Self::empty(0, usize::MAX)
    }

    fn empty(sub_bits: u32, promote_after: usize) -> Self {
        Self {
            sub_bits,
            promote_after,
            promoted: false,
            counts: Counts::default(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// An empty sketch of the same form and geometry as this one.
    #[must_use]
    pub fn fresh_like(&self) -> Self {
        Self::empty(self.sub_bits, self.promote_after)
    }

    /// `"exact"` or `"sketch"` — recorded in artifacts so a reader
    /// knows what the quantiles are.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        if self.never_promotes() {
            "exact"
        } else {
            "sketch"
        }
    }

    fn never_promotes(&self) -> bool {
        self.promote_after == usize::MAX
    }

    /// Declared relative-error bound of quantile answers: `0.0` for
    /// the exact form, [`Sketch::gamma`] otherwise (even while the
    /// low-count path is still exact — the declaration is what the
    /// artifact promises).
    #[must_use]
    pub fn rel_error_bound(&self) -> f64 {
        if self.never_promotes() {
            0.0
        } else {
            self.gamma()
        }
    }

    /// The declared relative-error bound, 2^−(sub_bits+1). Exact-path
    /// answers are better than this (see
    /// [`Sketch::quantile_with_bound`]); bucketed answers meet it.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        1.0 / (1u64 << (self.sub_bits + 1)) as f64
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

    /// Smallest recorded sample (exact).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (exact: the sum is tracked outside the buckets).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether the exact low-count path has been abandoned for buckets.
    #[must_use]
    pub fn is_promoted(&self) -> bool {
        self.promoted
    }

    /// Bucket index of `v`: identity below `2^(sub_bits+1)`, else
    /// `(bit_len - sub_bits) octaves * 2^sub_bits` plus the top
    /// `sub_bits` mantissa bits. Monotone in `v`, contiguous across
    /// octave boundaries.
    fn bucket_of(&self, v: u64) -> u64 {
        let s = self.sub_bits;
        if v >> (s + 1) == 0 {
            return v;
        }
        let e = 63 - u64::from(v.leading_zeros());
        let shift = e - u64::from(s);
        ((shift + 1) << s) + ((v >> shift) & ((1 << s) - 1))
    }

    /// Representative value of bucket `b`: itself in the exact range,
    /// else the bucket midpoint (relative error ≤ 2^−(sub_bits+1) from
    /// any member of the bucket).
    fn representative(&self, b: u64) -> u64 {
        let s = self.sub_bits;
        if b >> (s + 1) == 0 {
            return b;
        }
        let shift = (b >> s) - 1;
        let lo = ((1 << s) + (b & ((1 << s) - 1))) << shift;
        lo + (1u64 << shift >> 1)
    }

    fn promote(&mut self) {
        debug_assert!(!self.promoted);
        for (v, n) in std::mem::take(&mut self.counts).iter() {
            self.counts.add(self.bucket_of(v), n);
        }
        self.promoted = true;
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let key = if self.promoted { self.bucket_of(value) } else { value };
        self.counts.add(key, n);
        if !self.promoted && self.counts.distinct > self.promote_after {
            self.promote();
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Fold another sketch into this one. The result depends only on
    /// the combined multiset — any merge grouping or order produces
    /// byte-identical state.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built with different error
    /// bounds (their buckets would not line up) or one is the exact
    /// form and the other is not.
    pub fn merge(&mut self, other: &Sketch) {
        assert_eq!(
            (self.sub_bits, self.promote_after),
            (other.sub_bits, other.promote_after),
            "cannot merge sketches of different gamma or kind"
        );
        if other.count == 0 {
            return;
        }
        if other.promoted && !self.promoted {
            self.promote();
        }
        for (k, n) in other.counts.iter() {
            let key = if self.promoted && !other.promoted { self.bucket_of(k) } else { k };
            self.counts.add(key, n);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !self.promoted && self.counts.distinct > self.promote_after {
            self.promote();
        }
    }

    /// Fold an exact histogram's multiset into this sketch.
    pub fn merge_hist(&mut self, h: &Histogram) {
        for (v, n) in h.iter() {
            self.record_n(v, n);
        }
    }

    /// Nearest-rank quantile answer plus the relative-error bound it
    /// carries: `0.0` while the exact path holds, [`Sketch::gamma`]
    /// once promoted. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_with_bound(&self, q: f64) -> Option<(u64, f64)> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (key, n) in self.counts.iter() {
            seen += n;
            if seen >= rank {
                let v = if self.promoted { self.representative(key) } else { key };
                let bound = if self.promoted { self.gamma() } else { 0.0 };
                return Some((v.clamp(self.min, self.max), bound));
            }
        }
        unreachable!("rank {rank} <= count {} must land inside the sketch", self.count)
    }

    /// Nearest-rank quantile (see [`Sketch::quantile_with_bound`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_with_bound(q).map(|(v, _)| v)
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

    /// Summary as a JSON object — the [`Histogram::summary_json`] keys
    /// plus `estimator` and `rel_error_bound`, so a reader of any
    /// artifact knows what the quantiles are and how far they can be
    /// off. Deterministic for a fixed sample multiset.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let (p50, p99, p999) = self.p50_p99_p999();
        Json::obj([
            ("count", Json::U64(self.count)),
            ("min", Json::U64(self.min().unwrap_or(0))),
            ("max", Json::U64(self.max().unwrap_or(0))),
            ("mean", Json::F64(self.mean())),
            ("p50", Json::U64(p50)),
            ("p99", Json::U64(p99)),
            ("p999", Json::U64(p999)),
            ("estimator", Json::from(self.kind())),
            ("rel_error_bound", Json::F64(self.rel_error_bound())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_cases;
    use crate::Rng64;

    fn filled(values: &[u64], gamma: f64) -> (Sketch, Histogram) {
        let mut s = Sketch::new(gamma);
        let mut h = Histogram::new();
        for &v in values {
            s.record(v);
            h.record(v);
        }
        (s, h)
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = Sketch::new(DEFAULT_GAMMA);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), 0.0);
        assert!(!s.is_promoted());
    }

    #[test]
    fn gamma_is_the_next_power_of_two_at_or_below() {
        assert_eq!(Sketch::new(0.01).gamma(), 1.0 / 128.0);
        assert_eq!(Sketch::new(0.5 - 1e-9).gamma(), 0.25);
        assert_eq!(Sketch::new(1.0 / 128.0).gamma(), 1.0 / 128.0);
        assert!(Sketch::new(0.001).gamma() <= 0.001);
    }

    #[test]
    fn bucketing_is_monotone_and_contiguous() {
        let s = Sketch::new(DEFAULT_GAMMA);
        let mut last = 0u64;
        let mut v = 0u64;
        while v < 1 << 20 {
            let b = s.bucket_of(v);
            assert!(b >= last, "bucket index must be monotone at v={v}");
            assert!(b == last || b == last + 1, "bucket indices must be contiguous at v={v}");
            last = b;
            v += 1 + v / 512; // dense at the bottom, sparse above
        }
    }

    #[test]
    fn representative_stays_within_gamma_of_every_bucket_member() {
        let s = Sketch::new(DEFAULT_GAMMA);
        let gamma = s.gamma();
        run_cases("sketch-representative", 0x5e44_11aa, 64, |rng: &mut Rng64| {
            for _ in 0..256 {
                let v = rng.below(u64::MAX / 2) + 1;
                let rep = s.representative(s.bucket_of(v));
                let err = (rep as f64 - v as f64).abs() / v as f64;
                assert!(err <= gamma, "v={v} rep={rep} err={err} > gamma={gamma}");
            }
        });
    }

    #[test]
    fn promoted_quantiles_stay_within_declared_bound_of_exact() {
        run_cases("sketch-vs-exact", 0x6a79_2005, 48, |rng: &mut Rng64| {
            let n = rng.range_usize_inclusive(3_000, 8_000);
            // Mixed regimes: wide uniform, narrow, heavy-tailed-ish.
            let mode = rng.below(3);
            let values: Vec<u64> = (0..n)
                .map(|_| match mode {
                    0 => rng.below(1 << 34),
                    1 => 100 + rng.below(64),
                    _ => {
                        let base = rng.below(1 << 12);
                        base * (1 + rng.below(1 << 18))
                    }
                })
                .collect();
            let (s, h) = filled(&values, DEFAULT_GAMMA);
            for _ in 0..8 {
                let q = rng.f64();
                let (got, bound) = s.quantile_with_bound(q).unwrap();
                let want = h.quantile(q).unwrap();
                let err = (got as f64 - want as f64).abs() / (want.max(1)) as f64;
                assert!(
                    err <= bound,
                    "q={q} got={got} want={want} err={err} bound={bound} promoted={}",
                    s.is_promoted()
                );
            }
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                let (got, bound) = s.quantile_with_bound(q).unwrap();
                let want = h.quantile(q).unwrap();
                let err = (got as f64 - want as f64).abs() / (want.max(1)) as f64;
                assert!(err <= bound, "q={q} got={got} want={want}");
            }
            // Extremes are exact in every regime.
            assert_eq!(s.min(), h.min());
            assert_eq!(s.max(), h.max());
            assert_eq!(s.count(), h.count());
            assert!((s.mean() - h.mean()).abs() <= h.mean().abs() * 1e-12 + 1e-9);
        });
    }

    #[test]
    fn merge_is_byte_deterministic_and_associative() {
        run_cases("sketch-merge-assoc", 0x6a79_2005, 48, |rng: &mut Rng64| {
            let shards: Vec<Vec<u64>> = (0..rng.range_usize_inclusive(2, 6))
                .map(|_| {
                    (0..rng.range_usize_inclusive(0, 2_000)).map(|_| rng.below(1 << 30)).collect()
                })
                .collect();
            let sketch_of = |vals: &[u64]| {
                let mut s = Sketch::new(DEFAULT_GAMMA);
                for &v in vals {
                    s.record(v);
                }
                s
            };
            // Left fold, right fold, and record-everything-into-one must
            // all land on byte-identical state (Sketch is Eq over its
            // whole representation).
            let mut left = Sketch::new(DEFAULT_GAMMA);
            for sh in &shards {
                left.merge(&sketch_of(sh));
            }
            let mut right = sketch_of(shards.last().unwrap());
            for sh in shards[..shards.len() - 1].iter().rev() {
                let mut s = sketch_of(sh);
                s.merge(&right);
                right = s;
            }
            let mut pooled = Sketch::new(DEFAULT_GAMMA);
            for sh in &shards {
                for &v in sh {
                    pooled.record(v);
                }
            }
            assert_eq!(left, right, "merge grouping must not change the state");
            assert_eq!(left, pooled, "merged shards must equal pooled recording");
            assert_eq!(left.summary_json().to_string(), pooled.summary_json().to_string());
        });
    }

    #[test]
    fn state_is_a_pure_function_of_the_multiset_in_every_geometry() {
        // The same multiset, recorded whole and recorded shuffled across
        // 1..=8 shards merged in a random grouping — so shards promote at
        // different points, or never — with keys on both sides of the
        // flat/map boundary, in geometries whose bucket indices fit the
        // flat array (0.25, 0.01) and ones whose do not.
        const GAMMAS: [f64; 5] =
            [0.25, 0.01, 0.001, 1.0 / (1u64 << 20) as f64, 1.0 / (1u64 << 32) as f64];
        run_cases("sketch-multiset-purity", 0x6a79_2005, 60, |rng: &mut Rng64| {
            let gamma = GAMMAS[rng.below_usize(GAMMAS.len())];
            let n = *[300usize, EXACT_DISTINCT_CAP, 4 * EXACT_DISTINCT_CAP]
                .get(rng.below_usize(3))
                .unwrap();
            let mut values: Vec<u64> = (0..rng.range_usize_inclusive(1, n))
                .map(|_| match rng.below(4) {
                    0 => rng.below(2 * FLAT_KEYS),
                    1 => FLAT_KEYS - 4 + rng.below(8),
                    2 => (1 << 40) + rng.below(1 << 20),
                    _ => rng.next_u64(),
                })
                .collect();
            let mut pooled = Sketch::new(gamma);
            values.iter().for_each(|&v| pooled.record(v));

            rng.shuffle(&mut values);
            let mut shards = vec![Sketch::new(gamma); rng.range_usize_inclusive(1, 8)];
            for &v in &values {
                let shard = rng.below_usize(shards.len());
                shards[shard].record(v);
            }
            while shards.len() > 1 {
                let from = shards.swap_remove(rng.below_usize(shards.len()));
                let into = rng.below_usize(shards.len());
                shards[into].merge(&from);
            }
            let merged = &shards[0];

            assert_eq!(*merged, pooled, "gamma {gamma}: grouping or order changed the state");
            assert_eq!(merged.summary_json().to_string(), pooled.summary_json().to_string());
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                assert_eq!(merged.quantile_with_bound(q), pooled.quantile_with_bound(q), "q={q}");
            }
            // The store's own invariants: small keys only in the flat
            // array (a 2^-32 sketch of values near 2^40 has bucket indices
            // near 2^36 — sized by value it would be a 512 GB array),
            // never a trailing zero, and a true distinct count.
            let store = &merged.counts;
            assert!(store.flat.len() as u64 <= FLAT_KEYS);
            assert_ne!(store.flat.last(), Some(&0));
            assert!(store.sparse.iter().all(|(&k, &n)| k >= FLAT_KEYS && n > 0));
            assert_eq!(store.distinct, store.iter().count());
        });
    }

    #[test]
    fn promotion_straddling_merges_agree() {
        // One shard small (exact), one past the cap (promoted): merging
        // in either order equals pooled recording.
        let small: Vec<u64> = (0..100).map(|i| i * 7 + 3).collect();
        let big: Vec<u64> = (0..3 * EXACT_DISTINCT_CAP as u64).map(|i| i * 13 + 1).collect();
        let (s_small, _) = filled(&small, DEFAULT_GAMMA);
        let (s_big, _) = filled(&big, DEFAULT_GAMMA);
        assert!(!s_small.is_promoted());
        assert!(s_big.is_promoted());
        let mut a = s_small.clone();
        a.merge(&s_big);
        let mut b = s_big.clone();
        b.merge(&s_small);
        let all: Vec<u64> = small.iter().chain(&big).copied().collect();
        let (pooled, _) = filled(&all, DEFAULT_GAMMA);
        assert_eq!(a, b);
        assert_eq!(a, pooled);
    }

    #[test]
    #[should_panic(expected = "different gamma")]
    fn merging_mismatched_gamma_panics() {
        let mut a = Sketch::new(0.01);
        a.merge(&Sketch::new(0.1));
    }

    #[test]
    fn unpromoted_sketches_equal_the_histogram_on_every_answer() {
        // The distributions of the histogram suite (heavy duplication
        // through to near-distinct). The bucketed form stays on its
        // exact path below the cap; the exact form at any size — it
        // must never promote, however far past EXACT_DISTINCT_CAP.
        run_cases("sketch-unpromoted", 0x6a79_2005, 96, |rng: &mut Rng64| {
            let exact = rng.bool();
            let most = if exact && rng.bool() { 6_000 } else { 400 };
            let n = rng.range_usize_inclusive(1, most);
            let bound = *[3u64, 17, 1000, u64::from(u32::MAX)].get(rng.below_usize(4)).unwrap();
            let mut s = if exact { Sketch::exact() } else { Sketch::new(DEFAULT_GAMMA) };
            let mut h = Histogram::new();
            for _ in 0..n {
                let v = rng.below(bound);
                s.record(v);
                h.record(v);
            }
            assert!(!s.is_promoted());
            assert_eq!((s.count(), s.min(), s.max()), (h.count(), h.min(), h.max()));
            assert_eq!(s.mean().to_bits(), h.mean().to_bits());
            assert_eq!(s.p50_p99_p999(), h.p50_p99_p999());
            for q in [0.0, rng.f64(), rng.f64(), 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(s.quantile_with_bound(q), h.quantile(q).map(|v| (v, 0.0)), "q={q}");
            }
            let mut via_merge = s.fresh_like();
            via_merge.merge_hist(&h);
            assert_eq!(via_merge, s, "folding the histogram in equals recording");
            if exact {
                assert_eq!((s.kind(), s.rel_error_bound()), ("exact", 0.0));
                let json = s.summary_json().to_string();
                let shared_keys =
                    json.replace(",\"estimator\":\"exact\",\"rel_error_bound\":0}", "}");
                assert_eq!(shared_keys, h.summary_json().to_string());
            }
        });
    }

    #[test]
    fn the_two_forms_declare_themselves_and_refuse_to_merge() {
        let mut s = Sketch::new(DEFAULT_GAMMA);
        s.record(42);
        assert_eq!((s.kind(), s.rel_error_bound()), ("sketch", 1.0 / 128.0));
        assert_eq!(s.quantile_with_bound(0.99), Some((42, 0.0)), "still on its exact path");
        assert!(s.summary_json().to_string().contains("\"estimator\":\"sketch\""));
        assert_eq!(s.fresh_like(), Sketch::new(DEFAULT_GAMMA));
        assert_eq!(Sketch::exact().fresh_like(), Sketch::exact());
        for (mut into, from) in [(Sketch::exact(), s.clone()), (s, Sketch::exact())] {
            let refused = std::panic::catch_unwind(move || into.merge(&from));
            assert!(refused.is_err(), "exact and bucketed forms must not merge");
        }
    }
}
