//! Deterministic open-loop load generation.
//!
//! Arrivals are a Poisson process: exponential inter-arrival times drawn
//! from a seeded [`Rng64`], *open loop* — the generator never slows down
//! because the service is busy, which is what makes the measured
//! latencies honest under overload (closed-loop generators coordinate
//! with the victim and hide queueing delay). Every draw is pure integer
//! and IEEE-arithmetic work: the exponential quantile uses [`det_ln`],
//! a log built from bit manipulation and a short `atanh` series instead
//! of libm's `ln`, so the byte-identical-artifact guarantee holds across
//! platforms, not just across runs.

use gpstream_util::Rng64;

/// One offered job: who sent it, what shape it is, when it arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferedJob {
    /// Dense job id in arrival order.
    pub id: usize,
    /// Tenant that submitted it.
    pub tenant: usize,
    /// Index into the workload's variant table.
    pub variant: usize,
    /// Arrival cycle (virtual time) of the first submission attempt.
    pub arrival: u64,
}

/// Parameters of the arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Offered jobs to generate.
    pub jobs: usize,
    /// Mean inter-arrival time in cycles (`freq / rate`).
    pub mean_interarrival: u64,
    /// Number of tenants.
    pub tenants: usize,
    /// Relative arrival share per tenant (a hot tenant has a bigger
    /// share). Must have one entry per tenant.
    pub arrival_shares: Vec<u64>,
    /// Number of job variants to draw from, uniformly.
    pub variants: usize,
    /// RNG seed.
    pub seed: u64,
}

/// ln(x) for finite `x > 0` using only IEEE mul/add/div — deterministic
/// on every platform, unlike libm's `ln`. Splits `x = m·2^e` with
/// `m ∈ [1, 2)`, then `ln m = 2·atanh t` for `t = (m−1)/(m+1)` via a
/// 7-term odd series (|t| ≤ 1/3, so the truncation error is below
/// 5·10⁻⁸ — far finer than a load generator needs).
#[must_use]
pub fn det_ln(x: f64) -> f64 {
    assert!(x > 0.0 && x.is_finite(), "det_ln needs a positive finite input, got {x}");
    const LN2: f64 = std::f64::consts::LN_2;
    let bits = x.to_bits();
    let mut exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mantissa = if exp == -1023 {
        // Subnormal: renormalize by scaling up 2^52.
        let scaled = x * (1u64 << 52) as f64;
        exp = ((scaled.to_bits() >> 52) & 0x7ff) as i64 - 1023 - 52;
        f64::from_bits((scaled.to_bits() & 0x000f_ffff_ffff_ffff) | (1023u64 << 52))
    } else {
        f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52))
    };
    // Map m ∈ [1.5, 2) down one octave so |t| stays ≤ 1/3.
    let (m, e) = if mantissa >= 1.5 { (mantissa * 0.5, exp + 1) } else { (mantissa, exp) };
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = t
        * (2.0
            + t2 * (2.0 / 3.0
                + t2 * (2.0 / 5.0
                    + t2 * (2.0 / 7.0
                        + t2 * (2.0 / 9.0 + t2 * (2.0 / 11.0 + t2 * (2.0 / 13.0)))))));
    e as f64 * LN2 + series
}

/// Draw one exponential inter-arrival gap with the given mean, in whole
/// cycles (at least 1).
fn exp_gap(rng: &mut Rng64, mean: u64) -> u64 {
    // u ∈ [0, 1) so 1 − u ∈ (0, 1] and the log is finite.
    let u = rng.f64();
    let gap = -det_ln(1.0 - u) * mean as f64;
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let cycles = gap as u64;
    cycles.max(1)
}

/// Pick a tenant by arrival share.
fn pick_tenant(rng: &mut Rng64, shares: &[u64], total: u64) -> usize {
    let mut r = rng.below(total);
    for (t, &s) in shares.iter().enumerate() {
        if r < s {
            return t;
        }
        r -= s;
    }
    unreachable!("shares sum to total")
}

/// The offered-arrival trace as a lazy stream, strictly increasing in
/// arrival time: each `next()` draws one job, so a 10⁷-job trace costs
/// O(1) memory.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng64,
    now: u64,
    next_id: usize,
    jobs: usize,
    mean_interarrival: u64,
    arrival_shares: Vec<u64>,
    share_total: u64,
    variants: usize,
}

impl Arrivals {
    /// A lazy arrival stream over `cfg`'s Poisson process.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid config (zero
    /// tenants/variants/mean, share list of the wrong length or summing
    /// to zero).
    #[must_use]
    pub fn new(cfg: &LoadConfig) -> Self {
        assert!(cfg.tenants > 0, "need at least one tenant");
        assert!(cfg.variants > 0, "need at least one variant");
        assert!(cfg.mean_interarrival > 0, "mean inter-arrival must be positive");
        assert_eq!(cfg.arrival_shares.len(), cfg.tenants, "one arrival share per tenant");
        let share_total: u64 = cfg.arrival_shares.iter().sum();
        assert!(share_total > 0, "arrival shares must not all be zero");
        Self {
            rng: Rng64::seed_from_u64(cfg.seed),
            now: 0,
            next_id: 0,
            jobs: cfg.jobs,
            mean_interarrival: cfg.mean_interarrival,
            arrival_shares: cfg.arrival_shares.clone(),
            share_total,
            variants: cfg.variants,
        }
    }
}

impl Iterator for Arrivals {
    type Item = OfferedJob;

    fn next(&mut self) -> Option<OfferedJob> {
        if self.next_id == self.jobs {
            return None;
        }
        let gap = exp_gap(&mut self.rng, self.mean_interarrival);
        self.now = self.now.checked_add(gap).unwrap_or_else(|| {
            panic!(
                "arrival clock overflowed u64 at job {} of {}: {} cycles between arrivals is too \
                 low an offered rate for this many jobs",
                self.next_id, self.jobs, self.mean_interarrival
            )
        });
        let job = OfferedJob {
            id: self.next_id,
            tenant: pick_tenant(&mut self.rng, &self.arrival_shares, self.share_total),
            variant: self.rng.below_usize(self.variants),
            arrival: self.now,
        };
        self.next_id += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.jobs - self.next_id;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Arrivals {}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_util::check::run_cases;

    #[test]
    fn det_ln_matches_libm_closely() {
        run_cases("det-ln", 0x11aa, 256, |rng| {
            // Cover the full unit interval plus wide magnitudes.
            let x = match rng.below(3) {
                0 => rng.f64().max(1e-300),
                1 => rng.f64() * 1e6 + 1e-6,
                _ => (rng.f64() + 1e-12) * 1e-9,
            };
            let got = det_ln(x);
            let want = x.ln();
            assert!((got - want).abs() <= want.abs() * 1e-7 + 1e-7, "x={x} got={got} want={want}");
        });
    }

    #[test]
    fn det_ln_fixed_points() {
        assert_eq!(det_ln(1.0), 0.0);
        assert!((det_ln(std::f64::consts::E) - 1.0).abs() < 1e-9);
        assert!((det_ln(2.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((det_ln(0.5) + std::f64::consts::LN_2).abs() < 1e-12);
    }

    fn unit_config(seed: u64) -> LoadConfig {
        LoadConfig {
            jobs: 2_000,
            mean_interarrival: 10_000,
            tenants: 4,
            arrival_shares: vec![3, 1, 1, 1],
            variants: 8,
            seed,
        }
    }

    fn trace(seed: u64) -> Vec<OfferedJob> {
        Arrivals::new(&unit_config(seed)).collect()
    }

    #[test]
    fn trace_is_deterministic_sorted_and_in_range() {
        let a = trace(7);
        let b = trace(7);
        assert_eq!(a, b, "same seed, same trace");
        let c = trace(8);
        assert_ne!(a, c, "different seed, different trace");
        let mut last = 0;
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.id, i);
            assert!(j.arrival > last, "arrivals strictly increase");
            last = j.arrival;
            assert!(j.tenant < 4);
            assert!(j.variant < 8);
        }
    }

    #[test]
    fn arrivals_know_how_many_are_left() {
        let cfg = unit_config(7);
        let mut it = Arrivals::new(&cfg);
        assert_eq!(it.len(), cfg.jobs);
        let _ = it.next();
        assert_eq!(it.len(), cfg.jobs - 1);
        assert_eq!(it.count(), cfg.jobs - 1);
    }

    #[test]
    #[should_panic(expected = "arrival clock overflowed")]
    fn a_trace_that_cannot_fit_the_cycle_clock_panics_instead_of_wrapping() {
        // What `--rate 1e-30` resolves to; release builds used to wrap
        // the clock and die later on the scheduler's ordering assert.
        let cfg = LoadConfig { mean_interarrival: u64::MAX, ..unit_config(7) };
        let _ = Arrivals::new(&cfg).count();
    }

    #[test]
    fn mean_gap_and_shares_are_roughly_honored() {
        let trace = trace(42);
        let span = trace.last().unwrap().arrival - trace[0].arrival;
        let mean = span as f64 / (trace.len() - 1) as f64;
        assert!(
            (mean - 10_000.0).abs() < 1_000.0,
            "empirical mean gap {mean} far from configured 10000"
        );
        let hot = trace.iter().filter(|j| j.tenant == 0).count() as f64 / trace.len() as f64;
        assert!((hot - 0.5).abs() < 0.05, "hot tenant share {hot} far from 3/6");
    }
}
