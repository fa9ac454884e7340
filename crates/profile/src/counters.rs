//! The typed counter set and its derived metrics.
//!
//! [`CounterSet`] packages one run's cycle counts, memory-system
//! counters and phase breakdown, and computes the derived metrics the
//! paper reasons with (miss rates, bus occupancy, prefetch coverage).
//! Counter names come from the machine's own registry
//! ([`MemStats::fields`]), so a counter added to the model shows up in
//! every report and baseline automatically.

use gpstream_machine::{MemStats, PhaseCycles, RunResult};
use gpstream_util::Json;

/// One run's complete counter state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSet {
    /// Wall-clock cycles (includes the final bus drain).
    pub cycles: u64,
    /// Per-context retire cycles (one entry per machine context).
    pub ctx_cycles: Vec<u64>,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Per-context phase breakdown (one entry per machine context).
    pub phases: Vec<PhaseCycles>,
}

/// One derived metric: a named ratio computed from the raw counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedMetric {
    /// Metric name (stable, used in baselines).
    pub name: &'static str,
    /// Value (a rate in `[0, 1]` unless the name says otherwise).
    pub value: f64,
}

/// `n / d`, zero when the denominator is zero (a metric over an event
/// that never happened is reported as 0, not NaN).
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl From<&RunResult> for CounterSet {
    fn from(r: &RunResult) -> Self {
        CounterSet {
            cycles: r.cycles,
            ctx_cycles: r.ctx_cycles.clone(),
            mem: r.mem,
            phases: r.phases.clone(),
        }
    }
}

impl CounterSet {
    /// The derived metrics, in a stable order.
    ///
    /// `overlap_efficiency` is the fraction of memory-phase cycles hidden
    /// behind concurrent work on the other context: with per-context
    /// busy time `busy = Σ (compute + memory + dispatch)`, everything
    /// beyond the wall clock ran concurrently, so
    /// `hidden = min(busy − cycles, memory_cycles)` and the metric is
    /// `hidden / memory_cycles` — 0 when nothing overlapped, 1 when the
    /// memory phases were fully covered by the compute context.
    #[must_use]
    pub fn derived(&self) -> Vec<DerivedMetric> {
        let m = &self.mem;
        let tlb_accesses = m.tlb_hits + m.tlb_misses;
        let mem_cycles: u64 = self.phases.iter().map(|p| p.memory).sum();
        let busy: u64 = self.phases.iter().map(|p| p.compute + p.memory + p.dispatch).sum();
        let hidden = busy.saturating_sub(self.cycles).min(mem_cycles);
        let mut out = vec![
            DerivedMetric { name: "l1_miss_rate", value: ratio(m.l1_misses, m.l1_accesses) },
            DerivedMetric { name: "l2_miss_rate", value: ratio(m.l2_misses, m.l2_accesses) },
            DerivedMetric { name: "dtlb_miss_rate", value: ratio(m.tlb_misses, tlb_accesses) },
            DerivedMetric {
                name: "walk_cycles_per_miss",
                value: ratio(m.walk_cycles, m.tlb_misses),
            },
            DerivedMetric { name: "bus_occupancy", value: ratio(m.bus_busy_cycles, self.cycles) },
            DerivedMetric { name: "bus_bytes_per_cycle", value: ratio(m.bus_bytes, self.cycles) },
            DerivedMetric {
                name: "hw_prefetch_coverage",
                value: ratio(m.hw_prefetch_covered, m.l2_misses),
            },
            DerivedMetric {
                name: "sw_prefetch_coverage",
                value: ratio(m.sw_prefetch_covered, m.l2_misses),
            },
            DerivedMetric {
                name: "prefetch_coverage",
                value: ratio(m.hw_prefetch_covered + m.sw_prefetch_covered, m.l2_misses),
            },
            DerivedMetric { name: "srf_eviction_rate", value: ratio(m.srf_evictions, m.l2_misses) },
            DerivedMetric { name: "writeback_rate", value: ratio(m.writebacks, m.l2_misses) },
        ];
        out.push(DerivedMetric { name: "overlap_efficiency", value: ratio(hidden, mem_cycles) });
        out
    }

    /// Every integer-valued counter as a `(name, value)` pair, in a
    /// stable order: cycles, per-context cycles, per-context phases, then
    /// the machine's counter registry.
    #[must_use]
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let mut out = vec![("cycles".to_string(), self.cycles)];
        for (c, v) in self.ctx_cycles.iter().enumerate() {
            out.push((format!("ctx{c}_cycles"), *v));
        }
        for (c, p) in self.phases.iter().enumerate() {
            out.push((format!("ctx{c}_compute_cycles"), p.compute));
            out.push((format!("ctx{c}_memory_cycles"), p.memory));
            out.push((format!("ctx{c}_idle_wait_cycles"), p.idle_wait));
            out.push((format!("ctx{c}_dispatch_cycles"), p.dispatch));
        }
        for (name, v) in self.mem.fields() {
            out.push((name.to_string(), v));
        }
        out
    }

    /// Every value the regression gate tracks: the counters (as `f64`)
    /// followed by the derived metrics.
    #[must_use]
    pub fn all_values(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> =
            self.counter_values().into_iter().map(|(n, v)| (n, v as f64)).collect();
        out.extend(self.derived().into_iter().map(|d| (d.name.to_string(), d.value)));
        out
    }
}

/// The raw memory-system counters as a deterministic JSON object, in
/// registry order.
#[must_use]
pub fn mem_stats_json(m: &MemStats) -> Json {
    Json::obj(m.fields().map(|(n, v)| (n, Json::U64(v))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSet {
        CounterSet {
            cycles: 1000,
            ctx_cycles: vec![1000, 800],
            mem: MemStats {
                l1_accesses: 100,
                l1_hits: 90,
                l1_misses: 10,
                l2_accesses: 10,
                l2_hits: 6,
                l2_misses: 4,
                tlb_hits: 96,
                tlb_misses: 4,
                walk_cycles: 2144,
                hw_prefetch_covered: 1,
                sw_prefetch_covered: 2,
                bus_busy_cycles: 250,
                bus_bytes: 512,
                ..MemStats::default()
            },
            phases: vec![
                PhaseCycles { compute: 900, memory: 0, idle_wait: 50, dispatch: 50 },
                PhaseCycles { compute: 0, memory: 700, idle_wait: 100, dispatch: 0 },
            ],
        }
    }

    #[test]
    fn derived_rates() {
        let d = sample().derived();
        let get = |n: &str| d.iter().find(|m| m.name == n).unwrap().value;
        assert!((get("l1_miss_rate") - 0.1).abs() < 1e-12);
        assert!((get("l2_miss_rate") - 0.4).abs() < 1e-12);
        assert!((get("dtlb_miss_rate") - 0.04).abs() < 1e-12);
        assert!((get("walk_cycles_per_miss") - 536.0).abs() < 1e-12);
        assert!((get("bus_occupancy") - 0.25).abs() < 1e-12);
        assert!((get("prefetch_coverage") - 0.75).abs() < 1e-12);
        // busy = 900+50 + 700 = 1650; hidden = min(650, 700) = 650.
        assert!((get("overlap_efficiency") - 650.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_zero() {
        let cs = CounterSet {
            cycles: 0,
            ctx_cycles: vec![0, 0],
            mem: MemStats::default(),
            phases: vec![PhaseCycles::default(); 2],
        };
        for m in cs.derived() {
            assert_eq!(m.value, 0.0, "{} must not be NaN", m.name);
        }
    }

    #[test]
    fn all_values_covers_counters_and_derived() {
        let cs = sample();
        let all = cs.all_values();
        assert_eq!(all.len(), cs.counter_values().len() + cs.derived().len());
        assert!(all.iter().any(|(n, _)| n == "cycles"));
        assert!(all.iter().any(|(n, _)| n == "overlap_efficiency"));
        // Names are unique — the gate keys on them.
        let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
