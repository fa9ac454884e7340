//! Per-tenant service-level objectives with windowed error-budget
//! accounting.
//!
//! An [`SloTarget`] is a latency threshold plus an objective fraction:
//! "`objective` of this tenant's jobs complete within `latency_cycles`".
//! The tracker stamps every completed job with its virtual finish cycle
//! and end-to-end latency, buckets violations into the same tumbling
//! windows the metrics registry uses, and reports the standard SRE
//! bookkeeping, all in virtual time:
//!
//! * **attainment** — the fraction of jobs that met the threshold,
//!   `1 - violations / events`.
//! * **error budget** — the violation fraction the objective permits,
//!   `1 - objective`. A tenant with a 0.99 objective may miss 1% of
//!   jobs before the SLO is broken.
//! * **burn rate** — how fast the budget is being consumed relative to
//!   plan: `(violations / events) / (1 - objective)`. Burn 1.0 spends
//!   the budget exactly; burn 4.0 exhausts it in a quarter of the run.
//! * **budget remaining** — the run-to-date share of budget left,
//!   `1 - violations / (events * (1 - objective))`; negative once the
//!   SLO is already broken.
//!
//! Per-window burn rates localize *when* an SLO went bad — a tenant can
//! end a run inside budget while a single overload window burned at 10x,
//! which is exactly the signal ROADMAP item 4's controller needs.

use gpstream_util::Json;

/// A latency SLO: `objective` of jobs finish within `latency_cycles`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Latency threshold in cycles; a job is a violation when its
    /// latency is strictly greater.
    pub latency_cycles: u64,
    /// Objective fraction in `(0, 1)` — e.g. `0.99` for "99% within
    /// threshold". The error budget is `1 - objective`.
    pub objective: f64,
}

impl SloTarget {
    /// A target with the given threshold and objective.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < objective < 1` (an objective of exactly 1
    /// makes burn rate undefined, and 0 makes the SLO vacuous) or if
    /// the threshold is zero.
    #[must_use]
    pub fn new(latency_cycles: u64, objective: f64) -> Self {
        assert!(latency_cycles > 0, "SLO latency threshold must be nonzero");
        assert!(
            objective > 0.0 && objective < 1.0,
            "SLO objective {objective} must be strictly between 0 and 1"
        );
        Self { latency_cycles, objective }
    }

    /// The error budget: permitted violation fraction, `1 - objective`.
    #[must_use]
    pub fn budget(&self) -> f64 {
        1.0 - self.objective
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    events: u64,
    violations: u64,
}

#[derive(Debug, Clone)]
struct Tenant {
    name: String,
    target: SloTarget,
    total: Tally,
    /// Per window, dense from window 0 through the last one this tenant
    /// had an event in — a record is an index, not a map lookup.
    windows: Vec<Tally>,
}

/// Tracks SLO attainment per tenant, bucketed into tumbling windows of
/// virtual time.
#[derive(Debug, Clone)]
pub struct SloTracker {
    window_cycles: u64,
    tenants: Vec<Tenant>,
}

impl SloTracker {
    /// A tracker whose windows are `window_cycles` long.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    #[must_use]
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "SLO window must be at least one cycle");
        Self { window_cycles, tenants: Vec::new() }
    }

    /// Register a tenant with its target; returns the index `record`
    /// expects. Registration order is the report order.
    pub fn tenant(&mut self, name: &str, target: SloTarget) -> usize {
        self.tenants.push(Tenant {
            name: name.to_string(),
            target,
            total: Tally::default(),
            windows: Vec::new(),
        });
        self.tenants.len() - 1
    }

    /// Record one completed job for `tenant`: it finished at virtual
    /// cycle `finish` with end-to-end latency `latency_cycles`.
    pub fn record(&mut self, tenant: usize, finish: u64, latency_cycles: u64) {
        let t = &mut self.tenants[tenant];
        let violation = latency_cycles > t.target.latency_cycles;
        let w = usize::try_from(finish / self.window_cycles).expect("SLO window index fits usize");
        if w >= t.windows.len() {
            t.windows.resize_with(w + 1, Tally::default);
        }
        let tally = &mut t.windows[w];
        tally.events += 1;
        t.total.events += 1;
        if violation {
            tally.violations += 1;
            t.total.violations += 1;
        }
    }

    /// Materialize the report. Per-tenant window rows are dense from
    /// window 0 through the last window with any event (across all
    /// tenants), so every tenant's rows align.
    ///
    /// # Panics
    ///
    /// Panics if any tenant's per-window tallies fail to sum to its run
    /// totals — the windowed view must be an exact decomposition.
    #[must_use]
    pub fn report(&self) -> SloReport {
        let n_windows = self.tenants.iter().map(|t| t.windows.len()).max().unwrap_or(0);
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let windows: Vec<SloWindow> = (0..n_windows)
                    .map(|w| {
                        let tally = t.windows.get(w).copied().unwrap_or_default();
                        SloWindow {
                            index: w as u64,
                            events: tally.events,
                            violations: tally.violations,
                            burn_rate: burn(tally.events, tally.violations, t.target.budget()),
                        }
                    })
                    .collect();
                let events: u64 = windows.iter().map(|w| w.events).sum();
                let violations: u64 = windows.iter().map(|w| w.violations).sum();
                assert_eq!(events, t.total.events, "tenant {} window events must sum", t.name);
                assert_eq!(
                    violations, t.total.violations,
                    "tenant {} window violations must sum",
                    t.name
                );
                let worst = windows
                    .iter()
                    .filter(|w| w.events > 0)
                    .max_by(|a, b| {
                        a.burn_rate
                            .partial_cmp(&b.burn_rate)
                            .expect("burn rates are finite")
                            // Earliest worst window wins ties, deterministically.
                            .then(b.index.cmp(&a.index))
                    })
                    .map(|w| w.index);
                TenantSlo {
                    tenant: t.name.clone(),
                    target: t.target,
                    events: t.total.events,
                    violations: t.total.violations,
                    attainment: attainment(t.total.events, t.total.violations),
                    burn_rate: burn(t.total.events, t.total.violations, t.target.budget()),
                    budget_remaining: 1.0
                        - burn(t.total.events, t.total.violations, t.target.budget()),
                    worst_window: worst,
                    windows,
                }
            })
            .collect();
        SloReport { window_cycles: self.window_cycles, tenants }
    }
}

fn attainment(events: u64, violations: u64) -> f64 {
    if events == 0 {
        1.0
    } else {
        1.0 - violations as f64 / events as f64
    }
}

fn burn(events: u64, violations: u64, budget: f64) -> f64 {
    if events == 0 {
        0.0
    } else {
        (violations as f64 / events as f64) / budget
    }
}

/// One window's SLO tallies for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    /// Window index.
    pub index: u64,
    /// Jobs that completed in this window.
    pub events: u64,
    /// Of those, jobs over the latency threshold.
    pub violations: u64,
    /// Budget burn rate within the window (0 when no events).
    pub burn_rate: f64,
}

/// Run-total SLO accounting for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant name.
    pub tenant: String,
    /// The target this tenant was held to.
    pub target: SloTarget,
    /// Total completed jobs.
    pub events: u64,
    /// Jobs over the latency threshold.
    pub violations: u64,
    /// Fraction of jobs within threshold (1.0 when no events).
    pub attainment: f64,
    /// Run-total budget burn rate; above 1.0 means the SLO is broken.
    pub burn_rate: f64,
    /// Share of the error budget left; negative once broken.
    pub budget_remaining: f64,
    /// Index of the highest-burn window with any events.
    pub worst_window: Option<u64>,
    /// Dense per-window rows, aligned across tenants.
    pub windows: Vec<SloWindow>,
}

impl TenantSlo {
    /// Whether the run-total objective was met.
    #[must_use]
    pub fn met(&self) -> bool {
        self.burn_rate <= 1.0
    }
}

/// The full SLO report: every tenant, run totals and per-window burn.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Per-tenant accounting, in registration order.
    pub tenants: Vec<TenantSlo>,
}

impl SloReport {
    /// The `slo` artifact document: `kind`/`workload`/`config` plus the
    /// flat `counters` (integer-valued) and `derived` (ratio) objects
    /// that `gpstream_profile::Artifact` diffing expects. `config`
    /// records the targets so a reader can re-derive every number.
    #[must_use]
    pub fn artifact_json(&self, workload: &str, config: &[(&str, Json)]) -> Json {
        let mut cfg: Vec<(String, Json)> =
            config.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
        cfg.push(("window_cycles".to_string(), Json::U64(self.window_cycles)));
        cfg.push((
            "targets".to_string(),
            Json::arr(self.tenants.iter().map(|t| {
                Json::obj([
                    ("tenant", Json::Str(t.tenant.clone())),
                    ("latency_cycles", Json::U64(t.target.latency_cycles)),
                    ("objective", Json::F64(t.target.objective)),
                ])
            })),
        ));

        let mut counters: Vec<(String, Json)> = Vec::new();
        let mut derived: Vec<(String, Json)> = Vec::new();
        let mut events = 0u64;
        let mut violations = 0u64;
        for (i, t) in self.tenants.iter().enumerate() {
            events += t.events;
            violations += t.violations;
            counters.push((format!("tenant{i}_events"), Json::U64(t.events)));
            counters.push((format!("tenant{i}_violations"), Json::U64(t.violations)));
            counters
                .push((format!("tenant{i}_worst_window"), Json::U64(t.worst_window.unwrap_or(0))));
            derived.push((format!("tenant{i}_attainment"), Json::F64(t.attainment)));
            derived.push((format!("tenant{i}_burn_rate"), Json::F64(t.burn_rate)));
            derived.push((format!("tenant{i}_budget_remaining"), Json::F64(t.budget_remaining)));
        }
        let n_windows = self.tenants.first().map_or(0, |t| t.windows.len() as u64);
        counters.push(("events".to_string(), Json::U64(events)));
        counters.push(("violations".to_string(), Json::U64(violations)));
        counters.push(("windows".to_string(), Json::U64(n_windows)));
        counters.push((
            "tenants_met".to_string(),
            Json::U64(self.tenants.iter().filter(|t| t.met()).count() as u64),
        ));
        derived.push(("attainment".to_string(), Json::F64(attainment(events, violations))));

        let windows = Json::arr((0..n_windows).map(|w| {
            Json::obj([
                ("window", Json::U64(w)),
                (
                    "tenants",
                    Json::arr(self.tenants.iter().map(|t| {
                        let row = &t.windows[usize::try_from(w).expect("window index fits usize")];
                        Json::obj([
                            ("events", Json::U64(row.events)),
                            ("violations", Json::U64(row.violations)),
                            ("burn_rate", Json::F64(row.burn_rate)),
                        ])
                    })),
                ),
            ])
        }));

        Json::obj([
            ("kind", Json::from("slo")),
            ("workload", Json::from(workload)),
            ("config", Json::obj(cfg)),
            ("counters", Json::obj(counters)),
            ("derived", Json::obj(derived)),
            ("windows", windows),
        ])
    }

    /// Human-readable report block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("SLO report (window = {} cycles)\n", self.window_cycles));
        for t in &self.tenants {
            let status = if t.met() { "met" } else { "BROKEN" };
            out.push_str(&format!(
                "  {:<10} target p{:.1} <= {} cycles | events {:>7} violations {:>6} | \
                 attainment {:.4} burn {:>6.2}x budget left {:>7.2} | {}\n",
                t.tenant,
                t.target.objective * 100.0,
                t.target.latency_cycles,
                t.events,
                t.violations,
                t.attainment,
                t.burn_rate,
                t.budget_remaining,
                status,
            ));
            if let Some(w) = t.worst_window {
                let row = &t.windows[usize::try_from(w).expect("window index fits usize")];
                out.push_str(&format!(
                    "  {:<10} worst window {} ({}..{} cycles): {} / {} over, burn {:.2}x\n",
                    "",
                    w,
                    w * self.window_cycles,
                    (w + 1) * self.window_cycles,
                    row.violations,
                    row.events,
                    row.burn_rate,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_one(objective: f64) -> (SloTracker, usize) {
        let mut s = SloTracker::new(1000);
        let t = s.tenant("t0", SloTarget::new(100, objective));
        (s, t)
    }

    #[test]
    fn clean_tenant_has_full_budget() {
        let (mut s, t) = tracker_one(0.99);
        for i in 0..50 {
            s.record(t, i * 10, 100); // exactly at threshold: not a violation
        }
        let r = s.report();
        let t0 = &r.tenants[0];
        assert_eq!((t0.events, t0.violations), (50, 0));
        assert_eq!(t0.attainment, 1.0);
        assert_eq!(t0.burn_rate, 0.0);
        assert_eq!(t0.budget_remaining, 1.0);
        assert!(r.tenants.iter().all(TenantSlo::met));
    }

    #[test]
    fn burn_rate_one_spends_budget_exactly() {
        let (mut s, t) = tracker_one(0.99);
        // 1 violation in 100 events burns a 1% budget at exactly 1x.
        for i in 0..100u64 {
            s.record(t, i, if i == 7 { 101 } else { 1 });
        }
        let t0 = &s.report().tenants[0];
        assert!((t0.burn_rate - 1.0).abs() < 1e-12);
        assert!(t0.budget_remaining.abs() < 1e-12);
        assert!(t0.met());
        assert!((t0.attainment - 0.99).abs() < 1e-12);
    }

    #[test]
    fn broken_slo_goes_negative_and_worst_window_localizes() {
        let (mut s, t) = tracker_one(0.9);
        // Window 0: clean. Window 2: every job a violation.
        for i in 0..10 {
            s.record(t, i, 50);
        }
        for i in 0..10 {
            s.record(t, 2000 + i, 500);
        }
        let r = s.report();
        let t0 = &r.tenants[0];
        assert_eq!((t0.events, t0.violations), (20, 10));
        assert!(!t0.met());
        assert!(t0.budget_remaining < 0.0);
        assert_eq!(t0.worst_window, Some(2));
        assert_eq!(t0.windows.len(), 3);
        assert_eq!(t0.windows[1].events, 0);
        assert_eq!(t0.windows[1].burn_rate, 0.0);
        assert!((t0.windows[2].burn_rate - 10.0).abs() < 1e-12);
    }

    #[test]
    fn window_tallies_decompose_totals_and_align_across_tenants() {
        let mut s = SloTracker::new(100);
        let a = s.tenant("a", SloTarget::new(10, 0.99));
        let b = s.tenant("b", SloTarget::new(10, 0.95));
        s.record(a, 950, 20); // a's only event, window 9
        s.record(b, 10, 5);
        let r = s.report();
        assert_eq!(r.tenants[0].windows.len(), 10);
        assert_eq!(r.tenants[1].windows.len(), 10);
        assert_eq!(r.tenants[0].worst_window, Some(9));
        assert_eq!(r.tenants[1].worst_window, Some(0));
    }

    #[test]
    #[should_panic(expected = "window events must sum")]
    fn an_event_lost_from_its_window_fails_the_report() {
        let (mut s, t) = tracker_one(0.99);
        s.record(t, 2_500, 400);
        s.tenants[t].windows.clear(); // the window's tally goes missing
        let _ = s.report();
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn objective_of_one_is_rejected() {
        let _ = SloTarget::new(100, 1.0);
    }

    #[test]
    fn artifact_json_is_deterministic_and_parses() {
        let mut s = SloTracker::new(500);
        let a = s.tenant("a", SloTarget::new(100, 0.99));
        let b = s.tenant("b", SloTarget::new(200, 0.999));
        for i in 0..200u64 {
            s.record(a, i * 7, 90 + i % 20);
            s.record(b, i * 7 + 3, 150);
        }
        let r = s.report();
        let doc = r.artifact_json("mix", &[("jobs", Json::U64(400))]).to_doc_string();
        assert_eq!(doc, r.artifact_json("mix", &[("jobs", Json::U64(400))]).to_doc_string());
        let parsed = Json::parse(&doc).expect("slo artifact must parse");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("slo"));
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("tenant0_events")).and_then(Json::as_u64),
            Some(200)
        );
        assert!(parsed.get("derived").and_then(|d| d.get("attainment")).is_some());
        assert!(r.render().contains("worst window"));
    }
}
