//! The shared artifact schema behind `figures diff`.
//!
//! Three kinds of JSON files come out of this repo's tooling: committed
//! counter [`Baseline`](crate::Baseline)s, `figures profile --out`
//! documents (schema `v: 1`), and the analyzer's `figures analyze`
//! reports (`kind: "analysis"`). [`Artifact::parse`] folds all three
//! into one comparable shape — a named-metric list with optional
//! tolerance bands, plus the critical path when the artifact carries
//! one — so the differ never needs to know which tool produced a file.

use crate::baseline::default_band;
use crate::counters::CounterSet;
use gpstream_util::json::JsonParseError;
use gpstream_util::Json;

/// Which tool produced an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A committed counter baseline (`figures profile --save-baseline`).
    Baseline,
    /// A full profile document (`figures profile --out`).
    Profile,
    /// A critical-path analysis report (`figures analyze --out`).
    Analysis,
    /// A serving-latency report (`figures serve --out`).
    Latency,
    /// A serving SLO burn-rate report (`figures serve --slo`).
    Slo,
}

impl ArtifactKind {
    /// Short lower-case name used in diff headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Baseline => "baseline",
            ArtifactKind::Profile => "profile",
            ArtifactKind::Analysis => "analysis",
            ArtifactKind::Latency => "latency",
            ArtifactKind::Slo => "slo",
        }
    }
}

/// One tracked value from an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (shared vocabulary with
    /// [`CounterSet::all_values`](crate::CounterSet::all_values)).
    pub name: String,
    /// Recorded value.
    pub value: f64,
    /// Tolerance band, when the artifact stores one (baselines do).
    pub band: Option<(f64, f64)>,
    /// Raw integer counter (vs a derived rate) — decides the default
    /// band floor when no band is stored.
    pub is_counter: bool,
}

impl Metric {
    /// The band to diff against: the stored one, or the default band
    /// around this artifact's value.
    #[must_use]
    pub fn effective_band(&self) -> (f64, f64) {
        self.band.unwrap_or_else(|| default_band(self.value, self.is_counter))
    }
}

/// One task on an analysis artifact's critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTask {
    /// Task id within the scheduled program.
    pub task: u64,
    /// Op class (`"gather"`, `"scatter"`, `"kernel k0 …"`, …).
    pub class: String,
    /// Display label.
    pub label: String,
    /// Root cause of this task's presence on the path.
    pub cause: String,
    /// Cycles this path segment contributes (edge + task body).
    pub cycles: u64,
}

/// A parsed artifact, ready to diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Which tool produced the file.
    pub kind: ArtifactKind,
    /// Workload the artifact describes.
    pub workload: String,
    /// Every tracked metric, in document order.
    pub metrics: Vec<Metric>,
    /// Critical path, when the artifact is an analysis report.
    pub critical_path: Option<Vec<PathTask>>,
}

fn bad(msg: &str) -> JsonParseError {
    JsonParseError { message: msg.to_string(), offset: 0 }
}

impl Artifact {
    /// Parse any of the three artifact kinds, detecting which one this
    /// is from its structure.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed JSON, or a
    /// synthetic error when the document matches none of the known
    /// artifact shapes (or matches one but is structurally broken).
    pub fn parse(text: &str) -> Result<Artifact, JsonParseError> {
        let doc = Json::parse(text)?;
        if doc.get("kind").and_then(Json::as_str) == Some("analysis") {
            return Self::from_analysis(&doc);
        }
        // Checked before the structural profile match: latency documents
        // also carry `counters` + `derived`.
        if doc.get("kind").and_then(Json::as_str) == Some("latency") {
            return Self::from_doc(ArtifactKind::Latency, "latency artifact", &doc, Vec::new());
        }
        // The per-window burn-rate rows are advisory context the differ
        // does not compare.
        if doc.get("kind").and_then(Json::as_str) == Some("slo") {
            return Self::from_doc(ArtifactKind::Slo, "slo artifact", &doc, Vec::new());
        }
        if doc.get("entries").is_some() {
            return Self::from_baseline(text);
        }
        if doc.get("counters").is_some() && doc.get("derived").is_some() {
            return Self::from_profile(&doc);
        }
        Err(bad("not a recognized artifact (baseline, profile or analysis JSON)"))
    }

    fn from_baseline(text: &str) -> Result<Artifact, JsonParseError> {
        let base = crate::Baseline::from_json(text)?;
        // Everything but a derived metric is an integer counter.
        let derived = CounterSet::default().derived();
        let is_derived = |name: &str| {
            derived.iter().any(|d| d.name == name)
                || name.ends_with("_share")
                || name.ends_with("_speedup")
        };
        let metrics = base
            .entries
            .into_iter()
            .map(|e| Metric {
                is_counter: !is_derived(&e.name),
                band: Some((e.lo, e.hi)),
                name: e.name,
                value: e.value,
            })
            .collect();
        Ok(Artifact {
            kind: ArtifactKind::Baseline,
            workload: base.workload,
            metrics,
            critical_path: None,
        })
    }

    /// The `workload` + `counters` + `derived` body every non-baseline
    /// kind shares, appended to `metrics` (a profile's cycle and phase
    /// counters come first). `what` names the kind in error messages;
    /// only analysis reports may omit `derived`.
    fn from_doc(
        kind: ArtifactKind,
        what: &str,
        doc: &Json,
        mut metrics: Vec<Metric>,
    ) -> Result<Artifact, JsonParseError> {
        let missing = |field: &str| bad(&format!("{what} missing `{field}`"));
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("workload"))?
            .to_string();
        let mut section = |field: &str, is_counter: bool, optional: bool| {
            match doc.get(field).and_then(Json::as_obj) {
                Some(values) => metrics.extend(values.iter().map(|(name, v)| Metric {
                    name: name.clone(),
                    value: v.as_f64().unwrap_or(0.0),
                    band: None,
                    is_counter,
                })),
                None if optional => {}
                None => return Err(missing(field)),
            }
            Ok(())
        };
        section("counters", true, false)?;
        section("derived", false, kind == ArtifactKind::Analysis)?;
        Ok(Artifact { kind, workload, metrics, critical_path: None })
    }

    fn from_profile(doc: &Json) -> Result<Artifact, JsonParseError> {
        let mut metrics = Vec::new();
        let mut counter = |name: String, value: f64| {
            metrics.push(Metric { name, value, band: None, is_counter: true });
        };
        let cycles = doc
            .get("cycles")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("profile missing `cycles`"))?;
        counter("cycles".to_string(), cycles);
        let ctx = doc
            .get("ctx_cycles")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("profile missing `ctx_cycles`"))?;
        for (c, v) in ctx.iter().enumerate() {
            counter(format!("ctx{c}_cycles"), v.as_f64().unwrap_or(0.0));
        }
        if let Some(phases) = doc.get("phases").and_then(Json::as_arr) {
            for (c, p) in phases.iter().enumerate() {
                for key in ["compute", "memory", "idle_wait", "dispatch"] {
                    let v = p.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    counter(format!("ctx{c}_{key}_cycles"), v);
                }
            }
        }
        Self::from_doc(ArtifactKind::Profile, "profile", doc, metrics)
    }

    fn from_analysis(doc: &Json) -> Result<Artifact, JsonParseError> {
        let mut art = Self::from_doc(ArtifactKind::Analysis, "analysis", doc, Vec::new())?;
        let path = doc
            .get("critical_path")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("analysis missing `critical_path`"))?;
        let mut critical_path = Vec::new();
        for seg in path {
            critical_path.push(PathTask {
                task: seg
                    .get("task")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("path segment missing `task`"))?,
                class: seg.get("class").and_then(Json::as_str).unwrap_or("").to_string(),
                label: seg.get("label").and_then(Json::as_str).unwrap_or("").to_string(),
                cause: seg.get("cause").and_then(Json::as_str).unwrap_or("").to_string(),
                cycles: seg.get("cycles").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        art.critical_path = Some(critical_path);
        Ok(art)
    }

    /// Look up one metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_machine::{MemStats, PhaseCycles};

    fn sample_set() -> CounterSet {
        CounterSet {
            cycles: 1000,
            ctx_cycles: vec![1000, 800],
            mem: MemStats { l1_accesses: 100, l1_hits: 90, l1_misses: 10, ..MemStats::default() },
            phases: vec![PhaseCycles::default(); 2],
        }
    }

    /// A `figures profile --out` document for [`sample_set`].
    fn sample_profile_doc() -> String {
        let tree = crate::TopNode {
            name: "unit".into(),
            self_cycles: 0,
            total_cycles: 0,
            children: vec![],
        };
        let prof =
            gpstream_core::exec::sim::SimProfile { interval: 0, tasks: vec![], samples: vec![] };
        crate::report::profile_json("unit", &sample_set(), &tree, &prof).to_doc_string()
    }

    #[test]
    fn baseline_round_trips_through_artifact() {
        let base = crate::Baseline::capture("unit", &sample_set());
        let art = Artifact::parse(&base.to_json().to_string()).unwrap();
        assert_eq!(art.kind, ArtifactKind::Baseline);
        assert_eq!(art.workload, "unit");
        let cycles = art.metric("cycles").unwrap();
        assert_eq!(cycles.value, 1000.0);
        assert!(cycles.band.is_some());
        assert!(cycles.is_counter);
        let rate = art.metric("l1_miss_rate").unwrap();
        assert!(!rate.is_counter);
    }

    #[test]
    fn profile_json_parses_with_all_values_names() {
        let cs = sample_set();
        let art = Artifact::parse(&sample_profile_doc()).unwrap();
        assert_eq!(art.kind, ArtifactKind::Profile);
        // Every name the regression gate tracks is present, same values.
        for (name, value) in cs.all_values() {
            let m = art.metric(&name).unwrap_or_else(|| panic!("missing {name}"));
            assert!((m.value - value).abs() < 1e-9, "{name}: {} vs {value}", m.value);
        }
        assert!(art.metric("cycles").unwrap().effective_band().1 > 1000.0);
    }

    #[test]
    fn latency_documents_parse_by_kind() {
        // Same shape `gpstream-serve` emits (counters + derived would
        // also structurally match a profile; the `kind` tag wins).
        let text = concat!(
            "{\"v\":1,\"kind\":\"latency\",\"workload\":\"ldstcomp\",",
            "\"config\":{\"jobs\":10,\"workers\":2},",
            "\"counters\":{\"jobs_completed\":10,\"total_p99_cycles\":1234},",
            "\"derived\":{\"throughput_jobs_per_sec\":512.5}}"
        );
        let art = Artifact::parse(text).unwrap();
        assert_eq!(art.kind, ArtifactKind::Latency);
        assert_eq!(art.kind.name(), "latency");
        assert_eq!(art.workload, "ldstcomp");
        let p99 = art.metric("total_p99_cycles").unwrap();
        assert_eq!(p99.value, 1234.0);
        assert!(p99.is_counter);
        let thr = art.metric("throughput_jobs_per_sec").unwrap();
        assert!(!thr.is_counter);
        assert!(art.critical_path.is_none());
    }

    #[test]
    fn slo_documents_parse_by_kind() {
        // Same shape `gpstream-telemetry`'s SloReport emits.
        let text = concat!(
            "{\"kind\":\"slo\",\"workload\":\"mix\",",
            "\"config\":{\"window_cycles\":1000,\"targets\":[]},",
            "\"counters\":{\"tenant0_events\":100,\"tenant0_violations\":2,\"tenants_met\":1},",
            "\"derived\":{\"tenant0_burn_rate\":2.0,\"attainment\":0.98},",
            "\"windows\":[]}"
        );
        let art = Artifact::parse(text).unwrap();
        assert_eq!(art.kind, ArtifactKind::Slo);
        assert_eq!(art.kind.name(), "slo");
        assert_eq!(art.workload, "mix");
        let v = art.metric("tenant0_violations").unwrap();
        assert_eq!(v.value, 2.0);
        assert!(v.is_counter);
        let burn = art.metric("tenant0_burn_rate").unwrap();
        assert!(!burn.is_counter);
        assert!(art.critical_path.is_none());
    }

    /// Damaged input files are `Ok` or `Err`, never a panic: every
    /// committed artifact (plus one profile and one analysis document,
    /// which `profiles/` does not hold) cut short, with one byte
    /// replaced, and with a span removed.
    #[test]
    fn damaged_artifacts_never_panic() {
        let mut docs = vec![
            sample_profile_doc().into_bytes(),
            concat!(
                "{\"kind\":\"analysis\",\"workload\":\"unit\",\"counters\":{\"cycles\":10},",
                "\"critical_path\":[{\"task\":0,\"class\":\"gather\",\"label\":\"g\",",
                "\"cause\":\"bus\",\"cycles\":5}]}"
            )
            .into(),
        ];
        let profiles = concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles");
        for dir in std::fs::read_dir(profiles).expect("profiles/ exists") {
            for file in std::fs::read_dir(dir.expect("entry").path()).expect("subdirectory") {
                let path = file.expect("entry").path();
                // `profiles/serve/` also holds a time-series CSV.
                if path.extension().is_some_and(|ext| ext == "json") {
                    docs.push(std::fs::read(path).expect("readable"));
                }
            }
        }
        assert!(docs.len() >= 13, "found only {} documents", docs.len());
        for doc in &docs {
            let text = std::str::from_utf8(doc).expect("committed artifacts are UTF-8");
            Artifact::parse(text).expect("undamaged documents parse");
        }
        gpstream_util::check::run_cases("damaged-artifacts", 0x4c, 64, |rng| {
            for doc in &docs {
                let at = rng.below_usize(doc.len());
                let end = rng.range_usize_inclusive(at, doc.len());
                let mut flipped = doc.clone();
                flipped[at] = rng.next_u32() as u8;
                for damaged in [&doc[..at], &flipped[..], &[&doc[..at], &doc[end..]].concat()] {
                    let text = String::from_utf8_lossy(damaged);
                    let _ = Artifact::parse(&text);
                    let _ = crate::Baseline::from_json(&text);
                }
            }
        });
    }

    #[test]
    fn unknown_documents_are_rejected() {
        assert!(Artifact::parse("{\"v\":1}").is_err());
        assert!(Artifact::parse("not json").is_err());
    }
}
