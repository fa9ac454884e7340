//! The exported `TunedConfig` artifact.
//!
//! One JSON document per tuning run: the winning knob vector, the
//! baseline it beat, both cycle counts, and the fingerprints that pin
//! which graph and machine the result is valid for. The serialization is
//! deterministic — no timestamps, no run statistics that vary between
//! cold and warm caches — so re-tuning an unchanged workload produces a
//! byte-identical file (asserted by the determinism tests).

use crate::search::TuneOutcome;
use gpstream_core::TunedConfig;
use gpstream_util::Json;
use std::fs;
use std::path::Path;

/// The artifact as a JSON value.
#[must_use]
pub fn artifact_json(outcome: &TuneOutcome) -> Json {
    Json::obj([
        ("v", Json::U64(1)),
        ("workload", Json::from(outcome.workload.as_str())),
        ("graph_fp", Json::Str(format!("{:016x}", outcome.graph_fp))),
        ("machine_fp", Json::Str(format!("{:016x}", outcome.machine_fp))),
        ("strategy", Json::from(outcome.strategy)),
        ("budget", Json::U64(outcome.budget as u64)),
        ("seed", Json::U64(outcome.seed)),
        ("evaluations", Json::U64(outcome.evaluations as u64)),
        ("baseline_cycles", Json::U64(outcome.baseline_cycles)),
        ("baseline", outcome.baseline.to_json()),
        ("best_cycles", Json::U64(outcome.best_cycles)),
        ("best", outcome.best.to_json()),
        (
            "winner_counters",
            Json::obj(outcome.winner_profile.iter().map(|(n, v)| (n.clone(), Json::F64(*v)))),
        ),
    ])
}

/// The artifact as its canonical on-disk byte string.
#[must_use]
pub fn artifact_string(outcome: &TuneOutcome) -> String {
    let mut s = artifact_json(outcome).to_string();
    s.push('\n');
    s
}

/// Load the winning [`TunedConfig`] back from an artifact file, ready to
/// feed to `CompilerOptions::apply_tuned` / `SimExecutor::with_tuned`.
///
/// # Errors
///
/// Describes the first I/O, parse, or schema problem encountered.
pub fn load_tuned(path: &Path) -> Result<TunedConfig, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    match doc.get("v").and_then(Json::as_u64) {
        Some(1) => {}
        other => return Err(format!("unsupported artifact version {other:?}")),
    }
    TunedConfig::from_json(doc.get("best").ok_or("missing field `best`")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_machine::MachineConfig;

    fn sample_outcome() -> TuneOutcome {
        let mcfg = MachineConfig::prescott();
        let baseline = TunedConfig::default_heuristic(&mcfg);
        TuneOutcome {
            workload: "unit".to_string(),
            strategy: "grid",
            baseline,
            baseline_cycles: 2000,
            best: TunedConfig { sw_pf_depth: 16, ..baseline },
            best_cycles: 1500,
            evaluations: 7,
            sim_runs: 7,
            cache_hits: 0,
            rejected: 0,
            graph_fp: 0xdead_beef,
            machine_fp: 0x0bad_cafe,
            budget: 8,
            seed: 42,
            winner_profile: vec![
                ("cycles".to_string(), 1500.0),
                ("l1_miss_rate".to_string(), 0.25),
            ],
        }
    }

    #[test]
    fn artifact_round_trips_and_excludes_run_stats() {
        let out = sample_outcome();
        let text = artifact_string(&out);
        assert!(!text.contains("sim_runs"), "cache-dependent stats would break determinism");
        assert!(!text.contains("cache_hits"));
        let dir =
            std::env::temp_dir().join(format!("gpstream-tune-artifact-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.json");
        fs::write(&path, text).unwrap();
        let tuned = load_tuned(&path).unwrap();
        assert_eq!(tuned, out.best);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_wrong_version() {
        let dir =
            std::env::temp_dir().join(format!("gpstream-tune-artifact-v-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        fs::write(&path, "{\"v\":9}").unwrap();
        let err = load_tuned(&path).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
