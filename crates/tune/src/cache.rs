//! On-disk memoization of simulator evaluations.
//!
//! Every candidate evaluation is deterministic, so its result is stored
//! under a content-addressed key (see [`crate::eval::cache_key`]) as one
//! small JSON file. Re-tuning an unchanged (workload, machine, knob)
//! combination is then incremental: a warm cache answers every point
//! without touching the simulator.

use gpstream_util::Json;
use std::fs;
use std::path::PathBuf;

/// A memoized evaluation: the simulated cycle count, or `None` for a
/// rejected candidate (compile error or oracle mismatch). Rejections are
/// deterministic too, so they are worth remembering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedEval {
    /// Cycles of the run, `None` if the candidate was rejected.
    pub cycles: Option<u64>,
}

/// Content-addressed evaluation cache rooted at a directory, one JSON
/// file per key. [`EvalCache::disabled`] makes every lookup miss and
/// every store a no-op.
#[derive(Debug, Clone)]
pub struct EvalCache {
    dir: Option<PathBuf>,
}

impl EvalCache {
    /// A cache that never hits and never writes.
    #[must_use]
    pub fn disabled() -> Self {
        EvalCache { dir: None }
    }

    /// A cache rooted at `dir` (created on first store).
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        EvalCache { dir: Some(dir.into()) }
    }

    fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    /// Look a key up. Missing, unreadable or malformed entries are
    /// misses (the evaluation simply re-runs and overwrites them).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CachedEval> {
        let text = fs::read_to_string(self.path_for(key)?).ok()?;
        let v = Json::parse(&text).ok()?;
        if v.get("v")?.as_u64()? != 1 {
            return None;
        }
        match v.get("cycles")? {
            Json::Null => Some(CachedEval { cycles: None }),
            other => Some(CachedEval { cycles: Some(other.as_u64()?) }),
        }
    }

    /// Store a result. Failures are reported on stderr but never abort
    /// the tuning run — the cache is an accelerator, not a dependency.
    pub fn put(&self, key: &str, eval: CachedEval) {
        let Some(path) = self.path_for(key) else { return };
        let dir = self.dir.as_ref().expect("path implies dir");
        let doc =
            Json::obj([("v", Json::U64(1)), ("cycles", eval.cycles.map_or(Json::Null, Json::U64))]);
        let write = fs::create_dir_all(dir).and_then(|()| fs::write(&path, doc.to_string()));
        if let Err(e) = write {
            eprintln!("warning: failed to write tune cache entry {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpstream-tune-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = EvalCache::disabled();
        assert!(c.dir.is_none());
        c.put("abc", CachedEval { cycles: Some(1) });
        assert_eq!(c.get("abc"), None);
    }

    #[test]
    fn round_trips_hits_and_rejections() {
        let dir = scratch("roundtrip");
        let c = EvalCache::at(&dir);
        assert_eq!(c.get("k1"), None, "cold cache misses");
        c.put("k1", CachedEval { cycles: Some(12345) });
        c.put("k2", CachedEval { cycles: None });
        assert_eq!(c.get("k1"), Some(CachedEval { cycles: Some(12345) }));
        assert_eq!(c.get("k2"), Some(CachedEval { cycles: None }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_entries_are_misses() {
        let dir = scratch("malformed");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("bad.json"), "{not json").unwrap();
        fs::write(dir.join("wrongv.json"), "{\"v\":2,\"cycles\":3}").unwrap();
        let c = EvalCache::at(&dir);
        assert_eq!(c.get("bad"), None);
        assert_eq!(c.get("wrongv"), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
