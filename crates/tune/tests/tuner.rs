//! Integration tests for the autotuner: determinism (byte-identical
//! artifacts, thread-count independence), warm-cache incrementality
//! (zero new simulator runs), and oracle validity of the winner.

use gpstream_tune::artifact::{artifact_string, load_tuned};
use gpstream_tune::eval::{evaluate, Evaluated};
use gpstream_tune::workloads::micro;
use gpstream_tune::{EvalCache, Tuner};
use std::fs;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpstream-tune-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_tuner(threads: usize, cache: EvalCache) -> Tuner {
    Tuner { budget: 14, seed: 7, threads, cache, ..Tuner::default() }
}

#[test]
fn artifacts_are_byte_identical_across_runs_and_thread_counts() {
    let a = {
        let wl = micro("ldstcomp", 1024, 1);
        artifact_string(&small_tuner(1, EvalCache::disabled()).tune(&wl))
    };
    let b = {
        let wl = micro("ldstcomp", 1024, 1);
        artifact_string(&small_tuner(4, EvalCache::disabled()).tune(&wl))
    };
    assert_eq!(a, b, "thread count or rerun changed the artifact bytes");
}

#[test]
fn warm_cache_reruns_perform_zero_simulator_evaluations() {
    let dir = scratch("warm");
    let wl = micro("gatscat", 1024, 1);

    let cold = small_tuner(2, EvalCache::at(&dir)).tune(&wl);
    assert!(cold.sim_runs > 0, "cold run must hit the simulator");
    assert_eq!(cold.cache_hits, 0, "scratch dir must start empty");

    let warm = small_tuner(2, EvalCache::at(&dir)).tune(&wl);
    assert_eq!(warm.sim_runs, 0, "warm cache must answer every evaluation");
    assert_eq!(warm.cache_hits, warm.evaluations);
    assert_eq!(warm.best, cold.best);
    assert_eq!(warm.best_cycles, cold.best_cycles);
    assert_eq!(artifact_string(&warm), artifact_string(&cold));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn winner_is_valid_beats_or_ties_baseline_and_round_trips() {
    let dir = scratch("winner");
    fs::create_dir_all(&dir).unwrap();
    let wl = micro("prodcon", 1024, 1);
    let tuner = Tuner { fast_sim: true, ..small_tuner(4, EvalCache::disabled()) };
    let out = tuner.tune(&wl);

    assert!(out.best_cycles <= out.baseline_cycles);
    assert!(out.evaluations <= tuner.budget);
    assert_eq!(out.rejected, 0, "validate() pruning must keep rejects out of the search");

    // The winner reproduces the functional oracle bit-for-bit when
    // re-evaluated from scratch — on the cycle-stepped reference, so the
    // event-engine search is cross-checked against it.
    match evaluate(&wl, &tuner.base_copts, &tuner.base_mcfg, &out.best, false) {
        Evaluated::Cycles(c) => assert_eq!(c, out.best_cycles, "re-evaluation must agree"),
        Evaluated::Rejected(why) => panic!("winner rejected on re-evaluation: {why}"),
    }

    // And the artifact round-trips into a TunedConfig usable downstream.
    let path = dir.join("winner.json");
    fs::write(&path, gpstream_tune::artifact::artifact_string(&out)).unwrap();
    assert_eq!(load_tuned(&path).unwrap(), out.best);
    let _ = fs::remove_dir_all(&dir);
}
