//! `tune-explain`: the performance engineer's loop — tune, profile,
//! analyze — on two short-running members.

use crate::harness::{Checks, Params, PassOut, Workload, PROGRAM_THREADS};
use crate::members;
use crate::spans::Recorder;
use crate::spec;
use gpstream_analyze::{analyze_with, render};
use gpstream_bench::profiling::profile_workload;
use gpstream_tune::{EvalCache, TuneOutcome, Tuner};
use std::time::Instant;

/// Candidate evaluations one `tune` call may spend.
pub const BUDGET: usize = 32;

/// The tuner as the workload runs it: cold (no cache), event-mode sims.
#[must_use]
pub fn tuner(p: &Params, cache: EvalCache) -> Tuner {
    let budget = if p.smoke { 8 } else { BUDGET };
    Tuner {
        budget,
        seed: p.seed,
        threads: PROGRAM_THREADS,
        fast_sim: true,
        cache,
        ..Tuner::default()
    }
}

pub struct TuneExplain {
    members: Vec<gpstream_tune::Workload>,
    tuner: Tuner,
    last: Vec<TuneOutcome>,
}

impl TuneExplain {
    pub fn set_up(p: &Params, rec: &Recorder) -> Self {
        let members = spec::members(&spec::EXPLAIN_MEMBERS, p.smoke)
            .into_iter()
            .map(|m| rec.span("apps", &format!("workload:{m}"), || members::workload(m, p.seed)))
            .collect();
        TuneExplain { members, tuner: tuner(p, EvalCache::disabled()), last: Vec::new() }
    }
}

impl Workload for TuneExplain {
    fn pass(&mut self, rec: &Recorder, checks: &mut Checks) -> PassOut {
        let (mut evaluations, mut tune_secs, mut sim) = (0, 0.0, Vec::new());
        let mut outcomes = Vec::new();
        for wl in &self.members {
            let t0 = Instant::now();
            let out = rec.span("tune", &format!("tune:{}", wl.name), || self.tuner.tune(wl));
            tune_secs += t0.elapsed().as_secs_f64();
            evaluations += out.evaluations as u64;
            checks.check(out.rejected == 0, || {
                format!("{}: {} candidates broke the oracle or the compiler", wl.name, out.rejected)
            });
            checks.check(out.best_cycles <= out.baseline_cycles, || {
                format!("{}: the winner is slower than the default heuristic", wl.name)
            });
            // The winner's fingerprint holds every pass to the same `best`.
            sim.extend([out.best_cycles, out.baseline_cycles, out.best.fingerprint()]);
            outcomes.push(out);

            // `profile_workload` takes a catalog name, so it profiles the
            // member at the catalog seed whatever `--seed` says.
            let prof = rec.span("profile", &format!("profile_workload:{}", wl.name), || {
                profile_workload(&wl.name, None, false, true)
            });
            checks.check(prof.is_some(), || format!("{}: not a catalog workload", wl.name));
            sim.extend(prof.map(|p| p.json.len() as u64));

            // `analyze_with` asserts the identity replay and the oracle.
            let doc = rec.span("analyze", &format!("analyze_with:{}", wl.name), || {
                let analysis = analyze_with(wl, true);
                sim.push(analysis.cycles);
                render::to_json(&analysis).to_doc_string()
            });
            sim.push(doc.len() as u64);
        }
        self.last = outcomes;
        PassOut { work: evaluations, work_secs: Some(tune_secs), sim }
    }

    fn notes(&self) -> Vec<String> {
        self.last
            .iter()
            .map(|o| {
                format!(
                    "  {:<14} {} evaluations ({} sim runs), baseline {} -> best {} simulated cycles",
                    o.workload, o.evaluations, o.sim_runs, o.baseline_cycles, o.best_cycles
                )
            })
            .collect()
    }
}
