//! `sim-dense` and `sim-gather`: the event engine resuming a warmed
//! snapshot, the measured iteration only.

use crate::harness::{Checks, Params, PassOut, Workload};
use crate::members::{self, CATALOG_SEED};
use crate::spans::Recorder;
use crate::spec;
use gpstream_compiler::{compile, CompiledProgram, CompilerOptions};
use gpstream_core::exec::sim::{SimExecutor, SimSnapshot};
use gpstream_machine::RunResult;
use gpstream_profile::baseline::Baseline;

/// One member, compiled and warmed.
pub struct Member {
    pub name: &'static str,
    pub wl: gpstream_tune::Workload,
    pub compiled: CompiledProgram,
    pub exec: SimExecutor,
    pub snap: SimSnapshot,
    /// The snapshot's functional pass reproduced the oracle.
    pub oracle_ok: bool,
}

/// The executor every `sim-*` member runs under: the paper's machine
/// and SRF, the catalog's warm-up choice, event or stepped mode.
#[must_use]
pub fn executor(warmup: bool, event: bool) -> SimExecutor {
    SimExecutor::new().with_srf(CompilerOptions::paper().srf).with_warmup(warmup).fast_sim(event)
}

impl Member {
    /// Generate, compute the oracle, compile and capture the warmed
    /// event-mode snapshot.
    pub fn set_up(name: &'static str, seed: u64, rec: &Recorder) -> Self {
        let wl = rec.span("apps", &format!("workload:{name}"), || members::workload(name, seed));
        let compiled = rec.span("compiler", &format!("compile:{name}"), || {
            compile(&wl.graph, &CompilerOptions::paper()).expect("catalog member compiles")
        });
        let exec = executor(wl.warmup, true);
        let mut world = wl.world.clone();
        let snap = rec.span("core", &format!("snapshot:{name}"), || {
            exec.snapshot(&compiled.schedule, &compiled.graph, &mut world)
        });
        let oracle_ok = wl.matches_oracle(&world);
        Member { name, wl, compiled, exec, snap, oracle_ok }
    }

    /// The measured iteration.
    pub fn resume(&self, rec: &Recorder) -> RunResult {
        rec.span("machine", &format!("resume_from:{}", self.name), || {
            self.exec.resume_from(&self.snap).timing
        })
    }
}

pub struct Sim {
    members: Vec<Member>,
    reps: usize,
    /// Each member's result on the first pass.
    first: Vec<Option<RunResult>>,
    seed: u64,
}

impl Sim {
    pub fn set_up(list: &[&'static str], reps: usize, p: &Params, rec: &Recorder) -> Self {
        let members: Vec<Member> = spec::members(list, p.smoke)
            .into_iter()
            .map(|name| Member::set_up(name, p.seed, rec))
            .collect();
        let first = vec![None; members.len()];
        Sim { members, reps: if p.smoke { 1 } else { reps }, first, seed: p.seed }
    }
}

impl Workload for Sim {
    fn pass(&mut self, rec: &Recorder, checks: &mut Checks) -> PassOut {
        let (mut work, mut sim) = (0, Vec::new());
        for (m, first) in self.members.iter().zip(&mut self.first) {
            for _ in 0..self.reps {
                let r = m.resume(rec);
                work += r.cycles;
                let first = first.get_or_insert_with(|| r.clone());
                checks.check(r == *first, || format!("{}: resumes disagree", m.name));
                sim.push(r.cycles);
            }
        }
        PassOut { work, work_secs: None, sim }
    }

    fn verify(&mut self, checks: &mut Checks) {
        for (m, first) in self.members.iter().zip(&self.first) {
            let event = first.as_ref().expect("verify runs after the warm-up pass");
            checks.check(m.oracle_ok, || format!("{}: output arrays miss the oracle", m.name));
            let mut world = m.wl.world.clone();
            let stepped = executor(m.wl.warmup, false)
                .run(&m.compiled.schedule, &m.compiled.graph, &mut world)
                .timing;
            checks.check(stepped == *event, || format!("{}: event != stepped RunResult", m.name));
            if self.seed == CATALOG_SEED {
                check_baseline(m.name, event, checks);
            }
        }
    }

    fn notes(&self) -> Vec<String> {
        self.members
            .iter()
            .zip(&self.first)
            .filter_map(|(m, r)| {
                let r = r.as_ref()?;
                Some(format!(
                    "  {:<14} {:>12} simulated cycles  {:>10} L1 accesses per resume",
                    m.name, r.cycles, r.mem.l1_accesses
                ))
            })
            .collect()
    }
}

/// At the catalog seed the committed counter baseline pins `cycles` and
/// `l1_accesses` exactly (triad-64k has no baseline file).
fn check_baseline(name: &str, result: &RunResult, checks: &mut Checks) {
    let path = format!("{}/../profiles/baselines/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let Ok(text) = std::fs::read_to_string(&path) else { return };
    let baseline = Baseline::from_json(&text);
    checks.check(baseline.is_ok(), || format!("{path} does not parse"));
    let Ok(baseline) = baseline else { return };
    for (counter, got) in [("cycles", result.cycles), ("l1_accesses", result.mem.l1_accesses)] {
        let want = baseline.entries.iter().find(|e| e.name == counter).map(|e| e.value);
        checks.check(want == Some(got as f64), || {
            format!("{name}: {counter} is {got}, the committed baseline says {want:?}")
        });
    }
}
