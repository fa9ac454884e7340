//! `native-exec`: the distributed work queue on real threads, under
//! both wait policies. No simulator involved.

use crate::harness::{Checks, Params, PassOut, Workload};
use crate::members;
use crate::spans::Recorder;
use crate::spec;
use gpstream_compiler::{compile, CompiledProgram, CompilerOptions};
use gpstream_core::exec::native::{NativeExecutor, NativeWaitPolicy};

/// Runs per member and policy in one pass.
const RUNS: usize = 40;

pub const POLICIES: [(&str, NativeWaitPolicy); 2] =
    [("spin", NativeWaitPolicy::Spin), ("park", NativeWaitPolicy::Park)];

pub struct Member {
    pub wl: gpstream_tune::Workload,
    pub compiled: CompiledProgram,
}

impl Member {
    pub fn set_up(name: &str, seed: u64, rec: &Recorder) -> Self {
        let wl = rec.span("apps", &format!("workload:{name}"), || members::workload(name, seed));
        let compiled = rec.span("compiler", &format!("compile:{name}"), || {
            compile(&wl.graph, &CompilerOptions::paper()).expect("catalog member compiles")
        });
        Member { wl, compiled }
    }

    /// One run on the executor's two threads; true when the output bytes
    /// equal the `FunctionalExecutor`'s.
    pub fn run(&self, policy_name: &str, policy: NativeWaitPolicy, rec: &Recorder) -> bool {
        let mut world = self.wl.world.clone();
        let exec =
            NativeExecutor::new().with_srf(CompilerOptions::paper().srf).with_wait_policy(policy);
        let report = rec.span("core", &format!("native.{policy_name}:{}", self.wl.name), || {
            exec.run(&self.compiled.schedule, &self.compiled.graph, &mut world)
        });
        report.tasks == self.compiled.schedule.tasks.len() && self.wl.matches_oracle(&world)
    }
}

pub struct Native {
    members: Vec<Member>,
    runs: usize,
}

impl Native {
    pub fn set_up(p: &Params, rec: &Recorder) -> Self {
        let members = spec::members(&spec::NATIVE_MEMBERS, p.smoke)
            .into_iter()
            .map(|m| Member::set_up(m, p.seed, rec))
            .collect();
        Native { members, runs: if p.smoke { 2 } else { RUNS } }
    }
}

impl Workload for Native {
    fn pass(&mut self, rec: &Recorder, checks: &mut Checks) -> PassOut {
        let mut tasks = 0;
        for (policy_name, policy) in POLICIES {
            for m in &self.members {
                for _ in 0..self.runs {
                    let ok = m.run(policy_name, policy, rec);
                    checks.check(ok, || format!("{} ({policy_name}): wrong output", m.wl.name));
                    tasks += m.compiled.schedule.tasks.len() as u64;
                }
            }
        }
        PassOut { work: tasks, work_secs: None, sim: Vec::new() }
    }

    fn notes(&self) -> Vec<String> {
        self.members
            .iter()
            .map(|m| {
                format!("  {:<14} {} scheduled tasks", m.wl.name, m.compiled.schedule.tasks.len())
            })
            .collect()
    }
}
