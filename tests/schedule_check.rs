//! The schedule check against its reference.
//!
//! `ScheduledProgram::check` answers "is every conflicting pair of tasks
//! connected by a dependency path" with per-task floors, a pruned
//! search and split SRF regions. The reference here answers it the
//! direct way: full ancestor bitsets (`Reach`, O(n²/64)), a frontier of
//! whole SRF regions, and every array access compared with every
//! earlier one. On every catalog member, at its default strip and at
//! forced strips up to 8 192 tasks, and on mutants that each drop one
//! dependency, the two accept and reject the same programs.

use gpstream::compiler::{compile, CompilerOptions};
use gpstream::core::hazard::{self, ArrayAccess, DupFree};
use gpstream::core::task::{PortBinding, ScheduledProgram, TaskKind};
use gpstream::core::StreamGraph;
use gpstream_tune::workloads;
use gpstream_util::Rng64;
use std::collections::HashMap;
use std::ops::Range;

/// The largest program the reference is run on: its bitsets take
/// `n²/8` bytes.
const MAX_REFERENCE_TASKS: usize = 8192;

/// Mutants drawn per program.
const MUTANTS: usize = 6;

/// Transitive dependency reachability as one bitset row per task.
struct Reach {
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    /// Ancestor sets: `reaches(i, d)` for every `d` transitively
    /// dependency-before `i`.
    fn build(program: &ScheduledProgram) -> Self {
        let n = program.tasks.len();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for t in &program.tasks {
            let i = t.id.0 as usize;
            for d in &t.deps {
                let d = d.0 as usize;
                let (pre, rest) = bits.split_at_mut(i * words);
                for (w, dw) in rest[..words].iter_mut().zip(&pre[d * words..(d + 1) * words]) {
                    *w |= dw;
                }
                rest[d / 64] |= 1 << (d % 64);
            }
        }
        Self { words, bits }
    }

    fn reaches(&self, later: usize, earlier: usize) -> bool {
        self.bits[later * self.words + earlier / 64] >> (earlier % 64) & 1 == 1
    }
}

fn overlap(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// The SRF strips a task reads and the ones it writes.
fn srf_ports(kind: &TaskKind) -> (Vec<&PortBinding>, Vec<&PortBinding>) {
    match kind {
        TaskKind::Gather { binding, .. } => (vec![], vec![binding]),
        TaskKind::Scatter { binding, .. } => (vec![binding], vec![]),
        TaskKind::Kernel { inputs, outputs, .. } => {
            (inputs.iter().collect(), outputs.iter().collect())
        }
    }
}

/// The reference hazard check: whether every two tasks that conflict in
/// the SRF (by a frontier of whole regions, a partly overwritten region
/// kept whole) or on an array (every access against every earlier one)
/// are connected in `reach`.
fn reference_accepts(program: &ScheduledProgram, graph: &StreamGraph) -> bool {
    let reach = Reach::build(program);
    let ordered = |earlier: usize, later: usize| earlier == later || reach.reaches(later, earlier);
    // (range, writer, readers)
    let mut regions: Vec<(Range<usize>, usize, Vec<usize>)> = Vec::new();
    for t in &program.tasks {
        let i = t.id.0 as usize;
        let (reads, writes) = srf_ports(&t.kind);
        for r in reads.iter().map(|b| b.srf_range()).filter(|r| !r.is_empty()) {
            for (range, writer, readers) in &mut regions {
                if overlap(range, &r) {
                    if !ordered(*writer, i) {
                        return false;
                    }
                    readers.push(i);
                }
            }
        }
        for w in writes.iter().map(|b| b.srf_range()).filter(|w| !w.is_empty()) {
            for (range, writer, readers) in &regions {
                if overlap(range, &w)
                    && !(ordered(*writer, i) && readers.iter().all(|&r| ordered(r, i)))
                {
                    return false;
                }
            }
            regions.retain(|(range, ..)| !(w.start <= range.start && range.end <= w.end));
            regions.push((w, i, Vec::new()));
        }
    }
    let mut dup = DupFree::default();
    let mut seen: HashMap<u32, Vec<(usize, ArrayAccess)>> = HashMap::new();
    for t in &program.tasks {
        let Some(acc) = hazard::array_access(&t.kind, graph) else { continue };
        let i = t.id.0 as usize;
        let earlier = seen.entry(acc.array).or_default();
        for (e, prev) in earlier.iter() {
            if (acc.write || prev.write)
                && hazard::accesses_conflict(&acc, prev, graph, &mut dup)
                && !reach.reaches(i, *e)
            {
                return false;
            }
        }
        earlier.push((i, acc));
    }
    true
}

/// Every catalog member's schedule at its default strip and at halved
/// strips while the program stays within the reference's reach. Halving
/// the strip about doubles the task count, so halving stops at the first
/// program past half the reach rather than compiling one past it.
fn catalog_programs() -> Vec<(String, ScheduledProgram, StreamGraph)> {
    let mut out = Vec::new();
    for name in workloads::CATALOG {
        let wl = workloads::named(name).expect("catalog name resolves");
        let mut strip = None;
        loop {
            let copts = CompilerOptions { strip_items: strip, ..CompilerOptions::paper() };
            let compiled = compile(&wl.graph, &copts).expect("catalog member compiles");
            let (tasks, items) = (compiled.schedule.tasks.len(), compiled.schedule.strip_items);
            if tasks > MAX_REFERENCE_TASKS {
                break;
            }
            let program = ScheduledProgram::clone(&compiled.schedule);
            out.push((format!("{name} strip={items}"), program, compiled.graph));
            if items == 1 || tasks > MAX_REFERENCE_TASKS / 2 {
                break;
            }
            strip = Some(items / 2);
        }
    }
    out
}

#[test]
fn check_agrees_with_full_ancestor_bitsets_on_the_catalog_and_its_mutants() {
    let mut rng = Rng64::seed_from_u64(0x5c4e_d01e);
    let (mut programs, mut rejected) = (0, 0);
    for (label, program, graph) in catalog_programs() {
        assert!(reference_accepts(&program, &graph), "{label}: the reference rejects it");
        let with_deps: Vec<usize> =
            program.tasks.iter().filter(|t| !t.deps.is_empty()).map(|t| t.id.0 as usize).collect();
        for _ in 0..MUTANTS {
            let mut mutant = program.clone();
            let t = with_deps[rng.below_usize(with_deps.len())];
            let deps = &mut mutant.tasks[t].deps;
            let dropped = deps.remove(rng.below_usize(deps.len()));
            let want = reference_accepts(&mutant, &graph);
            let got = mutant.check(&graph);
            assert_eq!(
                got.is_ok(),
                want,
                "{label}: task {t} without dependency {dropped:?}: check says {:?}",
                got.err()
            );
            rejected += usize::from(!want);
        }
        programs += 1;
    }
    assert!(programs >= 3 * workloads::CATALOG.len(), "only {programs} programs");
    assert!(rejected > 0, "no mutant was rejected, so the rejection path went untested");
}
