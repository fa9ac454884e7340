//! The schedules the compiler emits, and the check that proves them.
//!
//! The compiler's output is pinned row by row: a fingerprint of every
//! task and dependency per (graph, options), committed in
//! `tests/golden/schedules.txt`, and a forced strip size is kept or
//! refused, never shrunk.
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

/// A forced strip size is kept or refused, never halved: on every named
/// graph, at each strip size the tuner offers, single- or
/// double-buffered, fused or not, `compile` either refuses the size
/// with `StripTooLarge` or schedules exactly that many items per strip,
/// and `validate` (what the tuner prunes with) says the same. The points
/// whose per-phase working set overflows the SRF although a global-pace
/// estimate fits are refused.
#[test]
fn forced_strips_are_kept_or_refused() {
    use gpstream::compiler::CompileError;
    use gpstream_tune::search::STRIP_CANDIDATES;
    let mut refused = Vec::new();
    for name in NAMED {
        let graph = workloads::named(name).expect("a named graph").graph;
        for strip in STRIP_CANDIDATES {
            for double_buffer in [true, false] {
                for fuse_kernels in [true, false] {
                    let copts = CompilerOptions {
                        strip_items: Some(strip),
                        double_buffer,
                        fuse_kernels,
                        ..CompilerOptions::paper()
                    };
                    let point =
                        format!("{name} strip={strip} db={double_buffer} fused={fuse_kernels}");
                    // Fusion on a graph without a fusable pair is a no-op.
                    let validated = match copts.validate(&graph) {
                        Err(CompileError::NoFusablePair) => {
                            CompilerOptions { fuse_kernels: false, ..copts.clone() }
                                .validate(&graph)
                        }
                        v => v,
                    };
                    match compile(&graph, &copts) {
                        Ok(c) => {
                            assert_eq!(c.schedule.strip_items, strip, "{point}");
                            assert!(validated.is_ok(), "{point}: validate refuses {validated:?}");
                        }
                        Err(e @ CompileError::StripTooLarge { strip_items, .. }) => {
                            assert_eq!(strip_items, strip, "{point}");
                            assert_eq!(validated, Err(e), "{point}");
                            refused.push(point);
                        }
                        Err(e) => panic!("{point}: {e}"),
                    }
                }
            }
        }
    }
    for point in [
        "fem-euler-lin strip=1024 db=true fused=false",
        "cdp-4n-4096 strip=4096 db=true fused=true",
        "cdp-4n-4096 strip=4096 db=true fused=false",
        "cdp-6n-8192 strip=4096 db=true fused=true",
        "cdp-6n-8192 strip=4096 db=true fused=false",
    ] {
        assert!(refused.iter().any(|r| r == point), "{point} is not refused");
    }
}

/// Where the schedule fingerprints live. Regenerate with
///
/// ```sh
/// UPDATE_GOLDEN=1 cargo test --release --test schedule_check -- --include-ignored \
///     --test-threads=1 fingerprints
/// ```
///
/// after a deliberate schedule change; an unexplained diff is a change
/// to what the compiler emits.
fn fingerprints_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedules.txt")
}

/// The 11 graphs `workloads::named` knows.
const NAMED: [&str; 11] = [
    "ldstcomp",
    "gatscat",
    "prodcon",
    "fem-euler-lin",
    "fem-euler-quad",
    "fem-mhd-lin",
    "fem-mhd-quad",
    "cdp-4n-4096",
    "cdp-6n-8192",
    "neo-16384",
    "spas-32000",
];

/// A micro-benchmark builder, `(n, comp) -> bench`.
type MicroBuilder = fn(usize, usize) -> gpstream::microbench::kernels::Microbench;

/// One fingerprinted graph: a label, how to build it, and the
/// `(tag, options)` it is scheduled under.
struct Case {
    label: String,
    build: Box<dyn Fn() -> StreamGraph>,
    options: Vec<(&'static str, CompilerOptions)>,
}

/// The paper's options and the three that each change one knob.
fn knob_options() -> Vec<(&'static str, CompilerOptions)> {
    let paper = CompilerOptions::paper();
    vec![
        ("paper", paper.clone()),
        ("strip=16", CompilerOptions { strip_items: Some(16), ..paper.clone() }),
        ("single-buffer", CompilerOptions { double_buffer: false, ..paper.clone() }),
        ("unfused", CompilerOptions { fuse_kernels: false, ..paper }),
    ]
}

/// The tier-1 rows: every named graph under each knob, and every serve
/// variant under the paper's options.
fn tier1_cases() -> Vec<Case> {
    use gpstream::microbench::kernels;
    use gpstream_serve::job::{CHUNK_SIZES, JOB_COMP};
    let mut cases: Vec<Case> = NAMED
        .iter()
        .map(|&name| Case {
            label: name.to_string(),
            build: Box::new(move || workloads::named(name).expect("a named graph").graph),
            options: knob_options(),
        })
        .collect();
    let classes: [(&str, MicroBuilder); 3] = [
        ("ldstcomp", kernels::ld_st_comp),
        ("gatscat", kernels::gat_scat_comp),
        ("prodcon", kernels::prod_con),
    ];
    for (class, build) in classes {
        for n in CHUNK_SIZES {
            cases.push(Case {
                label: format!("serve/{class}-n{n}"),
                build: Box::new(move || build(n, JOB_COMP).graph),
                options: vec![("paper", CompilerOptions::paper())],
            });
        }
    }
    cases
}

/// The slower rows: the graphs the figures compile (Figures 9 and 11,
/// the issue-order ablation, the single-context and enhanced-machine
/// comparisons), and one-item strips for the three largest members.
fn ignored_cases() -> Vec<Case> {
    use gpstream::apps::{cdp, fem, neo, spas};
    use gpstream::microbench::kernels;
    const SEED: u64 = 0x6a79_2005;
    let paper = || vec![("paper", CompilerOptions::paper())];
    let mut cases = Vec::new();
    let micros: [(&str, MicroBuilder); 3] = [
        ("LD-ST-COMP", kernels::ld_st_comp),
        ("GAT-SCAT-COMP", kernels::gat_scat_comp),
        ("PROD-CON", kernels::prod_con),
    ];
    for (name, build) in micros {
        for comp in kernels::FIG9_COMPS {
            cases.push(Case {
                label: format!("fig9/{name}-c{comp}"),
                build: Box::new(move || build(kernels::FIG9_N, comp).graph),
                options: paper(),
            });
        }
        cases.push(Case {
            label: format!("micro-8192/{name}"),
            build: Box::new(move || build(8192, 4).graph),
            options: paper(),
        });
    }
    for c in fem::CONFIGS {
        cases.push(Case {
            label: format!("fig11a/{}", c.name),
            build: Box::new(move || fem::fem_bench(c, fem::PAPER_CELLS, SEED).graph),
            options: paper(),
        });
    }
    cases.push(Case {
        label: "ooo/fem-600".to_string(),
        build: Box::new(|| fem::fem_bench(fem::CONFIGS[0], 600, SEED).graph),
        options: paper(),
    });
    for c in cdp::CONFIGS {
        cases.push(Case {
            label: format!("fig11b/{}", c.name),
            build: Box::new(move || cdp::cdp_bench(c, SEED).graph),
            options: paper(),
        });
    }
    for n in [4096, 16384, 65536] {
        cases.push(Case {
            label: format!("fig11c/neo-{n}"),
            build: Box::new(move || neo::neo_bench(n, SEED).graph),
            options: paper(),
        });
    }
    for rows in [2_000, 8_000, 32_000, 131_072] {
        cases.push(Case {
            label: format!("fig11d/spas-{rows}"),
            build: Box::new(move || spas::spas_bench(rows, spas::PAPER_NNZ_PER_ROW, SEED).graph),
            options: paper(),
        });
    }
    for name in ["fem-mhd-quad", "cdp-6n-8192", "spas-32000"] {
        cases.push(Case {
            label: name.to_string(),
            build: Box::new(move || workloads::named(name).expect("a named graph").graph),
            options: vec![(
                "strip=1",
                CompilerOptions { strip_items: Some(1), ..CompilerOptions::paper() },
            )],
        });
    }
    cases
}

/// The fingerprint line of one schedule: its task count, and a hash of
/// every task's kind, bindings, `nt` flags, strip and dependencies plus
/// the program's SRF size, strip count and strip size.
fn fingerprint_line(label: &str, tag: &str, program: &ScheduledProgram) -> String {
    let mut fp = gpstream_util::Fingerprint::new("schedule");
    let binding = |fp: &mut gpstream_util::Fingerprint, b: &PortBinding| {
        fp.u64(u64::from(b.stream.0)).usize(b.srf_offset).usize(b.elems.start);
        fp.usize(b.elems.end).usize(b.elem_bytes);
    };
    for t in &program.tasks {
        match &t.kind {
            TaskKind::Gather { binding: b, nt } => {
                fp.str("gather").bool(*nt);
                binding(&mut fp, b);
            }
            TaskKind::Scatter { binding: b, nt } => {
                fp.str("scatter").bool(*nt);
                binding(&mut fp, b);
            }
            TaskKind::Kernel { kernel, items, inputs, outputs } => {
                fp.str("kernel").u64(u64::from(kernel.0)).usize(items.start).usize(items.end);
                fp.usize(inputs.len());
                inputs.iter().for_each(|b| binding(&mut fp, b));
                fp.usize(outputs.len());
                outputs.iter().for_each(|b| binding(&mut fp, b));
            }
        }
        fp.u64(u64::from(t.strip));
        fp.u32s(&t.deps.iter().map(|d| d.0).collect::<Vec<u32>>());
    }
    fp.usize(program.srf_bytes).u64(u64::from(program.n_strips)).usize(program.strip_items);
    format!("{label} {tag} tasks={} fp={}", program.tasks.len(), fp.hex())
}

/// Compile every case and compare its lines with the committed ones
/// (or, under `UPDATE_GOLDEN`, write them in place of the old ones).
/// A row's label and tag name it; rows of the other test are kept.
fn check_fingerprints(cases: Vec<Case>) {
    let mut lines = Vec::new();
    for case in cases {
        let graph = (case.build)();
        for (tag, copts) in &case.options {
            let compiled = compile(&graph, copts).expect("a fingerprinted graph compiles");
            lines.push(fingerprint_line(&case.label, tag, &compiled.schedule));
        }
    }
    let key = |line: &str| line.split(" tasks=").next().unwrap_or(line).to_string();
    let path = fingerprints_path();
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let ours: std::collections::HashSet<String> = lines.iter().map(|l| key(l)).collect();
        let mut all: Vec<String> = committed
            .lines()
            .filter(|l| !l.starts_with('#') && !ours.contains(&key(l)))
            .map(str::to_string)
            .chain(lines)
            .collect();
        all.sort();
        let header = "# Schedule fingerprints: one line per (graph, options) row, the task\n\
                      # count and a hash of every task and the program's SRF layout.\n";
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("golden dir");
        std::fs::write(&path, format!("{header}{}\n", all.join("\n"))).expect("golden written");
        return;
    }
    let committed: HashMap<String, &str> = committed.lines().map(|l| (key(l), l)).collect();
    let diffs: Vec<String> = lines
        .iter()
        .filter(|l| committed.get(&key(l)) != Some(&l.as_str()))
        .map(|l| format!("  got  {l}\n  want {}", committed.get(&key(l)).unwrap_or(&"(none)")))
        .collect();
    assert!(diffs.is_empty(), "schedules changed:\n{}", diffs.join("\n"));
}

/// The compiler emits exactly the committed schedules for every named
/// graph under the paper's options and under each single-knob change,
/// and for every serve variant.
#[test]
fn schedules_match_the_committed_fingerprints() {
    check_fingerprints(tier1_cases());
}

/// The same for the figures' graphs and the one-item strips.
#[test]
#[ignore = "slow: builds every figure graph (run with --release)"]
fn figure_schedules_match_the_committed_fingerprints() {
    check_fingerprints(ignored_cases());
}
