//! `figures scale`: context-scaling curves. Runs catalog workloads on
//! the simulated machine at increasing context counts under the
//! [`Topology::scaled`] pipeline/farm layout and reports total cycles
//! per point — the 1→N generalization of the paper's fixed
//! two-context evaluation. Every number is byte-deterministic for a
//! fixed workload and context count.

use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::Topology;
use gpstream_machine::MachineConfig;
use gpstream_tune::workloads;
use gpstream_util::render::thousands;
use gpstream_util::{fanout, Json};
use std::fmt::Write as _;

/// One workload's scaling curve: `(contexts, total cycles)` points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleRow {
    /// Workload name (catalog id).
    pub workload: String,
    /// `(context count, total run cycles)` per measured point.
    pub points: Vec<(usize, u64)>,
}

impl ScaleRow {
    /// Speedup of the point at index `i` over the first (fewest
    /// contexts) point.
    #[must_use]
    pub fn speedup(&self, i: usize) -> f64 {
        self.points[0].1 as f64 / self.points[i].1 as f64
    }
}

/// Measure one catalog workload at each of `counts` contexts: compile
/// once with the paper's options, then run the simulated machine with
/// `contexts = n` and the [`Topology::scaled`] layout (`n == 1` is the
/// single general-purpose context, `n == 2` the paper's compute/memory
/// pair, larger `n` farms each class round-robin), one fan-out job per
/// count. Returns `None` for an unknown workload name.
///
/// # Panics
///
/// Panics if the workload fails to compile under the paper's default
/// options, a run does not reproduce the functional oracle, or
/// `counts` is empty or contains zero.
#[must_use]
pub fn scale_workload(name: &str, counts: &[usize]) -> Option<ScaleRow> {
    assert!(!counts.is_empty(), "need at least one context count");
    let wl = workloads::named(name)?;
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("catalog workload compiles");
    let points = fanout::map(counts, fanout::threads(), |&n| {
        let mut cfg = MachineConfig::prescott();
        cfg.contexts = n;
        let mut world = wl.world.clone();
        let report = SimExecutor::new()
            .with_machine(cfg)
            .with_srf(copts.srf)
            .with_warmup(wl.warmup)
            .with_topology(Topology::scaled(n))
            .run(&compiled.schedule, &compiled.graph, &mut world);
        assert!(wl.matches_oracle(&world), "scaled run must reproduce the oracle");
        (n, report.timing.cycles)
    });
    Some(ScaleRow { workload: name.to_string(), points })
}

/// Render scaling rows as a fixed-width text table: one cycles line
/// per workload plus an aligned speedup-over-one-context line.
///
/// # Panics
///
/// Panics if rows disagree on their context counts.
#[must_use]
pub fn render(rows: &[ScaleRow]) -> String {
    let mut out = String::new();
    let Some(first) = rows.first() else { return out };
    let counts: Vec<usize> = first.points.iter().map(|&(n, _)| n).collect();
    let _ =
        writeln!(out, "== Context scaling: total cycles vs contexts (scaled pipeline topology) ==");
    let _ = write!(out, "{:<16}", "workload");
    for n in &counts {
        let _ = write!(out, " {:>14}", format!("ctx={n}"));
    }
    out.push('\n');
    for r in rows {
        let row_counts: Vec<usize> = r.points.iter().map(|&(n, _)| n).collect();
        assert_eq!(row_counts, counts, "every row must cover the same context counts");
        let _ = write!(out, "{:<16}", r.workload);
        for &(_, cycles) in &r.points {
            let _ = write!(out, " {:>14}", thousands(cycles));
        }
        out.push('\n');
        let _ = write!(out, "{:<16}", "  speedup");
        for i in 0..r.points.len() {
            let _ = write!(out, " {:>13.2}x", r.speedup(i));
        }
        out.push('\n');
    }
    out
}

/// The scaling table as one deterministic JSON artifact (`v: 1`).
#[must_use]
pub fn to_json(rows: &[ScaleRow]) -> Json {
    Json::obj([
        ("v", Json::U64(1)),
        ("kind", Json::from("scale")),
        ("topology", Json::from("scaled")),
        (
            "rows",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("workload", Json::Str(r.workload.clone())),
                    (
                        "points",
                        Json::arr(r.points.iter().map(|&(n, cycles)| {
                            Json::obj([
                                ("contexts", Json::U64(n as u64)),
                                ("cycles", Json::U64(cycles)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_compiler::{compile, CompilerOptions};
    use gpstream_core::exec::sim::SimExecutor;

    #[test]
    fn unknown_workload_is_none() {
        assert!(scale_workload("not-a-workload", &[1, 2]).is_none());
    }

    #[test]
    fn two_context_point_matches_default_run() {
        // The n == 2 point of the curve must equal the default
        // executor configuration — the scaling command measures the
        // same machine the rest of the harness reports on.
        let row = scale_workload("ldstcomp", &[2]).unwrap();
        let wl = workloads::named("ldstcomp").unwrap();
        let copts = CompilerOptions::paper();
        let compiled = compile(&wl.graph, &copts).expect("compiles");
        let mut world = wl.world.clone();
        let report = SimExecutor::new().with_srf(copts.srf).with_warmup(wl.warmup).run(
            &compiled.schedule,
            &compiled.graph,
            &mut world,
        );
        assert_eq!(row.points, vec![(2, report.timing.cycles)]);
    }

    #[test]
    fn curve_is_deterministic_and_renders() {
        // Stepped ≡ event on these lowerings is the differential suite's
        // `Topology::scaled` axis; here only the curve itself is checked.
        let counts = [1, 2, 4];
        let a = scale_workload("ldstcomp", &counts).unwrap();
        let b = scale_workload("ldstcomp", &counts).unwrap();
        assert_eq!(a, b, "reruns must agree");
        assert!(a.points.iter().all(|&(_, c)| c > 0));
        let text = render(std::slice::from_ref(&a));
        assert!(text.contains("ldstcomp"));
        assert!(text.contains("ctx=4"));
        assert!((a.speedup(0) - 1.0).abs() < f64::EPSILON);
        let json = to_json(std::slice::from_ref(&a)).to_string();
        assert_eq!(json, to_json(std::slice::from_ref(&b)).to_string());
        assert!(json.contains("\"contexts\":4"));
    }
}
