//! `paper-figs`: the figure functions as `figures all` calls them, and
//! the paper error they yield.

use crate::harness::{Checks, Params, PassOut, Workload};
use crate::spans::Recorder;
use gpstream_bench as bench;
use gpstream_compiler::CompilerOptions;
use gpstream_core::metrics::Comparison;
use gpstream_machine::MachineConfig;
use gpstream_util::Json;
use std::collections::BTreeMap;

/// The numeric paper points, transcribed from EXPERIMENTS.md.
pub const PAPER_POINTS_JSON: &str = include_str!("../../paper_points.json");

/// One numeric value the paper reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperPoint {
    pub id: String,
    pub paper: f64,
}

/// Parse `paper_points.json`.
///
/// # Panics
///
/// Panics on a malformed document: the file is part of the benchmark.
#[must_use]
pub fn paper_points(text: &str) -> Vec<PaperPoint> {
    let doc = Json::parse(text).expect("paper_points.json parses");
    let points = doc.get("points").and_then(Json::as_arr).expect("a `points` array");
    points
        .iter()
        .map(|p| PaperPoint {
            id: p.get("id").and_then(Json::as_str).expect("point id").to_string(),
            paper: p.get("paper").and_then(Json::as_f64).expect("paper value"),
        })
        .collect()
}

/// Mean of |measured − paper| ÷ paper, in percent, over the points that
/// were measured, with their count. `None` when none was.
#[must_use]
pub fn paper_error_pct(
    points: &[PaperPoint],
    measured: &BTreeMap<String, f64>,
) -> Option<(f64, usize)> {
    let errs: Vec<f64> = points
        .iter()
        .filter_map(|p| measured.get(&p.id).map(|m| (m - p.paper).abs() / p.paper))
        .collect();
    (!errs.is_empty()).then(|| (100.0 * errs.iter().sum::<f64>() / errs.len() as f64, errs.len()))
}

/// Every number one pass produced, and the subset the paper reports.
#[derive(Default)]
pub struct FigureNumbers {
    /// All data points as bits, in call order.
    pub all: Vec<u64>,
    pub measured: BTreeMap<String, f64>,
}

impl FigureNumbers {
    fn push(&mut self, v: f64) {
        self.all.push(v.to_bits());
    }

    fn speedups(&mut self, rows: &[Comparison], ids: &[&str]) {
        for (row, id) in rows.iter().zip(ids) {
            self.push(row.speedup());
            self.measured.insert((*id).to_string(), row.speedup());
        }
    }
}

/// Figure 9 through `gpstream_bench::figure9`, its best point recorded.
pub fn fig9(cfg: &MachineConfig, copts: &CompilerOptions, n: &mut FigureNumbers) {
    let points: Vec<f64> =
        bench::figure9(cfg, copts).into_iter().flat_map(|s| s.points).map(|(_, v)| v).collect();
    points.iter().for_each(|&v| n.push(v));
    n.measured.insert("fig9.best".into(), points.iter().copied().fold(f64::MIN, f64::max));
}

pub fn fig11a(cfg: &MachineConfig, copts: &CompilerOptions, n: &mut FigureNumbers) {
    let ids = ["fig11a.euler-lin", "fig11a.euler-quad", "fig11a.mhd-lin", "fig11a.mhd-quad"];
    n.speedups(&bench::figure11a(cfg, copts, false), &ids);
}

pub fn fig11b(cfg: &MachineConfig, copts: &CompilerOptions, n: &mut FigureNumbers) {
    let ids = ["fig11b.4n-4096", "fig11b.4n-8192", "fig11b.6n-4096", "fig11b.6n-8192"];
    n.speedups(&bench::figure11b(cfg, copts, false), &ids);
}

pub fn fig11c(cfg: &MachineConfig, copts: &CompilerOptions, n: &mut FigureNumbers) {
    let ids = ["fig11c.4096", "fig11c.16384", "fig11c.65536"];
    n.speedups(&bench::figure11c(cfg, copts, false), &ids);
}

pub fn dispatch(cfg: &MachineConfig, n: &mut FigureNumbers) {
    let latencies = bench::dispatch_latencies(cfg);
    latencies.iter().for_each(|(_, cycles)| n.push(*cycles as f64));
    // The paper gives PAUSE and MWAIT; the OS block/wake row has no value.
    for ((_, cycles), id) in latencies.iter().zip(["dispatch.pause", "dispatch.mwait"]) {
        n.measured.insert(id.to_string(), *cycles as f64);
    }
}

pub struct Figs {
    cfg: MachineConfig,
    copts: CompilerOptions,
    points: Vec<PaperPoint>,
    smoke: bool,
    last: Option<(f64, usize)>,
}

impl Figs {
    pub fn set_up(p: &Params) -> Self {
        Figs {
            cfg: MachineConfig::prescott(),
            copts: CompilerOptions::paper(),
            points: paper_points(PAPER_POINTS_JSON),
            smoke: p.smoke,
            last: None,
        }
    }
}

impl Workload for Figs {
    /// `figure11d` (8.4 s, no numeric paper points) is left out; under
    /// `--smoke` only the quick figures run.
    fn pass(&mut self, rec: &Recorder, checks: &mut Checks) -> PassOut {
        let (cfg, copts) = (&self.cfg, &self.copts);
        let mut n = FigureNumbers::default();
        if !self.smoke {
            for s in rec.span("microbench", "figure5", || bench::figure5(cfg)) {
                s.points.iter().for_each(|p| n.push(p.gbps));
            }
            for bar in rec.span("microbench", "figure6", || bench::figure6(cfg)) {
                n.push(bar.normalized_time);
            }
        }
        for bar in rec.span("microbench", "figure8", || bench::figure8(cfg)) {
            n.push(bar.normalized_time);
        }
        rec.span("microbench", "dispatch_latencies", || dispatch(cfg, &mut n));
        if !self.smoke {
            rec.span("bench", "figure9", || fig9(cfg, copts, &mut n));
            rec.span("bench", "figure11a", || fig11a(cfg, copts, &mut n));
        }
        rec.span("bench", "figure11b", || fig11b(cfg, copts, &mut n));
        if !self.smoke {
            rec.span("bench", "figure11c", || fig11c(cfg, copts, &mut n));
        }
        self.last = paper_error_pct(&self.points, &n.measured);
        let want = if self.smoke { 6 } else { self.points.len() };
        checks.check(self.last.is_some_and(|(_, count)| count == want), || {
            format!("expected {want} paper points to be measured, got {:?}", self.last)
        });
        let work = n.all.len() as u64;
        let mut sim = n.all;
        sim.extend(self.last.map(|(err, _)| err.to_bits()));
        PassOut { work, work_secs: None, sim }
    }

    fn notes(&self) -> Vec<String> {
        let (err, count) = self.last.unwrap_or((f64::NAN, 0));
        vec![format!(
            "paper_err_mean_pct = {err:.4} % over {count} paper points (exact; the timing model \
             is otherwise unvalidated)"
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_points_file_holds_the_fourteen_points() {
        let points = paper_points(PAPER_POINTS_JSON);
        assert_eq!(points.len(), 14);
        assert!(points.iter().all(|p| p.paper > 0.0));
        let ids: std::collections::BTreeSet<_> = points.iter().map(|p| &p.id).collect();
        assert_eq!(ids.len(), 14, "ids are unique");
    }

    #[test]
    fn paper_error_recomputed_from_a_fake_measurement() {
        let points = paper_points(PAPER_POINTS_JSON);
        // Every speedup measured 10 % above the paper, dispatch exact:
        // 12 points at 10 % and 2 at 0 %.
        let measured: BTreeMap<String, f64> = points
            .iter()
            .map(|p| {
                let exact = p.id.starts_with("dispatch.");
                (p.id.clone(), if exact { p.paper } else { p.paper * 1.1 })
            })
            .collect();
        let (err, count) = paper_error_pct(&points, &measured).unwrap();
        assert_eq!(count, 14);
        assert!((err - 100.0 * 0.1 * 12.0 / 14.0).abs() < 1e-9, "got {err}");
        // Points that were not measured drop out of the mean.
        let only: BTreeMap<String, f64> = [("fig9.best".to_string(), 0.96)].into();
        let (err, count) = paper_error_pct(&points, &only).unwrap();
        assert_eq!(count, 1);
        assert!((err - 50.0).abs() < 1e-9);
        assert_eq!(paper_error_pct(&points, &BTreeMap::new()), None);
    }
}
