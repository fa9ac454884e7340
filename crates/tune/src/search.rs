//! The tuner: a typed knob space and the search strategies over it.
//!
//! Two strategies, chosen by comparing the valid-point count against the
//! evaluation budget:
//!
//! * **grid** — when the budget covers the whole space, evaluate every
//!   valid point exhaustively;
//! * **halving** — otherwise, evaluate a seeded random sample (half the
//!   budget), keep the best-scoring half of everything seen so far
//!   (successive halving; the baseline competes too), then refine each
//!   survivor by coordinate descent — sweep one knob axis at a time,
//!   adopting strict improvements — until the budget runs out.
//!
//! Determinism: all randomness comes from the in-tree seeded
//! [`Rng64`]; batched evaluations fan out through [`fanout::map`], which
//! returns results in input order, so neither the thread count nor OS
//! scheduling can change which points are visited or which winner is
//! picked (ties break by evaluation order). Degenerate points are pruned
//! up front via [`CompilerOptions::validate`] — they never reach the
//! simulator and never count against the budget.

use crate::cache::{CachedEval, EvalCache};
use crate::eval::{cache_key, evaluate};
use crate::workloads::Workload;
use gpstream_compiler::CompilerOptions;
use gpstream_core::TunedConfig;
use gpstream_machine::ops::WaitPolicy;
use gpstream_machine::MachineConfig;
use gpstream_util::{fanout, Fingerprint, Rng64};
use std::collections::HashMap;

/// Strip sizes (items) offered to the search alongside `None`, the
/// SRF-fitting heuristic. Sizes whose working set overflows the SRF for
/// a given graph are pruned per graph.
pub const STRIP_CANDIDATES: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Software-prefetch depths offered to the search (the base machine's
/// own depth is added when missing, so the baseline stays reachable).
pub const PF_DEPTHS: [u64; 5] = [1, 2, 4, 8, 16];

const WAITS: [WaitPolicy; 3] = [WaitPolicy::Mwait, WaitPolicy::SpinPause, WaitPolicy::OsBlock];
const BOOLS: [bool; 2] = [true, false];

/// The autotuner: base configuration, evaluation budget, and cache.
#[derive(Debug, Clone)]
pub struct Tuner {
    /// Compiler options supplying the SRF placement (the knob vector
    /// overrides everything else).
    pub base_copts: CompilerOptions,
    /// Machine to tune for (the knob vector overrides only the
    /// software-prefetch depth).
    pub base_mcfg: MachineConfig,
    /// Maximum number of candidate evaluations (cache hits included:
    /// the budget bounds the *search*, so warm and cold runs follow the
    /// same trajectory).
    pub budget: usize,
    /// Seed for the sampling stage of the halving strategy.
    pub seed: u64,
    /// Threads evaluations fan out on (results come back in input
    /// order, so this cannot affect the outcome).
    pub threads: usize,
    /// Run candidate simulations in the event-driven fast step mode
    /// (default). The two modes are byte-identical — the differential
    /// suite asserts it — so this cannot affect which point wins, only
    /// how fast the search runs; cached evaluations carry across modes.
    pub fast_sim: bool,
    /// Memoized evaluations.
    pub cache: EvalCache,
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner {
            base_copts: CompilerOptions::paper(),
            base_mcfg: MachineConfig::prescott(),
            budget: 64,
            seed: crate::workloads::SEED,
            threads: 4,
            fast_sim: true,
            cache: EvalCache::disabled(),
        }
    }
}

/// Result of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Workload name.
    pub workload: String,
    /// Strategy used: `"grid"` or `"halving"`.
    pub strategy: &'static str,
    /// The default-heuristic baseline the winner is compared against.
    pub baseline: TunedConfig,
    /// Baseline cycle count.
    pub baseline_cycles: u64,
    /// The winning knob vector.
    pub best: TunedConfig,
    /// Cycle count of the winner.
    pub best_cycles: u64,
    /// Candidate points charged against the budget (sim runs + cache
    /// hits).
    pub evaluations: usize,
    /// Fresh simulator executions (0 on a fully warm cache).
    pub sim_runs: usize,
    /// Evaluations answered by the on-disk cache.
    pub cache_hits: usize,
    /// Evaluated points rejected at run time (compile error or oracle
    /// mismatch); pruned points are not counted — they are never built.
    pub rejected: usize,
    /// Fingerprint of the workload's stream graph.
    pub graph_fp: u64,
    /// Fingerprint of the base machine configuration.
    pub machine_fp: u64,
    /// Budget the run was given.
    pub budget: usize,
    /// Sampling seed the run was given.
    pub seed: u64,
    /// Full counter profile of the winning configuration (every tracked
    /// value from [`gpstream_profile::CounterSet::all_values`]), recorded
    /// so the artifact explains *why* the winner won — lower miss rate,
    /// better overlap — not just by how many cycles. Obtained from one
    /// extra (deterministic) simulator run of the winner; this reporting
    /// run is not counted in `sim_runs`, which tracks search evaluations.
    pub winner_profile: Vec<(String, f64)>,
}

impl TuneOutcome {
    /// Baseline-over-best cycle ratio (> 1 when tuning won).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.best_cycles as f64
    }
}

/// Per-workload axis value lists.
struct Axes {
    strips: Vec<Option<usize>>,
    depths: Vec<u64>,
}

fn axes(base_mcfg: &MachineConfig) -> Axes {
    let mut strips = vec![None];
    strips.extend(STRIP_CANDIDATES.iter().map(|&s| Some(s)));
    let mut depths = PF_DEPTHS.to_vec();
    if !depths.contains(&base_mcfg.sw_pf_depth) {
        depths.push(base_mcfg.sw_pf_depth);
        depths.sort_unstable();
    }
    Axes { strips, depths }
}

/// Mutable state of one tuning run: evaluated points in order, the
/// score map, and the remaining budget.
struct Run<'a> {
    tuner: &'a Tuner,
    wl: &'a Workload,
    graph_fp: u64,
    machine_fp: u64,
    /// `(point, cycles)` in evaluation order; `None` = rejected.
    results: Vec<(TunedConfig, Option<u64>)>,
    /// Point fingerprint → cycles, for O(1) dedup and lookups.
    scores: HashMap<u64, Option<u64>>,
    budget_left: usize,
    sim_runs: usize,
    cache_hits: usize,
}

impl<'a> Run<'a> {
    fn new(tuner: &'a Tuner, wl: &'a Workload) -> Self {
        Run {
            tuner,
            wl,
            graph_fp: wl.graph.fingerprint(),
            machine_fp: tuner.base_mcfg.fingerprint(),
            results: Vec::new(),
            scores: HashMap::new(),
            budget_left: tuner.budget.max(1),
            sim_runs: 0,
            cache_hits: 0,
        }
    }

    fn cycles_of(&self, point: &TunedConfig) -> Option<u64> {
        self.scores.get(&point.fingerprint()).copied().flatten()
    }

    /// Evaluate a batch of points: drop duplicates, truncate to the
    /// remaining budget, answer from the cache where possible, and fan
    /// the misses out on up to `threads` threads, results in batch order.
    fn eval_batch(&mut self, points: Vec<TunedConfig>) {
        let mut fresh: Vec<TunedConfig> = Vec::new();
        for p in points {
            if self.budget_left == fresh.len() {
                break;
            }
            let fp = p.fingerprint();
            if !self.scores.contains_key(&fp) && !fresh.iter().any(|q| q.fingerprint() == fp) {
                fresh.push(p);
            }
        }
        self.budget_left -= fresh.len();

        let mut slots: Vec<Option<Option<u64>>> = vec![None; fresh.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, p) in fresh.iter().enumerate() {
            let key = cache_key(self.wl, self.graph_fp, self.machine_fp, p);
            if let Some(hit) = self.tuner.cache.get(&key) {
                slots[i] = Some(hit.cycles);
                self.cache_hits += 1;
            } else {
                misses.push(i);
            }
        }

        let (wl, t) = (self.wl, self.tuner);
        let evaluated = fanout::map(&misses, t.threads, |&i| {
            evaluate(wl, &t.base_copts, &t.base_mcfg, &fresh[i], t.fast_sim).cycles()
        });
        self.sim_runs += evaluated.len();
        for (i, cycles) in misses.into_iter().zip(evaluated) {
            let key = cache_key(self.wl, self.graph_fp, self.machine_fp, &fresh[i]);
            self.tuner.cache.put(&key, CachedEval { cycles });
            slots[i] = Some(cycles);
        }

        for (p, slot) in fresh.into_iter().zip(slots) {
            let cycles = slot.expect("every slot filled");
            self.scores.insert(p.fingerprint(), cycles);
            self.results.push((p, cycles));
        }
    }

    /// Best valid point so far: minimum cycles, ties broken by
    /// evaluation order.
    fn best(&self) -> Option<(TunedConfig, u64)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, (p, c))| c.map(|c| (c, i, *p)))
            .min_by_key(|&(c, i, _)| (c, i))
            .map(|(c, _, p)| (p, c))
    }
}

impl Tuner {
    /// Enumerate every valid point of the knob space for `wl`
    /// (degenerate points — zero/oversized strips, a fusion knob with no
    /// fusable pair — are pruned via [`CompilerOptions::validate`]).
    #[must_use]
    pub fn enumerate_space(&self, wl: &Workload) -> Vec<TunedConfig> {
        let ax = axes(&self.base_mcfg);
        let mut pts = Vec::new();
        for &strip_items in &ax.strips {
            for &double_buffer in &BOOLS {
                for &fuse_kernels in &BOOLS {
                    // Only these three knobs can make a point degenerate.
                    let copts = CompilerOptions {
                        strip_items,
                        double_buffer,
                        fuse_kernels,
                        ..self.base_copts.clone()
                    };
                    if copts.validate(&wl.graph).is_err() {
                        continue;
                    }
                    for &nt_gather in &BOOLS {
                        for &nt_scatter in &BOOLS {
                            for &wait_policy in &WAITS {
                                for &in_order in &BOOLS {
                                    for &sw_pf_depth in &ax.depths {
                                        pts.push(TunedConfig {
                                            strip_items,
                                            double_buffer,
                                            fuse_kernels,
                                            nt_gather,
                                            nt_scatter,
                                            wait_policy,
                                            in_order,
                                            sw_pf_depth,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        pts
    }

    /// Tune `wl`: always evaluate the default-heuristic baseline first,
    /// then run the strategy the space size calls for.
    ///
    /// # Panics
    ///
    /// Panics if the baseline itself fails to evaluate (the paper's
    /// defaults must always run — anything else is a harness bug).
    #[must_use]
    pub fn tune(&self, wl: &Workload) -> TuneOutcome {
        let mut run = Run::new(self, wl);
        let baseline = TunedConfig::default_heuristic(&self.base_mcfg);
        run.eval_batch(vec![baseline]);
        let baseline_cycles =
            run.cycles_of(&baseline).expect("the default-heuristic baseline must evaluate cleanly");

        let space = self.enumerate_space(wl);
        let strategy = if space.len() <= run.budget_left {
            run.eval_batch(space);
            "grid"
        } else {
            self.halving(&mut run, &space);
            "halving"
        };

        let (best, best_cycles) = run.best().expect("baseline guarantees a valid point");
        let rejected = run.results.iter().filter(|(_, c)| c.is_none()).count();
        let winner_profile = crate::eval::counter_profile(
            wl,
            &self.base_copts,
            &self.base_mcfg,
            &best,
            self.fast_sim,
        );
        TuneOutcome {
            workload: wl.name.clone(),
            strategy,
            baseline,
            baseline_cycles,
            best,
            best_cycles,
            evaluations: run.results.len(),
            sim_runs: run.sim_runs,
            cache_hits: run.cache_hits,
            rejected,
            graph_fp: run.graph_fp,
            machine_fp: run.machine_fp,
            budget: self.budget,
            seed: self.seed,
            winner_profile,
        }
    }

    /// Successive halving with coordinate-descent refinement.
    fn halving(&self, run: &mut Run<'_>, space: &[TunedConfig]) {
        // Sampling stage: half the remaining budget on a seeded shuffle
        // of the space (seed mixed with the graph fingerprint so
        // different workloads explore differently but reproducibly).
        let sample_seed = Fingerprint::new("tune-sample").u64(self.seed).u64(run.graph_fp).finish();
        let mut rng = Rng64::seed_from_u64(sample_seed);
        let mut order: Vec<usize> = (0..space.len()).collect();
        rng.shuffle(&mut order);
        let k = (run.budget_left / 2).max(1);
        run.eval_batch(order.into_iter().take(k).map(|i| space[i]).collect());

        // Halve: keep the best-scoring half of everything evaluated so
        // far (baseline included), in rank order.
        let mut ranked: Vec<(u64, usize)> =
            run.results.iter().enumerate().filter_map(|(i, (_, c))| c.map(|c| (c, i))).collect();
        ranked.sort_unstable();
        let keep = ranked.len().div_ceil(2);
        let survivors: Vec<TunedConfig> =
            ranked.iter().take(keep).map(|&(_, i)| run.results[i].0).collect();

        // Refinement: coordinate descent from each survivor while
        // budget remains.
        let ax = axes(&self.base_mcfg);
        for s in survivors {
            if run.budget_left == 0 {
                break;
            }
            self.coordinate_descent(run, s, &ax);
        }
    }

    /// Sweep one knob axis at a time from `start`, adopting strict
    /// improvements, until a full sweep improves nothing or the budget
    /// runs out.
    fn coordinate_descent(&self, run: &mut Run<'_>, start: TunedConfig, ax: &Axes) {
        let mut incumbent = start;
        let Some(mut incumbent_cycles) = run.cycles_of(&incumbent) else { return };
        loop {
            let sweep_start = incumbent_cycles;
            for axis in 0..8 {
                if run.budget_left == 0 {
                    return;
                }
                let neighbors: Vec<TunedConfig> = neighbors_on_axis(&incumbent, axis, ax)
                    .into_iter()
                    .filter(|p| self.base_copts.apply_tuned(p).validate(&run.wl.graph).is_ok())
                    .collect();
                run.eval_batch(neighbors.clone());
                for n in &neighbors {
                    if let Some(c) = run.cycles_of(n) {
                        if c < incumbent_cycles {
                            incumbent = *n;
                            incumbent_cycles = c;
                        }
                    }
                }
            }
            if incumbent_cycles == sweep_start {
                return;
            }
        }
    }
}

/// All alternative values of one axis applied to `point` (the point's
/// current value excluded).
fn neighbors_on_axis(point: &TunedConfig, axis: usize, ax: &Axes) -> Vec<TunedConfig> {
    match axis {
        0 => ax
            .strips
            .iter()
            .filter(|&&s| s != point.strip_items)
            .map(|&s| TunedConfig { strip_items: s, ..*point })
            .collect(),
        1 => vec![TunedConfig { double_buffer: !point.double_buffer, ..*point }],
        2 => vec![TunedConfig { fuse_kernels: !point.fuse_kernels, ..*point }],
        3 => vec![TunedConfig { nt_gather: !point.nt_gather, ..*point }],
        4 => vec![TunedConfig { nt_scatter: !point.nt_scatter, ..*point }],
        5 => WAITS
            .iter()
            .filter(|&&w| w != point.wait_policy)
            .map(|&w| TunedConfig { wait_policy: w, ..*point })
            .collect(),
        6 => vec![TunedConfig { in_order: !point.in_order, ..*point }],
        7 => ax
            .depths
            .iter()
            .filter(|&&d| d != point.sw_pf_depth)
            .map(|&d| TunedConfig { sw_pf_depth: d, ..*point })
            .collect(),
        _ => unreachable!("axis out of range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::micro;
    use std::collections::HashSet;

    #[test]
    fn space_points_are_valid_and_distinct() {
        let tuner = Tuner::default();
        let wl = micro("ldstcomp", 512, 1);
        let space = tuner.enumerate_space(&wl);
        assert!(!space.is_empty());
        let mut seen = HashSet::new();
        for p in &space {
            assert!(tuner.base_copts.apply_tuned(p).validate(&wl.graph).is_ok());
            assert!(seen.insert(p.fingerprint()), "duplicate point {p:?}");
        }
        // LD-ST-COMP has a single kernel: the fusion knob must have been
        // pruned to `false` everywhere (fuse=true would be a duplicate).
        assert!(space.iter().all(|p| !p.fuse_kernels));
        // All three wait policies must be reachable.
        let waits: HashSet<&str> =
            space.iter().map(|p| gpstream_core::tuned::wait_policy_name(p.wait_policy)).collect();
        assert_eq!(waits.len(), 3);
    }

    #[test]
    fn neighbors_cover_each_axis_without_self() {
        let mcfg = MachineConfig::prescott();
        let ax = axes(&mcfg);
        let p = TunedConfig::default_heuristic(&mcfg);
        for axis in 0..8 {
            let ns = neighbors_on_axis(&p, axis, &ax);
            assert!(!ns.is_empty(), "axis {axis} has no alternatives");
            for n in &ns {
                assert_ne!(n.fingerprint(), p.fingerprint(), "axis {axis} returned self");
            }
        }
    }

    #[test]
    fn small_budget_run_respects_budget_and_beats_or_ties_baseline() {
        let tuner = Tuner { budget: 10, threads: 2, ..Tuner::default() };
        let wl = micro("ldstcomp", 512, 1);
        let out = tuner.tune(&wl);
        assert_eq!(out.strategy, "halving");
        assert!(out.evaluations <= 10, "{} evals", out.evaluations);
        assert!(out.best_cycles <= out.baseline_cycles);
        assert_eq!(out.rejected, 0, "pruning should keep rejects out of the search");
        assert_eq!(out.sim_runs, out.evaluations, "no cache configured");
    }
}
