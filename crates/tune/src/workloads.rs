//! Tunable workloads: a stream graph plus its functional oracle.
//!
//! A [`Workload`] packages everything one tuning run needs: the graph,
//! the world backing it, which arrays are outputs, and the expected
//! output bits. The oracle is computed once by the reference
//! [`FunctionalExecutor`]
//! — kernel bodies are elementwise maps, so strip size, buffering and
//! fusion cannot change results, and every candidate configuration must
//! reproduce the oracle *bit-for-bit* or be discarded.

use gpstream_apps::{cdp, fem, neo, spas};
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::{ArrayId, StreamGraph, World};
use gpstream_microbench::kernels;

/// A workload the tuner can optimize, with its precomputed oracle.
pub struct Workload {
    /// Catalog name (e.g. `fem-euler-lin`).
    pub name: String,
    /// The stream program.
    pub graph: StreamGraph,
    /// World backing the program (cloned per evaluation).
    pub world: World,
    /// Output arrays checked against the oracle.
    pub outputs: Vec<ArrayId>,
    /// Measure a warm steady-state iteration (applications do, matching
    /// the paper's "several hundred time steps"; micro-benchmarks sweep
    /// cold arrays).
    pub warmup: bool,
    /// Expected output bytes per output array (bit patterns — the
    /// comparison is exact, not a floating-point tolerance).
    pub oracle: Vec<Vec<u8>>,
}

impl Workload {
    /// Build a workload from its parts, computing the functional oracle.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not compile under the paper's default
    /// options (a workload that cannot even run is a bug, not a tuning
    /// outcome).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        graph: StreamGraph,
        world: World,
        outputs: Vec<ArrayId>,
        warmup: bool,
    ) -> Self {
        let compiled =
            compile(&graph, &CompilerOptions::paper()).expect("workload compiles under defaults");
        let mut w = world.clone();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w);
        let oracle = outputs.iter().map(|&a| w.array(a).data.as_bytes().to_vec()).collect();
        Workload { name: name.into(), graph, world, outputs, warmup, oracle }
    }

    /// Whether `world` (after an evaluation) reproduces the oracle
    /// bit-for-bit on every output array.
    #[must_use]
    pub fn matches_oracle(&self, world: &World) -> bool {
        self.outputs
            .iter()
            .zip(&self.oracle)
            .all(|(&a, want)| world.array(a).data.as_bytes() == want.as_slice())
    }
}

/// Micro-benchmark workload at an explicit size and COMP (used by tests
/// to keep tuning runs fast).
///
/// # Panics
///
/// Panics on an unknown micro-benchmark name.
#[must_use]
pub fn micro(which: &str, n: usize, comp: usize) -> Workload {
    let mb = match which {
        "ldstcomp" => kernels::ld_st_comp(n, comp),
        "gatscat" => kernels::gat_scat_comp(n, comp),
        "prodcon" => kernels::prod_con(n, comp),
        other => panic!("unknown micro-benchmark `{other}`"),
    };
    Workload::new(
        format!("{which}-n{n}-c{comp}"),
        mb.graph,
        mb.stream_world,
        vec![mb.stream_output],
        false,
    )
}

/// The catalog of named workloads `tune --workload` and `figures tuned`
/// accept: the three micro-benchmarks (paper's Figure 9 size, COMP=4)
/// and the four scientific applications at paper-scale inputs.
pub const CATALOG: [&str; 7] =
    ["ldstcomp", "gatscat", "prodcon", "fem-mhd-quad", "cdp-6n-8192", "neo-16384", "spas-32000"];

/// Seed used for catalog workload generation (same as the figures).
pub const SEED: u64 = 0x6a79_2005;

fn from_app(name: &str, bench: gpstream_apps::common::AppBench) -> Workload {
    Workload::new(name, bench.graph, bench.stream_world, bench.stream_outputs, true)
}

/// Look a workload up by catalog name.
#[must_use]
pub fn named(name: &str) -> Option<Workload> {
    let wl = match name {
        "ldstcomp" => micro_catalog("ldstcomp"),
        "gatscat" => micro_catalog("gatscat"),
        "prodcon" => micro_catalog("prodcon"),
        "fem-euler-lin" => from_app(name, fem::fem_bench(fem::CONFIGS[0], fem::PAPER_CELLS, SEED)),
        "fem-euler-quad" => from_app(name, fem::fem_bench(fem::CONFIGS[1], fem::PAPER_CELLS, SEED)),
        "fem-mhd-lin" => from_app(name, fem::fem_bench(fem::CONFIGS[2], fem::PAPER_CELLS, SEED)),
        "fem-mhd-quad" => from_app(name, fem::fem_bench(fem::CONFIGS[3], fem::PAPER_CELLS, SEED)),
        "cdp-4n-4096" => from_app(name, cdp::cdp_bench(cdp::CONFIGS[0], SEED)),
        "cdp-6n-8192" => from_app(name, cdp::cdp_bench(cdp::CONFIGS[3], SEED)),
        "neo-16384" => from_app(name, neo::neo_bench(16384, SEED)),
        "spas-32000" => from_app(name, spas::spas_bench(32_000, spas::PAPER_NNZ_PER_ROW, SEED)),
        _ => return None,
    };
    Some(wl)
}

/// Catalog-size micro workload (Figure 9's array size, COMP=4), renamed
/// to the bare catalog id.
fn micro_catalog(which: &str) -> Workload {
    let mut wl = micro(which, kernels::FIG9_N, 4);
    wl.name = which.to_string();
    wl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_workload_builds_oracle() {
        let wl = micro("ldstcomp", 512, 1);
        assert_eq!(wl.oracle.len(), 1);
        assert_eq!(wl.oracle[0].len(), 512 * 4, "512 f32 outputs");
        assert!(wl.matches_oracle_after_default_run());
    }

    impl Workload {
        fn matches_oracle_after_default_run(&self) -> bool {
            let compiled = compile(&self.graph, &CompilerOptions::paper()).unwrap();
            let mut w = self.world.clone();
            FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut w);
            self.matches_oracle(&w)
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(named("not-a-workload").is_none());
    }

    #[test]
    fn catalog_has_no_duplicates() {
        let set: std::collections::HashSet<_> = CATALOG.iter().collect();
        assert_eq!(set.len(), CATALOG.len());
    }
}
