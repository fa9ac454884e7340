//! Job classes and the per-variant service table.
//!
//! A service *job* is one input chunk pushed through a compiled catalog
//! graph — the micro-benchmark kernels at chunk sizes far below the
//! batch figures' 16 K records. Each distinct `(class, chunk size)` pair
//! is a [`Variant`]: its graph is compiled once, and one run of the
//! simulated machine (event-driven fast path) at the worker's context
//! count under [`Topology::scaled`] measures its *service time* and,
//! through the run's functional pass, its oracle. The scheduler then
//! prices every job of that variant at those cycles — deterministic by
//! construction, because the simulator is — and the replay runs the job
//! functionally against the oracle.

use gpstream_compiler::{compile, CompiledProgram, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::{ArrayId, Topology, World};
use gpstream_machine::MachineConfig;
use gpstream_microbench::kernels;

/// Chunk sizes (records per job) a class serves. Small on purpose: a
/// service job is one arrival's worth of data, not a batch sweep.
pub const CHUNK_SIZES: [usize; 4] = [256, 512, 1024, 2048];

/// COMP setting for service jobs (COMP = 1 ≈ 50 cycles per record).
pub const JOB_COMP: usize = 2;

/// The serve workload names `figures serve` accepts: each
/// micro-benchmark class alone, or the mixed catalog.
pub const WORKLOADS: [&str; 4] = ["ldstcomp", "gatscat", "prodcon", "mix"];

/// One job shape: a compiled graph, its input world, the functional
/// oracle, and the simulated service time on one worker.
pub struct Variant {
    /// Display label, e.g. `ldstcomp-n512`.
    pub label: String,
    /// Compiled program (shared by every job of this variant).
    pub compiled: CompiledProgram,
    /// Input world; cloned per executed job.
    pub world: World,
    /// Output array the oracle covers.
    pub output: ArrayId,
    /// Expected output bytes (bit-exact).
    pub oracle: Vec<u8>,
    /// Simulated cycles one worker spends serving this variant.
    pub service_cycles: u64,
}

/// Every variant a serve workload draws jobs from, plus the machine
/// the service times were measured on.
pub struct VariantTable {
    /// Workload name (`ldstcomp` | `gatscat` | `prodcon` | `mix`).
    pub workload: String,
    /// Contexts per worker the table was priced at.
    pub ctx: usize,
    /// The variants, in deterministic (class, size) order.
    pub variants: Vec<Variant>,
    /// Machine configuration used for pricing.
    pub machine: MachineConfig,
}

impl VariantTable {
    /// Service times indexed by variant.
    #[must_use]
    pub fn service_cycles(&self) -> Vec<u64> {
        self.variants.iter().map(|v| v.service_cycles).collect()
    }

    /// Mean service cycles across variants (each job draws a variant
    /// uniformly, so this is the expected per-job service time).
    #[must_use]
    pub fn mean_service_cycles(&self) -> u64 {
        let sum: u64 = self.variants.iter().map(|v| v.service_cycles).sum();
        sum / self.variants.len() as u64
    }
}

fn class_bench(class: &str, n: usize) -> Option<gpstream_microbench::kernels::Microbench> {
    Some(match class {
        "ldstcomp" => kernels::ld_st_comp(n, JOB_COMP),
        "gatscat" => kernels::gat_scat_comp(n, JOB_COMP),
        "prodcon" => kernels::prod_con(n, JOB_COMP),
        _ => return None,
    })
}

/// Build the variant table for a serve workload with `ctx` contexts per
/// worker. Returns `None` for an unknown workload name.
///
/// # Panics
///
/// Panics if a variant graph fails to compile under the paper's default
/// options (a bug, not a configuration).
#[must_use]
pub fn build_table(workload: &str, ctx: usize) -> Option<VariantTable> {
    assert!(ctx > 0, "workers need at least one context");
    let classes: Vec<&str> = match workload {
        "mix" => vec!["ldstcomp", "gatscat", "prodcon"],
        single if WORKLOADS.contains(&single) => vec![single],
        _ => return None,
    };
    let copts = CompilerOptions::paper();
    let mut machine = MachineConfig::prescott();
    machine.contexts = ctx;
    let topology = Topology::scaled(ctx);
    let mut variants = Vec::new();
    for class in classes {
        for &n in &CHUNK_SIZES {
            let mb = class_bench(class, n).expect("class validated above");
            let compiled = compile(&mb.graph, &copts).expect("service variant compiles");
            // Price the variant: simulated cycles on one ctx-context
            // worker. The run's functional pass is the reference
            // executor's, so its output is the oracle: the bit pattern
            // every executed job of this variant must reproduce.
            let mut sim_world = mb.stream_world.clone();
            let report = SimExecutor::new()
                .with_machine(machine.clone())
                .with_srf(copts.srf)
                .with_topology(topology.clone())
                .run(&compiled.schedule, &compiled.graph, &mut sim_world);
            let oracle = sim_world.array(mb.stream_output).data.as_bytes().to_vec();
            variants.push(Variant {
                label: format!("{class}-n{n}"),
                compiled,
                world: mb.stream_world,
                output: mb.stream_output,
                oracle,
                service_cycles: report.timing.cycles,
            });
        }
    }
    Some(VariantTable { workload: workload.to_string(), ctx, variants, machine })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_none() {
        assert!(build_table("not-a-workload", 2).is_none());
        assert!(build_table("mix-extra", 2).is_none());
    }

    #[test]
    fn single_class_table_has_one_variant_per_chunk_size() {
        let t = build_table("ldstcomp", 2).expect("known workload");
        assert_eq!(t.variants.len(), CHUNK_SIZES.len());
        assert!(t.variants.iter().all(|v| v.service_cycles > 0));
        // Bigger chunks cannot be cheaper to serve.
        for pair in t.variants.windows(2) {
            assert!(pair[1].service_cycles >= pair[0].service_cycles, "{}", pair[1].label);
        }
        assert!(t.mean_service_cycles() > 0);
    }

    #[test]
    fn mix_covers_all_three_classes() {
        let t = build_table("mix", 1).expect("known workload");
        assert_eq!(t.variants.len(), 3 * CHUNK_SIZES.len());
        for class in ["ldstcomp", "gatscat", "prodcon"] {
            assert!(t.variants.iter().any(|v| v.label.starts_with(class)), "{class} missing");
        }
    }
}
