//! Machine configuration.
//!
//! All timing parameters of the simulated processor live here. The
//! [`MachineConfig::prescott`] preset encodes the machine evaluated in the
//! paper: a 3.4 GHz hyper-threaded Pentium 4 (Prescott core) with a 1 MB
//! 8-way L2 cache (128-byte lines), a 6.4 GB/s front-side bus and the
//! PAUSE / MONITOR+MWAIT inter-context communication primitives.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, or a capacity that
    /// is not a multiple of `line * ways`), or if `line` or the set count
    /// is not a power of two — the cache indexes by shift and mask.
    #[must_use]
    pub fn sets(&self) -> u64 {
        assert!(self.ways > 0, "degenerate cache geometry");
        assert!(self.line.is_power_of_two(), "`line` must be a power of two, got {}", self.line);
        let sets = self.capacity / (self.line * self.ways);
        assert!(
            sets > 0 && sets * self.line * self.ways == self.capacity,
            "capacity must be a multiple of line * ways"
        );
        assert!(
            sets.is_power_of_two(),
            "the set count (`capacity / (line * ways)`) must be a power of two, got {sets}"
        );
        sets
    }
}

/// How two co-scheduled SMT contexts degrade each other, expressed as
/// relative execution-rate factors (1.0 = no interference).
///
/// The paper's Figure 6 measures these directly on the Prescott core:
/// two compute threads each run at ~0.63x of their single-thread rate,
/// a compute thread co-running with the memory thread keeps ~0.71x, and
/// bulk memory streams are limited by the shared bus rather than by
/// issue slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtFactors {
    /// Compute rate while the other context also computes.
    pub comp_vs_comp: f64,
    /// Compute rate while the other context performs bulk memory work.
    pub comp_vs_mem: f64,
    /// Compute rate while the other context busy-waits with PAUSE.
    pub comp_vs_pause: f64,
    /// Memory-side issue rate while the other context computes.
    pub mem_vs_comp: f64,
    /// Memory-side issue rate while the other context does memory work
    /// (bus contention is modeled separately; this covers issue slots).
    pub mem_vs_mem: f64,
    /// Memory-side issue rate while the other context busy-waits with PAUSE.
    pub mem_vs_pause: f64,
}

/// N-way SMT interference model.
///
/// Contexts are grouped into physical cores of `threads_per_core`
/// hardware threads each (context `c` lives on core
/// `c / threads_per_core`). A context's issue rate is the *product* of
/// the pairwise [`SmtFactors`] against every non-idle sibling on its
/// core, so with two threads per core exactly one sibling exists and the
/// model degenerates to the paper's Figure 6 pairwise lookup bit for
/// bit. Contexts on different cores only interact through the shared
/// bus and page walker, which serialize across all N contexts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtModel {
    /// Hardware threads sharing one physical core's issue slots.
    pub threads_per_core: usize,
    /// Pairwise interference factors applied per non-idle sibling.
    pub factors: SmtFactors,
}

/// Inter-context communication (work-queue dispatch) costs, from the
/// paper's Section III-B measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitCosts {
    /// Cycles to dispatch a task to a context spinning with PAUSE.
    pub pause_dispatch: u64,
    /// Cycles to dispatch a task to a context sleeping in MWAIT
    /// (includes the wake-up of the halted context).
    pub mwait_dispatch: u64,
    /// Cycles to dispatch via an OS-level block/wake (tens of thousands).
    pub os_dispatch: u64,
}

/// Full configuration of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of hardware contexts the engine steps (1..=64). The
    /// paper's machine exposes two hyper-threading contexts; larger
    /// values model scaled-up SMT/multi-core parts, with
    /// [`SmtModel::threads_per_core`] deciding which contexts share a
    /// core's issue slots.
    pub contexts: usize,
    /// Core clock frequency in GHz (used only to convert cycles to seconds).
    pub freq_ghz: f64,
    /// Sustained single-context issue rate for straight-line compute,
    /// in micro-ops per cycle.
    pub base_ipc: f64,
    /// Per-element micro-op cost of a bulk copy loop iteration
    /// (address generation + load + store + loop overhead).
    pub copy_uops_per_elem: u64,
    /// Extra micro-ops charged for each software prefetch instruction.
    pub sw_prefetch_uops: u64,

    /// L1 data cache geometry (loads only; stores are modeled at L2).
    pub l1: CacheGeometry,
    /// L1 hit latency in cycles (absorbed in issue cost for bulk ops).
    pub l1_lat: u64,
    /// Unified L2 cache geometry.
    pub l2: CacheGeometry,
    /// L2 hit latency in cycles.
    pub l2_lat: u64,
    /// Number of L2 ways reserved for non-temporal fills (the paper leaves
    /// "one or two cache lines in each set" for non-SRF data).
    pub nt_ways: u64,

    /// Data TLB entries (fully associative, LRU, per context).
    pub dtlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Cycles for a hardware page-table walk (walks serialize on the
    /// single shared walker).
    pub walk_cycles: u64,

    /// Lead latency of a memory access: cycles from bus grant to first
    /// critical word, excluding bus occupancy.
    pub mem_lat: u64,
    /// Front-side-bus throughput in bytes per core cycle.
    pub bus_bytes_per_cycle: f64,
    /// Arbitration cycles when bus ownership switches between the two
    /// contexts.
    pub bus_turnaround: u64,

    /// Hardware prefetcher: number of concurrently tracked streams.
    pub hw_pf_streams: usize,
    /// Hardware prefetcher lookahead depth in cache lines. Misses on a
    /// detected stream are hidden up to this depth of bus pipelining.
    pub hw_pf_depth: u64,
    /// Software (non-temporal) prefetch lookahead depth in cache lines —
    /// the prefetch distance the gather/scatter copy loops run ahead by.
    pub sw_pf_depth: u64,
    /// Maximum overlapped outstanding misses per context (miss buffers)
    /// for accesses not covered by a prefetcher. The effective per-thread
    /// window of a hyper-threaded Prescott is small. Bulk copy loops get
    /// this full depth; loops with interleaved computation are limited to
    /// one outstanding miss (the reorder window is consumed by the
    /// computation between the loads).
    pub mshrs: u64,
    /// Cycles of an uncovered *store* (read-for-ownership) miss exposed to
    /// the pipeline: store-buffer stalls hide most but not all of the fill
    /// latency.
    pub store_miss_exposed: u64,
    /// Reorder-window depth in cycles: how much of an uncovered load miss
    /// an interleaved loop can hide behind independent work.
    pub ooo_window_cycles: u64,
    /// Exposed cycles of a *dependent* (indexed) load that hits the L2:
    /// pointer-chasing through the cache is not free even on a hit.
    pub l2_dep_exposed: u64,

    /// SMT interference model (core grouping + pairwise factors).
    pub smt: SmtModel,
    /// Work-queue dispatch costs per wait policy.
    pub wait: WaitCosts,
}

impl MachineConfig {
    /// The machine of the paper: 3.4 GHz Prescott-core Pentium 4,
    /// hyper-threaded, 1 MB 8-way L2 with 128 B lines, 16 KB L1D,
    /// 6.4 GB/s front side bus, 64-entry DTLB.
    #[must_use]
    pub fn prescott() -> Self {
        MachineConfig {
            contexts: 2,
            freq_ghz: 3.4,
            base_ipc: 1.0,
            copy_uops_per_elem: 3,
            sw_prefetch_uops: 1,
            l1: CacheGeometry { capacity: 16 * 1024, line: 128, ways: 8 },
            l1_lat: 4,
            l2: CacheGeometry { capacity: 1024 * 1024, line: 128, ways: 8 },
            l2_lat: 25,
            nt_ways: 2,
            dtlb_entries: 64,
            page_bytes: 4096,
            walk_cycles: 145,
            mem_lat: 220,
            // 6.4 GB/s at 3.4 GHz core clock.
            bus_bytes_per_cycle: 6.4 / 3.4,
            bus_turnaround: 10,
            // The Prescott prefetcher tracks few streams effectively: the
            // paper observes it "couldn't improve the performance of the
            // regular code even though the data accesses for individual
            // arrays were sequential because the data accesses were
            // intermixed".
            hw_pf_streams: 1,
            hw_pf_depth: 8,
            sw_pf_depth: 6,
            mshrs: 2,
            store_miss_exposed: 70,
            ooo_window_cycles: 100,
            l2_dep_exposed: 10,
            smt: SmtModel {
                threads_per_core: 2,
                factors: SmtFactors {
                    comp_vs_comp: 0.63,
                    comp_vs_mem: 0.85,
                    comp_vs_pause: 0.74,
                    mem_vs_comp: 0.90,
                    mem_vs_mem: 0.94,
                    mem_vs_pause: 0.97,
                },
            },
            wait: WaitCosts { pause_dispatch: 175, mwait_dispatch: 680, os_dispatch: 30_000 },
        }
    }

    /// The paper's proposed architectural enhancements (Section V-A /
    /// VI): "changes to the micro-architecture like adding more
    /// functional units and increasing TLB mapping could substantially
    /// improve the performance of stream programs". This preset doubles
    /// the issue rate, quadruples the DTLB reach, halves the page-walk
    /// cost and deepens the prefetcher — the machine the authors hoped
    /// for.
    #[must_use]
    pub fn enhanced() -> Self {
        let mut cfg = Self::prescott();
        cfg.base_ipc = 2.0;
        cfg.dtlb_entries = 256;
        cfg.walk_cycles = 80;
        cfg.hw_pf_streams = 8;
        cfg.mshrs = 8;
        cfg
    }

    /// A stable content fingerprint of every timing parameter.
    ///
    /// Used to key the autotuner's on-disk evaluation cache: a cached
    /// cycle count is only valid for the exact machine it was measured
    /// on, so any parameter change must change the key. Stable across
    /// processes and releases (FNV-1a over a canonical field encoding,
    /// not `std::hash`).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fp = gpstream_util::Fingerprint::new("machine-config-v1");
        fp.usize(self.contexts).usize(self.smt.threads_per_core);
        fp.f64(self.freq_ghz).f64(self.base_ipc);
        fp.u64(self.copy_uops_per_elem).u64(self.sw_prefetch_uops);
        for geo in [&self.l1, &self.l2] {
            fp.u64(geo.capacity).u64(geo.line).u64(geo.ways);
        }
        fp.u64(self.l1_lat).u64(self.l2_lat).u64(self.nt_ways);
        fp.usize(self.dtlb_entries).u64(self.page_bytes).u64(self.walk_cycles);
        fp.u64(self.mem_lat).f64(self.bus_bytes_per_cycle).u64(self.bus_turnaround);
        fp.usize(self.hw_pf_streams).u64(self.hw_pf_depth).u64(self.sw_pf_depth);
        fp.u64(self.mshrs).u64(self.store_miss_exposed);
        fp.u64(self.ooo_window_cycles).u64(self.l2_dep_exposed);
        let s = &self.smt.factors;
        for f in [
            s.comp_vs_comp,
            s.comp_vs_mem,
            s.comp_vs_pause,
            s.mem_vs_comp,
            s.mem_vs_mem,
            s.mem_vs_pause,
        ] {
            fp.f64(f);
        }
        fp.u64(self.wait.pause_dispatch).u64(self.wait.mwait_dispatch).u64(self.wait.os_dispatch);
        fp.finish()
    }

    /// Cycles the bus is occupied transferring `bytes`.
    #[must_use]
    pub fn bus_cycles(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.bus_bytes_per_cycle).ceil() as u64
    }

    /// Convert a cycle count to seconds at the configured clock.
    #[must_use]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Bandwidth in GB/s implied by moving `bytes` in `cycles`.
    #[must_use]
    pub fn bandwidth_gbps(&self, bytes: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 / self.cycles_to_secs(cycles) / 1e9
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::prescott()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prescott_geometry() {
        let c = MachineConfig::prescott();
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.l1.sets(), 16);
    }

    #[test]
    fn bus_cycles_rounds_up() {
        let c = MachineConfig::prescott();
        // One 128-byte line takes ceil(128 / 1.882) = 68 cycles.
        assert_eq!(c.bus_cycles(128), 68);
        assert_eq!(c.bus_cycles(0), 0);
        assert_eq!(c.bus_cycles(1), 1);
    }

    #[test]
    fn bandwidth_conversion() {
        let c = MachineConfig::prescott();
        // Moving bus_bytes_per_cycle bytes per cycle equals 6.4 GB/s.
        let cycles = 1_000_000;
        let bytes = (c.bus_bytes_per_cycle * cycles as f64) as u64;
        let bw = c.bandwidth_gbps(bytes, cycles);
        assert!((bw - 6.4).abs() < 0.01, "bw = {bw}");
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_geometry_panics() {
        let _ = CacheGeometry { capacity: 1000, line: 128, ways: 8 }.sets();
    }

    #[test]
    #[should_panic(expected = "`line` must be a power of two")]
    fn non_power_of_two_line_panics() {
        let _ = CacheGeometry { capacity: 96 * 4 * 8, line: 96, ways: 4 }.sets();
    }

    #[test]
    #[should_panic(expected = "set count")]
    fn non_power_of_two_set_count_panics() {
        let _ = CacheGeometry { capacity: 3 * 64 * 4, line: 64, ways: 4 }.sets();
    }

    #[test]
    fn default_is_prescott() {
        assert_eq!(MachineConfig::default(), MachineConfig::prescott());
    }

    #[test]
    fn fingerprint_tracks_every_knob_change() {
        let base = MachineConfig::prescott().fingerprint();
        assert_eq!(base, MachineConfig::prescott().fingerprint(), "stable across calls");
        let mut deeper = MachineConfig::prescott();
        deeper.sw_pf_depth += 1;
        assert_ne!(base, deeper.fingerprint());
        let mut faster = MachineConfig::prescott();
        faster.wait.pause_dispatch = 174;
        assert_ne!(base, faster.fingerprint());
        let mut wider = MachineConfig::prescott();
        wider.contexts = 4;
        assert_ne!(base, wider.fingerprint());
        let mut fused = MachineConfig::prescott();
        fused.smt.threads_per_core = 4;
        assert_ne!(base, fused.fingerprint());
        assert_ne!(base, MachineConfig::enhanced().fingerprint());
    }
}
