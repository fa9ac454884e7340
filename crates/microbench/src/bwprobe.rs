//! Figure 5 bandwidth probes.
//!
//! Measures the rate at which 4-byte fields can be gathered into / scattered
//! out of the SRF while the record size (the stride) grows from 4 to 128
//! bytes, for sequential and random visit orders, with and without
//! non-temporal hints — the experiment of Section III-A.

use gpstream_core::metrics::{BandwidthPoint, BandwidthSeries};
use gpstream_core::srf::SrfConfig;
use gpstream_machine::ops::{AccessPattern, BulkOp, CopyDir};
use gpstream_machine::{Machine, MachineConfig};
use gpstream_util::{fanout, Rng64};
use std::sync::Arc;

/// Access pattern flavour of a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Figure 5(a): sequential loads.
    SeqLoad,
    /// Figure 5(b): random gathers.
    RandGather,
    /// Figure 5(c): sequential stores.
    SeqStore,
    /// Figure 5(d): random scatters.
    RandScatter,
}

impl ProbeKind {
    /// All four probes in figure order.
    pub const ALL: [ProbeKind; 4] =
        [ProbeKind::SeqLoad, ProbeKind::RandGather, ProbeKind::SeqStore, ProbeKind::RandScatter];

    /// Figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProbeKind::SeqLoad => "fig5a sequential load",
            ProbeKind::RandGather => "fig5b random gather",
            ProbeKind::SeqStore => "fig5c sequential store",
            ProbeKind::RandScatter => "fig5d random scatter",
        }
    }
}

/// Size of the accessed field, as in the paper.
pub const FIELD_BYTES: u64 = 4;
/// Record sizes swept, up to the 128-byte L2 line.
pub const RECORD_SIZES: [u64; 6] = [4, 8, 16, 32, 64, 128];
/// Array footprint for each probe (much larger than the L2).
const ARRAY_BYTES: u64 = 4 << 20;
/// Element cap for random probes (keeps simulation time bounded while
/// still thrashing the TLB).
const RANDOM_ELEMS: usize = 96 * 1024;
/// SRF strip size used by the probe copies.
const STRIP_BYTES: usize = 128 * 1024;

/// Measure one probe point: useful GB/s for the given record size.
#[must_use]
pub fn bandwidth(kind: ProbeKind, record: u64, nt: bool, cfg: &MachineConfig) -> f64 {
    let srf = SrfConfig::prescott();
    let mut machine = Machine::new(cfg.clone());
    machine.install_srf(srf.range());

    let base = 0x4000_0000u64;
    let count = (ARRAY_BYTES / record) as usize;
    let (count, indices) = match kind {
        ProbeKind::SeqLoad | ProbeKind::SeqStore => (count, None),
        ProbeKind::RandGather | ProbeKind::RandScatter => {
            let n = count.min(RANDOM_ELEMS);
            let mut idx: Vec<u32> = (0..count as u32).collect();
            Rng64::seed_from_u64(0x5eed).shuffle(&mut idx);
            idx.truncate(n);
            (n, Some(idx))
        }
    };

    // Break the copy into SRF-sized strips alternating between two
    // buffers, as a real gather/scatter sequence would.
    let strip_elems = (STRIP_BYTES as u64 / FIELD_BYTES) as usize;
    let dir = match kind {
        ProbeKind::SeqLoad | ProbeKind::RandGather => CopyDir::GatherToSrf,
        ProbeKind::SeqStore | ProbeKind::RandScatter => CopyDir::ScatterFromSrf,
    };
    let mut ops = Vec::new();
    let mut start = 0usize;
    let mut parity = 0u64;
    while start < count {
        let end = (start + strip_elems).min(count);
        let mem = match &indices {
            None => AccessPattern::Strided {
                base: base + start as u64 * record,
                record,
                field_offset: 0,
                field_bytes: FIELD_BYTES,
                count: (end - start) as u64,
            },
            Some(idx) => {
                let slice: Arc<[u32]> = idx[start..end].to_vec().into();
                AccessPattern::Indexed {
                    base,
                    record,
                    field_offset: 0,
                    field_bytes: FIELD_BYTES,
                    indices: slice,
                }
            }
        };
        ops.push(BulkOp::Copy { mem, srf_base: srf.base + parity * STRIP_BYTES as u64, dir, nt });
        parity ^= 1;
        start = end;
    }

    let result = machine.run_single(ops);
    result.bandwidth_gbps(count as u64 * FIELD_BYTES, cfg.freq_ghz)
}

/// Every probe of Figure 5 as `(kind, nt, record)`, in figure order:
/// per probe kind a baseline then a non-temporal series, each over
/// [`RECORD_SIZES`].
fn probes() -> Vec<(ProbeKind, bool, u64)> {
    ProbeKind::ALL
        .into_iter()
        .flat_map(|kind| [(kind, false), (kind, true)])
        .flat_map(|(kind, nt)| RECORD_SIZES.map(|record| (kind, nt, record)))
        .collect()
}

/// Produce the full Figure 5 dataset: for each probe kind, a baseline
/// series and a non-temporal series over [`RECORD_SIZES`]. The 48
/// independent probes fan out across the host's cores.
#[must_use]
pub fn figure5(cfg: &MachineConfig) -> Vec<BandwidthSeries> {
    let probes = probes();
    let gbps = fanout::map(&probes, fanout::threads(), |&(kind, nt, record)| {
        bandwidth(kind, record, nt, cfg)
    });
    let n = RECORD_SIZES.len();
    probes
        .chunks(n)
        .zip(gbps.chunks(n))
        .map(|(series, gbps)| {
            let (kind, nt, _) = series[0];
            BandwidthSeries {
                name: format!(
                    "{}{}",
                    kind.label(),
                    if nt { " (non-temporal)" } else { " (baseline)" }
                ),
                points: series
                    .iter()
                    .zip(gbps)
                    .map(|(&(_, _, record_bytes), &gbps)| BandwidthPoint { record_bytes, gbps })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::prescott()
    }

    #[test]
    fn sequential_load_bandwidth_drops_with_record_size() {
        let small = bandwidth(ProbeKind::SeqLoad, 4, false, &cfg());
        let large = bandwidth(ProbeKind::SeqLoad, 128, false, &cfg());
        assert!(
            small > 4.0 * large,
            "4B records ({small:.3} GB/s) must far outpace 128B records ({large:.3} GB/s)"
        );
        assert!(small > 1.0, "dense copy should be GB/s-scale, got {small:.3}");
        assert!(large < 0.5, "1/32 line utilization must be slow, got {large:.3}");
    }

    #[test]
    fn random_gather_is_far_slower_than_sequential() {
        let seq = bandwidth(ProbeKind::SeqLoad, 128, false, &cfg());
        let rnd = bandwidth(ProbeKind::RandGather, 128, false, &cfg());
        assert!(rnd < seq, "random {rnd:.3} must trail sequential {seq:.3}");
        assert!(rnd < 0.15, "TLB-walk bound gathers are ~tens of MB/s, got {rnd:.3} GB/s");
    }

    #[test]
    fn sequential_store_is_about_half_of_load() {
        // Compare in the bus-bound regime (8-byte records): dense 4-byte
        // copies are issue-bound on both sides, masking the RFO cost.
        let load = bandwidth(ProbeKind::SeqLoad, 8, false, &cfg());
        let store = bandwidth(ProbeKind::SeqStore, 8, false, &cfg());
        let ratio = load / store;
        assert!(
            (1.4..2.6).contains(&ratio),
            "read-for-ownership should roughly halve store bandwidth: load={load:.3} \
             store={store:.3} ratio={ratio:.2}"
        );
    }

    #[test]
    fn nt_helps_random_hurts_dense_sequential() {
        let c = cfg();
        let rnd = bandwidth(ProbeKind::RandGather, 128, false, &c);
        let rnd_nt = bandwidth(ProbeKind::RandGather, 128, true, &c);
        assert!(
            rnd_nt > rnd * 1.1,
            "non-temporal hints must help random gathers: {rnd:.4} -> {rnd_nt:.4}"
        );
        let seq = bandwidth(ProbeKind::SeqLoad, 4, false, &c);
        let seq_nt = bandwidth(ProbeKind::SeqLoad, 4, true, &c);
        assert!(
            seq_nt < seq,
            "non-temporal hints must hurt dense sequential loads: {seq:.4} -> {seq_nt:.4}"
        );
    }

    #[test]
    fn figure5_probes_are_positive_and_bit_equal_at_any_thread_count() {
        let c = cfg();
        let probes = probes();
        assert_eq!(probes.len(), 8 * RECORD_SIZES.len(), "eight series of six points");
        let run = |threads| {
            fanout::map(&probes, threads, |&(kind, nt, record)| bandwidth(kind, record, nt, &c))
        };
        let (one, four) = (run(1), run(4));
        for (p, bw) in probes.iter().zip(&one) {
            assert!(bw.is_finite() && *bw > 0.0, "{p:?}: {bw}");
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(one), bits(four));
    }
}
