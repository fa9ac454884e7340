//! Front-side-bus model.
//!
//! The bus is a single shared server with finite throughput that moves
//! whole cache lines: each transfer (line fill, writeback, or
//! non-temporal store burst) occupies it for `ceil(line /
//! bytes_per_cycle)` cycles. Requests queue in arrival order. The paper's
//! 6.4 GB/s front side bus at a 3.4 GHz core clock moves ~1.88 bytes per
//! core cycle, so a 128-byte line occupies the bus for 68 cycles — this
//! single number drives most of Figure 5.

use crate::config::MachineConfig;

/// Completed schedule for one bus transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Cycle the transfer was granted the bus.
    pub start: u64,
    /// Cycle the bus becomes free again.
    pub bus_free: u64,
    /// Cycle the requester observes the data (start + lead latency).
    pub data_ready: u64,
}

/// Shared front-side bus.
#[derive(Debug, Clone)]
pub struct Bus {
    line_bytes: u64,
    line_cycles: u64,
    lead_lat: u64,
    turnaround: u64,
    next_free: u64,
    last_requester: Option<u8>,
    busy_cycles: u64,
    bytes_moved: u64,
}

impl Bus {
    /// The bus of `cfg`: it moves `cfg.l2.line`-byte lines at
    /// `bus_bytes_per_cycle`, with `mem_lat` cycles from grant to first
    /// data (DRAM access + chipset traversal) and `bus_turnaround`
    /// arbitration cycles whenever ownership switches between requesters
    /// (the destructive interference the paper's Figure 6 measures when
    /// two contexts stream memory concurrently).
    ///
    /// # Panics
    ///
    /// Panics if `bus_bytes_per_cycle` is not strictly positive.
    #[must_use]
    pub fn new(cfg: &MachineConfig) -> Self {
        assert!(cfg.bus_bytes_per_cycle > 0.0, "bus throughput must be positive");
        Bus {
            line_bytes: cfg.l2.line,
            line_cycles: cfg.bus_cycles(cfg.l2.line),
            lead_lat: cfg.mem_lat,
            turnaround: cfg.bus_turnaround,
            next_free: 0,
            last_requester: None,
            busy_cycles: 0,
            bytes_moved: 0,
        }
    }

    /// Forget every transfer, keeping the bus's geometry.
    pub fn reset(&mut self) {
        *self = Bus { next_free: 0, last_requester: None, busy_cycles: 0, bytes_moved: 0, ..*self };
    }

    /// Cycles one line occupies the bus, before any turnaround.
    #[must_use]
    pub fn line_cycles(&self) -> u64 {
        self.line_cycles
    }

    /// Schedule one line transfer requested at cycle `at` by context
    /// `who`. `contended` marks transfers issued while the other context is
    /// also streaming memory: the engine simulates in coarse chunks, so
    /// per-transaction interleaving is modeled by charging the turnaround
    /// on every contended transfer rather than only on observed switches.
    pub fn request(&mut self, at: u64, who: u8, contended: bool) -> Transfer {
        let mut occupancy = self.line_cycles;
        if contended || self.last_requester.is_some_and(|w| w != who) {
            occupancy += self.turnaround;
        }
        self.last_requester = Some(who);
        let start = self.next_free.max(at);
        self.next_free = start + occupancy;
        self.busy_cycles += occupancy;
        self.bytes_moved += self.line_bytes;
        Transfer { start, bus_free: self.next_free, data_ready: start + self.lead_lat }
    }

    /// Cycle at which the last scheduled transfer releases the bus.
    #[must_use]
    pub fn next_free(&self) -> u64 {
        self.next_free
    }

    /// Total cycles the bus has been occupied.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total bytes transferred.
    #[must_use]
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bus moving 128-byte lines at `bytes_per_cycle`.
    fn bus(bytes_per_cycle: f64, lead_lat: u64, turnaround: u64) -> Bus {
        let mut cfg = MachineConfig::prescott();
        cfg.l2.line = 128;
        cfg.bus_bytes_per_cycle = bytes_per_cycle;
        cfg.mem_lat = lead_lat;
        cfg.bus_turnaround = turnaround;
        Bus::new(&cfg)
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut bus = bus(2.0, 100, 0);
        let a = bus.request(0, 0, false); // 64 cycles
        let b = bus.request(0, 0, false);
        assert_eq!(a.start, 0);
        assert_eq!(a.bus_free, 64);
        assert_eq!(b.start, 64, "second transfer waits for the bus");
        assert_eq!(b.data_ready, 164);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut bus = bus(2.0, 0, 0);
        bus.request(0, 0, false);
        let t = bus.request(1000, 0, false);
        assert_eq!(t.start, 1000);
        assert_eq!(bus.busy_cycles(), 128);
    }

    #[test]
    fn accounting() {
        let mut bus = bus(2.0, 10, 0);
        bus.request(0, 0, false);
        bus.request(0, 0, false);
        assert_eq!(bus.bytes_moved(), 256);
        assert_eq!(bus.next_free(), 128);
        bus.reset();
        assert_eq!((bus.bytes_moved(), bus.busy_cycles(), bus.next_free()), (0, 0, 0));
        assert_eq!(bus.request(5, 1, false).bus_free, 5 + 64, "no turnaround after a reset");
    }

    #[test]
    fn requester_switch_pays_turnaround() {
        let mut bus = bus(2.0, 0, 4);
        bus.request(0, 0, false); // 64 cycles, no penalty (first owner)
        let b = bus.request(0, 1, false); // turnaround on switch
        assert_eq!(b.bus_free, 64 + 68);
        let c = bus.request(0, 1, false); // same owner, no penalty
        assert_eq!(c.bus_free, 64 + 68 + 64);
    }
}
