//! Front-side-bus model.
//!
//! The bus is a single shared server with finite throughput: each transfer
//! (cache-line fill, writeback, or non-temporal store burst) occupies the
//! bus for `bytes / bytes_per_cycle` cycles. Requests queue in arrival
//! order. The paper's 6.4 GB/s front side bus at a 3.4 GHz core clock
//! moves ~1.88 bytes per core cycle, so a 128-byte line occupies the bus
//! for ~68 cycles — this single number drives most of Figure 5.

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
    bytes_per_cycle: f64,
    lead_lat: u64,
    turnaround: u64,
    /// `(bytes, occupancy)` of the last transfer: nearly every request
    /// moves one cache line, so the `f64` division runs once per size
    /// change, not once per transfer.
    last_size: (u64, u64),
    next_free: u64,
    last_requester: Option<u8>,
    busy_cycles: u64,
    bytes_moved: u64,
    transfers: u64,
}

impl Bus {
    /// A bus moving `bytes_per_cycle` with `lead_lat` cycles from grant to
    /// first data (DRAM access + chipset traversal) and `turnaround`
    /// arbitration cycles whenever ownership switches between requesters
    /// (the destructive interference the paper's Figure 6 measures when
    /// two contexts stream memory concurrently).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive.
    #[must_use]
    pub fn new(bytes_per_cycle: f64, lead_lat: u64, turnaround: u64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bus throughput must be positive");
        Bus {
            bytes_per_cycle,
            lead_lat,
            turnaround,
            last_size: (0, 0),
            next_free: 0,
            last_requester: None,
            busy_cycles: 0,
            bytes_moved: 0,
            transfers: 0,
        }
    }

    /// Schedule a transfer of `bytes` requested at cycle `at` by context
    /// `who`. `contended` marks transfers issued while the other context is
    /// also streaming memory: the engine simulates in coarse chunks, so
    /// per-transaction interleaving is modeled by charging the turnaround
    /// on every contended transfer rather than only on observed switches.
    pub fn request(&mut self, at: u64, bytes: u64, who: u8, contended: bool) -> Transfer {
        if self.last_size.0 != bytes {
            self.last_size = (bytes, (bytes as f64 / self.bytes_per_cycle).ceil() as u64);
        }
        let mut occupancy = self.last_size.1;
        if contended || self.last_requester.is_some_and(|w| w != who) {
            occupancy += self.turnaround;
        }
        self.last_requester = Some(who);
        let start = self.next_free.max(at);
        self.next_free = start + occupancy;
        self.busy_cycles += occupancy;
        self.bytes_moved += bytes;
        self.transfers += 1;
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

    /// Number of transfers granted.
    #[must_use]
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_transfers_queue() {
        let mut bus = Bus::new(2.0, 100, 0);
        let a = bus.request(0, 128, 0, false); // 64 cycles
        let b = bus.request(0, 128, 0, false);
        assert_eq!(a.start, 0);
        assert_eq!(a.bus_free, 64);
        assert_eq!(b.start, 64, "second transfer waits for the bus");
        assert_eq!(b.data_ready, 164);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut bus = Bus::new(2.0, 0, 0);
        bus.request(0, 128, 0, false);
        let t = bus.request(1000, 128, 0, false);
        assert_eq!(t.start, 1000);
        assert_eq!(bus.busy_cycles(), 128);
    }

    #[test]
    fn accounting() {
        let mut bus = Bus::new(1.0, 10, 0);
        bus.request(0, 64, 0, false);
        bus.request(0, 64, 0, false);
        assert_eq!(bus.bytes_moved(), 128);
        assert_eq!(bus.transfers(), 2);
        assert_eq!(bus.next_free(), 128);
    }

    #[test]
    fn requester_switch_pays_turnaround() {
        let mut bus = Bus::new(2.0, 0, 4);
        bus.request(0, 128, 0, false); // 64 cycles, no penalty (first owner)
        let b = bus.request(0, 128, 1, false); // turnaround on switch
        assert_eq!(b.bus_free, 64 + 68);
        let c = bus.request(0, 128, 1, false); // same owner, no penalty
        assert_eq!(c.bus_free, 64 + 68 + 64);
    }
}
