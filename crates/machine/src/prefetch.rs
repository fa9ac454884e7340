//! Hardware stream-prefetcher model.
//!
//! The Pentium 4's prefetcher watches demand misses, detects ascending or
//! descending line-granular streams (up to a handful of concurrent
//! streams), and runs ahead of the program by a few lines. In the timing
//! model a miss that belongs to a detected stream is treated as
//! *prefetched*: its latency is hidden up to the prefetcher's lookahead
//! depth of bus pipelining (the bus occupancy still has to be paid, which
//! is why sequential bandwidth saturates at the bus rate).
//!
//! Two properties the paper relies on are modeled faithfully:
//!
//! * The prefetcher is trained by *demand misses*; software non-temporal
//!   prefetches suppress demand misses and therefore the hardware
//!   prefetcher (`note_software_prefetch`).
//! * Only a limited number of streams are tracked, and random accesses
//!   never train a stream.

/// One tracked stream.
#[derive(Debug, Clone, Copy)]
struct StreamSlot {
    /// Last line address (addr / line) that advanced this stream.
    last_line: u64,
    /// +1 ascending, -1 descending.
    dir: i64,
    /// Consecutive hits; a stream is "detected" after 2.
    confidence: u32,
    /// LRU stamp.
    stamp: u64,
}

/// Hardware stream detector.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    line_shift: u32,
    slots: Vec<StreamSlot>,
    max_streams: usize,
    clock: u64,
    detected_hits: u64,
    trainings: u64,
}

impl Prefetcher {
    /// A prefetcher tracking up to `max_streams` streams of `line`-byte lines.
    #[must_use]
    pub fn new(line: u64, max_streams: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        Prefetcher {
            line_shift: line.trailing_zeros(),
            slots: Vec::with_capacity(max_streams),
            max_streams,
            clock: 0,
            detected_hits: 0,
            trainings: 0,
        }
    }

    /// Observe a demand miss at `addr`. Returns `true` if the miss belongs
    /// to an already-detected stream (i.e. the line would have been
    /// prefetched ahead of the demand access).
    pub fn observe_miss(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        // Match against an existing stream (next line in either direction,
        // or a re-reference of the same line).
        for slot in &mut self.slots {
            let delta = line as i64 - slot.last_line as i64;
            if delta == slot.dir || (slot.confidence > 0 && delta == 0) {
                slot.last_line = line;
                slot.stamp = self.clock;
                slot.confidence = slot.confidence.saturating_add(1);
                let detected = slot.confidence >= 2;
                if detected {
                    self.detected_hits += 1;
                }
                return detected;
            }
            // A miss exactly one line away in the other direction retrains
            // the direction.
            if delta.abs() == 1 && slot.confidence == 0 {
                slot.dir = delta.signum();
                slot.last_line = line;
                slot.stamp = self.clock;
                slot.confidence = 1;
                return false;
            }
        }
        // Allocate a new stream slot (LRU replacement).
        self.trainings += 1;
        let slot = StreamSlot { last_line: line, dir: 1, confidence: 0, stamp: self.clock };
        if self.slots.len() < self.max_streams {
            self.slots.push(slot);
        } else if let Some(lru) = self.slots.iter_mut().min_by_key(|s| s.stamp) {
            *lru = slot;
        }
        false
    }

    /// Software prefetches bypass the demand-miss stream; seeing them
    /// does not train the hardware prefetcher. Present for symmetry and
    /// statistics.
    pub fn note_software_prefetch(&mut self) {
        self.clock += 1;
    }

    /// Forget all streams.
    pub fn flush(&mut self) {
        self.slots.clear();
    }

    /// (misses covered by a detected stream, new stream allocations).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.detected_hits, self.trainings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_detected_after_warmup() {
        let mut pf = Prefetcher::new(128, 8);
        assert!(!pf.observe_miss(0)); // allocate
        assert!(!pf.observe_miss(128)); // confidence 1
        assert!(pf.observe_miss(256)); // detected
        assert!(pf.observe_miss(384));
    }

    #[test]
    fn descending_stream_detected() {
        let mut pf = Prefetcher::new(128, 8);
        pf.observe_miss(10 * 128);
        pf.observe_miss(9 * 128);
        assert!(pf.observe_miss(8 * 128));
    }

    #[test]
    fn random_misses_never_detected() {
        let mut pf = Prefetcher::new(128, 8);
        let addrs = [0u64, 77 * 128, 13 * 128, 501 * 128, 9000 * 128, 42 * 128];
        for a in addrs {
            assert!(!pf.observe_miss(a));
        }
    }

    #[test]
    fn interleaved_streams_within_capacity_all_detected() {
        let mut pf = Prefetcher::new(128, 8);
        // Three interleaved sequential streams (like LD-ST-COMP's arrays).
        let bases = [0u64, 1 << 20, 2 << 20];
        let mut detected = 0;
        for i in 0..16u64 {
            for b in bases {
                if pf.observe_miss(b + i * 128) {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, 3 * 14, "all three streams detected after warmup");
    }

    #[test]
    fn too_many_streams_thrash() {
        let mut pf = Prefetcher::new(128, 2);
        let bases: Vec<u64> = (0..6u64).map(|k| k << 20).collect();
        let mut detected = 0;
        for i in 0..8u64 {
            for &b in &bases {
                if pf.observe_miss(b + i * 128) {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, 0, "six interleaved streams overwhelm two slots");
    }
}
