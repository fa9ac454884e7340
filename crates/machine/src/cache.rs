//! Set-associative cache model with LRU replacement, dirty lines and a
//! non-temporal fill policy.
//!
//! The cache is trace-driven: [`Cache::access`] is called per line-granular
//! reference and reports hit/miss plus any victim writeback. The paper's
//! SRF-pinning scheme is modeled mechanically: an optional *SRF range* of
//! physical addresses is registered, fills of SRF lines avoid the ways
//! reserved for non-temporal data, and non-temporal fills are confined to
//! those reserved ways so they can never evict SRF lines. Plain (non-NT)
//! fills use ordinary LRU over all ways and therefore *can* evict the SRF —
//! which is exactly the behaviour the paper's non-temporal hints exist to
//! prevent.
//!
//! Line size and set count are powers of two ([`CacheGeometry::sets`]
//! asserts it), so a reference is indexed by shift and mask — no
//! division on any path. Besides the per-reference [`Cache::access`],
//! the event engine uses two hit-only entry points that leave the cache
//! in exactly the state the same `access` calls would: the arithmetic
//! [`Cache::touch_cycle`] for cyclic same-line replays, and
//! [`Cache::slot_of`] + [`Cache::hit`] for in-order runs of proven hits.

use crate::config::CacheGeometry;
use std::ops::Range;

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The referenced line was present.
    pub hit: bool,
    /// A dirty victim line had to be written back (its base address).
    pub writeback: Option<u64>,
    /// The fill evicted a line belonging to the registered SRF range.
    pub evicted_srf: bool,
}

/// Fill policy for a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// Ordinary LRU fill over all ways.
    Normal,
    /// Non-temporal: fill only into the reserved NT ways, never evicting
    /// lines outside them.
    NonTemporal,
    /// Do not allocate at all (non-temporal store streaming to memory).
    NoAllocate,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp; larger = more recently used.
    stamp: u64,
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// `log2(line)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// `log2(sets)`.
    sets_shift: u32,
    nt_ways: u64,
    lines: Vec<Line>,
    clock: u64,
    srf: Option<Range<u64>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Create a cache with `nt_ways` ways (taken from the high way indices)
    /// reserved for non-temporal fills.
    ///
    /// # Panics
    ///
    /// Panics if `nt_ways >= geom.ways` or the geometry is degenerate.
    #[must_use]
    pub fn new(geom: CacheGeometry, nt_ways: u64) -> Self {
        let sets = geom.sets();
        assert!(nt_ways < geom.ways, "must leave at least one normal way");
        Cache {
            geom,
            line_shift: geom.line.trailing_zeros(),
            set_mask: sets - 1,
            sets_shift: sets.trailing_zeros(),
            nt_ways,
            lines: vec![Line::default(); (sets * geom.ways) as usize],
            clock: 0,
            srf: None,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Register the address range treated as the Stream Register File.
    /// Fills of addresses inside the range avoid the NT ways.
    pub fn set_srf_range(&mut self, range: Option<Range<u64>>) {
        self.srf = range;
    }

    /// The registered SRF range, if any.
    #[must_use]
    pub fn srf_range(&self) -> Option<&Range<u64>> {
        self.srf.as_ref()
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn index_of(&self, addr: u64) -> (u64, u64) {
        let line_addr = addr >> self.line_shift;
        (line_addr & self.set_mask, line_addr >> self.sets_shift)
    }

    fn line_base(&self, set: u64, tag: u64) -> u64 {
        ((tag << self.sets_shift) | set) << self.line_shift
    }

    fn in_srf(&self, addr: u64) -> bool {
        self.srf.as_ref().is_some_and(|r| r.contains(&addr))
    }

    /// Reference the line containing `addr`. `write` marks the line dirty on
    /// hit or after fill. `policy` governs allocation on a miss.
    pub fn access(&mut self, addr: u64, write: bool, policy: FillPolicy) -> AccessOutcome {
        if let Some(slot) = self.slot_of(addr) {
            self.hit(slot, write);
            return AccessOutcome { hit: true, writeback: None, evicted_srf: false };
        }

        self.clock += 1;
        self.misses += 1;
        let (set, tag) = self.index_of(addr);
        let base = (set * self.geom.ways) as usize;
        let ways = self.geom.ways as usize;
        if policy == FillPolicy::NoAllocate {
            return AccessOutcome { hit: false, writeback: None, evicted_srf: false };
        }

        // Choose a victim way according to the fill policy.
        let nt_start = (self.geom.ways - self.nt_ways) as usize;
        let candidate_range = match policy {
            FillPolicy::NonTemporal if self.nt_ways > 0 => nt_start..ways,
            _ => {
                if self.in_srf(addr) && self.nt_ways > 0 {
                    // SRF fills keep out of the ways reserved for NT data so
                    // NT traffic and the SRF do not collide.
                    0..nt_start
                } else {
                    0..ways
                }
            }
        };
        let victim_rel = {
            let slice = &self.lines[base..base + ways];
            let mut best = candidate_range.start;
            let mut best_stamp = u64::MAX;
            for w in candidate_range.clone() {
                let l = &slice[w];
                if !l.valid {
                    best = w;
                    break;
                }
                if l.stamp < best_stamp {
                    best_stamp = l.stamp;
                    best = w;
                }
            }
            best
        };

        let victim = self.lines[base + victim_rel];
        let mut writeback = None;
        let mut evicted_srf = false;
        if victim.valid {
            let victim_addr = self.line_base(set, victim.tag);
            if victim.dirty {
                writeback = Some(victim_addr);
            }
            evicted_srf = self.srf.as_ref().is_some_and(|r| r.contains(&victim_addr));
        }
        if writeback.is_some() {
            self.writebacks += 1;
        }
        let clock = self.clock;
        let victim = &mut self.lines[base + victim_rel];
        victim.tag = tag;
        victim.valid = true;
        victim.dirty = write;
        victim.stamp = clock;

        AccessOutcome { hit: false, writeback, evicted_srf }
    }

    /// Replay `reps` repetitions of a cyclic *hit* sequence in one
    /// arithmetic update: each `(addr, write)` item is referenced once per
    /// repetition, in order. Equivalent to calling [`Cache::access`]
    /// `reps` times over the cycle when every line is resident: the clock
    /// advances once per reference, each line ends with the stamp of its
    /// last position in the final repetition, dirty bits accumulate, and
    /// every reference counts as a hit.
    ///
    /// # Panics
    ///
    /// Panics if any referenced line is absent — callers must probe with
    /// [`Cache::contains`] first (the event-driven engine only batches
    /// references it has proven will hit).
    pub fn touch_cycle(&mut self, items: &[(u64, bool)], reps: u64) {
        if items.is_empty() || reps == 0 {
            return;
        }
        let len = items.len() as u64;
        let clock0 = self.clock;
        self.clock += len * reps;
        self.hits += len * reps;
        for (j, &(addr, write)) in items.iter().enumerate() {
            let slot = self.slot_of(addr).expect("touch_cycle requires resident lines");
            let line = &mut self.lines[slot];
            line.stamp = clock0 + (reps - 1) * len + j as u64 + 1;
            line.dirty |= write;
        }
    }

    /// Probe without updating state: is the line containing `addr` present?
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.slot_of(addr).is_some()
    }

    /// Probe without updating state: the slot holding the line that
    /// contains `addr`, if resident. A slot stays valid for that line
    /// until the next miss fill or [`Cache::flush`] — hits never move
    /// lines.
    #[inline]
    #[must_use]
    pub fn slot_of(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.index_of(addr);
        let base = (set * self.geom.ways) as usize;
        self.lines[base..base + self.geom.ways as usize]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|w| base + w)
    }

    /// Reference the resident line in `slot` (from [`Cache::slot_of`]):
    /// exactly the hit arm of [`Cache::access`].
    #[inline]
    pub fn hit(&mut self, slot: usize, write: bool) {
        self.clock += 1;
        self.hits += 1;
        let line = &mut self.lines[slot];
        line.stamp = self.clock;
        line.dirty |= write;
    }

    /// Invalidate everything (e.g. between experiments).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }

    /// Pre-load an address range (e.g. warm the SRF into the cache),
    /// marking lines clean.
    pub fn warm(&mut self, range: Range<u64>) {
        let mut addr = range.start & !(self.geom.line - 1);
        while addr < range.end {
            let _ = self.access(addr, false, FillPolicy::Normal);
            addr += self.geom.line;
        }
        // Warming should not count toward experiment statistics.
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// (hits, misses, writebacks) since construction or the last `warm`.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 4 ways x 64B lines = 1 KiB.
        Cache::new(CacheGeometry { capacity: 1024, line: 64, ways: 4 }, 1)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x100, false, FillPolicy::Normal).hit);
        assert!(c.access(0x100, false, FillPolicy::Normal).hit);
        assert!(c.access(0x13f, false, FillPolicy::Normal).hit, "same line");
        assert!(!c.access(0x140, false, FillPolicy::Normal).hit, "next line");
    }

    #[test]
    fn lru_eviction_and_writeback() {
        let mut c = small();
        // Fill all 4 ways of set 0 (addresses stride = sets*line = 256).
        for i in 0..4u64 {
            c.access(i * 256, true, FillPolicy::Normal);
        }
        // Touch line 0 so line 1 (addr 256) becomes LRU.
        c.access(0, false, FillPolicy::Normal);
        let out = c.access(4 * 256, false, FillPolicy::Normal);
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(256), "dirty LRU victim written back");
        assert!(c.contains(0));
        assert!(!c.contains(256));
    }

    #[test]
    fn nt_fill_confined_to_reserved_way() {
        let mut c = small();
        // Fill ways 0..3 of set 0 normally.
        for i in 0..4u64 {
            c.access(i * 256, false, FillPolicy::Normal);
        }
        // Two NT fills to the same set may only replace each other (and the
        // line that happened to occupy the NT way), never the other 3 ways.
        c.access(10 * 256, false, FillPolicy::NonTemporal);
        c.access(11 * 256, false, FillPolicy::NonTemporal);
        assert!(!c.contains(10 * 256), "first NT line displaced by second");
        assert!(c.contains(11 * 256));
        // At most one of the original lines was displaced.
        let survivors = (0..4u64).filter(|i| c.contains(i * 256)).count();
        assert_eq!(survivors, 3);
    }

    #[test]
    fn srf_fills_avoid_nt_ways_and_nt_never_evicts_srf() {
        let mut c = small();
        c.set_srf_range(Some(0..1024));
        // 4 SRF lines mapping to set 0: only 3 normal ways available, so one
        // of them evicts another SRF line but the NT way stays free.
        for i in 0..4u64 {
            c.access(i * 256, true, FillPolicy::Normal);
        }
        let resident: Vec<bool> = (0..4u64).map(|i| c.contains(i * 256)).collect();
        assert_eq!(resident.iter().filter(|r| **r).count(), 3);
        // NT fill from outside the SRF must not evict any resident SRF line.
        let out = c.access(100 * 256, false, FillPolicy::NonTemporal);
        assert!(!out.evicted_srf);
        let after: Vec<bool> = (0..4u64).map(|i| c.contains(i * 256)).collect();
        assert_eq!(resident, after);
    }

    #[test]
    fn normal_fill_can_evict_srf() {
        let mut c = small();
        c.set_srf_range(Some(0..768)); // 3 lines' worth per set at most
        for i in 0..3u64 {
            c.access(i * 256, true, FillPolicy::Normal);
        }
        // Non-NT misses from a big sweep eventually evict SRF lines.
        let mut evicted = false;
        for i in 10..30u64 {
            let out = c.access(i * 256, false, FillPolicy::Normal);
            evicted |= out.evicted_srf;
        }
        assert!(evicted, "plain fills must be able to evict the SRF");
    }

    #[test]
    fn touch_cycle_matches_repeated_access() {
        let mk = || {
            let mut c = small();
            for a in [0x100u64, 0x200, 0x300] {
                c.access(a, false, FillPolicy::Normal);
            }
            c
        };
        let mut stepped = mk();
        for _ in 0..7 {
            for (a, w) in [(0x100u64, false), (0x200, true), (0x100, false)] {
                assert!(stepped.access(a, w, FillPolicy::Normal).hit);
            }
        }
        let mut batched = mk();
        batched.touch_cycle(&[(0x100, false), (0x200, true), (0x100, false)], 7);
        assert_eq!(format!("{stepped:?}"), format!("{batched:?}"));
    }

    #[test]
    fn no_allocate_leaves_cache_untouched() {
        let mut c = small();
        c.access(0, false, FillPolicy::Normal);
        let out = c.access(4096, true, FillPolicy::NoAllocate);
        assert!(!out.hit);
        assert!(!c.contains(4096));
        assert!(c.contains(0));
    }

    #[test]
    fn warm_resets_stats() {
        let mut c = small();
        c.warm(0..512);
        assert_eq!(c.stats(), (0, 0, 0));
        assert!(c.contains(0) && c.contains(448));
    }

    /// Division/modulo reference model of [`Cache`]: the indexing the
    /// shift-and-mask implementation replaced, with the same fill
    /// policies, as plainly as it can be written.
    struct DivModCache {
        geom: CacheGeometry,
        sets: u64,
        nt_ways: u64,
        /// (tag, valid, dirty, stamp) per way, set-major.
        lines: Vec<(u64, bool, bool, u64)>,
        clock: u64,
        srf: Option<Range<u64>>,
    }

    impl DivModCache {
        fn new(geom: CacheGeometry, nt_ways: u64, srf: Option<Range<u64>>) -> Self {
            let sets = geom.capacity / (geom.line * geom.ways);
            let lines = vec![(0, false, false, 0); (sets * geom.ways) as usize];
            DivModCache { geom, sets, nt_ways, lines, clock: 0, srf }
        }

        fn way_of(&self, addr: u64) -> (usize, u64, Option<usize>) {
            let line_addr = addr / self.geom.line;
            let (set, tag) = (line_addr % self.sets, line_addr / self.sets);
            let base = (set * self.geom.ways) as usize;
            let way = (0..self.geom.ways as usize).find(|&w| {
                let (t, valid, ..) = self.lines[base + w];
                valid && t == tag
            });
            (base, tag, way)
        }

        fn access(&mut self, addr: u64, write: bool, policy: FillPolicy) -> AccessOutcome {
            self.clock += 1;
            let (base, tag, way) = self.way_of(addr);
            if let Some(w) = way {
                let l = &mut self.lines[base + w];
                (l.2, l.3) = (l.2 | write, self.clock);
                return AccessOutcome { hit: true, writeback: None, evicted_srf: false };
            }
            let miss = AccessOutcome { hit: false, writeback: None, evicted_srf: false };
            if policy == FillPolicy::NoAllocate {
                return miss;
            }
            let ways = self.geom.ways as usize;
            let nt_start = ways - self.nt_ways as usize;
            let in_srf = |a: u64| self.srf.as_ref().is_some_and(|r| r.contains(&a));
            let candidates = match policy {
                FillPolicy::NonTemporal if self.nt_ways > 0 => nt_start..ways,
                _ if in_srf(addr) && self.nt_ways > 0 => 0..nt_start,
                _ => 0..ways,
            };
            // First invalid way, else the first way with the least stamp.
            let victim = candidates
                .clone()
                .find(|&w| !self.lines[base + w].1)
                .or_else(|| candidates.min_by_key(|&w| self.lines[base + w].3))
                .expect("at least one candidate way");
            let (vtag, valid, dirty, _) = self.lines[base + victim];
            let set = (base as u64) / self.geom.ways;
            let victim_addr = (vtag * self.sets + set) * self.geom.line;
            self.lines[base + victim] = (tag, true, write, self.clock);
            AccessOutcome {
                writeback: (valid && dirty).then_some(victim_addr),
                evicted_srf: valid && in_srf(victim_addr),
                ..miss
            }
        }
    }

    /// Shift/mask [`Cache`] against the div/mod model over random
    /// power-of-two geometries: every `access` outcome, `contains`,
    /// `slot_of` + `hit`, `touch_cycle`, `flush`, and the final tag,
    /// valid, dirty and stamp of every way.
    #[test]
    fn shift_mask_cache_matches_div_mod_model() {
        use gpstream_util::check::run_cases;
        run_cases("cache-vs-div-mod", 0xcac4e, 64, |rng| {
            let line = 16u64 << rng.below(4); // 16..128
            let ways = rng.range_u64(1, 9);
            let sets = 1u64 << rng.below(6); // 1..32
            let geom = CacheGeometry { capacity: line * ways * sets, line, ways };
            let nt_ways = rng.below(ways);
            let span = geom.capacity * 4;
            let srf = rng.bool().then(|| {
                let start = rng.below(span);
                start..start + rng.range_u64(1, geom.capacity)
            });
            let mut cache = Cache::new(geom, nt_ways);
            cache.set_srf_range(srf.clone());
            let mut model = DivModCache::new(geom, nt_ways, srf);
            for _ in 0..600 {
                let addr = rng.below(span);
                match rng.below(16) {
                    0 => {
                        cache.flush();
                        model.lines.fill((0, false, false, 0));
                    }
                    1..=3 => {
                        // A hit through the slot interface, when resident.
                        let resident = model.way_of(addr).2.is_some();
                        assert_eq!(cache.contains(addr), resident);
                        if let Some(slot) = cache.slot_of(addr) {
                            let write = rng.bool();
                            cache.hit(slot, write);
                            assert!(model.access(addr, write, FillPolicy::Normal).hit);
                        }
                    }
                    4 | 5 => {
                        // A cyclic replay over up to three resident lines.
                        let items: Vec<(u64, bool)> = (0..3)
                            .map(|_| (rng.below(span), rng.bool()))
                            .filter(|&(a, _)| cache.contains(a))
                            .collect();
                        let reps = rng.range_u64(1, 5);
                        cache.touch_cycle(&items, reps);
                        for _ in 0..reps {
                            for &(a, w) in &items {
                                assert!(model.access(a, w, FillPolicy::Normal).hit);
                            }
                        }
                    }
                    _ => {
                        let policy = match rng.below(4) {
                            0 => FillPolicy::NonTemporal,
                            1 => FillPolicy::NoAllocate,
                            _ => FillPolicy::Normal,
                        };
                        let write = rng.bool();
                        let got = cache.access(addr, write, policy);
                        assert_eq!(got, model.access(addr, write, policy), "addr {addr:#x}");
                    }
                }
            }
            let state: Vec<_> =
                cache.lines.iter().map(|l| (l.tag, l.valid, l.dirty, l.stamp)).collect();
            assert_eq!(state, model.lines);
            assert_eq!(cache.clock, model.clock);
        });
    }
}
