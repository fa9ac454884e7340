//! Data TLB model.
//!
//! A fully-associative, LRU TLB of virtual pages. On the Pentium 4 a DTLB
//! miss triggers a hardware page-table walk; walks serialize on the single
//! walker, which the paper identifies as the dominant cost of random
//! gathers/scatters ("more than missing in the cache, missing in the TLB is
//! the dominant factor").
//!
//! Host cost: the page number is a shift, and a resident page is found
//! in O(1) through a direct-mapped *hint* (`page & (HINT_SLOTS − 1)` →
//! slot index). A hint is only ever a guess — it is verified on use
//! (slot in range and holding that page) and otherwise the linear scan
//! runs and refreshes it — so stale hints left by evictions or
//! [`Tlb::flush`] cost a scan, never a wrong answer. Hit stamps, install
//! order and the first-minimum-stamp LRU victim are those of the plain
//! scan, so replacement is unchanged.

/// Hint table size (a power of two): four times the largest TLB in the
/// tree, so pages that collide in the table are rare.
const HINT_SLOTS: usize = 1024;

/// A fully associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: usize,
    page_shift: u32,
    /// (page number, LRU stamp)
    slots: Vec<(u64, u64)>,
    /// `page & (HINT_SLOTS - 1)` → the slot that last held such a page.
    hint: Vec<u16>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Create a TLB with `entries` slots for pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds what the hint table's
    /// `u16` slot index can name, or if `page_bytes` is not a power of
    /// two.
    #[must_use]
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        assert!(
            entries <= usize::from(u16::MAX) + 1,
            "TLB entries must fit the u16 slot hint, got {entries}"
        );
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        Tlb {
            entries,
            page_shift: page_bytes.trailing_zeros(),
            slots: Vec::with_capacity(entries),
            hint: vec![0; HINT_SLOTS],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn hint_index(page: u64) -> usize {
        (page & (HINT_SLOTS as u64 - 1)) as usize
    }

    /// The slot `page`'s hint names, if it really holds `page`.
    #[inline]
    fn hinted(&self, page: u64) -> Option<usize> {
        let slot = usize::from(self.hint[Self::hint_index(page)]);
        (self.slots.get(slot)?.0 == page).then_some(slot)
    }

    /// The slot holding `page` (a page *number*), if resident. Hits
    /// never move pages, so a slot stays valid for that page until the
    /// next miss or [`Tlb::flush`].
    #[inline]
    pub fn slot_of(&mut self, page: u64) -> Option<usize> {
        if let Some(slot) = self.hinted(page) {
            return Some(slot);
        }
        let slot = self.slots.iter().position(|(p, _)| *p == page)?;
        self.hint[Self::hint_index(page)] = slot as u16;
        Some(slot)
    }

    /// Translate through the resident entry in `slot` (from
    /// [`Tlb::slot_of`]): exactly the hit arm of [`Tlb::access`].
    #[inline]
    pub fn hit(&mut self, slot: usize) {
        self.clock += 1;
        self.hits += 1;
        self.slots[slot].1 = self.clock;
    }

    /// Translate the page containing `addr`. Returns `true` on a hit;
    /// a miss installs the translation (the caller charges the walk).
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if let Some(slot) = self.slot_of(page) {
            self.hit(slot);
            return true;
        }
        self.clock += 1;
        self.misses += 1;
        let slot = if self.slots.len() < self.entries {
            self.slots.push((page, self.clock));
            self.slots.len() - 1
        } else {
            let lru = (0..self.entries)
                .min_by_key(|&s| self.slots[s].1)
                .expect("a TLB has at least one entry");
            self.slots[lru] = (page, self.clock);
            lru
        };
        self.hint[Self::hint_index(page)] = slot as u16;
        false
    }

    /// Probe without updating state: is `page` (a page *number*, not an
    /// address) currently resident?
    #[must_use]
    pub fn contains_page(&self, page: u64) -> bool {
        self.hinted(page).is_some() || self.slots.iter().any(|(p, _)| *p == page)
    }

    /// Replay `reps` repetitions of a cyclic hit sequence over `pages`
    /// (page numbers) in one arithmetic update. Equivalent to calling
    /// [`Tlb::access`] `reps` times over the cycle when every page is
    /// resident: the clock advances once per access, each page ends with
    /// the stamp of its last position in the final repetition, and every
    /// access counts as a hit.
    ///
    /// # Panics
    ///
    /// Panics if any page is not resident — callers must probe with
    /// [`Tlb::contains_page`] first (the event-driven engine only batches
    /// accesses it has proven will hit).
    pub fn touch_cycle(&mut self, pages: &[u64], reps: u64) {
        if pages.is_empty() || reps == 0 {
            return;
        }
        let len = pages.len() as u64;
        let clock0 = self.clock;
        self.clock += len * reps;
        self.hits += len * reps;
        // Stamps from the final repetition; assigning in position order
        // lets a later occurrence of a repeated page win, exactly as the
        // stepped interleaving would.
        for (j, &page) in pages.iter().enumerate() {
            let slot = self.slot_of(page).expect("touch_cycle requires resident pages");
            self.slots[slot].1 = clock0 + (reps - 1) * len + j as u64 + 1;
        }
    }

    /// Reach of the TLB in bytes (entries x page size).
    #[must_use]
    pub fn reach(&self) -> u64 {
        (self.entries as u64) << self.page_shift
    }

    /// Drop all translations.
    pub fn flush(&mut self) {
        self.slots.clear();
    }

    /// (hits, misses) since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_page() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2, 4096);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // page 0 now MRU
        t.access(2 * 4096); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(4096), "page 1 was the LRU victim");
    }

    #[test]
    fn reach_and_stats() {
        let mut t = Tlb::new(64, 4096);
        assert_eq!(t.reach(), 256 * 1024);
        for i in 0..128u64 {
            t.access(i * 4096);
        }
        let (h, m) = t.stats();
        assert_eq!(h, 0);
        assert_eq!(m, 128);
    }

    #[test]
    fn touch_cycle_matches_repeated_access() {
        let mk = || {
            let mut t = Tlb::new(4, 4096);
            for p in [3u64, 7, 9] {
                t.access(p * 4096);
            }
            t
        };
        let mut stepped = mk();
        for _ in 0..5 {
            for p in [7u64, 9, 7] {
                assert!(stepped.access(p * 4096));
            }
        }
        let mut batched = mk();
        batched.touch_cycle(&[7, 9, 7], 5);
        assert_eq!(format!("{stepped:?}"), format!("{batched:?}"));
        assert!(batched.contains_page(3));
        assert!(!batched.contains_page(4));
    }

    #[test]
    fn flush_forgets() {
        let mut t = Tlb::new(4, 4096);
        t.access(0);
        t.flush();
        assert!(!t.access(0));
    }

    #[test]
    #[should_panic(expected = "u16 slot hint")]
    fn more_entries_than_the_hint_can_name_panics() {
        let _ = Tlb::new(usize::from(u16::MAX) + 2, 4096);
    }

    /// Linear-scan reference model of [`Tlb`]: no hint, page number by
    /// division.
    struct ScanTlb {
        entries: usize,
        page_bytes: u64,
        slots: Vec<(u64, u64)>,
        clock: u64,
    }

    impl ScanTlb {
        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let page = addr / self.page_bytes;
            if let Some(slot) = self.slots.iter_mut().find(|(p, _)| *p == page) {
                slot.1 = self.clock;
                return true;
            }
            if self.slots.len() < self.entries {
                self.slots.push((page, self.clock));
            } else if let Some(lru) = self.slots.iter_mut().min_by_key(|(_, s)| *s) {
                *lru = (page, self.clock);
            }
            false
        }

        fn contains_page(&self, page: u64) -> bool {
            self.slots.iter().any(|(p, _)| *p == page)
        }
    }

    /// Hinted [`Tlb`] against the linear-scan model, 8–256 entries, with
    /// pages that collide in the hint table (equal mod `HINT_SLOTS`),
    /// evictions and flushes leaving stale hints: every `access`
    /// outcome, `contains_page`, `slot_of` + `hit`, `touch_cycle`, and
    /// the final slots and clock.
    #[test]
    fn hinted_tlb_matches_linear_scan_model() {
        use gpstream_util::check::run_cases;
        run_cases("tlb-vs-scan", 0x71b, 64, |rng| {
            let entries = rng.range_usize_inclusive(8, 256);
            let page_bytes = 1024u64 << rng.below(3);
            let mut tlb = Tlb::new(entries, page_bytes);
            let mut model = ScanTlb { entries, page_bytes, slots: Vec::new(), clock: 0 };
            // A working set somewhat over the reach (so LRU evicts),
            // folded onto few hint indices (so hints collide).
            let distinct = entries as u64 + rng.range_u64(1, 64);
            let hint_rows = rng.range_u64(1, 48);
            let pick = |rng: &mut gpstream_util::rng::Rng64| {
                let k = rng.below(distinct);
                k % hint_rows + (k / hint_rows) * HINT_SLOTS as u64
            };
            for _ in 0..2000 {
                let page = pick(rng);
                let addr = page * page_bytes + rng.below(page_bytes);
                match rng.below(16) {
                    0 if rng.bool_with(0.1) => {
                        tlb.flush();
                        model.slots.clear();
                    }
                    1..=3 => {
                        assert_eq!(tlb.contains_page(page), model.contains_page(page));
                        if let Some(slot) = tlb.slot_of(page) {
                            tlb.hit(slot);
                            assert!(model.access(addr));
                        } else {
                            assert!(!model.contains_page(page));
                        }
                    }
                    4 | 5 => {
                        let pages: Vec<u64> =
                            (0..3).map(|_| pick(rng)).filter(|&p| tlb.contains_page(p)).collect();
                        let reps = rng.range_u64(1, 5);
                        tlb.touch_cycle(&pages, reps);
                        for _ in 0..reps {
                            for &p in &pages {
                                assert!(model.access(p * page_bytes));
                            }
                        }
                    }
                    _ => assert_eq!(tlb.access(addr), model.access(addr), "page {page}"),
                }
            }
            assert_eq!(tlb.slots, model.slots);
            assert_eq!(tlb.clock, model.clock);
            assert_eq!(tlb.hits + tlb.misses, model.clock);
        });
    }
}
