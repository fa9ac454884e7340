//! The Stream Register File mapped onto the cache.
//!
//! The paper pins a contiguous, cache-sized address range in the L2 and
//! uses it as the SRF. [`SrfConfig`] describes that range (for the
//! Prescott preset: the 1 MB L2 minus the two ways per set left for
//! non-temporal data, i.e. 768 KB), [`SrfAllocator`] hands out strip
//! buffers inside it, and [`SrfBuffer`] is the runtime byte storage the
//! executors gather into, compute on and scatter from.
//!
//! SRF contents are undefined until written: [`ScheduledProgram::check`]
//! proves every byte a task reads was written by an earlier task, so an
//! executor may run program after program on one buffer it never clears
//! ([`SrfBuffer::fit`]), as the paper reuses its one pinned region.

use crate::pod::AlignedBytes;
use crate::task::ScheduledProgram;
use std::fmt;

/// Simulated base address of the SRF region. Kept well away from the
/// array space (see [`crate::world::ARRAY_SPACE_BASE`]).
pub const SRF_BASE: u64 = 0x0100_0000;

/// Placement and size of the SRF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfConfig {
    /// Simulated base address.
    pub base: u64,
    /// Capacity in bytes.
    pub capacity: usize,
}

impl SrfConfig {
    /// The paper's configuration: the SRF fills the L2 except the ways
    /// reserved for non-temporal data. For a 1 MB 8-way L2 with 2 reserved
    /// ways this is 768 KB.
    #[must_use]
    pub fn prescott() -> Self {
        SrfConfig { base: SRF_BASE, capacity: 768 * 1024 }
    }

    /// The simulated address range of the SRF.
    #[must_use]
    pub fn range(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.capacity as u64
    }
}

impl Default for SrfConfig {
    fn default() -> Self {
        Self::prescott()
    }
}

/// Error returned when the SRF cannot hold the requested buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfOverflow {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes still available.
    pub available: usize,
}

impl fmt::Display for SrfOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SRF overflow: requested {} bytes with only {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for SrfOverflow {}

/// Bump allocator for strip buffers inside the SRF.
#[derive(Debug, Clone)]
pub struct SrfAllocator {
    cfg: SrfConfig,
    next: usize,
}

impl SrfAllocator {
    /// A fresh allocator over `cfg`.
    #[must_use]
    pub fn new(cfg: SrfConfig) -> Self {
        SrfAllocator { cfg, next: 0 }
    }

    /// Allocate `bytes` aligned to `align`, returning the byte offset
    /// within the SRF.
    ///
    /// # Errors
    ///
    /// Returns [`SrfOverflow`] if the SRF is full.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: usize, align: usize) -> Result<usize, SrfOverflow> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = self.next.div_ceil(align) * align;
        let end = start + bytes;
        if end > self.cfg.capacity {
            return Err(SrfOverflow {
                requested: bytes,
                available: self.cfg.capacity.saturating_sub(start),
            });
        }
        self.next = end;
        Ok(start)
    }

    /// Bytes allocated so far (including alignment padding).
    #[must_use]
    pub fn used(&self) -> usize {
        self.next
    }

    /// The configuration being allocated from.
    #[must_use]
    pub fn config(&self) -> SrfConfig {
        self.cfg
    }
}

/// Runtime byte storage backing the SRF.
#[derive(Debug, Clone, Default)]
pub struct SrfBuffer {
    cfg: SrfConfig,
    data: AlignedBytes,
}

impl SrfBuffer {
    /// Empty storage placed at `cfg`'s base, grown by [`SrfBuffer::fit`].
    #[must_use]
    pub fn new(cfg: SrfConfig) -> Self {
        SrfBuffer { cfg, data: AlignedBytes::default() }
    }

    /// Make room for `program`'s strip buffers, keeping whatever an
    /// earlier program left: the buffer grows to the largest `srf_bytes`
    /// it has seen, never shrinks and is never cleared. Stale bytes are
    /// never read, because [`ScheduledProgram::check`] proves every
    /// SRF byte a task reads is written first by an earlier task.
    ///
    /// # Panics
    ///
    /// Panics if the program needs more SRF bytes than the configuration
    /// holds.
    pub fn fit(&mut self, program: &ScheduledProgram) {
        assert!(
            program.srf_bytes <= self.cfg.capacity,
            "program needs {} SRF bytes but only {} are configured",
            program.srf_bytes,
            self.cfg.capacity
        );
        if self.data.len() < program.srf_bytes {
            // Nothing held is defined for the next program, so nothing is
            // copied, and the old bytes are freed before the new ones are
            // allocated: the allocator can reuse them instead of leaving
            // a hole that stays resident.
            drop(std::mem::take(&mut self.data));
            self.data = AlignedBytes::zeroed(program.srf_bytes);
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> SrfConfig {
        self.cfg
    }

    /// Every byte of the buffer, mutably.
    pub(crate) fn as_mut_bytes(&mut self) -> &mut [u8] {
        self.data.as_mut_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_capacity() {
        let mut a = SrfAllocator::new(SrfConfig { base: SRF_BASE, capacity: 1024 });
        let x = a.alloc(100, 64).unwrap();
        assert_eq!(x, 0);
        let y = a.alloc(100, 64).unwrap();
        assert_eq!(y, 128, "second buffer aligned to 64");
        let err = a.alloc(1000, 64).unwrap_err();
        assert!(err.available < 1000);
    }

    #[test]
    fn prescott_srf_fits_l2_minus_nt_ways() {
        let cfg = SrfConfig::prescott();
        assert_eq!(cfg.capacity, 768 * 1024);
        assert_eq!(cfg.range().end - cfg.range().start, 768 * 1024);
    }

    #[test]
    fn buffer_spans_the_program_not_the_configured_srf() {
        let program = ScheduledProgram { srf_bytes: 96, ..ScheduledProgram::default() };
        let mut buf = SrfBuffer::new(SrfConfig::prescott());
        buf.fit(&program);
        assert_eq!(buf.as_mut_bytes().len(), 96);
        assert_eq!(buf.config(), SrfConfig::prescott());
    }

    #[test]
    fn a_fitted_buffer_grows_to_the_largest_program_and_keeps_its_bytes() {
        let program = |srf_bytes| ScheduledProgram { srf_bytes, ..ScheduledProgram::default() };
        let mut buf = SrfBuffer::new(SrfConfig { base: SRF_BASE, capacity: 256 });
        assert_eq!(buf.as_mut_bytes().len(), 0);
        buf.fit(&program(64));
        buf.as_mut_bytes()[60..64].copy_from_slice(&[0xA5; 4]);
        buf.fit(&program(32));
        assert_eq!(buf.as_mut_bytes().len(), 64, "never shrinks");
        assert_eq!(&buf.as_mut_bytes()[60..64], &[0xA5; 4], "never cleared");
        buf.fit(&program(256));
        assert_eq!(buf.as_mut_bytes().len(), 256);
    }

    #[test]
    #[should_panic(expected = "program needs 512 SRF bytes but only 256 are configured")]
    fn buffer_refuses_a_program_larger_than_the_srf() {
        let program = ScheduledProgram { srf_bytes: 512, ..ScheduledProgram::default() };
        SrfBuffer::new(SrfConfig { base: SRF_BASE, capacity: 256 }).fit(&program);
    }
}
