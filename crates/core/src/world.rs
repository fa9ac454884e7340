//! Global-memory arrays and the simulated address space.
//!
//! A [`World`] owns the byte contents of every array a stream program (or
//! its regular-code twin) touches, plus a simulated base address for each
//! array so the timing model sees a realistic layout (page-aligned arrays
//! spread across memory, far away from the SRF region).
//!
//! Array contents are copy-on-write: cloning a world shares every array's
//! bytes, and the first write to an array through a clone
//! ([`World::slice_mut`] or a scatter) copies that array alone.

use crate::graph::ArrayId;
use crate::pod::{AlignedBytes, Pod};
use std::sync::Arc;

/// Base simulated address of the first allocated array.
pub const ARRAY_SPACE_BASE: u64 = 0x4000_0000;
/// Arrays are aligned to this boundary (a page).
pub const ARRAY_ALIGN: u64 = 4096;

/// One array in global memory.
#[derive(Debug, Clone)]
pub struct MemArray {
    /// Human-readable name.
    pub name: String,
    /// Bytes per record.
    pub record_bytes: usize,
    /// Number of records.
    pub count: usize,
    /// Simulated base address (page aligned).
    pub base: u64,
    /// The actual contents, shared between clones of the world until one
    /// of them writes.
    pub data: Arc<AlignedBytes>,
}

/// The set of arrays a program reads and writes.
#[derive(Debug, Clone, Default)]
pub struct World {
    arrays: Vec<MemArray>,
    next_base: u64,
}

impl World {
    /// An empty world.
    #[must_use]
    pub fn new() -> Self {
        World { arrays: Vec::new(), next_base: ARRAY_SPACE_BASE }
    }

    fn alloc_base(&mut self, bytes: usize) -> u64 {
        if self.next_base == 0 {
            self.next_base = ARRAY_SPACE_BASE;
        }
        let base = self.next_base;
        let len = (bytes as u64).div_ceil(ARRAY_ALIGN) * ARRAY_ALIGN;
        // Leave a guard page between arrays so streams never share lines.
        self.next_base = base + len + ARRAY_ALIGN;
        base
    }

    /// Add an array initialized from `data`. Returns its id.
    pub fn add_array<T: Pod>(&mut self, name: &str, data: &[T]) -> ArrayId {
        let bytes = AlignedBytes::from_slice(data);
        let base = self.alloc_base(bytes.len());
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(MemArray {
            name: name.to_string(),
            record_bytes: std::mem::size_of::<T>(),
            count: data.len(),
            base,
            data: Arc::new(bytes),
        });
        id
    }

    /// Add a zero-initialized array of `count` `T` records.
    pub fn add_array_zeroed<T: Pod>(&mut self, name: &str, count: usize) -> ArrayId {
        let record = std::mem::size_of::<T>();
        let bytes = AlignedBytes::zeroed(count * record);
        let base = self.alloc_base(bytes.len());
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(MemArray {
            name: name.to_string(),
            record_bytes: record,
            count,
            base,
            data: Arc::new(bytes),
        });
        id
    }

    /// The array with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this world.
    #[must_use]
    pub fn array(&self, id: ArrayId) -> &MemArray {
        &self.arrays[id.0 as usize]
    }

    /// An array's bytes, mutably: copied first if another world still
    /// shares them.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this world.
    pub(crate) fn bytes_mut(&mut self, id: ArrayId) -> &mut [u8] {
        Arc::make_mut(&mut self.arrays[id.0 as usize].data).as_mut_bytes()
    }

    /// Typed view of an array's records.
    ///
    /// # Panics
    ///
    /// Panics if `T` does not match the record size.
    #[must_use]
    pub fn slice<T: Pod>(&self, id: ArrayId) -> &[T] {
        let arr = self.array(id);
        assert_eq!(std::mem::size_of::<T>(), arr.record_bytes, "record size mismatch");
        arr.data.as_slice()
    }

    /// Typed mutable view of an array's records.
    ///
    /// # Panics
    ///
    /// Panics if `T` does not match the record size.
    pub fn slice_mut<T: Pod>(&mut self, id: ArrayId) -> &mut [T] {
        assert_eq!(std::mem::size_of::<T>(), self.array(id).record_bytes, "record size mismatch");
        crate::pod::cast_slice_mut(self.bytes_mut(id))
    }

    /// Number of arrays.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether the world holds no arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Iterate over all arrays.
    pub fn iter(&self) -> impl Iterator<Item = &MemArray> {
        self.arrays.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_get_disjoint_page_aligned_bases() {
        let mut w = World::new();
        let a = w.add_array("a", &[0u8; 5000]);
        let b = w.add_array("b", &[0u32; 10]);
        let (aa, ab) = (w.array(a), w.array(b));
        assert_eq!(aa.base % ARRAY_ALIGN, 0);
        assert_eq!(ab.base % ARRAY_ALIGN, 0);
        assert!(ab.base >= aa.base + 5000, "arrays must not overlap");
    }

    #[test]
    fn typed_views() {
        let mut w = World::new();
        let id = w.add_array("x", &[1.0f64, 2.0]);
        w.slice_mut::<f64>(id)[1] = 9.0;
        assert_eq!(w.slice::<f64>(id), &[1.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "record size mismatch")]
    fn wrong_type_panics() {
        let mut w = World::new();
        let id = w.add_array("x", &[1.0f64, 2.0]);
        let _ = w.slice::<f32>(id);
    }

    #[test]
    fn zeroed_array() {
        let mut w = World::new();
        let id = w.add_array_zeroed::<u32>("z", 4);
        assert_eq!(w.slice::<u32>(id), &[0, 0, 0, 0]);
        assert_eq!(w.array(id).count, 4);
    }
}
