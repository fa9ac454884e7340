//! Memory-hazard analysis shared by the schedule checker and the
//! compiler's dependency synthesis.
//!
//! With out-of-order work queues (Figure 7's `tail_depend`) nothing
//! orders two tasks except an explicit dependency, so every pair of
//! tasks that touch overlapping bytes — in the SRF or in a global
//! array — with at least one writer must be connected by a dependency
//! path. This module answers the *may these two accesses conflict?*
//! question conservatively: it never says "no" when the byte ranges can
//! overlap, and it uses the one piece of global knowledge that makes
//! indexed scatters tractable (an index vector without duplicates maps
//! disjoint element ranges to disjoint records).

use crate::graph::{AccessKind, StreamGraph};
use crate::task::TaskKind;
use std::collections::HashMap;
use std::ops::Range;

/// Summary of one task's access to a global array.
#[derive(Debug, Clone)]
pub struct ArrayAccess {
    /// The array touched.
    pub array: u32,
    /// Stream whose binding performs the access.
    pub stream: u32,
    /// Whether the binding is the stream's scatter (`dst`) side.
    pub dst_side: bool,
    /// Whether the access writes the array (scatter) or reads it (gather).
    pub write: bool,
    /// Element index range of the stream covered by the access.
    pub elems: Range<usize>,
    /// Byte range of the touched field within each record.
    pub fields: Range<usize>,
    /// Whether records are visited through an index vector.
    pub indexed: bool,
}

/// Extract the array access performed by a task, if any (kernels only
/// touch the SRF).
#[must_use]
pub fn array_access(kind: &TaskKind, graph: &StreamGraph) -> Option<ArrayAccess> {
    let (binding, write) = match kind {
        TaskKind::Gather { binding, .. } => (binding, false),
        TaskKind::Scatter { binding, .. } => (binding, true),
        TaskKind::Kernel { .. } => return None,
    };
    let decl = graph.stream(binding.stream);
    let ab = if write { decl.dst.as_ref()? } else { decl.src.as_ref()? };
    Some(ArrayAccess {
        array: ab.array.0,
        stream: binding.stream.0,
        dst_side: write,
        write,
        elems: binding.elems.clone(),
        fields: ab.field_offset..ab.field_offset + ab.field_bytes,
        indexed: matches!(ab.access, AccessKind::Indexed(_)),
    })
}

pub(crate) fn ranges_overlap(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Memoized "does this binding's index vector contain duplicates?"
/// lookup, keyed by (stream, side).
#[derive(Debug, Default)]
pub struct DupFree {
    memo: HashMap<(u32, bool), bool>,
}

impl DupFree {
    /// Whether the index vector behind `(stream, side)` is duplicate-free
    /// (so disjoint element ranges address disjoint records). Sequential
    /// bindings are trivially duplicate-free.
    pub fn is_dup_free(&mut self, graph: &StreamGraph, stream: u32, dst_side: bool) -> bool {
        *self.memo.entry((stream, dst_side)).or_insert_with(|| {
            let decl = graph.stream(crate::graph::StreamId(stream));
            let binding = if dst_side { decl.dst.as_ref() } else { decl.src.as_ref() };
            match binding.map(|b| &b.access) {
                Some(AccessKind::Sequential) | None => true,
                Some(AccessKind::Indexed(idx)) => {
                    let max = idx.iter().copied().max().map_or(0, |m| m as usize + 1);
                    let mut seen = vec![0u64; max.div_ceil(64)];
                    for &i in idx.iter() {
                        let (w, b) = (i as usize / 64, i as usize % 64);
                        if seen[w] >> b & 1 == 1 {
                            return false;
                        }
                        seen[w] |= 1 << b;
                    }
                    true
                }
            }
        })
    }
}

/// Whether two array accesses may touch a common byte. Conservative:
/// `true` unless the accesses are provably disjoint.
pub fn accesses_conflict(
    a: &ArrayAccess,
    b: &ArrayAccess,
    graph: &StreamGraph,
    dup: &mut DupFree,
) -> bool {
    if a.array != b.array || !ranges_overlap(&a.fields, &b.fields) {
        return false;
    }
    if !a.indexed && !b.indexed {
        // Sequential: element index == record index.
        return ranges_overlap(&a.elems, &b.elems);
    }
    // Two strips of the same duplicate-free index vector address disjoint
    // records whenever their element ranges are disjoint.
    if a.indexed
        && b.indexed
        && a.stream == b.stream
        && a.dst_side == b.dst_side
        && dup.is_dup_free(graph, a.stream, a.dst_side)
    {
        return ranges_overlap(&a.elems, &b.elems);
    }
    true
}
