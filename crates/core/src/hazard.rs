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
use std::collections::{HashMap, VecDeque};
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

/// Whether two ranges share an element: their intersection is not
/// empty. So an empty range overlaps nothing, not even a range that
/// spans it.
pub(crate) fn ranges_overlap(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start.max(b.start) < a.end.min(b.end)
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

/// Which accesses of one stream side a given access may touch a common
/// byte with.
#[derive(Clone, Copy)]
enum Aliasing {
    /// None of them: another array, or disjoint fields.
    None,
    /// Those whose element ranges overlap its own: both sides sequential
    /// (element index == record index), or strips of one duplicate-free
    /// index vector (disjoint element ranges address disjoint records).
    OverlappingElems,
    /// All of them: an index vector may send any element anywhere.
    All,
}

/// How `a` aliases the accesses of `b`'s stream side. Everything but the
/// element range is a property of the side: its array, field range and
/// access kind.
fn aliasing(a: &ArrayAccess, b: &ArrayAccess, graph: &StreamGraph, dup: &mut DupFree) -> Aliasing {
    if a.array != b.array || !ranges_overlap(&a.fields, &b.fields) {
        return Aliasing::None;
    }
    let by_elems = (!a.indexed && !b.indexed)
        || (a.indexed
            && b.indexed
            && a.stream == b.stream
            && a.dst_side == b.dst_side
            && dup.is_dup_free(graph, a.stream, a.dst_side));
    if by_elems {
        Aliasing::OverlappingElems
    } else {
        Aliasing::All
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
    match aliasing(a, b, graph, dup) {
        Aliasing::None => false,
        Aliasing::OverlappingElems => ranges_overlap(&a.elems, &b.elems),
        Aliasing::All => true,
    }
}

/// The earlier array accesses of a schedule, indexed so that those a new
/// access conflicts with (by [`accesses_conflict`]) are found without
/// comparing it with every one. The compiler's dependency synthesis and
/// the schedule check both walk a schedule through one.
///
/// Accesses are grouped by the stream side that makes them, which fixes
/// everything [`accesses_conflict`] looks at but the element range. So a
/// new access conflicts with none of a group, with all of it, or with
/// exactly the accesses whose element ranges overlap its own. While a
/// group's element ranges arrive ascending and disjoint — as every
/// strip-mined stream's do — those are found by binary search.
#[derive(Debug, Default)]
pub struct AccessIndex {
    /// Indexed by array id.
    arrays: Vec<Vec<SideAccesses>>,
    dup: DupFree,
}

/// The accesses one stream side has made, in task order.
#[derive(Debug)]
struct SideAccesses {
    /// The side's first access; all share its array, fields and kind.
    side: ArrayAccess,
    /// (task, element range)
    accesses: VecDeque<(usize, Range<usize>)>,
    /// Whether the element ranges are ascending and disjoint.
    ascending: bool,
}

impl AccessIndex {
    /// Call `f(task, hazard)` for every recorded access `acc` conflicts
    /// with, `hazard` naming the order the two need (`"read-after-write"`,
    /// `"write-after-write"` or `"write-after-read"`); two reads never
    /// conflict. Stops at the first error `f` returns.
    ///
    /// # Errors
    ///
    /// Returns the first error `f` returns.
    pub fn for_each_conflict<E>(
        &mut self,
        acc: &ArrayAccess,
        graph: &StreamGraph,
        mut f: impl FnMut(usize, &'static str) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(sides) = self.arrays.get(acc.array as usize) else { return Ok(()) };
        for group in sides {
            let hazard = match (group.side.write, acc.write) {
                (false, false) => continue,
                (true, true) => "write-after-write",
                (true, false) => "read-after-write",
                (false, true) => "write-after-read",
            };
            let all = match aliasing(acc, &group.side, graph, &mut self.dup) {
                Aliasing::None => continue,
                Aliasing::OverlappingElems => false,
                Aliasing::All => true,
            };
            let from = if !all && group.ascending {
                group.accesses.partition_point(|(_, e)| e.end <= acc.elems.start)
            } else {
                0
            };
            for (task, elems) in group.accesses.range(from..) {
                if all || ranges_overlap(elems, &acc.elems) {
                    f(*task, hazard)?;
                } else if group.ascending && elems.start >= acc.elems.end {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Record `acc`, made by task `task`. Tasks are recorded in order.
    pub fn push(&mut self, task: usize, acc: ArrayAccess) {
        let a = acc.array as usize;
        if self.arrays.len() <= a {
            self.arrays.resize_with(a + 1, Vec::new);
        }
        let sides = &mut self.arrays[a];
        let k = match sides
            .iter()
            .position(|g| (g.side.stream, g.side.dst_side) == (acc.stream, acc.dst_side))
        {
            Some(k) => k,
            None => {
                let side = ArrayAccess { elems: 0..0, ..acc.clone() };
                sides.push(SideAccesses { side, accesses: VecDeque::new(), ascending: true });
                sides.len() - 1
            }
        };
        let group = &mut sides[k];
        if let Some((_, last)) = group.accesses.back() {
            group.ascending &= last.end <= acc.elems.start;
        }
        group.accesses.push_back((task, acc.elems));
    }

    /// Forget every access of `array` made by a task below `task`.
    pub fn forget_below(&mut self, array: u32, task: usize) {
        for group in self.arrays.get_mut(array as usize).into_iter().flatten() {
            while group.accesses.front().is_some_and(|&(t, _)| t < task) {
                group.accesses.pop_front();
            }
        }
    }

    /// Forget every access.
    pub fn clear(&mut self) {
        self.arrays.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, StreamId};
    use crate::task::PortBinding;
    use std::sync::Arc;

    /// Sides over array 0 (16 two-field records) that alias it every way
    /// `accesses_conflict` tells apart, and one side over array 1:
    /// (stream, writes).
    fn sides() -> (StreamGraph, Vec<(u32, bool)>) {
        let mut b = GraphBuilder::new();
        let a = b.array_zeroed::<f64>("a", 16);
        let other = b.array_zeroed::<f64>("b", 16);
        let perm: Arc<Vec<u32>> = Arc::new((0..16).map(|i| (i * 7) % 16).collect());
        let dups: Arc<Vec<u32>> = Arc::new((0..16).map(|i| i / 2).collect());
        let whole = b.gather_seq("whole", a);
        let low = b.gather_field_seq::<f64, f32>("low", a, 0);
        let high = b.gather_field_seq::<f64, f32>("high", a, 4);
        let shuffled = b.gather_indexed("shuffled", a, perm.clone());
        let elsewhere = b.gather_seq("elsewhere", other);
        let out = b.stream::<f64>("out", 16);
        b.scatter_seq(out, a);
        let spread = b.stream::<f64>("spread", 16);
        b.scatter_indexed(spread, a, dups);
        let permuted = b.stream::<f64>("permuted", 16);
        b.scatter_indexed(permuted, a, perm);
        let ins = [whole.id(), low.id(), high.id(), shuffled.id(), elsewhere.id()];
        b.kernel("k", &ins, &[out.id(), spread.id(), permuted.id()], 1, |_| {});
        let (graph, _) = b.build().expect("the sides' graph builds");
        let reads = ins.iter().map(|s| (s.0, false));
        let writes = [out.id(), spread.id(), permuted.id()].into_iter().map(|s| (s.0, true));
        (graph, reads.chain(writes).collect())
    }

    /// An empty range overlaps nothing, not even a range that spans it,
    /// so an empty strip of a sequential side conflicts with no earlier
    /// access of its array.
    #[test]
    fn empty_ranges_overlap_nothing() {
        for (a, b, want) in
            [(2..2, 1..4, false), (0..0, 0..0, false), (1..3, 3..5, false), (1..4, 3..5, true)]
        {
            assert_eq!(ranges_overlap(&a, &b), want, "{a:?} against {b:?}");
            assert_eq!(ranges_overlap(&b, &a), want, "{b:?} against {a:?}");
        }
        let (graph, sides) = sides();
        let access = |(stream, write): (u32, bool), elems| {
            let binding =
                PortBinding { stream: StreamId(stream), srf_offset: 0, elems, elem_bytes: 8 };
            let kind = if write {
                TaskKind::Scatter { binding, nt: false }
            } else {
                TaskKind::Gather { binding, nt: false }
            };
            array_access(&kind, &graph).expect("a copy of an array side")
        };
        let (whole, out) = (sides[0], sides[5]);
        let mut index = AccessIndex::default();
        index.push(0, access(whole, 1..4));
        for (elems, want) in [(2..2, vec![]), (3..3, vec![]), (3..4, vec![(0, "write-after-read")])]
        {
            let mut got = Vec::new();
            let found =
                index.for_each_conflict(&access(out, elems.clone()), &graph, |t, hazard| {
                    got.push((t, hazard));
                    Ok::<(), ()>(())
                });
            assert!(found.is_ok());
            assert_eq!(got, want, "a scatter of elements {elems:?}");
        }
    }

    /// The index reports exactly the earlier accesses `accesses_conflict`
    /// finds by comparing every pair, with the right hazard, on random
    /// access sequences of strip runs (ascending, disjoint, some empty),
    /// alone or mixed with arbitrary element ranges, and with accesses
    /// forgotten from the front.
    #[test]
    fn access_index_finds_what_a_pairwise_scan_finds() {
        let (graph, sides) = sides();
        gpstream_util::check::run_cases("access-index", 0x6a79_2005, 256, |rng| {
            let mut index = AccessIndex::default();
            let mut dup = DupFree::default();
            let mut seen: Vec<(usize, ArrayAccess)> = Vec::new();
            let mut next = vec![0usize; sides.len()];
            let mut forgotten = 0;
            let strip_share = if rng.bool() { 1.0 } else { 0.7 };
            for task in 0..rng.range_usize_inclusive(1, 60) {
                let k = rng.below_usize(sides.len());
                let (stream, write) = sides[k];
                let elems = if rng.bool_with(strip_share) {
                    let start = next[k] % 16;
                    let end = rng.range_usize_inclusive(start, 16.min(start + 4));
                    next[k] = end;
                    start..end
                } else {
                    let start = rng.below_usize(17);
                    start..rng.range_usize_inclusive(start, 16)
                };
                let binding =
                    PortBinding { stream: StreamId(stream), srf_offset: 0, elems, elem_bytes: 8 };
                let kind = if write {
                    TaskKind::Scatter { binding, nt: false }
                } else {
                    TaskKind::Gather { binding, nt: false }
                };
                let acc = array_access(&kind, &graph).expect("a copy of an array side");
                if rng.bool_with(0.1) {
                    forgotten = rng.range_usize_inclusive(forgotten, task);
                    index.forget_below(acc.array, forgotten);
                    seen.retain(|(t, prev)| prev.array != acc.array || *t >= forgotten);
                }
                let mut want: Vec<(usize, &str)> = seen
                    .iter()
                    .filter(|(_, prev)| acc.write || prev.write)
                    .filter(|(_, prev)| accesses_conflict(&acc, prev, &graph, &mut dup))
                    .map(|(t, prev)| {
                        let hazard = match (prev.write, acc.write) {
                            (true, true) => "write-after-write",
                            (true, false) => "read-after-write",
                            _ => "write-after-read",
                        };
                        (*t, hazard)
                    })
                    .collect();
                let mut got = Vec::new();
                let found = index.for_each_conflict(&acc, &graph, |t, hazard| {
                    got.push((t, hazard));
                    Ok::<(), ()>(())
                });
                assert!(found.is_ok());
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "task {task}: {acc:?}");
                index.push(task, acc.clone());
                seen.push((task, acc));
            }
        });
    }
}
