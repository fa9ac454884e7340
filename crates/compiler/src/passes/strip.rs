//! Strip mining: choose the largest strip size whose working set of
//! buffers fits the SRF.
//!
//! "The streams are broken down into strips, each typically several
//! thousand bytes long, to insure that the working set of strips is in
//! the SRF" (Section II-B). With double buffering each stream needs two
//! strip buffers; variable-rate streams (those with `boundaries`) are
//! sized by their worst-case strip.

use crate::options::CompilerOptions;
use gpstream_core::graph::{StreamDecl, StreamGraph};

/// Buffer alignment inside the SRF (one L2 line).
pub const SRF_ALIGN: usize = 128;

/// Largest element count any `strip_items`-item window of `decl` can span.
#[must_use]
pub fn max_strip_elems(decl: &StreamDecl, strip_items: usize) -> usize {
    match &decl.boundaries {
        None => strip_items.min(decl.count),
        Some(b) => {
            let items = decl.items;
            let mut worst = 0usize;
            let mut i0 = 0usize;
            while i0 < items {
                let i1 = (i0 + strip_items).min(items);
                let span = (b[i1] - b[i0]) as usize;
                worst = worst.max(span);
                i0 = i1;
            }
            worst
        }
    }
}

/// SRF bytes needed by all stream buffers at a given strip size.
#[must_use]
pub fn srf_bytes_for(graph: &StreamGraph, strip_items: usize, opts: &CompilerOptions) -> usize {
    let bufs = opts.buffers_per_stream();
    graph
        .streams()
        .iter()
        .map(|s| {
            let elems = max_strip_elems(s, per_stream_strip(graph, s, strip_items));
            let bytes = elems * s.elem_bytes;
            bufs * bytes.div_ceil(SRF_ALIGN) * SRF_ALIGN
        })
        .sum()
}

/// The largest item count over all streams (drives the strip count).
#[must_use]
pub fn max_items(graph: &StreamGraph) -> usize {
    graph.streams().iter().map(|s| s.items).max().unwrap_or(0)
}

/// Per-stream strip size: streams with fewer items than the pacing stream
/// advance proportionally so every stream finishes in the same number of
/// strips.
#[must_use]
pub fn per_stream_strip(graph: &StreamGraph, decl: &StreamDecl, strip_items: usize) -> usize {
    let pace = max_items(graph);
    if pace == 0 || decl.items == pace {
        return strip_items;
    }
    let n_strips = pace.div_ceil(strip_items).max(1);
    decl.items.div_ceil(n_strips).max(1)
}

/// Choose the largest strip size (in items of the pacing stream) whose
/// working set fits the SRF. Returns `None` if even one item per strip
/// overflows. A forced size is returned as-is: the scheduler keeps it or
/// refuses it (zero, or a working set beyond the SRF), as
/// [`CompilerOptions::validate_strip`] does — no silent clamping.
#[must_use]
pub fn choose_strip_items(graph: &StreamGraph, opts: &CompilerOptions) -> Option<usize> {
    if let Some(forced) = opts.strip_items {
        return Some(forced);
    }
    let items = max_items(graph);
    if items == 0 {
        return Some(1);
    }
    if srf_bytes_for(graph, items, opts) <= opts.srf.capacity {
        return Some(items);
    }
    // Binary search the largest feasible size.
    let (mut lo, mut hi) = (1usize, items);
    if srf_bytes_for(graph, lo, opts) > opts.srf.capacity {
        return None;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if srf_bytes_for(graph, mid, opts) <= opts.srf.capacity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_core::{GraphBuilder, SrfConfig};
    use std::sync::Arc;

    fn big_graph(n: usize) -> StreamGraph {
        let mut b = GraphBuilder::new();
        let a = b.array("a", &vec![0.0f32; n]);
        let y = b.array_zeroed::<f32>("y", n);
        let s_in = b.gather_seq("in", a);
        let s_out = b.stream::<f32>("out", n);
        b.kernel("k", &[s_in.id()], &[s_out.id()], 10, |_| {});
        b.scatter_seq(s_out, y);
        b.build().unwrap().0
    }

    #[test]
    fn strip_fits_srf() {
        let g = big_graph(1 << 20); // 4 MB per stream, SRF is 768 KB
        let opts = CompilerOptions::default();
        let w = choose_strip_items(&g, &opts).expect("feasible");
        let used = srf_bytes_for(&g, w, &opts);
        assert!(used <= opts.srf.capacity, "{used} > {}", opts.srf.capacity);
        // Should be close to, but not above, capacity: the next power
        // would overflow.
        assert!(srf_bytes_for(&g, w * 2, &opts) > opts.srf.capacity);
        assert!(w >= 1024, "strips should be thousands of elements, got {w}");
    }

    #[test]
    fn small_program_is_one_strip() {
        let g = big_graph(64);
        let opts = CompilerOptions::default();
        assert_eq!(choose_strip_items(&g, &opts), Some(64));
    }

    #[test]
    fn forced_strip_size_respected() {
        let g = big_graph(4096);
        let opts = CompilerOptions { strip_items: Some(256), ..Default::default() };
        assert_eq!(choose_strip_items(&g, &opts), Some(256));
    }

    #[test]
    fn variable_rate_worst_case() {
        let mut b = GraphBuilder::new();
        let a = b.array("a", &vec![0.0f32; 100]);
        let y = b.array_zeroed::<f32>("y", 4);
        let vals = b.gather_seq("vals", a);
        // 4 items with wildly different spans: 1, 59, 20, 20.
        b.set_boundaries(vals, Arc::new(vec![0, 1, 60, 80, 100]));
        let out = b.stream::<f32>("out", 4);
        b.kernel("k", &[vals.id()], &[out.id()], 1, |_| {});
        b.scatter_seq(out, y);
        let (g, _) = b.build().unwrap();
        let decl = g.stream(vals.id());
        assert_eq!(max_strip_elems(decl, 1), 59);
        assert_eq!(max_strip_elems(decl, 2), 60);
        assert_eq!(max_strip_elems(decl, 4), 100);
    }

    #[test]
    fn infeasible_returns_none() {
        let g = big_graph(1024);
        let opts = CompilerOptions {
            srf: SrfConfig { base: 0x0100_0000, capacity: 64 },
            ..Default::default()
        };
        assert_eq!(choose_strip_items(&g, &opts), None);
    }
}
