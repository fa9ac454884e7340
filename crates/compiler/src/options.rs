//! Compiler options.

use crate::error::CompileError;
use crate::passes::{fuse, schedule};
use gpstream_core::{SrfConfig, StreamGraph, TunedConfig};

/// Options controlling the stream-compilation passes. The defaults enable
/// everything the paper's hand-compilation did (Section IV-A): strip
/// mining sized to the SRF, double buffering, kernel fusion on shared
/// inputs, and non-temporal hints on gathers and scatters. Each knob can
/// be disabled individually for the ablation benches.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// SRF placement and size the program must fit into.
    pub srf: SrfConfig,
    /// Force a strip size in items; `None` lets the strip-mining pass
    /// choose the largest size whose working set fits the SRF.
    pub strip_items: Option<usize>,
    /// Double-buffer strips so gathers for strip `s+1` overlap kernels on
    /// strip `s`.
    pub double_buffer: bool,
    /// Fuse adjacent kernels that share input streams.
    pub fuse_kernels: bool,
    /// Use non-temporal prefetch hints on gathers.
    pub nt_gather: bool,
    /// Use non-temporal store instructions on scatters.
    pub nt_scatter: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            srf: SrfConfig::prescott(),
            strip_items: None,
            double_buffer: true,
            fuse_kernels: true,
            nt_gather: true,
            nt_scatter: true,
        }
    }
}

impl CompilerOptions {
    /// The paper's configuration (all optimizations on).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Buffers kept per stream under the current buffering mode.
    #[must_use]
    pub fn buffers_per_stream(&self) -> usize {
        if self.double_buffer {
            2
        } else {
            1
        }
    }

    /// These options with the compiler-side knobs of a [`TunedConfig`]
    /// applied (strip size, buffering, fusion, non-temporal hints). The
    /// SRF placement is kept from `self`; the runtime-side knobs of the
    /// same vector are consumed by `SimExecutor::with_tuned`.
    #[must_use]
    pub fn apply_tuned(&self, tuned: &TunedConfig) -> Self {
        CompilerOptions {
            srf: self.srf,
            strip_items: tuned.strip_items,
            double_buffer: tuned.double_buffer,
            fuse_kernels: tuned.fuse_kernels,
            nt_gather: tuned.nt_gather,
            nt_scatter: tuned.nt_scatter,
        }
    }

    /// Reject degenerate strip-size knob values for `graph` with a typed
    /// error instead of clamping silently or panicking deep inside a
    /// pass: a forced strip of zero items ([`CompileError::StripZero`])
    /// or one whose buffer working set exceeds the SRF
    /// ([`CompileError::StripTooLarge`]). The working set is the one the
    /// scheduler allocates, phase by phase, so a forced size accepted
    /// here is compiled at exactly that size, and one refused here is
    /// refused by [`compile`](crate::compile) too. Heuristic strip
    /// selection (`strip_items: None`) is always valid here.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CompileError`] describing the degenerate knob.
    pub fn validate_strip(&self, graph: &StreamGraph) -> Result<(), CompileError> {
        match self.strip_items {
            None => Ok(()),
            Some(_) => schedule::check_strip(graph, self),
        }
    }

    /// Strict knob validation for `graph`: everything
    /// [`CompilerOptions::validate_strip`] rejects on the graph
    /// [`compile`](crate::compile) would schedule (fused, when
    /// `fuse_kernels` is set), plus [`CompileError::NoFusablePair`] when
    /// `fuse_kernels` is set but the graph has no legal fusion candidate.
    /// The autotuner uses this to prune degenerate points (a fusion knob
    /// on a fusion-free graph is a duplicate of the point with it off);
    /// `compile` itself only enforces the strip checks, because fusion is
    /// harmlessly a no-op. So a point accepted here compiles at its
    /// forced strip size, and a point refused for its strip size does not
    /// compile.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CompileError`] describing the degenerate knob.
    pub fn validate(&self, graph: &StreamGraph) -> Result<(), CompileError> {
        if !self.fuse_kernels {
            return self.validate_strip(graph);
        }
        let fused = fuse::fuse_shared_input_kernels(graph)?;
        if fused.fused.is_empty() {
            return Err(CompileError::NoFusablePair);
        }
        self.validate_strip(&fused.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CompilerOptions::paper();
        assert!(o.double_buffer && o.fuse_kernels && o.nt_gather && o.nt_scatter);
        assert_eq!(o.buffers_per_stream(), 2);
        assert_eq!(CompilerOptions { double_buffer: false, ..o }.buffers_per_stream(), 1);
    }
}
