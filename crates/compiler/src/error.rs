//! Compiler errors.

use gpstream_core::GraphError;
use std::fmt;

/// Errors produced while compiling a stream graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The graph failed structural validation.
    Graph(GraphError),
    /// Even a one-item strip does not fit the SRF.
    SrfTooSmall {
        /// Bytes needed by the smallest possible strip.
        needed: usize,
        /// SRF capacity in bytes.
        capacity: usize,
    },
    /// The graph contains no work (no streams).
    Empty,
    /// A forced strip size of zero items (degenerate: no strip can be
    /// empty).
    StripZero,
    /// A forced strip size whose working set of buffers exceeds the SRF.
    StripTooLarge {
        /// The forced strip size in items.
        strip_items: usize,
        /// SRF bytes the working set at that strip size needs.
        needed: usize,
        /// SRF capacity in bytes.
        capacity: usize,
    },
    /// Kernel fusion requested on a graph with no fusable kernel pair
    /// (reported by [`crate::CompilerOptions::validate`] so knob searches can prune the
    /// point; `compile` itself treats fusion as a no-op there).
    NoFusablePair,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Graph(e) => write!(f, "invalid stream graph: {e}"),
            CompileError::SrfTooSmall { needed, capacity } => write!(
                f,
                "SRF too small: a one-item strip needs {needed} bytes but only \
                 {capacity} are available"
            ),
            CompileError::Empty => write!(f, "stream graph contains no streams"),
            CompileError::StripZero => {
                write!(f, "forced strip size is zero items; strips must be non-empty")
            }
            CompileError::StripTooLarge { strip_items, needed, capacity } => write!(
                f,
                "forced strip size of {strip_items} items needs {needed} SRF bytes but only \
                 {capacity} are available"
            ),
            CompileError::NoFusablePair => {
                write!(f, "kernel fusion requested but the graph has no fusable kernel pair")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}
