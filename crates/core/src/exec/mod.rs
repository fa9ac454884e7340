//! Executors for scheduled stream programs.
//!
//! Three executors share the same functional semantics
//! ([`execute_task`]) and differ in what else they do:
//!
//! * [`functional::FunctionalExecutor`] — single-threaded reference
//!   execution, the golden result for tests.
//! * [`sim::SimExecutor`] — functional execution **plus** a timing run on
//!   the simulated machine: gathers/scatters become bulk ops on the memory
//!   context, kernels run on the compute context, cross-queue dependencies
//!   become signal/wait pairs paying the configured dispatch latency.
//! * [`native::NativeExecutor`] — a real multi-thread runtime using the
//!   distributed work queue, for running stream programs on the host. It
//!   runs the same gathers and scatters, and the same kernel strips split
//!   into copy-in / compute / copy-out (`KernelStrip`) so kernels
//!   compute outside its data locks.

pub mod functional;
pub mod native;
pub mod sim;

use crate::graph::{AccessKind, KernelArgs, KernelDecl, KernelId, StreamGraph};
use crate::srf::SrfBuffer;
use crate::task::{PortBinding, TaskDesc, TaskKind};
use crate::world::World;
use std::ops::Range;

/// SRF bytes of one strip buffer.
pub(crate) fn strip_bytes(binding: &PortBinding, graph: &StreamGraph) -> usize {
    binding.len() * graph.stream(binding.stream).elem_bytes
}

/// Copy a strip of a stream from its source array into `dst`: the strip's
/// SRF bytes, or a staging copy of them.
pub(crate) fn gather_strip(
    binding: &PortBinding,
    graph: &StreamGraph,
    world: &World,
    dst: &mut [u8],
) {
    let decl = graph.stream(binding.stream);
    let src = decl.src.as_ref().expect("gather task for stream without source binding");
    let arr = world.array(src.array);
    let elem = decl.elem_bytes;
    debug_assert_eq!(elem, src.field_bytes, "stream/field size mismatch");
    let data = arr.data.as_bytes();
    for (k, i) in binding.elems.clone().enumerate() {
        let rec = match &src.access {
            AccessKind::Sequential => i,
            AccessKind::Indexed(idx) => idx[i] as usize,
        };
        let off = rec * arr.record_bytes + src.field_offset;
        dst[k * elem..(k + 1) * elem].copy_from_slice(&data[off..off + elem]);
    }
}

/// Copy a strip of a stream from `src` — the strip's SRF bytes, or a
/// staging copy of them — to its destination array.
pub(crate) fn scatter_strip(
    binding: &PortBinding,
    graph: &StreamGraph,
    world: &mut World,
    src: &[u8],
) {
    let decl = graph.stream(binding.stream);
    let dst = decl.dst.as_ref().expect("scatter task for stream without destination binding");
    let elem = decl.elem_bytes;
    debug_assert_eq!(elem, dst.field_bytes, "stream/field size mismatch");
    let arr = world.array_mut(dst.array);
    let record = arr.record_bytes;
    let data = arr.data.as_mut_bytes();
    for (k, i) in binding.elems.clone().enumerate() {
        let rec = match &dst.access {
            AccessKind::Sequential => i,
            AccessKind::Indexed(idx) => idx[i] as usize,
        };
        let off = rec * record + dst.field_offset;
        data[off..off + elem].copy_from_slice(&src[k * elem..(k + 1) * elem]);
    }
}

/// One kernel strip split into the load / compute / store structure of a
/// real kernel: [`KernelStrip::copy_in`] copies the input strips out of
/// the SRF, [`KernelStrip::compute`] runs the kernel into scratch
/// buffers touching neither the SRF nor the world, and
/// [`KernelStrip::copy_out`] copies the results back. Only the two copies
/// need the SRF, which is what lets the native executor run the compute
/// step with no lock held.
pub(crate) struct KernelStrip<'a> {
    decl: &'a KernelDecl,
    items: Range<usize>,
    outputs: &'a [PortBinding],
    in_bufs: Vec<Vec<u8>>,
    out_bufs: Vec<Vec<u8>>,
}

impl<'a> KernelStrip<'a> {
    /// Copy the strip's inputs out of the SRF.
    ///
    /// # Panics
    ///
    /// Panics if the bindings disagree with the kernel's arity.
    pub(crate) fn copy_in(
        kernel: KernelId,
        items: &Range<usize>,
        inputs: &[PortBinding],
        outputs: &'a [PortBinding],
        graph: &'a StreamGraph,
        srf: &SrfBuffer,
    ) -> Self {
        let decl = graph.kernel(kernel);
        assert_eq!(decl.inputs.len(), inputs.len(), "kernel `{}` input arity", decl.name);
        assert_eq!(decl.outputs.len(), outputs.len(), "kernel `{}` output arity", decl.name);
        let in_bufs = inputs
            .iter()
            .map(|b| srf.bytes(b.srf_offset, strip_bytes(b, graph)).to_vec())
            .collect();
        let out_bufs = outputs.iter().map(|b| vec![0u8; strip_bytes(b, graph)]).collect();
        KernelStrip { decl, items: items.clone(), outputs, in_bufs, out_bufs }
    }

    /// Run the kernel over the copied strip.
    pub(crate) fn compute(&mut self) {
        let mut args = KernelArgs {
            inputs: self.in_bufs.iter().map(Vec::as_slice).collect(),
            outputs: self.out_bufs.iter_mut().map(Vec::as_mut_slice).collect(),
            items: self.items.clone(),
        };
        (self.decl.func)(&mut args);
    }

    /// Copy the results back into the SRF.
    pub(crate) fn copy_out(self, srf: &mut SrfBuffer) {
        for (b, buf) in self.outputs.iter().zip(&self.out_bufs) {
            srf.bytes_mut(b.srf_offset, buf.len()).copy_from_slice(buf);
        }
    }
}

/// Execute one task's functional semantics against `world` and `srf`.
///
/// # Panics
///
/// Panics if the task references streams, arrays or kernels inconsistent
/// with `graph` (a compiler bug rather than a user error).
pub fn execute_task(task: &TaskDesc, graph: &StreamGraph, world: &mut World, srf: &mut SrfBuffer) {
    match &task.kind {
        TaskKind::Gather { binding, .. } => {
            let dst = srf.bytes_mut(binding.srf_offset, strip_bytes(binding, graph));
            gather_strip(binding, graph, world, dst);
        }
        TaskKind::Scatter { binding, .. } => {
            let src = srf.bytes(binding.srf_offset, strip_bytes(binding, graph));
            scatter_strip(binding, graph, world, src);
        }
        TaskKind::Kernel { kernel, items, inputs, outputs } => {
            let mut strip = KernelStrip::copy_in(*kernel, items, inputs, outputs, graph, srf);
            strip.compute();
            strip.copy_out(srf);
        }
    }
}
