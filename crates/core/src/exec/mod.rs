//! Executors for scheduled stream programs.
//!
//! Three executors share the same functional semantics
//! (`execute_task`) and differ in what else they do:
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
//!
//! Each runs only a [`CheckedProgram`](crate::task::CheckedProgram), so
//! none checks a schedule or panics on one it cannot run.
//!
//! `execute_task` copies only what the modelled machine copies: a
//! gather moves a strip from its array into the SRF, a scatter moves it
//! back, and a kernel computes in place on its SRF strips. The native
//! and simulating executors size a fresh [`SrfBuffer`] to each program
//! ([`SrfBuffer::for_program`]); the functional executor keeps one
//! across runs and never clears it ([`SrfBuffer::fit`]).

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
/// SRF bytes, or a staging copy of them. A sequential binding of whole
/// records is one contiguous copy.
pub(crate) fn gather_strip(
    binding: &PortBinding,
    graph: &StreamGraph,
    world: &World,
    dst: &mut [u8],
) {
    let decl = graph.stream(binding.stream);
    // The schedule check refuses a gather whose stream reads no array.
    let Some(src) = &decl.src else { return };
    let arr = world.array(src.array);
    let elem = decl.elem_bytes;
    debug_assert_eq!(elem, src.field_bytes, "stream/field size mismatch");
    let data = arr.data.as_bytes();
    if matches!(src.access, AccessKind::Sequential) && elem == arr.record_bytes {
        dst.copy_from_slice(&data[binding.elems.start * elem..binding.elems.end * elem]);
        return;
    }
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
/// staging copy of them — to its destination array. The array is copied
/// first if another world still shares it. A sequential binding of whole
/// records is one contiguous copy.
pub(crate) fn scatter_strip(
    binding: &PortBinding,
    graph: &StreamGraph,
    world: &mut World,
    src: &[u8],
) {
    let decl = graph.stream(binding.stream);
    // The schedule check refuses a scatter whose stream writes no array.
    let Some(dst) = &decl.dst else { return };
    let elem = decl.elem_bytes;
    debug_assert_eq!(elem, dst.field_bytes, "stream/field size mismatch");
    let record = world.array(dst.array).record_bytes;
    let data = world.bytes_mut(dst.array);
    if matches!(dst.access, AccessKind::Sequential) && elem == record {
        data[binding.elems.start * elem..binding.elems.end * elem].copy_from_slice(src);
        return;
    }
    for (k, i) in binding.elems.clone().enumerate() {
        let rec = match &dst.access {
            AccessKind::Sequential => i,
            AccessKind::Indexed(idx) => idx[i] as usize,
        };
        let off = rec * record + dst.field_offset;
        data[off..off + elem].copy_from_slice(&src[k * elem..(k + 1) * elem]);
    }
}

/// Run `decl` over the strip `items`, reading `inputs` and writing
/// `outputs` (one byte slice per port, outputs zeroed): the one kernel
/// call both the in-place and the staged path make. The schedule check
/// proves a kernel task binds as many ports as its kernel declares.
fn call_kernel(
    decl: &KernelDecl,
    items: &Range<usize>,
    inputs: Vec<&[u8]>,
    outputs: Vec<&mut [u8]>,
) {
    (decl.func)(&mut KernelArgs::new(inputs, outputs, items.clone()));
}

/// Borrow one kernel strip's buffers where they sit in `srf`: each
/// output zeroed and mutable, each input shared. The outputs are carved
/// off in SRF order with `split_at_mut`, and each input is borrowed from
/// the gap between two outputs that holds it. The schedule check proves
/// the outputs disjoint from each other and from the inputs (the
/// kernel-strip rule of [`crate::task::ScheduledProgram::check`]); a
/// port that broke it would come out empty.
fn strip_views<'s>(
    inputs: &[PortBinding],
    outputs: &[PortBinding],
    graph: &StreamGraph,
    srf: &'s mut [u8],
) -> (Vec<&'s [u8]>, Vec<&'s mut [u8]>) {
    let mut order: Vec<usize> = (0..outputs.len()).collect();
    order.sort_unstable_by_key(|&k| outputs[k].srf_offset);
    let mut outs: Vec<&mut [u8]> = outputs.iter().map(|_| <&mut [u8]>::default()).collect();
    let mut gaps: Vec<(usize, &[u8])> = Vec::with_capacity(outputs.len() + 1);
    let (mut rest, mut at) = (srf, 0);
    for k in order {
        let (offset, len) = (outputs[k].srf_offset, strip_bytes(&outputs[k], graph));
        let Some(gap_len) = offset.checked_sub(at).filter(|_| len > 0) else { continue };
        let (gap, tail) = rest.split_at_mut(gap_len);
        let (out, tail) = tail.split_at_mut(len);
        out.fill(0);
        gaps.push((at, gap));
        outs[k] = out;
        (rest, at) = (tail, offset + len);
    }
    gaps.push((at, rest));
    let ins = inputs
        .iter()
        .map(|b| {
            let (offset, len) = (b.srf_offset, strip_bytes(b, graph));
            gaps.iter()
                .find(|(start, gap)| *start <= offset && offset + len <= start + gap.len())
                .map_or(&[][..], |(start, gap)| &gap[offset - start..offset - start + len])
        })
        .collect();
    (ins, outs)
}

/// One kernel strip staged outside the SRF: [`KernelStrip::copy_in`]
/// copies the input strips out of the SRF, [`KernelStrip::compute`] runs
/// the kernel into zeroed scratch buffers touching neither the SRF nor
/// the world, and [`KernelStrip::copy_out`] copies the results back. Only
/// the two copies need the SRF, which is what lets the native executor
/// run the compute step with no lock held; [`execute_task`] has no lock
/// and computes in place instead.
pub(crate) struct KernelStrip<'a> {
    decl: &'a KernelDecl,
    items: Range<usize>,
    outputs: &'a [PortBinding],
    in_bufs: Vec<Vec<u8>>,
    out_bufs: Vec<Vec<u8>>,
}

impl<'a> KernelStrip<'a> {
    /// Copy the strip's inputs out of the SRF.
    pub(crate) fn copy_in(
        kernel: KernelId,
        items: &Range<usize>,
        inputs: &[PortBinding],
        outputs: &'a [PortBinding],
        graph: &'a StreamGraph,
        srf: &SrfBuffer,
    ) -> Self {
        let decl = graph.kernel(kernel);
        let in_bufs = inputs
            .iter()
            .map(|b| srf.bytes(b.srf_offset, strip_bytes(b, graph)).to_vec())
            .collect();
        let out_bufs = outputs.iter().map(|b| vec![0u8; strip_bytes(b, graph)]).collect();
        KernelStrip { decl, items: items.clone(), outputs, in_bufs, out_bufs }
    }

    /// Run the kernel over the copied strip.
    ///
    /// # Panics
    ///
    /// Panics if the bindings disagree with the kernel's arity.
    pub(crate) fn compute(&mut self) {
        call_kernel(
            self.decl,
            &self.items,
            self.in_bufs.iter().map(Vec::as_slice).collect(),
            self.out_bufs.iter_mut().map(Vec::as_mut_slice).collect(),
        );
    }

    /// Copy the results back into the SRF.
    pub(crate) fn copy_out(self, srf: &mut SrfBuffer) {
        for (b, buf) in self.outputs.iter().zip(&self.out_bufs) {
            srf.bytes_mut(b.srf_offset, buf.len()).copy_from_slice(buf);
        }
    }
}

/// Execute one task's functional semantics against `world` and `srf`.
/// The task belongs to a program checked against `graph`, so every
/// stream, array and kernel it names is `graph`'s.
pub(crate) fn execute_task(
    task: &TaskDesc,
    graph: &StreamGraph,
    world: &mut World,
    srf: &mut SrfBuffer,
) {
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
            let (ins, outs) = strip_views(inputs, outputs, graph, srf.as_mut_bytes());
            call_kernel(graph.kernel(*kernel), items, ins, outs);
        }
    }
}
