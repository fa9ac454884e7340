//! The memory every executor runs tasks on: the SRF and the arrays of a
//! world, lent task by task, in place.
//!
//! A [`Region`] borrows one SRF buffer and one world exclusively and
//! keeps a raw base pointer to each of them and to every array. Through
//! [`Region::execute_task`] each task borrows exactly the bytes it
//! touches, where they sit: a gather reads its array records and writes
//! its SRF strip, a scatter the reverse, a kernel reads its input strips
//! and writes its zeroed output strips. Nothing is staged and nothing is
//! locked, so tasks on any number of threads run at once.
//!
//! # Safety argument
//!
//! A region lends overlapping-looking borrows through `&self`, so it is
//! `Sync` for one reason, in two parts, and only for the
//! [`CheckedProgram`] it was built for:
//!
//! - **Concurrent tasks touch disjoint bytes.**
//!   [`ScheduledProgram::check`](crate::task::ScheduledProgram::check)
//!   proves that two tasks with no dependency path between them touch no
//!   common SRF byte and no common array byte unless both only read it
//!   (the hazard proof). A task starts only once every task it depends
//!   on has finished, and runs at most once, both enforced here by the
//!   task states. So a task overlaps in time only with tasks it has no
//!   path to, and a borrow never aliases another task's write.
//! - **A task's writes are published to its dependants.** A task's state
//!   becomes done through a `Release` store after its last write, and a
//!   dependant reads that state with an `Acquire` load before its first
//!   access, so everything the task wrote happens before it.
//!
//! Everything else a raw access relies on is checked, not assumed:
//! [`Region::new`] refuses a graph other than the one the program was
//! checked against and a world whose arrays do not fit the graph's
//! bindings, and every SRF and array offset is bounds-checked against
//! its buffer's length before a borrow is made. The one safety argument
//! covers every executor: the functional and simulating executors run
//! the tasks in order on one thread, the native executor on its workers.

use crate::graph::{AccessKind, ArrayId, KernelArgs, StreamGraph};
use crate::srf::SrfBuffer;
use crate::task::{CheckedProgram, PortBinding, TaskId, TaskKind};
use crate::world::World;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};

/// Task states: waiting to start, running, done.
const WAITING: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;

/// A byte buffer a region lends from: its base, its length, and whether
/// it may be written (an array no stream scatters to is read through a
/// pointer to bytes other worlds may share).
#[derive(Clone, Copy)]
struct Buffer {
    base: *mut u8,
    len: usize,
    writable: bool,
}

/// One array of the world: its bytes and its record size.
#[derive(Clone, Copy)]
struct Array {
    bytes: Buffer,
    record: usize,
}

/// The SRF and the arrays of one world, lent to the tasks of one checked
/// program (see the module's safety argument).
pub(crate) struct Region<'a> {
    program: &'a CheckedProgram,
    graph: &'a StreamGraph,
    srf: Buffer,
    /// Indexed by array id.
    arrays: Vec<Array>,
    /// Indexed by task id.
    states: Box<[AtomicU8]>,
    lent: PhantomData<(&'a mut World, &'a mut SrfBuffer)>,
}

// SAFETY: field by field. `program` and `graph` are shared references
// to `Sync` data the region never writes, and `states` are atomics.
// `srf` and `arrays` are base pointers into buffers the region borrows
// for `'a` (the `lent` marker), so nothing outside it touches them
// meanwhile; what tasks on different threads do through them is the
// module's safety argument: they borrow disjoint bytes, or only read
// common ones, and each task's writes happen before its dependants
// start.
unsafe impl Sync for Region<'_> {}

impl<'a> Region<'a> {
    /// Lend `srf` and `world` to `program`'s tasks. The SRF grows to the
    /// program ([`SrfBuffer::fit`]), and every array a stream of `graph`
    /// scatters to is unshared from other worlds here, on the calling
    /// thread: copied at its first scatter instead, an array would be
    /// allocated from a worker's malloc arena, which keeps it resident
    /// after the caller frees it. Costs O(arrays + streams).
    ///
    /// # Panics
    ///
    /// Panics if `program` was checked against a graph other than
    /// `graph`, if `world` lacks an array a stream of `graph` binds or
    /// has one too short or with records too narrow for a binding, or if
    /// the program needs more SRF bytes than `srf` is configured with.
    pub(crate) fn new(
        program: &'a CheckedProgram,
        graph: &'a StreamGraph,
        world: &'a mut World,
        srf: &'a mut SrfBuffer,
    ) -> Self {
        assert!(
            program.covers(graph),
            "graph mismatch: the program was checked against another graph, and runs only \
             with that one (or a clone of it)"
        );
        if let Err(e) = fits(graph, world) {
            panic!("world mismatch: {e}");
        }
        srf.fit(program);
        let srf = srf.as_mut_bytes();
        let srf = Buffer { base: srf.as_mut_ptr(), len: srf.len(), writable: true };
        // The same bytes are live in any order, but glibc's allocator keeps
        // a different peak resident size for each: after the SRF and
        // before the array copies is the order that kept the benchmark's
        // workloads within 1.5 MB of their parent's peak (after the
        // copies, the analyzer's repeated runs peaked 2 MB higher; glibc
        // 2.36, x86-64).
        let states = program.tasks.iter().map(|_| AtomicU8::new(WAITING)).collect();
        let mut writable = vec![false; world.len()];
        for d in graph.streams().iter().filter_map(|s| s.dst.as_ref()) {
            writable[d.array.0 as usize] = true;
        }
        let arrays = writable
            .into_iter()
            .enumerate()
            .map(|(a, writable)| {
                let id = ArrayId(a as u32);
                let record = world.array(id).record_bytes;
                let bytes = if writable {
                    let bytes = world.bytes_mut(id);
                    Buffer { base: bytes.as_mut_ptr(), len: bytes.len(), writable }
                } else {
                    let bytes = world.array(id).data.as_bytes();
                    Buffer { base: bytes.as_ptr().cast_mut(), len: bytes.len(), writable }
                };
                Array { bytes, record }
            })
            .collect();
        Region { program, graph, srf, arrays, states, lent: PhantomData }
    }

    /// Whether `task` has finished. An `Acquire` load: once it reads
    /// true, everything the task wrote is visible to the caller.
    pub(crate) fn is_done(&self, task: TaskId) -> bool {
        self.states[task.0 as usize].load(Ordering::Acquire) == DONE
    }

    /// Run task `id` of the program in place: the one task body of every
    /// executor. A gather copies its strip from its array into the SRF, a
    /// scatter copies it back, and a kernel computes on its SRF strips
    /// (each output zeroed first), as the modelled machine does.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of the program's tasks, if a task it
    /// depends on has not finished, or if it has already started; and
    /// with the kernel, if the kernel panics.
    pub(crate) fn execute_task(&self, id: TaskId) {
        let task = &self.program.tasks[id.0 as usize];
        if let Some(d) = task.deps.iter().find(|&&d| !self.is_done(d)) {
            panic!("task {} started before its dependency {} finished", id.0, d.0);
        }
        let state = &self.states[id.0 as usize];
        // `Relaxed` suffices: the swap only lets one caller start the
        // task, and publishes nothing; the dependencies' writes were
        // acquired above, and the `Release` store below publishes this
        // task's.
        assert_eq!(state.swap(RUNNING, Ordering::Relaxed), WAITING, "task {} ran twice", id.0);
        match &task.kind {
            TaskKind::Gather { binding, .. } => self.gather(binding),
            TaskKind::Scatter { binding, .. } => self.scatter(binding),
            TaskKind::Kernel { kernel, items, inputs, outputs } => {
                let ins = inputs.iter().map(|b| self.srf_strip(b)).collect();
                let outs = outputs
                    .iter()
                    .map(|b| {
                        let out = self.srf_strip_mut(b);
                        out.fill(0);
                        out
                    })
                    .collect();
                (self.graph.kernel(*kernel).func)(&mut KernelArgs::new(ins, outs, items.clone()));
            }
        }
        state.store(DONE, Ordering::Release);
    }

    /// Copy a strip of a stream from its source array into its SRF bytes.
    /// A sequential binding of whole records is one contiguous copy.
    fn gather(&self, binding: &PortBinding) {
        let decl = self.graph.stream(binding.stream);
        // The schedule check refuses a gather whose stream reads no array.
        let Some(src) = &decl.src else { return };
        let (arr, elem) = (self.arrays[src.array.0 as usize], decl.elem_bytes);
        let dst = self.srf_strip_mut(binding);
        if matches!(src.access, AccessKind::Sequential) && elem == arr.record {
            dst.copy_from_slice(self.lend(arr.bytes, binding.elems.start * elem, dst.len()));
            return;
        }
        for (k, i) in binding.elems.clone().enumerate() {
            let at = record_of(&src.access, i) * arr.record + src.field_offset;
            dst[k * elem..(k + 1) * elem].copy_from_slice(self.lend(arr.bytes, at, elem));
        }
    }

    /// Copy a strip of a stream from its SRF bytes to its destination
    /// array. A sequential binding of whole records is one contiguous
    /// copy.
    fn scatter(&self, binding: &PortBinding) {
        let decl = self.graph.stream(binding.stream);
        // The schedule check refuses a scatter whose stream writes no array.
        let Some(dst) = &decl.dst else { return };
        let (arr, elem) = (self.arrays[dst.array.0 as usize], decl.elem_bytes);
        let src = self.srf_strip(binding);
        if matches!(dst.access, AccessKind::Sequential) && elem == arr.record {
            self.lend_mut(arr.bytes, binding.elems.start * elem, src.len()).copy_from_slice(src);
            return;
        }
        for (k, i) in binding.elems.clone().enumerate() {
            let at = record_of(&dst.access, i) * arr.record + dst.field_offset;
            self.lend_mut(arr.bytes, at, elem).copy_from_slice(&src[k * elem..(k + 1) * elem]);
        }
    }

    /// A strip's SRF bytes, to read.
    fn srf_strip(&self, b: &PortBinding) -> &[u8] {
        self.lend(self.srf, b.srf_offset, b.len() * b.elem_bytes)
    }

    /// A strip's SRF bytes, to write.
    #[allow(clippy::mut_from_ref)]
    fn srf_strip_mut(&self, b: &PortBinding) -> &mut [u8] {
        self.lend_mut(self.srf, b.srf_offset, b.len() * b.elem_bytes)
    }

    /// Bytes `at..at + len` of `buf`, to read.
    ///
    /// # Panics
    ///
    /// Panics if the range ends past the buffer.
    fn lend(&self, buf: Buffer, at: usize, len: usize) -> &[u8] {
        assert!(at.checked_add(len).is_some_and(|end| end <= buf.len), "borrow past a buffer");
        // SAFETY: the range lies inside the buffer, which the region
        // borrows for its lifetime, and no task running now writes it
        // (the module's safety argument).
        unsafe { std::slice::from_raw_parts(buf.base.add(at), len) }
    }

    /// Bytes `at..at + len` of `buf`, to write.
    ///
    /// # Panics
    ///
    /// Panics if the range ends past the buffer, or the buffer is an
    /// array no stream scatters to.
    #[allow(clippy::mut_from_ref)]
    fn lend_mut(&self, buf: Buffer, at: usize, len: usize) -> &mut [u8] {
        assert!(buf.writable, "write to an array no stream scatters to");
        assert!(at.checked_add(len).is_some_and(|end| end <= buf.len), "borrow past a buffer");
        // SAFETY: the range lies inside the buffer, which the region
        // borrows exclusively for its lifetime and which is not shared
        // with another world; no other task running now touches it (the
        // module's safety argument).
        unsafe { std::slice::from_raw_parts_mut(buf.base.add(at), len) }
    }
}

/// The record a binding visits for stream element `i`.
fn record_of(access: &AccessKind, i: usize) -> usize {
    match access {
        AccessKind::Sequential => i,
        AccessKind::Indexed(idx) => idx[i] as usize,
    }
}

/// Whether `world` holds every array `graph` binds, with room for each
/// binding: the field a stream copies is its element, inside the record,
/// and a sequential stream's elements are records of the array. An
/// indexed binding's records are bounds-checked as it visits them.
fn fits(graph: &StreamGraph, world: &World) -> Result<(), String> {
    for s in graph.streams() {
        for b in s.src.iter().chain(&s.dst) {
            if b.array.0 as usize >= world.len() {
                return Err(format!(
                    "stream `{}` binds array {}, but the world holds {} arrays",
                    s.name,
                    b.array.0,
                    world.len()
                ));
            }
            let arr = world.array(b.array);
            if b.field_bytes != s.elem_bytes
                || b.field_offset
                    .checked_add(b.field_bytes)
                    .is_none_or(|end| end > arr.record_bytes)
            {
                return Err(format!(
                    "stream `{}` copies {}-byte elements from bytes {}.. of each {}-byte record \
                     of array `{}`",
                    s.name, s.elem_bytes, b.field_offset, arr.record_bytes, arr.name
                ));
            }
            let records = arr.data.len().checked_div(arr.record_bytes).unwrap_or(usize::MAX);
            if matches!(b.access, AccessKind::Sequential) && s.count > records {
                return Err(format!(
                    "stream `{}` spans {} records of array `{}`, which holds {}",
                    s.name, s.count, arr.name, records
                ));
            }
        }
    }
    Ok(())
}
