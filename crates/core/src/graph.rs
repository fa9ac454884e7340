//! The stream-program intermediate representation.
//!
//! A [`StreamGraph`] is the Synchronous-Data-Flow view of a stream program
//! (the paper's Figure 3): kernel nodes connected by stream edges, with
//! gathers from and scatters to arrays in global memory at the boundary.
//! The typed [`GraphBuilder`] is the public authoring API; the compiler
//! crate lowers a validated graph into a
//! [`ScheduledProgram`](crate::task::ScheduledProgram), checks it into
//! the [`CheckedProgram`](crate::task::CheckedProgram) the executors run.

use crate::pod::Pod;
use crate::world::World;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies an array in global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Identifies a stream edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Identifies a kernel node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u32);

/// Typed handle to an array of `T` records.
pub struct ArrayRef<T> {
    id: ArrayId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> ArrayRef<T> {
    /// The underlying array id.
    #[must_use]
    pub fn id(&self) -> ArrayId {
        self.id
    }
}

impl<T> Clone for ArrayRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArrayRef<T> {}
impl<T> fmt::Debug for ArrayRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArrayRef({})", self.id.0)
    }
}

/// Typed handle to a stream of `T` elements.
pub struct StreamRef<T> {
    id: StreamId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> StreamRef<T> {
    /// The underlying stream id.
    #[must_use]
    pub fn id(&self) -> StreamId {
        self.id
    }
}

impl<T> Clone for StreamRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for StreamRef<T> {}
impl<T> fmt::Debug for StreamRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamRef({})", self.id.0)
    }
}

/// How array records are visited by a gather or scatter.
#[derive(Debug, Clone)]
pub enum AccessKind {
    /// Record `i` of the array for ascending `i`.
    Sequential,
    /// Record `indices[i]` (a random gather/scatter through an index array).
    Indexed(Arc<Vec<u32>>),
}

/// Binding of one stream end to an array in global memory.
#[derive(Debug, Clone)]
pub struct ArrayBinding {
    /// Which array.
    pub array: ArrayId,
    /// Visit order of the records.
    pub access: AccessKind,
    /// Byte offset of the copied field within each record.
    pub field_offset: usize,
    /// Size of the copied field in bytes (equals the stream element size).
    pub field_bytes: usize,
}

/// Declaration of a stream edge.
#[derive(Debug, Clone)]
pub struct StreamDecl {
    /// Human-readable name.
    pub name: String,
    /// Bytes per element as packed in the SRF.
    pub elem_bytes: usize,
    /// Total number of elements over the whole program run.
    pub count: usize,
    /// Logical items; equal to `count` unless `boundaries` is present.
    pub items: usize,
    /// Gather source, if the stream is loaded from memory.
    pub src: Option<ArrayBinding>,
    /// Scatter destination, if the stream is stored to memory.
    pub dst: Option<ArrayBinding>,
    /// For variable-rate streams: prefix offsets mapping item `i` to the
    /// element range `boundaries[i]..boundaries[i + 1]` (length `items + 1`).
    pub boundaries: Option<Arc<Vec<u32>>>,
}

impl StreamDecl {
    /// Element range covered by items `i0..i1`.
    ///
    /// # Panics
    ///
    /// Panics if the item range is out of bounds.
    #[must_use]
    pub fn elems_for_items(&self, i0: usize, i1: usize) -> std::ops::Range<usize> {
        assert!(i0 <= i1 && i1 <= self.items, "item range {i0}..{i1} out of {}", self.items);
        match &self.boundaries {
            None => i0..i1,
            Some(b) => (b[i0] as usize)..(b[i1] as usize),
        }
    }
}

/// Arguments handed to a kernel function for one strip.
pub struct KernelArgs<'a> {
    inputs: Vec<&'a [u8]>,
    /// `None` once lent by [`KernelArgs::output`].
    outputs: Vec<Option<&'a mut [u8]>>,
    items: std::ops::Range<usize>,
}

impl<'a> KernelArgs<'a> {
    /// Assemble kernel arguments directly (used by executors and by
    /// compiler passes that wrap kernel functions, e.g. fusion).
    #[must_use]
    pub fn new(
        inputs: Vec<&'a [u8]>,
        outputs: Vec<&'a mut [u8]>,
        items: std::ops::Range<usize>,
    ) -> Self {
        KernelArgs { inputs, outputs: outputs.into_iter().map(Some).collect(), items }
    }

    /// Input port `i` viewed as a `T` slice. The slice borrows the
    /// strip, not `self`, so a kernel can hold its inputs while it
    /// writes [`KernelArgs::output`].
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range or the bytes do not form
    /// whole `T` values.
    #[must_use]
    pub fn input<T: Pod>(&self, i: usize) -> &'a [T] {
        crate::pod::cast_slice(self.inputs[i])
    }

    /// Output port `i` viewed as a mutable `T` slice. The slice is lent
    /// for the whole strip, not borrowed from `self`, so a kernel can
    /// hold every output at once; each port is lent once.
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range, the port was already
    /// lent, or the bytes do not form whole `T` values.
    #[must_use]
    pub fn output<T: Pod>(&mut self, i: usize) -> &'a mut [T] {
        let strip = self.outputs[i].take();
        crate::pod::cast_slice_mut(
            strip.unwrap_or_else(|| panic!("kernel output {i} is already lent")),
        )
    }

    /// The logical item range this invocation covers (useful for kernels
    /// whose behaviour depends on absolute position).
    #[must_use]
    pub fn items(&self) -> std::ops::Range<usize> {
        self.items.clone()
    }

    /// Number of output ports.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }
}

/// A kernel body: invoked once per strip with that strip's data.
pub type KernelFn = Arc<dyn Fn(&mut KernelArgs<'_>) + Send + Sync>;

/// Declaration of a kernel node.
#[derive(Clone)]
pub struct KernelDecl {
    /// Human-readable name.
    pub name: String,
    /// Input stream ports, in order.
    pub inputs: Vec<StreamId>,
    /// Output stream ports, in order.
    pub outputs: Vec<StreamId>,
    /// Estimated compute micro-ops per logical item (drives the timing
    /// model; the paper's COMP knob).
    pub uops_per_item: usize,
    /// The kernel body.
    pub func: KernelFn,
}

impl fmt::Debug for KernelDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelDecl")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("uops_per_item", &self.uops_per_item)
            .finish_non_exhaustive()
    }
}

/// A validated stream program graph.
///
/// A graph never changes once built, and each one built
/// ([`GraphBuilder::build`], [`StreamGraph::from_parts`] or `default`)
/// gets an identity of its own that its clones share. A
/// [`CheckedProgram`](crate::task::CheckedProgram) records the identity
/// of the graph it was checked against, and executors run it with no
/// other.
#[derive(Debug, Clone)]
pub struct StreamGraph {
    streams: Vec<StreamDecl>,
    kernels: Vec<KernelDecl>,
    identity: u64,
}

/// A graph identity no graph has had yet.
fn fresh_identity() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for StreamGraph {
    fn default() -> Self {
        StreamGraph { streams: Vec::new(), kernels: Vec::new(), identity: fresh_identity() }
    }
}

impl StreamGraph {
    /// Assemble a graph directly from declarations (used by compiler
    /// passes that transform graphs). Performs the structural checks of
    /// [`GraphBuilder::build`] that do not require array contents.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a stream lacks a source/sink, has
    /// multiple producers, or the kernel dataflow is cyclic or
    /// rate-inconsistent.
    pub fn from_parts(
        streams: Vec<StreamDecl>,
        kernels: Vec<KernelDecl>,
    ) -> Result<Self, GraphError> {
        let g = StreamGraph { streams, kernels, identity: fresh_identity() };
        g.check_structure(|_| Ok(()))?;
        Ok(g)
    }

    /// The structural checks every graph passes: each stream has a source
    /// and a sink and at most one producer (then `bindings`, which checks
    /// its array bindings where the arrays are known), each kernel's ports
    /// agree on item counts, and the kernel dataflow is acyclic. Reports
    /// the first failure in that order.
    fn check_structure(
        &self,
        mut bindings: impl FnMut(&StreamDecl) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        for (si, s) in self.streams.iter().enumerate() {
            let sid = StreamId(si as u32);
            let producers = self.kernels.iter().filter(|k| k.outputs.contains(&sid)).count();
            if producers > 1 {
                return Err(GraphError::MultipleProducers(s.name.clone()));
            }
            if s.src.is_none() && producers == 0 {
                return Err(GraphError::NoSource(s.name.clone()));
            }
            let consumers = self.kernels.iter().filter(|k| k.inputs.contains(&sid)).count();
            if s.dst.is_none() && consumers == 0 {
                return Err(GraphError::NoSink(s.name.clone()));
            }
            bindings(s)?;
        }
        for k in &self.kernels {
            let mut ports = k.inputs.iter().chain(&k.outputs).map(|&s| self.stream(s).items);
            if let Some(first) = ports.next() {
                if let Some(other) = ports.find(|&n| n != first) {
                    return Err(GraphError::ItemCountMismatch {
                        kernel: k.name.clone(),
                        counts: (first, other),
                    });
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// The identity this graph was built with, shared by its clones.
    pub(crate) fn identity(&self) -> u64 {
        self.identity
    }

    /// All stream declarations.
    #[must_use]
    pub fn streams(&self) -> &[StreamDecl] {
        &self.streams
    }

    /// All kernel declarations.
    #[must_use]
    pub fn kernels(&self) -> &[KernelDecl] {
        &self.kernels
    }

    /// Declaration of one stream.
    #[must_use]
    pub fn stream(&self, id: StreamId) -> &StreamDecl {
        &self.streams[id.0 as usize]
    }

    /// Declaration of one kernel.
    #[must_use]
    pub fn kernel(&self, id: KernelId) -> &KernelDecl {
        &self.kernels[id.0 as usize]
    }

    /// A stable content fingerprint of the graph structure: stream
    /// declarations (including index arrays and item boundaries, which
    /// drive the timing model's TLB/cache behaviour) and kernel
    /// signatures (name, ports, per-item micro-op cost).
    ///
    /// Kernel *bodies* are closures and cannot be hashed; a kernel is
    /// identified by its name and cost. That is exactly the information
    /// the simulator's timing pass consumes, so two graphs with equal
    /// fingerprints time identically — the property the autotuner's
    /// evaluation cache relies on.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fp = gpstream_util::Fingerprint::new("stream-graph-v1");
        fp.usize(self.streams.len());
        for s in &self.streams {
            fp.str(&s.name).usize(s.elem_bytes).usize(s.count).usize(s.items);
            for binding in [&s.src, &s.dst] {
                match binding {
                    None => {
                        fp.bool(false);
                    }
                    Some(b) => {
                        fp.bool(true).u64(u64::from(b.array.0));
                        match &b.access {
                            AccessKind::Sequential => fp.u64(0),
                            AccessKind::Indexed(idx) => fp.u64(1).u32s(idx),
                        };
                        fp.usize(b.field_offset).usize(b.field_bytes);
                    }
                }
            }
            match &s.boundaries {
                None => fp.bool(false),
                Some(b) => fp.bool(true).u32s(b),
            };
        }
        fp.usize(self.kernels.len());
        for k in &self.kernels {
            fp.str(&k.name).usize(k.uops_per_item);
            fp.usize(k.inputs.len());
            for id in &k.inputs {
                fp.u64(u64::from(id.0));
            }
            fp.usize(k.outputs.len());
            for id in &k.outputs {
                fp.u64(u64::from(id.0));
            }
        }
        fp.finish()
    }

    /// The kernel producing `stream`, if any.
    #[must_use]
    pub fn producer_of(&self, stream: StreamId) -> Option<KernelId> {
        self.kernels.iter().position(|k| k.outputs.contains(&stream)).map(|i| KernelId(i as u32))
    }

    /// All kernels consuming `stream`.
    #[must_use]
    pub fn consumers_of(&self, stream: StreamId) -> Vec<KernelId> {
        self.kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| k.inputs.contains(&stream))
            .map(|(i, _)| KernelId(i as u32))
            .collect()
    }

    /// Kernels in a topological order of the stream dataflow.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cyclic`] if the kernel graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<KernelId>, GraphError> {
        let n = self.kernels.len();
        let mut indegree = vec![0usize; n];
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ki, k) in self.kernels.iter().enumerate() {
            for &s in &k.inputs {
                if let Some(p) = self.producer_of(s) {
                    edges[p.0 as usize].push(ki);
                    indegree[ki] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        while let Some(k) = ready.pop() {
            order.push(KernelId(k as u32));
            for &next in &edges[k] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    ready.push(next);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cyclic)
        }
    }
}

/// Errors produced while building or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two ports of a kernel disagree on item counts.
    ItemCountMismatch {
        /// Kernel name.
        kernel: String,
        /// The differing counts seen.
        counts: (usize, usize),
    },
    /// A stream has no source (neither a gather binding nor a producer).
    NoSource(String),
    /// A stream has no sink (neither a scatter binding nor a consumer).
    NoSink(String),
    /// A stream has two producers.
    MultipleProducers(String),
    /// The kernel dataflow graph is cyclic.
    Cyclic,
    /// A binding's field exceeds the record.
    FieldOutOfRecord {
        /// Stream name.
        stream: String,
    },
    /// Index array entry out of range of the bound array.
    IndexOutOfRange {
        /// Stream name.
        stream: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ItemCountMismatch { kernel, counts } => write!(
                f,
                "kernel `{kernel}` ports disagree on item count ({} vs {})",
                counts.0, counts.1
            ),
            GraphError::NoSource(s) => write!(f, "stream `{s}` has no source"),
            GraphError::NoSink(s) => write!(f, "stream `{s}` has no sink"),
            GraphError::MultipleProducers(s) => {
                write!(f, "stream `{s}` has more than one producer")
            }
            GraphError::Cyclic => write!(f, "kernel dataflow graph is cyclic"),
            GraphError::FieldOutOfRecord { stream } => {
                write!(f, "stream `{stream}` field exceeds the array record")
            }
            GraphError::IndexOutOfRange { stream } => {
                write!(f, "stream `{stream}` index array references past the end of the array")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Builder for a [`StreamGraph`] plus its backing [`World`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: StreamGraph,
    world: World,
}

impl GraphBuilder {
    /// A fresh, empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an array initialized from `data`.
    pub fn array<T: Pod>(&mut self, name: &str, data: &[T]) -> ArrayRef<T> {
        let id = self.world.add_array::<T>(name, data);
        ArrayRef { id, _marker: PhantomData }
    }

    /// Add a zero-initialized array of `count` records.
    pub fn array_zeroed<T: Pod>(&mut self, name: &str, count: usize) -> ArrayRef<T> {
        let id = self.world.add_array_zeroed::<T>(name, count);
        ArrayRef { id, _marker: PhantomData }
    }

    fn push_stream(&mut self, decl: StreamDecl) -> StreamId {
        let id = StreamId(self.graph.streams.len() as u32);
        self.graph.streams.push(decl);
        id
    }

    /// Declare an intermediate stream of `count` `T` elements (produced and
    /// consumed by kernels; never touches memory unless also scattered).
    pub fn stream<T: Pod>(&mut self, name: &str, count: usize) -> StreamRef<T> {
        let id = self.push_stream(StreamDecl {
            name: name.to_string(),
            elem_bytes: std::mem::size_of::<T>(),
            count,
            items: count,
            src: None,
            dst: None,
            boundaries: None,
        });
        StreamRef { id, _marker: PhantomData }
    }

    /// Gather whole records of `arr` sequentially into a stream.
    pub fn gather_seq<T: Pod>(&mut self, name: &str, arr: ArrayRef<T>) -> StreamRef<T> {
        let count = self.world.array(arr.id()).count;
        let bytes = std::mem::size_of::<T>();
        let id = self.push_stream(StreamDecl {
            name: name.to_string(),
            elem_bytes: bytes,
            count,
            items: count,
            src: Some(ArrayBinding {
                array: arr.id(),
                access: AccessKind::Sequential,
                field_offset: 0,
                field_bytes: bytes,
            }),
            dst: None,
            boundaries: None,
        });
        StreamRef { id, _marker: PhantomData }
    }

    /// Gather one field (`F`, at byte `field_offset` inside each `T`
    /// record) of `arr` sequentially.
    pub fn gather_field_seq<T: Pod, F: Pod>(
        &mut self,
        name: &str,
        arr: ArrayRef<T>,
        field_offset: usize,
    ) -> StreamRef<F> {
        let count = self.world.array(arr.id()).count;
        let id = self.push_stream(StreamDecl {
            name: name.to_string(),
            elem_bytes: std::mem::size_of::<F>(),
            count,
            items: count,
            src: Some(ArrayBinding {
                array: arr.id(),
                access: AccessKind::Sequential,
                field_offset,
                field_bytes: std::mem::size_of::<F>(),
            }),
            dst: None,
            boundaries: None,
        });
        StreamRef { id, _marker: PhantomData }
    }

    /// Gather whole records of `arr` in the order given by `indices`.
    pub fn gather_indexed<T: Pod>(
        &mut self,
        name: &str,
        arr: ArrayRef<T>,
        indices: Arc<Vec<u32>>,
    ) -> StreamRef<T> {
        let bytes = std::mem::size_of::<T>();
        let count = indices.len();
        let id = self.push_stream(StreamDecl {
            name: name.to_string(),
            elem_bytes: bytes,
            count,
            items: count,
            src: Some(ArrayBinding {
                array: arr.id(),
                access: AccessKind::Indexed(indices),
                field_offset: 0,
                field_bytes: bytes,
            }),
            dst: None,
            boundaries: None,
        });
        StreamRef { id, _marker: PhantomData }
    }

    /// Scatter a stream sequentially into whole records of `arr`.
    ///
    /// # Panics
    ///
    /// Panics if the stream element size differs from the record size.
    pub fn scatter_seq<T: Pod>(&mut self, stream: StreamRef<T>, arr: ArrayRef<T>) {
        let bytes = std::mem::size_of::<T>();
        let decl = &mut self.graph.streams[stream.id().0 as usize];
        assert_eq!(decl.elem_bytes, bytes, "scatter element size mismatch");
        decl.dst = Some(ArrayBinding {
            array: arr.id(),
            access: AccessKind::Sequential,
            field_offset: 0,
            field_bytes: bytes,
        });
    }

    /// Scatter a stream into records of `arr` in the order given by
    /// `indices`.
    pub fn scatter_indexed<T: Pod>(
        &mut self,
        stream: StreamRef<T>,
        arr: ArrayRef<T>,
        indices: Arc<Vec<u32>>,
    ) {
        let bytes = std::mem::size_of::<T>();
        let decl = &mut self.graph.streams[stream.id().0 as usize];
        assert_eq!(decl.elem_bytes, bytes, "scatter element size mismatch");
        decl.dst = Some(ArrayBinding {
            array: arr.id(),
            access: AccessKind::Indexed(indices),
            field_offset: 0,
            field_bytes: bytes,
        });
    }

    /// Mark a stream as variable-rate: item `i` spans elements
    /// `boundaries[i]..boundaries[i+1]`.
    ///
    /// # Panics
    ///
    /// Panics if the boundary table is inconsistent with the stream length.
    pub fn set_boundaries<T>(&mut self, stream: StreamRef<T>, boundaries: Arc<Vec<u32>>) {
        let decl = &mut self.graph.streams[stream.id().0 as usize];
        assert!(!boundaries.is_empty(), "boundaries must have at least one entry");
        assert_eq!(
            *boundaries.last().unwrap() as usize,
            decl.count,
            "last boundary must equal the element count"
        );
        decl.items = boundaries.len() - 1;
        decl.boundaries = Some(boundaries);
    }

    /// Add a kernel. `inputs` and `outputs` are stream ids (use
    /// [`StreamRef::id`]); `uops_per_item` estimates its per-item compute
    /// cost for the timing model; `func` is the body, invoked per strip.
    pub fn kernel(
        &mut self,
        name: &str,
        inputs: &[StreamId],
        outputs: &[StreamId],
        uops_per_item: usize,
        func: impl Fn(&mut KernelArgs<'_>) + Send + Sync + 'static,
    ) -> KernelId {
        let id = KernelId(self.graph.kernels.len() as u32);
        self.graph.kernels.push(KernelDecl {
            name: name.to_string(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            uops_per_item,
            func: Arc::new(func),
        });
        id
    }

    /// Validate and finish, returning the graph and the world holding the
    /// array data.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] describing the first validation failure.
    pub fn build(mut self) -> Result<(StreamGraph, World), GraphError> {
        let world = &self.world;
        self.graph.check_structure(|s| {
            for b in s.src.iter().chain(s.dst.iter()) {
                let arr = world.array(b.array);
                if b.field_offset + b.field_bytes > arr.record_bytes {
                    return Err(GraphError::FieldOutOfRecord { stream: s.name.clone() });
                }
                if let AccessKind::Indexed(idx) = &b.access {
                    if idx.iter().any(|&i| i as usize >= arr.count) {
                        return Err(GraphError::IndexOutOfRange { stream: s.name.clone() });
                    }
                }
            }
            Ok(())
        })?;
        self.graph.identity = fresh_identity();
        Ok((self.graph, self.world))
    }

    /// Read-only access to the world under construction (for tests).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_kernel() -> impl Fn(&mut KernelArgs<'_>) + Send + Sync + 'static {
        |args: &mut KernelArgs<'_>| {
            let x = args.input::<f32>(0);
            args.output::<f32>(0).copy_from_slice(x);
        }
    }

    #[test]
    fn build_simple_pipeline() {
        let mut b = GraphBuilder::new();
        let a = b.array("a", &[1.0f32, 2.0, 3.0]);
        let y = b.array_zeroed::<f32>("y", 3);
        let s_in = b.gather_seq("as", a);
        let s_out = b.stream::<f32>("ys", 3);
        b.kernel("copy", &[s_in.id()], &[s_out.id()], 10, identity_kernel());
        b.scatter_seq(s_out, y);
        let (g, _w) = b.build().expect("valid graph");
        assert_eq!(g.streams().len(), 2);
        assert_eq!(g.kernels().len(), 1);
        assert_eq!(g.producer_of(s_out.id()), Some(KernelId(0)));
        assert_eq!(g.consumers_of(s_in.id()), vec![KernelId(0)]);
    }

    #[test]
    fn index_out_of_range_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.array("a", &[1.0f32, 2.0]);
        let y = b.array_zeroed::<f32>("y", 2);
        let s = b.gather_indexed("as", a, Arc::new(vec![0, 5]));
        let s_out = b.stream::<f32>("ys", 2);
        b.kernel("k", &[s.id()], &[s_out.id()], 1, identity_kernel());
        b.scatter_seq(s_out, y);
        let err = b.build().unwrap_err();
        assert!(matches!(err, GraphError::IndexOutOfRange { .. }), "{err}");
    }

    #[test]
    fn boundaries_map_items_to_elements() {
        let mut b = GraphBuilder::new();
        let a = b.array("a", &[1.0f32; 10]);
        let y = b.array_zeroed::<f32>("y", 3);
        let vals = b.gather_seq("vals", a);
        b.set_boundaries(vals, Arc::new(vec![0, 4, 7, 10]));
        let out = b.stream::<f32>("out", 3);
        b.kernel("rows", &[vals.id()], &[out.id()], 1, identity_kernel());
        b.scatter_seq(out, y);
        // Kernel ports agree: vals has 3 items, out has 3 items.
        let (g, _w) = b.build().expect("valid");
        let decl = g.stream(vals.id());
        assert_eq!(decl.items, 3);
        assert_eq!(decl.elems_for_items(1, 3), 4..10);
    }

    /// Each malformed graph fails `build` and `from_parts` with the same
    /// first error.
    #[test]
    fn malformed_graphs_rejected_alike_by_build_and_from_parts() {
        type Declare = fn(&mut GraphBuilder);
        let cases: [(Declare, GraphError); 5] = [
            (
                |b| {
                    let y = b.array_zeroed::<f32>("y", 3);
                    let s = b.stream::<f32>("orphan", 3);
                    b.scatter_seq(s, y);
                },
                GraphError::NoSource("orphan".into()),
            ),
            (
                |b| {
                    let a = b.array("a", &[1.0f32]);
                    b.gather_seq("as", a);
                },
                GraphError::NoSink("as".into()),
            ),
            (
                |b| {
                    let a = b.array("a", &[1.0f32; 3]);
                    let y = b.array_zeroed::<f32>("y", 3);
                    let s_in = b.gather_seq("as", a);
                    let s_out = b.stream::<f32>("ys", 3);
                    b.kernel("k1", &[s_in.id()], &[s_out.id()], 1, identity_kernel());
                    b.kernel("k2", &[s_in.id()], &[s_out.id()], 1, identity_kernel());
                    b.scatter_seq(s_out, y);
                },
                GraphError::MultipleProducers("ys".into()),
            ),
            (
                |b| {
                    let a = b.array("a", &[1.0f32, 2.0]);
                    let y = b.array_zeroed::<f32>("y", 3);
                    let s_in = b.gather_seq("as", a);
                    let s_out = b.stream::<f32>("ys", 3);
                    b.kernel("bad", &[s_in.id()], &[s_out.id()], 1, identity_kernel());
                    b.scatter_seq(s_out, y);
                },
                GraphError::ItemCountMismatch { kernel: "bad".into(), counts: (2, 3) },
            ),
            (
                |b| {
                    let s1 = b.stream::<f32>("s1", 4);
                    let s2 = b.stream::<f32>("s2", 4);
                    b.kernel("k1", &[s2.id()], &[s1.id()], 1, identity_kernel());
                    b.kernel("k2", &[s1.id()], &[s2.id()], 1, identity_kernel());
                },
                GraphError::Cyclic,
            ),
        ];
        for (declare, want) in cases {
            let mut b = GraphBuilder::new();
            declare(&mut b);
            let parts = StreamGraph::from_parts(b.graph.streams.clone(), b.graph.kernels.clone());
            assert_eq!(parts.unwrap_err(), want, "from_parts");
            assert_eq!(b.build().unwrap_err(), want, "build");
        }
    }
}
