//! Kernel fusion.
//!
//! The paper fuses adjacent kernels when they share input streams — in
//! streamFEM, "GatherCell and AdvanceCell kernels are fused into a single
//! kernel. The observation that both kernels share the same input streams
//! led to this optimization." Fusion removes the intermediate streams from
//! the SRF working set and halves the per-strip dispatch count for the
//! pair.
//!
//! Legality here: `k1` may be fused into a consumer `k2` when
//!
//! * every output of `k1` is consumed *only* by `k2` and is not scattered
//!   to memory,
//! * the two kernels agree on item counts (enforced by validation),
//! * the intermediate streams are unit-rate (no `boundaries`), and
//! * the kernels share at least one input stream (the paper's trigger).

use gpstream_core::graph::{KernelArgs, KernelDecl, StreamDecl, StreamGraph, StreamId};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of the fusion pass.
#[derive(Debug)]
pub struct FusionOutcome {
    /// The transformed graph.
    pub graph: StreamGraph,
    /// Names of the kernel pairs that were fused, `(producer, consumer)`.
    pub fused: Vec<(String, String)>,
}

/// Whether `graph` contains at least one legal fusion candidate, without
/// committing the transformation. `CompilerOptions::validate` uses this
/// to flag a fusion knob that would be a no-op (so knob searches don't
/// waste evaluations on duplicate points).
#[must_use]
pub fn has_fusable_pair(graph: &StreamGraph) -> bool {
    fuse_shared_input_kernels(graph).map(|o| !o.fused.is_empty()).unwrap_or(false)
}

/// Run the fusion pass over `graph`.
///
/// # Errors
///
/// Returns the underlying [`gpstream_core::GraphError`] if reassembling
/// the transformed graph fails (which would indicate a bug in the pass).
pub fn fuse_shared_input_kernels(
    graph: &StreamGraph,
) -> Result<FusionOutcome, gpstream_core::GraphError> {
    let mut streams: Vec<StreamDecl> = graph.streams().to_vec();
    let mut kernels: Vec<Option<KernelDecl>> = graph.kernels().iter().cloned().map(Some).collect();
    let mut fused_names = Vec::new();

    // Greedy single pass in topological order: try to fuse each kernel
    // into its unique consumer.
    let order = graph.topo_order()?;
    for kid in order {
        let k1_idx = kid.0 as usize;
        let Some(k1) = kernels[k1_idx].clone() else { continue };
        if k1.outputs.is_empty() {
            continue;
        }
        // All outputs must go to exactly one common consumer kernel, with
        // no scatter bindings and unit rate.
        let mut consumer: Option<usize> = None;
        let mut legal = true;
        for &out in &k1.outputs {
            let decl = &streams[out.0 as usize];
            if decl.dst.is_some() || decl.boundaries.is_some() {
                legal = false;
                break;
            }
            let consumers: Vec<usize> = kernels
                .iter()
                .enumerate()
                .filter_map(|(i, k)| k.as_ref().map(|k| (i, k)))
                .filter(|(_, k)| k.inputs.contains(&out))
                .map(|(i, _)| i)
                .collect();
            if consumers.len() != 1 {
                legal = false;
                break;
            }
            match consumer {
                None => consumer = Some(consumers[0]),
                Some(c) if c != consumers[0] => {
                    legal = false;
                    break;
                }
                _ => {}
            }
        }
        let Some(k2_idx) = consumer.filter(|_| legal) else { continue };
        if k2_idx == k1_idx {
            continue;
        }
        let k2 = kernels[k2_idx].clone().expect("consumer exists");
        // The paper's trigger: the kernels share at least one input.
        if !k1.inputs.iter().any(|s| k2.inputs.contains(s)) {
            continue;
        }

        // Build the fused kernel.
        let intermediates: Vec<StreamId> = k1.outputs.clone();
        let mut fused_inputs: Vec<StreamId> = k1.inputs.clone();
        for &s in &k2.inputs {
            if !intermediates.contains(&s) && !fused_inputs.contains(&s) {
                fused_inputs.push(s);
            }
        }
        let fused_outputs: Vec<StreamId> = k2.outputs.clone();

        // Index maps from original port lists into the fused argument
        // layout. Inputs of k2 that are intermediates come from temps.
        let k1_in_map: Vec<usize> = k1
            .inputs
            .iter()
            .map(|s| fused_inputs.iter().position(|f| f == s).expect("k1 input present"))
            .collect();
        #[derive(Clone, Copy)]
        enum K2In {
            Fused(usize),
            Temp(usize),
        }
        let k2_in_map: Vec<K2In> = k2
            .inputs
            .iter()
            .map(|s| {
                if let Some(t) = intermediates.iter().position(|i| i == s) {
                    K2In::Temp(t)
                } else {
                    K2In::Fused(fused_inputs.iter().position(|f| f == s).expect("present"))
                }
            })
            .collect();
        let temp_elem_bytes: Vec<usize> =
            intermediates.iter().map(|s| streams[s.0 as usize].elem_bytes).collect();
        let (f1, f2) = (Arc::clone(&k1.func), Arc::clone(&k2.func));
        let name = format!("{}+{}", k1.name, k2.name);
        fused_names.push((k1.name.clone(), k2.name.clone()));

        let func = move |args: &mut KernelArgs<'_>| {
            let items = args.items();
            let n = items.end - items.start;
            // Stage 1: run k1 into temporary buffers.
            let mut temps: Vec<Vec<u8>> =
                temp_elem_bytes.iter().map(|eb| vec![0u8; eb * n]).collect();
            let ins: Vec<&[u8]> = k1_in_map.iter().map(|&i| args.input::<u8>(i)).collect();
            let outs: Vec<&mut [u8]> = temps.iter_mut().map(Vec::as_mut_slice).collect();
            f1(&mut KernelArgs::new(ins, outs, items.clone()));
            // Stage 2: run k2 from the fused inputs and the temps
            // straight into the real outputs.
            let ins: Vec<&[u8]> = k2_in_map
                .iter()
                .map(|m| match *m {
                    K2In::Fused(i) => args.input::<u8>(i),
                    K2In::Temp(t) => temps[t].as_slice(),
                })
                .collect();
            let outs: Vec<&mut [u8]> = (0..args.num_outputs()).map(|i| args.output(i)).collect();
            f2(&mut KernelArgs::new(ins, outs, items));
        };

        // Install: replace k2 with the fused kernel, delete k1.
        kernels[k2_idx] = Some(KernelDecl {
            name,
            inputs: fused_inputs,
            outputs: fused_outputs,
            uops_per_item: k1.uops_per_item + k2.uops_per_item,
            func: Arc::new(func),
        });
        kernels[k1_idx] = None;
        // Intermediate streams disappear.
        for s in &intermediates {
            streams[s.0 as usize].name.push_str(" (fused away)");
        }
    }

    // Compact: drop deleted kernels and orphaned intermediate streams,
    // remapping stream ids.
    let live_streams: Vec<usize> = (0..streams.len())
        .filter(|&si| {
            let sid = StreamId(si as u32);
            let used = kernels
                .iter()
                .flatten()
                .any(|k| k.inputs.contains(&sid) || k.outputs.contains(&sid));
            used || streams[si].src.is_some() || streams[si].dst.is_some()
        })
        .collect();
    let remap: HashMap<u32, u32> =
        live_streams.iter().enumerate().map(|(new, &old)| (old as u32, new as u32)).collect();
    let new_streams: Vec<StreamDecl> = live_streams.iter().map(|&si| streams[si].clone()).collect();
    let new_kernels: Vec<KernelDecl> = kernels
        .into_iter()
        .flatten()
        .map(|mut k| {
            for s in k.inputs.iter_mut().chain(k.outputs.iter_mut()) {
                *s = StreamId(remap[&s.0]);
            }
            k
        })
        .collect();

    Ok(FusionOutcome {
        graph: StreamGraph::from_parts(new_streams, new_kernels)?,
        fused: fused_names,
    })
}
