//! streamSPAS: sparse matrix-vector multiplication over compressed sparse
//! row storage (paper Section IV-C-4, Figures 10(d), 11(d)) — the paper's
//! negative result.
//!
//! The stream version gathers one copy of the input vector *per non-zero*
//! ("for every non-zero element in the matrix, one element is copied from
//! the input vector into the stream register file... to keep the input
//! vector data contiguous in the SRF"), which duplicates x roughly
//! nnz/row ≈ 46 times. For small matrices, where the cache serves the
//! regular code's random x reads cheaply, this extra copying makes the
//! stream version *slower*; as the matrix grows past the cache and TLB
//! reach, the regular code's random reads become expensive and the stream
//! version catches up and crosses over.

use crate::common::AppBench;
use crate::mesh::{random_f32, CsrMatrix};
use gpstream_core::regular::{RegularAccess, RegularProgram};
use gpstream_core::{GraphBuilder, World};
use gpstream_machine::ops::Rw;
use std::sync::Arc;

/// nnz/row used in the paper's experiments ("approximately 46").
pub const PAPER_NNZ_PER_ROW: usize = 46;

/// Multiply-accumulate cost per non-zero, expressed per row.
fn spmv_uops(nnz_per_row: usize) -> usize {
    3 * nnz_per_row
}

/// Build a streamSPAS benchmark for a matrix with `rows` rows.
#[must_use]
pub fn spas_bench(rows: usize, nnz_per_row: usize, seed: u64) -> AppBench {
    let m = CsrMatrix::fem_like(rows, nnz_per_row, seed);
    let x = random_f32(rows, seed ^ 0x5ba5_u64 ^ 0x1234);
    let nnz = m.nnz();
    let row_ptr = Arc::new(m.row_ptr.clone());
    let cols = Arc::new(m.cols.clone());
    let rowlen: Vec<u32> = (0..rows).map(|r| m.row_ptr[r + 1] - m.row_ptr[r]).collect();

    // ---- Stream version ----
    let mut b = GraphBuilder::new();
    let a_x = b.array("x", &x);
    let a_vals = b.array("vals", &m.vals);
    let a_rowlen = b.array("rowlen", &rowlen);
    let a_y = b.array_zeroed::<f32>("y", rows);

    // One x element copied into the SRF per non-zero: the duplication that
    // penalizes small matrices.
    let s_x = b.gather_indexed("xs", a_x, Arc::clone(&cols));
    b.set_boundaries(s_x, Arc::clone(&row_ptr));
    let s_v = b.gather_seq("vals", a_vals);
    b.set_boundaries(s_v, Arc::clone(&row_ptr));
    let s_len = b.gather_seq("rowlen", a_rowlen);
    let s_y = b.stream::<f32>("ys", rows);
    b.kernel(
        "SpMatVec",
        &[s_x.id(), s_v.id(), s_len.id()],
        &[s_y.id()],
        spmv_uops(nnz_per_row),
        |args| {
            let xs = args.input::<f32>(0);
            let vs = args.input::<f32>(1);
            let lens = args.input::<u32>(2);
            let out = args.output::<f32>(0);
            let mut off = 0usize;
            for (r, o) in out.iter_mut().enumerate() {
                let len = lens[r] as usize;
                let mut acc = 0.0f32;
                for j in 0..len {
                    acc += xs[off + j] * vs[off + j];
                }
                *o = acc;
                off += len;
            }
            debug_assert_eq!(off, xs.len());
        },
    );
    b.scatter_seq(s_y, a_y);
    let (graph, stream_world) = b.build().expect("valid streamSPAS graph");

    // ---- Regular twin: classic CSR loop. ----
    let mut rw = World::new();
    let r_x = rw.add_array("x", &x);
    let r_vals = rw.add_array("vals", &m.vals);
    let r_y = rw.add_array_zeroed::<f32>("y", rows);
    let mut regular = RegularProgram::new();
    {
        let m2 = m.clone();
        regular.phase(
            "csr mac loop",
            nnz,
            vec![
                RegularAccess::seq(r_vals, 4, Rw::Read),
                RegularAccess::indexed(r_x, Arc::clone(&cols), 4, Rw::Read),
            ],
            3,
            move |w| {
                let xv: Vec<f32> = w.slice::<f32>(r_x).to_vec();
                let y = m2.spmv(&xv);
                w.slice_mut::<f32>(r_y).copy_from_slice(&y);
            },
        );
    }
    regular.phase("row store loop", rows, vec![RegularAccess::seq(r_y, 4, Rw::Write)], 2, |_| {});

    AppBench {
        name: format!("streamSPAS rows={rows}"),
        graph,
        stream_world,
        stream_outputs: vec![a_y.id()],
        regular,
        regular_world: rw,
        regular_outputs: vec![r_y],
    }
}

/// SRF copy amplification of the stream version: x elements copied per
/// useful x element.
#[must_use]
pub fn copy_amplification(rows: usize, nnz_per_row: usize, seed: u64) -> f64 {
    let m = CsrMatrix::fem_like(rows, nnz_per_row, seed);
    m.nnz() as f64 / rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_compiler::CompilerOptions;

    #[test]
    fn verifies_functionally() {
        spas_bench(1500, 20, 41).verify(&CompilerOptions::paper());
    }

    #[test]
    fn stream_matches_reference_spmv() {
        let rows = 800;
        let bench = spas_bench(rows, 15, 43);
        let compiled = gpstream_compiler::compile(&bench.graph, &CompilerOptions::paper()).unwrap();
        let mut sw = bench.stream_world.clone();
        gpstream_core::exec::functional::FunctionalExecutor::new().run(
            &compiled.schedule,
            &compiled.graph,
            &mut sw,
        );
        // Independent check against CsrMatrix::spmv.
        let m = CsrMatrix::fem_like(rows, 15, 43);
        let x = random_f32(rows, 43 ^ 0x5ba5_u64 ^ 0x1234);
        let want = m.spmv(&x);
        let got: Vec<f32> = sw.slice::<f32>(bench.stream_outputs[0]).to_vec();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn amplification_matches_density() {
        let amp = copy_amplification(2000, PAPER_NNZ_PER_ROW, 7);
        assert!((40.0..52.0).contains(&amp), "{amp}");
    }
}
