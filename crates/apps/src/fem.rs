//! streamFEM: Discontinuous-Galerkin finite-element blast-wave solver
//! (paper Section IV-C-1, Figures 10(a) and 11(a)).
//!
//! One explicit DG step over an unstructured triangular mesh of 4816
//! cells, in two connected kernel pipelines:
//!
//! * **GatherFlux** (per edge): gathers the left/right cell states
//!   (random, through the edge->cell maps), reads edge geometry
//!   sequentially, and computes a Rusanov-style numerical flux per edge,
//!   scattered to the flux array.
//! * **GatherCell** (per cell): gathers the cell's three edge fluxes
//!   (random, through the cell->edge map) plus the cell state
//!   (sequential) and accumulates the residual.
//! * **AdvanceCell** (per cell): small sequential kernel advancing the
//!   state. It shares the cell-state input stream with GatherCell, so the
//!   compiler fuses the two — the optimization the paper reports.
//!
//! The two pipelines communicate through the flux *array* (random
//! gathers), so the scheduler separates them with a phase barrier —
//! "there is no straightforward producer-consumer locality between the
//! GatherFlux and GatherCell kernels".
//!
//! Configurations follow the paper: Euler (4 PDEs) / MHD (6 PDEs) ×
//! linear (3 dof) / quadratic (10 dof); per-cell state is
//! `n_pde * dof` f32s.

use crate::common::AppBench;
use crate::mesh::{random_f32, TriMesh};
use gpstream_core::regular::{RegularAccess, RegularProgram};
use gpstream_core::{GraphBuilder, World};
use gpstream_machine::ops::Rw;
use std::sync::Arc;

/// A streamFEM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FemConfig {
    /// Label from the paper's Figure 11(a).
    pub name: &'static str,
    /// Number of PDEs (Euler 4, MHD 6).
    pub n_pde: usize,
    /// Degrees of freedom of the polynomial space (linear 3, quadratic 10).
    pub dof: usize,
}

/// The four configurations of Figure 11(a).
pub const CONFIGS: [FemConfig; 4] = [
    FemConfig { name: "Euler-lin", n_pde: 4, dof: 3 },
    FemConfig { name: "Euler-quad", n_pde: 4, dof: 10 },
    FemConfig { name: "MHD-lin", n_pde: 6, dof: 3 },
    FemConfig { name: "MHD-quad", n_pde: 6, dof: 10 },
];

/// Cell count used throughout the paper's evaluation.
pub const PAPER_CELLS: usize = 4816;

const DT: f32 = 0.01;

/// Rusanov-style numerical flux for one edge.
fn edge_flux<const K: usize>(ul: &[f32; K], ur: &[f32; K], ed: &[f32; 4]) -> [f32; K] {
    let lambda = ed[2].abs() + 1.0;
    let mut out = [0.0f32; K];
    for c in 0..K {
        out[c] = 0.5 * (ul[c] + ur[c]) * ed[0] - 0.5 * lambda * (ur[c] - ul[c]) * ed[1];
    }
    out
}

/// Residual accumulation + state advance for one cell (the fused
/// GatherCell/AdvanceCell math).
fn cell_advance<const K: usize>(f: [&[f32; K]; 3], u: &[f32; K]) -> [f32; K] {
    let mut out = [0.0f32; K];
    for c in 0..K {
        let res = f[0][c] + f[1][c] + f[2][c] - 0.1 * u[c];
        out[c] = u[c] - DT * res;
    }
    out
}

/// Per-edge compute estimate: flux evaluation costs grow with the number
/// of quadrature points, which tracks the polynomial order.
fn flux_uops(cfg: FemConfig) -> usize {
    let k = cfg.n_pde * cfg.dof;
    4 * k + 2 * k * cfg.dof
}

/// Per-cell compute estimate for the residual accumulation.
fn gather_cell_uops(cfg: FemConfig) -> usize {
    5 * cfg.n_pde * cfg.dof
}

/// Per-cell compute estimate for the state advance.
fn advance_uops(cfg: FemConfig) -> usize {
    let k = cfg.n_pde * cfg.dof;
    2 * k + k * cfg.dof
}

fn build<const K: usize>(cfg: FemConfig, n_cells: usize, seed: u64) -> AppBench {
    assert_eq!(K, cfg.n_pde * cfg.dof, "state size mismatch");
    let mesh = TriMesh::unstructured(n_cells, seed);
    let n = mesh.n_cells;
    let n_edges = mesh.edges.len();
    let raw_u = random_f32(n * K, seed ^ 0xfe17);
    let cells: Vec<[f32; K]> = raw_u.chunks(K).map(|c| c.try_into().unwrap()).collect();
    let raw_e = random_f32(n_edges * 4, seed ^ 0xed9e);
    let edata: Vec<[f32; 4]> = raw_e.chunks(4).map(|c| c.try_into().unwrap()).collect();

    let left = mesh.edge_left();
    let right = mesh.edge_right();
    let ce = mesh.cell_edge_indices();
    let ce_slot: [Arc<Vec<u32>>; 3] = [
        Arc::new((0..n).map(|c| ce[3 * c]).collect()),
        Arc::new((0..n).map(|c| ce[3 * c + 1]).collect()),
        Arc::new((0..n).map(|c| ce[3 * c + 2]).collect()),
    ];

    // ---- Stream version ----
    let mut b = GraphBuilder::new();
    let a_cells = b.array("cells", &cells);
    let a_edata = b.array("edata", &edata);
    let a_flux = b.array_zeroed::<[f32; K]>("flux", n_edges);
    let a_out = b.array_zeroed::<[f32; K]>("out", n);

    let ul = b.gather_indexed("uL", a_cells, Arc::clone(&left));
    let ur = b.gather_indexed("uR", a_cells, Arc::clone(&right));
    let ed = b.gather_seq("edata", a_edata);
    let fs = b.stream::<[f32; K]>("flux", n_edges);
    b.kernel("GatherFlux", &[ul.id(), ur.id(), ed.id()], &[fs.id()], flux_uops(cfg), move |args| {
        let xl = args.input::<[f32; K]>(0);
        let xr = args.input::<[f32; K]>(1);
        let xe = args.input::<[f32; 4]>(2);
        for (i, o) in args.output::<[f32; K]>(0).iter_mut().enumerate() {
            *o = edge_flux(&xl[i], &xr[i], &xe[i]);
        }
    });
    b.scatter_seq(fs, a_flux);

    let f0 = b.gather_indexed("f0", a_flux, Arc::clone(&ce_slot[0]));
    let f1 = b.gather_indexed("f1", a_flux, Arc::clone(&ce_slot[1]));
    let f2 = b.gather_indexed("f2", a_flux, Arc::clone(&ce_slot[2]));
    let us = b.gather_seq("u", a_cells);
    let rs = b.stream::<[f32; K]>("residual", n);
    let outs = b.stream::<[f32; K]>("unew", n);
    b.kernel(
        "GatherCell",
        &[f0.id(), f1.id(), f2.id(), us.id()],
        &[rs.id()],
        gather_cell_uops(cfg),
        move |args| {
            let x0 = args.input::<[f32; K]>(0);
            let x1 = args.input::<[f32; K]>(1);
            let x2 = args.input::<[f32; K]>(2);
            let xu = args.input::<[f32; K]>(3);
            for (i, o) in args.output::<[f32; K]>(0).iter_mut().enumerate() {
                for c in 0..K {
                    o[c] = x0[i][c] + x1[i][c] + x2[i][c] - 0.1 * xu[i][c];
                }
            }
        },
    );
    // AdvanceCell shares the cell-state input stream `us` with GatherCell:
    // the compiler fuses them.
    b.kernel("AdvanceCell", &[rs.id(), us.id()], &[outs.id()], advance_uops(cfg), move |args| {
        let xr = args.input::<[f32; K]>(0);
        let xu = args.input::<[f32; K]>(1);
        for (i, o) in args.output::<[f32; K]>(0).iter_mut().enumerate() {
            for c in 0..K {
                o[c] = xu[i][c] - DT * xr[i][c];
            }
        }
    });
    b.scatter_seq(outs, a_out);
    let (graph, stream_world) = b.build().expect("valid streamFEM graph");

    // ---- Regular twin ----
    let mut rw = World::new();
    let r_cells = rw.add_array("cells", &cells);
    let r_edata = rw.add_array("edata", &edata);
    let r_flux = rw.add_array_zeroed::<[f32; K]>("flux", n_edges);
    let r_out = rw.add_array_zeroed::<[f32; K]>("out", n);
    let mut regular = RegularProgram::new();
    let state_bytes = K * 4;
    {
        let (l, r) = (Arc::clone(&left), Arc::clone(&right));
        regular.phase(
            "flux loop",
            n_edges,
            vec![
                RegularAccess::indexed(r_cells, Arc::clone(&left), state_bytes, Rw::Read),
                RegularAccess::indexed(r_cells, Arc::clone(&right), state_bytes, Rw::Read),
                RegularAccess::seq(r_edata, 16, Rw::Read),
                RegularAccess::seq(r_flux, state_bytes, Rw::Write),
            ],
            flux_uops(cfg),
            move |w| {
                let cells: Vec<[f32; K]> = w.slice::<[f32; K]>(r_cells).to_vec();
                let ed: Vec<[f32; 4]> = w.slice::<[f32; 4]>(r_edata).to_vec();
                let flux = w.slice_mut::<[f32; K]>(r_flux);
                for e in 0..flux.len() {
                    flux[e] = edge_flux(&cells[l[e] as usize], &cells[r[e] as usize], &ed[e]);
                }
            },
        );
    }
    {
        let slots = ce_slot.clone();
        regular.phase(
            "cell update loop",
            n,
            vec![
                RegularAccess::indexed(r_flux, Arc::clone(&ce_slot[0]), state_bytes, Rw::Read),
                RegularAccess::indexed(r_flux, Arc::clone(&ce_slot[1]), state_bytes, Rw::Read),
                RegularAccess::indexed(r_flux, Arc::clone(&ce_slot[2]), state_bytes, Rw::Read),
                RegularAccess::seq(r_cells, state_bytes, Rw::Read),
                RegularAccess::seq(r_out, state_bytes, Rw::Write),
            ],
            gather_cell_uops(cfg) + advance_uops(cfg),
            move |w| {
                let cells: Vec<[f32; K]> = w.slice::<[f32; K]>(r_cells).to_vec();
                let flux: Vec<[f32; K]> = w.slice::<[f32; K]>(r_flux).to_vec();
                let out = w.slice_mut::<[f32; K]>(r_out);
                for i in 0..out.len() {
                    out[i] = cell_advance(
                        [
                            &flux[slots[0][i] as usize],
                            &flux[slots[1][i] as usize],
                            &flux[slots[2][i] as usize],
                        ],
                        &cells[i],
                    );
                }
            },
        );
    }

    AppBench {
        name: format!("streamFEM {}", cfg.name),
        graph,
        stream_world,
        stream_outputs: vec![a_out.id()],
        regular,
        regular_world: rw,
        regular_outputs: vec![r_out],
    }
}

/// Build a streamFEM benchmark for one configuration.
///
/// # Panics
///
/// Panics if the configuration is not one of [`CONFIGS`].
#[must_use]
pub fn fem_bench(cfg: FemConfig, n_cells: usize, seed: u64) -> AppBench {
    match (cfg.n_pde, cfg.dof) {
        (4, 3) => build::<12>(cfg, n_cells, seed),
        (4, 10) => build::<40>(cfg, n_cells, seed),
        (6, 3) => build::<18>(cfg, n_cells, seed),
        (6, 10) => build::<60>(cfg, n_cells, seed),
        _ => panic!("unsupported FEM configuration {cfg:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_compiler::CompilerOptions;

    #[test]
    fn all_configs_verify() {
        for cfg in CONFIGS {
            let bench = fem_bench(cfg, 600, 11);
            bench.verify(&CompilerOptions::paper());
        }
    }

    #[test]
    fn gathercell_advancecell_fuse() {
        let bench = fem_bench(CONFIGS[0], 600, 11);
        let compiled = gpstream_compiler::compile(&bench.graph, &CompilerOptions::paper()).unwrap();
        assert!(
            compiled.fused.iter().any(|(a, b)| a == "GatherCell" && b == "AdvanceCell"),
            "fusion pass must fire: {:?}",
            compiled.fused
        );
    }

    #[test]
    fn fusion_off_still_verifies() {
        let bench = fem_bench(CONFIGS[2], 600, 13);
        bench.verify(&CompilerOptions { fuse_kernels: false, ..CompilerOptions::paper() });
    }
}
