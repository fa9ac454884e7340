//! streamCDP: second-order WENO transport/advection solver used for
//! large-eddy simulation (paper Section IV-C-2, Figures 10(b), 11(b)).
//!
//! Three barrier-separated pipelines over a `k`-neighbor grid (4n square
//! grid or 6n cubic mesh):
//!
//! * **ComputeCell** (per cell, sequential) produces updated residual
//!   prep data; **ComputePhiGrad** (per cell, sequential) computes phi
//!   gradients. The paper considered fusing these and decided against
//!   it; here their outputs are scattered to arrays, so the fusion pass
//!   does not fire either.
//! * **ComputeFace** (per face): gathers phi and gradients for both
//!   sides (random), reads face geometry sequentially, and evaluates an
//!   upwind flux with a *data-dependent conditional*; face residuals are
//!   scattered.
//! * **FindMaxAndUpdate** (per cell): gathers the cell's `k` face
//!   residuals (random), reads phi sequentially, writes the updated phi
//!   and the residual magnitude used for the maximum reduction.

use crate::common::AppBench;
use crate::mesh::{random_f32, Grid};
use gpstream_core::regular::{RegularAccess, RegularProgram};
use gpstream_core::{GraphBuilder, World};
use gpstream_machine::ops::Rw;
use std::sync::Arc;

/// A streamCDP configuration from Figure 11(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdpConfig {
    /// Label (e.g. "6n-8192").
    pub name: &'static str,
    /// Neighbors per cell: 4 (square grid) or 6 (cubic mesh).
    pub k: usize,
    /// Number of elements.
    pub n: usize,
}

/// The four configurations of Figure 11(b).
pub const CONFIGS: [CdpConfig; 4] = [
    CdpConfig { name: "4n-4096", k: 4, n: 4096 },
    CdpConfig { name: "4n-8192", k: 4, n: 8192 },
    CdpConfig { name: "6n-4096", k: 6, n: 4096 },
    CdpConfig { name: "6n-8192", k: 6, n: 8192 },
];

/// Per-cell auxiliary record (transport coefficients etc.).
type Cell = [f32; 8];
/// Face geometry record.
type Face = [f32; 4];

const DT: f32 = 0.05;

fn cell_coeff(cell: &Cell, phi: f32) -> f32 {
    cell[0] * phi + cell[1] * phi * phi + cell[2]
}

fn grad_of(phi: f32, cell: &Cell) -> f32 {
    (phi - cell[3]) * cell[4]
}

/// Upwind face flux — the data-dependent conditional the paper calls out.
fn face_flux(phi_l: f32, phi_r: f32, g_l: f32, g_r: f32, fd: &Face) -> f32 {
    let vel = fd[0];
    if vel * (phi_l - phi_r) > 0.0 {
        vel * (phi_l + 0.5 * g_l * fd[1])
    } else {
        vel * (phi_r - 0.5 * g_r * fd[1])
    }
}

fn update_phi(phi: f32, coeff: f32, face_sum: f32) -> (f32, f32) {
    let res = face_sum + coeff;
    (phi - DT * res, res.abs())
}

/// Compute-cost estimates (WENO reconstruction is arithmetic-heavy).
const CELL_UOPS: usize = 60;
const GRAD_UOPS: usize = 30;
const FACE_UOPS: usize = 80;
fn fmu_uops(k: usize) -> usize {
    30 + 6 * k
}

/// Build a streamCDP benchmark.
#[allow(clippy::too_many_lines)]
#[must_use]
pub fn cdp_bench(cfg: CdpConfig, seed: u64) -> AppBench {
    let grid = Grid::new(cfg.n, cfg.k, seed);
    let n = grid.n_cells;
    let nf = grid.faces.len();
    let k = cfg.k;
    let phi0 = random_f32(n, seed ^ 0xc0de);
    let raw_c = random_f32(n * 8, seed ^ 0xce11);
    let cells: Vec<Cell> = raw_c.chunks(8).map(|c| c.try_into().unwrap()).collect();
    let raw_f = random_f32(nf * 4, seed ^ 0xface);
    let fdata: Vec<Face> = raw_f.chunks(4).map(|c| c.try_into().unwrap()).collect();

    let fl = grid.face_left();
    let fr = grid.face_right();
    let cf = grid.cell_face_indices();
    let cf_slots: Vec<Arc<Vec<u32>>> =
        (0..k).map(|s| Arc::new((0..n).map(|c| cf[k * c + s]).collect())).collect();

    // ---- Stream version ----
    let mut b = GraphBuilder::new();
    let a_phi = b.array("phi", &phi0);
    let a_cells = b.array("cells", &cells);
    let a_fdata = b.array("fdata", &fdata);
    let a_coeff = b.array_zeroed::<f32>("coeff", n);
    let a_grad = b.array_zeroed::<f32>("grad", n);
    let a_fres = b.array_zeroed::<f32>("fres", nf);
    let a_phinew = b.array_zeroed::<f32>("phinew", n);
    let a_resmag = b.array_zeroed::<f32>("resmag", n);

    // Phase 1: per-cell prep.
    let s_cells = b.gather_seq("cells", a_cells);
    let s_phi1 = b.gather_seq("phi1", a_phi);
    let s_coeff = b.stream::<f32>("coeff", n);
    b.kernel("ComputeCell", &[s_cells.id(), s_phi1.id()], &[s_coeff.id()], CELL_UOPS, |args| {
        let xc = args.input::<Cell>(0);
        let xp = args.input::<f32>(1);
        for (i, o) in args.output::<f32>(0).iter_mut().enumerate() {
            *o = cell_coeff(&xc[i], xp[i]);
        }
    });
    b.scatter_seq(s_coeff, a_coeff);
    let s_cells2 = b.gather_seq("cells2", a_cells);
    let s_phi2 = b.gather_seq("phi2", a_phi);
    let s_grad = b.stream::<f32>("grad", n);
    b.kernel("ComputePhiGrad", &[s_phi2.id(), s_cells2.id()], &[s_grad.id()], GRAD_UOPS, |args| {
        let xp = args.input::<f32>(0);
        let xc = args.input::<Cell>(1);
        for (i, o) in args.output::<f32>(0).iter_mut().enumerate() {
            *o = grad_of(xp[i], &xc[i]);
        }
    });
    b.scatter_seq(s_grad, a_grad);

    // Phase 2: faces (upwind flux with data-dependent conditional).
    let s_pl = b.gather_indexed("phiL", a_phi, Arc::clone(&fl));
    let s_pr = b.gather_indexed("phiR", a_phi, Arc::clone(&fr));
    let s_gl = b.gather_indexed("gradL", a_grad, Arc::clone(&fl));
    let s_gr = b.gather_indexed("gradR", a_grad, Arc::clone(&fr));
    let s_fd = b.gather_seq("fdata", a_fdata);
    let s_fres = b.stream::<f32>("fres", nf);
    b.kernel(
        "ComputeFace",
        &[s_pl.id(), s_pr.id(), s_gl.id(), s_gr.id(), s_fd.id()],
        &[s_fres.id()],
        FACE_UOPS,
        |args| {
            let pl = args.input::<f32>(0);
            let pr = args.input::<f32>(1);
            let gl = args.input::<f32>(2);
            let gr = args.input::<f32>(3);
            let fd = args.input::<Face>(4);
            for (i, o) in args.output::<f32>(0).iter_mut().enumerate() {
                *o = face_flux(pl[i], pr[i], gl[i], gr[i], &fd[i]);
            }
        },
    );
    b.scatter_seq(s_fres, a_fres);

    // Phase 3: per-cell update + residual magnitude for the max reduction.
    let s_f: Vec<_> = (0..k)
        .map(|slot| b.gather_indexed(&format!("fres{slot}"), a_fres, Arc::clone(&cf_slots[slot])))
        .collect();
    let s_phi3 = b.gather_seq("phi3", a_phi);
    let s_coeff3 = b.gather_seq("coeff3", a_coeff);
    let s_phinew = b.stream::<f32>("phinew", n);
    let s_resmag = b.stream::<f32>("resmag", n);
    let mut fmu_inputs: Vec<_> = s_f.iter().map(|s| s.id()).collect();
    fmu_inputs.push(s_phi3.id());
    fmu_inputs.push(s_coeff3.id());
    let kk = k;
    b.kernel(
        "FindMaxAndUpdate",
        &fmu_inputs,
        &[s_phinew.id(), s_resmag.id()],
        fmu_uops(k),
        move |args| {
            let faces: Vec<&[f32]> = (0..kk).map(|s| args.input::<f32>(s)).collect();
            let phi = args.input::<f32>(kk);
            let coeff = args.input::<f32>(kk + 1);
            let n_items = phi.len();
            let mut news = vec![0.0f32; n_items];
            let mut mags = vec![0.0f32; n_items];
            for i in 0..n_items {
                let sum: f32 = faces.iter().map(|f| f[i]).sum();
                let (p, m) = update_phi(phi[i], coeff[i], sum);
                news[i] = p;
                mags[i] = m;
            }
            args.output::<f32>(0).copy_from_slice(&news);
            args.output::<f32>(1).copy_from_slice(&mags);
        },
    );
    b.scatter_seq(s_phinew, a_phinew);
    b.scatter_seq(s_resmag, a_resmag);
    let (graph, stream_world) = b.build().expect("valid streamCDP graph");

    // ---- Regular twin ----
    let mut rw = World::new();
    let r_phi = rw.add_array("phi", &phi0);
    let r_cells = rw.add_array("cells", &cells);
    let r_fdata = rw.add_array("fdata", &fdata);
    let r_coeff = rw.add_array_zeroed::<f32>("coeff", n);
    let r_grad = rw.add_array_zeroed::<f32>("grad", n);
    let r_fres = rw.add_array_zeroed::<f32>("fres", nf);
    let r_phinew = rw.add_array_zeroed::<f32>("phinew", n);
    let r_resmag = rw.add_array_zeroed::<f32>("resmag", n);
    let mut regular = RegularProgram::new();
    regular.phase(
        "cell prep loop",
        n,
        vec![
            RegularAccess::seq(r_cells, 32, Rw::Read),
            RegularAccess::seq(r_phi, 4, Rw::Read),
            RegularAccess::seq(r_coeff, 4, Rw::Write),
            RegularAccess::seq(r_grad, 4, Rw::Write),
        ],
        CELL_UOPS + GRAD_UOPS,
        move |w| {
            let cells: Vec<Cell> = w.slice::<Cell>(r_cells).to_vec();
            let phi: Vec<f32> = w.slice::<f32>(r_phi).to_vec();
            for i in 0..phi.len() {
                w.slice_mut::<f32>(r_coeff)[i] = cell_coeff(&cells[i], phi[i]);
                w.slice_mut::<f32>(r_grad)[i] = grad_of(phi[i], &cells[i]);
            }
        },
    );
    {
        let (l, r) = (Arc::clone(&fl), Arc::clone(&fr));
        regular.phase(
            "face loop",
            nf,
            vec![
                RegularAccess::indexed(r_phi, Arc::clone(&fl), 4, Rw::Read),
                RegularAccess::indexed(r_phi, Arc::clone(&fr), 4, Rw::Read),
                RegularAccess::indexed(r_grad, Arc::clone(&fl), 4, Rw::Read),
                RegularAccess::indexed(r_grad, Arc::clone(&fr), 4, Rw::Read),
                RegularAccess::seq(r_fdata, 16, Rw::Read),
                RegularAccess::seq(r_fres, 4, Rw::Write),
            ],
            FACE_UOPS,
            move |w| {
                let phi: Vec<f32> = w.slice::<f32>(r_phi).to_vec();
                let grad: Vec<f32> = w.slice::<f32>(r_grad).to_vec();
                let fd: Vec<Face> = w.slice::<Face>(r_fdata).to_vec();
                let fres = w.slice_mut::<f32>(r_fres);
                for f in 0..fres.len() {
                    let (cl, cr) = (l[f] as usize, r[f] as usize);
                    fres[f] = face_flux(phi[cl], phi[cr], grad[cl], grad[cr], &fd[f]);
                }
            },
        );
    }
    {
        let slots = cf_slots.clone();
        let mut accesses: Vec<RegularAccess> = slots
            .iter()
            .map(|s| RegularAccess::indexed(r_fres, Arc::clone(s), 4, Rw::Read))
            .collect();
        accesses.push(RegularAccess::seq(r_phi, 4, Rw::Read));
        accesses.push(RegularAccess::seq(r_coeff, 4, Rw::Read));
        accesses.push(RegularAccess::seq(r_phinew, 4, Rw::Write));
        accesses.push(RegularAccess::seq(r_resmag, 4, Rw::Write));
        regular.phase("update loop", n, accesses, fmu_uops(k), move |w| {
            let phi: Vec<f32> = w.slice::<f32>(r_phi).to_vec();
            let coeff: Vec<f32> = w.slice::<f32>(r_coeff).to_vec();
            let fres: Vec<f32> = w.slice::<f32>(r_fres).to_vec();
            for i in 0..phi.len() {
                let sum: f32 = slots.iter().map(|s| fres[s[i] as usize]).sum();
                let (p, m) = update_phi(phi[i], coeff[i], sum);
                w.slice_mut::<f32>(r_phinew)[i] = p;
                w.slice_mut::<f32>(r_resmag)[i] = m;
            }
        });
    }

    AppBench {
        name: format!("streamCDP {}", cfg.name),
        graph,
        stream_world,
        stream_outputs: vec![a_phinew.id(), a_resmag.id()],
        regular,
        regular_world: rw,
        regular_outputs: vec![r_phinew, r_resmag],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_compiler::CompilerOptions;

    #[test]
    fn all_configs_verify_small() {
        for cfg in [
            CdpConfig { name: "4n small", k: 4, n: 400 },
            CdpConfig { name: "6n small", k: 6, n: 400 },
        ] {
            cdp_bench(cfg, 23).verify(&CompilerOptions::paper());
        }
    }

    #[test]
    fn compute_cell_and_grad_not_fused() {
        // The paper "decided against fusing the kernels"; with scattered
        // outputs the fusion pass must not fire.
        let bench = cdp_bench(CdpConfig { name: "t", k: 4, n: 400 }, 29);
        let compiled = gpstream_compiler::compile(&bench.graph, &CompilerOptions::paper()).unwrap();
        assert!(compiled.fused.is_empty(), "{:?}", compiled.fused);
    }

    #[test]
    fn data_dependent_conditional_exercises_both_sides() {
        let grid = Grid::new(400, 4, 23);
        let phi = random_f32(grid.n_cells, 1);
        let fd = random_f32(grid.faces.len() * 4, 2);
        let mut upwind_left = 0;
        let mut upwind_right = 0;
        for (f, &(l, r)) in grid.faces.iter().enumerate() {
            let v = fd[4 * f];
            if v * (phi[l as usize] - phi[r as usize]) > 0.0 {
                upwind_left += 1;
            } else {
                upwind_right += 1;
            }
        }
        assert!(upwind_left > 0 && upwind_right > 0, "both branches must be taken");
    }
}
