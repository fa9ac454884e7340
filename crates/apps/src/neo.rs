//! neo-hookean: compressible finite-elasticity material model (paper
//! Section IV-C-3, Figures 10(c), 11(c)).
//!
//! One straight pipeline with abundant producer-consumer locality — the
//! case the paper built to show the SRF paying off:
//!
//! * **ComputePK** (per element, sequential): from the deformation
//!   gradient and material properties, computes the first Piola-Kirchhoff
//!   stress (scattered to memory) plus two intermediate streams — the
//!   inverse right Cauchy-Green tensor (`CGT_inv`, 27 floats) and the
//!   updated deformation gradient (`DG`, 9 floats).
//! * **ComputeTangent** (per element, sequential): consumes the two
//!   intermediates and produces the constitutive tangent.
//!
//! The two intermediate streams — 144 bytes per element, exactly the
//! paper's "Number of elements * 144 bytes" — are never written to
//! memory in the stream version; the regular twin stores and reloads
//! them.

use crate::common::AppBench;
use crate::mesh::random_f32;
use gpstream_core::regular::{RegularAccess, RegularProgram};
use gpstream_core::{GraphBuilder, World};
use gpstream_machine::ops::Rw;

/// Element input: deformation gradient (9) + material properties (3).
type Elem = [f32; 12];
/// First Piola-Kirchhoff stress.
type Pk = [f32; 9];
/// Inverse right Cauchy-Green tensor expansion (27 floats = 108 bytes).
type CgtInv = [f32; 27];
/// Updated deformation gradient (9 floats = 36 bytes).
type Dg = [f32; 9];
/// Constitutive tangent (symmetric 6x6 -> 21 floats).
type Tangent = [f32; 21];

/// Compute-cost estimates: tensor algebra per element.
const PK_UOPS: usize = 260;
const TAN_UOPS: usize = 320;

fn compute_pk(e: &Elem) -> (Pk, CgtInv, Dg) {
    let f = &e[..9];
    let (mu, lambda, jpow) = (1.0 + e[9].abs(), 1.0 + e[10].abs(), e[11]);
    // C = F^T F (we keep the full 3x3 product and its "inverse" proxy).
    let mut c = [0.0f32; 9];
    for i in 0..3 {
        for j in 0..3 {
            let mut s = 0.0;
            for k in 0..3 {
                s += f[k * 3 + i] * f[k * 3 + j];
            }
            c[i * 3 + j] = s;
        }
    }
    let trace = c[0] + c[4] + c[8] + 1.0;
    let mut pk = [0.0f32; 9];
    for i in 0..9 {
        pk[i] = mu * (f[i] - c[i] / trace) + lambda * jpow * f[i];
    }
    let mut cgt = [0.0f32; 27];
    for i in 0..9 {
        cgt[i] = c[i] / trace;
        cgt[9 + i] = c[i] * mu;
        cgt[18 + i] = f[i] * lambda;
    }
    let mut dg = [0.0f32; 9];
    for i in 0..9 {
        dg[i] = f[i] + 0.01 * pk[i];
    }
    (pk, cgt, dg)
}

fn compute_tangent(cgt: &CgtInv, dg: &Dg) -> Tangent {
    let mut t = [0.0f32; 21];
    let mut idx = 0;
    for i in 0..6 {
        for j in i..6 {
            let a = cgt[(i * 4 + j) % 27];
            let b = cgt[(9 + j * 3 + i) % 27];
            let d = dg[(i + j) % 9];
            t[idx] = a * d + 0.5 * b - 0.25 * d * d;
            idx += 1;
        }
    }
    t
}

/// Build a neo-hookean benchmark over `n` elements.
#[must_use]
pub fn neo_bench(n: usize, seed: u64) -> AppBench {
    let raw = random_f32(n * 12, seed ^ 0x0e0);
    let elems: Vec<Elem> = raw.chunks(12).map(|c| c.try_into().unwrap()).collect();

    // ---- Stream version ----
    let mut b = GraphBuilder::new();
    let a_elems = b.array("elements", &elems);
    let a_pk = b.array_zeroed::<Pk>("pk", n);
    let a_tan = b.array_zeroed::<Tangent>("tangent", n);

    let s_e = b.gather_seq("elements", a_elems);
    let s_pk = b.stream::<Pk>("pk", n);
    let s_cgt = b.stream::<CgtInv>("cgt_inv", n);
    let s_dg = b.stream::<Dg>("dg", n);
    b.kernel("ComputePK", &[s_e.id()], &[s_pk.id(), s_cgt.id(), s_dg.id()], PK_UOPS, |args| {
        let xe = args.input::<Elem>(0);
        let n_items = xe.len();
        let mut pks = vec![[0.0f32; 9]; n_items];
        let mut cgts = vec![[0.0f32; 27]; n_items];
        let mut dgs = vec![[0.0f32; 9]; n_items];
        for (i, e) in xe.iter().enumerate() {
            let (p, c, d) = compute_pk(e);
            pks[i] = p;
            cgts[i] = c;
            dgs[i] = d;
        }
        args.output::<Pk>(0).copy_from_slice(&pks);
        args.output::<CgtInv>(1).copy_from_slice(&cgts);
        args.output::<Dg>(2).copy_from_slice(&dgs);
    });
    b.scatter_seq(s_pk, a_pk);
    let s_tan = b.stream::<Tangent>("tangent", n);
    b.kernel("ComputeTangent", &[s_cgt.id(), s_dg.id()], &[s_tan.id()], TAN_UOPS, |args| {
        let xc = args.input::<CgtInv>(0);
        let xd = args.input::<Dg>(1);
        for (i, o) in args.output::<Tangent>(0).iter_mut().enumerate() {
            *o = compute_tangent(&xc[i], &xd[i]);
        }
    });
    b.scatter_seq(s_tan, a_tan);
    let (graph, stream_world) = b.build().expect("valid neo-hookean graph");

    // ---- Regular twin: the intermediates go through memory. ----
    let mut rw = World::new();
    let r_elems = rw.add_array("elements", &elems);
    let r_pk = rw.add_array_zeroed::<Pk>("pk", n);
    let r_cgt = rw.add_array_zeroed::<CgtInv>("cgt_inv", n);
    let r_dg = rw.add_array_zeroed::<Dg>("dg", n);
    let r_tan = rw.add_array_zeroed::<Tangent>("tangent", n);
    let mut regular = RegularProgram::new();
    regular.phase(
        "pk loop",
        n,
        vec![
            RegularAccess::seq(r_elems, 48, Rw::Read),
            RegularAccess::seq(r_pk, 36, Rw::Write),
            RegularAccess::seq(r_cgt, 108, Rw::Write),
            RegularAccess::seq(r_dg, 36, Rw::Write),
        ],
        PK_UOPS,
        move |w| {
            let xe: Vec<Elem> = w.slice::<Elem>(r_elems).to_vec();
            for (i, e) in xe.iter().enumerate() {
                let (p, c, d) = compute_pk(e);
                w.slice_mut::<Pk>(r_pk)[i] = p;
                w.slice_mut::<CgtInv>(r_cgt)[i] = c;
                w.slice_mut::<Dg>(r_dg)[i] = d;
            }
        },
    );
    regular.phase(
        "tangent loop",
        n,
        vec![
            RegularAccess::seq(r_cgt, 108, Rw::Read),
            RegularAccess::seq(r_dg, 36, Rw::Read),
            RegularAccess::seq(r_tan, 84, Rw::Write),
        ],
        TAN_UOPS,
        move |w| {
            let xc: Vec<CgtInv> = w.slice::<CgtInv>(r_cgt).to_vec();
            let xd: Vec<Dg> = w.slice::<Dg>(r_dg).to_vec();
            for i in 0..xc.len() {
                w.slice_mut::<Tangent>(r_tan)[i] = compute_tangent(&xc[i], &xd[i]);
            }
        },
    );

    AppBench {
        name: format!("neo-hookean n={n}"),
        graph,
        stream_world,
        stream_outputs: vec![a_pk.id(), a_tan.id()],
        regular,
        regular_world: rw,
        regular_outputs: vec![r_pk, r_tan],
    }
}

/// Bytes of intermediate stream data per element that the stream version
/// never writes to memory (the paper's headline saving).
pub const INTERMEDIATE_BYTES_PER_ELEM: usize =
    std::mem::size_of::<CgtInv>() + std::mem::size_of::<Dg>();

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_compiler::CompilerOptions;

    #[test]
    fn intermediates_are_144_bytes() {
        assert_eq!(INTERMEDIATE_BYTES_PER_ELEM, 144, "paper: elements * 144 bytes saved");
    }

    #[test]
    fn verifies_functionally() {
        neo_bench(2000, 31).verify(&CompilerOptions::paper());
    }

    #[test]
    fn intermediates_never_scattered() {
        let bench = neo_bench(500, 31);
        let compiled = gpstream_compiler::compile(&bench.graph, &CompilerOptions::paper()).unwrap();
        for s in compiled.graph.streams() {
            if s.name.contains("cgt") || s.name == "dg" {
                assert!(s.dst.is_none(), "intermediate `{}` must stay in the SRF", s.name);
            }
        }
    }
}
