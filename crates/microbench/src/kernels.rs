//! The three micro-benchmarks of Section IV-B (Figure 9):
//!
//! * **LD-ST-COMP** — sequential loads of two arrays, a computation, a
//!   sequential store.
//! * **GAT-SCAT-COMP** — the same with random (indexed) gathers and
//!   scatters.
//! * **PROD-CON** — two loops with producer-consumer locality: the first
//!   reads randomly and writes an intermediate sequentially; the second
//!   consumes the intermediate plus another randomly-read array and
//!   scatters the result.
//!
//! Each benchmark exists in two semantically identical versions — a
//! stream program and a regular (interleaved) program — and a `COMP` knob
//! scales the computation per loaded value (`COMP = 1` ≈ 50 cycles).

use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::metrics::Comparison;
use gpstream_core::regular::{RegularAccess, RegularProgram};
use gpstream_core::{ArrayId, GraphBuilder, StreamGraph, World};
use gpstream_machine::ops::{Rw, WaitPolicy};
use gpstream_machine::MachineConfig;
use gpstream_util::{fanout, Rng64};
use std::sync::Arc;

/// Cycles of computation per unit of `COMP`, per the paper ("COMP = 1
/// roughly corresponds to an execution time of 50 cycles").
pub const CYCLES_PER_COMP: usize = 50;

/// A 128-byte record (one L2 line), the size regime where the paper's
/// micro-benchmarks are memory-bound at low COMP.
pub type Rec = [f32; 32];
/// A 32-byte intermediate record for PROD-CON.
pub type Mid = [f32; 8];

/// The shared arithmetic of LD-ST-COMP / GAT-SCAT-COMP.
#[must_use]
pub fn ldst_math(a: &Rec, b: &Rec, comp: usize) -> f32 {
    let mut acc = 0.0f32;
    for r in 0..comp.max(1) {
        let mut s = 0.0f32;
        for j in 0..32 {
            s += a[j] * b[j];
        }
        acc = acc * 0.5 + s + r as f32;
    }
    acc
}

/// First PROD-CON stage: reduce two records to an intermediate.
#[must_use]
pub fn prodcon_stage1(a: &Rec, b: &Rec, comp: usize) -> Mid {
    let mut out = [0.0f32; 8];
    for r in 0..comp.max(1) {
        for j in 0..8 {
            out[j] = out[j] * 0.75 + a[4 * j] + b[4 * j + 1] * (r + 1) as f32;
        }
    }
    out
}

/// Second PROD-CON stage: combine the intermediate with a third record.
#[must_use]
pub fn prodcon_stage2(t: &Mid, x: &Rec, comp: usize) -> f32 {
    let mut acc = 0.0f32;
    for r in 0..comp.max(1) {
        let mut s = 0.0f32;
        for j in 0..8 {
            s += t[j] * x[2 * j];
        }
        acc = acc * 0.25 + s - r as f32;
    }
    acc
}

fn random_records(rng: &mut Rng64, n: usize) -> Vec<Rec> {
    (0..n)
        .map(|_| {
            let mut r = [0.0f32; 32];
            for v in &mut r {
                *v = rng.f32_range(-1.0, 1.0);
            }
            r
        })
        .collect()
}

fn permutation(rng: &mut Rng64, n: usize) -> Arc<Vec<u32>> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut idx);
    Arc::new(idx)
}

/// A micro-benchmark: a stream program and its regular twin over
/// identically-seeded data.
pub struct Microbench {
    /// Benchmark label, including the COMP setting.
    pub name: String,
    /// The stream graph.
    pub graph: StreamGraph,
    /// World backing the stream version.
    pub stream_world: World,
    /// Output array of the stream version.
    pub stream_output: ArrayId,
    /// The regular program.
    pub regular: RegularProgram,
    /// World backing the regular version.
    pub regular_world: World,
    /// Output array of the regular version.
    pub regular_output: ArrayId,
}

impl Microbench {
    /// Run both versions on the simulated machine, check they compute the
    /// same results, and return the cycle comparison. The runs use the
    /// bench's own worlds, so comparing one bench twice takes two benches.
    ///
    /// # Panics
    ///
    /// Panics if compilation fails or the two versions disagree on the
    /// output (a correctness bug).
    #[must_use]
    pub fn compare(
        self,
        copts: &CompilerOptions,
        mcfg: &MachineConfig,
        wait: WaitPolicy,
    ) -> Comparison {
        self.compare_mode(copts, mcfg, wait, false)
    }

    /// Like [`Microbench::compare`], but with the work queues' issue mode
    /// explicit: `in_order` forces head-blocking queues (the ablation
    /// baseline for the out-of-order `tail_depend` issue).
    ///
    /// # Panics
    ///
    /// Panics if compilation fails or the two versions disagree on the
    /// output (a correctness bug).
    #[must_use]
    pub fn compare_mode(
        self,
        copts: &CompilerOptions,
        mcfg: &MachineConfig,
        wait: WaitPolicy,
        in_order: bool,
    ) -> Comparison {
        let compiled = compile(&self.graph, copts).expect("microbench compiles");
        let mut sw = self.stream_world;
        let report = SimExecutor::new()
            .with_machine(mcfg.clone())
            .with_srf(copts.srf)
            .with_wait_policy(wait)
            .in_order(in_order)
            .run(&compiled.schedule, &compiled.graph, &mut sw);

        let mut rw = self.regular_world;
        let regular_timing = self.regular.simulate(&mut rw, mcfg);

        let got: &[f32] = sw.slice::<f32>(self.stream_output);
        let want: &[f32] = rw.slice::<f32>(self.regular_output);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                "{}: output {i} differs: stream={g} regular={w}",
                self.name
            );
        }

        Comparison {
            name: self.name,
            regular_cycles: regular_timing.cycles,
            stream_cycles: report.timing.cycles,
            phases: Some(report.timing.phases),
            mem: Some(report.timing.mem),
        }
    }
}

/// Build LD-ST-COMP over `n` 128-byte records with the given COMP.
#[must_use]
pub fn ld_st_comp(n: usize, comp: usize) -> Microbench {
    let mut rng = Rng64::seed_from_u64(0x1d57);
    let a_data = random_records(&mut rng, n);
    let b_data = random_records(&mut rng, n);
    let uops = CYCLES_PER_COMP * comp;

    // Stream version.
    let mut bld = GraphBuilder::new();
    let a = bld.array("a", &a_data);
    let b = bld.array("b", &b_data);
    let d = bld.array_zeroed::<f32>("d", n);
    let as_ = bld.gather_seq("as", a);
    let bs = bld.gather_seq("bs", b);
    let ds = bld.stream::<f32>("ds", n);
    let comp_copy = comp;
    bld.kernel("ldstcomp", &[as_.id(), bs.id()], &[ds.id()], uops, move |args| {
        let xa: Vec<Rec> = args.input::<Rec>(0).to_vec();
        let xb: Vec<Rec> = args.input::<Rec>(1).to_vec();
        for (o, (ra, rb)) in args.output::<f32>(0).iter_mut().zip(xa.iter().zip(&xb)) {
            *o = ldst_math(ra, rb, comp_copy);
        }
    });
    bld.scatter_seq(ds, d);
    let (graph, stream_world) = bld.build().expect("valid LD-ST-COMP graph");

    // Regular twin.
    let mut regular_world = World::new();
    let ra = regular_world.add_array("a", &a_data);
    let rb = regular_world.add_array("b", &b_data);
    let rd = regular_world.add_array_zeroed::<f32>("d", n);
    let mut regular = RegularProgram::new();
    regular.phase(
        "ldstcomp",
        n,
        vec![
            RegularAccess::seq(ra, 128, Rw::Read),
            RegularAccess::seq(rb, 128, Rw::Read),
            RegularAccess::seq(rd, 4, Rw::Write),
        ],
        uops,
        move |w| {
            let xa: Vec<Rec> = w.slice::<Rec>(ra).to_vec();
            let xb: Vec<Rec> = w.slice::<Rec>(rb).to_vec();
            let out = w.slice_mut::<f32>(rd);
            for i in 0..xa.len() {
                out[i] = ldst_math(&xa[i], &xb[i], comp_copy);
            }
        },
    );

    Microbench {
        name: format!("LD-ST-COMP comp={comp}"),
        graph,
        stream_world,
        stream_output: d.id(),
        regular,
        regular_world,
        regular_output: rd,
    }
}

/// Build TRIAD: `d[i] = a[i] + s * b[i]` over `n` packed `f32` elements —
/// the fine-grained end of the record-size spectrum (Figure 5's smallest
/// records), where the program is purely bandwidth-bound: almost no
/// computation per element and every access part of a dense sequential
/// sweep.
#[must_use]
pub fn stream_triad(n: usize) -> Microbench {
    let mut rng = Rng64::seed_from_u64(0x7e1a_d000);
    let a_data: Vec<f32> = (0..n).map(|_| rng.f32_range(-1.0, 1.0)).collect();
    let b_data: Vec<f32> = (0..n).map(|_| rng.f32_range(-1.0, 1.0)).collect();
    const S: f32 = 3.0;
    // A fused multiply-add per element: issue-bound, not compute-bound.
    let uops = 4;

    // Stream version.
    let mut bld = GraphBuilder::new();
    let a = bld.array("a", &a_data);
    let b = bld.array("b", &b_data);
    let d = bld.array_zeroed::<f32>("d", n);
    let as_ = bld.gather_seq("as", a);
    let bs = bld.gather_seq("bs", b);
    let ds = bld.stream::<f32>("ds", n);
    bld.kernel("triad", &[as_.id(), bs.id()], &[ds.id()], uops, move |args| {
        let xa: Vec<f32> = args.input::<f32>(0).to_vec();
        let xb: Vec<f32> = args.input::<f32>(1).to_vec();
        for (o, (va, vb)) in args.output::<f32>(0).iter_mut().zip(xa.iter().zip(&xb)) {
            *o = va + S * vb;
        }
    });
    bld.scatter_seq(ds, d);
    let (graph, stream_world) = bld.build().expect("valid TRIAD graph");

    // Regular twin.
    let mut regular_world = World::new();
    let ra = regular_world.add_array("a", &a_data);
    let rb = regular_world.add_array("b", &b_data);
    let rd = regular_world.add_array_zeroed::<f32>("d", n);
    let mut regular = RegularProgram::new();
    regular.phase(
        "triad",
        n,
        vec![
            RegularAccess::seq(ra, 4, Rw::Read),
            RegularAccess::seq(rb, 4, Rw::Read),
            RegularAccess::seq(rd, 4, Rw::Write),
        ],
        uops,
        move |w| {
            let xa: Vec<f32> = w.slice::<f32>(ra).to_vec();
            let xb: Vec<f32> = w.slice::<f32>(rb).to_vec();
            let out = w.slice_mut::<f32>(rd);
            for i in 0..xa.len() {
                out[i] = xa[i] + S * xb[i];
            }
        },
    );

    Microbench {
        name: "TRIAD".to_string(),
        graph,
        stream_world,
        stream_output: d.id(),
        regular,
        regular_world,
        regular_output: rd,
    }
}

/// Build GAT-SCAT-COMP: as LD-ST-COMP but with random gathers/scatters.
#[must_use]
pub fn gat_scat_comp(n: usize, comp: usize) -> Microbench {
    let mut rng = Rng64::seed_from_u64(0x6a75);
    let a_data = random_records(&mut rng, n);
    let b_data = random_records(&mut rng, n);
    let idx_a = permutation(&mut rng, n);
    let idx_b = permutation(&mut rng, n);
    let idx_d = permutation(&mut rng, n);
    let uops = CYCLES_PER_COMP * comp;

    let mut bld = GraphBuilder::new();
    let a = bld.array("a", &a_data);
    let b = bld.array("b", &b_data);
    let d = bld.array_zeroed::<f32>("d", n);
    let as_ = bld.gather_indexed("as", a, Arc::clone(&idx_a));
    let bs = bld.gather_indexed("bs", b, Arc::clone(&idx_b));
    let ds = bld.stream::<f32>("ds", n);
    let comp_copy = comp;
    bld.kernel("gatscat", &[as_.id(), bs.id()], &[ds.id()], uops, move |args| {
        let xa: Vec<Rec> = args.input::<Rec>(0).to_vec();
        let xb: Vec<Rec> = args.input::<Rec>(1).to_vec();
        for (o, (ra, rb)) in args.output::<f32>(0).iter_mut().zip(xa.iter().zip(&xb)) {
            *o = ldst_math(ra, rb, comp_copy);
        }
    });
    bld.scatter_indexed(ds, d, Arc::clone(&idx_d));
    let (graph, stream_world) = bld.build().expect("valid GAT-SCAT-COMP graph");

    let mut regular_world = World::new();
    let ra = regular_world.add_array("a", &a_data);
    let rb = regular_world.add_array("b", &b_data);
    let rd = regular_world.add_array_zeroed::<f32>("d", n);
    let (ia, ib, id) = (Arc::clone(&idx_a), Arc::clone(&idx_b), Arc::clone(&idx_d));
    let mut regular = RegularProgram::new();
    regular.phase(
        "gatscat",
        n,
        vec![
            RegularAccess::indexed(ra, Arc::clone(&idx_a), 128, Rw::Read),
            RegularAccess::indexed(rb, Arc::clone(&idx_b), 128, Rw::Read),
            RegularAccess::indexed(rd, Arc::clone(&idx_d), 4, Rw::Write),
        ],
        uops,
        move |w| {
            let xa: Vec<Rec> = w.slice::<Rec>(ra).to_vec();
            let xb: Vec<Rec> = w.slice::<Rec>(rb).to_vec();
            let out = w.slice_mut::<f32>(rd);
            for i in 0..xa.len() {
                out[id[i] as usize] =
                    ldst_math(&xa[ia[i] as usize], &xb[ib[i] as usize], comp_copy);
            }
        },
    );

    Microbench {
        name: format!("GAT-SCAT-COMP comp={comp}"),
        graph,
        stream_world,
        stream_output: d.id(),
        regular,
        regular_world,
        regular_output: rd,
    }
}

/// Build PROD-CON: two loops with producer-consumer locality. The stream
/// version keeps the intermediate in the SRF; the regular version writes
/// it to memory and reads it back.
#[must_use]
pub fn prod_con(n: usize, comp: usize) -> Microbench {
    let mut rng = Rng64::seed_from_u64(0x9c0d);
    let a_data = random_records(&mut rng, n);
    let b_data = random_records(&mut rng, n);
    let x_data = random_records(&mut rng, n);
    let idx_a = permutation(&mut rng, n);
    let idx_b = permutation(&mut rng, n);
    let idx_x = permutation(&mut rng, n);
    let idx_y = permutation(&mut rng, n);
    let uops = CYCLES_PER_COMP * comp;

    let mut bld = GraphBuilder::new();
    let a = bld.array("a", &a_data);
    let b = bld.array("b", &b_data);
    let x = bld.array("x", &x_data);
    let y = bld.array_zeroed::<f32>("y", n);
    let as_ = bld.gather_indexed("as", a, Arc::clone(&idx_a));
    let bs = bld.gather_indexed("bs", b, Arc::clone(&idx_b));
    let xs = bld.gather_indexed("xs", x, Arc::clone(&idx_x));
    let ts = bld.stream::<Mid>("ts", n);
    let ys = bld.stream::<f32>("ys", n);
    let comp_copy = comp;
    bld.kernel("produce", &[as_.id(), bs.id()], &[ts.id()], uops, move |args| {
        let xa: Vec<Rec> = args.input::<Rec>(0).to_vec();
        let xb: Vec<Rec> = args.input::<Rec>(1).to_vec();
        for (o, (ra, rb)) in args.output::<Mid>(0).iter_mut().zip(xa.iter().zip(&xb)) {
            *o = prodcon_stage1(ra, rb, comp_copy);
        }
    });
    bld.kernel("consume", &[ts.id(), xs.id()], &[ys.id()], uops, move |args| {
        let xt: Vec<Mid> = args.input::<Mid>(0).to_vec();
        let xx: Vec<Rec> = args.input::<Rec>(1).to_vec();
        for (o, (rt, rx)) in args.output::<f32>(0).iter_mut().zip(xt.iter().zip(&xx)) {
            *o = prodcon_stage2(rt, rx, comp_copy);
        }
    });
    bld.scatter_indexed(ys, y, Arc::clone(&idx_y));
    let (graph, stream_world) = bld.build().expect("valid PROD-CON graph");

    let mut regular_world = World::new();
    let ra = regular_world.add_array("a", &a_data);
    let rb = regular_world.add_array("b", &b_data);
    let rx = regular_world.add_array("x", &x_data);
    let rt = regular_world.add_array_zeroed::<Mid>("t", n);
    let ry = regular_world.add_array_zeroed::<f32>("y", n);
    let mut regular = RegularProgram::new();
    let (ia, ib) = (Arc::clone(&idx_a), Arc::clone(&idx_b));
    regular.phase(
        "produce",
        n,
        vec![
            RegularAccess::indexed(ra, Arc::clone(&idx_a), 128, Rw::Read),
            RegularAccess::indexed(rb, Arc::clone(&idx_b), 128, Rw::Read),
            RegularAccess::seq(rt, 32, Rw::Write),
        ],
        uops,
        move |w| {
            let xa: Vec<Rec> = w.slice::<Rec>(ra).to_vec();
            let xb: Vec<Rec> = w.slice::<Rec>(rb).to_vec();
            let out = w.slice_mut::<Mid>(rt);
            for i in 0..xa.len() {
                out[i] = prodcon_stage1(&xa[ia[i] as usize], &xb[ib[i] as usize], comp_copy);
            }
        },
    );
    let (ix, iy) = (Arc::clone(&idx_x), Arc::clone(&idx_y));
    regular.phase(
        "consume",
        n,
        vec![
            RegularAccess::seq(rt, 32, Rw::Read),
            RegularAccess::indexed(rx, Arc::clone(&idx_x), 128, Rw::Read),
            RegularAccess::indexed(ry, Arc::clone(&idx_y), 4, Rw::Write),
        ],
        uops,
        move |w| {
            let xt: Vec<Mid> = w.slice::<Mid>(rt).to_vec();
            let xx: Vec<Rec> = w.slice::<Rec>(rx).to_vec();
            let out = w.slice_mut::<f32>(ry);
            for i in 0..xt.len() {
                out[iy[i] as usize] = prodcon_stage2(&xt[i], &xx[ix[i] as usize], comp_copy);
            }
        },
    );

    Microbench {
        name: format!("PROD-CON comp={comp}"),
        graph,
        stream_world,
        stream_output: y.id(),
        regular,
        regular_world,
        regular_output: ry,
    }
}

/// Default problem size for Figure 9 (2 MB per 128-byte-record array).
pub const FIG9_N: usize = 16 * 1024;
/// COMP values swept in Figure 9.
pub const FIG9_COMPS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One Figure 9 series: speedups over the COMP sweep, one independent
/// point per COMP value, fanned out across the host's cores.
///
/// # Panics
///
/// Panics if `which` is not one of the three micro-benchmark names.
#[must_use]
pub fn figure9_series(
    which: &str,
    comps: &[usize],
    n: usize,
    copts: &CompilerOptions,
    mcfg: &MachineConfig,
) -> Vec<(usize, f64)> {
    let build: fn(usize, usize) -> Microbench = match which {
        "LD-ST-COMP" => ld_st_comp,
        "GAT-SCAT-COMP" => gat_scat_comp,
        "PROD-CON" => prod_con,
        other => panic!("unknown micro-benchmark {other}"),
    };
    fanout::map(comps, fanout::threads(), |&c| {
        (c, build(n, c).compare(copts, mcfg, WaitPolicy::Mwait).speedup())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CompilerOptions, MachineConfig) {
        (CompilerOptions::paper(), MachineConfig::prescott())
    }

    #[test]
    fn ld_st_comp_correct_and_wins_when_memory_bound() {
        let (copts, mcfg) = setup();
        let cmp = ld_st_comp(8192, 1).compare(&copts, &mcfg, WaitPolicy::Mwait);
        let s = cmp.speedup();
        assert!(s > 1.2, "LD-ST-COMP at COMP=1 must be memory bound and win: {s:.2}");
    }

    #[test]
    fn ld_st_comp_converges_at_high_comp() {
        let (copts, mcfg) = setup();
        let cmp = ld_st_comp(4096, 64).compare(&copts, &mcfg, WaitPolicy::Mwait);
        let s = cmp.speedup();
        assert!((0.85..1.25).contains(&s), "compute-bound speedup should near 1.0: {s:.2}");
    }

    #[test]
    fn gat_scat_comp_correct() {
        let (copts, mcfg) = setup();
        let cmp = gat_scat_comp(4096, 4).compare(&copts, &mcfg, WaitPolicy::Mwait);
        assert!(cmp.speedup() > 0.8, "{:.2}", cmp.speedup());
    }

    #[test]
    fn prod_con_beats_gat_scat_at_same_comp() {
        let (copts, mcfg) = setup();
        let pc = prod_con(4096, 8).compare(&copts, &mcfg, WaitPolicy::Mwait).speedup();
        let gs = gat_scat_comp(4096, 8).compare(&copts, &mcfg, WaitPolicy::Mwait).speedup();
        assert!(
            pc > gs * 0.95,
            "producer-consumer locality should help: prod-con {pc:.2} vs gat-scat {gs:.2}"
        );
    }
}
