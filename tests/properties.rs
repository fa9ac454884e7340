//! Property-based tests on the core data structures and invariants.
//!
//! Each property runs for at least `DEFAULT_CASES` (256) deterministic
//! seeds through `gpstream_util::check::run_cases`; failures report the
//! case seed for replay.

use gpstream::compiler::passes::strip::{choose_strip_items, max_items, srf_bytes_for};
use gpstream::compiler::{compile, CompilerOptions};
use gpstream::core::exec::functional::FunctionalExecutor;
use gpstream::core::exec::native::{NativeExecutor, NativeWaitPolicy};
use gpstream::core::exec::sim::{SimExecutor, SimReport};
use gpstream::core::pod::{cast_slice, AlignedBytes};
use gpstream::core::srf::{SrfAllocator, SrfConfig};
use gpstream::core::task::{PortBinding, ScheduledProgram, TaskDesc, TaskId, TaskKind};
use gpstream::core::workqueue::{DependencyWindow, WINDOW};
use gpstream::core::{ArrayId, GraphBuilder, StreamGraph, Topology, World};
use gpstream::machine::cache::{Cache, FillPolicy};
use gpstream::machine::tlb::Tlb;
use gpstream::machine::{CacheGeometry, MachineConfig, WaitPolicy};
use gpstream::microbench::kernels;
use gpstream_profile::{report, topdown, CounterSet};
use gpstream_util::check::{run_cases, DEFAULT_CASES};
use gpstream_util::Rng64;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn vec_of<T>(
    rng: &mut Rng64,
    lo: usize,
    hi: usize,
    mut gen: impl FnMut(&mut Rng64) -> T,
) -> Vec<T> {
    let len = rng.range_usize_inclusive(lo, hi);
    (0..len).map(|_| gen(rng)).collect()
}

/// AlignedBytes round-trips arbitrary f32 data through byte views.
#[test]
fn aligned_bytes_roundtrip() {
    run_cases("aligned_bytes_roundtrip", 0xa11a, DEFAULT_CASES, |rng| {
        let values = vec_of(rng, 0, 199, |r| f32::from_bits(r.next_u32()));
        let buf = AlignedBytes::from_slice(&values);
        let back: &[f32] = buf.as_slice();
        // Compare bit patterns (NaN-safe).
        let a: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    });
}

/// cast_slice never reads past the buffer and preserves length math.
#[test]
fn cast_slice_length() {
    run_cases("cast_slice_length", 0xca57, DEFAULT_CASES, |rng| {
        let len = rng.below_usize(64);
        let buf = AlignedBytes::zeroed(len * 8);
        let s: &[u64] = cast_slice(buf.as_bytes());
        assert_eq!(s.len(), len);
    });
}

/// The cache always reports a line as present immediately after a
/// caching fill, and never caches under NoAllocate.
#[test]
fn cache_fill_visibility() {
    run_cases("cache_fill_visibility", 0xcac4e, DEFAULT_CASES, |rng| {
        let addrs = vec_of(rng, 1, 199, |r| r.below(1 << 20));
        let mut c = Cache::new(CacheGeometry { capacity: 8192, line: 64, ways: 4 }, 1);
        for (i, &a) in addrs.iter().enumerate() {
            let policy = if i % 3 == 0 { FillPolicy::NonTemporal } else { FillPolicy::Normal };
            c.access(a, i % 2 == 0, policy);
            assert!(c.contains(a), "line must be resident right after a fill");
        }
        let mut c2 = Cache::new(CacheGeometry { capacity: 8192, line: 64, ways: 4 }, 1);
        for &a in &addrs {
            c2.access(a, false, FillPolicy::NoAllocate);
            assert!(!c2.contains(a), "NoAllocate must never cache");
        }
    });
}

/// Non-temporal fills never evict lines of the registered SRF range.
#[test]
fn nt_fills_never_evict_srf() {
    run_cases("nt_fills_never_evict_srf", 0x5af5, DEFAULT_CASES, |rng| {
        let addrs = vec_of(rng, 1, 299, |r| r.range_u64(1 << 20, 1 << 24));
        let geom = CacheGeometry { capacity: 16384, line: 64, ways: 4 };
        let mut c = Cache::new(geom, 1);
        c.set_srf_range(Some(0..12288));
        c.warm(0..12288);
        for &a in &addrs {
            let out = c.access(a, false, FillPolicy::NonTemporal);
            assert!(!out.evicted_srf, "NT fill evicted SRF at {a:#x}");
        }
    });
}

/// The TLB holds at most `entries` distinct pages: after touching
/// `entries` fresh pages, the oldest untouched page is gone.
#[test]
fn tlb_capacity_bound() {
    run_cases("tlb_capacity_bound", 0x71b, DEFAULT_CASES, |rng| {
        let pages = vec_of(rng, 1, 99, |r| r.below(512));
        let entries = rng.range_usize_inclusive(1, 31);
        let mut t = Tlb::new(entries, 4096);
        for &p in &pages {
            t.access(p * 4096);
        }
        // Count resident pages by probing clones so probes cannot evict.
        let distinct: HashSet<u64> = pages.iter().copied().collect();
        let resident = distinct
            .iter()
            .filter(|&&p| {
                let mut probe = t.clone();
                probe.access(p * 4096)
            })
            .count();
        assert!(resident <= entries, "{resident} pages resident in {entries}-entry TLB");
    });
}

/// The dependency window never admits more than 64 tasks, reuses freed
/// slots, and clears masks on completion.
#[test]
fn window_invariants() {
    run_cases("window_invariants", 0x817d0, DEFAULT_CASES, |rng| {
        let ops = vec_of(rng, 1, 399, Rng64::bool);
        let w = DependencyWindow::new();
        let mut inflight: Vec<TaskId> = Vec::new();
        let mut next = 0u32;
        for admit in ops {
            if admit || inflight.is_empty() {
                if w.has_room() {
                    let id = TaskId(next);
                    next += 1;
                    let slot = w.admit(id).unwrap();
                    assert!(slot < WINDOW as u8);
                    inflight.push(id);
                } else {
                    assert_eq!(inflight.len(), WINDOW);
                }
            } else {
                let id = inflight.swap_remove(0);
                w.complete(id);
                assert!(w.is_ready(w.mask_for(&[id])), "completed dep must clear");
            }
            assert_eq!(w.pending_mask().count_ones() as usize, inflight.len());
        }
    });
}

/// Random admit/complete interleavings never hand out a slot that is
/// still occupied by a live (incomplete) task.
#[test]
fn window_never_aliases_live_slots() {
    run_cases("window_never_aliases_live_slots", 0xa11a5, DEFAULT_CASES, |rng| {
        let w = DependencyWindow::new();
        let mut live: HashMap<u8, TaskId> = HashMap::new();
        let mut next = 0u32;
        for _ in 0..rng.range_usize_inclusive(1, 300) {
            // Bias towards admission so the window actually fills up.
            if (rng.bool_with(0.6) || live.is_empty()) && w.has_room() {
                let id = TaskId(next);
                next += 1;
                let slot = w.admit(id).unwrap();
                assert!(
                    !live.contains_key(&slot),
                    "slot {slot} handed out while {:?} still occupies it",
                    live[&slot]
                );
                live.insert(slot, id);
            } else if !live.is_empty() {
                let slots: Vec<u8> = live.keys().copied().collect();
                let slot = slots[rng.below_usize(slots.len())];
                let id = live.remove(&slot).unwrap();
                let freed = w.complete(id);
                assert_eq!(freed, slot, "complete must free the task's own slot");
            }
            let live_mask: u64 = live.keys().fold(0, |m, &s| m | 1u64 << s);
            assert_eq!(w.pending_mask(), live_mask, "pending mask must mirror live slots");
        }
    });
}

/// `mask_for` and `is_ready` agree with a naive set-of-incomplete-deps
/// model under random admissions, completions and dependency picks.
#[test]
fn window_mask_matches_naive_model() {
    run_cases("window_mask_matches_naive_model", 0xdeb5, DEFAULT_CASES, |rng| {
        let w = DependencyWindow::new();
        let mut slot_of: HashMap<TaskId, u8> = HashMap::new(); // naive mirror of live tasks
        let mut everyone: Vec<TaskId> = Vec::new();
        let mut next = 0u32;
        for _ in 0..rng.range_usize_inclusive(1, 200) {
            if (rng.bool_with(0.6) || slot_of.is_empty()) && w.has_room() {
                let id = TaskId(next);
                next += 1;
                let slot = w.admit(id).unwrap();
                slot_of.insert(id, slot);
                everyone.push(id);
            } else if !slot_of.is_empty() {
                let ids: Vec<TaskId> = slot_of.keys().copied().collect();
                let id = ids[rng.below_usize(ids.len())];
                slot_of.remove(&id);
                w.complete(id);
            }
            // Draw a random dependency list over all tasks ever admitted,
            // live or completed.
            let deps = vec_of(rng, 0, 8.min(everyone.len()), |r| {
                everyone[r.below_usize(everyone.len().max(1))]
            });
            let naive_mask: u64 =
                deps.iter().filter_map(|d| slot_of.get(d)).fold(0, |m, &s| m | 1u64 << s);
            assert_eq!(w.mask_for(&deps), naive_mask, "mask_for disagrees with set model");
            assert_eq!(
                w.is_ready(naive_mask),
                naive_mask == 0,
                "is_ready disagrees with set model"
            );
        }
    });
}

/// A queue-time snapshot of the dependency mask (what a control thread
/// would record if it kept one per enqueued task) goes stale once a completed
/// dependency's window slot is recycled for a later task: the recycled
/// bit reads as "still pending" and the dependent would wait forever on
/// a task that already finished. This is the ABA hazard that forces the
/// native executor's workers to check per-task completion *flags*, never
/// a saved mask (see the NOTE in `exec/native.rs`).
#[test]
fn stale_mask_snapshot_suffers_slot_reuse_aba() {
    run_cases("stale_mask_slot_reuse_aba", 0xaba0, DEFAULT_CASES, |rng| {
        let w = DependencyWindow::new();
        let mut next = 0u32;
        let mut admit = |w: &DependencyWindow| {
            let id = TaskId(next);
            next += 1;
            (id, w.admit(id).unwrap())
        };
        // Some filler tasks so the dependency lands in a random slot.
        let fillers: Vec<TaskId> = (0..rng.below_usize(WINDOW - 2)).map(|_| admit(&w).0).collect();
        let (dep, dep_slot) = admit(&w);
        // Snapshot the mask as a control thread would if it recorded one
        // when it enqueued the dependent task.
        let snapshot = w.mask_for(&[dep]);
        assert!(!w.is_ready(snapshot), "dependency is live, mask must block");
        // Free a random subset of fillers, then the dependency itself.
        for f in fillers {
            if rng.bool() {
                w.complete(f);
            }
        }
        w.complete(dep);
        assert!(w.is_ready(snapshot), "dependency completed, mask must clear");
        // A later admission may recycle the freed slot...
        let (_later, later_slot) = admit(&w);
        if later_slot == dep_slot {
            // ...and the stale snapshot now aliases the unrelated task:
            // it reports "not ready" although the real dependency is long
            // done. A worker trusting the snapshot would deadlock here.
            assert!(
                !w.is_ready(snapshot),
                "recycled slot must alias the stale mask (the ABA hazard)"
            );
        }
    });
}

/// Multi-threaded stress of the native executor: random pipelines,
/// strip sizes, wait policies and issue modes (head-blocking and
/// out-of-order `tail_depend`) always produce the reference result
/// (exercising the completion-flag readiness path).
#[test]
fn native_executor_matches_reference_under_stress() {
    run_cases("native_executor_stress", 0x57e55, DEFAULT_CASES, |rng| {
        let n = rng.range_usize_inclusive(64, 768);
        let strip = rng.range_usize_inclusive(16, 256);
        let in_order = rng.bool();
        let policy = if rng.bool() { NativeWaitPolicy::Spin } else { NativeWaitPolicy::Park };
        let data: Vec<f32> = (0..n).map(|_| rng.f32_range(-8.0, 8.0)).collect();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut idx);

        let mut b = GraphBuilder::new();
        let a = b.array("a", &data);
        let y = b.array_zeroed::<f32>("y", n);
        let xs = b.gather_seq("xs", a);
        let gs = b.gather_indexed("gs", a, Arc::new(idx));
        let mid = b.stream::<f32>("mid", n);
        let out = b.stream::<f32>("out", n);
        b.kernel("inc", &[xs.id()], &[mid.id()], 2, |args| {
            let x = args.input::<f32>(0);
            for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
                *o = v + 1.0;
            }
        });
        b.kernel("mul", &[mid.id(), gs.id()], &[out.id()], 2, |args| {
            let xm = args.input::<f32>(0);
            let xg = args.input::<f32>(1);
            for (o, (vm, vg)) in args.output::<f32>(0).iter_mut().zip(xm.iter().zip(xg)) {
                *o = vm * vg;
            }
        });
        b.scatter_seq(out, y);
        let (graph, world) = b.build().unwrap();
        let opts = CompilerOptions { strip_items: Some(strip), ..CompilerOptions::paper() };
        let compiled = compile(&graph, &opts).unwrap();

        let mut reference = world.clone();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut reference);
        let mut native = world.clone();
        NativeExecutor::new().with_wait_policy(policy).in_order(in_order).run(
            &compiled.schedule,
            &compiled.graph,
            &mut native,
        );
        let got: &[f32] = native.slice::<f32>(y.id());
        let want: &[f32] = reference.slice::<f32>(y.id());
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            "native result diverged (n={n} strip={strip} policy={policy:?} in_order={in_order})"
        );
    });
}

/// Build the canonical two-strip double-buffered pipeline by hand, with
/// or without the same-queue WAR dependency that keeps strip 1's gather
/// from overwriting the SRF buffer strip 0's kernel still reads.
fn two_strip_program(with_war_dep: bool) -> (gpstream::core::StreamGraph, ScheduledProgram) {
    let n = 8usize;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let ys = b.stream::<f32>("ys", n);
    b.kernel("copy", &[xs.id()], &[ys.id()], 1, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = *v;
        }
    });
    b.scatter_seq(ys, y);
    let (graph, _world) = b.build().unwrap();

    // Both strips share ONE buffer pair (no double buffering), so strip
    // 1's gather overwrites the very SRF region strip 0's kernel reads
    // and strip 1's kernel overwrites the region strip 0's scatter
    // reads: correctness rests on those WAR edges.
    let mut tasks = Vec::new();
    for s in 0..2usize {
        let elems = s * 4..(s + 1) * 4;
        let in_b =
            PortBinding { stream: xs.id(), srf_offset: 0, elems: elems.clone(), elem_bytes: 4 };
        let out_b =
            PortBinding { stream: ys.id(), srf_offset: 256, elems: elems.clone(), elem_bytes: 4 };
        let base = tasks.len() as u32;
        let mut gather_deps = Vec::new();
        let mut kernel_deps = vec![TaskId(base)];
        if s > 0 && with_war_dep {
            gather_deps.push(TaskId(base - 2)); // prior kernel read in_b
            kernel_deps.push(TaskId(base - 1)); // prior scatter read out_b
        }
        tasks.push(TaskDesc {
            id: TaskId(base),
            kind: TaskKind::Gather { binding: in_b.clone(), nt: true },
            deps: gather_deps,
            strip: s as u32,
        });
        tasks.push(TaskDesc {
            id: TaskId(base + 1),
            kind: TaskKind::Kernel {
                kernel: gpstream::core::KernelId(0),
                items: elems.clone(),
                inputs: vec![in_b],
                outputs: vec![out_b.clone()],
            },
            deps: kernel_deps,
            strip: s as u32,
        });
        tasks.push(TaskDesc {
            id: TaskId(base + 2),
            kind: TaskKind::Scatter { binding: out_b, nt: true },
            deps: vec![TaskId(base + 1)],
            strip: s as u32,
        });
    }
    let program = ScheduledProgram { tasks, srf_bytes: 512, n_strips: 2, strip_items: 4 };
    (graph, program)
}

/// The schedule checker rejects a schedule whose correctness depends on
/// implicit same-queue ordering (a buffer-reuse WAR with no dependency
/// path), and accepts the same schedule once the edge is explicit.
#[test]
fn checker_rejects_implicit_queue_order_schedules() {
    let (graph, bad) = two_strip_program(false);
    let err = bad.validate().expect_err("buffer reuse without a dep path must be rejected");
    assert!(
        err.contains("implicit queue order"),
        "error should name the implicit-order reliance, got: {err}"
    );
    assert!(bad.check(&graph).is_err(), "full checker must reject it too");

    let (graph, good) = two_strip_program(true);
    good.validate().expect("explicit WAR edges make the schedule order-free");
    good.check(&graph).expect("full checker passes with explicit edges");
}

/// A single-kernel pipeline with mixed element widths (f32 in, f64 out)
/// for exercising the strip-mining pass over random sizes.
fn strip_graph(rng: &mut Rng64, lo: usize, hi: usize) -> gpstream::core::StreamGraph {
    let n = rng.range_usize_inclusive(lo, hi);
    let mut b = GraphBuilder::new();
    let a = b.array("a", &vec![0.0f32; n]);
    let y = b.array_zeroed::<f64>("y", n);
    let s_in = b.gather_seq("in", a);
    let s_out = b.stream::<f64>("out", n);
    b.kernel("k", &[s_in.id()], &[s_out.id()], 1, |_| {});
    b.scatter_seq(s_out, y);
    b.build().unwrap().0
}

/// Strip-mine options with a random SRF capacity and buffering mode (no
/// forced strip, so the pass actually searches).
fn strip_opts(rng: &mut Rng64, capacity: usize) -> CompilerOptions {
    CompilerOptions {
        srf: SrfConfig { base: 0x0100_0000, capacity },
        double_buffer: rng.bool(),
        strip_items: None,
        ..CompilerOptions::paper()
    }
}

/// The chosen strip's working set always fits the SRF, and the choice is
/// maximal: one more item per strip would overflow. `None` only when
/// even a single item per strip cannot fit.
#[test]
fn strip_mine_working_set_fits_srf() {
    run_cases("strip_mine_working_set_fits_srf", 0x57a1f, DEFAULT_CASES, |rng| {
        let g = strip_graph(rng, 64, 50_000);
        let capacity = rng.range_usize_inclusive(1 << 10, 1 << 20);
        let opts = strip_opts(rng, capacity);
        match choose_strip_items(&g, &opts) {
            Some(w) => {
                let used = srf_bytes_for(&g, w, &opts);
                assert!(used <= capacity, "working set {used} overflows {capacity}-byte SRF");
                if w < max_items(&g) {
                    assert!(
                        srf_bytes_for(&g, w + 1, &opts) > capacity,
                        "strip {w} is not maximal for a {capacity}-byte SRF"
                    );
                }
            }
            None => assert!(
                srf_bytes_for(&g, 1, &opts) > capacity,
                "None is only allowed when even one item per strip overflows"
            ),
        }
    });
}

/// Whenever the pass picks a strip it is at least one item, and every
/// schedule compiled from it carries a non-zero strip and strip count —
/// including degenerate one-element graphs.
#[test]
fn strip_mine_strip_is_never_zero() {
    run_cases("strip_mine_strip_is_never_zero", 0x57a10, DEFAULT_CASES, |rng| {
        let g = strip_graph(rng, 1, 256);
        let capacity = rng.range_usize_inclusive(1 << 9, 1 << 16);
        let opts = strip_opts(rng, capacity);
        if let Some(w) = choose_strip_items(&g, &opts) {
            assert!(w >= 1, "strip size of zero items");
            let compiled = compile(&g, &opts).unwrap();
            assert!(compiled.schedule.strip_items >= 1);
            assert!(compiled.schedule.n_strips >= 1);
            assert_eq!(compiled.schedule.strip_items, w, "schedule must use the pass's choice");
        }
    });
}

/// Shrinking the SRF monotonically shrinks the chosen strip (treating
/// "infeasible" as zero), and double buffering never chooses a larger
/// strip than single buffering at the same capacity.
#[test]
fn strip_mine_monotone_in_srf_capacity() {
    run_cases("strip_mine_monotone_in_srf_capacity", 0x57a1e, DEFAULT_CASES, |rng| {
        let g = strip_graph(rng, 64, 50_000);
        let mut c1 = rng.range_usize_inclusive(1 << 9, 1 << 21);
        let mut c2 = rng.range_usize_inclusive(1 << 9, 1 << 21);
        if c1 > c2 {
            std::mem::swap(&mut c1, &mut c2);
        }
        let opts = strip_opts(rng, c1);
        let chosen = |capacity: usize, double_buffer: bool| {
            let o = CompilerOptions {
                srf: SrfConfig { base: 0x0100_0000, capacity },
                double_buffer,
                ..opts.clone()
            };
            choose_strip_items(&g, &o).unwrap_or(0)
        };
        let (w1, w2) = (chosen(c1, opts.double_buffer), chosen(c2, opts.double_buffer));
        assert!(w1 <= w2, "smaller SRF ({c1} vs {c2}) chose a larger strip ({w1} > {w2})");
        let (wd, ws) = (chosen(c2, true), chosen(c2, false));
        assert!(wd <= ws, "double buffering chose a larger strip ({wd} > {ws})");
    });
}

/// The SRF allocator never hands out overlapping or out-of-bounds
/// buffers.
#[test]
fn srf_allocator_disjoint() {
    run_cases("srf_allocator_disjoint", 0x5afa, DEFAULT_CASES, |rng| {
        let sizes = vec_of(rng, 1, 39, |r| r.range_usize_inclusive(1, 4999));
        let cfg = SrfConfig { base: 0x0100_0000, capacity: 64 * 1024 };
        let mut alloc = SrfAllocator::new(cfg);
        let mut taken: Vec<(usize, usize)> = Vec::new();
        for s in sizes {
            match alloc.alloc(s, 128) {
                Ok(off) => {
                    assert_eq!(off % 128, 0);
                    assert!(off + s <= cfg.capacity);
                    for &(o2, s2) in &taken {
                        assert!(off + s <= o2 || o2 + s2 <= off, "overlap");
                    }
                    taken.push((off, s));
                }
                Err(e) => assert_eq!(e.requested, s),
            }
        }
    });
}

/// Compile a random micro-benchmark and run it under the simulating
/// executor with full profiling at a random sampling interval.
fn profiled_micro_run(rng: &mut Rng64) -> SimReport {
    let n = rng.range_usize_inclusive(128, 1024);
    let comp = rng.range_usize_inclusive(1, 4);
    let mb = match rng.below(3) {
        0 => kernels::ld_st_comp(n, comp),
        1 => kernels::gat_scat_comp(n, comp),
        _ => kernels::prod_con(n, comp),
    };
    let copts = CompilerOptions::paper();
    let compiled = compile(&mb.graph, &copts).unwrap();
    let mut world = mb.stream_world.clone();
    SimExecutor::new()
        .with_srf(copts.srf)
        .with_profile(true)
        .with_sample_interval(rng.range_u64(256, 65_536))
        .run(&compiled.schedule, &compiled.graph, &mut world)
}

/// Counter conservation: hits and misses partition accesses at both
/// cache levels, prefetch coverage never exceeds the misses it could
/// cover, the bus is never busy for more cycles than the run lasts, and
/// both per-task attribution and interval-sample deltas account exactly
/// for the run totals.
#[test]
fn profiling_counters_are_conserved() {
    run_cases("profiling_counters_are_conserved", 0xc0117e5, 16, |rng| {
        let r = profiled_micro_run(rng);
        let m = &r.timing.mem;
        assert_eq!(m.l1_hits + m.l1_misses, m.l1_accesses, "L1 hits+misses != accesses");
        assert_eq!(m.l2_hits + m.l2_misses, m.l2_accesses, "L2 hits+misses != accesses");
        assert!(
            m.hw_prefetch_covered + m.sw_prefetch_covered <= m.l2_misses,
            "prefetch covered more L2 misses than occurred"
        );
        assert!(m.bus_busy_cycles <= r.timing.cycles, "bus busy beyond end of run");
        assert!(
            r.timing.cycles >= r.timing.ctx_cycles[0].max(r.timing.ctx_cycles[1]),
            "run ended before a context retired"
        );

        let prof = r.profile.as_ref().expect("profiling was enabled");
        // Per-task attribution accounts for the totals: exactly for the
        // in-core counters (every increment happens inside a stepped op),
        // and bounded for the bus counters (the final drain after the
        // last op has no owning task).
        let mut summed = gpstream::machine::MemStats::default();
        for t in &prof.tasks {
            summed.accumulate(&t.stats);
        }
        for ((name, total), (_, attributed)) in m.fields().iter().zip(summed.fields()) {
            if name.starts_with("bus_") {
                assert!(attributed <= *total, "{name}: attributed {attributed} > total {total}");
            } else {
                assert_eq!(attributed, *total, "{name}: attribution must be exact");
            }
        }
        let task_cycles: u64 = prof.tasks.iter().map(|t| t.cycles).sum();
        assert!(
            task_cycles <= r.timing.ctx_cycles[0] + r.timing.ctx_cycles[1],
            "attributed more cycles than the contexts ran"
        );

        // Samples are cumulative and monotone, and the final sample
        // equals the run totals — so interval deltas sum to the totals.
        for w in prof.samples.windows(2) {
            assert!(w[0].t < w[1].t, "sample timestamps must increase");
            for ((name, a), (_, b)) in w[0].stats.fields().iter().zip(w[1].stats.fields()) {
                assert!(a <= &b, "{name} decreased between samples");
            }
        }
        let last = prof.samples.last().expect("at least the end-of-run sample");
        assert_eq!(last.t, r.timing.cycles, "final sample must land on end of run");
        assert_eq!(&last.stats, m, "final sample must equal the run totals");
    });
}

/// Every rendered profiler artifact is byte-deterministic: profiling the
/// same workload twice yields identical reports, trees, folded stacks,
/// sample CSVs and JSON documents.
#[test]
fn profile_reports_are_byte_deterministic() {
    run_cases("profile_reports_are_byte_deterministic", 0xb17e5, 8, |rng| {
        let seed = rng.next_u64();
        let render = |seed: u64| {
            let mut r = Rng64::seed_from_u64(seed);
            let report = profiled_micro_run(&mut r);
            let prof = report.profile.as_ref().unwrap();
            let cs = CounterSet::from(&report.timing);
            // The tree only needs task kinds; reuse any graph with the
            // kernel ids of the program — rebuild the same micro.
            (
                report::perf_stat_text("prop", &cs),
                report::samples_csv(&prof.samples),
                cs.all_values(),
            )
        };
        let (a1, a2, a3) = render(seed);
        let (b1, b2, b3) = render(seed);
        assert_eq!(a1, b1, "perf-stat text must be byte-identical");
        assert_eq!(a2, b2, "samples CSV must be byte-identical");
        assert_eq!(a3, b3, "tracked values must be identical");
    });
}

/// The top-down tree built from a real profiled run keeps its structural
/// invariant (`total == self + Σ children.total` at every node) and its
/// collapsed-stack export's self times sum to the root total.
#[test]
fn topdown_tree_invariants_hold_on_real_runs() {
    run_cases("topdown_tree_invariants", 0x70bd0, 8, |rng| {
        let n = rng.range_usize_inclusive(128, 1024);
        let comp = rng.range_usize_inclusive(1, 4);
        let mb = kernels::gat_scat_comp(n, comp);
        let copts = CompilerOptions::paper();
        let compiled = compile(&mb.graph, &copts).unwrap();
        let mut world = mb.stream_world.clone();
        let r = SimExecutor::new().with_srf(copts.srf).with_profile(true).run(
            &compiled.schedule,
            &compiled.graph,
            &mut world,
        );
        let prof = r.profile.as_ref().unwrap();
        let tree = topdown::topdown(
            "prop",
            &compiled.schedule,
            &compiled.graph,
            prof,
            &r.timing.ctx_cycles,
            &r.timing.phases,
        );
        fn check(n: &gpstream_profile::TopNode) {
            let kids: u64 = n.children.iter().map(|c| c.total_cycles).sum();
            assert_eq!(n.total_cycles, n.self_cycles + kids, "node `{}` breaks total", n.name);
            n.children.iter().for_each(check);
        }
        check(&tree);
        let folded = topdown::collapsed(&tree);
        let folded_sum: u64 =
            folded.lines().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(folded_sum, tree.total_cycles, "folded self times must sum to the root");
    });
}

/// Any (n, strip, fuse, double-buffer) combination of the canonical
/// two-kernel pipeline compiles and computes the right answer.
#[test]
fn compiled_pipeline_always_correct() {
    run_cases("compiled_pipeline_always_correct", 0xc0de, 16, |rng| {
        let n = rng.range_usize_inclusive(64, 4999);
        let strip = if rng.bool() { Some(rng.range_usize_inclusive(16, 511)) } else { None };
        let fuse = rng.bool();
        let double = rng.bool();
        let data: Vec<f32> = (0..n).map(|i| (i % 11) as f32).collect();
        let idx: Vec<u32> = (0..n as u32).rev().collect();
        let expected: Vec<f32> = (0..n).map(|i| (data[i] + 1.0) * data[idx[i] as usize]).collect();

        let mut b = GraphBuilder::new();
        let a = b.array("a", &data);
        let y = b.array_zeroed::<f32>("y", n);
        let xs = b.gather_seq("xs", a);
        let gs = b.gather_indexed("gs", a, Arc::new(idx));
        let mid = b.stream::<f32>("mid", n);
        let out = b.stream::<f32>("out", n);
        b.kernel("inc", &[xs.id()], &[mid.id()], 2, |args| {
            let x = args.input::<f32>(0);
            for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
                *o = v + 1.0;
            }
        });
        b.kernel("mul", &[mid.id(), gs.id()], &[out.id()], 2, |args| {
            let xm = args.input::<f32>(0);
            let xg = args.input::<f32>(1);
            for (o, (vm, vg)) in args.output::<f32>(0).iter_mut().zip(xm.iter().zip(xg)) {
                *o = vm * vg;
            }
        });
        b.scatter_seq(out, y);
        let (graph, mut world) = b.build().unwrap();

        let opts = CompilerOptions {
            strip_items: strip,
            fuse_kernels: fuse,
            double_buffer: double,
            ..CompilerOptions::paper()
        };
        let compiled = compile(&graph, &opts).unwrap();
        // Every compiler-emitted schedule must pass the full checker
        // (explicit same-queue dependencies included).
        compiled.schedule.check(&compiled.graph).unwrap();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut world);
        assert_eq!(world.slice::<f32>(y.id()), expected.as_slice());
    });
}

/// A random but legal machine for the sim-equivalence property: cache
/// lines and pages stay powers of two (the timing model assumes that),
/// but everything else — capacities, ways, latencies, TLB reach,
/// prefetchers, miss buffers — is drawn at random. About one case in
/// five gives L1 and L2 different line sizes, which disables the
/// event engine's batched fast path entirely and exercises its
/// step-delegating fallback.
fn random_machine(rng: &mut Rng64) -> MachineConfig {
    let l1_line = 32u64 << rng.below(3); // 32 / 64 / 128
    let l2_line = if rng.bool_with(0.8) {
        l1_line
    } else {
        // A deliberately mismatched (still pow2) L2 line.
        if l1_line == 32 {
            128
        } else {
            l1_line / 2
        }
    };
    let l1_ways = 4u64 << rng.below(2); // 4 / 8
    let l2_ways = 4u64 << rng.below(2);
    MachineConfig {
        copy_uops_per_elem: rng.range_u64(2, 4),
        l1: CacheGeometry {
            capacity: l1_line * l1_ways * (1 << rng.range_u64(2, 5)),
            line: l1_line,
            ways: l1_ways,
        },
        l1_lat: rng.range_u64(2, 6),
        l2: CacheGeometry {
            capacity: l2_line * l2_ways * (1 << rng.range_u64(5, 8)),
            line: l2_line,
            ways: l2_ways,
        },
        l2_lat: rng.range_u64(10, 40),
        nt_ways: rng.range_u64(1, 2),
        dtlb_entries: rng.range_usize_inclusive(8, 64),
        page_bytes: 1024 << rng.below(3), // 1 / 2 / 4 KiB
        walk_cycles: rng.range_u64(50, 200),
        mem_lat: rng.range_u64(100, 300),
        bus_turnaround: rng.range_u64(0, 20),
        hw_pf_streams: rng.range_usize_inclusive(0, 2),
        hw_pf_depth: rng.range_u64(4, 12),
        sw_pf_depth: rng.range_u64(0, 8),
        mshrs: rng.range_u64(1, 4),
        store_miss_exposed: rng.range_u64(0, 100),
        ooo_window_cycles: rng.range_u64(0, 150),
        l2_dep_exposed: rng.range_u64(0, 20),
        ..MachineConfig::prescott()
    }
}

/// Event-driven time skipping is byte-identical to cycle stepping on
/// *random* machines, pipelines and executor configurations — not just
/// the curated catalog the differential suite covers. Skipping K cycles
/// must be indistinguishable from K single steps: the entire `SimReport`
/// (timing counters, phase split, memory stats, trace, task log, profile
/// with samples) and the computed output bits have to match exactly.
#[test]
fn event_mode_equals_stepped_on_random_machines() {
    run_cases("event_mode_equals_stepped", 0xe7e57, 24, |rng| {
        let n = rng.range_usize_inclusive(64, 512);
        let data: Vec<f32> = (0..n).map(|_| rng.f32_range(-8.0, 8.0)).collect();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut idx);

        let mut b = GraphBuilder::new();
        let a = b.array("a", &data);
        let y = b.array_zeroed::<f32>("y", n);
        let xs = b.gather_seq("xs", a);
        let gs = b.gather_indexed("gs", a, Arc::new(idx));
        let mid = b.stream::<f32>("mid", n);
        let out = b.stream::<f32>("out", n);
        b.kernel("inc", &[xs.id()], &[mid.id()], 2, |args| {
            let x = args.input::<f32>(0);
            for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
                *o = v + 1.0;
            }
        });
        b.kernel("mul", &[mid.id(), gs.id()], &[out.id()], 2, |args| {
            let xm = args.input::<f32>(0);
            let xg = args.input::<f32>(1);
            for (o, (vm, vg)) in args.output::<f32>(0).iter_mut().zip(xm.iter().zip(xg)) {
                *o = vm * vg;
            }
        });
        b.scatter_seq(out, y);
        let (graph, world) = b.build().unwrap();

        let copts = CompilerOptions {
            strip_items: Some(rng.range_usize_inclusive(16, 256)),
            double_buffer: rng.bool(),
            fuse_kernels: rng.bool(),
            nt_gather: rng.bool(),
            nt_scatter: rng.bool(),
            ..CompilerOptions::paper()
        };
        let compiled = compile(&graph, &copts).unwrap();

        let mcfg = random_machine(rng);
        let warmup = rng.bool();
        let in_order = rng.bool();
        let single = rng.bool_with(0.2);
        let policy = match rng.below(3) {
            0 => WaitPolicy::SpinPause,
            1 => WaitPolicy::Mwait,
            _ => WaitPolicy::OsBlock,
        };
        // Profiling attaches the sampler, which forces the event engine
        // onto its chunk-granular path; without it the engine runs whole
        // ops greedily inside blocked-partner spans. Cover both.
        let profile = rng.bool();
        let interval = rng.range_u64(128, 8192);

        let run = |fast: bool| {
            let mut w = world.clone();
            let mut exec = SimExecutor::new()
                .with_machine(mcfg.clone())
                .with_srf(copts.srf)
                .with_wait_policy(policy)
                .with_warmup(warmup)
                .with_topology(if single { Topology::single() } else { Topology::two_context() })
                .in_order(in_order || single)
                .with_trace(true)
                .with_task_log(true)
                .fast_sim(fast);
            if profile {
                exec = exec.with_profile(true).with_sample_interval(interval);
            }
            let r = exec.run(&compiled.schedule, &compiled.graph, &mut w);
            let bits: Vec<u32> = w.slice::<f32>(y.id()).iter().map(|v| v.to_bits()).collect();
            (format!("{r:?}"), bits)
        };
        let (stepped, stepped_bits) = run(false);
        let (event, event_bits) = run(true);
        assert_eq!(event_bits, stepped_bits, "output bits diverged (n={n} mcfg={mcfg:?})");
        assert_eq!(
            event, stepped,
            "event-driven report diverged from stepped \
             (n={n} warmup={warmup} in_order={in_order} single={single} \
             policy={policy:?} profile={profile} mcfg={mcfg:?})"
        );
    });
}

/// The same identity under indexed traffic built to break the in-order
/// hit run everywhere it can break: an indexed gather with duplicate
/// and clustered indices *and* an indexed scatter, non-temporal hints on
/// and off on both sides, 12-byte records that straddle cache lines on
/// the memory and the SRF side, an 8-entry TLB so runs stop mid-strip on
/// a page walk, and (half the time) the SRF laid over the gathered
/// array so a memory page equals the SRF page.
#[test]
fn event_mode_equals_stepped_on_indexed_traffic() {
    type Rec = [f32; 3];
    run_cases("event_mode_indexed_traffic", 0x1d7a, 24, |rng| {
        let n = rng.range_usize_inclusive(64, 512);
        let data: Vec<Rec> = (0..n).map(|_| [0; 3].map(|_| rng.f32_range(-8.0, 8.0))).collect();
        // Gather: a few clusters of neighbours, drawn with replacement.
        let spread = rng.range_usize_inclusive(1, 24);
        let centers: Vec<usize> =
            (0..rng.range_usize_inclusive(1, 8)).map(|_| rng.below_usize(n)).collect();
        let gather_idx: Vec<u32> = (0..n)
            .map(|_| {
                ((centers[rng.below_usize(centers.len())] + rng.below_usize(spread)) % n) as u32
            })
            .collect();
        // Scatter: a permutation (last-writer order must not matter)
        // shuffled only within small blocks, so neighbours share lines.
        let mut scatter_idx: Vec<u32> = (0..n as u32).collect();
        for block in scatter_idx.chunks_mut(rng.range_usize_inclusive(2, 32)) {
            rng.shuffle(block);
        }

        let mut b = GraphBuilder::new();
        let a = b.array("a", &data);
        let y = b.array_zeroed::<Rec>("y", n);
        let gs = b.gather_indexed("gs", a, Arc::new(gather_idx));
        let out = b.stream::<Rec>("out", n);
        b.kernel("inc", &[gs.id()], &[out.id()], 2, |args| {
            let x = args.input::<Rec>(0);
            for (o, v) in args.output::<Rec>(0).iter_mut().zip(x) {
                *o = v.map(|f| f + 1.0);
            }
        });
        b.scatter_indexed(out, y, Arc::new(scatter_idx));
        let (graph, world) = b.build().unwrap();

        let copts = CompilerOptions {
            strip_items: Some(rng.range_usize_inclusive(16, 256)),
            double_buffer: rng.bool(),
            nt_gather: rng.bool(),
            nt_scatter: rng.bool(),
            ..CompilerOptions::paper()
        };
        let compiled = compile(&graph, &copts).unwrap();
        let srf = if rng.bool() {
            // `a` is the first array: the SRF's pages are its pages.
            SrfConfig { base: world.array(a.id()).base, ..copts.srf }
        } else {
            copts.srf
        };

        let mut mcfg = random_machine(rng);
        if rng.bool() {
            mcfg.dtlb_entries = 8;
        }
        let warmup = rng.bool();
        let in_order = rng.bool();
        let single = rng.bool_with(0.2);
        // With the sampler attached the engine keeps chunk boundaries;
        // without it, whole ops run greedily inside spans. Cover both.
        let profile = rng.bool();
        let interval = rng.range_u64(128, 8192);

        let run = |fast: bool| {
            let mut w = world.clone();
            let mut exec = SimExecutor::new()
                .with_machine(mcfg.clone())
                .with_srf(srf)
                .with_warmup(warmup)
                .with_topology(if single { Topology::single() } else { Topology::two_context() })
                .in_order(in_order || single)
                .with_trace(true)
                .with_task_log(true)
                .fast_sim(fast);
            if profile {
                exec = exec.with_profile(true).with_sample_interval(interval);
            }
            let r = exec.run(&compiled.schedule, &compiled.graph, &mut w);
            let bits: Vec<[u32; 3]> =
                w.slice::<Rec>(y.id()).iter().map(|v| v.map(f32::to_bits)).collect();
            (format!("{r:?}"), bits, r.engine_stats())
        };
        let (stepped, stepped_bits, _) = run(false);
        let (event, event_bits, engine) = run(true);
        assert_eq!(event_bits, stepped_bits, "output bits diverged (n={n} mcfg={mcfg:?})");
        assert_eq!(
            event, stepped,
            "event-driven report diverged from stepped (n={n} warmup={warmup} \
             in_order={in_order} single={single} profile={profile} srf={srf:?} mcfg={mcfg:?})"
        );
        // Two indexed copies of `n` records each, every element on
        // exactly one route.
        assert_eq!(engine.copy_items(), 2 * n as u64, "{engine}");
    });
}

/// `run()` is exactly `snapshot()` followed by `resume_from()`, and a
/// snapshot is immutable: resuming from it twice gives the same report
/// both times and matches a straight run.
#[test]
fn snapshot_resume_replays_equal_straight_runs() {
    run_cases("snapshot_resume_replays", 0x54a9, 12, |rng| {
        let n = rng.range_usize_inclusive(128, 1024);
        let comp = rng.range_usize_inclusive(1, 4);
        let mb = match rng.below(3) {
            0 => kernels::ld_st_comp(n, comp),
            1 => kernels::gat_scat_comp(n, comp),
            _ => kernels::prod_con(n, comp),
        };
        let copts = CompilerOptions::paper();
        let compiled = compile(&mb.graph, &copts).unwrap();
        let mut exec = SimExecutor::new()
            .with_srf(copts.srf)
            .with_warmup(rng.bool())
            .in_order(rng.bool())
            .with_task_log(true)
            .fast_sim(rng.bool());
        if rng.bool() {
            exec = exec.with_profile(true).with_sample_interval(rng.range_u64(256, 65_536));
        }

        let mut w1 = mb.stream_world.clone();
        let straight = exec.run(&compiled.schedule, &compiled.graph, &mut w1);
        let mut w2 = mb.stream_world.clone();
        let snap = exec.snapshot(&compiled.schedule, &compiled.graph, &mut w2);
        let replay_a = exec.resume_from(&snap);
        let replay_b = exec.resume_from(&snap);

        let (s, a, b) = (format!("{straight:?}"), format!("{replay_a:?}"), format!("{replay_b:?}"));
        assert_eq!(a, s, "snapshot+resume diverged from the straight run (n={n} comp={comp})");
        assert_eq!(b, a, "second resume diverged: resume_from mutated the snapshot");
    });
}

/// The canonical random two-kernel pipeline (sequential + indexed
/// gather, two chained kernels, one scatter) used by the N-context
/// properties: rich enough that a scaled topology spreads its
/// dependency edges — gather→kernel, kernel→kernel, kernel→scatter and
/// the SRF-reuse WAR backedges — across every worker context.
fn random_two_kernel_pipeline(rng: &mut Rng64, n: usize) -> (StreamGraph, World, ArrayId) {
    let data: Vec<f32> = (0..n).map(|_| rng.f32_range(-8.0, 8.0)).collect();
    let mut idx: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut idx);
    let mut b = GraphBuilder::new();
    let a = b.array("a", &data);
    let y = b.array_zeroed::<f32>("y", n);
    let xs = b.gather_seq("xs", a);
    let gs = b.gather_indexed("gs", a, Arc::new(idx));
    let mid = b.stream::<f32>("mid", n);
    let out = b.stream::<f32>("out", n);
    b.kernel("inc", &[xs.id()], &[mid.id()], 2, |args| {
        let x = args.input::<f32>(0);
        for (o, v) in args.output::<f32>(0).iter_mut().zip(x) {
            *o = v + 1.0;
        }
    });
    b.kernel("mul", &[mid.id(), gs.id()], &[out.id()], 2, |args| {
        let xm = args.input::<f32>(0);
        let xg = args.input::<f32>(1);
        for (o, (vm, vg)) in args.output::<f32>(0).iter_mut().zip(xm.iter().zip(xg)) {
            *o = vm * vg;
        }
    });
    b.scatter_seq(out, y);
    let (graph, world) = b.build().unwrap();
    (graph, world, y.id())
}

/// Random cross-context DAGs complete without deadlock — and produce
/// the reference result — on every scaled topology (1, 2, 4 and 8
/// worker contexts) under both wait policies. The scaled farm deals
/// each task class round-robin, so almost every dependency edge of the
/// compiled DAG crosses workers; neither the parked nor the spinning
/// wait path may wedge on a dependency another worker completes.
#[test]
fn native_scaled_topologies_match_reference() {
    run_cases("native_scaled_topologies", 0x5ca1ed, 24, |rng| {
        let n = rng.range_usize_inclusive(64, 512);
        let strip = rng.range_usize_inclusive(16, 128);
        let (graph, world, y) = random_two_kernel_pipeline(rng, n);
        let opts = CompilerOptions { strip_items: Some(strip), ..CompilerOptions::paper() };
        let compiled = compile(&graph, &opts).unwrap();

        let mut reference = world.clone();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut reference);
        let want: Vec<u32> = reference.slice::<f32>(y).iter().map(|v| v.to_bits()).collect();
        for contexts in [1usize, 2, 4, 8] {
            for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
                let mut native = world.clone();
                NativeExecutor::new()
                    .with_topology(Topology::scaled(contexts))
                    .with_wait_policy(policy)
                    .run(&compiled.schedule, &compiled.graph, &mut native);
                let got: Vec<u32> = native.slice::<f32>(y).iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "scaled run diverged (n={n} strip={strip} contexts={contexts} \
                     policy={policy:?})"
                );
            }
        }
    });
}

/// Slot recycling across the 64-entry window boundary is ABA-safe with
/// more than two consumers: a program several times longer than the
/// window forces every slot through many admit/complete/readmit cycles
/// while four workers retire tasks concurrently, and the out-of-order
/// issue path still matches the reference under both wait policies.
#[test]
fn window_slot_reuse_aba_safe_with_many_consumers() {
    run_cases("window_slot_reuse_many_consumers", 0xaba4, 8, |rng| {
        let strip = 16;
        let n = rng.range_usize_inclusive(WINDOW * strip, 2 * WINDOW * strip);
        let (graph, world, y) = random_two_kernel_pipeline(rng, n);
        let opts = CompilerOptions { strip_items: Some(strip), ..CompilerOptions::paper() };
        let compiled = compile(&graph, &opts).unwrap();
        assert!(
            compiled.schedule.tasks.len() > 2 * WINDOW,
            "program must overrun the {WINDOW}-entry window to recycle slots"
        );

        let mut reference = world.clone();
        FunctionalExecutor::new().run(&compiled.schedule, &compiled.graph, &mut reference);
        let want: Vec<u32> = reference.slice::<f32>(y).iter().map(|v| v.to_bits()).collect();
        for policy in [NativeWaitPolicy::Spin, NativeWaitPolicy::Park] {
            let mut native = world.clone();
            NativeExecutor::new().with_topology(Topology::scaled(4)).with_wait_policy(policy).run(
                &compiled.schedule,
                &compiled.graph,
                &mut native,
            );
            let got: Vec<u32> = native.slice::<f32>(y).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "slot-recycling run diverged (n={n} policy={policy:?})");
        }
    });
}
