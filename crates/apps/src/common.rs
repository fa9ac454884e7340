//! Shared harness: an application as a stream program plus its regular
//! twin, with verified-identical results.

use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::metrics::Comparison;
use gpstream_core::regular::RegularProgram;
use gpstream_core::{ArrayId, StreamGraph, World};
use gpstream_machine::ops::WaitPolicy;
use gpstream_machine::MachineConfig;

/// An application benchmark: stream and regular versions over
/// identically-seeded inputs, with output arrays to cross-check.
pub struct AppBench {
    /// Label (e.g. "streamFEM MHD-quad").
    pub name: String,
    /// The stream program graph.
    pub graph: StreamGraph,
    /// World backing the stream version.
    pub stream_world: World,
    /// Output arrays of the stream version (compared pairwise with
    /// `regular_outputs`).
    pub stream_outputs: Vec<ArrayId>,
    /// The regular (conventional) program.
    pub regular: RegularProgram,
    /// World backing the regular version.
    pub regular_world: World,
    /// Output arrays of the regular version.
    pub regular_outputs: Vec<ArrayId>,
}

impl AppBench {
    /// Run both versions on the simulated machine, assert the outputs
    /// agree to floating-point tolerance, and return the cycle comparison.
    /// The runs use the bench's own worlds, so comparing one bench twice
    /// takes two benches.
    ///
    /// # Panics
    ///
    /// Panics if compilation fails or the versions disagree (a
    /// correctness bug).
    #[must_use]
    pub fn compare(
        self,
        copts: &CompilerOptions,
        mcfg: &MachineConfig,
        wait: WaitPolicy,
    ) -> Comparison {
        self.compare_mode(copts, mcfg, wait, false)
    }

    /// Like [`AppBench::compare`], but with the work queues' issue mode
    /// explicit: `in_order` forces head-blocking queues (the ablation
    /// baseline for the out-of-order `tail_depend` issue).
    ///
    /// # Panics
    ///
    /// Panics if compilation fails or the versions disagree (a
    /// correctness bug).
    #[must_use]
    pub fn compare_mode(
        self,
        copts: &CompilerOptions,
        mcfg: &MachineConfig,
        wait: WaitPolicy,
        in_order: bool,
    ) -> Comparison {
        let compiled = compile(&self.graph, copts).expect("application compiles");
        let mut sw = self.stream_world;
        // Applications measure a warm steady-state step, as in the paper
        // ("we also ran each experiment for several hundred time steps").
        let report = SimExecutor::new()
            .with_machine(mcfg.clone())
            .with_srf(copts.srf)
            .with_wait_policy(wait)
            .with_warmup(true)
            .in_order(in_order)
            .run(&compiled.schedule, &compiled.graph, &mut sw);

        let mut rw = self.regular_world;
        let regular_timing = self.regular.simulate_warm(&mut rw, mcfg);

        assert_outputs_agree(
            &self.name,
            (&sw, &self.stream_outputs),
            (&rw, &self.regular_outputs),
            APP_TOLERANCE,
        );

        Comparison {
            name: self.name,
            regular_cycles: regular_timing.cycles,
            stream_cycles: report.timing.cycles,
            phases: Some(report.timing.phases),
            mem: Some(report.timing.mem),
        }
    }

    /// Functional-only verification (no timing), for fast tests: runs the
    /// reference executor against the regular program.
    ///
    /// # Panics
    ///
    /// Panics if the versions disagree.
    pub fn verify(&self, copts: &CompilerOptions) {
        let compiled = compile(&self.graph, copts).expect("application compiles");
        let mut sw = self.stream_world.clone();
        gpstream_core::exec::functional::FunctionalExecutor::with_srf(copts.srf).run(
            &compiled.schedule,
            &compiled.graph,
            &mut sw,
        );
        let mut rw = self.regular_world.clone();
        self.regular.run_functional(&mut rw);
        assert_outputs_agree(
            &self.name,
            (&sw, &self.stream_outputs),
            (&rw, &self.regular_outputs),
            APP_TOLERANCE,
        );
    }
}

/// Relative tolerance between an application's stream and regular
/// outputs: the two versions sum in different orders.
const APP_TOLERANCE: f32 = 1e-3;

/// Assert that a stream program's output arrays equal its regular twin's,
/// pairwise and `f32` by `f32` (records may hold several), to relative
/// tolerance `tol`: the same number of outputs, each of the same length,
/// every value within `tol * max(|regular|, 1)`.
///
/// # Panics
///
/// Panics on any disagreement (a correctness bug), naming `name`.
pub fn assert_outputs_agree(
    name: &str,
    (sw, stream): (&World, &[ArrayId]),
    (rw, regular): (&World, &[ArrayId]),
    tol: f32,
) {
    assert_eq!(stream.len(), regular.len(), "{name}: output count");
    for (&sa, &ra) in stream.iter().zip(regular) {
        let got: &[f32] = sw.array(sa).data.as_slice();
        let want: &[f32] = rw.array(ra).data.as_slice();
        assert_eq!(got.len(), want.len(), "{name}: output length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol * w.abs().max(1.0),
                "{name}: output {i} differs: stream={g} regular={w}"
            );
        }
    }
}
