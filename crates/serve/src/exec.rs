//! Functional replay of the scheduled jobs on real threads.
//!
//! The scheduler (virtual time) decides *when* everything happens; this
//! module makes sure the jobs it completed actually *run* — each one
//! pushed through a [`FunctionalExecutor`] and bit-compared against its
//! variant's oracle — and that every completed id is replayed exactly
//! once. No job depends on another and all of them are known before the
//! first one runs, so the replay is one [`fanout::map`] over fixed
//! partitions of the records. Nothing measured here feeds the latency
//! artifact: the threads race freely without threatening the
//! byte-identical guarantee.

use crate::job::VariantTable;
use crate::sched::{JobRecord, Outcome};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_util::fanout;

/// What the replay did, cross-checked against the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSummary {
    /// Jobs executed (each oracle-checked).
    pub executed: u64,
    /// Jobs replayed per tenant.
    pub completed_per_tenant: Vec<u64>,
}

/// Execute every completed record on `threads` threads, verify each
/// output against the variant oracle, and check that each tenant's
/// replayed ids are exactly the ids the schedule completed for it.
///
/// The scheduler's worker assignment is folded onto the threads: a
/// record goes to partition `worker % threads`, in id order, and each
/// partition replays its jobs on one [`FunctionalExecutor`] whose SRF it
/// never clears. Any thread count replays the same schedule — the
/// determinism gate runs this with several counts and asserts the
/// artifact bytes never move. At 1 it runs inline and spawns nothing.
///
/// # Panics
///
/// Panics if a job's functional output diverges from its oracle (with
/// that job's own message, whichever thread ran it), or if the replayed
/// ids disagree with the schedule — an exactly-once contract violation.
#[must_use]
pub fn execute(table: &VariantTable, records: &[JobRecord], threads: usize) -> ExecSummary {
    assert!(threads > 0, "need at least one replay thread");
    let mut partitions: Vec<Vec<&JobRecord>> = vec![Vec::new(); threads];
    for r in records {
        if let Outcome::Completed { worker, .. } = r.outcome {
            partitions[worker % threads].push(r);
        }
    }
    let replayed = fanout::map(&partitions, threads, |partition| {
        let mut executor = FunctionalExecutor::new();
        let replay = |r: &JobRecord| {
            let v = &table.variants[r.variant];
            let mut world = v.world.clone();
            executor.run(&v.compiled.schedule, &v.compiled.graph, &mut world);
            assert_eq!(
                world.array(v.output).data.as_bytes(),
                v.oracle.as_slice(),
                "job {} ({}) diverged from its oracle",
                r.id,
                v.label,
            );
            (r.tenant, r.id)
        };
        partition.iter().copied().map(replay).collect::<Vec<_>>()
    });

    // Exactly-once retirement: each tenant's replayed ids must be
    // precisely the ids the schedule completed for that tenant.
    let tenants = records.iter().map(|r| r.tenant + 1).max().unwrap_or(1);
    let mut got = vec![Vec::new(); tenants];
    for (tenant, id) in replayed.into_iter().flatten() {
        got[tenant].push(id);
    }
    let mut completed_per_tenant = vec![0u64; tenants];
    for (tenant, ids) in got.iter_mut().enumerate() {
        ids.sort_unstable();
        let want: Vec<usize> = records
            .iter()
            .filter(|r| r.tenant == tenant && matches!(r.outcome, Outcome::Completed { .. }))
            .map(|r| r.id)
            .collect();
        assert_eq!(*ids, want, "tenant {tenant} replayed ids diverged from the schedule");
        completed_per_tenant[tenant] = ids.len() as u64;
    }
    ExecSummary { executed: completed_per_tenant.iter().sum(), completed_per_tenant }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::build_table;
    use crate::load::{Arrivals, LoadConfig};
    use crate::sched::{schedule_stream, RecordKeeper, SchedConfig, SchedStats};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A 120-job, three-tenant `ldstcomp` schedule on two workers.
    fn small_schedule() -> (VariantTable, Vec<JobRecord>, SchedStats) {
        let table = build_table("ldstcomp", 1).expect("known workload");
        let offered = Arrivals::new(&LoadConfig {
            jobs: 120,
            mean_interarrival: 50_000,
            tenants: 3,
            arrival_shares: vec![2, 1, 1],
            variants: table.variants.len(),
            seed: 9,
        });
        let cfg = SchedConfig {
            workers: 2,
            bounded: true,
            queue_cap: 64,
            batch_max: 4,
            dispatch_cycles: 100,
            retry_after: 10_000,
            max_retries: 2,
            weights: vec![1, 1, 1],
            check_invariants: true,
        };
        let mut keeper = RecordKeeper::new(1);
        let stats = schedule_stream(offered, &table.service_cycles(), &cfg, &mut keeper);
        (table, keeper.into_records(), stats)
    }

    #[test]
    fn executes_a_small_schedule_exactly_once_on_any_thread_count() {
        let (table, records, stats) = small_schedule();
        for threads in [1, 3] {
            let exec = execute(&table, &records, threads);
            assert_eq!(exec.executed, stats.completed, "threads={threads}");
            assert_eq!(exec.completed_per_tenant, stats.completed_per_tenant, "threads={threads}");
        }
    }

    #[test]
    fn a_job_that_misses_its_oracle_panics_with_its_own_message() {
        let (mut table, records, _) = small_schedule();
        let bad = 2;
        table.variants[bad].oracle[0] ^= 1;
        let label = table.variants[bad].label.clone();
        for threads in [1, 3] {
            let payload = catch_unwind(AssertUnwindSafe(|| execute(&table, &records, threads)))
                .expect_err("a corrupted oracle must fail the replay");
            let msg = payload.downcast_ref::<String>().expect("the job's formatted message");
            assert!(msg.contains(&format!("({label}) diverged from its oracle")), "{msg}");
            let id: usize = msg
                .split_once("job ")
                .and_then(|(_, rest)| rest.split(' ').next())
                .and_then(|id| id.parse().ok())
                .unwrap_or_else(|| panic!("no job id in {msg:?}"));
            let job = records.iter().find(|r| r.id == id).expect("the named job exists");
            assert_eq!(job.variant, bad, "threads={threads}: {msg}");
            assert!(matches!(job.outcome, Outcome::Completed { .. }), "{msg}");
        }
    }
}
