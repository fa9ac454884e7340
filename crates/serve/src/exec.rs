//! Functional execution of the scheduled jobs on a real worker pool.
//!
//! The scheduler (virtual time) decides *when* everything happens; this
//! module makes sure the jobs it admitted actually *run* — each one
//! pushed through its [`WorkerPool`] thread's own [`FunctionalExecutor`]
//! and bit-compared against its variant's oracle — and that completions
//! land exactly once in per-tenant completion queues. Nothing measured
//! here feeds the latency artifact: pool threads race freely without
//! threatening the byte-identical guarantee.

use crate::job::VariantTable;
use crate::sched::{JobRecord, Outcome};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::{SubmitError, WorkerPool};
use std::sync::{Arc, Mutex};

/// What the execution pool did, cross-checked against the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSummary {
    /// OS threads the pool ran.
    pub pool_threads: usize,
    /// Jobs executed (each oracle-checked).
    pub executed: u64,
    /// Completion-queue depth per tenant.
    pub completed_per_tenant: Vec<u64>,
    /// Jobs each pool thread accepted. Deterministic despite the racing
    /// threads: the submission thread is `worker % pool_threads` and
    /// each thread runs its own ring — but it never enters the artifact.
    pub accepted_per_thread: Vec<u64>,
    /// Jobs each pool thread executed (equals accepted after drain).
    pub executed_per_thread: Vec<u64>,
}

/// Execute every completed record on a `pool_threads`-thread
/// [`WorkerPool`], verify each output against the variant oracle, and
/// retire job ids to per-tenant completion queues.
///
/// The scheduler's worker assignment is folded onto the pool
/// (`worker % pool_threads`), so any pool size replays the same
/// schedule — the determinism gate runs this with several sizes and
/// asserts the artifact bytes never move.
///
/// # Panics
///
/// Panics if a job's functional output diverges from its oracle, if the
/// pool drops or duplicates a job, or if a completion queue disagrees
/// with the schedule — all exactly-once contract violations.
#[must_use]
pub fn execute(
    table: &Arc<VariantTable>,
    records: &[JobRecord],
    pool_threads: usize,
) -> ExecSummary {
    assert!(pool_threads > 0, "need at least one pool thread");
    let tenants = table_tenants(records);
    let queues: Arc<Vec<Mutex<Vec<usize>>>> =
        Arc::new((0..tenants).map(|_| Mutex::new(Vec::new())).collect());

    let handler_table = Arc::clone(table);
    let handler_queues = Arc::clone(&queues);
    // One executor per pool thread, so each thread replays every job on
    // one SRF it never clears; only its own thread locks it.
    let executors: Vec<Mutex<FunctionalExecutor>> =
        (0..pool_threads).map(|_| Mutex::new(FunctionalExecutor::new())).collect();
    let mut pool = WorkerPool::new(
        pool_threads,
        256,
        move |thread, (id, tenant, variant): (usize, usize, usize)| {
            let v = &handler_table.variants[variant];
            let mut world = v.world.clone();
            executors[thread].lock().expect("replay executor poisoned").run(
                &v.compiled.schedule,
                &v.compiled.graph,
                &mut world,
            );
            assert_eq!(
                world.array(v.output).data.as_bytes(),
                v.oracle.as_slice(),
                "job {id} ({}) diverged from its oracle",
                v.label,
            );
            handler_queues[tenant].lock().expect("completion queue poisoned").push(id);
        },
    );

    let mut submitted = 0u64;
    for r in records {
        let Outcome::Completed { worker, .. } = r.outcome else { continue };
        let mut job = (r.id, r.tenant, r.variant);
        let thread = worker % pool_threads;
        loop {
            match pool.submit(thread, job) {
                Ok(()) => break,
                Err((SubmitError::Full, back)) => {
                    job = back;
                    std::thread::yield_now();
                }
                Err((SubmitError::Draining, _)) => {
                    unreachable!("pool drains only after every submit")
                }
            }
        }
        submitted += 1;
    }
    let stats = pool.drain();
    assert_eq!(stats.accepted.iter().sum::<u64>(), submitted, "pool accepted every submitted job");
    assert_eq!(stats.executed.iter().sum::<u64>(), submitted, "pool executed every accepted job");

    // Exactly-once retirement: each tenant's completion queue must hold
    // precisely the ids the schedule completed for that tenant.
    let mut completed_per_tenant = vec![0u64; tenants];
    for (tenant, queue) in queues.iter().enumerate() {
        let mut got = queue.lock().expect("completion queue poisoned").clone();
        got.sort_unstable();
        let want: Vec<usize> = records
            .iter()
            .filter(|r| r.tenant == tenant && matches!(r.outcome, Outcome::Completed { .. }))
            .map(|r| r.id)
            .collect();
        assert_eq!(got, want, "tenant {tenant} completion queue diverged from the schedule");
        completed_per_tenant[tenant] = got.len() as u64;
    }
    ExecSummary {
        pool_threads,
        executed: submitted,
        completed_per_tenant,
        accepted_per_thread: stats.accepted,
        executed_per_thread: stats.executed,
    }
}

fn table_tenants(records: &[JobRecord]) -> usize {
    records.iter().map(|r| r.tenant + 1).max().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::build_table;
    use crate::load::{Arrivals, LoadConfig};
    use crate::sched::{schedule_stream, RecordKeeper, SchedConfig};

    #[test]
    fn executes_a_small_schedule_exactly_once_on_any_pool_size() {
        let table = Arc::new(build_table("ldstcomp", 1).expect("known workload"));
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
        let records = keeper.into_records();
        for pool_threads in [1, 3] {
            let exec = execute(&table, &records, pool_threads);
            assert_eq!(exec.executed, stats.completed);
            assert_eq!(
                exec.completed_per_tenant, stats.completed_per_tenant,
                "pool_threads={pool_threads}"
            );
            assert_eq!(exec.accepted_per_thread.len(), pool_threads);
            assert_eq!(exec.accepted_per_thread, exec.executed_per_thread);
            assert_eq!(exec.executed_per_thread.iter().sum::<u64>(), exec.executed);
        }
    }
}
