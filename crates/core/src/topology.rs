//! Queue topology: how task classes map onto hardware contexts.
//!
//! The paper fixes the mapping at two hyper-threading contexts — one
//! *memory* thread running gathers/scatters and one *compute* thread
//! running kernels. [`Topology`] generalizes that to N contexts, each
//! with a [`ContextRole`] saying which task classes its queue accepts:
//! the default [`Topology::two_context`] reproduces the paper's split,
//! while [`Topology::scaled`] builds pipeline/farm-style layouts in the
//! spirit of FastFlow (see PAPERS.md) where several contexts share a
//! class and tasks are dealt round-robin across them.
//!
//! Both executors consume the same assignment: the simulator lowers each
//! task onto the op stream of its assigned machine context, and the
//! native executor spawns one worker (with its own SPSC ring) per
//! context. Determinism matters — [`Topology::assign`] is a pure
//! function of the schedule, so two runs agree on every queue.

use crate::task::{ScheduledProgram, TaskDesc};

/// Which task classes one context's queue accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextRole {
    /// Kernels only (the paper's compute thread).
    Compute,
    /// Gathers and scatters only (the paper's memory thread).
    Memory,
    /// Any task class (a farm worker).
    General,
}

impl ContextRole {
    /// Whether a task of the given class may be queued on this context.
    #[must_use]
    pub fn accepts(self, is_memory: bool) -> bool {
        match self {
            ContextRole::Compute => !is_memory,
            ContextRole::Memory => is_memory,
            ContextRole::General => true,
        }
    }
}

/// An assignment of task classes to hardware contexts / worker threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    roles: Vec<ContextRole>,
}

impl Default for Topology {
    /// The paper's layout: context 0 computes, context 1 moves memory.
    fn default() -> Self {
        Self::two_context()
    }
}

impl Topology {
    /// Build a topology from explicit per-context roles.
    ///
    /// # Panics
    ///
    /// Panics if `roles` is empty.
    #[must_use]
    pub fn new(roles: Vec<ContextRole>) -> Self {
        assert!(!roles.is_empty(), "a topology needs at least one context");
        Topology { roles }
    }

    /// The paper's two-context split: context 0 runs kernels, context 1
    /// runs gathers and scatters.
    #[must_use]
    pub fn two_context() -> Self {
        Self::new(vec![ContextRole::Compute, ContextRole::Memory])
    }

    /// One general-purpose context executing every task class in order.
    #[must_use]
    pub fn single() -> Self {
        Self::new(vec![ContextRole::General])
    }

    /// A pipeline scaled to `n` contexts: `n == 1` is [`Topology::single`];
    /// otherwise contexts alternate Compute, Memory, Compute, Memory, …
    /// so `n == 2` reproduces [`Topology::two_context`] and larger `n`
    /// farms each class over `n / 2` (rounded up for compute) contexts.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn scaled(n: usize) -> Self {
        assert!(n > 0, "a topology needs at least one context");
        if n == 1 {
            return Self::single();
        }
        Self::new(
            (0..n)
                .map(|c| if c % 2 == 0 { ContextRole::Compute } else { ContextRole::Memory })
                .collect(),
        )
    }

    /// Number of contexts in the topology.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.roles.len()
    }

    /// Contexts whose queue accepts the given task class, in index order.
    fn accepting(&self, is_memory: bool) -> impl Iterator<Item = usize> + '_ {
        self.roles.iter().enumerate().filter(move |(_, r)| r.accepts(is_memory)).map(|(c, _)| c)
    }

    /// Deterministically assign every task to a context: tasks of each
    /// class are dealt round-robin (in task-id order) across the contexts
    /// accepting that class. With the default two-context topology this
    /// reproduces the paper's kind-based split exactly — every memory
    /// task on context 1, every kernel on context 0.
    ///
    /// # Panics
    ///
    /// Panics if some task's class has no accepting context (run
    /// [`Topology::validate_for`] first for a `Result`).
    #[must_use]
    pub fn assign(&self, tasks: &[TaskDesc]) -> Vec<usize> {
        let mem_ctxs: Vec<usize> = self.accepting(true).collect();
        let comp_ctxs: Vec<usize> = self.accepting(false).collect();
        let (mut next_mem, mut next_comp) = (0usize, 0usize);
        tasks
            .iter()
            .map(|t| {
                if t.kind.is_memory() {
                    assert!(!mem_ctxs.is_empty(), "no context accepts memory tasks");
                    let c = mem_ctxs[next_mem % mem_ctxs.len()];
                    next_mem += 1;
                    c
                } else {
                    assert!(!comp_ctxs.is_empty(), "no context accepts compute tasks");
                    let c = comp_ctxs[next_comp % comp_ctxs.len()];
                    next_comp += 1;
                    c
                }
            })
            .collect()
    }

    /// Check that every task class present in `program` has at least one
    /// accepting context.
    ///
    /// # Errors
    ///
    /// Returns a description of the first uncovered class.
    pub fn validate_for(&self, program: &ScheduledProgram) -> Result<(), String> {
        for t in &program.tasks {
            let is_mem = t.kind.is_memory();
            if !self.roles.iter().any(|r| r.accepts(is_mem)) {
                let class = if is_mem { "memory" } else { "compute" };
                return Err(format!(
                    "topology {:?} has no context accepting {class} tasks (task {:?})",
                    self.roles, t.id
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{KernelId, StreamId};
    use crate::task::{PortBinding, TaskDesc, TaskId, TaskKind};

    fn binding() -> PortBinding {
        PortBinding { stream: StreamId(0), srf_offset: 0, elems: 0..8, elem_bytes: 4 }
    }

    fn gather(id: u32) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            kind: TaskKind::Gather { binding: binding(), nt: false },
            deps: Vec::new(),
            strip: 0,
        }
    }

    fn kernel(id: u32) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            kind: TaskKind::Kernel {
                kernel: KernelId(0),
                items: 0..8,
                inputs: vec![binding()],
                outputs: Vec::new(),
            },
            deps: Vec::new(),
            strip: 0,
        }
    }

    #[test]
    fn two_context_reproduces_kind_split() {
        let t = Topology::two_context();
        let tasks = vec![gather(0), kernel(1), gather(2), kernel(3)];
        assert_eq!(t.assign(&tasks), vec![1, 0, 1, 0], "memory -> ctx1, compute -> ctx0");
    }

    #[test]
    fn single_topology_takes_everything() {
        let t = Topology::single();
        let tasks = vec![gather(0), kernel(1)];
        assert_eq!(t.assign(&tasks), vec![0, 0]);
    }

    #[test]
    fn scaled_matches_fixed_points() {
        assert_eq!(Topology::scaled(1), Topology::single());
        assert_eq!(Topology::scaled(2), Topology::two_context());
        let four = Topology::scaled(4);
        assert_eq!(
            four.roles,
            [ContextRole::Compute, ContextRole::Memory, ContextRole::Compute, ContextRole::Memory]
        );
    }

    #[test]
    fn farm_deals_round_robin() {
        let t = Topology::scaled(4);
        // Memory tasks deal across contexts 1 and 3, kernels across 0 and 2.
        let tasks = vec![gather(0), gather(1), gather(2), kernel(3), kernel(4), kernel(5)];
        assert_eq!(t.assign(&tasks), vec![1, 3, 1, 0, 2, 0]);
    }

    #[test]
    fn uncovered_class_is_rejected() {
        let t = Topology::new(vec![ContextRole::Memory]);
        let prog = ScheduledProgram { tasks: vec![kernel(0)], ..ScheduledProgram::default() };
        assert!(t.validate_for(&prog).is_err());
        let covered = ScheduledProgram { tasks: vec![gather(0)], ..ScheduledProgram::default() };
        assert!(t.validate_for(&covered).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn empty_topology_panics() {
        let _ = Topology::new(Vec::new());
    }
}
