//! Discrete-event simulation core: tasks with dependencies executing on
//! multi-server FIFO resources under a virtual clock.
//!
//! The timing experiments of the paper (Tables 1–3, Figures 1 and 4–6)
//! measure how a fixed *schedule shape* — which stages block which, what
//! overlaps what — interacts with stage throughputs. This module executes
//! such schedules exactly: an epoch is compiled to a DAG of [`TaskSpec`]s
//! over [`ResourceSpec`]s (CPU worker pools, a DMA engine, GPU streams, a
//! NIC), and [`Simulation::run`] produces per-task start/end times and the
//! epoch makespan, deterministically and independently of host hardware.
//!
//! Scheduling policy: non-preemptive, FIFO per resource in task *ready*
//! order (ties broken by task id), matching queue semantics of the systems
//! being modeled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds.
pub(crate) type SimTime = u64;

/// Index of a task within a [`Simulation`].
pub(crate) type TaskId = usize;

/// Index of a resource within a [`Simulation`].
pub(crate) type ResourceId = usize;

/// A pool of identical servers (e.g. "20 CPU workers", "1 DMA engine").
#[derive(Clone, Debug)]
pub struct ResourceSpec {
    /// Human-readable name used in timeline exports.
    pub name: String,
    /// Number of servers that can run tasks concurrently.
    pub servers: usize,
}

/// One unit of work bound to a resource.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Label for timeline exports (e.g. `"sample[b3]"`).
    pub label: String,
    /// The resource this task occupies while running.
    pub resource: ResourceId,
    /// Service duration in virtual nanoseconds.
    pub duration: SimTime,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
}

/// A complete schedule: resources plus a task DAG.
#[derive(Clone, Debug, Default)]
pub struct Simulation {
    resources: Vec<ResourceSpec>,
    tasks: Vec<TaskSpec>,
}

/// The result of executing a [`Simulation`].
#[derive(Clone, Debug)]
pub struct Executed {
    /// Start time of each task.
    pub start: Vec<SimTime>,
    /// End time of each task.
    pub end: Vec<SimTime>,
    /// Which server of its resource each task ran on (for timeline lanes).
    pub server: Vec<usize>,
    /// Time at which the last task finished.
    pub makespan: SimTime,
    /// Busy time accumulated per resource.
    pub busy: Vec<SimTime>,
}

impl Executed {
    /// Utilization of a resource over the makespan: busy time divided by
    /// `servers × makespan`.
    pub(crate) fn utilization(&self, sim: &Simulation, resource: ResourceId) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.busy[resource] as f64
            / (self.makespan as f64 * sim.resources[resource].servers as f64)
    }
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource pool and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn resource(&mut self, name: impl Into<String>, servers: usize) -> ResourceId {
        assert!(servers > 0, "resource needs at least one server");
        self.resources.push(ResourceSpec {
            name: name.into(),
            servers,
        });
        self.resources.len() - 1
    }

    /// Adds a task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the resource id is unknown or a dependency refers to a
    /// not-yet-added task (the DAG must be constructed in topological
    /// order).
    pub fn task(
        &mut self,
        label: impl Into<String>,
        resource: ResourceId,
        duration: SimTime,
        deps: impl Into<Vec<TaskId>>,
    ) -> TaskId {
        let deps = deps.into();
        assert!(resource < self.resources.len(), "unknown resource");
        let id = self.tasks.len();
        assert!(
            deps.iter().all(|&d| d < id),
            "dependencies must be added before dependents"
        );
        self.tasks.push(TaskSpec {
            label: label.into(),
            resource,
            duration,
            deps,
        });
        id
    }

    /// The registered resources.
    pub fn resources(&self) -> &[ResourceSpec] {
        &self.resources
    }

    /// The registered tasks.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Executes the schedule and returns per-task times.
    ///
    /// Runs in `O((T + E) log T)` for `T` tasks and `E` dependency edges.
    pub fn run(&self) -> Executed {
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        let mut children: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, t) in self.tasks.iter().enumerate() {
            indeg[id] = t.deps.len();
            for &d in &t.deps {
                children[d].push(id);
            }
        }

        // Per-resource server pools: min-heaps of (free_at, server_index).
        let mut servers: Vec<BinaryHeap<Reverse<(SimTime, usize)>>> = self
            .resources
            .iter()
            .map(|r| (0..r.servers).map(|s| Reverse((0, s))).collect())
            .collect();

        // Ready events in (ready_time, task_id) order.
        let mut ready: BinaryHeap<Reverse<(SimTime, TaskId)>> = BinaryHeap::new();
        let mut ready_at = vec![0 as SimTime; n];
        for (id, t) in self.tasks.iter().enumerate() {
            if t.deps.is_empty() {
                ready.push(Reverse((0, id)));
            }
        }

        let mut start = vec![0 as SimTime; n];
        let mut end = vec![0 as SimTime; n];
        let mut server_of = vec![0usize; n];
        let mut busy = vec![0 as SimTime; self.resources.len()];
        let mut makespan = 0;
        let mut done = 0usize;

        while let Some(Reverse((r_time, id))) = ready.pop() {
            let t = &self.tasks[id];
            let pool = &mut servers[t.resource];
            #[expect(clippy::expect_used, reason = "`resource` asserts servers > 0, and every pop below is followed by a push to the same pool")]
            let Reverse((free_at, srv)) = pool.pop().expect("resource has servers");
            let s = r_time.max(free_at);
            let e = s + t.duration;
            pool.push(Reverse((e, srv)));
            start[id] = s;
            end[id] = e;
            server_of[id] = srv;
            busy[t.resource] += t.duration;
            makespan = makespan.max(e);
            done += 1;
            for &c in &children[id] {
                ready_at[c] = ready_at[c].max(e);
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    ready.push(Reverse((ready_at[c], c)));
                }
            }
        }
        assert_eq!(done, n, "dependency cycle: {} tasks never became ready", n - done);

        Executed {
            start,
            end,
            server: server_of,
            makespan,
            busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 1);
        let t = sim.task("work", cpu, 100, vec![]);
        let ex = sim.run();
        assert_eq!(ex.start[t], 0);
        assert_eq!(ex.end[t], 100);
        assert_eq!(ex.makespan, 100);
        assert_eq!(ex.utilization(&sim, cpu), 1.0);
    }

    #[test]
    fn chain_serializes() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 4);
        let a = sim.task("a", cpu, 10, vec![]);
        let b = sim.task("b", cpu, 20, vec![a]);
        let c = sim.task("c", cpu, 30, vec![b]);
        let ex = sim.run();
        assert_eq!(ex.start[b], 10);
        assert_eq!(ex.start[c], 30);
        assert_eq!(ex.makespan, 60);
    }

    #[test]
    fn parallel_tasks_share_servers() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 2);
        for _ in 0..4 {
            sim.task("w", cpu, 50, vec![]);
        }
        let ex = sim.run();
        // 4 tasks × 50 on 2 servers → 100.
        assert_eq!(ex.makespan, 100);
        assert!((ex.utilization(&sim, cpu) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_order_by_ready_time() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 1);
        let gate = sim.resource("gate", 1);
        // b becomes ready at 5 (after g), a at 0; a must run first.
        let g = sim.task("g", gate, 5, vec![]);
        let b = sim.task("b", cpu, 10, vec![g]);
        let a = sim.task("a", cpu, 10, vec![]);
        let ex = sim.run();
        assert_eq!(ex.start[a], 0);
        assert_eq!(ex.start[b], 10, "later-ready task queues behind");
    }

    #[test]
    fn diamond_dependency_waits_for_both() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 2);
        let a = sim.task("a", cpu, 10, vec![]);
        let b = sim.task("b", cpu, 25, vec![]);
        let c = sim.task("c", cpu, 5, vec![a, b]);
        let ex = sim.run();
        assert_eq!(ex.start[c], 25);
        assert_eq!(ex.makespan, 30);
    }

    #[test]
    fn pipeline_overlap_reduces_makespan() {
        // Two-stage pipeline, 3 items: serial = 3*(10+10)=60,
        // pipelined = 10 + 3*10 = 40.
        let mut sim = Simulation::new();
        let s1 = sim.resource("stage1", 1);
        let s2 = sim.resource("stage2", 1);
        let mut prev = None;
        for i in 0..3 {
            let a = sim.task(format!("s1[{i}]"), s1, 10, vec![]);
            let deps = match prev {
                Some(p) => vec![a, p],
                None => vec![a],
            };
            prev = Some(sim.task(format!("s2[{i}]"), s2, 10, deps));
        }
        let ex = sim.run();
        assert_eq!(ex.makespan, 40);
    }

    #[test]
    fn zero_duration_tasks_are_fine() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 1);
        let a = sim.task("a", cpu, 0, vec![]);
        let b = sim.task("b", cpu, 7, vec![a]);
        let ex = sim.run();
        assert_eq!(ex.start[b], 0);
        assert_eq!(ex.makespan, 7);
    }

    #[test]
    #[should_panic(expected = "before dependents")]
    fn forward_dependency_rejected() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 1);
        sim.task("a", cpu, 1, vec![3]);
    }

    #[test]
    fn busy_accounting() {
        let mut sim = Simulation::new();
        let cpu = sim.resource("cpu", 1);
        let gpu = sim.resource("gpu", 1);
        let a = sim.task("a", cpu, 30, vec![]);
        sim.task("b", gpu, 10, vec![a]);
        let ex = sim.run();
        assert_eq!(ex.busy[cpu], 30);
        assert_eq!(ex.busy[gpu], 10);
        assert_eq!(ex.makespan, 40);
        assert!((ex.utilization(&sim, gpu) - 0.25).abs() < 1e-9);
    }
}
