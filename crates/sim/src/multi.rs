//! Multi-GPU distributed data-parallel epoch simulation (Figure 5 / 6).
//!
//! SALIENT "straightforwardly applies the PyTorch DDP module and performs
//! distributed communications with the NCCL backend" (§6). Each rank runs
//! the full pipelined single-GPU schedule on its shard of the (batch-size ×
//! ranks) effective batch; after every iteration's backward pass a ring
//! all-reduce synchronizes gradients before the next iteration may start.

use crate::cost::CostModel;
use crate::schedules::{run_epoch, EpochConfig};

/// Multi-GPU run configuration.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Per-rank configuration (level is forced to
    /// [`OptLevel::Pipelined`](crate::OptLevel::Pipelined) for SALIENT runs;
    /// baseline multi-GPU uses the given level).
    pub base: EpochConfig,
    /// Number of GPUs (ranks). Batch size is per GPU, as in Table 5.
    pub ranks: usize,
    /// GPUs per machine (2 V100s in the paper's cluster); communication
    /// within one machine uses the PCIe fabric, across machines the NIC.
    pub gpus_per_machine: usize,
}

/// Result of a multi-GPU epoch simulation.
#[derive(Clone, Copy, Debug)]
pub struct MultiGpuReport {
    /// Virtual epoch seconds.
    pub epoch_s: f64,
}

/// Simulates one distributed training epoch: every rank runs the
/// single-GPU schedule of its ladder level on its shard, and a ring
/// all-reduce of the gradients closes each step.
///
/// # Panics
///
/// Panics if `ranks == 0`.
pub fn simulate_multi_gpu(cfg: &MultiGpuConfig, model: &CostModel) -> MultiGpuReport {
    assert!(cfg.ranks > 0, "need at least one rank");
    let base = &cfg.base;
    let grad_bytes = base.arch.param_bytes(base.stats.feat_dim, base.hidden, base.classes);
    let allreduce_ns = model.allreduce_ns(cfg.ranks, cfg.gpus_per_machine, grad_bytes);
    let batches = base.stats.batches_per_epoch(base.batch_size * cfg.ranks);
    let run = run_epoch(base, model, cfg.ranks, batches, false, allreduce_ns as u64);
    MultiGpuReport {
        epoch_s: run.ex.makespan as f64 / 1e9,
    }
}

/// Sweeps rank counts (Figure 5) and returns `(ranks, epoch_s)` pairs.
pub fn scaling_sweep(
    base: &EpochConfig,
    ranks: &[usize],
    model: &CostModel,
) -> Vec<(usize, f64)> {
    ranks
        .iter()
        .map(|&r| {
            let cfg = MultiGpuConfig {
                base: base.clone(),
                ranks: r,
                gpus_per_machine: 2,
            };
            (r, simulate_multi_gpu(&cfg, model).epoch_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedules::{simulate_epoch, OptLevel};
    use salient_graph::DatasetStats;
    use salient_pipeline::shape::{self, ResourceKind, TRANSFER_QUEUE_CAP};

    fn base(stats: DatasetStats) -> EpochConfig {
        EpochConfig::paper_default(stats, OptLevel::Pipelined)
    }

    #[test]
    fn single_rank_is_the_single_gpu_schedule_to_the_nanosecond() {
        let m = CostModel::paper_hardware();
        for stats in DatasetStats::all() {
            for level in OptLevel::ladder() {
                let cfg = MultiGpuConfig {
                    base: EpochConfig::paper_default(stats.clone(), level),
                    ranks: 1,
                    gpus_per_machine: 2,
                };
                let multi = simulate_multi_gpu(&cfg, &m).epoch_s;
                let single = simulate_epoch(&cfg.base, &m).epoch_s;
                assert_eq!(multi, single, "{} at {level:?}", stats.name);
            }
        }
    }

    /// The 2-rank Pipelined DAG is the shared stage shape per rank — every
    /// task on its resource class, every transfer behind the double buffer —
    /// plus one all-reduce barrier per step.
    #[test]
    fn two_rank_schedule_is_the_stage_shape_per_rank_behind_the_double_buffer() {
        let batches = 2 * (TRANSFER_QUEUE_CAP + 1);
        let cfg = base(DatasetStats::arxiv());
        let sim = run_epoch(&cfg, &CostModel::paper_hardware(), 2, batches, false, 1_000).sim;
        let task = |label: String| {
            let id = sim.tasks().iter().position(|t| t.label == label);
            id.unwrap_or_else(|| panic!("no task {label}"))
        };
        let resource_of = |id: usize| sim.resources()[sim.tasks()[id].resource].name.as_str();
        assert_eq!(sim.tasks().len(), 2 * batches * (shape::train().len() + 1));
        for (r, b) in (0..2).flat_map(|r| (0..batches).map(move |b| (r, b))) {
            for stage in shape::train() {
                let class = match stage.resource {
                    ResourceKind::Workers => "cpu-workers",
                    ResourceKind::Dma => "dma",
                    ResourceKind::Gpu => "gpu",
                };
                let id = task(format!("{}[{b},{r}]", stage.sim_task));
                assert_eq!(resource_of(id), format!("{class}[{r}]"));
            }
            let allreduce = task(format!("allreduce[{b},{r}]"));
            assert_eq!(resource_of(allreduce), format!("nic[{r}]"));
            let step = [task(format!("train[{b},0]")), task(format!("train[{b},1]"))];
            assert_eq!(sim.tasks()[allreduce].deps, step);
            if b > 0 {
                let train = &sim.tasks()[task(format!("train[{b},{r}]"))];
                assert!(train.deps.contains(&task(format!("allreduce[{},{r}]", b - 1))));
            }
            if b > TRANSFER_QUEUE_CAP {
                let gate = task(format!("train[{},{r}]", b - TRANSFER_QUEUE_CAP - 1));
                let transfer = &sim.tasks()[task(format!("transfer[{b},{r}]"))];
                assert!(transfer.deps.contains(&gate), "transfer[{b},{r}] lacks its double-buffer gate");
            }
        }
    }

    #[test]
    fn papers_16_gpu_epoch_near_2s() {
        // §1: "training takes 2.0 seconds per epoch" with 16 GPUs.
        let cfg = MultiGpuConfig {
            base: base(DatasetStats::papers()),
            ranks: 16,
            gpus_per_machine: 2,
        };
        let t = simulate_multi_gpu(&cfg, &CostModel::paper_hardware()).epoch_s;
        assert!((1.0..3.5).contains(&t), "papers 16-GPU epoch ≈2.0 s, got {t:.2}");
    }

    #[test]
    fn figure5_speedup_bands() {
        // "With 16 GPUs, the speedup ranges from 4.45× to 8.05×", larger
        // datasets scaling better.
        let m = CostModel::paper_hardware();
        let mut speedups = Vec::new();
        for stats in DatasetStats::all() {
            let sweep = scaling_sweep(&base(stats.clone()), &[1, 16], &m);
            let speedup = sweep[0].1 / sweep[1].1;
            assert!(
                (3.0..12.0).contains(&speedup),
                "{}: 16-GPU speedup {speedup:.2} outside plausible band",
                stats.name
            );
            speedups.push((stats.name, speedup));
        }
        let arxiv = speedups[0].1;
        let papers = speedups[2].1;
        assert!(
            papers > arxiv,
            "bigger graphs amortize startup latency better: papers {papers:.2} vs arxiv {arxiv:.2}"
        );
    }

    #[test]
    fn scaling_is_monotone_in_ranks() {
        let m = CostModel::paper_hardware();
        let sweep = scaling_sweep(&base(DatasetStats::papers()), &[1, 2, 4, 8, 16], &m);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 < pair[0].1 * 1.02,
                "epoch time should not regress with more GPUs: {:?}",
                sweep
            );
        }
    }
}
