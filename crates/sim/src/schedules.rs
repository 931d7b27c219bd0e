//! Epoch schedules: the Table-3 optimization ladder compiled to DES task
//! graphs.
//!
//! Four cumulative configurations are modeled, exactly as the paper applies
//! them (§4.4, Table 3):
//!
//! 1. [`OptLevel::PygBaseline`] — multiprocessing sampling workers; the main
//!    thread serially slices (OpenMP), transfers (with per-sparse-tensor
//!    assertion round trips), and blocks on GPU training.
//! 2. [`OptLevel::FastSampling`] — same schedule, SALIENT's 2.5× sampler.
//! 3. [`OptLevel::SharedMemPrep`] — batch-prep threads sample *and* slice
//!    end-to-end into pinned memory; the main thread only transfers and
//!    launches training.
//! 4. [`OptLevel::Pipelined`] — transfers move to a separate stream (DMA
//!    resource), assertions are skipped, and GPU compute overlaps transfer.
//!
//! All four, on one GPU or many, and the inference pass and the what-if
//! projector besides, are one per-batch chain: [`EpochShape::compile`].

use crate::cost::{CostModel, GnnArch, Impl};
use crate::des::{Executed, ResourceId, Simulation, TaskId};
use crate::workload::{expected_batch, BatchWorkload};
use salient_graph::DatasetStats;
use salient_pipeline::shape::{self, ResourceKind, TRANSFER_QUEUE_CAP};

/// Cumulative optimization level (each includes the previous).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Tuned PyG baseline ("None (PyG)" in Table 3).
    PygBaseline,
    /// + fast neighborhood sampling.
    FastSampling,
    /// + shared-memory batch preparation.
    SharedMemPrep,
    /// + pipelined data transfers (full SALIENT).
    Pipelined,
}

impl OptLevel {
    /// The ladder in Table-3 order.
    pub fn ladder() -> [OptLevel; 4] {
        [
            OptLevel::PygBaseline,
            OptLevel::FastSampling,
            OptLevel::SharedMemPrep,
            OptLevel::Pipelined,
        ]
    }

    /// Row label used by the bench harness.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::PygBaseline => "None (PyG)",
            OptLevel::FastSampling => "+ Fast sampling",
            OptLevel::SharedMemPrep => "+ Shared-memory batch prep.",
            OptLevel::Pipelined => "+ Pipelined data transfers",
        }
    }
}

/// Configuration of one simulated training epoch on one GPU.
#[derive(Clone, Debug)]
pub struct EpochConfig {
    /// Dataset statistics (paper scale).
    pub stats: DatasetStats,
    /// Sampling fanouts, PyG order.
    pub fanouts: Vec<usize>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// GNN architecture.
    pub arch: GnnArch,
    /// Hidden dimensionality.
    pub hidden: u32,
    /// Output classes.
    pub classes: u32,
    /// CPU batch-preparation workers per GPU.
    pub cpu_workers: usize,
    /// Optimization ladder level.
    pub level: OptLevel,
}

impl EpochConfig {
    /// The paper's default single-GPU setup for a dataset (Table 5 row).
    pub fn paper_default(stats: DatasetStats, level: OptLevel) -> Self {
        EpochConfig {
            stats,
            fanouts: vec![15, 10, 5],
            batch_size: 1024,
            arch: GnnArch::Sage,
            hidden: 256,
            classes: 172,
            cpu_workers: 20,
            level,
        }
    }
}

/// Blocking-time breakdown of a simulated epoch (the Table-1 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochReport {
    /// Total epoch wall-clock (seconds, virtual).
    pub epoch_s: f64,
    /// Main-loop blocking time attributed to batch preparation.
    pub prep_s: f64,
    /// Blocking time attributed to CPU→GPU transfer.
    pub transfer_s: f64,
    /// Blocking time attributed to GPU training.
    pub train_s: f64,
    /// GPU busy fraction over the epoch.
    pub gpu_util: f64,
}

impl EpochReport {
    /// Percent of epoch attributed to a stage.
    pub fn pct(&self, stage_s: f64) -> f64 {
        if self.epoch_s == 0.0 {
            0.0
        } else {
            100.0 * stage_s / self.epoch_s
        }
    }
}

/// One batch's stage durations in virtual nanoseconds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchNs {
    /// On a pool worker: sampling while the main thread still slices,
    /// end-to-end preparation from [`OptLevel::SharedMemPrep`] on.
    pub(crate) worker: u64,
    /// The main thread's slice (levels below [`OptLevel::SharedMemPrep`]).
    pub(crate) slice: u64,
    pub(crate) transfer: u64,
    pub(crate) device: u64,
}

/// An epoch as the schedule sees it: `ranks` identical pipelines, each
/// running `batches` through worker → host step → device, joined by one
/// all-reduce per step when there is more than one rank.
pub(crate) struct EpochShape<'a> {
    pub(crate) ranks: usize,
    /// Worker-pool width per rank.
    pub(crate) workers: usize,
    /// Workers start batch `b` once the device finished batch `b - prefetch`
    /// (bounded work-ahead); 0 disables the bound.
    pub(crate) prefetch: usize,
    /// Bound of the queue feeding the device at [`OptLevel::Pipelined`]: the
    /// transfer runs at most `queue_cap + 1` batches ahead (`queue_cap` queued
    /// plus one parked in send), a DMA engine's double buffering.
    pub(crate) queue_cap: usize,
    /// Whose host step runs between worker and device (the module docs).
    pub(crate) level: OptLevel,
    /// Name of the device task when it is not the shape's own (`train`).
    pub(crate) device_task: Option<&'static str>,
    pub(crate) batches: &'a [BatchNs],
    pub(crate) allreduce_ns: u64,
}

impl EpochShape<'_> {
    /// Compiles the epoch to a task graph and returns it with rank 0's device
    /// resource (the ranks are identical). Stage names and resource classes
    /// come from the canonical shape shared with the real executor
    /// (`salient_pipeline::shape::train`), so they cannot silently drift
    /// between the two planes. This is the only place a per-batch chain is
    /// written down: every schedule of this crate is a call of it.
    pub(crate) fn compile(&self) -> (Simulation, ResourceId) {
        struct Rank {
            workers: ResourceId,
            main: ResourceId,
            dma: ResourceId,
            gpu: ResourceId,
            nic: Option<ResourceId>,
        }
        let [prep_sh, transfer_sh, train_sh] = shape::train();
        let multi = self.ranks > 1;
        let mut sim = Simulation::new();
        let ranks: Vec<Rank> = (0..self.ranks)
            .map(|r| {
                let of = if multi { format!("[{r}]") } else { String::new() };
                Rank {
                    workers: sim.resource(format!("cpu-workers{of}"), self.workers),
                    main: sim.resource(format!("main{of}"), 1),
                    dma: sim.resource(format!("dma{of}"), 1),
                    gpu: sim.resource(format!("gpu{of}"), 1),
                    nic: multi.then(|| sim.resource(format!("nic{of}"), 1)),
                }
            })
            .collect();
        let class = |rank: &Rank, kind: ResourceKind| match kind {
            ResourceKind::Workers => rank.workers,
            ResourceKind::Dma => rank.dma,
            ResourceKind::Gpu => rank.gpu,
        };
        let sliced = self.level < OptLevel::SharedMemPrep;
        let worker_task = if sliced { "sample" } else { prep_sh.sim_task };
        let device_task = self.device_task.unwrap_or(train_sh.sim_task);

        let mut device: Vec<Vec<TaskId>> = vec![Vec::new(); self.ranks];
        let mut reduced: Vec<Option<TaskId>> = vec![None; self.ranks];
        for (b, ns) in self.batches.iter().enumerate() {
            for (r, rank) in ranks.iter().enumerate() {
                let label = |task: &str| {
                    if multi {
                        format!("{task}[{b},{r}]")
                    } else {
                        format!("{task}[{b}]")
                    }
                };
                // This rank's device task `lag` batches back, if there is one.
                let behind = |lag: usize| match lag {
                    0 => None,
                    _ => b.checked_sub(lag).map(|earlier| device[r][earlier]),
                };
                let gate = Vec::from_iter(behind(self.prefetch));
                let worker = sim.task(label(worker_task), class(rank, prep_sh.resource), ns.worker, gate);
                let mut ready = vec![worker];
                let transfer = if self.level == OptLevel::Pipelined {
                    ready.extend(behind(self.queue_cap + 1));
                    let stream = class(rank, transfer_sh.resource);
                    sim.task(label(transfer_sh.sim_task), stream, ns.transfer, ready)
                } else {
                    // The main thread is busy until the previous batch's
                    // device call returns.
                    ready.extend(behind(1));
                    if sliced {
                        ready = vec![sim.task(label("slice"), rank.main, ns.slice, ready)];
                    }
                    sim.task(label(transfer_sh.sim_task), rank.main, ns.transfer, ready)
                };
                let mut deps = vec![transfer];
                deps.extend(reduced[r]);
                let done = sim.task(label(device_task), class(rank, train_sh.resource), ns.device, deps);
                device[r].push(done);
            }
            // The ring all-reduce starts once every rank finished backward,
            // and the next step's device task waits for it.
            for (r, rank) in ranks.iter().enumerate() {
                if let Some(nic) = rank.nic {
                    let step: Vec<TaskId> = device.iter().map(|done| done[b]).collect();
                    let label = format!("allreduce[{b},{r}]");
                    reduced[r] = Some(sim.task(label, nic, self.allreduce_ns, step));
                }
            }
        }
        (sim, ranks[0].gpu)
    }
}

/// Stage durations of one training batch under `cfg`'s ladder level, and
/// the width of the worker pool that prepares it.
pub(crate) fn stage_durations(cfg: &EpochConfig, m: &CostModel, w: &BatchWorkload) -> (BatchNs, usize) {
    let p = cfg.cpu_workers;
    let (sampler, slicer) = match cfg.level {
        OptLevel::PygBaseline => (Impl::Pyg, Impl::Pyg),
        _ => (Impl::Salient, Impl::Salient),
    };
    // Per-batch duration on one worker inflates with P active workers such
    // that aggregate throughput follows the calibrated Amdahl curve.
    let contention = |serial: f64, workers: usize| serial * workers as f64 + (1.0 - serial);
    let sample_t1 = m.sample_batch_ns(sampler, w);
    let (worker, workers) = if cfg.level < OptLevel::SharedMemPrep {
        // The multiprocessing baseline runs fewer sampling workers than
        // hardware cores (the main process's OpenMP slicing needs cores too).
        let workers = m.pyg_dataloader_workers.min(p);
        (sample_t1 * contention(m.sample_serial_frac_pyg, workers), workers)
    } else {
        // Shared-memory prep: sample + serial slice end-to-end on a worker,
        // zero-copy into pinned memory (no IPC term).
        let prep = sample_t1 * contention(m.sample_serial_frac_salient, p)
            + m.slice_batch_ns(Impl::Salient, w) * contention(m.slice_serial_frac_salient, p)
            + m.salient_batch_overhead_ns;
        (prep, p)
    };
    // Baseline slicing runs on the main thread with OpenMP across all
    // cores, after receiving the sampled MFG from a worker process over
    // IPC. The calibrated PyG slice bandwidth and serial fraction already
    // include the shared-memory slicing overheads (fitted to Table 2).
    let slice = CostModel::parallel_time(m.slice_batch_ns(slicer, w), p, m.slice_serial_frac_pyg)
        + m.ipc_receive_ns(w);
    let transfer = m.transfer_batch_ns(w, cfg.level == OptLevel::Pipelined);
    let train = m.gpu_train_batch_ns(cfg.arch, w, cfg.hidden, cfg.classes);
    let ns = BatchNs {
        worker: worker as u64,
        slice: slice as u64,
        transfer: transfer as u64,
        device: train as u64,
    };
    (ns, workers)
}

/// An executed epoch of identical batches.
pub(crate) struct EpochRun {
    pub(crate) batch: BatchNs,
    pub(crate) sim: Simulation,
    pub(crate) ex: Executed,
    /// Rank 0's device resource.
    pub(crate) gpu: ResourceId,
}

/// Compiles and runs `batches` steps of `cfg` on `ranks` GPUs (batch size is
/// per GPU), an all-reduce of `allreduce_ns` closing every step;
/// `forward_only` swaps the training step for an inference batch.
pub(crate) fn run_epoch(
    cfg: &EpochConfig,
    model: &CostModel,
    ranks: usize,
    batches: usize,
    forward_only: bool,
    allreduce_ns: u64,
) -> EpochRun {
    let w = expected_batch(&cfg.stats, &cfg.fanouts, cfg.batch_size);
    let (mut batch, workers) = stage_durations(cfg, model, &w);
    if forward_only {
        batch.device = model.gpu_infer_batch_ns(cfg.arch, &w, cfg.hidden, cfg.classes) as u64;
    }
    let (sim, gpu) = EpochShape {
        ranks,
        workers,
        prefetch: 2 * cfg.cpu_workers,
        queue_cap: TRANSFER_QUEUE_CAP,
        level: cfg.level,
        device_task: forward_only.then_some("infer"),
        batches: &vec![batch; batches],
        allreduce_ns,
    }
    .compile();
    let ex = sim.run();
    EpochRun { batch, sim, ex, gpu }
}

/// Builds and runs the DES for one epoch, returning the report plus the raw
/// execution (for timeline export).
pub fn simulate_epoch_detailed(
    cfg: &EpochConfig,
    model: &CostModel,
) -> (EpochReport, Simulation, Executed) {
    let batches = cfg.stats.batches_per_epoch(cfg.batch_size);
    let run = run_epoch(cfg, model, 1, batches, false, 0);
    let epoch_s = run.ex.makespan as f64 / 1e9;
    let total_s = |per_batch: u64| batches as f64 * per_batch as f64 / 1e9;
    let train_s = total_s(run.batch.device);
    let (prep_s, transfer_s) = if cfg.level == OptLevel::Pipelined {
        // Nothing blocks except residual non-overlap.
        ((epoch_s - train_s).max(0.0), 0.0)
    } else {
        // Blocking accounting from the main loop's perspective: whatever
        // is not transfer or training is preparation (slice + waiting on
        // samplers), as in Table 1.
        let transfer_s = total_s(run.batch.transfer);
        ((epoch_s - transfer_s - train_s).max(0.0), transfer_s)
    };
    let report = EpochReport {
        epoch_s,
        prep_s,
        transfer_s,
        train_s,
        gpu_util: run.ex.utilization(&run.sim, run.gpu),
    };
    (report, run.sim, run.ex)
}

/// Simulates a pipelined *inference* pass (forward only) over `num_nodes`
/// evaluation nodes spread across `ranks` GPUs — the paper's "inference
/// with fanout (20, 20, 20) takes 2.4 seconds" workload.
pub fn simulate_inference_epoch(
    cfg: &EpochConfig,
    model: &CostModel,
    num_nodes: u64,
    ranks: usize,
) -> f64 {
    let cfg = EpochConfig {
        level: OptLevel::Pipelined,
        ..cfg.clone()
    };
    let batches = num_nodes.div_ceil((cfg.batch_size * ranks.max(1)) as u64) as usize;
    // Every rank runs the same pass on its share with nothing to reduce, so
    // one rank's makespan is the pass's.
    run_epoch(&cfg, model, 1, batches, true, 0).ex.makespan as f64 / 1e9
}

/// Convenience wrapper returning just the report.
pub fn simulate_epoch(cfg: &EpochConfig, model: &CostModel) -> EpochReport {
    simulate_epoch_detailed(cfg, model).0
}

/// One what-if projection: the recorded schedule's makespan and the same
/// schedule's with one stage sped up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WhatIf {
    /// Makespan with the recorded durations.
    pub baseline_ns: u64,
    /// Makespan with the chosen stage scaled.
    pub projected_ns: u64,
    /// `baseline / projected` — the predicted end-to-end speedup.
    pub speedup: f64,
}

/// Re-executes a recorded training run — per-batch `[prep, transfer, train]`
/// durations, `prep_lanes` prep workers — under the pipelined schedule's
/// constraints (`queue_cap`-bounded transfer queue, `prefetch` work-ahead
/// bound, 0 for none) with stage `stage`'s durations divided by `factor`:
/// what making that stage `factor` times faster would buy end to end.
///
/// The schedule is the one [`simulate_epoch`] runs, so a batch whose prep
/// finishes first is transferred first, whatever its index — the order the
/// real workers' channel delivers in.
pub fn what_if(
    recorded_ns: [&[u64]; 3],
    prep_lanes: usize,
    queue_cap: usize,
    prefetch: usize,
    stage: usize,
    factor: f64,
) -> WhatIf {
    let makespan = |scaled: Option<usize>| {
        let dur = |s: usize, b: usize| {
            let ns = recorded_ns[s].get(b).copied().unwrap_or(0);
            if scaled == Some(s) && factor > 0.0 {
                (ns as f64 / factor).round() as u64
            } else {
                ns
            }
        };
        let batches: Vec<BatchNs> = (0..recorded_ns[0].len())
            .map(|b| BatchNs { worker: dur(0, b), slice: 0, transfer: dur(1, b), device: dur(2, b) })
            .collect();
        let shape = EpochShape {
            ranks: 1,
            workers: prep_lanes.max(1),
            prefetch,
            queue_cap,
            level: OptLevel::Pipelined,
            device_task: None,
            batches: &batches,
            allreduce_ns: 0,
        };
        shape.compile().0.run().makespan
    };
    let (baseline_ns, projected_ns) = (makespan(None), makespan(Some(stage)));
    let speedup = if projected_ns == 0 { 1.0 } else { baseline_ns as f64 / projected_ns as f64 };
    WhatIf { baseline_ns, projected_ns, speedup }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(stats: DatasetStats, level: OptLevel) -> EpochReport {
        simulate_epoch(&EpochConfig::paper_default(stats, level), &CostModel::paper_hardware())
    }

    #[test]
    fn table1_baseline_epoch_times_in_range() {
        // Table 1: arxiv 1.7 s, products 8.6 s, papers 50.4 s.
        let arxiv = report(DatasetStats::arxiv(), OptLevel::PygBaseline).epoch_s;
        let products = report(DatasetStats::products(), OptLevel::PygBaseline).epoch_s;
        let papers = report(DatasetStats::papers(), OptLevel::PygBaseline).epoch_s;
        assert!((0.6..3.4).contains(&arxiv), "arxiv baseline ≈1.7 s, got {arxiv:.2}");
        assert!((5.0..14.0).contains(&products), "products baseline ≈8.6 s, got {products:.2}");
        assert!((33.0..75.0).contains(&papers), "papers baseline ≈50.4 s, got {papers:.1}");
    }

    #[test]
    fn table1_gpu_share_is_minority() {
        // "Across all three data sets, only about 28% of the time is spent
        // on GPU training."
        for stats in DatasetStats::all() {
            let r = report(stats.clone(), OptLevel::PygBaseline);
            let pct = r.pct(r.train_s);
            assert!(
                (15.0..45.0).contains(&pct),
                "{}: GPU share ≈28 %, got {pct:.0} %",
                stats.name
            );
        }
    }

    #[test]
    fn table3_ladder_is_monotone() {
        for stats in DatasetStats::all() {
            let mut prev = f64::INFINITY;
            for level in OptLevel::ladder() {
                let t = report(stats.clone(), level).epoch_s;
                assert!(
                    t <= prev * 1.02,
                    "{}: ladder level {level:?} regressed {t:.2} > {prev:.2}",
                    stats.name
                );
                prev = t;
            }
        }
    }

    #[test]
    fn figure4_speedup_is_about_3x() {
        for stats in DatasetStats::all() {
            let base = report(stats.clone(), OptLevel::PygBaseline).epoch_s;
            let salient = report(stats.clone(), OptLevel::Pipelined).epoch_s;
            let speedup = base / salient;
            assert!(
                (2.0..4.5).contains(&speedup),
                "{}: single-GPU speedup ≈3–3.4×, got {speedup:.2}",
                stats.name
            );
        }
    }

    #[test]
    fn pipelined_epoch_close_to_bottleneck_stage() {
        // §8: "end-to-end training time per epoch is nearly equal to the
        // time for the slowest of these components in isolation."
        let cfg = EpochConfig::paper_default(DatasetStats::papers(), OptLevel::Pipelined);
        let m = CostModel::paper_hardware();
        let r = simulate_epoch(&cfg, &m);
        // papers is prep-bound at 20 workers; epoch ≤ 1.15 × bottleneck.
        let w = expected_batch(&cfg.stats, &cfg.fanouts, cfg.batch_size);
        let (s, workers) = stage_durations(&cfg, &m, &w);
        let batches = cfg.stats.batches_per_epoch(cfg.batch_size) as f64;
        let prep_capacity = batches * s.worker as f64 / workers as f64 / 1e9;
        let gpu_total = batches * s.device as f64 / 1e9;
        let dma_total = batches * s.transfer as f64 / 1e9;
        let bottleneck = prep_capacity.max(gpu_total).max(dma_total);
        assert!(
            r.epoch_s <= bottleneck * 1.15 + 0.2,
            "epoch {:.2} should track bottleneck {:.2}",
            r.epoch_s,
            bottleneck
        );
    }

    #[test]
    fn papers_pipelined_epoch_matches_table3() {
        // Table 3: papers with all optimizations = 16.5 s on one GPU.
        let t = report(DatasetStats::papers(), OptLevel::Pipelined).epoch_s;
        assert!((11.0..23.0).contains(&t), "papers SALIENT 1-GPU ≈16.5 s, got {t:.1}");
    }


    #[test]
    fn papers_test_inference_near_paper_number() {
        // Abstract: "inference with fanout (20, 20, 20) takes 2.4 seconds"
        // over the 214K-node test set on 16 GPUs.
        let cfg = EpochConfig {
            fanouts: vec![20, 20, 20],
            ..EpochConfig::paper_default(DatasetStats::papers(), OptLevel::Pipelined)
        };
        let t = simulate_inference_epoch(&cfg, &CostModel::paper_hardware(), 214_338, 16);
        assert!((0.6..5.0).contains(&t), "papers inference ≈2.4 s, got {t:.2}");
    }

    #[test]
    fn inference_is_cheaper_than_training_per_node() {
        let m = CostModel::paper_hardware();
        let cfg = EpochConfig::paper_default(DatasetStats::products(), OptLevel::Pipelined);
        let w = expected_batch(&cfg.stats, &cfg.fanouts, cfg.batch_size);
        let fwd = m.gpu_infer_batch_ns(cfg.arch, &w, cfg.hidden, cfg.classes);
        let train = m.gpu_train_batch_ns(cfg.arch, &w, cfg.hidden, cfg.classes);
        assert!(fwd < train, "forward-only must be cheaper: {fwd} vs {train}");
    }

    /// `what_if` on `batches` identical batches of `[prep, transfer, train]`.
    fn uniform(
        ns: [u64; 3], batches: usize, lanes: usize, cap: usize, prefetch: usize, stage: usize, factor: f64,
    ) -> WhatIf {
        let [prep, transfer, train] = ns.map(|d| vec![d; batches]);
        what_if([&prep, &transfer, &train], lanes, cap, prefetch, stage, factor)
    }

    #[test]
    fn what_if_matches_hand_schedules() {
        // Transfer 10, train 20, 3 batches, cap 2, no prefetch:
        // transfer 0-10, 10-20, 20-30; train 10-30, 30-50, 50-70.
        // Train 2x faster: 10 ns, so the chains serialize behind the
        // transfer instead: 0-10/10-20, 10-20/20-30, 20-30/30-40.
        let w = uniform([0, 10, 20], 3, 1, 2, 0, 2, 2.0);
        assert_eq!((w.baseline_ns, w.projected_ns), (70, 40));
        assert!((w.speedup - 70.0 / 40.0).abs() < 1e-9);
        // Speeding the non-bottleneck stage only shortens the fill.
        assert_eq!(uniform([0, 10, 20], 3, 1, 2, 0, 1, 2.0).projected_ns, 65);
    }

    #[test]
    fn what_if_respects_queue_cap_prefetch_and_lanes() {
        // One-slot queue ahead of the device: transfer 2 must wait for
        // train 0 (b - cap - 1 = 0). t0 0-1, c0 1-101; t1 1-2; t2 starts at
        // 101; train runs back to back: 1-101, 101-201, 201-301, 301-401.
        assert_eq!(uniform([0, 1, 100], 4, 1, 1, 0, 0, 1.0).baseline_ns, 401);
        // Prefetch 1: prep b waits for train b - 1, so nothing overlaps.
        assert_eq!(uniform([10, 0, 20], 3, 1, 2, 1, 0, 1.0).baseline_ns, 3 * 30);
        // A slow prep of 50 feeding a train of 10, 4 batches. One lane:
        // prep ends at 50, 100, 150, 200 and the last train at 210. Two
        // lanes: prep ends at 50, 50, 100, 100; train 50-60, 60-70, 100-110,
        // 110-120.
        assert_eq!(uniform([50, 0, 10], 4, 1, 8, 0, 0, 1.0).baseline_ns, 210);
        assert_eq!(uniform([50, 0, 10], 4, 2, 8, 0, 0, 1.0).baseline_ns, 120);
    }

    #[test]
    fn what_if_on_the_sims_own_durations_is_the_sim() {
        // Fed the Pipelined schedule's stage durations, the projector is the
        // simulated epoch; asked for the train speed-up a GPU of twice the
        // FLOPs gives, it is the epoch simulated on that GPU.
        let m = CostModel::paper_hardware();
        let mut fast = m.clone();
        fast.gpu_flops *= 2.0;
        for stats in DatasetStats::all() {
            let cfg = EpochConfig::paper_default(stats, OptLevel::Pipelined);
            let batches = cfg.stats.batches_per_epoch(cfg.batch_size);
            let run = run_epoch(&cfg, &m, 1, batches, false, 0);
            let run_fast = run_epoch(&cfg, &fast, 1, batches, false, 0);
            let ns = [run.batch.worker, run.batch.transfer, run.batch.device];
            let factor = run.batch.device as f64 / run_fast.batch.device as f64;
            let p = cfg.cpu_workers;
            let w = uniform(ns, batches, p, TRANSFER_QUEUE_CAP, 2 * p, 2, factor);
            assert_eq!(w.baseline_ns, run.ex.makespan);
            assert_eq!(w.projected_ns, run_fast.ex.makespan);
            assert!(w.speedup >= 1.0, "speeding a stage can never slow the run");
        }
    }

    #[test]
    fn what_if_transfers_in_the_order_prep_finishes() {
        // Two lanes, and batch 0's prep (100) outlasts both others (10):
        // prep 0 runs 0-100 on one lane, prep 1 0-10 and prep 2 10-20 on the
        // other. The DMA stream takes batches as they become ready, as the
        // workers' channel delivers them: transfer 1 10-30, transfer 2
        // 30-50, transfer 0 100-120; train 1 30-35, train 2 50-55, train 0
        // 120-125. (Serving in batch order would hold transfers 1 and 2
        // behind transfer 0 and end at 165.)
        let w = what_if([&[100, 10, 10], &[20; 3], &[5; 3]], 2, 2, 0, 0, 1.0);
        assert_eq!(w.baseline_ns, 125);
    }

    #[test]
    fn gpu_utilization_improves_along_ladder() {
        let base = report(DatasetStats::products(), OptLevel::PygBaseline).gpu_util;
        let salient = report(DatasetStats::products(), OptLevel::Pipelined).gpu_util;
        assert!(
            salient > base + 0.15,
            "pipelining should lift GPU utilization: {base:.2} -> {salient:.2}"
        );
    }
}
