//! Cross-validation between the analytic workload model (which drives the
//! paper-scale event simulator) and the *real* sampler running on synthetic
//! graphs with matching statistics.

use salient_repro::graph::{DatasetConfig, DatasetStats};
use salient_repro::pipeline::shape::{self, ResourceKind, TRANSFER_QUEUE_CAP};
use salient_repro::sampler::FastSampler;
use salient_repro::sim::{expected_batch, CostModel, EpochConfig, OptLevel};

/// Builds DatasetStats describing an actually-materialized synthetic graph.
fn stats_of(ds: &salient_repro::graph::Dataset) -> DatasetStats {
    DatasetStats {
        name: "synthetic",
        num_nodes: ds.graph.num_nodes() as u64,
        num_edges: ds.graph.num_edges() as u64,
        feat_dim: ds.features.dim() as u32,
        train_size: ds.splits.train.len() as u64,
        val_size: ds.splits.val.len() as u64,
        test_size: ds.splits.test.len() as u64,
        avg_degree: ds.graph.avg_degree(),
    }
}

#[test]
fn workload_model_predicts_real_mfg_sizes() {
    // The analytic expansion model must land within a factor of ~2 of the
    // real sampler's MFG sizes across fanouts — that is the accuracy that
    // makes the simulated Tables 1–3 trustworthy.
    let ds = DatasetConfig::products_sim(0.3).build();
    let stats = stats_of(&ds);
    let mut sampler = FastSampler::new(3);
    for fanouts in [vec![15usize, 10, 5], vec![5, 5, 5], vec![20, 20]] {
        let predicted = expected_batch(&stats, &fanouts, 128);
        let mut nodes = 0.0;
        let mut edges = 0.0;
        let chunks: Vec<&[u32]> = ds
            .splits
            .train
            .chunks(128)
            .filter(|c| c.len() == 128)
            .take(8)
            .collect();
        assert!(!chunks.is_empty(), "dataset too small for 128-node batches");
        for batch in &chunks {
            let mfg = sampler.sample(&ds.graph, batch, &fanouts);
            nodes += mfg.num_nodes() as f64;
            edges += mfg.num_edges() as f64;
        }
        nodes /= chunks.len() as f64;
        edges /= chunks.len() as f64;
        let node_ratio = predicted.mfg_nodes / nodes;
        let edge_ratio = predicted.mfg_edges / edges;
        assert!(
            (0.4..2.5).contains(&node_ratio),
            "fanouts {fanouts:?}: model {:.0} vs real {:.0} nodes (ratio {node_ratio:.2})",
            predicted.mfg_nodes,
            nodes
        );
        assert!(
            (0.4..2.5).contains(&edge_ratio),
            "fanouts {fanouts:?}: model {:.0} vs real {:.0} edges (ratio {edge_ratio:.2})",
            predicted.mfg_edges,
            edges
        );
    }
}

#[test]
fn simulator_reproduces_headline_claims() {
    // The three headline numbers of the abstract, all from the simulator:
    // ~3x single-GPU speedup, ~8x further at 16 GPUs, ~2s papers epoch.
    let m = CostModel::paper_hardware();
    let papers = DatasetStats::papers();

    let base = salient_repro::sim::simulate_epoch(
        &EpochConfig::paper_default(papers.clone(), OptLevel::PygBaseline),
        &m,
    )
    .epoch_s;
    let salient = salient_repro::sim::simulate_epoch(
        &EpochConfig::paper_default(papers.clone(), OptLevel::Pipelined),
        &m,
    )
    .epoch_s;
    assert!((2.2..4.5).contains(&(base / salient)), "single-GPU speedup {}", base / salient);

    let multi = salient_repro::sim::simulate_multi_gpu(
        &salient_repro::sim::MultiGpuConfig {
            base: EpochConfig::paper_default(papers, OptLevel::Pipelined),
            ranks: 16,
            gpus_per_machine: 2,
        },
        &m,
    )
    .epoch_s;
    assert!((1.2..3.2).contains(&multi), "papers 16-GPU epoch ≈2.0s, got {multi:.2}");
    assert!(
        (5.0..14.0).contains(&(salient / multi)),
        "16-GPU parallel speedup ≈8x, got {:.2}",
        salient / multi
    );
}

#[test]
fn pipelined_sim_schedule_is_structurally_the_real_stage_graph() {
    // Schedule drift between the simulator and the real executor is caught
    // structurally: both planes are built from `pipeline::shape::train()`,
    // so this test asserts (a) every simulated Pipelined task comes from
    // the shared shape and runs on the shape's resource class, (b) the
    // simulated transfer stage carries the modelled machine's
    // double-buffering bound, and (c) a real traced run records the span
    // of every stage the shape names on workers or on the device, and
    // counts the bytes of the DMA stage, which the real plane does not run.
    use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
    use salient_repro::trace::{Clock, Trace};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let cfg = EpochConfig::paper_default(DatasetStats::arxiv(), OptLevel::Pipelined);
    let (_report, sim, _ex) =
        salient_repro::sim::simulate_epoch_detailed(&cfg, &CostModel::paper_hardware());
    let train_shape = shape::train();
    let resource_name = |k: ResourceKind| match k {
        ResourceKind::Workers => "cpu-workers",
        ResourceKind::Dma => "dma",
        ResourceKind::Gpu => "gpu",
    };

    let mut per_stage: BTreeMap<&str, usize> = BTreeMap::new();
    let mut task_by_label: BTreeMap<String, usize> = BTreeMap::new();
    for (tid, task) in sim.tasks().iter().enumerate() {
        let prefix = task.label.split('[').next().expect("task label");
        let stage = train_shape
            .iter()
            .find(|s| s.sim_task == prefix)
            .unwrap_or_else(|| panic!("sim task {:?} is not in shape::train()", task.label));
        assert_eq!(
            sim.resources()[task.resource].name,
            resource_name(stage.resource),
            "{:?} must run on its shape's resource class",
            task.label
        );
        *per_stage.entry(stage.sim_task).or_insert(0) += 1;
        task_by_label.insert(task.label.clone(), tid);
    }
    let stages: Vec<&str> = per_stage.keys().copied().collect();
    assert_eq!(stages, ["prep", "train", "transfer"], "stage set drifted");
    let batches = per_stage["train"];
    assert!(batches > TRANSFER_QUEUE_CAP + 1, "need enough batches to exercise the bound");
    assert_eq!(per_stage["prep"], batches);
    assert_eq!(per_stage["transfer"], batches);

    // transfer[b] may run at most TRANSFER_QUEUE_CAP + 1 batches ahead of
    // the consumer: the modelled machine's double buffering (the real
    // plane has no copy to run ahead).
    for b in (TRANSFER_QUEUE_CAP + 1)..batches {
        let tr = task_by_label[&format!("transfer[{b}]")];
        let gate = task_by_label[&format!("train[{}]", b - TRANSFER_QUEUE_CAP - 1)];
        assert!(
            sim.tasks()[tr].deps.contains(&gate),
            "transfer[{b}] is missing its double-buffer gate"
        );
    }

    // Real plane: a traced SALIENT run must record every span the shape
    // names on workers or the device (prep.sample on the workers,
    // stage.train on the trainer), so renaming or dropping a stage on
    // either side fails here rather than silently desynchronizing the
    // planes. This host has no copy engine: the trainer records no
    // stage.transfer span and counts the bytes a copy would move instead.
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let dataset = Arc::new(DatasetConfig::tiny(5).build());
    let run = RunConfig {
        executor: ExecutorKind::Salient,
        epochs: 1,
        num_workers: 2,
        ..RunConfig::test_tiny()
    };
    let mut trainer = Trainer::with_trace(dataset, run, trace.clone());
    trainer.fit();
    let snap = trace.snapshot();
    for stage in &train_shape {
        let recorded = snap.spans(stage.span).next().is_some();
        assert_eq!(
            recorded,
            stage.resource != ResourceKind::Dma,
            "span {:?} of shape::train(): recorded {recorded}",
            stage.span
        );
    }
    assert!(snap.metrics.counter(salient_repro::trace::names::counters::TRANSFER_BYTES) > 0);
}

#[test]
fn real_sampler_speedup_matches_calibration_direction() {
    // The calibrated model says SALIENT samples 2.5x faster than PyG; the
    // real Rust implementations must agree at least directionally (>1.2x).
    use salient_repro::sampler::PygSampler;
    use std::time::Instant;
    let ds = DatasetConfig::products_sim(0.15).build();
    let batch: Vec<u32> = ds.splits.train.iter().copied().take(256).collect();
    let fanouts = [15usize, 10, 5];
    let reps = 12;

    let mut pyg = PygSampler::new(0);
    let _ = pyg.sample(&ds.graph, &batch, &fanouts);
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(pyg.sample(&ds.graph, &batch, &fanouts));
    }
    let pyg_t = t0.elapsed();

    let mut fast = FastSampler::new(0);
    let _ = fast.sample(&ds.graph, &batch, &fanouts);
    let t1 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(fast.sample(&ds.graph, &batch, &fanouts));
    }
    let fast_t = t1.elapsed();
    let speedup = pyg_t.as_secs_f64() / fast_t.as_secs_f64();
    assert!(
        speedup > 1.1,
        "FastSampler should beat the STL-style baseline, got {speedup:.2}x"
    );
}
