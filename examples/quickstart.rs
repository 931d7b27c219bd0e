//! Quickstart: train a 3-layer GraphSAGE with SALIENT's pipelined batch
//! preparation on a synthetic arxiv-like dataset, then run sampled
//! inference.
//!
//! Run: `cargo run --release --example quickstart`

use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use std::sync::Arc;

fn main() {
    // 1. Build a dataset: a power-law community graph with planted labels
    //    and half-precision node features, ogbn-arxiv-like in shape.
    let mut cfg = DatasetConfig::arxiv_sim(0.25);
    cfg.split_fracs = (0.5, 0.2, 0.3);
    let dataset = Arc::new(cfg.build());
    println!(
        "dataset {}: {} nodes, {} edges, {} classes, {} train / {} val / {} test",
        dataset.name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes,
        dataset.splits.train.len(),
        dataset.splits.val.len(),
        dataset.splits.test.len(),
    );

    // 2. Configure the run: SALIENT executor, Table-5-style hyperparameters
    //    shrunk for the single-core environment.
    let run = RunConfig {
        executor: ExecutorKind::Salient,
        num_layers: 3,
        hidden: 64,
        train_fanouts: vec![15, 10, 5],
        infer_fanouts: vec![20, 20, 20],
        batch_size: 128,
        learning_rate: 5e-3,
        epochs: 10,
        num_workers: 2,
        slots: 4,
        seed: 0,
        ..RunConfig::default()
    };

    // 3. Train.
    let mut trainer = Trainer::new(Arc::clone(&dataset), run);
    for stats in trainer.fit() {
        println!(
            "epoch {:2}: loss {:.4}  ({} batches, {:.2}s; prep {:.2}s train {:.2}s)",
            stats.epoch,
            stats.mean_loss,
            stats.batches,
            stats.timings.total_s,
            stats.timings.prep_s,
            stats.timings.train_s,
        );
    }

    // 4. Sampled inference at fanout (20,20,20) — the paper's headline
    //    observation is that this matches full-neighborhood accuracy.
    let test = dataset.splits.test.clone();
    let (sampled, _) = trainer.evaluate_sampled(&test, &[20, 20, 20]);
    let (full, _) = trainer.evaluate_full(&test);
    println!("test accuracy: sampled(20,20,20) {sampled:.4} vs full neighborhood {full:.4}");
}
