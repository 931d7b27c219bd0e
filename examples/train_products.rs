//! The paper's motivating workload: mini-batch GraphSAGE training on a
//! products-like co-purchase graph, comparing the standard (baseline)
//! executor against SALIENT's pipelined executor and printing a Table-1
//! style per-stage blocking breakdown for both.
//!
//! Run: `cargo run --release --example train_products [-- --scale 0.2]`

use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::trace::{analyze, names};
use std::sync::Arc;

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2);
    let mut cfg = DatasetConfig::products_sim(scale);
    cfg.split_fracs = (0.4, 0.1, 0.5);
    let dataset = Arc::new(cfg.build());
    println!(
        "products-sim (scale {scale}): {} nodes, {} edges, avg degree {:.1}\n",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.graph.avg_degree(),
    );

    for executor in [ExecutorKind::Baseline, ExecutorKind::Salient] {
        let run = RunConfig {
            executor,
            num_layers: 3,
            hidden: 64,
            train_fanouts: vec![15, 10, 5],
            infer_fanouts: vec![20, 20, 20],
            batch_size: 256,
            learning_rate: 5e-3,
            epochs: 3,
            num_workers: 2,
            ..RunConfig::default()
        };
        let mut trainer = Trainer::new(Arc::clone(&dataset), run);
        println!("=== {executor:?} executor ===");
        let stats = trainer.fit();
        let snap = trainer.trace().snapshot();
        let epochs = snap.spans(names::spans::EPOCH).map(|e| (e.start_ns, e.end_ns));
        for (stats, (e0, e1)) in stats.iter().zip(epochs) {
            let t = stats.timings;
            let [prep_pct, transfer_pct, train_pct, _other] =
                analyze(&snap.window(e0, e1)).stage_pcts();
            println!(
                "epoch {:2}: loss {:.4}  epoch {:.2}s | prep {:.2}s ({:.0}%) transfer {:.2}s ({:.0}%) train {:.2}s ({:.0}%)",
                stats.epoch,
                stats.mean_loss,
                t.total_s,
                t.prep_s,
                prep_pct,
                t.transfer_s,
                transfer_pct,
                t.train_s,
                train_pct,
            );
        }
        let (acc, _) = trainer.evaluate_sampled(&dataset.splits.val.clone(), &[20, 20, 20]);
        println!("validation accuracy {acc:.4}\n");
    }
    println!("Note: on one core the SALIENT executor still wins on prep *blocking* time");
    println!("(workers overlap with training), mirroring the paper's Figure 1 contrast.");
}
