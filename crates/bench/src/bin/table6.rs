//! Table 6 — test accuracy under various neighborhood fanouts for
//! inference. Real training on the synthetic datasets: a 3-layer GraphSAGE
//! is trained with fanout (15, 10, 5), then the test set is evaluated with
//! full neighborhoods and with sampled fanouts (20,20,20) / (10,10,10) /
//! (5,5,5), repeated `--reps` times.
//!
//! Expected shape (paper §5, Table 6): accuracy saturates by fanout 20 —
//! sampled inference matches full-neighborhood inference.
//!
//! Run: `cargo run --release -p salient-bench --bin table6 [--scale 0.15] [--reps 3] [--epochs 15]`

use salient_bench::{arg, render_table};
use salient_core::{RunConfig, Trainer};
use salient_graph::DatasetConfig;
use std::sync::Arc;

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() {
    let scale = arg("--scale", 0.15);
    let reps = arg::<usize>("--reps", 3);
    let epochs = arg::<usize>("--epochs", 30);
    let fanout_sets: [&[usize]; 3] = [&[20, 20, 20], &[10, 10, 10], &[5, 5, 5]];

    println!("Table 6: test accuracy vs inference fanout (real training, scale {scale}, {reps} reps)\n");
    let mut rows = Vec::new();
    for mut cfg in [
        DatasetConfig::arxiv_sim(scale),
        DatasetConfig::products_sim(scale),
        DatasetConfig::papers_sim(scale.max(0.05)),
    ] {
        // The paper's OGB splits label only a sliver of products/papers;
        // at synthetic sim scale that leaves too few examples per class to
        // train at all, so the accuracy experiments use dense labels
        // (50/10/40). The quantity under study — accuracy vs inference
        // fanout — is unaffected by the split sizes.
        cfg.split_fracs = (0.5, 0.1, 0.4);
        let ds = Arc::new(cfg.build());
        let mut acc_full = Vec::new();
        let mut acc_sampled = vec![Vec::new(); fanout_sets.len()];
        for rep in 0..reps {
            let run = RunConfig {
                epochs,
                seed: 1000 + rep as u64,
                batch_size: 128,
                learning_rate: 5e-3,
                hidden: 64,
                num_layers: 3,
                train_fanouts: vec![15, 10, 5],
                infer_fanouts: vec![20, 20, 20],
                ..RunConfig::default()
            };
            let mut trainer = Trainer::new(Arc::clone(&ds), run);
            trainer.fit();
            let test = ds.splits.test.clone();
            let (full, _) = trainer.evaluate_full(&test);
            acc_full.push(full);
            for (accs, fanouts) in acc_sampled.iter_mut().zip(fanout_sets.iter()) {
                let (acc, _) = trainer.evaluate_sampled(&test, fanouts);
                accs.push(acc);
            }
        }
        let (fm, fs) = mean_std(&acc_full);
        let mut row = vec![ds.name.clone(), format!(".{:04.0}±.{:03.0}", fm * 1e4, fs * 1e3)];
        for accs in &acc_sampled {
            let (m, s) = mean_std(accs);
            row.push(format!(".{:04.0}±.{:03.0}", m * 1e4, s * 1e3));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "Data Set",
                "fanout: all",
                "(20, 20, 20)",
                "(10, 10, 10)",
                "(5, 5, 5)",
            ],
            &rows,
        )
    );
    println!("Paper (real OGB data): arxiv .6980→.7002 by fanout 20; products .7749→.7755;");
    println!("papers .6379→.6469 — i.e. fanout 20 matches full neighborhoods. The synthetic");
    println!("planted-label task reproduces the *saturation shape*, not the absolute numbers.");
}
