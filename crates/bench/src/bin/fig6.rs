//! Figure 6 — per-epoch training time (16 GPUs, simulated at paper scale)
//! and test accuracy after training (real, on the synthetic papers
//! analogue) for the four architectures: SAGE, GAT, GIN, SAGE-RI, each with
//! its Table-5 hyperparameters.
//!
//! Expected shape (paper §6): training time varies strongly by
//! architecture (SAGE fastest, SAGE-RI slowest); SALIENT's speedup over PyG
//! is largest for SAGE (~2.3×) and smallest (but >1.4×) for the
//! compute-dense models; SAGE-RI reaches the best accuracy.
//!
//! Run: `cargo run --release -p salient-bench --bin fig6 [--scale 0.08] [--epochs 12]`

#![expect(clippy::disallowed_methods, reason = "figure generator: it reports measured wall time")]

use salient_bench::{arg, fmt_s, fmt_x, render_table};
use salient_core::{RunConfig, Trainer};
use salient_graph::{DatasetConfig, DatasetStats};
use salient_nn::ModelKind;
use salient_sim::{
    simulate_multi_gpu, CostModel, EpochConfig, GnnArch, MultiGpuConfig, OptLevel,
};
use std::sync::Arc;

struct ArchRow {
    arch: GnnArch,
    model: ModelKind,
    hidden_paper: u32,
    fanouts: Vec<usize>,
    hidden_real: usize,
}

fn main() {
    let model = CostModel::paper_hardware();
    let archs = [
        ArchRow { arch: GnnArch::Sage, model: ModelKind::Sage, hidden_paper: 256, fanouts: vec![15, 10, 5], hidden_real: 64 },
        ArchRow { arch: GnnArch::Gat, model: ModelKind::Gat, hidden_paper: 256, fanouts: vec![15, 10, 5], hidden_real: 64 },
        ArchRow { arch: GnnArch::Gin, model: ModelKind::Gin, hidden_paper: 256, fanouts: vec![20, 20, 20], hidden_real: 64 },
        ArchRow { arch: GnnArch::SageRi, model: ModelKind::SageRi, hidden_paper: 1024, fanouts: vec![12, 12, 12], hidden_real: 96 },
    ];

    // Simulated 16-GPU epoch times + speedup over a 16-GPU PyG baseline.
    println!("Figure 6 (time): papers100M per-epoch training time on 16 GPUs (simulated)\n");
    let mut rows = Vec::new();
    for a in &archs {
        let base_cfg = EpochConfig {
            arch: a.arch,
            hidden: a.hidden_paper,
            fanouts: a.fanouts.clone(),
            ..EpochConfig::paper_default(DatasetStats::papers(), OptLevel::Pipelined)
        };
        let salient = simulate_multi_gpu(
            &MultiGpuConfig { base: base_cfg.clone(), ranks: 16, gpus_per_machine: 2 },
            &model,
        )
        .epoch_s;
        let pyg = simulate_multi_gpu(
            &MultiGpuConfig {
                base: EpochConfig { level: OptLevel::PygBaseline, ..base_cfg },
                ranks: 16,
                gpus_per_machine: 2,
            },
            &model,
        )
        .epoch_s;
        rows.push(vec![
            a.arch.name().to_string(),
            format!("{:?}", a.fanouts),
            a.hidden_paper.to_string(),
            fmt_s(salient),
            fmt_s(pyg),
            fmt_x(pyg / salient),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["GNN", "Fanout", "Hidden", "SALIENT", "PyG", "speedup"],
            &rows,
        )
    );
    println!("Paper: SAGE ~2.0s with ~2.3x speedup; GAT/SAGE-RI smallest speedup but >1.4x.\n");

    // Real accuracy on the synthetic papers analogue.
    let scale = arg("--scale", 0.08);
    let epochs = arg::<usize>("--epochs", 25);
    println!("Figure 6 (accuracy): real training on papers-sim (scale {scale}, {epochs} epochs)\n");
    // Dense labels so 172-way classification is trainable at sim scale.
    let mut ds_cfg = DatasetConfig::papers_sim(scale);
    ds_cfg.split_fracs = (0.5, 0.1, 0.4);
    let ds = Arc::new(ds_cfg.build());
    let mut rows = Vec::new();
    for a in &archs {
        let run = RunConfig {
            model: a.model,
            hidden: a.hidden_real,
            num_layers: 3,
            train_fanouts: a.fanouts.clone(),
            infer_fanouts: vec![20, 20, 20],
            batch_size: 128,
            learning_rate: 5e-3,
            epochs,
            seed: 11,
            ..RunConfig::default()
        };
        let t = std::time::Instant::now();
        let mut trainer = Trainer::new(Arc::clone(&ds), run);
        let history = trainer.fit();
        let (acc, _) = trainer.evaluate_sampled(&ds.splits.test.clone(), &[20, 20, 20]);
        rows.push(vec![
            a.arch.name().to_string(),
            format!("{:.4}", acc),
            format!("{:.3}", history.last().unwrap().mean_loss),
            fmt_s(t.elapsed().as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        render_table(&["GNN", "test acc", "final loss", "wall"], &rows)
    );
    println!("Paper accuracies (real papers100M): SAGE 64.6, GAT ~65, GIN ~61, SAGE-RI ~66.1.");
}
