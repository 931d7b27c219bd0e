//! Figure 4 — performance improvement of SALIENT over the standard PyG
//! workflow on one GPU: simulated at paper scale, plus a *real* wall-clock
//! comparison of this repository's two executors on the synthetic datasets.
//!
//! Expected shape (paper §6): 3×–3.4× across the three datasets. The real
//! single-core comparison shows a smaller but consistent win (parallel
//! batch prep cannot help on one core; the sampler and zero-copy gains
//! remain).
//!
//! Run: `cargo run --release -p salient-bench --bin fig4 [--scale 0.15]`

use salient_bench::{arg, bar, fmt_s, fmt_x, render_table};
use salient_core::{ExecutorKind, RunConfig, Trainer};
use salient_graph::{DatasetConfig, DatasetStats};
use salient_sim::{simulate_epoch, CostModel, EpochConfig, OptLevel};
use salient_trace::{analyze, names, Clock, PipelineReport, Trace};
use std::sync::Arc;

fn main() {
    let model = CostModel::paper_hardware();
    println!("Figure 4: SALIENT vs PyG, one GPU (simulated at paper scale)\n");
    let paper_speedup = [3.4, 3.1, 3.1];
    let mut rows = Vec::new();
    let mut max = 0.0f64;
    let mut entries = Vec::new();
    for (stats, ps) in DatasetStats::all().into_iter().zip(paper_speedup) {
        let base = simulate_epoch(
            &EpochConfig::paper_default(stats.clone(), OptLevel::PygBaseline),
            &model,
        )
        .epoch_s;
        let salient = simulate_epoch(
            &EpochConfig::paper_default(stats.clone(), OptLevel::Pipelined),
            &model,
        )
        .epoch_s;
        max = max.max(base);
        entries.push((stats.name, base, salient, ps));
    }
    for (name, base, salient, ps) in &entries {
        rows.push(vec![
            name.to_string(),
            format!("{} {}", fmt_s(*base), bar(*base, max, 24)),
            format!("{} {}", fmt_s(*salient), bar(*salient, max, 24)),
            fmt_x(base / salient),
            format!("~{ps}x"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Data Set", "PyG epoch", "SALIENT epoch", "speedup", "paper"],
            &rows,
        )
    );

    // Real wall-clock comparison of the two executors (single core).
    let scale = arg("--scale", 0.15);
    println!("\nReal executor comparison on synthetic data (scale {scale}, single core):\n");
    let mut rows = Vec::new();
    for cfg in [
        DatasetConfig::arxiv_sim(scale),
        DatasetConfig::products_sim(scale),
    ] {
        let ds = Arc::new(cfg.build());
        // Every number below comes from the trace registry: each executor
        // trains under its own recorder, and the second epoch's span window
        // is analyzed into a stall-attribution report.
        let report_of = |executor: ExecutorKind| -> PipelineReport {
            let run = RunConfig {
                executor,
                epochs: 1,
                batch_size: 256,
                hidden: 64,
                num_layers: 3,
                train_fanouts: vec![15, 10, 5],
                infer_fanouts: vec![20, 20, 20],
                num_workers: 2,
                ..RunConfig::default()
            };
            let mut trainer =
                Trainer::with_trace(Arc::clone(&ds), run, Trace::new(Clock::monotonic()));
            trainer.train_epoch(); // warm-up epoch
            trainer.train_epoch();
            let snap = trainer.trace().snapshot();
            let (e0, e1) = snap
                .spans(names::spans::EPOCH)
                .map(|ev| (ev.start_ns, ev.end_ns))
                .max()
                .expect("the trainer records an epoch span");
            analyze(&snap.window(e0, e1))
        };
        let base = report_of(ExecutorKind::Baseline);
        let sal = report_of(ExecutorKind::Salient);
        let s = |ns: u64| ns as f64 / 1e9;
        rows.push(vec![
            ds.name.clone(),
            fmt_s(s(base.window_ns)),
            fmt_s(s(sal.window_ns)),
            fmt_x(s(base.window_ns) / s(sal.window_ns)),
            format!("prep {} -> {}", fmt_s(s(base.prep_ns)), fmt_s(s(sal.prep_ns))),
            format!("{:.0}%", sal.overlap_frac() * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Data Set",
                "Baseline",
                "SALIENT",
                "speedup",
                "prep blocking",
                "overlap",
            ],
            &rows,
        )
    );
}
