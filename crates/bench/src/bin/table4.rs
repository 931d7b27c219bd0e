//! Table 4 — summary of data sets: the paper's published OGB statistics
//! side-by-side with the synthetic stand-ins this repository actually
//! materializes and trains on.
//!
//! Run: `cargo run --release -p salient-bench --bin table4 [--scale 0.2]`

use salient_bench::{arg, render_table};
use salient_graph::{DatasetConfig, DatasetStats};

fn human(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.0}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn main() {
    println!("Table 4: summary of data sets\n");
    let rows: Vec<Vec<String>> = DatasetStats::all()
        .into_iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                human(s.num_nodes),
                human(s.num_edges),
                s.feat_dim.to_string(),
                format!(
                    "{} / {} / {}",
                    human(s.train_size),
                    human(s.val_size),
                    human(s.test_size)
                ),
            ]
        })
        .collect();
    println!("Paper scale (drives the event simulator):");
    println!(
        "{}",
        render_table(
            &["Data Set", "#Nodes", "#Edges", "#Feat.", "Train / Val / Test"],
            &rows,
        )
    );

    let scale = arg("--scale", 0.2);
    println!("Synthetic sim scale {scale} (materialized; drives real training):");
    let configs = [
        DatasetConfig::arxiv_sim(scale),
        DatasetConfig::products_sim(scale),
        DatasetConfig::papers_sim(scale),
    ];
    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|c| {
            let ds = c.build();
            vec![
                ds.name.clone(),
                human(ds.graph.num_nodes() as u64),
                human(ds.graph.num_edges() as u64),
                ds.features.dim().to_string(),
                format!(
                    "{} / {} / {}",
                    ds.splits.train.len(),
                    ds.splits.val.len(),
                    ds.splits.test.len()
                ),
                format!("{:.1}", ds.graph.avg_degree()),
                format!("{:.1} MB", ds.memory_bytes() as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Data Set",
                "#Nodes",
                "#Edges",
                "#Feat.",
                "Train / Val / Test",
                "AvgDeg",
                "Memory",
            ],
            &rows,
        )
    );
}
