//! Drive the discrete-event cluster simulator directly: GPU utilization of
//! the baseline and of SALIENT on products at the paper's 20 CPU workers.
//! `salient paper table3` prints the optimization ladder, and `salient
//! paper fig1` the execution timelines (at 4 workers).
//!
//! Run: `cargo run --release --example simulate_cluster`

use salient_repro::graph::DatasetStats;
use salient_repro::sim::{simulate_epoch, CostModel, EpochConfig, OptLevel};

fn main() {
    let model = CostModel::paper_hardware();
    println!("GPU utilization, baseline vs SALIENT (products):");
    for level in [OptLevel::PygBaseline, OptLevel::Pipelined] {
        let r = simulate_epoch(
            &EpochConfig::paper_default(DatasetStats::products(), level),
            &model,
        );
        println!("  {:<30} {:>5.1}%", level.label(), r.gpu_util * 100.0);
    }
}
