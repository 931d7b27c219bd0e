//! Explore the neighborhood-sampler design space interactively: benchmark a
//! handful of interesting variants (plus the tuned FastSampler and the
//! PyG-style baseline) on one dataset and inspect the MFG statistics that
//! drive downstream slicing and transfer volume.
//!
//! Run: `cargo run --release --example sampler_explorer`

#![expect(clippy::disallowed_methods, reason = "interactive tool: it prints how long each sampler variant took on this machine")]

use salient_repro::graph::DatasetConfig;
use salient_repro::sampler::{
    FastSampler, PygSampler, SampleAlgo, VariantConfig, VariantSampler,
};
use std::time::Instant;

fn main() {
    let ds = DatasetConfig::products_sim(0.2).build();
    let fanouts = [15usize, 10, 5];
    let batch: Vec<u32> = ds.splits.train.iter().copied().take(256).collect();

    // MFG anatomy from the production sampler.
    let mfg = FastSampler::new(0).sample(&ds.graph, &batch, &fanouts);
    println!("one batch of {} seeds, fanout {:?}:", batch.len(), fanouts);
    println!("  sampled nodes: {}", mfg.num_nodes());
    println!("  sampled edges: {}", mfg.num_edges());
    for (i, layer) in mfg.layers.iter().enumerate() {
        println!(
            "  layer {i}: {} -> {} rows, {} edges",
            layer.n_src,
            layer.n_dst,
            layer.num_edges()
        );
    }
    println!(
        "  bytes to transfer: {} structure + {} features (f16)\n",
        mfg.structure_bytes(),
        mfg.num_nodes() * ds.features.dim() * 2,
    );

    // Compare a few named design-space points.
    let reps = 20;
    let time_it = |label: &str, mut f: Box<dyn FnMut() -> usize>| {
        let _ = f(); // warm-up
        let t = Instant::now();
        let mut edges = 0;
        for _ in 0..reps {
            edges += f();
        }
        let per = t.elapsed().as_secs_f64() / reps as f64 * 1e3;
        println!("  {label:<44} {per:7.2} ms/batch ({} edges)", edges / reps);
        per
    };

    println!("variant timings ({reps} reps each):");
    let g = &ds.graph;
    let b = batch.clone();
    let mut pyg = PygSampler::new(1);
    let base_ms = time_it(
        "PygSampler (STL map/set, 2-phase, rejection)",
        Box::new(move || pyg.sample(g, &b, &fanouts).num_edges()),
    );
    let b = batch.clone();
    let mut fast = FastSampler::new(1);
    let fast_ms = time_it(
        "FastSampler (flat map, bitmap set, fused, Floyd)",
        Box::new(move || fast.sample(g, &b, &fanouts).num_edges()),
    );
    for cfg in [
        VariantConfig {
            id_map: salient_repro::sampler::IdMapKind::Flat,
            neighbor_set: salient_repro::sampler::NeighborSetKind::Std,
            fused: true,
            reserve: true,
            algo: SampleAlgo::Rejection,
        },
        VariantConfig {
            id_map: salient_repro::sampler::IdMapKind::Std,
            neighbor_set: salient_repro::sampler::NeighborSetKind::Array,
            fused: true,
            reserve: true,
            algo: SampleAlgo::PartialFisherYates,
        },
    ] {
        let b = batch.clone();
        let mut v = VariantSampler::new(cfg, 1);
        time_it(
            &format!("variant {}", cfg.label()),
            Box::new(move || v.sample(g, &b, &fanouts).num_edges()),
        );
    }
    println!("\nFastSampler speedup over PyG-style baseline: {:.2}x (paper: ~2.5x)", base_ms / fast_ms);
}
