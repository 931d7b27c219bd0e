//! Figure 2 — exhaustive exploration of sampler optimization parameters:
//! all 96 design-space variants benchmarked (real wall clock) on the same
//! batches of the synthetic products dataset, reported as speedup relative
//! to the PyG-baseline configuration.
//!
//! Expected shape (paper §4.1): flat ("swiss-table"-style) id maps ≈ 2×
//! over STL-style hashing; the array neighbor set adds ~17 % over hash
//! sets; the SALIENT point sits at/near the top. The batch shape is the
//! benchmark's (256 seeds, fanouts 15,10,5), and each variant is timed
//! `--rounds` times with the variants interleaved, its fastest round kept:
//! on a shared box a neighbour's burst then costs every variant a round,
//! not one variant its rank.
//!
//! Run: `cargo run --release -p salient-bench --bin fig2 [--scale 0.25] [--reps 5] [--rounds 5]`

#![expect(clippy::disallowed_methods, reason = "figure generator: it reports measured wall time")]

use salient_bench::{arg, bar, fmt_x, render_table};
use salient_graph::DatasetConfig;
use salient_sampler::{IdMapKind, NeighborSetKind, SampleAlgo, VariantConfig, VariantSampler};
use std::time::Instant;

fn main() {
    let scale = arg("--scale", 0.25);
    let reps = arg::<usize>("--reps", 5);
    let ds = DatasetConfig::products_sim(scale).build();
    let fanouts = [15usize, 10, 5];
    let batches: Vec<Vec<u32>> = ds
        .splits
        .train
        .chunks(256)
        .take(4)
        .map(|c| c.to_vec())
        .collect();

    // One sampler per variant, each warmed up on the batches (tables grown,
    // caches filled), then timed round-robin; a variant's time is its
    // fastest round.
    let rounds = arg::<usize>("--rounds", 5);
    let mut samplers: Vec<VariantSampler> = VariantConfig::all()
        .into_iter()
        .map(|cfg| VariantSampler::new(cfg, 99))
        .collect();
    let mut best = vec![f64::INFINITY; samplers.len()];
    for round in 0..=rounds {
        for (sampler, best) in samplers.iter_mut().zip(&mut best) {
            let t = Instant::now();
            for _ in 0..reps {
                for b in &batches {
                    let mfg = sampler.sample(&ds.graph, b, &fanouts);
                    std::hint::black_box(mfg.num_edges());
                }
            }
            if round > 0 {
                *best = best.min(t.elapsed().as_secs_f64());
            }
        }
    }
    let time_of = |cfg: VariantConfig| {
        let at = samplers.iter().position(|s| s.config() == cfg);
        best[at.expect("every config is a variant")]
    };
    let baseline_t = time_of(VariantConfig::pyg_baseline());
    let mut results: Vec<(VariantConfig, f64)> = samplers
        .iter()
        .zip(&best)
        .map(|(s, &t)| (s.config(), baseline_t / t))
        .collect();
    results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!(
        "Figure 2: sampler design-space exploration ({} variants, products-sim scale {scale}, {} batches of 256 x {reps} reps, fastest of {rounds} rounds)\n",
        results.len(),
        batches.len()
    );
    let max = results.first().map(|r| r.1).unwrap_or(1.0);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(cfg, speedup)| {
            let marker = if *cfg == VariantConfig::salient() {
                " <= SALIENT"
            } else if *cfg == VariantConfig::pyg_baseline() {
                " <= PyG baseline"
            } else {
                ""
            };
            vec![
                cfg.label(),
                fmt_x(*speedup),
                format!("{}{}", bar(*speedup, max, 32), marker),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["variant (map/set/fusion/alloc/algo)", "speedup", ""], &rows)
    );

    // Aggregate the two headline effects.
    let mean = |pred: &dyn Fn(&VariantConfig) -> bool| -> f64 {
        let xs: Vec<f64> = results
            .iter()
            .filter(|(c, _)| pred(c))
            .map(|(_, s)| *s)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let flat = mean(&|c| c.id_map == IdMapKind::Flat);
    let std_map = mean(&|c| c.id_map == IdMapKind::Std);
    let array = mean(&|c| c.neighbor_set == NeighborSetKind::Array);
    let flatset = mean(&|c| c.neighbor_set == NeighborSetKind::Flat);
    let bitmap = mean(&|c| c.neighbor_set == NeighborSetKind::Bitmap);
    let floyd = mean(&|c| c.algo == SampleAlgo::Floyd);
    let fy = mean(&|c| c.algo == SampleAlgo::PartialFisherYates);
    let rej = mean(&|c| c.algo == SampleAlgo::Rejection);
    println!("flat map vs std map (mean speedup):      {} vs {} => {}", fmt_x(flat), fmt_x(std_map), fmt_x(flat / std_map));
    println!("array set vs flat hash set (mean):       {} vs {} => {}", fmt_x(array), fmt_x(flatset), fmt_x(array / flatset));
    println!("bitmap set vs array set (mean):          {} vs {} => {}", fmt_x(bitmap), fmt_x(array), fmt_x(bitmap / array));
    println!("floyd vs partial FY (mean):              {} vs {} => {}", fmt_x(floyd), fmt_x(fy), fmt_x(floyd / fy));
    println!("floyd vs rejection (mean):               {} vs {} => {}", fmt_x(floyd), fmt_x(rej), fmt_x(floyd / rej));
    println!("\nPaper: swiss-table map ~2x; array set a further ~17%; SALIENT sampler 2.5x end-to-end.");
}
