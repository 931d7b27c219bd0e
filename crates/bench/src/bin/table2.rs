//! Table 2 — breakdown of an ogbn-products epoch batch-preparation time for
//! PyG and SALIENT with P threads on 20 cores (simulated at paper scale),
//! plus a *real* single-thread sampler microbenchmark on the synthetic
//! products-sim dataset that validates the modeled PyG/SALIENT ratio.
//!
//! Run: `cargo run --release -p salient-bench --bin table2 [--scale 0.25]`

use salient_bench::{arg, fmt_s, fmt_x, render_table};
use salient_graph::{DatasetConfig, DatasetStats};
use salient_sampler::{FastSampler, PygSampler};
use salient_sim::{expected_batch, CostModel, Impl};
use salient_trace::{names, Clock, Trace};

fn main() {
    let model = CostModel::paper_hardware();
    let stats = DatasetStats::products();
    let w = expected_batch(&stats, &[15, 10, 5], 1024);
    let batches = stats.batches_per_epoch(1024) as f64;

    println!("Table 2: ogbn-products epoch batch preparation time, P threads on 20 cores");
    println!("(simulated from the calibrated cost model)\n");
    let mut rows = Vec::new();
    for p in [1usize, 10, 20] {
        let cell = |who: Impl, stage: &str| -> f64 {
            let (t1, serial) = match (who, stage) {
                (Impl::Pyg, "sample") => (
                    model.sample_batch_ns(Impl::Pyg, &w) * batches,
                    model.sample_serial_frac_pyg,
                ),
                (Impl::Pyg, _) => (
                    model.slice_batch_ns(Impl::Pyg, &w) * batches,
                    model.slice_serial_frac_pyg,
                ),
                (Impl::Salient, "sample") => (
                    model.sample_batch_ns(Impl::Salient, &w) * batches,
                    model.sample_serial_frac_salient,
                ),
                (Impl::Salient, _) => (
                    model.slice_batch_ns(Impl::Salient, &w) * batches,
                    model.slice_serial_frac_salient,
                ),
            };
            CostModel::parallel_time(t1, p, serial) / 1e9
        };
        // "Both": PyG runs sampling and slicing concurrently (2P threads),
        // so the epoch cost is the max; SALIENT threads do both serially in
        // P threads total, so the cost is the sum.
        let pyg_both = cell(Impl::Pyg, "sample").max(cell(Impl::Pyg, "slice"));
        let sal_both = cell(Impl::Salient, "sample") + cell(Impl::Salient, "slice");
        rows.push(vec![
            p.to_string(),
            fmt_s(cell(Impl::Pyg, "sample")),
            fmt_s(cell(Impl::Pyg, "slice")),
            fmt_s(pyg_both),
            fmt_s(cell(Impl::Salient, "sample")),
            fmt_s(cell(Impl::Salient, "slice")),
            fmt_s(sal_both),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "P",
                "PyG Sampling",
                "PyG Slicing",
                "PyG Both",
                "SAL Sampling",
                "SAL Slicing",
                "SAL Both",
            ],
            &rows,
        )
    );
    println!("Paper: P=1: 71.1s/7.6s/72.7s vs 28.3s/7.3s/35.6s; P=20: 7.2s/1.2s/7.3s vs 1.9s/0.6s/2.5s\n");

    // Real measurement: single-thread sampler throughput ratio on the
    // synthetic products analogue.
    let scale = arg("--scale", 0.25);
    let ds = DatasetConfig::products_sim(scale).build();
    let fanouts = [15usize, 10, 5];
    let batch: Vec<u32> = ds.splits.train.iter().copied().take(512).collect();
    let reps = 6;

    // Timed through the trace registry: each sampler's reps run under a
    // named span, and the wall-clock totals are read back from the snapshot.
    let trace = Trace::new(Clock::monotonic());
    let mut pyg = PygSampler::new(7);
    let mut pyg_edges = 0usize;
    {
        let _span = trace.span(names::spans::BENCH_SAMPLE_PYG);
        for _ in 0..reps {
            pyg_edges += pyg.sample(&ds.graph, &batch, &fanouts).num_edges();
        }
    }

    let mut fast = FastSampler::new(7);
    let mut fast_edges = 0usize;
    {
        let _span = trace.span(names::spans::BENCH_SAMPLE_FAST);
        for _ in 0..reps {
            fast_edges += fast.sample(&ds.graph, &batch, &fanouts).num_edges();
        }
    }
    let snap = trace.snapshot();
    let pyg_t = snap.sum_ns(names::spans::BENCH_SAMPLE_PYG) as f64 / 1e9;
    let fast_t = snap.sum_ns(names::spans::BENCH_SAMPLE_FAST) as f64 / 1e9;

    println!("Real single-thread sampler measurement (products-sim, scale {scale}):");
    println!(
        "  PyG-style: {} for {} edges ({:.0} ns/edge)",
        fmt_s(pyg_t),
        pyg_edges,
        pyg_t * 1e9 / pyg_edges as f64
    );
    println!(
        "  SALIENT:   {} for {} edges ({:.0} ns/edge)",
        fmt_s(fast_t),
        fast_edges,
        fast_t * 1e9 / fast_edges as f64
    );
    println!(
        "  measured speedup {} (paper: ~2.5x)",
        fmt_x(pyg_t / fast_t * fast_edges as f64 / pyg_edges as f64)
    );
}
