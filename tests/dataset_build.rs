//! What a dataset build holds at its peak, counted exactly: the counting
//! allocator keeps the live and peak heap bytes of the building thread.

mod common;

use common::{live_bytes, peak_bytes, reset_peak};
use salient_repro::graph::DatasetConfig;
use salient_repro::tensor::Dtype;

/// The most heap a build may hold at once, as a multiple of what the
/// dataset it returns keeps (`Dataset::memory_bytes`: the CSR arrays and the
/// feature store). A build that held the whole feature matrix as `f32`
/// beside the `f16` store would need more than twice the store for that
/// alone; the graph's edge list and index array are both the width of the
/// index array the graph keeps.
const PEAK_PER_KEPT_BYTE: f64 = 1.5;

#[test]
fn a_products_like_build_peaks_below_one_and_a_half_times_what_it_keeps() {
    let nodes = 10_000;
    let cfg = DatasetConfig {
        name: "G10k".into(),
        num_nodes: nodes,
        feat_dim: 100,
        split_fracs: (2_048.0 / nodes as f64, 0.016, 0.70),
        seed: 2868,
        dtype: Dtype::F16,
        ..DatasetConfig::products_sim(1.0)
    };
    let before = live_bytes();
    reset_peak();
    let ds = cfg.build();
    let peak = (peak_bytes() - before) as f64;
    let kept = ds.memory_bytes() as f64;
    let ratio = peak / kept;
    println!(
        "build of {nodes} nodes x 100 features: peak live heap {:.2} MB, dataset {:.2} MB, ratio {ratio:.3}",
        peak / 1e6,
        kept / 1e6
    );
    assert!(
        ratio <= PEAK_PER_KEPT_BYTE,
        "the build held {ratio:.3}x the {kept} bytes it keeps at its peak (bound {PEAK_PER_KEPT_BYTE}x)"
    );
}
