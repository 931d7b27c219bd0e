//! Analytic workload model: expected MFG sizes per mini-batch.
//!
//! The simulator needs, for each dataset × fanout configuration, the
//! expected number of sampled nodes and edges per batch — the quantities
//! that drive sampling cost, slicing bytes, and transfer bytes.
//!
//! Model: hop-by-hop expansion with two corrections,
//!
//! 1. **degree truncation** — a node of degree `deg` yields
//!    `min(fanout, deg)` samples; under the heavy-tailed degree mix we use
//!    the smooth surrogate `E[min(deg, d)] ≈ avg_deg · (1 − exp(−d/avg_deg))`,
//!    which is exact in both limits (`d → ∞` and `d ≪ avg_deg`);
//! 2. **dedup saturation** — sampling `s` edges whose endpoints fall in an
//!    effective reachable population `R = reach · |V|` discovers
//!    `(R − seen) · (1 − exp(−s/R))` *new* nodes.
//!
//! Calibration check (documented in tests): for ogbn-papers100M with batch
//! 1024 and fanout (15, 10, 5) the model predicts ≈ 0.7 M nodes per batch ≈
//! 170 MB at 128 half-precision features — matching the paper's measured
//! 164 GB transferred per 1179-batch epoch (§3.3) to within ~25 %.

use salient_graph::DatasetStats;

/// Fraction of the graph effectively reachable by multi-hop expansion from a
/// random batch. Cross-validation against the real sampler on materialized
/// synthetic graphs (tests/sim_vs_real.rs) showed no locality discount is
/// warranted: uniform batches reach the whole graph.
const REACH_FRACTION: f64 = 1.0;

/// Expected per-batch MFG statistics.
#[derive(Clone, Debug)]
pub struct BatchWorkload {
    /// Mini-batch (output) size.
    pub batch_size: usize,
    /// Expected sampled nodes (feature rows to slice and transfer).
    pub mfg_nodes: f64,
    /// Expected sampled edges across all hops.
    pub mfg_edges: f64,
    /// Feature dimensionality.
    pub feat_dim: u32,
    /// Cumulative frontier size after each hop, batch outward:
    /// `hop_nodes[0] = batch_size`, `hop_nodes[k]` = nodes known after hop
    /// `k`. Length = fanouts + 1.
    pub hop_nodes: Vec<f64>,
    /// Edges sampled at each hop, batch outward. Length = fanouts.
    pub hop_edges: Vec<f64>,
}

impl BatchWorkload {
    /// Bytes of half-precision features sliced/transferred per batch.
    pub(crate) fn feature_bytes(&self) -> f64 {
        self.mfg_nodes * self.feat_dim as f64 * 2.0
    }

    /// Bytes of MFG structure (edge lists as two `u32`s plus node ids)
    /// transferred per batch.
    pub(crate) fn structure_bytes(&self) -> f64 {
        self.mfg_edges * 8.0 + self.mfg_nodes * 4.0
    }

    /// Total bytes per batch crossing the CPU→GPU bus (features + labels +
    /// structure).
    pub(crate) fn transfer_bytes(&self) -> f64 {
        self.feature_bytes() + self.batch_size as f64 * 4.0 + self.structure_bytes()
    }
}

/// Expected number of samples drawn per frontier node at fanout `d` given
/// the dataset's average degree.
pub(crate) fn expected_samples_per_node(avg_degree: f64, fanout: usize) -> f64 {
    avg_degree * (1.0 - (-(fanout as f64) / avg_degree).exp())
}

/// Computes the expected per-batch workload for a dataset at the given
/// fanouts (PyG order) and batch size.
///
/// # Panics
///
/// Panics if `fanouts` is empty or `batch_size == 0`.
pub fn expected_batch(stats: &DatasetStats, fanouts: &[usize], batch_size: usize) -> BatchWorkload {
    assert!(!fanouts.is_empty(), "need at least one fanout");
    assert!(batch_size > 0, "batch size must be positive");
    let reachable = REACH_FRACTION * stats.num_nodes as f64;
    let mut frontier = batch_size as f64;
    let mut seen = frontier;
    let mut edges = 0.0;
    let mut hop_nodes = vec![frontier];
    let mut hop_edges = Vec::with_capacity(fanouts.len());
    for &d in fanouts {
        let samples = frontier * expected_samples_per_node(stats.avg_degree, d);
        edges += samples;
        hop_edges.push(samples);
        let fresh = (reachable - seen).max(0.0) * (1.0 - (-samples / reachable).exp());
        seen += fresh;
        frontier = seen;
        hop_nodes.push(seen);
    }
    BatchWorkload {
        batch_size,
        mfg_nodes: seen,
        mfg_edges: edges,
        feat_dim: stats.feat_dim,
        hop_nodes,
        hop_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_limits() {
        // Huge fanout: every neighbor taken.
        assert!((expected_samples_per_node(10.0, 10_000) - 10.0).abs() < 1e-6);
        // Tiny fanout relative to degree: ≈ fanout.
        let s = expected_samples_per_node(1_000.0, 5);
        assert!((s - 5.0).abs() < 0.05, "got {s}");
    }

    #[test]
    fn expansion_monotone_in_fanout() {
        let stats = DatasetStats::products();
        let small = expected_batch(&stats, &[5, 5, 5], 1024);
        let large = expected_batch(&stats, &[15, 10, 5], 1024);
        assert!(large.mfg_nodes > small.mfg_nodes);
        assert!(large.mfg_edges > small.mfg_edges);
    }

    #[test]
    fn papers_transfer_volume_matches_paper_measurement() {
        // §3.3: "During a typical epoch with ogbn-papers100M, a total of
        // 164GB are transferred from CPU to GPU."
        let stats = DatasetStats::papers();
        let w = expected_batch(&stats, &[15, 10, 5], 1024);
        let gb = w.transfer_bytes() * stats.batches_per_epoch(1024) as f64 / 1e9;
        assert!(
            (120.0..260.0).contains(&gb),
            "epoch transfer volume {gb:.0} GB should be within ~40% of the paper's 164 GB"
        );
    }

    #[test]
    fn products_batch_is_large_fraction_of_graph() {
        // Products MFGs famously blow up to hundreds of thousands of nodes.
        let stats = DatasetStats::products();
        let w = expected_batch(&stats, &[15, 10, 5], 1024);
        assert!(
            (150_000.0..700_000.0).contains(&w.mfg_nodes),
            "products nodes/batch {}",
            w.mfg_nodes
        );
    }

    #[test]
    fn arxiv_expands_to_large_graph_fraction() {
        // arxiv is small enough that a 3-hop batch touches most of it (this
        // is what the real sampler does on matched synthetic graphs too).
        let stats = DatasetStats::arxiv();
        let w = expected_batch(&stats, &[15, 10, 5], 1024);
        assert!(w.mfg_nodes < stats.num_nodes as f64);
        assert!(w.mfg_nodes > 0.3 * stats.num_nodes as f64);
    }
}
