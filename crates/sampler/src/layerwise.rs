//! Layer-wise importance sampling (the FastGCN / LADIES family, §2.2).
//!
//! Instead of sampling `d` neighbors *per node* (node-wise), layer-wise
//! methods sample a fixed budget of nodes *per layer* from the union of the
//! frontier's neighborhoods, with probability proportional to (squared)
//! degree, then keep the induced bipartite edges. Representations are
//! rescaled by inverse sampling probability to keep the pre-activation
//! aggregation unbiased.
//!
//! This is a baseline *category* the paper positions node-wise sampling
//! against; implementing it lets the benches compare MFG shapes (layer-wise
//! MFGs have bounded width but much sparser connectivity).

#![expect(
    clippy::indexing_slicing,
    reason = "hop frontiers index node_ids within the bounds the previous hop appended"
)]

use crate::mfg::{MessageFlowGraph, MfgLayer};
use crate::structures::{FlatIdMap, IdMap};
use salient_tensor::rng::StdRng;
use salient_tensor::rng::Rng;
use salient_graph::{CsrGraph, NodeId};

/// A layer-wise (LADIES-style) sampler with per-layer node budgets.
#[derive(Debug)]
pub struct LayerwiseSampler {
    rng: StdRng,
    map: FlatIdMap,
}

impl LayerwiseSampler {
    /// Creates a sampler with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        LayerwiseSampler {
            rng: StdRng::seed_from_u64(seed),
            map: FlatIdMap::with_capacity(1 << 12),
        }
    }

    /// Samples an MFG where hop `k` draws at most `budgets[k]` distinct
    /// support nodes from the frontier's united neighborhood, importance-
    /// weighted by degree.
    ///
    /// The returned MFG uses the same PyG layout as the node-wise sampler,
    /// so models consume it unchanged. (Inverse-probability rescaling is
    /// folded into edge multiplicity-free mean aggregation; for the
    /// unbiasedness-sensitive use cases the caller can divide by
    /// [`LayerwiseSampler::keep_probability`].)
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty/duplicated or `budgets` is empty.
    pub fn sample(
        &mut self,
        graph: &CsrGraph,
        batch: &[NodeId],
        budgets: &[usize],
    ) -> MessageFlowGraph {
        assert!(!batch.is_empty(), "cannot sample an empty batch");
        assert!(!budgets.is_empty(), "need at least one layer budget");
        self.map.clear();
        let mut node_ids: Vec<NodeId> = Vec::with_capacity(batch.len() * 4);
        for &v in batch {
            let local = node_ids.len() as u32;
            let (_, new) = self.map.get_or_insert(v, local);
            assert!(new, "duplicate node {v} in batch");
            node_ids.push(v);
        }

        let mut layers_rev: Vec<MfgLayer> = Vec::with_capacity(budgets.len());
        let mut frontier_len = node_ids.len();
        for &budget in budgets {
            // Candidate pool: union of the frontier's neighbors, weighted by
            // their degree (the LADIES q ∝ deg² heuristic restricted to the
            // frontier neighborhood; degree of the candidate stands in for
            // the column norm).
            let mut pool: Vec<NodeId> = Vec::new();
            let mut pool_seen = FlatIdMap::with_capacity(frontier_len * 8);
            for i in 0..frontier_len {
                for &u in graph.neighbors(node_ids[i]) {
                    let (_, new) = pool_seen.get_or_insert(u, 0);
                    if new {
                        pool.push(u);
                    }
                }
            }
            // Weighted reservoir-free selection: sample `budget` distinct
            // pool entries with probability proportional to degree via
            // cumulative inversion.
            let weights: Vec<f64> = pool
                .iter()
                .map(|&u| (graph.degree(u) as f64).max(1.0))
                .collect();
            let selected = weighted_sample_distinct(&pool, &weights, budget, &mut self.rng);

            // Register the supports and keep induced edges frontier←support.
            let mut edge_src = Vec::new();
            let mut edge_dst = Vec::new();
            // Selected supports carry value 1; probe insertions carry 0, so
            // the stored value (not insertion freshness) is the membership
            // test.
            let mut support_local = FlatIdMap::with_capacity(selected.len() * 2);
            for &u in &selected {
                support_local.get_or_insert(u, 1);
            }
            for i in 0..frontier_len {
                for &u in graph.neighbors(node_ids[i]) {
                    let (selected_flag, _) = support_local.get_or_insert(u, 0);
                    if selected_flag == 1 {
                        let fallback = node_ids.len() as u32;
                        let (local, fresh) = self.map.get_or_insert(u, fallback);
                        if fresh {
                            node_ids.push(u);
                        }
                        edge_src.push(local);
                        edge_dst.push(i as u32);
                    }
                }
            }
            layers_rev.push(MfgLayer {
                edge_src,
                edge_dst,
                n_src: node_ids.len(),
                n_dst: frontier_len,
            });
            frontier_len = node_ids.len();
        }
        layers_rev.reverse();
        let mut expected_src = node_ids.len();
        for layer in &mut layers_rev {
            layer.n_src = expected_src;
            expected_src = layer.n_dst;
        }
        MessageFlowGraph {
            node_ids,
            layers: layers_rev,
        }
    }

    /// Probability that a candidate of degree `deg` is kept when `budget`
    /// nodes are drawn from a pool with total degree `pool_degree` (first-
    /// order approximation used for inverse-probability rescaling).
    pub fn keep_probability(deg: usize, pool_degree: f64, budget: usize) -> f64 {
        (budget as f64 * deg as f64 / pool_degree.max(1.0)).min(1.0)
    }
}

/// Samples up to `k` distinct items with probability proportional to
/// `weights`, by repeated cumulative inversion with removal.
fn weighted_sample_distinct(
    items: &[NodeId],
    weights: &[f64],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<NodeId> {
    if items.len() <= k {
        return items.to_vec();
    }
    let mut cum: Vec<f64> = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cum.push(acc);
    }
    let mut taken = vec![false; items.len()];
    let mut out = Vec::with_capacity(k);
    let mut guard = 0usize;
    while out.len() < k && guard < k * 30 {
        guard += 1;
        let x: f64 = rng.random::<f64>() * acc;
        let i = cum.partition_point(|&c| c < x).min(items.len() - 1);
        if !taken[i] {
            taken[i] = true;
            out.push(items[i]);
        }
    }
    // Rejection stalls only with extreme weight skew; top up determinis-
    // tically to honor the budget.
    if out.len() < k {
        for (i, &item) in items.iter().enumerate() {
            if out.len() >= k {
                break;
            }
            if !taken[i] {
                taken[i] = true;
                out.push(item);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;

    #[test]
    fn layerwise_mfg_is_valid_and_budgeted() {
        let ds = DatasetConfig::tiny(70).build();
        let batch = &ds.splits.train[..16];
        let mut s = LayerwiseSampler::new(1);
        let mfg = s.sample(&ds.graph, batch, &[32, 16]);
        mfg.validate().unwrap();
        assert_eq!(mfg.batch_size(), 16);
        // New nodes per hop are bounded by the budget.
        let hop1_new = mfg.layers[1].n_src - mfg.layers[1].n_dst;
        assert!(hop1_new <= 32, "hop 1 added {hop1_new} > 32 supports");
    }

    #[test]
    fn layerwise_width_is_bounded_unlike_nodewise() {
        // The defining property: total nodes grow linearly in the budget,
        // not exponentially in the fanout.
        let ds = DatasetConfig::products_sim(0.05).build();
        let batch = &ds.splits.train[..32];
        let mut lw = LayerwiseSampler::new(0);
        let mfg = lw.sample(&ds.graph, batch, &[64, 64, 64]);
        mfg.validate().unwrap();
        assert!(
            mfg.num_nodes() <= 32 + 3 * 64,
            "layer-wise width exploded: {}",
            mfg.num_nodes()
        );
        let mut nw = crate::FastSampler::new(0);
        let nodewise = nw.sample(&ds.graph, batch, &[15, 10, 5]);
        assert!(
            nodewise.num_nodes() > mfg.num_nodes(),
            "node-wise should expand more: {} vs {}",
            nodewise.num_nodes(),
            mfg.num_nodes()
        );
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<u32> = (0..100).collect();
        let weights: Vec<f64> = (0..100).map(|i| if i < 10 { 100.0 } else { 1.0 }).collect();
        let mut heavy_hits = 0;
        for _ in 0..200 {
            let s = weighted_sample_distinct(&items, &weights, 5, &mut rng);
            heavy_hits += s.iter().filter(|&&x| x < 10).count();
        }
        // Heavy items carry ~92% of the mass; expect most picks there.
        assert!(heavy_hits > 600, "only {heavy_hits}/1000 heavy picks");
    }

    #[test]
    fn keep_probability_sane() {
        assert!(LayerwiseSampler::keep_probability(10, 100.0, 5) <= 1.0);
        assert_eq!(LayerwiseSampler::keep_probability(1000, 10.0, 5), 1.0);
    }
}
