//! Synthetic random-graph generators with heavy-tailed degree distributions.
//!
//! The OGB benchmark graphs (citation and co-purchase networks) have
//! power-law degree distributions; neighborhood-expansion cost, MFG size and
//! transfer volume all depend on that tail. The generator here reproduces it:
//! a community-structured Chung–Lu model, which every dataset is built from.

#![expect(
    clippy::indexing_slicing,
    reason = "community ids are v % num_communities, node ids run over 0..n, and a sampled position is clamped to ids.len() - 1"
)]

use crate::csr::{CsrGraph, NodeId};
use salient_tensor::rng::Rng;

/// Draws `n` expected-degree weights from a discrete Pareto (power-law) with
/// exponent `alpha`, minimum `d_min` and cap `d_max`.
///
/// # Panics
///
/// Panics if `d_min == 0`, `d_max < d_min`, or `alpha <= 1`.
pub fn power_law_weights(
    n: usize,
    alpha: f64,
    d_min: f64,
    d_max: f64,
    rng: &mut impl Rng,
) -> Vec<f64> {
    assert!(d_min > 0.0 && d_max >= d_min, "invalid degree bounds");
    assert!(alpha > 1.0, "power-law exponent must exceed 1");
    // Inverse-CDF sampling of a bounded Pareto.
    let a = 1.0 - alpha;
    let lo = d_min.powf(a);
    let hi = d_max.powf(a);
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            (lo + u * (hi - lo)).powf(1.0 / a)
        })
        .collect()
}

/// Parameters for the community Chung–Lu generator.
#[derive(Clone, Debug)]
pub struct ChungLuConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of planted communities (also the label count downstream).
    pub num_communities: usize,
    /// Power-law exponent of the expected-degree distribution.
    pub alpha: f64,
    /// Minimum expected degree.
    pub d_min: f64,
    /// Maximum expected degree.
    pub d_max: f64,
    /// Probability that an edge stays inside its source's community.
    pub p_intra: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChungLuConfig {
    fn default() -> Self {
        ChungLuConfig {
            num_nodes: 10_000,
            num_communities: 16,
            alpha: 2.2,
            d_min: 3.0,
            d_max: 500.0,
            p_intra: 0.85,
            seed: 0,
        }
    }
}

/// Result of the community Chung–Lu generator: the symmetrized graph plus
/// each node's community assignment.
#[derive(Clone, Debug)]
pub struct CommunityGraph {
    /// Undirected graph with sorted, deduplicated adjacency lists.
    pub graph: CsrGraph,
    /// `community[v]` is the planted community of node `v`.
    pub community: Vec<u32>,
}

/// Generates a community-structured Chung–Lu graph.
///
/// Node `v` receives an expected degree `w_v` from a bounded power law.
/// Each of the ~`Σw/2` edges picks its source proportional to `w`, then its
/// destination proportional to `w` restricted to the source's community with
/// probability `p_intra` (and to the whole graph otherwise). High-weight hub
/// nodes therefore accumulate disproportionally many cross-community edges —
/// the property behind Figure 3's "high-degree nodes are predicted less
/// accurately".
///
/// # Panics
///
/// Panics if `num_communities == 0` or `num_nodes == 0`.
pub fn chung_lu_communities(cfg: &ChungLuConfig) -> CommunityGraph {
    assert!(cfg.num_nodes > 0, "empty graph requested");
    assert!(cfg.num_communities > 0, "need at least one community");
    let mut rng = salient_tensor::rng::StdRng::seed_from_u64(cfg.seed);
    let n = cfg.num_nodes;
    let weights = power_law_weights(n, cfg.alpha, cfg.d_min, cfg.d_max, &mut rng);

    // Round-robin community assignment keeps communities balanced while the
    // node order is random by construction of the weights.
    let community: Vec<u32> = (0..n).map(|v| (v % cfg.num_communities) as u32).collect();

    // Cumulative weights: global and per community (over the community's
    // member list), enabling O(log n) proportional sampling.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.num_communities];
    for v in 0..n {
        members[community[v] as usize].push(v as NodeId);
    }
    let build_cum = |ids: &[NodeId]| -> Vec<f64> {
        let mut cum = Vec::with_capacity(ids.len());
        let mut acc = 0.0;
        for &v in ids {
            acc += weights[v as usize];
            cum.push(acc);
        }
        cum
    };
    let all_ids: Vec<NodeId> = (0..n as NodeId).collect();
    let global_cum = build_cum(&all_ids);
    let member_cum: Vec<Vec<f64>> = members.iter().map(|m| build_cum(m)).collect();

    #[expect(clippy::unwrap_used, reason = "cum has one entry per id, and no id list is empty: num_nodes > 0 is asserted and a community's members are checked before they are sampled")]
    let sample_from = |cum: &[f64], ids: &[NodeId], rng: &mut salient_tensor::rng::StdRng| -> NodeId {
        let total = *cum.last().unwrap();
        let x: f64 = rng.random::<f64>() * total;
        let i = cum.partition_point(|&c| c < x).min(ids.len() - 1);
        ids[i]
    };

    let total_weight: f64 = weights.iter().sum();
    let num_edges = (total_weight / 2.0).round() as usize;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let u = sample_from(&global_cum, &all_ids, &mut rng);
        let c = community[u as usize] as usize;
        let v = if rng.random::<f64>() < cfg.p_intra && !members[c].is_empty() {
            sample_from(&member_cum[c], &members[c], &mut rng)
        } else {
            sample_from(&global_cum, &all_ids, &mut rng)
        };
        if u != v {
            edges.push((u, v));
        }
    }
    let graph = CsrGraph::from_edges(n, &edges).to_undirected();
    CommunityGraph { graph, community }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_respects_bounds() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let w = power_law_weights(10_000, 2.5, 2.0, 100.0, &mut rng);
        assert!(w.iter().all(|&x| (2.0..=100.0).contains(&x)));
        // Heavy tail: the max should be much larger than the median.
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(sorted[9_999] > 4.0 * sorted[5_000]);
    }

    #[test]
    fn chung_lu_produces_undirected_graph_with_communities() {
        let cfg = ChungLuConfig {
            num_nodes: 2_000,
            num_communities: 8,
            seed: 42,
            ..Default::default()
        };
        let cg = chung_lu_communities(&cfg);
        assert_eq!(cg.graph.num_nodes(), 2_000);
        assert!(cg.graph.is_undirected());
        assert!(cg.community.iter().all(|&c| c < 8));
        // Average degree should be in the ballpark of the weight mean.
        assert!(cg.graph.avg_degree() > 2.0, "avg {}", cg.graph.avg_degree());
    }

    #[test]
    fn chung_lu_homophily() {
        let cfg = ChungLuConfig {
            num_nodes: 4_000,
            num_communities: 4,
            p_intra: 0.9,
            seed: 7,
            ..Default::default()
        };
        let cg = chung_lu_communities(&cfg);
        let mut intra = 0usize;
        let mut total = 0usize;
        for u in 0..cg.graph.num_nodes() as NodeId {
            for &v in cg.graph.neighbors(u) {
                total += 1;
                if cg.community[u as usize] == cg.community[v as usize] {
                    intra += 1;
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.6, "intra-community edge fraction {frac} too low");
    }

    #[test]
    fn chung_lu_is_deterministic_per_seed() {
        let cfg = ChungLuConfig {
            num_nodes: 500,
            seed: 9,
            ..Default::default()
        };
        let a = chung_lu_communities(&cfg);
        let b = chung_lu_communities(&cfg);
        assert_eq!(a.graph.indices(), b.graph.indices());
    }
}
