//! Synthetic random-graph generators with heavy-tailed degree distributions.
//!
//! The OGB benchmark graphs (citation and co-purchase networks) have
//! power-law degree distributions; neighborhood-expansion cost, MFG size and
//! transfer volume all depend on that tail. The generator here reproduces it:
//! a community-structured Chung–Lu model, which every dataset is built from.

#![expect(
    clippy::indexing_slicing,
    reason = "community ids are v % num_communities, node ids run over 0..n, a guide table has an entry for every bucket up to its total's, and a draw's walk stops at the last weight"
)]

use crate::csr::{CsrGraph, NodeId, SymmetricBuilder};
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
pub(crate) struct ChungLuConfig {
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
pub(crate) struct CommunityGraph {
    /// Undirected graph with sorted, deduplicated adjacency lists.
    pub graph: CsrGraph,
    /// `community[v]` is the planted community of node `v`.
    pub community: Vec<u32>,
}

/// Draws indices proportionally to a list of weights: the index `i` with
/// `cum[i - 1] < x <= cum[i]` for a uniform `x` in `[0, total)`, which is
/// what `cum.partition_point(|&c| c < x)` finds by binary search.
///
/// A guide table stands in front of that search: one bucket per weight,
/// `guide[b]` the first index whose scaled cumulative weight `cum[i] *
/// scale` reaches bucket `b`. Every index before `guide[bucket(x)]` has
/// `cum[i] < x` (its bucket is below `x`'s, and bucketing is monotone), so
/// the walk from there stops at the binary search's answer, not near it.
/// With one bucket per weight a bucket holds one cumulative weight on
/// average, so the walk is short.
struct Guided {
    cum: Vec<f64>,
    guide: Vec<u32>,
    scale: f64,
}

impl Guided {
    /// The table over `weights`, which must be positive and not empty.
    fn new(weights: impl Iterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let cum: Vec<f64> = weights
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        let scale = cum.len() as f64 / acc;
        let mut guide = Vec::with_capacity(cum.len() + 1);
        for (i, &c) in cum.iter().enumerate() {
            let b = (c * scale) as usize;
            while guide.len() <= b {
                guide.push(i as u32);
            }
        }
        Guided { cum, guide, scale }
    }

    /// Sum of the weights.
    fn total(&self) -> f64 {
        self.cum[self.cum.len() - 1]
    }

    /// One draw: one `f64` from `rng`, as the binary search takes.
    #[inline]
    fn draw(&self, rng: &mut impl Rng) -> usize {
        let x = rng.random::<f64>() * self.total();
        // `x <= total`, so its bucket is at most the last weight's, the
        // last the table holds.
        let mut i = self.guide[(x * self.scale) as usize] as usize;
        let last = self.cum.len() - 1;
        while i < last && self.cum[i] < x {
            i += 1;
        }
        i
    }
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
/// Each draw finds its node through a guide table ([`Guided`]). The edges
/// are counted in both directions as they are drawn and scattered once
/// into the symmetric CSR ([`SymmetricBuilder`]).
///
/// # Panics
///
/// Panics if `num_communities == 0` or `num_nodes == 0`.
pub(crate) fn chung_lu_communities(cfg: &ChungLuConfig) -> CommunityGraph {
    assert!(cfg.num_nodes > 0, "empty graph requested");
    assert!(cfg.num_communities > 0, "need at least one community");
    let mut rng = salient_tensor::rng::StdRng::seed_from_u64(cfg.seed);
    let n = cfg.num_nodes;
    let k = cfg.num_communities;
    let weights = power_law_weights(n, cfg.alpha, cfg.d_min, cfg.d_max, &mut rng);

    // Round-robin community assignment keeps communities balanced while the
    // node order is random by construction of the weights: community `c`'s
    // `i`-th member is node `c + i * k`.
    let community: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
    let global = Guided::new(weights.iter().copied());
    // Only the first `n` communities have members.
    let members: Vec<Guided> = (0..k.min(n))
        .map(|c| Guided::new(weights[c..].iter().step_by(k).copied()))
        .collect();
    drop(weights);

    let num_edges = (global.total() / 2.0).round() as usize;
    let mut edges = Vec::with_capacity(num_edges);
    let mut builder = SymmetricBuilder::new(n);
    for _ in 0..num_edges {
        let u = global.draw(&mut rng);
        let c = community[u] as usize;
        let v = if rng.random::<f64>() < cfg.p_intra {
            c + members[c].draw(&mut rng) * k
        } else {
            global.draw(&mut rng)
        };
        let (u, v) = (u as NodeId, v as NodeId);
        if u != v {
            builder.count(u, v);
            edges.push((u, v));
        }
    }
    let graph = builder.build(edges);
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
