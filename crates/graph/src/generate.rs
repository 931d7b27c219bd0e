//! Synthetic random-graph generators with heavy-tailed degree distributions.
//!
//! The OGB benchmark graphs (citation and co-purchase networks) have
//! power-law degree distributions; neighborhood-expansion cost, MFG size and
//! transfer volume all depend on that tail. The generator here reproduces it:
//! a community-structured Chung–Lu model, which every dataset is built from.

#![expect(
    clippy::indexing_slicing,
    reason = "community ids are v % num_communities, node ids run over 0..n, a guide table has an entry for every bucket up to its total's, a draw's walk stops at the last weight, and a block's stages run below its length, at most BLOCK"
)]

use crate::csr::{CsrGraph, NodeId, SymmetricBuilder};
use salient_tensor::kernels;
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
///
/// A draw is split into its two dependent loads, so that [`draw_edges`]
/// can resolve a block of draws a stage at a time and prefetch each load a
/// stage before it is made: [`Guided::start`] reads the guide entry,
/// [`Guided::walk`] the cumulative weights from there.
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

    /// The guide bucket of `x`, a uniform in `[0, 1)` times
    /// [`Guided::total`]. `x <= total`, so the bucket is at most the last
    /// weight's, the last the table holds.
    #[inline]
    fn bucket(&self, x: f64) -> usize {
        (x * self.scale) as usize
    }

    /// Hints the cache that [`Guided::start`]`(x)` is about to run.
    #[inline]
    fn prefetch_guide(&self, x: f64) {
        kernels::prefetch_read(self.guide.as_ptr().wrapping_add(self.bucket(x)));
    }

    /// Where the walk to `x`'s index starts: the guide entry of its bucket.
    #[inline]
    fn start(&self, x: f64) -> usize {
        self.guide[self.bucket(x)] as usize
    }

    /// Hints the cache that [`Guided::walk`] is about to start at `i`.
    #[inline]
    fn prefetch_cum(&self, i: usize) {
        kernels::prefetch_read(self.cum.as_ptr().wrapping_add(i));
    }

    /// The index `x` draws, walking up from `i = start(x)`. The walk stops
    /// at the last weight at the latest: `x <= total = cum[last]`. Most
    /// walks take zero, one or two steps, which run without a branch; the
    /// loop after them takes a longer one.
    #[inline]
    fn walk(&self, mut i: usize, x: f64) -> usize {
        i += usize::from(self.cum[i] < x);
        i += usize::from(self.cum[i] < x);
        while self.cum[i] < x {
            i += 1;
        }
        i
    }
}

/// Edges [`draw_edges`] resolves together: each stage's loads for the whole
/// block are in flight before the next stage reads the first of them. On
/// a `G100k` build 32 and 64 drew in the same time and 256 about 5 %
/// slower.
pub(crate) const BLOCK: usize = 64;

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
/// Each draw finds its node through a guide table ([`Guided`]), and the
/// draws are resolved [`BLOCK`] edges at a time, every dependent load
/// prefetched a stage ahead ([`draw_edges`]), to the same nodes in the same
/// RNG order as one edge at a time. The edges are counted in both
/// directions as they are drawn and scattered once into the symmetric CSR
/// ([`SymmetricBuilder`]).
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
    // Only the first `n` communities have members, so the global table,
    // last, is at `k.min(n)`.
    let mut tables: Vec<Guided> = (0..k.min(n))
        .map(|c| Guided::new(weights[c..].iter().step_by(k).copied()))
        .collect();
    tables.push(Guided::new(weights.iter().copied()));
    drop(weights);

    let mut builder = SymmetricBuilder::new(n);
    let edges = draw_edges(&mut rng, &tables, k, cfg.p_intra, &mut builder);
    let graph = builder.build(edges);
    CommunityGraph { graph, community }
}

/// Draws the ~`Σw/2` edges from `tables` (the `k.min(n)` community tables,
/// then the global one), counts each in `builder` and returns them, in
/// order, without their self-loops.
///
/// An edge takes three uniforms, `x_u`, `x_p` and `x_v`, in that order, and
/// every edge's are drawn before the next edge's: the order one edge at a
/// time would take them, which is all the bits depend on. Everything after
/// that runs a block of edges a stage at a time, each stage prefetching
/// what the next one loads:
///
/// 1. the uniforms; prefetch `x_u`'s global guide entry;
/// 2. read it; prefetch the cumulative weight it points at;
/// 3. walk to `u`; pick `v`'s table, `u`'s community (`u % k`) if `x_p <
///    p_intra` and the global one otherwise; scale `x_v` by its total and
///    prefetch its guide entry;
/// 4. read it; prefetch the cumulative weight it points at;
/// 5. walk to `v` (member `i` of community `c` is node `c + i·k`); prefetch
///    both endpoints' counts;
/// 6. count and keep the edge unless it is a self-loop.
fn draw_edges(
    rng: &mut impl Rng,
    tables: &[Guided],
    k: usize,
    p_intra: f64,
    builder: &mut SymmetricBuilder,
) -> Vec<(NodeId, NodeId)> {
    let global_at = tables.len() - 1;
    let global = &tables[global_at];
    let num_edges = (global.total() / 2.0).round() as usize;
    let mut edges = Vec::with_capacity(num_edges);
    let (mut x_u, mut x_p, mut x_v) = ([0.0; BLOCK], [0.0; BLOCK], [0.0; BLOCK]);
    // `at` holds the walk's start, then `v`; `table` is `v`'s table.
    let (mut at, mut u, mut table) = ([0; BLOCK], [0; BLOCK], [0; BLOCK]);
    let mut left = num_edges;
    while left > 0 {
        let m = left.min(BLOCK);
        left -= m;
        for j in 0..m {
            x_u[j] = rng.random::<f64>() * global.total();
            x_p[j] = rng.random::<f64>();
            x_v[j] = rng.random::<f64>();
            global.prefetch_guide(x_u[j]);
        }
        for j in 0..m {
            at[j] = global.start(x_u[j]);
            global.prefetch_cum(at[j]);
        }
        for j in 0..m {
            u[j] = global.walk(at[j], x_u[j]);
            table[j] = if x_p[j] < p_intra { u[j] % k } else { global_at };
            let t = &tables[table[j]];
            x_v[j] *= t.total();
            t.prefetch_guide(x_v[j]);
        }
        for j in 0..m {
            let t = &tables[table[j]];
            at[j] = t.start(x_v[j]);
            t.prefetch_cum(at[j]);
        }
        for j in 0..m {
            let i = tables[table[j]].walk(at[j], x_v[j]);
            at[j] = if table[j] == global_at { i } else { table[j] + i * k };
            builder.prefetch(u[j] as NodeId, at[j] as NodeId);
        }
        for j in 0..m {
            let (u, v) = (u[j] as NodeId, at[j] as NodeId);
            if u != v {
                builder.count(u, v);
                edges.push((u, v));
            }
        }
    }
    edges
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

    /// The index the binary search over `g`'s cumulative weights finds for
    /// `x`, as the oracle draws it.
    fn searched(g: &Guided, x: f64) -> usize {
        g.cum.partition_point(|&c| c < x).min(g.cum.len() - 1)
    }

    /// Asserts that the walk from `x`'s guide entry ends at the binary
    /// search's index for every `x`, and counts the walks that went past
    /// the two branch-free steps into the loop.
    fn check_walks(g: &Guided, xs: impl Iterator<Item = f64>) -> usize {
        let mut long = 0;
        for x in xs {
            let start = g.start(x);
            let i = g.walk(start, x);
            assert_eq!(i, searched(g, x), "x = {x}, walk from {start}");
            long += usize::from(i > start + 2);
        }
        long
    }

    #[test]
    fn the_guided_walk_ends_where_the_binary_search_does() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(5);
        let mut heavy = vec![1.0; 1_000];
        // One weight a thousand times the rest's sum: the 500 light weights
        // before it share bucket 0, so walks into them run long.
        heavy[500] = 1e6;
        let shapes = [
            ("power law", power_law_weights(1_000, 2.2, 3.0, 500.0, &mut rng)),
            ("all equal", vec![3.0; 1_000]),
            ("one heavy", heavy),
            ("one weight", vec![2.5]),
        ];
        for (name, weights) in &shapes {
            let g = Guided::new(weights.iter().copied());
            let uniform = (0..100_000).map(|_| rng.random::<f64>() * g.total());
            // Every cumulative weight exactly (a tie belongs to the index
            // it ends), and both ends of the range.
            let ties = g.cum.iter().copied().chain([0.0, g.total()]);
            let long = check_walks(&g, uniform.chain(ties));
            if *name == "one heavy" {
                assert!(long > 0, "no walk went past the branch-free steps");
            }
        }
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
