//! The dataset build by binary search and two scatters, kept as the
//! reference `DatasetConfig::build` must equal bit for bit: every endpoint
//! draw a `partition_point` over the cumulative weights, the edge list
//! scattered into a directed CSR and that into a second, symmetric one, the
//! features drawn as one `f32` matrix and then quantized.

use crate::csr::{CsrGraph, NodeId};
use crate::datasets::{Dataset, DatasetConfig};
use crate::features::{FeatureMatrix, FeatureSlab};
use crate::generate::{power_law_weights, BLOCK};
use crate::labels::planted_features;
use crate::split::Splits;
use salient_tensor::rng::{Rng, StdRng};
use salient_tensor::Dtype;

/// The symmetrized, sorted and deduplicated graph, through a second index
/// array the width of both directions.
fn to_undirected(g: &CsrGraph) -> CsrGraph {
    let n = g.num_nodes();
    let mut deg = vec![0usize; n];
    for u in 0..n {
        for &v in g.neighbors(u as NodeId) {
            if v as usize != u {
                deg[u] += 1;
                deg[v as usize] += 1;
            }
        }
    }
    let mut indptr = vec![0usize; n + 1];
    for i in 0..n {
        indptr[i + 1] = indptr[i] + deg[i];
    }
    let mut cursor = indptr.clone();
    let mut indices = vec![0 as NodeId; indptr[n]];
    for u in 0..n {
        for &v in g.neighbors(u as NodeId) {
            if v as usize != u {
                indices[cursor[u]] = v;
                cursor[u] += 1;
                indices[cursor[v as usize]] = u as NodeId;
                cursor[v as usize] += 1;
            }
        }
    }
    let mut out_indptr = vec![0usize; n + 1];
    let mut out_indices = Vec::with_capacity(indices.len());
    for u in 0..n {
        let row = &mut indices[indptr[u]..indptr[u + 1]];
        row.sort_unstable();
        let mut prev: Option<NodeId> = None;
        for &v in row.iter() {
            if prev != Some(v) {
                out_indices.push(v);
                prev = Some(v);
            }
        }
        out_indptr[u + 1] = out_indices.len();
    }
    CsrGraph::from_csr(out_indptr, out_indices)
}

/// The community Chung–Lu graph and its community per node.
fn chung_lu(cfg: &DatasetConfig) -> (CsrGraph, Vec<u32>) {
    let (n, k) = (cfg.num_nodes, cfg.num_classes);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let weights = power_law_weights(n, cfg.alpha, cfg.d_min, cfg.d_max, &mut rng);
    let community: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in 0..n {
        members[community[v] as usize].push(v as NodeId);
    }
    let build_cum = |ids: &[NodeId]| -> Vec<f64> {
        let mut acc = 0.0;
        ids.iter()
            .map(|&v| {
                acc += weights[v as usize];
                acc
            })
            .collect()
    };
    let all_ids: Vec<NodeId> = (0..n as NodeId).collect();
    let global_cum = build_cum(&all_ids);
    let member_cum: Vec<Vec<f64>> = members.iter().map(|m| build_cum(m)).collect();
    let sample_from = |cum: &[f64], ids: &[NodeId], rng: &mut StdRng| -> NodeId {
        let x: f64 = rng.random::<f64>() * *cum.last().unwrap();
        ids[cum.partition_point(|&c| c < x).min(ids.len() - 1)]
    };
    let total_weight: f64 = weights.iter().sum();
    let mut edges = Vec::new();
    for _ in 0..(total_weight / 2.0).round() as usize {
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
    (to_undirected(&CsrGraph::from_edges(n, &edges)), community)
}

/// The dataset `cfg` describes, built the reference way.
pub(crate) fn build(cfg: &DatasetConfig) -> Dataset {
    let (graph, labels) = chung_lu(cfg);
    let raw = planted_features(&labels, &cfg.feature_config());
    let (ft, fv, fs) = cfg.split_fracs;
    Dataset {
        name: cfg.name.clone(),
        graph,
        features: FeatureMatrix::from_f32_dtype(cfg.dtype, cfg.num_nodes, cfg.feat_dim, &raw),
        labels,
        num_classes: cfg.num_classes,
        splits: Splits::random(cfg.num_nodes, ft, fv, fs, cfg.seed ^ 0x5EED),
    }
}

/// The feature store's bits, at either dtype.
fn feature_bits(f: &FeatureMatrix) -> Vec<u32> {
    match f.slab() {
        FeatureSlab::Half(v) => v.iter().map(|h| u32::from(h.to_bits())).collect(),
        FeatureSlab::Full(v) => v.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Asserts that `cfg` builds to the reference's bits: graph, features,
/// labels and splits.
pub(crate) fn assert_builds_as_the_oracle(cfg: &DatasetConfig) {
    let (got, want) = (cfg.build(), build(cfg));
    let what = format!("{} ({} nodes, seed {}, {:?})", cfg.name, cfg.num_nodes, cfg.seed, cfg.dtype);
    assert_eq!(got.graph.indptr(), want.graph.indptr(), "{what}: indptr");
    assert_eq!(got.graph.indices(), want.graph.indices(), "{what}: indices");
    assert_eq!(got.labels, want.labels, "{what}: labels");
    assert_eq!(
        (got.features.num_nodes(), got.features.dim(), got.features.dtype()),
        (want.features.num_nodes(), want.features.dim(), want.features.dtype()),
        "{what}: feature shape"
    );
    assert!(feature_bits(&got.features) == feature_bits(&want.features), "{what}: feature bits");
    assert_eq!(
        (&got.splits.train, &got.splits.val, &got.splits.test),
        (&want.splits.train, &want.splits.val, &want.splits.test),
        "{what}: splits"
    );
}

/// The benchmark ledger's products-like dataset at `nodes` nodes: 100 f16
/// features, a 2 048-node train split and 70 % of the nodes as test split.
pub(crate) fn ledger_config(seed: u64, nodes: usize) -> DatasetConfig {
    DatasetConfig {
        name: format!("G{}k", nodes / 1000),
        num_nodes: nodes,
        feat_dim: 100,
        split_fracs: (2_048.0 / nodes as f64, 0.016, 0.70),
        seed,
        dtype: Dtype::F16,
        ..DatasetConfig::products_sim(1.0)
    }
}

mod tests {
    use super::*;

    /// The benchmark's two seeds at its own `G100k` shape; debug builds,
    /// which walk the reference slowly, check the `G10k` shape instead.
    #[test]
    fn the_ledger_datasets_build_to_the_oracle_bits() {
        let nodes = if cfg!(debug_assertions) { 10_000 } else { 100_000 };
        for seed in [2868, 94_445_095] {
            assert_builds_as_the_oracle(&ledger_config(seed, nodes));
        }
    }

    #[test]
    fn every_preset_builds_to_the_oracle_bits() {
        let mut configs = vec![
            DatasetConfig::tiny(0),
            DatasetConfig::tiny(77),
            DatasetConfig { num_nodes: 2_000, ..DatasetConfig::products_sim(1.0) },
            ledger_config(1, 10_000),
            DatasetConfig::arxiv_sim(0.1),
            DatasetConfig::products_sim(0.1),
            DatasetConfig::papers_sim(0.02),
        ];
        let full: Vec<DatasetConfig> =
            configs.iter().take(3).map(|c| DatasetConfig { dtype: Dtype::F32, ..c.clone() }).collect();
        configs.extend(full);
        for cfg in &configs {
            assert_builds_as_the_oracle(cfg);
        }
    }

    /// The number of edges `cfg` draws, self-loops included.
    fn edges_drawn(cfg: &DatasetConfig) -> usize {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let weights = power_law_weights(cfg.num_nodes, cfg.alpha, cfg.d_min, cfg.d_max, &mut rng);
        (weights.iter().sum::<f64>() / 2.0).round() as usize
    }

    #[test]
    fn edge_cases_build_to_the_oracle_bits() {
        let base = DatasetConfig { num_nodes: 500, ..DatasetConfig::tiny(3) };
        let mut cases = vec![
            DatasetConfig { num_nodes: 1, ..base.clone() },
            DatasetConfig { num_nodes: 2, num_classes: 3, ..base.clone() },
            DatasetConfig { num_classes: 1, ..base.clone() },
            DatasetConfig { p_intra: 0.0, ..base.clone() },
            DatasetConfig { p_intra: 1.0, ..base.clone() },
            DatasetConfig { d_min: 7.0, d_max: 7.0, ..base.clone() },
            DatasetConfig { num_nodes: 40, num_classes: 40, ..base.clone() },
            // Three nodes, each its own community: every intra-community
            // draw, and a third of the rest, is a self-loop.
            DatasetConfig { num_nodes: 3, d_min: 200.0, d_max: 200.0, ..base.clone() },
        ];
        // Draws that end one edge into a block, one short of a full block,
        // on a full block and one edge past it: `n` nodes of degree `d`
        // draw `n·d/2` edges.
        let blocks = [(2, 1.0, 1), (BLOCK - 1, 2.0, BLOCK - 1), (BLOCK, 2.0, BLOCK), (BLOCK + 1, 2.0, BLOCK + 1)];
        for (nodes, degree, edges) in blocks {
            let cfg = DatasetConfig { num_nodes: nodes, d_min: degree, d_max: degree, ..base.clone() };
            assert_eq!(edges_drawn(&cfg), edges, "{nodes} nodes of degree {degree}");
            cases.push(cfg);
        }
        for cfg in &cases {
            assert_builds_as_the_oracle(cfg);
        }
    }
}
