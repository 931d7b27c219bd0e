//! Subgraph sampling (the Cluster-GCN / GraphSAINT family, §2.2).
//!
//! These methods "sample a connected subgraph and compute mini-batch loss
//! restricted to this subgraph": every GNN layer operates on the *same*
//! induced subgraph rather than a shrinking bipartite tower. We implement
//! the GraphSAINT random-walk sampler — union of short random walks from a
//! set of root nodes — and express the result as an MFG whose every hop is
//! the induced subgraph, so the standard models consume it unchanged.

#![expect(
    clippy::indexing_slicing,
    reason = "random_range(0..ns.len()) is in bounds and ns is checked non-empty before the walk step; pos is where binary_search found the key"
)]

use crate::mfg::{MessageFlowGraph, MfgLayer};
use crate::structures::{FlatIdMap, IdMap};
use salient_tensor::rng::StdRng;
use salient_tensor::rng::Rng;
use salient_graph::{CsrGraph, NodeId};

/// A GraphSAINT-style random-walk subgraph sampler.
#[derive(Debug)]
pub struct SaintSampler {
    rng: StdRng,
    map: FlatIdMap,
    /// Length of each random walk.
    pub walk_length: usize,
}

impl SaintSampler {
    /// Creates a sampler with walks of the given length.
    pub fn new(seed: u64, walk_length: usize) -> Self {
        SaintSampler {
            rng: StdRng::seed_from_u64(seed),
            map: FlatIdMap::with_capacity(1 << 12),
            walk_length,
        }
    }

    /// Samples the union of random walks rooted at `roots`, induces the
    /// subgraph, and returns it as an MFG of `num_layers` identical hops.
    /// The first `roots.len()` entries of `node_ids` are the roots (the
    /// supervised batch), matching the PyG prefix convention.
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty/duplicated or `num_layers == 0`.
    pub fn sample(
        &mut self,
        graph: &CsrGraph,
        roots: &[NodeId],
        num_layers: usize,
    ) -> MessageFlowGraph {
        assert!(!roots.is_empty(), "cannot sample an empty batch");
        assert!(num_layers > 0, "need at least one layer");
        self.map.clear();
        let mut node_ids: Vec<NodeId> = Vec::with_capacity(roots.len() * (self.walk_length + 1));
        for &v in roots {
            let local = node_ids.len() as u32;
            let (_, new) = self.map.get_or_insert(v, local);
            assert!(new, "duplicate root {v}");
            node_ids.push(v);
        }
        // Random walks.
        for &root in roots {
            let mut cur = root;
            for _ in 0..self.walk_length {
                let ns = graph.neighbors(cur);
                if ns.is_empty() {
                    break;
                }
                cur = ns[self.rng.random_range(0..ns.len())];
                let fallback = node_ids.len() as u32;
                let (_, new) = self.map.get_or_insert(cur, fallback);
                if new {
                    node_ids.push(cur);
                }
            }
        }
        // Induced subgraph edges, in local ids: membership via binary search
        // over a sorted (global, local) index.
        let n = node_ids.len();
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut sorted: Vec<(NodeId, u32)> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        sorted.sort_unstable();
        for (i, &v) in node_ids.iter().enumerate() {
            for &u in graph.neighbors(v) {
                if let Ok(pos) = sorted.binary_search_by_key(&u, |&(g, _)| g) {
                    // Aggregation edge u -> v (v gathers from u).
                    edge_src.push(sorted[pos].1);
                    edge_dst.push(i as u32);
                }
            }
        }
        let layer = MfgLayer {
            edge_src,
            edge_dst,
            n_src: n,
            n_dst: n,
        };
        MessageFlowGraph {
            node_ids,
            layers: vec![layer; num_layers],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;

    #[test]
    fn saint_subgraph_is_valid_and_induced() {
        let ds = DatasetConfig::tiny(80).build();
        let roots = &ds.splits.train[..16];
        let mut s = SaintSampler::new(2, 4);
        let mfg = s.sample(&ds.graph, roots, 3);
        mfg.validate().unwrap();
        assert_eq!(&mfg.node_ids[..16], roots);
        assert_eq!(mfg.layers.len(), 3);
        // Every edge of the MFG exists in the graph, and every edge of the
        // induced subgraph is present (check a node's full adjacency).
        let layer = &mfg.layers[0];
        for (&s_, &d) in layer.edge_src.iter().zip(layer.edge_dst.iter()) {
            let (gs, gd) = (mfg.node_ids[s_ as usize], mfg.node_ids[d as usize]);
            assert!(ds.graph.neighbors(gd).binary_search(&gs).is_ok());
        }
        // Induced completeness: for the first node, every neighbor inside
        // the node set must appear as an incoming edge.
        let v = mfg.node_ids[0];
        let in_set: std::collections::HashSet<u32> = mfg.node_ids.iter().copied().collect();
        let expected: usize = ds
            .graph
            .neighbors(v)
            .iter()
            .filter(|u| in_set.contains(u))
            .count();
        let got = layer.edge_dst.iter().filter(|&&d| d == 0).count();
        assert_eq!(got, expected, "induced subgraph must keep all internal edges");
    }

    #[test]
    fn subgraph_size_scales_with_walk_length() {
        let ds = DatasetConfig::tiny(81).build();
        let roots = &ds.splits.train[..8];
        let short = SaintSampler::new(0, 1).sample(&ds.graph, roots, 2).num_nodes();
        let long = SaintSampler::new(0, 12).sample(&ds.graph, roots, 2).num_nodes();
        assert!(long > short, "longer walks should reach more nodes: {short} vs {long}");
    }

}
