//! Hop-by-hop reference traces for the sampler microbenchmark.
//!
//! The paper's exploration "executed the parameterized code on a reference
//! hop-by-hop trace of the nodes which made up a sampled MFG … to mitigate
//! sampling variability, we benchmark each individual hop of the reference
//! trace instead of an end-to-end execution" (§4.1). A [`SampleTrace`] fixes
//! the sampled neighbor choices once; replaying it through different id-map
//! implementations isolates data-structure cost from sampling randomness.

#![expect(
    clippy::indexing_slicing,
    reason = "edge endpoints are local ids below n_dst and n_src <= node_ids.len(), as `MessageFlowGraph::validate` checks of what the sampler builds"
)]

use crate::mfg::{MessageFlowGraph, MfgLayer};
use crate::structures::IdMap;
use salient_graph::{CsrGraph, NodeId};

/// The frozen sampling decisions of one hop: for each destination node of
/// the frontier (by local index), the global ids of its sampled neighbors.
#[derive(Clone, Debug)]
pub struct HopTrace {
    /// Number of frontier (destination) nodes at this hop.
    pub frontier_len: usize,
    /// `neighbors[i]` = sampled neighbor globals of frontier node `i`.
    pub neighbors: Vec<Vec<NodeId>>,
}

/// A complete frozen sampling run for one batch.
#[derive(Clone, Debug)]
pub struct SampleTrace {
    /// The mini-batch nodes.
    pub batch: Vec<NodeId>,
    /// One trace per hop, in sampling order (batch outward).
    pub hops: Vec<HopTrace>,
}

impl SampleTrace {
    /// Total sampled (dst, neighbor) pairs across all hops.
    pub fn num_samples(&self) -> usize {
        self.hops
            .iter()
            .map(|h| h.neighbors.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

/// Records a reference trace by running the tuned sampler once and logging
/// every sampled neighbor.
///
/// # Panics
///
/// Panics if `batch` is empty or has duplicates, or `fanouts` is empty.
pub fn record_trace(
    graph: &CsrGraph,
    batch: &[NodeId],
    fanouts: &[usize],
    seed: u64,
) -> SampleTrace {
    // Each layer's edges, grouped by destination, in hop order: sampling
    // order is the reverse of the MFG's forward layer order.
    let mfg = crate::FastSampler::new(seed).sample(graph, batch, fanouts);
    let mut hops = Vec::with_capacity(mfg.layers.len());
    for layer in mfg.layers.iter().rev() {
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); layer.n_dst];
        for (&s, &d) in layer.edge_src.iter().zip(layer.edge_dst.iter()) {
            neighbors[d as usize].push(mfg.node_ids[s as usize]);
        }
        hops.push(HopTrace {
            frontier_len: layer.n_dst,
            neighbors,
        });
    }
    SampleTrace {
        batch: batch.to_vec(),
        hops,
    }
}

/// Replays a trace through an arbitrary [`IdMap`], rebuilding the MFG. The
/// work performed is exactly the construction path of the sampler minus the
/// random choices — the part whose cost the Figure-2 benchmark attributes to
/// data structures.
///
/// # Panics
///
/// Panics if the trace's frontier sizes are inconsistent with the number of
/// nodes discovered while replaying.
pub fn replay_trace<M: IdMap>(trace: &SampleTrace, map: &mut M) -> MessageFlowGraph {
    // The trace keeps no graph: its largest id bounds the keys.
    let keys = trace.hops.iter().flat_map(|h| h.neighbors.iter().flatten());
    let num_nodes = trace.batch.iter().chain(keys).max().map_or(0, |&v| v as usize + 1);
    map.begin(num_nodes);
    let mut node_ids: Vec<NodeId> = Vec::with_capacity(trace.batch.len() * 8);
    for &v in &trace.batch {
        let local = node_ids.len() as u32;
        let (_, new) = map.get_or_insert(v, local);
        assert!(new, "duplicate node {v} in traced batch");
        node_ids.push(v);
    }
    let mut layers_rev = Vec::with_capacity(trace.hops.len());
    for hop in &trace.hops {
        assert_eq!(
            hop.frontier_len,
            node_ids.len(),
            "trace frontier does not match replay frontier"
        );
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        for (i, ns) in hop.neighbors.iter().enumerate() {
            for &u in ns {
                let fallback = node_ids.len() as u32;
                let (local, new) = map.get_or_insert(u, fallback);
                if new {
                    node_ids.push(u);
                }
                edge_src.push(local);
                edge_dst.push(i as u32);
            }
        }
        layers_rev.push(MfgLayer {
            edge_src,
            edge_dst,
            n_src: node_ids.len(),
            n_dst: hop.frontier_len,
        });
    }
    map.end(&node_ids);
    layers_rev.reverse();
    MessageFlowGraph {
        node_ids,
        layers: layers_rev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::{DenseIdMap, FlatIdMap, StdIdMap};
    use salient_graph::DatasetConfig;

    #[test]
    fn replay_reproduces_the_recording_run() {
        let ds = DatasetConfig::tiny(8).build();
        let batch = &ds.splits.train[..16];
        let trace = record_trace(&ds.graph, batch, &[8, 4], 13);
        assert!(trace.num_samples() > 0);

        let replayed = replay_trace(&trace, &mut FlatIdMap::default());
        replayed.validate().unwrap();
        assert_eq!(replayed.batch_size(), 16);

        // A different map implementation must reach the same node set and
        // edge multiset (locals may be assigned identically here because
        // insertion order is deterministic).
        let replayed_std = replay_trace(&trace, &mut StdIdMap::new());
        assert_eq!(replayed, replayed_std);
        let mut dense = DenseIdMap::new();
        for _ in 0..2 {
            assert_eq!(replay_trace(&trace, &mut dense), replayed);
        }
    }

    #[test]
    fn trace_hops_cover_all_fanouts() {
        let ds = DatasetConfig::tiny(8).build();
        let trace = record_trace(&ds.graph, &ds.splits.train[..4], &[5, 3, 2], 0);
        assert_eq!(trace.hops.len(), 3);
        assert_eq!(trace.hops[0].frontier_len, 4, "first hop expands the batch");
        assert!(trace.hops[1].frontier_len >= trace.hops[0].frontier_len);
    }
}
