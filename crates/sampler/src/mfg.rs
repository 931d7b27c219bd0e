//! Message-flow graphs (MFGs): the sampled computation structure of one
//! mini-batch.
//!
//! Node-wise sampling (§4.1) produces, for a batch `V_b` and fanouts
//! `(d¹, …, d^L)`, a sequence of bipartite graphs. We follow the PyG
//! `NeighborSampler` layout exactly:
//!
//! * a single `node_ids` list of global ids with the *prefix property*: the
//!   batch nodes are `node_ids[..batch_size]`, the frontier after one hop is
//!   a longer prefix, and so on;
//! * one [`MfgLayer`] per hop, each an edge list in *local* ids, stored in
//!   forward order (the layer touching raw features first).
//!
//! A GNN forward pass starts from `x = features[node_ids]` and per layer
//! computes `x_target = x[:n_dst]` then aggregates over the edge list — the
//! exact semantics of Listing 1 in the paper.

#![expect(
    clippy::indexing_slicing,
    reason = "`validate` returns early on an empty layer list and checks i + 1 < layers.len() in the same condition that reads it"
)]

use salient_graph::NodeId;

/// One bipartite hop of a message-flow graph, in local ids.
///
/// **Invariant the samplers keep:** `edge_dst` is non-decreasing — every
/// sampler in this crate, and `core::infer::full_graph_mfg`, emits a hop
/// destination by destination (`tests/properties.rs` checks all of them).
/// An edge list in that order already is a CSR row index, and the
/// aggregation kernel uses it as one without sorting
/// (`salient_tensor::kernels`). A hand-built layer in any other order is
/// still valid and aggregates to the same values, through a counting sort.
#[derive(Clone, Debug, PartialEq)]
pub struct MfgLayer {
    /// Local source index of each edge (`< n_src`).
    pub edge_src: Vec<u32>,
    /// Local destination index of each edge (`< n_dst`).
    pub edge_dst: Vec<u32>,
    /// Number of source nodes (rows of the layer input).
    pub n_src: usize,
    /// Number of destination nodes (rows of the layer output; a prefix of
    /// the sources).
    pub n_dst: usize,
}

impl MfgLayer {
    /// Number of edges in this hop.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Validates local-id bounds and the prefix property.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.n_dst > self.n_src {
            return Err(format!(
                "destinations ({}) must be a prefix of sources ({})",
                self.n_dst, self.n_src
            ));
        }
        if self.edge_src.len() != self.edge_dst.len() {
            return Err("edge arrays must have equal length".into());
        }
        if let Some(&s) = self.edge_src.iter().find(|&&s| s as usize >= self.n_src) {
            return Err(format!("edge source {s} out of range ({})", self.n_src));
        }
        if let Some(&d) = self.edge_dst.iter().find(|&&d| d as usize >= self.n_dst) {
            return Err(format!("edge destination {d} out of range ({})", self.n_dst));
        }
        Ok(())
    }
}

/// A sampled multi-hop computation graph for one mini-batch.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageFlowGraph {
    /// Global ids of every node touched by the batch; the first
    /// `batch_size()` entries are the batch (output) nodes.
    pub node_ids: Vec<NodeId>,
    /// Hops in forward order: `layers[0]` consumes the full `node_ids`
    /// feature rows, `layers.last()` produces the batch outputs.
    pub layers: Vec<MfgLayer>,
}

impl MessageFlowGraph {
    /// Number of batch (output) nodes.
    pub fn batch_size(&self) -> usize {
        self.layers.last().map_or(self.node_ids.len(), |l| l.n_dst)
    }

    /// Total number of sampled nodes (feature rows to slice and transfer).
    pub fn num_nodes(&self) -> usize {
        self.node_ids.len()
    }

    /// Total edges across all hops.
    pub fn num_edges(&self) -> usize {
        self.layers.iter().map(MfgLayer::num_edges).sum()
    }

    /// Bytes of the MFG structure itself (edge lists + node ids), i.e. what
    /// must cross the CPU→GPU bus besides features and labels.
    pub fn structure_bytes(&self) -> usize {
        self.node_ids.len() * 4 + self.num_edges() * 8
    }

    /// Validates the whole MFG: per-layer invariants plus inter-layer
    /// chaining (`layers[i].n_dst == layers[i+1].n_src`) and the node-list
    /// prefix property (`layers[0].n_src == node_ids.len()`).
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("MFG must have at least one layer".into());
        }
        if self.layers[0].n_src != self.node_ids.len() {
            return Err(format!(
                "first layer reads {} rows but {} nodes were sampled",
                self.layers[0].n_src,
                self.node_ids.len()
            ));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer
                .validate()
                .map_err(|e| format!("layer {i}: {e}"))?;
            if i + 1 < self.layers.len() && layer.n_dst != self.layers[i + 1].n_src {
                return Err(format!(
                    "layer {i} produces {} rows but layer {} expects {}",
                    layer.n_dst,
                    i + 1,
                    self.layers[i + 1].n_src
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_mfg() -> MessageFlowGraph {
        // Batch {0}; hop 1 adds node 1; hop 2 adds node 2.
        MessageFlowGraph {
            node_ids: vec![10, 20, 30],
            layers: vec![
                MfgLayer {
                    edge_src: vec![2, 1],
                    edge_dst: vec![1, 0],
                    n_src: 3,
                    n_dst: 2,
                },
                MfgLayer {
                    edge_src: vec![1],
                    edge_dst: vec![0],
                    n_src: 2,
                    n_dst: 1,
                },
            ],
        }
    }

    #[test]
    fn accessors() {
        let m = valid_mfg();
        assert_eq!(m.batch_size(), 1);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.num_edges(), 3);
        assert_eq!(m.structure_bytes(), 3 * 4 + 3 * 8);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validate_catches_broken_chain() {
        let mut m = valid_mfg();
        m.layers[0].n_dst = 1; // breaks chaining with layer 1 (n_src = 2)
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range_edge() {
        let mut m = valid_mfg();
        m.layers[1].edge_src[0] = 9;
        assert!(m.validate().unwrap_err().contains("source"));
    }

    #[test]
    fn validate_catches_prefix_violation() {
        let mut m = valid_mfg();
        m.node_ids.push(40);
        assert!(m.validate().unwrap_err().contains("sampled"));
    }

    #[test]
    fn layer_validate_dst_not_prefix() {
        let l = MfgLayer {
            edge_src: vec![],
            edge_dst: vec![],
            n_src: 2,
            n_dst: 3,
        };
        assert!(l.validate().is_err());
    }
}
