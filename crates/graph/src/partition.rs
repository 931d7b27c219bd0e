//! Graph partitioning for distributed training (the paper's §8 future-work
//! direction: "distributing the graph and node data … graph partitioning
//! will inevitably be invoked, but the objective may consider not only edge
//! cut and load balance but also the cost of multi-hop neighborhood
//! sampling").
//!
//! Two partitioners are provided — random (hash) partitioning and a
//! BFS-grown balanced partitioner (a cheap stand-in for METIS) — together
//! with the two metrics §8 calls out: edge cut and the *multi-hop sampling
//! communication fraction* (how many sampled feature rows live on a remote
//! partition).

#![expect(
    clippy::indexing_slicing,
    reason = "part has one entry per node (`validate`), partition ids are below k, and node ids come from the graph the partitioning was built on"
)]

use crate::csr::{CsrGraph, NodeId};
use salient_tensor::rng::SliceRandom;

/// A node-to-partition assignment.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// `part[v]` = partition index of node `v`.
    pub part: Vec<u32>,
    /// Number of partitions.
    pub k: usize,
}

impl Partitioning {
    /// Validates the assignment against a graph.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree or a partition id is out of range.
    pub fn validate(&self, graph: &CsrGraph) {
        assert_eq!(self.part.len(), graph.num_nodes(), "one entry per node");
        assert!(
            self.part.iter().all(|&p| (p as usize) < self.k),
            "partition id out of range"
        );
    }

    /// Number of nodes per partition.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.part {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Load imbalance: `max_size / ideal_size` (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = self.part.len() as f64 / self.k as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }

    /// Fraction of edges whose endpoints land in different partitions.
    pub fn edge_cut(&self, graph: &CsrGraph) -> f64 {
        let mut cut = 0usize;
        let mut total = 0usize;
        for v in 0..graph.num_nodes() as NodeId {
            for &u in graph.neighbors(v) {
                total += 1;
                if self.part[v as usize] != self.part[u as usize] {
                    cut += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        }
    }
}

/// Random (hash) partitioning: the DistDGL-default baseline.
pub fn random_partition(graph: &CsrGraph, k: usize, seed: u64) -> Partitioning {
    assert!(k > 0, "need at least one partition");
    let n = graph.num_nodes();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut rng = salient_tensor::rng::StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    let mut part = vec![0u32; n];
    for (rank, &v) in ids.iter().enumerate() {
        part[v as usize] = (rank % k) as u32;
    }
    Partitioning { part, k }
}

/// Balanced BFS-grown partitioning: repeatedly grow a partition by breadth-
/// first search from an unassigned seed until it reaches `n/k` nodes. Keeps
/// partitions connected-ish and locality-preserving — a cheap approximation
/// of multilevel partitioners like METIS.
pub fn bfs_partition(graph: &CsrGraph, k: usize, seed: u64) -> Partitioning {
    assert!(k > 0, "need at least one partition");
    let n = graph.num_nodes();
    let target = n.div_ceil(k);
    let mut part = vec![u32::MAX; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = salient_tensor::rng::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut cursor = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for p in 0..k as u32 {
        let mut grown = 0usize;
        queue.clear();
        while grown < target {
            if queue.is_empty() {
                // Find a fresh unassigned seed.
                while cursor < n && part[order[cursor] as usize] != u32::MAX {
                    cursor += 1;
                }
                if cursor >= n {
                    break;
                }
                queue.push_back(order[cursor]);
                part[order[cursor] as usize] = p;
                grown += 1;
            }
            let Some(v) = queue.pop_front() else { continue };
            for &u in graph.neighbors(v) {
                if grown >= target {
                    break;
                }
                if part[u as usize] == u32::MAX {
                    part[u as usize] = p;
                    grown += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    // Any stragglers (possible with ceil rounding) go to the last partition.
    for p in &mut part {
        if *p == u32::MAX {
            *p = (k - 1) as u32;
        }
    }
    Partitioning { part, k }
}

/// Measures the remote fraction of a sampled MFG's feature rows under a
/// partitioning: given the sampled node list and the partition that owns
/// the batch, how many rows must be fetched across the network?
pub fn remote_fraction(partitioning: &Partitioning, home: u32, node_ids: &[NodeId]) -> f64 {
    if node_ids.is_empty() {
        return 0.0;
    }
    let remote = node_ids
        .iter()
        .filter(|&&v| partitioning.part[v as usize] != home)
        .count();
    remote as f64 / node_ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetConfig;

    #[test]
    fn random_partition_is_balanced() {
        let ds = DatasetConfig::tiny(90).build();
        let p = random_partition(&ds.graph, 4, 0);
        p.validate(&ds.graph);
        assert!(p.imbalance() < 1.05, "imbalance {}", p.imbalance());
    }

    #[test]
    fn bfs_partition_is_balanced_and_cuts_fewer_edges() {
        let ds = DatasetConfig::tiny(91).build();
        let rnd = random_partition(&ds.graph, 4, 0);
        let bfs = bfs_partition(&ds.graph, 4, 0);
        bfs.validate(&ds.graph);
        assert!(bfs.imbalance() < 1.25, "imbalance {}", bfs.imbalance());
        let (rc, bc) = (rnd.edge_cut(&ds.graph), bfs.edge_cut(&ds.graph));
        assert!(
            bc < rc,
            "BFS partitioning should cut fewer edges: {bc:.3} vs random {rc:.3}"
        );
    }

    #[test]
    fn remote_fraction_bounds() {
        let ds = DatasetConfig::tiny(92).build();
        let p = random_partition(&ds.graph, 4, 1);
        let nodes: Vec<u32> = (0..100).collect();
        let f = remote_fraction(&p, 0, &nodes);
        assert!((0.0..=1.0).contains(&f));
        // Random 4-way partitioning: ~3/4 of arbitrary nodes are remote.
        assert!((0.55..0.95).contains(&f), "got {f}");
        assert_eq!(remote_fraction(&p, 0, &[]), 0.0);
    }

    #[test]
    fn single_partition_has_no_cut() {
        let ds = DatasetConfig::tiny(93).build();
        let p = bfs_partition(&ds.graph, 1, 0);
        assert_eq!(p.edge_cut(&ds.graph), 0.0);
        assert_eq!(p.sizes(), vec![ds.graph.num_nodes()]);
    }
}
