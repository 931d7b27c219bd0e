//! Compressed sparse row (CSR) graph storage.
//!
//! The input graph is stored exactly as PyG stores it for `NeighborSampler`:
//! a row pointer array and a column index array. Node ids are `u32` (the
//! largest paper dataset, ogbn-papers100M, has 111 M nodes, well within
//! range) which halves index memory versus `u64` and matches the memory-
//! bandwidth-sensitive design of the paper's sampler.

#![expect(
    clippy::indexing_slicing,
    reason = "the CSR contract: indptr has num_nodes+1 entries and node ids are validated < num_nodes at build"
)]

use salient_tensor::kernels;

/// A node identifier in the global input graph.
pub type NodeId = u32;

/// An immutable graph in compressed sparse row form.
///
/// `indptr` has `n + 1` entries; the neighbors of node `v` are
/// `indices[indptr[v] .. indptr[v + 1]]`.
///
/// # Examples
///
/// ```
/// use salient_graph::CsrGraph;
///
/// // 0 -> 1, 0 -> 2, 1 -> 2
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(1), 1);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    indptr: Vec<usize>,
    indices: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `indptr` must be monotone,
    /// start at 0, end at `indices.len()`, and every index must be a valid
    /// node.
    #[expect(clippy::unwrap_used, reason = "`last` follows the assert that indptr is not empty")]
    pub fn from_csr(indptr: Vec<usize>, indices: Vec<NodeId>) -> Self {
        assert!(!indptr.is_empty(), "indptr must have at least one entry");
        assert_eq!(indptr[0], 0, "indptr must start at zero");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr must end at the number of edges"
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be monotone non-decreasing"
        );
        let n = indptr.len() - 1;
        assert!(
            indices.iter().all(|&v| (v as usize) < n),
            "edge endpoint out of range"
        );
        CsrGraph { indptr, indices }
    }

    /// Builds a graph from a directed edge list. Duplicate edges are kept.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut indptr = vec![0usize; num_nodes + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u}, {v}) out of range for {num_nodes} nodes"
            );
            indptr[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0 as NodeId; edges.len()];
        for &(u, v) in edges {
            indices[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        CsrGraph { indptr, indices }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Out-degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.indptr[v + 1] - self.indptr[v]
    }

    /// The neighbors of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }

    /// Hints the cache that [`CsrGraph::neighbors`]`(v)` is about to be read:
    /// a sampler walking a frontier knows the next rows it will visit, the
    /// hardware prefetcher cannot. A no-op where the target has no such hint.
    ///
    /// It reads `indptr[v]` to find the row, so it waits for that load
    /// unless [`CsrGraph::prefetch_row_ptr`]`(v)` ran a little earlier.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn prefetch_neighbors(&self, v: NodeId) {
        // `wrapping_add` keeps the pointer arithmetic defined for an empty
        // last row.
        kernels::prefetch_read(self.indices.as_ptr().wrapping_add(self.indptr[v as usize]));
    }

    /// Hints the cache that `v`'s row pointers (`indptr[v]` and
    /// `indptr[v + 1]`) are about to be read, by
    /// [`CsrGraph::prefetch_neighbors`] or [`CsrGraph::neighbors`]. A pure
    /// hint: nothing is loaded, so it never waits and accepts any `v`.
    #[inline]
    pub fn prefetch_row_ptr(&self, v: NodeId) {
        let at = self.indptr.as_ptr().wrapping_add(v as usize);
        kernels::prefetch_read(at);
        // `indptr[v + 1]` is on the next line for one node in eight.
        kernels::prefetch_read(at.wrapping_add(1));
    }

    /// The raw row-pointer array (length `num_nodes() + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The raw column-index array.
    pub fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// Returns the symmetrized graph: for every edge `(u, v)` both `(u, v)`
    /// and `(v, u)` are present, with duplicates (and self-loops) removed.
    ///
    /// The paper makes all benchmark graphs undirected "as is common
    /// practice" (§6).
    pub fn to_undirected(&self) -> CsrGraph {
        let n = self.num_nodes();
        let edges = || (0..n as NodeId).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)));
        let mut builder = SymmetricBuilder::new(n);
        for (u, v) in edges() {
            builder.count(u, v);
        }
        builder.build(edges())
    }

    /// Whether every adjacency list is sorted (useful precondition for
    /// binary-search based membership tests).
    pub fn is_sorted(&self) -> bool {
        (0..self.num_nodes()).all(|u| self.row_is_sorted(u as NodeId))
    }

    fn row_is_sorted(&self, u: NodeId) -> bool {
        self.neighbors(u).windows(2).all(|w| w[0] <= w[1])
    }

    /// Whether the graph is symmetric (every edge has its reverse).
    ///
    /// Rows may be in any order: a sorted row is binary-searched, any other
    /// row is scanned.
    pub fn is_undirected(&self) -> bool {
        let sorted: Vec<bool> = (0..self.num_nodes() as NodeId).map(|u| self.row_is_sorted(u)).collect();
        (0..self.num_nodes() as NodeId).all(|u| {
            self.neighbors(u).iter().all(|&v| {
                let row = self.neighbors(v);
                if sorted[v as usize] {
                    row.binary_search(&u).is_ok()
                } else {
                    row.contains(&u)
                }
            })
        })
    }

    /// Histogram of out-degrees: `hist[d]` = number of nodes of degree `d`,
    /// capped at `max_degree` (all larger degrees land in the last bucket).
    pub fn degree_histogram(&self, max_degree: usize) -> Vec<usize> {
        let mut hist = vec![0usize; max_degree + 1];
        for v in 0..self.num_nodes() {
            let d = self.degree(v as NodeId).min(max_degree);
            hist[d] += 1;
        }
        hist
    }

    /// Bytes of memory used by the CSR arrays.
    pub fn memory_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<NodeId>()
    }
}

/// Builds the symmetric CSR of an edge list in one scatter: every edge is
/// counted in both directions first ([`SymmetricBuilder::count`], as the
/// edges are produced), then written once into the one index array it will
/// end in, whose rows are sorted and deduplicated in place. Self-loops are
/// dropped. The dataset generator and [`CsrGraph::to_undirected`] both
/// build through it.
pub(crate) struct SymmetricBuilder {
    /// `ends[u]` counts `u`'s entries until [`SymmetricBuilder::build`]
    /// turns the counts into row cursors.
    ends: Vec<usize>,
}

impl SymmetricBuilder {
    /// A builder over `num_nodes` nodes with nothing counted.
    pub(crate) fn new(num_nodes: usize) -> Self {
        SymmetricBuilder { ends: vec![0; num_nodes + 1] }
    }

    /// Counts the edge `(u, v)` in both directions (a self-loop not at all).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    #[inline]
    pub(crate) fn count(&mut self, u: NodeId, v: NodeId) {
        if u != v {
            self.ends[u as usize] += 1;
            self.ends[v as usize] += 1;
        }
    }

    /// Scatters `edges` into the graph. They must be the edges counted, in
    /// any order: both callers pass the same edges to `count` and here.
    ///
    /// # Panics
    ///
    /// Panics if fewer or more edges are scattered than were counted, or
    /// the first row received a different number.
    pub(crate) fn build(self, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> CsrGraph {
        let mut indptr = self.ends;
        let n = indptr.len() - 1;
        // Inclusive prefix sums: `indptr[u]` is where row `u` ends, and the
        // scatter walks each row's cursor down to where it starts.
        let mut total = 0;
        for end in &mut indptr[..n] {
            total += *end;
            *end = total;
        }
        indptr[n] = total;
        let mut indices = vec![0 as NodeId; total];
        let mut scattered = 0;
        for (u, v) in edges {
            if u != v {
                indptr[u as usize] -= 1;
                indices[indptr[u as usize]] = v;
                indptr[v as usize] -= 1;
                indices[indptr[v as usize]] = u;
                scattered += 2;
            }
        }
        assert!(scattered == total && indptr[0] == 0, "the edges scattered are not the edges counted");
        // Sort each row, and compact it, deduplicated, down to where the
        // previous row now ends.
        let mut out = 0;
        for u in 0..n {
            let (start, end) = (indptr[u], indptr[u + 1]);
            indices[start..end].sort_unstable();
            indptr[u] = out;
            for i in start..end {
                let v = indices[i];
                if i == start || v != indices[out - 1] {
                    indices[out] = v;
                    out += 1;
                }
            }
        }
        indptr[n] = out;
        indices.truncate(out);
        indices.shrink_to_fit();
        CsrGraph { indptr, indices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn from_edges_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn from_csr_validates() {
        let g = CsrGraph::from_csr(vec![0, 2, 2, 3], vec![1, 2, 0]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[NodeId]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_csr_rejects_decreasing_indptr() {
        CsrGraph::from_csr(vec![0, 2, 1, 3], vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_csr_rejects_bad_index() {
        CsrGraph::from_csr(vec![0, 1], vec![5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_endpoint() {
        CsrGraph::from_edges(2, &[(0, 3)]);
    }

    #[test]
    fn to_undirected_symmetrizes_and_dedups() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 1), (1, 0), (2, 2), (2, 3)]);
        let u = g.to_undirected();
        assert!(u.is_undirected());
        assert!(u.is_sorted());
        assert_eq!(u.neighbors(0), &[1]);
        assert_eq!(u.neighbors(1), &[0]);
        assert_eq!(u.neighbors(2), &[3], "self loop dropped");
        assert_eq!(u.neighbors(3), &[2]);
    }

    #[test]
    fn is_undirected_holds_for_rows_in_edge_order() {
        // Row 0 is [3, 1, 2]: a binary search in it misses 1.
        let g = CsrGraph::from_edges(4, &[(0, 3), (0, 1), (0, 2), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(g.neighbors(0), &[3, 1, 2]);
        assert!(g.is_undirected());
        let one_way = CsrGraph::from_edges(4, &[(0, 3), (0, 1), (0, 2), (1, 0), (2, 0)]);
        assert!(!one_way.is_undirected());
    }

    #[test]
    fn the_symmetric_index_array_has_no_spare_capacity() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 1), (1, 0), (2, 2), (2, 3), (3, 1)]).to_undirected();
        assert_eq!(g.indices.capacity(), g.indices.len());
        assert_eq!(g.indices(), &[1, 0, 3, 3, 1, 2]);
    }

    #[test]
    fn degree_histogram_caps() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (0, 0), (1, 2)]);
        let h = g.degree_histogram(2);
        // Degrees: 3 (capped to 2), 1, 0.
        assert_eq!(h, vec![1, 1, 1]);
    }

    #[test]
    fn prefetch_hints_accept_the_last_node_and_beyond() {
        // The last node's row is empty and its `indptr[v + 1]` is the array's
        // last entry; the pointer hint reads nothing and accepts any id.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        g.prefetch_row_ptr(2);
        g.prefetch_neighbors(2);
        g.prefetch_row_ptr(NodeId::MAX);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.is_undirected());
    }
}
