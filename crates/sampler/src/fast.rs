//! The tuned SALIENT sampler: the engine monomorphized at the winning point
//! of the design-space exploration (an id map indexed directly by node id,
//! bitmap neighbor set, fused MFG construction, Floyd draws with the
//! complement rule) — [`VariantConfig::salient`], bit for bit.
//!
//! The id map costs 4 B per graph node per sampler ([`DenseIdMap`]): 40 KB
//! on a 10 000-node graph, 400 KB on 100 000 nodes. Its MFG is the one the
//! flat open-addressing map builds, bit for bit, because every map hands
//! out local ids in first-seen order.

use crate::engine::{sample_hinting, sample_with, EngineScratch};
use crate::mfg::MessageFlowGraph;
use crate::structures::{BitmapNeighborSet, DenseIdMap};
use crate::variants::VariantConfig;
use salient_tensor::rng::StdRng;
use salient_graph::{CsrGraph, FeatureMatrix, NodeId};

/// SALIENT's production neighborhood sampler.
///
/// The sampler owns reusable scratch structures, so one instance per batch-
/// preparation thread amortizes all allocation across batches.
///
/// # Examples
///
/// ```
/// use salient_graph::DatasetConfig;
/// use salient_sampler::FastSampler;
///
/// let ds = DatasetConfig::tiny(0).build();
/// let mut sampler = FastSampler::new(7);
/// let mfg = sampler.sample(&ds.graph, &ds.splits.train[..16], &[15, 10, 5]);
/// assert_eq!(mfg.batch_size(), 16);
/// mfg.validate().unwrap();
/// ```
#[derive(Debug)]
pub struct FastSampler {
    map: DenseIdMap,
    set: BitmapNeighborSet,
    scratch: EngineScratch,
    rng: StdRng,
}

impl FastSampler {
    /// Creates a sampler with its own deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        FastSampler {
            map: DenseIdMap::new(),
            set: BitmapNeighborSet::new(),
            scratch: EngineScratch::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Restarts the RNG stream from `seed`, keeping the grown tables: the
    /// next batches are sampled exactly as a new `FastSampler::new(seed)`
    /// would, without building one.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Samples the MFG for one mini-batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or contains duplicates, or `fanouts` is
    /// empty.
    pub fn sample(
        &mut self,
        graph: &CsrGraph,
        batch: &[NodeId],
        fanouts: &[usize],
    ) -> MessageFlowGraph {
        sample_with(
            graph,
            batch,
            fanouts,
            VariantConfig::salient().opts(),
            &mut self.map,
            &mut self.set,
            &mut self.scratch,
            &mut self.rng,
        )
    }

    /// [`FastSampler::sample`] for a caller that slices `features` next: the
    /// moment a node gets its local id, seeds included, its feature row is
    /// hinted into the cache ([`FeatureMatrix::prefetch_row`]), so the slice
    /// copies rows already on their way. Returns exactly the MFG `sample`
    /// would, and draws the same RNG words.
    ///
    /// Worth it only where the hinted rows are still cached when the slice
    /// reads them: a serving step's ~100 rows are. A batch-prep worker's are
    /// not, whatever the graph: on a 10k-node graph they are cached before
    /// any hint, and at 15,10,5 @256 on a 100k-node graph a batch hints
    /// ~10 MB of rows, more than a core's private cache keeps until its
    /// slice starts. Batch prep ran 0.91x and 0.92x as fast with it on
    /// those two graphs (EXPERIMENTS.md, "a lone request waits on memory
    /// once").
    ///
    /// # Panics
    ///
    /// As [`FastSampler::sample`].
    pub fn sample_warming(
        &mut self,
        graph: &CsrGraph,
        batch: &[NodeId],
        fanouts: &[usize],
        features: &FeatureMatrix,
    ) -> MessageFlowGraph {
        sample_hinting(
            graph,
            batch,
            fanouts,
            VariantConfig::salient().opts(),
            &mut self.map,
            &mut self.set,
            &mut self.scratch,
            &mut self.rng,
            |v| features.prefetch_row(v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;

    #[test]
    fn reusing_sampler_across_batches_is_clean() {
        let ds = DatasetConfig::tiny(1).build();
        let mut s = FastSampler::new(0);
        let a = s.sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
        let b = s.sample(&ds.graph, &ds.splits.train[8..16], &[5, 5]);
        a.validate().unwrap();
        b.validate().unwrap();
        // Second batch must not leak first batch's nodes.
        assert_eq!(&b.node_ids[..8], &ds.splits.train[8..16]);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = DatasetConfig::tiny(1).build();
        let mfg1 = FastSampler::new(5).sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
        let mfg2 = FastSampler::new(5).sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
        assert_eq!(mfg1, mfg2);
        let mfg3 = FastSampler::new(6).sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
        assert!(mfg1 != mfg3 || mfg1.num_edges() == mfg3.num_edges());
    }

    #[test]
    fn reseeded_sampler_repeats_a_fresh_one() {
        let ds = DatasetConfig::tiny(1).build();
        let mut s = FastSampler::new(5);
        // Grow the tables on a larger batch first: none of it may show.
        s.sample(&ds.graph, &ds.splits.train[..64], &[10, 10]);
        s.reseed(5);
        let again = s.sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
        let fresh = FastSampler::new(5).sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
        assert_eq!(again, fresh);
    }

    /// A products-like graph of 10 000 nodes: the benchmark's `G10k`.
    fn g10k() -> salient_graph::Dataset {
        DatasetConfig {
            num_nodes: 10_000,
            feat_dim: 4,
            ..DatasetConfig::products_sim(1.0)
        }
        .build()
    }

    /// Every node of `ds`'s graph, shuffled with `seed`.
    fn shuffled_nodes(ds: &salient_graph::Dataset, seed: u64) -> Vec<NodeId> {
        use salient_tensor::rng::SliceRandom;
        let mut nodes: Vec<NodeId> = (0..ds.graph.num_nodes() as NodeId).collect();
        nodes.shuffle(&mut StdRng::seed_from_u64(seed));
        nodes
    }

    /// The same engine over the flat open-addressing map: its MFGs must be
    /// `FastSampler`'s, bit for bit.
    fn flat_point() -> VariantConfig {
        VariantConfig {
            id_map: crate::variants::IdMapKind::Flat,
            ..VariantConfig::salient()
        }
    }

    #[test]
    fn equals_the_salient_point_of_the_design_space() {
        // Figure 2's `<= SALIENT` row times this sampler, not a relative.
        use crate::variants::VariantSampler;
        let ds = DatasetConfig::tiny(1).build();
        let mut fast = FastSampler::new(9);
        let mut point = VariantSampler::new(VariantConfig::salient(), 9);
        for batch in ds.splits.train.chunks(24).take(4) {
            assert_eq!(
                fast.sample(&ds.graph, batch, &[15, 10, 5]),
                point.sample(&ds.graph, batch, &[15, 10, 5])
            );
        }
        // And the flat point it replaced, bit for bit, at every batch size
        // the system samples and through every branch of the draw: a
        // neighbourhood taken whole, Floyd's draws, the complement rule, and
        // adjacency lists past the 64-bit mask.
        for ds in [DatasetConfig::tiny(2).build(), g10k()] {
            let graph = &ds.graph;
            let nodes = shuffled_nodes(&ds, 5);
            let max_degree = (0..graph.num_nodes() as NodeId).map(|v| graph.degree(v)).max().unwrap();
            let (mut fast, mut flat) = (FastSampler::new(13), VariantSampler::new(flat_point(), 13));
            let (mut whole, mut floyd, mut complement, mut wide) = (0, 0, 0, 0);
            for batch_size in [1, 16, 256] {
                for fanouts in [vec![15, 10, 5], vec![max_degree + 1, 3], vec![40, 40]] {
                    for batch in nodes.chunks(batch_size).take(3) {
                        let mfg = fast.sample(graph, batch, &fanouts);
                        assert_eq!(mfg, flat.sample(graph, batch, &fanouts), "batch {batch_size}, fanouts {fanouts:?}");
                        for (layer, &fanout) in mfg.layers.iter().rev().zip(&fanouts) {
                            for &v in &mfg.node_ids[..layer.n_dst] {
                                let degree = graph.degree(v);
                                whole += usize::from(degree <= fanout);
                                floyd += usize::from(degree > fanout && 2 * fanout <= degree);
                                complement += usize::from(degree > fanout && 2 * fanout > degree);
                                wide += usize::from(degree > fanout && degree > 64);
                            }
                        }
                    }
                }
            }
            let n = graph.num_nodes();
            assert!(whole > 0 && floyd > 0 && complement > 0, "{n} nodes: {whole} {floyd} {complement}");
            assert!(n < 10_000 || wide > 0, "{n} nodes: no destination wider than the mask");
        }
    }

    #[test]
    fn one_sampler_across_graphs_samples_as_a_fresh_one() {
        // The table is sized by the first graph, kept for a smaller one and
        // grown for a larger one; no graph's nodes may show in another's.
        let (big, small) = (g10k(), DatasetConfig::tiny(3).build());
        let big_first = DatasetConfig { num_nodes: 2_000, ..DatasetConfig::products_sim(1.0) }.build();
        let mut s = FastSampler::new(21);
        for ds in [&big_first, &big, &small, &big] {
            s.reseed(21);
            let mut fresh = FastSampler::new(21);
            let nodes = shuffled_nodes(ds, 6);
            for batch in nodes.chunks(64).take(3) {
                assert_eq!(s.sample(&ds.graph, batch, &[15, 10, 5]), fresh.sample(&ds.graph, batch, &[15, 10, 5]));
            }
        }
    }

    /// The samplers batch prep keeps from batch to batch.
    trait Kept {
        fn fresh(seed: u64) -> Self;
        fn restart(&mut self, seed: u64);
        fn draw(&mut self, graph: &CsrGraph, batch: &[NodeId], fanouts: &[usize]) -> MessageFlowGraph;
    }

    impl Kept for FastSampler {
        fn fresh(seed: u64) -> Self {
            FastSampler::new(seed)
        }
        fn restart(&mut self, seed: u64) {
            self.reseed(seed);
        }
        fn draw(&mut self, graph: &CsrGraph, batch: &[NodeId], fanouts: &[usize]) -> MessageFlowGraph {
            self.sample(graph, batch, fanouts)
        }
    }

    impl Kept for crate::PygSampler {
        fn fresh(seed: u64) -> Self {
            crate::PygSampler::new(seed)
        }
        fn restart(&mut self, seed: u64) {
            self.reseed(seed);
        }
        fn draw(&mut self, graph: &CsrGraph, batch: &[NodeId], fanouts: &[usize]) -> MessageFlowGraph {
            self.sample(graph, batch, fanouts)
        }
    }

    fn reseeded_after_a_panic_samples_as_a_fresh_one<S: Kept>() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ds = DatasetConfig::tiny(4).build();
        let nodes = shuffled_nodes(&ds, 7);
        let outside = ds.graph.num_nodes() as NodeId;
        let mut duplicate = nodes[..40].to_vec();
        duplicate.push(nodes[7]);
        let mut stranger = nodes[40..80].to_vec();
        stranger.push(outside);
        let mut s = S::fresh(8);
        for bad in [duplicate, stranger] {
            s.draw(&ds.graph, &nodes[80..120], &[10, 5]);
            let panicked = catch_unwind(AssertUnwindSafe(|| s.draw(&ds.graph, &bad, &[10, 5])));
            assert!(panicked.is_err(), "{bad:?} was sampled");
            s.restart(8);
            let mut fresh = S::fresh(8);
            for batch in [&nodes[..40], &nodes[40..80]] {
                assert_eq!(s.draw(&ds.graph, batch, &[10, 5]), fresh.draw(&ds.graph, batch, &[10, 5]));
            }
        }
    }

    #[test]
    fn a_batch_that_panics_leaves_a_sampler_that_samples_as_a_fresh_one() {
        // A batch that never finishes leaves its nodes in the id table; the
        // next batch must not see them. Batch prep keeps a sampler that
        // panicked and reseeds it for the retry, and serving does the same
        // after a crashed sample stage, so a reseed must be enough.
        reseeded_after_a_panic_samples_as_a_fresh_one::<FastSampler>();
        reseeded_after_a_panic_samples_as_a_fresh_one::<crate::PygSampler>();
    }

    #[test]
    fn node_and_edge_capacities_hold_at_their_bounds() {
        // Every write of the fused loop lands within capacity reserved once
        // per batch (nodes) or hop (edges); these are the shapes that reach
        // the bounds. Each MFG is checked whole and against the flat point.
        fn check(graph: &CsrGraph, batch: &[NodeId], fanouts: &[usize]) -> MessageFlowGraph {
            let mfg = FastSampler::new(17).sample(graph, batch, fanouts);
            mfg.validate().unwrap();
            let flat = crate::variants::VariantSampler::new(flat_point(), 17).sample(graph, batch, fanouts);
            assert_eq!(mfg, flat, "batch of {}, fanouts {fanouts:?}", batch.len());
            mfg
        }
        fn above_all(g: &CsrGraph) -> usize {
            (0..g.num_nodes() as NodeId).map(|v| g.degree(v)).max().unwrap() + 1
        }
        for ds in [DatasetConfig::tiny(5).build(), g10k()] {
            let graph = &ds.graph;
            let nodes = shuffled_nodes(&ds, 9);
            let above = above_all(graph);
            // A batch of one at fanouts above every degree.
            for hops in 1..=3 {
                check(graph, &nodes[..1], &vec![above; hops]);
            }
            // Each level of serving's default degradation ladder, at a lone
            // request and a full micro-batch.
            for level in [[10, 10], [5, 5], [2, 2]] {
                for batch_size in [1, 16] {
                    check(graph, &nodes[..batch_size], &level);
                }
            }
        }
        // MFGs that map every node of a small graph: from a single seed, and
        // from every node as a seed, where each later pick writes to the one
        // slot past the graph's node count.
        let n = 50;
        let ring: Vec<(NodeId, NodeId)> =
            (0..n).flat_map(|v| [(v, (v + 1) % n), ((v + 1) % n, v), (v, (v + 7) % n)]).collect();
        let ring = CsrGraph::from_edges(n as usize, &ring);
        let all: Vec<NodeId> = (0..n).collect();
        assert_eq!(check(&ring, &all[..1], &[above_all(&ring); 12]).num_nodes(), n as usize);
        for fanouts in [vec![1], vec![3, 3], vec![above_all(&ring); 2]] {
            assert_eq!(check(&ring, &all, &fanouts).num_nodes(), n as usize);
        }
    }

    #[test]
    fn warming_is_only_a_hint() {
        use salient_tensor::rng::SliceRandom;
        let products_10k = DatasetConfig {
            num_nodes: 10_000,
            ..DatasetConfig::products_sim(1.0)
        };
        for cfg in [DatasetConfig::tiny(2), products_10k] {
            let ds = cfg.build();
            let n = ds.graph.num_nodes();
            let max_degree = (0..n as NodeId).map(|v| ds.graph.degree(v)).max().unwrap();
            let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
            nodes.shuffle(&mut StdRng::seed_from_u64(3));
            // One pair of samplers through every case: grown tables and
            // reserved capacities must not show either.
            let (mut plain, mut warming) = (FastSampler::new(11), FastSampler::new(11));
            for batch_size in [1, 16, 256] {
                for fanouts in [vec![10, 5], vec![max_degree + 1, 3]] {
                    let batch = &nodes[..batch_size];
                    assert_eq!(
                        warming.sample_warming(&ds.graph, batch, &fanouts, &ds.features),
                        plain.sample(&ds.graph, batch, &fanouts),
                        "{} nodes, batch {batch_size}, fanouts {fanouts:?}",
                        n
                    );
                }
            }
            // Same RNG words drawn: the streams are still in step.
            let batch = &nodes[..16];
            assert_eq!(plain.sample(&ds.graph, batch, &[5]), warming.sample(&ds.graph, batch, &[5]));
        }
    }

    #[test]
    fn fast_sampler_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FastSampler>();
    }
}
