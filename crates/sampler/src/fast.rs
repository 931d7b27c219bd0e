//! The tuned SALIENT sampler: the engine monomorphized at the winning point
//! of the design-space exploration (flat open-addressing id map that grows
//! on insert, bitmap neighbor set, fused MFG construction, Floyd draws with
//! the complement rule) — [`VariantConfig::salient`], bit for bit.

use crate::engine::{sample_hinting, sample_with, EngineScratch};
use crate::mfg::MessageFlowGraph;
use crate::structures::{BitmapNeighborSet, FlatIdMap};
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
    map: FlatIdMap,
    set: BitmapNeighborSet,
    scratch: EngineScratch,
    rng: StdRng,
}

impl FastSampler {
    /// Creates a sampler with its own deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        FastSampler {
            map: FlatIdMap::default(),
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
