//! The tuned SALIENT sampler: the engine monomorphized at the winning point
//! of the design-space exploration (flat open-addressing id map that grows
//! on insert, bitmap neighbor set, fused MFG construction, Floyd draws with
//! the complement rule) — [`VariantConfig::salient`], bit for bit.

use crate::engine::{sample_with, EngineScratch};
use crate::mfg::MessageFlowGraph;
use crate::structures::{BitmapNeighborSet, FlatIdMap};
use crate::variants::VariantConfig;
use salient_tensor::rng::StdRng;
use salient_graph::{CsrGraph, NodeId};

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
    fn fast_sampler_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FastSampler>();
    }
}
