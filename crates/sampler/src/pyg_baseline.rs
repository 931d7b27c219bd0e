//! The PyG-`NeighborSampler`-style baseline: STL-analogue hash structures
//! (SipHash `HashMap`/`HashSet`), two-phase MFG construction, no capacity
//! reservation, rejection sampling. This is the "None (PyG)" row of Table 3
//! and the 1.0× reference line of Figure 2.

use crate::engine::{sample_with, EngineScratch};
use crate::mfg::MessageFlowGraph;
use crate::structures::{StdIdMap, StdNeighborSet};
use crate::variants::VariantConfig;
use salient_tensor::rng::StdRng;
use salient_graph::{CsrGraph, NodeId};

/// Reference sampler approximating PyG's C++ `NeighborSampler`.
#[derive(Debug)]
pub struct PygSampler {
    map: StdIdMap,
    set: StdNeighborSet,
    scratch: EngineScratch,
    rng: StdRng,
}

impl PygSampler {
    /// Creates a baseline sampler with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        PygSampler {
            map: StdIdMap::new(),
            set: StdNeighborSet::new(),
            scratch: EngineScratch::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Restarts the RNG stream from `seed`, keeping the grown tables, as
    /// [`crate::FastSampler::reseed`] does.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Samples the MFG for one mini-batch with baseline data structures.
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
            VariantConfig::pyg_baseline().opts(),
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
    use crate::FastSampler;
    use salient_graph::DatasetConfig;

    #[test]
    fn baseline_and_fast_produce_equivalent_statistics() {
        let ds = DatasetConfig::tiny(2).build();
        let batch = &ds.splits.train[..32];
        let a = PygSampler::new(1).sample(&ds.graph, batch, &[10, 5]);
        let b = FastSampler::new(1).sample(&ds.graph, batch, &[10, 5]);
        a.validate().unwrap();
        b.validate().unwrap();
        assert_eq!(a.batch_size(), b.batch_size());
        // Same distributional footprint (same graph, same fanouts): node and
        // edge counts within a loose band of each other.
        let ratio = a.num_nodes() as f64 / b.num_nodes() as f64;
        assert!((0.7..1.3).contains(&ratio), "node count ratio {ratio}");
    }
}
