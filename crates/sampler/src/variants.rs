//! Enumeration of the sampler design space (the paper's Figure 2).
//!
//! "The space of possible design choices and optimizations is too large to
//! explore manually. We designed a parameterized implementation of sampled
//! MFG generation to systematically explore this optimization space" (§4.1).
//!
//! Five axes are exposed here — id-map structure (3) × neighbor-set
//! structure (4) × fused construction (2) × capacity reservation (2) ×
//! sampling algorithm (3: PyG's rejection loop, partial Fisher–Yates, and
//! Floyd's one-draw-per-position algorithm) — giving 144 instantiations
//! benchmarked by `salient paper fig2`.

use crate::engine::{sample_with, EngineOpts, EngineScratch, SampleAlgo};
use crate::mfg::MessageFlowGraph;
use crate::structures::{
    ArrayNeighborSet, BitmapNeighborSet, DenseIdMap, FlatIdMap, FlatNeighborSet, IdMap,
    StdIdMap, StdNeighborSet,
};
use salient_tensor::rng::StdRng;
use salient_graph::{CsrGraph, NodeId};

/// Which global→local id-map implementation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IdMapKind {
    /// `std::collections::HashMap` (SipHash buckets — the STL analogue).
    Std,
    /// Flat open-addressing table with Fibonacci hashing (swiss-style).
    Flat,
    /// A table indexed directly by node id, one `u32` per graph node.
    Dense,
}

/// Which neighbor-dedup set implementation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NeighborSetKind {
    /// `std::collections::HashSet`.
    Std,
    /// Flat open-addressing set.
    Flat,
    /// Plain array with linear scan (the paper's winner at small fanouts).
    Array,
    /// Bitmap over positions with a dirty list (O(1) test, O(k) clear).
    Bitmap,
}

/// One point in the sampler design space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VariantConfig {
    /// Id-map implementation.
    pub id_map: IdMapKind,
    /// Neighbor-set implementation.
    pub neighbor_set: NeighborSetKind,
    /// Fused sampling + MFG construction.
    pub fused: bool,
    /// Pre-reserve map capacity per hop.
    pub reserve: bool,
    /// Without-replacement algorithm.
    pub algo: SampleAlgo,
}

impl VariantConfig {
    /// Every point of the design space (144 variants).
    pub fn all() -> Vec<VariantConfig> {
        let mut out = Vec::with_capacity(144);
        for id_map in [IdMapKind::Std, IdMapKind::Flat, IdMapKind::Dense] {
            for neighbor_set in [
                NeighborSetKind::Std,
                NeighborSetKind::Flat,
                NeighborSetKind::Array,
                NeighborSetKind::Bitmap,
            ] {
                for fused in [false, true] {
                    for reserve in [false, true] {
                        for algo in [
                            SampleAlgo::Rejection,
                            SampleAlgo::PartialFisherYates,
                            SampleAlgo::Floyd,
                        ] {
                            out.push(VariantConfig {
                                id_map,
                                neighbor_set,
                                fused,
                                reserve,
                                algo,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The configuration matching the PyG baseline.
    pub fn pyg_baseline() -> VariantConfig {
        VariantConfig {
            id_map: IdMapKind::Std,
            neighbor_set: NeighborSetKind::Std,
            fused: false,
            reserve: false,
            algo: SampleAlgo::Rejection,
        }
    }

    /// The configuration shipped as [`crate::FastSampler`].
    pub fn salient() -> VariantConfig {
        VariantConfig {
            id_map: IdMapKind::Dense,
            neighbor_set: NeighborSetKind::Bitmap,
            fused: true,
            reserve: false,
            algo: SampleAlgo::Floyd,
        }
    }

    /// The engine options of this point (its non-type axes).
    pub fn opts(&self) -> EngineOpts {
        EngineOpts {
            fused: self.fused,
            reserve: self.reserve,
            algo: self.algo,
        }
    }

    /// A short human-readable label, e.g. `"dense/bitmap/fused/grow/floyd"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            match self.id_map {
                IdMapKind::Std => "std",
                IdMapKind::Flat => "flat",
                IdMapKind::Dense => "dense",
            },
            match self.neighbor_set {
                NeighborSetKind::Std => "stdset",
                NeighborSetKind::Flat => "flatset",
                NeighborSetKind::Array => "array",
                NeighborSetKind::Bitmap => "bitmap",
            },
            if self.fused { "fused" } else { "2phase" },
            if self.reserve { "resv" } else { "grow" },
            match self.algo {
                SampleAlgo::Rejection => "rej",
                SampleAlgo::PartialFisherYates => "fy",
                SampleAlgo::Floyd => "floyd",
            },
        )
    }
}

#[derive(Debug)]
enum AnyIdMap {
    Std(StdIdMap),
    Flat(FlatIdMap),
    Dense(DenseIdMap),
}

#[derive(Debug)]
enum AnyNeighborSet {
    Std(StdNeighborSet),
    Flat(FlatNeighborSet),
    Array(ArrayNeighborSet),
    Bitmap(BitmapNeighborSet),
}

/// [`sample_with`] at the concrete set type of `set`.
fn sample_with_set<M: IdMap>(
    graph: &CsrGraph,
    batch: &[NodeId],
    fanouts: &[usize],
    opts: EngineOpts,
    map: &mut M,
    set: &mut AnyNeighborSet,
    scratch: &mut EngineScratch,
    rng: &mut StdRng,
) -> MessageFlowGraph {
    match set {
        AnyNeighborSet::Std(s) => sample_with(graph, batch, fanouts, opts, map, s, scratch, rng),
        AnyNeighborSet::Flat(s) => sample_with(graph, batch, fanouts, opts, map, s, scratch, rng),
        AnyNeighborSet::Array(s) => sample_with(graph, batch, fanouts, opts, map, s, scratch, rng),
        AnyNeighborSet::Bitmap(s) => sample_with(graph, batch, fanouts, opts, map, s, scratch, rng),
    }
}

/// A sampler instantiated at an arbitrary design-space point.
#[derive(Debug)]
pub struct VariantSampler {
    config: VariantConfig,
    map: AnyIdMap,
    set: AnyNeighborSet,
    scratch: EngineScratch,
    rng: StdRng,
}

impl VariantSampler {
    /// Instantiates the given configuration.
    pub fn new(config: VariantConfig, seed: u64) -> Self {
        VariantSampler {
            config,
            map: match config.id_map {
                IdMapKind::Std => AnyIdMap::Std(StdIdMap::new()),
                IdMapKind::Flat => AnyIdMap::Flat(FlatIdMap::default()),
                IdMapKind::Dense => AnyIdMap::Dense(DenseIdMap::new()),
            },
            set: match config.neighbor_set {
                NeighborSetKind::Std => AnyNeighborSet::Std(StdNeighborSet::new()),
                NeighborSetKind::Flat => AnyNeighborSet::Flat(FlatNeighborSet::new()),
                NeighborSetKind::Array => AnyNeighborSet::Array(ArrayNeighborSet::new()),
                NeighborSetKind::Bitmap => AnyNeighborSet::Bitmap(BitmapNeighborSet::new()),
            },
            scratch: EngineScratch::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// This sampler's configuration.
    pub fn config(&self) -> VariantConfig {
        self.config
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
        // Dispatched once a batch: every point runs the engine monomorphized
        // at its own structures, as `FastSampler` does at the shipped one.
        let (opts, set, scratch, rng) = (self.config.opts(), &mut self.set, &mut self.scratch, &mut self.rng);
        match &mut self.map {
            AnyIdMap::Std(m) => sample_with_set(graph, batch, fanouts, opts, m, set, scratch, rng),
            AnyIdMap::Flat(m) => sample_with_set(graph, batch, fanouts, opts, m, set, scratch, rng),
            AnyIdMap::Dense(m) => sample_with_set(graph, batch, fanouts, opts, m, set, scratch, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;

    #[test]
    fn design_space_has_144_points() {
        let all = VariantConfig::all();
        assert_eq!(all.len(), 144);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 144, "variants must be distinct");
        assert!(all.contains(&VariantConfig::pyg_baseline()));
        assert!(all.contains(&VariantConfig::salient()));
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<String> =
            VariantConfig::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 144);
    }

    #[test]
    fn every_variant_produces_valid_mfgs() {
        let ds = DatasetConfig::tiny(6).build();
        let batch = &ds.splits.train[..16];
        for cfg in VariantConfig::all() {
            let mfg = VariantSampler::new(cfg, 3).sample(&ds.graph, batch, &[6, 3]);
            mfg.validate()
                .unwrap_or_else(|e| panic!("variant {}: {e}", cfg.label()));
            assert_eq!(mfg.batch_size(), 16);
        }
    }
}
