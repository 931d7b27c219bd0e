//! Synthetic stand-ins for the OGB benchmark datasets, at two scales.
//!
//! * **Real scale** ([`Dataset`]): a fully materialized graph + features +
//!   labels + splits, sized to run on one CPU core. These drive the
//!   correctness and accuracy experiments (Table 6, Figure 3) and the real
//!   sampler microbenchmarks (Figure 2).
//! * **Paper scale** ([`DatasetStats`]): the published statistics of
//!   ogbn-arxiv / ogbn-products / ogbn-papers100M (Table 4), which drive the
//!   discrete-event simulator's workload model for the timing experiments
//!   (Tables 1–3, Figures 4–6).

use crate::csr::CsrGraph;
use crate::features::FeatureMatrix;
use salient_tensor::kernels::pin_heap_thresholds;
use salient_tensor::Dtype;
use crate::generate::{chung_lu_communities, ChungLuConfig};
use crate::labels::{planted_rows, PlantedFeatureConfig};
use crate::split::Splits;

/// Everything needed to train and evaluate on a synthetic dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name, e.g. `"arxiv-sim"`.
    pub name: String,
    /// Undirected input graph.
    pub graph: CsrGraph,
    /// Node features, packed at the configured [`Dtype`] (f16 by default).
    pub features: FeatureMatrix,
    /// Node labels (class = planted community).
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Train/val/test node splits.
    pub splits: Splits,
}

/// Generation parameters for a synthetic dataset.
#[derive(Clone, Debug)]
pub struct DatasetConfig {
    /// Dataset name.
    pub name: String,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of classes / communities.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub feat_dim: usize,
    /// Power-law exponent of the degree distribution.
    pub alpha: f64,
    /// Minimum expected degree.
    pub d_min: f64,
    /// Maximum expected degree.
    pub d_max: f64,
    /// Intra-community edge probability (homophily).
    pub p_intra: f64,
    /// Feature signal scale (class prototype component).
    pub signal: f32,
    /// Feature noise standard deviation.
    pub noise: f32,
    /// Train/val/test fractions.
    pub split_fracs: (f64, f64, f64),
    /// RNG seed.
    pub seed: u64,
    /// Host storage dtype for node features. Every preset says f16, the
    /// paper's layout; the `salient` binary overrides it from `SALIENT_DTYPE`.
    pub dtype: Dtype,
}

impl DatasetConfig {
    /// An ogbn-arxiv-like dataset (169 K nodes, avg degree ≈ 14, 40 classes,
    /// 54/18/28 split) shrunk by `scale` (1.0 ⇒ ~17 K nodes).
    pub fn arxiv_sim(scale: f64) -> Self {
        DatasetConfig {
            name: "arxiv-sim".into(),
            num_nodes: ((17_000.0 * scale) as usize).max(200),
            num_classes: 40,
            feat_dim: 32,
            alpha: 2.0,
            d_min: 3.0,
            d_max: 400.0,
            p_intra: 0.85,
            signal: 0.4,
            noise: 1.0,
            split_fracs: (0.54, 0.18, 0.28),
            seed: 0xA12,
            dtype: Dtype::F16,
        }
    }

    /// An ogbn-products-like dataset (2.4 M nodes, avg degree ≈ 52, 47
    /// classes, tiny train set and huge test set) shrunk by `scale`
    /// (1.0 ⇒ ~24 K nodes).
    pub fn products_sim(scale: f64) -> Self {
        DatasetConfig {
            name: "products-sim".into(),
            num_nodes: ((24_000.0 * scale) as usize).max(200),
            num_classes: 47,
            feat_dim: 32,
            alpha: 2.0,
            d_min: 10.0,
            d_max: 2_000.0,
            p_intra: 0.85,
            signal: 0.4,
            noise: 1.0,
            split_fracs: (0.082, 0.016, 0.90),
            seed: 0xB34,
            dtype: Dtype::F16,
        }
    }

    /// An ogbn-papers100M-like dataset (111 M nodes, avg degree ≈ 29, 172
    /// classes, only ~1.4 % of nodes labeled) shrunk by `scale`
    /// (1.0 ⇒ 100 K nodes).
    pub fn papers_sim(scale: f64) -> Self {
        DatasetConfig {
            name: "papers-sim".into(),
            num_nodes: ((100_000.0 * scale) as usize).max(2_000),
            num_classes: 172,
            feat_dim: 32,
            alpha: 2.0,
            d_min: 6.0,
            d_max: 800.0,
            p_intra: 0.85,
            signal: 0.4,
            noise: 1.0,
            // Labeled fractions mirror 1.2M / 125K / 214K of 111M, scaled up
            // 4x so the sim-scale train set is not degenerately small.
            split_fracs: (0.044, 0.0045, 0.0077),
            seed: 0xC56,
            dtype: Dtype::F16,
        }
    }

    /// A tiny dataset for unit tests (fast to generate).
    pub fn tiny(seed: u64) -> Self {
        DatasetConfig {
            name: "tiny".into(),
            num_nodes: 600,
            num_classes: 6,
            feat_dim: 16,
            alpha: 2.0,
            d_min: 3.0,
            d_max: 60.0,
            p_intra: 0.85,
            signal: 0.5,
            noise: 0.8,
            split_fracs: (0.5, 0.2, 0.3),
            seed,
            dtype: Dtype::F16,
        }
    }

    /// Generates the dataset.
    ///
    /// The arrays built here are the largest blocks a process allocates, so
    /// the allocator's thresholds are fixed before the first of them. At
    /// the benchmark's 100 000 nodes and 100 features the graph's edge list
    /// (22 MB) lives beside the index array it is scattered into (22 MB,
    /// 18 MB of it kept once its rows are deduplicated) and is freed before
    /// the feature store (20 MB at f16) is filled, one row at a time.
    ///
    /// The features' bits are the same on every host: their `ln`, `sin`
    /// and `cos` are the in-repo polynomials of [`crate::labels`]. The one
    /// libm call left in a build is the graph's: `power_law_weights` takes
    /// one `f64` `powf` a node (100 000 at `G100k`), so only the graph's
    /// bits still rest on the platform's libm.
    pub fn build(&self) -> Dataset {
        pin_heap_thresholds();
        let cg = chung_lu_communities(&ChungLuConfig {
            num_nodes: self.num_nodes,
            num_communities: self.num_classes,
            alpha: self.alpha,
            d_min: self.d_min,
            d_max: self.d_max,
            p_intra: self.p_intra,
            seed: self.seed,
        });
        let mut features = FeatureMatrix::zeros(self.dtype, self.num_nodes, self.feat_dim);
        planted_rows(&cg.community, &self.feature_config(), |v, row| features.set_row(v, row));
        let (ft, fv, fs) = self.split_fracs;
        let splits = Splits::random(self.num_nodes, ft, fv, fs, self.seed ^ 0x5EED);
        Dataset {
            name: self.name.clone(),
            graph: cg.graph,
            features,
            labels: cg.community,
            num_classes: self.num_classes,
            splits,
        }
    }

    /// The planted feature model: this dataset's shape, signal and noise,
    /// drawn from its own stream.
    pub(crate) fn feature_config(&self) -> PlantedFeatureConfig {
        PlantedFeatureConfig {
            dim: self.feat_dim,
            num_classes: self.num_classes,
            signal: self.signal,
            noise: self.noise,
            seed: self.seed ^ 0xF00D,
        }
    }
}

impl Dataset {
    /// Total memory of graph structure plus features, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.features.memory_bytes()
    }
}

/// Published statistics of the paper's benchmark datasets (Table 4), used by
/// the event simulator to model paper-scale workloads.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Number of nodes.
    pub num_nodes: u64,
    /// Number of edges (as published, before symmetrization).
    pub num_edges: u64,
    /// Feature dimensionality.
    pub feat_dim: u32,
    /// Training-set size.
    pub train_size: u64,
    /// Validation-set size.
    pub val_size: u64,
    /// Test-set size.
    pub test_size: u64,
    /// Effective average degree of the symmetrized graph, which governs
    /// neighborhood-expansion cost.
    pub avg_degree: f64,
}

impl DatasetStats {
    /// ogbn-arxiv: 169 K nodes, 1.2 M edges, 128 features.
    pub fn arxiv() -> Self {
        DatasetStats {
            name: "arxiv",
            num_nodes: 169_343,
            num_edges: 1_166_243,
            feat_dim: 128,
            train_size: 90_941,
            val_size: 29_799,
            test_size: 48_603,
            avg_degree: 13.7,
        }
    }

    /// ogbn-products: 2.4 M nodes, 62 M edges, 100 features.
    pub fn products() -> Self {
        DatasetStats {
            name: "products",
            num_nodes: 2_449_029,
            num_edges: 61_859_140,
            feat_dim: 100,
            train_size: 196_615,
            val_size: 39_323,
            test_size: 2_213_091,
            avg_degree: 50.5,
        }
    }

    /// ogbn-papers100M: 111 M nodes, 1.6 B edges, 128 features.
    pub fn papers() -> Self {
        DatasetStats {
            name: "papers",
            num_nodes: 111_059_956,
            num_edges: 1_615_685_872,
            feat_dim: 128,
            train_size: 1_207_179,
            val_size: 125_265,
            test_size: 214_338,
            avg_degree: 29.1,
        }
    }

    /// All three benchmark datasets in paper order.
    pub fn all() -> Vec<DatasetStats> {
        vec![Self::arxiv(), Self::products(), Self::papers()]
    }

    /// Number of mini-batches in one training epoch at the given batch size.
    pub fn batches_per_epoch(&self, batch_size: usize) -> usize {
        (self.train_size as usize).div_ceil(batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_builds_consistently() {
        let ds = DatasetConfig::tiny(1).build();
        assert_eq!(ds.graph.num_nodes(), 600);
        assert_eq!(ds.labels.len(), 600);
        assert_eq!(ds.features.num_nodes(), 600);
        assert_eq!(ds.features.dim(), 16);
        assert!(ds.splits.is_disjoint());
        assert!(ds.graph.is_undirected());
        assert!(ds.labels.iter().all(|&c| (c as usize) < ds.num_classes));
    }

    #[test]
    fn arxiv_sim_degree_in_ballpark() {
        let ds = DatasetConfig {
            num_nodes: 4_000,
            ..DatasetConfig::arxiv_sim(1.0)
        }
        .build();
        let avg = ds.graph.avg_degree();
        assert!(
            (6.0..30.0).contains(&avg),
            "arxiv-like avg degree {avg} out of range"
        );
    }

    #[test]
    fn paper_stats_match_table4() {
        let all = DatasetStats::all();
        assert_eq!(all.len(), 3);
        let papers = &all[2];
        assert_eq!(papers.num_nodes, 111_059_956);
        assert_eq!(papers.batches_per_epoch(1024), 1_179);
        let arxiv = &all[0];
        assert_eq!(arxiv.batches_per_epoch(1024), 89);
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = DatasetConfig::tiny(5).build();
        let b = DatasetConfig::tiny(5).build();
        assert_eq!(a.graph.indices(), b.graph.indices());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.splits.train, b.splits.train);
    }
}
