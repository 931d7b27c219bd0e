//! # salient-graph
//!
//! Graph storage and synthetic datasets for the SALIENT reproduction: CSR
//! graphs (the input format of the neighborhood sampler), heavy-tailed random
//! graph generators, dtype-aware packed feature storage (f16 by default),
//! planted-label tasks, and the published statistics of the paper's OGB
//! benchmarks.
//!
//! # Example
//!
//! ```
//! use salient_graph::DatasetConfig;
//!
//! let ds = DatasetConfig::tiny(0).build();
//! assert!(ds.graph.is_undirected());
//! assert_eq!(ds.features.num_nodes(), ds.graph.num_nodes());
//! ```

#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod csr;
mod datasets;
mod features;
#[cfg(test)]
mod oracle;
mod split;

pub mod generate;
pub mod labels;

pub use csr::{CsrGraph, NodeId};
pub use datasets::{Dataset, DatasetConfig, DatasetStats};
pub use features::{FeatureMatrix, FeatureRowsMut, FeatureSlab};
/// The borrowed view of packed rows lives beside [`salient_tensor::Dtype`]: the
/// row kernels read it at the width it is stored.
pub use salient_tensor::FeatureRows;
pub use split::Splits;
