//! # salient-sampler
//!
//! SALIENT's performance-engineered neighborhood sampler (§4.1 of the
//! paper): node-wise fanout sampling without replacement producing PyG-style
//! message-flow graphs, a parameterized engine exposing the full design
//! space of the paper's Figure-2 exploration, the tuned [`FastSampler`] and the
//! STL-style [`PygSampler`] baseline.
//!
//! # Example
//!
//! ```
//! use salient_graph::DatasetConfig;
//! use salient_sampler::{FastSampler, PygSampler};
//!
//! let ds = DatasetConfig::tiny(0).build();
//! let batch = &ds.splits.train[..32];
//! let fast = FastSampler::new(1).sample(&ds.graph, batch, &[15, 10, 5]);
//! let base = PygSampler::new(1).sample(&ds.graph, batch, &[15, 10, 5]);
//! assert_eq!(fast.batch_size(), base.batch_size());
//! ```

#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod engine;
mod fast;
mod mfg;
mod pyg_baseline;
mod structures;
mod variants;

pub use engine::{sample_with, EngineOpts, EngineScratch, SampleAlgo};
pub use fast::FastSampler;
pub use mfg::{MessageFlowGraph, MfgLayer};
pub use pyg_baseline::PygSampler;
pub use structures::{BitmapNeighborSet, FlatIdMap, IdMap, NeighborSet};
pub use variants::{IdMapKind, NeighborSetKind, VariantConfig, VariantSampler};
