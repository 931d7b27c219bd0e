//! # salient-nn
//!
//! GNN layers and the four architectures evaluated by the paper (GraphSAGE,
//! GAT, GIN, GraphSAGE-RI), implemented on the `salient-tensor` autograd
//! engine and consuming sampled message-flow graphs from `salient-sampler`.
//!
//! # Example
//!
//! ```
//! use salient_graph::DatasetConfig;
//! use salient_nn::{build_model, Mode, ModelKind};
//! use salient_sampler::FastSampler;
//! use salient_tensor::Tape;
//!
//! let ds = DatasetConfig::tiny(0).build();
//! let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..8], &[5, 5]);
//! let mut model = build_model(ModelKind::Sage, ds.features.dim(), 16, ds.num_classes, 2, 0);
//! let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
//! let tape = Tape::new();
//! let x = tape.constant(ds.features.gather_f32(&mfg.node_ids));
//! let out = model.forward(&tape, x, &mfg, Mode::Train, &mut rng);
//! assert_eq!(out.shape().rows(), 8);
//! ```

#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod batch_norm;
mod convs;
mod linear;
mod models;

pub mod metrics;

pub use batch_norm::BatchNorm1d;
pub use linear::Linear;
pub use models::{build_model, Gat, Gin, GnnModel, Mode, ModelKind};
