//! # salient-core
//!
//! The SALIENT public API: end-to-end GNN training and inference with fast
//! sampling and pipelined batch preparation, on real (synthetic) datasets.
//!
//! Two executors implement the paper's Figure-1 comparison. They run one
//! consumer loop over the same prepared batches and differ in the source
//! that feeds it:
//!
//! * [`ExecutorKind::Baseline`] — the standard serial PyTorch-style loop:
//!   the source samples and slices the next batch on the trainer thread;
//! * [`ExecutorKind::Salient`] — the source receives from shared-memory
//!   batch-prep workers slicing into pinned buffers, overlapping
//!   preparation with training.
//!
//! Multi-rank data-parallel training ([`train_ddp`]) runs the same pipeline
//! on every rank, with a gradient all-reduce before each update; sampled /
//! full-neighborhood inference completes the system.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use salient_core::{RunConfig, Trainer};
//! use salient_graph::DatasetConfig;
//!
//! let ds = Arc::new(DatasetConfig::tiny(1).build());
//! let mut trainer = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny());
//! trainer.fit();
//! let (acc, _) = trainer.evaluate_sampled(&ds.splits.val.clone(), &[5, 5]);
//! assert!(acc > 0.0);
//! ```

#![warn(missing_docs)]

mod config;
mod ddp_train;
mod timing;
mod train;

pub mod checkpoint;
pub mod infer;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use infer::{BatchInferencer, StagedBatch};
pub use config::{ExecutorKind, RunConfig};
pub use ddp_train::{train_ddp, DdpError, DdpRunResult};
pub use timing::StageTimings;
pub use train::{EpochStats, Trainer};
