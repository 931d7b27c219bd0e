//! # salient-batchprep
//!
//! SALIENT's shared-memory parallel batch preparation (§4.2): worker threads
//! prepare mini-batches end-to-end (sample, then serially slice features and
//! labels straight into pinned staging memory), each claiming its next
//! batch from the epoch's one lock-free claim cursor. A
//! PyTorch-multiprocessing emulation — a private slice plus an extra
//! shared-memory copy into the slot — is included as the baseline it
//! replaces; it claims from the same cursor. A panic while preparing a
//! batch costs that batch one attempt, never its worker: a batch that fails
//! every attempt arrives as a `BatchResult::Failed` marker.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use salient_graph::DatasetConfig;
//! use salient_batchprep::{run_epoch, PrepConfig};
//!
//! let ds = Arc::new(DatasetConfig::tiny(0).build());
//! let cfg = PrepConfig { batch_size: 32, fanouts: vec![5, 3], ..Default::default() };
//! let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
//! let n = handle.batches.iter().count();
//! handle.join();
//! assert!(n > 0);
//! ```

#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod pinned;
mod prep;
mod queue;
mod slice;

pub use pinned::{PinnedPool, PinnedSlot};
pub use prep::{
    batch_seed, run_epoch, run_epoch_with_pool, BatchResult, PrepConfig, PrepMode, PreparedBatch,
    SamplerKind,
};
pub use slice::{slice_batch, slice_batch_into};
