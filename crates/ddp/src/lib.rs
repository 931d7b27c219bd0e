//! # salient-ddp
//!
//! In-process distributed data parallelism for the SALIENT reproduction:
//! a ring all-reduce [`Communicator`] (the NCCL stand-in) plus replica
//! synchronization and gradient-averaging helpers (the PyTorch-DDP
//! stand-in). Ranks are threads; the semantics — identical replicas,
//! mean-of-gradients steps — match `torch.nn.parallel.DistributedDataParallel`.
//!
//! # Example
//!
//! ```
//! use salient_ddp::Communicator;
//!
//! let comms = Communicator::ring(2);
//! std::thread::scope(|s| {
//!     for (r, comm) in comms.into_iter().enumerate() {
//!         s.spawn(move || {
//!             let mut grad = vec![r as f32 + 1.0];
//!             comm.all_reduce_mean(&mut grad).unwrap();
//!             assert_eq!(grad[0], 1.5);
//!         });
//!     }
//! });
//! ```
//!
//! Collectives are fallible: a dead or stalled peer surfaces as a typed
//! [`CommError`] (rank, step, phase) after a bounded `recv_timeout` instead
//! of deadlocking the ring.

#![warn(missing_docs)]

mod comm;
mod trainer;

pub use comm::{CommError, CommErrorKind, Communicator};
pub use trainer::{average_model_gradients, sync_model};
