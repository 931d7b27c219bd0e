//! # salient-tensor
//!
//! A small, dependency-light dense tensor engine with reverse-mode automatic
//! differentiation, built as the compute substrate for the SALIENT
//! reproduction (the role PyTorch plays in the original paper).
//!
//! The crate provides:
//!
//! * [`Tensor`] — dense, row-major, reference-counted `f32` storage;
//! * [`F16`] — IEEE 754 binary16 for host-side feature storage (the paper
//!   keeps features in half precision to halve slicing/transfer bytes);
//! * [`Tape`] / [`Var`] — a per-batch autograd tape recording elementwise,
//!   linear-algebra, and message-passing (gather/scatter) operations;
//! * [`Param`] — trainable parameters with stable identities, usable across
//!   tapes and threads;
//! * [`optim`] — Adam;
//! * [`init`] — Glorot/Kaiming/normal initializers;
//! * [`kernels`] — the CPU performance layer: cache-blocked parallel GEMM
//!   and fused CSR gather/scatter aggregation;
//! * [`pool`] — the std-only work-sharing thread pool those kernels run on
//!   (sized by `SALIENT_NUM_THREADS` or the machine's parallelism);
//! * [`rng`] — the workspace's dependency-free xoshiro256** RNG;
//! * [`sync`] — poison-tolerant lock helpers for hot-path modules that must
//!   survive a recovered worker panic.
//!
//! # Example
//!
//! ```
//! use salient_tensor::{init, optim::{zero_grads, Adam, Optimizer}, Param, Tape, Tensor};
//! use salient_tensor::rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut w = Param::new("w", init::glorot_uniform(2, 2, &mut rng));
//! let mut opt = Adam::new(1e-2);
//!
//! for _ in 0..10 {
//!     let tape = Tape::new();
//!     let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
//!     let y = x.matmul(&tape.param(&w)).log_softmax();
//!     let loss = y.nll_loss(&[0, 1]);
//!     zero_grads(std::iter::once(&mut w));
//!     tape.backward(&loss).apply_to([&mut w]);
//!     opt.step(std::iter::once(&mut w));
//! }
//! ```

#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod autograd;
mod f16;
mod graph_ops;
mod norm;
mod ops;
mod shape;
mod tensor;

pub mod init;
pub mod kernels;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod sync;

pub use autograd::{Gradients, Param, ParamId, RowStore, Tape, Var};
pub use f16::{narrow_into, quantize, widen_into, Dtype, FeatureRows, F16};
pub use kernels::gemm;
pub use norm::column_stats;
pub use shape::Shape;
pub use tensor::Tensor;
