//! # salient-sim
//!
//! A discrete-event simulator of the paper's testbed, used to reproduce the
//! *timing* experiments (Tables 1–3, Figures 1 and 4–6) at paper scale on
//! any host. The schedule shapes — what blocks what, what overlaps what —
//! are modeled exactly; stage costs come from a [`CostModel`] whose every
//! constant is anchored to a measurement published in the paper.
//!
//! # Example
//!
//! ```
//! use salient_graph::DatasetStats;
//! use salient_sim::{simulate_epoch, CostModel, EpochConfig, OptLevel};
//!
//! let model = CostModel::paper_hardware();
//! let base = simulate_epoch(
//!     &EpochConfig::paper_default(DatasetStats::products(), OptLevel::PygBaseline),
//!     &model,
//! );
//! let salient = simulate_epoch(
//!     &EpochConfig::paper_default(DatasetStats::products(), OptLevel::Pipelined),
//!     &model,
//! );
//! assert!(base.epoch_s / salient.epoch_s > 2.0);
//! ```

#![warn(missing_docs)]

mod cost;
mod des;
mod multi;
mod schedules;
mod timeline;
mod workload;

pub use cost::{CostModel, GnnArch, Impl};
pub use des::{Executed, ResourceSpec, Simulation, TaskSpec};
pub use multi::{scaling_sweep, simulate_multi_gpu, MultiGpuConfig, MultiGpuReport};
pub use schedules::{
    simulate_epoch, simulate_epoch_detailed, simulate_inference_epoch, what_if, EpochConfig,
    EpochReport, OptLevel, WhatIf,
};
pub use timeline::render_text;
pub use workload::{expected_batch, BatchWorkload};
