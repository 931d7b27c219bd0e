//! Pipelined stage-graph executor (SALIENT §4, Figure 4).
//!
//! SALIENT's speedup comes from *overlap*: while the trainer computes on
//! batch `k`, batch `k+1` is being transferred and batch `k+2` prepared.
//! This crate is that orchestration, described once and run two ways:
//!
//! * [`StageGraph`] — a source plus ordered stages, each timed through
//!   [`salient_trace::Clock`] so the identical description runs on the real
//!   monotonic clock *and* on the simulator's virtual plane, on an inline
//!   and a threaded schedule that share one per-item step.
//!   The training consumer (`salient_core`'s `Trainer::consume`, both
//!   executors) is its one production instantiation. Code whose steps
//!   cannot overlap — a DDP rank in lockstep with its ring, a serving step
//!   over one micro-batch — is written as the sequential code it is and
//!   does not use the engine.
//! * Adjacent stages are joined by the workspace's one bounded channel
//!   ([`salient_tensor::sync::channel`]), so backpressure holds by
//!   construction: a fast producer parks, nothing is dropped, nothing spins.
//! * [`shape`] — the canonical stage shapes (names, resource classes,
//!   queue bounds) consumed by both the real executors and
//!   `salient-sim`'s discrete-event schedules, so sim-vs-real drift checks
//!   are structural rather than string-matched.
//!
//! See `DESIGN.md` §12 for the schedule diagrams and the pool-interaction
//! rationale (stage loops are dedicated threads; `salient_tensor::pool`
//! stays the intra-stage data-parallel axis).

// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod exec;
pub mod shape;

pub use exec::{GraphSpec, PipeItem, PipeStats, StageGraph, StageOutcome, StageSpec};
