//! Stage-graph executor (the consumer of SALIENT §4, Figure 4).
//!
//! SALIENT's speedup comes from *overlap*: while the trainer computes on
//! batch `k`, batches `k+1..` are being prepared by worker threads. This
//! crate is the consumer side of that picture:
//!
//! * [`StageGraph`] — a source plus ordered stages run one item at a time
//!   on the calling thread, each timed through [`salient_trace::Clock`] so
//!   the identical description runs on the real monotonic clock *and* on a
//!   virtual one. What it adds to a hand-written loop is the per-item step:
//!   a panic guard, a panic budget and poison, the flight-recorder dump,
//!   work spans, pipeline fill filed apart from steady-state
//!   waits. The training consumer (`salient_core`'s `Trainer::consume`,
//!   both executors) is its one production instantiation; a DDP rank in
//!   lockstep with its ring and a serving step over one micro-batch are
//!   written as the sequential code they are and do not use the engine.
//! * [`shape`] — the canonical stage shapes (names, resource classes, the
//!   modelled double-buffer depth) consumed by the real consumer and by
//!   `salient-sim`'s discrete-event schedules, so sim-vs-real drift checks
//!   are structural rather than string-matched.
//!
//! The stages of a graph do not overlap each other: in this plane the
//! transfer stage moves no bytes, so there is nothing for a second thread
//! to hide. The overlap that exists is between the batch-preparation
//! workers feeding the source and the consumer; the copy/compute overlap of
//! a machine with a DMA engine is modelled in `salient-sim`. See
//! `DESIGN.md` §12.

// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod exec;
pub mod shape;

pub use exec::{GraphSpec, PipeItem, PipeStats, StageGraph, StageOutcome, StageSpec};
