//! Stage-graph executor (the consumer of SALIENT §4, Figure 4).
//!
//! SALIENT's speedup comes from *overlap*: while the trainer computes on
//! batch `k`, batches `k+1..` are being prepared by worker threads. This
//! crate holds the consumer side's vocabulary:
//!
//! * [`StageGraph`] — a source plus ordered stages run one item at a time
//!   on the calling thread, each timed through [`salient_trace::Clock`] so
//!   the identical description runs on the real monotonic clock *and* on a
//!   virtual one. What it adds to a hand-written loop is the per-item step:
//!   a panic guard, a panic budget and poison, the flight-recorder dump,
//!   work spans, pipeline fill filed apart from steady-state waits. No
//!   production path runs it (the trainer, a DDP rank and a serving step
//!   are plain loops); the benchmark's `pipeline.item_overhead_us` row does.
//! * [`shape`] — the canonical stage shapes (names, resource classes, the
//!   modelled double-buffer depth) consumed by `salient-sim`'s
//!   discrete-event schedules and checked against the real trainer's trace
//!   by `tests/sim_vs_real.rs`, so sim-vs-real drift checks are structural
//!   rather than string-matched.
//!
//! The real trainer has no transfer stage: it counts the bytes a copy would
//! move and its train step reads the staged slot in place. The overlap that
//! exists is between the batch-preparation workers and the consumer; the
//! copy/compute overlap of a machine with a DMA engine is modelled in
//! `salient-sim`. See `DESIGN.md` §12.

// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod exec;
pub mod shape;

pub use exec::{GraphSpec, PipeItem, PipeStats, StageGraph, StageOutcome, StageSpec};
