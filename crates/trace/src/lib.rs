//! Structured tracing and metrics for the SALIENT pipeline.
//!
//! The paper's central claims are *observability* claims: Table 1 attributes
//! per-stage blocking time, Figure 4 shows preparation overlapping training
//! compute. This crate makes those measurements first-class instead of
//! hand-threaded `Instant` arithmetic:
//!
//! * [`Clock`] — the workspace's single sanctioned time source: the process
//!   monotonic clock in production, a manually advanced [`VirtualClock`] in
//!   tests, so every report below is reproducible byte-for-byte
//!   (clippy's `disallowed_methods` rejects a raw `Instant::now()` that
//!   does not state its reason; `clippy.toml` has the list).
//! * [`Trace`] — a cloneable recording handle. Spans (begin/end intervals
//!   tagged with a stage name and batch id) are pushed onto the recording
//!   thread's own log in the registry, where [`Trace::snapshot`] and the
//!   flight recorder ([`blackbox`]) both read them. A span is the one
//!   record of its batch's work: its duration and the counts it covered
//!   (nodes, edges, bytes; [`SpanEvent::counts`]). A rare fact (a fault,
//!   a ladder or breaker move, a dump) is one point event
//!   ([`Trace::instant`]), counted from the snapshot, so a window of the
//!   trace says whose faults it shows. A counter, an `Arc`'d atomic, holds
//!   only a per-request fact no span covers (admissions, sheds, transfer
//!   bytes). A disabled handle records nothing, reads no clock, and
//!   allocates nothing on the span fast path.
//! * [`analysis`] — one pass ([`attribute`]) over a [`Snapshot`] of span
//!   intervals, reading each span's meaning off one span-role table:
//!   - a [`PipelineReport`]: trainer stall attribution (prep-blocked /
//!     compute / other), worker prep breakdown, slot-wait
//!     backpressure, and the prep∕compute overlap that quantifies
//!     pipelining ([`analyze`] returns it alone);
//!   - each batch's causal chain ([`BatchChain`], keyed by epoch and batch
//!     id) and their summed [`ChainAttribution`];
//!   - the per-batch stage durations ([`RecordedStages`]) the what-if
//!     projector `salient_sim::what_if` replays;
//!   - exact p50/p95/p99 of per-batch prep work, train steps, prep waits
//!     and pipeline fills ([`Percentiles`], on the report).
//! * [`export`] — a human-readable epoch report, a JSON metrics snapshot,
//!   and Chrome trace-event JSON (open in `chrome://tracing` or Perfetto);
//!   [`json`] holds the in-repo parser/validator used by CI to check the
//!   trace output structurally.
//!
//! # Example
//!
//! ```
//! use salient_trace::{analysis, names::spans, Clock, Trace};
//!
//! // Deterministic: every clock read advances 1 µs.
//! let trace = Trace::new(Clock::virtual_with_tick(1_000));
//! {
//!     let _epoch = trace.span(spans::EPOCH);
//!     let _train = trace.span_batch(spans::STAGE_TRAIN, 0);
//! }
//! let snap = trace.snapshot();
//! let report = analysis::analyze(&snap);
//! assert!(report.window_ns > 0);
//! let pcts: f64 = report.stage_pcts().iter().sum();
//! assert!((pcts - 100.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

pub mod analysis;
pub mod blackbox;
mod clock;
pub mod export;
pub mod json;
pub mod names;
mod span;

pub mod metrics;

pub use analysis::{
    analyze, attribute, Attribution, Percentiles, PipelineReport, Snapshot, ThreadOccupancy,
};
pub use blackbox::Blackbox;
pub use clock::{Clock, VirtualClock};
pub use metrics::{Counter, MetricsSnapshot};
pub use span::{EventKind, SpanEvent, SpanGuard, Trace, NO_BATCH};

/// Locks `m`, recovering the guard if a previous holder panicked: every
/// table this crate guards (the thread logs and their events, the counter
/// map, the flight recorder's path slot) holds plain data a panic cannot
/// leave half-updated, and observability — the flight recorder above all —
/// must keep working *after* a panic. The crate's one copy of
/// `salient_tensor::sync::lock_unpoisoned` (this is a dependency-free leaf).
pub(crate) fn lock_tolerant<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
