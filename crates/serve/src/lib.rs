//! # salient-serve
//!
//! Overload-safe online inference serving for the SALIENT pipeline: the
//! ROADMAP's "millions of users" front-end, built so its headline property
//! is *robustness under overload* rather than peak throughput.
//!
//! Single-node queries are coalesced into sampler micro-batches (dynamic
//! micro-batching) and run through the same staged pipeline as training —
//! sample → slice-into-pinned-slot → GEMM on the slot's rows — under a per-request
//! deadline budget that is checked *between* stages so dead work is
//! abandoned early. Four mechanisms keep the server standing when offered
//! load exceeds capacity:
//!
//! * **Admission control** ([`ServerCore::submit`]): a bounded pending
//!   queue, whose depth bounds queueing latency; requests that cannot be
//!   served are shed with a typed [`Rejected`] response — never silently
//!   dropped.
//! * **Deadline propagation**: each request carries an absolute deadline
//!   (from the shared [`salient_trace::Clock`], so the whole state machine
//!   runs under a `VirtualClock` in tests); expiry is detected at admission
//!   and after every pipeline stage ([`Stage`]).
//! * **Degradation ladder** ([`Ladder`]): sustained queue pressure steps
//!   sampling fanouts down a configured ladder — cheaper, slightly
//!   lower-fidelity answers instead of collapse — and restores them with
//!   hysteresis once pressure clears.
//! * **Panic isolation + circuit breaker** ([`Breaker`]): per-request and
//!   per-stage panics are caught by one `catch_unwind` round one unit of
//!   work, as a `batchprep` worker catches a panicking item (the pinned
//!   slot returns to its pool by RAII); consecutive micro-batch failures
//!   open a breaker that shunts load away until a cooldown admits probe
//!   traffic again.
//!
//! Everything is timed through [`salient_trace::Clock`] and instrumented
//! with per-request `serve.*` counters, one event per ladder or breaker
//! move, and stage spans, and every failure mode is
//! reachable deterministically through `salient_fault`'s `serve.*` sites.
//!
//! [`ServerCore`] is the deterministic single-threaded state machine — it
//! spawns no thread and takes no lock; its caller drives it — and
//! [`loadgen`] builds seeded open-loop Poisson and bursty arrival traces
//! for benchmarks and tests.

#![warn(missing_docs)]
// On every batch's path: a file that indexes says why (DESIGN.md section 8).
#![warn(clippy::indexing_slicing)]

mod breaker;
mod config;
mod core;
mod ladder;

pub mod loadgen;

pub use crate::core::{run_trace, ServerCore, StepOutcome};
pub use breaker::BreakerState;
pub use config::ServeConfig;

use salient_graph::NodeId;

/// One single-node inference query, stamped with an absolute deadline in
/// the serving clock's nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Caller-chosen id; responses are keyed by it. Also the fault
    /// occurrence for the `serve.request` / `serve.queue` sites.
    pub id: u64,
    /// The node whose class the caller wants.
    pub node: NodeId,
    /// Absolute deadline (clock ns). A response after this instant is
    /// worthless to the caller; the server drops such work as early as it
    /// can detect it.
    pub deadline_ns: u64,
}

/// Why admission control refused a request. The two variants are the
/// serving contract: *every* refused request gets exactly one of these —
/// there are no silent drops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The server is saturated: the pending queue is full (or its injected
    /// fault fired), or the circuit breaker is open. Retry later, ideally
    /// with backoff.
    Overload,
    /// The request's deadline cannot be met even by an idle server (already
    /// past, or a budget below the observed service floor). Retrying with
    /// the same budget is pointless.
    DeadlineInfeasible,
}

/// The pipeline stage at which a deadline was discovered to have expired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Expired while waiting in the pending queue (before any work).
    Queue,
    /// Expired during/after neighborhood sampling.
    Sample,
    /// Expired during/after feature slicing.
    Slice,
    /// Expired during/after model compute (the answer existed but was late).
    Gemm,
}

/// The terminal outcome of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Served: predicted class, end-to-end latency, and the fanout-ladder
    /// level the answer was computed at (0 = full quality).
    Done {
        /// Argmax class prediction.
        class: u32,
        /// Submit → completion nanoseconds on the serving clock.
        latency_ns: u64,
        /// Degradation-ladder level used for this request's micro-batch.
        fanout_level: usize,
    },
    /// Refused at admission with a typed reason.
    Rejected(Rejected),
    /// Admitted, but the deadline expired at `stage`; remaining work was
    /// dropped as early as the batch structure allowed.
    Expired(Stage),
    /// The request's pipeline panicked (injected or real), or it named a
    /// node outside the graph. The failure was isolated: the server keeps
    /// serving, the staging slot was returned.
    Failed,
}

impl Response {
    /// Whether this is a successful prediction.
    pub fn is_done(&self) -> bool {
        matches!(self, Response::Done { .. })
    }
}
