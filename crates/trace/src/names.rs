//! The registry of well-known span, counter, and event names used by the
//! instrumented pipeline (the observability analogue of
//! `salient_fault::sites`).
//!
//! Each kind of name is a newtype over `&'static str` whose constructor is
//! private to this crate, and every recording API ([`crate::Trace`],
//! [`crate::Metrics`], the stage-graph executor's specs) takes the newtype:
//! a name that is not declared below does not compile, in any crate. The
//! stall-attribution analysis ([`crate::analysis`]) keys on these names.
//! Stored events, snapshot queries and exporters work on plain `&str`
//! ([`SpanName::as_str`], `AsRef<str>`, `&str == SpanName`).
//!
//! ```compile_fail,E0624
//! // The constructor is crate-private: outside `salient-trace` a literal
//! // cannot become a registered name.
//! let _ = salient_trace::names::SpanName::new("stage.ad_hoc");
//! ```

/// Declares the registered-name newtypes.
macro_rules! name_types {
    ($($(#[$doc:meta])* $ty:ident,)*) => {$(
        $(#[$doc])*
        #[repr(transparent)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $ty(&'static str);

        impl $ty {
            pub(crate) const fn new(name: &'static str) -> $ty {
                $ty(name)
            }

            /// The registered string, as stored on events and in snapshots.
            pub const fn as_str(self) -> &'static str {
                self.0
            }
        }

        impl AsRef<str> for $ty {
            fn as_ref(&self) -> &str {
                self.0
            }
        }

        impl PartialEq<$ty> for &str {
            fn eq(&self, other: &$ty) -> bool {
                *self == other.0
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.0)
            }
        }
    )*};
}

name_types! {
    /// An interval (span) name from [`spans`].
    SpanName,
    /// A counter name from [`counters`].
    CounterName,
    /// A point-event name from [`events`].
    EventName,
}

/// Declares one registry module: its constants and, from the same lines,
/// its `ALL` list (read only by the uniqueness test) — so a constant cannot
/// be missing from the list.
macro_rules! registry {
    (
        $(#[$mod_attr:meta])* pub mod $module:ident: $ty:ident;
        $($(#[$doc:meta])* $id:ident = $name:literal,)*
    ) => {
        $(#[$mod_attr])*
        pub mod $module {
            use super::$ty;
            $($(#[$doc])* pub const $id: $ty = $ty::new($name);)*

            /// Every name declared in this module, in declaration order.
            #[cfg(test)]
            pub const ALL: &[$ty] = &[$($id),*];
        }
    };
}

registry! {
    /// Interval (span) names. A span's two counts
    /// ([`crate::SpanEvent::counts`]) are zero unless its constant says what
    /// they hold.
    pub mod spans: SpanName;

    /// One training epoch, recorded on the consumer ("trainer") thread.
    EPOCH = "epoch",
    /// Trainer-side batch-preparation stage: for the baseline executor the
    /// actual sample+slice work; for the SALIENT executor and a DDP rank
    /// only the time the trainer *blocked* waiting for a prepared batch.
    STAGE_PREP = "stage.prep",
    /// Host→device hand-over, the PCIe copy's stage in the simulator's
    /// training shape. The real trainer has no such stage (it counts the
    /// bytes a copy would move in `transfer.bytes`) and records none;
    /// attribution reads it as ordinary stage work.
    STAGE_TRANSFER = "stage.transfer",
    /// Trainer-side model compute (forward + backward + step; on a DDP
    /// rank, the all-reduce too).
    STAGE_TRAIN = "stage.train",
    /// Worker-side neighborhood sampling + MFG construction. Counts: the
    /// MFG's nodes and edges.
    PREP_SAMPLE = "prep.sample",
    /// Worker-side feature/label slicing; one per prepared batch. Counts:
    /// the staged payload bytes (what a CPU→GPU DMA would move), then 0.
    PREP_SLICE = "prep.slice",
    /// Worker-side extra copy (multiprocessing-emulation mode only).
    PREP_COPY = "prep.copy",
    /// Worker blocked waiting for a free pinned staging slot (backpressure).
    SLOT_WAIT = "prep.slot_wait",
    /// One DDP ring step (send + receive).
    COMM_STEP = "ddp.step",
    /// One rank's whole epoch in a DDP run.
    RANK_EPOCH = "ddp.epoch",
    /// Serving micro-batch neighborhood sampling.
    SERVE_SAMPLE = "serve.sample",
    /// Serving micro-batch feature slicing into a pinned slot.
    SERVE_SLICE = "serve.slice",
    /// Serving micro-batch model compute (forward on the staged slot).
    SERVE_GEMM = "serve.gemm",
    /// Warm-up iterations excluded from steady-state measurement; also the
    /// SALIENT trainer's first wait for a batch in an epoch (pipeline
    /// fill), so its `stage.prep` waits are steady state only.
    WARMUP = "warmup",
    /// `salient paper table2`: one PyG-style (per-batch allocation)
    /// sampling pass.
    BENCH_SAMPLE_PYG = "bench.sample_pyg",
    /// `salient paper table2`: one SALIENT fast-sampler pass.
    BENCH_SAMPLE_FAST = "bench.sample_fast",
    /// `salient paper fig2`: one timed pass of a sampler design-space variant
    /// (Figure 2); the batch field is the variant's index.
    BENCH_SAMPLE_VARIANT = "bench.sample_variant",
    /// One DDP ring-link send (causal edge: this rank → next rank). Counts:
    /// the payload bytes sent, then 0.
    DDP_RING_SEND = "ddp.ring_send",
    /// One DDP ring-link receive (causal edge: previous rank → this rank).
    DDP_RING_RECV = "ddp.ring_recv",
}

registry! {
    /// Counter names. A counter holds only a per-request fact, one that
    /// no span covers; every rare fact (a fault, a ladder or breaker move,
    /// a dump) is an event in [`events`], and a snapshot counts them.
    pub mod counters: CounterName;

    /// Packed bytes of the staged batches the trainer took (features at
    /// their storage dtype + labels): what a host→device copy would move. With f16 feature storage
    /// this is ~half the f32 figure — the paper's optimization (iii) made
    /// visible in the epoch report.
    TRANSFER_BYTES = "transfer.bytes",
    /// Serving requests accepted past admission control.
    SERVE_ADMITTED = "serve.admitted",
    /// Serving requests answered with a prediction.
    SERVE_COMPLETED = "serve.completed",
    /// Serving requests shed at admission with `Rejected::Overload`.
    SERVE_SHED_OVERLOAD = "serve.shed_overload",
    /// Serving requests shed with `Rejected::DeadlineInfeasible`.
    SERVE_SHED_INFEASIBLE = "serve.shed_deadline_infeasible",
    /// Overload sheds attributable to an open circuit breaker.
    SERVE_SHED_BREAKER = "serve.shed_breaker",
    /// Admitted requests whose deadline expired mid-pipeline (dropped early).
    SERVE_EXPIRED = "serve.deadline_expired",
    /// Requests failed alone at the serving per-request boundary: a caught
    /// handler panic or drop, or a node outside the graph.
    SERVE_REQUEST_PANICS = "serve.request_panics",
}

registry! {
    /// Point-event names.
    pub mod events: EventName;

    /// A prep batch is attempted again after a caught panic.
    RETRY = "fault.retry",
    /// A batch exhausted its retry budget (terminal failure marker).
    FAILED_BATCH = "fault.failed_batch",
    /// The serving degradation ladder stepped down one fanout level.
    SERVE_DEGRADE = "serve.degrade",
    /// The serving degradation ladder stepped back up one level.
    SERVE_RESTORE = "serve.restore",
    /// Serving circuit breaker tripped Closed→Open.
    SERVE_BREAKER_OPEN = "serve.breaker.open",
    /// Serving circuit breaker cooled down Open→HalfOpen.
    SERVE_BREAKER_HALF_OPEN = "serve.breaker.half_open",
    /// Serving circuit breaker probe succeeded: HalfOpen→Closed.
    SERVE_BREAKER_CLOSE = "serve.breaker.close",
    /// A stage-graph executor stage caught an item panic (item dropped).
    PIPE_STAGE_PANIC = "pipe.stage_panic",
    /// A stage-graph run exceeded its panic budget (or a stage returned a
    /// fatal outcome) and stopped pulling new work.
    PIPE_POISONED = "pipe.poisoned",
    /// The flight recorder wrote a blackbox dump (payload: triggering batch).
    BLACKBOX_DUMP = "blackbox.dump",
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_unique<N: AsRef<str>>(kind: &str, all: &[N]) {
        let mut names: Vec<&str> = all.iter().map(AsRef::as_ref).collect();
        names.sort_unstable();
        let declared = names.len();
        names.dedup();
        assert_eq!(names.len(), declared, "duplicate {kind} name");
    }

    #[test]
    fn every_registered_name_is_unique_within_its_kind() {
        assert_unique("span", spans::ALL);
        assert_unique("counter", counters::ALL);
        assert_unique("event", events::ALL);
    }

    #[test]
    fn all_lists_carry_every_declared_constant() {
        // The macro builds `ALL` from the same lines as the constants, so
        // its length is the declaration count.
        assert_eq!(spans::ALL.len(), 19);
        assert_eq!(counters::ALL.len(), 8);
        assert_eq!(spans::ALL[0], spans::EPOCH);
        assert!("warmup" == spans::WARMUP);
    }
}
