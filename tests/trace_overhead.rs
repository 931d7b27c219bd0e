//! Overhead guard: with tracing disabled, the per-batch hot-loop
//! instrumentation (span guards, spans carrying counts, point events,
//! counters) must perform **zero heap allocations**. A counting global
//! allocator makes the assertion exact — this is its own test binary so the
//! allocator hook cannot perturb any other suite, and it counts per thread
//! (`tests/common`), so the sibling tests of this binary running in
//! parallel cannot allocate inside a measured window.

mod common;

use common::allocations;
use salient_repro::trace::names::{counters, events, spans};
use salient_repro::trace::{Clock, Trace};

#[test]
fn disabled_tracing_batch_loop_allocates_nothing() {
    let trace = Trace::disabled();
    assert!(!trace.is_enabled());

    // Warm up once (lazy statics, TLS init) before the measured window.
    for batch in 0..8u64 {
        let _span = trace.span_batch(spans::STAGE_PREP, batch);
        trace.record_span_counts(spans::PREP_SLICE, batch, 0, 1 + batch, [4_096, 0]);
    }

    // Hot code resolves its counter handles once, outside the loop.
    let admitted = trace.counter(counters::SERVE_ADMITTED);
    let before = allocations();
    for batch in 0..10_000u64 {
        let _span = trace.span_batch(spans::STAGE_PREP, batch);
        let _inner = trace.span(spans::PREP_SAMPLE);
        trace.record_span_counts(spans::PREP_SLICE, batch, 0, 1 + batch, [4_096, 0]);
        trace.instant(events::RETRY, batch);
        admitted.inc();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate on the batch hot loop"
    );

    // The disabled registry also records nothing.
    let snap = trace.snapshot();
    assert!(snap.events.is_empty());
    assert!(snap.metrics.counters.is_empty());
}

#[test]
fn enabled_tracing_amortizes_event_allocations() {
    // Not part of the zero-alloc guarantee, but pins the design point that
    // enabled recording is a push onto the thread's own log: 1000 spans cost
    // far fewer than one allocation per span once the log exists (only its
    // growth allocates). An attached flight recorder adds nothing per event
    // — a dump reads the same log.
    let traces = [
        Trace::new(Clock::virtual_with_tick(10)),
        Trace::with_blackbox(
            Clock::virtual_with_tick(10),
            concat!(env!("CARGO_TARGET_TMPDIR"), "/blackbox-overhead-test"),
        ),
    ];
    for trace in traces {
        let recorder = trace.blackbox().is_some();
        for batch in 0..64u64 {
            let _span = trace.span_batch(spans::WARMUP, batch);
        }
        let before = allocations();
        for batch in 0..1_000u64 {
            let _span = trace.span_batch(spans::STAGE_PREP, batch);
        }
        let after = allocations();
        assert!(
            after - before < 100,
            "recorder {recorder}: expected amortized event recording, got {} allocations",
            after - before
        );
        let snap = trace.snapshot();
        assert_eq!(snap.spans(spans::STAGE_PREP).count(), 1_000, "recorder {recorder}");
    }
}
