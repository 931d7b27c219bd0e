//! Acceptance tests for the observability subsystem: a deterministic
//! 2-epoch SALIENT-executor run on a `VirtualClock` must yield
//!
//! * a stall-attribution report whose prep/transfer/compute/other shares
//!   sum to 100%;
//! * a structurally valid Chrome trace with spans from ≥ 3 threads;
//! * per-batch preparation-latency percentiles, read off the spans, and
//!   the spans' counts carried through the Chrome export.

use salient_repro::core::{ExecutorKind, RunConfig, StageTimings, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::trace::export::{chrome_trace, render_report};
use salient_repro::trace::json::{parse, validate_chrome_trace};
use salient_repro::trace::{analyze, names, Clock, Trace};
use std::sync::Arc;

/// Runs two SALIENT epochs under a fresh virtual-clock registry and returns
/// the trace plus the per-epoch legacy stats.
fn traced_run() -> (Trace, Vec<salient_repro::core::EpochStats>) {
    traced_epochs(2)
}

fn traced_epochs(epochs: usize) -> (Trace, Vec<salient_repro::core::EpochStats>) {
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let dataset = Arc::new(DatasetConfig::tiny(5).build());
    let run = RunConfig {
        executor: ExecutorKind::Salient,
        epochs,
        num_workers: 2,
        ..RunConfig::test_tiny()
    };
    let mut trainer = Trainer::with_trace(dataset, run, trace.clone());
    let stats = trainer.fit();
    (trace, stats)
}

#[test]
fn stall_attribution_sums_to_100() {
    let (trace, stats) = traced_run();
    assert_eq!(stats.len(), 2);
    let snap = trace.snapshot();

    // Whole-run report: the four shares partition the trainer wall-clock.
    let report = analyze(&snap);
    let pcts = report.stage_pcts();
    let sum: f64 = pcts.iter().sum();
    assert!((sum - 100.0).abs() < 1e-9, "shares must sum to 100: {pcts:?}");

    // The report renders without panicking and names every stage.
    let text = render_report(&report, &snap);
    for needle in ["prep (blocked)", "transfer", "compute", "other"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Batch ids restart every epoch, and chains are keyed by (epoch, batch):
    // one causal chain per trained batch.
    let chains = salient_repro::trace::attribute(&snap).chains;
    assert_eq!(chains.len(), snap.spans(names::spans::PREP_SLICE).count());
}

/// `Trace::snapshot_window` filters before it clones and sorts; it must
/// still be, event for event, the full snapshot's `window`, and the
/// per-epoch `StageTimings` the trainer derives from it must be bit-for-bit
/// what the full-snapshot computation gives.
#[test]
fn windowed_snapshot_equals_the_full_snapshots_window_for_every_epoch() {
    let (trace, stats) = traced_epochs(3);
    let snap = trace.snapshot();
    let epochs: Vec<(u64, u64)> = snap
        .spans(names::spans::EPOCH)
        .map(|e| (e.start_ns, e.end_ns))
        .collect();
    assert_eq!(epochs.len(), 3);
    let keys = |s: &salient_repro::trace::Snapshot| -> Vec<_> {
        s.events
            .iter()
            .map(|e| (e.name, e.kind, e.tid, e.batch, e.start_ns, e.end_ns))
            .collect()
    };
    for ((e0, e1), legacy) in epochs.into_iter().zip(&stats) {
        let windowed = trace.snapshot_window(e0, e1);
        let filtered = snap.window(e0, e1);
        assert!(!windowed.events.is_empty());
        assert!(windowed.events.len() < snap.events.len(), "a window is a strict subset");
        assert_eq!(keys(&windowed), keys(&filtered));
        assert_eq!(windowed.threads, filtered.threads);
        let full = StageTimings::from_report(&analyze(&filtered));
        let t = &legacy.timings;
        assert_eq!(
            [full.prep_s, full.transfer_s, full.train_s, full.total_s].map(f64::to_bits),
            [t.prep_s, t.transfer_s, t.train_s, t.total_s].map(f64::to_bits),
            "epoch {}: {full:?} vs {t:?}",
            legacy.epoch
        );
    }
}

#[test]
fn chrome_trace_is_valid_and_spans_at_least_three_threads() {
    let (trace, _) = traced_run();
    let snap = trace.snapshot();
    let out = chrome_trace(&snap);
    let summary = validate_chrome_trace(&out).expect("valid Chrome trace");
    assert!(summary.span_events > 0, "{summary:?}");
    assert!(
        summary.distinct_tids >= 3,
        "trainer + per-epoch workers: {summary:?}"
    );
    assert_eq!(summary.distinct_tids, snap.distinct_tids(), "{summary:?}");
}

#[test]
fn prep_latency_percentiles_come_from_spans() {
    let (trace, stats) = traced_run();
    let snap = trace.snapshot();
    let batches: usize = stats.iter().map(|s| s.batches).sum();
    let report = analyze(&snap);
    let p = report.prep_work;
    assert_eq!(p.n, batches);
    assert!(p.p50 > 0 && p.p50 <= p.p95 && p.p95 <= p.p99, "{p:?}");
    let text = render_report(&report, &snap);
    assert!(text.contains(&format!("prep work: n={batches} ")), "{text}");

    // The Chrome export carries each slice span's staged bytes, and the
    // in-repo parser reads them back.
    let doc = parse(&chrome_trace(&snap)).expect("valid Chrome trace");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents");
    let exported: f64 = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some(names::spans::PREP_SLICE.as_str())
        })
        .filter_map(|e| e.get("args")?.get("counts")?.as_arr()?.first()?.as_num())
        .sum();
    let staged: u64 = snap
        .spans(names::spans::PREP_SLICE)
        .map(|e| e.counts[0])
        .sum();
    assert!(staged > 0);
    assert_eq!(exported, staged as f64);
}
