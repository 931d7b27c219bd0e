//! Observability end-to-end, in two parts:
//!
//! 1. A small SALIENT-executor training run on a deterministic
//!    `VirtualClock`, exporting every view the trace subsystem offers and
//!    structurally validating them with the in-repo JSON parser.
//! 2. On a host with two or more cores, a monotonic-clock run at ms-scale
//!    batch sizes that measures *real* prep/compute overlap — the
//!    batch-preparation workers against the training consumer, the paper's
//!    Figure-4 pipelining win — and records `overlap_frac`.
//!
//! Emits (under `target/`):
//!
//! * a human-readable stall-attribution report on stdout;
//! * `target/trace_pipeline.json` — Chrome trace-event timeline
//!   (load in `chrome://tracing` or Perfetto);
//! * `target/metrics_pipeline.json` — raw counters / gauges / histograms;
//! * `target/bench_pipeline.json` — the per-stage breakdown `scripts/ci.sh`
//!   reads its gates from. Its top-level `overlap_frac` comes from the
//!   monotonic run when one ran (`overlap.skipped` says when not), since
//!   overlap is a wall-clock phenomenon.
//!
//! Exits non-zero if any exported artifact fails validation, so
//! `scripts/ci.sh` can use this binary as its observability tier.
//!
//! Run: `cargo run --release --example observe_pipeline`

use salient_repro::bench::harness::{write_json, Json};
use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::pipeline::shape;
use salient_repro::tensor::pool;
use salient_repro::sim::what_if;
use salient_repro::trace::export::{chrome_trace, metrics_json, render_report};
use salient_repro::trace::json::validate_chrome_trace;
use salient_repro::trace::{analyze, attribute, names, Clock, Trace};
use std::sync::Arc;

/// Worker/consumer overlap measurement on the real clock, on a host of
/// `cores` cores. Returns the JSON summary block plus the measured overlap
/// fraction.
///
/// The dataset and batch size are chosen so one batch costs milliseconds —
/// large against scheduler noise, small enough that the whole epoch stays
/// around a second.
fn overlap_run(cores: usize) -> (Json, f64) {
    let trace = Trace::new(Clock::monotonic());
    let dataset = Arc::new(DatasetConfig::products_sim(1.0).build());
    // Inference-scale fanouts with a slim hidden layer keep the workload
    // prep-heavy — the regime the paper pipelines for (sampling + slicing
    // dominate; Table 1 attributes only ~28% to GPU compute).
    let run = RunConfig {
        executor: ExecutorKind::Salient,
        epochs: 2,
        num_workers: 4,
        batch_size: 64,
        slots: 3,
        hidden: 8,
        train_fanouts: vec![30, 25, 20],
        infer_fanouts: vec![30, 25, 20],
        ..RunConfig::default()
    };
    let mut trainer = Trainer::with_trace(Arc::clone(&dataset), run, trace.clone());
    let stats = trainer.fit();
    let snap = trace.snapshot();
    let report = analyze(&snap);
    let frac = report.overlap_frac();
    println!(
        "overlap run: {} batches, compute {:.1} ms, overlap {:.1} ms ({:.0}% of compute)",
        stats.iter().map(|s| s.batches).sum::<usize>(),
        report.compute_ns as f64 / 1e6,
        report.overlap_ns as f64 / 1e6,
        100.0 * frac
    );
    let fill = snap
        .metrics
        .histogram(names::hists::PIPE_FILL_NS)
        .map(|h| h.count)
        .unwrap_or(0);
    let obj = Json::Obj(vec![
        ("cores".into(), Json::Num(cores as f64)),
        ("threads".into(), Json::Num(pool::num_threads() as f64)),
        ("overlap_frac".into(), Json::Num(frac)),
        (
            "compute_ms".into(),
            Json::Num(report.compute_ns as f64 / 1e6),
        ),
        (
            "overlap_ms".into(),
            Json::Num(report.overlap_ns as f64 / 1e6),
        ),
        (
            "window_ms".into(),
            Json::Num(report.window_ns as f64 / 1e6),
        ),
        // Pipeline warmup: the first batch's wait is recorded as fill
        // (`pipe.fill_ns`, one entry per epoch), not as a steady-state
        // prep stall — so `prep_wait` percentiles describe the pipelined
        // regime, not the unavoidable cold start.
        ("pipe_fill_count".into(), Json::Num(fill as f64)),
    ]);
    (obj, frac)
}

fn main() {
    // A virtual clock that advances 1µs per read: the run is scheduled by
    // real threads but every timestamp comes from the registry's clock, so
    // the exported artifacts are structurally identical run-to-run. The
    // attached flight recorder dumps each thread's recent events only on
    // faults — none here, so it must stay silent.
    let trace = Trace::with_blackbox(Clock::virtual_with_tick(1_000), "target/blackbox");
    let dataset = Arc::new(DatasetConfig::tiny(3).build());
    let run = RunConfig {
        executor: ExecutorKind::Salient,
        epochs: 2,
        num_workers: 2,
        ..RunConfig::test_tiny()
    };
    let prefetch = 2 * run.num_workers;
    let mut trainer = Trainer::with_trace(Arc::clone(&dataset), run, trace.clone());
    for stats in trainer.fit() {
        println!(
            "epoch {}: loss {:.4} ({} batches)",
            stats.epoch, stats.mean_loss, stats.batches
        );
    }

    let snap = trace.snapshot();
    let attribution = attribute(&snap);
    let report = &attribution.report;
    println!("\n{}", render_report(report, &snap));

    // The four stage shares partition the trainer's epoch wall-clock.
    let pcts = report.stage_pcts();
    let sum: f64 = pcts.iter().sum();
    assert!(
        (sum - 100.0).abs() < 1e-6,
        "stage percentages must sum to 100, got {sum} ({pcts:?})"
    );

    // Chrome trace: validated structurally with the in-repo parser before
    // anything downstream (chrome://tracing, Perfetto) ever sees it.
    let chrome = chrome_trace(&snap);
    let summary = validate_chrome_trace(&chrome).expect("exported Chrome trace is valid");
    assert!(
        summary.distinct_tids >= 3,
        "trainer + 2 workers should appear: {summary:?}"
    );
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/trace_pipeline.json", &chrome).expect("write Chrome trace");
    println!(
        "chrome trace: {} spans, {} instants on {} threads -> target/trace_pipeline.json",
        summary.span_events, summary.instant_events, summary.distinct_tids
    );

    let metrics = metrics_json(&snap);
    std::fs::write("target/metrics_pipeline.json", &metrics).expect("write metrics");
    println!("metrics snapshot -> target/metrics_pipeline.json");

    // Byte counters: workers stage `prep.bytes` into pinned slots and the
    // trainer pulls `transfer.bytes` through the transfer stage, both at the
    // feature store's packed dtype — so with f16 storage these are ~half of
    // what an f32 store would report. They agree on every batch the trainer
    // actually consumed (prep may stage more if an epoch is cut short).
    let prep_bytes = snap.metrics.counter(names::counters::PREP_BYTES);
    let transfer_bytes = snap.metrics.counter(names::counters::TRANSFER_BYTES);
    assert!(transfer_bytes > 0, "trainer must record transfer bytes");
    assert!(
        transfer_bytes <= prep_bytes,
        "trainer cannot consume more than the workers staged \
         ({transfer_bytes} > {prep_bytes})"
    );
    println!(
        "bytes: staged {prep_bytes}, transferred {transfer_bytes} ({} features)",
        dataset.features.dtype()
    );

    // Part 2: measure real pipelining where the prep workers and the
    // consumer can run at once. The virtual run above cannot show
    // wall-clock overlap, so its value would gate nothing; the monotonic
    // run is the authoritative number.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (overlap_obj, overlap_frac) = if cores >= 2 {
        overlap_run(cores)
    } else {
        println!("overlap run skipped: one core, so workers and consumer take turns");
        (
            Json::Obj(vec![("skipped".into(), Json::Str("single-core host".into()))]),
            report.overlap_frac(),
        )
    };

    // The per-stage summary the CI gates read.
    let hist = |name: names::HistName| -> Json {
        match snap.metrics.histogram(name) {
            Some(h) => {
                let (p50, p95, p99) = h.percentiles();
                Json::Obj(vec![
                    ("count".into(), Json::Num(h.count as f64)),
                    ("p50_ns".into(), Json::Num(p50 as f64)),
                    ("p95_ns".into(), Json::Num(p95 as f64)),
                    ("p99_ns".into(), Json::Num(p99 as f64)),
                ])
            }
            None => Json::Obj(vec![("count".into(), Json::Num(0.0))]),
        }
    };
    // Per-batch causal chains: charge every nanosecond of every batch's
    // latency to a named category, then project what doubling the compute
    // stage's speed would buy: the recorded stage durations re-executed on
    // the sim plane's pipelined schedule. Chains are keyed by (epoch, batch
    // id), as ids restart every epoch: one chain, and one recorded batch,
    // per batch trained.
    let trained = snap.metrics.counter(names::counters::BATCHES) as usize;
    let chains = &attribution.chains;
    assert_eq!(chains.len(), trained, "one causal chain per trained batch");
    let attr = attribution.chain_total;
    let chain_total = attr.total_ns.max(1);
    let cat_pct: Vec<(String, Json)> = attr
        .categories()
        .iter()
        .map(|(label, ns)| {
            (
                (*label).to_string(),
                Json::Num(100.0 * *ns as f64 / chain_total as f64),
            )
        })
        .collect();
    // `queued` is the only residual bucket (no recorded span active); the
    // acceptance bar is >= 90% of chain time under named categories.
    let queued_pct = 100.0 * attr.queued_ns as f64 / chain_total as f64;
    let named_pct = 100.0 - queued_pct;
    assert!(
        named_pct >= 90.0,
        "critical path must attribute >= 90% of chain time to named \
         categories, got {named_pct:.1}% (queued {queued_pct:.1}%)"
    );
    let what_if = attribution.stages.as_ref().map(|r| {
        assert_eq!(r.train_ns.len(), trained, "one recorded batch per trained batch");
        let recorded = [&r.prep_ns[..], &r.transfer_ns[..], &r.train_ns[..]];
        what_if(recorded, r.prep_lanes, shape::TRANSFER_QUEUE_CAP, prefetch, 2, 2.0)
    });
    if let Some(w) = &what_if {
        println!(
            "what-if train 2x: baseline {:.3} ms -> projected {:.3} ms (speedup {:.2}x)",
            w.baseline_ns as f64 / 1e6,
            w.projected_ns as f64 / 1e6,
            w.speedup
        );
    }
    // No fault fired in this run, so the always-on flight recorder must not
    // have dumped anything.
    let dumps = snap.metrics.counter(names::counters::BLACKBOX_DUMPS);
    assert_eq!(dumps, 0, "clean run must not trigger a blackbox dump");

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("pipeline_observability".into())),
        ("clock".into(), Json::Str("virtual(tick=1us)".into())),
        (
            "stages_pct".into(),
            Json::Obj(vec![
                ("prep".into(), Json::Num(pcts[0])),
                ("transfer".into(), Json::Num(pcts[1])),
                ("train".into(), Json::Num(pcts[2])),
                // `other` decomposed into its named parts (they sum to it
                // exactly, so the six shares still partition the window).
                ("fill".into(), Json::Num(report.pct(report.fill_ns))),
                ("idle".into(), Json::Num(report.pct(report.idle_ns))),
                (
                    "shutdown".into(),
                    Json::Num(report.pct(report.shutdown_ns)),
                ),
            ]),
        ),
        (
            "critical_path".into(),
            Json::Obj(vec![
                ("batches".into(), Json::Num(chains.len() as f64)),
                ("total_ns".into(), Json::Num(attr.total_ns as f64)),
                ("named_pct".into(), Json::Num(named_pct)),
                ("categories_pct".into(), Json::Obj(cat_pct)),
                (
                    "what_if_train_2x".into(),
                    match &what_if {
                        Some(w) => Json::Obj(vec![
                            ("baseline_ns".into(), Json::Num(w.baseline_ns as f64)),
                            ("projected_ns".into(), Json::Num(w.projected_ns as f64)),
                            ("speedup".into(), Json::Num(w.speedup)),
                        ]),
                        None => Json::Obj(vec![]),
                    },
                ),
            ]),
        ),
        ("window_ns".into(), Json::Num(report.window_ns as f64)),
        ("overlap_frac".into(), Json::Num(overlap_frac)),
        ("overlap".into(), overlap_obj),
        (
            "batches".into(),
            Json::Num(snap.metrics.counter(names::counters::BATCHES) as f64),
        ),
        (
            "dtype".into(),
            Json::Str(dataset.features.dtype().to_string()),
        ),
        ("prep_bytes".into(), Json::Num(prep_bytes as f64)),
        ("transfer_bytes".into(), Json::Num(transfer_bytes as f64)),
        ("prep_batch".into(), hist(names::hists::PREP_BATCH_NS)),
        ("train_batch".into(), hist(names::hists::TRAIN_BATCH_NS)),
        ("prep_wait".into(), hist(names::hists::PREP_WAIT_NS)),
        (
            "threads".into(),
            Json::Num(summary.distinct_tids as f64),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/bench_pipeline.json");
    write_json(path, &doc).expect("write bench_pipeline.json");
    println!("per-stage breakdown -> target/bench_pipeline.json");
    println!("\nobservability tier OK");
}
