//! Exporters: Chrome trace-event JSON, a metrics snapshot as JSON, and a
//! human-readable epoch report.
//!
//! All output is hand-rendered (the workspace is dependency-free) and
//! deterministic: events come pre-sorted from [`crate::Trace::snapshot`] and
//! every float is printed with fixed precision, so identical executions
//! under a [`crate::VirtualClock`] produce byte-identical files.

use crate::analysis::{PipelineReport, Snapshot};
use crate::names::events;
use crate::span::{EventKind, NO_BATCH};
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats nanoseconds as Chrome-trace microseconds with nanosecond
/// precision (`ts`/`dur` fields are fractional microseconds).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the snapshot in the Chrome trace-event JSON format
/// (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// Spans become `"X"` (complete) events, point events become `"i"`
/// (instant) events, and each thread gets an `"M"` `thread_name` metadata
/// record. Batch ids are attached under `args.batch`, non-zero counts under
/// `args.counts`.
pub fn chrome_trace(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&s);
    };
    for (tid, name) in snap.threads.iter().enumerate() {
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
            &mut out,
        );
    }
    for e in &snap.events {
        let mut args = Vec::new();
        if e.batch != NO_BATCH {
            args.push(format!("\"batch\":{}", e.batch));
        }
        let [a, b] = e.counts;
        if a != 0 || b != 0 {
            args.push(format!("\"counts\":[{a},{b}]"));
        }
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{}}}", args.join(","))
        };
        let line = match e.kind {
            EventKind::Span => format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":{}{}}}",
                json_escape(e.name),
                e.tid,
                us(e.start_ns),
                us(e.dur_ns()),
                args
            ),
            EventKind::Instant => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"s\":\"t\"{}}}",
                json_escape(e.name),
                e.tid,
                us(e.start_ns),
                args
            ),
        };
        emit(line, &mut out);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders every counter as a JSON object: `{"counters":{..}}`.
pub fn metrics_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    for (i, (k, v)) in snap.metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
    }
    out.push_str("\n  }\n}\n");
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// Renders the human-readable stall-attribution report for one run.
pub fn render_report(r: &PipelineReport, snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "pipeline report (window {})", fmt_ms(r.window_ns));
    let _ = writeln!(out, "  trainer stage breakdown:");
    for (label, ns) in [
        ("prep (blocked)", r.prep_ns),
        ("transfer", r.transfer_ns),
        ("compute", r.compute_ns),
        ("other", r.other_ns),
    ] {
        let _ = writeln!(
            out,
            "    {label:<16} {:>12}  {:>5.1}%",
            fmt_ms(ns),
            r.pct(ns)
        );
    }
    // The named decomposition of `other` (always sums to it exactly).
    for (label, ns) in [
        ("  fill", r.fill_ns),
        ("  idle", r.idle_ns),
        ("  shutdown", r.shutdown_ns),
    ] {
        let _ = writeln!(
            out,
            "    {label:<16} {:>12}  {:>5.1}%",
            fmt_ms(ns),
            r.pct(ns)
        );
    }
    let _ = writeln!(out, "  worker prep breakdown:");
    for (label, ns) in [
        ("sample", r.worker_sample_ns),
        ("slice", r.worker_slice_ns),
        ("copy", r.worker_copy_ns),
        ("slot wait", r.worker_slot_wait_ns),
    ] {
        let _ = writeln!(out, "    {label:<16} {:>12}", fmt_ms(ns));
    }
    let _ = writeln!(
        out,
        "  prep/compute overlap: {} ({:.1}% of compute)",
        fmt_ms(r.overlap_ns),
        100.0 * r.overlap_frac()
    );
    if r.comm_ns > 0 {
        let _ = writeln!(out, "  ddp comm: {}", fmt_ms(r.comm_ns));
    }
    let _ = writeln!(out, "  thread occupancy:");
    for occ in &r.occupancy {
        let _ = writeln!(
            out,
            "    [{:>2}] {:<20} busy {:>12}  {:>5.1}%",
            occ.tid,
            occ.name,
            fmt_ms(occ.busy_ns),
            r.pct(occ.busy_ns)
        );
    }
    for (label, p) in [
        ("prep work", r.prep_work),
        ("stage.train", r.train),
        ("stage.prep", r.prep_wait),
        ("warmup", r.fill),
    ] {
        if p.n > 0 {
            let (p50, p95, p99) = (fmt_ms(p.p50), fmt_ms(p.p95), fmt_ms(p.p99));
            let _ = writeln!(out, "  {label}: n={} p50={p50} p95={p95} p99={p99}", p.n);
        }
    }
    // Batch prep's faults, counted from the snapshot's own events: a
    // window's report names the faults inside it.
    let faults = [
        ("retries", events::RETRY),
        ("failed_batches", events::FAILED_BATCH),
    ]
    .map(|(label, name)| (label, snap.count(name)));
    if faults.iter().any(|&(_, n)| n > 0) {
        let _ = write!(out, "  faults:");
        for (label, n) in faults {
            let _ = write!(out, " {label}={n}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::clock::Clock;
    use crate::names::{counters, spans};
    use crate::span::Trace;

    fn sample_trace() -> Trace {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::EPOCH, NO_BATCH, 0, 1_000_000);
        t.record_span(spans::STAGE_TRAIN, 0, 0, 600_000);
        t.record_span(spans::STAGE_PREP, 1, 600_000, 900_000);
        t.record_span_counts(spans::PREP_SLICE, 1, 650_000, 700_000, [4_096, 0]);
        t.instant(events::RETRY, 1);
        t.counter(counters::SERVE_ADMITTED).add(2);
        t
    }

    #[test]
    fn chrome_trace_has_metadata_spans_and_instants() {
        let json = chrome_trace(&sample_trace().snapshot());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"batch\":1}"));
        assert!(json.contains("\"args\":{\"batch\":1,\"counts\":[4096,0]}"));
        // NO_BATCH events get no args object.
        assert!(json.contains("\"name\":\"epoch\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"dur\":1000.000}"));
    }

    #[test]
    fn metrics_json_lists_counters() {
        let json = metrics_json(&sample_trace().snapshot());
        assert!(json.contains("\"serve.admitted\": 2"));
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn report_percentages_render() {
        let snap = sample_trace().snapshot();
        let r = analyze(&snap);
        let text = render_report(&r, &snap);
        assert!(text.contains("trainer stage breakdown"));
        assert!(text.contains("compute"));
        assert!(text.contains("60.0%"));
        assert!(text.contains("prep work: n=1 p50=0.050 ms"), "{text}");
        assert!(text.contains("stage.train: n=1 p50=0.600 ms"), "{text}");
        assert!(!text.contains("warmup"), "{text}");
        assert!(text.contains("faults: retries=1 failed_batches=0\n"), "{text}");
        // A window without the retry reports no faults.
        let window = snap.window(600_000, 1_000_000);
        assert!(!render_report(&analyze(&window), &window).contains("faults"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_trace().snapshot();
        let b = sample_trace().snapshot();
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
        assert_eq!(metrics_json(&a), metrics_json(&b));
        assert_eq!(render_report(&analyze(&a), &a), render_report(&analyze(&b), &b));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
