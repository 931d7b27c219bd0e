//! Always-on flight recorder: each thread's most recent events, dumped to
//! disk when something goes wrong.
//!
//! A [`crate::Trace`] built with [`crate::Trace::with_blackbox`] keeps no
//! second copy of anything: a dump takes a [`crate::Trace::snapshot`] — the
//! same per-thread logs every reader sees, including events of threads that
//! are still running at the moment of the fault — and keeps each thread's
//! last 4 096 events of it.
//!
//! Dumps fire on pipeline poison (a stage graph's panic budget running
//! out), serve circuit-breaker open, and fault-site fires (the callers hold
//! the trigger; [`Blackbox::dump`] is the mechanism). A dump is one JSON file
//! containing the trigger metadata, the failing batch's causal chain in the
//! open epoch (via [`crate::analysis::attribute`]), those recent events as a
//! Chrome trace, and the full metrics snapshot — everything needed to
//! diagnose a dead run post-mortem.

use crate::analysis::{self, Snapshot};
use crate::export;
use crate::lock_tolerant;
use crate::names;
use crate::span::{SpanEvent, Trace};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Events a dump carries per recording thread: the most recent 4 096 hold
/// several epochs of per-batch pipeline events at ~6 events per batch per
/// thread.
const RECENT_PER_THREAD: usize = 4096;

/// The last [`RECENT_PER_THREAD`] events of each thread in `snap`, in the
/// snapshot's order.
fn recent(snap: &Snapshot) -> Vec<SpanEvent> {
    let mut left = vec![RECENT_PER_THREAD; snap.threads.len()];
    let mut events: Vec<SpanEvent> = snap
        .events
        .iter()
        .rev()
        .filter(|e| match left.get_mut(e.tid as usize) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        })
        .copied()
        .collect();
    events.reverse();
    events
}

/// Process-global dump sequence so concurrent traces never collide on a
/// file name (the deterministic alternative to a wall-clock timestamp,
/// which `clippy::disallowed_methods` rejects here anyway).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Handle to a trace's attached flight recorder (see the module docs).
#[derive(Clone, Debug)]
pub struct Blackbox {
    inner: Arc<BlackboxInner>,
}

#[derive(Debug)]
struct BlackboxInner {
    /// Directory dump files are written into (created on first dump).
    dir: String,
    last: Mutex<Option<String>>,
}

impl Blackbox {
    pub(crate) fn new(dir: String) -> Blackbox {
        Blackbox { inner: Arc::new(BlackboxInner { dir, last: Mutex::new(None) }) }
    }

    /// Writes one dump file and returns its path (`None` if the filesystem
    /// refused; the recorder itself must never panic — it runs inside fault
    /// handlers). The dump records `reason`, the triggering `batch`, that
    /// batch's causal chain in the open epoch, each thread's recent events
    /// as an embedded Chrome trace, and the counters' snapshot; it also
    /// emits a `blackbox.dump` instant on `trace`.
    pub fn dump(&self, trace: &Trace, reason: &str, batch: u64) -> Option<String> {
        let full = trace.snapshot();
        let dumped = Snapshot { events: recent(&full), ..full };
        let attribution = analysis::attribute(&dumped);
        let chain = attribution.open_chain(batch);

        // Relaxed: the sequence only needs uniqueness, not ordering.
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"blackbox\": {{\"reason\": \"{}\", \"seq\": {seq}, \"batch\": {batch}, \
             \"ring_events\": {}}},\n\"chain\": [",
            export::json_escape(reason),
            dumped.events.len()
        );
        if let Some(c) = chain {
            for (i, (kind, e)) in c.typed_edges().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n  {{\"kind\": \"{}\", \"name\": \"{}\", \"tid\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    kind.label(),
                    export::json_escape(e.name),
                    e.tid,
                    e.start_ns,
                    e.end_ns
                );
            }
        }
        out.push_str("\n],\n\"trace\": ");
        out.push_str(export::chrome_trace(&dumped).trim_end());
        out.push_str(",\n\"metrics\": ");
        out.push_str(export::metrics_json(&dumped).trim_end());
        out.push_str("\n}\n");

        if std::fs::create_dir_all(&self.inner.dir).is_err() {
            return None;
        }
        let path = format!("{}/blackbox-{seq}.json", self.inner.dir);
        if std::fs::write(&path, &out).is_err() {
            return None;
        }
        *lock_tolerant(&self.inner.last) = Some(path.clone());
        trace.instant(names::events::BLACKBOX_DUMP, batch);
        Some(path)
    }

    /// Path of the most recent successful dump from this recorder.
    pub fn last_dump(&self) -> Option<String> {
        lock_tolerant(&self.inner.last).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::names::spans;

    /// A dump directory under the workspace's target/tmp, not this crate's
    /// directory.
    fn test_dir(name: &str) -> String {
        format!(
            "{}/tmp/blackbox-test-{name}",
            std::env::var("CARGO_TARGET_DIR")
                .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").into())
        )
    }

    fn parse_dump(path: &str) -> crate::json::Value {
        let text = std::fs::read_to_string(path).unwrap();
        crate::json::parse(&text).expect("dump must be valid JSON")
    }

    #[test]
    fn a_dump_carries_each_threads_last_4096_events() {
        let t = Trace::with_blackbox(Clock::virtual_manual(), test_dir("recent"));
        let busy = RECENT_PER_THREAD as u64 + 3;
        for b in 0..busy {
            t.record_span(spans::STAGE_TRAIN, b, b * 10, b * 10 + 5);
        }
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.record_span(spans::PREP_SAMPLE, 0, 0, 5);
            t2.record_span(spans::PREP_SAMPLE, 1, 10, 15);
        })
        .join()
        .unwrap();
        let path = t.blackbox().unwrap().dump(&t, "test", 0).unwrap();
        let doc = parse_dump(&path);
        let meta = doc.get("blackbox").unwrap();
        assert_eq!(
            meta.get("ring_events").unwrap().as_num(),
            Some((RECENT_PER_THREAD + 2) as f64)
        );
        // The busy thread's oldest three are gone, the quiet thread keeps both.
        let events = doc.get("trace").unwrap().get("traceEvents").unwrap();
        let batches = |name: &str| -> Vec<f64> {
            events
                .as_arr()
                .unwrap()
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .filter_map(|e| e.get("args")?.get("batch")?.as_num())
                .collect()
        };
        let trained = batches(spans::STAGE_TRAIN.as_str());
        assert_eq!(trained.len(), RECENT_PER_THREAD);
        assert_eq!((trained[0], trained[RECENT_PER_THREAD - 1]), (3.0, (busy - 1) as f64));
        assert_eq!(batches(spans::PREP_SAMPLE.as_str()), vec![0.0, 1.0]);
    }

    #[test]
    fn dump_is_parseable_and_contains_the_chain() {
        let t = Trace::with_blackbox(Clock::virtual_manual(), test_dir("dump"));
        t.record_span(spans::WARMUP, 2, 0, 10);
        t.record_span(spans::PREP_SAMPLE, 2, 10, 40);
        t.record_span(spans::STAGE_TRAIN, 2, 50, 80);
        t.record_span(spans::STAGE_TRAIN, 3, 80, 90);
        let bb = t.blackbox().unwrap();
        let path = bb.dump(&t, names::events::PIPE_POISONED.as_str(), 2).unwrap();
        assert_eq!(bb.last_dump().as_deref(), Some(path.as_str()));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = parse_dump(&path);
        let meta = doc.get("blackbox").unwrap();
        assert_eq!(
            meta.get("reason").unwrap().as_str(),
            Some(names::events::PIPE_POISONED.as_str())
        );
        assert_eq!(meta.get("batch").unwrap().as_num(), Some(2.0));
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        assert_eq!(chain.len(), 3, "batch 2 has three edges");
        assert!(text.contains("\"kind\": \"fill\""));
        assert!(text.contains("\"kind\": \"stage_work\""));
        // The embedded trace and metrics are full JSON documents.
        assert!(doc.get("trace").unwrap().get("traceEvents").is_some());
        assert!(doc.get("metrics").unwrap().get("counters").is_some());
        // Dumping also emits the instant.
        assert_eq!(t.snapshot().count(names::events::BLACKBOX_DUMP), 1);
    }
}
