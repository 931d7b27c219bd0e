//! Always-on flight recorder: bounded per-thread rings of recent events,
//! dumped to disk when something goes wrong.
//!
//! A [`crate::Trace`] built with [`crate::Trace::with_blackbox`] mirrors
//! every recorded event into the recording thread's [`Shard`] — a ring of
//! [`crate::SpanEvent`]s whose storage is preallocated when the thread
//! first registers, so steady-state writes are an uncontended owner-thread
//! mutex acquire plus one index assignment: no allocation, no contention
//! (pinned by the counting-allocator test in `tests/trace_overhead.rs`).
//! The crate forbids `unsafe`, so "lock-free" here is the practical kind —
//! each ring's mutex is only ever touched by its owner thread until a dump
//! walks the shards.
//!
//! Beyond bounding memory, the rings capture what the central registry
//! cannot yet see: events still sitting in other threads' unflushed
//! thread-local buffers at the moment of a fault.
//!
//! Dumps fire on stage panic-budget exhaustion, pipeline poison, serve
//! circuit-breaker open, and fault-site fires (the callers hold the
//! trigger; [`Blackbox::dump`] is the mechanism). A dump is one JSON file
//! containing the trigger metadata, the failing batch's causal chain
//! (via [`crate::critical_path`]), the ring contents as a Chrome trace,
//! and the full metrics snapshot — everything needed to diagnose a dead
//! run post-mortem.

use crate::analysis::Snapshot;
use crate::critical_path;
use crate::export;
use crate::lock_tolerant;
use crate::names;
use crate::span::{SpanEvent, Trace};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Flight-recorder configuration.
#[derive(Clone, Debug)]
pub struct BlackboxConfig {
    /// Ring capacity per recording thread, in events. The default (4096)
    /// holds several epochs of per-batch pipeline events at ~6 events per
    /// batch per thread while costing under 200 KiB per thread.
    pub capacity: usize,
    /// Directory dump files are written into (created on first dump).
    pub dir: String,
}

impl Default for BlackboxConfig {
    fn default() -> Self {
        BlackboxConfig {
            capacity: 4096,
            dir: "target/blackbox".to_string(),
        }
    }
}

/// Fixed-capacity overwrite-oldest event ring.
#[derive(Debug)]
struct Ring {
    buf: Vec<SpanEvent>,
    /// Overwrite cursor once the buffer is full (oldest entry's slot).
    next: usize,
    cap: usize,
}

/// One thread's bounded ring of recent events. Writes come only from the
/// owning thread's recorder; reads only from a dumping thread.
#[derive(Debug)]
pub(crate) struct Shard {
    tid: u32,
    ring: Mutex<Ring>,
}

impl Shard {
    /// Appends `ev`, overwriting the oldest entry when full. The buffer was
    /// preallocated at registration, so the push branch never reallocates.
    pub(crate) fn write(&self, ev: SpanEvent) {
        let mut r = lock_tolerant(&self.ring);
        if r.buf.len() < r.cap {
            r.buf.push(ev);
        } else if r.cap > 0 {
            let i = r.next;
            if let Some(slot) = r.buf.get_mut(i) {
                *slot = ev;
            }
            r.next = (i + 1) % r.cap;
        }
    }

    /// The ring contents, oldest first.
    fn gather(&self) -> Vec<SpanEvent> {
        let r = lock_tolerant(&self.ring);
        if r.buf.len() < r.cap {
            r.buf.clone()
        } else {
            r.buf
                .iter()
                .skip(r.next)
                .chain(r.buf.iter().take(r.next))
                .copied()
                .collect()
        }
    }
}

/// Shared flight-recorder state hanging off an enabled trace.
#[derive(Debug)]
pub(crate) struct BlackboxInner {
    capacity: usize,
    dir: String,
    shards: Mutex<Vec<Arc<Shard>>>,
    last: Mutex<Option<String>>,
}

impl BlackboxInner {
    pub(crate) fn new(cfg: BlackboxConfig) -> BlackboxInner {
        BlackboxInner {
            capacity: cfg.capacity,
            dir: cfg.dir,
            shards: Mutex::new(Vec::new()),
            last: Mutex::new(None),
        }
    }

    /// Creates (and retains) the ring shard for a newly registered thread.
    /// The full capacity is allocated here, off the hot path, so steady-state
    /// [`Shard::write`] calls never allocate.
    pub(crate) fn register_shard(&self, tid: u32) -> Arc<Shard> {
        let shard = Arc::new(Shard {
            tid,
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(self.capacity),
                next: 0,
                cap: self.capacity,
            }),
        });
        lock_tolerant(&self.shards).push(Arc::clone(&shard));
        shard
    }
}

/// Process-global dump sequence so concurrent traces never collide on a
/// file name (the deterministic alternative to a wall-clock timestamp,
/// which the lint's determinism rule forbids here anyway).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Handle to a trace's attached flight recorder (see the module docs).
#[derive(Clone, Debug)]
pub struct Blackbox {
    inner: Arc<BlackboxInner>,
}

impl Blackbox {
    pub(crate) fn from_inner(inner: Arc<BlackboxInner>) -> Blackbox {
        Blackbox { inner }
    }

    /// Everything currently in the rings across all threads, merged and
    /// sorted like a snapshot (`(start_ns, tid, name)`).
    pub fn recent_events(&self) -> Vec<SpanEvent> {
        let shards: Vec<Arc<Shard>> = lock_tolerant(&self.inner.shards).clone();
        let mut by_tid = shards;
        by_tid.sort_by_key(|s| s.tid);
        let mut events: Vec<SpanEvent> = Vec::new();
        for s in &by_tid {
            events.extend(s.gather());
        }
        events.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        events
    }

    /// Writes one dump file and returns its path (`None` if the filesystem
    /// refused; the recorder itself must never panic — it runs inside fault
    /// handlers). The dump records `reason`, the triggering `batch`, that
    /// batch's causal chain, the ring contents as an embedded Chrome trace,
    /// and the full metrics snapshot; it also ticks `blackbox.dumps` and
    /// emits a `blackbox.dump` instant on `trace`.
    pub fn dump(&self, trace: &Trace, reason: &str, batch: u64) -> Option<String> {
        let full = trace.snapshot();
        let events = self.recent_events();
        let ring_snap = Snapshot {
            events,
            threads: full.threads.clone(),
            metrics: full.metrics.clone(),
        };
        let chains = critical_path::batch_chains(&ring_snap);
        let chain = chains.iter().find(|c| c.batch == batch);

        // Relaxed: the sequence only needs uniqueness, not ordering.
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"blackbox\": {{\"reason\": \"{}\", \"seq\": {seq}, \"batch\": {batch}, \
             \"ring_events\": {}}},\n\"chain\": [",
            export::json_escape(reason),
            ring_snap.events.len()
        );
        if let Some(c) = chain {
            for (i, e) in c.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n  {{\"kind\": \"{}\", \"name\": \"{}\", \"tid\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    e.kind.label(),
                    export::json_escape(e.name),
                    e.tid,
                    e.start_ns,
                    e.end_ns
                );
            }
        }
        out.push_str("\n],\n\"trace\": ");
        out.push_str(export::chrome_trace(&ring_snap).trim_end());
        out.push_str(",\n\"metrics\": ");
        out.push_str(export::metrics_json(&ring_snap).trim_end());
        out.push_str("\n}\n");

        if std::fs::create_dir_all(&self.inner.dir).is_err() {
            return None;
        }
        let path = format!("{}/blackbox-{seq}.json", self.inner.dir);
        if std::fs::write(&path, &out).is_err() {
            return None;
        }
        *lock_tolerant(&self.inner.last) = Some(path.clone());
        trace.counter(names::counters::BLACKBOX_DUMPS).inc();
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

    fn test_cfg(name: &str, capacity: usize) -> BlackboxConfig {
        BlackboxConfig {
            capacity,
            // The workspace's target/tmp, not this crate's directory.
            dir: format!(
                "{}/tmp/blackbox-test-{name}",
                std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../target"
                )
                .into())
            ),
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_gathers_in_order() {
        let t = Trace::with_blackbox(Clock::virtual_with_tick(10), test_cfg("ring", 4));
        for b in 0..7u64 {
            t.record_span(spans::STAGE_TRAIN, b, b * 10, b * 10 + 5);
        }
        let bb = t.blackbox().unwrap();
        let recent = bb.recent_events();
        // Capacity 4: batches 3..=6 survive, oldest first.
        assert_eq!(recent.len(), 4);
        assert_eq!(
            recent.iter().map(|e| e.batch).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }

    #[test]
    fn dump_is_parseable_and_contains_the_chain() {
        let t = Trace::with_blackbox(Clock::virtual_manual(), test_cfg("dump", 64));
        t.record_span(spans::WARMUP, 2, 0, 10);
        t.record_span(spans::PREP_SAMPLE, 2, 10, 40);
        t.record_span(spans::STAGE_TRAIN, 2, 50, 80);
        t.record_span(spans::STAGE_TRAIN, 3, 80, 90);
        let bb = t.blackbox().unwrap();
        let path = bb.dump(&t, names::events::PIPE_POISONED.as_str(), 2).unwrap();
        assert_eq!(bb.last_dump().as_deref(), Some(path.as_str()));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(&text).expect("dump must be valid JSON");
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
        // Dumping also ticks the counter and emits the instant.
        let snap = t.snapshot();
        assert_eq!(snap.metrics.counter(names::counters::BLACKBOX_DUMPS), 1);
        assert_eq!(snap.count(names::events::BLACKBOX_DUMP), 1);
    }

    #[test]
    fn rings_capture_unflushed_events_from_other_threads() {
        let t = Trace::with_blackbox(Clock::virtual_manual(), test_cfg("unflushed", 64));
        // A worker records one event and *stays alive* (parked on a channel),
        // so its thread-local buffer has not flushed to the registry yet.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn({
            let t = t.clone();
            move || {
                t.record_span(spans::PREP_SAMPLE, 5, 100, 200);
                ready_tx.send(()).ok();
                rx.recv().ok();
            }
        });
        ready_rx.recv().unwrap();
        let bb = t.blackbox().unwrap();
        let recent = bb.recent_events();
        assert!(
            recent.iter().any(|e| e.batch == 5),
            "ring must see the unflushed worker event"
        );
        tx.send(()).unwrap();
        worker.join().unwrap();
    }
}
