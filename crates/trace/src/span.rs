//! The tracing handle: per-thread buffered span recording.
//!
//! A [`Trace`] is either *enabled* (an `Arc`'d registry of span events,
//! thread names, and metric instruments, all stamped by one shared
//! [`Clock`]) or *disabled* (a null handle: starting a span reads no clock,
//! allocates nothing, and records nothing — the hot path is behaviorally
//! identical to uninstrumented code).
//!
//! Recording is sharded per thread: finished spans are pushed onto a plain
//! thread-local buffer (no locks, no atomics) and flushed into the central
//! registry in batches — when the buffer fills, when the thread exits
//! (thread-local destructor), or when [`Trace::flush_current_thread`] is
//! called. Threads that outlive the measurement (the trainer thread, a CLI
//! main) must flush before a [`Trace::snapshot`] is taken; worker threads
//! flush automatically on exit.

#![expect(
    clippy::indexing_slicing,
    reason = "i comes from position() on the same bufs vec, and last is len() - 1 straight after a push"
)]

use crate::analysis::Snapshot;
use crate::blackbox::{Blackbox, BlackboxConfig, BlackboxInner, Shard};
use crate::clock::Clock;
use crate::lock_tolerant;
use crate::metrics::{Counter, Gauge, Histogram, Metrics};
use crate::names::{CounterName, EventName, GaugeName, HistName, SpanName};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel batch id for events not tied to any batch.
pub const NO_BATCH: u64 = u64::MAX;

/// Buffered events per thread before an automatic flush.
const FLUSH_EVERY: usize = 128;

/// What an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An interval with a start and an end.
    Span,
    /// A point event (retry, respawn, failure marker).
    Instant,
}

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Event name: the string of the registered [`SpanName`] or
    /// [`EventName`] it was recorded under.
    pub name: &'static str,
    /// Interval or point event.
    pub kind: EventKind,
    /// Small dense id of the recording thread (index into the snapshot's
    /// thread-name table).
    pub tid: u32,
    /// Associated batch id, or [`NO_BATCH`].
    pub batch: u64,
    /// Start timestamp (clock nanoseconds).
    pub start_ns: u64,
    /// End timestamp; equals `start_ns` for point events.
    pub end_ns: u64,
}

impl SpanEvent {
    /// The event's duration in nanoseconds (0 for point events).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether the event lies fully inside `[start_ns, end_ns]`.
    pub(crate) fn within(&self, start_ns: u64, end_ns: u64) -> bool {
        self.start_ns >= start_ns && self.end_ns <= end_ns
    }
}

#[derive(Debug)]
pub(crate) struct TraceInner {
    id: u64,
    clock: Clock,
    events: Mutex<Vec<SpanEvent>>,
    /// Thread-name table; a thread's tid is its index here.
    threads: Mutex<Vec<String>>,
    metrics: Metrics,
    /// Flight recorder, when attached: per-thread bounded rings of the most
    /// recent events, dumped on faults (see [`crate::blackbox`]).
    blackbox: Option<Arc<BlackboxInner>>,
}

/// A per-thread event buffer bound to one trace registry; flushes on drop.
struct ThreadBuf {
    inner: Arc<TraceInner>,
    tid: u32,
    buf: Vec<SpanEvent>,
    /// This thread's flight-recorder ring, when a blackbox is attached.
    shard: Option<Arc<Shard>>,
}

/// Builds the calling thread's buffer for `inner`, registering the thread
/// and (when a blackbox is attached) its flight-recorder ring shard.
fn new_thread_buf(inner: &Arc<TraceInner>) -> ThreadBuf {
    let tid = register_thread(inner);
    ThreadBuf {
        inner: Arc::clone(inner),
        tid,
        buf: Vec::with_capacity(FLUSH_EVERY),
        shard: inner.blackbox.as_ref().map(|bb| bb.register_shard(tid)),
    }
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            lock_tolerant(&self.inner.events).append(&mut self.buf);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// One buffer per (thread, live trace registry) pair. The vector is
    /// tiny: a thread rarely records into more than one or two registries.
    static BUFFERS: RefCell<Vec<ThreadBuf>> = const { RefCell::new(Vec::new()) };
}

/// Registers the current thread with `inner` (idempotent) and returns its
/// dense thread id.
fn register_thread(inner: &Arc<TraceInner>) -> u32 {
    let mut threads = lock_tolerant(&inner.threads);
    let tid = threads.len() as u32;
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    threads.push(name);
    tid
}

/// Appends `ev` to the current thread's buffer for `inner`, creating and
/// registering the buffer on first use.
fn record(inner: &Arc<TraceInner>, mut make: impl FnMut(u32) -> SpanEvent) {
    let pushed = BUFFERS.try_with(|cell| {
        let mut bufs = cell.borrow_mut();
        let entry = match bufs.iter_mut().position(|b| b.inner.id == inner.id) {
            Some(i) => &mut bufs[i],
            None => {
                bufs.push(new_thread_buf(inner));
                let last = bufs.len() - 1;
                &mut bufs[last]
            }
        };
        let ev = make(entry.tid);
        entry.buf.push(ev);
        if entry.buf.len() >= FLUSH_EVERY {
            entry.flush();
        }
        // Mirror into the flight-recorder ring after the buffer push so the
        // two never hold their locks at once (acyclic lock order).
        if let Some(shard) = &entry.shard {
            shard.write(ev);
        }
    });
    if pushed.is_err() {
        // Thread-local storage already destroyed (event recorded during
        // thread teardown): fall back to the shared table directly.
        let tid = register_thread(inner);
        lock_tolerant(&inner.events).push(make(tid));
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A tracing + metrics handle (see the module docs).
///
/// # Examples
///
/// ```
/// use salient_trace::{names, Clock, Trace};
///
/// let trace = Trace::new(Clock::virtual_with_tick(1_000));
/// {
///     let _span = trace.span(names::spans::STAGE_TRAIN);
/// } // recorded on drop
/// trace.counter(names::counters::BATCHES).inc();
/// let snap = trace.snapshot();
/// assert_eq!(snap.events.len(), 1);
/// assert_eq!(snap.events[0].dur_ns(), 1_000);
/// assert_eq!(snap.metrics.counter(names::counters::BATCHES), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// An enabled handle recording against `clock`.
    pub fn new(clock: Clock) -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                // Relaxed: the id only needs uniqueness, not ordering.
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                events: Mutex::new(Vec::new()),
                threads: Mutex::new(Vec::new()),
                metrics: Metrics::default(),
                blackbox: None,
            })),
        }
    }

    /// An enabled handle with an attached flight recorder: every recorded
    /// event is also mirrored into a bounded per-thread ring that the
    /// [`Blackbox`] can dump on faults (see [`crate::blackbox`]).
    pub fn with_blackbox(clock: Clock, cfg: BlackboxConfig) -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                // Relaxed: the id only needs uniqueness, not ordering.
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                events: Mutex::new(Vec::new()),
                threads: Mutex::new(Vec::new()),
                metrics: Metrics::default(),
                blackbox: Some(Arc::new(BlackboxInner::new(cfg))),
            })),
        }
    }

    /// The attached flight recorder, if this handle has one.
    pub fn blackbox(&self) -> Option<Blackbox> {
        let inner = self.inner.as_ref()?;
        inner.blackbox.as_ref().map(|bb| Blackbox::from_inner(Arc::clone(bb)))
    }

    /// The null handle: every operation is a no-op and the span fast path
    /// performs no clock read and no allocation.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The clock this handle stamps events with (monotonic for a disabled
    /// handle, so callers can use it unconditionally for elapsed-time
    /// measurements).
    pub fn clock(&self) -> Clock {
        match &self.inner {
            Some(inner) => inner.clock.clone(),
            None => Clock::Monotonic,
        }
    }

    /// Reads the handle's clock.
    pub fn now_ns(&self) -> u64 {
        self.clock().now_ns()
    }

    /// Starts a span; it is recorded when the guard drops.
    pub fn span(&self, name: SpanName) -> SpanGuard<'_> {
        self.span_batch(name, NO_BATCH)
    }

    /// Starts a span tagged with a batch id. The disabled path must stay
    /// allocation-free (pinned by `tests/trace_overhead.rs`).
    pub fn span_batch(&self, name: SpanName, batch: u64) -> SpanGuard<'_> {
        SpanGuard {
            active: self.inner.as_ref().map(|inner| ActiveSpan {
                inner,
                name: name.as_str(),
                batch,
                start_ns: inner.clock.now_ns(),
            }),
        }
    }

    /// Records an interval from already-known timestamps (for callers that
    /// measured with [`Trace::now_ns`] themselves).
    pub fn record_span(&self, name: SpanName, batch: u64, start_ns: u64, end_ns: u64) {
        if let Some(inner) = &self.inner {
            record(inner, |tid| SpanEvent {
                name: name.as_str(),
                kind: EventKind::Span,
                tid,
                batch,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a point event.
    pub fn instant(&self, name: EventName, batch: u64) {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now_ns();
            record(inner, |tid| SpanEvent {
                name: name.as_str(),
                kind: EventKind::Instant,
                tid,
                batch,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// The counter named `name` (a detached dummy when disabled, so handles
    /// can be acquired unconditionally outside hot loops).
    pub fn counter(&self, name: CounterName) -> Counter {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Counter::detached(),
        }
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: GaugeName) -> Gauge {
        match &self.inner {
            Some(inner) => inner.metrics.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: HistName) -> Histogram {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Convenience counter add (cold paths; hot paths should hold a
    /// [`Counter`] handle instead).
    pub fn add(&self, name: CounterName, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter(name).add(v);
        }
    }

    /// Convenience histogram observation (cold paths).
    pub fn observe(&self, name: HistName, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram(name).observe(v);
        }
    }

    /// Flushes the calling thread's buffered events into the registry.
    /// Long-lived threads (the consumer loop, CLI mains) call this before a
    /// snapshot; worker threads flush automatically when they exit.
    pub fn flush_current_thread(&self) {
        if let Some(inner) = &self.inner {
            let _ = BUFFERS.try_with(|cell| {
                let mut bufs = cell.borrow_mut();
                if let Some(b) = bufs.iter_mut().find(|b| b.inner.id == inner.id) {
                    b.flush();
                }
            });
        }
    }

    /// Flushes the calling thread and freezes everything recorded so far.
    ///
    /// Events are sorted by `(start_ns, tid, name)` so identical executions
    /// under a [`crate::VirtualClock`] produce byte-identical exports.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_where(|_| true)
    }

    /// Equal, event for event, to `snapshot().window(start_ns, end_ns)`
    /// (see [`Snapshot::window`]), but filters under the registry lock
    /// *before* the clone and sort: the cost follows the events inside the
    /// window, not everything recorded since the handle was built — which
    /// is what a per-epoch report on a long run needs.
    pub fn snapshot_window(&self, start_ns: u64, end_ns: u64) -> Snapshot {
        self.snapshot_where(|e| e.within(start_ns, end_ns))
    }

    fn snapshot_where(&self, keep: impl Fn(&SpanEvent) -> bool) -> Snapshot {
        self.flush_current_thread();
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => {
                let mut events: Vec<SpanEvent> = lock_tolerant(&inner.events)
                    .iter()
                    .filter(|e| keep(e))
                    .copied()
                    .collect();
                events.sort_by(|a, b| {
                    (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name))
                });
                Snapshot {
                    events,
                    threads: lock_tolerant(&inner.threads).clone(),
                    metrics: inner.metrics.snapshot(),
                }
            }
        }
    }
}

struct ActiveSpan<'a> {
    inner: &'a Arc<TraceInner>,
    name: &'static str,
    batch: u64,
    start_ns: u64,
}

/// An in-flight span; recording happens when it drops.
#[must_use = "a span guard records on drop; binding it to `_` ends it immediately"]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let end_ns = a.inner.clock.now_ns();
            record(a.inner, |tid| SpanEvent {
                name: a.name,
                kind: EventKind::Span,
                tid,
                batch: a.batch,
                start_ns: a.start_ns,
                end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Trace::disabled();
        {
            let _s = t.span_batch(SpanName::new("x"), 3);
        }
        t.instant(EventName::new("y"), NO_BATCH);
        t.add(CounterName::new("c"), 5);
        t.observe(HistName::new("h"), 9);
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.metrics.counters.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn spans_nest_and_tag_batches() {
        let t = Trace::new(Clock::virtual_with_tick(10));
        {
            let _outer = t.span(SpanName::new("outer"));
            let _inner = t.span_batch(SpanName::new("inner"), 7);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        // Sorted by start: outer started first.
        assert_eq!(snap.events[0].name, "outer");
        assert_eq!(snap.events[1].name, "inner");
        assert_eq!(snap.events[1].batch, 7);
        assert!(snap.events[0].end_ns >= snap.events[1].end_ns);
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let t = Trace::new(Clock::monotonic());
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let t = t.clone();
                std::thread::Builder::new()
                    .name(format!("w{i}"))
                    .spawn(move || {
                        let _s = t.span(SpanName::new("worker"));
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.distinct_tids(), 3);
        let mut names = snap.threads.clone();
        names.sort();
        assert_eq!(names, vec!["w0", "w1", "w2"]);
    }

    #[test]
    fn buffered_events_flush_at_threshold() {
        let t = Trace::new(Clock::virtual_with_tick(1));
        for _ in 0..FLUSH_EVERY {
            let _s = t.span(SpanName::new("e"));
        }
        // Without an explicit flush the threshold must have pushed them out.
        let inner = t.inner.as_ref().unwrap();
        assert_eq!(lock_tolerant(&inner.events).len(), FLUSH_EVERY);
    }

    #[test]
    fn record_span_uses_caller_timestamps() {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(SpanName::new("x"), 1, 100, 250);
        let snap = t.snapshot();
        assert_eq!(snap.events[0].dur_ns(), 150);
    }

    #[test]
    fn snapshot_is_deterministic_under_virtual_clock() {
        let run = || {
            let t = Trace::new(Clock::virtual_with_tick(5));
            for b in 0..10u64 {
                let _s = t.span_batch(SpanName::new("batch"), b);
                t.instant(EventName::new("mark"), b);
            }
            let s = t.snapshot();
            s.events
                .iter()
                .map(|e| (e.name, e.batch, e.start_ns, e.end_ns))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
