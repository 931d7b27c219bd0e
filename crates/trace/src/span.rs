//! The tracing handle: one event log per recording thread, read in place.
//!
//! A [`Trace`] is either *enabled* (an `Arc`'d registry of per-thread event
//! logs and counters, all stamped by one shared [`Clock`]) or
//! *disabled* (a null handle: starting a span reads no clock, allocates
//! nothing, and records nothing — the hot path is behaviorally identical to
//! uninstrumented code).
//!
//! The first event a thread records against a registry registers the
//! thread's log there — its tid is the registration order, its name the
//! thread's — and every later event is a lock and a push on that log. Only
//! a reader ever contends for the lock: [`Trace::snapshot`] and the flight
//! recorder's dumps read every log where it lies, so an event is visible
//! the moment it is recorded, whichever thread recorded it and whether or
//! not that thread is still alive. There is nothing to flush. No lock here
//! is taken while another is held: a reader copies the list of logs out of
//! its lock before it locks any log.

use crate::analysis::Snapshot;
use crate::blackbox::Blackbox;
use crate::clock::Clock;
use crate::lock_tolerant;
use crate::metrics::{Counter, Metrics};
use crate::names::{CounterName, EventName, SpanName};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel batch id for events not tied to any batch.
pub const NO_BATCH: u64 = u64::MAX;

/// What an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An interval with a start and an end.
    Span,
    /// A point event (retry, failure marker, breaker move).
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
    /// What the span covered, in the units its [`crate::names::spans`]
    /// constant documents (a batch's nodes and edges, its bytes); zero when
    /// unset.
    pub counts: [u64; 2],
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

/// Everything one thread recorded against one registry, in recording order.
#[derive(Debug)]
struct ThreadLog {
    tid: u32,
    name: String,
    events: Mutex<Vec<SpanEvent>>,
}

#[derive(Debug)]
struct TraceInner {
    id: u64,
    clock: Clock,
    /// Every recording thread's log; a thread's tid is its index here.
    logs: Mutex<Vec<Arc<ThreadLog>>>,
    metrics: Metrics,
    /// Flight recorder, when attached (see [`crate::blackbox`]).
    blackbox: Option<Blackbox>,
}

thread_local! {
    /// This thread's log in each registry it has recorded into, keyed by
    /// registry id. Tiny: a thread rarely records into more than one or two
    /// live registries.
    static LOGS: RefCell<Vec<(u64, Arc<ThreadLog>)>> = const { RefCell::new(Vec::new()) };
}

/// Registers a new log for the calling thread with `inner`.
fn register_thread(inner: &TraceInner) -> Arc<ThreadLog> {
    let mut logs = lock_tolerant(&inner.logs);
    let tid = logs.len() as u32;
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let log = Arc::new(ThreadLog { tid, name, events: Mutex::new(Vec::new()) });
    logs.push(Arc::clone(&log));
    log
}

/// Pushes `make(tid)` onto the calling thread's log in `inner`, registering
/// the log on the thread's first event.
fn record(inner: &TraceInner, make: impl Fn(u32) -> SpanEvent) {
    let push = |log: &ThreadLog| lock_tolerant(&log.events).push(make(log.tid));
    let recorded = LOGS.try_with(|cell| {
        let mut logs = cell.borrow_mut();
        if let Some((_, log)) = logs.iter().find(|(id, _)| *id == inner.id) {
            return push(log);
        }
        // A log nothing else holds belongs to a dropped registry.
        logs.retain(|(_, log)| Arc::strong_count(log) > 1);
        let log = register_thread(inner);
        push(&log);
        logs.push((inner.id, log));
    });
    if recorded.is_err() {
        // Thread-local storage already destroyed (event recorded during
        // thread teardown): the event gets a log of its own.
        push(&register_thread(inner));
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
/// trace.record_span_counts(names::spans::PREP_SLICE, 0, 0, 500, [4_096, 0]);
/// trace.instant(names::events::RETRY, 3);
/// trace.counter(names::counters::SERVE_ADMITTED).inc();
/// let snap = trace.snapshot();
/// assert_eq!(snap.events.len(), 3);
/// assert_eq!(snap.events[1].dur_ns(), 1_000);
/// assert_eq!(snap.events[0].counts, [4_096, 0]);
/// assert_eq!(snap.count(names::events::RETRY), 1);
/// assert_eq!(snap.metrics.counter(names::counters::SERVE_ADMITTED), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// An enabled handle recording against `clock`.
    pub fn new(clock: Clock) -> Trace {
        Trace::enabled(clock, None)
    }

    /// An enabled handle with an attached flight recorder that writes its
    /// dumps into `dir` (see [`crate::blackbox`]).
    pub fn with_blackbox(clock: Clock, dir: impl Into<String>) -> Trace {
        Trace::enabled(clock, Some(Blackbox::new(dir.into())))
    }

    fn enabled(clock: Clock, blackbox: Option<Blackbox>) -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                // Relaxed: the id only needs uniqueness, not ordering.
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                logs: Mutex::new(Vec::new()),
                metrics: Metrics::default(),
                blackbox,
            })),
        }
    }

    /// The attached flight recorder, if this handle has one.
    pub fn blackbox(&self) -> Option<Blackbox> {
        self.inner.as_ref()?.blackbox.clone()
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
    /// read [`Trace::clock`] themselves).
    pub fn record_span(&self, name: SpanName, batch: u64, start_ns: u64, end_ns: u64) {
        self.record_span_counts(name, batch, start_ns, end_ns, [0; 2]);
    }

    /// [`Trace::record_span`] with the counts `name` documents: the span is
    /// the one record of what its batch covered.
    pub fn record_span_counts(
        &self,
        name: SpanName,
        batch: u64,
        start_ns: u64,
        end_ns: u64,
        counts: [u64; 2],
    ) {
        if let Some(inner) = &self.inner {
            record(inner, |tid| SpanEvent {
                name: name.as_str(),
                kind: EventKind::Span,
                tid,
                batch,
                start_ns,
                end_ns,
                counts,
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
                counts: [0; 2],
            });
        }
    }

    /// The counter named `name` (a detached one, read by nothing, when
    /// disabled, so handles can be acquired unconditionally outside hot
    /// loops).
    pub fn counter(&self, name: CounterName) -> Counter {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Counter::default(),
        }
    }

    /// Freezes everything recorded so far, by every thread.
    ///
    /// Events are sorted by `(start_ns, tid, name)` so identical executions
    /// under a [`crate::VirtualClock`] produce byte-identical exports.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_where(|_| true)
    }

    /// Equal, event for event, to `snapshot().window(start_ns, end_ns)`
    /// (see [`Snapshot::window`]), but filters each log *before* the copy
    /// and sort: the cost follows the events inside the window, not
    /// everything recorded since the handle was built — which is what a
    /// per-epoch report on a long run needs.
    pub fn snapshot_window(&self, start_ns: u64, end_ns: u64) -> Snapshot {
        self.snapshot_where(|e| e.within(start_ns, end_ns))
    }

    fn snapshot_where(&self, keep: impl Fn(&SpanEvent) -> bool) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        // Copy the list and let go of it before reading any log: a thread
        // registering its first event must not wait on a log being read.
        let logs: Vec<Arc<ThreadLog>> = lock_tolerant(&inner.logs).clone();
        let mut events: Vec<SpanEvent> = Vec::new();
        for log in logs.iter() {
            events.extend(lock_tolerant(&log.events).iter().filter(|e| keep(e)));
        }
        events.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        Snapshot {
            events,
            threads: logs.iter().map(|log| log.name.clone()).collect(),
            metrics: inner.metrics.snapshot(),
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
                counts: [0; 2],
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
        t.counter(CounterName::new("c")).add(5);
        t.record_span_counts(SpanName::new("z"), 1, 0, 5, [2, 3]);
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
    fn exited_worker_threads_keep_their_events_and_names() {
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
    fn snapshot_sees_the_events_of_a_thread_that_is_still_running() {
        let t = Trace::new(Clock::virtual_manual());
        // The worker records one span and stays parked on a channel: nothing
        // about its exit can deliver the event to the snapshot below.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn({
            let t = t.clone();
            move || {
                t.record_span(SpanName::new("parked"), 5, 100, 200);
                ready_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
        });
        ready_rx.recv().unwrap();
        let snap = t.snapshot();
        release_tx.send(()).unwrap();
        worker.join().unwrap();
        assert_eq!(snap.events.len(), 1, "the live worker's span is in the snapshot");
        assert_eq!((snap.events[0].batch, snap.events[0].dur_ns()), (5, 100));
        assert_eq!(snap.threads.len(), 1);
    }

    #[test]
    fn a_thread_registers_while_a_snapshot_waits_on_a_log() {
        use std::time::Duration;
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(SpanName::new("held"), 0, 0, 1);
        let log = Arc::clone(&t.inner.as_ref().unwrap().logs.lock().unwrap()[0]);
        let held = log.events.lock().unwrap();
        let reader = std::thread::spawn({
            let t = t.clone();
            move || t.snapshot()
        });
        // By now the reader is blocked on this thread's log. A reader that
        // is late can only hide a regression, never fail this test.
        std::thread::sleep(Duration::from_millis(50));
        let (registered_tx, registered_rx) = std::sync::mpsc::channel();
        let late = std::thread::spawn({
            let t = t.clone();
            move || {
                t.record_span(SpanName::new("late"), 1, 2, 3);
                let _ = registered_tx.send(());
            }
        });
        let registered = registered_rx.recv_timeout(Duration::from_secs(10));
        let reader_was_blocked = !reader.is_finished();
        drop(held);
        let snap = reader.join().unwrap();
        late.join().unwrap();
        assert!(registered.is_ok(), "a first event waited for a snapshot to finish reading another log");
        assert!(reader_was_blocked, "the snapshot did not wait on the held log");
        assert!(snap.events.iter().any(|e| e.name == "held"));
    }

    #[test]
    fn a_dropped_registrys_log_leaves_the_thread() {
        let held = std::thread::spawn(|| {
            for _ in 0..3 {
                let t = Trace::new(Clock::virtual_manual());
                t.record_span(SpanName::new("x"), 0, 0, 1);
            }
            LOGS.with(|cell| cell.borrow().len())
        });
        // The third registration pruned the first two registries' logs.
        assert_eq!(held.join().unwrap(), 1);
    }

    #[test]
    fn record_span_uses_caller_timestamps() {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(SpanName::new("x"), 1, 100, 250);
        t.record_span_counts(SpanName::new("y"), 2, 300, 310, [7, 9]);
        let snap = t.snapshot();
        assert_eq!(snap.events[0].dur_ns(), 150);
        assert_eq!(snap.events[0].counts, [0, 0]);
        assert_eq!((snap.events[1].batch, snap.events[1].counts), (2, [7, 9]));
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
