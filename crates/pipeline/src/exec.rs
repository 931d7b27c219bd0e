//! The stage-graph executor: one description, two schedules, one per-item
//! step.
//!
//! A [`StageGraph`] is a source plus an ordered list of stages. Items are
//! pulled from the source and pushed through every stage in order; each
//! stage's work is wrapped in a span recorded through the graph's
//! [`Trace`] clock, so the same description is measurable on the real
//! monotonic clock and deterministic on a
//! [`VirtualClock`](salient_trace::VirtualClock).
//!
//! Two schedules share the description:
//!
//! * **Inline** ([`StageGraph::run_inline`]): every stage runs on the
//!   calling thread, in submission order. This is the bitwise-reproducible
//!   reference schedule — the clock-read sequence and floating-point
//!   operation order of a hand-written serial loop.
//! * **Threaded** (what [`StageGraph::run`] picks when the thread budget
//!   allows): one dedicated thread per stage, adjacent stages connected by
//!   bounded queues ([`salient_tensor::sync::channel`]). Batch `k+1` flows
//!   through stage `i` while batch `k` occupies stage `i+1` — the SALIENT
//!   overlap. Backpressure is the queue bound: a fast producer parks in
//!   `send` when the queue is full; nothing is dropped, nothing busy-waits.
//!
//! A schedule decides only *where* and *when* a stage meets an item. What
//! happens when it does — the guarded step, the work span and histogram,
//! the skip and panic accounting, the poison — is `Run::step`, and how an
//! input wait is filed is `Run::record_wait`; both schedules call those
//! two, so they execute the same per-item operations by construction.
//!
//! The engine is for stages that can overlap. A loop whose steps must run
//! in lockstep (a DDP rank between ring collectives) or that handles one
//! item per call (a serving micro-batch) is sequential code and is written
//! as such; see DESIGN.md §12.
//!
//! Stage loops run on dedicated `std::thread`s, *not* on
//! [`salient_tensor::pool`] workers: a pool job holds the pool's submit
//! lock until it finishes, so a long-lived stage loop submitted as a pool
//! job would deadlock the nested `parallel_for` calls issued by kernels
//! inside stage work (and starve batch-prep workers sharing the pool). The
//! pool remains the *data-parallel* axis inside a stage; its configured
//! thread budget (`SALIENT_NUM_THREADS`) still decides whether stage
//! threading is worth engaging at all — see [`StageGraph::run`].
//!
//! # Failure semantics (PR-2 supervisor rules)
//!
//! A panic inside a stage step is caught at the item boundary: the item is
//! dropped (its resources release via RAII), `pipe.stage_panics` counts
//! it, and the run continues — until the graph's `panic_budget` is
//! exhausted, at which point the run *poisons*: it stops pulling new
//! source items, lets in-flight items drain, and reports the fatal stage
//! in [`PipeStats::fatal_stage`]. Poisoning degrades, never wedges: queue
//! handles drop as stage loops exit, which unblocks any parked peer with
//! an error instead of leaving it waiting forever.

use salient_tensor::sync::channel as queue;
use salient_tensor::sync::lock_unpoisoned;
use salient_trace::names::{self, GaugeName, HistName, SpanName};
use salient_trace::{Clock, Counter, Gauge, Histogram, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// An item flowing through a stage graph. The id tags every span the
/// executor records for the item.
pub trait PipeItem {
    /// Batch id recorded on this item's spans.
    fn batch_id(&self) -> u64;
}

/// What a stage step did with its item.
pub enum StageOutcome<T> {
    /// Pass the (possibly transformed) item to the next stage.
    Emit(T),
    /// Retire the item: it leaves the pipeline without reaching later
    /// stages (e.g. a failed prep batch). Not an error; counted in
    /// [`PipeStats::skipped`].
    Skip,
}

/// Static description of one stage.
#[derive(Clone, Copy, Debug)]
pub struct StageSpec {
    /// Thread-name suffix in threaded mode (`salient-pipe-<label>`).
    pub label: &'static str,
    /// Span recorded around each item's work in this stage
    /// (a [`names::spans`] constant).
    pub work_span: SpanName,
    /// Span recorded around this stage's *input wait*. In threaded mode
    /// every stage waits on its own input (source or queue); in inline
    /// mode only the last stage's wait span is used, for the single
    /// source wait — the consumer-blocked time of SALIENT Table 1.
    pub wait_span: Option<SpanName>,
    /// Bound of the queue *feeding* this stage in threaded mode (ignored
    /// for the first stage, whose input is the source). 2 ≡ double
    /// buffering. Private so that [`StageSpec::queue`] can keep it at
    /// least 1, which the channel requires.
    queue_cap: usize,
    /// Depth gauge for the queue feeding this stage (threaded mode).
    pub queue_gauge: Option<GaugeName>,
    /// Histogram observing this stage's work-span duration (e.g.
    /// `train.batch_ns`) — derived from the span boundaries, no extra
    /// clock reads.
    pub work_hist: Option<HistName>,
}

impl StageSpec {
    /// A stage with no wait span, queue capacity 2 and no gauge.
    pub fn new(label: &'static str, work_span: SpanName) -> StageSpec {
        StageSpec {
            label,
            work_span,
            wait_span: None,
            queue_cap: 2,
            queue_gauge: None,
            work_hist: None,
        }
    }

    /// Sets the input-wait span name.
    pub fn wait(mut self, span: SpanName) -> StageSpec {
        self.wait_span = Some(span);
        self
    }

    /// Sets the input queue bound (threaded mode). A bound of 0 is clamped
    /// to 1: the channel has no rendezvous mode, and a stage must be able to
    /// hand over one item.
    pub fn queue(mut self, cap: usize) -> StageSpec {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the input queue depth gauge (threaded mode).
    pub fn gauge(mut self, name: GaugeName) -> StageSpec {
        self.queue_gauge = Some(name);
        self
    }

    /// Sets the work-span duration histogram.
    pub fn hist(mut self, name: HistName) -> StageSpec {
        self.work_hist = Some(name);
        self
    }
}

/// Graph-wide description.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// Name of the graph (diagnostics only).
    pub name: &'static str,
    /// Item panics tolerated (dropped + counted) before the run poisons.
    pub panic_budget: u64,
    /// Histogram observing the consumer's steady-state source wait
    /// (e.g. `prep.wait_ns`). When set, the *first* wait of the run is
    /// pipeline fill and is recorded as a `warmup` span + `pipe.fill_ns`
    /// observation instead, so it cannot distort the steady-state
    /// percentiles (the p99-outlier fix).
    pub wait_hist: Option<HistName>,
}

impl GraphSpec {
    /// A graph with no wait histogram and a zero panic budget.
    pub fn new(name: &'static str) -> GraphSpec {
        GraphSpec {
            name,
            panic_budget: 0,
            wait_hist: None,
        }
    }

    /// Sets the tolerated item-panic budget.
    pub fn panic_budget(mut self, n: u64) -> GraphSpec {
        self.panic_budget = n;
        self
    }

    /// Sets the steady-state wait histogram (enables fill separation).
    pub fn wait_hist(mut self, name: HistName) -> GraphSpec {
        self.wait_hist = Some(name);
        self
    }
}

/// One stage: spec + step, and once a run has started (`bind`) the handle
/// of the spec's work histogram.
struct Stage<'a, T> {
    spec: StageSpec,
    step: Box<dyn FnMut(T) -> StageOutcome<T> + Send + 'a>,
    work_hist: Option<Histogram>,
}

impl<T> Stage<'_, T> {
    fn bind(&mut self, trace: &Trace) {
        self.work_hist = self.spec.work_hist.map(|n| trace.histogram(n));
    }
}

/// Outcome of a completed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Items that exited the last stage.
    pub emitted: u64,
    /// Items retired early by a `Skip` outcome.
    pub skipped: u64,
    /// Items dropped by a caught stage panic.
    pub panics: u64,
    /// `Some(work_span)` of the stage that poisoned the run (panic budget
    /// exhausted); `None` for a clean run.
    pub fatal_stage: Option<SpanName>,
}

impl PipeStats {
    /// Whether the run stopped early.
    pub fn poisoned(&self) -> bool {
        self.fatal_stage.is_some()
    }
}

/// Where an item is after one stage's step.
enum Stepped<T> {
    /// Through the stage. The timestamp closed its work span; the inline
    /// schedule opens the next stage's span on it.
    Through(T, u64),
    /// Out of the pipeline (a `Skip`, or a panic within budget).
    Retired,
    /// Out of the pipeline, and this step's panic poisoned the run.
    Poisoned,
}

/// One run of a graph under either schedule: the handles every stage needs
/// besides its own step, resolved once; the counters and flags the stages
/// (threads, in the threaded schedule) share; and the two operations a
/// schedule performs on an item — [`Run::record_wait`] and [`Run::step`].
struct Run<'t> {
    trace: &'t Trace,
    clock: Clock,
    panic_budget: u64,
    wait_hist: Option<Histogram>,
    fill_hist: Histogram,
    panic_ctr: Counter,
    /// Set until the consumer's first input wait has been filed as fill.
    fill_pending: AtomicBool,
    emitted: AtomicU64,
    skipped: AtomicU64,
    panics: AtomicU64,
    poisoned: AtomicBool,
    fatal: Mutex<Option<SpanName>>,
}

impl<'t> Run<'t> {
    fn new(spec: GraphSpec, trace: &'t Trace) -> Run<'t> {
        let wait_hist = spec.wait_hist.map(|n| trace.histogram(n));
        Run {
            trace,
            clock: trace.clock(),
            panic_budget: spec.panic_budget,
            fill_pending: AtomicBool::new(wait_hist.is_some()),
            wait_hist,
            fill_hist: trace.histogram(names::hists::PIPE_FILL_NS),
            panic_ctr: trace.counter(names::counters::PIPE_STAGE_PANICS),
            emitted: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            fatal: Mutex::new(None),
        }
    }

    /// Files the input wait `[t0, t1]` that ended with item `bid` arriving.
    /// `consumer` marks the last stage's wait — the consumer-blocked time
    /// the graph's wait histogram observes, and whose first instance is
    /// pipeline fill (a `warmup` span) when the graph has that histogram.
    fn record_wait(&self, wait_span: Option<SpanName>, consumer: bool, bid: u64, t0: u64, t1: u64) {
        if consumer && self.fill_pending.swap(false, Ordering::AcqRel) {
            self.trace.record_span(names::spans::WARMUP, bid, t0, t1);
            self.fill_hist.observe(t1.saturating_sub(t0));
            return;
        }
        if let Some(ws) = wait_span {
            self.trace.record_span(ws, bid, t0, t1);
        }
        if let (true, Some(h)) = (consumer, &self.wait_hist) {
            h.observe(t1.saturating_sub(t0));
        }
    }

    /// Runs `item` through `stage`: the step under a panic guard, the clock
    /// read that ends the work, the work span `[start_ns, end]` and its
    /// histogram, then the accounting of whatever did not come through.
    fn step<T: PipeItem>(&self, stage: &mut Stage<'_, T>, item: T, start_ns: u64) -> Stepped<T> {
        let bid = item.batch_id();
        let step = &mut stage.step;
        let out = catch_unwind(AssertUnwindSafe(move || step(item)));
        let end_ns = self.clock.now_ns();
        self.trace.record_span(stage.spec.work_span, bid, start_ns, end_ns);
        if let Some(h) = &stage.work_hist {
            h.observe(end_ns.saturating_sub(start_ns));
        }
        match out {
            Ok(StageOutcome::Emit(next)) => Stepped::Through(next, end_ns),
            Ok(StageOutcome::Skip) => {
                self.skipped.fetch_add(1, Ordering::AcqRel);
                Stepped::Retired
            }
            Err(_) => {
                let total = self.panics.fetch_add(1, Ordering::AcqRel) + 1;
                self.panic_ctr.inc();
                self.trace.instant(names::events::PIPE_STAGE_PANIC, bid);
                if total <= self.panic_budget {
                    return Stepped::Retired;
                }
                self.poison(stage.spec.work_span);
                self.trace.instant(names::events::PIPE_POISONED, bid);
                dump_on_poison(self.trace, bid);
                Stepped::Poisoned
            }
        }
    }

    fn poison(&self, span: SpanName) {
        self.poisoned.store(true, Ordering::Release);
        let mut fatal = lock_unpoisoned(&self.fatal);
        if fatal.is_none() {
            *fatal = Some(span);
        }
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn finish(self) -> PipeStats {
        PipeStats {
            emitted: self.emitted.load(Ordering::Acquire),
            skipped: self.skipped.load(Ordering::Acquire),
            panics: self.panics.load(Ordering::Acquire),
            fatal_stage: *lock_unpoisoned(&self.fatal),
        }
    }
}

/// On poison, hand the flight recorder the failing batch id so the dump
/// carries that batch's causal chain. No-op when no blackbox is attached.
fn dump_on_poison(trace: &Trace, bid: u64) {
    if let Some(bb) = trace.blackbox() {
        let _ = bb.dump(trace, names::events::PIPE_POISONED.as_str(), bid);
    }
}

/// A source plus ordered stages; see the module docs.
pub struct StageGraph<'a, T> {
    spec: GraphSpec,
    source: Box<dyn FnMut() -> Option<T> + Send + 'a>,
    stages: Vec<Stage<'a, T>>,
}

impl<'a, T: PipeItem + Send + 'a> StageGraph<'a, T> {
    /// A graph fed by `source` (`None` ends the run).
    pub fn new(
        spec: GraphSpec,
        source: impl FnMut() -> Option<T> + Send + 'a,
    ) -> StageGraph<'a, T> {
        StageGraph {
            spec,
            source: Box::new(source),
            stages: Vec::new(),
        }
    }

    /// Appends a stage.
    pub fn stage(
        mut self,
        spec: StageSpec,
        step: impl FnMut(T) -> StageOutcome<T> + Send + 'a,
    ) -> StageGraph<'a, T> {
        self.stages.push(Stage {
            spec,
            step: Box::new(step),
            work_hist: None,
        });
        self
    }

    /// Whether [`StageGraph::run`] would pick the threaded schedule for a
    /// graph of `n_stages` stages: one thread per stage plus the consumer
    /// must fit the configured budget, i.e.
    /// `SALIENT_NUM_THREADS >= n_stages + 1`.
    fn threaded_available(n_stages: usize) -> bool {
        n_stages >= 2 && salient_tensor::pool::num_threads() > n_stages
    }

    /// Runs with the schedule the machine supports: threaded when the
    /// configured thread budget (`SALIENT_NUM_THREADS`, defaulting to the
    /// core count) covers one thread per stage plus the consumer, inline
    /// otherwise. Both schedules put every item through the same
    /// per-item step (`Run::step`), in the same per-item order.
    pub fn run(self, trace: &Trace) -> PipeStats {
        if Self::threaded_available(self.stages.len()) {
            self.run_threaded(trace)
        } else {
            self.run_inline(trace)
        }
    }

    /// Sequential reference schedule: pull an item, run every stage on the
    /// calling thread, repeat. Span layout per item: one wait span (the
    /// last stage's `wait_span`, i.e. consumer-blocked time), then one
    /// work span per stage sharing boundary timestamps — exactly the
    /// clock-read sequence of a hand-written serial loop.
    pub fn run_inline(mut self, trace: &Trace) -> PipeStats {
        let run = Run::new(self.spec, trace);
        let wait_span = self.stages.last().and_then(|s| s.spec.wait_span);
        let files_wait = wait_span.is_some() || run.wait_hist.is_some();
        self.stages.iter_mut().for_each(|s| s.bind(trace));
        'items: while !run.poisoned() {
            let t0 = run.clock.now_ns();
            let Some(mut item) = (self.source)() else {
                break;
            };
            let mut t_prev = t0;
            if files_wait {
                t_prev = run.clock.now_ns();
                run.record_wait(wait_span, true, item.batch_id(), t0, t_prev);
            }
            for stage in &mut self.stages {
                match run.step(stage, item, t_prev) {
                    Stepped::Through(next, end_ns) => (item, t_prev) = (next, end_ns),
                    Stepped::Retired | Stepped::Poisoned => continue 'items,
                }
            }
            run.emitted.fetch_add(1, Ordering::AcqRel);
        }
        run.finish()
    }

    /// Pipelined schedule: one dedicated thread per stage, bounded queues
    /// between adjacent stages. Falls back to [`StageGraph::run_inline`]
    /// for graphs of fewer than two stages.
    fn run_threaded(self, trace: &Trace) -> PipeStats {
        if self.stages.len() < 2 {
            return self.run_inline(trace);
        }
        let run = Run::new(self.spec, trace);
        let mut source = Some(self.source);
        let mut stages = self.stages.into_iter().peekable();
        std::thread::scope(|scope| {
            let run = &run;
            let mut input: Option<queue::Receiver<T>> = None;
            while let Some(stage) = stages.next() {
                // The queue to the next stage takes its bound and its depth
                // gauge from that stage's spec; the last stage has none.
                let (output, next_input) = match stages.peek().map(|next| next.spec) {
                    None => (None, None),
                    Some(fed) => {
                        let (tx, rx) = queue::bounded::<T>(fed.queue_cap);
                        let gauge = fed.queue_gauge.map(|g| (g, trace.gauge(g)));
                        (Some((tx, gauge)), Some(rx))
                    }
                };
                let (source, input) = (source.take(), std::mem::replace(&mut input, next_input));
                let work_span = stage.spec.work_span;
                let spawned = std::thread::Builder::new()
                    .name(format!("salient-pipe-{}", stage.spec.label))
                    .spawn_scoped(scope, move || stage_loop(run, stage, source, input, output));
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): poison so
                    // already-running stages wind down via queue drops.
                    run.poison(work_span);
                    break;
                }
            }
        });
        run.finish()
    }
}

/// A stage thread's link to the next stage: the queue and, when the fed
/// stage names one, its depth gauge — keyed by the registered gauge name so
/// depth samples also land on a Chrome-trace counter track.
type Output<T> = (queue::Sender<T>, Option<(GaugeName, Gauge)>);

/// One stage thread: pull → wait span → [`Run::step`] → push. The first
/// stage pulls from `source`, later ones from `input`; the last stage has no
/// `output`. Exits when the input ends, the downstream hangs up, or the run
/// poisons. Later stages keep draining their queue after a poison so no
/// in-flight batch is lost.
fn stage_loop<'a, T: PipeItem + Send>(
    run: &Run<'_>,
    mut stage: Stage<'a, T>,
    mut source: Option<Box<dyn FnMut() -> Option<T> + Send + 'a>>,
    input: Option<queue::Receiver<T>>,
    output: Option<Output<T>>,
) {
    let (trace, clock) = (run.trace, &run.clock);
    stage.bind(trace);
    let in_gauge: Option<(GaugeName, Gauge)> = match (&input, stage.spec.queue_gauge) {
        (Some(_), Some(g)) => Some((g, trace.gauge(g))),
        _ => None,
    };
    loop {
        let t0 = clock.now_ns();
        let pulled = match (&mut source, &input) {
            (Some(src), _) => {
                if run.poisoned() {
                    None
                } else {
                    src()
                }
            }
            (None, Some(rx)) => {
                let it = rx.recv().ok();
                if let Some((name, g)) = &in_gauge {
                    let depth = rx.len() as u64;
                    g.set(depth);
                    trace.counter_track(*name, depth);
                }
                it
            }
            (None, None) => None,
        };
        let t1 = clock.now_ns();
        let Some(item) = pulled else {
            break;
        };
        let bid = item.batch_id();
        run.record_wait(stage.spec.wait_span, output.is_none(), bid, t0, t1);
        match run.step(&mut stage, item, t1) {
            Stepped::Retired => {}
            Stepped::Poisoned => {
                if output.is_none() {
                    // The sink exits now; dropping its receiver unblocks
                    // parked upstream senders with an error.
                    break;
                }
            }
            Stepped::Through(next, _) => {
                let Some((tx, gauge)) = &output else {
                    run.emitted.fetch_add(1, Ordering::AcqRel);
                    continue;
                };
                // The send span makes backpressure visible on the causal
                // chain: a full downstream queue parks us here.
                let ts0 = clock.now_ns();
                if tx.send(next).is_err() {
                    // Downstream hung up (poisoned): stop producing.
                    break;
                }
                let ts1 = clock.now_ns();
                trace.record_span(names::spans::PIPE_SEND, bid, ts0, ts1);
                if let Some((name, g)) = gauge {
                    let depth = tx.len() as u64;
                    g.set(depth);
                    trace.counter_track(*name, depth);
                }
            }
        }
    }
    trace.flush_current_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_trace::analysis;
    use std::sync::{Arc, Condvar};

    struct Item(u64);
    impl PipeItem for Item {
        fn batch_id(&self) -> u64 {
            self.0
        }
    }

    fn counting_source(n: u64) -> impl FnMut() -> Option<Item> + Send {
        let mut next = 0;
        move || {
            if next < n {
                next += 1;
                Some(Item(next - 1))
            } else {
                None
            }
        }
    }

    #[test]
    fn inline_runs_every_stage_in_order() {
        let trace = Trace::new(Clock::virtual_with_tick(10));
        let log = Mutex::new(Vec::new());
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(3))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                |it: Item| {
                    log.lock().unwrap().push(("a", it.0));
                    StageOutcome::Emit(it)
                },
            )
            .stage(StageSpec::new("b", names::spans::STAGE_TRAIN), |it: Item| {
                log.lock().unwrap().push(("b", it.0));
                StageOutcome::Emit(it)
            })
            .run_inline(&trace);
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.skipped, 0);
        assert!(!stats.poisoned());
        assert_eq!(
            log.into_inner().unwrap(),
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        );
        let snap = trace.snapshot();
        assert_eq!(snap.count(names::spans::STAGE_TRANSFER), 3);
        assert_eq!(snap.count(names::spans::STAGE_TRAIN), 3);
    }

    #[test]
    fn skip_retires_without_reaching_later_stages() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let reached = AtomicU64::new(0);
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(4))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                |it: Item| {
                    if it.0 % 2 == 0 {
                        StageOutcome::Skip
                    } else {
                        StageOutcome::Emit(it)
                    }
                },
            )
            .stage(StageSpec::new("b", names::spans::STAGE_TRAIN), |it: Item| {
                reached.fetch_add(1, Ordering::Relaxed);
                StageOutcome::Emit(it)
            })
            .run_inline(&trace);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.skipped, 2);
        assert_eq!(reached.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panic_budget_drops_then_poisons() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let stats = StageGraph::new(GraphSpec::new("t").panic_budget(1), counting_source(10))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                |it: Item| {
                    if it.0 >= 2 {
                        panic!("boom {}", it.0);
                    }
                    StageOutcome::Emit(it)
                },
            )
            .run_inline(&trace);
        // Items 0,1 emit; item 2 panics (within budget, dropped); item 3
        // panics again and poisons the run, so items 4..10 never run.
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.panics, 2);
        assert_eq!(stats.fatal_stage, Some(names::spans::STAGE_TRANSFER));
        let snap = trace.snapshot();
        assert_eq!(snap.metrics.counter(names::counters::PIPE_STAGE_PANICS), 2);
        assert_eq!(snap.count(names::events::PIPE_STAGE_PANIC), 2);
        assert_eq!(snap.count(names::events::PIPE_POISONED), 1);
    }

    #[test]
    fn threaded_drain_loses_no_item() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let n = 64;
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(n))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                StageOutcome::Emit,
            )
            .stage(
                StageSpec::new("b", names::spans::STAGE_TRAIN).queue(1),
                StageOutcome::Emit,
            )
            .run_threaded(&trace);
        assert_eq!(stats.emitted, n);
        assert_eq!(stats.skipped, 0);
        assert!(!stats.poisoned());
        let snap = trace.snapshot();
        assert_eq!(snap.count(names::spans::STAGE_TRAIN), n as usize);
    }

    #[test]
    fn zero_queue_bound_is_clamped_to_one() {
        let spec = StageSpec::new("b", names::spans::STAGE_TRAIN).queue(0);
        assert_eq!(spec.queue_cap, 1);
        // And the threaded schedule runs on the clamped bound instead of
        // tripping the channel's positive-capacity assertion.
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(8))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                StageOutcome::Emit,
            )
            .stage(spec, StageOutcome::Emit)
            .run_threaded(&trace);
        assert_eq!(stats.emitted, 8);
    }

    /// The satellite-3 schedule-shape test: with a rendezvous forced
    /// between the two stage threads, batch k's compute span and batch
    /// k+1's prep span must overlap in (tick-ordered, deterministic)
    /// virtual time — the pipelining the inline schedule cannot produce.
    #[test]
    fn threaded_compute_overlaps_next_prep() {
        let trace = Trace::new(Clock::virtual_with_tick(100));
        let n = 4u64;
        // Handshake: (highest prep started, highest compute started), both
        // 1-based so 0 means "none yet".
        let state = Arc::new((Mutex::new((0u64, 0u64)), Condvar::new()));
        let (sp, sc) = (state.clone(), state.clone());
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(n))
            .stage(
                StageSpec::new("prep", names::spans::STAGE_TRANSFER).queue(2),
                move |it: Item| {
                    let (m, cv) = &*sp;
                    let mut st = m.lock().unwrap();
                    st.0 = it.0 + 1;
                    cv.notify_all();
                    // Hold prep k open until compute k-1 has started, so
                    // this span provably straddles it.
                    while it.0 > 0 && st.1 < it.0 {
                        st = cv.wait(st).unwrap();
                    }
                    StageOutcome::Emit(it)
                },
            )
            .stage(
                StageSpec::new("train", names::spans::STAGE_TRAIN).queue(2),
                move |it: Item| {
                    let (m, cv) = &*sc;
                    let mut st = m.lock().unwrap();
                    st.1 = it.0 + 1;
                    cv.notify_all();
                    // Hold compute k open until prep k+1 has started.
                    while it.0 + 1 < n && st.0 < it.0 + 2 {
                        st = cv.wait(st).unwrap();
                    }
                    StageOutcome::Emit(it)
                },
            )
            .run_threaded(&trace);
        assert_eq!(stats.emitted, n);
        let snap = trace.snapshot();
        let prep: Vec<_> = snap.spans(names::spans::STAGE_TRANSFER).collect();
        let train: Vec<_> = snap.spans(names::spans::STAGE_TRAIN).collect();
        assert_eq!(prep.len(), n as usize);
        assert_eq!(train.len(), n as usize);
        // The two stages record from distinct threads.
        assert_ne!(prep[0].tid, train[0].tid);
        for k in 0..(n - 1) {
            let c = train.iter().find(|e| e.batch == k).expect("compute k");
            let p = prep.iter().find(|e| e.batch == k + 1).expect("prep k+1");
            assert!(
                p.start_ns < c.end_ns && c.start_ns < p.end_ns,
                "compute {k} [{}..{}] must overlap prep {} [{}..{}]",
                c.start_ns,
                c.end_ns,
                k + 1,
                p.start_ns,
                p.end_ns
            );
        }
        // And the analysis plane credits the cross-thread overlap.
        let report = analysis::analyze(&snap);
        assert!(report.overlap_ns > 0, "analyzer must credit the overlap");
    }

    /// Backpressure: with the compute-input queue bounded at `cap`, the
    /// producer can never run more than `cap + 2` items ahead of the
    /// consumer (cap queued + one parked in `send` + one recv'd by the
    /// consumer but not yet counted), and it provably *reaches* at least
    /// `cap + 1` (the consumer refuses to proceed until it does) — i.e.
    /// the bounded queue stalls the producer at capacity instead of
    /// letting it run away (n is far larger than the bound).
    #[test]
    fn bounded_queue_stalls_the_producer_at_capacity() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let cap = 2u64;
        let n = 8u64;
        struct Gate {
            produced: u64,
            consumed: u64,
            max_ahead: u64,
        }
        let gate = Arc::new((
            Mutex::new(Gate {
                produced: 0,
                consumed: 0,
                max_ahead: 0,
            }),
            Condvar::new(),
        ));
        let (gp, gc, gr) = (gate.clone(), gate.clone(), gate.clone());
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(n))
            .stage(
                StageSpec::new("fast", names::spans::STAGE_TRANSFER),
                move |it: Item| {
                    let (m, cv) = &*gp;
                    let mut g = m.lock().unwrap();
                    g.produced += 1;
                    g.max_ahead = g.max_ahead.max(g.produced - g.consumed);
                    cv.notify_all();
                    StageOutcome::Emit(it)
                },
            )
            .stage(
                StageSpec::new("slow", names::spans::STAGE_TRAIN)
                    .queue(cap as usize)
                    .gauge(names::gauges::PIPE_QUEUE_COMPUTE),
                move |it: Item| {
                    let (m, cv) = &*gc;
                    let mut g = m.lock().unwrap();
                    g.consumed += 1;
                    // Refuse to consume until the producer is as far ahead
                    // as the queue bound permits (or out of items).
                    let target = n.min(it.0 + cap + 2);
                    while g.produced < target {
                        g = cv.wait(g).unwrap();
                    }
                    StageOutcome::Emit(it)
                },
            )
            .run_threaded(&trace);
        assert_eq!(stats.emitted, n);
        let g = gr.0.lock().unwrap();
        assert!(
            g.max_ahead >= cap + 1 && g.max_ahead <= cap + 2,
            "producer lead {} must sit in [cap+1, cap+2] = [{}, {}]",
            g.max_ahead,
            cap + 1,
            cap + 2
        );
        // The queue-depth gauge was registered for the compute input.
        let snap = trace.snapshot();
        assert!(snap
            .metrics
            .gauges
            .iter()
            .any(|(k, _)| k == names::gauges::PIPE_QUEUE_COMPUTE.as_str()));
    }

    #[test]
    fn threaded_panic_poisons_without_wedging() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let stats = StageGraph::new(GraphSpec::new("t").panic_budget(0), counting_source(1000))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER).queue(1),
                StageOutcome::Emit,
            )
            .stage(
                StageSpec::new("b", names::spans::STAGE_TRAIN).queue(1),
                |it: Item| {
                    if it.0 == 3 {
                        panic!("sink dies");
                    }
                    StageOutcome::Emit(it)
                },
            )
            .run_threaded(&trace);
        // The sink poisons on batch 3; the producer unparks via the queue
        // drop and the run terminates instead of wedging.
        assert!(stats.poisoned());
        assert_eq!(stats.fatal_stage, Some(names::spans::STAGE_TRAIN));
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.panics, 1);
    }

    #[test]
    fn first_wait_is_fill_not_steady_state() {
        let trace = Trace::new(Clock::virtual_with_tick(50));
        let stats = StageGraph::new(
            GraphSpec::new("t").wait_hist(names::hists::PREP_WAIT_NS),
            counting_source(3),
        )
        .stage(
            StageSpec::new("a", names::spans::STAGE_TRAIN).wait(names::spans::STAGE_PREP),
            StageOutcome::Emit,
        )
        .run_inline(&trace);
        assert_eq!(stats.emitted, 3);
        let snap = trace.snapshot();
        // First wait → warmup span + fill hist; remaining 2 → steady state.
        assert_eq!(snap.count(names::spans::WARMUP), 1);
        assert_eq!(snap.count(names::spans::STAGE_PREP), 2);
        let steady = snap.metrics.histogram(names::hists::PREP_WAIT_NS).unwrap();
        assert_eq!(steady.count, 2);
        let fill = snap.metrics.histogram(names::hists::PIPE_FILL_NS).unwrap();
        assert_eq!(fill.count, 1);
    }

    /// Both schedules put an item through `Run::step`; this holds them to
    /// the same result on it: equal `PipeStats`, equal downstream effect,
    /// the same multiset of work spans, the same panic accounting.
    #[test]
    fn inline_and_threaded_emit_identically() {
        enum Do {
            Emit,
            Skip,
            Panic,
        }
        // (panic budget, panics expected, what the first stage does with an id)
        let inputs: [(u64, u64, fn(u64) -> Do); 2] = [
            (0, 0, |id| if id % 3 == 0 { Do::Skip } else { Do::Emit }),
            (1, 1, |id| match id {
                5 => Do::Panic,
                11 => Do::Skip,
                _ => Do::Emit,
            }),
        ];
        for (budget, panics, first_stage) in inputs {
            let run = |threaded: bool| {
                let trace = Trace::new(Clock::virtual_with_tick(1));
                let sum = Arc::new(AtomicU64::new(0));
                let s = sum.clone();
                let g = StageGraph::new(GraphSpec::new("t").panic_budget(budget), counting_source(20))
                    .stage(
                        StageSpec::new("a", names::spans::STAGE_TRANSFER),
                        move |it: Item| match first_stage(it.0) {
                            Do::Emit => StageOutcome::Emit(it),
                            Do::Skip => StageOutcome::Skip,
                            Do::Panic => panic!("boom {}", it.0),
                        },
                    )
                    .stage(StageSpec::new("b", names::spans::STAGE_TRAIN), move |it| {
                        s.fetch_add(it.0, Ordering::Relaxed);
                        StageOutcome::Emit(it)
                    });
                let stats = if threaded {
                    g.run_threaded(&trace)
                } else {
                    g.run_inline(&trace)
                };
                let snap = trace.snapshot();
                let mut work: Vec<(&str, u64)> = [names::spans::STAGE_TRANSFER, names::spans::STAGE_TRAIN]
                    .iter()
                    .flat_map(|&n| snap.spans(n))
                    .map(|e| (e.name, e.batch))
                    .collect();
                work.sort_unstable();
                assert_eq!(snap.metrics.counter(names::counters::PIPE_STAGE_PANICS), panics);
                assert_eq!(snap.count(names::events::PIPE_STAGE_PANIC) as u64, panics);
                assert_eq!(snap.count(names::events::PIPE_POISONED), 0);
                (stats, sum.load(Ordering::Relaxed), work)
            };
            let (inline, threaded) = (run(false), run(true));
            assert_eq!(inline, threaded, "budget {budget}");
            assert_eq!(inline.0.panics, panics);
        }
    }
}
