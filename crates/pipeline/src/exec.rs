//! The stage-graph executor: one description, two schedules.
//!
//! A [`StageGraph`] is a source plus an ordered list of stages. Items are
//! pulled from the source and pushed through every stage in order; each
//! stage's work is wrapped in a span recorded through the graph's
//! [`Trace`] clock, so the same description is measurable on the real
//! monotonic clock and deterministic on a
//! [`VirtualClock`](salient_trace::VirtualClock).
//!
//! Two execution modes share the description:
//!
//! * **Inline** ([`StageGraph::run_inline`]): every stage runs on the
//!   calling thread, in submission order. This is the bitwise-reproducible
//!   reference schedule — identical clock-read sequence and identical
//!   floating-point operation order to the hand-written loops it replaced.
//! * **Threaded** ([`StageGraph::run_threaded`]): one dedicated thread per
//!   stage, adjacent stages connected by bounded queues
//!   ([`salient_tensor::sync::channel`]). Batch `k+1` flows through stage
//!   `i` while batch `k` occupies stage `i+1` — the SALIENT overlap.
//!   Backpressure is the queue bound: a fast producer parks in `send` when
//!   the queue is full; nothing is dropped, nothing busy-waits.
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
use salient_trace::{Clock, Gauge, Histogram, Trace};
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
    /// Stop the whole run after this item (e.g. a communicator error).
    /// Reported via [`PipeStats::fatal_stage`].
    Fatal,
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

/// One stage: spec + step + optional post-work hook.
struct Stage<'a, T> {
    spec: StageSpec,
    step: Box<dyn FnMut(T) -> StageOutcome<T> + Send + 'a>,
    /// Runs after the work span closes, receiving the item and the work-end
    /// timestamp. Returning `false` retires the item (counted as skipped) —
    /// serve uses this for deadline expiry at stage boundaries.
    after: Option<Box<dyn FnMut(&mut T, u64) -> bool + Send + 'a>>,
}

/// Outcome of a completed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Items that exited the last stage.
    pub emitted: u64,
    /// Items retired early (a `Skip` outcome or an after-hook veto).
    pub skipped: u64,
    /// Items dropped by a caught stage panic.
    pub panics: u64,
    /// `Some(work_span)` of the stage that poisoned the run (budget
    /// exhausted or `Fatal`); `None` for a clean run.
    pub fatal_stage: Option<SpanName>,
}

impl PipeStats {
    /// Whether the run stopped early.
    pub fn poisoned(&self) -> bool {
        self.fatal_stage.is_some()
    }
}

/// Counters/flags shared by the stage threads of one run.
struct SharedStats {
    emitted: AtomicU64,
    skipped: AtomicU64,
    panics: AtomicU64,
    poisoned: AtomicBool,
    fatal: Mutex<Option<SpanName>>,
}

impl SharedStats {
    fn new() -> SharedStats {
        SharedStats {
            emitted: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            fatal: Mutex::new(None),
        }
    }

    fn poison(&self, span: SpanName) {
        self.poisoned.store(true, Ordering::Release);
        let mut fatal = lock_unpoisoned(&self.fatal);
        if fatal.is_none() {
            *fatal = Some(span);
        }
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
            after: None,
        });
        self
    }

    /// Appends a stage with a post-work hook (see [`Stage::after`]).
    pub fn stage_with_after(
        mut self,
        spec: StageSpec,
        step: impl FnMut(T) -> StageOutcome<T> + Send + 'a,
        after: impl FnMut(&mut T, u64) -> bool + Send + 'a,
    ) -> StageGraph<'a, T> {
        self.stages.push(Stage {
            spec,
            step: Box::new(step),
            after: Some(Box::new(after)),
        });
        self
    }

    /// Whether [`StageGraph::run`] would pick the threaded schedule for a
    /// graph of `n_stages` stages: one thread per stage plus the consumer
    /// must fit the configured budget, i.e.
    /// `SALIENT_NUM_THREADS >= n_stages + 1`.
    pub fn threaded_available(n_stages: usize) -> bool {
        n_stages >= 2 && salient_tensor::pool::num_threads() > n_stages
    }

    /// Runs with the schedule the machine supports: threaded when the
    /// configured thread budget (`SALIENT_NUM_THREADS`, defaulting to the
    /// core count) covers one thread per stage plus the consumer, inline
    /// otherwise. The two schedules execute the same per-item operations
    /// in the same per-item order.
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
    /// clock-read sequence of the hand-written loops this replaced.
    pub fn run_inline(mut self, trace: &Trace) -> PipeStats {
        let clock = trace.clock();
        let mut stats = PipeStats::default();
        let wait_span = self.stages.last().and_then(|s| s.spec.wait_span);
        let wait_hist = self.spec.wait_hist.map(|n| trace.histogram(n));
        let fill_hist = trace.histogram(names::hists::PIPE_FILL_NS);
        let panic_ctr = trace.counter(names::counters::PIPE_STAGE_PANICS);
        let work_hists: Vec<Option<Histogram>> = self
            .stages
            .iter()
            .map(|s| s.spec.work_hist.map(|n| trace.histogram(n)))
            .collect();
        let mut first_wait = true;
        'items: loop {
            let t0 = clock.now_ns();
            let Some(mut item) = (self.source)() else {
                break;
            };
            let mut t_prev = t0;
            if wait_span.is_some() || wait_hist.is_some() {
                let t1 = clock.now_ns();
                let bid = item.batch_id();
                if first_wait && wait_hist.is_some() {
                    trace.record_span(names::spans::WARMUP, bid, t0, t1);
                    fill_hist.observe(t1.saturating_sub(t0));
                } else {
                    if let Some(ws) = wait_span {
                        trace.record_span(ws, bid, t0, t1);
                    }
                    if let Some(h) = &wait_hist {
                        h.observe(t1.saturating_sub(t0));
                    }
                }
                t_prev = t1;
            }
            first_wait = false;
            for (stage, work_hist) in self.stages.iter_mut().zip(work_hists.iter()) {
                let bid = item.batch_id();
                let step = &mut stage.step;
                let out = catch_unwind(AssertUnwindSafe(move || step(item)));
                let t2 = clock.now_ns();
                trace.record_span(stage.spec.work_span, bid, t_prev, t2);
                if let Some(h) = work_hist {
                    h.observe(t2.saturating_sub(t_prev));
                }
                t_prev = t2;
                match out {
                    Err(_) => {
                        stats.panics += 1;
                        panic_ctr.inc();
                        trace.instant(names::events::PIPE_STAGE_PANIC, bid);
                        if stats.panics > self.spec.panic_budget {
                            stats.fatal_stage = Some(stage.spec.work_span);
                            trace.instant(names::events::PIPE_POISONED, bid);
                            dump_on_poison(trace, bid);
                            break 'items;
                        }
                        continue 'items;
                    }
                    Ok(StageOutcome::Fatal) => {
                        stats.fatal_stage = Some(stage.spec.work_span);
                        trace.instant(names::events::PIPE_POISONED, bid);
                        dump_on_poison(trace, bid);
                        break 'items;
                    }
                    Ok(StageOutcome::Skip) => {
                        stats.skipped += 1;
                        continue 'items;
                    }
                    Ok(StageOutcome::Emit(mut next)) => {
                        let retired = match &mut stage.after {
                            Some(after) => !after(&mut next, t2),
                            None => false,
                        };
                        if retired {
                            stats.skipped += 1;
                            continue 'items;
                        }
                        item = next;
                    }
                }
            }
            stats.emitted += 1;
        }
        stats
    }

    /// Pipelined schedule: one dedicated thread per stage, bounded queues
    /// between adjacent stages. Falls back to [`StageGraph::run_inline`]
    /// for graphs of fewer than two stages.
    pub fn run_threaded(self, trace: &Trace) -> PipeStats {
        let n = self.stages.len();
        if n < 2 {
            return self.run_inline(trace);
        }
        let clock = trace.clock();
        let shared = SharedStats::new();
        let spec = self.spec;
        let mut source_slot = Some(self.source);
        let stages = self.stages;
        // Queue i feeds stage i+1; its bound and gauge come from the fed
        // stage's spec, collected up front because each stage is moved
        // into its thread as it spawns.
        let feed_specs: Vec<(usize, Option<GaugeName>)> = stages
            .iter()
            .skip(1)
            .map(|s| (s.spec.queue_cap, s.spec.queue_gauge))
            .collect();
        std::thread::scope(|scope| {
            let shared = &shared;
            let mut incoming: Option<queue::Receiver<T>> = None;
            let mut feeds = feed_specs.into_iter();
            for (i, stage) in stages.into_iter().enumerate() {
                let is_last = i + 1 == n;
                let (tx, next_rx) = if is_last {
                    (None, None)
                } else {
                    let (cap, gauge) = feeds.next().unwrap_or((1, None));
                    let (tx, rx) = queue::bounded::<T>(cap);
                    (Some((tx, gauge.map(|g| (g, trace.gauge(g))))), Some(rx))
                };
                let input = incoming.take();
                incoming = next_rx;
                let trace_h = trace.clone();
                let clock_h = clock.clone();
                let source = if i == 0 { source_slot.take() } else { None };
                let work_span = stage.spec.work_span;
                let builder =
                    std::thread::Builder::new().name(format!("salient-pipe-{}", stage.spec.label));
                let spawned = builder.spawn_scoped(scope, move || {
                    stage_loop(StageCtx {
                        trace: trace_h,
                        clock: clock_h,
                        shared,
                        spec,
                        is_last,
                        stage,
                        source,
                        input,
                        output: tx,
                    });
                });
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): poison so
                    // already-running stages wind down via queue drops.
                    shared.poison(work_span);
                    break;
                }
            }
        });
        let fatal_stage = *lock_unpoisoned(&shared.fatal);
        PipeStats {
            emitted: shared.emitted.load(Ordering::Acquire),
            skipped: shared.skipped.load(Ordering::Acquire),
            panics: shared.panics.load(Ordering::Acquire),
            fatal_stage,
        }
    }
}

/// Everything one threaded stage loop needs; moved into its thread.
struct StageCtx<'env, 'a, T> {
    trace: Trace,
    clock: Clock,
    shared: &'env SharedStats,
    spec: GraphSpec,
    is_last: bool,
    stage: Stage<'a, T>,
    /// First stage only: the graph source.
    source: Option<Box<dyn FnMut() -> Option<T> + Send + 'a>>,
    /// Later stages: the queue from the previous stage.
    input: Option<queue::Receiver<T>>,
    /// Non-last stages: the queue to the next stage (+ its depth gauge,
    /// keyed by the registered gauge name so depth samples also land on a
    /// Chrome-trace counter track).
    output: Option<(queue::Sender<T>, Option<(GaugeName, Gauge)>)>,
}

/// On poison, hand the flight recorder the failing batch id so the dump
/// carries that batch's causal chain. No-op when no blackbox is attached.
fn dump_on_poison(trace: &Trace, bid: u64) {
    if let Some(bb) = trace.blackbox() {
        let _ = bb.dump(trace, names::events::PIPE_POISONED.as_str(), bid);
    }
}

/// One stage thread: pull → wait span → step (panic-caught) → work span →
/// after hook → push. Exits when the input ends, the downstream hangs up,
/// or the run poisons. Later stages keep draining their queue after a
/// poison so no in-flight batch is lost.
fn stage_loop<T: PipeItem + Send>(ctx: StageCtx<'_, '_, T>) {
    let StageCtx {
        trace,
        clock,
        shared,
        spec,
        is_last,
        mut stage,
        mut source,
        input,
        output,
    } = ctx;
    let wait_hist: Option<Histogram> = if is_last {
        spec.wait_hist.map(|n| trace.histogram(n))
    } else {
        None
    };
    let fill_hist = trace.histogram(names::hists::PIPE_FILL_NS);
    let panic_ctr = trace.counter(names::counters::PIPE_STAGE_PANICS);
    let work_hist: Option<Histogram> = stage.spec.work_hist.map(|n| trace.histogram(n));
    let in_gauge: Option<(GaugeName, Gauge)> = match (&input, stage.spec.queue_gauge) {
        (Some(_), Some(g)) => Some((g, trace.gauge(g))),
        _ => None,
    };
    let mut first_wait = true;
    loop {
        let t0 = clock.now_ns();
        let pulled = match (&mut source, &input) {
            (Some(src), _) => {
                if shared.poisoned.load(Ordering::Acquire) {
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
        if is_last && first_wait && spec.wait_hist.is_some() {
            trace.record_span(names::spans::WARMUP, bid, t0, t1);
            fill_hist.observe(t1.saturating_sub(t0));
        } else if let Some(ws) = stage.spec.wait_span {
            trace.record_span(ws, bid, t0, t1);
            if let Some(h) = &wait_hist {
                h.observe(t1.saturating_sub(t0));
            }
        }
        first_wait = false;
        let step = &mut stage.step;
        let out = catch_unwind(AssertUnwindSafe(move || step(item)));
        let t2 = clock.now_ns();
        trace.record_span(stage.spec.work_span, bid, t1, t2);
        if let Some(h) = &work_hist {
            h.observe(t2.saturating_sub(t1));
        }
        match out {
            Err(_) => {
                let total = shared.panics.fetch_add(1, Ordering::AcqRel) + 1;
                panic_ctr.inc();
                trace.instant(names::events::PIPE_STAGE_PANIC, bid);
                if total > spec.panic_budget {
                    shared.poison(stage.spec.work_span);
                    trace.instant(names::events::PIPE_POISONED, bid);
                    dump_on_poison(&trace, bid);
                    if is_last {
                        // The sink exits now; dropping its receiver
                        // unblocks parked upstream senders with an error.
                        break;
                    }
                }
            }
            Ok(StageOutcome::Fatal) => {
                shared.poison(stage.spec.work_span);
                trace.instant(names::events::PIPE_POISONED, bid);
                dump_on_poison(&trace, bid);
                if is_last {
                    break;
                }
            }
            Ok(StageOutcome::Skip) => {
                shared.skipped.fetch_add(1, Ordering::AcqRel);
            }
            Ok(StageOutcome::Emit(mut next)) => {
                let retired = match &mut stage.after {
                    Some(after) => !after(&mut next, t2),
                    None => false,
                };
                if retired {
                    shared.skipped.fetch_add(1, Ordering::AcqRel);
                } else if is_last {
                    shared.emitted.fetch_add(1, Ordering::AcqRel);
                } else if let Some((tx, gauge)) = &output {
                    // The send span makes backpressure visible on the
                    // causal chain: a full downstream queue parks us here.
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
    fn after_hook_can_retire_items() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(4))
            .stage_with_after(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                StageOutcome::Emit,
                |it: &mut Item, _end_ns| it.0 != 2,
            )
            .stage(
                StageSpec::new("b", names::spans::STAGE_TRAIN),
                StageOutcome::Emit,
            )
            .run_inline(&trace);
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.skipped, 1);
        let snap = trace.snapshot();
        // The retired item never reached the second stage.
        assert_eq!(snap.count(names::spans::STAGE_TRAIN), 3);
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

    #[test]
    fn inline_and_threaded_emit_identically() {
        let run = |threaded: bool| {
            let trace = Trace::new(Clock::virtual_with_tick(1));
            let sum = Arc::new(AtomicU64::new(0));
            let s = sum.clone();
            let g = StageGraph::new(GraphSpec::new("t"), counting_source(20))
                .stage(
                    StageSpec::new("a", names::spans::STAGE_TRANSFER),
                    |it: Item| {
                        if it.0 % 3 == 0 {
                            StageOutcome::Skip
                        } else {
                            StageOutcome::Emit(it)
                        }
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
            (stats.emitted, stats.skipped, sum.load(Ordering::Relaxed))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fatal_outcome_stops_the_inline_run() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(10))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                |it: Item| {
                    if it.0 == 2 {
                        StageOutcome::Fatal
                    } else {
                        StageOutcome::Emit(it)
                    }
                },
            )
            .run_inline(&trace);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.fatal_stage, Some(names::spans::STAGE_TRANSFER));
    }
}
