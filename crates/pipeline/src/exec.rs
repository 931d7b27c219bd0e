//! The stage-graph executor: a source, ordered stages, and one guarded,
//! budgeted, traced step per item and stage.
//!
//! A [`StageGraph`] is a source plus an ordered list of stages. Items are
//! pulled from the source and pushed through every stage in order, on the
//! calling thread ([`StageGraph::run_inline`], the one schedule); each
//! stage's work is wrapped in a span recorded through the graph's
//! [`Trace`] clock, so the same description is measurable on the real
//! monotonic clock and deterministic on a
//! [`VirtualClock`](salient_trace::VirtualClock). Adjacent work spans share
//! their boundary timestamp: the clock-read sequence and floating-point
//! operation order are those of a hand-written serial loop.
//!
//! What the engine adds to that loop is what happens when a stage meets an
//! item — the panic guard, the work span, the skip and panic
//! accounting, the poison and its flight-recorder dump (`Run::step`) — and
//! how the wait for the source is filed, pipeline fill apart from steady
//! state (`Run::record_wait`).
//!
//! The stages of one graph do not overlap each other. What overlaps the
//! training consumer is whatever feeds its source from other threads (the
//! batch-preparation workers); see DESIGN.md §12.
//!
//! # Failure semantics (PR-2 supervisor rules)
//!
//! A panic inside a stage step is caught at the item boundary: the item is
//! dropped (its resources release via RAII), a `pipe.stage_panic` event
//! records it, and the run continues — until the graph's `panic_budget` is
//! exhausted, at which point the run *poisons*: it stops pulling source
//! items and reports the fatal stage in [`PipeStats::fatal_stage`].

use salient_trace::names::{self, SpanName};
use salient_trace::{Clock, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    /// Name of the stage (diagnostics only).
    pub label: &'static str,
    /// Span recorded around each item's work in this stage
    /// (a [`names::spans`] constant).
    pub work_span: SpanName,
    /// Span recorded around the wait for the source. Only the last
    /// stage's is used: the consumer-blocked time of SALIENT Table 1.
    pub wait_span: Option<SpanName>,
}

impl StageSpec {
    /// A stage with no wait span.
    pub fn new(label: &'static str, work_span: SpanName) -> StageSpec {
        StageSpec {
            label,
            work_span,
            wait_span: None,
        }
    }

    /// Sets the source-wait span name.
    pub fn wait(mut self, span: SpanName) -> StageSpec {
        self.wait_span = Some(span);
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
    /// Whether the *first* source wait of a run is pipeline fill: recorded
    /// as a `warmup` span instead of the wait span, so it cannot distort
    /// the steady-state wait percentiles (the p99-outlier fix).
    pub first_wait_is_fill: bool,
}

impl GraphSpec {
    /// A graph that files no wait as fill, with a zero panic budget.
    pub fn new(name: &'static str) -> GraphSpec {
        GraphSpec {
            name,
            panic_budget: 0,
            first_wait_is_fill: false,
        }
    }

    /// Sets the tolerated item-panic budget.
    pub fn panic_budget(mut self, n: u64) -> GraphSpec {
        self.panic_budget = n;
        self
    }

    /// Files the first source wait of each run as pipeline fill.
    pub fn first_wait_is_fill(mut self) -> GraphSpec {
        self.first_wait_is_fill = true;
        self
    }
}

/// One stage: spec + step.
struct Stage<'a, T> {
    spec: StageSpec,
    step: Box<dyn FnMut(T) -> StageOutcome<T> + 'a>,
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
    pub(crate) fn poisoned(&self) -> bool {
        self.fatal_stage.is_some()
    }
}

/// One run of a graph: the handles every stage needs besides its own step,
/// resolved once; the run's tallies; and the two operations the schedule
/// performs on an item — [`Run::record_wait`] and [`Run::step`].
struct Run<'t> {
    trace: &'t Trace,
    clock: Clock,
    panic_budget: u64,
    /// Set until the first source wait has been filed as fill.
    fill_pending: bool,
    stats: PipeStats,
}

impl<'t> Run<'t> {
    fn new(spec: GraphSpec, trace: &'t Trace) -> Run<'t> {
        Run {
            trace,
            clock: trace.clock(),
            panic_budget: spec.panic_budget,
            fill_pending: spec.first_wait_is_fill,
            stats: PipeStats::default(),
        }
    }

    /// Files the source wait `[t0, t1]` that ended with item `bid` arriving:
    /// the consumer-blocked time, whose first instance is pipeline fill (a
    /// `warmup` span) when the graph files it apart.
    fn record_wait(&mut self, wait_span: Option<SpanName>, bid: u64, t0: u64, t1: u64) {
        let span = if std::mem::take(&mut self.fill_pending) {
            Some(names::spans::WARMUP)
        } else {
            wait_span
        };
        if let Some(span) = span {
            self.trace.record_span(span, bid, t0, t1);
        }
    }

    /// Runs `item` through `stage`: the step under a panic guard, the clock
    /// read that ends the work, the work span `[start_ns, end]`, then the
    /// accounting of whatever did not come through.
    /// Returns the item with the timestamp that closed its work span (the
    /// next stage's span opens on it), or `None` for an item that left the
    /// pipeline: a `Skip`, or a panic — which, past the budget, poisons.
    fn step<T: PipeItem>(&mut self, stage: &mut Stage<'_, T>, item: T, start_ns: u64) -> Option<(T, u64)> {
        let bid = item.batch_id();
        let step = &mut stage.step;
        let out = catch_unwind(AssertUnwindSafe(move || step(item)));
        let end_ns = self.clock.now_ns();
        self.trace.record_span(stage.spec.work_span, bid, start_ns, end_ns);
        match out {
            Ok(StageOutcome::Emit(next)) => return Some((next, end_ns)),
            Ok(StageOutcome::Skip) => self.stats.skipped += 1,
            Err(_) => {
                self.stats.panics += 1;
                self.trace.instant(names::events::PIPE_STAGE_PANIC, bid);
                if self.stats.panics > self.panic_budget {
                    self.stats.fatal_stage = Some(stage.spec.work_span);
                    self.trace.instant(names::events::PIPE_POISONED, bid);
                    dump_on_poison(self.trace, bid);
                }
            }
        }
        None
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
    source: Box<dyn FnMut() -> Option<T> + 'a>,
    stages: Vec<Stage<'a, T>>,
}

impl<'a, T: PipeItem + 'a> StageGraph<'a, T> {
    /// A graph fed by `source` (`None` ends the run).
    pub fn new(
        spec: GraphSpec,
        source: impl FnMut() -> Option<T> + 'a,
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
        step: impl FnMut(T) -> StageOutcome<T> + 'a,
    ) -> StageGraph<'a, T> {
        self.stages.push(Stage {
            spec,
            step: Box::new(step),
        });
        self
    }

    /// Runs the graph: pull an item, run every stage on the calling thread,
    /// repeat. Span layout per item: one wait span (the last stage's
    /// `wait_span`, i.e. consumer-blocked time), then one work span per
    /// stage sharing boundary timestamps — exactly the clock-read sequence
    /// of a hand-written serial loop.
    pub fn run_inline(mut self, trace: &Trace) -> PipeStats {
        let mut run = Run::new(self.spec, trace);
        let wait_span = self.stages.last().and_then(|s| s.spec.wait_span);
        let files_wait = wait_span.is_some() || self.spec.first_wait_is_fill;
        'items: while !run.stats.poisoned() {
            let t0 = run.clock.now_ns();
            let Some(mut item) = (self.source)() else {
                break;
            };
            let mut t_prev = t0;
            if files_wait {
                t_prev = run.clock.now_ns();
                run.record_wait(wait_span, item.batch_id(), t0, t_prev);
            }
            for stage in &mut self.stages {
                let Some(through) = run.step(stage, item, t_prev) else {
                    continue 'items;
                };
                (item, t_prev) = through;
            }
            run.stats.emitted += 1;
        }
        run.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    struct Item(u64);
    impl PipeItem for Item {
        fn batch_id(&self) -> u64 {
            self.0
        }
    }

    fn counting_source(n: u64) -> impl FnMut() -> Option<Item> {
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
        let log = RefCell::new(Vec::new());
        let stats = StageGraph::new(GraphSpec::new("t"), counting_source(3))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRANSFER),
                |it: Item| {
                    log.borrow_mut().push(("a", it.0));
                    StageOutcome::Emit(it)
                },
            )
            .stage(StageSpec::new("b", names::spans::STAGE_TRAIN), |it: Item| {
                log.borrow_mut().push(("b", it.0));
                StageOutcome::Emit(it)
            })
            .run_inline(&trace);
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.skipped, 0);
        assert!(!stats.poisoned());
        assert_eq!(
            log.into_inner(),
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        );
        let snap = trace.snapshot();
        assert_eq!(snap.count(names::spans::STAGE_TRANSFER), 3);
        assert_eq!(snap.count(names::spans::STAGE_TRAIN), 3);
    }

    #[test]
    fn skip_retires_without_reaching_later_stages() {
        let trace = Trace::new(Clock::virtual_with_tick(1));
        let mut reached = 0;
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
                reached += 1;
                StageOutcome::Emit(it)
            })
            .run_inline(&trace);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.skipped, 2);
        assert_eq!(reached, 2);
    }

    #[test]
    fn panic_budget_drops_then_poisons() {
        const STAGES: [SpanName; 2] = [names::spans::STAGE_TRANSFER, names::spans::STAGE_TRAIN];
        // (panic budget, index of the stage that panics, on every id from)
        // Budget 1, first stage: items 0,1 emit; item 2 panics (within
        // budget, dropped); item 3 panics again and poisons the run.
        // Budget 0, second stage: items 0..3 emit, item 3 passes the first
        // stage and poisons the run in the second.
        for (budget, panics_in, from) in [(1, 0, 2), (0, 1, 3)] {
            let trace = Trace::new(Clock::virtual_with_tick(1));
            let pulled = Cell::new(0u64);
            let mut source = counting_source(10);
            let step = |at: usize| {
                move |it: Item| {
                    if at == panics_in && it.0 >= from {
                        panic!("boom {}", it.0);
                    }
                    StageOutcome::Emit(it)
                }
            };
            let spec = GraphSpec::new("t").panic_budget(budget);
            let stats = StageGraph::new(spec, || {
                pulled.set(pulled.get() + 1);
                source()
            })
            .stage(StageSpec::new("a", STAGES[0]), step(0))
            .stage(StageSpec::new("b", STAGES[1]), step(1))
            .run_inline(&trace);
            // The items before the first panic emitted, the fatal stage is
            // named, and the source was not pulled again: 4..10 never ran.
            assert_eq!(stats.emitted, from);
            assert_eq!(stats.panics, budget + 1);
            assert_eq!(stats.fatal_stage, Some(STAGES[panics_in]));
            assert_eq!(pulled.get(), stats.emitted + stats.panics);
            let snap = trace.snapshot();
            assert_eq!(snap.count(names::events::PIPE_STAGE_PANIC) as u64, stats.panics);
            assert_eq!(snap.count(names::events::PIPE_POISONED), 1);
            // A panicking step still closes its work span; a stage behind
            // it never sees the item.
            assert_eq!(snap.count(STAGES[0]) as u64, pulled.get());
            assert_eq!(snap.count(STAGES[1]) as u64, if panics_in == 0 { from } else { pulled.get() });
        }
    }

    #[test]
    fn first_wait_is_fill_not_steady_state() {
        let trace = Trace::new(Clock::virtual_with_tick(50));
        let stats = StageGraph::new(GraphSpec::new("t").first_wait_is_fill(), counting_source(3))
            .stage(
                StageSpec::new("a", names::spans::STAGE_TRAIN).wait(names::spans::STAGE_PREP),
                StageOutcome::Emit,
            )
            .run_inline(&trace);
        assert_eq!(stats.emitted, 3);
        let snap = trace.snapshot();
        // First wait → warmup span; remaining 2 → steady state.
        assert_eq!(snap.count(names::spans::WARMUP), 1);
        assert_eq!(snap.count(names::spans::STAGE_PREP), 2);
        let report = salient_trace::analyze(&snap);
        assert_eq!((report.fill.n, report.prep_wait.n), (1, 2));
        // Each wait is two successive clock reads apart: one 50 ns tick.
        assert_eq!(report.prep_wait.p50, 50);
    }
}
