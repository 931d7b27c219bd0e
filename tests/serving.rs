//! Serving-layer deadline math, degradation, and breaker behavior — all on
//! a `VirtualClock`, so every scenario is a pure function of (config, seed,
//! arrival trace, fault plan):
//!
//! * zero / past / infeasible deadlines are rejected at admission, typed;
//! * a deadline can expire at every pipeline stage, and the stage is named
//!   in the response while the remaining stages are skipped (dead work is
//!   dropped, not finished);
//! * the circuit breaker walks Closed → Open → HalfOpen → Closed
//!   deterministically under injected pipeline panics;
//! * the degradation ladder steps down under a seeded bursty trace and
//!   restores with hysteresis — and the entire response sequence replays
//!   identically;
//! * no staging slot leaks, whatever dies or expires;
//! * a request for a node outside the graph, or one that panics at the
//!   `serve.request` site, fails alone at harvest, and a panic inside a
//!   stage's body fails only its batch.
//!
//! The fault plan is process-global, so tests that install one serialize
//! on a mutex.

use salient_repro::core::{RunConfig, Trainer};
use salient_repro::fault::{self, sites, FaultKind, FaultPlan, FaultSpec, Trigger};
use salient_repro::graph::{Dataset, DatasetConfig, NodeId};
use salient_repro::nn::{GnnModel, Mode, ModelKind};
use salient_repro::sampler::MessageFlowGraph;
use salient_repro::serve::{
    loadgen, run_trace, BreakerState, Rejected, Request, Response, ServeConfig, ServerCore, Stage,
    StepOutcome,
};
use salient_repro::tensor::rng::StdRng;
use salient_repro::tensor::{Param, Tape, Var};
use salient_repro::trace::{names, Clock, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes tests: the installed fault plan is process-global state.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn dataset() -> Arc<Dataset> {
    static DS: OnceLock<Arc<Dataset>> = OnceLock::new();
    Arc::clone(DS.get_or_init(|| Arc::new(DatasetConfig::tiny(23).build())))
}

/// A serving core on a ticking virtual clock (1 µs per read, so stages
/// take deterministic nonzero time).
fn core_with(cfg: ServeConfig) -> ServerCore {
    let ds = dataset();
    let model = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny()).into_model();
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    ServerCore::new(model, ds, cfg, trace)
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        queue_capacity: 8,
        fanout_ladder: vec![vec![5, 5], vec![2, 2]],
        pressure_occupancy: 0.5,
        degrade_after: 2,
        restore_after: 3,
        breaker_open_after: 3,
        breaker_cooldown_ns: 1_000_000,
        breaker_probes: 2,
        seed: 7,
        ..ServeConfig::default()
    }
}

/// Asserts the no-leaked-slot invariant.
fn assert_pool_intact(core: &ServerCore) {
    let (avail, cap) = core.pool_available();
    assert_eq!(avail, cap, "a staging slot leaked");
}

const GENEROUS: u64 = 1_000_000_000; // 1 s: never expires in these tests

#[test]
fn zero_and_past_deadlines_are_rejected_as_infeasible() {
    let _s = serial();
    let mut core = core_with(small_cfg());
    let vc = Arc::clone(core.clock().as_virtual().unwrap());
    vc.set(5_000_000);
    // Absolute zero and an already-past instant are both infeasible.
    for deadline in [0, 1_000_000] {
        assert_eq!(
            core.submit(Request { id: deadline, node: 0, deadline_ns: deadline }),
            Err(Rejected::DeadlineInfeasible)
        );
    }
    let snap = core.trace().snapshot();
    assert_eq!(snap.metrics.counter(names::counters::SERVE_SHED_INFEASIBLE), 2);
    assert_eq!(snap.metrics.counter(names::counters::SERVE_ADMITTED), 0);
    assert_eq!(core.pending(), 0);
}

#[test]
fn budget_below_the_observed_service_floor_is_infeasible() {
    let _s = serial();
    let mut core = core_with(small_cfg());
    // Establish a service-time floor: one real batch on the ticking clock.
    let now = core.now_ns();
    core.submit(Request { id: 0, node: 0, deadline_ns: now + GENEROUS })
        .unwrap();
    let out = core.step();
    assert!(out.responses[0].1.is_done());
    // A 1 ns budget is below any real batch duration.
    let now = core.now_ns();
    assert_eq!(
        core.submit(Request { id: 1, node: 1, deadline_ns: now + 1 }),
        Err(Rejected::DeadlineInfeasible)
    );
    // A generous budget is still admitted.
    let now = core.now_ns();
    assert!(core
        .submit(Request { id: 2, node: 2, deadline_ns: now + GENEROUS })
        .is_ok());
}

#[test]
fn queue_expiry_retires_before_any_work() {
    let _s = serial();
    let mut core = core_with(small_cfg());
    let vc = Arc::clone(core.clock().as_virtual().unwrap());
    let now = core.now_ns();
    core.submit(Request { id: 0, node: 0, deadline_ns: now + 50_000 })
        .unwrap();
    vc.advance(100_000); // deadline passes while queued
    let out = core.step();
    assert_eq!(out.responses, vec![(0, Response::Expired(Stage::Queue))]);
    assert!(!out.ran_batch, "expired-in-queue work must not reach the sampler");
    let snap = core.trace().snapshot();
    assert_eq!(snap.metrics.counter(names::counters::SERVE_EXPIRED), 1);
    assert_eq!(snap.spans(names::spans::SERVE_SAMPLE).count(), 0);
    assert_pool_intact(&core);
}

/// Expiry at each in-pipeline stage: an injected delay stalls exactly one
/// stage past the request's budget; the response names that stage and the
/// later stages never run.
#[test]
fn deadline_expires_at_each_pipeline_stage_and_later_stages_are_skipped() {
    let _s = serial();
    let cases = [
        (sites::SERVE_SAMPLER, Stage::Sample),
        (sites::SERVE_SLICE, Stage::Slice),
        (sites::SERVE_GEMM, Stage::Gemm),
    ];
    for (site, stage) in cases {
        let mut core = core_with(small_cfg());
        let plan = FaultPlan::new(1).delay_at(site, 0, Duration::from_millis(10));
        let _guard = fault::scoped(plan);
        let now = core.now_ns();
        // 1 ms budget: survives the healthy stages (µs), not the 10 ms stall.
        core.submit(Request { id: 0, node: 0, deadline_ns: now + 1_000_000 })
            .unwrap();
        let out = core.step();
        assert_eq!(out.responses, vec![(0, Response::Expired(stage))], "{site}");
        let snap = core.trace().snapshot();
        let ran = |name: names::SpanName| snap.spans(name).count();
        match stage {
            Stage::Sample => {
                assert_eq!(ran(names::spans::SERVE_SAMPLE), 1, "{site}");
                assert_eq!(ran(names::spans::SERVE_SLICE), 0, "dead work must be dropped");
                assert_eq!(ran(names::spans::SERVE_GEMM), 0, "dead work must be dropped");
            }
            Stage::Slice => {
                assert_eq!(ran(names::spans::SERVE_SLICE), 1, "{site}");
                assert_eq!(ran(names::spans::SERVE_GEMM), 0, "dead work must be dropped");
            }
            Stage::Gemm => assert_eq!(ran(names::spans::SERVE_GEMM), 1, "{site}"),
            Stage::Queue => unreachable!(),
        }
        assert_eq!(snap.metrics.counter(names::counters::SERVE_EXPIRED), 1, "{site}");
        assert_eq!(snap.metrics.counter(names::counters::SERVE_COMPLETED), 0, "{site}");
        assert_pool_intact(&core);
    }
}

#[test]
fn breaker_walks_closed_open_half_open_closed_deterministically() {
    let _s = serial();
    let mut core = core_with(small_cfg());
    let vc = Arc::clone(core.clock().as_virtual().unwrap());
    // Exactly three sampler crashes (budget 3), then the pipeline heals.
    let plan = FaultPlan::new(2).with_spec(FaultSpec {
        site: sites::SERVE_SAMPLER,
        kind: FaultKind::Panic,
        trigger: Trigger::Always,
        budget: Some(3),
    });
    let _guard = fault::scoped(plan);

    // Three failed micro-batches trip the breaker open.
    for id in 0..3 {
        let now = core.now_ns();
        core.submit(Request { id, node: id as u32, deadline_ns: now + GENEROUS })
            .unwrap();
        let out = core.step();
        assert_eq!(out.responses, vec![(id, Response::Failed)]);
        assert_pool_intact(&core);
    }
    // Open: admission sheds instantly with the typed overload response.
    let now = core.now_ns();
    assert_eq!(
        core.submit(Request { id: 10, node: 0, deadline_ns: now + GENEROUS }),
        Err(Rejected::Overload)
    );

    // After the cooldown the breaker half-opens and admits probes; two
    // successful single-request probe batches close it.
    vc.advance(small_cfg().breaker_cooldown_ns);
    for id in [11, 12] {
        let now = core.now_ns();
        core.submit(Request { id, node: 1, deadline_ns: now + GENEROUS })
            .unwrap();
        let out = core.step();
        assert_eq!(out.responses.len(), 1);
        assert!(out.responses[0].1.is_done(), "probe must succeed: {out:?}");
    }

    let snap = core.trace().snapshot();
    assert_eq!(snap.metrics.counter(names::counters::SERVE_SHED_BREAKER), 1);
    assert_eq!(snap.count(names::events::SERVE_BREAKER_OPEN), 1);
    assert_eq!(snap.count(names::events::SERVE_BREAKER_HALF_OPEN), 1);
    assert_eq!(snap.count(names::events::SERVE_BREAKER_CLOSE), 1);
    assert_eq!(snap.metrics.counter(names::counters::SERVE_REQUEST_PANICS), 0);
    assert_pool_intact(&core);
}

/// Runs the same seeded bursty trace through a fresh core and returns the
/// full response sequence plus (degrades, restores).
///
/// The core runs on a *manual* virtual clock and every micro-batch costs
/// exactly 20 µs via an injected GEMM delay, so queue pressure is a pure
/// function of the arrival trace: 1 µs burst gaps pile the queue up
/// faster than batches retire, 20 µs calm gaps drain one-for-one.
fn run_bursty(seed: u64) -> (Vec<(u64, Response)>, usize, usize) {
    let ds = dataset();
    let model = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny()).into_model();
    let trace = Trace::new(Clock::virtual_manual());
    let mut core = ServerCore::new(model, ds, small_cfg(), trace);
    let plan = FaultPlan::new(seed).with_spec(FaultSpec {
        site: sites::SERVE_GEMM,
        kind: FaultKind::Delay(Duration::from_micros(20)),
        trigger: Trigger::Always,
        budget: None,
    });
    let _guard = fault::scoped(plan);
    let arrivals = loadgen::bursty_trace(
        seed,
        50_000.0,    // calm: one arrival per ~20 µs — one batch each, queue ~1
        1_000_000.0, // burst: one per ~1 µs — far faster than batches retire
        200_000,     // 200 µs phases
        3_000_000,   // 3 ms: several burst/calm cycles
        dataset().graph.num_nodes(),
        150_000, // 150 µs budget
    );
    let responses = run_trace(&mut core, &arrivals);
    assert_pool_intact(&core);
    let snap = core.trace().snapshot();
    (
        responses,
        snap.count(names::events::SERVE_DEGRADE),
        snap.count(names::events::SERVE_RESTORE),
    )
}

#[test]
fn ladder_degrades_under_bursts_restores_in_calm_and_replays_identically() {
    let _s = serial();
    let (responses, degrades, restores) = run_bursty(41);
    // Bursts push the ladder down and calm restores it, seven times each:
    // on a manual clock the moves are a function of the arrival trace.
    assert_eq!((degrades, restores), (7, 7));
    // Some answers were served degraded, some at full quality.
    let levels: Vec<usize> = responses
        .iter()
        .filter_map(|(_, r)| match r {
            Response::Done { fanout_level, .. } => Some(*fanout_level),
            _ => None,
        })
        .collect();
    assert!(levels.iter().any(|&l| l > 0), "expected degraded completions");
    assert!(levels.iter().any(|&l| l == 0), "expected full-quality completions");
    // Overload sheds are typed, never silent: every arrival got a response.
    let (again, d2, r2) = run_bursty(41);
    assert_eq!(responses, again, "same seed must replay the identical sequence");
    assert_eq!((degrades, restores), (d2, r2));
}

#[test]
fn every_arrival_gets_exactly_one_terminal_response() {
    let _s = serial();
    let mut core = core_with(small_cfg());
    let arrivals = loadgen::poisson_trace(
        9,
        400_000.0, // well past the knee: heavy shedding expected
        1_000_000,
        dataset().graph.num_nodes(),
        100_000,
    );
    let n = arrivals.len();
    let responses = run_trace(&mut core, &arrivals);
    assert_eq!(responses.len(), n, "one terminal response per arrival");
    let mut ids: Vec<u64> = responses.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "no duplicate responses");
    // Under this load some requests must have been shed, and the shed +
    // completed + expired accounting covers every admission decision.
    let snap = core.trace().snapshot();
    let admitted = snap.metrics.counter(names::counters::SERVE_ADMITTED);
    let shed = snap.metrics.counter(names::counters::SERVE_SHED_OVERLOAD)
        + snap.metrics.counter(names::counters::SERVE_SHED_INFEASIBLE);
    assert!(shed > 0, "overload trace must shed");
    assert_eq!(admitted + shed, n as u64);
    let completed = snap.metrics.counter(names::counters::SERVE_COMPLETED);
    let expired = snap.metrics.counter(names::counters::SERVE_EXPIRED);
    assert_eq!(completed + expired, admitted, "every admitted request retired");
    assert_pool_intact(&core);
}

/// Submits `node` with a budget that never expires in these tests.
fn submit(core: &mut ServerCore, id: u64, node: NodeId) {
    let deadline_ns = core.now_ns() + GENEROUS;
    core.submit(Request { id, node, deadline_ns }).unwrap();
}

/// The `(id, class)` of every request a step served.
fn served(out: &StepOutcome) -> Vec<(u64, u32)> {
    out.responses
        .iter()
        .filter_map(|(id, r)| match r {
            Response::Done { class, .. } => Some((*id, *class)),
            _ => None,
        })
        .collect()
}

/// Three steps in a row each carry one failing request among three good
/// ones: a request for a node the graph does not have, or, as the second
/// input, a good node whose request panics at the `serve.request` site. It
/// fails alone, at harvest: its neighbours get the classes a server that
/// never saw it gives, which also shows the sampler kept its stream from
/// step to step, and no batch failed, so the breaker that three failures
/// would open stays closed.
#[test]
fn a_node_outside_the_graph_fails_alone_and_its_batch_is_served() {
    let _s = serial();
    let bad = dataset().graph.num_nodes() as NodeId;
    let bad_ids = [9, 19, 29];
    let request_panics = bad_ids.map(|k| format!("serve.request=panic@{k}")).join(";");
    for (bad_node, spec) in [(bad, ""), (5, request_panics.as_str())] {
        let _guard = fault::scoped(FaultPlan::parse(0, spec).unwrap());
        // A queue deep enough that four requests are no pressure: the ladder
        // stays where the reference's three leave it.
        let cfg = ServeConfig { queue_capacity: 16, ..small_cfg() };
        let mut core = core_with(cfg.clone());
        let mut reference = core_with(cfg);
        for (round, bad_id) in (0..3u64).zip(bad_ids) {
            let ids = [10 * round, 10 * round + 1, 10 * round + 2];
            submit(&mut core, ids[0], 3);
            submit(&mut core, bad_id, bad_node);
            submit(&mut core, ids[1], 7);
            submit(&mut core, ids[2], 11);
            for (id, node) in ids.into_iter().zip([3, 7, 11]) {
                submit(&mut reference, id, node);
            }
            let out = core.step();
            let at = format!("node {bad_node}, round {round}");
            assert!(out.ran_batch, "{at}");
            assert_eq!(out.responses.len(), 4, "{at}: {out:?}");
            assert!(out.responses.contains(&(bad_id, Response::Failed)), "{at}: {out:?}");
            let want = served(&reference.step());
            assert_eq!(want.len(), 3);
            assert_eq!(served(&out), want, "{at}");
            assert_pool_intact(&core);
        }
        assert_eq!(core.breaker_state(), BreakerState::Closed);
        let snap = core.trace().snapshot();
        assert_eq!(snap.count(names::events::SERVE_BREAKER_OPEN), 0);
        assert_eq!(snap.metrics.counter(names::counters::SERVE_REQUEST_PANICS), 3);
        assert_eq!(snap.metrics.counter(names::counters::SERVE_COMPLETED), 9);
    }
}

/// The trained model, except that its forward panics while `poisoned` is
/// set: a panic from inside the GEMM stage's body, after the tape has taken
/// the staged slot, not from the injected fault site before the body.
struct Poisonable {
    inner: Box<dyn GnnModel>,
    poisoned: Arc<AtomicBool>,
}

impl GnnModel for Poisonable {
    fn forward(
        &mut self,
        tape: &Tape,
        x: Var,
        mfg: &MessageFlowGraph,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var {
        assert!(!self.poisoned.load(Ordering::Relaxed), "model poisoned");
        self.inner.forward(tape, x, mfg, mode, rng)
    }
    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }
    fn num_layers(&self) -> usize {
        self.inner.num_layers()
    }
}

/// `run_stage` is the only guard a stage has: a model that panics fails its
/// batch's live members (a member that already expired keeps its
/// `Expired`), counts one breaker failure, and unwinds the slot back into
/// the pool, and once the model heals the next step serves.
#[test]
fn a_panic_inside_the_model_fails_only_its_batch_and_returns_the_slot() {
    let _s = serial();
    let ds = dataset();
    let poisoned = Arc::new(AtomicBool::new(true));
    let model = Box::new(Poisonable {
        inner: Trainer::new(Arc::clone(&ds), RunConfig::test_tiny()).into_model(),
        poisoned: Arc::clone(&poisoned),
    });
    let cfg = ServeConfig { breaker_open_after: 2, ..small_cfg() };
    let cooldown_ns = cfg.breaker_cooldown_ns;
    let mut core = ServerCore::new(model, ds, cfg, Trace::new(Clock::virtual_with_tick(1_000)));
    let vc = Arc::clone(core.clock().as_virtual().unwrap());
    // The first batch's sampler stalls 100 µs: request 0 (50 µs budget)
    // dies there, request 1 lives on into the panicking GEMM stage.
    let plan = FaultPlan::new(3).delay_at(sites::SERVE_SAMPLER, 0, Duration::from_micros(100));
    let _guard = fault::scoped(plan);
    let now = core.now_ns();
    core.submit(Request { id: 0, node: 0, deadline_ns: now + 50_000 }).unwrap();
    submit(&mut core, 1, 1);
    let out = core.step();
    assert_eq!(out.responses, vec![(0, Response::Expired(Stage::Sample)), (1, Response::Failed)]);
    assert_pool_intact(&core);
    let snap = core.trace().snapshot();
    assert!(
        snap.metrics.counter(names::counters::TRANSFER_BYTES) > 0,
        "the panic came from the stage body, after the slot was handed over"
    );
    assert_eq!(snap.spans(names::spans::SERVE_GEMM).count(), 1);
    assert_eq!(snap.metrics.counter(names::counters::SERVE_REQUEST_PANICS), 0);
    // One failure counted: the breaker, open after two, is still closed,
    // and a second poisoned batch opens it.
    assert_eq!(core.breaker_state(), BreakerState::Closed);
    submit(&mut core, 2, 2);
    assert_eq!(core.step().responses, vec![(2, Response::Failed)]);
    assert_eq!(core.breaker_state(), BreakerState::Open);
    assert_pool_intact(&core);
    // Healed: after the cooldown the next step serves.
    poisoned.store(false, Ordering::Relaxed);
    vc.advance(cooldown_ns);
    submit(&mut core, 3, 3);
    let out = core.step();
    assert!(out.responses[0].1.is_done(), "{out:?}");
    assert_pool_intact(&core);
}
