//! The deterministic serving state machine.
//!
//! [`ServerCore`] owns everything one serving instance needs — the trained
//! model, a [`BatchInferencer`] (one pinned staging slot), a seeded
//! sampler, the pending queue, the degradation [`Ladder`], and the
//! circuit [`Breaker`] — and exposes exactly two operations:
//! [`submit`](ServerCore::submit) (admission) and
//! [`step`](ServerCore::step) (form and run one micro-batch). It reads
//! time only through its [`Clock`], never spawns threads, and injects
//! faults only via `salient_fault` sites, so a whole serving session under
//! a `VirtualClock` is a pure function of (config, seed, arrival trace,
//! fault plan).
//!
//! # Deadline propagation
//!
//! A request's absolute deadline rides with it through the pipeline and is
//! re-checked at every stage boundary: at harvest (queue expiry), after
//! sampling, after slicing, and after the GEMM. A request found dead is
//! retired immediately with [`Response::Expired`] naming the stage that
//! overran, and when *every* live member of a micro-batch has expired the
//! remaining stages are skipped entirely — dead work is dropped, not
//! finished.
//!
//! # Stage failure
//!
//! The three stages of a micro-batch run in order on the calling thread
//! (`ServerCore::run_stages`), each as one call under `run_stage`'s guard,
//! the only panic boundary a stage has. A stage that panics fails its
//! batch — every member still live gets [`Response::Failed`] — and counts
//! against the [`Breaker`]; the breaker opening is what dumps the flight
//! recorder. A crashed sampler is kept and reseeded: it samples as a fresh
//! one would, without rebuilding its id table.

#![expect(
    clippy::indexing_slicing,
    reason = "batch-member indices run over equal-length vecs built in step"
)]

use crate::breaker::{Breaker, BreakerMove, BreakerState};
use crate::config::ServeConfig;
use crate::ladder::{Ladder, LadderMove};
use crate::loadgen::Arrival;
use crate::{Rejected, Request, Response, Stage};
use salient_core::BatchInferencer;
use salient_fault::{self as fault, FaultAction};
use salient_graph::{Dataset, NodeId};
use salient_nn::GnnModel;
use salient_sampler::FastSampler;
use salient_tensor::rng::{derive, StdRng};
use salient_trace::names::{self, SpanName};
use salient_trace::{Clock, Counter, Trace};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// EWMA smoothing for the per-batch service-time floor.
const EWMA_ALPHA: f64 = 0.2;

/// An admitted request waiting in the pending queue.
#[derive(Clone, Copy, Debug)]
struct Pending {
    req: Request,
    admitted_ns: u64,
}

/// A stage of the micro-batch panicked; the batch fails as a whole.
struct StageCrashed;

/// Counter handles resolved once so the per-request path is atomic adds.
/// A ladder or breaker move is rare: its point event is its one record.
struct Instruments {
    admitted: Counter,
    completed: Counter,
    shed_overload: Counter,
    shed_infeasible: Counter,
    shed_breaker: Counter,
    expired: Counter,
    request_panics: Counter,
}

impl Instruments {
    fn new(trace: &Trace) -> Instruments {
        Instruments {
            admitted: trace.counter(names::counters::SERVE_ADMITTED),
            completed: trace.counter(names::counters::SERVE_COMPLETED),
            shed_overload: trace.counter(names::counters::SERVE_SHED_OVERLOAD),
            shed_infeasible: trace.counter(names::counters::SERVE_SHED_INFEASIBLE),
            shed_breaker: trace.counter(names::counters::SERVE_SHED_BREAKER),
            expired: trace.counter(names::counters::SERVE_EXPIRED),
            request_panics: trace.counter(names::counters::SERVE_REQUEST_PANICS),
        }
    }
}

/// What one [`ServerCore::step`] did.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Terminal responses emitted this step, keyed by request id. Includes
    /// queue-expired requests retired during harvest even when no batch ran.
    pub responses: Vec<(u64, Response)>,
    /// Whether a micro-batch pipeline actually executed.
    pub ran_batch: bool,
}

/// Applies an injected fault with clock-aware stalls: on a virtual clock a
/// `Delay` advances it (deterministic stage-stall scripting); on the real
/// clock it sleeps. Panics inline for `Panic` — callers wrap the stage in
/// `catch_unwind`. Returns `true` for `Drop`.
fn apply_fault(clock: &Clock, site: fault::Site, occ: u64) -> bool {
    match fault::point(site, occ) {
        FaultAction::Proceed => false,
        #[expect(clippy::panic, reason = "injected fault demands a panic; every serving stage wraps it in catch_unwind")]
        FaultAction::Panic => panic!("injected fault: panic at {site} (occ {occ})"),
        FaultAction::Delay(d) => {
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            match clock.as_virtual() {
                Some(v) => v.advance(ns),
                #[expect(clippy::disallowed_methods, reason = "injected straggler stall on the real clock; the duration comes from the installed fault plan")]
                None => std::thread::sleep(d),
            }
            false
        }
        FaultAction::Drop => true,
    }
}

/// One stage of a micro-batch: the stage's fault site and its `body` under
/// one panic guard, then the clock read that ends the stage — the timestamp
/// that closes its span `[start_ns, end]`, opens the next stage's, and
/// decides deadline expiry. Returns `body`'s value (`None` when the stage
/// panicked) with that timestamp.
fn run_stage<R>(
    trace: &Trace,
    clock: &Clock,
    (site, span): (fault::Site, SpanName),
    seq: u64,
    start_ns: u64,
    body: impl FnOnce() -> R,
) -> (Option<R>, u64) {
    let out = catch_unwind(AssertUnwindSafe(|| {
        apply_fault(clock, site, seq);
        body()
    }));
    let end_ns = clock.now_ns();
    trace.record_span(span, seq, start_ns, end_ns);
    (out.ok(), end_ns)
}

/// The single-threaded serving state machine (see the module docs).
pub struct ServerCore {
    cfg: ServeConfig,
    model: Box<dyn GnnModel>,
    inferencer: BatchInferencer,
    dataset: Arc<Dataset>,
    sampler: FastSampler,
    rng: StdRng,
    clock: Clock,
    trace: Trace,
    pending: VecDeque<Pending>,
    ladder: Ladder,
    breaker: Breaker,
    /// EWMA of micro-batch pipeline nanoseconds: the admission floor for
    /// `DeadlineInfeasible` (0 until the first batch completes).
    ewma_batch_ns: f64,
    batch_seq: u64,
    ins: Instruments,
}

impl ServerCore {
    /// Builds a serving instance around a trained model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or the ladder's hop
    /// count does not match the model's layer count.
    pub fn new(
        model: Box<dyn GnnModel>,
        dataset: Arc<Dataset>,
        cfg: ServeConfig,
        trace: Trace,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            cfg.fanout_ladder[0].len(),
            model.num_layers(),
            "fanout ladder hop count must match the model's layers"
        );
        // Pre-size staging for a worst-case (level-0) micro-batch.
        let expansion: usize = cfg.fanout_ladder[0].iter().map(|f| f + 1).product();
        let nodes_hint = cfg.max_batch * expansion.min(256);
        let inferencer = BatchInferencer::new(Arc::clone(&dataset), nodes_hint, &trace);
        let ladder = Ladder::new(
            cfg.fanout_ladder.clone(),
            cfg.degrade_after,
            cfg.restore_after,
        );
        let breaker = Breaker::new(
            cfg.breaker_open_after,
            cfg.breaker_cooldown_ns,
            cfg.breaker_probes,
        );
        let clock = trace.clock();
        let ins = Instruments::new(&trace);
        ServerCore {
            sampler: FastSampler::new(cfg.seed ^ 0x5E21),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x11FE),
            model,
            inferencer,
            dataset,
            clock,
            trace,
            pending: VecDeque::with_capacity(cfg.queue_capacity),
            ladder,
            breaker,
            ewma_batch_ns: 0.0,
            batch_seq: 0,
            ins,
            cfg,
        }
    }

    /// The serving clock (shared with the trace registry).
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    /// Reads the serving clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The trace handle this server records against.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Requests currently admitted and waiting.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Current degradation-ladder level (0 = full quality).
    pub fn fanout_level(&self) -> usize {
        self.ladder.level()
    }

    /// The staging pool (idle ⇒ `available() == capacity()`; anything less
    /// is a leaked slot).
    pub fn pool_available(&self) -> (usize, usize) {
        (
            self.inferencer.pool().available(),
            self.inferencer.pool().capacity(),
        )
    }

    /// Admission control. `Ok(())` means the request is queued and will
    /// receive exactly one terminal [`Response`] from a later
    /// [`step`](ServerCore::step); `Err` is the typed shed decision.
    ///
    /// Order of checks: deadline feasibility first (an infeasible deadline
    /// is the caller's problem, reported as such even under overload), then
    /// the queue fault site, breaker, and the queue bound, which is what
    /// bounds overload latency.
    ///
    /// # Errors
    ///
    /// [`Rejected::DeadlineInfeasible`] for zero/past deadlines or budgets
    /// below the observed service floor; [`Rejected::Overload`] when the
    /// server sheds load.
    pub fn submit(&mut self, req: Request) -> Result<(), Rejected> {
        let now = self.clock.now_ns();

        // Feasibility: a deadline at or before now, or a budget smaller
        // than the smoothed batch service time, cannot be met even idle.
        if req.deadline_ns <= now
            || ((req.deadline_ns - now) as f64) < self.ewma_batch_ns
        {
            self.ins.shed_infeasible.inc();
            return Err(Rejected::DeadlineInfeasible);
        }

        // Injected queue fault: any action here models a broken/full queue;
        // the request is shed with the typed Overload response.
        if fault::point(fault::sites::SERVE_QUEUE, req.id) != FaultAction::Proceed {
            self.ins.shed_overload.inc();
            return Err(Rejected::Overload);
        }

        // Breaker: while open, nothing is queued onto a broken pipeline.
        self.poll_breaker(now);
        if self.breaker.state() == BreakerState::Open {
            self.ins.shed_breaker.inc();
            self.ins.shed_overload.inc();
            return Err(Rejected::Overload);
        }

        if self.pending.len() >= self.cfg.queue_capacity {
            self.ins.shed_overload.inc();
            return Err(Rejected::Overload);
        }

        self.pending.push_back(Pending { req, admitted_ns: now });
        self.ins.admitted.inc();
        Ok(())
    }

    fn poll_breaker(&mut self, now: u64) {
        if let Some(mv) = self.breaker.poll(now) {
            self.record_breaker(mv);
        }
    }

    fn record_breaker(&self, mv: BreakerMove) {
        let event = match mv {
            BreakerMove::Opened => names::events::SERVE_BREAKER_OPEN,
            BreakerMove::HalfOpened => names::events::SERVE_BREAKER_HALF_OPEN,
            BreakerMove::Closed => names::events::SERVE_BREAKER_CLOSE,
        };
        self.trace.instant(event, self.batch_seq);
        // A breaker open means the server is shedding load: dump the flight
        // recorder so the window leading up to it survives.
        if let (BreakerMove::Opened, Some(bb)) = (mv, self.trace.blackbox()) {
            let _ = bb.dump(&self.trace, event.as_str(), self.batch_seq);
        }
    }

    fn record_ladder(&self, mv: LadderMove) {
        let event = match mv {
            LadderMove::Degraded => names::events::SERVE_DEGRADE,
            LadderMove::Restored => names::events::SERVE_RESTORE,
        };
        self.trace.instant(event, self.batch_seq);
    }

    /// Retires every member whose deadline has passed, tagging the stage
    /// that overran. Returns the number still live.
    fn expire_members(
        &self,
        members: &[Pending],
        expired_at: &mut [Option<Stage>],
        stage: Stage,
        now: u64,
    ) -> usize {
        let mut live = 0;
        for (i, m) in members.iter().enumerate() {
            if expired_at[i].is_some() {
                continue;
            }
            if m.req.deadline_ns <= now {
                expired_at[i] = Some(stage);
                self.ins.expired.inc();
            } else {
                live += 1;
            }
        }
        live
    }

    /// Forms one micro-batch from the pending queue and runs it through
    /// sample → slice → gemm with stage-boundary deadline checks. Returns
    /// the terminal responses it emitted. A step with nothing pending
    /// returns an empty outcome.
    pub fn step(&mut self) -> StepOutcome {
        let mut out = StepOutcome::default();
        let step_start = self.clock.now_ns();
        self.poll_breaker(step_start);

        // Pressure is observed on the queue as the batch forms (before
        // harvest drains it).
        let pressured = self.pending.len() as f64
            >= self.cfg.pressure_occupancy * self.cfg.queue_capacity as f64
            && !self.pending.is_empty();

        // Half-open: single-request probe batches only.
        let limit = if self.breaker.state() == BreakerState::HalfOpen {
            1
        } else {
            self.cfg.max_batch
        };

        // Harvest: retire queue-expired requests, isolate per-request
        // failures, and coalesce the survivors.
        let num_nodes = self.dataset.graph.num_nodes();
        let mut members: Vec<Pending> = Vec::with_capacity(limit);
        while members.len() < limit {
            let Some(p) = self.pending.pop_front() else { break };
            if p.req.deadline_ns <= self.clock.now_ns() {
                self.ins.expired.inc();
                out.responses.push((p.req.id, Response::Expired(Stage::Queue)));
                continue;
            }
            // Per-request isolation boundary: an injected handler panic (or
            // drop) poisons exactly this request, never the server. So does
            // a node the graph does not have, which would otherwise panic
            // the sampler and fail every request batched with it.
            let id = p.req.id;
            let failed = catch_unwind(AssertUnwindSafe(|| {
                apply_fault(&self.clock, fault::sites::SERVE_REQUEST, id)
                    || p.req.node as usize >= num_nodes
            }));
            match failed {
                Err(_) | Ok(true) => {
                    self.ins.request_panics.inc();
                    out.responses.push((id, Response::Failed));
                }
                Ok(false) => members.push(p),
            }
        }
        if members.is_empty() {
            return out;
        }

        out.ran_batch = true;
        let seq = self.batch_seq;
        self.batch_seq += 1;
        let fanout_level = self.ladder.level();
        // Coalesced queries may repeat a node; the sampler requires unique
        // seeds, so sample each distinct node once and fan the prediction
        // back out to every member that asked for it.
        let mut seeds: Vec<NodeId> = Vec::with_capacity(members.len());
        let mut seed_idx: Vec<usize> = Vec::with_capacity(members.len());
        for m in &members {
            match seeds.iter().position(|&s| s == m.req.node) {
                Some(i) => seed_idx.push(i),
                None => {
                    seed_idx.push(seeds.len());
                    seeds.push(m.req.node);
                }
            }
        }
        let mut expired_at: Vec<Option<Stage>> = vec![None; members.len()];
        let batch_start = self.clock.now_ns();
        let ran = self.run_stages(seq, &seeds, &members, &mut expired_at);
        if ran.is_ok() {
            // The stage graph this replaced polled its source once more
            // after the batch, and a ticking `VirtualClock` counts reads:
            // without this one every replayed latency moves by a tick.
            self.clock.now_ns();
        }

        // Retire the batch: a member that expired reports the stage that
        // overran, a live member of a crashed batch fails, a live member of
        // a batch that ran completes with its seed's prediction.
        let now = self.clock.now_ns();
        for (i, m) in members.iter().enumerate() {
            let response = match (expired_at[i], &ran) {
                (Some(stage), _) => Response::Expired(stage),
                (None, Err(StageCrashed)) => Response::Failed,
                (None, Ok(preds)) => {
                    // `preds` is present whenever any member is live (the
                    // stages only stop short when all expired).
                    let class = preds.as_ref().map(|p| p[seed_idx[i]]).unwrap_or(0);
                    let latency_ns = now.saturating_sub(m.admitted_ns);
                    self.ins.completed.inc();
                    Response::Done { class, latency_ns, fanout_level }
                }
            };
            out.responses.push((m.req.id, response));
        }
        // A crashed batch counts against the breaker (possibly tripping it
        // open); one that ran, even to find every member expired, for it.
        let moved = match ran {
            Ok(_) => self.breaker.on_success(),
            Err(StageCrashed) => self.breaker.on_failure(now),
        };
        if let Some(mv) = moved {
            self.record_breaker(mv);
        }
        self.after_batch(batch_start, now, pressured);
        out
    }

    /// Sample → slice → gemm over one micro-batch, in order on the calling
    /// thread: one micro-batch per step and ordering within it is the whole
    /// point, so there is nothing for a stage graph to overlap. The sample
    /// stage hints each node's feature row into the cache as it finds the
    /// node ([`FastSampler::sample_warming`]), so the slice stage copies rows
    /// already on their way instead of missing on each in turn. Each stage is
    /// one [`run_stage`] call; consecutive spans share their boundary
    /// timestamp, and that timestamp is the deadline check: members it finds
    /// dead are marked in `expired_at` with the stage that overran, and when
    /// none is left the batch stops there — later stages neither run nor
    /// record a span, and a staged slot drops back into the pool.
    ///
    /// Returns the distinct seeds' predictions, or `None` for a batch that
    /// expired whole. A panicking stage fails the batch, never the server:
    /// [`BatchInferencer::stage`] and [`BatchInferencer::forward`] catch
    /// nothing, so their panics reach `run_stage` like any other.
    fn run_stages(
        &mut self,
        seq: u64,
        seeds: &[NodeId],
        members: &[Pending],
        expired_at: &mut [Option<Stage>],
    ) -> Result<Option<Vec<u32>>, StageCrashed> {
        const SAMPLE: (fault::Site, SpanName) = (fault::sites::SERVE_SAMPLER, names::spans::SERVE_SAMPLE);
        const SLICE: (fault::Site, SpanName) = (fault::sites::SERVE_SLICE, names::spans::SERVE_SLICE);
        const GEMM: (fault::Site, SpanName) = (fault::sites::SERVE_GEMM, names::spans::SERVE_GEMM);

        let t0 = self.clock.now_ns();
        let (mfg, t1) = run_stage(&self.trace, &self.clock, SAMPLE, seq, t0, || {
            let ds = &self.dataset;
            self.sampler.sample_warming(&ds.graph, seeds, self.ladder.fanouts(), &ds.features)
        });
        let Some(mfg) = mfg else {
            // Crashed sampler: kept, and restarted on a stream named by the
            // batch sequence, as batch prep reseeds a retried batch's.
            self.sampler.reseed(derive(self.cfg.seed, &[seq]));
            return Err(StageCrashed);
        };
        if self.expire_members(members, expired_at, Stage::Sample, t1) == 0 {
            return Ok(None);
        }

        let (staged, t2) = run_stage(&self.trace, &self.clock, SLICE, seq, t1, || {
            self.inferencer.stage(&mfg)
        });
        let Some(staged) = staged else {
            return Err(StageCrashed);
        };
        if self.expire_members(members, expired_at, Stage::Slice, t2) == 0 {
            return Ok(None);
        }

        let (preds, t3) = run_stage(&self.trace, &self.clock, GEMM, seq, t2, || {
            self.inferencer.forward(staged, self.model.as_mut(), &mfg, &mut self.rng)
        });
        let Some(preds) = preds else {
            return Err(StageCrashed);
        };
        self.expire_members(members, expired_at, Stage::Gemm, t3);
        Ok(Some(preds))
    }

    /// Post-batch bookkeeping shared by success and failure paths: EWMA
    /// service floor and the degradation ladder (fed the pressure observed
    /// when the batch formed).
    fn after_batch(&mut self, batch_start: u64, now: u64, pressured: bool) {
        let dur = now.saturating_sub(batch_start) as f64;
        self.ewma_batch_ns = if self.ewma_batch_ns == 0.0 {
            dur
        } else {
            (1.0 - EWMA_ALPHA) * self.ewma_batch_ns + EWMA_ALPHA * dur
        };
        if let Some(mv) = self.ladder.observe(pressured) {
            self.record_ladder(mv);
        }
    }
}

/// Drives `core` through an arrival trace on its **virtual** clock: the
/// clock jumps to each arrival instant (stepping off any work already due
/// first), every admission decision is returned inline, and remaining work
/// is drained after the last arrival. Request ids are the arrival indices.
///
/// Running the same (config, seed, trace, fault plan) twice yields
/// identical response sequences — the determinism the serving tests and
/// the fault matrix assert.
///
/// # Panics
///
/// Panics if the core's clock is not virtual (a real-clock core is driven
/// step by step by its caller, as the serving benchmark does).
pub fn run_trace(core: &mut ServerCore, arrivals: &[Arrival]) -> Vec<(u64, Response)> {
    let clock = core.clock();
    #[expect(clippy::expect_used, reason = "documented contract (# Panics): a real-clock core is driven step by step by its caller, never by this replay loop")]
    let vc = Arc::clone(
        clock
            .as_virtual()
            .expect("run_trace requires a VirtualClock-backed core"),
    );
    let mut out = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        // Serve whatever is already due before this arrival lands.
        while core.pending() > 0 && clock.now_ns() < a.at_ns {
            let step = core.step();
            out.extend(step.responses);
        }
        if clock.now_ns() < a.at_ns {
            vc.set(a.at_ns);
        }
        let id = i as u64;
        let req = Request {
            id,
            node: a.node,
            deadline_ns: a.at_ns.saturating_add(a.budget_ns),
        };
        if let Err(rej) = core.submit(req) {
            out.push((id, Response::Rejected(rej)));
        }
    }
    while core.pending() > 0 {
        let step = core.step();
        out.extend(step.responses);
    }
    out
}
