//! The four workloads. Each stresses a different layer of the same code
//! (README.md, "Why each workload exists"); all share the dataset `G100k`
//! and receive nothing but inputs generated from `--seed`.

use crate::host::{now_ns, secs, TRAIN_NODES};
use crate::json::J;
use crate::stats::{greatest, least, median, quantile};
use salient_repro::batchprep::{
    run_epoch, BatchResult, PrepConfig, PrepMode, PreparedBatch, SamplerKind,
};
use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::{Dataset, NodeId};
use salient_repro::serve::{loadgen, Rejected, Request, Response, ServeConfig, ServerCore};
use salient_repro::tensor::rng::{SliceRandom, StdRng};
use salient_repro::trace::Trace;
use std::sync::Arc;

pub const NAMES: [&str; 4] = ["train_compute", "infer_sweep", "prep_stream", "serve_open"];

/// Nodes of the dataset a workload runs on: `G100k` is far beyond the
/// caches, `G10k` (4 MB of graph and features) about fits the 4 MB L2.
///
/// The two memory-bound workloads run on `G10k` because on `G100k` they
/// measure the neighbours: this box shares its L3 with other tenants, and
/// over ten seeds the fastest pass of `infer_sweep` spread 10-26 % and of
/// `prep_stream` 11-32 % (quartile distance over median), against 1.5 %
/// and 7 % on `G10k`. The other two are steadier on `G100k` (4-9 %), where
/// a graph's statistics do not depend on its seed: on `G10k` the work of a
/// `train_compute` epoch differs 2x from seed to seed.
pub fn dataset_nodes(name: &str) -> usize {
    match name {
        "infer_sweep" | "prep_stream" => 10_000,
        _ => 100_000,
    }
}

pub const BATCH: usize = 256;
pub const TRAIN_FANOUTS: [usize; 3] = [15, 10, 5];
pub const INFER_FANOUTS: [usize; 3] = [20, 20, 20];
// Passes are kept short: the fastest pass is the one reported, and a short
// pass is likelier to fit between two bursts of a neighbour's traffic.
/// Epochs `infer_sweep` trains its model in set-up.
const SETUP_EPOCHS: usize = 2;
/// Test nodes one inference pass predicts (2 batches).
const INFER_NODES: usize = 512;

pub const SERVE_MAX_BATCH: usize = 16;
pub const SERVE_FANOUTS: [usize; 2] = [10, 10];
/// Deadline budget of an arrival at `R_OVER`: goodput counts completions
/// within it.
const SERVE_BUDGET_NS: u64 = 50_000_000;
/// Deadline budget of an arrival at `R_MID`, where latency is the reading
/// and nothing the server does takes a millisecond. With 50 ms here the
/// only arrivals that failed were those a host freeze of 40-100 ms held up
/// (0-10 a run on a quiet box, hundreds in a bad minute: the driver counted
/// 73 and 968 of 1.1 M in two sets of the same code); a freeze that
/// outlasts a second has not been seen.
const MID_BUDGET_NS: u64 = 1_000_000_000;
/// Fixed absolute arrival rates. This box serves ~28 000 req/s closed-loop
/// at full fanouts and ~220 000 req/s with the ladder on its last level:
/// `R_MID` is well under the first, `R_OVER` well over the second (at
/// 60 000-200 000 req/s the ladder absorbs the load and goodput merely
/// equals the offered rate).
///
/// A lone request takes ~40 us, so at `R_MID` the server is busy a quarter
/// of the time and three arrivals in four find it idle: the median request
/// did not queue. At 12 000 req/s every second arrival queued, the median
/// sat on the edge between the two kinds, and a host that slowed the server
/// by 10 % moved it by 30-50 % (39-60 us from window to window while the
/// lower quartile stayed within 34-40 us).
const R_MID: f64 = 6_000.0;
const R_OVER: f64 = 400_000.0;
/// An arrival the generator reaches later than this was held up by a host
/// freeze (a legitimate step is ~0.5 ms): it counts as missed, not offered.
const GEN_MISSED_NS: u64 = 10_000_000;
/// One round of `serve_open`: a latency window, then an overload window.
const MID_WINDOW_S: f64 = 0.25;
const OVER_WINDOW_S: f64 = 0.25;
/// Micro-batches in one closed-loop serving pass.
const CLOSED_BATCHES: usize = 512;

/// One unit of the work a user of the workload waits for.
pub struct Pass {
    pub seeds: usize,
    pub batches: usize,
    /// Operations attempted and failed, in the workload's own unit
    /// (batches, or predictions on `infer_sweep`).
    pub attempted: usize,
    pub failed: usize,
}

/// What the end-to-end run of a workload measured.
pub struct E2e {
    pub seeds_per_s: f64,
    pub latency_ms_p50: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// A layer entry point the per-layer replay calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Sample,
    Slice,
    Widen,
    ForwardTrain,
    Backward,
    Optim,
    ForwardEval,
}

/// The batch shape and call sequence of a workload, for the replay.
pub struct Recipe {
    pub batch_size: usize,
    pub fanouts: Vec<usize>,
    pub hidden: usize,
    /// Distinct seed nodes the replay cuts its batches from; a whole
    /// number of batches.
    pub stream: Vec<NodeId>,
    /// The steps that are on the workload's own path, in order.
    pub on_path: &'static [Step],
}

pub trait Workload {
    fn pass(&mut self) -> Pass;

    /// Measures for `seconds`: one warm-up pass (caches fill, lazy set-up
    /// finishes), then whole passes while the next still fits.
    ///
    /// Every pass does the same work, so the fastest pass is reported: on
    /// this box a neighbour's memory traffic stretches passes by up to 40 %
    /// for seconds at a time, and the median of a run follows the
    /// neighbour, not the program (README.md, "Why the best pass").
    fn run_e2e(&mut self, seconds: f64, smoke: bool) -> E2e {
        if !smoke {
            self.pass();
        }
        let (mut rates, mut batch_ms) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0, 0);
        let t0 = now_ns();
        loop {
            let start = now_ns();
            let p = self.pass();
            let dt = secs(start, now_ns());
            rates.push(p.seeds as f64 / dt);
            batch_ms.push(dt * 1e3 / p.batches.max(1) as f64);
            attempted += p.attempted;
            failed += p.failed;
            let done = if smoke {
                rates.len() >= 2
            } else {
                rates.len() >= 3 && secs(t0, now_ns()) + dt > seconds
            };
            if done {
                break;
            }
        }
        E2e {
            seeds_per_s: greatest(&rates),
            latency_ms_p50: least(&batch_ms),
            attempted,
            failed,
        }
    }

    /// Closes the run: checks that need every pass, and the failures seen.
    fn failures(&mut self) -> Vec<String>;

    /// Workload-specific numbers `(name, value, unit)` for the results file.
    fn detail(&self) -> Vec<(&'static str, J, &'static str)>;

    fn recipe(&self) -> Recipe;
}

/// Builds a workload over `ds`, including any set-up training. `trace` is
/// the program's own tracing handle: disabled for every timed number,
/// enabled only to measure what enabling it costs.
pub fn build(name: &str, ds: Arc<Dataset>, seed: u64, trace: Trace) -> Box<dyn Workload> {
    match name {
        "train_compute" => Box::new(TrainCompute::new(ds, seed, trace)),
        "infer_sweep" => Box::new(InferSweep::new(ds, seed, trace)),
        "prep_stream" => Box::new(PrepStream::new(ds, seed, trace)),
        "serve_open" => Box::new(ServeOpen::new(ds, seed, trace)),
        other => panic!("unknown workload {other:?}; one of {NAMES:?}"),
    }
}

fn run_config(seed: u64, layers: usize, hidden: usize, fanouts: &[usize]) -> RunConfig {
    RunConfig {
        num_layers: layers,
        hidden,
        train_fanouts: fanouts.to_vec(),
        infer_fanouts: fanouts.to_vec(),
        batch_size: BATCH,
        num_workers: 1,
        slots: 4,
        seed,
        executor: ExecutorKind::Salient,
        ..RunConfig::default()
    }
}

// ---------------------------------------------------------------- train_compute

/// `Trainer` epochs, 3-layer SAGE hidden 128: nn/tensor do ~90 % of the
/// blocking work and the one prep worker hides behind them.
struct TrainCompute {
    trainer: Trainer,
    stream: Vec<NodeId>,
    losses: Vec<f64>,
    stage_shares: Option<[f64; 3]>,
    failures: Vec<String>,
}

impl TrainCompute {
    fn new(ds: Arc<Dataset>, seed: u64, trace: Trace) -> Self {
        let stream = ds.splits.train.clone();
        let trainer = Trainer::with_trace(ds, run_config(seed, 3, 128, &TRAIN_FANOUTS), trace);
        TrainCompute {
            trainer,
            stream,
            losses: Vec::new(),
            stage_shares: None,
            failures: Vec::new(),
        }
    }
}

impl Workload for TrainCompute {
    fn pass(&mut self) -> Pass {
        let s = self.trainer.train_epoch();
        let expected = TRAIN_NODES / BATCH;
        if !s.mean_loss.is_finite() {
            self.failures.push(format!(
                "epoch {}: loss {} is not finite",
                s.epoch, s.mean_loss
            ));
        }
        if s.batches != expected || s.failed_batches != 0 {
            self.failures.push(format!(
                "epoch {}: {} batches trained and {} failed, expected {expected} and 0",
                s.epoch, s.batches, s.failed_batches
            ));
        }
        self.losses.push(s.mean_loss);
        let t = s.timings;
        if t.total_s > 0.0 {
            self.stage_shares = Some([t.prep_s, t.transfer_s, t.train_s].map(|x| x / t.total_s));
        }
        Pass {
            seeds: TRAIN_NODES,
            batches: expected,
            attempted: expected,
            failed: s.failed_batches,
        }
    }

    fn failures(&mut self) -> Vec<String> {
        if let (Some(first), Some(last)) = (self.losses.first(), self.losses.last()) {
            if self.losses.len() >= 2 && last >= first {
                self.failures
                    .push(format!("loss did not fall: {first} -> {last}"));
            }
        }
        std::mem::take(&mut self.failures)
    }

    fn detail(&self) -> Vec<(&'static str, J, &'static str)> {
        let mut d = vec![
            (
                "core.final_loss",
                J::Num(self.losses.last().copied().unwrap_or(0.0)),
                "nats",
            ),
            ("core.loss_by_epoch", J::nums(&self.losses), "nats"),
        ];
        if let Some([prep, transfer, train]) = self.stage_shares {
            d.push(("core.prep_wait_share", J::Num(prep), "share"));
            d.push(("core.transfer_share", J::Num(transfer), "share"));
            d.push(("core.train_share", J::Num(train), "share"));
        }
        d
    }

    fn recipe(&self) -> Recipe {
        Recipe {
            batch_size: BATCH,
            fanouts: TRAIN_FANOUTS.to_vec(),
            hidden: 128,
            stream: self.stream.clone(),
            on_path: &[
                Step::Sample,
                Step::Slice,
                Step::Widen,
                Step::ForwardTrain,
                Step::Backward,
                Step::Optim,
            ],
        }
    }
}

// ------------------------------------------------------------------ infer_sweep

/// `Trainer::evaluate_sampled` at fanouts 20,20,20: a serial, forward-only
/// path where the sampler is about a third of the time.
struct InferSweep {
    trainer: Trainer,
    nodes: Vec<NodeId>,
    first: Option<Vec<u32>>,
    acc: f64,
    chance: f64,
    failures: Vec<String>,
}

impl InferSweep {
    fn new(ds: Arc<Dataset>, seed: u64, trace: Trace) -> Self {
        let nodes = ds.splits.test[..INFER_NODES].to_vec();
        let chance = 1.0 / ds.num_classes as f64;
        let mut trainer = Trainer::with_trace(ds, run_config(seed, 3, 64, &TRAIN_FANOUTS), trace);
        for _ in 0..SETUP_EPOCHS {
            trainer.train_epoch();
        }
        InferSweep {
            trainer,
            nodes,
            first: None,
            acc: 0.0,
            chance,
            failures: Vec::new(),
        }
    }
}

impl Workload for InferSweep {
    fn pass(&mut self) -> Pass {
        let (acc, preds) = self.trainer.evaluate_sampled(&self.nodes, &INFER_FANOUTS);
        self.acc = acc;
        let first = self.first.get_or_insert_with(|| preds.clone());
        let mismatched = first.iter().zip(&preds).filter(|(a, b)| a != b).count()
            + first.len().abs_diff(preds.len());
        if mismatched > 0 {
            self.failures.push(format!(
                "{mismatched} predictions differ from the first pass"
            ));
        }
        Pass {
            seeds: self.nodes.len(),
            batches: self.nodes.len().div_ceil(BATCH),
            attempted: self.nodes.len(),
            failed: mismatched,
        }
    }

    fn failures(&mut self) -> Vec<String> {
        // Two set-up epochs of 8 batches reach 0.11-0.37 on 47 classes
        // (25 seeds); an inference path that mixes up rows falls to chance
        // (0.02).
        if self.first.is_some() && self.acc < 2.0 * self.chance {
            self.failures.push(format!(
                "test_acc {} is below 2x chance ({})",
                self.acc, self.chance
            ));
        }
        std::mem::take(&mut self.failures)
    }

    fn detail(&self) -> Vec<(&'static str, J, &'static str)> {
        vec![("core.test_acc", J::Num(self.acc), "share")]
    }

    fn recipe(&self) -> Recipe {
        Recipe {
            batch_size: BATCH,
            fanouts: INFER_FANOUTS.to_vec(),
            hidden: 64,
            // The pass's own two batches: on a cache-resident graph a replay
            // of other nodes would run colder than the pass does.
            stream: self.nodes.clone(),
            on_path: &[Step::Sample, Step::Slice, Step::Widen, Step::ForwardEval],
        }
    }
}

// ------------------------------------------------------------------ prep_stream

/// `batchprep::run_epoch` with a consumer that only drops each batch:
/// preparation alone, the ceiling once the trainer is fast.
///
/// One worker, not the two the box has cores for: with two, both vCPUs are
/// memory-bound at once and the fastest pass of a 15 s window ranged 44 %
/// from window to window in sizing runs, against 13 % with one. How a
/// second worker scales is measured per layer (`batchprep.worker_scaling`).
struct PrepStream {
    ds: Arc<Dataset>,
    order: Vec<NodeId>,
    cfg: PrepConfig,
    failures: Vec<String>,
}

impl PrepStream {
    fn new(ds: Arc<Dataset>, seed: u64, trace: Trace) -> Self {
        let mut order: Vec<NodeId> = (0..ds.graph.num_nodes() as NodeId).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0BDE));
        order.truncate(order.len() / BATCH * BATCH);
        let cfg = PrepConfig {
            num_workers: 1,
            fanouts: TRAIN_FANOUTS.to_vec(),
            batch_size: BATCH,
            slots: 4,
            mode: PrepMode::SharedMemory,
            sampler: SamplerKind::Fast,
            seed,
            trace,
            ..PrepConfig::default()
        };
        PrepStream {
            ds,
            order,
            cfg,
            failures: Vec::new(),
        }
    }

    /// The staged rows and labels of a prepared batch against the dataset.
    fn verify(&self, b: &PreparedBatch) -> Result<(), String> {
        b.mfg.validate()?;
        let dim = self.ds.features.dim();
        let chunk = &self.order[b.batch_id * BATCH..][..b.mfg.batch_size()];
        if &b.mfg.node_ids[..chunk.len()] != chunk {
            return Err("the batch's seed nodes are not its slice of the order".into());
        }
        for (i, &v) in b.mfg.node_ids.iter().enumerate().step_by(97) {
            if b.slot.features().view(i * dim, dim) != self.ds.features.row(v) {
                return Err(format!("staged row {i} is not the feature row of node {v}"));
            }
        }
        for (i, &v) in chunk.iter().enumerate() {
            if b.slot.labels()[i] != self.ds.labels[v as usize] {
                return Err(format!("staged label {i} is not the label of node {v}"));
            }
        }
        Ok(())
    }
}

/// Streams one epoch of preparation into a consumer that looks at the first
/// batch and drops them all; returns `(ready, failed)` batch counts.
pub fn stream_epoch(
    ds: &Arc<Dataset>,
    order: &[NodeId],
    cfg: &PrepConfig,
    mut first: impl FnMut(&PreparedBatch),
) -> (usize, usize) {
    let handle = run_epoch(ds, order, cfg);
    let (mut ready, mut failed) = (0, 0);
    while let Ok(result) = handle.batches.recv() {
        match result {
            BatchResult::Ready(batch) => {
                if ready == 0 {
                    first(&batch);
                }
                ready += 1;
            }
            BatchResult::Failed { .. } => failed += 1,
        }
    }
    handle.join();
    (ready, failed)
}

impl Workload for PrepStream {
    fn pass(&mut self) -> Pass {
        let expected = self.order.len().div_ceil(BATCH);
        // Checking one batch a pass keeps the consumer a sink.
        let mut verdict = Ok(());
        let (ready, failed) = stream_epoch(&self.ds, &self.order, &self.cfg, |batch| {
            verdict = self
                .verify(batch)
                .map_err(|e| format!("batch {}: {e}", batch.batch_id));
        });
        self.failures.extend(verdict.err());
        if ready != expected {
            self.failures
                .push(format!("{ready} batches ready, expected {expected}"));
        }
        Pass {
            seeds: self.order.len(),
            batches: expected,
            attempted: expected,
            failed,
        }
    }

    fn failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }

    fn detail(&self) -> Vec<(&'static str, J, &'static str)> {
        Vec::new()
    }

    fn recipe(&self) -> Recipe {
        Recipe {
            batch_size: BATCH,
            fanouts: TRAIN_FANOUTS.to_vec(),
            hidden: 128,
            stream: self.order.clone(),
            on_path: &[Step::Sample, Step::Slice],
        }
    }
}

// ------------------------------------------------------------------- serve_open

/// The serving configuration of `serve_open` and of the fixed serve probe.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        max_batch: SERVE_MAX_BATCH,
        queue_capacity: 256,
        seed,
        ..ServeConfig::default()
    }
}

/// What a closed loop of full micro-batches measured.
pub struct ClosedLoop {
    pub served: usize,
    pub failed: usize,
    pub submit_ns: Vec<f64>,
    pub step_us: Vec<f64>,
}

/// Submits `batches` full micro-batches one after the other, each stepped
/// before the next is submitted: the server is never idle and never queues.
pub fn closed_loop(
    core: &mut ServerCore,
    nodes: &[NodeId],
    batches: usize,
    first_id: u64,
) -> ClosedLoop {
    let mut out = ClosedLoop {
        served: 0,
        failed: 0,
        submit_ns: Vec::new(),
        step_us: Vec::new(),
    };
    let mut id = first_id;
    for b in 0..batches {
        for i in 0..SERVE_MAX_BATCH {
            let node = nodes[(b * SERVE_MAX_BATCH + i) % nodes.len()];
            let t0 = now_ns();
            let admitted = core.submit(Request {
                id,
                node,
                deadline_ns: t0 + 1_000_000_000,
            });
            out.submit_ns.push((now_ns() - t0) as f64);
            out.failed += usize::from(admitted.is_err());
            id += 1;
        }
        let t0 = now_ns();
        let step = core.step();
        out.step_us.push((now_ns() - t0) as f64 / 1e3);
        for (_, resp) in step.responses {
            if resp.is_done() {
                out.served += 1;
            } else {
                out.failed += 1;
            }
        }
    }
    out
}

/// Every arrival of one open-loop phase, accounted for exactly once.
#[derive(Default)]
struct Phase {
    generated: usize,
    gen_missed: usize,
    rejected_overload: usize,
    rejected_infeasible: usize,
    expired: usize,
    panicked: usize,
    /// Completed, but later than the budget counted from the due instant.
    late: usize,
    good: usize,
    degraded: usize,
    steps: usize,
    gen_lag_max_ns: u64,
    /// Latency of each completion from the instant its arrival was due.
    latency_us: Vec<f64>,
    elapsed_s: f64,
}

impl Phase {
    fn offered(&self) -> usize {
        self.generated - self.gen_missed
    }

    fn completed(&self) -> usize {
        self.good + self.late
    }

    fn not_good(&self) -> usize {
        self.offered() - self.good
    }

    /// Adds another window at the same rate to this one.
    fn absorb(&mut self, w: Phase) {
        self.generated += w.generated;
        self.gen_missed += w.gen_missed;
        self.rejected_overload += w.rejected_overload;
        self.rejected_infeasible += w.rejected_infeasible;
        self.expired += w.expired;
        self.panicked += w.panicked;
        self.late += w.late;
        self.good += w.good;
        self.degraded += w.degraded;
        self.steps += w.steps;
        self.gen_lag_max_ns = self.gen_lag_max_ns.max(w.gen_lag_max_ns);
        self.latency_us.extend(w.latency_us);
        self.elapsed_s += w.elapsed_s;
    }
}

/// Single-threaded `ServerCore` under Poisson arrivals at fixed rates:
/// the same sampler/batchprep/nn code at batch 1-16 instead of 256.
struct ServeOpen {
    core: ServerCore,
    nodes: Vec<NodeId>,
    seed: u64,
    next_id: u64,
    mid: Phase,
    over: Phase,
    failures: Vec<String>,
}

impl ServeOpen {
    fn new(ds: Arc<Dataset>, seed: u64, trace: Trace) -> Self {
        let mut trainer = Trainer::with_trace(
            Arc::clone(&ds),
            run_config(seed, 2, 64, &SERVE_FANOUTS),
            Trace::disabled(),
        );
        trainer.train_epoch();
        let mut nodes: Vec<NodeId> = (0..ds.graph.num_nodes() as NodeId).collect();
        nodes.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5E7E));
        let core = ServerCore::new(trainer.into_model(), ds, serve_config(seed), trace);
        ServeOpen {
            core,
            nodes,
            seed,
            next_id: 0,
            mid: Phase::default(),
            over: Phase::default(),
            failures: Vec::new(),
        }
    }

    /// Drives the core through Poisson arrivals at `rate` for `seconds`,
    /// each due `budget_ns` after its instant, generator and server on one
    /// thread: arrivals are submitted as their instants pass, a micro-batch
    /// runs whenever work is queued, and the generator spins (never sleeps)
    /// through idle gaps.
    fn open_loop(&mut self, rate: f64, seconds: f64, budget_ns: u64, trace_seed: u64) -> Phase {
        let arrivals = loadgen::poisson_trace(
            trace_seed,
            rate,
            (seconds * 1e9) as u64,
            self.nodes.len(),
            budget_ns,
        );
        let mut p = Phase {
            generated: arrivals.len(),
            ..Phase::default()
        };
        // Lag of each admitted arrival behind its due instant, by request id.
        let mut lag_ns = vec![0u64; arrivals.len()];
        let first_id = self.next_id;
        self.next_id += arrivals.len() as u64;
        let t0 = now_ns();
        let mut next = 0;
        while next < arrivals.len() || self.core.pending() > 0 {
            let now = now_ns() - t0;
            while next < arrivals.len() && arrivals[next].at_ns <= now {
                let a = arrivals[next];
                let lag = now - a.at_ns;
                p.gen_lag_max_ns = p.gen_lag_max_ns.max(lag);
                if lag > GEN_MISSED_NS {
                    p.gen_missed += 1;
                } else {
                    lag_ns[next] = lag;
                    let req = Request {
                        id: first_id + next as u64,
                        node: a.node,
                        deadline_ns: t0 + a.at_ns + a.budget_ns,
                    };
                    match self.core.submit(req) {
                        Ok(()) => {}
                        Err(Rejected::Overload) => p.rejected_overload += 1,
                        Err(Rejected::DeadlineInfeasible) => p.rejected_infeasible += 1,
                    }
                }
                next += 1;
            }
            if self.core.pending() == 0 {
                std::hint::spin_loop();
                continue;
            }
            p.steps += 1;
            for (id, resp) in self.core.step().responses {
                match resp {
                    Response::Done {
                        latency_ns,
                        fanout_level,
                        ..
                    } => {
                        let from_due = latency_ns + lag_ns[(id - first_id) as usize];
                        p.latency_us.push(from_due as f64 / 1e3);
                        p.degraded += usize::from(fanout_level > 0);
                        if from_due <= budget_ns {
                            p.good += 1;
                        } else {
                            p.late += 1;
                        }
                    }
                    Response::Expired(_) => p.expired += 1,
                    Response::Failed => p.panicked += 1,
                    // `step` never rejects; an untyped path would land here.
                    Response::Rejected(_) => {
                        self.failures.push(format!("request {id} rejected by step"))
                    }
                }
            }
        }
        p.elapsed_s = secs(t0, now_ns());
        let accounted = p.completed()
            + p.rejected_overload
            + p.rejected_infeasible
            + p.expired
            + p.panicked
            + p.gen_missed;
        if accounted != p.generated {
            self.failures.push(format!(
                "{accounted} of {} arrivals at {rate}/s accounted for",
                p.generated
            ));
        }
        p
    }
}

impl Workload for ServeOpen {
    fn pass(&mut self) -> Pass {
        let run = closed_loop(&mut self.core, &self.nodes, CLOSED_BATCHES, self.next_id);
        let attempted = CLOSED_BATCHES * SERVE_MAX_BATCH;
        self.next_id += attempted as u64;
        if run.served + run.failed != attempted {
            self.failures.push(format!(
                "closed loop answered {} of {attempted}",
                run.served + run.failed
            ));
        }
        Pass {
            seeds: run.served,
            batches: CLOSED_BATCHES,
            attempted,
            failed: run.failed,
        }
    }

    /// Alternates a window at `R_MID` (latency) with a shorter one at
    /// `R_OVER` (goodput under overload) until `seconds` are up, and
    /// reports the best window of each, as the pass-based workloads report
    /// their best pass. Sheds at `R_OVER` are the designed, typed answer to
    /// overload; only `R_MID` arrivals count as attempted.
    fn run_e2e(&mut self, seconds: f64, smoke: bool) -> E2e {
        closed_loop(&mut self.core, &self.nodes, 64, u64::MAX / 2);
        // Windows a host freeze reached (the generator missed arrivals)
        // describe the freeze, not the server: they are not candidates.
        let (mut p50_ms, mut goodput) = (Vec::new(), Vec::new());
        let t0 = now_ns();
        for round in 0u64.. {
            let mid_seed = self.seed ^ 0x31D ^ (round << 20);
            let mid = self.open_loop(R_MID, MID_WINDOW_S, MID_BUDGET_NS, mid_seed);
            if mid.gen_missed == 0 {
                p50_ms.push(median(&mid.latency_us) / 1e3);
            }
            self.mid.absorb(mid);
            let over_seed = self.seed ^ 0x0FE2 ^ (round << 20);
            let over = self.open_loop(R_OVER, OVER_WINDOW_S, SERVE_BUDGET_NS, over_seed);
            if over.gen_missed == 0 {
                goodput.push(over.good as f64 / over.elapsed_s);
            }
            self.over.absorb(over);
            if smoke || secs(t0, now_ns()) + MID_WINDOW_S + OVER_WINDOW_S > seconds {
                break;
            }
        }
        if p50_ms.is_empty() || goodput.is_empty() {
            self.failures
                .push("the host froze in every window at one of the rates: the run is void".into());
        }
        E2e {
            seeds_per_s: greatest(&goodput),
            latency_ms_p50: least(&p50_ms),
            attempted: self.mid.offered(),
            failed: self.mid.not_good(),
        }
    }

    fn failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }

    fn detail(&self) -> Vec<(&'static str, J, &'static str)> {
        let (mid, over) = (&self.mid, &self.over);
        if mid.generated == 0 {
            return Vec::new();
        }
        let share = |n: usize, of: usize| J::Num(n as f64 / of.max(1) as f64);
        vec![
            ("serve.rate_mid_rps", J::Num(R_MID), "1/s"),
            ("serve.rate_over_rps", J::Num(R_OVER), "1/s"),
            ("serve.offered_mid", J::Num(mid.offered() as f64), "count"),
            (
                "serve.completed_mid",
                J::Num(mid.completed() as f64),
                "count",
            ),
            (
                "serve.p90_us_mid",
                J::Num(quantile(&mid.latency_us, 0.9)),
                "us",
            ),
            (
                "serve.p99_us_mid",
                J::Num(quantile(&mid.latency_us, 0.99)),
                "us",
            ),
            (
                "serve.batch_size_mean",
                J::Num(mid.completed() as f64 / mid.steps.max(1) as f64),
                "count",
            ),
            (
                "serve.fail_share_mid",
                share(mid.not_good(), mid.offered()),
                "share",
            ),
            (
                "serve.degraded_share_mid",
                share(mid.degraded, mid.completed()),
                "share",
            ),
            ("serve.offered_over", J::Num(over.offered() as f64), "count"),
            (
                "serve.completed_over",
                J::Num(over.completed() as f64),
                "count",
            ),
            ("serve.p50_us_over", J::Num(median(&over.latency_us)), "us"),
            (
                "serve.shed_share_over",
                share(
                    over.rejected_overload + over.rejected_infeasible,
                    over.offered(),
                ),
                "share",
            ),
            (
                "serve.degraded_share_over",
                share(over.degraded, over.completed()),
                "share",
            ),
            (
                "serve.expired_share",
                share(mid.expired + over.expired, mid.offered() + over.offered()),
                "share",
            ),
            (
                "serve.gen_lag_max_ms",
                J::Num(mid.gen_lag_max_ns.max(over.gen_lag_max_ns) as f64 / 1e6),
                "ms",
            ),
            (
                "serve.gen_missed_share",
                share(
                    mid.gen_missed + over.gen_missed,
                    mid.generated + over.generated,
                ),
                "share",
            ),
        ]
    }

    fn recipe(&self) -> Recipe {
        Recipe {
            batch_size: SERVE_MAX_BATCH,
            fanouts: SERVE_FANOUTS.to_vec(),
            hidden: 64,
            stream: self.nodes.clone(),
            on_path: &[Step::Sample, Step::Slice, Step::Widen, Step::ForwardEval],
        }
    }
}
