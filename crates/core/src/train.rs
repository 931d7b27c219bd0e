//! The training loop over real data: one consumer loop
//! ([`Trainer::consume`]) and one optimizer step ([`train_step`]), fed two ways.
//!
//! The baseline executor (Listing 1) is the SALIENT consumer whose source
//! prepares instead of receives: it samples and slices each batch inside the
//! loop's source — the serial reference. The SALIENT executor receives
//! batches that shared-memory workers prepared while the consumer trained;
//! that worker-side preparation is the overlap of this plane. The consumer
//! itself is one thread under either executor. Nothing widens a staged
//! batch: the step's tape is lent the pinned slot ([`lend`]), its first
//! layer reads the rows at the width they are stored, and the slot returns
//! to the pool when that tape drops. A DDP rank trains through the same
//! lend and the same step (`crate::ddp_train`).

use crate::config::{ExecutorKind, RunConfig, Stream};
use crate::timing::StageTimings;
use crate::infer::BatchInferencer;
use salient_batchprep::{
    batch_seed, run_epoch_with_pool, slice_batch_into, BatchResult, PinnedPool, PreparedBatch,
};
use salient_fault as fault;
use salient_graph::{Dataset, NodeId};
use salient_nn::{metrics, GnnModel, Mode};
use salient_sampler::{FastSampler, MessageFlowGraph, PygSampler};
use salient_tensor::optim::{zero_grads, Adam, Optimizer};
use salient_tensor::rng::SliceRandom;
use salient_tensor::rng::StdRng;
use salient_tensor::{Tape, Tensor, Var};
use salient_trace::names::{self, SpanName};
use salient_trace::{analyze, Clock, Trace, NO_BATCH};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Lends `batch`'s pinned slot to a fresh tape: the features are the staged
/// rows where they lie, and the slot goes back to its pool when the tape
/// drops — before the optimizer runs, or as the step unwinds. Fires
/// `pipe.train` once the tape holds the slot; `None` if that site drops it.
pub(crate) fn lend(batch: PreparedBatch, dim: usize) -> Option<(Tape, Var, MessageFlowGraph, Vec<u32>)> {
    let PreparedBatch { batch_id, mfg, slot } = batch;
    let labels = slot.labels().to_vec();
    let tape = Tape::new();
    let x = tape.constant_rows(Rc::new(slot), dim);
    let dropped = fault::fire(fault::sites::PIPE_TRAIN, batch_id as u64);
    (!dropped).then_some((tape, x, mfg, labels))
}

/// One optimizer step, the only one this crate spells: forward and backward
/// over `batch` (the tape its features were recorded on, those features as
/// a constant on it, the MFG, the labels), gradients into the parameters,
/// `sync_grads`, then the update. Returns the batch's loss.
///
/// `sync_grads` runs between the gradients landing in the parameters and the
/// optimizer reading them — where a DDP rank all-reduces — and its error
/// leaves the step untaken. A rank with no batch for a step passes none: it
/// joins the collective with zero gradients and reports loss 0.
///
/// The features enter as a constant, so nothing is differentiated with
/// respect to them, and the tape — with every buffer it holds, a lent
/// staging slot included — is released before `sync_grads` and the optimizer
/// run.
pub(crate) fn train_step<E>(
    model: &mut dyn GnnModel,
    opt: &mut Adam,
    rng: &mut StdRng,
    batch: Option<(Tape, Var, &MessageFlowGraph, &[u32])>,
    sync_grads: impl FnOnce(&mut dyn GnnModel) -> Result<(), E>,
) -> Result<f64, E> {
    let computed = batch.map(|(tape, x, mfg, labels)| {
        let targets: Vec<usize> = labels.iter().map(|&c| c as usize).collect();
        let out = model.forward(&tape, x, mfg, Mode::Train, rng);
        let loss = out.nll_loss(&targets);
        (loss.value().item() as f64, tape.backward(&loss))
    });
    zero_grads(model.params_mut().into_iter());
    let loss = computed.map_or(0.0, |(loss, grads)| {
        grads.apply_to(model.params_mut());
        loss
    });
    sync_grads(model)?;
    opt.step(model.params_mut().into_iter());
    Ok(loss)
}

/// Result of one training epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training NLL loss over the batches trained; NaN when none was.
    pub mean_loss: f64,
    /// Number of batches trained.
    pub batches: usize,
    /// Batches of the epoch that were not trained: preparation exhausted
    /// its retry budget, the train step dropped or panicked on the batch, or
    /// the run poisoned before reaching it. `batches + failed_batches` is
    /// the epoch's batch count (always 0 unless fault injection or real
    /// faults occurred).
    pub failed_batches: usize,
    /// Blocking-time breakdown.
    pub timings: StageTimings,
}

/// Trains and evaluates a GNN on a synthetic dataset.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use salient_core::{RunConfig, Trainer};
/// use salient_graph::DatasetConfig;
///
/// let ds = Arc::new(DatasetConfig::tiny(0).build());
/// let mut trainer = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny());
/// let stats = trainer.train_epoch();
/// assert!(stats.mean_loss.is_finite());
/// ```
pub struct Trainer {
    dataset: Arc<Dataset>,
    config: RunConfig,
    model: Box<dyn GnnModel>,
    opt: Adam,
    rng: StdRng,
    epoch: usize,
    trace: Trace,
    /// The staging slots of every epoch, either executor's: pinned memory
    /// "cannot be allocated per batch without large costs" (§4.2), nor per
    /// epoch.
    pool: PinnedPool,
    /// `evaluate_sampled`'s sampler and one-slot inferencer, built on first
    /// use and kept: a sweep may be one call of two batches.
    eval: Option<(FastSampler, BatchInferencer)>,
}

impl Trainer {
    /// Builds the model and optimizer for a dataset. Tracing is enabled
    /// against the monotonic clock; use [`Trainer::with_trace`] to supply a
    /// disabled handle or a [`salient_trace::VirtualClock`]-backed one.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see `RunConfig::validate`).
    pub fn new(dataset: Arc<Dataset>, config: RunConfig) -> Self {
        Trainer::with_trace(dataset, config, Trace::new(Clock::monotonic()))
    }

    /// Like [`Trainer::new`] with an explicit tracing handle. Every epoch
    /// records `epoch` / `stage.*` spans against it;
    /// [`EpochStats::timings`] is derived from those spans, so a disabled
    /// handle reports zero timings.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn with_trace(dataset: Arc<Dataset>, config: RunConfig, trace: Trace) -> Self {
        config.validate();
        // With a flight recorder attached, arm the fault-site observer so a
        // triggered injection dumps the recorder *before* the action (e.g.
        // an injected panic) lands — the dump names the site and carries the
        // failing batch's causal window.
        if trace.blackbox().is_some() {
            let obs_trace = trace.clone();
            fault::set_fire_observer(Some(std::sync::Arc::new(move |site: &str, occ: u64| {
                if let Some(bb) = obs_trace.blackbox() {
                    let _ = bb.dump(&obs_trace, site, occ);
                }
            })));
        }
        let model = config.build_model(&dataset);
        let opt = Adam::new(config.learning_rate);
        let rng = StdRng::seed_from_u64(Stream::Trainer.seed(config.seed));
        let features = &dataset.features;
        let pool = PinnedPool::new(config.slots, 0, features.dim(), 0, features.dtype());
        Trainer {
            dataset,
            config,
            model,
            opt,
            rng,
            epoch: 0,
            trace,
            pool,
            eval: None,
        }
    }

    /// The tracing handle this trainer records against.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The wrapped model.
    pub fn model(&self) -> &dyn GnnModel {
        self.model.as_ref()
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut dyn GnnModel {
        self.model.as_mut()
    }

    /// The staging pool every epoch of this trainer prepares into
    /// (diagnostics: between epochs `available()` must equal `capacity()`,
    /// and the slots' buffers are the ones the first epoch grew).
    pub fn staging_pool(&self) -> &PinnedPool {
        &self.pool
    }

    /// Trains for `config.epochs` epochs.
    pub fn fit(&mut self) -> Vec<EpochStats> {
        (0..self.config.epochs).map(|_| self.train_epoch()).collect()
    }

    /// One optimizer step on a batch of widened features; returns the loss.
    pub fn train_batch(&mut self, mfg: &MessageFlowGraph, features: Tensor, labels: &[u32]) -> f64 {
        let tape = Tape::new();
        let x = tape.constant(features);
        self.step((tape, x, mfg, labels))
    }

    /// One optimizer step on a prepared batch, as an epoch's consumer loop
    /// takes it; returns the loss, or `None` when the `pipe.train` fault
    /// site drops the batch untrained. The step's tape is lent the batch's
    /// pinned slot and reads the staged rows where they lie, at the width
    /// they are stored; the slot goes back to its pool with the tape, before
    /// the optimizer runs — or when the step unwinds.
    pub fn train_prepared(&mut self, batch: PreparedBatch) -> Option<f64> {
        let (tape, x, mfg, labels) = lend(batch, self.dataset.features.dim())?;
        Some(self.step((tape, x, &mfg, &labels)))
    }

    /// [`train_step`] with nothing between the gradients and the update.
    fn step(&mut self, batch: (Tape, Var, &MessageFlowGraph, &[u32])) -> f64 {
        let Ok(loss) = train_step(self.model.as_mut(), &mut self.opt, &mut self.rng, Some(batch), |_| {
            Ok::<(), Infallible>(())
        });
        loss
    }

    /// Runs one training epoch with the configured executor. Both run the
    /// consumer loop of [`Trainer::consume`] on the same prepared batches and
    /// differ in the source that feeds it:
    ///
    /// * Baseline (Listing 1) prepares the next batch inside the source, on
    ///   this thread, so the loop records preparation as the `stage.prep`
    ///   span: prep and train run back to back with shared boundary
    ///   timestamps — the serial reference.
    /// * SALIENT receives batches that shared-memory workers prepared
    ///   concurrently, so `stage.prep` is only the time the consumer blocks.
    ///   Workers record into the same trace registry (sample/slice spans,
    ///   slot-wait backpressure, fault events): one snapshot holds the
    ///   trainer's stalls *and* the prep work they overlapped with.
    pub fn train_epoch(&mut self) -> EpochStats {
        let mut order = self.dataset.splits.train.clone();
        order.shuffle(&mut self.rng);
        let trace = self.trace.clone();
        let clock = trace.clock();
        let epoch_start = clock.now_ns();
        let epoch_seed = Stream::Prep { epoch: self.epoch }.seed(self.config.seed);
        let (total_loss, batches) = match self.config.executor {
            ExecutorKind::Baseline => {
                // Listing 1, lines 1–4, inside the source: the consumer sees
                // what a SALIENT worker would have sent, with none of the
                // worker's retries, fault sites or cancellation — a panic
                // here is the caller's. No fill: the first batch's
                // preparation is work, not pipeline fill. Each batch draws
                // the stream a worker's first attempt at it would. Panic
                // budget 0: the first panicking step poisons the run.
                let mut sampler = PygSampler::new(0);
                let mut chunks = order.chunks(self.config.batch_size).enumerate();
                let (dataset, pool) = (Arc::clone(&self.dataset), self.pool.clone());
                let fanouts = self.config.train_fanouts.clone();
                self.consume(0, names::spans::STAGE_PREP, move || {
                    let (batch_id, chunk) = chunks.next()?;
                    sampler.reseed(batch_seed(epoch_seed, batch_id, 0));
                    let mfg = sampler.sample(&dataset.graph, chunk, &fanouts);
                    let mut slot = pool.acquire();
                    slot.prepare(mfg.num_nodes(), dataset.features.dim(), mfg.batch_size());
                    slice_batch_into(&dataset, &mfg, &mut slot);
                    Some(BatchResult::Ready(PreparedBatch { batch_id, mfg, slot }))
                })
            }
            ExecutorKind::Salient => {
                let prep_cfg = self.config.prep_config(self.config.num_workers, epoch_seed, &trace);
                let handle = run_epoch_with_pool(&self.dataset, &order, &prep_cfg, &self.pool);
                let rx = &handle.batches;
                // Panic budget 2: an isolated step panic retires its batch
                // (it counts among `failed_batches`, mirroring prep's
                // retry-exhaustion policy); repetition beyond the budget
                // poisons the run, because a recurring panic is a bug, not
                // a flaky batch. The first wait is pipeline fill.
                let consumed = self.consume(2, names::spans::WARMUP, move || rx.recv().ok());
                handle.join();
                consumed
            }
        };
        let epoch_end = clock.now_ns();
        trace.record_span(names::spans::EPOCH, NO_BATCH, epoch_start, epoch_end);
        // The timings are a view of this epoch's spans: only its window is
        // flushed and snapshotted, so epoch `k` does not pay for the `k - 1`
        // before it.
        let window = trace.snapshot_window(epoch_start, epoch_end);
        let stats = EpochStats {
            epoch: self.epoch,
            mean_loss: total_loss / batches as f64,
            batches,
            // Whatever left the loop early — a failed preparation, a
            // dropped or panicked batch — or was never pulled because the
            // run poisoned, was not trained.
            failed_batches: order.len().div_ceil(self.config.batch_size) - batches,
            timings: StageTimings::from_report(&analyze(&window)),
        };
        self.epoch += 1;
        stats
    }

    /// The consumer side of an epoch, the same for both executors, on this
    /// thread: pull a message from `source`, file the wait for it (the first
    /// as `first_wait`, the rest as `stage.prep`: Table 1's "prep" column),
    /// count the bytes a host→device copy would move, train the batch under
    /// one panic guard and record `stage.train`. A caught panic retires its
    /// batch; the one past `panic_budget` poisons the run (an event and a
    /// flight-recorder dump) and nothing more is pulled. Returns `(summed
    /// loss, batches trained)`.
    fn consume(
        &mut self,
        panic_budget: u64,
        first_wait: SpanName,
        mut source: impl FnMut() -> Option<BatchResult>,
    ) -> (f64, usize) {
        let trace = self.trace.clone();
        let clock = trace.clock();
        let transfer_bytes = trace.counter(names::counters::TRANSFER_BYTES);
        let (mut total_loss, mut batches, mut panics) = (0.0, 0usize, 0u64);
        let mut wait = first_wait;
        loop {
            let t0 = clock.now_ns();
            let Some(result) = source() else {
                break;
            };
            let bid = result.batch_id() as u64;
            let t1 = clock.now_ns();
            trace.record_span(std::mem::replace(&mut wait, names::spans::STAGE_PREP), bid, t0, t1);
            let Some(batch) = result.ready() else {
                continue;
            };
            transfer_bytes.add(batch.slot.payload_bytes() as u64);
            match catch_unwind(AssertUnwindSafe(|| self.train_prepared(batch))) {
                Ok(Some(loss)) => {
                    trace.record_span(names::spans::STAGE_TRAIN, bid, t1, clock.now_ns());
                    total_loss += loss;
                    batches += 1;
                }
                Ok(None) => {}
                Err(_) => {
                    panics += 1;
                    trace.instant(names::events::PIPE_STAGE_PANIC, bid);
                    if panics > panic_budget {
                        trace.instant(names::events::PIPE_POISONED, bid);
                        if let Some(bb) = trace.blackbox() {
                            let _ = bb.dump(&trace, names::events::PIPE_POISONED.as_str(), bid);
                        }
                        break;
                    }
                }
            }
        }
        (total_loss, batches)
    }

    /// Sampled mini-batch inference over `nodes` with the given fanouts.
    /// Returns `(accuracy, predictions)`.
    ///
    /// Runs through [`crate::infer::BatchInferencer`] — the same pinned-slot
    /// staging path the serving layer uses, numerically identical to a
    /// direct f32 gather (staging copies the packed values; the first layer
    /// widens them, exactly, as `gather_f32` would have).
    pub fn evaluate_sampled(&mut self, nodes: &[NodeId], fanouts: &[usize]) -> (f64, Vec<u32>) {
        let seed = Stream::Eval.seed(self.config.seed);
        let (sampler, inferencer) = self.eval.get_or_insert_with(|| {
            let inferencer =
                BatchInferencer::new(Arc::clone(&self.dataset), self.config.batch_size, &self.trace);
            (FastSampler::new(seed), inferencer)
        });
        // Every call draws the same stream, as when each built its sampler.
        sampler.reseed(seed);
        let mut preds = Vec::with_capacity(nodes.len());
        for chunk in nodes.chunks(self.config.batch_size) {
            let mfg = sampler.sample(&self.dataset.graph, chunk, fanouts);
            preds.extend(inferencer.infer_mfg(self.model.as_mut(), &mfg, &mut self.rng));
        }
        let targets: Vec<u32> = nodes.iter().map(|&v| self.dataset.labels[v as usize]).collect();
        (metrics::accuracy(&preds, &targets), preds)
    }

    /// Consumes the trainer, handing its trained model to another owner
    /// (the serving layer takes the model without the training scaffolding).
    /// Training is over for this thread: its recycled buffers are freed
    /// instead of idling under whatever the model's new owner does.
    pub fn into_model(self) -> Box<dyn GnnModel> {
        salient_tensor::kernels::release_scratch();
        self.model
    }

    /// Full-neighborhood inference ("fanout: all" in Table 6) via the
    /// layer-wise trick: an MFG whose every hop is the entire graph.
    ///
    /// Memory scales with `num_nodes × hidden`, which is exactly why the
    /// paper's papers100M run goes out of memory on this path.
    pub fn evaluate_full(&mut self, nodes: &[NodeId]) -> (f64, Vec<u32>) {
        let mfg = crate::infer::full_graph_mfg(&self.dataset.graph, self.config.num_layers);
        let tape = Tape::no_grad();
        let x = tape.constant(self.dataset.features.gather_f32(&mfg.node_ids));
        let out = self
            .model
            .forward(&tape, x, &mfg, Mode::Eval, &mut self.rng);
        let all_preds = metrics::argmax_rows(&out.value());
        let preds: Vec<u32> = nodes.iter().map(|&v| all_preds[v as usize]).collect();
        let targets: Vec<u32> = nodes.iter().map(|&v| self.dataset.labels[v as usize]).collect();
        (metrics::accuracy(&preds, &targets), preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;
    use salient_tensor::Dtype;

    fn dataset() -> Arc<Dataset> {
        Arc::new(DatasetConfig::tiny(42).build())
    }

    #[test]
    fn baseline_and_salient_both_reduce_loss() {
        for executor in [ExecutorKind::Baseline, ExecutorKind::Salient] {
            let cfg = RunConfig {
                executor,
                epochs: 4,
                ..RunConfig::test_tiny()
            };
            let mut trainer = Trainer::new(dataset(), cfg);
            let history = trainer.fit();
            let first = history.first().unwrap().mean_loss;
            let last = history.last().unwrap().mean_loss;
            assert!(
                last < first,
                "{executor:?}: loss should fall, {first:.3} -> {last:.3}"
            );
        }
    }

    /// The oracle the executors are checked against: Listing 1 written out
    /// by hand, sharing nothing with the consumer loop but `train_batch` and
    /// the per-batch reseed.
    #[test]
    fn baseline_epochs_equal_a_hand_written_listing_1_loop_bitwise() {
        for dtype in [Dtype::F16, Dtype::F32] {
            let ds = Arc::new(DatasetConfig { dtype, ..DatasetConfig::tiny(42) }.build());
            let cfg = RunConfig { executor: ExecutorKind::Baseline, ..RunConfig::test_tiny() };
            let mut trainer = Trainer::new(Arc::clone(&ds), cfg.clone());
            let mut by_hand = Trainer::new(Arc::clone(&ds), cfg.clone());
            for epoch in 0..2 {
                let mut order = ds.splits.train.clone();
                order.shuffle(&mut by_hand.rng);
                let epoch_seed = Stream::Prep { epoch }.seed(cfg.seed);
                let mut sampler = PygSampler::new(0);
                let mut total = 0.0;
                let mut batches = 0usize;
                for (batch_id, chunk) in order.chunks(cfg.batch_size).enumerate() {
                    sampler.reseed(batch_seed(epoch_seed, batch_id, 0));
                    let mfg = sampler.sample(&ds.graph, chunk, &cfg.train_fanouts);
                    let xs = ds.features.gather_f32(&mfg.node_ids);
                    let ys: Vec<u32> = mfg.node_ids[..mfg.batch_size()]
                        .iter()
                        .map(|&v| ds.labels[v as usize])
                        .collect();
                    total += by_hand.train_batch(&mfg, xs, &ys);
                    batches += 1;
                }
                let stats = trainer.train_epoch();
                assert_eq!(stats.batches, batches);
                assert_eq!(
                    stats.mean_loss.to_bits(),
                    (total / batches as f64).to_bits(),
                    "{dtype} epoch {epoch}: {} vs {}",
                    stats.mean_loss,
                    total / batches as f64
                );
            }
        }
    }

    #[test]
    fn salient_processes_every_batch() {
        let cfg = RunConfig::test_tiny();
        let ds = dataset();
        let expected = ds.splits.train.len().div_ceil(cfg.batch_size);
        let mut trainer = Trainer::new(ds, cfg);
        let stats = trainer.train_epoch();
        assert_eq!(stats.batches, expected);
        assert!(stats.timings.total_s > 0.0);
    }

    #[test]
    fn traced_epoch_agrees_with_stage_timings() {
        for executor in [ExecutorKind::Salient, ExecutorKind::Baseline] {
            let trace = Trace::new(Clock::virtual_with_tick(10_000));
            let cfg = RunConfig { executor, ..RunConfig::test_tiny() };
            let mut trainer = Trainer::with_trace(dataset(), cfg, trace.clone());
            let stats = trainer.train_epoch();
            let snap = trace.snapshot();
            let report = analyze(&snap);
            // Both views derive from the same clock reads: they must agree
            // exactly, and the stage percentages partition the window.
            let t = StageTimings::from_report(&report);
            assert!((t.total_s - stats.timings.total_s).abs() < 1e-12);
            assert!((t.prep_s - stats.timings.prep_s).abs() < 1e-12);
            let sum: f64 = report.stage_pcts().iter().sum();
            assert!((sum - 100.0).abs() < 1e-9, "{sum}");
            let count = |span| snap.spans(span).count();
            if executor == ExecutorKind::Salient {
                // Workers recorded real prep work into the same registry.
                assert!(count(names::spans::PREP_SAMPLE) >= stats.batches);
                assert!(snap.distinct_tids() >= 2);
                continue;
            }
            // Baseline: a prep and a train span a batch, all on this thread.
            // The source's preparation is `stage.prep`, the first batch's
            // included — nothing is filed as pipeline fill.
            assert_eq!(count(names::spans::STAGE_PREP), stats.batches);
            assert_eq!(count(names::spans::STAGE_TRAIN), stats.batches);
            assert_eq!(count(names::spans::WARMUP), 0);
            assert_eq!(snap.distinct_tids(), 1);
            let pool = trainer.staging_pool();
            assert_eq!(pool.available(), pool.capacity());
        }
    }

    #[test]
    fn disabled_trace_still_trains() {
        let cfg = RunConfig::test_tiny();
        let mut trainer = Trainer::with_trace(dataset(), cfg, Trace::disabled());
        let stats = trainer.train_epoch();
        assert!(stats.mean_loss.is_finite());
        assert!(stats.batches > 0);
        // No registry: the timings view is empty by construction.
        assert_eq!(stats.timings.total_s, 0.0);
    }

    #[test]
    fn trained_model_beats_chance() {
        let cfg = RunConfig {
            epochs: 12,
            ..RunConfig::test_tiny()
        };
        let ds = dataset();
        let chance = 1.0 / ds.num_classes as f64;
        let mut trainer = Trainer::new(Arc::clone(&ds), cfg);
        trainer.fit();
        let nodes = ds.splits.val.clone();
        let (acc, preds) = trainer.evaluate_sampled(&nodes, &[5, 5]);
        assert_eq!(preds.len(), nodes.len());
        assert!(
            acc > chance * 2.0,
            "sampled eval accuracy {acc:.3} barely above chance {chance:.3}"
        );
    }

    #[test]
    fn sampled_evaluation_repeats_itself_with_kept_tools() {
        let ds = dataset();
        let mut trainer = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny());
        trainer.train_epoch();
        let nodes = ds.splits.val.clone();
        assert!(trainer.eval.is_none(), "built on first use");
        let first = trainer.evaluate_sampled(&nodes, &[5, 5]);
        // Another shape in between: the kept sampler's tables grow, its
        // stream must still restart.
        trainer.evaluate_sampled(&ds.splits.test, &[10, 10]);
        assert_eq!(trainer.evaluate_sampled(&nodes, &[5, 5]), first);
        let (_, inferencer) = trainer.eval.as_ref().unwrap();
        assert_eq!(inferencer.pool().available(), inferencer.pool().capacity());
    }

    #[test]
    fn full_inference_agrees_with_heavily_sampled() {
        let cfg = RunConfig {
            epochs: 10,
            ..RunConfig::test_tiny()
        };
        let ds = dataset();
        let mut trainer = Trainer::new(Arc::clone(&ds), cfg);
        trainer.fit();
        let nodes = ds.splits.test.clone();
        let (full_acc, _) = trainer.evaluate_full(&nodes);
        let (sampled_acc, _) = trainer.evaluate_sampled(&nodes, &[100, 100]);
        assert!(
            (full_acc - sampled_acc).abs() < 0.08,
            "huge-fanout sampling ≈ full: {sampled_acc:.3} vs {full_acc:.3}"
        );
    }
}
