//! The training loop: baseline (serial PyG-style) and SALIENT (pipelined
//! shared-memory batch preparation) executors over real data.
//!
//! Both executors are expressed as [`StageGraph`] descriptions. The
//! baseline runs the graph inline (it *is* the serial reference schedule);
//! the SALIENT executor lets [`StageGraph::run`] pick the threaded
//! schedule when the thread budget allows, so the transfer/widen of batch
//! `k+1` overlaps the compute of batch `k` in addition to the worker-side
//! preparation overlap.

use crate::config::{ExecutorKind, RunConfig};
use crate::timing::StageTimings;
use crate::infer::{transfer, BatchInferencer};
use salient_batchprep::{
    run_epoch_with_pool, BatchResult, PinnedPool, PrepConfig, PrepMode, SamplerKind,
};
use salient_fault as fault;
use salient_graph::{Dataset, FeatureSlab, NodeId};
use salient_nn::{build_model, metrics, GnnModel, Mode};
use salient_pipeline::{shape, GraphSpec, PipeItem, StageGraph, StageOutcome, StageSpec};
use salient_sampler::{FastSampler, MessageFlowGraph, PygSampler};
use salient_tensor::optim::{Adam, Optimizer};
use salient_tensor::rng::SliceRandom;
use salient_tensor::rng::StdRng;
use salient_tensor::{Tape, Tensor};
use salient_trace::{analyze, names, Clock, Trace, NO_BATCH};
use std::sync::Arc;

/// The item flowing through both training pipelines; fields are filled in
/// (and consumed) stage by stage.
struct TrainItem {
    bid: u64,
    /// Salient source: the worker-prepared batch (or failure marker).
    result: Option<BatchResult>,
    /// Baseline source: the raw mini-batch node ids.
    chunk: Vec<NodeId>,
    mfg: Option<MessageFlowGraph>,
    /// Baseline prep output: packed staged rows awaiting the widen.
    staged: Option<FeatureSlab>,
    features: Option<Tensor>,
    labels: Vec<u32>,
}

impl TrainItem {
    fn empty(bid: u64) -> TrainItem {
        TrainItem {
            bid,
            result: None,
            chunk: Vec::new(),
            mfg: None,
            staged: None,
            features: None,
            labels: Vec::new(),
        }
    }
}

impl PipeItem for TrainItem {
    fn batch_id(&self) -> u64 {
        self.bid
    }
}

/// Result of one training epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training NLL loss over batches.
    pub mean_loss: f64,
    /// Number of batches processed.
    pub batches: usize,
    /// Batches whose preparation exhausted its retry budget and was skipped
    /// (always 0 unless fault injection or real faults occurred).
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
    /// The staging slots of every SALIENT epoch: pinned memory "cannot be
    /// allocated per batch without large costs" (§4.2), nor per epoch.
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
    /// Panics if the configuration is inconsistent (see
    /// [`RunConfig::validate`]).
    pub fn new(dataset: Arc<Dataset>, config: RunConfig) -> Self {
        Trainer::with_trace(dataset, config, Trace::new(Clock::monotonic()))
    }

    /// Like [`Trainer::new`] with an explicit tracing handle. Every epoch
    /// records `epoch` / `stage.*` spans and per-batch histograms against
    /// it; [`EpochStats::timings`] is derived from those spans, so a
    /// disabled handle reports zero timings.
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
        let model = build_model(
            config.model.into(),
            dataset.features.dim(),
            config.hidden,
            dataset.num_classes,
            config.num_layers,
            config.seed,
        );
        let opt = Adam::new(config.learning_rate);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x7AA7);
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

    /// Derives this epoch's [`StageTimings`] view from the spans recorded in
    /// the window `[e0, e1]` (flushes the registry and snapshots only that
    /// window, so epoch `k` does not pay for the `k - 1` epochs before it).
    fn timings_view(&self, e0: u64, e1: u64) -> StageTimings {
        StageTimings::from_report(&analyze(&self.trace.snapshot_window(e0, e1)))
    }

    /// The wrapped model.
    pub fn model(&self) -> &dyn GnnModel {
        self.model.as_ref()
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut dyn GnnModel {
        self.model.as_mut()
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The staging pool every SALIENT epoch of this trainer prepares into
    /// (diagnostics: between epochs `available()` must equal `capacity()`,
    /// and the slots' buffers are the ones the first epoch grew).
    pub fn staging_pool(&self) -> &PinnedPool {
        &self.pool
    }

    /// Runs one training epoch with the configured executor.
    pub fn train_epoch(&mut self) -> EpochStats {
        let mut order = self.dataset.splits.train.clone();
        order.shuffle(&mut self.rng);
        let stats = match self.config.executor {
            ExecutorKind::Baseline => self.baseline_epoch(&order),
            ExecutorKind::Salient => self.salient_epoch(&order),
        };
        self.epoch += 1;
        stats
    }

    /// Trains for `config.epochs` epochs.
    pub fn fit(&mut self) -> Vec<EpochStats> {
        (0..self.config.epochs).map(|_| self.train_epoch()).collect()
    }

    /// Trains with per-epoch validation and early stopping: stops once
    /// validation accuracy has not improved for `patience` consecutive
    /// epochs (bounded by `config.epochs`). Returns the epoch history and
    /// the best validation accuracy observed.
    pub fn fit_with_early_stopping(&mut self, patience: usize) -> (Vec<EpochStats>, f64) {
        let val_nodes = self.dataset.splits.val.clone();
        let fanouts = self.config.infer_fanouts.clone();
        let mut history = Vec::new();
        let mut best = f64::NEG_INFINITY;
        let mut since_best = 0usize;
        for _ in 0..self.config.epochs {
            history.push(self.train_epoch());
            let (acc, _) = self.evaluate_sampled(&val_nodes, &fanouts);
            if acc > best + 1e-9 {
                best = acc;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= patience {
                    break;
                }
            }
        }
        (history, best.max(0.0))
    }

    /// One optimizer step on a staged batch; returns the loss. The features
    /// enter as a constant, so nothing is differentiated with respect to
    /// them, and the tape — with every buffer it holds — is released before
    /// the optimizer runs.
    pub fn train_batch(&mut self, mfg: &MessageFlowGraph, features: Tensor, labels: &[u32]) -> f64 {
        let targets: Vec<usize> = labels.iter().map(|&c| c as usize).collect();
        let (loss_value, grads) = {
            let tape = Tape::new();
            let x = tape.constant(features);
            let out = self
                .model
                .forward(&tape, x, mfg, Mode::Train, &mut self.rng);
            let loss = out.nll_loss(&targets);
            (loss.value().item() as f64, tape.backward(&loss))
        };
        salient_tensor::optim::zero_grads(self.model.params_mut().into_iter());
        grads.apply_to(self.model.params_mut());
        self.opt.step(self.model.params_mut().into_iter());
        loss_value
    }

    /// Serial PyG-style epoch (Listing 1 of the paper), expressed as the
    /// same stage graph the SALIENT executor uses but pinned to the inline
    /// schedule: prep, transfer and train run back-to-back on the trainer
    /// thread with shared boundary timestamps — the serial reference.
    fn baseline_epoch(&mut self, order: &[NodeId]) -> EpochStats {
        let trace = self.trace.clone();
        let clock = trace.clock();
        let epoch_start = clock.now_ns();
        let mut sampler = PygSampler::new(self.config.seed ^ self.epoch as u64);
        let dim = self.dataset.features.dim();
        let fanouts = self.config.train_fanouts.clone();
        let transfer_bytes = trace.counter(names::counters::TRANSFER_BYTES);
        let mut total_loss = 0.0;
        let mut batches = 0usize;
        let dataset = Arc::clone(&self.dataset);
        {
            let this = &mut *self;
            let total_loss = &mut total_loss;
            let batches = &mut batches;
            let mut chunks = order.chunks(this.config.batch_size);
            let mut next_bid = 0u64;
            let ds = Arc::clone(&dataset);
            StageGraph::new(GraphSpec::new("baseline"), move || {
                let chunk = chunks.next()?;
                let bid = next_bid;
                next_bid += 1;
                Some(TrainItem {
                    chunk: chunk.to_vec(),
                    ..TrainItem::empty(bid)
                })
            })
            // Batch preparation: sample then slice (lines 1–4). For the
            // baseline this is real work on the trainer thread.
            .stage(
                StageSpec::new("prep", names::spans::STAGE_PREP),
                move |mut item: TrainItem| {
                    let mfg = sampler.sample(&ds.graph, &item.chunk, &fanouts);
                    let mut staged = FeatureSlab::new(ds.features.dtype(), 0);
                    staged.resize(mfg.num_nodes() * dim);
                    ds.features.slice_into(&mfg.node_ids, staged.rows_mut());
                    item.labels = mfg.node_ids[..mfg.batch_size()]
                        .iter()
                        .map(|&v| ds.labels[v as usize])
                        .collect();
                    item.mfg = Some(mfg);
                    item.staged = Some(staged);
                    StageOutcome::Emit(item)
                },
            )
            // Transfer: the packed→f32 upcast stands in for the PCIe copy +
            // device-side widening (line 5). The counted bytes are the
            // *packed* payload — the quantity the copy would move.
            .stage(
                StageSpec::new("transfer", names::spans::STAGE_TRANSFER),
                move |mut item: TrainItem| {
                    let (Some(staged), Some(mfg)) = (item.staged.take(), item.mfg.as_ref()) else {
                        return StageOutcome::Skip;
                    };
                    item.features = Some(transfer(
                        staged.rows(),
                        mfg.num_nodes(),
                        dim,
                        staged.bytes() + item.labels.len() * std::mem::size_of::<u32>(),
                        &transfer_bytes,
                    ));
                    StageOutcome::Emit(item)
                },
            )
            // Training (lines 6–8).
            .stage(
                StageSpec::new("train", names::spans::STAGE_TRAIN)
                    .hist(names::hists::TRAIN_BATCH_NS),
                move |mut item: TrainItem| {
                    let (Some(mfg), Some(features)) = (item.mfg.take(), item.features.take())
                    else {
                        return StageOutcome::Skip;
                    };
                    let labels = std::mem::take(&mut item.labels);
                    *total_loss += this.train_batch(&mfg, features, &labels);
                    *batches += 1;
                    StageOutcome::Emit(item)
                },
            )
            .run_inline(&trace);
        }
        let epoch_end = clock.now_ns();
        trace.record_span(names::spans::EPOCH, NO_BATCH, epoch_start, epoch_end);
        EpochStats {
            epoch: self.epoch,
            mean_loss: total_loss / batches.max(1) as f64,
            batches,
            failed_batches: 0,
            timings: self.timings_view(epoch_start, epoch_end),
        }
    }

    /// SALIENT epoch: shared-memory workers prepare batches concurrently;
    /// the consumer side is a transfer→train stage graph. On an adequate
    /// thread budget ([`StageGraph::threaded_available`]) the two stages
    /// run on dedicated threads with a bounded
    /// ([`shape::TRANSFER_QUEUE_CAP`]) queue between them, so batch `k+1`'s
    /// widen/copy overlaps batch `k`'s compute; otherwise the inline
    /// schedule reproduces the exact clock-read and FP-operation order of
    /// the serial consumer loop.
    ///
    /// Workers record into the same trace registry (sample/slice spans,
    /// slot-wait backpressure, fault events), so one snapshot holds the
    /// whole pipeline: trainer stalls *and* the concurrent prep work they
    /// overlapped with.
    fn salient_epoch(&mut self, order: &[NodeId]) -> EpochStats {
        let trace = self.trace.clone();
        let clock = trace.clock();
        let transfer_bytes = trace.counter(names::counters::TRANSFER_BYTES);
        let epoch_start = clock.now_ns();
        let prep_cfg = PrepConfig {
            num_workers: self.config.num_workers,
            fanouts: self.config.train_fanouts.clone(),
            batch_size: self.config.batch_size,
            slots: self.config.slots,
            mode: PrepMode::SharedMemory,
            sampler: SamplerKind::Fast,
            seed: self.config.seed ^ (self.epoch as u64) << 16,
            trace: trace.clone(),
        };
        let handle = run_epoch_with_pool(&self.dataset, order, &prep_cfg, &self.pool);
        let dim = self.dataset.features.dim();
        let mut total_loss = 0.0;
        let mut batches = 0usize;
        let mut failed_batches = 0usize;
        let stats = {
            let this = &mut *self;
            let total_loss = &mut total_loss;
            let batches = &mut batches;
            let failed = &mut failed_batches;
            let rx = handle.batches.clone();
            // Panic budget 2: an isolated stage panic retires its batch
            // (counted in `failed_batches`, mirroring prep's
            // retry-exhaustion policy); repetition beyond the budget
            // poisons the pipeline, because a recurring executor panic is
            // a bug, not a flaky batch.
            StageGraph::new(
                GraphSpec::new("train")
                    .panic_budget(2)
                    .wait_hist(names::hists::PREP_WAIT_NS),
                move || {
                    let result = rx.recv().ok()?;
                    let mut item = TrainItem::empty(result.batch_id() as u64);
                    item.result = Some(result);
                    Some(item)
                },
            )
            // Transfer: widen the packed staged rows to f32 — the PCIe
            // copy + device-side cast stand-in. The pinned slot returns to
            // the pool when it drops at the end of this stage.
            .stage(
                StageSpec::new("transfer", names::spans::STAGE_TRANSFER)
                    .wait(names::spans::PIPE_WAIT),
                move |mut item: TrainItem| {
                    let bid = item.bid;
                    let batch = match item.result.take() {
                        Some(BatchResult::Ready(batch)) => batch,
                        Some(BatchResult::Failed { .. }) => {
                            // Terminal marker: preparation exhausted its
                            // retry budget. The epoch proceeds on the
                            // surviving batches.
                            *failed += 1;
                            return StageOutcome::Skip;
                        }
                        None => return StageOutcome::Skip,
                    };
                    if fault::fire(fault::sites::PIPE_TRANSFER, bid) {
                        // Injected transfer drop: the batch retires here,
                        // its slot returning to the pool via RAII.
                        *failed += 1;
                        return StageOutcome::Skip;
                    }
                    item.features = Some(transfer(
                        batch.slot.features(),
                        batch.mfg.num_nodes(),
                        dim,
                        batch.slot.payload_bytes(),
                        &transfer_bytes,
                    ));
                    item.labels = batch.slot.labels().to_vec();
                    item.mfg = Some(batch.mfg);
                    StageOutcome::Emit(item)
                },
            )
            // Train: the consumer's wait on this stage's input is the
            // SALIENT Table 1 "prep" stall (only the time it blocks; the
            // prep work itself ran on the workers).
            .stage(
                StageSpec::new("train", names::spans::STAGE_TRAIN)
                    .wait(names::spans::STAGE_PREP)
                    .queue(shape::TRANSFER_QUEUE_CAP)
                    .gauge(names::gauges::PIPE_QUEUE_COMPUTE)
                    .hist(names::hists::TRAIN_BATCH_NS),
                move |mut item: TrainItem| {
                    let (Some(mfg), Some(features)) = (item.mfg.take(), item.features.take())
                    else {
                        return StageOutcome::Skip;
                    };
                    let labels = std::mem::take(&mut item.labels);
                    *total_loss += this.train_batch(&mfg, features, &labels);
                    *batches += 1;
                    StageOutcome::Emit(item)
                },
            )
            .run(&trace)
        };
        // Batches dropped by an injected stage panic count as failed: they
        // left the pipeline without training, like a prep failure.
        failed_batches += stats.panics as usize;
        handle.join();
        let epoch_end = clock.now_ns();
        trace.record_span(names::spans::EPOCH, NO_BATCH, epoch_start, epoch_end);
        EpochStats {
            epoch: self.epoch,
            mean_loss: total_loss / batches.max(1) as f64,
            batches,
            failed_batches,
            timings: self.timings_view(epoch_start, epoch_end),
        }
    }

    /// Sampled mini-batch inference over `nodes` with the given fanouts.
    /// Returns `(accuracy, predictions)`.
    ///
    /// Runs through [`crate::infer::BatchInferencer`] — the same pinned-slot
    /// staging path the serving layer uses, numerically identical to a
    /// direct f32 gather (staging copies the packed values; the widen is the
    /// same per-element conversion `gather_f32` performs).
    pub fn evaluate_sampled(&mut self, nodes: &[NodeId], fanouts: &[usize]) -> (f64, Vec<u32>) {
        let seed = self.config.seed ^ 0x1FE2;
        let (sampler, inferencer) = self.eval.get_or_insert_with(|| {
            let inferencer = BatchInferencer::with_trace(
                Arc::clone(&self.dataset),
                1,
                self.config.batch_size,
                &self.trace,
            );
            (FastSampler::new(seed), inferencer)
        });
        // Every call draws the same stream, as when each built its sampler.
        sampler.reseed(seed);
        let mut preds = Vec::with_capacity(nodes.len());
        for chunk in nodes.chunks(self.config.batch_size) {
            let mfg = sampler.sample(&self.dataset.graph, chunk, fanouts);
            #[expect(clippy::panic, reason = "offline evaluation keeps the old contract: a poisoned model is a caller bug, not load to shed, so its panic is re-raised")]
            let batch_preds = inferencer
                .infer_mfg(self.model.as_mut(), &mfg, &mut self.rng)
                .unwrap_or_else(|p| panic!("{p}"));
            preds.extend(batch_preds);
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
        let trace = Trace::new(Clock::virtual_with_tick(10_000));
        let cfg = RunConfig::test_tiny();
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
        // Workers recorded real prep work into the same registry.
        assert!(snap.spans(names::spans::PREP_SAMPLE).count() >= stats.batches);
        assert!(snap.distinct_tids() >= 2);
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
