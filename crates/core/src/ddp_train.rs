//! Real multi-rank data-parallel training (threads as ranks), mirroring the
//! paper's DDP usage: effective batch size scales with the number of GPUs,
//! gradients are averaged with a ring all-reduce after every backward pass,
//! and replicas stay bit-identical.
//!
//! A rank is a plain loop, prep then train then the next step, not a stage
//! graph: ring collectives need every rank at the same all-reduce at the
//! same time, so a rank may never run its own prep ahead of its neighbours
//! and there is nothing to overlap. Each step records a `ddp.prep` and a
//! `ddp.train` span that share their boundary timestamp.
//!
//! Failure is what the thread does: a collective error returns from the
//! rank with `?`, and a panic anywhere in a step (a bad label, a kernel
//! assertion) kills the rank thread. Either way the rank's ring endpoint
//! drops, its peers' next receive reports a typed [`CommError`] within the
//! step deadline, and [`train_ddp`]'s join loop names the dead rank. Nothing
//! catches a rank's panic: a rank that outlived one would be a step behind
//! its peers and would feed the wrong buffer into their next collective.

use crate::config::{RunConfig, Stream};
use crate::train::train_step;
use salient_ddp::{average_model_gradients, sync_model, CommError, CommErrorKind, Communicator};
use salient_fault as fault;
use salient_graph::{Dataset, NodeId};
use salient_nn::{build_model, GnnModel};
use salient_sampler::FastSampler;
use salient_tensor::optim::Adam;
use salient_tensor::rng::SliceRandom;
use salient_tensor::rng::StdRng;
use salient_tensor::Tape;
use salient_trace::{names, Trace};
use std::sync::Arc;
use std::time::Duration;

/// Result of a distributed training run.
pub struct DdpRunResult {
    /// Rank 0's trained model.
    pub model: Box<dyn GnnModel>,
    /// Mean loss per epoch (averaged across ranks).
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
}

/// Why a distributed run could not finish.
#[derive(Debug)]
pub enum DdpError {
    /// A rank thread died (panicked outside the collectives).
    RankPanicked {
        /// The dead rank.
        rank: usize,
    },
    /// A ring collective failed — typically a peer died or stalled past the
    /// step deadline, so the failure carries the rank, step, and phase.
    Comm(CommError),
}

impl std::fmt::Display for DdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdpError::RankPanicked { rank } => write!(f, "ddp rank {rank} panicked"),
            DdpError::Comm(e) => write!(f, "ddp collective failed: {e}"),
        }
    }
}

impl std::error::Error for DdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DdpError::Comm(e) => Some(e),
            DdpError::RankPanicked { .. } => None,
        }
    }
}

impl From<CommError> for DdpError {
    fn from(e: CommError) -> Self {
        DdpError::Comm(e)
    }
}

/// Trains with `ranks` data-parallel replicas (threads). Each rank processes
/// `config.batch_size` nodes per iteration, so the effective batch is
/// `ranks × batch_size` — exactly the paper's multi-GPU scaling regime.
///
/// # Errors
///
/// Returns [`DdpError`] if a rank dies or a collective times out; the
/// surviving ranks observe the dead peer through their step deadline
/// ([`RunConfig::comm_timeout_ms`]) instead of hanging.
///
/// # Panics
///
/// Panics if `ranks == 0`.
pub fn train_ddp(
    dataset: &Arc<Dataset>,
    config: &RunConfig,
    ranks: usize,
) -> Result<DdpRunResult, DdpError> {
    train_ddp_traced(dataset, config, ranks, &Trace::disabled())
}

/// Like [`train_ddp`], recording each rank's per-epoch spans and the ring's
/// `ddp.step` communication spans (plus bytes/steps counters) into `trace`.
///
/// # Errors
///
/// See [`train_ddp`].
///
/// # Panics
///
/// Panics if `ranks == 0`.
pub(crate) fn train_ddp_traced(
    dataset: &Arc<Dataset>,
    config: &RunConfig,
    ranks: usize,
    trace: &Trace,
) -> Result<DdpRunResult, DdpError> {
    assert!(ranks > 0, "need at least one rank");
    config.validate();
    // Wall time comes from the trace clock (the monotonic clock when the
    // handle is disabled), so DDP runs are timeable under a VirtualClock.
    let clock = trace.clock();
    let start_ns = clock.now_ns();
    let timeout = Duration::from_millis(config.comm_timeout_ms);
    let comms = Communicator::ring_traced(ranks, timeout, trace);
    let mut handles = Vec::with_capacity(ranks);
    for (rank, comm) in comms.into_iter().enumerate() {
        let dataset = Arc::clone(dataset);
        let config = config.clone();
        let trace = trace.clone();
        #[expect(clippy::expect_used, reason = "thread-spawn failure is unrecoverable resource exhaustion before the first step")]
        let handle = std::thread::Builder::new()
            .name(format!("salient-ddp-rank-{rank}"))
            .spawn(move || rank_loop(rank, ranks, comm, dataset, config, trace))
            .expect("failed to spawn ddp rank");
        handles.push(handle);
    }
    let mut results: Vec<(Box<dyn GnnModel>, Vec<f64>)> = Vec::with_capacity(ranks);
    let mut first_err: Option<DdpError> = None;
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Err(_) => {
                // A dead rank outranks the secondary timeouts its peers
                // report when its ring link goes silent.
                first_err = Some(DdpError::RankPanicked { rank });
            }
            Ok(Err(comm)) => {
                // A lost peer is the echo of another rank's failure: that
                // rank's own timeout or desynchronisation outranks it.
                let echo = |e: &CommError| e.kind == CommErrorKind::Disconnected;
                let replace = match &first_err {
                    None => true,
                    Some(DdpError::Comm(first)) => echo(first) && !echo(&comm),
                    Some(DdpError::RankPanicked { .. }) => false,
                };
                if replace {
                    first_err = Some(DdpError::Comm(comm));
                }
            }
            Ok(Ok(r)) => results.push(r),
        }
    }
    if let Some(err) = first_err {
        return Err(err);
    }
    let (model, epoch_losses) = results.remove(0);
    Ok(DdpRunResult {
        model,
        epoch_losses,
        wall_s: clock.now_ns().saturating_sub(start_ns) as f64 / 1e9,
    })
}

fn rank_loop(
    rank: usize,
    world: usize,
    comm: Communicator,
    dataset: Arc<Dataset>,
    config: RunConfig,
    trace: Trace,
) -> Result<(Box<dyn GnnModel>, Vec<f64>), CommError> {
    // Whole-rank fault site: a Panic here kills the rank thread, and its
    // peers' step deadlines convert the silence into typed errors.
    fault::fire(fault::sites::DDP_RANK, rank as u64);
    // Same seed everywhere: replicas start identical. The broadcast is a
    // belt-and-suspenders guarantee (and exercises the collective).
    let mut model = build_model(
        config.model,
        dataset.features.dim(),
        config.hidden,
        dataset.num_classes,
        config.num_layers,
        config.seed,
    );
    sync_model(&comm, model.as_mut())?;
    let mut opt = Adam::new(config.learning_rate);
    let mut sampler = FastSampler::new(0); // reseeded for each step's shard
    let mut dropout_rng = StdRng::seed_from_u64(Stream::DdpDropout { rank }.seed(config.seed));
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let clock = trace.clock();

    for epoch in 0..config.epochs {
        // One span per (rank, epoch): rank-level occupancy in the reports.
        let _rank_epoch = trace.span_batch(names::spans::RANK_EPOCH, epoch as u64);
        // All ranks shuffle identically, then shard by iteration.
        let mut order = dataset.splits.train.clone();
        order.shuffle(&mut StdRng::seed_from_u64(Stream::DdpShuffle { epoch }.seed(config.seed)));

        let effective = config.batch_size * world;
        let mut loss_sum = 0.0;
        let mut steps = 0usize;
        for (step, chunk) in order.chunks(effective).enumerate() {
            let bid = step as u64;
            let t0 = clock.now_ns();
            // Rank r takes its slice of the effective batch; trailing
            // partial chunks are shared as evenly as possible.
            let shard: Vec<NodeId> = chunk.iter().skip(rank).step_by(world).copied().collect();
            sampler.reseed(Stream::DdpShard { epoch, step, rank }.seed(config.seed));
            // No batch for an empty shard, but the rank still takes the
            // step, joining the all-reduce with zero gradients: every rank
            // must reach the same number of collectives.
            let mfg = (!shard.is_empty())
                .then(|| sampler.sample(&dataset.graph, &shard, &config.train_fanouts));
            let features = mfg.as_ref().map(|mfg| dataset.features.gather_f32(&mfg.node_ids));
            let labels: Vec<u32> = (mfg.iter())
                .flat_map(|mfg| &mfg.node_ids[..mfg.batch_size()])
                .map(|&v| dataset.labels[v as usize])
                .collect();
            let t1 = clock.now_ns();
            trace.record_span(names::spans::DDP_PREP, bid, t0, t1);
            let batch = (mfg.as_ref().zip(features))
                .map(|(mfg, x)| (mfg, move |tape: &Tape| tape.constant(x), labels.as_slice()));
            let step = train_step(model.as_mut(), &mut opt, &mut dropout_rng, batch, |m| {
                average_model_gradients(&comm, m)
            });
            trace.record_span(names::spans::DDP_TRAIN, bid, t1, clock.now_ns());
            // A collective failure is terminal for the rank.
            loss_sum += step?;
            steps += 1;
        }
        // Average the epoch loss across ranks for reporting.
        let mut l = [(loss_sum / steps.max(1) as f64) as f32];
        comm.all_reduce_mean(&mut l)?;
        epoch_losses.push(l[0] as f64);
    }
    Ok((model, epoch_losses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;
    use salient_nn::{metrics, Mode};
    use salient_tensor::Tape;

    fn setup() -> (Arc<Dataset>, RunConfig) {
        let ds = Arc::new(DatasetConfig::tiny(77).build());
        let cfg = RunConfig {
            epochs: 3,
            batch_size: 32,
            ..RunConfig::test_tiny()
        };
        (ds, cfg)
    }

    #[test]
    fn ddp_reduces_loss_with_two_ranks() {
        let (ds, cfg) = setup();
        let result = train_ddp(&ds, &cfg, 2).unwrap();
        assert_eq!(result.epoch_losses.len(), 3);
        assert!(
            result.epoch_losses.last().unwrap() < result.epoch_losses.first().unwrap(),
            "losses {:?}",
            result.epoch_losses
        );
    }

    #[test]
    fn ddp_model_predicts_above_chance() {
        let (ds, mut cfg) = setup();
        cfg.epochs = 8;
        let mut result = train_ddp(&ds, &cfg, 2).unwrap();
        // Evaluate rank 0's model with a quick sampled pass.
        let mut sampler = FastSampler::new(5);
        let nodes = &ds.splits.val;
        let mut preds = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        for chunk in nodes.chunks(64) {
            let mfg = sampler.sample(&ds.graph, chunk, &cfg.infer_fanouts);
            let tape = Tape::no_grad();
            let x = tape.constant(ds.features.gather_f32(&mfg.node_ids));
            let out = result.model.forward(&tape, x, &mfg, Mode::Eval, &mut rng);
            preds.extend(metrics::argmax_rows(&out.value()));
        }
        let targets: Vec<u32> = nodes.iter().map(|&v| ds.labels[v as usize]).collect();
        let acc = metrics::accuracy(&preds, &targets);
        assert!(acc > 2.0 / ds.num_classes as f64, "acc {acc:.3}");
    }

    #[test]
    fn traced_ddp_records_rank_epochs_and_comm() {
        let (ds, cfg) = setup();
        let trace = Trace::new(salient_trace::Clock::virtual_with_tick(1_000));
        let result = train_ddp_traced(&ds, &cfg, 2, &trace).unwrap();
        assert!(result.wall_s > 0.0);
        let snap = trace.snapshot();
        // 2 ranks × 3 epochs.
        assert_eq!(snap.spans(names::spans::RANK_EPOCH).count(), 6);
        // Each ring step sends once, save a broadcast's last rank, and a
        // send's span counts its bytes.
        let sends = snap.spans(names::spans::DDP_RING_SEND).count();
        assert!(sends > 0 && sends <= snap.spans(names::spans::COMM_STEP).count());
        assert!(snap.spans(names::spans::DDP_RING_SEND).map(|e| e.counts[0]).sum::<u64>() > 0);
        assert!(snap.threads.iter().any(|n| n == "salient-ddp-rank-0"));
        assert!(snap.threads.iter().any(|n| n == "salient-ddp-rank-1"));
        // One prep and one train span per (rank, step), sharing the boundary.
        let steps = ds.splits.train.len().div_ceil(cfg.batch_size * 2);
        let prep: Vec<_> = snap.spans(names::spans::DDP_PREP).collect();
        let train: Vec<_> = snap.spans(names::spans::DDP_TRAIN).collect();
        assert_eq!(prep.len(), 2 * cfg.epochs * steps);
        assert_eq!(train.len(), prep.len());
        for p in prep {
            let next = train
                .iter()
                .filter(|t| (t.tid, t.batch, t.start_ns) == (p.tid, p.batch, p.end_ns));
            assert_eq!(next.count(), 1, "prep {p:?} has no train span starting where it ends");
        }
    }

    #[test]
    fn replicas_stay_synchronized() {
        // Train 3 ranks for 2 epochs and verify rank models are identical by
        // rerunning with the deterministic seeds and comparing rank outputs.
        let (ds, cfg) = setup();
        let comms = Communicator::ring(3);
        let finals: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    let ds = Arc::clone(&ds);
                    let cfg = cfg.clone();
                    s.spawn(move || {
                        let (model, _) =
                            rank_loop(rank, 3, comm, ds, cfg, Trace::disabled()).unwrap();
                        model
                            .params()
                            .iter()
                            .flat_map(|p| p.value().data().to_vec())
                            .collect::<Vec<f32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(finals[0], finals[1], "ranks 0 and 1 diverged");
        assert_eq!(finals[0], finals[2], "ranks 0 and 2 diverged");
    }
}
