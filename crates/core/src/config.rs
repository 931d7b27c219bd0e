//! Run configuration mirroring the paper's Table 5.

use salient_batchprep::PrepConfig;
use salient_graph::Dataset;
use salient_nn::{build_model, GnnModel, ModelKind};
use salient_tensor::rng::derive;
use salient_trace::Trace;

/// Which execution pipeline to use (the Figure-1 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Standard PyTorch-style workflow: serial per-batch sample → slice →
    /// transfer → train on the main thread (PyG baseline).
    Baseline,
    /// SALIENT: shared-memory batch-prep threads slicing into pinned
    /// buffers, with training overlapping preparation.
    Salient,
}

/// Hyperparameters of one training run (one row of Table 5).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Architecture.
    pub model: ModelKind,
    /// Number of GNN layers.
    pub num_layers: usize,
    /// Hidden dimensionality.
    pub hidden: usize,
    /// Training fanouts (PyG order).
    pub train_fanouts: Vec<usize>,
    /// Inference fanouts (Table 6 column).
    pub infer_fanouts: Vec<usize>,
    /// Per-GPU mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Batch-preparation worker threads of the single-process SALIENT
    /// executor; a DDP rank always runs one.
    pub num_workers: usize,
    /// Pinned staging slots, at least one. A batch keeps its slot from the
    /// worker's slice until the train step that reads it has finished. The
    /// consumer holds exactly one — the batch in its train step — and the
    /// other `slots - 1` are the workers': preparation overlaps training
    /// with two or more; with one the epoch runs prepare, train, prepare, …
    /// in turn.
    pub slots: usize,
    /// Base RNG seed: `build_model` draws the initial weights from it, and
    /// every other generator of the run from a `Stream` derived from it.
    pub seed: u64,
    /// Execution pipeline.
    pub executor: ExecutorKind,
    /// Per-step deadline (milliseconds) for DDP ring collectives; a rank
    /// that misses it surfaces a typed communication error instead of
    /// hanging the run.
    pub comm_timeout_ms: u64,
}

impl Default for RunConfig {
    /// The paper's default SAGE configuration, scaled for sim-size datasets
    /// (hidden 64 instead of 256; fanouts and batching per Table 5 shrunk
    /// proportionally to the ~1/10-scale graphs).
    fn default() -> Self {
        RunConfig {
            model: ModelKind::Sage,
            num_layers: 3,
            hidden: 64,
            train_fanouts: vec![15, 10, 5],
            infer_fanouts: vec![20, 20, 20],
            batch_size: 256,
            learning_rate: 3e-3,
            epochs: 5,
            num_workers: 2,
            slots: 4,
            seed: 0,
            executor: ExecutorKind::Salient,
            comm_timeout_ms: 5_000,
        }
    }
}

impl RunConfig {
    /// Quick configuration for unit tests: 2 layers, small everything.
    pub fn test_tiny() -> Self {
        RunConfig {
            num_layers: 2,
            hidden: 16,
            train_fanouts: vec![5, 5],
            infer_fanouts: vec![5, 5],
            batch_size: 64,
            epochs: 2,
            ..Default::default()
        }
    }

    /// The model this run trains, its weights drawn from [`RunConfig::seed`].
    pub(crate) fn build_model(&self, dataset: &Dataset) -> Box<dyn GnnModel> {
        let (dim, classes) = (dataset.features.dim(), dataset.num_classes);
        build_model(self.model, dim, self.hidden, classes, self.num_layers, self.seed)
    }

    /// One epoch's batch preparation: `num_workers` shared-memory workers
    /// running the fast sampler (`PrepConfig`'s defaults), seeded `seed`.
    pub(crate) fn prep_config(&self, num_workers: usize, seed: u64, trace: &Trace) -> PrepConfig {
        PrepConfig {
            num_workers,
            fanouts: self.train_fanouts.clone(),
            batch_size: self.batch_size,
            slots: self.slots,
            seed,
            trace: trace.clone(),
            ..PrepConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if fanout lists do not match `num_layers`, a size is zero, or
    /// there is no staging slot.
    pub(crate) fn validate(&self) {
        assert_eq!(
            self.train_fanouts.len(),
            self.num_layers,
            "one training fanout per layer"
        );
        assert_eq!(
            self.infer_fanouts.len(),
            self.num_layers,
            "one inference fanout per layer"
        );
        assert!(self.batch_size > 0 && self.hidden > 0 && self.num_workers > 0);
        assert!(
            self.slots > 0,
            "slots must be at least 1 (2 or more for preparation to overlap training): a batch is staged in a slot until its train step ends"
        );
    }
}

/// Every generator a training run draws from besides the initial weights,
/// which start at [`RunConfig::seed`] itself: one [`derive`] from that seed
/// each, named by a tag and fields, so no two share a stream and none is
/// the weights'.
pub(crate) enum Stream {
    /// The `Trainer`'s generator: epoch shuffles and dropout.
    Trainer,
    /// `Trainer::evaluate_sampled`'s sampler.
    Eval,
    /// An epoch's `PrepConfig::seed`, under either executor: attempt `a` at
    /// batch `b` samples from `batchprep::batch_seed(this, b, a)`.
    Prep { epoch: usize },
    /// DDP: the shuffle every rank makes, one rank's dropout, and one
    /// rank's `PrepConfig::seed` for an epoch (used as `Prep`'s is).
    DdpShuffle { epoch: usize },
    DdpDropout { rank: usize },
    DdpPrep { epoch: usize, rank: usize },
}

impl Stream {
    /// This stream's seed in a run seeded `run_seed`.
    pub(crate) fn seed(self, run_seed: u64) -> u64 {
        let n = |x: usize| x as u64;
        match self {
            Stream::Trainer => derive(run_seed, &[0]),
            Stream::Eval => derive(run_seed, &[1]),
            Stream::Prep { epoch } => derive(run_seed, &[2, n(epoch)]),
            Stream::DdpShuffle { epoch } => derive(run_seed, &[3, n(epoch)]),
            Stream::DdpDropout { rank } => derive(run_seed, &[4, n(rank)]),
            Stream::DdpPrep { epoch, rank } => derive(run_seed, &[5, n(epoch), n(rank)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_two_streams_of_a_run_share_a_seed_and_none_is_the_weights() {
        for run_seed in [0, 7, 2868] {
            let mut seeds = vec![Stream::Trainer.seed(run_seed), Stream::Eval.seed(run_seed)];
            for epoch in 0..4 {
                let prep = Stream::Prep { epoch }.seed(run_seed);
                for batch_id in 0..64 {
                    seeds.extend((0..=2).map(|attempt| salient_batchprep::batch_seed(prep, batch_id, attempt)));
                }
                seeds.push(Stream::DdpShuffle { epoch }.seed(run_seed));
            }
            for rank in 0..4 {
                seeds.push(Stream::DdpDropout { rank }.seed(run_seed));
                for epoch in 0..4 {
                    let prep = Stream::DdpPrep { epoch, rank }.seed(run_seed);
                    for batch_id in 0..64 {
                        seeds.extend((0..=2).map(|attempt| salient_batchprep::batch_seed(prep, batch_id, attempt)));
                    }
                }
            }
            let mut distinct = std::collections::HashSet::from([run_seed]);
            let repeated: Vec<_> = seeds.iter().filter(|&&s| !distinct.insert(s)).collect();
            assert!(repeated.is_empty(), "run seed {run_seed}: {repeated:x?} repeat a stream or the weights");
        }
    }

    #[test]
    fn default_is_valid() {
        RunConfig::default().validate();
        RunConfig::test_tiny().validate();
    }

    #[test]
    #[should_panic(expected = "slots must be at least 1")]
    fn zero_slots_rejected() {
        RunConfig { slots: 0, ..RunConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "one training fanout per layer")]
    fn mismatched_fanouts_rejected() {
        let cfg = RunConfig {
            train_fanouts: vec![5],
            ..RunConfig::default()
        };
        cfg.validate();
    }
}
