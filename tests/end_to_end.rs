//! End-to-end integration: dataset → sampler → batch prep → model →
//! optimizer, through the public API, for both executors and several
//! architectures.

use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::nn::ModelKind;
use salient_repro::trace::{names, Clock, Trace};
use std::sync::Arc;

fn dense_tiny(seed: u64) -> Arc<salient_repro::graph::Dataset> {
    let mut cfg = DatasetConfig::tiny(seed);
    cfg.split_fracs = (0.6, 0.2, 0.2);
    Arc::new(cfg.build())
}

#[test]
fn salient_executor_trains_every_architecture() {
    let ds = dense_tiny(1);
    for model in ModelKind::all() {
        let run = RunConfig {
            model,
            epochs: 5,
            batch_size: 64,
            learning_rate: 5e-3,
            ..RunConfig::test_tiny()
        };
        let mut trainer = Trainer::new(Arc::clone(&ds), run);
        let history = trainer.fit();
        let first = history.first().unwrap().mean_loss;
        let last = history.last().unwrap().mean_loss;
        assert!(
            last < first,
            "{model:?}: loss must decrease ({first:.3} -> {last:.3})"
        );
        assert!(last.is_finite(), "{model:?}: loss must stay finite");
    }
}

/// A batch keeps its staging slot until the train step that reads it has
/// finished, so with one slot nothing overlaps: the worker waits for the
/// trainer, the trainer for the worker. Degraded to serial — and it must
/// still finish, every batch trained and the slot back in its pool.
#[test]
fn one_slot_epoch_completes_serially_and_returns_the_slot() {
    let ds = dense_tiny(8);
    let run = RunConfig {
        slots: 1,
        batch_size: 32,
        ..RunConfig::test_tiny()
    };
    let batches = ds.splits.train.len().div_ceil(run.batch_size);
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let mut trainer = Trainer::with_trace(ds, run, trace.clone());
    for _ in 0..2 {
        let stats = trainer.train_epoch();
        assert_eq!((stats.batches, stats.failed_batches), (batches, 0));
        let pool = trainer.staging_pool();
        assert_eq!((pool.available(), pool.capacity()), (1, 1));
    }
    // The consumer is one thread whatever the kernel pool's width: the one
    // slot it holds is the batch in its train step.
    let snap = trace.snapshot();
    let tid_of = |span| snap.spans(span).next().map(|e| e.tid);
    assert!(tid_of(names::spans::STAGE_TRAIN).is_some());
    assert_eq!(
        tid_of(names::spans::STAGE_PREP),
        tid_of(names::spans::STAGE_TRAIN),
        "the wait for a batch and its train step share the consumer's thread"
    );
}

#[test]
fn both_executors_reach_similar_accuracy() {
    let ds = dense_tiny(2);
    let mut accs = Vec::new();
    for executor in [ExecutorKind::Baseline, ExecutorKind::Salient] {
        let run = RunConfig {
            executor,
            epochs: 10,
            learning_rate: 5e-3,
            ..RunConfig::test_tiny()
        };
        let mut trainer = Trainer::new(Arc::clone(&ds), run);
        trainer.fit();
        let (acc, _) = trainer.evaluate_sampled(&ds.splits.test.clone(), &[10, 10]);
        accs.push(acc);
    }
    // The executors differ only in *how* batches are produced; both must
    // train to a working model on the planted task.
    let chance = 1.0 / ds.num_classes as f64;
    assert!(accs[0] > 3.0 * chance, "baseline acc {:.3}", accs[0]);
    assert!(accs[1] > 3.0 * chance, "salient acc {:.3}", accs[1]);
    assert!(
        (accs[0] - accs[1]).abs() < 0.25,
        "executors should land in the same accuracy regime: {accs:?}"
    );
}

#[test]
fn inference_fanout_saturates_toward_full() {
    // The paper's §5 claim, end to end: accuracy(sampled fanout d) is
    // non-decreasing-ish in d and approaches full-neighborhood accuracy.
    let ds = dense_tiny(3);
    let run = RunConfig {
        epochs: 12,
        learning_rate: 5e-3,
        ..RunConfig::test_tiny()
    };
    let mut trainer = Trainer::new(Arc::clone(&ds), run);
    trainer.fit();
    let test = ds.splits.test.clone();
    let (full, _) = trainer.evaluate_full(&test);
    let (acc2, _) = trainer.evaluate_sampled(&test, &[2, 2]);
    let (acc20, _) = trainer.evaluate_sampled(&test, &[20, 20]);
    assert!(
        acc20 + 0.05 >= acc2,
        "larger fanout should not be materially worse: {acc2:.3} vs {acc20:.3}"
    );
    assert!(
        (full - acc20).abs() < 0.1,
        "fanout 20 ≈ full neighborhood: {acc20:.3} vs {full:.3}"
    );
}

#[test]
fn epoch_timings_are_consistent() {
    let ds = dense_tiny(4);
    let mut trainer = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny());
    let stats = trainer.train_epoch();
    let t = stats.timings;
    assert!(t.total_s > 0.0);
    // Stage sums cannot exceed the wall clock by more than measurement
    // noise (they are all measured inside the same loop).
    assert!(
        t.prep_s + t.train_s <= t.total_s * 1.05 + 0.01,
        "stages {:?} exceed total {}",
        (t.prep_s, t.train_s),
        t.total_s
    );
}

#[test]
fn deterministic_training_given_seed() {
    let ds = dense_tiny(5);
    let losses = |seed: u64| {
        let run = RunConfig {
            executor: ExecutorKind::Baseline, // deterministic batch order
            epochs: 2,
            seed,
            ..RunConfig::test_tiny()
        };
        let mut trainer = Trainer::new(Arc::clone(&ds), run);
        trainer
            .fit()
            .into_iter()
            .map(|s| s.mean_loss)
            .collect::<Vec<_>>()
    };
    assert_eq!(losses(9), losses(9), "same seed, same losses");
    assert_ne!(losses(9), losses(10), "different seed, different run");
}

#[test]
fn checkpoint_restores_trainer_accuracy() {
    use salient_repro::core::checkpoint::Checkpoint;
    let ds = dense_tiny(7);
    let run = RunConfig {
        epochs: 8,
        learning_rate: 5e-3,
        ..RunConfig::test_tiny()
    };
    let mut trainer = Trainer::new(Arc::clone(&ds), run.clone());
    trainer.fit();
    let test = ds.splits.test.clone();
    let (acc_before, preds_before) = trainer.evaluate_sampled(&test, &[10, 10]);
    let ckpt = Checkpoint::from_model(trainer.model());

    // Fresh (untrained) trainer restored from the checkpoint must predict
    // identically (deterministic eval sampler + no dropout).
    let mut restored = Trainer::new(Arc::clone(&ds), run);
    ckpt.apply_to_model(restored.model_mut()).unwrap();
    let (acc_after, preds_after) = restored.evaluate_sampled(&test, &[10, 10]);
    assert_eq!(preds_before, preds_after);
    assert!((acc_before - acc_after).abs() < 1e-12);
}
