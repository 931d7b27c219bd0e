//! The train step does only the work the parameter gradients need:
//! pruning removes work without changing a kept value, a warmed-up step
//! recycles every large buffer, and the whole loop stays deterministic.
//!
//! Its own test binary because it installs the counting allocator of
//! `tests/common`.

mod common;

use common::large_allocations;
use salient_repro::core::{RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::nn::{build_model, Mode, ModelKind};
use salient_repro::sampler::FastSampler;
use salient_repro::tensor::rng::StdRng;
use salient_repro::tensor::{Tape, Tensor};
use salient_repro::trace::Trace;
use std::sync::Arc;

#[test]
fn warm_train_batch_makes_no_large_allocation() {
    // A batch whose activations run to a few hundred KiB each.
    let ds = Arc::new(DatasetConfig::products_sim(0.2).build());
    let fanouts = vec![10, 10, 5];
    let run = RunConfig {
        hidden: 128,
        train_fanouts: fanouts.clone(),
        ..RunConfig::default()
    };
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, Trace::disabled());
    let seeds = &ds.splits.train[..256];
    let mfg = FastSampler::new(3).sample(&ds.graph, seeds, &fanouts);
    let wide = ds.features.gather_f32(&mfg.node_ids);
    assert!(wide.len() * 4 >= 4 * common::LARGE_BYTES);
    let labels: Vec<u32> = seeds.iter().map(|&v| ds.labels[v as usize]).collect();
    // The transfer stage's way of staging features: a recycled buffer,
    // overwritten in full.
    let step = |trainer: &mut Trainer| {
        let x = Tensor::filled_by(wide.shape().clone(), |w| w.copy_from_slice(wide.data()));
        trainer.train_batch(&mfg, x, &labels)
    };

    let start = large_allocations();
    let first = step(&mut trainer);
    assert!(
        large_allocations() > start,
        "the counter must see a cold step's buffers"
    );
    step(&mut trainer);
    let warm = large_allocations();
    let mut last = first;
    for _ in 0..4 {
        last = step(&mut trainer);
    }
    assert_eq!(
        large_allocations() - warm,
        0,
        "a warmed-up train step must take every buffer of {} KiB or more from the pool",
        common::LARGE_BYTES / 1024
    );
    assert!(last < first, "the steps still train: {first} -> {last}");
}

#[test]
fn pruning_the_feature_gradient_changes_no_parameter_gradient() {
    let ds = DatasetConfig::tiny(5).build();
    let mfg = FastSampler::new(1).sample(&ds.graph, &ds.splits.train[..32], &[5, 4, 3]);
    let targets: Vec<usize> = mfg.node_ids[..mfg.batch_size()]
        .iter()
        .map(|&v| ds.labels[v as usize] as usize)
        .collect();
    let mut model = build_model(ModelKind::Sage, ds.features.dim(), 16, ds.num_classes, 3, 9);
    let mut grads_with = |tracked_features: bool| -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(4);
        let tape = Tape::new();
        let features = ds.features.gather_f32(&mfg.node_ids);
        let x = match tracked_features {
            true => tape.leaf(features),
            false => tape.constant(features),
        };
        let out = model.forward(&tape, x.clone(), &mfg, Mode::Train, &mut rng);
        let grads = tape.backward(&out.nll_loss(&targets));
        assert_eq!(grads.wrt(&x).is_some(), tracked_features);
        let params = model.params();
        params
            .iter()
            .map(|p| grads.by_param(p.id()).unwrap().clone())
            .collect()
    };
    let (pruned, full) = (grads_with(false), grads_with(true));
    assert_eq!(pruned.len(), 6);
    for (a, b) in pruned.iter().zip(&full) {
        assert_eq!(
            a.data(),
            b.data(),
            "a kept gradient must be bitwise unchanged"
        );
    }
}

#[test]
fn same_seed_trainers_agree_bitwise() {
    let ds = Arc::new(DatasetConfig::tiny(6).build());
    let losses = || -> Vec<u64> {
        let run = RunConfig {
            num_workers: 1,
            epochs: 3,
            ..RunConfig::test_tiny()
        };
        let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, Trace::disabled());
        trainer
            .fit()
            .iter()
            .map(|e| e.mean_loss.to_bits())
            .collect()
    };
    assert_eq!(losses(), losses());
}
