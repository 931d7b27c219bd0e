//! The train step does only the work the parameter gradients need:
//! pruning removes work without changing a kept value, a warmed-up step
//! recycles every large buffer and never holds an `f32` copy of the staged
//! batch, and the whole loop stays deterministic.
//!
//! Its own test binary because it installs the counting allocator of
//! `tests/common`.

mod common;

use common::{allocations, large_allocations, pooled_bytes, watch, watched_allocations};
use salient_repro::batchprep::{slice_batch_into, PreparedBatch};
use salient_repro::core::{RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::nn::{build_model, Mode, ModelKind};
use salient_repro::sampler::FastSampler;
use salient_repro::tensor::kernels::{csr_index_routes, release_scratch};
use salient_repro::tensor::rng::StdRng;
use salient_repro::tensor::{Tape, Tensor};
use salient_repro::trace::Trace;
use std::sync::Arc;

#[test]
fn warm_train_batch_makes_no_large_allocation() {
    // A batch whose activations run to a few MiB each, of features wide
    // enough (and seeds few enough, so hop 0 still fans out) that its rows as
    // f32 would be the step's largest buffer by a capacity class.
    let ds = Arc::new(DatasetConfig { num_nodes: 20_000, feat_dim: 100, ..DatasetConfig::products_sim(1.0) }.build());
    let fanouts = vec![10, 10, 5];
    let run = RunConfig {
        hidden: 128,
        train_fanouts: fanouts.clone(),
        ..RunConfig::default()
    };
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run.clone(), Trace::disabled());
    let seeds = &ds.splits.train[..64];
    let mfg = FastSampler::new(3).sample(&ds.graph, seeds, &fanouts);
    let dim = ds.features.dim();
    let wide = ds.features.gather_f32(&mfg.node_ids);
    assert!(wide.len() * 4 >= 4 * common::LARGE_BYTES);
    let widest = mfg.layers[0].n_dst * run.hidden.max(dim);
    assert!(pooled_bytes(widest) < pooled_bytes(wide.len()));
    // A prepared batch, as a worker hands it over — staged outside the
    // counted window — then the epoch's train step on it. Returns the loss
    // and the step's allocations, all and large.
    let pool = trainer.staging_pool().clone();
    let step = |trainer: &mut Trainer| {
        let mut slot = pool.acquire();
        slot.prepare(mfg.num_nodes(), dim, mfg.batch_size());
        slice_batch_into(&ds, &mfg, &mut slot);
        let batch = PreparedBatch { batch_id: 0, mfg: mfg.clone(), slot };
        let before = (allocations(), large_allocations());
        let loss = trainer.train_prepared(batch).expect("no fault plan drops the batch");
        (loss, allocations() - before.0, large_allocations() - before.1)
    };

    // From a cold pool on: whatever a step recycles, some step allocated.
    release_scratch();
    watch(pooled_bytes(wide.len()));
    let (first, _, large) = step(&mut trainer);
    assert!(large > 0, "the counter must see a cold step's buffers");
    step(&mut trainer);
    let routes = csr_index_routes();
    let (mut last, mut made) = (first, 0);
    for _ in 0..4 {
        let (loss, all, large) = step(&mut trainer);
        assert_eq!(
            large,
            0,
            "a warmed-up train step must take every buffer of {} KiB or more from the pool",
            common::LARGE_BYTES / 1024
        );
        (last, made) = (loss, all);
    }
    assert!(last < first, "the steps still train: {first} -> {last}");
    assert_eq!(
        watched_allocations(),
        0,
        "no step, cold or warm, may allocate — and so none can recycle — a buffer the size of the batch as f32"
    );
    // Hop by hop the sampler's edge lists are indexed in place; only the two
    // backward scatters of the hidden layers, keyed by source, sort.
    let [identity, sorted] = csr_index_routes();
    assert_eq!([identity - routes[0], sorted - routes[1]], [4 * 3, 4 * 2]);

    // The same step the way it ran before the slot was lent — the staged rows
    // widened into a recycled buffer, the labels copied out, `train_batch` on
    // the copy: handing the slot over must not cost more allocations.
    let labels: Vec<u32> = seeds.iter().map(|&v| ds.labels[v as usize]).collect();
    let mut on_a_copy = 0;
    for _ in 0..3 {
        let before = allocations();
        let x = Tensor::filled_by(wide.shape().clone(), |w| w.copy_from_slice(wide.data()));
        trainer.train_batch(&mfg, x, &labels.to_vec());
        on_a_copy = allocations() - before;
    }
    assert!(watched_allocations() > 0, "the watch sees a widened batch when there is one");
    assert!(made <= on_a_copy, "{made} allocations a warm step on the slot, {on_a_copy} on a widened copy");
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
