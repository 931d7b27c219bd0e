//! In steady state batch preparation allocates the batch it hands over and
//! nothing else: a warm sampler makes the vectors of the MFG it returns, and
//! a trainer's later epochs stage into the buffers its first epoch grew. A
//! warm inference forward takes every large buffer from the pool and indexes
//! the sampler's edge lists in place.
//!
//! Its own test binary because it installs the counting allocator of
//! `tests/common`.

mod common;

use common::{allocations, large_allocations};
use salient_repro::batchprep::PinnedPool;
use salient_repro::core::{BatchInferencer, RunConfig, Trainer};
use salient_repro::graph::{DatasetConfig, FeatureRows};
use salient_repro::nn::{build_model, ModelKind};
use salient_repro::sampler::FastSampler;
use salient_repro::tensor::kernels::csr_index_routes;
use salient_repro::tensor::rng::StdRng;
use salient_repro::trace::Trace;
use std::sync::Arc;

#[test]
fn warm_fast_sampler_allocates_only_the_mfg_it_returns() {
    // The benchmark's preparation shape: a 10 000-node products-like graph,
    // batches of 256, fanouts 15,10,5.
    let ds = DatasetConfig {
        num_nodes: 10_000,
        feat_dim: 4,
        ..DatasetConfig::products_sim(1.0)
    }
    .build();
    let fanouts = [15, 10, 5];
    let seeds: Vec<u32> = (0..2_048).collect();
    let mut sampler = FastSampler::new(7);
    for batch in seeds.chunks(256) {
        sampler.sample(&ds.graph, batch, &fanouts);
    }
    // The same stream again: every table has met these very batches, so an
    // allocation beyond the result's own is one the sampler makes per batch.
    sampler.reseed(7);
    let own = 2 * fanouts.len() as u64 + 2; // node ids, the layer list, two edge lists a hop
    for batch in seeds.chunks(256) {
        let before = allocations();
        let mfg = sampler.sample(&ds.graph, batch, &fanouts);
        let made = allocations() - before;
        assert!(
            made <= own,
            "{made} allocations for one warm batch of {} nodes, {own} are the MFG's own",
            mfg.num_nodes()
        );
    }
}

/// Where each slot of `pool` keeps its feature buffer (the pool must be idle).
fn staging_buffers(pool: &PinnedPool) -> Vec<usize> {
    let slots: Vec<_> = std::iter::from_fn(|| pool.try_acquire()).collect();
    assert_eq!(slots.len(), pool.capacity(), "a slot is still checked out");
    let mut at: Vec<usize> = slots
        .iter()
        .map(|slot| match slot.features() {
            FeatureRows::Half(rows) => rows.as_ptr() as usize,
            FeatureRows::Full(rows) => rows.as_ptr() as usize,
        })
        .collect();
    at.sort_unstable();
    at
}

#[test]
fn later_epochs_stage_into_the_buffers_of_the_first() {
    let ds = Arc::new(DatasetConfig::tiny(3).build());
    // Six equal batches an epoch through two slots: every slot is reused,
    // and no batch is a quarter larger than another, so what the first epoch
    // grew fits them all.
    let run = RunConfig {
        slots: 2,
        batch_size: 50,
        num_workers: 1,
        ..RunConfig::test_tiny()
    };
    assert_eq!(ds.splits.train.len() % run.batch_size, 0);
    let mut trainer = Trainer::with_trace(ds, run, Trace::disabled());
    trainer.train_epoch();
    let first = staging_buffers(trainer.staging_pool());
    for _ in 0..3 {
        trainer.train_epoch();
        assert_eq!(
            staging_buffers(trainer.staging_pool()),
            first,
            "an epoch replaced a staging buffer"
        );
    }
}

#[test]
fn warm_inference_forward_recycles_its_buffers_and_sorts_nothing() {
    // `infer_sweep` in small: fanouts 20,20,20, hidden 64, features wide
    // enough that the widened batch and every activation pass 64 KiB.
    let ds = Arc::new(
        DatasetConfig {
            num_nodes: 10_000,
            feat_dim: 100,
            ..DatasetConfig::products_sim(1.0)
        }
        .build(),
    );
    let fanouts = [20, 20, 20];
    let mut model = build_model(ModelKind::Sage, ds.features.dim(), 64, ds.num_classes, 3, 1);
    let mfg = FastSampler::new(5).sample(&ds.graph, &ds.splits.train[..64], &fanouts);
    assert!(mfg.num_nodes() * ds.features.dim() * 4 >= 4 * common::LARGE_BYTES);
    let infer = BatchInferencer::new(Arc::clone(&ds), 1, mfg.num_nodes());
    let mut rng = StdRng::seed_from_u64(0);
    let mut forward = || {
        let staged = infer.stage(&mfg).unwrap();
        infer.forward(staged, model.as_mut(), &mfg, &mut rng).unwrap()
    };
    let first = forward();
    forward();
    let (large, routes) = (large_allocations(), csr_index_routes());
    assert_eq!(forward(), first, "the same batch predicts the same classes");
    assert_eq!(
        large_allocations() - large,
        0,
        "a warm forward must take every buffer of {} KiB or more from the pool",
        common::LARGE_BYTES / 1024
    );
    let [identity, sorted] = csr_index_routes();
    assert_eq!(
        [identity - routes[0], sorted - routes[1]],
        [fanouts.len() as u64, 0],
        "each hop's edge list arrives ordered by destination and is indexed in place"
    );
}
