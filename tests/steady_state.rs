//! In steady state batch preparation allocates the batch it hands over and
//! nothing else: a warm sampler makes the vectors of the MFG it returns, and
//! a trainer's later epochs stage into the buffers its first epoch grew. A
//! warm inference forward takes every large buffer from the pool, never holds
//! the staged batch as f32, and indexes the sampler's edge lists in place. A
//! warm serving step makes a fixed, small number of allocations.
//!
//! Its own test binary because it installs the counting allocator of
//! `tests/common`.

mod common;

use common::{allocations, large_allocations, pooled_bytes, watch, watched_allocations};
use salient_repro::batchprep::PinnedPool;
use salient_repro::core::{BatchInferencer, RunConfig, Trainer};
use salient_repro::graph::{DatasetConfig, FeatureRows};
use salient_repro::nn::{build_model, ModelKind};
use salient_repro::sampler::FastSampler;
use salient_repro::serve::{Request, ServeConfig, ServerCore};
use salient_repro::tensor::kernels::{csr_index_routes, release_scratch, relu_dropout_in_place, scatter_reduce_forward};
use salient_repro::tensor::rng::{Rng, StdRng};
use salient_repro::tensor::{gemm, Tensor};
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
    assert_eq!(pool.available(), pool.capacity(), "a slot is still checked out");
    let slots: Vec<_> = (0..pool.capacity()).map(|_| pool.acquire()).collect();
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
    let as_f32 = mfg.num_nodes() * ds.features.dim();
    assert!(as_f32 * 4 >= 4 * common::LARGE_BYTES);
    // The staged rows as f32 would be the forward's largest buffer by a
    // capacity class (an eval-mode aggregate is one strip of scratch).
    assert!(pooled_bytes(mfg.layers[0].n_dst * 64) < pooled_bytes(as_f32));
    let infer = BatchInferencer::new(Arc::clone(&ds), mfg.num_nodes(), &Trace::disabled());
    let mut rng = StdRng::seed_from_u64(0);
    let mut forward = || {
        let staged = infer.stage(&mfg);
        infer.forward(staged, model.as_mut(), &mfg, &mut rng)
    };
    // From a cold pool on: whatever a forward recycles, some forward allocated.
    release_scratch();
    watch(pooled_bytes(as_f32));
    let first = forward();
    forward();
    let (all, large, routes) = (allocations(), large_allocations(), csr_index_routes());
    assert_eq!(forward(), first, "the same batch predicts the same classes");
    let made = allocations() - all;
    assert_eq!(
        large_allocations() - large,
        0,
        "a warm forward must take every buffer of {} KiB or more from the pool",
        common::LARGE_BYTES / 1024
    );
    assert_eq!(
        watched_allocations(),
        0,
        "no forward, cold or warm, may allocate — and so none can recycle — a buffer the size of the batch as f32"
    );
    // Lending the slot (a reference count, a shape) costs no more than
    // recording the widened tensor did: 46 then, 45 now.
    assert!(made <= 45, "a warm stage + forward made {made} allocations");
    let [identity, sorted] = csr_index_routes();
    assert_eq!(
        [identity - routes[0], sorted - routes[1]],
        [fanouts.len() as u64, 0],
        "each hop's edge list arrives ordered by destination and is indexed in place"
    );
}

#[test]
fn warm_micro_kernels_allocate_only_what_they_return() {
    // The GEMM tile, the aggregation row kernel and the dropout epilogue, at
    // shapes small enough that each runs on this thread (the counters are
    // per thread; a larger product goes to the pool's threads) and wide
    // enough to fill the widest tile (8 x 32).
    let (m, k, n) = (16, 30, 32);
    let mut rng = StdRng::seed_from_u64(9);
    let mut matrix = |rows: usize, cols: usize| {
        Tensor::from_vec((0..rows * cols).map(|_| rng.random::<f32>() - 0.5).collect(), [rows, cols])
    };
    let (a, b) = (matrix(m, k), matrix(k, n));
    // Four edges into every output row, ordered by destination.
    let (src, dst): (Vec<u32>, Vec<u32>) = (0..4 * m as u32).map(|e| (e % k as u32, e / 4)).unzip();
    let made = |f: &mut dyn FnMut()| {
        let before = allocations();
        f();
        allocations() - before
    };
    for pass in 0..3 {
        // What an m x n result costs by itself: buffer, shape, reference count.
        let own = made(&mut || drop(Tensor::zeros([m, n])));
        let mut product = Tensor::zeros([0, 0]);
        let by_gemm = made(&mut || product = gemm(&a, &b, false, false));
        let mut agg = Vec::new();
        let by_agg = made(&mut || agg = scatter_reduce_forward(b.data(), n, &src, &dst, m, true));
        // As a tensor the result goes back to the pool when dropped.
        drop(Tensor::from_vec(agg, [m, n]));
        let by_dropout = made(&mut || {
            relu_dropout_in_place(product.data_mut(), 0.5, &mut rng);
        });
        if pass == 2 {
            assert!(by_gemm <= own, "a warm GEMM tile allocated: {by_gemm} > {own}");
            assert_eq!(by_agg, 0, "a warm row kernel allocated");
            assert_eq!(by_dropout, 0, "the dropout epilogue allocated");
        }
    }
}

#[test]
fn warm_server_step_allocates_a_fixed_small_number_of_times() {
    // One full micro-batch a step (`max_batch` 16, the default ladder's
    // 10,10 fanouts), untraced as the benchmark's `serve_open` runs it.
    let ds = Arc::new(DatasetConfig::tiny(3).build());
    let model = Trainer::with_trace(Arc::clone(&ds), RunConfig::test_tiny(), Trace::disabled()).into_model();
    let cfg = ServeConfig { max_batch: 16, ..ServeConfig::default() };
    let mut core = ServerCore::new(model, Arc::clone(&ds), cfg, Trace::disabled());
    let mut step_of_16 = |round: u32| {
        for k in 0..16 {
            let id = u64::from(round * 16 + k);
            let deadline_ns = core.now_ns() + 1_000_000_000;
            core.submit(Request { id, node: (round * 16 + k) % 200, deadline_ns }).unwrap();
        }
        let before = allocations();
        let out = core.step();
        let made = allocations() - before;
        assert!(out.responses.iter().all(|(_, r)| r.is_done()), "{out:?}");
        made
    };
    // The first steps grow the sampler's tables, the staging slot and the
    // tensor pool's free lists.
    for round in 0..3 {
        step_of_16(round);
    }
    // What is left is what a step hands out or drops before it returns: the
    // members, seeds and responses, the MFG, the headers of the model's
    // intermediate tensors. 45 on most steps, two more when a hop's edge list
    // outgrows what the sampler reserved. Gone from that count: the clone
    // a rolling p99 window sorted every step (the window is gone), and the
    // tensor the step widened its staged batch into before it lent the slot
    // (`BatchInferencer::forward`; the test above checks that path for the
    // buffer itself). (As a stage graph built per call the step made 64 to
    // 65: the boxed source, stage closures and hooks, a mutex-held batch
    // state, the metric handles looked up per run, copies of the fanouts and
    // of the fanned-out predictions.)
    let routes = csr_index_routes();
    for round in 3..12 {
        let made = step_of_16(round);
        assert!(made <= 47, "warm step {round} made {made} allocations");
    }
    let [identity, sorted] = csr_index_routes();
    assert_eq!(
        [identity - routes[0], sorted - routes[1]],
        [9 * 2, 0],
        "both hops of every step index the sampler's edge list in place"
    );
}
