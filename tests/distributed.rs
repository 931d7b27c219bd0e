//! Integration tests for distributed data-parallel training.

use salient_repro::core::{train_ddp, DdpError, RunConfig};
use salient_repro::ddp::Communicator;
use salient_repro::graph::DatasetConfig;
use salient_repro::tensor::rng::{derive, SliceRandom, StdRng};
use salient_repro::trace::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn dataset() -> Arc<salient_repro::graph::Dataset> {
    let mut cfg = DatasetConfig::tiny(50);
    cfg.split_fracs = (0.6, 0.2, 0.2);
    Arc::new(cfg.build())
}

#[test]
fn ddp_trains_with_various_rank_counts() {
    let ds = dataset();
    let run = RunConfig {
        epochs: 3,
        batch_size: 32,
        learning_rate: 5e-3,
        ..RunConfig::test_tiny()
    };
    for ranks in [1usize, 2, 4] {
        let result = train_ddp(&ds, &run, ranks, &Trace::disabled()).unwrap();
        assert_eq!(result.epoch_losses.len(), 3);
        assert!(
            result.epoch_losses.iter().all(|l| l.is_finite()),
            "{ranks} ranks: losses {:?}",
            result.epoch_losses
        );
        assert!(
            result.epoch_losses.last().unwrap() < result.epoch_losses.first().unwrap(),
            "{ranks} ranks: loss should fall: {:?}",
            result.epoch_losses
        );
    }
}

#[test]
fn effective_batch_scales_with_ranks() {
    // With R ranks each epoch has ceil(train / (batch*R)) optimizer steps;
    // verify indirectly: more ranks, fewer steps, so with a fixed epoch
    // budget the loss decreases less per epoch but stays on trend.
    let ds = dataset();
    let run = RunConfig {
        epochs: 1,
        batch_size: 16,
        ..RunConfig::test_tiny()
    };
    let single = train_ddp(&ds, &run, 1, &Trace::disabled()).unwrap();
    let quad = train_ddp(&ds, &run, 4, &Trace::disabled()).unwrap();
    assert!(single.epoch_losses[0].is_finite() && quad.epoch_losses[0].is_finite());
}

#[test]
fn allreduce_sum_is_associative_for_odd_sizes() {
    // Ring all-reduce with buffer lengths not divisible by world size.
    for world in [2usize, 3, 5] {
        let comms = Communicator::ring(world);
        let outputs: Vec<Vec<f32>> = std::thread::scope(|s| {
            comms
                .into_iter()
                .enumerate()
                .map(|(r, comm)| {
                    s.spawn(move || {
                        let mut buf: Vec<f32> = (0..7).map(|i| (r * 7 + i) as f32).collect();
                        comm.all_reduce_sum(&mut buf).unwrap();
                        buf
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let expect: Vec<f32> = (0..7)
            .map(|i| (0..world).map(|r| (r * 7 + i) as f32).sum())
            .collect();
        for (r, out) in outputs.iter().enumerate() {
            assert_eq!(out, &expect, "world {world}, rank {r}");
        }
    }
}

/// A panic inside a rank's own step (here: a training label outside the
/// model's classes, which the loss rejects) must kill that rank and only
/// that rank. Its peers see a silent link and return typed errors; the run
/// reports the dead rank. A rank that survived its own panic would walk into
/// the next collective out of step with its peers and corrupt their buffers.
#[test]
fn a_panicking_rank_step_kills_only_that_rank() {
    let run = RunConfig {
        epochs: 1,
        batch_size: 32,
        comm_timeout_ms: 250,
        ..RunConfig::test_tiny()
    };
    let ranks = 3;
    // The first node of epoch 0's first chunk lands in rank 0's shard
    // (`rank_loop` shuffles epoch e from `derive(seed, &[3, e])`, its
    // `Stream::DdpShuffle`, then deals a chunk out round-robin).
    let mut ds = DatasetConfig::tiny(50).build();
    let mut order = ds.splits.train.clone();
    order.shuffle(&mut StdRng::seed_from_u64(derive(run.seed, &[3, 0])));
    ds.labels[order[0] as usize] = ds.num_classes as u32;
    let ds = Arc::new(ds);

    // Count panics on rank threads; everything else goes to the hook that
    // was installed, which is put back before asserting.
    let rank_panics = Arc::new(AtomicUsize::new(0));
    let previous = Arc::new(std::panic::take_hook());
    let (counter, chained) = (Arc::clone(&rank_panics), Arc::clone(&previous));
    std::panic::set_hook(Box::new(move |info| {
        let on_rank = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("salient-ddp-rank-"));
        if on_rank {
            counter.fetch_add(1, Ordering::SeqCst);
        } else {
            chained(info);
        }
    }));
    let result = train_ddp(&ds, &run, ranks, &Trace::disabled());
    drop(std::panic::take_hook());
    if let Ok(hook) = Arc::try_unwrap(previous) {
        std::panic::set_hook(hook);
    }

    match result {
        Err(DdpError::RankPanicked { rank }) => assert_eq!(rank, 0),
        Err(other) => panic!("expected RankPanicked, got {other}"),
        Ok(_) => panic!("a dead rank must fail the run"),
    }
    assert_eq!(
        rank_panics.load(Ordering::SeqCst),
        1,
        "only the rank whose step panicked may panic"
    );
}
