//! Same bits: golden constants for what the program computes, compared
//! exactly. A change that is meant to move no bit (a refactor, a removal, a
//! faster kernel with the same arithmetic) must leave every constant here
//! as it is; one that moves a bit on purpose updates the constant and says
//! why.
//!
//! Five families:
//! * the `mean_loss` bits of three epochs of `DatasetConfig::tiny(77)` under
//!   `RunConfig::test_tiny()`: the Baseline executor, the SALIENT executor at
//!   one batch-prep worker, and `train_ddp` at two ranks (batch 32), each
//!   over f16 and over f32 feature storage;
//! * two FNV-1a digests (the checkpoint's) of a dataset shaped like the
//!   benchmark's (products-like, 100 f16 features, a 2 048-node train split)
//!   at its two seeds: one of the graph half (CSR arrays, labels and
//!   splits), one of the feature bits, so a failure says which half moved.
//!   Release builds digest the benchmark's own `G100k`; debug builds, which
//!   generate slowly, the `G10k` shape (as the graph crate's oracle tests
//!   do);
//! * an FNV-1a digest of the MFGs a warm `FastSampler` draws over
//!   `tiny(77)`'s train split: node ids and each hop's edge lists;
//! * the same digest of one SALIENT batch-prep epoch's MFGs over that
//!   split, in batch-id order, at one worker and at three;
//! * an FNV-1a digest of the answers of a seeded `serve::run_trace` replay
//!   (a bursty trace on a ticking virtual clock, so the ladder moves): each
//!   answered request's id, class and fanout level.
//!
//! The losses and the serving answers are keyed by GEMM rung (`SALIENT_GEMM_KERNEL`, else what CPUID
//! picks). The AVX2 and AVX-512 rungs agree bit for bit: both sum each
//! output element's K products in the same order, one fused multiply-add a
//! step. The portable rung rounds each product and adds four of them before
//! touching the output, so some losses differ in their last bits. The
//! losses do not depend on the pool width (`SALIENT_NUM_THREADS`): every
//! kernel's chunks are independent of where the pool cuts them.

use salient_repro::batchprep::{run_epoch, BatchResult, PrepConfig};
use salient_repro::core::checkpoint::fnv1a_update;
use salient_repro::core::{train_ddp, ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::{Dataset, DatasetConfig, FeatureSlab};
use salient_repro::sampler::{FastSampler, MessageFlowGraph};
use salient_repro::serve::{loadgen, run_trace, Response, ServeConfig, ServerCore};
use salient_repro::tensor::kernels::gemm_kernel_level;
use salient_repro::tensor::Dtype;
use salient_repro::trace::{Clock, Trace};
use std::sync::Arc;

/// Which run produced a row of losses.
#[derive(Clone, Copy, Debug)]
enum Run {
    Baseline,
    /// The SALIENT executor at one batch-prep worker.
    Salient,
    /// `train_ddp` at two ranks, batch 32.
    Ddp,
}

/// `(run, feature storage, mean_loss bits of epochs 1-3)` on the AVX2 and
/// AVX-512 rungs.
const VECTOR_LOSSES: [(Run, Dtype, [u64; 3]); 6] = [
    (Run::Baseline, Dtype::F16, [0x3ffd_9ea2_7333_3333, 0x3ffc_5735_6ccc_cccd, 0x3ffb_7f9e_e000_0000]),
    (Run::Salient, Dtype::F16, [0x3ffd_d934_2000_0000, 0x3ffc_817c_4000_0000, 0x3ffb_c77f_5333_3333]),
    (Run::Ddp, Dtype::F16, [0x3ffd_9663_0000_0000, 0x3ffc_af24_8000_0000, 0x3ffb_adee_c000_0000]),
    (Run::Baseline, Dtype::F32, [0x3ffd_9ea9_4ccc_cccd, 0x3ffc_573d_0ccc_cccd, 0x3ffb_7f9d_d999_999a]),
    (Run::Salient, Dtype::F32, [0x3ffd_d939_8000_0000, 0x3ffc_8176_6666_6666, 0x3ffb_c782_1333_3333]),
    (Run::Ddp, Dtype::F32, [0x3ffd_9664_0000_0000, 0x3ffc_af26_a000_0000, 0x3ffb_adf7_0000_0000]),
];

/// The same runs on the portable rung.
const PORTABLE_LOSSES: [(Run, Dtype, [u64; 3]); 6] = [
    (Run::Baseline, Dtype::F16, [0x3ffd_9ea2_6666_6666, 0x3ffc_5735_6ccc_cccd, 0x3ffb_7f9e_e666_6666]),
    (Run::Salient, Dtype::F16, [0x3ffd_d934_1333_3333, 0x3ffc_817c_4000_0000, 0x3ffb_c77f_4666_6666]),
    (Run::Ddp, Dtype::F16, [0x3ffd_9663_0000_0000, 0x3ffc_af24_8000_0000, 0x3ffb_adee_a000_0000]),
    (Run::Baseline, Dtype::F32, [0x3ffd_9ea9_4ccc_cccd, 0x3ffc_573d_0666_6666, 0x3ffb_7f9d_d999_999a]),
    (Run::Salient, Dtype::F32, [0x3ffd_d939_6666_6666, 0x3ffc_8176_7333_3333, 0x3ffb_c782_1333_3333]),
    (Run::Ddp, Dtype::F32, [0x3ffd_9664_0000_0000, 0x3ffc_af26_a000_0000, 0x3ffb_adf7_0000_0000]),
];

/// `(seed, graph digest, feature digest)` of the benchmark-shaped dataset
/// at `G100k` (release) and at `G10k` (debug).
const DIGESTS_G100K: [(u64, u64, u64); 2] = [
    (2868, 0xc66b_6130_aa8b_4edc, 0xc6a1_2676_55c3_2c1e),
    (94_445_095, 0x5fae_532b_8805_dc7f, 0x987f_9514_2950_bc02),
];
const DIGESTS_G10K: [(u64, u64, u64); 2] = [
    (2868, 0x5b79_c818_553f_8eb5, 0x51eb_2de2_f0f5_84b5),
    (94_445_095, 0xa84b_5d3c_2f95_c6a7, 0x571a_362d_e1d1_7691),
];

/// The MFGs of a warm `FastSampler` over `tiny(77)`'s train split.
const WARM_MFG_DIGEST: u64 = 0xe17a_e64c_ff88_bbf7;

/// The MFGs of one batch-prep epoch over `tiny(77)`'s train split, in
/// batch-id order, at any worker count.
const PREP_EPOCH_DIGEST: u64 = 0xf11e_55be_e00d_39b3;

/// The seeded serving replay's answers on the AVX2 / AVX-512 rungs and on
/// the portable rung. They agree: an argmax absorbs the portable rung's
/// last-bit differences in this replay.
const SERVE_ANSWERS_VECTOR: u64 = 0xe193_7004_8086_2a4d;
const SERVE_ANSWERS_PORTABLE: u64 = 0xe193_7004_8086_2a4d;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mean_loss_bits(run: Run, dtype: Dtype) -> Vec<u64> {
    let ds = Arc::new(DatasetConfig { dtype, ..DatasetConfig::tiny(77) }.build());
    let config = RunConfig { epochs: 3, ..RunConfig::test_tiny() };
    let losses: Vec<f64> = match run {
        Run::Baseline | Run::Salient => {
            let config = match run {
                Run::Baseline => RunConfig { executor: ExecutorKind::Baseline, ..config },
                _ => RunConfig { executor: ExecutorKind::Salient, num_workers: 1, ..config },
            };
            Trainer::new(ds, config).fit().iter().map(|s| s.mean_loss).collect()
        }
        Run::Ddp => {
            let config = RunConfig { batch_size: 32, ..config };
            train_ddp(&ds, &config, 2).expect("two healthy ranks").epoch_losses
        }
    };
    losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn three_epochs_of_every_executor_repeat_their_loss_bits() {
    let rung = gemm_kernel_level();
    let table = if rung == "portable" { &PORTABLE_LOSSES } else { &VECTOR_LOSSES };
    let mut moved = Vec::new();
    for &(run, dtype, want) in table {
        let got = mean_loss_bits(run, dtype);
        if got != want {
            let hex = |bits: &[u64]| bits.iter().map(|b| format!("{b:#018x}")).collect::<Vec<_>>();
            moved.push(format!("({run:?}, {dtype:?}): {:?}, expected {:?}", hex(&got), hex(&want)));
        }
    }
    assert!(moved.is_empty(), "on the {rung} rung the losses moved:\n{}", moved.join("\n"));
}

/// The benchmark's dataset shape at `nodes` nodes.
fn ledger_config(seed: u64, nodes: usize) -> DatasetConfig {
    DatasetConfig {
        name: format!("G{}k", nodes / 1000),
        num_nodes: nodes,
        feat_dim: 100,
        split_fracs: (2_048.0 / nodes as f64, 0.016, 0.70),
        seed,
        dtype: Dtype::F16,
        ..DatasetConfig::products_sim(1.0)
    }
}

/// FNV-1a over the graph half of `ds`: its CSR arrays, labels and splits,
/// each element as little-endian bytes of its own width.
fn graph_digest(ds: &Dataset) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut feed = |bytes: &[u8]| hash = fnv1a_update(hash, bytes);
    ds.graph.indptr().iter().for_each(|&x| feed(&(x as u64).to_le_bytes()));
    ds.graph.indices().iter().for_each(|x| feed(&x.to_le_bytes()));
    ds.labels.iter().for_each(|x| feed(&x.to_le_bytes()));
    for split in [&ds.splits.train, &ds.splits.val, &ds.splits.test] {
        split.iter().for_each(|x| feed(&x.to_le_bytes()));
    }
    hash
}

/// FNV-1a over the feature store's bits.
fn feature_digest(ds: &Dataset) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut feed = |bytes: &[u8]| hash = fnv1a_update(hash, bytes);
    match ds.features.slab() {
        FeatureSlab::Half(v) => v.iter().for_each(|h| feed(&h.to_bits().to_le_bytes())),
        FeatureSlab::Full(v) => v.iter().for_each(|x| feed(&x.to_bits().to_le_bytes())),
    }
    hash
}

#[test]
fn the_benchmark_datasets_repeat_their_digests() {
    let (nodes, table) =
        if cfg!(debug_assertions) { (10_000, &DIGESTS_G10K) } else { (100_000, &DIGESTS_G100K) };
    let mut moved = Vec::new();
    for &(seed, want_graph, want_features) in table {
        let ds = ledger_config(seed, nodes).build();
        for (half, got, want) in
            [("graph", graph_digest(&ds), want_graph), ("features", feature_digest(&ds), want_features)]
        {
            if got != want {
                moved.push(format!("seed {seed}, {half}: {got:#018x}, expected {want:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "G{}k digests moved:\n{}", nodes / 1000, moved.join("\n"));
}

/// FNV-1a over `mfgs`' node ids and each hop's edge lists, in order.
fn mfg_digest<'a>(mfgs: impl IntoIterator<Item = &'a MessageFlowGraph>) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut feed = |words: &[u32]| words.iter().for_each(|w| hash = fnv1a_update(hash, &w.to_le_bytes()));
    for mfg in mfgs {
        feed(&mfg.node_ids);
        for layer in &mfg.layers {
            feed(&layer.edge_src);
            feed(&layer.edge_dst);
        }
    }
    hash
}

#[test]
fn a_warm_fast_sampler_repeats_its_mfgs() {
    let ds = DatasetConfig::tiny(77).build();
    let mut sampler = FastSampler::new(77);
    let batches: Vec<_> = ds.splits.train.chunks(64).collect();
    // A first pass grows the sampler's tables; the second is digested.
    for batch in &batches {
        sampler.sample(&ds.graph, batch, &[10, 5]);
    }
    let mfgs: Vec<_> = batches.iter().map(|batch| sampler.sample(&ds.graph, batch, &[10, 5])).collect();
    let hash = mfg_digest(&mfgs);
    assert_eq!(hash, WARM_MFG_DIGEST, "the MFG digest moved: {hash:#018x}");
}

#[test]
fn a_prep_epoch_repeats_its_mfgs_at_one_worker_and_at_three() {
    let ds = Arc::new(DatasetConfig::tiny(77).build());
    for num_workers in [1, 3] {
        let cfg = PrepConfig { num_workers, fanouts: vec![5, 5], batch_size: 64, seed: 77, ..PrepConfig::default() };
        let handle = run_epoch(&ds, &ds.splits.train, &cfg);
        // Each batch's slot goes back as it arrives; only its MFG is kept.
        let mut mfgs: Vec<_> = handle.batches.iter().filter_map(BatchResult::ready).map(|b| (b.batch_id, b.mfg)).collect();
        handle.join();
        mfgs.sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(mfgs.len(), ds.splits.train.len().div_ceil(64));
        let hash = mfg_digest(mfgs.iter().map(|(_, mfg)| mfg));
        assert_eq!(hash, PREP_EPOCH_DIGEST, "at {num_workers} workers the epoch's MFGs moved: {hash:#018x}");
    }
}

#[test]
fn a_seeded_serving_replay_repeats_its_answers() {
    let ds = Arc::new(DatasetConfig::tiny(77).build());
    // One batch-prep worker: batches arrive in one order, so the model is
    // the same on every run.
    let config = RunConfig { epochs: 1, num_workers: 1, ..RunConfig::test_tiny() };
    let mut trainer = Trainer::new(Arc::clone(&ds), config);
    trainer.fit();
    // A short queue that counts as pressured from half full: the queue a
    // burst leaves behind drains through pressured batches.
    let cfg = ServeConfig {
        max_batch: 4,
        queue_capacity: 12,
        pressure_occupancy: 0.5,
        restore_after: 6,
        seed: 77,
        ..ServeConfig::default()
    };
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let mut core = ServerCore::new(trainer.into_model(), Arc::clone(&ds), cfg, trace);
    // Bursts fill the queue; calm phases are too short to restore all the
    // way, so answers come at all three fanout levels.
    let arrivals =
        loadgen::bursty_trace(77, 10_000.0, 400_000.0, 500_000, 4_000_000, ds.graph.num_nodes(), 2_000_000);
    let mut hash = FNV_OFFSET;
    for (id, response) in run_trace(&mut core, &arrivals) {
        if let Response::Done { class, fanout_level, .. } = response {
            for word in [id, u64::from(class), fanout_level as u64] {
                hash = fnv1a_update(hash, &word.to_le_bytes());
            }
        }
    }
    let rung = gemm_kernel_level();
    let want = if rung == "portable" { SERVE_ANSWERS_PORTABLE } else { SERVE_ANSWERS_VECTOR };
    assert_eq!(hash, want, "on the {rung} rung the serving answers moved: {hash:#018x}");
}
