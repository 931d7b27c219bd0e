//! Fault-injection matrix: every instrumented site, exercised in both
//! batch-prep modes, asserting the pipeline's recovery invariants:
//!
//! * the epoch always terminates (no hangs, no deadlocks);
//! * every batch is accounted for — prepared, retried, or reported as a
//!   terminal `BatchResult::Failed` marker (dropped messages excepted);
//! * a batch is the same MFG whichever worker prepared it, however many
//!   there were, in either mode;
//! * no pinned staging slot leaks, whatever panics;
//! * every injected fault is *observable*: each retry and failed batch is
//!   one point event on the trace, as many as the plan implies, and each
//!   item panic is a retry or a failed batch;
//! * DDP collectives surface typed `CommError`s instead of hanging, and a
//!   rank that panics is reported by rank;
//! * checkpoint saves are crash-safe and loads detect corruption.
//!
//! The fault plan is process-global, so every test here serializes on one
//! mutex; nothing else runs in this binary.

use salient_repro::batchprep::{
    run_epoch, run_epoch_with_pool, BatchResult, PinnedPool, PrepConfig, PrepMode, SamplerKind,
};
use salient_repro::core::checkpoint::{fnv1a_update, Checkpoint, CheckpointError};
use salient_repro::core::{train_ddp, DdpError, RunConfig};
use salient_repro::ddp::CommErrorKind;
use salient_repro::fault::{self, sites, FaultKind, FaultPlan, FaultSpec, Trigger};
use salient_repro::graph::{Dataset, DatasetConfig};
use salient_repro::sampler::MessageFlowGraph;
use salient_repro::serve::{Rejected, Request, Response, ServeConfig, ServerCore};
use salient_repro::tensor::Tensor;
use salient_repro::trace::{names, Clock, Snapshot, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes tests: the installed fault plan is process-global state.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn dataset() -> Arc<Dataset> {
    static DS: OnceLock<Arc<Dataset>> = OnceLock::new();
    Arc::clone(DS.get_or_init(|| Arc::new(DatasetConfig::tiny(11).build())))
}

/// The one staging pool every prep scenario of this binary borrows, as a
/// `Trainer` lends its own to epoch after epoch: whatever a scenario panics,
/// the next one starts from the pool it left behind, and finds it whole.
fn pool() -> PinnedPool {
    static POOL: OnceLock<PinnedPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let features = &dataset().features;
        PinnedPool::new(3, 0, features.dim(), 0, features.dtype())
    })
    .clone()
}

fn prep_cfg(mode: PrepMode) -> PrepConfig {
    PrepConfig {
        num_workers: 2,
        fanouts: vec![5, 3],
        batch_size: 32,
        slots: 3,
        mode,
        sampler: SamplerKind::Fast,
        seed: 4,
        // A fresh per-run registry on a deterministic virtual clock, so every
        // matrix scenario can count its recovery path's point events.
        trace: Trace::new(Clock::virtual_with_tick(1_000)),
    }
}

/// Batch prep's fault events on `trace`, in the order
/// `[retry, failed_batch]`.
type FaultEvents = [usize; 2];

const NO_FAULTS: FaultEvents = [0; 2];

fn fault_events(trace: &Trace) -> FaultEvents {
    fault_events_of(&trace.snapshot())
}

fn fault_events_of(snap: &Snapshot) -> FaultEvents {
    [names::events::RETRY, names::events::FAILED_BATCH].map(|name| snap.count(name))
}

/// Ready batches as `(batch id, digest of its MFG)`, in id order.
type Batches = Vec<(usize, u64)>;

/// FNV-1a over an MFG's node ids and each hop's edge lists.
fn mfg_digest(mfg: &MessageFlowGraph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(&mfg.node_ids)
        .chain(mfg.layers.iter().flat_map(|layer| [&layer.edge_src, &layer.edge_dst]));
    for w in words.flatten() {
        hash = fnv1a_update(hash, &w.to_le_bytes());
    }
    hash
}

fn ids(ready: &Batches) -> Vec<usize> {
    ready.iter().map(|&(id, _)| id).collect()
}

/// The batches of a clean epoch at one worker: what every schedule, fault
/// plan and worker count must deliver for each batch it prepares on its
/// first attempt.
fn one_clean_worker(mode: PrepMode) -> Batches {
    let cfg = PrepConfig { num_workers: 1, ..prep_cfg(mode) };
    let (ready, failed, events) = run_under_plan(FaultPlan::new(0), &cfg);
    assert!(failed.is_empty() && events == NO_FAULTS, "{failed:?} {events:?}");
    ready
}

/// Runs one prep epoch under `plan`, consuming every message. Returns
/// `(ready batches, failed batch ids, fault events)` and asserts the
/// no-leaked-slot invariant.
fn run_under_plan(plan: FaultPlan, cfg: &PrepConfig) -> (Batches, Vec<usize>, FaultEvents) {
    let ds = dataset();
    let order = ds.splits.train.clone();
    let _guard = fault::scoped(plan);
    let pool = pool();
    assert_eq!(pool.available(), pool.capacity(), "the previous scenario leaked a slot");
    let handle = run_epoch_with_pool(&ds, &order, cfg, &pool);
    let mut ready = Vec::new();
    let mut failed = Vec::new();
    for msg in handle.batches.iter() {
        match msg {
            BatchResult::Ready(b) => ready.push((b.batch_id, mfg_digest(&b.mfg))),
            BatchResult::Failed { batch_id } => failed.push(batch_id),
        }
    }
    handle.join();
    let events = fault_events(&cfg.trace);
    assert_eq!(pool.available(), pool.capacity(), "a staging slot leaked: {events:?}");
    // The stream and the trace agree on the failures.
    assert_eq!(failed.len(), events[1], "{failed:?}");
    ready.sort_unstable();
    failed.sort_unstable();
    (ready, failed, events)
}

/// The prep sites a panic costs a batch one attempt at.
const ITEM_SITES: [fault::Site; 3] = [sites::PREP_SAMPLE, sites::PREP_SLICE, sites::PREP_SEND];

/// Runs `scenario` while counting the faults the installed plan fires at
/// the per-item prep sites; with a panic plan, each is an item panic.
fn counting_item_panics<T>(scenario: impl FnOnce() -> T) -> (T, usize) {
    let fired = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&fired);
    fault::set_fire_observer(Some(Arc::new(move |site: &str, _occ: u64| {
        if ITEM_SITES.iter().any(|s| s.as_str() == site) {
            counter.fetch_add(1, Ordering::SeqCst);
        }
    })));
    let out = scenario();
    fault::set_fire_observer(None);
    (out, fired.load(Ordering::SeqCst))
}

fn expected_batches() -> usize {
    dataset().splits.train.len().div_ceil(32)
}

/// A rule that fires on every attempt of one occurrence (no budget), unlike
/// `panic_at`, whose single-firing budget lets the first retry through.
fn always_panic_at(site: fault::Site, occ: u64) -> FaultSpec {
    FaultSpec {
        site,
        kind: FaultKind::Panic,
        trigger: Trigger::Once(occ),
        budget: None,
    }
}

const MODES: [PrepMode; 2] = [PrepMode::SharedMemory, PrepMode::Multiprocessing];

#[test]
fn item_panic_is_retried_and_epoch_completes() {
    let _s = serial();
    let n = expected_batches();
    for mode in MODES {
        for site in ITEM_SITES {
            // Budget 1: the panic fires once, the retry succeeds.
            let plan = FaultPlan::new(1).panic_at(site, 2);
            let ((ready, failed, events), panics) =
                counting_item_panics(|| run_under_plan(plan, &prep_cfg(mode)));
            assert_eq!(ids(&ready), (0..n).collect::<Vec<_>>(), "{mode:?}/{site}");
            assert!(failed.is_empty(), "{mode:?}/{site}: {failed:?}");
            assert_eq!(events, [1, 0], "{mode:?}/{site}");
            assert_eq!(panics, 1, "{mode:?}/{site}");
        }
    }
}

#[test]
fn exhausted_retry_budget_yields_exactly_one_failed_marker() {
    let _s = serial();
    let n = expected_batches();
    for mode in MODES {
        for site in ITEM_SITES {
            // Unbudgeted rule: batch 1 panics on the first attempt AND on
            // its one retry, exhausting the budget.
            let plan = FaultPlan::new(2).with_spec(always_panic_at(site, 1));
            let ((ready, failed, events), panics) =
                counting_item_panics(|| run_under_plan(plan, &prep_cfg(mode)));
            let mut want: Vec<usize> = (0..n).collect();
            want.retain(|&b| b != 1);
            assert_eq!(ids(&ready), want, "{mode:?}/{site}");
            assert_eq!(failed, vec![1], "{mode:?}/{site}");
            assert_eq!(events, [1, 1], "{mode:?}/{site}");
            // Every item panic is either retried or the batch's failure.
            assert_eq!(panics, events[0] + events[1], "{mode:?}/{site}");
        }
    }
}

#[test]
fn fault_events_carry_the_failing_batch_id() {
    let _s = serial();
    let cfg = prep_cfg(PrepMode::SharedMemory);
    // Batch 1 panics on every attempt: one retry event, then one terminal
    // failed-batch event — both tagged with batch id 1 on the timeline.
    let plan = FaultPlan::new(2).with_spec(always_panic_at(sites::PREP_SAMPLE, 1));
    let (_ready, failed, _events) = run_under_plan(plan, &cfg);
    assert_eq!(failed, vec![1]);
    let snap = cfg.trace.snapshot();
    let tagged = |name: names::EventName| -> Vec<u64> {
        snap.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.batch)
            .collect()
    };
    assert_eq!(tagged(names::events::RETRY), vec![1]);
    assert_eq!(tagged(names::events::FAILED_BATCH), vec![1]);
}

#[test]
fn dropped_send_loses_the_batch_but_not_the_slot() {
    let _s = serial();
    let n = expected_batches();
    for mode in MODES {
        let plan = FaultPlan::new(3).drop_at(sites::PREP_SEND, 0);
        let (ready, failed, events) = run_under_plan(plan, &prep_cfg(mode));
        assert_eq!(ids(&ready), (1..n).collect::<Vec<_>>(), "{mode:?}");
        assert!(failed.is_empty(), "{mode:?}");
        assert_eq!(events, NO_FAULTS, "a dropped message is silent");
    }
}

#[test]
fn straggler_delay_only_slows_the_epoch() {
    let _s = serial();
    let n = expected_batches();
    for mode in MODES {
        let plan = FaultPlan::new(4).delay_at(sites::PREP_SAMPLE, 0, Duration::from_millis(30));
        let (ready, failed, events) = run_under_plan(plan, &prep_cfg(mode));
        assert_eq!(ready.len(), n, "{mode:?}");
        assert!(failed.is_empty(), "{mode:?}");
        assert_eq!(events, NO_FAULTS, "{mode:?}");
    }
}

#[test]
fn no_plan_collapses_the_worker_set() {
    let _s = serial();
    let n = expected_batches();
    // Every batch panics at its send site on every attempt. Each panic
    // costs its batch an attempt, never its worker: at any worker count,
    // in either mode, every batch arrives as one failed marker and the
    // epoch joins with every slot back.
    let every_send = || {
        FaultPlan::new(6).with_spec(FaultSpec {
            site: sites::PREP_SEND,
            kind: FaultKind::Panic,
            trigger: Trigger::Always,
            budget: None,
        })
    };
    for mode in MODES {
        for num_workers in 1..=3 {
            let cfg = PrepConfig { num_workers, ..prep_cfg(mode) };
            let (ready, failed, events) = run_under_plan(every_send(), &cfg);
            assert!(ready.is_empty(), "{mode:?} at {num_workers}: {ready:?}");
            assert_eq!(failed, (0..n).collect::<Vec<_>>(), "{mode:?} at {num_workers}");
            assert_eq!(events, [n, n], "{mode:?} at {num_workers}");
        }
    }
}

#[test]
fn every_batch_is_schedule_independent() {
    let _s = serial();
    // Each attempt at batch b samples from (epoch seed, b, attempt) alone, so
    // the batch that arrives is the same whichever worker claimed it, at one
    // worker or three, in either mode.
    let clean = one_clean_worker(PrepMode::SharedMemory);
    for mode in MODES {
        for num_workers in 1..=3 {
            let cfg = PrepConfig { num_workers, ..prep_cfg(mode) };
            let (ready, failed, events) = run_under_plan(FaultPlan::new(12), &cfg);
            assert!(failed.is_empty(), "{mode:?} at {num_workers}: {failed:?}");
            assert_eq!(events, NO_FAULTS, "{mode:?} at {num_workers}");
            assert_eq!(ready, clean, "{mode:?} at {num_workers} workers");
        }
    }
}

#[test]
fn a_retry_is_schedule_independent() {
    let _s = serial();
    // Batch 2's first attempt panics, at any of the item sites; its retry
    // draws from (epoch seed, batch, attempt) alone, so the batch that
    // arrives is the same whether one worker caught the panic or any of
    // three did, in either mode, whichever site it came from.
    let n = expected_batches();
    let mut retried_batches: Option<Batches> = None;
    for site in ITEM_SITES {
        for mode in MODES {
            for num_workers in 1..=3 {
                let cfg = PrepConfig { num_workers, ..prep_cfg(mode) };
                let plan = FaultPlan::new(12).panic_at(site, 2);
                let (ready, failed, events) = run_under_plan(plan, &cfg);
                let at = format!("{site} in {mode:?} at {num_workers}");
                assert!(failed.is_empty(), "{at}: {failed:?}");
                assert_eq!(events, [1, 0], "{at}");
                assert_eq!(ready.len(), n, "{at}");
                let want = retried_batches.get_or_insert_with(|| ready.clone());
                assert_eq!(&ready, want, "{at} workers, batch 2 retried");
            }
        }
    }
    // The retry is a stream of its own: only batch 2 differs from the clean
    // epoch's.
    let clean = one_clean_worker(PrepMode::SharedMemory);
    let retried_batches = retried_batches.unwrap_or_default();
    let moved: Vec<usize> = (clean.iter().zip(&retried_batches))
        .filter(|(a, b)| a != b)
        .map(|(&(id, _), _)| id)
        .collect();
    assert_eq!(moved, vec![2]);
}

#[test]
fn train_stage_panic_retires_one_batch_and_the_pipeline_survives() {
    let _s = serial();
    use salient_repro::core::Trainer;
    // Batch 2's train step panics in the SALIENT trainer's loop. The loop's
    // guard catches it, retires the batch (its pinned slot returns with the
    // unwound tape — with slots=4 and more batches than slots, a leaked slot
    // would starve the prep workers and hang this test), counts it against
    // the panic budget, and the epoch completes on the surviving batches.
    let ds = dataset();
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let run = RunConfig {
        epochs: 1,
        batch_size: 32,
        ..RunConfig::test_tiny()
    };
    let n = ds.splits.train.len().div_ceil(run.batch_size);
    assert!(n > run.slots, "must recycle slots to prove none leaked");
    let _guard = fault::scoped(FaultPlan::new(41).panic_at(sites::PIPE_TRAIN, 2));
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, trace.clone());
    let stats = trainer.fit();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].batches, n - 1, "exactly the panicked batch is lost");
    assert_eq!(stats[0].failed_batches, 1, "the loss is accounted, not silent");
    assert_eq!(stats[0].batches + stats[0].failed_batches, n, "every batch is in one count");
    let staging = trainer.staging_pool();
    assert_eq!(staging.available(), staging.capacity(), "the trainer's pool is whole again");

    // The panic is observable on the timeline: one point event tagged
    // with the failing batch id; the pipeline never poisons.
    let snap = trace.snapshot();
    let tagged: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| e.name == names::events::PIPE_STAGE_PANIC)
        .map(|e| e.batch)
        .collect();
    assert_eq!(tagged, vec![2]);
    assert_eq!(snap.count(names::events::PIPE_POISONED), 0);

    // The panicked batch never finished a train step.
    let trained: Vec<u64> = snap
        .spans(names::spans::STAGE_TRAIN)
        .map(|e| e.batch)
        .collect();
    assert_eq!(trained.len(), n - 1);
    assert!(!trained.contains(&2), "batch 2 must not train after its panic");
}

#[test]
fn train_stage_panic_unwinds_through_the_tape_that_holds_the_slot() {
    let _s = serial();
    use salient_repro::core::Trainer;
    // The train step's tape is lent a batch's pinned slot. Batch 1's step
    // panics right after: the unwind drops the tape inside the loop's
    // panic guard, the slot goes home with it, and the epoch
    // trains every other batch — through two slots, so a slot that stayed
    // with the dead step would starve the prep workers and hang this test.
    let ds = dataset();
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let run = RunConfig {
        epochs: 1,
        batch_size: 32,
        slots: 2,
        ..RunConfig::test_tiny()
    };
    let n = ds.splits.train.len().div_ceil(run.batch_size);
    assert!(n > run.slots + 1, "must recycle slots after the panic to prove none leaked");
    let _guard = fault::scoped(FaultPlan::new(43).panic_at(sites::PIPE_TRAIN, 1));
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, trace.clone());
    let stats = trainer.train_epoch();
    assert_eq!(stats.batches, n - 1, "exactly the panicked batch is lost");
    assert_eq!(stats.failed_batches, 1, "the loss is accounted, not silent");
    let staging = trainer.staging_pool();
    assert_eq!(staging.available(), staging.capacity(), "the unwound step's slot is back");

    let snap = trace.snapshot();
    assert_eq!(snap.count(names::events::PIPE_STAGE_PANIC), 1);
    assert_eq!(snap.count(names::events::PIPE_POISONED), 0);
    // The batch was handed over before it died (the wait that ended with
    // it is `stage.prep`, or `warmup` if it arrived first), and the next one
    // trained.
    let waits = snap.spans(names::spans::STAGE_PREP).chain(snap.spans(names::spans::WARMUP));
    let handed: Vec<u64> = waits.map(|e| e.batch).collect();
    let trained: Vec<u64> = snap.spans(names::spans::STAGE_TRAIN).map(|e| e.batch).collect();
    assert!(handed.contains(&1) && trained.contains(&2) && !trained.contains(&1), "{handed:?} {trained:?}");
    drop(_guard);
    let stats = trainer.train_epoch();
    assert_eq!((stats.batches, stats.failed_batches), (n, 0), "the next epoch is whole");
}

/// `RunConfig::slots`' other half: the consumer holds one slot — the batch in
/// its train step — so with two, the worker prepares batch 1 into the second
/// while batch 0 trains. A 50 ms delay inside batch 0's step keeps it
/// training long enough for the order of the span ends to be the overlap.
#[test]
fn two_slots_let_the_worker_prepare_the_next_batch_under_a_train_step() {
    let _s = serial();
    use salient_repro::core::Trainer;
    let ds = dataset();
    let trace = Trace::new(Clock::monotonic());
    let run = RunConfig {
        batch_size: 32,
        slots: 2,
        num_workers: 1,
        ..RunConfig::test_tiny()
    };
    let n = ds.splits.train.len().div_ceil(run.batch_size);
    let _guard = fault::scoped(FaultPlan::new(44).delay_at(sites::PIPE_TRAIN, 0, Duration::from_millis(50)));
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, trace.clone());
    let stats = trainer.train_epoch();
    assert_eq!((stats.batches, stats.failed_batches), (n, 0));
    let staging = trainer.staging_pool();
    assert_eq!((staging.available(), staging.capacity()), (2, 2));

    let snap = trace.snapshot();
    let end_of = |span, batch| snap.spans(span).find(|e| e.batch == batch).map(|e| e.end_ns);
    let sliced = end_of(names::spans::PREP_SLICE, 1).expect("batch 1 was sliced");
    let trained = end_of(names::spans::STAGE_TRAIN, 0).expect("batch 0 trained");
    assert!(sliced < trained, "batch 1 sliced at {sliced} ns, batch 0 trained until {trained} ns");
}

#[test]
fn train_stage_drop_fault_skips_the_batch_silently_but_accounted() {
    let _s = serial();
    use salient_repro::core::Trainer;
    // Same site, Drop kind: the train step sheds the batch without a panic,
    // once its tape holds the slot — no stage-panic activity, but the batch
    // is still accounted as failed and the rest of the epoch is untouched.
    let ds = dataset();
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let run = RunConfig {
        epochs: 1,
        batch_size: 32,
        ..RunConfig::test_tiny()
    };
    let n = ds.splits.train.len().div_ceil(run.batch_size);
    let _guard = fault::scoped(FaultPlan::new(42).drop_at(sites::PIPE_TRAIN, 1));
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, trace.clone());
    let stats = trainer.fit();
    assert_eq!(stats[0].batches, n - 1);
    assert_eq!(stats[0].failed_batches, 1);
    assert_eq!(stats[0].batches + stats[0].failed_batches, n, "every batch is in one count");
    let snap = trace.snapshot();
    assert_eq!(snap.count(names::events::PIPE_STAGE_PANIC), 0);
    assert_eq!(snap.count(names::events::PIPE_POISONED), 0);
}

#[test]
fn pipeline_poison_dumps_the_flight_recorder_with_the_failing_chain() {
    let _s = serial();
    use salient_repro::core::Trainer;
    // Every train step panics: the third exceeds the trainer's panic
    // budget (2) and poisons the run. A run with an attached flight
    // recorder must leave a parseable post-mortem dump on disk carrying
    // the poisoning batch's causal chain.
    let ds = dataset();
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/fault_matrix_blackbox");
    std::fs::remove_dir_all(dir).ok();
    let trace = Trace::with_blackbox(Clock::virtual_with_tick(1_000), dir);
    let run = RunConfig {
        epochs: 1,
        batch_size: 32,
        ..RunConfig::test_tiny()
    };
    let _guard = fault::scoped(FaultPlan::new(43).with_spec(FaultSpec {
        site: sites::PIPE_TRAIN,
        kind: FaultKind::Panic,
        trigger: Trigger::Always,
        budget: None,
    }));
    let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, trace.clone());
    let stats = trainer.fit();
    // The attached-blackbox trainer also installs a global fire observer;
    // detach it so later tests in this serialized binary are unaffected.
    fault::set_fire_observer(None);

    // A poisoned epoch does not read as a perfect one: the three batches
    // that panicked and the ones never pulled are all failed, and a mean
    // over no trained batch is not a loss of zero.
    assert_eq!(stats[0].batches, 0);
    assert_eq!(stats[0].failed_batches, expected_batches());
    assert!(stats[0].mean_loss.is_nan(), "{}", stats[0].mean_loss);

    let snap = trace.snapshot();
    assert_eq!(snap.count(names::events::PIPE_STAGE_PANIC), 3, "the third panic is over budget");
    assert_eq!(snap.count(names::events::PIPE_POISONED), 1, "the panic storm poisons once");
    // One dump as each injected panic fires, one for the poison.
    assert_eq!(snap.count(names::events::BLACKBOX_DUMP), 4);
    let bb = trace.blackbox().expect("recorder attached at construction");
    assert!(bb.last_dump().is_some());

    // Find the poison dump (earlier fire-observer dumps share the dir) and
    // check it post-mortem: valid JSON, poison reason, the failing batch's
    // chain reconstructed from the recorded events.
    use salient_repro::trace::json::parse;
    let mut poison_dump = None;
    for entry in std::fs::read_dir(dir).expect("dump dir exists") {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let doc = parse(&text).expect("every dump must be valid JSON");
        let meta = doc.get("blackbox").expect("dump carries trigger metadata");
        if meta.get("reason").and_then(|r| r.as_str())
            == Some(names::events::PIPE_POISONED.as_str())
        {
            poison_dump = Some(doc);
        }
    }
    let doc = poison_dump.expect("one dump must record the poison trigger");
    let meta = doc.get("blackbox").unwrap();
    // Budget 2: the third panicking *arrival* poisons. Prep workers race,
    // so that arrival's batch id varies — but it is always a real batch of
    // the epoch, and the dump must carry its chain.
    let poisoned_batch = meta
        .get("batch")
        .unwrap()
        .as_num()
        .expect("dump records the poisoning batch");
    assert!(
        poisoned_batch >= 0.0 && poisoned_batch < expected_batches() as f64,
        "poisoning batch {poisoned_batch} out of range"
    );
    let chain = doc.get("chain").unwrap().as_arr().unwrap();
    assert!(
        !chain.is_empty(),
        "the dump must carry the failing batch's causal chain"
    );
    for edge in chain {
        assert!(edge.get("kind").unwrap().as_str().is_some());
        assert!(edge.get("start_ns").unwrap().as_num().is_some());
    }
    assert!(doc.get("trace").unwrap().get("traceEvents").is_some());
    std::fs::remove_dir_all(dir).ok();
}

fn ddp_cfg() -> RunConfig {
    RunConfig {
        epochs: 1,
        batch_size: 32,
        comm_timeout_ms: 250,
        ..RunConfig::test_tiny()
    }
}

#[test]
fn ddp_rank_death_is_reported_not_hung() {
    let _s = serial();
    let ds = dataset();
    let _guard = fault::scoped(FaultPlan::new(7).panic_at(sites::DDP_RANK, 1));
    match train_ddp(&ds, &ddp_cfg(), 2, &Trace::disabled()) {
        Ok(_) => panic!("a dead rank must fail the run"),
        Err(DdpError::RankPanicked { rank }) => assert_eq!(rank, 1),
        Err(other) => panic!("expected RankPanicked, got {other}"),
    }
}

#[test]
fn ddp_dropped_messages_surface_typed_timeout() {
    let _s = serial();
    let ds = dataset();
    // Rank 0's ring sends vanish (sticky): its neighbor must time out with
    // a typed error instead of blocking forever.
    let _guard = fault::scoped(FaultPlan::new(8).drop_at(sites::DDP_SEND, 0));
    match train_ddp(&ds, &ddp_cfg(), 2, &Trace::disabled()) {
        Ok(_) => panic!("a dropped link must fail the run"),
        Err(DdpError::Comm(e)) => assert!(
            matches!(e.kind, CommErrorKind::Timeout(_) | CommErrorKind::Disconnected),
            "unexpected kind: {e}"
        ),
        Err(other) => panic!("expected Comm, got {other}"),
    }
}

#[test]
fn ddp_receive_faults_kill_the_rank_or_time_out_its_step() {
    let _s = serial();
    let ds = dataset();
    // A panic at rank 1's first receive, the broadcast in `sync_model`,
    // kills that rank.
    {
        let _guard = fault::scoped(FaultPlan::new(13).panic_at(sites::DDP_RECV, 1));
        match train_ddp(&ds, &ddp_cfg(), 2, &Trace::disabled()) {
            Ok(_) => panic!("a rank that panicked must fail the run"),
            Err(DdpError::RankPanicked { rank }) => assert_eq!(rank, 1),
            Err(other) => panic!("expected RankPanicked, got {other}"),
        }
    }
    // A dropped receive on rank 0 ends its step in a typed timeout; rank 0
    // is joined first, so its error is the run's.
    let _guard = fault::scoped(FaultPlan::new(14).drop_at(sites::DDP_RECV, 0));
    match train_ddp(&ds, &ddp_cfg(), 2, &Trace::disabled()) {
        Ok(_) => panic!("a dropped receive must fail the run"),
        Err(DdpError::Comm(e)) => {
            assert_eq!(e.rank, 0, "{e}");
            assert!(matches!(e.kind, CommErrorKind::Timeout(_)), "unexpected kind: {e}");
        }
        Err(other) => panic!("expected Comm, got {other}"),
    }
}

#[test]
fn a_dropped_broadcast_receive_times_out_in_the_broadcast_phase() {
    let _s = serial();
    let ds = dataset();
    // `ddp.recv=drop@1`: rank 1's first receive is the broadcast of rank
    // 0's first parameter, in `sync_model` before any training step. Rank
    // 0 then loses its peer; the run reports the cause, rank 1's timeout.
    let _guard = fault::scoped(FaultPlan::parse(15, "ddp.recv=drop@1").unwrap());
    match train_ddp(&ds, &ddp_cfg(), 2, &Trace::disabled()) {
        Ok(_) => panic!("a dropped broadcast must fail the run"),
        Err(DdpError::Comm(e)) => {
            assert_eq!((e.rank, e.phase.to_string().as_str()), (1, "broadcast"), "{e}");
            assert!(matches!(e.kind, CommErrorKind::Timeout(_)), "unexpected kind: {e}");
        }
        Err(other) => panic!("expected Comm, got {other}"),
    }
}

/// Runs `train_ddp` at two ranks for two epochs under `plan`, which
/// keeps batch 1 from every rank in every epoch, and checks what every such
/// run must show: it completes (a rank without a batch for a step still
/// joins the all-reduce, so no peer times out) and every rank takes every
/// step. A leaked slot would starve a rank's prep worker and hang the run.
/// Debug builds of `train_ddp` also check that every replica ends on rank
/// 0's parameters, bit for bit. Returns the trace and the epoch losses.
fn ddp_run_under(plan: FaultPlan) -> (Snapshot, Vec<f64>) {
    let ds = dataset();
    let cfg = RunConfig { epochs: 2, ..ddp_cfg() };
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let _guard = fault::scoped(plan);
    let result = match train_ddp(&ds, &cfg, 2, &trace) {
        Ok(result) => result,
        Err(e) => panic!("every rank takes every step, so nothing times out: {e}"),
    };
    assert!(result.epoch_losses.iter().all(|l| l.is_finite()), "{:?}", result.epoch_losses);
    let snap = trace.snapshot();
    let steps = ds.splits.train.len().div_ceil(2 * cfg.batch_size);
    assert!(steps > 2, "batch 1 must not be a rank's last");
    assert_eq!(snap.spans(names::spans::STAGE_TRAIN).count(), 2 * cfg.epochs * steps);
    (snap, result.epoch_losses)
}

/// Every attempt at batch 1 panics, on both ranks, in both epochs: each
/// rank's prep worker retries it once and sends its failed marker.
fn batch_1_fails_its_preparation() -> FaultPlan {
    FaultPlan::new(16).with_spec(always_panic_at(sites::PREP_SAMPLE, 1))
}

#[test]
fn a_ddp_batch_that_fails_its_preparation_is_a_zero_gradient_step() {
    let _s = serial();
    let (snap, _) = ddp_run_under(batch_1_fails_its_preparation());
    // One retry and one failed batch per (rank, epoch): each epoch of each
    // rank has its own prep worker thread, and each recorded exactly that.
    let mut per_worker = std::collections::BTreeMap::<u32, FaultEvents>::new();
    for e in &snap.events {
        let slot = match e.name {
            n if n == names::events::RETRY => 0,
            n if n == names::events::FAILED_BATCH => 1,
            _ => continue,
        };
        assert_eq!(e.batch, 1, "{e:?}");
        per_worker.entry(e.tid).or_default()[slot] += 1;
    }
    assert_eq!(per_worker.len(), 2 * 2, "{per_worker:?}");
    assert!(per_worker.values().all(|&events| events == [1, 1]), "{per_worker:?}");
}

#[test]
fn a_ddp_batch_lost_at_its_send_is_a_zero_gradient_step() {
    let _s = serial();
    // Batch 1 is dropped at its send, on both ranks, in both epochs: the
    // stream delivers batch 2 while each rank waits for step 1's, and it
    // stays in the stream for step 2.
    let drop_every_batch_1 = FaultSpec {
        site: sites::PREP_SEND,
        kind: FaultKind::Drop,
        trigger: Trigger::Once(1),
        budget: None,
    };
    let (snap, dropped) = ddp_run_under(FaultPlan::new(17).with_spec(drop_every_batch_1));
    assert_eq!(fault_events_of(&snap), NO_FAULTS);
    // Either way step 1 trains nothing and every other batch trains in its
    // own step, so the losses are the failed-preparation run's, bit for bit;
    // batch 2 trained in step 1's place would move them.
    let (_, failed) = ddp_run_under(batch_1_fails_its_preparation());
    let bits = |losses: &[f64]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&dropped), bits(&failed));
}

#[test]
fn checkpoint_crash_during_save_preserves_previous_file() {
    let _s = serial();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault_matrix_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    let mut old = Checkpoint::new();
    old.insert("w", Tensor::from_vec(vec![1.0, 2.0], [2]));
    old.save(&path).unwrap();

    let mut newer = Checkpoint::new();
    newer.insert("w", Tensor::from_vec(vec![9.0, 9.0], [2]));
    {
        let _guard = fault::scoped(FaultPlan::new(9).panic_at(sites::CKPT_WRITE, 0));
        let crashed = std::panic::catch_unwind(|| newer.save(&path)).is_err();
        assert!(crashed, "the injected panic must abort the save");
    }
    // The crash hit the temporary file; the published checkpoint is intact.
    let back = Checkpoint::load(&path).unwrap();
    assert_eq!(back, old);
    // And a clean save afterwards replaces it atomically.
    newer.save(&path).unwrap();
    assert_eq!(Checkpoint::load(&path).unwrap(), newer);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncation_and_corruption_are_typed_errors() {
    let _s = serial();
    let mut ckpt = Checkpoint::new();
    ckpt.insert("w", Tensor::from_vec((0..64).map(|i| i as f32).collect(), [64]));
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).unwrap();

    // Truncation at any point is detected.
    for cut in [buf.len() - 1, buf.len() - 9, buf.len() / 2] {
        let err = Checkpoint::read_from(&mut &buf[..cut]).expect_err("truncated");
        assert!(
            matches!(err, CheckpointError::Io(_) | CheckpointError::Corrupt(_)),
            "cut {cut}: {err}"
        );
    }
    // A silent bit flip in the payload trips the trailing checksum.
    let mut flipped = buf.clone();
    let victim = flipped.len() - 16;
    flipped[victim] ^= 0x40;
    let err = Checkpoint::read_from(&mut flipped.as_slice()).expect_err("corrupt");
    assert!(
        matches!(
            err,
            CheckpointError::ChecksumMismatch { .. } | CheckpointError::Corrupt(_)
        ),
        "{err}"
    );
}

#[test]
fn same_seed_fault_plans_inject_identical_schedules() {
    let _s = serial();
    // The determinism property the whole layer rests on: a plan's decisions
    // are a pure function of (seed, site, occurrence), including plans that
    // came from the SALIENT_FAULT_SPEC grammar.
    let spec = "prep.sample=panic%0.2; ddp.send=drop%0.15; prep.slice=delay:5ms%0.1";
    for seed in [0u64, 17, 0xFEED] {
        let a = FaultPlan::parse(seed, spec).unwrap();
        let b = FaultPlan::parse(seed, spec).unwrap();
        for site in [sites::PREP_SAMPLE, sites::DDP_SEND, sites::PREP_SLICE] {
            for occ in 0..512 {
                assert_eq!(
                    a.decide(site, occ),
                    b.decide(site, occ),
                    "seed {seed} site {site} occ {occ}"
                );
            }
        }
    }
}

#[test]
fn disabled_injection_points_are_inert() {
    let _s = serial();
    // No plan installed: every instrumented path must behave exactly as the
    // uninstrumented pipeline — full epoch, zero fault activity.
    assert!(!fault::enabled());
    let n = expected_batches();
    for mode in MODES {
        let ds = dataset();
        let cfg = prep_cfg(mode);
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let pool = handle.pool().clone();
        let ready = handle
            .batches
            .iter()
            .filter_map(BatchResult::ready)
            .count();
        handle.join();
        assert_eq!(ready, n, "{mode:?}");
        assert_eq!(fault_events(&cfg.trace), NO_FAULTS, "{mode:?}");
        assert_eq!(pool.available(), pool.capacity(), "{mode:?}");
    }
}

// ---------------------------------------------------------------------------
// Serving-layer scenarios: the same fault grammar drives the online
// inference front-end. Invariants mirror the prep matrix: no hangs, no
// silent drops (every refusal and failure is typed), no leaked staging
// slots, and every recovery action observable in the trace registry.
// ---------------------------------------------------------------------------

/// A serving core over a manual virtual clock (tests advance time only
/// through injected delays, so pressure is a pure function of the script).
fn serve_core(seed: u64) -> ServerCore {
    use salient_repro::core::Trainer;
    let ds = dataset();
    let model = Trainer::new(Arc::clone(&ds), RunConfig::test_tiny()).into_model();
    let cfg = ServeConfig {
        max_batch: 4,
        queue_capacity: 8,
        fanout_ladder: vec![vec![5, 5], vec![2, 2]],
        pressure_occupancy: 0.5,
        degrade_after: 2,
        restore_after: 3,
        breaker_open_after: 3,
        breaker_cooldown_ns: 1_000_000,
        breaker_probes: 2,
        seed,
        ..ServeConfig::default()
    };
    ServerCore::new(model, ds, cfg, Trace::new(Clock::virtual_manual()))
}

fn serve_pool_intact(core: &ServerCore) {
    let (avail, cap) = core.pool_available();
    assert_eq!(avail, cap, "a serving staging slot leaked");
}

const SERVE_BUDGET: u64 = 1_000_000_000; // generous: never expires here

fn serve_submit(core: &mut ServerCore, id: u64) -> Result<(), Rejected> {
    let deadline = core.now_ns() + SERVE_BUDGET;
    core.submit(Request { id, node: (id % 64) as u32, deadline_ns: deadline })
}

#[test]
fn serving_queue_fault_sheds_typed_overload_and_serving_continues() {
    let _s = serial();
    let mut core = serve_core(31);
    // Request id 1's admission hits a forced queue fault: shed as typed
    // Overload; neighbors are untouched.
    let _guard = fault::scoped(FaultPlan::new(31).drop_at(sites::SERVE_QUEUE, 1));
    assert!(serve_submit(&mut core, 0).is_ok());
    assert_eq!(serve_submit(&mut core, 1), Err(Rejected::Overload));
    assert!(serve_submit(&mut core, 2).is_ok());
    let out = core.step();
    assert_eq!(out.responses.len(), 2);
    assert!(out.responses.iter().all(|(_, r)| r.is_done()));
    let snap = core.trace().snapshot();
    assert_eq!(snap.metrics.counter(names::counters::SERVE_ADMITTED), 2);
    assert_eq!(snap.metrics.counter(names::counters::SERVE_SHED_OVERLOAD), 1);
    serve_pool_intact(&core);
}

#[test]
fn serving_breaker_reopens_on_probe_failure_then_closes_when_healed() {
    let _s = serial();
    let mut core = serve_core(32);
    let vc = Arc::clone(core.clock().as_virtual().unwrap());
    // Budget 4: three failures trip the breaker, the half-open probe fails
    // once more (re-opening it), then the pipeline heals for good.
    let _guard = fault::scoped(FaultPlan::new(32).with_spec(FaultSpec {
        site: sites::SERVE_GEMM,
        kind: FaultKind::Panic,
        trigger: Trigger::Always,
        budget: Some(4),
    }));
    for id in 0..3 {
        assert!(serve_submit(&mut core, id).is_ok());
        let out = core.step();
        assert_eq!(out.responses, vec![(id, Response::Failed)]);
        serve_pool_intact(&core);
    }
    // Open: shed instantly.
    assert_eq!(serve_submit(&mut core, 3), Err(Rejected::Overload));
    // First probe after cooldown still crashes → re-open.
    vc.advance(1_000_000);
    assert!(serve_submit(&mut core, 4).is_ok());
    assert_eq!(core.step().responses, vec![(4, Response::Failed)]);
    assert_eq!(serve_submit(&mut core, 5), Err(Rejected::Overload));
    // Healed: two probes close the breaker; full batches flow again.
    vc.advance(1_000_000);
    for id in [6, 7] {
        assert!(serve_submit(&mut core, id).is_ok());
        let out = core.step();
        assert!(out.responses[0].1.is_done(), "probe must succeed: {out:?}");
    }
    let snap = core.trace().snapshot();
    assert_eq!(snap.count(names::events::SERVE_BREAKER_OPEN), 2);
    assert_eq!(snap.count(names::events::SERVE_BREAKER_HALF_OPEN), 2);
    assert_eq!(snap.count(names::events::SERVE_BREAKER_CLOSE), 1);
    assert_eq!(snap.metrics.counter(names::counters::SERVE_SHED_BREAKER), 2);
    serve_pool_intact(&core);
}

#[test]
fn serving_degrades_under_sustained_pressure_and_restores_with_hysteresis() {
    let _s = serial();
    let mut core = serve_core(33);
    // Every micro-batch costs 20 µs of injected GEMM delay; the script
    // refills the queue to capacity before each step, so every batch forms
    // under pressure until the load stops.
    let _guard = fault::scoped(FaultPlan::new(33).with_spec(FaultSpec {
        site: sites::SERVE_GEMM,
        kind: FaultKind::Delay(Duration::from_micros(20)),
        trigger: Trigger::Always,
        budget: None,
    }));
    let mut next_id = 0u64;
    let mut degraded_done = 0usize;
    for _ in 0..3 {
        while core.pending() < 8 {
            serve_submit(&mut core, next_id).unwrap();
            next_id += 1;
        }
        let out = core.step();
        degraded_done += out
            .responses
            .iter()
            .filter(|(_, r)| matches!(r, Response::Done { fanout_level, .. } if *fanout_level > 0))
            .count();
    }
    assert_eq!(core.fanout_level(), 1, "two pressured batches must degrade");
    // Calm traffic: one request per batch; three calm batches restore.
    for _ in 0..4 {
        while core.pending() > 0 {
            core.step();
        }
        serve_submit(&mut core, next_id).unwrap();
        next_id += 1;
        let out = core.step();
        degraded_done += out
            .responses
            .iter()
            .filter(|(_, r)| matches!(r, Response::Done { fanout_level, .. } if *fanout_level > 0))
            .count();
    }
    assert_eq!(core.fanout_level(), 0, "calm must restore full fidelity");
    assert!(degraded_done > 0, "some answers must have been served degraded");
    let snap = core.trace().snapshot();
    assert_eq!(snap.count(names::events::SERVE_DEGRADE), 1);
    assert_eq!(snap.count(names::events::SERVE_RESTORE), 1);
    serve_pool_intact(&core);
}
