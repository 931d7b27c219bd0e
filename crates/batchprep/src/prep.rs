//! The batch-preparation worker pool.
//!
//! Each worker thread prepares batches *end-to-end* — neighborhood sampling
//! followed by serial slicing into a pinned staging slot — exactly the
//! SALIENT design of §4.2. Two modes are provided:
//!
//! * [`PrepMode::SharedMemory`] (SALIENT): zero-copy — the worker slices
//!   directly into the pinned slot the consumer will hand to the device.
//! * [`PrepMode::Multiprocessing`] (PyTorch-DataLoader emulation): the
//!   worker slices into a private buffer and then *copies* it into the slot,
//!   reproducing the POSIX-shared-memory hop that "effectively halves the
//!   observed memory bandwidth".
//!
//! In both modes every worker claims its next batch from the epoch's one
//! claim cursor (`queue::WorkQueue`). A worker keeps one sampler and
//! reseeds it from [`batch_seed`] before each attempt at a batch, so batch
//! `b` is the same MFG whichever worker claims it, at any worker count, in
//! either mode.
//!
//! # Failure model
//!
//! The unit of failure is the batch, not the worker. Every step of a
//! claimed batch — sampling, slicing, the `prep.send` fault site and the
//! choice between sending it and dropping it — runs under one per-batch
//! guard. A panic there is caught on the worker, which re-attempts the same
//! batch in place with the same sampler, reseeded for the next attempt, up
//! to [`RETRY_BUDGET`] more times; a batch that exhausts the budget is
//! reported as a terminal [`BatchResult::Failed`] marker — the consumer
//! never waits on a batch that will not arrive, and the staging slot always
//! returns to the pool. Outside the guard a worker only reads the cancel
//! flag, claims from the cursor and sends, none of which panics, so no
//! worker dies. Each retry and each failed batch is one point event on the
//! epoch's trace (`fault.retry`, `fault.failed_batch`), and a failed batch
//! is also its marker on the stream.

#![expect(
    clippy::indexing_slicing,
    reason = "the work queue cuts batch ranges from 0..order.len(), and the MFG builder guarantees batch_size <= node_ids.len()"
)]

use crate::pinned::{PinnedPool, PinnedSlot};
use crate::queue::WorkQueue;
use crate::slice::{slice_batch, slice_batch_into};
use salient_fault as fault;
use salient_graph::{Dataset, NodeId};
use salient_sampler::{FastSampler, MessageFlowGraph, PygSampler};
use salient_graph::FeatureSlab;
use salient_tensor::rng::derive;
use salient_trace::{names, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Extra attempts a batch gets after its preparation panicked.
const RETRY_BUDGET: u32 = 1;

/// Where a worker slices a batch before it is in its staging slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrepMode {
    /// SALIENT: shared-memory threads slice straight into pinned memory.
    SharedMemory,
    /// Emulated PyTorch multiprocessing: private slice buffer, extra copy
    /// into the slot.
    Multiprocessing,
}

/// Which neighborhood sampler the workers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// The tuned SALIENT sampler.
    Fast,
    /// The STL-style PyG baseline sampler.
    Pyg,
}

/// Pool configuration.
#[derive(Clone, Debug)]
pub struct PrepConfig {
    /// Number of preparation threads.
    pub num_workers: usize,
    /// Per-hop sampling fanouts (PyG order).
    pub fanouts: Vec<usize>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of pinned staging slots [`run_epoch`] makes (bounds in-flight
    /// batches); a pool passed to [`run_epoch_with_pool`] brings its own.
    pub slots: usize,
    /// Copy mode.
    pub mode: PrepMode,
    /// Sampler implementation.
    pub sampler: SamplerKind,
    /// The epoch's seed: attempt `a` at batch `b` samples from
    /// [`batch_seed`]`(seed, b, a)`, whichever worker runs it.
    pub seed: u64,
    /// Tracing handle: workers record per-batch sample/slice/copy spans,
    /// slot-wait backpressure and fault events against it. The default disabled handle makes every recording site a
    /// no-op (no allocation; the stage stamps are still read).
    pub trace: Trace,
}

impl Default for PrepConfig {
    fn default() -> Self {
        PrepConfig {
            num_workers: 2,
            fanouts: vec![15, 10, 5],
            batch_size: 1024,
            slots: 4,
            mode: PrepMode::SharedMemory,
            sampler: SamplerKind::Fast,
            seed: 0,
            trace: Trace::disabled(),
        }
    }
}

/// A fully prepared mini-batch: sampled MFG plus staged features/labels in a
/// pinned slot, ready for "transfer".
#[derive(Debug)]
pub struct PreparedBatch {
    /// Sequential batch index within the epoch.
    pub batch_id: usize,
    /// The sampled message-flow graph.
    pub mfg: MessageFlowGraph,
    /// Staged features + labels (returns to the pool on drop).
    pub slot: PinnedSlot,
}

/// One message on the prepared-batch stream: either a usable batch or a
/// terminal failure marker, so consumers tracking batch ids never wait on a
/// batch that will not arrive.
#[derive(Debug)]
pub enum BatchResult {
    /// The batch was prepared successfully.
    Ready(PreparedBatch),
    /// The batch's preparation panicked on every attempt.
    Failed {
        /// Sequential batch index within the epoch.
        batch_id: usize,
    },
}

impl BatchResult {
    /// The batch id this message concerns.
    pub fn batch_id(&self) -> usize {
        match self {
            BatchResult::Ready(b) => b.batch_id,
            BatchResult::Failed { batch_id, .. } => *batch_id,
        }
    }

    /// Unwraps a prepared batch, discarding failure markers.
    pub fn ready(self) -> Option<PreparedBatch> {
        match self {
            BatchResult::Ready(b) => Some(b),
            BatchResult::Failed { .. } => None,
        }
    }
}

enum AnySampler {
    Fast(FastSampler),
    Pyg(PygSampler),
}

impl AnySampler {
    /// A sampler of `kind`, never drawn from before a [`AnySampler::reseed`].
    fn new(kind: SamplerKind) -> AnySampler {
        match kind {
            SamplerKind::Fast => AnySampler::Fast(FastSampler::new(0)),
            SamplerKind::Pyg => AnySampler::Pyg(PygSampler::new(0)),
        }
    }

    fn reseed(&mut self, seed: u64) {
        match self {
            AnySampler::Fast(s) => s.reseed(seed),
            AnySampler::Pyg(s) => s.reseed(seed),
        }
    }

    fn sample(
        &mut self,
        graph: &salient_graph::CsrGraph,
        batch: &[NodeId],
        fanouts: &[usize],
    ) -> MessageFlowGraph {
        match self {
            AnySampler::Fast(s) => s.sample(graph, batch, fanouts),
            AnySampler::Pyg(s) => s.sample(graph, batch, fanouts),
        }
    }
}

/// Everything the epoch's worker threads share.
struct WorkerCtx {
    dataset: Arc<Dataset>,
    order: Vec<NodeId>,
    queue: WorkQueue,
    pool: PinnedPool,
    tx: SyncSender<BatchResult>,
    cfg: PrepConfig,
    cancel: Arc<AtomicBool>,
}

/// The seed attempt `attempt` at batch `batch_id` samples from, in an
/// epoch seeded `epoch_seed` ([`PrepConfig::seed`]): the same on every run,
/// every worker and every schedule. Attempt 0 is the batch's first try.
pub fn batch_seed(epoch_seed: u64, batch_id: usize, attempt: u32) -> u64 {
    derive(epoch_seed, &[batch_id as u64, u64::from(attempt)])
}

/// Handle to an in-flight epoch of batch preparation: iterate the receiver
/// to consume batches, then call [`EpochHandle::join`]. Dropping the handle
/// stops the epoch as `join` does, without its panic, so a consumer that
/// returns early or unwinds past it leaves no worker running.
#[derive(Debug)]
pub struct EpochHandle {
    /// Prepared batches (and failure markers), in completion order. The
    /// stream has one consumer: read it in place, it cannot be cloned.
    ///
    /// A consumer that holds `pool.capacity()` prepared batches and reads
    /// again waits forever: every slot is in its hands, the workers sleep
    /// on the pool with no timeout, and only [`EpochHandle::join`]'s cancel
    /// wakes them. Drop a batch before reading past the pool's capacity.
    pub batches: Receiver<BatchResult>,
    workers: Vec<JoinHandle<()>>,
    cancel: Arc<AtomicBool>,
    pool: PinnedPool,
}

impl EpochHandle {
    /// Waits for every worker. What the epoch's faults were is on its
    /// trace, one point event each.
    ///
    /// Workers that have not finished are cancelled: batches already sitting
    /// in the stream are discarded and their staging slots recycled.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked, which is a bug: every step of a
    /// claimed batch runs under the worker's per-batch guard, and what runs
    /// outside it does not panic.
    pub fn join(mut self) {
        let escaped = self.stop();
        assert!(escaped == 0, "batch-prep worker panicked outside its per-batch guard");
    }

    /// Cancels the epoch and joins its workers, once: after
    /// [`EpochHandle::join`] the drop finds them gone. Returns how many of
    /// them panicked.
    fn stop(&mut self) -> usize {
        if self.workers.is_empty() {
            return 0;
        }
        self.cancel.store(true, Ordering::Release);
        // A worker asleep on a slot the consumer still holds rereads the
        // flag; dropping the receiver (swapped for one that is already
        // disconnected) destroys parked batches, returning their slots, and
        // fails any worker's blocked send.
        self.pool.wake_cancelled();
        drop(std::mem::replace(&mut self.batches, sync_channel(0).1));
        self.workers.drain(..).map(JoinHandle::join).filter(Result::is_err).count()
    }

    /// The staging-slot pool backing this epoch (diagnostics: after the
    /// epoch is fully consumed and joined, `pool().available()` must equal
    /// `pool().capacity()` — anything less is a leaked slot).
    pub fn pool(&self) -> &PinnedPool {
        &self.pool
    }
}

impl Drop for EpochHandle {
    /// Stops the epoch as [`EpochHandle::join`] does, but does not panic:
    /// the thread may be unwinding already, and a second panic aborts.
    fn drop(&mut self) {
        self.stop();
    }
}

/// Launches batch preparation for one epoch over `order` (an already
/// shuffled list of training nodes), staging into a pool of `cfg.slots`
/// slots made for this epoch alone. A caller that runs epoch after epoch
/// keeps one pool and calls [`run_epoch_with_pool`].
///
/// The slots are sized here, on the calling thread, for the most nodes a
/// batch can reach: the fanout product, but never more than the graph has.
/// On a small graph that keeps a slot under the allocator's `mmap`
/// threshold, so the next call gets the same heap pages back instead of
/// mapping, faulting in and unmapping fresh ones every epoch.
///
/// The consumer must not hold all `cfg.slots` prepared batches while it
/// reads the stream: the workers' wait for a slot has no timeout, so that
/// read never returns (see [`EpochHandle::batches`]).
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero workers, zero batch
/// size, zero slots).
pub fn run_epoch(dataset: &Arc<Dataset>, order: &[NodeId], cfg: &PrepConfig) -> EpochHandle {
    let expansion: usize = cfg.fanouts.iter().map(|f| f + 1).product();
    let nodes_hint = (cfg.batch_size * expansion.min(256)).min(dataset.graph.num_nodes());
    let features = &dataset.features;
    let pool = PinnedPool::new(
        cfg.slots,
        nodes_hint,
        features.dim(),
        cfg.batch_size,
        features.dtype(),
    );
    run_epoch_with_pool(dataset, order, cfg, &pool)
}

/// Launches batch preparation for one epoch over `order`, staging into the
/// caller's `pool`, whose capacity (not `cfg.slots`) bounds the unconsumed
/// batches. Every slot is back in the pool once the handle is joined.
///
/// Returns immediately; batches stream through the handle's receiver while
/// workers run. A consumer that holds `pool.capacity()` prepared batches
/// and reads the stream again waits forever (see
/// [`EpochHandle::batches`]).
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero workers, zero batch
/// size) or the pool stages another dtype than the dataset stores.
pub fn run_epoch_with_pool(
    dataset: &Arc<Dataset>,
    order: &[NodeId],
    cfg: &PrepConfig,
    pool: &PinnedPool,
) -> EpochHandle {
    assert!(cfg.num_workers > 0, "need at least one worker");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    assert_eq!(
        pool.dtype(),
        dataset.features.dtype(),
        "staging pool and feature store disagree on dtype"
    );
    let (tx, rx) = sync_channel::<BatchResult>(pool.capacity());
    let cancel = Arc::new(AtomicBool::new(false));

    // The workers share the only sender: the stream disconnects, ending the
    // consumer's iteration, when the last of them has left.
    let ctx = Arc::new(WorkerCtx {
        dataset: Arc::clone(dataset),
        order: order.to_vec(),
        queue: WorkQueue::new(order.len(), cfg.batch_size),
        pool: pool.clone(),
        tx,
        cfg: cfg.clone(),
        cancel: Arc::clone(&cancel),
    });
    let workers = (0..cfg.num_workers)
        .map(|id| {
            let ctx = Arc::clone(&ctx);
            #[expect(clippy::expect_used, reason = "thread-spawn failure is unrecoverable resource exhaustion at epoch start")]
            std::thread::Builder::new()
                .name(format!("salient-prep-{id}"))
                .spawn(move || worker_loop(&ctx))
                .expect("failed to spawn batch-prep worker")
        })
        .collect();

    EpochHandle {
        batches: rx,
        workers,
        cancel,
        pool: pool.clone(),
    }
}

/// What one claimed batch came to.
enum Outcome {
    /// Send this message: the prepared batch or its failure marker.
    Send(BatchResult),
    /// An injected `prep.send` drop lost the batch; its slot is back in the
    /// pool.
    Dropped,
    /// The epoch was cancelled while an attempt waited for a staging slot.
    Cancelled,
}

/// The body of every worker thread: claims and prepares batches until the
/// queue is drained, the epoch is cancelled or the consumer hangs up.
fn worker_loop(ctx: &WorkerCtx) {
    let mut sampler = AnySampler::new(ctx.cfg.sampler);
    let mut private = FeatureSlab::new(ctx.dataset.features.dtype(), 0);
    let mut private_labels: Vec<u32> = Vec::new();
    while !ctx.cancel.load(Ordering::Acquire) {
        let Some((batch_id, range)) = ctx.queue.next() else {
            break;
        };
        let batch_nodes = &ctx.order[range];
        let msg = match prepare_with_retries(
            ctx,
            &mut sampler,
            batch_id,
            batch_nodes,
            &mut private,
            &mut private_labels,
        ) {
            Outcome::Send(msg) => msg,
            Outcome::Dropped => continue,
            Outcome::Cancelled => break,
        };
        if ctx.tx.send(msg).is_err() {
            break; // consumer hung up: stop early
        }
    }
}

/// Prepares batch `batch_id` (destinations `batch_nodes`) under
/// `catch_unwind`, re-attempting it in place after a panic until
/// [`RETRY_BUDGET`] is spent and the batch is reported as
/// [`BatchResult::Failed`]. The guard covers the whole attempt: the
/// preparation, the `prep.send` fault site and whether the batch is sent.
/// Each attempt reseeds `sampler` from [`batch_seed`]; a sampler that
/// unwound mid-batch samples as a fresh one once reseeded.
fn prepare_with_retries(
    ctx: &WorkerCtx,
    sampler: &mut AnySampler,
    batch_id: usize,
    batch_nodes: &[NodeId],
    private: &mut FeatureSlab,
    private_labels: &mut Vec<u32>,
) -> Outcome {
    let trace = &ctx.cfg.trace;
    for attempt in 0..=RETRY_BUDGET {
        sampler.reseed(batch_seed(ctx.cfg.seed, batch_id, attempt));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let Some(batch) =
                prepare_batch(ctx, sampler, batch_id, batch_nodes, private, private_labels)
            else {
                return Outcome::Cancelled;
            };
            // An injected panic here unwinds `batch`, returning its slot,
            // and costs the attempt; an injected drop loses the batch, whose
            // slot returns to the pool as it drops.
            if fault::fire(fault::sites::PREP_SEND, batch_id as u64) {
                Outcome::Dropped
            } else {
                Outcome::Send(BatchResult::Ready(batch))
            }
        }));
        if let Ok(outcome) = outcome {
            return outcome;
        }
        if attempt < RETRY_BUDGET {
            trace.instant(names::events::RETRY, batch_id as u64);
        }
    }
    trace.instant(names::events::FAILED_BATCH, batch_id as u64);
    Outcome::Send(BatchResult::Failed { batch_id })
}

/// Prepares one batch end-to-end. Returns `None` if the epoch was cancelled
/// while waiting for a staging slot.
fn prepare_batch(
    ctx: &WorkerCtx,
    sampler: &mut AnySampler,
    batch_id: usize,
    batch_nodes: &[NodeId],
    private: &mut FeatureSlab,
    private_labels: &mut Vec<u32>,
) -> Option<PreparedBatch> {
    let dim = ctx.dataset.features.dim();
    let trace = &ctx.cfg.trace;
    // All stage stamps come from the trace clock (the workspace's sanctioned
    // time source), so the same code path is timed deterministically under a
    // VirtualClock in tests. They feed the spans only: a disabled trace
    // falls back to the monotonic clock and records nothing.
    let clock = trace.clock();
    let bid = batch_id as u64;

    let t0 = clock.now_ns();
    fault::fire(fault::sites::PREP_SAMPLE, bid);
    let mfg = sampler.sample(&ctx.dataset.graph, batch_nodes, &ctx.cfg.fanouts);
    let sampled = clock.now_ns();
    let sizes = [mfg.num_nodes() as u64, mfg.num_edges() as u64];
    trace.record_span_counts(names::spans::PREP_SAMPLE, bid, t0, sampled, sizes);

    // Slots can all be parked in unconsumed batches of a cancelled epoch,
    // or held by its consumer; the cancellable acquire sleeps on the pool
    // and is woken either by a freed slot or by `join`'s cancel wake. The
    // wait is recorded as backpressure, not preparation work.
    let mut slot = ctx.pool.acquire_cancellable(&ctx.cancel)?;
    let acquired = clock.now_ns();
    trace.record_span(names::spans::SLOT_WAIT, bid, sampled, acquired);
    slot.prepare(mfg.num_nodes(), dim, mfg.batch_size());

    let t1 = clock.now_ns();
    fault::fire(fault::sites::PREP_SLICE, bid);
    let bytes = [slot.payload_bytes() as u64, 0];
    match ctx.cfg.mode {
        PrepMode::SharedMemory => {
            // Zero-copy: slice straight into the pinned slot.
            slice_batch_into(&ctx.dataset, &mfg, &mut slot);
            let sliced = clock.now_ns();
            trace.record_span_counts(names::spans::PREP_SLICE, bid, t1, sliced, bytes);
        }
        PrepMode::Multiprocessing => {
            // Slice into worker-private memory…
            private.resize(mfg.num_nodes() * dim);
            private_labels.resize(mfg.batch_size(), 0);
            slice_batch(&ctx.dataset, &mfg, private.rows_mut(), private_labels);
            let sliced = clock.now_ns();
            trace.record_span_counts(names::spans::PREP_SLICE, bid, t1, sliced, bytes);
            // …then pay the shared-memory copy.
            slot.features_mut().copy_from(private.rows());
            slot.labels_mut().copy_from_slice(private_labels);
            let copied = clock.now_ns();
            trace.record_span(names::spans::PREP_COPY, bid, sliced, copied);
        }
    }
    Some(PreparedBatch {
        batch_id,
        mfg,
        slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;
    use salient_trace::{Clock, EventKind, Snapshot};

    fn dataset() -> Arc<Dataset> {
        Arc::new(DatasetConfig::tiny(20).build())
    }

    /// Batches of 32 in one pass over the training split.
    fn expected_batches(ds: &Dataset) -> usize {
        ds.splits.train.len().div_ceil(32)
    }

    /// `cfg` at batches of 32 and fanouts 5,3, recording against its own
    /// registry on a virtual clock: the `prep.*` spans and their counts are
    /// the record of what an epoch did.
    fn traced(cfg: PrepConfig) -> PrepConfig {
        PrepConfig {
            batch_size: 32,
            fanouts: vec![5, 3],
            trace: Trace::new(Clock::virtual_with_tick(1_000)),
            ..cfg
        }
    }

    /// The point events in `snap`: in batch prep, each is a fault.
    fn fault_events(snap: &Snapshot) -> usize {
        snap.events.iter().filter(|e| e.kind == EventKind::Instant).count()
    }

    /// One clean epoch: the sorted ids of the batches received, and the
    /// trace snapshot taken after the join.
    fn run(ds: &Arc<Dataset>, cfg: &PrepConfig) -> (Vec<usize>, Snapshot) {
        let handle = run_epoch(ds, &ds.splits.train.clone(), cfg);
        let mut ids: Vec<usize> = handle
            .batches
            .iter()
            .filter_map(BatchResult::ready)
            .map(|b| {
                b.mfg.validate().unwrap();
                assert_eq!(b.slot.labels().len(), b.mfg.batch_size());
                b.batch_id
            })
            .collect();
        handle.join();
        ids.sort_unstable();
        let snap = cfg.trace.snapshot();
        assert_eq!(fault_events(&snap), 0);
        (ids, snap)
    }

    #[test]
    fn shared_memory_mode_prepares_every_batch_once() {
        let ds = dataset();
        let n = expected_batches(&ds);
        let cfg = traced(PrepConfig { num_workers: 3, slots: 3, seed: 1, ..Default::default() });
        let (ids, snap) = run(&ds, &cfg);
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
        assert_eq!(snap.spans(names::spans::PREP_SLICE).count(), n);
        assert_eq!(snap.spans(names::spans::PREP_COPY).count(), 0, "zero-copy mode copied");
    }

    #[test]
    fn multiprocessing_mode_pays_copy() {
        let ds = dataset();
        let n = expected_batches(&ds);
        let cfg = traced(PrepConfig {
            slots: 3,
            mode: PrepMode::Multiprocessing,
            seed: 1,
            ..Default::default()
        });
        let (ids, snap) = run(&ds, &cfg);
        assert_eq!(ids.len(), n);
        assert_eq!(snap.spans(names::spans::PREP_COPY).count(), n);
        assert!(snap.sum_ns(names::spans::PREP_COPY) > 0);
    }

    #[test]
    fn sliced_features_match_dataset() {
        let ds = dataset();
        let cfg = PrepConfig {
            num_workers: 1,
            fanouts: vec![4],
            batch_size: 16,
            slots: 2,
            mode: PrepMode::SharedMemory,
            sampler: SamplerKind::Fast,
            seed: 5,
            ..PrepConfig::default()
        };
        let order: Vec<NodeId> = ds.splits.train[..32].to_vec();
        let handle = run_epoch(&ds, &order, &cfg);
        for b in handle.batches.iter().filter_map(BatchResult::ready) {
            let dim = ds.features.dim();
            for (i, &v) in b.mfg.node_ids.iter().enumerate() {
                assert_eq!(b.slot.features().view(i * dim, dim), ds.features.row(v));
            }
            for (i, &v) in b.mfg.node_ids[..b.mfg.batch_size()].iter().enumerate() {
                assert_eq!(b.slot.labels()[i], ds.labels[v as usize]);
            }
        }
        handle.join();
    }

    #[test]
    fn pyg_sampler_mode_works() {
        let ds = dataset();
        let cfg = traced(PrepConfig { sampler: SamplerKind::Pyg, ..Default::default() });
        let (ids, snap) = run(&ds, &cfg);
        assert_eq!(ids.len(), expected_batches(&ds));
        assert_eq!(snap.spans(names::spans::PREP_SLICE).count(), ids.len());
        let sampled = snap.spans(names::spans::PREP_SAMPLE);
        assert!(sampled.map(|e| e.counts[0]).all(|nodes| nodes > 0));
    }

    #[test]
    fn consumer_can_drop_early() {
        let ds = dataset();
        // Four slots: batches are parked in the stream at `join`. One slot:
        // the consumer holds it across `join` while a worker waits for it,
        // and only the cancel wake can end that wait.
        for slots in [4, 1] {
            let cfg = PrepConfig {
                batch_size: 8,
                fanouts: vec![3],
                slots,
                ..Default::default()
            };
            let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
            let pool = handle.pool().clone();
            let first = handle.batches.recv().unwrap();
            // Dropping the handle (and receiver) must not deadlock the
            // workers; a missed wake fails here instead of hanging the test.
            let (joined_tx, joined_rx) = std::sync::mpsc::channel();
            let joiner = std::thread::spawn(move || joined_tx.send(handle.join()));
            let joined = joined_rx.recv_timeout(std::time::Duration::from_secs(10));
            assert!(joined.is_ok(), "{slots} slots: join did not return");
            joiner.join().unwrap().unwrap();
            drop(first);
            assert_eq!(pool.available(), pool.capacity(), "{slots} slots: a slot stayed out");
        }
    }

    #[test]
    fn a_consumer_that_unwinds_leaves_no_worker_behind() {
        let ds = dataset();
        let before = Arc::strong_count(&ds);
        // One slot, held by the consumer as it unwinds: the worker is
        // asleep waiting for it when the handle drops.
        let cfg = PrepConfig { batch_size: 8, fanouts: vec![3], slots: 1, ..Default::default() };
        let mut pool = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut held = Vec::new();
            let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
            pool = Some(handle.pool().clone());
            held.push(handle.batches.recv().unwrap());
            panic!("the consumer fails mid-epoch, holding {} batch", held.len());
        }));
        assert!(unwound.is_err());
        assert_eq!(Arc::strong_count(&ds), before, "a worker still holds the dataset");
        let pool = pool.unwrap();
        assert_eq!(pool.available(), pool.capacity(), "a slot stayed out");
    }

    #[test]
    fn traced_epoch_counts_what_the_consumer_received() {
        let ds = dataset();
        let cfg = traced(PrepConfig { mode: PrepMode::Multiprocessing, ..Default::default() });
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let (mut n, mut nodes, mut edges, mut bytes) = (0, 0, 0, 0);
        for b in handle.batches.iter().filter_map(BatchResult::ready) {
            n += 1;
            nodes += b.mfg.num_nodes() as u64;
            edges += b.mfg.num_edges() as u64;
            bytes += b.slot.payload_bytes() as u64;
        }
        handle.join();
        let snap = cfg.trace.snapshot();
        let total = |name, i: usize| -> u64 { snap.spans(name).map(|e| e.counts[i]).sum() };
        assert_eq!(total(names::spans::PREP_SAMPLE, 0), nodes);
        assert_eq!(total(names::spans::PREP_SAMPLE, 1), edges);
        assert_eq!(total(names::spans::PREP_SLICE, 0), bytes);
        // Every batch recorded its stage spans (copy mode records all four).
        assert_eq!(snap.spans(names::spans::PREP_SAMPLE).count(), n);
        assert_eq!(snap.spans(names::spans::PREP_SLICE).count(), n);
        assert_eq!(snap.spans(names::spans::PREP_COPY).count(), n);
        assert_eq!(snap.spans(names::spans::SLOT_WAIT).count(), n);
        let prep = salient_trace::analyze(&snap).prep_work;
        assert_eq!(prep.n, n);
        assert!(prep.p50 > 0);
    }

    #[test]
    fn clean_epoch_reports_no_faults() {
        let ds = dataset();
        let cfg = traced(PrepConfig::default());
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let pool = handle.pool().clone();
        let n = handle.batches.iter().filter_map(BatchResult::ready).count();
        handle.join();
        assert_eq!(n, expected_batches(&ds));
        assert_eq!(fault_events(&cfg.trace.snapshot()), 0, "a clean run records no fault");
        assert_eq!(pool.available(), pool.capacity(), "no slot may stay checked out");
    }

    #[test]
    fn batch_streams_are_distinct_across_epochs_batches_and_attempts() {
        // Epoch seeds as a caller derives them from its run's seed 7, which
        // is also where its weights are drawn: no batch's stream may start
        // there, first attempts included.
        let mut seen = std::collections::HashSet::from([7]);
        for epoch in 0..4 {
            for batch_id in 0..1024 {
                for attempt in 0..=2 {
                    let seed = batch_seed(derive(7, &[epoch]), batch_id, attempt);
                    assert!(seen.insert(seed), "epoch {epoch} batch {batch_id} attempt {attempt}");
                }
            }
        }
    }
}
