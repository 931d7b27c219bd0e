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
//!   observed memory bandwidth"; work is also partitioned statically.
//!
//! # Failure model
//!
//! Preparation is supervised. A panic while preparing one work item is
//! caught on the worker, the item is requeued with a bounded retry budget
//! (the retry sampler is re-seeded from the batch id and attempt so retries
//! are deterministic no matter which worker picks them up), and a batch that
//! exhausts its budget is reported as a terminal
//! [`BatchResult::Failed`] marker — the consumer never waits on a batch that
//! will not arrive, and the staging slot always returns to the pool. A panic
//! that kills a whole worker thread is observed by the epoch supervisor,
//! which respawns a replacement (up to [`PrepConfig::respawn_budget`]) or,
//! when the worker set collapses, finishes the epoch with inline
//! preparation on the supervisor thread. Per-epoch fault activity is
//! surfaced as [`FaultStats`] next to [`EpochPrepStats`].

use crate::pinned::{PinnedPool, PinnedSlot};
use crate::queue::{make_work_items, DynamicQueue, RetryQueue, StaticPartition, WorkItem, WorkSource};
use crate::slice::slice_batch;
use crate::stats::{EpochPrepStats, FaultStats, PrepTimings};
use salient_fault as fault;
use salient_graph::{Dataset, NodeId};
use salient_sampler::{FastSampler, MessageFlowGraph, PygSampler};
use salient_graph::FeatureSlab;
use salient_tensor::sync::channel::{bounded, Receiver, Sender};
use salient_trace::{names, Counter, Histogram, Trace, NO_BATCH};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Work-distribution and copy behaviour of the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrepMode {
    /// SALIENT: shared-memory threads, dynamic queue, slice straight into
    /// pinned memory.
    SharedMemory,
    /// Emulated PyTorch multiprocessing: static partitioning, private slice
    /// buffer, extra copy into the slot.
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
    /// Work distribution / copy mode.
    pub mode: PrepMode,
    /// Sampler implementation.
    pub sampler: SamplerKind,
    /// Base RNG seed (each worker derives its own stream).
    pub seed: u64,
    /// Extra attempts granted to a work item whose preparation panicked
    /// (0 = fail immediately on the first panic).
    pub retry_budget: u32,
    /// Replacement worker threads the supervisor may spawn in one epoch
    /// after whole-worker deaths.
    pub respawn_budget: usize,
    /// Tracing handle: workers record per-batch sample/slice/copy spans,
    /// slot-wait backpressure, and fault events against it. The default
    /// disabled handle makes every recording site a no-op (no clock reads
    /// beyond the `PrepTimings` stamps, no allocation).
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
            retry_budget: 1,
            respawn_budget: 1,
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
    /// Per-stage preparation cost.
    pub timings: PrepTimings,
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
        /// Total attempts consumed (1 + retries).
        attempts: u32,
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
    fn new(kind: SamplerKind, seed: u64) -> AnySampler {
        match kind {
            SamplerKind::Fast => AnySampler::Fast(FastSampler::new(seed)),
            SamplerKind::Pyg => AnySampler::Pyg(PygSampler::new(seed)),
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

/// Fault counters shared by workers and the supervisor (lock-free updates,
/// snapshotted into [`FaultStats`] at epoch end).
#[derive(Debug, Default)]
struct SharedFaultStats {
    item_panics: AtomicUsize,
    retries: AtomicUsize,
    failed_batches: AtomicUsize,
    worker_panics: AtomicUsize,
    respawns: AtomicUsize,
    degraded_inline: AtomicBool,
}

impl SharedFaultStats {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            item_panics: self.item_panics.load(Ordering::Acquire),
            retries: self.retries.load(Ordering::Acquire),
            failed_batches: self.failed_batches.load(Ordering::Acquire),
            worker_panics: self.worker_panics.load(Ordering::Acquire),
            respawns: self.respawns.load(Ordering::Acquire),
            degraded_inline: self.degraded_inline.load(Ordering::Acquire),
        }
    }
}

/// Metric handles looked up once per epoch so the per-batch hot path is a
/// handful of relaxed atomic adds (no registry locks, no allocation).
struct PrepInstruments {
    batches: Counter,
    nodes: Counter,
    edges: Counter,
    bytes: Counter,
    batch_ns: Histogram,
}

impl PrepInstruments {
    fn new(trace: &Trace) -> PrepInstruments {
        PrepInstruments {
            batches: trace.counter(names::counters::BATCHES),
            nodes: trace.counter(names::counters::PREP_NODES),
            edges: trace.counter(names::counters::PREP_EDGES),
            bytes: trace.counter(names::counters::PREP_BYTES),
            batch_ns: trace.histogram(names::hists::PREP_BATCH_NS),
        }
    }
}

/// Everything a worker (or the inline fallback) needs, shared by Arc so the
/// supervisor can respawn workers with identical context.
struct WorkerCtx {
    dataset: Arc<Dataset>,
    order: Arc<Vec<NodeId>>,
    source: Arc<dyn WorkSource>,
    retries: Arc<RetryQueue>,
    pool: PinnedPool,
    tx: Sender<BatchResult>,
    cfg: PrepConfig,
    cancel: Arc<AtomicBool>,
    faults: Arc<SharedFaultStats>,
    instruments: PrepInstruments,
}

/// Exit notifications workers send the supervisor. Clean exits carry the
/// worker's stats; panics are reported by a drop guard during unwind.
enum WorkerMsg {
    Clean { id: usize, stats: EpochPrepStats },
    Panicked { id: usize },
}

/// Reports a worker death to the supervisor if the thread unwinds before
/// the guard is disarmed.
struct ExitGuard {
    id: usize,
    tx: Sender<WorkerMsg>,
    armed: bool,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(WorkerMsg::Panicked { id: self.id });
        }
    }
}

fn worker_seed(cfg_seed: u64, worker: usize) -> u64 {
    cfg_seed ^ (worker as u64) << 32
}

fn retry_seed(cfg_seed: u64, batch_id: usize, attempt: u32) -> u64 {
    // Independent of which worker runs the retry: attempt n of batch b is
    // the same sample stream on every run and every schedule.
    cfg_seed ^ 0x5EED_0000 ^ ((batch_id as u64) << 8) ^ u64::from(attempt)
}

/// Handle to an in-flight epoch of batch preparation: iterate the receiver
/// to consume batches, then call [`EpochHandle::join`] for worker stats.
#[derive(Debug)]
pub struct EpochHandle {
    /// Channel of prepared batches (and failure markers), in completion
    /// order.
    pub batches: Receiver<BatchResult>,
    supervisor: std::thread::JoinHandle<(EpochPrepStats, FaultStats)>,
    cancel: Arc<AtomicBool>,
    pool: PinnedPool,
}

impl EpochHandle {
    /// Waits for every worker and returns merged epoch statistics.
    ///
    /// Workers that have not finished are cancelled: batches already sitting
    /// in the channel are discarded and their staging slots recycled.
    ///
    /// # Panics
    ///
    /// Panics only if the supervisor thread itself panicked (worker panics
    /// are supervised, counted, and survived).
    pub fn join(self) -> EpochPrepStats {
        self.join_detailed().0
    }

    /// Like [`EpochHandle::join`], additionally returning the epoch's
    /// fault-handling activity.
    ///
    /// # Panics
    ///
    /// Panics only if the supervisor thread itself panicked.
    pub fn join_detailed(self) -> (EpochPrepStats, FaultStats) {
        self.cancel.store(true, Ordering::Release);
        // Dropping the receiver destroys parked batches, returning their
        // slots to the pool and waking any worker blocked on acquire.
        drop(self.batches);
        // lint: allow(panic-freedom, propagating a supervisor panic to the caller is the documented join contract)
        self.supervisor.join().expect("epoch supervisor panicked")
    }

    /// The staging-slot pool backing this epoch (diagnostics: after the
    /// epoch is fully consumed and joined, `pool().available()` must equal
    /// `pool().capacity()` — anything less is a leaked slot).
    pub fn pool(&self) -> &PinnedPool {
        &self.pool
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
/// Returns immediately; batches stream through the handle's channel while
/// workers run.
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
    let items = make_work_items(order.len(), cfg.batch_size);
    let source: Arc<dyn WorkSource> = match cfg.mode {
        PrepMode::SharedMemory => DynamicQueue::new(items),
        PrepMode::Multiprocessing => StaticPartition::new(items, cfg.num_workers),
    };
    let (tx, rx) = bounded::<BatchResult>(pool.capacity());
    let cancel = Arc::new(AtomicBool::new(false));

    let ctx = Arc::new(WorkerCtx {
        dataset: Arc::clone(dataset),
        order: Arc::new(order.to_vec()),
        source,
        retries: Arc::new(RetryQueue::new()),
        pool: pool.clone(),
        tx,
        instruments: PrepInstruments::new(&cfg.trace),
        cfg: cfg.clone(),
        cancel: Arc::clone(&cancel),
        faults: Arc::new(SharedFaultStats::default()),
    });

    let supervisor = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("salient-prep-supervisor".to_string())
            .spawn(move || supervise_epoch(&ctx))
            // lint: allow(panic-freedom, thread-spawn failure is unrecoverable resource exhaustion at epoch start)
            .expect("failed to spawn epoch supervisor")
    };

    EpochHandle {
        batches: rx,
        supervisor,
        cancel,
        pool: pool.clone(),
    }
}

/// Spawns one (possibly replacement) worker with `id`.
fn spawn_worker(
    ctx: &Arc<WorkerCtx>,
    exit_tx: &Sender<WorkerMsg>,
    id: usize,
) -> std::thread::JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    let exit_tx = exit_tx.clone();
    std::thread::Builder::new()
        .name(format!("salient-prep-{id}"))
        .spawn(move || {
            let mut guard = ExitGuard { id, tx: exit_tx, armed: true };
            let stats = worker_loop(&ctx, id, false);
            guard.armed = false;
            let _ = guard.tx.send(WorkerMsg::Clean { id, stats });
        })
        // lint: allow(panic-freedom, thread-spawn failure is unrecoverable resource exhaustion; the respawn budget cannot help)
        .expect("failed to spawn batch-prep worker")
}

/// Runs the epoch's worker set to completion, respawning dead workers up to
/// the budget and degrading to inline preparation if the set collapses.
fn supervise_epoch(ctx: &Arc<WorkerCtx>) -> (EpochPrepStats, FaultStats) {
    let n = ctx.cfg.num_workers;
    // Every worker lifetime sends exactly one exit message; size the channel
    // so no exit send can ever block.
    let (exit_tx, exit_rx) = bounded::<WorkerMsg>(n + ctx.cfg.respawn_budget + 1);
    let mut handles: Vec<Option<std::thread::JoinHandle<()>>> = Vec::with_capacity(n);
    for id in 0..n {
        handles.push(Some(spawn_worker(ctx, &exit_tx, id)));
    }

    let mut total = EpochPrepStats::default();
    let mut live = n;
    let mut respawns_used = 0usize;
    while live > 0 {
        let Ok(msg) = exit_rx.recv() else { break };
        match msg {
            WorkerMsg::Clean { id, stats } => {
                total.merge(&stats);
                if let Some(h) = handles.get_mut(id).and_then(Option::take) {
                    let _ = h.join();
                }
                live -= 1;
            }
            WorkerMsg::Panicked { id } => {
                ctx.faults.worker_panics.fetch_add(1, Ordering::AcqRel);
                ctx.cfg.trace.add(names::counters::WORKER_PANICS, 1);
                ctx.cfg.trace.instant(names::events::WORKER_PANIC, id as u64);
                if let Some(h) = handles.get_mut(id).and_then(Option::take) {
                    let _ = h.join(); // reap; the payload was already counted
                }
                let work_left =
                    ctx.source.remaining() > 0 || !ctx.retries.is_empty();
                if work_left
                    && !ctx.cancel.load(Ordering::Acquire)
                    && respawns_used < ctx.cfg.respawn_budget
                {
                    respawns_used += 1;
                    ctx.faults.respawns.fetch_add(1, Ordering::AcqRel);
                    ctx.cfg.trace.add(names::counters::RESPAWNS, 1);
                    ctx.cfg.trace.instant(names::events::RESPAWN, id as u64);
                    // Reuse the dead worker's id: under static partitioning
                    // the id *is* the partition, so the replacement inherits
                    // the orphaned items.
                    handles[id] = Some(spawn_worker(ctx, &exit_tx, id));
                } else {
                    live -= 1;
                }
            }
        }
    }
    drop(exit_tx);

    // The whole worker set is gone. If unclaimed work remains (collapse
    // before the queue drained), finish the epoch inline on this thread so
    // the consumer still sees every batch (prepared or failed).
    if !ctx.cancel.load(Ordering::Acquire)
        && (ctx.source.remaining() > 0 || !ctx.retries.is_empty())
    {
        ctx.faults.degraded_inline.store(true, Ordering::Release);
        ctx.cfg.trace.add(names::counters::DEGRADED, 1);
        ctx.cfg.trace.instant(names::events::DEGRADED_INLINE, NO_BATCH);
        let stats = worker_loop(ctx, 0, true);
        total.merge(&stats);
    }

    (total, ctx.faults.snapshot())
}

/// Claims the next unit of work: pending retries first, then the shared
/// source. The inline fallback polls every partition so statically
/// partitioned items orphaned by dead workers are still prepared.
fn next_work(ctx: &WorkerCtx, worker: usize, inline: bool) -> Option<(WorkItem, u32)> {
    if let Some(pending) = ctx.retries.pop() {
        return Some(pending);
    }
    if inline {
        (0..ctx.cfg.num_workers).find_map(|w| ctx.source.next(w).map(|i| (i, 0)))
    } else {
        ctx.source.next(worker).map(|i| (i, 0))
    }
}

/// The per-worker epoch loop. Item preparation runs under `catch_unwind`;
/// a panicking item is retried (with a re-seeded sampler) until its budget
/// is spent and then reported as [`BatchResult::Failed`].
fn worker_loop(ctx: &WorkerCtx, worker: usize, inline: bool) -> EpochPrepStats {
    if !inline {
        // Whole-worker fault site: kills the thread itself, exercising the
        // supervisor rather than the per-item guard.
        fault::fire(fault::sites::PREP_WORKER, worker as u64);
    }
    let mut sampler = AnySampler::new(ctx.cfg.sampler, worker_seed(ctx.cfg.seed, worker));
    let mut private = FeatureSlab::new(ctx.dataset.features.dtype(), 0);
    let mut private_labels: Vec<u32> = Vec::new();
    let mut stats = EpochPrepStats::default();
    while !ctx.cancel.load(Ordering::Acquire) {
        let Some((item, attempt)) = next_work(ctx, worker, inline) else {
            break;
        };
        // Retries get a fresh sampler seeded from the batch and attempt so
        // the retry is deterministic regardless of scheduling; attempt 0
        // uses the worker's persistent sampler (the fast path).
        let mut retry_sampler = (attempt > 0)
            .then(|| AnySampler::new(ctx.cfg.sampler, retry_seed(ctx.cfg.seed, item.batch_id, attempt)));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let s = retry_sampler.as_mut().unwrap_or(&mut sampler);
            prepare_item(ctx, s, &item, &mut private, &mut private_labels, &mut stats)
        }));
        match outcome {
            Ok(Some(prepared)) => {
                if fault::fire(fault::sites::PREP_SEND, item.batch_id as u64) {
                    // Injected message drop: the batch is lost, but its slot
                    // returns to the pool as `prepared` drops here.
                    continue;
                }
                if ctx.tx.send(BatchResult::Ready(prepared)).is_err() {
                    break; // consumer hung up: stop early
                }
            }
            Ok(None) => break, // cancelled while waiting for a slot
            Err(_panic) => {
                ctx.faults.item_panics.fetch_add(1, Ordering::AcqRel);
                ctx.cfg.trace.add(names::counters::ITEM_PANICS, 1);
                // The shared sampler may have been mid-update when it
                // unwound; rebuild it before touching another batch.
                if retry_sampler.is_none() {
                    sampler = AnySampler::new(ctx.cfg.sampler, worker_seed(ctx.cfg.seed, worker));
                }
                if attempt < ctx.cfg.retry_budget {
                    ctx.faults.retries.fetch_add(1, Ordering::AcqRel);
                    ctx.cfg.trace.add(names::counters::RETRIES, 1);
                    ctx.cfg.trace.instant(names::events::RETRY, item.batch_id as u64);
                    ctx.retries.push(item, attempt + 1);
                } else {
                    ctx.faults.failed_batches.fetch_add(1, Ordering::AcqRel);
                    ctx.cfg.trace.add(names::counters::FAILED_BATCHES, 1);
                    ctx.cfg.trace.instant(names::events::FAILED_BATCH, item.batch_id as u64);
                    let failed = BatchResult::Failed {
                        batch_id: item.batch_id,
                        attempts: attempt + 1,
                    };
                    if ctx.tx.send(failed).is_err() {
                        break;
                    }
                }
            }
        }
    }
    stats
}

/// Prepares one batch end-to-end. Returns `None` if the epoch was cancelled
/// while waiting for a staging slot.
fn prepare_item(
    ctx: &WorkerCtx,
    sampler: &mut AnySampler,
    item: &WorkItem,
    private: &mut FeatureSlab,
    private_labels: &mut Vec<u32>,
    stats: &mut EpochPrepStats,
) -> Option<PreparedBatch> {
    let dim = ctx.dataset.features.dim();
    let batch_nodes = &ctx.order[item.start..item.end];
    let trace = &ctx.cfg.trace;
    // All stage stamps come from the trace clock (the workspace's sanctioned
    // time source), so the same code path is timed deterministically under a
    // VirtualClock in tests. A disabled trace falls back to the monotonic
    // clock and every record_span below is a no-op.
    let clock = trace.clock();
    let bid = item.batch_id as u64;

    let t0 = clock.now_ns();
    fault::fire(fault::sites::PREP_SAMPLE, bid);
    let mfg = sampler.sample(&ctx.dataset.graph, batch_nodes, &ctx.cfg.fanouts);
    let sampled = clock.now_ns();
    trace.record_span(names::spans::PREP_SAMPLE, bid, t0, sampled);

    // Slots can all be parked in unconsumed batches of a cancelled epoch;
    // the cancellable acquire sleeps on the pool and is woken either by a
    // freed slot or by cancellation draining the batch channel. The wait is
    // recorded as backpressure, not preparation work.
    let mut slot = ctx.pool.acquire_cancellable(&ctx.cancel)?;
    let acquired = clock.now_ns();
    trace.record_span(names::spans::SLOT_WAIT, bid, sampled, acquired);
    slot.prepare(mfg.num_nodes(), dim, mfg.batch_size());

    let t1 = clock.now_ns();
    fault::fire(fault::sites::PREP_SLICE, bid);
    let (slice_ns, copy_ns) = match ctx.cfg.mode {
        PrepMode::SharedMemory => {
            // Zero-copy: slice straight into the pinned slot.
            slice_batch_into(&ctx.dataset, &mfg, &mut slot);
            let sliced = clock.now_ns();
            trace.record_span(names::spans::PREP_SLICE, bid, t1, sliced);
            (sliced.saturating_sub(t1), 0)
        }
        PrepMode::Multiprocessing => {
            // Slice into worker-private memory…
            private.resize(mfg.num_nodes() * dim);
            private_labels.resize(mfg.batch_size(), 0);
            slice_batch(&ctx.dataset, &mfg, private.rows_mut(), private_labels);
            let sliced = clock.now_ns();
            trace.record_span(names::spans::PREP_SLICE, bid, t1, sliced);
            // …then pay the shared-memory copy.
            slot.features_mut().copy_from(private.rows());
            slot.labels_mut().copy_from_slice(private_labels);
            let copied = clock.now_ns();
            trace.record_span(names::spans::PREP_COPY, bid, sliced, copied);
            (sliced.saturating_sub(t1), copied.saturating_sub(sliced))
        }
    };

    let timings = PrepTimings {
        sample: Duration::from_nanos(sampled.saturating_sub(t0)),
        slice: Duration::from_nanos(slice_ns),
        copy: Duration::from_nanos(copy_ns),
    };
    stats.add(mfg.num_nodes(), mfg.num_edges(), slot.payload_bytes(), timings);
    let ins = &ctx.instruments;
    ins.batches.inc();
    ins.nodes.add(mfg.num_nodes() as u64);
    ins.edges.add(mfg.num_edges() as u64);
    ins.bytes.add(slot.payload_bytes() as u64);
    ins.batch_ns
        .observe(sampled.saturating_sub(t0) + slice_ns + copy_ns);
    Some(PreparedBatch {
        batch_id: item.batch_id,
        mfg,
        slot,
        timings,
    })
}

/// Slices a batch directly into a pinned slot (borrow-splitting helper).
fn slice_batch_into(dataset: &Dataset, mfg: &MessageFlowGraph, slot: &mut PinnedSlot) {
    // Feature and label regions are distinct buffers inside the slot, but the
    // accessor borrows are exclusive; do them sequentially.
    dataset.features.slice_into(&mfg.node_ids, slot.features_mut());
    let batch = &mfg.node_ids[..mfg.batch_size()];
    crate::slice::slice_labels(&dataset.labels, batch, slot.labels_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;

    fn dataset() -> Arc<Dataset> {
        Arc::new(DatasetConfig::tiny(20).build())
    }

    fn run(mode: PrepMode, workers: usize) -> (Vec<usize>, EpochPrepStats) {
        let ds = dataset();
        let cfg = PrepConfig {
            num_workers: workers,
            fanouts: vec![5, 3],
            batch_size: 32,
            slots: 3,
            mode,
            sampler: SamplerKind::Fast,
            seed: 1,
            ..PrepConfig::default()
        };
        let order = ds.splits.train.clone();
        let handle = run_epoch(&ds, &order, &cfg);
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
        let stats = handle.join();
        ids.sort_unstable();
        (ids, stats)
    }

    #[test]
    fn shared_memory_mode_prepares_every_batch_once() {
        let ds = dataset();
        let expected = ds.splits.train.len().div_ceil(32);
        let (ids, stats) = run(PrepMode::SharedMemory, 3);
        assert_eq!(ids, (0..expected).collect::<Vec<_>>());
        assert_eq!(stats.batches, expected);
        assert_eq!(stats.timings.copy, std::time::Duration::ZERO);
    }

    #[test]
    fn multiprocessing_mode_pays_copy() {
        let ds = dataset();
        let expected = ds.splits.train.len().div_ceil(32);
        let (ids, stats) = run(PrepMode::Multiprocessing, 2);
        assert_eq!(ids.len(), expected);
        assert!(stats.timings.copy > std::time::Duration::ZERO);
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
        let cfg = PrepConfig {
            sampler: SamplerKind::Pyg,
            batch_size: 32,
            fanouts: vec![5, 3],
            ..Default::default()
        };
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let n = handle.batches.iter().filter_map(BatchResult::ready).count();
        let stats = handle.join();
        assert_eq!(n, stats.batches);
        assert!(stats.nodes > 0);
    }

    #[test]
    fn consumer_can_drop_early() {
        let ds = dataset();
        let cfg = PrepConfig {
            batch_size: 8,
            fanouts: vec![3],
            ..Default::default()
        };
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let _first = handle.batches.recv().unwrap();
        // Dropping the handle (and receiver) must not deadlock the workers.
        let _ = handle.join();
    }

    #[test]
    fn traced_epoch_matches_inline_stats() {
        let ds = dataset();
        let trace = Trace::new(salient_trace::Clock::virtual_with_tick(1_000));
        let cfg = PrepConfig {
            batch_size: 32,
            fanouts: vec![5, 3],
            mode: PrepMode::Multiprocessing,
            trace: trace.clone(),
            ..Default::default()
        };
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let n = handle.batches.iter().filter_map(BatchResult::ready).count();
        let stats = handle.join();
        let snap = trace.snapshot();
        // The registry view reconstructs exactly what the workers
        // accumulated inline (both are stamped by the same clock reads).
        let view = EpochPrepStats::from_snapshot(&snap);
        assert_eq!(view.batches, n);
        assert_eq!(view.batches, stats.batches);
        assert_eq!(view.nodes, stats.nodes);
        assert_eq!(view.edges, stats.edges);
        assert_eq!(view.bytes, stats.bytes);
        assert_eq!(view.timings, stats.timings);
        // Every batch recorded its stage spans (copy mode records all four).
        assert_eq!(snap.spans(names::spans::PREP_SAMPLE).count(), n);
        assert_eq!(snap.spans(names::spans::PREP_SLICE).count(), n);
        assert_eq!(snap.spans(names::spans::PREP_COPY).count(), n);
        assert_eq!(snap.spans(names::spans::SLOT_WAIT).count(), n);
        let hist = snap.metrics.histogram(names::hists::PREP_BATCH_NS).unwrap();
        assert_eq!(hist.count as usize, n);
        assert!(hist.quantile(0.5) > 0);
    }

    #[test]
    fn clean_epoch_reports_no_faults() {
        let ds = dataset();
        let cfg = PrepConfig {
            batch_size: 32,
            fanouts: vec![5, 3],
            ..Default::default()
        };
        let handle = run_epoch(&ds, &ds.splits.train.clone(), &cfg);
        let pool = handle.pool().clone();
        let n = handle.batches.iter().filter_map(BatchResult::ready).count();
        let (stats, faults) = handle.join_detailed();
        assert_eq!(n, stats.batches);
        assert!(!faults.any(), "clean run must report zero fault activity: {faults:?}");
        assert_eq!(pool.available(), pool.capacity(), "no slot may stay checked out");
    }
}
