//! One attribution pass over a trace. [`attribute`] walks
//! [`Snapshot::events`] once; one table, `role`, says what each span name
//! means to every view the walk builds:
//!
//! * [`PipelineReport`] — the paper's Table 1 (per-stage blocking) and
//!   Figure 4 (pipeline overlap) from recorded execution: the trainer's
//!   `stage.*` spans partition its epoch wall-clock into prep-blocked /
//!   transfer / compute / other; worker spans attribute preparation and how
//!   much of it overlapped compute.
//! * [`BatchChain`] — each batch's causal chain, keyed by `(epoch, batch
//!   id)` because a trainer numbers batches from 0 every epoch, and charged
//!   category by category by [`BatchChain::attribute`].
//! * [`RecordedStages`] — each chain's prep / transfer / train durations,
//!   the input of the what-if projector `salient_sim::what_if`. This module
//!   reconstructs and attributes; it schedules nothing.
//!
//! Every duration percentile the trace reports ([`Percentiles`], on the
//! report) comes from these spans: nothing re-times them.

#![expect(
    clippy::indexing_slicing,
    reason = "i < a.len() and j < b.len() are the loop condition; a thread's \
              slot is resized in before it is indexed"
)]

use crate::metrics::MetricsSnapshot;
use crate::names::spans;
use crate::span::{EventKind, SpanEvent, NO_BATCH};

/// Everything recorded by a [`crate::Trace`], frozen at one point in time.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All span and point events, sorted by `(start_ns, tid, name)`.
    pub events: Vec<SpanEvent>,
    /// Thread-name table indexed by `tid`.
    pub threads: Vec<String>,
    /// Counters (per-request facts, whole-run).
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Interval events named `name` (a registered name or a plain `&str`;
    /// stored events carry strings, so queries accept either).
    pub fn spans<'a>(&'a self, name: impl AsRef<str> + 'a) -> impl Iterator<Item = &'a SpanEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind == EventKind::Span && e.name == name.as_ref())
    }

    /// Total nanoseconds across all spans named `name`.
    pub fn sum_ns(&self, name: impl AsRef<str>) -> u64 {
        self.spans(name).map(SpanEvent::dur_ns).sum()
    }

    /// Number of events (spans and instants) named `name`.
    pub fn count(&self, name: impl AsRef<str>) -> usize {
        self.events.iter().filter(|e| e.name == name.as_ref()).count()
    }

    /// Number of distinct recording threads.
    pub fn distinct_tids(&self) -> usize {
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids.len()
    }

    /// A sub-snapshot keeping only events fully inside `[start_ns, end_ns]`
    /// (an epoch window, say), point events among them: the faults a
    /// window reports are its own. Counters are carried over unchanged —
    /// they are cumulative over the whole run.
    pub fn window(&self, start_ns: u64, end_ns: u64) -> Snapshot {
        Snapshot {
            events: self
                .events
                .iter()
                .filter(|e| e.within(start_ns, end_ns))
                .copied()
                .collect(),
            threads: self.threads.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// `[min start, max end]` over every event, or `None` when empty.
    pub fn extent(&self) -> Option<(u64, u64)> {
        let start = self.events.iter().map(|e| e.start_ns).min()?;
        let end = self.events.iter().map(|e| e.end_ns).max()?;
        Some((start, end))
    }
}

/// Merges possibly overlapping `(start, end)` intervals into a disjoint
/// sorted list.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the intersection of two *disjoint sorted* interval lists.
fn intersection_ns(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Total length of the union of (possibly overlapping) intervals.
fn union_ns(iv: Vec<(u64, u64)>) -> u64 {
    merge_intervals(iv).iter().map(|(s, e)| e - s).sum()
}

/// Per-thread busy time (union of that thread's non-wrapper spans).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadOccupancy {
    /// Dense thread id (index into [`Snapshot::threads`]).
    pub tid: u32,
    /// Thread name.
    pub name: String,
    /// Union length of the thread's recorded work spans.
    pub busy_ns: u64,
}

/// The stall-attribution report (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// Thread that recorded the `stage.train` spans (the compute consumer;
    /// falls back to the `epoch` recorder for compute-less snapshots).
    pub trainer_tid: Option<u32>,
    /// Measurement window: summed `epoch` span time on whichever thread
    /// recorded the wrapper (falling back to the snapshot extent when no
    /// epoch span exists).
    pub window_ns: u64,
    /// Trainer blocked on batch preparation (`stage.prep`).
    pub prep_ns: u64,
    /// Trainer in host→device staging (`stage.transfer`): 0 for the real
    /// trainer, which records no such span.
    pub transfer_ns: u64,
    /// Trainer in model compute (`stage.train`).
    pub compute_ns: u64,
    /// Trainer time outside the three stages. Always equals
    /// `fill_ns + idle_ns + shutdown_ns` — the named decomposition below —
    /// so nothing in the window is left unattributed.
    pub other_ns: u64,
    /// Pipeline fill: each epoch window's lead-in before the trainer's
    /// first stage activity, plus explicit warm-up waits on the trainer.
    pub fill_ns: u64,
    /// Mid-run scheduling gaps on the trainer (the residual after fill and
    /// shutdown are carved out of `other_ns`).
    pub idle_ns: u64,
    /// Epoch tail after the trainer's last stage activity (drain/teardown).
    pub shutdown_ns: u64,
    /// Worker time in neighborhood sampling.
    pub worker_sample_ns: u64,
    /// Worker time in slicing.
    pub worker_slice_ns: u64,
    /// Worker time in the multiprocessing-emulation copy.
    pub worker_copy_ns: u64,
    /// Worker time blocked waiting for a free pinned slot (backpressure).
    pub worker_slot_wait_ns: u64,
    /// Preparation-pipeline work (sample/slice/copy/transfer on non-trainer
    /// threads) that ran *concurrently with* trainer compute — the
    /// pipeline-overlap win.
    pub overlap_ns: u64,
    /// DDP ring-step communication time across all ranks.
    pub comm_ns: u64,
    /// Per-thread busy time.
    pub occupancy: Vec<ThreadOccupancy>,
    /// Per-batch prep work: each chain's sample + slice + copy, over the
    /// chains that have any.
    pub prep_work: Percentiles,
    /// `stage.train` durations.
    pub train: Percentiles,
    /// `stage.prep` waits: the trainer's steady-state waits wherever the
    /// first wait of a run is filed as fill.
    pub prep_wait: Percentiles,
    /// `warmup` spans: one pipeline fill per run that files it apart.
    pub fill: Percentiles,
}

/// Exact percentiles of a set of durations, by the nearest-rank rule: the
/// `q`-quantile of `n` sorted values is the one at rank `max(1, ⌈q·n⌉)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// How many durations; every percentile is 0 when there are none.
    pub n: usize,
    /// Median, nanoseconds.
    pub p50: u64,
    /// 95th percentile, nanoseconds.
    pub p95: u64,
    /// 99th percentile, nanoseconds.
    pub p99: u64,
}

impl Percentiles {
    /// The percentiles of `ns`, in any order.
    pub fn of(mut ns: Vec<u64>) -> Percentiles {
        ns.sort_unstable();
        let at = |q: f64| {
            let rank = ((q * ns.len() as f64).ceil() as usize).max(1);
            ns.get(rank - 1).copied().unwrap_or(0)
        };
        Percentiles {
            n: ns.len(),
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
        }
    }
}

impl PipelineReport {
    /// Percent of the window attributed to `part_ns` (0 when empty).
    pub(crate) fn pct(&self, part_ns: u64) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            100.0 * part_ns as f64 / self.window_ns as f64
        }
    }

    /// The prep/transfer/compute/other percentages (sum to 100 whenever the
    /// window is nonzero).
    pub fn stage_pcts(&self) -> [f64; 4] {
        [
            self.pct(self.prep_ns),
            self.pct(self.transfer_ns),
            self.pct(self.compute_ns),
            self.pct(self.other_ns),
        ]
    }

    /// Fraction of trainer compute time that preparation overlapped with
    /// (0 when no compute was recorded).
    pub fn overlap_frac(&self) -> f64 {
        if self.compute_ns == 0 {
            0.0
        } else {
            self.overlap_ns as f64 / self.compute_ns as f64
        }
    }
}

/// What a span means to attribution (`role` is the table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// A measurement window, recorded when the epoch ends; the windows
    /// also key chains by epoch.
    Epoch,
    /// A wrapper tagged with the epoch number, not a batch id.
    RankEpoch,
    /// Tagged with the ring step, not a batch id, and inside the
    /// `stage.train` span it serves.
    Ring,
    Fill,
    /// The trainer blocked on (the baseline: doing) preparation.
    PrepWait,
    SlotWait,
    Sample,
    Slice,
    Copy,
    /// A stall on the trainer, preparation work off it.
    Transfer,
    /// Model compute: the threads that record it are the trainer.
    Train,
    Comm,
    /// Any other span: stage work on its batch's chain.
    Work,
}

/// The span-role table: what each span name means to every view of the
/// pass.
fn role(name: &str) -> Role {
    match name {
        n if n == spans::EPOCH => Role::Epoch,
        n if n == spans::RANK_EPOCH => Role::RankEpoch,
        n if n == spans::DDP_RING_SEND || n == spans::DDP_RING_RECV => Role::Ring,
        n if n == spans::WARMUP => Role::Fill,
        n if n == spans::STAGE_PREP => Role::PrepWait,
        n if n == spans::SLOT_WAIT => Role::SlotWait,
        n if n == spans::PREP_SAMPLE => Role::Sample,
        n if n == spans::PREP_SLICE => Role::Slice,
        n if n == spans::PREP_COPY => Role::Copy,
        n if n == spans::STAGE_TRANSFER => Role::Transfer,
        n if n == spans::STAGE_TRAIN => Role::Train,
        n if n == spans::COMM_STEP => Role::Comm,
        _ => Role::Work,
    }
}

/// Batch preparation's own work: what one prep attempt of a batch costs.
fn is_prep(r: Role) -> bool {
    matches!(r, Role::Sample | Role::Slice | Role::Copy)
}

impl Role {
    /// `epoch` and `ddp.epoch` wrap work; they are none.
    fn wraps(self) -> bool {
        matches!(self, Role::Epoch | Role::RankEpoch)
    }

    /// What a span of this role is on its batch's chain: wrappers and ring
    /// links are on none.
    fn edge(self) -> Option<EdgeKind> {
        match self {
            Role::Epoch | Role::RankEpoch | Role::Ring => None,
            Role::Fill => Some(EdgeKind::Fill),
            Role::PrepWait | Role::SlotWait => Some(EdgeKind::QueueWait),
            _ => Some(EdgeKind::StageWork),
        }
    }
}

/// The causal role of one edge on a batch's chain, in attribution priority
/// order: a batch being worked on is progressing even if a wait span also
/// covers the instant, so work outranks every kind of blocking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EdgeKind {
    /// Pipeline fill (`warmup`).
    Fill,
    /// The trainer blocked on a batch, or a worker on a free staging slot.
    QueueWait,
    /// Every other span.
    StageWork,
}

impl EdgeKind {
    /// Stable lower-case label used by exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            EdgeKind::Fill => "fill",
            EdgeKind::QueueWait => "queue_wait",
            EdgeKind::StageWork => "stage_work",
        }
    }
}

/// Everything one pass over a snapshot yields (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Stall attribution.
    pub report: PipelineReport,
    /// Every batch's causal chain, in `(epoch, batch)` order.
    pub chains: Vec<BatchChain>,
    /// Category-wise sum of every chain's [`BatchChain::attribute`].
    pub chain_total: ChainAttribution,
    /// The chains' stage durations; `None` when there is no chain.
    pub stages: Option<RecordedStages>,
    /// The epoch of a chain after the last closed `epoch` window.
    open_epoch: usize,
}

impl Attribution {
    /// `batch`'s chain in the open epoch — what a flight-recorder dump,
    /// which fires mid-epoch, carries.
    pub(crate) fn open_chain(&self, batch: u64) -> Option<&BatchChain> {
        self.chains
            .iter()
            .find(|c| c.epoch == self.open_epoch && c.batch == batch)
    }
}

/// The stall-attribution report of [`attribute`]'s pass.
pub fn analyze(snap: &Snapshot) -> PipelineReport {
    attribute(snap).report
}

/// Attributes a snapshot in one walk over its events (see the module docs).
pub fn attribute(snap: &Snapshot) -> Attribution {
    // The walk files every span under its thread with its role; every view
    // below filters what it filed. A thread with only instants still has
    // an (empty) entry, so it shows in the occupancy table.
    let mut threads: Vec<Option<Vec<(Role, u64, u64)>>> = Vec::new();
    let mut epoch_tid: Option<usize> = None;
    let mut edges: Vec<&SpanEvent> = Vec::new();
    for e in &snap.events {
        let tid = e.tid as usize;
        if threads.len() <= tid {
            threads.resize(tid + 1, None);
        }
        let filed = threads[tid].get_or_insert_with(Vec::new);
        if e.kind != EventKind::Span {
            continue;
        }
        let role = role(e.name);
        filed.push((role, e.start_ns, e.end_ns));
        if role == Role::Epoch {
            epoch_tid.get_or_insert(tid);
        }
        if e.batch != NO_BATCH && role.edge().is_some() {
            edges.push(e);
        }
    }

    // The trainer is *every* thread that records model compute — a set,
    // not a single tid, because a trainer driven from a fresh thread per
    // epoch records compute on several tids, and single-tid attribution
    // would drop every epoch after the first. The `epoch` wrapper recorder
    // is only a fallback for compute-less snapshots.
    let mut trainer: Vec<bool> = threads
        .iter()
        .map(|t| t.iter().flatten().any(|s| s.0 == Role::Train))
        .collect();
    if !trainer.contains(&true) {
        if let Some(on) = epoch_tid.and_then(|tid| trainer.get_mut(tid)) {
            *on = true;
        }
    }
    // The intervals of the spans whose role passes `keep`, on the trainer
    // (`Some(true)`), off it (`Some(false)`) or anywhere (`None`).
    let spans = |side: Option<bool>, keep: &dyn Fn(Role) -> bool| -> Vec<(u64, u64)> {
        threads
            .iter()
            .zip(&trainer)
            .filter(|&(_, &is_trainer)| side.is_none_or(|s| s == is_trainer))
            .flat_map(|(t, _)| t.iter().flatten())
            .filter(|s| keep(s.0))
            .map(|&(_, s, e)| (s, e))
            .collect()
    };
    let durations = |side: Option<bool>, role: Role| -> Vec<u64> {
        let spans = spans(side, &|r| r == role);
        spans.iter().map(|&(s, e)| e.saturating_sub(s)).collect()
    };
    let sum = |side: Option<bool>, role: Role| -> u64 { durations(side, role).iter().sum() };

    // Per-epoch windows, deliberately NOT merged: back-to-back epochs touch
    // at their boundary, and merging them would hide every epoch's
    // fill/shutdown edges except the outermost ones. Their ends key the
    // chains below. The window is epoch wall-clock wherever the wrapper
    // was recorded (the trainer thread, or one orchestrating it); extent
    // is the fallback for wrapper-less snapshots.
    let window_ns = match sum(None, Role::Epoch) {
        0 => snap.extent().map(|(s, e)| e - s).unwrap_or(0),
        epoch_ns => epoch_ns,
    };
    let mut epochs = spans(None, &|r| r == Role::Epoch);
    epochs.retain(|(s, e)| e > s);
    epochs.sort_unstable();
    let mut ends: Vec<u64> = epochs.iter().map(|&(_, e)| e).collect();
    ends.sort_unstable();
    let windows = if epochs.is_empty() {
        snap.extent().into_iter().collect()
    } else {
        epochs
    };

    let prep_ns = sum(Some(true), Role::PrepWait);
    let transfer_ns = sum(Some(true), Role::Transfer);
    let compute_ns = sum(Some(true), Role::Train);
    let other_ns = window_ns.saturating_sub(prep_ns + transfer_ns + compute_ns);

    // Attribute the `other` bucket into named categories. Trainer "busy"
    // is the union of its non-wrapper spans. Fill is each window's lead-in
    // before the first busy interval plus explicit warm-up waits, shutdown
    // is the tail after the last, and idle is the clamped residual — so
    // the three always sum to other_ns exactly.
    let busy = merge_intervals(spans(Some(true), &|r| !r.wraps() && r != Role::Fill));
    let mut fill_iv = spans(Some(true), &|r| r == Role::Fill);
    let mut shutdown_raw = 0u64;
    for &(ws, we) in &windows {
        let mut inside = busy
            .iter()
            .map(|&(s, e)| (s.max(ws), e.min(we)))
            .filter(|(lo, hi)| hi > lo);
        if let Some((first, end)) = inside.next() {
            let last = inside.last().map_or(end, |(_, hi)| hi);
            if first > ws {
                fill_iv.push((ws, first));
            }
            shutdown_raw += we.saturating_sub(last);
        }
    }
    let fill_ns = union_ns(fill_iv).min(other_ns);
    let shutdown_ns = shutdown_raw.min(other_ns - fill_ns);
    let idle_ns = other_ns - fill_ns - shutdown_ns;

    // Preparation work off the trainer — transfer included, which the
    // training consumer runs on the trainer, where it is a stall — that ran
    // concurrently with trainer compute.
    let prep_work = |r| matches!(r, Role::Sample | Role::Slice | Role::Copy | Role::Transfer);
    let overlap_ns = intersection_ns(
        &merge_intervals(spans(Some(false), &prep_work)),
        &merge_intervals(spans(Some(true), &|r| r == Role::Train)),
    );

    let occupancy = threads
        .iter()
        .enumerate()
        .filter_map(|(tid, t)| {
            let busy = t.as_ref()?.iter().filter(|s| !s.0.wraps());
            Some(ThreadOccupancy {
                tid: tid as u32,
                name: snap
                    .threads
                    .get(tid)
                    .cloned()
                    .unwrap_or_else(|| format!("thread-{tid}")),
                busy_ns: union_ns(busy.map(|&(_, s, e)| (s, e)).collect()),
            })
        })
        .collect();

    // Batch ids restart every epoch, so an edge is keyed by the `epoch`
    // window that holds its start: the number of windows closed by then,
    // which puts an edge after the last closed window in the open epoch.
    // The sort is stable, so each chain keeps the snapshot's
    // `(start_ns, tid, name)` order.
    let key = |e: &SpanEvent| (ends.partition_point(|&end| end <= e.start_ns), e.batch);
    edges.sort_by_key(|e| key(e));
    let chains: Vec<BatchChain> = edges
        .chunk_by(|a, b| key(a) == key(b))
        .filter_map(|run| {
            let (epoch, batch) = key(run.first()?);
            let edges = run.iter().map(|&&e| e).collect();
            Some(BatchChain {
                epoch,
                batch,
                edges,
            })
        })
        .collect();
    let mut chain_total = ChainAttribution::default();
    for c in &chains {
        chain_total.add(&c.attribute());
    }
    let prep_per_batch = chains
        .iter()
        .filter(|c| c.edges.iter().any(|e| is_prep(role(e.name))))
        .map(|c| c.work_ns(is_prep))
        .collect();

    Attribution {
        report: PipelineReport {
            trainer_tid: trainer.iter().position(|&t| t).map(|tid| tid as u32),
            window_ns,
            prep_ns,
            transfer_ns,
            compute_ns,
            other_ns,
            fill_ns,
            idle_ns,
            shutdown_ns,
            worker_sample_ns: sum(Some(false), Role::Sample),
            worker_slice_ns: sum(Some(false), Role::Slice),
            worker_copy_ns: sum(Some(false), Role::Copy),
            worker_slot_wait_ns: sum(None, Role::SlotWait),
            overlap_ns,
            comm_ns: sum(None, Role::Comm),
            occupancy,
            prep_work: Percentiles::of(prep_per_batch),
            train: Percentiles::of(durations(None, Role::Train)),
            prep_wait: Percentiles::of(durations(None, Role::PrepWait)),
            fill: Percentiles::of(durations(None, Role::Fill)),
        },
        stages: RecordedStages::from_chains(&chains),
        chains,
        chain_total,
        open_epoch: ends.len(),
    }
}

/// One batch's causal chain: the spans tagged with its id in one epoch.
#[derive(Clone, Debug)]
pub struct BatchChain {
    /// Index of the snapshot's `epoch` window that holds the chain; the
    /// open epoch after the last closed one, so 0 in a snapshot without an
    /// `epoch` span.
    pub epoch: usize,
    /// The batch id every edge is tagged with.
    pub batch: u64,
    /// The edges, sorted by `(start_ns, tid, name)`.
    pub edges: Vec<SpanEvent>,
}

impl BatchChain {
    /// Each edge with its causal kind.
    pub(crate) fn typed_edges(&self) -> impl Iterator<Item = (EdgeKind, &SpanEvent)> {
        self.edges
            .iter()
            .filter_map(|e| Some((role(e.name).edge()?, e)))
    }

    /// Summed duration of the chain's edges whose role passes `of`.
    fn work_ns(&self, of: fn(Role) -> bool) -> u64 {
        self.edges
            .iter()
            .filter(|e| of(role(e.name)))
            .map(SpanEvent::dur_ns)
            .sum()
    }

    /// `(first start, last end)` over the chain's edges.
    fn extent(&self) -> Option<(u64, u64)> {
        let lo = self.edges.iter().map(|e| e.start_ns).min()?;
        let hi = self.edges.iter().map(|e| e.end_ns).max()?;
        Some((lo, hi))
    }

    /// Charges every nanosecond of the chain extent to one category via a
    /// priority sweep over edge boundaries: work outranks queue wait, which
    /// outranks fill.
    pub fn attribute(&self) -> ChainAttribution {
        let mut a = ChainAttribution::default();
        let Some((lo, hi)) = self.extent() else {
            return a;
        };
        a.total_ns = hi - lo;
        let typed: Vec<(EdgeKind, u64, u64)> = self
            .typed_edges()
            .map(|(kind, e)| (kind, e.start_ns, e.end_ns))
            .collect();
        let mut cuts: Vec<u64> = typed.iter().flat_map(|&(_, s, e)| [s, e]).collect();
        cuts.sort_unstable();
        cuts.dedup();
        for pair in cuts.windows(2) {
            let &[p, t] = pair else { continue };
            // An edge is active over [p, t] iff it covers the whole slice
            // (cuts contain every boundary, so partial overlap is
            // impossible).
            let best = typed
                .iter()
                .filter(|&&(_, s, e)| s <= p && e >= t)
                .map(|&(kind, ..)| kind)
                .max();
            let d = t - p;
            match best {
                Some(EdgeKind::StageWork) => a.stage_work_ns += d,
                Some(EdgeKind::QueueWait) => a.queue_wait_ns += d,
                Some(EdgeKind::Fill) => a.fill_ns += d,
                // No span active. If a later edge of this chain is still
                // ahead (t < hi), the batch is parked in a queue waiting
                // for the next stage to pick it up — infer queue wait.
                // Otherwise nothing can be inferred and the time stays
                // unattributed.
                None if t < hi => a.queue_wait_ns += d,
                None => a.queued_ns += d,
            }
        }
        a
    }
}

/// Where one batch's (or a whole run's) latency went, by named category.
/// `total_ns` is the chain extent; the four category fields partition it
/// exactly (`queued_ns` is the uncovered remainder: the item sat in a
/// queue with no recorded span active).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainAttribution {
    /// Time under a stage-work edge.
    pub stage_work_ns: u64,
    /// Time waiting in a queue: a consumer blocked on this batch, or the
    /// batch parked between stages (no span active, a later edge ahead).
    pub queue_wait_ns: u64,
    /// Pipeline-fill time.
    pub fill_ns: u64,
    /// Unattributable residual: uncovered time with no later edge to infer
    /// a cause from. Extents end at the last edge, so this stays ~0; it is
    /// the honest "unknown" bucket the bench gates below 10%.
    pub queued_ns: u64,
    /// Chain extent (first edge start to last edge end).
    pub total_ns: u64,
}

impl ChainAttribution {
    /// Accumulates another attribution (category-wise sum).
    fn add(&mut self, o: &ChainAttribution) {
        self.stage_work_ns += o.stage_work_ns;
        self.queue_wait_ns += o.queue_wait_ns;
        self.fill_ns += o.fill_ns;
        self.queued_ns += o.queued_ns;
        self.total_ns += o.total_ns;
    }

    /// `(label, ns)` pairs for every category, export order.
    pub fn categories(&self) -> [(&'static str, u64); 4] {
        [
            ("stage_work", self.stage_work_ns),
            ("queue_wait", self.queue_wait_ns),
            ("fill", self.fill_ns),
            ("queued", self.queued_ns),
        ]
    }
}

/// What a traced training run recorded per chain, in `(epoch, batch)`
/// order: the plain durations a schedule model needs to re-execute the
/// run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedStages {
    /// Prep work (sample + slice + copy) of each batch, nanoseconds.
    pub prep_ns: Vec<u64>,
    /// Transfer-stage work of each batch.
    pub transfer_ns: Vec<u64>,
    /// Train-stage work of each batch.
    pub train_ns: Vec<u64>,
    /// Number of distinct threads that recorded prep work (at least 1).
    pub prep_lanes: usize,
}

impl RecordedStages {
    /// Reads the stage durations off `chains`; `None` when there is none.
    fn from_chains(chains: &[BatchChain]) -> Option<RecordedStages> {
        if chains.is_empty() {
            return None;
        }
        let per_chain = |of: fn(Role) -> bool| chains.iter().map(|c| c.work_ns(of)).collect();
        let edges = chains.iter().flat_map(|c| &c.edges);
        let mut lanes: Vec<u32> = edges
            .filter(|e| is_prep(role(e.name)))
            .map(|e| e.tid)
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        Some(RecordedStages {
            prep_ns: per_chain(is_prep),
            transfer_ns: per_chain(|r| r == Role::Transfer),
            train_ns: per_chain(|r| r == Role::Train),
            prep_lanes: lanes.len().max(1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::span::Trace;

    #[test]
    fn interval_algebra() {
        assert_eq!(
            merge_intervals(vec![(5, 10), (0, 3), (9, 12), (3, 4)]),
            vec![(0, 4), (5, 12)]
        );
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(
            intersection_ns(&[(0, 10), (20, 30)], &[(5, 25)]),
            5 + 5
        );
        assert_eq!(intersection_ns(&[(0, 5)], &[(5, 9)]), 0);
    }

    /// A scripted two-thread pipeline: trainer computes 0..100 while a
    /// worker samples 20..80 (overlap 60), then the trainer blocks 100..130.
    fn scripted() -> Snapshot {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::EPOCH, crate::NO_BATCH, 0, 200);
        t.record_span(spans::STAGE_TRAIN, 0, 0, 100);
        t.record_span(spans::STAGE_PREP, 1, 100, 130);
        t.record_span(spans::STAGE_TRANSFER, 1, 130, 150);
        let worker = std::thread::Builder::new()
            .name("w".into())
            .spawn({
                let t = t.clone();
                move || {
                    t.record_span(spans::PREP_SAMPLE, 1, 20, 70);
                    t.record_span(spans::PREP_SLICE, 1, 70, 80);
                    t.record_span(spans::SLOT_WAIT, 1, 80, 95);
                }
            })
            .unwrap();
        worker.join().unwrap();
        t.snapshot()
    }

    #[test]
    fn stall_attribution_sums_to_the_window() {
        let r = analyze(&scripted());
        assert_eq!(r.window_ns, 200);
        assert_eq!(r.prep_ns, 30);
        assert_eq!(r.transfer_ns, 20);
        assert_eq!(r.compute_ns, 100);
        assert_eq!(r.other_ns, 50);
        let total: f64 = r.stage_pcts().iter().sum();
        assert!((total - 100.0).abs() < 1e-9, "{total}");
        // The `other` bucket decomposes into named categories: the trainer
        // was busy 0..150 inside the 0..200 window, so all 50 ns of other
        // is epoch-tail shutdown.
        assert_eq!(r.fill_ns, 0);
        assert_eq!(r.idle_ns, 0);
        assert_eq!(r.shutdown_ns, 50);
        assert_eq!(r.fill_ns + r.idle_ns + r.shutdown_ns, r.other_ns);
    }

    fn pct(n: usize, p50: u64, p95: u64, p99: u64) -> Percentiles {
        Percentiles { n, p50, p95, p99 }
    }

    #[test]
    fn report_percentiles_come_from_the_spans() {
        let r = analyze(&scripted());
        // Batch 1's prep work is its sample (50) + slice (10); the slot
        // wait is backpressure, not work. Batch 0 prepared nothing.
        assert_eq!(r.prep_work, pct(1, 60, 60, 60));
        assert_eq!(r.train, pct(1, 100, 100, 100));
        assert_eq!(r.prep_wait, pct(1, 30, 30, 30));
        assert_eq!(r.fill, Percentiles::default());
    }

    #[test]
    fn percentiles_take_the_nearest_rank() {
        assert_eq!(Percentiles::of(Vec::new()), Percentiles::default());
        assert_eq!(Percentiles::of(vec![7]), pct(1, 7, 7, 7));
        // 1..=100 in any order: rank ⌈q·100⌉ holds the value itself.
        let hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(Percentiles::of(hundred), pct(100, 50, 95, 99));
        // Ties: ranks 1..=90 hold 10, 91..=99 hold 20, 100 holds 30.
        let mut tied = vec![10; 90];
        tied.extend([20; 9]);
        tied.push(30);
        assert_eq!(Percentiles::of(tied), pct(100, 10, 20, 20));
        // An even count takes the lower median.
        assert_eq!(Percentiles::of(vec![4, 1, 3, 2]).p50, 2);
        // A fractional rank rounds up: p95 of 1..=11 is rank ⌈10.45⌉ = 11.
        assert_eq!(Percentiles::of((1..=11).collect()).p95, 11);
    }

    #[test]
    fn overlap_is_the_intersection_of_prep_and_compute() {
        let r = analyze(&scripted());
        assert_eq!(r.worker_sample_ns, 50);
        assert_eq!(r.worker_slice_ns, 10);
        assert_eq!(r.worker_slot_wait_ns, 15);
        // Worker busy 20..80 intersected with compute 0..100 = 60.
        assert_eq!(r.overlap_ns, 60);
        assert!((r.overlap_frac() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn occupancy_excludes_the_epoch_wrapper() {
        let r = analyze(&scripted());
        let trainer = r.trainer_tid.unwrap();
        let t = r.occupancy.iter().find(|o| o.tid == trainer).unwrap();
        // stage spans 0..150, not the 0..200 epoch wrapper.
        assert_eq!(t.busy_ns, 150);
        let w = r.occupancy.iter().find(|o| o.tid != trainer).unwrap();
        assert_eq!(w.busy_ns, 75);
        assert_eq!(w.name, "w");
    }

    /// A layout with every role on its own thread: `epoch` on an
    /// orchestrating main thread, compute (+ its prep wait) on a dedicated
    /// thread, transfer on another, sampling on a worker. Known overlap by
    /// construction: sample 20..60 (40) ∪ transfer 60..80 (20) against
    /// compute 0..100 → 60 of 100 compute ns → 0.6.
    fn scripted_threaded() -> Snapshot {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::EPOCH, crate::NO_BATCH, 0, 200);
        let spawn = |name: &str, f: Box<dyn FnOnce(&Trace) + Send>| {
            let t = t.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || f(&t))
                .unwrap()
                .join()
                .unwrap();
        };
        spawn(
            "compute",
            Box::new(|t| {
                t.record_span(spans::STAGE_TRAIN, 0, 0, 100);
                t.record_span(spans::STAGE_PREP, 1, 100, 130);
                t.record_span(spans::STAGE_TRAIN, 1, 130, 190);
            }),
        );
        spawn(
            "transfer",
            Box::new(|t| {
                t.record_span(spans::STAGE_TRANSFER, 1, 60, 80);
            }),
        );
        spawn(
            "sampler",
            Box::new(|t| {
                t.record_span(spans::PREP_SAMPLE, 1, 20, 60);
            }),
        );
        t.snapshot()
    }

    #[test]
    fn cross_thread_overlap_is_credited_at_known_fraction() {
        let snap = scripted_threaded();
        let r = analyze(&snap);
        // The trainer is the stage.train recorder, NOT the epoch recorder:
        // resolving via `epoch` first reports overlap_frac 0 whenever the
        // two are different threads.
        let compute_tid = snap.spans(spans::STAGE_TRAIN).next().unwrap().tid;
        let epoch_tid = snap.spans(spans::EPOCH).next().unwrap().tid;
        assert_ne!(compute_tid, epoch_tid);
        assert_eq!(r.trainer_tid, Some(compute_tid));
        // The epoch wrapper still defines the window even off-trainer.
        assert_eq!(r.window_ns, 200);
        assert_eq!(r.compute_ns, 160);
        assert_eq!(r.prep_ns, 30);
        // Transfer happened on its own thread — pipelined away from
        // the trainer, so it contributes to overlap, not to trainer stall.
        assert_eq!(r.transfer_ns, 0);
        // sample 20..60 ∪ transfer 60..80 vs compute 0..100 ∪ 130..190.
        assert_eq!(r.overlap_ns, 60);
        assert!((r.overlap_frac() - 60.0 / 160.0).abs() < 1e-9);
        // other = 200 - 190 = 10, all after the trainer's last activity.
        assert_eq!(r.other_ns, 10);
        assert_eq!(r.shutdown_ns, 10);
        assert_eq!(r.fill_ns, 0);
        assert_eq!(r.idle_ns, 0);
    }

    #[test]
    fn multi_epoch_threaded_runs_attribute_every_epochs_compute() {
        // A fresh compute thread per epoch: `stage.train` lands on a
        // different tid each epoch, and single-tid trainer resolution would
        // drop everything after epoch 1.
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::EPOCH, crate::NO_BATCH, 0, 100);
        t.record_span(spans::EPOCH, crate::NO_BATCH, 100, 200);
        let spawn = |name: &str, f: Box<dyn FnOnce(&Trace) + Send>| {
            let t = t.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || f(&t))
                .unwrap()
                .join()
                .unwrap();
        };
        spawn(
            "compute-e0",
            Box::new(|t| {
                t.record_span(spans::WARMUP, 0, 0, 10);
                t.record_span(spans::STAGE_TRAIN, 0, 10, 90);
            }),
        );
        spawn(
            "compute-e1",
            Box::new(|t| {
                t.record_span(spans::STAGE_TRAIN, 1, 110, 195);
            }),
        );
        let r = analyze(&t.snapshot());
        assert_eq!(r.window_ns, 200);
        // Both epochs' compute counted: 80 + 85.
        assert_eq!(r.compute_ns, 165);
        assert_eq!(r.other_ns, 35);
        // Epoch 0 lead-in 0..10 (covered by the warm-up wait) and epoch 1
        // lead-in 100..110 are fill; tails 90..100 + 195..200 are shutdown.
        assert_eq!(r.fill_ns, 20);
        assert_eq!(r.shutdown_ns, 15);
        assert_eq!(r.idle_ns, 0);
        assert_eq!(r.fill_ns + r.idle_ns + r.shutdown_ns, r.other_ns);
    }

    #[test]
    fn overlap_frac_against_compute_only_window() {
        // Restrict to the first compute interval: overlap 60 of compute
        // 100 → exactly the hand-computed 0.6.
        let snap = scripted_threaded().window(0, 100);
        let r = analyze(&snap);
        assert_eq!(r.compute_ns, 100);
        assert_eq!(r.overlap_ns, 60);
        assert!((r.overlap_frac() - 0.6).abs() < 1e-9, "{}", r.overlap_frac());
    }

    #[test]
    fn serial_schedule_still_reports_zero_overlap() {
        // A serial shape: prep wait, transfer, and compute all
        // on one thread, worker spans only inside the trainer's waits —
        // nothing concurrent with compute, so overlap must stay 0.
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::EPOCH, crate::NO_BATCH, 0, 300);
        t.record_span(spans::STAGE_PREP, 0, 0, 100);
        t.record_span(spans::STAGE_TRANSFER, 0, 100, 120);
        t.record_span(spans::STAGE_TRAIN, 0, 120, 200);
        let worker = std::thread::Builder::new()
            .name("w".into())
            .spawn({
                let t = t.clone();
                move || t.record_span(spans::PREP_SAMPLE, 0, 10, 90)
            })
            .unwrap();
        worker.join().unwrap();
        let r = analyze(&t.snapshot());
        assert_eq!(r.overlap_ns, 0);
        assert_eq!(r.overlap_frac(), 0.0);
        assert_eq!(r.transfer_ns, 20);
    }

    #[test]
    fn empty_snapshot_analyzes_to_zero() {
        let r = analyze(&Snapshot::default());
        assert_eq!(r.window_ns, 0);
        assert_eq!(r.stage_pcts(), [0.0; 4]);
        assert_eq!(r.overlap_frac(), 0.0);
    }

    #[test]
    fn classification_covers_the_edge_taxonomy() {
        let edge = |name: crate::names::SpanName| role(name.as_str()).edge();
        assert_eq!(edge(spans::WARMUP), Some(EdgeKind::Fill));
        assert_eq!(edge(spans::STAGE_PREP), Some(EdgeKind::QueueWait));
        assert_eq!(edge(spans::SLOT_WAIT), Some(EdgeKind::QueueWait));
        assert_eq!(edge(spans::STAGE_TRAIN), Some(EdgeKind::StageWork));
        assert_eq!(edge(spans::PREP_SAMPLE), Some(EdgeKind::StageWork));
        // Ring links carry the communicator's ring step, not a batch id,
        // and the rank epoch carries the epoch number: neither is an edge.
        assert_eq!(edge(spans::DDP_RING_SEND), None);
        assert_eq!(edge(spans::DDP_RING_RECV), None);
        assert_eq!(edge(spans::RANK_EPOCH), None);
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::RANK_EPOCH, 0, 0, 100);
        t.record_span(spans::STAGE_TRAIN, 0, 10, 60);
        t.record_span(spans::DDP_RING_SEND, 0, 40, 50);
        t.record_span(spans::DDP_RING_RECV, 0, 50, 55);
        let chains = attribute(&t.snapshot()).chains;
        assert_eq!(chains.len(), 1);
        let names: Vec<&str> = chains[0].edges.iter().map(|e| e.name).collect();
        assert_eq!(names, [spans::STAGE_TRAIN.as_str()]);
    }

    /// Hand-built chain with a known path: fill 0..10, sample 10..40,
    /// in-queue (no span, compute edge ahead) 40..50 inferred as queue
    /// wait, compute 50..80.
    #[test]
    fn chain_attribution_is_exact_on_a_known_path() {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::WARMUP, 0, 0, 10);
        t.record_span(spans::PREP_SAMPLE, 0, 10, 40);
        t.record_span(spans::STAGE_TRAIN, 0, 50, 80);
        // A second batch to prove grouping.
        t.record_span(spans::STAGE_TRAIN, 1, 80, 90);
        let chains = attribute(&t.snapshot()).chains;
        assert_eq!(chains.len(), 2);
        let c0 = &chains[0];
        assert_eq!(c0.batch, 0);
        assert_eq!(c0.edges.len(), 3);
        assert_eq!(c0.extent(), Some((0, 80)));
        let a = c0.attribute();
        assert_eq!(a.fill_ns, 10);
        assert_eq!(a.stage_work_ns, 30 + 30);
        assert_eq!(a.queue_wait_ns, 10, "in-queue gap inferred as queue wait");
        assert_eq!(a.queued_ns, 0);
        assert_eq!(a.total_ns, 80);
        let sum: u64 = a.categories().iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, a.total_ns, "categories must partition the extent");
    }

    #[test]
    fn overlapping_wait_and_work_charge_to_work() {
        // A consumer wait span 0..100 wrapping the worker's sample 20..60:
        // the covered 40 ns are progress, only the rest is queue wait.
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::STAGE_PREP, 7, 0, 100);
        t.record_span(spans::PREP_SAMPLE, 7, 20, 60);
        let chains = attribute(&t.snapshot()).chains;
        let a = chains[0].attribute();
        assert_eq!(a.stage_work_ns, 40);
        assert_eq!(a.queue_wait_ns, 60);
        assert_eq!(a.total_ns, 100);
    }

    #[test]
    fn from_snapshot_extracts_per_batch_durations() {
        let t = Trace::new(Clock::virtual_manual());
        for b in 0..3u64 {
            let off = b * 100;
            t.record_span(spans::PREP_SAMPLE, b, off, off + 30);
            t.record_span(spans::PREP_SLICE, b, off + 30, off + 40);
            t.record_span(spans::STAGE_TRANSFER, b, off + 40, off + 50);
            t.record_span(spans::STAGE_TRAIN, b, off + 50, off + 90);
        }
        // prep 40, transfer 10, train 40 per batch, one recording thread.
        let r = attribute(&t.snapshot()).stages.unwrap();
        assert_eq!(r.prep_ns, [40, 40, 40]);
        assert_eq!(r.transfer_ns, [10, 10, 10]);
        assert_eq!(r.train_ns, [40, 40, 40]);
        assert_eq!(r.prep_lanes, 1);
        assert!(attribute(&Snapshot::default()).stages.is_none());
    }

    /// Two epochs of two batches each, ids restarting at 0, a worker
    /// preparing and the trainer training: epoch 0 is 0..100, epoch 1 is
    /// 100..200. Batch `b` of epoch `k` samples at `k*100 + 10 + 40*b` for
    /// 20 ns and trains 10 ns after that for 10 ns.
    fn two_epochs(trace: &Trace) {
        for epoch in 0..2u64 {
            let base = epoch * 100;
            let worker = std::thread::spawn({
                let t = trace.clone();
                move || {
                    for b in 0..2u64 {
                        let s = base + 10 + 40 * b;
                        t.record_span(spans::PREP_SAMPLE, b, s, s + 20);
                    }
                }
            });
            worker.join().unwrap();
            for b in 0..2u64 {
                let s = base + 10 + 40 * b;
                trace.record_span(spans::STAGE_TRAIN, b, s + 30, s + 40);
            }
            trace.record_span(spans::EPOCH, crate::NO_BATCH, base, base + 100);
        }
    }

    #[test]
    fn chains_restart_with_every_epoch() {
        let t = Trace::new(Clock::virtual_manual());
        two_epochs(&t);
        let a = attribute(&t.snapshot());
        let keys: Vec<(usize, u64)> = a.chains.iter().map(|c| (c.epoch, c.batch)).collect();
        assert_eq!(keys, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        for c in &a.chains {
            let lo = c.epoch as u64 * 100;
            assert!(
                c.edges
                    .iter()
                    .all(|e| e.start_ns >= lo && e.end_ns <= lo + 100),
                "{c:?}"
            );
            // sample 20, parked 10, train 10: no queue wait across epochs.
            let at = c.attribute();
            assert_eq!(
                (at.stage_work_ns, at.queue_wait_ns, at.total_ns),
                (30, 10, 40),
                "{c:?}"
            );
        }
        assert_eq!(a.chain_total.total_ns, 160);
        let r = a.stages.unwrap();
        assert_eq!(r.prep_ns, [20; 4]);
        assert_eq!(r.train_ns, [10; 4]);
        assert_eq!(r.prep_lanes, 2, "one worker thread per epoch");
    }

    #[test]
    fn a_dump_after_a_closed_epoch_carries_only_the_open_epochs_chain() {
        let dir = format!(
            "{}/tmp/blackbox-test-open-epoch",
            std::env::var("CARGO_TARGET_DIR")
                .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").into())
        );
        let t = Trace::with_blackbox(Clock::virtual_manual(), dir);
        two_epochs(&t);
        // Epoch 2 is open (`epoch` is recorded when it ends): batch 1 has
        // sampled, batch 0 has sampled and trained.
        t.record_span(spans::PREP_SAMPLE, 0, 210, 230);
        t.record_span(spans::PREP_SAMPLE, 1, 250, 270);
        t.record_span(spans::STAGE_TRAIN, 0, 240, 250);
        let path = t.blackbox().unwrap().dump(&t, "test", 1).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let chain = doc.get("chain").unwrap().as_arr().unwrap();
        let starts: Vec<f64> = chain
            .iter()
            .map(|e| e.get("start_ns").unwrap().as_num().unwrap())
            .collect();
        assert_eq!(starts, [250.0]);
    }
}
