//! Per-batch causal critical-path reconstruction and attribution.
//!
//! Every instrumented pipeline event is tagged with a batch id, so a
//! snapshot already contains each batch's *causal chain*: the ordered,
//! typed edges (stage work, queue wait, ring send/recv, pipeline fill) it
//! traversed from the sampler to the optimizer step.
//! [`batch_chains`] reconstructs those chains, [`BatchChain::attribute`]
//! charges every nanosecond of a batch's latency to exactly one named
//! category (a priority sweep: doing work beats being blocked, so overlap
//! between a work span and the wait that wraps it counts as work; a gap
//! with no span active but a later edge still ahead is the batch parked in
//! a queue, so it is inferred as queue wait), and
//! [`RecordedStages::from_snapshot`] reads the per-batch prep / transfer /
//! train durations and the prep lane count off the same spans — the input
//! of the what-if projector, `salient_sim::what_if`, which re-executes them
//! on the simulator's pipelined schedule with one stage sped up. This crate
//! reconstructs and attributes; it schedules nothing.

use crate::analysis::Snapshot;
use crate::names::{spans, SpanName};
use crate::span::{EventKind, NO_BATCH};

/// The causal role of one edge on a batch's path through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Pipeline fill: a run's first wait, before steady state.
    Fill,
    /// A consumer blocked on an empty input queue (or a worker blocked on a
    /// free staging slot).
    QueueWait,
    /// Actual stage work (sample, slice, copy, transfer, compute).
    StageWork,
    /// A DDP ring-link send.
    RingSend,
    /// A DDP ring-link receive.
    RingRecv,
}

impl EdgeKind {
    /// Stable lower-case label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Fill => "fill",
            EdgeKind::QueueWait => "queue_wait",
            EdgeKind::StageWork => "stage_work",
            EdgeKind::RingSend => "ring_send",
            EdgeKind::RingRecv => "ring_recv",
        }
    }

    /// Attribution priority when edges overlap in time: a batch being
    /// worked on is *progressing* even if a wrapper wait span also covers
    /// the instant, so work outranks every flavor of blocking.
    fn priority(self) -> u8 {
        match self {
            EdgeKind::StageWork => 4,
            EdgeKind::RingSend | EdgeKind::RingRecv => 3,
            EdgeKind::QueueWait => 2,
            EdgeKind::Fill => 1,
        }
    }
}

/// Classifies a span name into its causal edge kind.
pub fn classify(name: &str) -> EdgeKind {
    if name == spans::WARMUP {
        EdgeKind::Fill
    } else if name == spans::DDP_RING_SEND {
        EdgeKind::RingSend
    } else if name == spans::DDP_RING_RECV {
        EdgeKind::RingRecv
    } else if name == spans::STAGE_PREP || name == spans::SLOT_WAIT {
        EdgeKind::QueueWait
    } else {
        EdgeKind::StageWork
    }
}

/// One typed edge on a batch's causal chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Causal role.
    pub kind: EdgeKind,
    /// The recorded span name this edge came from.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Edge start (clock nanoseconds).
    pub start_ns: u64,
    /// Edge end.
    pub end_ns: u64,
}

impl Edge {
    /// Edge duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One batch's reconstructed causal chain, edges sorted by start time.
#[derive(Clone, Debug)]
pub struct BatchChain {
    /// The batch id every edge is tagged with.
    pub batch: u64,
    /// Typed edges, sorted by `(start_ns, tid, name)`.
    pub edges: Vec<Edge>,
}

/// Where one batch's (or a whole run's) latency went, by named category.
/// `total_ns` is the chain extent; the five category fields partition it
/// exactly (`queued_ns` is the uncovered remainder: the item sat in a
/// queue with no recorded span active).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainAttribution {
    /// Time under a stage-work edge.
    pub stage_work_ns: u64,
    /// Time in DDP ring sends/receives.
    pub ring_ns: u64,
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
    pub fn add(&mut self, o: &ChainAttribution) {
        self.stage_work_ns += o.stage_work_ns;
        self.ring_ns += o.ring_ns;
        self.queue_wait_ns += o.queue_wait_ns;
        self.fill_ns += o.fill_ns;
        self.queued_ns += o.queued_ns;
        self.total_ns += o.total_ns;
    }

    /// `(label, ns)` pairs for every category, export order.
    pub fn categories(&self) -> [(&'static str, u64); 5] {
        [
            ("stage_work", self.stage_work_ns),
            ("ring", self.ring_ns),
            ("queue_wait", self.queue_wait_ns),
            ("fill", self.fill_ns),
            ("queued", self.queued_ns),
        ]
    }
}

impl BatchChain {
    /// `(first start, last end)` over the chain's edges.
    pub fn extent(&self) -> Option<(u64, u64)> {
        let lo = self.edges.iter().map(|e| e.start_ns).min()?;
        let hi = self.edges.iter().map(|e| e.end_ns).max()?;
        Some((lo, hi))
    }

    /// Charges every nanosecond of the chain extent to one category via a
    /// priority sweep over edge boundaries (see [`EdgeKind::priority`]).
    pub fn attribute(&self) -> ChainAttribution {
        let mut a = ChainAttribution::default();
        let (lo, hi) = match self.extent() {
            Some(x) => x,
            None => return a,
        };
        a.total_ns = hi - lo;
        let mut cuts: Vec<u64> = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            cuts.push(e.start_ns);
            cuts.push(e.end_ns);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut prev: Option<u64> = None;
        for &t in &cuts {
            if let Some(p) = prev {
                if t > p {
                    // An edge is active over [p, t] iff it covers the whole
                    // slice (cuts contain every boundary, so partial overlap
                    // is impossible).
                    let best = self
                        .edges
                        .iter()
                        .filter(|e| e.start_ns <= p && e.end_ns >= t)
                        .map(|e| e.kind)
                        .max_by_key(|k| k.priority());
                    let d = t - p;
                    match best {
                        Some(EdgeKind::StageWork) => a.stage_work_ns += d,
                        Some(EdgeKind::RingSend) | Some(EdgeKind::RingRecv) => a.ring_ns += d,
                        Some(EdgeKind::QueueWait) => a.queue_wait_ns += d,
                        Some(EdgeKind::Fill) => a.fill_ns += d,
                        // No span active. If a later edge of this chain is
                        // still ahead (t < hi), the batch is parked in a
                        // queue waiting for the next stage to pick it up —
                        // infer queue wait. Otherwise nothing can be
                        // inferred and the time stays unattributed.
                        None if t < hi => a.queue_wait_ns += d,
                        None => a.queued_ns += d,
                    }
                }
            }
            prev = Some(t);
        }
        a
    }
}

/// Reconstructs every batch's causal chain from a snapshot: all interval
/// events tagged with a real batch id, grouped by batch, edges sorted by
/// start time, chains sorted by batch id.
pub fn batch_chains(snap: &Snapshot) -> Vec<BatchChain> {
    let mut chains: Vec<BatchChain> = Vec::new();
    // Snapshot events are pre-sorted by (start_ns, tid, name), so pushing
    // in order keeps each chain's edges sorted.
    for e in &snap.events {
        if e.kind != EventKind::Span || e.batch == NO_BATCH {
            continue;
        }
        let edge = Edge {
            kind: classify(e.name),
            name: e.name,
            tid: e.tid,
            start_ns: e.start_ns,
            end_ns: e.end_ns,
        };
        match chains.iter_mut().find(|c| c.batch == e.batch) {
            Some(c) => c.edges.push(edge),
            None => chains.push(BatchChain {
                batch: e.batch,
                edges: vec![edge],
            }),
        }
    }
    chains.sort_by_key(|c| c.batch);
    chains
}

/// Category-wise sum of every chain's attribution.
pub fn summarize(chains: &[BatchChain]) -> ChainAttribution {
    let mut total = ChainAttribution::default();
    for c in chains {
        total.add(&c.attribute());
    }
    total
}

/// What a traced training run recorded per batch, batches in id order: the
/// plain durations a schedule model needs to re-execute the run.
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
    /// Reads the stage durations off the batch-tagged spans of `snap`;
    /// `None` when the snapshot has no tagged batches.
    pub fn from_snapshot(snap: &Snapshot) -> Option<RecordedStages> {
        fn named<'a>(chain: &'a BatchChain, names: &'a [SpanName]) -> impl Iterator<Item = &'a Edge> {
            chain.edges.iter().filter(move |e| names.iter().any(|n| e.name == *n))
        }
        let chains = batch_chains(snap);
        if chains.is_empty() {
            return None;
        }
        let per_batch = |names: &[SpanName]| -> Vec<u64> {
            chains.iter().map(|c| named(c, names).map(Edge::dur_ns).sum()).collect()
        };
        let prep = [spans::PREP_SAMPLE, spans::PREP_SLICE, spans::PREP_COPY];
        let mut prep_tids: Vec<u32> = chains.iter().flat_map(|c| named(c, &prep)).map(|e| e.tid).collect();
        prep_tids.sort_unstable();
        prep_tids.dedup();
        Some(RecordedStages {
            prep_ns: per_batch(&prep),
            transfer_ns: per_batch(&[spans::STAGE_TRANSFER]),
            train_ns: per_batch(&[spans::STAGE_TRAIN]),
            prep_lanes: prep_tids.len().max(1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::span::Trace;

    #[test]
    fn classification_covers_the_edge_taxonomy() {
        assert_eq!(classify(spans::WARMUP.as_str()), EdgeKind::Fill);
        assert_eq!(classify(spans::DDP_RING_SEND.as_str()), EdgeKind::RingSend);
        assert_eq!(classify(spans::DDP_RING_RECV.as_str()), EdgeKind::RingRecv);
        assert_eq!(classify(spans::STAGE_PREP.as_str()), EdgeKind::QueueWait);
        assert_eq!(classify(spans::SLOT_WAIT.as_str()), EdgeKind::QueueWait);
        assert_eq!(classify(spans::STAGE_TRAIN.as_str()), EdgeKind::StageWork);
        assert_eq!(classify(spans::PREP_SAMPLE.as_str()), EdgeKind::StageWork);
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
        let chains = batch_chains(&t.snapshot());
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
        let chains = batch_chains(&t.snapshot());
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
        let r = RecordedStages::from_snapshot(&t.snapshot()).unwrap();
        assert_eq!(r.prep_ns, [40, 40, 40]);
        assert_eq!(r.transfer_ns, [10, 10, 10]);
        assert_eq!(r.train_ns, [40, 40, 40]);
        assert_eq!(r.prep_lanes, 1);
        assert!(RecordedStages::from_snapshot(&Snapshot::default()).is_none());
    }
}
