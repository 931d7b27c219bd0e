//! Per-batch causal critical-path reconstruction and what-if projection.
//!
//! Every instrumented pipeline event is tagged with a batch id, so a
//! snapshot already contains each batch's *causal chain*: the ordered,
//! typed edges (stage work, queue wait, backpressure, ring send/recv,
//! pipeline fill) it traversed from the sampler to the optimizer step.
//! [`batch_chains`] reconstructs those chains, [`BatchChain::attribute`]
//! charges every nanosecond of a batch's latency to exactly one named
//! category (a priority sweep: doing work beats being blocked, so overlap
//! between a work span and the wait that wraps it counts as work; a gap
//! with no span active but a later edge still ahead is the batch parked in
//! a queue, so it is inferred as queue wait), and
//! [`Replay`] re-executes recorded chains under the pipeline's structural
//! constraints (bounded transfer queue, prefetch depth, worker lanes) with
//! any stage sped up by a chosen factor — the *what-if projector* that
//! predicts what removing a bottleneck would buy before anyone builds it.
//! The projection is validated against the `sim` plane's Pipelined
//! schedule on the same shape constants in `tests/critical_path.rs`.

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
    /// A producer blocked pushing into a full bounded queue.
    Backpressure,
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
            EdgeKind::Backpressure => "backpressure",
            EdgeKind::RingSend => "ring_send",
            EdgeKind::RingRecv => "ring_recv",
        }
    }

    /// Attribution priority when edges overlap in time: a batch being
    /// worked on is *progressing* even if a wrapper wait span also covers
    /// the instant, so work outranks every flavor of blocking.
    fn priority(self) -> u8 {
        match self {
            EdgeKind::StageWork => 5,
            EdgeKind::Backpressure => 4,
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
    } else if name == spans::PIPE_SEND {
        EdgeKind::Backpressure
    } else if name == spans::DDP_RING_SEND {
        EdgeKind::RingSend
    } else if name == spans::DDP_RING_RECV {
        EdgeKind::RingRecv
    } else if name == spans::STAGE_PREP || name == spans::PIPE_WAIT || name == spans::SLOT_WAIT {
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
/// `total_ns` is the chain extent; the six category fields partition it
/// exactly (`queued_ns` is the uncovered remainder: the item sat in a
/// queue with no recorded span active).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainAttribution {
    /// Time under a stage-work edge.
    pub stage_work_ns: u64,
    /// Time blocked pushing into a full queue.
    pub backpressure_ns: u64,
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
        self.backpressure_ns += o.backpressure_ns;
        self.ring_ns += o.ring_ns;
        self.queue_wait_ns += o.queue_wait_ns;
        self.fill_ns += o.fill_ns;
        self.queued_ns += o.queued_ns;
        self.total_ns += o.total_ns;
    }

    /// `(label, ns)` pairs for every category, export order.
    pub fn categories(&self) -> [(&'static str, u64); 6] {
        [
            ("stage_work", self.stage_work_ns),
            ("backpressure", self.backpressure_ns),
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
                        Some(EdgeKind::Backpressure) => a.backpressure_ns += d,
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

/// A replayable pipeline model extracted from recorded chains: per-stage
/// per-batch durations plus the structural constraints the real executor
/// ran under (worker lanes, bounded transfer queue, prefetch depth).
/// [`Replay::what_if`] re-executes it with one stage sped up by a factor
/// and reports the projected makespan — the causal answer to "what would
/// making stage X k-times faster buy end to end?".
#[derive(Clone, Debug)]
pub struct Replay {
    /// Stage name + lane count (parallel executors), pipeline order.
    stages: Vec<(String, usize)>,
    /// `dur_ns[stage][batch]` recorded durations.
    dur_ns: Vec<Vec<u64>>,
    /// Bounded-queue capacity ahead of the final stage: batch `b` of the
    /// second-to-last stage cannot start until batch `b - cap - 1` left the
    /// last stage (double buffering).
    queue_cap: usize,
    /// Prefetch depth: stage-0 batch `b` cannot start before batch
    /// `b - prefetch` finished the last stage (bounded work-ahead);
    /// 0 disables the constraint.
    prefetch: usize,
}

/// One what-if projection result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WhatIf {
    /// Replayed makespan with recorded durations.
    pub baseline_ns: u64,
    /// Replayed makespan with the chosen stage scaled.
    pub projected_ns: u64,
    /// `baseline / projected` — the predicted end-to-end speedup.
    pub speedup: f64,
}

impl Replay {
    /// A replay where every batch of a stage has the same duration — the
    /// shape-constant form used to validate against the sim plane.
    pub fn uniform(
        stages: &[(&str, usize)],
        durs: &[u64],
        batches: usize,
        queue_cap: usize,
        prefetch: usize,
    ) -> Replay {
        Replay {
            stages: stages.iter().map(|(n, l)| (n.to_string(), *l)).collect(),
            dur_ns: durs.iter().map(|&d| vec![d; batches]).collect(),
            queue_cap,
            prefetch,
        }
    }

    /// Extracts the 3-stage training replay (prep / transfer / train) from
    /// recorded batch-tagged spans; `None` when the snapshot has no tagged
    /// batches. Prep lanes = the number of distinct threads that recorded
    /// prep work.
    pub fn from_snapshot(snap: &Snapshot, queue_cap: usize, prefetch: usize) -> Option<Replay> {
        let mut batches: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.batch != NO_BATCH)
            .map(|e| e.batch)
            .collect();
        batches.sort_unstable();
        batches.dedup();
        if batches.is_empty() {
            return None;
        }
        let sum_for = |names: &[SpanName], b: u64| -> u64 {
            snap.events
                .iter()
                .filter(|e| {
                    e.kind == EventKind::Span && e.batch == b && names.iter().any(|n| e.name == *n)
                })
                .map(|e| e.dur_ns())
                .sum()
        };
        let prep_names = [spans::PREP_SAMPLE, spans::PREP_SLICE, spans::PREP_COPY];
        let prep: Vec<u64> = batches.iter().map(|&b| sum_for(&prep_names, b)).collect();
        let transfer: Vec<u64> = batches
            .iter()
            .map(|&b| sum_for(&[spans::STAGE_TRANSFER], b))
            .collect();
        let train: Vec<u64> = batches
            .iter()
            .map(|&b| sum_for(&[spans::STAGE_TRAIN], b))
            .collect();
        let mut prep_tids: Vec<u32> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span && prep_names.iter().any(|n| e.name == *n))
            .map(|e| e.tid)
            .collect();
        prep_tids.sort_unstable();
        prep_tids.dedup();
        Some(Replay {
            stages: vec![
                ("prep".to_string(), prep_tids.len().max(1)),
                ("transfer".to_string(), 1),
                ("train".to_string(), 1),
            ],
            dur_ns: vec![prep, transfer, train],
            queue_cap,
            prefetch,
        })
    }

    /// Stage names in pipeline order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Replays the recorded chains under the structural constraints and
    /// returns the makespan.
    pub fn makespan_ns(&self) -> u64 {
        self.makespan_scaled(None, 1.0)
    }

    /// Replay with stage `stage`'s durations divided by `factor`.
    pub fn what_if(&self, stage: usize, factor: f64) -> WhatIf {
        let baseline_ns = self.makespan_ns();
        let projected_ns = self.makespan_scaled(Some(stage), factor);
        WhatIf {
            baseline_ns,
            projected_ns,
            speedup: if projected_ns == 0 {
                1.0
            } else {
                baseline_ns as f64 / projected_ns as f64
            },
        }
    }

    /// In-order greedy list schedule: batch-major, each stage picks its
    /// earliest-free lane; every dependency points at an earlier batch or
    /// an earlier stage of the same batch, so one pass suffices.
    fn makespan_scaled(&self, scaled: Option<usize>, factor: f64) -> u64 {
        let nstages = self.dur_ns.len();
        let batches = self.dur_ns.first().map(Vec::len).unwrap_or(0);
        if nstages == 0 || batches == 0 {
            return 0;
        }
        let last = nstages - 1;
        let mut finish: Vec<Vec<u64>> = vec![vec![0u64; batches]; nstages];
        let mut lane_free: Vec<Vec<u64>> = self
            .stages
            .iter()
            .map(|(_, l)| vec![0u64; (*l).max(1)])
            .collect();
        let fin = |f: &Vec<Vec<u64>>, s: usize, b: usize| -> u64 {
            f.get(s).and_then(|row| row.get(b)).copied().unwrap_or(0)
        };
        let mut makespan = 0u64;
        for b in 0..batches {
            for s in 0..nstages {
                let mut ready = 0u64;
                if s > 0 {
                    ready = ready.max(fin(&finish, s - 1, b));
                }
                if s == 0 && self.prefetch > 0 && b >= self.prefetch {
                    ready = ready.max(fin(&finish, last, b - self.prefetch));
                }
                if nstages >= 2 && s == nstages - 2 && b > self.queue_cap {
                    ready = ready.max(fin(&finish, last, b - self.queue_cap - 1));
                }
                let mut dur = self
                    .dur_ns
                    .get(s)
                    .and_then(|row| row.get(b))
                    .copied()
                    .unwrap_or(0);
                if scaled == Some(s) && factor > 0.0 {
                    dur = (dur as f64 / factor).round() as u64;
                }
                // Earliest-free lane for this stage.
                let lane = lane_free
                    .get(s)
                    .and_then(|lf| {
                        lf.iter()
                            .enumerate()
                            .min_by_key(|(_, &t)| t)
                            .map(|(i, &t)| (i, t))
                    })
                    .unwrap_or((0, 0));
                let start = ready.max(lane.1);
                let end = start + dur;
                if let Some(slot) = lane_free.get_mut(s).and_then(|lf| lf.get_mut(lane.0)) {
                    *slot = end;
                }
                if let Some(slot) = finish.get_mut(s).and_then(|row| row.get_mut(b)) {
                    *slot = end;
                }
                makespan = makespan.max(end);
            }
        }
        makespan
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
        assert_eq!(classify(spans::PIPE_SEND.as_str()), EdgeKind::Backpressure);
        assert_eq!(classify(spans::DDP_RING_SEND.as_str()), EdgeKind::RingSend);
        assert_eq!(classify(spans::DDP_RING_RECV.as_str()), EdgeKind::RingRecv);
        assert_eq!(classify(spans::STAGE_PREP.as_str()), EdgeKind::QueueWait);
        assert_eq!(classify(spans::PIPE_WAIT.as_str()), EdgeKind::QueueWait);
        assert_eq!(classify(spans::SLOT_WAIT.as_str()), EdgeKind::QueueWait);
        assert_eq!(classify(spans::STAGE_TRAIN.as_str()), EdgeKind::StageWork);
        assert_eq!(classify(spans::PREP_SAMPLE.as_str()), EdgeKind::StageWork);
    }

    /// Hand-built chain with a known path: fill 0..10, sample 10..40,
    /// backpressured send 40..45, in-queue (no span, compute edge ahead)
    /// 45..50 inferred as queue wait, compute 50..80.
    #[test]
    fn chain_attribution_is_exact_on_a_known_path() {
        let t = Trace::new(Clock::virtual_manual());
        t.record_span(spans::WARMUP, 0, 0, 10);
        t.record_span(spans::PREP_SAMPLE, 0, 10, 40);
        t.record_span(spans::PIPE_SEND, 0, 40, 45);
        t.record_span(spans::STAGE_TRAIN, 0, 50, 80);
        // A second batch to prove grouping.
        t.record_span(spans::STAGE_TRAIN, 1, 80, 90);
        let chains = batch_chains(&t.snapshot());
        assert_eq!(chains.len(), 2);
        let c0 = &chains[0];
        assert_eq!(c0.batch, 0);
        assert_eq!(c0.edges.len(), 4);
        assert_eq!(c0.extent(), Some((0, 80)));
        let a = c0.attribute();
        assert_eq!(a.fill_ns, 10);
        assert_eq!(a.stage_work_ns, 30 + 30);
        assert_eq!(a.backpressure_ns, 5);
        assert_eq!(a.queue_wait_ns, 5, "in-queue gap inferred as queue wait");
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
    fn replay_makespan_matches_hand_schedule() {
        // 2 stages, 3 batches, durs 10/20, cap 2, no prefetch:
        // s0: 0-10, 10-20, 20-30; s1: 10-30, 30-50, 50-70.
        let r = Replay::uniform(&[("a", 1), ("b", 1)], &[10, 20], 3, 2, 0);
        assert_eq!(r.makespan_ns(), 70);
        // Speeding the bottleneck stage 2x: s1 becomes 10 ns — chains
        // serialize behind s0 instead: 0-10/10-20, 10-20/20-30, 20-30/30-40.
        let w = r.what_if(1, 2.0);
        assert_eq!(w.baseline_ns, 70);
        assert_eq!(w.projected_ns, 40);
        assert!((w.speedup - 70.0 / 40.0).abs() < 1e-9);
        // Speeding the non-bottleneck stage buys nothing at steady state.
        let w0 = r.what_if(0, 2.0);
        assert_eq!(w0.projected_ns, 65);
    }

    #[test]
    fn replay_respects_queue_cap_and_lanes() {
        // One-slot queue ahead of the last stage: transfer b=2 must wait for
        // train b=0 to finish (b - cap - 1 = 0).
        let r = Replay::uniform(&[("t", 1), ("c", 1)], &[1, 100], 4, 1, 0);
        // t0 0-1, c0 1-101; t1 1-2; t2 waits for c0 → starts 101.
        // c runs back-to-back: 1-101, 101-201, 201-301, 301-401.
        assert_eq!(r.makespan_ns(), 401);
        // Two lanes on a slow first stage halve its serial throughput.
        let one = Replay::uniform(&[("p", 1), ("c", 1)], &[50, 10], 4, 8, 0);
        let two = Replay::uniform(&[("p", 2), ("c", 1)], &[50, 10], 4, 8, 0);
        assert!(two.makespan_ns() < one.makespan_ns());
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
        let r = Replay::from_snapshot(&t.snapshot(), 2, 0).unwrap();
        assert_eq!(r.stage_names(), ["prep", "transfer", "train"]);
        // prep 40, transfer 10, train 40 per batch; 1 lane each (single
        // recording thread) → pipeline bound by prep+train interleave.
        assert_eq!(r.dur_ns[0], vec![40, 40, 40]);
        assert_eq!(r.dur_ns[1], vec![10, 10, 10]);
        assert_eq!(r.dur_ns[2], vec![40, 40, 40]);
        assert!(r.makespan_ns() >= 3 * 40);
        assert!(Replay::from_snapshot(&Snapshot::default(), 2, 0).is_none());
    }
}
