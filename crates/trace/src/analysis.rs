//! Pipeline occupancy and stall attribution computed from span intervals.
//!
//! This pass reproduces the paper's Table 1 (per-stage blocking breakdown)
//! and Figure 4 (pipeline-overlap) accounting from *recorded execution*
//! rather than hand-threaded sums: the trainer thread's `stage.*` spans
//! partition its epoch wall-clock into prep-blocked / transfer / compute /
//! other, while worker spans (`prep.sample`, `prep.slice`, `prep.copy`,
//! `prep.slot_wait`) attribute where preparation time went and how much of
//! it overlapped training compute.

#![expect(
    clippy::indexing_slicing,
    reason = "i < a.len() and j < b.len() are the loop condition"
)]

use crate::metrics::MetricsSnapshot;
use crate::names::{spans, SpanName};
use crate::span::{EventKind, SpanEvent};

/// Everything recorded by a [`crate::Trace`], frozen at one point in time.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All span and point events, sorted by `(start_ns, tid, name)`.
    pub events: Vec<SpanEvent>,
    /// Thread-name table indexed by `tid`.
    pub threads: Vec<String>,
    /// Metric instruments.
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

    /// Total nanoseconds across spans named `name` on thread `tid`.
    pub fn sum_ns_on(&self, name: impl AsRef<str>, tid: u32) -> u64 {
        self.spans(name)
            .filter(|e| e.tid == tid)
            .map(SpanEvent::dur_ns)
            .sum()
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
    /// (an epoch window, say). Metric instruments are carried over
    /// unchanged — counters are cumulative over the whole run.
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
    /// Trainer in host→device staging (`stage.transfer`).
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
}

impl PipelineReport {
    /// Percent of the window attributed to `part_ns` (0 when empty).
    pub fn pct(&self, part_ns: u64) -> f64 {
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

/// Computes the stall-attribution report from a snapshot.
pub fn analyze(snap: &Snapshot) -> PipelineReport {
    // The trainer is *every* thread that records model compute
    // (`stage.train`) — a set, not a single tid, because a trainer driven
    // from a fresh thread per epoch records compute on several tids, and
    // single-tid attribution would drop every epoch after the first. The
    // `epoch` wrapper recorder is only a fallback for compute-less
    // snapshots.
    let trainer_tids: Vec<u32> = {
        let mut v: Vec<u32> = snap.spans(spans::STAGE_TRAIN).map(|e| e.tid).collect();
        v.sort_unstable();
        v.dedup();
        if v.is_empty() {
            v.extend(snap.spans(spans::EPOCH).map(|e| e.tid).take(1));
        }
        v
    };
    let trainer_tid = trainer_tids.first().copied();

    // The window is epoch wall-clock wherever the wrapper was recorded
    // (the trainer thread, or one orchestrating it); extent is the
    // fallback for wrapper-less snapshots.
    let epoch_ns = snap.sum_ns(spans::EPOCH);
    let window_ns = if epoch_ns > 0 {
        epoch_ns
    } else {
        snap.extent().map(|(s, e)| e - s).unwrap_or(0)
    };

    let on_trainer = |name: SpanName| -> u64 {
        trainer_tids
            .iter()
            .map(|&t| snap.sum_ns_on(name, t))
            .sum()
    };
    let prep_ns = on_trainer(spans::STAGE_PREP);
    let transfer_ns = on_trainer(spans::STAGE_TRANSFER);
    let compute_ns = on_trainer(spans::STAGE_TRAIN);
    let other_ns = window_ns.saturating_sub(prep_ns + transfer_ns + compute_ns);

    // Attribute the `other` bucket into named categories. The window set is
    // the merged epoch spans (snapshot extent as fallback); trainer "busy"
    // is the union of its stage spans. Fill is each window's lead-in before
    // the first busy interval plus explicit warm-up waits, shutdown is the
    // tail after the last, and idle is the clamped residual — so the three
    // always sum to other_ns exactly.
    let windows: Vec<(u64, u64)> = {
        // Per-epoch windows, deliberately NOT merged: back-to-back epochs
        // touch at their boundary, and merging them would hide every
        // epoch's fill/shutdown edges except the outermost ones.
        let mut iv: Vec<(u64, u64)> = snap
            .spans(spans::EPOCH)
            .map(|e| (e.start_ns, e.end_ns))
            .filter(|(s, e)| e > s)
            .collect();
        iv.sort_unstable();
        if iv.is_empty() {
            snap.extent().into_iter().collect()
        } else {
            iv
        }
    };
    let busy: Vec<(u64, u64)> = merge_intervals(
        snap.events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Span
                    && trainer_tids.contains(&e.tid)
                    && e.name != spans::EPOCH
                    && e.name != spans::RANK_EPOCH
                    && e.name != spans::WARMUP
            })
            .map(|e| (e.start_ns, e.end_ns))
            .collect(),
    );
    let mut fill_iv: Vec<(u64, u64)> = snap
        .spans(spans::WARMUP)
        .filter(|e| trainer_tids.contains(&e.tid))
        .map(|e| (e.start_ns, e.end_ns))
        .collect();
    let mut shutdown_raw = 0u64;
    for &(ws, we) in &windows {
        let clipped: Vec<(u64, u64)> = busy
            .iter()
            .filter_map(|&(s, e)| {
                let lo = s.max(ws);
                let hi = e.min(we);
                (hi > lo).then_some((lo, hi))
            })
            .collect();
        if let (Some(&(first, _)), Some(&(_, last))) = (clipped.first(), clipped.last()) {
            if first > ws {
                fill_iv.push((ws, first));
            }
            shutdown_raw += we.saturating_sub(last);
        }
    }
    let fill_ns = union_ns(fill_iv).min(other_ns);
    let shutdown_ns = shutdown_raw.min(other_ns - fill_ns);
    let idle_ns = other_ns - fill_ns - shutdown_ns;

    let worker_spans = |name: SpanName| -> Vec<(u64, u64)> {
        snap.spans(name)
            .filter(|e| !trainer_tids.contains(&e.tid))
            .map(|e| (e.start_ns, e.end_ns))
            .collect()
    };
    let mut prep_work: Vec<(u64, u64)> = Vec::new();
    prep_work.extend(worker_spans(spans::PREP_SAMPLE));
    prep_work.extend(worker_spans(spans::PREP_SLICE));
    prep_work.extend(worker_spans(spans::PREP_COPY));
    // Transfer work on a non-trainer thread is pipeline work hidden under
    // compute too; the training consumer runs its transfer stage on the
    // trainer, where it stays excluded.
    prep_work.extend(worker_spans(spans::STAGE_TRANSFER));
    let compute_iv: Vec<(u64, u64)> = snap
        .spans(spans::STAGE_TRAIN)
        .filter(|e| trainer_tids.contains(&e.tid))
        .map(|e| (e.start_ns, e.end_ns))
        .collect();
    let overlap_ns = intersection_ns(
        &merge_intervals(prep_work),
        &merge_intervals(compute_iv),
    );

    let mut occupancy: Vec<ThreadOccupancy> = Vec::new();
    let mut tids: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let busy: Vec<(u64, u64)> = snap
            .events
            .iter()
            .filter(|e| {
                e.tid == tid
                    && e.kind == EventKind::Span
                    && e.name != spans::EPOCH
                    && e.name != spans::RANK_EPOCH
            })
            .map(|e| (e.start_ns, e.end_ns))
            .collect();
        occupancy.push(ThreadOccupancy {
            tid,
            name: snap
                .threads
                .get(tid as usize)
                .cloned()
                .unwrap_or_else(|| format!("thread-{tid}")),
            busy_ns: union_ns(busy),
        });
    }

    PipelineReport {
        trainer_tid,
        window_ns,
        prep_ns,
        transfer_ns,
        compute_ns,
        other_ns,
        fill_ns,
        idle_ns,
        shutdown_ns,
        worker_sample_ns: snap
            .spans(spans::PREP_SAMPLE)
            .filter(|e| !trainer_tids.contains(&e.tid))
            .map(SpanEvent::dur_ns)
            .sum(),
        worker_slice_ns: snap
            .spans(spans::PREP_SLICE)
            .filter(|e| !trainer_tids.contains(&e.tid))
            .map(SpanEvent::dur_ns)
            .sum(),
        worker_copy_ns: snap
            .spans(spans::PREP_COPY)
            .filter(|e| !trainer_tids.contains(&e.tid))
            .map(SpanEvent::dur_ns)
            .sum(),
        worker_slot_wait_ns: snap.sum_ns(spans::SLOT_WAIT),
        overlap_ns,
        comm_ns: snap.sum_ns(spans::COMM_STEP),
        occupancy,
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
}
