//! Metric instruments: counters, gauges, and fixed-bucket log-scale
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-wrapped
//! atomics: look one up once (a short registry lock), then update it on the
//! hot path with plain atomic operations — no locks, no allocation.
//! Histograms use log-linear buckets (16 sub-buckets per octave, exact
//! below 64 ns) so p50/p95/p99 estimates stay within 1/16 (6.25%) of the
//! true quantile across the full nanosecond-to-minutes range with a fixed
//! 992-slot table. The finer resolution matters for small-count
//! distributions: with 4 sub-buckets per octave, a cluster of ~2 µs batch
//! times all landed in one 256 ns-wide bucket and p50/p95/p99 collapsed to
//! the same floor.

#![expect(
    clippy::indexing_slicing,
    reason = "i is clamped to HIST_BUCKETS - 1 before it is used and buckets holds exactly HIST_BUCKETS entries"
)]

use crate::lock_tolerant;
use crate::names::{CounterName, GaugeName, HistName};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets (covers the full `u64` range): 64 exact
/// buckets below 64, then 16 sub-buckets per octave for msb 6..=63.
pub const HIST_BUCKETS: usize = 992;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (all updates are discarded at
    /// snapshot time; used by disabled tracing handles).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds `v`.
    pub fn add(&self, v: u64) {
        // Relaxed: pure monotone statistic, read only at snapshot time.
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // Relaxed: snapshot read of a statistic.
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        // Relaxed: last-writer-wins statistic, read only at snapshot time.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // Relaxed: snapshot read of a statistic.
        self.0.load(Ordering::Relaxed)
    }
}

/// Maps a value to its log-linear bucket index.
///
/// Values below 64 get exact buckets; above that, each power of two is
/// split into 16 sub-buckets keyed by the four bits after the leading one,
/// bounding the floor's relative error by 1/16.
fn bucket_index(v: u64) -> usize {
    if v < 64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= 6
    let sub = (v >> (msb - 4)) & 0b1111;
    (64 + (msb - 6) * 16 + sub) as usize
}

/// The smallest value that maps to bucket `i` (inverse of [`bucket_index`]).
fn bucket_floor(i: usize) -> u64 {
    if i < 64 {
        return i as u64;
    }
    let msb = 6 + (i as u64 - 64) / 16;
    let sub = (i as u64 - 64) % 16;
    (1u64 << msb) | (sub << (msb - 4))
}

/// A fixed-bucket log-scale histogram (lock-free updates).
#[derive(Debug)]
pub struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A shareable histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let i = bucket_index(v).min(HIST_BUCKETS - 1);
        // Relaxed everywhere: independent statistics read only at snapshot
        // time; no ordering between them is required for the estimates.
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed); // relaxed: see above
        self.0.count.fetch_add(1, Ordering::Relaxed); // relaxed: see above
        self.0.sum.fetch_add(v, Ordering::Relaxed); // relaxed: see above
    }

    /// An immutable summary of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Relaxed loads: concurrent writers may race the snapshot; each
        // statistic is independently consistent, which is all reports need.
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            // relaxed: each bucket is an independent estimate (see above)
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count,
            // relaxed: sum may lag the buckets; reports tolerate the skew
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram contents with quantile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the floor of the bucket
    /// containing that rank; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }

    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Convenience: (p50, p95, p99).
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }
}

/// The instrument registry behind a tracing handle: every map under one
/// lock, so a snapshot never holds one map's lock while it takes another's.
/// Lookups are cold (hot code holds the returned handle).
#[derive(Debug, Default)]
pub struct Metrics {
    instruments: Mutex<Instruments>,
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: CounterName) -> Counter {
        lock_tolerant(&self.instruments).counters.entry(name.as_str()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: GaugeName) -> Gauge {
        lock_tolerant(&self.instruments).gauges.entry(name.as_str()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: HistName) -> Histogram {
        lock_tolerant(&self.instruments).histograms.entry(name.as_str()).or_default().clone()
    }

    /// Snapshots every instrument (sorted by name).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ins = lock_tolerant(&self.instruments);
        MetricsSnapshot {
            counters: ins.counters.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
            gauges: ins.gauges.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
            histograms: ins.histograms.iter().map(|(k, v)| (k.to_string(), v.snapshot())).collect(),
        }
    }
}

/// Frozen values of every instrument in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram contents, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (0 if absent).
    pub fn counter(&self, name: impl AsRef<str>) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name.as_ref())
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: impl AsRef<str>) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name.as_ref()).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_are_consistent() {
        for v in [0u64, 1, 5, 7, 8, 9, 15, 16, 63, 64, 65, 100, 1_000, 123_456, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v, "floor({i}) <= {v}");
            if i + 1 < HIST_BUCKETS {
                assert!(bucket_floor(i + 1) > v, "floor({}) > {v}", i + 1);
            }
        }
        // Index is monotone in the value.
        let mut prev = 0;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v * 1_000); // 1 µs .. 1 ms, uniform
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let (p50, p95, p99) = s.percentiles();
        assert!((400_000..=600_000).contains(&p50), "p50 {p50}");
        assert!((800_000..=1_000_000).contains(&p95), "p95 {p95}");
        assert!(p99 >= p95 && p50 <= p95);
        assert!((s.mean() - 500_500.0).abs() < 1_000.0);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let m = Metrics::default();
        let x = CounterName::new("x");
        let a = m.counter(x);
        let b = m.counter(x);
        a.add(2);
        b.add(3);
        assert_eq!(m.counter(x).get(), 5);
        m.gauge(GaugeName::new("g")).set(7);
        m.histogram(HistName::new("h")).observe(42);
        let snap = m.snapshot();
        assert_eq!(snap.counter("x"), 5);
        assert_eq!(snap.gauges, vec![("g".to_string(), 7)]);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn relative_error_is_bounded_by_one_sixteenth() {
        // Exact below 64; above, the bucket floor underestimates by at most
        // v/16 (the 4 sub-bucket bits preserve the top 5 significant bits).
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for x in [v, v + 1, v * 3 / 2, v * 2 - 1] {
                let f = bucket_floor(bucket_index(x));
                assert!(f <= x, "floor {f} > value {x}");
                if x < 64 {
                    assert_eq!(f, x, "exact range must be exact");
                } else {
                    let err = (x - f) as f64;
                    assert!(err <= x as f64 / 16.0, "err {err} > {x}/16");
                }
            }
            v = v.saturating_mul(2);
        }
    }

    #[test]
    fn small_count_distributions_keep_distinct_percentiles() {
        // A tight cluster of ~2 µs values: with the old 4-sub-bucket table,
        // 1800/1900/2000 all landed in the single 1792..2047 bucket and
        // p50/p95/p99 collapsed to the same floor (the BENCH prep_batch
        // defect). The 16-sub-bucket table keeps them distinct.
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(1_800);
        }
        for _ in 0..8 {
            h.observe(1_900);
        }
        for _ in 0..2 {
            h.observe(2_000);
        }
        let (p50, p95, p99) = h.snapshot().percentiles();
        assert_eq!(p50, 1_792, "p50 {p50}");
        assert_eq!(p95, 1_856, "p95 {p95}");
        assert_eq!(p99, 1_984, "p99 {p99}");
        assert!(p50 < p95 && p95 < p99, "percentiles must be distinct");
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
