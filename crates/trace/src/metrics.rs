//! Metric instruments: counters and gauges.
//!
//! Handles ([`Counter`], [`Gauge`]) are cheap `Arc`-wrapped atomics: look
//! one up once (a short registry lock), then update it on the hot path with
//! plain atomic operations — no locks, no allocation. A duration is not a
//! metric: it is a span, and its percentiles come from the spans
//! ([`crate::analysis::Percentiles`]).

use crate::lock_tolerant;
use crate::names::{CounterName, GaugeName};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// The instrument registry behind a tracing handle: every map under one
/// lock, so a snapshot never holds one map's lock while it takes another's.
/// Lookups are cold (hot code holds the returned handle).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    instruments: Mutex<Instruments>,
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
}

impl Metrics {
    /// The counter named `name`, created on first use.
    pub(crate) fn counter(&self, name: CounterName) -> Counter {
        lock_tolerant(&self.instruments).counters.entry(name.as_str()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub(crate) fn gauge(&self, name: GaugeName) -> Gauge {
        lock_tolerant(&self.instruments).gauges.entry(name.as_str()).or_default().clone()
    }

    /// Snapshots every instrument (sorted by name).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let ins = lock_tolerant(&self.instruments);
        MetricsSnapshot {
            counters: ins.counters.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
            gauges: ins.gauges.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let snap = m.snapshot();
        assert_eq!(snap.counter("x"), 5);
        assert_eq!(snap.gauges, vec![("g".to_string(), 7)]);
        assert_eq!(snap.counter("absent"), 0);
    }
}
