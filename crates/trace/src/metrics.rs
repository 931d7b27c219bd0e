//! The one metric instrument: counters of per-request facts.
//!
//! A [`Counter`] is a cheap `Arc`-wrapped atomic: look one up once (a short
//! registry lock), then update it on the hot path with a plain atomic add —
//! no lock, no allocation. A counter holds only a fact that happens per
//! request and that no span covers (admissions, sheds, completions, the
//! bytes a host→device copy would move). A duration is a span and its
//! percentiles come from the spans ([`crate::analysis::Percentiles`]); a
//! rare fact (a fault, a ladder or breaker move, a dump) is a point event,
//! counted from the snapshot, so a window of the trace says whose it is.

use crate::lock_tolerant;
use crate::names::CounterName;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
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
    fn get(&self) -> u64 {
        // Relaxed: snapshot read of a statistic.
        self.0.load(Ordering::Relaxed)
    }
}

/// The counter registry behind a tracing handle. Lookups are cold (hot code
/// holds the returned handle).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
}

impl Metrics {
    /// The counter named `name`, created on first use.
    pub(crate) fn counter(&self, name: CounterName) -> Counter {
        lock_tolerant(&self.counters).entry(name.as_str()).or_default().clone()
    }

    /// Snapshots every counter (sorted by name).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock_tolerant(&self.counters);
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), v.get())).collect(),
        }
    }
}

/// Frozen values of every counter in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
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
        let snap = m.snapshot();
        assert_eq!(snap.counter("x"), 5);
        assert_eq!(snap.counter("absent"), 0);
    }
}
