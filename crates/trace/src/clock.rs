//! The workspace's single sanctioned time source.
//!
//! Every timed code path outside `crates/sim`, `crates/bench`, and CLI entry
//! points reads time through [`Clock`], never through `std::time::Instant`
//! directly (clippy's `disallowed_methods`, listed in `clippy.toml`). A [`Clock`] is either
//! the process monotonic clock or a manually advanced [`VirtualClock`], so
//! any instrumented subsystem can be driven deterministically in tests: the
//! same code path, the same spans, the same reports — with scripted time.
//!
//! Timestamps are `u64` nanoseconds since the clock's epoch (process start
//! for the monotonic clock, 0 for a fresh virtual clock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic anchor.
#[expect(clippy::disallowed_methods, reason = "this is the sanctioned time source: the one read of the process monotonic clock, behind `Clock::Monotonic`")]
fn monotonic_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    // Saturate instead of wrapping: u64 nanoseconds cover ~584 years.
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A time source: real monotonic time, or a test-controlled virtual clock.
///
/// Cloning is cheap (an `Arc` at most); every component of one pipeline run
/// should share clones of the same clock so their timestamps are mutually
/// ordered.
///
/// # Examples
///
/// ```
/// use salient_trace::{Clock, VirtualClock};
///
/// let real = Clock::monotonic();
/// let a = real.now_ns();
/// assert!(real.now_ns() >= a);
///
/// let clock = Clock::virtual_with_tick(1_000); // each read advances 1 µs
/// assert_eq!(clock.now_ns(), 0);
/// assert_eq!(clock.now_ns(), 1_000);
/// ```
#[derive(Clone, Debug)]
pub enum Clock {
    /// The process monotonic clock (anchored at first use).
    Monotonic,
    /// A manually advanced clock shared by reference.
    Virtual(Arc<VirtualClock>),
}

impl Default for Clock {
    fn default() -> Self {
        Clock::Monotonic
    }
}

impl Clock {
    /// The real monotonic clock.
    pub fn monotonic() -> Clock {
        Clock::Monotonic
    }

    /// A fresh virtual clock starting at 0 that only moves when
    /// [`VirtualClock::advance`] or [`VirtualClock::set`] is called.
    pub fn virtual_manual() -> Clock {
        Clock::Virtual(Arc::new(VirtualClock::new(0)))
    }

    /// A fresh virtual clock that auto-advances by `tick_ns` on every read,
    /// so instrumented code observes deterministic nonzero durations without
    /// any manual scripting. The first read returns 0.
    pub fn virtual_with_tick(tick_ns: u64) -> Clock {
        Clock::Virtual(Arc::new(VirtualClock::with_tick(0, tick_ns)))
    }

    /// The shared virtual clock, if this is one (for scripting from tests).
    pub fn as_virtual(&self) -> Option<&Arc<VirtualClock>> {
        match self {
            Clock::Monotonic => None,
            Clock::Virtual(v) => Some(v),
        }
    }

    /// Current time in nanoseconds since the clock epoch.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Monotonic => monotonic_ns(),
            Clock::Virtual(v) => v.now_ns(),
        }
    }
}

/// A deterministic, manually advanced clock.
///
/// Readable from any thread; [`now_ns`](VirtualClock::now_ns) optionally
/// auto-advances by a fixed tick per read, which gives every span a nonzero,
/// load-independent duration — the backbone of the deterministic
/// observability tests.
#[derive(Debug)]
pub struct VirtualClock {
    now: AtomicU64,
    tick: u64,
}

impl VirtualClock {
    /// A clock frozen at `start_ns` until advanced.
    pub(crate) fn new(start_ns: u64) -> VirtualClock {
        VirtualClock { now: AtomicU64::new(start_ns), tick: 0 }
    }

    /// A clock that advances by `tick_ns` after every read.
    pub(crate) fn with_tick(start_ns: u64, tick_ns: u64) -> VirtualClock {
        VirtualClock { now: AtomicU64::new(start_ns), tick: tick_ns }
    }

    /// Reads the clock (and auto-advances it by the configured tick).
    pub(crate) fn now_ns(&self) -> u64 {
        if self.tick == 0 {
            // Relaxed is sufficient: the value is a monotone logical
            // timestamp; no other memory is published through this load.
            self.now.load(Ordering::Relaxed)
        } else {
            // Relaxed fetch_add: each reader gets a unique monotone stamp;
            // ordering with unrelated memory is irrelevant.
            self.now.fetch_add(self.tick, Ordering::Relaxed)
        }
    }

    /// Moves the clock forward by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        // Relaxed: monotone logical time, no cross-thread data guarded.
        self.now.fetch_add(delta_ns, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute time (must not move backwards for the
    /// reports to stay meaningful; this is not checked).
    pub fn set(&self, now_ns: u64) {
        // Relaxed: see `advance`.
        self.now.store(now_ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_regresses() {
        let c = Clock::monotonic();
        let mut prev = c.now_ns();
        for _ in 0..100 {
            let t = c.now_ns();
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let c = Clock::virtual_manual();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.as_virtual().unwrap().advance(250);
        assert_eq!(c.now_ns(), 250);
        c.as_virtual().unwrap().set(1_000);
        assert_eq!(c.now_ns(), 1_000);
    }

    #[test]
    fn ticking_clock_is_deterministic() {
        let c = Clock::virtual_with_tick(7);
        let reads: Vec<u64> = (0..5).map(|_| c.now_ns()).collect();
        assert_eq!(reads, vec![0, 7, 14, 21, 28]);
    }

    #[test]
    fn clones_share_the_virtual_clock() {
        let c = Clock::virtual_manual();
        let d = c.clone();
        c.as_virtual().unwrap().advance(5);
        assert_eq!(d.now_ns(), 5);
    }
}
