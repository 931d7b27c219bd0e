//! Seeded open-loop arrival traces for serving benchmarks and tests.
//!
//! Both generators are pure functions of their seed (via `tensor::rng`'s
//! xoshiro stream), so a trace replayed through a `VirtualClock`-backed
//! [`crate::ServerCore`] exercises identical admission, degradation, and
//! breaker decisions every run.

use salient_graph::NodeId;
use salient_tensor::rng::{Rng, StdRng};

/// One query arrival in an open-loop trace. The request's absolute
/// deadline is `at_ns + budget_ns`.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Arrival instant on the serving clock (ns).
    pub at_ns: u64,
    /// Node queried.
    pub node: NodeId,
    /// Latency budget granted by the caller (ns).
    pub budget_ns: u64,
}

/// Draws an exponential inter-arrival gap (ns) for `rate_per_sec`.
fn exp_gap_ns(rng: &mut StdRng, rate_per_sec: f64) -> u64 {
    // Inverse-CDF sampling; 1 - U avoids ln(0).
    let u: f64 = rng.random();
    let gap_s = -(1.0 - u).ln() / rate_per_sec;
    (gap_s * 1e9) as u64
}

/// A Poisson arrival process at `rate_per_sec`, over `duration_ns`, with
/// nodes drawn uniformly from `[0, num_nodes)` and a fixed per-request
/// budget. Deterministic in `seed`.
pub fn poisson_trace(
    seed: u64,
    rate_per_sec: f64,
    duration_ns: u64,
    num_nodes: usize,
    budget_ns: u64,
) -> Vec<Arrival> {
    assert!(rate_per_sec > 0.0 && num_nodes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0u64;
    loop {
        t = t.saturating_add(exp_gap_ns(&mut rng, rate_per_sec));
        if t >= duration_ns {
            return out;
        }
        out.push(Arrival {
            at_ns: t,
            node: rng.random_range(0..num_nodes) as NodeId,
            budget_ns,
        });
    }
}

/// A bursty trace alternating `calm_rate` and `burst_rate` Poisson phases
/// of `phase_ns` each (calm first), over `duration_ns`. This is the shape
/// that exercises the degradation ladder: bursts build queue pressure,
/// calm phases let hysteresis restore fidelity. Deterministic in `seed`.
pub fn bursty_trace(
    seed: u64,
    calm_rate: f64,
    burst_rate: f64,
    phase_ns: u64,
    duration_ns: u64,
    num_nodes: usize,
    budget_ns: u64,
) -> Vec<Arrival> {
    assert!(calm_rate > 0.0 && burst_rate > 0.0 && phase_ns > 0 && num_nodes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0u64;
    loop {
        let phase = (t / phase_ns) % 2;
        let rate = if phase == 0 { calm_rate } else { burst_rate };
        t = t.saturating_add(exp_gap_ns(&mut rng, rate));
        if t >= duration_ns {
            return out;
        }
        out.push(Arrival {
            at_ns: t,
            node: rng.random_range(0..num_nodes) as NodeId,
            budget_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_ordered() {
        let a = poisson_trace(7, 1000.0, 50_000_000, 100, 1_000_000);
        let b = poisson_trace(7, 1000.0, 50_000_000, 100, 1_000_000);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ns, y.at_ns);
            assert_eq!(x.node, y.node);
        }
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.iter().all(|x| (x.node as usize) < 100));
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        // 2000 req/s over 1 virtual second ⇒ ~2000 arrivals.
        let a = poisson_trace(11, 2000.0, 1_000_000_000, 10, 1_000_000);
        assert!(
            (1700..2300).contains(&a.len()),
            "got {} arrivals for rate 2000/s",
            a.len()
        );
    }

    #[test]
    fn bursty_phases_differ_in_density() {
        let a = bursty_trace(3, 200.0, 5000.0, 100_000_000, 400_000_000, 50, 2_000_000);
        let calm = a
            .iter()
            .filter(|x| (x.at_ns / 100_000_000) % 2 == 0)
            .count();
        let burst = a.len() - calm;
        assert!(
            burst > calm * 5,
            "burst phases should dominate: calm={calm} burst={burst}"
        );
    }
}
