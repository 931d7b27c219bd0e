//! The fixed environment every run is measured in, and the host-side
//! readings (`/proc`) that go with a result.
//!
//! All time is read through [`Clock::monotonic`]; nothing here sleeps.

use salient_repro::graph::{Dataset, DatasetConfig};
use salient_repro::tensor::Dtype;
use salient_repro::trace::Clock;

/// Default `--seed`. `HELD_OUT_SEED` is the documented second seed: never
/// used while tuning a change, only to confirm it afterwards.
pub const DEFAULT_SEED: u64 = 0xB34;
pub const HELD_OUT_SEED: u64 = 0x5A11E27;

/// Environment knobs of the program under test that must not leak into a
/// run: dtype is pinned in the config, faults and smoke shrinking are off.
const CLEARED_ENV: &[&str] = &[
    "SALIENT_DTYPE",
    "SALIENT_GEMM_KERNEL",
    "SALIENT_BENCH_SMOKE",
    "SALIENT_FAULT_SEED",
    "SALIENT_FAULT_SPEC",
];

/// Pins the process environment. Must run before the first kernel call:
/// the pool is sized once per process from `SALIENT_NUM_THREADS`.
///
/// The pool is pinned to one thread because the box has two cores and
/// every workload keeps at most two threads runnable (trainer or consumer
/// plus one prep worker). Sizing runs with the
/// pool at 2 were no faster and spent up to 33 s in the kernel per epoch.
pub fn pin_env() {
    std::env::set_var("SALIENT_NUM_THREADS", "1");
    for k in CLEARED_ENV {
        std::env::remove_var(k);
    }
}

/// Seconds between two clock reads.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

/// Nanoseconds on the one clock the benchmark uses.
pub fn now_ns() -> u64 {
    Clock::monotonic().now_ns()
}

/// Nodes of every dataset's train split (8 batches of 256).
pub const TRAIN_NODES: usize = 2_048;

/// The products-like generator at `nodes` nodes and 100 features, f16 rows,
/// a 2 048-node train split and 70 % of the nodes as test split. The whole
/// dataset (graph, features, labels, splits) is a function of `seed`.
pub fn build_dataset(seed: u64, nodes: usize) -> Dataset {
    DatasetConfig {
        name: format!("G{}k", nodes / 1000),
        num_nodes: nodes,
        feat_dim: 100,
        split_fracs: (TRAIN_NODES as f64 / nodes as f64, 0.016, 0.70),
        seed,
        dtype: Dtype::F16,
        ..DatasetConfig::products_sim(1.0)
    }
    .build()
}

fn proc_field(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// `(user, system)` CPU seconds of this process so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz ticks).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    let user = tick();
    (user, tick())
}

/// The machine's reported parallelism, recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
