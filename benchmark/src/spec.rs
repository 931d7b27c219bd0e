//! Names and units of every metric a run reports, in the order they print.
//! `BENCHMARK.json` at the repo root lists the same names with the same
//! units (plus direction and bound); `manifest::check` holds the two together.

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("seeds_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. The
/// crate name is the layer.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("graph.build_s", "s"),
    ("graph.slice_gbps", "GB/s"),
    ("graph.widen_gbps", "GB/s"),
    ("graph.time_share", "share"),
    ("sampler.sample_ms_p50", "ms"),
    ("sampler.sample_ms_p90", "ms"),
    ("sampler.edges_per_s", "1/s"),
    ("sampler.mfg_nodes_per_seed", "count"),
    ("sampler.mfg_edges_per_seed", "count"),
    ("sampler.time_share", "share"),
    ("batchprep.slice_ms_p50", "ms"),
    ("batchprep.slot_cycle_us_p50", "us"),
    ("batchprep.stream_batches_per_s", "1/s"),
    ("batchprep.worker_scaling", "ratio"),
    ("batchprep.failed_batches", "count"),
    ("batchprep.time_share", "share"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_gflops_ceiling", "GFLOP/s"),
    ("tensor.scatter_mean_medges_per_s", "Medges/s"),
    ("tensor.backward_ms_p50", "ms"),
    ("tensor.optim_step_ms_p50", "ms"),
    ("tensor.time_share", "share"),
    ("host.stream_copy_gbps", "GB/s"),
    ("nn.forward_ms_p50", "ms"),
    ("nn.forward_eval_ms_p50", "ms"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("nn.forward_frac_of_ceiling", "ratio"),
    ("nn.time_share", "share"),
    ("pipeline.item_overhead_us", "us"),
    ("pipeline.overlap_gain", "ratio"),
    ("core.pass_s_p50", "s"),
    ("core.pass_s_spread", "ratio"),
    ("core.reconcile_pct", "pct"),
    ("serve.capacity_closed_rps", "1/s"),
    ("serve.submit_ns_p50", "ns"),
    ("serve.step_us_p50", "us"),
    ("trace.enabled_overhead_pct", "pct"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.cpu_per_wall", "ratio"),
];
