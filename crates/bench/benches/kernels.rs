//! The CPU kernel layer benchmark: blocked parallel GEMM (f32 and
//! fp32-accumulate half-input) vs the seed's naive triple loop at GNN-typical
//! shapes and at the products a `train_compute` batch runs (`gemm_model`),
//! fused CSR gather/scatter throughput with a bytes-moved column, and
//! the mixed-precision slice+transfer path (f16 vs f32 feature staging, byte
//! traffic accounted through the `transfer.bytes` trace counter). Emits
//! `target/bench_kernels.json` under the workspace root.
//!
//! The kernel thread pool is sized once per process (`SALIENT_NUM_THREADS`),
//! so single-thread numbers come from re-running this binary as a child
//! process with that variable pinned to 1; the child prints `key=value`
//! lines the parent folds into the JSON report.
//!
//! Two in-bench assertions back the mixed-precision acceptance criteria:
//!
//! * half GEMM agrees with the fp32 reference elementwise within the
//!   documented bound `2.5 * 2^-11 * (|A|·|B|)` (see `DESIGN.md`,
//!   precision policy) at every shape;
//! * the f16 slice + hand-over path moves at most 55% of the f32 path's
//!   bytes, measured through `names::counters::TRANSFER_BYTES`.
//!
//! `SALIENT_BENCH_SMOKE=1` shrinks the measurement batches (see
//! `harness::bench`) so `scripts/ci.sh` can run the whole file — assertions
//! included — as its mixed-precision tier without the full-bench runtime.

use salient_bench::harness::{bench, write_json, Json, Sample};
use salient_batchprep::PinnedPool;
use salient_graph::FeatureMatrix;
use salient_tensor::rng::{Rng, StdRng};
use salient_tensor::{gemm, gemm_f16, gemm_naive, kernels, pool, quantize, Dtype, Tape, Tensor, F16};
use salient_trace::{names, Clock, Trace};
use std::collections::HashMap;
use std::rc::Rc;

/// GNN-typical GEMM shapes: (batch-of-nodes × feature-dim) @ (dim × hidden).
/// 602 is the padded papers100M-style feature width the issue pins the
/// acceptance threshold to; 100 is the ogbn-products feature width.
const SHAPES: [(usize, usize, usize); 3] = [(1024, 602, 256), (1024, 256, 256), (1024, 100, 47)];

/// The products one `train_compute` batch runs (G100k, fanouts 15,10,5,
/// hidden 128, 47 classes), as `(m, k, n, ta, tb)` of `op(a)·op(b)`: hop 0's
/// forward product and its `dW = x_tᵀ·g`, hop 1's forward, `dW` and
/// `dX = g·Wᵀ`, and the class layer. Tall and skinny, where the three shapes
/// above are square-ish: the ceiling to quote for a layer is the row of the
/// shape that layer runs.
const MODEL_SHAPES: [(usize, usize, usize, bool, bool); 6] = [
    (22_285, 100, 128, false, false),
    (100, 22_285, 128, true, false),
    (3_400, 128, 128, false, false),
    (128, 3_400, 128, true, false),
    (3_400, 128, 128, false, true),
    (256, 128, 47, false, false),
];

fn model_key(m: usize, k: usize, n: usize, ta: bool, tb: bool) -> String {
    format!("{}{}", shape_key(m, k, n), match (ta, tb) {
        (false, false) => "",
        (true, false) => "_ta",
        (false, true) => "_tb",
        (true, true) => "_ta_tb",
    })
}

/// Median seconds of each model product on this process's pool.
fn model_samples(label_prefix: &str) -> Vec<(String, f64, Sample)> {
    let mut rng = StdRng::seed_from_u64(43);
    MODEL_SHAPES
        .iter()
        .map(|&(m, k, n, ta, tb)| {
            let a = if ta { rand_tensor(k, m, &mut rng) } else { rand_tensor(m, k, &mut rng) };
            let b = if tb { rand_tensor(n, k, &mut rng) } else { rand_tensor(k, n, &mut rng) };
            let key = model_key(m, k, n, ta, tb);
            let sample = bench(&format!("{label_prefix} model {key}"), || gemm(&a, &b, ta, tb));
            (key, (2 * m * k * n) as f64, sample)
        })
        .collect()
}

/// Documented elementwise error bound for half-input GEMM, relative to the
/// magnitude matrix |A|·|B|: each operand carries at most one half-precision
/// rounding (relative error ≤ 2⁻¹¹), the product at most doubles it, and the
/// extra 0.5·2⁻¹¹ of headroom covers fp32 accumulation-order differences.
const HALF_GEMM_REL_BOUND: f32 = 2.5 * (1.0 / 2048.0);

fn rand_tensor(r: usize, c: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(
        (0..r * c).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
        [r, c],
    )
}

fn shape_key(m: usize, k: usize, n: usize) -> String {
    format!("{m}x{k}x{n}")
}

/// The bench inputs for every shape: fp32 operands plus their RTNE-quantized
/// half copies. Deterministic (fixed seed, fixed draw order) so the child
/// process and the parent's accuracy check see identical matrices.
fn shape_inputs() -> Vec<(String, Tensor, Tensor, Vec<F16>, Vec<F16>)> {
    let mut rng = StdRng::seed_from_u64(42);
    SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let a = rand_tensor(m, k, &mut rng);
            let b = rand_tensor(k, n, &mut rng);
            let ah = quantize(a.data());
            let bh = quantize(b.data());
            (shape_key(m, k, n), a, b, ah, bh)
        })
        .collect()
}

struct GemmSamples {
    key: String,
    naive: Sample,
    blocked: Sample,
    half: Sample,
}

fn gemm_samples(label_prefix: &str, naive_too: bool) -> Vec<GemmSamples> {
    let mut out = Vec::new();
    for (key, a, b, ah, bh) in shape_inputs() {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let blocked = bench(&format!("{label_prefix} blocked {key}"), || {
            gemm(&a, &b, false, false)
        });
        let half = bench(&format!("{label_prefix} half {key}"), || {
            gemm_f16(&ah, m, k, &bh, k, n, false, false)
        });
        let naive = if naive_too {
            bench(&format!("{label_prefix} naive {key}"), || {
                gemm_naive(&a, &b, false, false)
            })
        } else {
            blocked.clone()
        };
        out.push(GemmSamples { key, naive, blocked, half });
    }
    out
}

/// Child mode: measure with whatever thread count the env pinned (the parent
/// sets SALIENT_NUM_THREADS=1) and print machine-readable lines.
fn run_child() {
    for s in gemm_samples("1t", true) {
        let key = &s.key;
        println!("naive_{key}={}", s.naive.p50_s);
        println!("blocked_{key}={}", s.blocked.p50_s);
        println!("half_{key}={}", s.half.p50_s);
    }
    for (key, _, s) in model_samples("1t") {
        println!("model_{key}={}", s.p50_s);
    }
}

/// Checks the half GEMM against the fp32 reference at every bench shape and
/// returns the max observed error as a fraction of the documented bound
/// (so anything < 1.0 passes with that much headroom).
fn half_gemm_accuracy() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (key, a, b, ah, bh) in shape_inputs() {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let full = gemm(&a, &b, false, false);
        let half = gemm_f16(&ah, m, k, &bh, k, n, false, false);
        let abs_a = Tensor::from_vec(a.data().iter().map(|v| v.abs()).collect(), [m, k]);
        let abs_b = Tensor::from_vec(b.data().iter().map(|v| v.abs()).collect(), [k, n]);
        let mag = gemm(&abs_a, &abs_b, false, false);
        let mut worst = 0.0f64;
        for ((h, f), g) in half.data().iter().zip(full.data()).zip(mag.data()) {
            let err = (h - f).abs();
            let bound = HALF_GEMM_REL_BOUND * g + 1e-6;
            assert!(
                err <= bound,
                "half GEMM {key} outside documented bound: |{h} - {f}| = {err} > {bound}"
            );
            worst = worst.max((err / bound) as f64);
        }
        out.push((key, worst));
    }
    out
}

fn aggregation_section() -> Json {
    let mut rng = StdRng::seed_from_u64(7);
    let n_src = 100_000usize;
    let n_dst = 25_000usize;
    let cols = 100usize;
    let n_edges = 500_000usize;
    let x: Vec<f32> = (0..n_src * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    let xh = quantize(&x);
    let idx: Vec<u32> = (0..n_edges).map(|_| rng.random_range(0..n_src as u32)).collect();
    let src = idx.clone();
    let dst: Vec<u32> = (0..n_edges).map(|_| rng.random_range(0..n_dst as u32)).collect();
    let f32b = std::mem::size_of::<f32>();
    let f16b = std::mem::size_of::<F16>();

    let gather = bench("gather_rows_forward", || {
        kernels::gather_rows_forward(&x, cols, &idx)
    });
    let gather_f16 = bench("gather_rows_forward_f16", || {
        kernels::gather_rows_forward_f16(&xh, cols, &idx)
    });
    let n_bwd = n_edges.min(n_src);
    let gather_bwd = bench("gather_rows_backward", || {
        kernels::gather_rows_backward(&x[..n_bwd * cols], cols, &idx[..n_bwd], n_src)
    });
    let scatter_sum = bench("scatter_sum_forward", || {
        kernels::scatter_reduce_forward(&x, cols, &src, &dst, n_dst, false)
    });
    let scatter_mean = bench("scatter_mean_forward", || {
        kernels::scatter_reduce_forward(&x, cols, &src, &dst, n_dst, true)
    });

    // `rows_per_s` counts *output* rows (what earlier reports tracked — for
    // scatter that is n_dst, a much smaller number than the per-edge work);
    // `edges_per_s` counts source rows touched, the like-for-like throughput
    // unit across gather and scatter. `bytes_moved` is payload read +
    // payload written per iteration.
    let entry = |s: &Sample, rows: f64, edges: f64, bytes: f64| {
        Json::Obj(vec![
            ("name".into(), Json::Str(s.name.clone())),
            ("cols".into(), Json::Num(cols as f64)),
            ("median_s".into(), Json::Num(s.p50_s)),
            ("rows_per_s".into(), Json::Num(rows / s.p50_s)),
            ("edges_per_s".into(), Json::Num(edges / s.p50_s)),
            ("bytes_moved".into(), Json::Num(bytes)),
            ("gb_per_s".into(), Json::Num(bytes / s.p50_s / 1e9)),
        ])
    };
    let e = n_edges as f64;
    let gather_bytes = |src_elem: usize| (n_edges * cols * (src_elem + f32b)) as f64;
    Json::Arr(vec![
        entry(&gather, e, e, gather_bytes(f32b)),
        entry(&gather_f16, e, e, gather_bytes(f16b)),
        entry(
            &gather_bwd,
            n_src as f64,
            n_bwd as f64,
            ((n_bwd + n_src) * cols * f32b) as f64,
        ),
        entry(
            &scatter_sum,
            n_dst as f64,
            e,
            ((n_edges + n_dst) * cols * f32b) as f64,
        ),
        entry(
            &scatter_mean,
            n_dst as f64,
            e,
            ((n_edges + n_dst) * cols * f32b) as f64,
        ),
    ])
}

/// The trainer-facing hot path: slice feature rows out of the store into a
/// pinned slot at the store's dtype, then hand the slot to a tape as the
/// constant its first layer reads (the stand-in for the host→device
/// transfer: the payload is counted, no byte is copied or widened) and let
/// the tape's drop send it home. Byte traffic goes through the same
/// `transfer.bytes` counter the trainer uses, so the ≤ 55% acceptance check
/// is made against trace evidence.
fn slice_transfer_section() -> Json {
    let mut rng = StdRng::seed_from_u64(11);
    let num_nodes = 100_000usize;
    let dim = 100usize;
    let batch_rows = 50_000usize;
    let raw: Vec<f32> = (0..num_nodes * dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    let ids: Vec<u32> = (0..batch_rows).map(|_| rng.random_range(0..num_nodes as u32)).collect();

    let measure = |dtype: Dtype| -> (Sample, f64) {
        let store = FeatureMatrix::from_f32_dtype(dtype, num_nodes, dim, &raw);
        let pool = PinnedPool::new(1, batch_rows, dim, 0, dtype);
        let trace = Trace::new(Clock::monotonic());
        let transfer_bytes = trace.counter(names::counters::TRANSFER_BYTES);
        let mut calls = 0u64;
        let sample = bench(&format!("slice_handover_{dtype}"), || {
            let mut slot = pool.acquire();
            slot.prepare(batch_rows, dim, 0);
            store.slice_into(&ids, slot.features_mut());
            transfer_bytes.add(slot.payload_bytes() as u64);
            calls += 1;
            Tape::no_grad().constant_rows(Rc::new(slot), dim).shape().rows()
        });
        assert_eq!(pool.available(), 1, "{dtype}: a dropped tape must send its slot home");
        let total = trace.snapshot().metrics.counter(names::counters::TRANSFER_BYTES);
        (sample, total as f64 / calls as f64)
    };

    let (f32_sample, f32_bytes) = measure(Dtype::F32);
    let (f16_sample, f16_bytes) = measure(Dtype::F16);
    let frac = f16_bytes / f32_bytes;
    assert!(
        frac <= 0.55,
        "f16 slice + hand-over must move <= 55% of the f32 path's bytes, got {frac:.3} \
         ({f16_bytes} vs {f32_bytes})"
    );
    let speedup = f32_sample.p50_s / f16_sample.p50_s;
    println!(
        "slice + hand-over {batch_rows}x{dim}: f16 moves {:.1}% of f32 bytes, {speedup:.2}x faster",
        frac * 100.0
    );

    let entry = |s: &Sample, bytes: f64| {
        Json::Obj(vec![
            ("name".into(), Json::Str(s.name.clone())),
            ("rows".into(), Json::Num(batch_rows as f64)),
            ("dim".into(), Json::Num(dim as f64)),
            ("median_s".into(), Json::Num(s.p50_s)),
            ("bytes_moved".into(), Json::Num(bytes)),
            ("gb_per_s".into(), Json::Num(bytes / s.p50_s / 1e9)),
        ])
    };
    Json::Obj(vec![
        ("paths".into(), Json::Arr(vec![entry(&f32_sample, f32_bytes), entry(&f16_sample, f16_bytes)])),
        ("f16_bytes_frac".into(), Json::Num(frac)),
        ("f16_speedup_vs_f32".into(), Json::Num(speedup)),
    ])
}

fn main() {
    if std::env::args().any(|a| a == "--single-thread") {
        run_child();
        return;
    }

    // Single-thread child run (blocked + half kernels with the pool pinned to
    // one thread, plus the naive reference, which is serial regardless).
    let exe = std::env::current_exe().expect("current exe");
    let child = std::process::Command::new(exe)
        .arg("--single-thread")
        .env("SALIENT_NUM_THREADS", "1")
        .output()
        .expect("single-thread child run failed");
    assert!(child.status.success(), "child bench failed");
    let mut single: HashMap<String, f64> = HashMap::new();
    for line in String::from_utf8_lossy(&child.stdout).lines() {
        if let Some((k, v)) = line.split_once('=') {
            if let Ok(v) = v.parse::<f64>() {
                single.insert(k.to_string(), v);
            }
        }
    }

    // Accuracy gate before any timing is reported: the half GEMM must sit
    // inside the documented bound at every shape.
    let accuracy = half_gemm_accuracy();

    // Parallel run in this process (pool at its configured width).
    let parallel = gemm_samples("par", false);

    let mut gemm_entries = Vec::new();
    for (gs, (acc_key, err_frac)) in parallel.iter().zip(&accuracy) {
        let key = &gs.key;
        assert_eq!(key, acc_key);
        let (m, k, n) = {
            let dims: Vec<usize> = key.split('x').map(|d| d.parse().unwrap()).collect();
            (dims[0], dims[1], dims[2])
        };
        let flops = (2 * m * k * n) as f64;
        let naive_s = single[&format!("naive_{key}")];
        let blocked_1t_s = single[&format!("blocked_{key}")];
        let half_1t_s = single[&format!("half_{key}")];
        let gflops = |s: f64| flops / s / 1e9;
        println!(
            "gemm {key}: naive {:.2} GFLOP/s | blocked 1T {:.2} GFLOP/s ({:.2}x) | half 1T {:.2} GFLOP/s | blocked {}T {:.2} GFLOP/s ({:.2}x)",
            gflops(naive_s),
            gflops(blocked_1t_s),
            naive_s / blocked_1t_s,
            gflops(half_1t_s),
            pool::num_threads(),
            gflops(gs.blocked.p50_s),
            naive_s / gs.blocked.p50_s,
        );
        // Bytes a GEMM reads for its operands: half inputs move half of A+B.
        let operand_bytes = |elem: usize| ((m * k + k * n) * elem) as f64;
        gemm_entries.push(Json::Obj(vec![
            ("shape".into(), Json::Str(key.clone())),
            ("flops_per_iter".into(), Json::Num(flops)),
            ("naive_1t_gflops".into(), Json::Num(gflops(naive_s))),
            ("blocked_1t_gflops".into(), Json::Num(gflops(blocked_1t_s))),
            ("half_1t_gflops".into(), Json::Num(gflops(half_1t_s))),
            ("blocked_parallel_gflops".into(), Json::Num(gflops(gs.blocked.p50_s))),
            ("half_parallel_gflops".into(), Json::Num(gflops(gs.half.p50_s))),
            ("speedup_1t_vs_naive".into(), Json::Num(naive_s / blocked_1t_s)),
            ("speedup_parallel_vs_naive".into(), Json::Num(naive_s / gs.blocked.p50_s)),
            ("operand_bytes_f32".into(), Json::Num(operand_bytes(4))),
            ("operand_bytes_f16".into(), Json::Num(operand_bytes(2))),
            ("half_err_frac_of_bound".into(), Json::Num(*err_frac)),
        ]));
    }

    let model_entries = model_samples("par")
        .into_iter()
        .map(|(key, flops, par)| {
            let one = single[&format!("model_{key}")];
            println!(
                "gemm {key}: 1T {:.2} GFLOP/s | {}T {:.2} GFLOP/s",
                flops / one / 1e9,
                pool::num_threads(),
                flops / par.p50_s / 1e9,
            );
            Json::Obj(vec![
                ("shape".into(), Json::Str(key)),
                ("flops_per_iter".into(), Json::Num(flops)),
                ("blocked_1t_gflops".into(), Json::Num(flops / one / 1e9)),
                ("blocked_parallel_gflops".into(), Json::Num(flops / par.p50_s / 1e9)),
            ])
        })
        .collect();

    let slice_transfer = slice_transfer_section();

    let doc = Json::Obj(vec![
        (
            "config".into(),
            Json::Obj(vec![
                ("threads".into(), Json::Num(pool::num_threads() as f64)),
                ("kernel".into(), Json::Str(kernels::gemm_kernel_level().into())),
                (
                    "half_gemm_rel_bound".into(),
                    Json::Num(HALF_GEMM_REL_BOUND as f64),
                ),
                ("note".into(), Json::Str(
                    "median-of-20-batches timings (5 under SALIENT_BENCH_SMOKE); 1t = SALIENT_NUM_THREADS=1 child run; \
                     half = f16 operands with fp32 accumulation; bytes_moved = payload read + written per iteration; \
                     half_err_frac_of_bound = worst |half-f32| elementwise error as a fraction of 2.5*2^-11*(|A|.|B|)".into(),
                )),
            ]),
        ),
        ("gemm".into(), Json::Arr(gemm_entries)),
        ("gemm_model".into(), Json::Arr(model_entries)),
        ("aggregation".into(), aggregation_section()),
        ("slice_transfer".into(), slice_transfer),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench_kernels.json");
    write_json(path, &doc).expect("write bench_kernels.json");
    println!("wrote {path}");
}
