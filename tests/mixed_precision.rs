//! Mixed-precision integration tier: the f16 feature-storage path end to
//! end — half-input GEMM accuracy against the documented bound, byte-traffic
//! halving through the `transfer.bytes` trace counter, and training parity
//! between f16 and f32 feature stores.
//!
//! The documented bound (see `DESIGN.md`, precision policy): with both
//! operands RTNE-quantized to binary16 and all accumulation in fp32,
//! `|C_half − C_fp32| ≤ 2.5 · 2⁻¹¹ · (|A|·|B|)` elementwise.

use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::tensor::rng::{Rng, StdRng};
use salient_repro::tensor::{gemm, gemm_f16, quantize, Dtype, Tensor};
use salient_repro::trace::{names, Clock, Trace};
use std::sync::Arc;

const HALF_GEMM_REL_BOUND: f32 = 2.5 * (1.0 / 2048.0);

fn rand_tensor(r: usize, c: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(
        (0..r * c).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
        [r, c],
    )
}

/// Half GEMM sits inside the documented elementwise bound at the bench
/// feature widths (m/n shrunk so the test stays fast unoptimized; the
/// full-size check runs in release as part of the kernel bench, which
/// asserts the same bound at its own full shapes).
#[test]
fn half_gemm_within_documented_bound() {
    let mut rng = StdRng::seed_from_u64(42);
    for (m, k, n) in [(192, 602, 64), (128, 256, 96), (256, 100, 47)] {
        let a = rand_tensor(m, k, &mut rng);
        let b = rand_tensor(k, n, &mut rng);
        let full = gemm(&a, &b, false, false);
        let half = gemm_f16(&quantize(a.data()), m, k, &quantize(b.data()), k, n, false, false);
        let abs_a = Tensor::from_vec(a.data().iter().map(|v| v.abs()).collect(), [m, k]);
        let abs_b = Tensor::from_vec(b.data().iter().map(|v| v.abs()).collect(), [k, n]);
        let mag = gemm(&abs_a, &abs_b, false, false);
        for ((h, f), g) in half.data().iter().zip(full.data()).zip(mag.data()) {
            let err = (h - f).abs();
            let bound = HALF_GEMM_REL_BOUND * g + 1e-6;
            assert!(
                err <= bound,
                "{m}x{k}x{n}: |{h} - {f}| = {err} > {bound}"
            );
        }
    }
}

/// Runs a short SALIENT-executor training job with the feature store at
/// `dtype` and returns (transfer.bytes, final mean loss).
fn train_at(dtype: Dtype) -> (u64, f64) {
    let mut cfg = DatasetConfig::tiny(5);
    cfg.dtype = dtype;
    let dataset = Arc::new(cfg.build());
    assert_eq!(dataset.features.dtype(), dtype);
    let run = RunConfig {
        executor: ExecutorKind::Salient,
        epochs: 2,
        num_workers: 1,
        ..RunConfig::test_tiny()
    };
    let trace = Trace::new(Clock::virtual_with_tick(1_000));
    let mut trainer = Trainer::with_trace(Arc::clone(&dataset), run, trace.clone());
    let mut last_loss = f64::NAN;
    let mut batches = 0u64;
    for stats in trainer.fit() {
        last_loss = stats.mean_loss;
        batches += stats.batches as u64;
    }
    assert!(batches > 0, "{dtype}: training must consume batches");
    assert!(last_loss.is_finite(), "{dtype}: loss must stay finite");
    let bytes = trace.snapshot().metrics.counter(names::counters::TRANSFER_BYTES);
    assert!(bytes > 0, "{dtype}: trainer must record transfer bytes");
    (bytes, last_loss)
}

/// The f16 store's transfer traffic is at most 55% of the f32 store's
/// (features halve exactly; u32 labels are the fixed overhead), measured by
/// the same `transfer.bytes` counter the epoch report prints — and training
/// works at both dtypes.
#[test]
fn f16_store_halves_transfer_bytes_and_trains() {
    let (f32_bytes, f32_loss) = train_at(Dtype::F32);
    let (f16_bytes, f16_loss) = train_at(Dtype::F16);
    let frac = f16_bytes as f64 / f32_bytes as f64;
    assert!(
        frac <= 0.55,
        "f16 transfer bytes must be <= 55% of f32: {f16_bytes} / {f32_bytes} = {frac:.3}"
    );
    // Same data, same schedule: half-precision features perturb the loss,
    // they must not derail it.
    assert!(
        (f16_loss - f32_loss).abs() < 0.25,
        "f16 loss {f16_loss} drifted from f32 loss {f32_loss}"
    );
}

/// `Dtype::parse` accepts both spellings case-insensitively and rejects
/// anything else; what the `salient` binary does with a rejected
/// `SALIENT_DTYPE` is `tests/cli.rs`.
#[test]
fn dtype_parse_round_trips() {
    assert_eq!(Dtype::parse("f16"), Some(Dtype::F16));
    assert_eq!(Dtype::parse("F32"), Some(Dtype::F32));
    assert_eq!(Dtype::parse("half"), Some(Dtype::F16));
    assert_eq!(Dtype::parse("float32"), Some(Dtype::F32));
    assert_eq!(Dtype::parse("f64"), None);
    assert_eq!(Dtype::F16.size_of(), 2);
    assert_eq!(Dtype::F32.size_of(), 4);
}
