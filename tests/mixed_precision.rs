//! Mixed-precision integration tier: the f16 feature-storage path end to
//! end — byte-traffic halving through the `transfer.bytes` trace counter,
//! and training parity between f16 and f32 feature stores. The accuracy of
//! the half-input GEMM hop 0 runs (an f16 operand through `gemm_acc`)
//! against its documented bound is a `salient-tensor` unit test
//! (`kernels::tests::half_gemm_within_documented_bound`).

use salient_repro::core::{ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::DatasetConfig;
use salient_repro::tensor::Dtype;
use salient_repro::trace::{names, Clock, Trace};
use std::sync::Arc;

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
