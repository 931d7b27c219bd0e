//! Microbenchmarks of batch preparation: serial slicing into pinned memory,
//! the multiprocessing extra-copy penalty, lock-free dynamic queue vs static
//! partitioning under contention, and the pinned-pool recycle path.

use salient_bench::harness::{bench, report};
use salient_batchprep::{make_work_items, slice_batch, PinnedPool, WorkQueue};
use salient_graph::{Dataset, DatasetConfig, FeatureSlab};
use salient_sampler::FastSampler;
use salient_tensor::Dtype;

fn dataset() -> Dataset {
    DatasetConfig::products_sim(0.15).build()
}

fn bench_slicing(ds: &Dataset) {
    let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..256], &[15, 10, 5]);
    let dim = ds.features.dim();

    let dtype = ds.features.dtype();

    // SALIENT: serial slice straight into the staging buffer.
    let mut staged = FeatureSlab::new(dtype, mfg.num_nodes() * dim);
    let mut labels = vec![0u32; mfg.batch_size()];
    let zero_copy = bench("zero_copy_serial", || {
        slice_batch(ds, &mfg, staged.rows_mut(), &mut labels);
        staged.len()
    });

    // Multiprocessing emulation: slice to private memory, then copy.
    let mut staged2 = FeatureSlab::new(dtype, mfg.num_nodes() * dim);
    let mut labels2 = vec![0u32; mfg.batch_size()];
    let mut private = FeatureSlab::new(dtype, mfg.num_nodes() * dim);
    let with_copy = bench("slice_plus_shm_copy", || {
        slice_batch(ds, &mfg, private.rows_mut(), &mut labels2);
        staged2.rows_mut().copy_from(private.rows());
        staged2.len()
    });
    let bytes = (mfg.num_nodes() * dim * dtype.size_of()) as f64;
    println!(
        "  zero_copy {:.2} GB/s vs copy {:.2} GB/s",
        zero_copy.per_second(bytes) / 1e9,
        with_copy.per_second(bytes) / 1e9
    );
    report("slicing", &[zero_copy, with_copy]);
}

fn bench_queues() {
    let items = make_work_items(100_000, 8);
    let dynamic = bench("dynamic_lockfree_drain", || {
        let q = WorkQueue::new(items.clone(), 1);
        let mut n = 0usize;
        while let Some(item) = q.next(0) {
            n += item.end - item.start;
        }
        n
    });
    let fixed = bench("static_partition_drain", || {
        let q = WorkQueue::new(items.clone(), 4);
        let mut n = 0usize;
        for w in 0..4 {
            while let Some(item) = q.next(w) {
                n += item.end - item.start;
            }
        }
        n
    });
    report("work_queue", &[dynamic, fixed]);
}

fn bench_pinned_pool() {
    let pool = PinnedPool::new(4, 4096, 32, 256, Dtype::F16);
    let s = bench("acquire_prepare_release", || {
        let mut slot = pool.acquire();
        slot.prepare(2048, 32, 128);
        slot.payload_bytes()
    });
    report("pinned_pool", &[s]);
}

fn main() {
    let ds = dataset();
    bench_slicing(&ds);
    bench_queues();
    bench_pinned_pool();
}
