//! A std-only work-sharing thread pool for the CPU kernel layer.
//!
//! One process-wide pool (lazily created, reused across calls) executes
//! data-parallel kernels: a job is a closure over a chunk index, and workers
//! pull chunk indices from a shared atomic counter until the range is
//! exhausted. This is the classic "self-scheduling" loop — the same dynamic
//! load balancing SALIENT's batch-prep queue uses (§4.2), applied at the
//! kernel level — so an unlucky chunk (e.g. a high-degree destination range
//! in a scatter) does not stall the other workers.
//!
//! Sizing: `SALIENT_NUM_THREADS` if set, else
//! `std::thread::available_parallelism()`. A size of 1 runs every job inline
//! on the caller with zero synchronization, which — together with kernels
//! that partition *output* rows disjointly — makes 1-thread and N-thread
//! results bitwise identical.
//!
//! One job at a time: a submitter claims the pool by setting its `busy`
//! flag. A submission that finds the flag taken — a second thread's, or a
//! chunk's own nested `parallel_for` — runs its chunks inline on the caller,
//! the loop a one-thread pool runs. Chunks are cut by the pool's width, not
//! by who runs them, so the results are the same bits either way, and no
//! submission ever waits for another. The second-thread case is a DDP rank
//! (`core::train_ddp` runs each on its own thread): it keeps its core busy
//! instead of sleeping until the other rank's job ends.
//!
//! Safety: jobs borrow caller data. The submitting thread participates in
//! the job and does not return until every worker has retired the job, so
//! the erased `'static` borrow handed to workers never outlives the call.

// Poison recovery is sound for every lock below: each critical section in
// this pool is a plain field assignment, and chunk panics are caught inside
// `drain`, so a poisoned mutex carries no broken invariant — and the kernel
// dispatch path stays free of panicking constructs. No lock is held while
// another is taken, nor while a chunk runs.
use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// A borrowed parallel job: the closure and how many chunks it covers.
/// Workers copy it out of the pool's state under its lock; the chunk cursor
/// and the panic slot it shares with them are the pool's own fields, reset
/// for each job while its submitter holds `busy`, so a dispatch allocates
/// nothing.
#[derive(Clone, Copy)]
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` with the lifetime erased.
    task: *const (dyn Fn(usize) + Sync),
    /// One-past-last chunk index.
    n_chunks: usize,
}

// SAFETY: the raw `task` pointer is only dereferenced while the submitting
// call frame is alive (`run` blocks until every worker finishes the job),
// and the pointee is `Sync`, so handing the pointer to another thread is
// sound.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotone job sequence number; bumped on submit.
    epoch: u64,
    /// The current job, if one is active.
    job: Option<Job>,
}

/// The process-wide kernel thread pool.
pub struct ThreadPool {
    threads: usize,
    state: Mutex<PoolState>,
    /// Signals workers that a new job epoch exists.
    work_cv: Condvar,
    /// Counts workers still inside the current job; the submitter waits on
    /// this reaching zero.
    active: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// Set while a submitter owns the workers (one job at a time); a
    /// submission that finds it set runs inline instead of waiting.
    busy: AtomicBool,
    /// The current job's next chunk index to claim.
    next: AtomicUsize,
    /// The current job's first caught chunk panic; the submitter re-raises
    /// it so `panic::catch_unwind` callers see the original message, not a
    /// generic pool error.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("SALIENT_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static POOL: OnceLock<&'static ThreadPool> = OnceLock::new();

/// The process-wide pool, created on first use.
pub(crate) fn global() -> &'static ThreadPool {
    POOL.get_or_init(|| ThreadPool::new(configured_threads()))
}

/// Number of threads the global pool runs (including the caller).
pub fn num_threads() -> usize {
    global().threads()
}

impl ThreadPool {
    /// Builds a pool that executes jobs on `threads` threads total: the
    /// submitting thread plus `threads - 1` persistent workers.
    fn new(threads: usize) -> &'static ThreadPool {
        let pool = Box::leak(Box::new(ThreadPool {
            threads: threads.max(1),
            state: Mutex::new(PoolState { epoch: 0, job: None }),
            work_cv: Condvar::new(),
            active: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            busy: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
        }));
        for w in 1..pool.threads {
            let p: &'static ThreadPool = pool;
            #[expect(clippy::expect_used, reason = "workers spawn once at pool creation; spawn failure is unrecoverable resource exhaustion")]
            std::thread::Builder::new()
                .name(format!("salient-kernel-{w}"))
                .spawn(move || p.worker_loop())
                .expect("failed to spawn kernel worker");
        }
        pool
    }

    /// Total threads participating in jobs (workers + submitter).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn worker_loop(&'static self) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut st = lock_unpoisoned(&self.state);
                loop {
                    if st.epoch != seen_epoch {
                        if let Some(job) = st.job {
                            seen_epoch = st.epoch;
                            break job;
                        }
                        seen_epoch = st.epoch;
                    }
                    st = wait_unpoisoned(&self.work_cv, st);
                }
            };
            self.drain(job);
            // Last participant out signals the submitter.
            if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = lock_unpoisoned(&self.done_lock);
                self.done_cv.notify_all();
            }
        }
    }

    /// Claims and runs chunks until the job's range is exhausted. A panic in
    /// a chunk is caught (so the pool's accounting stays consistent), its
    /// payload stashed, and re-raised on the submitting thread.
    fn drain(&self, job: Job) {
        // SAFETY: `job.task` was erased from a live borrow in `run`, which
        // does not return until this job completes, so the pointee outlives
        // every dereference here.
        let task = unsafe { &*job.task };
        loop {
            // Chunk claiming only needs each index handed out once and
            // publishes nothing, so relaxed ordering is sufficient.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.n_chunks {
                return;
            }
            if let Err(payload) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)))
            {
                // Poison the job: skip remaining chunks fast. Keep the first
                // payload (later racers lose) for the submitter to re-raise.
                // Relaxed: the store is an optimization hint; stragglers
                // that miss it merely run extra chunks.
                self.next.store(job.n_chunks, Ordering::Relaxed);
                let mut slot = lock_unpoisoned(&self.panic_payload);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    /// Runs `task(chunk)` for every `chunk in 0..n_chunks`, distributing
    /// chunks dynamically over the pool — or, while another job owns the
    /// pool, in order on the calling thread. Returns when all chunks are
    /// done.
    ///
    /// The closure must partition writes disjointly by chunk index; with
    /// that discipline results are identical for any thread count.
    pub(crate) fn run(&'static self, n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        // Acquire pairs with the Release that retired the previous job, so
        // its clean-up happens before this one is published.
        if self.threads == 1 || n_chunks == 1 || self.busy.swap(true, Ordering::Acquire) {
            for i in 0..n_chunks {
                task(i);
            }
            return;
        }
        // SAFETY: the transmute only erases the borrow's lifetime; workers
        // dereference it exclusively between job publication below and the
        // completion wait at the end of this call, while `task` is borrowed.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(task) };
        let job = Job { task: erased, n_chunks };
        // The state lock below publishes the reset with the job, and every
        // worker of the previous job signed off before `busy` was released,
        // so no claim can race it: relaxed is enough.
        self.next.store(0, Ordering::Relaxed);
        // Every worker participates in every job epoch (a worker finding the
        // chunk counter already exhausted just signs off); this keeps the
        // `active` accounting exact without per-worker handshakes.
        self.active.store(self.threads, Ordering::Release);
        {
            let mut st = lock_unpoisoned(&self.state);
            st.epoch += 1;
            st.job = Some(job);
            self.work_cv.notify_all();
        }
        // The submitter is a participant too.
        self.drain(job);
        if self.active.fetch_sub(1, Ordering::AcqRel) != 1 {
            let mut g = lock_unpoisoned(&self.done_lock);
            while self.active.load(Ordering::Acquire) != 0 {
                g = wait_unpoisoned(&self.done_cv, g);
            }
        }
        // Retire the job: the chunk counter is exhausted, but clearing drops
        // the erased borrow reference eagerly.
        lock_unpoisoned(&self.state).job = None;
        let payload = lock_unpoisoned(&self.panic_payload).take();
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = payload {
            // Propagate the chunk's own panic (message and all) as if it
            // had happened on the submitting thread.
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs `body(chunk_start, chunk_end)` over `0..len` split into contiguous
/// chunks of at least `min_chunk` and within one of each other in length, in
/// parallel on the global pool. A range of less than two such chunks, and any
/// range on a one-thread pool, is one call of `body` on the calling thread
/// and never reaches [`ThreadPool::run`].
///
/// Where the chunks are cut depends on the pool's width, so `body` must
/// compute a row the same way whichever chunk it falls in; with that and
/// disjoint writes a kernel is bitwise deterministic regardless of
/// parallelism.
pub(crate) fn parallel_for(len: usize, min_chunk: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    if len == 0 {
        return;
    }
    let pool = global();
    let n_chunks = chunk_count(len, min_chunk, pool.threads());
    if n_chunks == 1 || pool.threads() == 1 {
        body(0, len);
        return;
    }
    pool.run(n_chunks, &|i| body(i * len / n_chunks, (i + 1) * len / n_chunks));
}

/// How many chunks [`parallel_for`] cuts `len` items into on a pool of
/// `threads`: up to ~4 a thread for load balance, as far as `min_chunk`
/// allows. Chunk `i` is `[i·len/n, (i+1)·len/n)`; one thread runs one call.
pub(crate) fn chunk_count(len: usize, min_chunk: usize, threads: usize) -> usize {
    (len / min_chunk.max(1)).clamp(1, threads * 4)
}

/// A `Send + Sync` wrapper for a raw mutable pointer handed to disjoint
/// parallel writers. The caller must guarantee chunks write non-overlapping
/// regions.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub *mut T);
// SAFETY: the wrapper adds no operations of its own; every dereference goes
// through `slice_mut`, whose contract obliges callers to hand disjoint
// in-bounds regions to each thread.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above — soundness is delegated to the `slice_mut` contract.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[expect(clippy::mut_from_ref, reason = "the whole point of `SendPtr`: tasks share one handle and each reborrows its own disjoint range, which the caller's contract below guarantees")]
    /// Reborrows `len` elements starting at `offset` as a mutable slice.
    ///
    /// # Safety
    ///
    /// The region must be in-bounds and not aliased by any other live
    /// borrow for the duration of use.
    #[inline]
    pub(crate) unsafe fn slice_mut(&self, offset: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_chunk_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        global().run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_covers_range() {
        let sum = AtomicU64::new(0);
        parallel_for(10_001, 64, &|s, e| {
            let local: u64 = (s as u64..e as u64).sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_001 * 10_000 / 2);
    }

    #[test]
    fn sequential_jobs_reuse_pool() {
        for round in 0..50 {
            let count = AtomicUsize::new(0);
            global().run(round + 1, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), round + 1);
        }
    }

    #[test]
    fn a_chunk_that_calls_parallel_for_runs_it_inline_instead_of_deadlocking() {
        // Every chunk submits while its own job owns the pool. A blocking
        // submit would wait forever on the job that is running the chunk,
        // so the submitter runs on a thread of its own and is joined only
        // once it has reported.
        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let total = AtomicUsize::new(0);
            global().run(8, &|_| {
                parallel_for(4096, 1, &|s, e| {
                    total.fetch_add(e - s, Ordering::Relaxed);
                });
            });
            let _ = tx.send(total.into_inner());
        });
        let total = rx.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(total, Ok(8 * 4096), "nested submission did not finish in 20 s");
        submitter.join().unwrap();
    }

    #[test]
    fn concurrent_submitters_each_run_every_chunk_once() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let n = AtomicUsize::new(0);
                        global().run(37, &|_| {
                            n.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(n.load(Ordering::Relaxed), 37);
                    }
                });
            }
        });
    }

    #[test]
    fn chunk_panic_payload_reaches_submitter() {
        let err = std::panic::catch_unwind(|| {
            global().run(64, &|i| {
                if i == 13 {
                    panic!("chunk 13 exploded");
                }
            });
        })
        .expect_err("the chunk panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "chunk 13 exploded", "original payload must survive");
        // The pool must stay usable after a panicking job.
        let n = AtomicUsize::new(0);
        global().run(8, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn disjoint_writes_through_sendptr() {
        let mut data = vec![0u32; 512];
        let ptr = SendPtr(data.as_mut_ptr());
        parallel_for(512, 8, &|s, e| {
            // SAFETY: parallel_for hands each task a disjoint [s, e) range
            // inside the 512-element buffer.
            let out = unsafe { ptr.slice_mut(s, e - s) };
            for (k, o) in out.iter_mut().enumerate() {
                *o = (s + k) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }
}
