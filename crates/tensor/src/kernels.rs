//! The CPU performance kernel layer: cache-blocked parallel GEMM (f32 and
//! half-precision-input) and fused CSR-style gather/scatter aggregation.
//!
//! SALIENT's thesis is that the per-batch hot path must be performance-
//! engineered end to end; for this CPU reproduction the dense update
//! (`X @ W`) and the message-passing aggregation (gather / scatter-mean)
//! are that hot path. Everything here is std-only and runs on the
//! work-sharing pool in [`crate::pool`].
//!
//! Design notes:
//!
//! * **GEMM** is blocked (KC×NC panels of `op(B)`, row chunks of `op(A)`)
//!   around register tiles that take leading dimensions, so an `f32` operand
//!   is read where it lies: untransposed A is a row-major panel with
//!   `lda = a_cols`, transposed A (`ta = true`, the `dW = Aᵀ·g` backward
//!   shape) is the K-major panel its storage already is, untransposed B a
//!   panel with `ldb = b_cols`. Packing into thread-local scratch survives
//!   only where it *converts* ([`Elem`]): an `F16` A is widened to `f32`
//!   on the way (bulk F16C kernels on contiguous rows) and a
//!   transposed B is gathered into rows — so the tile, and the fp32
//!   accumulation order, is identical for half and full precision inputs
//!   and for all four transpose variants.
//! * **Write-first**: a product's first K block starts its accumulators at
//!   zero in registers and stores without loading C, so the output is a
//!   *stale* pooled buffer — no memset, no read of C. That is the FMA chain
//!   `0.0 + a₀b₀ + a₁b₁ + …` a zero-filled C would have started, bit for bit
//!   (a column of `-1 · 0` products still ends at `+0.0`); later K blocks
//!   and [`gemm_acc`] load C and continue it.
//! * **One tile routine per rung**, selected at runtime (no compile-time
//!   flags): AVX-512F up to 8 rows × 32 columns, else AVX2 + FMA up to 4×16,
//!   const-generic in the row count and under a column mask, so a row tail
//!   (m = 100 is 12 tiles of 8 and one of 4) and a column tail (n = 47 is
//!   32 + 15) run the same code as the full tile; else a portable 4-way
//!   K-unrolled row loop. Every output element is one FMA per K step in
//!   increasing K whatever the tile shape, so the vector rungs agree bitwise
//!   and no value depends on how rows were cut into chunks.
//! * **Dispatch by work**: a product (or a SAGE strip, [`sage_rows`]) is cut
//!   into row chunks of at least [`MIN_CHUNK_FLOPS`], one pool dispatch per
//!   product; less than two chunks' worth runs on the caller, and so does
//!   everything on a one-thread pool.
//! * **Aggregation** is one row kernel, `out[r] = scale_r · Σ_e x[idx[e]]`
//!   over a CSR row index `(indptr, idx)` of the edge list ([`RowAgg`]).
//!   Building the index is one pass over the keys that counts degrees,
//!   bounds-checks and notices keys that are already non-decreasing — every
//!   sampler's `edge_dst` is — in which case the edge list *is* the index
//!   and nothing is sorted or copied; other keys (a backward pass keys on
//!   `src`) go through a stable counting sort into pooled scratch and feed
//!   the same kernel. A row's accumulator stays in vector registers across
//!   all of its edges, every cache line of a source row a few edges ahead is
//!   prefetched, and the row is written once into a stale pooled buffer (no
//!   memset). The kernel is plain Rust compiled three times (portable,
//!   AVX2, AVX-512) and dispatched on the GEMM's `Level`. No atomics, no
//!   per-call allocation, and — because every output column is the same
//!   `+=` chain in edge order whatever the vector width or the chunking —
//!   results are bitwise identical for any rung and any thread count. Edge
//!   endpoints are validated once per call, in release builds too, so the
//!   per-edge loop reads rows unchecked. The rows are `f32` or [`F16`]
//!   ([`Elem`], the GEMM's operand element): a staged batch's halves are
//!   widened in the panel's load (`vcvtph2ps` into the add), exactly, so hop
//!   0 reads half the bytes and sums the bits a widened copy would give.

#![expect(
    clippy::indexing_slicing,
    reason = "panel, pack and row-kernel loops index inside shapes asserted at the GEMM and aggregation entries; hoisted slices keep the checks elidable"
)]

use crate::f16::F16;
use crate::pool::{parallel_for, SendPtr};
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

// ---------------------------------------------------------------------------
// Thread-local scratch buffers
// ---------------------------------------------------------------------------

/// Smallest pooled capacity, as a power of two (64 elements).
const MIN_CLASS: usize = 6;

/// Recycled buffers of one element type, one free list per power-of-two
/// capacity class. A class never holds more idle buffers than this thread
/// has itself had to allocate for it (`made`), so a thread that only
/// *receives* buffers (a tensor built elsewhere and dropped here) cannot
/// grow its pool: in steady state the pool is one batch's high-water mark.
struct ClassPool<T> {
    classes: Vec<(Vec<Vec<T>>, usize)>,
}

impl<T> Default for ClassPool<T> {
    fn default() -> Self {
        ClassPool { classes: Vec::new() }
    }
}

impl<T> ClassPool<T> {
    /// A buffer with capacity for at least `n` elements; its length and
    /// contents are whatever its last user left.
    fn take(&mut self, n: usize) -> Vec<T> {
        let c = (n.next_power_of_two().trailing_zeros() as usize).max(MIN_CLASS);
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Default::default);
        }
        let (idle, made) = &mut self.classes[c];
        idle.pop().unwrap_or_else(|| {
            *made += 1;
            Vec::with_capacity(1 << c)
        })
    }

    /// Offers a buffer back. It is filed under the largest class its
    /// capacity covers, or dropped when that class is full.
    fn put(&mut self, v: Vec<T>) {
        if v.capacity() < 1 << MIN_CLASS {
            return;
        }
        let c = v.capacity().ilog2() as usize;
        if let Some((idle, made)) = self.classes.get_mut(c) {
            if idle.len() < *made {
                idle.push(v);
            }
        }
    }
}

#[derive(Default)]
struct Scratch {
    u32s: ClassPool<u32>,
    f32s: ClassPool<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = {
        pin_heap_thresholds();
        RefCell::new(Scratch::default())
    };
}

/// Checks out a cleared `Vec<u32>` with at least `cap` capacity from the
/// calling thread's scratch pool (allocating only on first use).
pub(crate) fn take_u32(cap: usize) -> Vec<u32> {
    let mut v = SCRATCH.with(|s| s.borrow_mut().u32s.take(cap));
    v.clear();
    v
}

/// Returns a `u32` scratch buffer for reuse.
pub(crate) fn put_u32(v: Vec<u32>) {
    // A buffer released while the thread's locals are being torn down is
    // simply freed.
    let _ = SCRATCH.try_with(|s| s.borrow_mut().u32s.put(v));
}

/// Frees the calling thread's idle scratch buffers; the pool refills on
/// demand. For a caller that has finished a phase for good:
/// `Trainer::into_model` ends with it, so training's high-water mark is not
/// held (invisibly, in a thread-local) while the model's next owner serves.
/// Not for a hot path: the next batch pays every allocation and page fault
/// again.
pub fn release_scratch() {
    let _ = SCRATCH.try_with(|s| *s.borrow_mut() = Scratch::default());
}

/// Fixes glibc's `mmap` threshold at 4 MiB and its trim threshold at twice
/// that (its own ratio), once per process; a no-op on other C libraries.
///
/// Left alone, glibc raises both every time a mapped block is freed, up to
/// 32 and 64 MiB. After the first dropped dataset or released pool, blocks of
/// that size are carved from the heap instead, and whether their pages go
/// back to the OS when they are freed depends on what happens to sit above
/// them, which depends on how the prep threads' allocations interleaved with
/// the trainer's: the same program ends the same phase with 82 or 101 MB
/// resident and peaks at 101 or 140 MB (DESIGN.md section 6). With both
/// fixed, a large block is returned when it is freed and resident memory
/// follows live data.
pub fn pin_heap_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // Above every per-batch block that does not come from the pool (a
        // sampler's edge lists, reserved once a hop at frontier x fanout,
        // reach ~0.8 MiB at fanouts 20,20,20; mapping blocks of that size
        // afresh cost `infer_sweep` 10 %), below dataset arrays and the
        // large pool classes.
        const MMAP_THRESHOLD: i32 = 4 << 20;
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            // SAFETY: `mallopt` is glibc's own entry point (std links glibc
            // on this target and `System` allocates through it); it takes
            // two integers, locks the arena itself, and these two
            // parameters only change where later blocks are placed.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
                mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD);
            }
        });
    }
}

/// A pooled copy of an edge or index list that an op saves for its backward
/// pass; the buffer returns to the pool when the tape drops the closure.
pub(crate) struct SavedIds(Vec<u32>);

impl SavedIds {
    pub(crate) fn new(ids: &[u32]) -> Self {
        let mut v = take_u32(ids.len());
        v.extend_from_slice(ids);
        SavedIds(v)
    }
}

impl std::ops::Deref for SavedIds {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.0
    }
}

impl Drop for SavedIds {
    fn drop(&mut self) {
        put_u32(std::mem::take(&mut self.0));
    }
}

/// Checks out a `Vec<f32>` of length `n` whose contents are unspecified
/// (stale values of an earlier use), for callers that overwrite every
/// element. No fill pass beyond growing past the buffer's previous length.
pub(crate) fn take_f32_stale(n: usize) -> Vec<f32> {
    let mut v = SCRATCH.with(|s| s.borrow_mut().f32s.take(n));
    v.resize(n, 0.0);
    v
}

/// Checks out a cleared `Vec<f32>` with at least `cap` capacity.
pub(crate) fn take_f32(cap: usize) -> Vec<f32> {
    let mut v = SCRATCH.with(|s| s.borrow_mut().f32s.take(cap));
    v.clear();
    v
}

/// Checks out a `Vec<f32>` of `n` zeros (an accumulator).
pub(crate) fn take_f32_zeroed(n: usize) -> Vec<f32> {
    let mut v = take_f32(n);
    v.resize(n, 0.0);
    v
}

/// Returns an `f32` scratch buffer for reuse.
pub(crate) fn put_f32(v: Vec<f32>) {
    let _ = SCRATCH.try_with(|s| s.borrow_mut().f32s.put(v));
}

/// Best-effort read prefetch (no-op off x86-64). Purely a scheduling hint:
/// nothing is read, so `p` may be any address, in bounds or not.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: PREFETCHh is architecturally non-faulting for any address
        // and has no program-visible memory effects.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// Row block an [`F16`] left operand is widened by: MC×KC floats (128 KiB)
/// of pack scratch, and wide enough that a transposed feature strip — all
/// 100 or 128 of its columns — is one block, which [`pack_a`] widens in one
/// piece. An `f32` left operand is read in place, a chunk's rows at once.
const MC: usize = 128;
/// K (inner-dimension) block: a tile's K loop runs at most this long before
/// its accumulators go back to C.
const KC: usize = 256;
/// Column block: KC×NC×4 bytes = 256 KiB keeps a B panel L2-resident.
const NC: usize = 256;

/// The least work, in flops, worth handing to another thread as one chunk:
/// some 40 µs of a tile's time against a pool dispatch of several µs. A
/// product (or a SAGE strip) of less than two of these runs on its caller.
const MIN_CHUNK_FLOPS: usize = 1 << 22;

/// The fewest rows of `flops_per_row` each that make a chunk worth
/// dispatching ([`MIN_CHUNK_FLOPS`]).
fn min_chunk_rows(flops_per_row: usize) -> usize {
    MIN_CHUNK_FLOPS.div_ceil(flops_per_row.max(1))
}

#[cfg(test)]
thread_local! {
    /// Panels this thread has packed, as `[a, b]`.
    pub(crate) static PACKS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0, 0]) };
}

/// Appends `src`, widened, onto a pack buffer.
#[inline]
fn widen_append<T: Elem>(src: &[T], dst: &mut Vec<f32>) {
    let old = dst.len();
    dst.resize(old + src.len(), 0.0);
    T::widen(src, &mut dst[old..]);
}

/// The GEMM's A element and the aggregation row kernel's element: `f32`,
/// or [`F16`] widened on the way in (B is always `f32`). A GEMM reads an
/// `f32` operand that is not a transposed B where it lies; packing is for
/// operands that must be *converted*: an [`F16`] A (widened, via the bulk
/// F16C kernels on contiguous runs) and a transposed B (gathered into rows). Past it the micro-kernel
/// only ever sees `f32` panels, and the row kernel widens in its panel load
/// ([`Elem::add_into`]), so accumulation is always fp32.
pub(crate) trait Elem: Copy + Send + Sync {
    /// The operand itself when it already is what the micro-kernel reads.
    fn as_f32(d: &[Self]) -> Option<&[f32]>;
    /// `dst = src`, widened to `f32` (contiguous bulk path).
    fn widen(src: &[Self], dst: &mut [f32]);
    /// The row kernel's panel step: `acc[j] += src[j]` for `j < W`, each
    /// element widened exactly, so every column is the same `+=` chain for
    /// either element type. `VW` is the rung's vector width in floats (1 on
    /// the portable rung).
    ///
    /// # Safety
    ///
    /// `src` must cover `W` elements, and for `VW > 1` the CPU must have the
    /// rung whose vectors hold `VW` floats ([`host_rungs`], F16C with it).
    unsafe fn add_into<const W: usize, const VW: usize>(acc: &mut [f32; W], src: *const Self);
}

impl Elem for f32 {
    #[inline]
    fn as_f32(d: &[f32]) -> Option<&[f32]> {
        Some(d)
    }
    #[inline]
    fn widen(src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }
    #[inline(always)]
    unsafe fn add_into<const W: usize, const VW: usize>(acc: &mut [f32; W], src: *const f32) {
        for (j, a) in acc.iter_mut().enumerate() {
            // SAFETY: `j < W`, which the caller says `src` covers.
            *a += unsafe { *src.add(j) };
        }
    }
}

impl Elem for F16 {
    #[inline]
    fn as_f32(_: &[F16]) -> Option<&[f32]> {
        None
    }
    #[inline]
    fn widen(src: &[F16], dst: &mut [f32]) {
        crate::f16::widen_into(src, dst);
    }
    /// `vcvtph2ps` straight into the add on the vector rungs — a whole
    /// `zmm` of sixteen halves on AVX-512, eight on AVX2 — and the bulk
    /// conversion into a stack panel on the portable one (and for a panel
    /// narrower than a conversion).
    #[inline(always)]
    unsafe fn add_into<const W: usize, const VW: usize>(acc: &mut [f32; W], src: *const F16) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::*;
            // `F16` is `repr(transparent)` over `u16`.
            let (h, a) = (src as *const u16, acc.as_mut_ptr());
            if VW == 16 && W % 16 == 0 {
                for v in (0..W).step_by(16) {
                    // SAFETY: `v + 16 <= W`, inside `acc` and — the caller's
                    // word — `src`; AVX-512F is the rung the caller names.
                    unsafe {
                        let wide = _mm512_cvtph_ps(_mm256_loadu_si256(h.add(v) as *const __m256i));
                        _mm512_storeu_ps(a.add(v), _mm512_add_ps(_mm512_loadu_ps(a.add(v)), wide));
                    }
                }
                return;
            }
            if VW >= 8 && W % 8 == 0 {
                for v in (0..W).step_by(8) {
                    // SAFETY: `v + 8 <= W`, inside `acc` and `src`; either
                    // vector rung comes with AVX and F16C.
                    unsafe {
                        let wide = _mm256_cvtph_ps(_mm_loadu_si128(h.add(v) as *const __m128i));
                        _mm256_storeu_ps(a.add(v), _mm256_add_ps(_mm256_loadu_ps(a.add(v)), wide));
                    }
                }
                return;
            }
        }
        let mut wide = [0.0f32; W];
        // SAFETY: the caller says `src` covers `W` elements.
        Self::widen(unsafe { std::slice::from_raw_parts(src, W) }, &mut wide);
        for (a, w) in acc.iter_mut().zip(wide) {
            *a += w;
        }
    }
}

/// One product's operands as the row loop reads them: `op(a)` is `m×k`,
/// `op(b)` is `k×n`, and `a_cols` / `b_cols` are the physical row lengths.
struct Operands<'a, TA> {
    a: &'a [TA],
    b: &'a [f32],
    ta: bool,
    tb: bool,
    n: usize,
    k: usize,
    a_cols: usize,
    b_cols: usize,
}

/// The logical extents `(m, n, k)` of `op(a) · op(b)` for physical
/// `ar×ac` and `br×bc` operands.
///
/// # Panics
///
/// Panics if the inner dimensions do not agree.
fn product_dims(
    (ar, ac): (usize, usize),
    (br, bc): (usize, usize),
    ta: bool,
    tb: bool,
) -> (usize, usize, usize) {
    let (m, k1) = if ta { (ac, ar) } else { (ar, ac) };
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    assert_eq!(k1, k2, "gemm inner dimension mismatch: {ar}x{ac} ({ta}) @ {br}x{bc} ({tb})");
    (m, n, k1)
}

/// A product into a pooled buffer that nobody zeroed: the first K block of
/// every tile starts from zero in registers and stores without loading.
fn gemm_tensor<TA: Elem>(ops: &Operands<'_, TA>, m: usize) -> Tensor {
    let mut out = take_f32_stale(m * ops.n);
    gemm_into(&mut out, false, ops, m);
    Tensor::from_vec(out, Shape::matrix(m, ops.n))
}

/// Dense matrix multiply `op(a) * op(b)` where `op` optionally transposes.
///
/// Shapes: with `ta = tb = false`, `a` is `m×k`, `b` is `k×n`, result `m×n`.
///
/// # Panics
///
/// Panics if the inner dimensions do not agree.
pub fn gemm(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Tensor {
    let (m, n, k) = product_dims((a.rows(), a.cols()), (b.rows(), b.cols()), ta, tb);
    let (a_cols, b_cols) = (a.cols(), b.cols());
    gemm_tensor(&Operands { a: a.data(), b: b.data(), ta, tb, n, k, a_cols, b_cols }, m)
}

/// `out += op(a) · op(b)` on raw row-major buffers (`a` of either element
/// type, widened as it is packed), where `op(a)` is `m×k` and `op(b)` is
/// `k×n`: a second product onto what a first one wrote, or one strip's share
/// of a sum. Accumulating continues each element's K-ordered FMA chain,
/// exactly as a further K block would.
#[expect(clippy::too_many_arguments, reason = "a GEMM's signature is its operands, their transposes and the three extents")]
pub(crate) fn gemm_acc<TA: Elem>(
    out: &mut [f32],
    a: &[TA],
    b: &[f32],
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_acc: a buffer/shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_acc: b buffer/shape mismatch");
    let (a_cols, b_cols) = (if ta { m } else { k }, if tb { k } else { n });
    gemm_into(out, true, &Operands { a, b, ta, tb, n, k, a_cols, b_cols }, m);
}

/// Name of the active GEMM micro-kernel rung — `"avx512"`, `"avx2"`, or
/// `"portable"` — for bench reports. Selection is automatic (CPUID) but can
/// be pinned down-level with `SALIENT_GEMM_KERNEL=portable|avx2|avx512`.
pub fn gemm_kernel_level() -> &'static str {
    match level() {
        Level::Avx512 => "avx512",
        Level::Avx2 => "avx2",
        Level::Portable => "portable",
    }
}

/// The micro-kernel rung picked for this process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Level {
    /// No usable vector unit detected (or forced): [`kernel_row`].
    Portable,
    /// AVX2 + FMA, tiles of up to 4×16.
    Avx2,
    /// AVX-512F, tiles of up to 8×32.
    Avx512,
}

/// Which vector rungs this CPU has, as `(avx2, avx512)`. A rung's row
/// kernel widens halves in its load, so AVX2 counts with F16C only (every
/// CPU with the one has the other; AVX-512F implies it).
fn host_rungs() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        (has!("avx2") && has!("fma") && has!("f16c"), has!("avx512f") && has!("f16c"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

/// One-time CPUID probe (overridable down-level with
/// `SALIENT_GEMM_KERNEL=portable|avx2|avx512` for benches and tests; an
/// override naming an unsupported rung falls back to detection).
fn level() -> Level {
    static LEVEL: std::sync::OnceLock<Level> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        let (avx2, avx512) = host_rungs();
        match std::env::var("SALIENT_GEMM_KERNEL").ok().as_deref() {
            Some("portable") => Level::Portable,
            Some("avx2") if avx2 => Level::Avx2,
            Some("avx512") if avx512 => Level::Avx512,
            _ if avx512 => Level::Avx512,
            _ if avx2 => Level::Avx2,
            _ => Level::Portable,
        }
    })
}

/// The seed's scalar triple-loop GEMM, the blocked GEMM's test oracle.
#[cfg(test)]
fn gemm_naive(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Tensor {
    let (ac, bc) = (a.cols(), b.cols());
    let (m, n, k) = product_dims((a.rows(), ac), (b.rows(), bc), ta, tb);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    let at = |i: usize, p: usize| if ta { ad[p * ac + i] } else { ad[i * ac + p] };
    let bt = |p: usize, j: usize| if tb { bd[j * bc + p] } else { bd[p * bc + j] };
    match (ta, tb) {
        (false, false) => {
            for i in 0..m {
                let arow = &ad[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for (p, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                        *o += av * bv;
                    }
                }
            }
        }
        _ => {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += at(i, p) * bt(p, j);
                    }
                    out[i * n + j] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// Packs `op(b)[pc..pc+kcb, jc..jc+ncb]` row-major into `bpack`: row
/// copies for `!tb` (only the packed reference in the tests takes it; the
/// product reads such a B in place), a gather for `tb`.
#[inline]
fn pack_b<TA>(
    bpack: &mut Vec<f32>,
    ops: &Operands<'_, TA>,
    (pc, kcb): (usize, usize),
    (jc, ncb): (usize, usize),
) {
    #[cfg(test)]
    PACKS.with(|c| c.set([c.get()[0], c.get()[1] + 1]));
    let (bd, b_cols) = (ops.b, ops.b_cols);
    bpack.clear();
    if !ops.tb {
        for p in 0..kcb {
            let row = &bd[(pc + p) * b_cols + jc..(pc + p) * b_cols + jc + ncb];
            widen_append(row, bpack);
        }
    } else {
        // b is n×k physical; op(b)[p][j] = b[j][p].
        for p in 0..kcb {
            for j in 0..ncb {
                bpack.push(bd[(jc + j) * b_cols + (pc + p)]);
            }
        }
    }
}

/// Packs an A panel that has to be widened, in the layout the operand
/// already has — contiguous source rows either way, bulk-widened, and in one
/// piece when the panel spans whole rows (a feature strip's does):
///
/// * `ta = false`: row-major `apack[i][p] = a[i0+i][pc+p]`, `lda = kcb`.
/// * `ta = true`: **K-major** `apack[p][i] = a[pc+p][i0+i]`, `lda = mb`
///   (`a` is k×m physical, the `dW = Aᵀ·g` backward shape).
#[inline]
fn pack_a<TA: Elem>(
    apack: &mut Vec<f32>,
    ops: &Operands<'_, TA>,
    (i0, mb): (usize, usize),
    (pc, kcb): (usize, usize),
) {
    #[cfg(test)]
    PACKS.with(|c| c.set([c.get()[0] + 1, c.get()[1]]));
    apack.clear();
    let (rows, cols) = if ops.ta { (pc..pc + kcb, i0..i0 + mb) } else { (i0..i0 + mb, pc..pc + kcb) };
    if cols.len() == ops.a_cols {
        return widen_append(&ops.a[rows.start * ops.a_cols..rows.end * ops.a_cols], apack);
    }
    for r in rows {
        let row = &ops.a[r * ops.a_cols + cols.start..r * ops.a_cols + cols.end];
        widen_append(row, apack);
    }
}

/// A panel where it lies: its first element onwards, and the distance
/// between its rows.
type Panel<'a> = (&'a [f32], usize);

/// The portable inner kernel: `orow (+)= Σ_p a[p·a_step] · b[p][0..ncb]`
/// over a B panel, with the K loop 4-way unrolled so the output row is
/// touched once per four K steps and the j-loop vectorizes. `a_step` is 1
/// for a row of a row-major A panel and `lda` for a column of a K-major one.
/// A first K block (`!acc`) starts from a zero row.
#[inline]
fn kernel_row(
    a: &[f32],
    a_step: usize,
    (b, ldb): Panel<'_>,
    orow: &mut [f32],
    kcb: usize,
    acc: bool,
) {
    let ncb = orow.len();
    if !acc {
        orow.fill(0.0);
    }
    let mut p = 0;
    while p + 4 <= kcb {
        let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|q| a[(p + q) * a_step]);
        let [b0, b1, b2, b3] = [0, 1, 2, 3].map(|q| &b[(p + q) * ldb..(p + q) * ldb + ncb]);
        for j in 0..ncb {
            orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        p += 4;
    }
    while p < kcb {
        let a0 = a[p * a_step];
        let b0 = &b[p * ldb..p * ldb + ncb];
        for j in 0..ncb {
            orow[j] += a0 * b0[j];
        }
        p += 1;
    }
}

/// The register-tiled micro-kernels, selected at runtime ([`level`]) so the
/// crate still builds (and falls back to [`kernel_row`]) on the x86-64
/// baseline target and other architectures.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Elem, Level};
    use std::arch::x86_64::*;

    /// One register tile: `C[R × cols] (+)= A[R × kcb] · B[kcb × cols]` on
    /// panels read where they lie — `a`, `b`, `c` point at the tile's first
    /// element and `lda`, `ldb`, `ldc` are the distances between panel rows.
    ///
    /// # Safety
    ///
    /// The CPU must have the tile's rung, `cols` must be in `1..=` the tile's
    /// width, and `a` must cover `R` rows of `kcb` (row-major: element
    /// `(r, p)` at `r·lda + p`; K-major: at `p·lda + r`), `b` `kcb` rows of
    /// `cols`, `c` `R` rows of `cols` that nobody else touches.
    pub(crate) type Tile =
        unsafe fn(*const f32, usize, *const f32, usize, *mut f32, usize, usize, usize, bool);

    /// A rung's tiles for one A layout, as `[vectors wide - 1][rows - 1]`.
    pub(crate) type Tiles = [&'static [Tile]; 2];

    macro_rules! tiles {
        ($tile:ident, $kmajor:literal, [$($rows:literal)*]) => {
            [&[$($tile::<$rows, 1, $kmajor>),*], &[$($tile::<$rows, 2, $kmajor>),*]]
        };
    }
    /// Both rungs' tiles by A layout, `[row-major, K-major]`.
    const AVX2: [Tiles; 2] =
        [tiles!(tile_avx2, false, [1 2 3 4]), tiles!(tile_avx2, true, [1 2 3 4])];
    const AVX512: [Tiles; 2] = [
        tiles!(tile_avx512, false, [1 2 3 4 5 6 7 8]),
        tiles!(tile_avx512, true, [1 2 3 4 5 6 7 8]),
    ];

    /// The tiles of rung `lvl` for a row-major or K-major A panel, and how
    /// many floats its vectors hold; `None` for the portable rung.
    pub(crate) fn tiles(lvl: Level, kmajor: bool) -> Option<(Tiles, usize)> {
        match lvl {
            Level::Avx512 => Some((AVX512[usize::from(kmajor)], 16)),
            Level::Avx2 => Some((AVX2[usize::from(kmajor)], 8)),
            Level::Portable => None,
        }
    }

    /// How many K steps ahead a tile prefetches its B rows.
    const PREFETCH_ROWS: usize = 4;

    /// Prefetches the B panel row `PREFETCH_ROWS` K steps ahead of `bp`.
    /// `wrapping_add` keeps the (possibly past-the-end) hint address from
    /// ever being formed as an out-of-allocation offset, and PREFETCHh
    /// itself never faults.
    #[inline(always)]
    fn prefetch_b(bp: *const f32, ldb: usize) {
        let ahead = (bp as *const i8).wrapping_add(PREFETCH_ROWS * ldb * 4);
        // SAFETY: PREFETCHh is architecturally non-faulting for any address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(ahead) }
    }

    /// Reads the A-panel value for tile row `r` at K step `p`, for either
    /// panel layout.
    ///
    /// # Safety
    ///
    /// `a` must cover the panel as described at [`Tile`].
    #[inline(always)]
    unsafe fn a_elem<const KMAJOR: bool>(a: *const f32, r: usize, p: usize, lda: usize) -> f32 {
        if KMAJOR {
            *a.add(p * lda + r)
        } else {
            *a.add(r * lda + p)
        }
    }

    /// Mask with the first `rem` (0..=8) lanes enabled, for
    /// `maskload`/`maskstore` on partial column tiles.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and `rem <= 8`: the unaligned
    /// load reads 8 lanes starting at `M[8 - rem]`, which stays inside the
    /// 16-entry table only for that range.
    #[target_feature(enable = "avx")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        const M: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        _mm256_loadu_si256(M.as_ptr().add(8 - rem) as *const __m256i)
    }

    #[expect(clippy::needless_range_loop, reason = "`for r in 0..R` over the accumulator arrays is what unrolls into named registers; an iterator chain would obscure that")]
    /// The AVX2 + FMA rung's [`Tile`]: `R <= 4` rows × `NV <= 2` vectors of 8
    /// columns, under one column mask (a full-width tile loads B unmasked).
    /// The `R·NV` accumulators stay in `ymm` registers across the K loop, so
    /// each B vector loaded per K step feeds `R` FMAs. A first K block (`!acc`) starts them at zero and stores
    /// without loading C — the FMA chain a zeroed C would have started.
    /// Every output element is one FMA per K step in increasing K, whatever
    /// `R`, `NV` or the mask: how rows and columns were cut into tiles (and
    /// rows into chunks) cannot change a value.
    ///
    /// # Safety
    ///
    /// As for [`Tile`], with `cols <= 8·NV` on a CPU with AVX2 and FMA.
    #[target_feature(enable = "avx,avx2,fma")]
    unsafe fn tile_avx2<const R: usize, const NV: usize, const KMAJOR: bool>(
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        kcb: usize,
        cols: usize,
        acc: bool,
    ) {
        let mut mask = [_mm256_setzero_si256(); NV];
        for v in 0..NV {
            mask[v] = tail_mask(cols.saturating_sub(8 * v).min(8));
        }
        // Loop-invariant: the compiler emits one K loop per case, and the
        // common full-width tile pays for no mask (`vmaskmovps` is two uops).
        let full = cols == 8 * NV;
        let mut cc = [[_mm256_setzero_ps(); NV]; R];
        if acc {
            for r in 0..R {
                for v in 0..NV {
                    cc[r][v] = _mm256_maskload_ps(c.add(r * ldc + 8 * v), mask[v]);
                }
            }
        }
        let mut bp = b;
        for p in 0..kcb {
            let mut bv = [_mm256_setzero_ps(); NV];
            for v in 0..NV {
                bv[v] = match full {
                    true => _mm256_loadu_ps(bp.add(8 * v)),
                    false => _mm256_maskload_ps(bp.add(8 * v), mask[v]),
                };
            }
            prefetch_b(bp, ldb);
            for r in 0..R {
                let av = _mm256_set1_ps(a_elem::<KMAJOR>(a, r, p, lda));
                for v in 0..NV {
                    cc[r][v] = _mm256_fmadd_ps(av, bv[v], cc[r][v]);
                }
            }
            bp = bp.add(ldb);
        }
        for r in 0..R {
            for v in 0..NV {
                _mm256_maskstore_ps(c.add(r * ldc + 8 * v), mask[v], cc[r][v]);
            }
        }
    }

    #[expect(clippy::needless_range_loop, reason = "`for r in 0..R` over the accumulator arrays is what unrolls into named registers; an iterator chain would obscure that")]
    /// The AVX-512F rung's [`Tile`]: `R <= 8` rows × `NV <= 2` vectors of 16
    /// columns under a `__mmask16` each — at 8×32, sixteen `zmm` accumulators
    /// and eight FMAs per B load. Same chain per element as [`tile_avx2`], so
    /// the two rungs agree bit for bit.
    ///
    /// # Safety
    ///
    /// As for [`Tile`], with `cols <= 16·NV` on a CPU with AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_avx512<const R: usize, const NV: usize, const KMAJOR: bool>(
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        kcb: usize,
        cols: usize,
        acc: bool,
    ) {
        let mut mask = [0 as __mmask16; NV];
        for v in 0..NV {
            mask[v] = ((1u32 << cols.saturating_sub(16 * v).min(16)) - 1) as __mmask16;
        }
        let full = cols == 16 * NV;
        let mut cc = [[_mm512_setzero_ps(); NV]; R];
        if acc {
            for r in 0..R {
                for v in 0..NV {
                    cc[r][v] = _mm512_maskz_loadu_ps(mask[v], c.add(r * ldc + 16 * v));
                }
            }
        }
        let mut bp = b;
        for p in 0..kcb {
            let mut bv = [_mm512_setzero_ps(); NV];
            for v in 0..NV {
                bv[v] = match full {
                    true => _mm512_loadu_ps(bp.add(16 * v)),
                    false => _mm512_maskz_loadu_ps(mask[v], bp.add(16 * v)),
                };
            }
            prefetch_b(bp, ldb);
            for r in 0..R {
                let av = _mm512_set1_ps(a_elem::<KMAJOR>(a, r, p, lda));
                for v in 0..NV {
                    cc[r][v] = _mm512_fmadd_ps(av, bv[v], cc[r][v]);
                }
            }
            bp = bp.add(ldb);
        }
        for r in 0..R {
            for v in 0..NV {
                _mm512_mask_storeu_ps(c.add(r * ldc + 16 * v), mask[v], cc[r][v]);
            }
        }
    }

    /// [`super::RowAgg::rows`] compiled with 256-bit vectors (AVX2 rung).
    ///
    /// # Safety
    ///
    /// As for [`super::RowAgg::rows`], on a CPU with AVX2, FMA and F16C.
    #[target_feature(enable = "avx,avx2,fma,f16c")]
    pub(crate) unsafe fn agg_rows_avx2<T: Elem>(agg: &super::RowAgg<'_, T>, r0: usize, r1: usize, out: *mut f32) {
        agg.rows::<8>(r0, r1, out)
    }

    /// [`super::RowAgg::rows`] compiled with 512-bit vectors (AVX-512 rung).
    ///
    /// # Safety
    ///
    /// As for [`super::RowAgg::rows`], on a CPU with AVX-512F (and so F16C).
    #[target_feature(enable = "avx512f,f16c")]
    pub(crate) unsafe fn agg_rows_avx512<T: Elem>(agg: &super::RowAgg<'_, T>, r0: usize, r1: usize, out: *mut f32) {
        agg.rows::<16>(r0, r1, out)
    }
}

/// One K block, `c[mb × ncb] = a · b` (`acc = false`: `c` may hold anything)
/// or `c += a · b`, on rung `lvl`: the block is covered with the rung's
/// tiles, row group by row group and, inside one, left to right, so a
/// group's A rows stay in L1 across its column tiles. `a` is row-major
/// (`(i, p)` at `i·lda + p`) or, when `kmajor`, K-major (`(i, p)` at
/// `p·lda + i`).
///
/// # Safety
///
/// The CPU must have rung `lvl` ([`level`] names one it has).
unsafe fn gemm_block(
    lvl: Level,
    ((a, lda), kmajor): (Panel<'_>, bool),
    (b, ldb): Panel<'_>,
    (c, ldc): (&mut [f32], usize),
    (mb, kcb, ncb): (usize, usize, usize),
    acc: bool,
) {
    let a_span = if kmajor { (kcb - 1) * lda + mb } else { (mb - 1) * lda + kcb };
    assert!(
        a.len() >= a_span && b.len() >= (kcb - 1) * ldb + ncb && c.len() >= (mb - 1) * ldc + ncb,
        "gemm block outside its operands"
    );
    #[cfg(target_arch = "x86_64")]
    if let Some((tiles, vw)) = simd::tiles(lvl, kmajor) {
        let mr = tiles[0].len();
        for i in (0..mb).step_by(mr) {
            let ai = a.as_ptr().add(if kmajor { i } else { i * lda });
            for j in (0..ncb).step_by(2 * vw) {
                let cols = (2 * vw).min(ncb - j);
                let tile = tiles[usize::from(cols > vw)][mr.min(mb - i) - 1];
                let (bj, cij) = (b.as_ptr().add(j), c.as_mut_ptr().add(i * ldc + j));
                // The caller vouches for the ISA; the assert above is the
                // extent every tile of the block stays in.
                tile(ai, lda, bj, ldb, cij, ldc, kcb, cols, acc);
            }
        }
        return;
    }
    for i in 0..mb {
        let (arow, a_step) = if kmajor { (&a[i..], lda) } else { (&a[i * lda..], 1) };
        kernel_row(arow, a_step, (b, ldb), &mut c[i * ldc..i * ldc + ncb], kcb, acc);
    }
}

/// Rows `[i0, i1)` of a product into `out`, which holds exactly those rows:
/// the serial blocked loop nest `jc → pc → rows`, and the body of one
/// parallel chunk. An `f32` operand is read in place (B unless transposed);
/// an [`F16`] A or a transposed B goes through pooled pack scratch, a
/// B panel once per (K block, column block) and an A panel per MC rows of
/// it. K blocks are accumulated in increasing `pc` order for every output
/// element, the first one write-first unless `acc`.
fn gemm_rows<TA: Elem>(
    out: &mut [f32],
    acc: bool,
    ops: &Operands<'_, TA>,
    (i0, i1): (usize, usize),
) {
    let (n, k) = (ops.n, ops.k);
    assert_eq!(out.len(), (i1 - i0) * n, "gemm: output rows/shape mismatch");
    if k == 0 && !acc {
        out.fill(0.0);
    }
    if i0 == i1 || n == 0 || k == 0 {
        return;
    }
    let (a32, b32) = (TA::as_f32(ops.a), Some(ops.b).filter(|_| !ops.tb));
    let scratch = |packs: bool, cap: usize| if packs { take_f32(cap) } else { Vec::new() };
    let mut apack = scratch(a32.is_none(), MC * KC.min(k));
    let mut bpack = scratch(b32.is_none(), KC.min(k) * NC.min(n));
    let (row_block, lvl) = (if a32.is_some() { i1 - i0 } else { MC }, level());
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            let b = match b32 {
                Some(b) => (&b[pc * ops.b_cols + jc..], ops.b_cols),
                None => {
                    pack_b(&mut bpack, ops, (pc, kcb), (jc, ncb));
                    (&bpack[..], ncb)
                }
            };
            for ib in (i0..i1).step_by(row_block) {
                let mb = row_block.min(i1 - ib);
                let a = match a32 {
                    Some(a) if ops.ta => (&a[pc * ops.a_cols + ib..], ops.a_cols),
                    Some(a) => (&a[ib * ops.a_cols + pc..], ops.a_cols),
                    None => {
                        pack_a(&mut apack, ops, (ib, mb), (pc, kcb));
                        (&apack[..], if ops.ta { mb } else { kcb })
                    }
                };
                let c = (&mut out[(ib - i0) * n + jc..], n);
                // SAFETY: `level()` names a rung the CPU has.
                unsafe { gemm_block(lvl, (a, ops.ta), b, c, (mb, kcb, ncb), acc || pc > 0) };
            }
        }
    }
    put_f32(apack);
    put_f32(bpack);
}

/// `out = op(a)·op(b)` (or `+=` when `acc`) for an `m`-row product, generic
/// over A's element type (`f32` or [`F16`] — see [`Elem`]; B is `f32`):
/// [`gemm_rows`] over chunks of rows holding at least [`MIN_CHUNK_FLOPS`]
/// each, one pool dispatch per product. A chunk computes its rows exactly as
/// the whole would, so the result is bitwise identical for any thread count.
fn gemm_into<TA: Elem>(
    out: &mut [f32],
    acc: bool,
    ops: &Operands<'_, TA>,
    m: usize,
) {
    let n = ops.n;
    assert_eq!(out.len(), m * n, "gemm: output buffer/shape mismatch");
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(m, min_chunk_rows(2 * n * ops.k), &|i0, i1| {
        // SAFETY: `out` holds m·n floats (asserted above) and the chunks
        // [i0, i1) ⊆ [0, m) are disjoint, so each slice of whole rows is in
        // bounds and unaliased.
        let rows = unsafe { out_ptr.slice_mut(i0 * n, (i1 - i0) * n) };
        gemm_rows(rows, acc, ops, (i0, i1));
    });
}

// ---------------------------------------------------------------------------
// Row gather
// ---------------------------------------------------------------------------

/// Minimum output rows per parallel chunk for aggregation kernels.
const AGG_MIN_CHUNK: usize = 16;
/// Serial cutoff: below this many edge·column products the pool dispatch
/// overhead dominates.
const AGG_SERIAL_CUTOFF: usize = 1 << 14;

/// `out[i] = x[idx[i]]` — parallel row gather.
pub fn gather_rows_forward(xd: &[f32], cols: usize, idx: &[u32]) -> Vec<f32> {
    let mut out = take_f32_stale(idx.len() * cols);
    if idx.len() * cols < AGG_SERIAL_CUTOFF {
        for (e, &i) in idx.iter().enumerate() {
            out[e * cols..(e + 1) * cols]
                .copy_from_slice(&xd[i as usize * cols..(i as usize + 1) * cols]);
        }
        return out;
    }
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(idx.len(), AGG_MIN_CHUNK, &|e0, e1| {
        // SAFETY: `out` has idx.len()·cols elements and parallel_for hands
        // each task a disjoint [e0, e1) row range, so the slice is in
        // bounds and unaliased.
        let orows = unsafe { out_ptr.slice_mut(e0 * cols, (e1 - e0) * cols) };
        for (e, orow) in (e0..e1).zip(orows.chunks_exact_mut(cols)) {
            if e + 1 < e1 {
                prefetch_read(xd.as_ptr().wrapping_add(idx[e + 1] as usize * cols));
            }
            let i = idx[e] as usize;
            orow.copy_from_slice(&xd[i * cols..(i + 1) * cols]);
        }
    });
    out
}

/// `out[i] = widen(x[idx[i]])` — parallel row gather over a packed [`F16`]
/// feature buffer with the f16→f32 widening fused into the copy (bulk F16C
/// per row). This is the half-precision transfer path: a consumer gathers
/// binary16 rows — half the bytes of the f32 gather — and pays the (cheap,
/// vectorized) widen exactly once.
pub fn gather_rows_forward_f16(xd: &[F16], cols: usize, idx: &[u32]) -> Vec<f32> {
    let mut out = take_f32_stale(idx.len() * cols);
    if idx.len() * cols < AGG_SERIAL_CUTOFF {
        for (e, &i) in idx.iter().enumerate() {
            crate::f16::widen_into(
                &xd[i as usize * cols..(i as usize + 1) * cols],
                &mut out[e * cols..(e + 1) * cols],
            );
        }
        return out;
    }
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(idx.len(), AGG_MIN_CHUNK, &|e0, e1| {
        // SAFETY: `out` has idx.len()·cols elements and parallel_for hands
        // each task a disjoint [e0, e1) row range, so the slice is in
        // bounds and unaliased.
        let orows = unsafe { out_ptr.slice_mut(e0 * cols, (e1 - e0) * cols) };
        for (e, orow) in (e0..e1).zip(orows.chunks_exact_mut(cols)) {
            if e + 1 < e1 {
                prefetch_read(xd.as_ptr().wrapping_add(idx[e + 1] as usize * cols));
            }
            let i = idx[e] as usize;
            crate::f16::widen_into(&xd[i * cols..(i + 1) * cols], orow);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// CSR row index over edge lists
// ---------------------------------------------------------------------------

thread_local! {
    /// Row indexes this thread has built, as `[identity, sorted]`.
    static CSR_ROUTES: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0, 0]) };
}

/// How many row indexes the calling thread has built so far by each route,
/// as `[identity, sorted]`: `identity` counts edge lists whose keys arrived
/// non-decreasing (indexed in place), `sorted` those that went through the
/// counting sort. A sampler's MFG takes the first on every forward hop
/// (`tests/steady_state.rs`).
pub fn csr_index_routes() -> [u64; 2] {
    CSR_ROUTES.with(std::cell::Cell::get)
}

/// One pass over `keys`: per-key degrees as prefix sums (`indptr`, pooled,
/// `n_keys + 1` long, so key `r` has `indptr[r + 1] - indptr[r]` edges) and
/// whether the keys are already non-decreasing.
///
/// # Panics
///
/// Panics with `"{what} out of range"` on a key `>= n_keys`.
fn count_keys(keys: &[u32], n_keys: usize, what: &str) -> (Vec<u32>, bool) {
    assert!(keys.len() <= u32::MAX as usize, "edge list too long for a u32 index");
    let mut indptr = take_u32(n_keys + 1);
    indptr.resize(n_keys + 1, 0);
    let counts = &mut indptr[1..];
    let (mut sorted, mut prev) = (true, 0);
    for &k in keys {
        assert!((k as usize) < counts.len(), "{what} out of range");
        counts[k as usize] += 1;
        sorted &= prev <= k;
        prev = k;
    }
    let mut sum = 0;
    for c in counts {
        sum += *c;
        *c = sum;
    }
    (indptr, sorted)
}

/// Indexes an edge list by row and hands `(indptr, idx)` to `f`: the values
/// of the edges whose key is `r` are `idx[indptr[r]..indptr[r + 1]]`, in
/// edge-list order. An edge's value is `vals[e]`, or its own position `e`
/// when `vals` is `None`.
///
/// Keys that arrive non-decreasing — every sampler's `edge_dst` does, see
/// `MfgLayer` — need no sort: `idx` is `vals` itself, untouched. Otherwise a
/// stable counting sort permutes the values into pooled scratch. Either way
/// the caller gets the same two arrays, so one row kernel serves both.
///
/// # Panics
///
/// Panics with `"{key_what} out of range"` on a key `>= n_keys` and with
/// `"edge list length mismatch"` when `vals` and `keys` differ in length.
pub(crate) fn with_csr<R>(
    keys: &[u32],
    n_keys: usize,
    key_what: &str,
    vals: Option<&[u32]>,
    f: impl FnOnce(&[u32], &[u32]) -> R,
) -> R {
    if let Some(v) = vals {
        assert_eq!(v.len(), keys.len(), "edge list length mismatch");
    }
    let (indptr, sorted) = count_keys(keys, n_keys, key_what);
    CSR_ROUTES.with(|c| {
        let mut n = c.get();
        n[usize::from(!sorted)] += 1;
        c.set(n);
    });
    let r = match vals {
        Some(v) if sorted => f(&indptr, v),
        _ => {
            let mut idx = take_u32(keys.len());
            if sorted {
                idx.extend(0..keys.len() as u32);
            } else {
                idx.resize(keys.len(), 0);
                let mut cursor = take_u32(n_keys);
                cursor.extend_from_slice(&indptr[..n_keys]);
                for (e, &k) in keys.iter().enumerate() {
                    let c = &mut cursor[k as usize];
                    idx[*c as usize] = vals.map_or(e as u32, |v| v[e]);
                    *c += 1;
                }
                put_u32(cursor);
            }
            let r = f(&indptr, &idx);
            put_u32(idx);
            r
        }
    };
    put_u32(indptr);
    r
}

// ---------------------------------------------------------------------------
// CSR aggregation: one row kernel
// ---------------------------------------------------------------------------

/// How many edges ahead of the one being summed a source row is prefetched.
/// Measured on hop 0 of the benchmark's batches (100 columns, one and two
/// threads, distances alternated pass by pass in one process): the next
/// edge's row arrives too late (1.35 ms at the inference shape on two
/// threads), 6 to 12 edges ahead are level (1.16–1.20 ms), 16 begins to lose.
const AGG_PREFETCH_EDGES: usize = 8;

/// One aggregation over a row index:
/// `out[r] = scale_r · Σ { x[idx[e]] : e ∈ indptr[r]..indptr[r + 1] }`, with
/// `scale_r = 1 / degree(r)` when `mean` (rows without edges stay zero) and
/// 1 otherwise. Forward mean/sum aggregation and both backward scatters are
/// this sum with different `(indptr, idx)`.
///
/// A row's accumulator lives in registers across all of its edges, a panel
/// of columns at a time, and the row is stored once — the output may hold
/// stale values. Every column is a plain `+=` chain in edge order starting
/// from 0.0, so a value depends neither on the panel width (the rung) nor on
/// which chunk computed it. The rows are `f32` or [`F16`] ([`Elem`]): a half
/// is widened — exactly — in the panel's load, so a sum over staged halves is
/// bit for bit the sum over their widened copy.
///
/// Built only by [`with_row_agg`], which checks what [`RowAgg::rows`] reads
/// unchecked: `indptr` is `n_keys + 1` prefix sums ending at `idx.len()`, and
/// every `idx` value is a row of `x`.
pub(crate) struct RowAgg<'a, T> {
    x: &'a [T],
    cols: usize,
    indptr: &'a [u32],
    idx: &'a [u32],
    mean: bool,
}

impl<T: Elem> RowAgg<'_, T> {
    /// Columns `[c, c + W)` of one output row.
    ///
    /// # Safety
    ///
    /// As for [`RowAgg::rows`], with `e0..e1` the row's edges,
    /// `c + W <= cols` and `orow` the start of the output row.
    #[inline(always)]
    unsafe fn panel<const W: usize, const VW: usize>(
        &self,
        (e0, e1): (usize, usize),
        c: usize,
        scale: Option<f32>,
        orow: *mut f32,
    ) {
        let (x, cols, idx) = (self.x.as_ptr(), self.cols, self.idx);
        let mut acc = [0.0f32; W];
        for e in e0..e1 {
            if c == 0 {
                // Every line of a row some edges ahead, once per edge (the
                // later panels of this row find it cached). The index is
                // clamped to the list, the address is never dereferenced.
                let ahead = (e + AGG_PREFETCH_EDGES).min(idx.len() - 1);
                let next = x.wrapping_add(*idx.get_unchecked(ahead) as usize * cols);
                for line in (0..cols).step_by(64 / size_of::<T>()) {
                    prefetch_read(next.wrapping_add(line));
                }
            }
            T::add_into::<W, VW>(&mut acc, x.add(*idx.get_unchecked(e) as usize * cols + c));
        }
        if let Some(s) = scale {
            for a in &mut acc {
                *a *= s;
            }
        }
        std::ptr::copy_nonoverlapping(acc.as_ptr(), orow.add(c), W);
    }

    /// Computes output rows `[r0, r1)` into `out`, row `r0` first: the body
    /// of one parallel chunk, and — at `VW = 1` — the portable rung (the
    /// `simd` wrappers compile this same code for AVX2 and AVX-512, with
    /// `VW` their vector width in floats).
    ///
    /// # Safety
    ///
    /// `indptr[r0..=r1]` must be non-decreasing and end `<= idx.len()`, every
    /// `idx` value must be a row of `x` (`< x.len() / cols`), `out` must
    /// cover `(r1 - r0) · cols` floats that nobody else touches, and for
    /// `VW > 1` the CPU must have that rung.
    #[inline(always)]
    unsafe fn rows<const VW: usize>(&self, r0: usize, r1: usize, out: *mut f32) {
        let cols = self.cols;
        for r in r0..r1 {
            let edges = (
                *self.indptr.get_unchecked(r) as usize,
                *self.indptr.get_unchecked(r + 1) as usize,
            );
            let scale = (self.mean && edges.1 > edges.0).then(|| 1.0 / (edges.1 - edges.0) as f32);
            let orow = out.add((r - r0) * cols);
            // The widest panel that still fits, left to right. A remainder
            // narrower than 8 is covered by an 8-wide panel that ends with
            // the row: it recomputes up to 7 columns with the same adds in
            // the same order, so it stores the same bits over them.
            let mut c = 0;
            while c < cols {
                c += match cols - c {
                    64.. => {
                        self.panel::<64, VW>(edges, c, scale, orow);
                        64
                    }
                    32.. => {
                        self.panel::<32, VW>(edges, c, scale, orow);
                        32
                    }
                    16.. => {
                        self.panel::<16, VW>(edges, c, scale, orow);
                        16
                    }
                    8.. => {
                        self.panel::<8, VW>(edges, c, scale, orow);
                        8
                    }
                    rest if cols >= 8 => {
                        self.panel::<8, VW>(edges, cols - 8, scale, orow);
                        rest
                    }
                    _ => {
                        self.panel::<1, VW>(edges, c, scale, orow);
                        1
                    }
                };
            }
        }
    }

    /// Output rows `[r0, r1)` into `out`, which holds exactly those rows, on
    /// the rung the GEMM dispatch picked for this CPU.
    fn rows_into(&self, (r0, r1): (usize, usize), out: &mut [f32]) {
        assert!(r0 <= r1 && r1 < self.indptr.len(), "aggregation rows out of range");
        assert_eq!(out.len(), (r1 - r0) * self.cols, "aggregation output rows/shape mismatch");
        let out = out.as_mut_ptr();
        // SAFETY: `with_row_agg` checked the index (see the type), the rows
        // were just checked against it, `out` is an exclusive borrow of the
        // right length, and `level()` names a rung the CPU has.
        unsafe {
            #[cfg(target_arch = "x86_64")]
            match level() {
                Level::Avx512 => return simd::agg_rows_avx512(self, r0, r1, out),
                Level::Avx2 => return simd::agg_rows_avx2(self, r0, r1, out),
                Level::Portable => {}
            }
            self.rows::<1>(r0, r1, out)
        }
    }
}

/// Indexes the edge list `(keys, vals)` by key ([`with_csr`]), checks that
/// every value is a row of `x`, and hands `f` the row kernel over it. `what`
/// names the keys and the values in panic messages.
#[expect(clippy::too_many_arguments, reason = "an aggregation is its source rows, an edge list with its extent and names, and the reduction")]
pub(crate) fn with_row_agg<T: Elem, R>(
    x: &[T],
    cols: usize,
    keys: &[u32],
    n_keys: usize,
    vals: Option<&[u32]>,
    what: [&str; 2],
    mean: bool,
    f: impl FnOnce(&RowAgg<'_, T>) -> R,
) -> R {
    // One past the largest row of `x` any edge reads.
    let rows_read = match vals {
        Some([]) => 0,
        Some(v) => v.iter().fold(0, |top, &v| top.max(v)) as usize + 1,
        None => keys.len(),
    };
    assert!(rows_read * cols <= x.len(), "{} out of range", what[1]);
    with_csr(keys, n_keys, what[0], vals, |indptr, idx| f(&RowAgg { x, cols, indptr, idx, mean }))
}

/// `out[r] = scale_r · Σ { x[vals[e]] : keys[e] = r }` for `r < n_keys`, in
/// a pooled buffer: [`RowAgg`] over chunks of output rows.
fn aggregate<T: Elem>(
    x: &[T],
    cols: usize,
    keys: &[u32],
    n_keys: usize,
    vals: Option<&[u32]>,
    what: [&str; 2],
    mean: bool,
) -> Vec<f32> {
    let mut out = take_f32_stale(n_keys * cols);
    if cols == 0 {
        return out;
    }
    let out_ptr = SendPtr(out.as_mut_ptr());
    with_row_agg(x, cols, keys, n_keys, vals, what, mean, |agg| {
        let body = |r0: usize, r1: usize| {
            // SAFETY: `out` holds n_keys·cols floats and the chunks [r0, r1)
            // ⊆ [0, n_keys) are disjoint, so each slice of whole rows is in
            // bounds and unaliased.
            let rows = unsafe { out_ptr.slice_mut(r0 * cols, (r1 - r0) * cols) };
            agg.rows_into((r0, r1), rows)
        };
        if agg.idx.len() * cols < AGG_SERIAL_CUTOFF {
            body(0, n_keys);
        } else {
            parallel_for(n_keys, AGG_MIN_CHUNK, &body);
        }
    });
    out
}

/// Rows `[r0, r1)` of a SAGE layer's linear part, a chunk of them at a time:
/// `a = mean_agg(x)` for the chunk's rows, then `o = xt · w[0]` written first
/// and `o += a · w[1]` continuing its chains. `xt`, `a` and `o` hold exactly
/// rows `[r0, r1)` (`k`, `k` and `n` wide); `xt` has the element type of the
/// rows summed, and as [`F16`] goes through the A-side packer, a chunk of at
/// most a strip at a time. One dispatch covers the aggregate and both
/// products, in chunks of at least [`MIN_CHUNK_FLOPS`], so between the three
/// steps a chunk's rows have not left the cache.
pub(crate) fn sage_rows<T: Elem>(
    agg: &RowAgg<'_, T>,
    (r0, r1): (usize, usize),
    xt: &[T],
    w: [&[f32]; 2],
    n: usize,
    a: &mut [f32],
    o: &mut [f32],
) {
    let (k, rows) = (agg.cols, r1 - r0);
    assert!(xt.len() == rows * k && a.len() == rows * k, "sage rows: operand/shape mismatch");
    assert!(o.len() == rows * n && w.iter().all(|w| w.len() == k * n), "sage rows: shape mismatch");
    let (ap, op) = (SendPtr(a.as_mut_ptr()), SendPtr(o.as_mut_ptr()));
    parallel_for(rows, min_chunk_rows(4 * k * n), &|c0, c1| {
        // SAFETY: `a` and `o` hold `rows` rows of k and n floats (asserted
        // above) and the chunks [c0, c1) ⊆ [0, rows) are disjoint, so each
        // slice of whole rows is in bounds and unaliased.
        let a = unsafe { ap.slice_mut(c0 * k, (c1 - c0) * k) };
        // SAFETY: as above.
        let o = unsafe { op.slice_mut(c0 * n, (c1 - c0) * n) };
        agg.rows_into((r0 + c0, r0 + c1), a);
        let (own, rows) = (&xt[c0 * k..c1 * k], (0, c1 - c0));
        gemm_rows(o, false, &Operands { a: own, b: w[0], ta: false, tb: false, n, k, a_cols: k, b_cols: n }, rows);
        gemm_rows(o, true, &Operands { a: &*a, b: w[1], ta: false, tb: false, n, k, a_cols: k, b_cols: n }, rows);
    });
}

/// Backward of [`gather_rows_forward`]: adds each gradient row `e` into
/// `dx[idx[e]]` — the row kernel over `idx` as keys, so no two tasks write
/// the same row and the per-row order is the edge order.
///
/// # Panics
///
/// Panics if `gd.len() != idx.len() * cols` or an index is `>= n_src`.
pub(crate) fn gather_rows_backward(gd: &[f32], cols: usize, idx: &[u32], n_src: usize) -> Vec<f32> {
    assert_eq!(gd.len(), idx.len() * cols, "gather_rows_backward shape mismatch");
    aggregate(gd, cols, idx, n_src, None, ["gather index", "gradient row"], false)
}

/// CSR scatter-aggregation: for each destination `d`,
/// `out[d] = Σ { x[s] : (s, d) ∈ edges }`, divided by the in-degree when
/// `mean` (SAGE; `false` is GIN's sum). Destinations without edges get zero
/// rows.
///
/// # Panics
///
/// Panics if the edge lists differ in length, a source is not a row of
/// `xd`, or a destination is `>= n_dst`.
pub fn scatter_reduce_forward(
    xd: &[f32],
    cols: usize,
    src: &[u32],
    dst: &[u32],
    n_dst: usize,
    mean: bool,
) -> Vec<f32> {
    aggregate(xd, cols, dst, n_dst, Some(src), ["destination id", "source id"], mean)
}

/// Backward of [`scatter_reduce_forward`]: `dx[s] = Σ { g[d] / deg(d) :
/// (s, d) ∈ edges }` (no division for the sum). For the mean, `gd` is
/// scaled by `1 / deg` in place, once per destination row — the caller
/// gives its gradient up; the sum over each source's edges is then the same
/// row kernel as the forward pass, with `src` as keys.
///
/// # Panics
///
/// Panics if the edge lists differ in length, a destination is not a row
/// of `gd`, or a source is `>= n_src`.
pub(crate) fn scatter_reduce_backward(
    gd: &mut [f32],
    cols: usize,
    src: &[u32],
    dst: &[u32],
    n_src: usize,
    mean: bool,
) -> Vec<f32> {
    let what = ["source id", "destination id"];
    if mean && cols > 0 {
        let (indptr, _) = count_keys(dst, gd.len() / cols, what[1]);
        for (grow, deg) in gd.chunks_exact_mut(cols).zip(indptr.windows(2).map(|w| w[1] - w[0])) {
            // A row without edges is read by nobody.
            let inv = 1.0 / deg.max(1) as f32;
            grow.iter_mut().for_each(|g| *g *= inv);
        }
        put_u32(indptr);
    }
    aggregate(gd, cols, src, n_src, Some(dst), what, false)
}

// ---------------------------------------------------------------------------
// Fused ReLU + dropout epilogue
// ---------------------------------------------------------------------------

/// Fused ReLU + inverted dropout, in place: `x ← max(x, 0) · [kept] / keep`.
/// Returns the survivor scale `1 / keep` that [`relu_dropout_backward`]
/// needs; no mask is stored, because an output is positive exactly when its
/// input was positive *and* kept.
///
/// One `next_u64` decides four elements: each 16-bit lane is compared with
/// `keep_q = round((1 - p) · 2¹⁶)`, so the realised keep probability is
/// `keep_q / 2¹⁶` (within 2⁻¹⁷ of `1 - p`) and `keep` above is that realised
/// value — the output mean is preserved exactly in expectation. With
/// `p == 0` this is a plain ReLU and draws nothing.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1)`.
pub fn relu_dropout_in_place(xs: &mut [f32], p: f32, rng: &mut impl crate::rng::Rng) -> f32 {
    assert!((0.0..1.0).contains(&p), "dropout probability {p} not in [0,1)");
    let keep_q = (((1.0 - p) * 65536.0).round() as u64).max(1);
    if keep_q == 65536 {
        for x in xs.iter_mut() {
            *x = x.max(0.0);
        }
        return 1.0;
    }
    let scale = 65536.0 / keep_q as f32;
    let mut quad = |quad: &mut [f32]| {
        let lanes = rng.next_u64();
        for (i, x) in quad.iter_mut().enumerate() {
            let kept = ((lanes >> (16 * i)) & 0xFFFF < keep_q) & (*x > 0.0);
            // Branch-free select: an all-ones mask keeps the scaled value.
            *x = f32::from_bits((*x * scale).to_bits() & (kept as u32).wrapping_neg());
        }
    };
    // `chunks_exact_mut` hands the compiler a fixed four-element body
    // (twice as fast as `chunks_mut` here); a shorter tail takes one draw.
    let mut quads = xs.chunks_exact_mut(4);
    (&mut quads).for_each(&mut quad);
    let tail = quads.into_remainder();
    if !tail.is_empty() {
        quad(tail);
    }
    scale
}

/// Backward of [`relu_dropout_in_place`], in place on the gradient:
/// `g ← g · [out > 0] · scale`.
///
/// # Panics
///
/// Panics if the two buffers differ in length.
pub(crate) fn relu_dropout_backward(g: &mut [f32], out: &[f32], scale: f32) {
    assert_eq!(g.len(), out.len(), "relu_dropout_backward shape mismatch");
    for (g, &o) in g.iter_mut().zip(out) {
        *g = if o > 0.0 { *g * scale } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::FeatureRows;
    use crate::rng::{Rng, StdRng};

    fn rand_tensor(r: usize, c: usize, rng: &mut StdRng) -> Tensor {
        Tensor::from_vec(
            (0..r * c).map(|_| rng.random_range(-2.0f32..2.0)).collect(),
            Shape::matrix(r, c),
        )
    }

    fn max_rel_diff(a: &Tensor, b: &Tensor) -> f32 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
            .fold(0.0, f32::max)
    }

    #[test]
    fn blocked_gemm_matches_naive_over_random_shapes() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for case in 0..60 {
            let m = rng.random_range(1usize..90);
            let k = rng.random_range(1usize..90);
            let n = rng.random_range(1usize..90);
            let (ta, tb) = (case % 2 == 1, (case / 2) % 2 == 1);
            let a = if ta { rand_tensor(k, m, &mut rng) } else { rand_tensor(m, k, &mut rng) };
            let b = if tb { rand_tensor(n, k, &mut rng) } else { rand_tensor(k, n, &mut rng) };
            let fast = gemm(&a, &b, ta, tb);
            let slow = gemm_naive(&a, &b, ta, tb);
            let diff = max_rel_diff(&fast, &slow);
            assert!(
                diff < 1e-4,
                "case {case} ({m}x{k}x{n}, ta={ta}, tb={tb}): rel diff {diff}"
            );
        }
    }

    #[test]
    fn blocked_gemm_exercises_multiple_blocks() {
        // Shapes straddling the MC/KC/NC boundaries.
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(MC + 3, KC + 5, NC + 1), (2 * MC, 2 * KC, 7), (1, KC * 2 + 3, NC)] {
            let a = rand_tensor(m, k, &mut rng);
            let b = rand_tensor(k, n, &mut rng);
            let diff = max_rel_diff(&gemm(&a, &b, false, false), &gemm_naive(&a, &b, false, false));
            assert!(diff < 1e-4, "{m}x{k}x{n}: rel diff {diff}");
        }
    }

    #[test]
    fn transposed_a_kmajor_path_straddles_blocks() {
        // The K-major A pack (backward-pass dW = Aᵀ·g shape) across multiple
        // MC/KC blocks, against the naive reference.
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [(MC + 5, KC + 9, 33), (2 * MC + 1, KC / 2 + 3, NC + 7)] {
            let a = rand_tensor(k, m, &mut rng); // physical k×m, ta = true
            let b = rand_tensor(k, n, &mut rng);
            let diff = max_rel_diff(&gemm(&a, &b, true, false), &gemm_naive(&a, &b, true, false));
            assert!(diff < 1e-4, "{m}x{k}x{n} (ta): rel diff {diff}");
        }
    }

    /// An `F16` left operand against an `f32` right one read in place — the
    /// self term and `dW_self` of a layer over staged halves — accumulated
    /// by [`gemm_acc`] onto zeros and onto a filled buffer, bit for bit the
    /// f32 GEMM of the widened operand. The small shapes fit one pack block,
    /// which [`pack_a`] widens in one piece; the last two (`m > MC`
    /// transposed, `k > KC`) take its row-by-row loop.
    #[test]
    fn half_by_f32_gemm_matches_the_gemm_of_the_widened_operand() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n, ta, tb) in &[
            (40, 33, 25, false, false),
            (33, 40, 25, true, false),
            (40, 33, 25, false, true),
            (2 * MC + 44, 100, 47, true, false),
            (40, KC + 44, 25, false, false),
        ] {
            let (ar, ac) = if ta { (k, m) } else { (m, k) };
            let ah: Vec<F16> = (0..ar * ac)
                .map(|_| F16::from_f32(rng.random_range(-2.0f32..2.0)))
                .collect();
            let aw = Tensor::from_vec(ah.iter().map(|h| h.to_f32()).collect(), Shape::matrix(ar, ac));
            let b = if tb { rand_tensor(n, k, &mut rng) } else { rand_tensor(k, n, &mut rng) };
            let mut mixed = vec![0.0f32; m * n];
            gemm_acc(&mut mixed, &ah, b.data(), ta, tb, m, n, k);
            let full = gemm(&aw, &b, ta, tb);
            assert_eq!(mixed, full.data(), "{m}x{k}x{n} ta={ta} tb={tb}");
            let mut mixed = rand_tensor(m, n, &mut rng);
            let mut full = mixed.clone();
            gemm_acc(mixed.data_mut(), &ah, b.data(), ta, tb, m, n, k);
            gemm_acc(full.data_mut(), aw.data(), b.data(), ta, tb, m, n, k);
            assert_eq!(mixed.data(), full.data(), "accumulated, {m}x{k}x{n} ta={ta} tb={tb}");
        }
    }

    /// The documented elementwise bound of a half GEMM against the f32 GEMM
    /// of the unrounded operands, relative to the magnitude matrix |A|·|B|
    /// (DESIGN.md, precision policy): each half operand carries at most one
    /// rounding (relative error ≤ 2⁻¹¹), two of them at most double it, and
    /// the extra 0.5·2⁻¹¹ covers fp32 accumulation order.
    const HALF_GEMM_REL_BOUND: f32 = 2.5 * (1.0 / 2048.0);
    /// One half operand's rounding, the share of [`HALF_GEMM_REL_BOUND`]
    /// that an `f32` B does not take.
    const ONE_ROUNDING: f32 = 1.0 / 2048.0;

    /// The half-input GEMM hop 0 of a staged batch runs (an [`F16`] A
    /// through [`gemm_acc`], `f32` B) inside its share of the documented
    /// bound, one rounding plus the accumulation headroom (1.5·2⁻¹¹), at
    /// 602, 256 and 100 feature columns: at full size (1 024 rows, hidden
    /// 256 / 256 / 47) in a release build, which the release tensor tier
    /// runs on every rung; with fewer rows and columns in a debug build.
    #[test]
    fn half_gemm_within_documented_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        let shapes = if cfg!(debug_assertions) {
            [(192, 602, 64), (128, 256, 96), (256, 100, 47)]
        } else {
            [(1024, 602, 256), (1024, 256, 256), (1024, 100, 47)]
        };
        for (m, k, n) in shapes {
            let a = rand_tensor(m, k, &mut rng);
            let b = rand_tensor(k, n, &mut rng);
            let full = gemm(&a, &b, false, false);
            let mut half = vec![0.0f32; m * n];
            gemm_acc(&mut half, &crate::f16::quantize(a.data()), b.data(), false, false, m, n, k);
            let abs = |t: &Tensor| Tensor::from_vec(t.data().iter().map(|v| v.abs()).collect(), t.shape().clone());
            let mag = gemm(&abs(&a), &abs(&b), false, false);
            for ((h, f), g) in half.iter().zip(full.data()).zip(mag.data()) {
                let err = (h - f).abs();
                let bound = (HALF_GEMM_REL_BOUND - ONE_ROUNDING) * g + 1e-6;
                assert!(err <= bound, "{m}x{k}x{n}: |{h} - {f}| = {err} > {bound}");
            }
        }
    }

    /// Every GEMM rung this host can run (the process-wide dispatch picks
    /// one of them for good).
    fn levels() -> Vec<Level> {
        let (avx2, avx512) = host_rungs();
        let mut levels = vec![Level::Portable];
        levels.extend(avx2.then_some(Level::Avx2));
        levels.extend(avx512.then_some(Level::Avx512));
        levels
    }

    /// The fully packed GEMM, the reference for the in-place one: a
    /// zero-filled output, both `f32` operands *copied* into contiguous
    /// panels per (column block, K block, MC rows) and every block
    /// accumulated — on rung `lvl` of the tiles that ship.
    fn gemm_packed(lvl: Level, a: &[f32], b: &[f32], ta: bool, tb: bool, (m, n, k): (usize, usize, usize)) -> Vec<f32> {
        let (a_cols, b_cols) = (if ta { m } else { k }, if tb { k } else { n });
        let ops = Operands { a, b, ta, tb, n, k, a_cols, b_cols };
        let mut out = vec![0.0f32; m * n];
        let (mut apack, mut bpack) = (Vec::new(), Vec::new());
        for jc in (0..n).step_by(NC) {
            let ncb = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kcb = KC.min(k - pc);
                pack_b(&mut bpack, &ops, (pc, kcb), (jc, ncb));
                for i0 in (0..m).step_by(MC) {
                    let mb = MC.min(m - i0);
                    pack_a(&mut apack, &ops, (i0, mb), (pc, kcb));
                    let (ap, bp) = ((&apack[..], if ta { mb } else { kcb }), (&bpack[..], ncb));
                    // SAFETY: `levels` lists only rungs the CPU has.
                    unsafe { gemm_block(lvl, (ap, ta), bp, (&mut out[i0 * n + jc..], n), (mb, kcb, ncb), true) };
                }
            }
        }
        out
    }

    const EXTENTS: [usize; 8] = [1, 7, 8, 9, 47, 100, 129, 300];

    #[test]
    fn in_place_gemm_equals_the_packed_gemm_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x1A7);
        let pick = |rng: &mut StdRng| EXTENTS[rng.random_range(0..EXTENTS.len())];
        for case in 0..48 {
            let (m, n, k) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let (ta, tb) = (case % 2 == 1, (case / 2) % 2 == 1);
            let ((ar, ac), (br, bc)) = (if ta { (k, m) } else { (m, k) }, if tb { (n, k) } else { (k, n) });
            // Operands that are row-prefix views of longer buffers.
            let a = rand_tensor(ar + 3, ac, &mut rng).narrow_rows(ar);
            let b = rand_tensor(br + 5, bc, &mut rng).narrow_rows(br);
            let what = format!("case {case} ({m}x{k}x{n}, ta={ta}, tb={tb})");
            let before = PACKS.get();
            let fast = gemm(&a, &b, ta, tb);
            let packs = PACKS.get();
            // A product of one chunk runs, and counts, on this thread.
            if 2 * m * n * k <= MIN_CHUNK_FLOPS {
                assert_eq!(packs[0], before[0], "an f32 A panel was packed, {what}");
                assert_eq!(packs[1] > before[1], tb, "B is packed exactly when transposed, {what}");
            }
            let want = gemm_packed(level(), a.data(), b.data(), ta, tb, (m, n, k));
            assert_eq!(bits(fast.data()), bits(&want), "{what}");
            // One FMA per K step per element on either vector rung.
            if let [_, avx2, avx512] = levels()[..] {
                let by = |lvl| bits(&gemm_packed(lvl, a.data(), b.data(), ta, tb, (m, n, k)));
                assert_eq!(by(avx2), by(avx512), "avx2 against avx512, {what}");
            }
        }
    }

    #[test]
    fn micro_kernel_rungs_agree() {
        // A block in the middle of larger operands: lda > kcb, ldb > ncb,
        // ldc > ncb, on every rung's tiles directly, against the same block
        // on packed copies of the panels. What lies around the block in C
        // must survive.
        let mut rng = StdRng::seed_from_u64(0xAB5);
        for (mb, kcb, ncb) in [(13, 37, 41), (8, 100, 32), (1, 1, 1), (100, 9, 47), (7, 256, 129), (4, 3, 15)] {
            let (lda, ldb, ldc) = (kcb.max(mb) + 5, ncb + 3, ncb + 7);
            let mut values = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect() };
            let (a, b, c0) = (values((mb.max(kcb) + 2) * lda), values((kcb + 2) * ldb), values((mb + 2) * ldc));
            let (a_at, b_at, c_at) = (lda + 2, ldb + 1, ldc + 3);
            let mut by_level = Vec::new();
            for lvl in levels() {
                for kmajor in [false, true] {
                    let apack: Vec<f32> = match kmajor {
                        false => (0..mb * kcb).map(|q| a[a_at + q / kcb * lda + q % kcb]).collect(),
                        true => (0..kcb * mb).map(|q| a[a_at + q / mb * lda + q % mb]).collect(),
                    };
                    let bpack: Vec<f32> = (0..kcb * ncb).map(|q| b[b_at + q / ncb * ldb + q % ncb]).collect();
                    for acc in [false, true] {
                        let what = format!("{lvl:?}, {mb}x{kcb}x{ncb}, kmajor {kmajor}, acc {acc}");
                        let (mut c, mut want) = (c0.clone(), c0.clone());
                        let (ap, bp) = ((&a[a_at..], lda), (&b[b_at..], ldb));
                        let packed = ((&apack[..], if kmajor { mb } else { kcb }), (&bpack[..], ncb));
                        // SAFETY: `levels` lists only rungs the CPU has.
                        unsafe {
                            gemm_block(lvl, (ap, kmajor), bp, (&mut c[c_at..], ldc), (mb, kcb, ncb), acc);
                            gemm_block(lvl, (packed.0, kmajor), packed.1, (&mut want[c_at..], ldc), (mb, kcb, ncb), acc);
                        }
                        assert_eq!(bits(&c), bits(&want), "{what}");
                        let inside = |q: usize| q >= c_at && (q - c_at) / ldc < mb && (q - c_at) % ldc < ncb;
                        assert!((0..c.len()).all(|q| inside(q) || c[q].to_bits() == c0[q].to_bits()), "wrote outside the block, {what}");
                        by_level.push((lvl, kmajor, acc, c));
                    }
                }
            }
            // The vector rungs agree bit for bit; the portable kernel groups
            // four products per add, so it gets a tolerance.
            let of = |lvl: Level| by_level.iter().filter(move |r| r.0 == lvl).map(|r| &r.3);
            for (x, y) in of(Level::Avx2).zip(of(Level::Avx512)) {
                assert_eq!(bits(x), bits(y), "avx2 against avx512, {mb}x{kcb}x{ncb}");
            }
            for (x, y) in of(Level::Portable).zip(of(level())) {
                assert!(x.iter().zip(y).all(|(p, v)| (p - v).abs() <= 1e-4), "portable against {:?}, {mb}x{kcb}x{ncb}", level());
            }
        }
    }

    #[test]
    fn write_first_equals_zero_fill_then_accumulate() {
        let mut rng = StdRng::seed_from_u64(0xF1257);
        // One block per rung, columns of signed zeros included: with every
        // a = -1, column 0 of b all +0.0 and column 1 all -0.0, the chains
        // are 0 + (-1 · 0) = +0.0 and stay there, as from a zeroed C.
        for (mb, kcb, ncb) in [(13, 37, 41), (8, 8, 32), (3, 1, 2)] {
            let a = vec![-1.0f32; mb * kcb];
            let mut b: Vec<f32> = (0..kcb * ncb).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            for p in 0..kcb {
                (b[p * ncb], b[p * ncb + 1]) = (0.0, -0.0);
            }
            for lvl in levels() {
                for kmajor in [false, true] {
                    let (ap, bp) = ((&a[..], if kmajor { mb } else { kcb }), (&b[..], ncb));
                    // A stale buffer may hold anything.
                    let (mut first, mut zeroed) = (vec![f32::NAN; mb * ncb], vec![0.0f32; mb * ncb]);
                    // SAFETY: `levels` lists only rungs the CPU has.
                    unsafe {
                        gemm_block(lvl, (ap, kmajor), bp, (&mut first, ncb), (mb, kcb, ncb), false);
                        gemm_block(lvl, (ap, kmajor), bp, (&mut zeroed, ncb), (mb, kcb, ncb), true);
                    }
                    assert_eq!(bits(&first), bits(&zeroed), "{lvl:?}, {mb}x{kcb}x{ncb}, kmajor {kmajor}");
                    for i in 0..mb {
                        assert_eq!(bits(&first[i * ncb..i * ncb + 2]), [0, 0], "{lvl:?}: -1 · ±0 summed from +0.0 is +0.0");
                    }
                }
            }
        }
        // The entry points, across several K and column blocks and chunks.
        for (case, (m, n, k)) in [(70, NC + 9, 2 * KC + 3), (300, 47, 100), (5, 3, 0), (0, 4, 4)].into_iter().enumerate() {
            let (ta, tb) = (case % 2 == 1, case >= 2);
            let (a, b) = (rand_tensor(m, k, &mut rng), rand_tensor(k, n, &mut rng));
            let (mut first, mut zeroed) = (vec![f32::NAN; m * n], vec![0.0f32; m * n]);
            let (a_cols, b_cols) = (if ta { m } else { k }, if tb { k } else { n });
            gemm_into(&mut first, false, &Operands { a: a.data(), b: b.data(), ta, tb, n, k, a_cols, b_cols }, m);
            gemm_acc(&mut zeroed, a.data(), b.data(), ta, tb, m, n, k);
            assert_eq!(bits(&first), bits(&zeroed), "{m}x{k}x{n}, ta={ta}, tb={tb}");
            assert_eq!(bits(gemm(&a.reshape(if ta { [k, m] } else { [m, k] }), &b.reshape(if tb { [n, k] } else { [k, n] }), ta, tb).data()), bits(&zeroed));
        }
    }

    #[test]
    fn sage_rows_equal_the_public_kernels_at_any_cut() {
        let mut rng = StdRng::seed_from_u64(0x5A6E);
        let (n_dst, n_src, n_edges, k) = (61, 83, 700, 20);
        let values = |n: usize, rng: &mut StdRng| -> Vec<f32> { (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect() };
        for n in [30, 47, 128] {
            let (x, ws, wn) = (values(n_src * k, &mut rng), values(k * n, &mut rng), values(k * n, &mut rng));
            for (case, dst, src) in edge_cases(n_dst, n_src, n_edges, &mut rng) {
                let xt = &x[..n_dst * k];
                let want_agg = scatter_reduce_forward(&x, k, &src, &dst, n_dst, true);
                let mut want = vec![0.0f32; n_dst * n];
                gemm_acc(&mut want, xt, &ws, false, false, n_dst, n, k);
                gemm_acc(&mut want, &want_agg, &wn, false, false, n_dst, n, k);
                // The row range cut at two arbitrary places: a chunk is
                // whatever the pool's width makes it.
                let (c0, c1) = (rng.random_range(0..=n_dst), rng.random_range(0..=n_dst));
                let cuts = [0, c0.min(c1), c0.max(c1), n_dst];
                let (mut agg, mut out) = (vec![f32::NAN; n_dst * k], vec![f32::NAN; n_dst * n]);
                with_row_agg(&x, k, &dst, n_dst, Some(&src), ["destination id", "source id"], true, |rows| {
                    for w in cuts.windows(2) {
                        let (r0, r1) = (w[0], w[1]);
                        sage_rows(rows, (r0, r1), &xt[r0 * k..r1 * k], [&ws, &wn], n, &mut agg[r0 * k..r1 * k], &mut out[r0 * n..r1 * n]);
                    }
                });
                assert_eq!(bits(&agg), bits(&want_agg), "aggregate, {n} wide, {case}, cuts {cuts:?}");
                assert_eq!(bits(&out), bits(&want), "output, {n} wide, {case}, cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn csr_index_is_stable_and_complete() {
        // Unsorted keys: a stable counting sort of the values.
        let keys = [2u32, 0, 2, 1, 0, 2];
        let vals = [10u32, 11, 12, 13, 14, 15];
        let before = csr_index_routes();
        with_csr(&keys, 4, "key", Some(&vals), |indptr, idx| {
            assert_eq!(indptr, &[0, 2, 3, 6, 6]);
            assert_eq!(idx, &[11, 14, 13, 10, 12, 15]);
        });
        // No values: an edge stands for its own position.
        with_csr(&keys, 4, "key", None, |indptr, idx| {
            assert_eq!(indptr, &[0, 2, 3, 6, 6]);
            assert_eq!(idx, &[1, 4, 3, 0, 2, 5]);
        });
        // Non-decreasing keys: the values are handed over where they lie.
        let keys = [0u32, 0, 1, 3, 3, 3];
        with_csr(&keys, 5, "key", Some(&vals), |indptr, idx| {
            assert_eq!(indptr, &[0, 2, 3, 3, 6, 6]);
            assert_eq!(idx.as_ptr(), vals.as_ptr(), "the identity route must not copy");
        });
        with_csr(&keys, 5, "key", None, |_, idx| assert_eq!(idx, &[0, 1, 2, 3, 4, 5]));
        let after = csr_index_routes();
        assert_eq!([after[0] - before[0], after[1] - before[1]], [2, 2]);
    }

    /// The scalar edge walk the row kernel must reproduce bit for bit, and
    /// the only other implementation of the aggregation: every edge adds
    /// `x[vals[e]]` (times `val_scale[vals[e]]`, the way the mean's backward
    /// pass used to weigh an edge) into row `keys[e]` of a zeroed output, in
    /// edge-list order; `mean` then multiplies each row by one over its
    /// edge count.
    fn edge_walk(
        x: &[f32],
        cols: usize,
        keys: &[u32],
        n_keys: usize,
        vals: Option<&[u32]>,
        val_scale: Option<&[f32]>,
        mean: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; n_keys * cols];
        let mut counts = vec![0.0f32; n_keys];
        for (e, &k) in keys.iter().enumerate() {
            let (k, v) = (k as usize, vals.map_or(e, |v| v[e] as usize));
            counts[k] += 1.0;
            for c in 0..cols {
                out[k * cols + c] += match val_scale {
                    Some(w) => w[v] * x[v * cols + c],
                    None => x[v * cols + c],
                };
            }
        }
        if mean {
            for (orow, &n) in out.chunks_exact_mut(cols).zip(&counts) {
                if n > 0.0 {
                    let inv = 1.0 / n;
                    orow.iter_mut().for_each(|o| *o *= inv);
                }
            }
        }
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    // SAFETY: a rung is called under the contract of `RowAgg::rows`, on a
    // CPU that has the rung's vector extension.
    type Rung<T> = unsafe fn(&RowAgg<'_, T>, usize, usize, *mut f32);

    /// Every rung of the row kernel this host can run, called directly (the
    /// process-wide dispatch picks one of them for good).
    fn rungs<T: Elem>() -> Vec<(&'static str, Rung<T>)> {
        // SAFETY: the caller of a `Rung` upholds the contract of `rows`.
        let portable: Rung<T> = |agg, r0, r1, out| unsafe { agg.rows::<1>(r0, r1, out) };
        let mut rungs = vec![("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        {
            let (avx2, avx512) = host_rungs();
            rungs.extend(avx2.then_some(("avx2", simd::agg_rows_avx2::<T> as Rung<T>)));
            rungs.extend(avx512.then_some(("avx512", simd::agg_rows_avx512::<T> as Rung<T>)));
        }
        rungs
    }

    /// Rows `cuts[i]..cuts[i + 1]` of `agg`, chunk by chunk, on every rung.
    fn by_every_rung<T: Elem>(agg: &RowAgg<'_, T>, cuts: &[usize]) -> Vec<(&'static str, Vec<u32>)> {
        let rows_of = |rows: Rung<T>| {
            // Stale, as the pooled output buffer is.
            let mut out = vec![f32::NAN; (agg.indptr.len() - 1) * agg.cols];
            for w in cuts.windows(2) {
                // SAFETY: the callers' index comes from `with_csr` over
                // values drawn below `x`'s rows, `out` holds a row a key, of
                // which a chunk gets its own, and `rungs` lists only what
                // the CPU supports.
                unsafe { rows(agg, w[0], w[1], out[w[0] * agg.cols..].as_mut_ptr()) };
            }
            bits(&out)
        };
        rungs().into_iter().map(|(rung, rows)| (rung, rows_of(rows))).collect()
    }

    /// Edge lists `(name, keys, vals)` over `n_keys` rows reading `n_vals`
    /// rows, one for each way the index pass and the row loop can be met.
    fn edge_cases(n_keys: usize, n_vals: usize, n_edges: usize, rng: &mut StdRng) -> Vec<(&'static str, Vec<u32>, Vec<u32>)> {
        let mut draw = |n: usize, below: usize| -> Vec<u32> {
            (0..n).map(|_| rng.random_range(0..below as u32)).collect()
        };
        let mut sorted = draw(n_edges, n_keys);
        sorted.sort_unstable();
        // Keys on every third row only: runs of empty rows in between and
        // at the end.
        let gappy: Vec<u32> = sorted.iter().map(|&k| k / 3 * 3).collect();
        let mut to_last = sorted.clone();
        *to_last.last_mut().unwrap() = n_keys as u32 - 1;
        vec![
            ("sorted", sorted, draw(n_edges, n_vals)),
            ("shuffled", draw(n_edges, n_keys), draw(n_edges, n_vals)),
            ("sorted with empty rows", gappy, draw(n_edges, n_vals)),
            ("zero edges", vec![], vec![]),
            ("last key = n - 1", to_last, draw(n_edges, n_vals)),
            ("one row", vec![n_keys as u32 / 2; n_edges], draw(n_edges, n_vals)),
        ]
    }

    const COLS: [usize; 13] = [1, 7, 8, 9, 15, 16, 17, 47, 64, 100, 128, 129, 300];

    #[test]
    fn every_rung_matches_the_edge_walk_bitwise_at_any_chunking() {
        let mut rng = StdRng::seed_from_u64(0xA66);
        let (n_keys, n_vals, n_edges) = (61, 83, 700);
        for cols in COLS {
            // Exact halves, so the same sums are asked of both element types.
            let xh = crate::f16::quantize(&(0..n_vals * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect::<Vec<_>>());
            let x = FeatureRows::Half(&xh).to_f32_vec();
            for (case, keys, vals) in edge_cases(n_keys, n_vals, n_edges, &mut rng) {
                for mean in [false, true] {
                    let want = bits(&edge_walk(&x, cols, &keys, n_keys, Some(&vals), None, mean));
                    // The row range cut at two arbitrary places: a chunk is
                    // whatever the pool's width makes it.
                    let (a, b) = (rng.random_range(0..=n_keys), rng.random_range(0..=n_keys));
                    let cuts = [0, a.min(b), a.max(b), n_keys];
                    with_csr(&keys, n_keys, "key", Some(&vals), |indptr, idx| {
                        let full = by_every_rung(&RowAgg { x: &x[..], cols, indptr, idx, mean }, &cuts);
                        let half = by_every_rung(&RowAgg { x: &xh[..], cols, indptr, idx, mean }, &cuts);
                        for (elem, (rung, out)) in full.iter().map(|r| ("f32", r)).chain(half.iter().map(|r| ("f16", r))) {
                            assert_eq!(out, &want, "{elem} rows, {rung}, {cols} cols, {case}, mean {mean}, cuts {cuts:?}");
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn aggregation_entry_points_match_the_edge_walk_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xE417);
        // The small shape stays under AGG_SERIAL_CUTOFF for narrow rows; the
        // large one is hop 0 of an inference batch (a tenth of it in a debug
        // build) and always goes through the pool.
        let large = if cfg!(debug_assertions) { (900, 1_000, 14_000) } else { (9_036, 9_970, 147_000) };
        for ((n_dst, n_src, n_edges), cols_list) in [((61, 83, 700), &COLS[..]), (large, &[100][..])] {
            for &cols in cols_list {
                // Exact halves: the packed rows must sum to the same bits.
                let xh = crate::f16::quantize(&(0..n_src * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect::<Vec<_>>());
                let x = FeatureRows::Half(&xh).to_f32_vec();
                let g: Vec<f32> = (0..n_dst * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                for (case, dst, src) in edge_cases(n_dst, n_src, n_edges, &mut rng) {
                    let what = format!("{cols} cols, {case}, {n_edges} edges");
                    for mean in [false, true] {
                        let got = scatter_reduce_forward(&x, cols, &src, &dst, n_dst, mean);
                        let want = edge_walk(&x, cols, &dst, n_dst, Some(&src), None, mean);
                        assert_eq!(bits(&got), bits(&want), "forward, mean {mean}, {what}");
                        let got = aggregate(&xh[..], cols, &dst, n_dst, Some(&src), ["destination id", "source id"], mean);
                        assert_eq!(bits(&got), bits(&want), "forward over f16 rows, mean {mean}, {what}");
                    }
                    // Backward: sources are the keys. The mean weighs every
                    // edge by one over its destination's degree.
                    let got = scatter_reduce_backward(&mut g.clone(), cols, &src, &dst, n_src, false);
                    let want = edge_walk(&g, cols, &src, n_src, Some(&dst), None, false);
                    assert_eq!(bits(&got), bits(&want), "sum backward, {what}");
                    let mut inv_deg = vec![0.0f32; n_dst];
                    dst.iter().for_each(|&d| inv_deg[d as usize] += 1.0);
                    inv_deg.iter_mut().for_each(|n| *n = 1.0 / *n);
                    let got = scatter_reduce_backward(&mut g.clone(), cols, &src, &dst, n_src, true);
                    let want = edge_walk(&g, cols, &src, n_src, Some(&dst), Some(&inv_deg), false);
                    assert_eq!(bits(&got), bits(&want), "mean backward, {what}");
                    // Gather backward: gradient row e goes to row src[e].
                    let ge: Vec<f32> = (0..src.len() * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                    let got = gather_rows_backward(&ge, cols, &src, n_src);
                    let want = edge_walk(&ge, cols, &src, n_src, None, None, false);
                    assert_eq!(bits(&got), bits(&want), "gather backward, {what}");
                    let got = gather_rows_backward(&ge, cols, &dst, n_dst);
                    let want = edge_walk(&ge, cols, &dst, n_dst, None, None, false);
                    assert_eq!(bits(&got), bits(&want), "gather backward by sorted index, {what}");
                }
            }
        }
    }

    // The row kernel reads rows unchecked, so every id is checked before it,
    // in release builds too, on the identity route (sorted keys) as well.
    #[test]
    #[should_panic(expected = "source id out of range")]
    fn scatter_forward_rejects_a_source_beyond_x() {
        let x = vec![0.0f32; 4]; // 2 rows × 2 cols
        scatter_reduce_forward(&x, 2, &[0, 2], &[0, 1], 2, true);
    }

    #[test]
    #[should_panic(expected = "destination id out of range")]
    fn scatter_forward_rejects_a_destination_beyond_n_dst() {
        let x = vec![0.0f32; 4];
        scatter_reduce_forward(&x, 2, &[0, 1], &[0, 2], 2, true);
    }

    #[test]
    #[should_panic(expected = "destination id out of range")]
    fn scatter_backward_rejects_a_destination_beyond_g() {
        let mut g = vec![0.0f32; 4];
        scatter_reduce_backward(&mut g, 2, &[0, 1], &[0, 2], 2, true);
    }

    #[test]
    #[should_panic(expected = "source id out of range")]
    fn scatter_backward_rejects_a_source_beyond_n_src() {
        let mut g = vec![0.0f32; 4];
        scatter_reduce_backward(&mut g, 2, &[0, 2], &[0, 1], 2, false);
    }

    #[test]
    #[should_panic(expected = "gather index out of range")]
    fn gather_backward_rejects_an_index_beyond_n_src() {
        let g = vec![0.0f32; 4];
        gather_rows_backward(&g, 2, &[0, 2], 2);
    }

    #[test]
    #[should_panic(expected = "edge list length mismatch")]
    fn scatter_forward_rejects_unpaired_edge_lists() {
        let x = vec![0.0f32; 4];
        scatter_reduce_forward(&x, 2, &[0, 1], &[0], 2, false);
    }

    #[test]
    fn gather_forward_and_backward() {
        let x: Vec<f32> = (0..6).map(|v| v as f32).collect(); // 3 rows × 2 cols
        let idx = [2u32, 0, 2];
        let out = gather_rows_forward(&x, 2, &idx);
        assert_eq!(out, vec![4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        let g = vec![1.0f32; 6];
        let dx = gather_rows_backward(&g, 2, &idx, 3);
        assert_eq!(dx, vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_f16_matches_widened_f32_gather() {
        let mut rng = StdRng::seed_from_u64(33);
        // Both below and above AGG_SERIAL_CUTOFF to cover serial + parallel.
        for (rows, cols, picks) in [(50, 17, 40), (400, 64, 2000)] {
            let xh: Vec<F16> = (0..rows * cols)
                .map(|_| F16::from_f32(rng.random_range(-4.0f32..4.0)))
                .collect();
            let xw: Vec<f32> = xh.iter().map(|h| h.to_f32()).collect();
            let idx: Vec<u32> = (0..picks).map(|_| rng.random_range(0..rows as u32)).collect();
            let half = gather_rows_forward_f16(&xh, cols, &idx);
            let full = gather_rows_forward(&xw, cols, &idx);
            assert_eq!(half, full, "{rows}x{cols}, {picks} picks");
        }
    }

    #[test]
    fn gemm_determinism_across_repeated_calls() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = rand_tensor(300, 500, &mut rng);
        let b = rand_tensor(500, 200, &mut rng);
        let first = gemm(&a, &b, false, false);
        for _ in 0..3 {
            assert_eq!(first.data(), gemm(&a, &b, false, false).data());
        }
    }
}
