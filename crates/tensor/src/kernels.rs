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
//! * **GEMM** is blocked (MC×KC×NC) with the `op(B)` panel packed into a
//!   contiguous buffer once per (K-block, N-block) and `op(A)` packed per
//!   row block into thread-local scratch, so all four transpose variants
//!   run the same unit-stride inner kernel. Packing is generic over the
//!   element type ([`GemmElem`]): `F16` operands are widened to `f32`
//!   *during packing* (bulk F16C kernels on contiguous rows), so the inner
//!   micro-kernel — and the fp32 accumulation order — is identical for half
//!   and full precision inputs. On x86-64 the micro-kernel is selected at
//!   runtime (no compile-time flags needed): an AVX-512 8-row × 32-column
//!   register tile where the CPU has AVX-512F, else an AVX2 + FMA 4×16
//!   tile, else a portable 4-way K-unrolled loop. Both vector kernels
//!   software-prefetch the packed-B panel a few K steps ahead.
//! * **Transposed A** (`ta = true`, the `dW = Aᵀ·g` backward shape) packs
//!   the A panel K-major instead of row-major: the pack then copies (and
//!   for `F16` bulk-widens) contiguous source rows instead of striding,
//!   and the micro-kernel reads `apack[p*mb + i]` — same FLOPs, no strided
//!   scalar pack loop.
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
//!   per-edge loop reads rows unchecked.

#![expect(
    clippy::indexing_slicing,
    reason = "pack and micro-kernel loops index inside shapes asserted at the GEMM entry; hoisted slices keep the checks elidable"
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
        // sampler's edge lists grow by doubling to 1-2 MiB at fanouts
        // 20,20,20; mapping those afresh cost `infer_sweep` 10 %), below
        // dataset arrays and the large pool classes.
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

/// Best-effort read prefetch (no-op off x86-64). Purely a scheduling hint.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
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

/// Row block assigned to one parallel task.
const MC: usize = 64;
/// K (inner-dimension) block; the packed B panel holds KC×NC floats.
const KC: usize = 256;
/// Column block: KC×NC×4 bytes = 256 KiB keeps the panel L2-resident.
const NC: usize = 256;

/// Below this many multiply-adds the blocked/parallel machinery costs more
/// than it saves; fall back to the straightforward loop.
const GEMM_SERIAL_FLOP_CUTOFF: usize = 1 << 15;

/// A GEMM operand element: either `f32` (copied while packing) or [`F16`]
/// (widened to `f32` while packing, via the bulk F16C kernels on contiguous
/// runs). Packing is where precision ends: past it the micro-kernel only
/// ever sees `f32` panels, so accumulation is always fp32.
trait GemmElem: Copy + Send + Sync {
    /// Appends `src`, widened to `f32`, onto `dst` (contiguous bulk path).
    fn widen_append(src: &[Self], dst: &mut Vec<f32>);
    /// Single-element widened read, for strided (transposed-B) packs.
    fn at(d: &[Self], i: usize) -> f32;
}

impl GemmElem for f32 {
    #[inline]
    fn widen_append(src: &[f32], dst: &mut Vec<f32>) {
        dst.extend_from_slice(src);
    }
    #[inline]
    fn at(d: &[f32], i: usize) -> f32 {
        d[i]
    }
}

impl GemmElem for F16 {
    #[inline]
    fn widen_append(src: &[F16], dst: &mut Vec<f32>) {
        let old = dst.len();
        dst.resize(old + src.len(), 0.0);
        crate::f16::widen_into(src, &mut dst[old..]);
    }
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "strided transposed-B packing reads one element per cache line; the contiguous pack paths all use widen_append")]
    fn at(d: &[F16], i: usize) -> f32 {
        d[i].to_f32()
    }
}

/// Dense matrix multiply `op(a) * op(b)` where `op` optionally transposes.
///
/// Shapes: with `ta = tb = false`, `a` is `m×k`, `b` is `k×n`, result `m×n`.
///
/// # Panics
///
/// Panics if the inner dimensions do not agree.
pub fn gemm(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Tensor {
    let (ar, ac) = (a.rows(), a.cols());
    let (br, bc) = (b.rows(), b.cols());
    let (m, k1) = if ta { (ac, ar) } else { (ar, ac) };
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    assert_eq!(
        k1, k2,
        "gemm inner dimension mismatch: {}x{} ({}) @ {}x{} ({})",
        ar, ac, ta, br, bc, tb
    );
    let mut out = take_f32_zeroed(m * n);
    gemm_into(&mut out, a.data(), b.data(), ta, tb, m, n, k1, ac, bc);
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// `out += op(a) · op(b)` on raw row-major `f32` buffers, where `op(a)` is
/// `m×k` and `op(b)` is `k×n`. Accumulating onto a non-zero `out` continues
/// each element's K-ordered FMA chain, exactly as a second K block would.
#[expect(clippy::too_many_arguments, reason = "a GEMM's signature is its operands, their transposes and the three extents; the blocked helpers add the block's origin")]
pub(crate) fn gemm_acc(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(out.len(), m * n, "gemm_acc: output buffer/shape mismatch");
    assert_eq!(a.len(), m * k, "gemm_acc: a buffer/shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_acc: b buffer/shape mismatch");
    let (a_cols, b_cols) = (if ta { m } else { k }, if tb { k } else { n });
    gemm_into(out, a, b, ta, tb, m, n, k, a_cols, b_cols);
}

/// Half-precision-input, fp32-accumulate GEMM: `op(a) * op(b)` where both
/// operands are packed row-major [`F16`] buffers (`a` is `a_rows×a_cols`
/// physical, likewise `b`).
///
/// Operand panels are widened to `f32` during packing, so the inner
/// micro-kernel, the accumulation precision, and the K summation order are
/// identical to the f32 [`gemm`]: on inputs that are exact halves the result
/// is bitwise identical to `gemm` of the pre-widened tensors. The only error
/// versus an end-to-end f32 computation is the input quantization itself
/// (per-element relative error ≤ 2⁻¹¹; see DESIGN.md's precision policy for
/// the elementwise bound `|C_half − C_f32| ≤ ~2.5·2⁻¹¹·(|A|·|B|)`).
///
/// # Panics
///
/// Panics if a buffer length disagrees with its shape or the inner
/// dimensions do not agree.
#[expect(clippy::too_many_arguments, reason = "a GEMM's signature is its operands, their transposes and the three extents; the blocked helpers add the block's origin")]
pub fn gemm_f16(
    a: &[F16],
    a_rows: usize,
    a_cols: usize,
    b: &[F16],
    b_rows: usize,
    b_cols: usize,
    ta: bool,
    tb: bool,
) -> Tensor {
    assert_eq!(a.len(), a_rows * a_cols, "gemm_f16: a buffer/shape mismatch");
    assert_eq!(b.len(), b_rows * b_cols, "gemm_f16: b buffer/shape mismatch");
    let (m, k1) = if ta { (a_cols, a_rows) } else { (a_rows, a_cols) };
    let (k2, n) = if tb { (b_cols, b_rows) } else { (b_rows, b_cols) };
    assert_eq!(k1, k2, "gemm_f16 inner dimension mismatch");
    let mut out = take_f32_zeroed(m * n);
    gemm_into(&mut out, a, b, ta, tb, m, n, k1, a_cols, b_cols);
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// Mixed-precision GEMM: a packed [`F16`] left operand (typically sliced
/// features) against an `f32` right operand (typically a weight matrix).
/// Same packing-time widening and fp32 accumulation as [`gemm_f16`].
///
/// # Panics
///
/// Panics if the `a` buffer length disagrees with its shape or the inner
/// dimensions do not agree.
pub fn gemm_f16_f32(
    a: &[F16],
    a_rows: usize,
    a_cols: usize,
    b: &Tensor,
    ta: bool,
    tb: bool,
) -> Tensor {
    assert_eq!(a.len(), a_rows * a_cols, "gemm_f16_f32: a buffer/shape mismatch");
    let (br, bc) = (b.rows(), b.cols());
    let (m, k1) = if ta { (a_cols, a_rows) } else { (a_rows, a_cols) };
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    assert_eq!(k1, k2, "gemm_f16_f32 inner dimension mismatch");
    let mut out = take_f32_zeroed(m * n);
    gemm_into(&mut out, a, b.data(), ta, tb, m, n, k1, a_cols, bc);
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// Name of the active GEMM micro-kernel rung — `"avx512"`, `"avx2"`, or
/// `"portable"` — for bench reports. Selection is automatic (CPUID) but can
/// be pinned down-level with `SALIENT_GEMM_KERNEL=portable|avx2|avx512`.
pub fn gemm_kernel_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match simd::level() {
            simd::Level::Avx512 => "avx512",
            simd::Level::Avx2 => "avx2",
            simd::Level::Portable => "portable",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// The seed's scalar triple-loop GEMM, kept as the correctness / performance
/// reference for tests and the kernel bench.
pub fn gemm_naive(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Tensor {
    let (ar, ac) = (a.rows(), a.cols());
    let (br, bc) = (b.rows(), b.cols());
    let (m, k1) = if ta { (ac, ar) } else { (ar, ac) };
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    assert_eq!(k1, k2, "gemm inner dimension mismatch");
    let k = k1;
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

/// Packs `op(b)[pc..pc+kcb, jc..jc+ncb]` row-major into `bpack`, widening
/// to `f32` as it goes (bulk path for the contiguous `!tb` case).
#[inline]
#[expect(clippy::too_many_arguments, reason = "a GEMM's signature is its operands, their transposes and the three extents; the blocked helpers add the block's origin")]
fn pack_b<TB: GemmElem>(
    bpack: &mut Vec<f32>,
    bd: &[TB],
    tb: bool,
    b_cols: usize,
    pc: usize,
    kcb: usize,
    jc: usize,
    ncb: usize,
) {
    bpack.clear();
    if !tb {
        for p in 0..kcb {
            let row = &bd[(pc + p) * b_cols + jc..(pc + p) * b_cols + jc + ncb];
            TB::widen_append(row, bpack);
        }
    } else {
        // b is n×k physical; op(b)[p][j] = b[j][p].
        for p in 0..kcb {
            for j in 0..ncb {
                bpack.push(TB::at(bd, (jc + j) * b_cols + (pc + p)));
            }
        }
    }
}

/// Packs the A panel, widening to `f32`.
///
/// * `ta = false`: row-major `apack[i][p] = a[i0+i][pc+p]` — contiguous
///   source rows, bulk-widened.
/// * `ta = true`: **K-major** `apack[p][i] = a[pc+p][i0+i]` — also
///   contiguous source rows (this is the transposed-output/backward-pass
///   pack: `a` is k×m physical, so slicing row `pc+p` at columns
///   `i0..i0+mb` is unit-stride). The micro-kernels index
///   `apack[p*mb + i]` for this layout.
#[inline]
#[expect(clippy::too_many_arguments, reason = "a GEMM's signature is its operands, their transposes and the three extents; the blocked helpers add the block's origin")]
fn pack_a<TA: GemmElem>(
    apack: &mut Vec<f32>,
    ad: &[TA],
    ta: bool,
    a_cols: usize,
    i0: usize,
    mb: usize,
    pc: usize,
    kcb: usize,
) {
    apack.clear();
    if !ta {
        for i in 0..mb {
            let row = &ad[(i0 + i) * a_cols + pc..(i0 + i) * a_cols + pc + kcb];
            TA::widen_append(row, apack);
        }
    } else {
        for p in 0..kcb {
            let row = &ad[(pc + p) * a_cols + i0..(pc + p) * a_cols + i0 + mb];
            TA::widen_append(row, apack);
        }
    }
}

/// The packed inner kernel for row-major A panels:
/// `orow[0..ncb] += Σ_p arow[p] * bpack[p][0..ncb]` with the K loop 4-way
/// unrolled so the output row is touched once per four K steps and the
/// j-loop vectorizes to FMA chains.
#[inline]
fn kernel_row(arow: &[f32], bpack: &[f32], orow: &mut [f32], kcb: usize, ncb: usize) {
    debug_assert_eq!(arow.len(), kcb);
    debug_assert_eq!(orow.len(), ncb);
    let mut p = 0;
    while p + 4 <= kcb {
        let a0 = arow[p];
        let a1 = arow[p + 1];
        let a2 = arow[p + 2];
        let a3 = arow[p + 3];
        let b0 = &bpack[p * ncb..p * ncb + ncb];
        let b1 = &bpack[(p + 1) * ncb..(p + 1) * ncb + ncb];
        let b2 = &bpack[(p + 2) * ncb..(p + 2) * ncb + ncb];
        let b3 = &bpack[(p + 3) * ncb..(p + 3) * ncb + ncb];
        for j in 0..ncb {
            orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        p += 4;
    }
    while p < kcb {
        let a0 = arow[p];
        let b0 = &bpack[p * ncb..p * ncb + ncb];
        for j in 0..ncb {
            orow[j] += a0 * b0[j];
        }
        p += 1;
    }
}

/// [`kernel_row`] for K-major A panels (`ta = true`): the A value for row
/// `i` at K step `p` lives at `apack[p*mb + i]`.
#[inline]
fn kernel_row_kmajor(
    apack: &[f32],
    i: usize,
    mb: usize,
    bpack: &[f32],
    orow: &mut [f32],
    kcb: usize,
    ncb: usize,
) {
    debug_assert_eq!(orow.len(), ncb);
    let mut p = 0;
    while p + 4 <= kcb {
        let a0 = apack[p * mb + i];
        let a1 = apack[(p + 1) * mb + i];
        let a2 = apack[(p + 2) * mb + i];
        let a3 = apack[(p + 3) * mb + i];
        let b0 = &bpack[p * ncb..p * ncb + ncb];
        let b1 = &bpack[(p + 1) * ncb..(p + 1) * ncb + ncb];
        let b2 = &bpack[(p + 2) * ncb..(p + 2) * ncb + ncb];
        let b3 = &bpack[(p + 3) * ncb..(p + 3) * ncb + ncb];
        for j in 0..ncb {
            orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        p += 4;
    }
    while p < kcb {
        let a0 = apack[p * mb + i];
        let b0 = &bpack[p * ncb..p * ncb + ncb];
        for j in 0..ncb {
            orow[j] += a0 * b0[j];
        }
        p += 1;
    }
}

/// The register-tiled micro-kernels, selected at runtime with
/// `is_x86_feature_detected!` so the crate still builds (and falls back to
/// [`kernel_row`]) on the x86-64 baseline target and other architectures.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// How many K steps ahead the packed-B panel is prefetched. One K step
    /// reads one `ncb`-float panel row, so this covers ~4·NC·4 B = 4 KiB of
    /// lookahead at full column blocks.
    const PREFETCH_ROWS: usize = 4;

    /// The micro-kernel rung picked for this process.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Level {
        /// No usable vector unit detected (or forced): [`super::kernel_row`].
        Portable,
        /// AVX2 + FMA 4×16 tile.
        Avx2,
        /// AVX-512F 8×32 tile.
        Avx512,
    }

    /// One-time CPUID probe (overridable down-level with
    /// `SALIENT_GEMM_KERNEL=portable|avx2|avx512` for benches and tests;
    /// an override naming an unsupported rung falls back to detection).
    pub fn level() -> Level {
        static LEVEL: OnceLock<Level> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
            let auto = if avx512 {
                Level::Avx512
            } else if avx2 {
                Level::Avx2
            } else {
                Level::Portable
            };
            match std::env::var("SALIENT_GEMM_KERNEL").ok().as_deref() {
                Some("portable") => Level::Portable,
                Some("avx2") if avx2 => Level::Avx2,
                Some("avx512") if avx512 => Level::Avx512,
                _ => auto,
            }
        })
    }

    /// Reads the A-panel value for block row `i` at K step `p`, for either
    /// panel layout (row-major `i*kcb + p`, or K-major `p*mb + i` when the
    /// logical A is transposed).
    ///
    /// # Safety
    ///
    /// `apack` must cover `mb×kcb` packed floats with `i < mb`, `p < kcb`.
    #[inline(always)]
    unsafe fn a_elem<const KMAJOR: bool>(
        apack: *const f32,
        i: usize,
        p: usize,
        mb: usize,
        kcb: usize,
    ) -> f32 {
        if KMAJOR {
            *apack.add(p * mb + i)
        } else {
            *apack.add(i * kcb + p)
        }
    }

    /// Prefetches the packed-B panel row `PREFETCH_ROWS` K steps ahead of
    /// `bp`. `wrapping_add` keeps the (possibly past-the-end) hint address
    /// from ever being formed as an out-of-allocation offset, and PREFETCHh
    /// itself never faults.
    #[inline(always)]
    fn prefetch_b(bp: *const f32, ncb: usize) {
        // SAFETY: PREFETCHh is architecturally non-faulting for any address.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>((bp as *const i8).wrapping_add(PREFETCH_ROWS * ncb * 4))
        }
    }

    /// Mask with the first `rem` (1..=8) lanes enabled, for
    /// `maskload`/`maskstore` on partial column tiles.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and `rem` is in `1..=8`: the
    /// unaligned load reads 8 lanes starting at `M[8 - rem]`, which stays
    /// inside the 16-entry table only for that range.
    #[target_feature(enable = "avx")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        const M: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        _mm256_loadu_si256(M.as_ptr().add(8 - rem) as *const __m256i)
    }

    /// `out[0..mb][0..ncb] += apack[mb×kcb] · bpack[kcb×ncb]`, where block
    /// row `i` lives at `out0 + i*n` (AVX2 + FMA rung).
    ///
    /// The main tile is 4 output rows × 16 columns: eight `ymm` accumulators
    /// live in registers across the entire K loop, so each of the two
    /// packed-B vector loads per K step is reused by four FMAs (the 1×N
    /// kernel gets one use per load — this reuse is the entire speedup).
    /// Remainder rows run a 1×16 tile and remainder columns masked ≤8-wide
    /// tiles; every path accumulates fused, in the same K order, so an
    /// output element's value does not depend on how rows were chunked
    /// across threads.
    ///
    /// # Safety
    ///
    /// Caller must check [`level`] ≥ AVX2, and the pointers must cover the
    /// block extents described above (A panel layout per `KMAJOR`).
    #[target_feature(enable = "avx,avx2,fma")]
    pub unsafe fn kernel_block<const KMAJOR: bool>(
        apack: *const f32,
        bpack: *const f32,
        out0: *mut f32,
        n: usize,
        mb: usize,
        kcb: usize,
        ncb: usize,
    ) {
        let mut i = 0;
        while i + 4 <= mb {
            let o0 = out0.add(i * n);
            let o1 = o0.add(n);
            let o2 = o1.add(n);
            let o3 = o2.add(n);
            let mut j = 0;
            while j + 16 <= ncb {
                let mut c00 = _mm256_loadu_ps(o0.add(j));
                let mut c01 = _mm256_loadu_ps(o0.add(j + 8));
                let mut c10 = _mm256_loadu_ps(o1.add(j));
                let mut c11 = _mm256_loadu_ps(o1.add(j + 8));
                let mut c20 = _mm256_loadu_ps(o2.add(j));
                let mut c21 = _mm256_loadu_ps(o2.add(j + 8));
                let mut c30 = _mm256_loadu_ps(o3.add(j));
                let mut c31 = _mm256_loadu_ps(o3.add(j + 8));
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    prefetch_b(bp, ncb);
                    let av0 = _mm256_set1_ps(a_elem::<KMAJOR>(apack, i, p, mb, kcb));
                    c00 = _mm256_fmadd_ps(av0, b0, c00);
                    c01 = _mm256_fmadd_ps(av0, b1, c01);
                    let av1 = _mm256_set1_ps(a_elem::<KMAJOR>(apack, i + 1, p, mb, kcb));
                    c10 = _mm256_fmadd_ps(av1, b0, c10);
                    c11 = _mm256_fmadd_ps(av1, b1, c11);
                    let av2 = _mm256_set1_ps(a_elem::<KMAJOR>(apack, i + 2, p, mb, kcb));
                    c20 = _mm256_fmadd_ps(av2, b0, c20);
                    c21 = _mm256_fmadd_ps(av2, b1, c21);
                    let av3 = _mm256_set1_ps(a_elem::<KMAJOR>(apack, i + 3, p, mb, kcb));
                    c30 = _mm256_fmadd_ps(av3, b0, c30);
                    c31 = _mm256_fmadd_ps(av3, b1, c31);
                    bp = bp.add(ncb);
                }
                _mm256_storeu_ps(o0.add(j), c00);
                _mm256_storeu_ps(o0.add(j + 8), c01);
                _mm256_storeu_ps(o1.add(j), c10);
                _mm256_storeu_ps(o1.add(j + 8), c11);
                _mm256_storeu_ps(o2.add(j), c20);
                _mm256_storeu_ps(o2.add(j + 8), c21);
                _mm256_storeu_ps(o3.add(j), c30);
                _mm256_storeu_ps(o3.add(j + 8), c31);
                j += 16;
            }
            while j < ncb {
                let rem = (ncb - j).min(8);
                let mask = tail_mask(rem);
                let mut c0 = _mm256_maskload_ps(o0.add(j), mask);
                let mut c1 = _mm256_maskload_ps(o1.add(j), mask);
                let mut c2 = _mm256_maskload_ps(o2.add(j), mask);
                let mut c3 = _mm256_maskload_ps(o3.add(j), mask);
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let b = _mm256_maskload_ps(bp, mask);
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(a_elem::<KMAJOR>(apack, i, p, mb, kcb)), b, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(a_elem::<KMAJOR>(apack, i + 1, p, mb, kcb)), b, c1);
                    c2 = _mm256_fmadd_ps(_mm256_set1_ps(a_elem::<KMAJOR>(apack, i + 2, p, mb, kcb)), b, c2);
                    c3 = _mm256_fmadd_ps(_mm256_set1_ps(a_elem::<KMAJOR>(apack, i + 3, p, mb, kcb)), b, c3);
                    bp = bp.add(ncb);
                }
                _mm256_maskstore_ps(o0.add(j), mask, c0);
                _mm256_maskstore_ps(o1.add(j), mask, c1);
                _mm256_maskstore_ps(o2.add(j), mask, c2);
                _mm256_maskstore_ps(o3.add(j), mask, c3);
                j += rem;
            }
            i += 4;
        }
        while i < mb {
            let o0 = out0.add(i * n);
            let mut j = 0;
            while j + 16 <= ncb {
                let mut c0 = _mm256_loadu_ps(o0.add(j));
                let mut c1 = _mm256_loadu_ps(o0.add(j + 8));
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let av = _mm256_set1_ps(a_elem::<KMAJOR>(apack, i, p, mb, kcb));
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), c0);
                    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), c1);
                    bp = bp.add(ncb);
                }
                _mm256_storeu_ps(o0.add(j), c0);
                _mm256_storeu_ps(o0.add(j + 8), c1);
                j += 16;
            }
            while j < ncb {
                let rem = (ncb - j).min(8);
                let mask = tail_mask(rem);
                let mut c = _mm256_maskload_ps(o0.add(j), mask);
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let b = _mm256_maskload_ps(bp, mask);
                    c = _mm256_fmadd_ps(_mm256_set1_ps(a_elem::<KMAJOR>(apack, i, p, mb, kcb)), b, c);
                    bp = bp.add(ncb);
                }
                _mm256_maskstore_ps(o0.add(j), mask, c);
                j += rem;
            }
            i += 1;
        }
    }

    #[expect(clippy::needless_range_loop, reason = "`for r in 0..8` over the accumulator arrays is what unrolls into eight named registers; an iterator chain would obscure that")]
    /// The AVX-512F rung: 8 output rows × 32 columns per tile — sixteen
    /// `zmm` accumulators live in registers across the K loop, so each of
    /// the two packed-B loads per K step feeds eight FMAs. Column tails run
    /// masked ≤16-wide (`__mmask16`) tiles and row tails a 1×32 kernel.
    /// Every path accumulates one FMA per K step per output element in the
    /// same fixed order as the AVX2 rung, so the two rungs (and any row
    /// chunking) produce bitwise-identical results.
    ///
    /// # Safety
    ///
    /// Caller must check [`level`] == AVX-512, and the pointers must cover
    /// the block extents (A panel layout per `KMAJOR`, B panel `kcb×ncb`,
    /// output rows `i < mb` at `out0 + i*n + [0, ncb)`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn kernel_block_avx512<const KMAJOR: bool>(
        apack: *const f32,
        bpack: *const f32,
        out0: *mut f32,
        n: usize,
        mb: usize,
        kcb: usize,
        ncb: usize,
    ) {
        let mut i = 0;
        while i + 8 <= mb {
            let mut j = 0;
            while j + 32 <= ncb {
                let mut c0 = [_mm512_setzero_ps(); 8];
                let mut c1 = [_mm512_setzero_ps(); 8];
                for r in 0..8 {
                    let o = out0.add((i + r) * n + j);
                    c0[r] = _mm512_loadu_ps(o);
                    c1[r] = _mm512_loadu_ps(o.add(16));
                }
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let b0 = _mm512_loadu_ps(bp);
                    let b1 = _mm512_loadu_ps(bp.add(16));
                    prefetch_b(bp, ncb);
                    for r in 0..8 {
                        let av = _mm512_set1_ps(a_elem::<KMAJOR>(apack, i + r, p, mb, kcb));
                        c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
                        c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
                    }
                    bp = bp.add(ncb);
                }
                for r in 0..8 {
                    let o = out0.add((i + r) * n + j);
                    _mm512_storeu_ps(o, c0[r]);
                    _mm512_storeu_ps(o.add(16), c1[r]);
                }
                j += 32;
            }
            while j < ncb {
                let rem = (ncb - j).min(16);
                let mask: __mmask16 = ((1u32 << rem) - 1) as __mmask16;
                let mut c = [_mm512_setzero_ps(); 8];
                for r in 0..8 {
                    c[r] = _mm512_maskz_loadu_ps(mask, out0.add((i + r) * n + j));
                }
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let b = _mm512_maskz_loadu_ps(mask, bp);
                    for r in 0..8 {
                        let av = _mm512_set1_ps(a_elem::<KMAJOR>(apack, i + r, p, mb, kcb));
                        c[r] = _mm512_fmadd_ps(av, b, c[r]);
                    }
                    bp = bp.add(ncb);
                }
                for r in 0..8 {
                    _mm512_mask_storeu_ps(out0.add((i + r) * n + j), mask, c[r]);
                }
                j += rem;
            }
            i += 8;
        }
        while i < mb {
            let o0 = out0.add(i * n);
            let mut j = 0;
            while j + 32 <= ncb {
                let mut c0 = _mm512_loadu_ps(o0.add(j));
                let mut c1 = _mm512_loadu_ps(o0.add(j + 16));
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let av = _mm512_set1_ps(a_elem::<KMAJOR>(apack, i, p, mb, kcb));
                    c0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bp), c0);
                    c1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bp.add(16)), c1);
                    bp = bp.add(ncb);
                }
                _mm512_storeu_ps(o0.add(j), c0);
                _mm512_storeu_ps(o0.add(j + 16), c1);
                j += 32;
            }
            while j < ncb {
                let rem = (ncb - j).min(16);
                let mask: __mmask16 = ((1u32 << rem) - 1) as __mmask16;
                let mut c = _mm512_maskz_loadu_ps(mask, o0.add(j));
                let mut bp = bpack.add(j);
                for p in 0..kcb {
                    let av = _mm512_set1_ps(a_elem::<KMAJOR>(apack, i, p, mb, kcb));
                    c = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(mask, bp), c);
                    bp = bp.add(ncb);
                }
                _mm512_mask_storeu_ps(o0.add(j), mask, c);
                j += rem;
            }
            i += 1;
        }
    }

    /// [`super::RowAgg::rows`] compiled with 256-bit vectors (AVX2 rung).
    ///
    /// # Safety
    ///
    /// As for [`super::RowAgg::rows`], and the caller must check [`level`]
    /// ≥ AVX2.
    #[target_feature(enable = "avx,avx2,fma")]
    pub unsafe fn agg_rows_avx2(agg: &super::RowAgg<'_>, r0: usize, r1: usize) {
        agg.rows(r0, r1)
    }

    /// [`super::RowAgg::rows`] compiled with 512-bit vectors (AVX-512 rung).
    ///
    /// # Safety
    ///
    /// As for [`super::RowAgg::rows`], and the caller must check [`level`]
    /// is AVX-512.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn agg_rows_avx512(agg: &super::RowAgg<'_>, r0: usize, r1: usize) {
        agg.rows(r0, r1)
    }
}

/// Blocked, packed, parallel GEMM into a pre-zeroed output buffer, generic
/// over the operand element types (`f32` or [`F16`] — see [`GemmElem`]).
///
/// The loop nest is `jc → pc → (parallel over row blocks) → i`; K blocks
/// are accumulated in increasing `pc` order for every output element, so
/// the result is bitwise identical for any thread count.
#[expect(clippy::too_many_arguments, reason = "a GEMM's signature is its operands, their transposes and the three extents; the blocked helpers add the block's origin")]
fn gemm_into<TA: GemmElem, TB: GemmElem>(
    out: &mut [f32],
    ad: &[TA],
    bd: &[TB],
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    a_cols: usize,
    b_cols: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut bpack = take_f32(KC * NC.min(n));
    let out_ptr = SendPtr(out.as_mut_ptr());
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            pack_b(&mut bpack, bd, tb, b_cols, pc, kcb, jc, ncb);
            let bp: &[f32] = &bpack;
            let body = |i0: usize, i1: usize| {
                let mb = i1 - i0;
                let mut apack = take_f32(mb * kcb);
                pack_a(&mut apack, ad, ta, a_cols, i0, mb, pc, kcb);
                // Row blocks are disjoint in i, so chunks never alias.
                #[cfg(target_arch = "x86_64")]
                {
                    let lvl = simd::level();
                    if lvl != simd::Level::Portable {
                        // SAFETY: `level()` verified the ISA; `out_ptr` spans
                        // the m×n output, rows [i0, i1) are exclusive to this
                        // task, and the packed operands cover mb×kcb (layout
                        // K-major iff `ta`) and kcb×ncb as the kernels
                        // require.
                        unsafe {
                            let out0 = out_ptr.0.add(i0 * n + jc);
                            let (ap, bpp) = (apack.as_ptr(), bp.as_ptr());
                            match (lvl, ta) {
                                (simd::Level::Avx512, false) => {
                                    simd::kernel_block_avx512::<false>(ap, bpp, out0, n, mb, kcb, ncb)
                                }
                                (simd::Level::Avx512, true) => {
                                    simd::kernel_block_avx512::<true>(ap, bpp, out0, n, mb, kcb, ncb)
                                }
                                (_, false) => {
                                    simd::kernel_block::<false>(ap, bpp, out0, n, mb, kcb, ncb)
                                }
                                (_, true) => {
                                    simd::kernel_block::<true>(ap, bpp, out0, n, mb, kcb, ncb)
                                }
                            }
                        }
                        put_f32(apack);
                        return;
                    }
                }
                for i in 0..mb {
                    // SAFETY: output row i0 + i < m and jc + ncb <= n, so
                    // the slice stays inside the output buffer; row blocks
                    // are disjoint across tasks, so it is never aliased.
                    let orow = unsafe { out_ptr.slice_mut((i0 + i) * n + jc, ncb) };
                    if ta {
                        kernel_row_kmajor(&apack, i, mb, bp, orow, kcb, ncb);
                    } else {
                        kernel_row(&apack[i * kcb..(i + 1) * kcb], bp, orow, kcb, ncb);
                    }
                }
                put_f32(apack);
            };
            if 2 * m * ncb * kcb < GEMM_SERIAL_FLOP_CUTOFF {
                body(0, m);
            } else {
                parallel_for(m, MC.min(m), &body);
            }
        }
    }
    put_f32(bpack);
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
/// of columns at a time, and the row is stored once — `out` may hold stale
/// values. Every column is a plain `+=` chain in edge order starting from
/// 0.0, so a value depends neither on the panel width (the rung) nor on
/// which chunk computed it.
pub(crate) struct RowAgg<'a> {
    x: &'a [f32],
    cols: usize,
    indptr: &'a [u32],
    idx: &'a [u32],
    mean: bool,
    out: SendPtr<f32>,
}

impl RowAgg<'_> {
    /// Columns `[c, c + W)` of one output row.
    ///
    /// # Safety
    ///
    /// As for [`RowAgg::rows`], with `e0..e1` the row's edges,
    /// `c + W <= cols` and `orow` the start of the output row.
    #[inline(always)]
    unsafe fn panel<const W: usize>(
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
                for line in (0..cols).step_by(16) {
                    prefetch_read(next.wrapping_add(line));
                }
            }
            let xrow = x.add(*idx.get_unchecked(e) as usize * cols + c);
            for (j, a) in acc.iter_mut().enumerate() {
                *a += *xrow.add(j);
            }
        }
        if let Some(s) = scale {
            for a in &mut acc {
                *a *= s;
            }
        }
        std::ptr::copy_nonoverlapping(acc.as_ptr(), orow.add(c), W);
    }

    /// Computes output rows `[r0, r1)`: the body of one parallel chunk, and
    /// the portable rung (the `simd` wrappers compile this same code for
    /// AVX2 and AVX-512).
    ///
    /// # Safety
    ///
    /// `indptr[r0..=r1]` must be non-decreasing and end `<= idx.len()`, every
    /// `idx` value must be a row of `x` (`< x.len() / cols`), and `out` must
    /// cover `r1 · cols` floats whose rows `[r0, r1)` nobody else touches.
    #[inline(always)]
    pub(crate) unsafe fn rows(&self, r0: usize, r1: usize) {
        let cols = self.cols;
        for r in r0..r1 {
            let edges = (
                *self.indptr.get_unchecked(r) as usize,
                *self.indptr.get_unchecked(r + 1) as usize,
            );
            let scale = (self.mean && edges.1 > edges.0).then(|| 1.0 / (edges.1 - edges.0) as f32);
            let orow = self.out.0.add(r * cols);
            // The widest panel that still fits, left to right. A remainder
            // narrower than 8 is covered by an 8-wide panel that ends with
            // the row: it recomputes up to 7 columns with the same adds in
            // the same order, so it stores the same bits over them.
            let mut c = 0;
            while c < cols {
                c += match cols - c {
                    64.. => {
                        self.panel::<64>(edges, c, scale, orow);
                        64
                    }
                    32.. => {
                        self.panel::<32>(edges, c, scale, orow);
                        32
                    }
                    16.. => {
                        self.panel::<16>(edges, c, scale, orow);
                        16
                    }
                    8.. => {
                        self.panel::<8>(edges, c, scale, orow);
                        8
                    }
                    rest if cols >= 8 => {
                        self.panel::<8>(edges, cols - 8, scale, orow);
                        rest
                    }
                    _ => {
                        self.panel::<1>(edges, c, scale, orow);
                        1
                    }
                };
            }
        }
    }

    /// [`RowAgg::rows`] on the rung the GEMM dispatch picked for this CPU.
    ///
    /// # Safety
    ///
    /// As for [`RowAgg::rows`].
    unsafe fn rows_dispatched(&self, r0: usize, r1: usize) {
        #[cfg(target_arch = "x86_64")]
        match simd::level() {
            simd::Level::Avx512 => return simd::agg_rows_avx512(self, r0, r1),
            simd::Level::Avx2 => return simd::agg_rows_avx2(self, r0, r1),
            simd::Level::Portable => {}
        }
        self.rows(r0, r1)
    }
}

/// `out[r] = scale_r · Σ { x[vals[e]] : keys[e] = r }` for `r < n_keys`, in
/// a pooled buffer: index the edge list ([`with_csr`]), then run
/// [`RowAgg`] over chunks of output rows. `what` names the keys and the
/// values in panic messages.
fn aggregate(
    x: &[f32],
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
    // One past the largest row of `x` any edge reads.
    let rows_read = match vals {
        Some([]) => 0,
        Some(v) => v.iter().fold(0, |top, &v| top.max(v)) as usize + 1,
        None => keys.len(),
    };
    assert!(rows_read <= x.len() / cols, "{} out of range", what[1]);
    with_csr(keys, n_keys, what[0], vals, |indptr, idx| {
        let agg = RowAgg { x, cols, indptr, idx, mean, out: SendPtr(out.as_mut_ptr()) };
        // SAFETY: `with_csr` built `indptr` as prefix sums ending at
        // idx.len() and `idx` as a permutation of the values, every one of
        // which was checked above to be a row of `x`; `out` holds
        // n_keys·cols floats and the chunks [r0, r1) ⊆ [0, n_keys) are
        // disjoint.
        let body = |r0: usize, r1: usize| unsafe { agg.rows_dispatched(r0, r1) };
        if idx.len() * cols < AGG_SERIAL_CUTOFF {
            body(0, n_keys);
        } else {
            parallel_for(n_keys, AGG_MIN_CHUNK, &body);
        }
    });
    out
}

/// Backward of [`gather_rows_forward`]: adds each gradient row `e` into
/// `dx[idx[e]]` — the row kernel over `idx` as keys, so no two tasks write
/// the same row and the per-row order is the edge order.
///
/// # Panics
///
/// Panics if `gd.len() != idx.len() * cols` or an index is `>= n_src`.
pub fn gather_rows_backward(gd: &[f32], cols: usize, idx: &[u32], n_src: usize) -> Vec<f32> {
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
pub fn scatter_reduce_backward(
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
pub fn relu_dropout_backward(g: &mut [f32], out: &[f32], scale: f32) {
    assert_eq!(g.len(), out.len(), "relu_dropout_backward shape mismatch");
    for (g, &o) in g.iter_mut().zip(out) {
        *g = if o > 0.0 { *g * scale } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn gemm_f16_is_bitwise_equal_to_f32_gemm_on_widened_inputs() {
        // Packing widens F16 panels to f32 before any arithmetic, so on
        // inputs that are exact halves the half-input GEMM must agree with
        // the f32 GEMM of the pre-widened matrices *bitwise*, for all four
        // transpose variants.
        let mut rng = StdRng::seed_from_u64(0xF16);
        for case in 0..16 {
            let m = rng.random_range(1usize..80);
            let k = rng.random_range(1usize..80);
            let n = rng.random_range(1usize..80);
            let (ta, tb) = (case % 2 == 1, (case / 2) % 2 == 1);
            let (ar, ac) = if ta { (k, m) } else { (m, k) };
            let (br, bc) = if tb { (n, k) } else { (k, n) };
            let ah: Vec<F16> = (0..ar * ac)
                .map(|_| F16::from_f32(rng.random_range(-2.0f32..2.0)))
                .collect();
            let bh: Vec<F16> = (0..br * bc)
                .map(|_| F16::from_f32(rng.random_range(-2.0f32..2.0)))
                .collect();
            let aw = Tensor::from_vec(ah.iter().map(|h| h.to_f32()).collect(), Shape::matrix(ar, ac));
            let bw = Tensor::from_vec(bh.iter().map(|h| h.to_f32()).collect(), Shape::matrix(br, bc));
            let half = gemm_f16(&ah, ar, ac, &bh, br, bc, ta, tb);
            let full = gemm(&aw, &bw, ta, tb);
            assert_eq!(
                half.data(),
                full.data(),
                "case {case} ({m}x{k}x{n}, ta={ta}, tb={tb})"
            );
        }
    }

    #[test]
    fn gemm_f16_f32_mixed_matches_widened() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n, ta, tb) in
            &[(40, 33, 25, false, false), (33, 40, 25, true, false), (40, 33, 25, false, true)]
        {
            let (ar, ac) = if ta { (k, m) } else { (m, k) };
            let ah: Vec<F16> = (0..ar * ac)
                .map(|_| F16::from_f32(rng.random_range(-2.0f32..2.0)))
                .collect();
            let aw = Tensor::from_vec(ah.iter().map(|h| h.to_f32()).collect(), Shape::matrix(ar, ac));
            let b = if tb { rand_tensor(n, k, &mut rng) } else { rand_tensor(k, n, &mut rng) };
            let mixed = gemm_f16_f32(&ah, ar, ac, &b, ta, tb);
            let full = gemm(&aw, &b, ta, tb);
            assert_eq!(mixed.data(), full.data(), "{m}x{k}x{n} ta={ta} tb={tb}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn micro_kernel_rungs_agree() {
        // Drive each micro-kernel directly on the same packed panels. The
        // AVX2 and AVX-512 rungs accumulate one FMA per K step per element
        // in the same order, so they must agree *bitwise*; the portable
        // kernel groups four products per step, so it gets a tolerance.
        let avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        if !avx2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xAB5);
        let (mb, kcb, ncb) = (13, 37, 41); // odd sizes exercise all tails
        let n = ncb;
        let apack: Vec<f32> = (0..mb * kcb).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let bpack: Vec<f32> = (0..kcb * ncb).map(|_| rng.random_range(-1.0f32..1.0)).collect();

        let mut portable = vec![0.0f32; mb * n];
        for i in 0..mb {
            kernel_row(
                &apack[i * kcb..(i + 1) * kcb],
                &bpack,
                &mut portable[i * n..(i + 1) * n],
                kcb,
                ncb,
            );
        }

        let mut out2 = vec![0.0f32; mb * n];
        // SAFETY: AVX2+FMA detected above; panels cover mb×kcb (row-major)
        // and kcb×ncb; the output buffer covers mb rows of stride n.
        unsafe {
            simd::kernel_block::<false>(apack.as_ptr(), bpack.as_ptr(), out2.as_mut_ptr(), n, mb, kcb, ncb);
        }
        for (p, v) in portable.iter().zip(out2.iter()) {
            assert!((p - v).abs() <= p.abs().max(1.0) * 1e-5, "avx2 vs portable: {p} vs {v}");
        }

        if avx512 {
            let mut out5 = vec![0.0f32; mb * n];
            // SAFETY: AVX-512F detected above; same panel/output extents.
            unsafe {
                simd::kernel_block_avx512::<false>(
                    apack.as_ptr(),
                    bpack.as_ptr(),
                    out5.as_mut_ptr(),
                    n,
                    mb,
                    kcb,
                    ncb,
                );
            }
            assert_eq!(out2, out5, "avx512 must be bitwise identical to avx2");
        }

        // K-major layout: repack A transposed and check both rungs agree
        // with the row-major result bitwise (same values, same FMA order).
        let mut akm = vec![0.0f32; mb * kcb];
        for i in 0..mb {
            for p in 0..kcb {
                akm[p * mb + i] = apack[i * kcb + p];
            }
        }
        let mut outk = vec![0.0f32; mb * n];
        // SAFETY: AVX2+FMA detected above; K-major panel covers kcb×mb.
        unsafe {
            simd::kernel_block::<true>(akm.as_ptr(), bpack.as_ptr(), outk.as_mut_ptr(), n, mb, kcb, ncb);
        }
        assert_eq!(out2, outk, "k-major avx2 must match row-major bitwise");
        if avx512 {
            let mut outk5 = vec![0.0f32; mb * n];
            // SAFETY: AVX-512F detected above; K-major panel covers kcb×mb.
            unsafe {
                simd::kernel_block_avx512::<true>(
                    akm.as_ptr(),
                    bpack.as_ptr(),
                    outk5.as_mut_ptr(),
                    n,
                    mb,
                    kcb,
                    ncb,
                );
            }
            assert_eq!(out2, outk5, "k-major avx512 must match row-major bitwise");
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
    type Rung = unsafe fn(&RowAgg<'_>, usize, usize);

    /// Every rung of the row kernel this host can run, called directly (the
    /// process-wide dispatch picks one of them for good).
    fn rungs() -> Vec<(&'static str, Rung)> {
        // SAFETY: the caller of a `Rung` upholds the contract of `rows`.
        let portable: Rung = |agg, r0, r1| unsafe { agg.rows(r0, r1) };
        let mut rungs = vec![("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
                rungs.push(("avx2", simd::agg_rows_avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                rungs.push(("avx512", simd::agg_rows_avx512));
            }
        }
        rungs
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
            let x: Vec<f32> = (0..n_vals * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            for (case, keys, vals) in edge_cases(n_keys, n_vals, n_edges, &mut rng) {
                for mean in [false, true] {
                    let want = bits(&edge_walk(&x, cols, &keys, n_keys, Some(&vals), None, mean));
                    // The row range cut at two arbitrary places: a chunk is
                    // whatever the pool's width makes it.
                    let (a, b) = (rng.random_range(0..=n_keys), rng.random_range(0..=n_keys));
                    let cuts = [0, a.min(b), a.max(b), n_keys];
                    with_csr(&keys, n_keys, "key", Some(&vals), |indptr, idx| {
                        for (rung, rows) in rungs() {
                            // Stale, as the pooled output buffer is.
                            let mut out = vec![f32::NAN; n_keys * cols];
                            let agg = RowAgg { x: &x, cols, indptr, idx, mean, out: SendPtr(out.as_mut_ptr()) };
                            for w in cuts.windows(2) {
                                // SAFETY: the index comes from `with_csr`
                                // over values drawn below n_vals = x's rows,
                                // `out` holds n_keys rows, the chunks are
                                // disjoint and run one after the other, and
                                // `rungs` lists only what the CPU supports.
                                unsafe { rows(&agg, w[0], w[1]) };
                            }
                            assert_eq!(bits(&out), want, "{rung}, {cols} cols, {case}, mean {mean}, cuts {cuts:?}");
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
                let x: Vec<f32> = (0..n_src * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                let g: Vec<f32> = (0..n_dst * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                for (case, dst, src) in edge_cases(n_dst, n_src, n_edges, &mut rng) {
                    let what = format!("{cols} cols, {case}, {n_edges} edges");
                    for mean in [false, true] {
                        let got = scatter_reduce_forward(&x, cols, &src, &dst, n_dst, mean);
                        let want = edge_walk(&x, cols, &dst, n_dst, Some(&src), None, mean);
                        assert_eq!(bits(&got), bits(&want), "forward, mean {mean}, {what}");
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
