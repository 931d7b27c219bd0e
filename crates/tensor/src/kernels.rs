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
//! * **Aggregation** first builds a CSR index over the edge list (stable
//!   counting sort by destination — or by source for backward passes), then
//!   computes each output row *fully, in edge order* inside one task. No
//!   atomics, no per-call allocation churn (index buffers come from a
//!   thread-local scratch pool), and — because every output element is
//!   produced by the same serial reduction regardless of how rows are
//!   chunked — results are bitwise identical for any thread count. Edge
//!   endpoints are validated once per call, so the per-edge inner loops use
//!   unchecked row reads plus a software prefetch of the next edge's row
//!   (the per-edge bounds/slice overhead is the indirection tax the gather
//!   path never paid).

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
    fn at(d: &[F16], i: usize) -> f32 {
        // lint: allow(half-conversion, strided transposed-B packing reads one element per cache line; the contiguous pack paths all use widen_append)
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
// lint: entry(panic-reachability)
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
#[allow(clippy::too_many_arguments)]
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
// lint: entry(panic-reachability)
#[allow(clippy::too_many_arguments)]
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
// lint: entry(panic-reachability)
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
/// reference for tests and `BENCH_kernels.json`.
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
#[allow(clippy::too_many_arguments)]
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
            // lint: allow(panic-reachability, pack and micro-kernel loops index inside shapes asserted at the GEMM entry; hoisted slices keep the checks elidable)
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
#[allow(clippy::too_many_arguments)]
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
    ) { // lint: region(no_alloc)
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

    // `for r in 0..8` over the accumulator arrays is what unrolls into
    // eight named registers; an iterator chain would obscure that.
    #[allow(clippy::needless_range_loop)]
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
    ) { // lint: region(no_alloc)
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
}

/// Blocked, packed, parallel GEMM into a pre-zeroed output buffer, generic
/// over the operand element types (`f32` or [`F16`] — see [`GemmElem`]).
///
/// The loop nest is `jc → pc → (parallel over row blocks) → i`; K blocks
/// are accumulated in increasing `pc` order for every output element, so
/// the result is bitwise identical for any thread count.
#[allow(clippy::too_many_arguments)]
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
// CSR index over edge lists
// ---------------------------------------------------------------------------

/// Builds a CSR index over `keys` (stable counting sort) and hands
/// `(offsets, order)` to `f`: edge ids with key `d` are
/// `order[offsets[d] as usize .. offsets[d + 1] as usize]`, in their
/// original edge-list order. The two index buffers live in thread-local
/// scratch, so steady-state calls allocate nothing.
pub(crate) fn with_csr<R>(
    keys: &[u32],
    n_keys: usize,
    f: impl FnOnce(&[u32], &[u32]) -> R,
) -> R {
    let mut offsets = take_u32(n_keys + 1);
    let mut order = take_u32(keys.len());
    offsets.resize(n_keys + 1, 0);
    for &d in keys {
        offsets[d as usize + 1] += 1;
    }
    for i in 0..n_keys {
        offsets[i + 1] += offsets[i];
    }
    order.resize(keys.len(), 0);
    let mut cursor = take_u32(n_keys);
    cursor.extend_from_slice(&offsets[..n_keys]);
    for (e, &d) in keys.iter().enumerate() {
        let c = &mut cursor[d as usize];
        order[*c as usize] = e as u32;
        *c += 1;
    }
    put_u32(cursor);
    let r = f(&offsets, &order);
    put_u32(offsets);
    put_u32(order);
    r
}

/// Minimum output rows per parallel chunk for aggregation kernels.
const AGG_MIN_CHUNK: usize = 16;
/// Serial cutoff: below this many edge·column products the pool dispatch
/// overhead dominates.
const AGG_SERIAL_CUTOFF: usize = 1 << 14;

/// `out[i] = x[idx[i]]` — parallel row gather.
// lint: entry(panic-reachability)
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
// lint: entry(panic-reachability)
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

/// Backward of [`gather_rows_forward`]: scatter-adds each gradient row `e`
/// into `dx[idx[e]]`. Parallelized by *destination* row via a CSR index so
/// no two tasks write the same row and the per-row reduction order is
/// fixed (bitwise deterministic for any thread count).
///
/// # Panics
///
/// Panics if `gd.len() != idx.len() * cols`.
// lint: entry(panic-reachability)
pub fn gather_rows_backward(gd: &[f32], cols: usize, idx: &[u32], n_src: usize) -> Vec<f32> {
    assert_eq!(gd.len(), idx.len() * cols, "gather_rows_backward shape mismatch");
    let mut dx = take_f32_zeroed(n_src * cols);
    if cols == 0 {
        return dx;
    }
    with_csr(idx, n_src, |offsets, order| {
        let dx_ptr = SendPtr(dx.as_mut_ptr());
        let body = |r0: usize, r1: usize| {
            // SAFETY: `dx` has n_src·cols elements and tasks receive
            // disjoint destination-row ranges [r0, r1) ⊆ [0, n_src), so the
            // slice is in bounds and unaliased.
            let rows = unsafe { dx_ptr.slice_mut(r0 * cols, (r1 - r0) * cols) };
            for (r, drow) in (r0..r1).zip(rows.chunks_exact_mut(cols)) {
                let edges = &order[offsets[r] as usize..offsets[r + 1] as usize];
                for (ei, &e) in edges.iter().enumerate() {
                    if ei + 1 < edges.len() {
                        prefetch_read(gd.as_ptr().wrapping_add(edges[ei + 1] as usize * cols));
                    }
                    // SAFETY: `with_csr` yields edge ids e < idx.len(), and
                    // gd.len() == idx.len()·cols was asserted on entry.
                    let grow = unsafe { gd.get_unchecked(e as usize * cols..(e as usize + 1) * cols) };
                    for (d, &v) in drow.iter_mut().zip(grow) {
                        *d += v;
                    }
                }
            }
        };
        if idx.len() * cols < AGG_SERIAL_CUTOFF {
            body(0, n_src);
        } else {
            parallel_for(n_src, AGG_MIN_CHUNK, &body);
        }
    });
    dx
}

/// Fused CSR scatter-aggregation: for each destination `d`,
/// `out[d] = reduce { x[s] : (s, d) ∈ edges }` where the reduction is a sum,
/// optionally scaled by `1 / weight[d]` in the same pass (mean), all inside
/// one task per destination-row chunk.
///
/// `dst_weight`: `None` for sum (GIN), `Some(counts)` for mean (SAGE).
///
/// Edge endpoints are validated once up front (`src.len() == dst.len()`,
/// every source row inside `xd`), so the per-edge loop reads rows unchecked
/// and prefetches the next edge's source row — the per-edge slice-check
/// overhead this removes is what the sequential gather kernel never paid.
// lint: entry(panic-reachability)
pub fn scatter_reduce_forward(
    xd: &[f32],
    cols: usize,
    src: &[u32],
    dst: &[u32],
    n_dst: usize,
    dst_weight: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(src.len(), dst.len(), "scatter edge lists must pair up");
    let mut out = take_f32_zeroed(n_dst * cols);
    if cols == 0 {
        return out;
    }
    let n_rows = xd.len() / cols;
    assert!(
        src.iter().all(|&s| (s as usize) < n_rows),
        "scatter source row out of range"
    );
    with_csr(dst, n_dst, |offsets, order| {
        let out_ptr = SendPtr(out.as_mut_ptr());
        // lint: region(no_alloc)
        let body = |d0: usize, d1: usize| {
            // SAFETY: `out` has n_dst·cols elements and tasks receive
            // disjoint destination-row ranges [d0, d1) ⊆ [0, n_dst), so the
            // slice is in bounds and unaliased.
            let rows = unsafe { out_ptr.slice_mut(d0 * cols, (d1 - d0) * cols) };
            for (d, orow) in (d0..d1).zip(rows.chunks_exact_mut(cols)) {
                let edges = &order[offsets[d] as usize..offsets[d + 1] as usize];
                for (ei, &e) in edges.iter().enumerate() {
                    if ei + 1 < edges.len() {
                        // SAFETY: edge ids from `with_csr` are < dst.len()
                        // == src.len(); source rows were validated < n_rows.
                        let nxt = unsafe { *src.get_unchecked(edges[ei + 1] as usize) } as usize;
                        prefetch_read(xd.as_ptr().wrapping_add(nxt * cols));
                    }
                    // SAFETY: e < src.len() (CSR over dst, lengths asserted
                    // equal) and src rows were validated < n_rows = the row
                    // count of `xd`, so the row slice is in bounds.
                    let xrow = unsafe {
                        let s = *src.get_unchecked(e as usize) as usize;
                        xd.get_unchecked(s * cols..(s + 1) * cols)
                    };
                    for (o, &v) in orow.iter_mut().zip(xrow) {
                        *o += v;
                    }
                }
                if let Some(w) = dst_weight {
                    let c = w[d];
                    if c > 0.0 {
                        let inv = 1.0 / c;
                        for o in orow.iter_mut() {
                            *o *= inv;
                        }
                    }
                }
            }
        };
        if src.len() * cols < AGG_SERIAL_CUTOFF {
            body(0, n_dst);
        } else {
            parallel_for(n_dst, AGG_MIN_CHUNK, &body);
        }
    });
    out
}

/// Backward of [`scatter_reduce_forward`]: routes `g[dst]` (scaled by
/// `1 / weight[dst]` for mean) back to each source row. Parallelized by
/// source row via a CSR index over `src` — again write-disjoint and
/// order-deterministic, with the same validate-once / unchecked-per-edge
/// row reads as the forward pass.
// lint: entry(panic-reachability)
pub fn scatter_reduce_backward(
    gd: &[f32],
    cols: usize,
    src: &[u32],
    dst: &[u32],
    n_src: usize,
    dst_weight: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(src.len(), dst.len(), "scatter edge lists must pair up");
    let mut dx = take_f32_zeroed(n_src * cols);
    if cols == 0 {
        return dx;
    }
    let n_rows = gd.len() / cols;
    assert!(
        dst.iter().all(|&d| (d as usize) < n_rows),
        "scatter destination row out of range"
    );
    if let Some(w) = dst_weight {
        assert!(w.len() >= n_rows, "dst_weight shorter than gradient rows");
    }
    with_csr(src, n_src, |offsets, order| {
        let dx_ptr = SendPtr(dx.as_mut_ptr());
        // lint: region(no_alloc)
        let body = |s0: usize, s1: usize| {
            // SAFETY: `dx` has n_src·cols elements and tasks receive
            // disjoint source-row ranges [s0, s1) ⊆ [0, n_src), so the
            // slice is in bounds and unaliased.
            let rows = unsafe { dx_ptr.slice_mut(s0 * cols, (s1 - s0) * cols) };
            for (s, drow) in (s0..s1).zip(rows.chunks_exact_mut(cols)) {
                let edges = &order[offsets[s] as usize..offsets[s + 1] as usize];
                for (ei, &e) in edges.iter().enumerate() {
                    if ei + 1 < edges.len() {
                        // SAFETY: edge ids from `with_csr` are < src.len()
                        // == dst.len(); dst rows were validated < n_rows.
                        let nxt = unsafe { *dst.get_unchecked(edges[ei + 1] as usize) } as usize;
                        prefetch_read(gd.as_ptr().wrapping_add(nxt * cols));
                    }
                    // SAFETY: e < dst.len() (CSR over src, lengths asserted
                    // equal); dst rows validated < n_rows = gd row count, and
                    // dst_weight (when present) covers n_rows entries.
                    let (d, grow) = unsafe {
                        let d = *dst.get_unchecked(e as usize) as usize;
                        (d, gd.get_unchecked(d * cols..(d + 1) * cols))
                    };
                    match dst_weight {
                        Some(w) => {
                            // SAFETY: d < n_rows ≤ w.len(), asserted above.
                            let inv = 1.0 / unsafe { *w.get_unchecked(d) };
                            for (x, &v) in drow.iter_mut().zip(grow) {
                                *x += inv * v;
                            }
                        }
                        None => {
                            for (x, &v) in drow.iter_mut().zip(grow) {
                                *x += v;
                            }
                        }
                    }
                }
            }
        };
        if src.len() * cols < AGG_SERIAL_CUTOFF {
            body(0, n_src);
        } else {
            parallel_for(n_src, AGG_MIN_CHUNK, &body);
        }
    });
    dx
}

/// In-degree of every destination as `f32` (the mean aggregation's divisor),
/// in a pooled buffer.
pub(crate) fn in_degrees(dst: &[u32], n_dst: usize) -> Vec<f32> {
    let mut counts = take_f32_zeroed(n_dst);
    for &d in dst {
        counts[d as usize] += 1.0;
    }
    counts
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
// lint: entry(panic-reachability)
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
    // lint: region(no_alloc)
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
        let keys = [2u32, 0, 2, 1, 0, 2];
        with_csr(&keys, 4, |offsets, order| {
            assert_eq!(offsets, &[0, 2, 3, 6, 6]);
            // Stability: edge ids with equal keys keep edge-list order.
            assert_eq!(&order[0..2], &[1, 4]); // key 0
            assert_eq!(&order[2..3], &[3]); // key 1
            assert_eq!(&order[3..6], &[0, 2, 5]); // key 2
        });
    }

    #[test]
    fn scatter_kernels_match_serial_edge_walk() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let n_src = rng.random_range(1usize..200);
            let n_dst = rng.random_range(1usize..150);
            let cols = rng.random_range(1usize..40);
            let n_edges = rng.random_range(0usize..800);
            let src: Vec<u32> = (0..n_edges).map(|_| rng.random_range(0..n_src as u32)).collect();
            let dst: Vec<u32> = (0..n_edges).map(|_| rng.random_range(0..n_dst as u32)).collect();
            let x: Vec<f32> = (0..n_src * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();

            // Reference: naive edge walk.
            let mut expect = vec![0.0f32; n_dst * cols];
            for (&s, &d) in src.iter().zip(&dst) {
                for c in 0..cols {
                    expect[d as usize * cols + c] += x[s as usize * cols + c];
                }
            }
            let got = scatter_reduce_forward(&x, cols, &src, &dst, n_dst, None);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-4, "scatter_add mismatch");
            }
        }
    }

    #[test]
    #[should_panic(expected = "source row out of range")]
    fn scatter_forward_validates_source_rows() {
        // The unchecked per-edge reads depend on this up-front validation.
        let x = vec![0.0f32; 4]; // 2 rows × 2 cols
        scatter_reduce_forward(&x, 2, &[5], &[0], 1, None);
    }

    #[test]
    fn parallel_and_serial_chunking_are_bitwise_identical() {
        // The determinism claim: because each output row is reduced in CSR
        // edge order inside exactly one chunk, chunk boundaries (and hence
        // thread count) cannot change the result. Compare the pool-parallel
        // path against a forced single-chunk evaluation of the same kernel.
        let mut rng = StdRng::seed_from_u64(99);
        let n_src = 500;
        let n_dst = 300;
        let cols = 64; // big enough to clear AGG_SERIAL_CUTOFF
        let n_edges = 4000;
        let src: Vec<u32> = (0..n_edges).map(|_| rng.random_range(0..n_src as u32)).collect();
        let dst: Vec<u32> = (0..n_edges).map(|_| rng.random_range(0..n_dst as u32)).collect();
        let x: Vec<f32> = (0..n_src * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let mut counts = vec![0.0f32; n_dst];
        for &d in &dst {
            counts[d as usize] += 1.0;
        }

        let parallel = scatter_reduce_forward(&x, cols, &src, &dst, n_dst, Some(&counts));
        // Serial reference with the *identical* per-row reduction.
        let mut serial = vec![0.0f32; n_dst * cols];
        with_csr(&dst, n_dst, |offsets, order| {
            for d in 0..n_dst {
                let orow = &mut serial[d * cols..(d + 1) * cols];
                for &e in &order[offsets[d] as usize..offsets[d + 1] as usize] {
                    let s = src[e as usize] as usize;
                    for (o, &v) in orow.iter_mut().zip(&x[s * cols..(s + 1) * cols]) {
                        *o += v;
                    }
                }
                if counts[d] > 0.0 {
                    let inv = 1.0 / counts[d];
                    for o in orow.iter_mut() {
                        *o *= inv;
                    }
                }
            }
        });
        assert_eq!(parallel, serial, "bitwise determinism across chunkings");

        let g: Vec<f32> = (0..n_dst * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let parallel_bwd =
            scatter_reduce_backward(&g, cols, &src, &dst, n_src, Some(&counts));
        let mut serial_bwd = vec![0.0f32; n_src * cols];
        with_csr(&src, n_src, |offsets, order| {
            for s in 0..n_src {
                let drow = &mut serial_bwd[s * cols..(s + 1) * cols];
                for &e in &order[offsets[s] as usize..offsets[s + 1] as usize] {
                    let d = dst[e as usize] as usize;
                    let inv = 1.0 / counts[d];
                    for (o, &v) in drow.iter_mut().zip(&g[d * cols..(d + 1) * cols]) {
                        *o += inv * v;
                    }
                }
            }
        });
        assert_eq!(parallel_bwd, serial_bwd);
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
