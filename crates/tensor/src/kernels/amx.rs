//! The amx rung: a training step's SAGE products in AMX tiles, with bf16
//! operands and f32 accumulation.
//!
//! * **Operands.** A product reads its operands where they lie, as one or
//!   two row-major blocks of `f32` or [`crate::F16`] ([`Blocks`]): the
//!   forward's `[x_t | agg]` side by side against `[W_self; W_neigh]`
//!   stacked, so both terms accumulate in the same tiles and each output
//!   row is stored once. Every element becomes bf16 on its way into a pack
//!   (`vcvtne2ps2bf16`, round to nearest even; a half is widened first,
//!   exactly), sixteen at a time with AVX-512.
//! * **Packs.** B is packed once per product into VNNI pairs (`K/2 × N`
//!   words, each the two bf16 of rows `2q` and `2q + 1`) stored in panels
//!   of 32 columns whose pair rows are contiguous — a tile row of B 128
//!   bytes from the next instead of a whole B row, which doubled the tile
//!   loop on a B panel that does not fit L1. A is packed per 32 output rows
//!   into bf16 rows (`32 × K/2` words); a transposed operand goes through a
//!   16 × 16 word transpose in registers. K is padded with zeros to a
//!   multiple of 32, N to a multiple of 32, so a tile never reads past a
//!   pack. Pack scratch comes from the thread's `u32` pool.
//! * **Tiles.** Up to 2 × 2 accumulator tiles of 16 × 16 `f32`, two A and
//!   two B tiles, all configured 16 rows × 64 bytes: `tdpbf16ps` adds the
//!   exact products of bf16 pairs to f32 accumulators, K in increasing
//!   order. An output element depends only on its row of A, its column of
//!   B and the padded K, never on where rows or columns were cut, so the
//!   bits are the same at any chunking and pool width. A block of C that
//!   does not fill its tiles goes through a 32 × 32 stack buffer.
//! * **`asm!`.** AMX intrinsics are unstable on this toolchain, so each tile
//!   instruction is a one-line `asm!` block; the compiler allocates no tile
//!   register, and its volatile blocks keep their order. Every product loads
//!   its tile configuration on the thread that runs it and releases the
//!   tiles before it returns.

#![expect(
    clippy::indexing_slicing,
    reason = "a pack's lanes are addressed by pointer inside extents asserted at the entries; the remaining indexes are fixed-size register arrays"
)]

use super::{level, min_chunk_rows, put_u32, take_u32, Level};
use crate::f16::FeatureRows;
use crate::pool::{parallel_for, SendPtr};
use std::arch::asm;
use std::arch::x86_64::*;

/// Whether this CPU and OS run the amx rung: CPUID leaf 7 reports AMX-BF16
/// and AMX-TILE, AVX512-BF16 (the packing conversion) and AVX512-BW/VL (the
/// masked half loads) are there, and Linux grants the process the tile
/// data state (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`).
pub(super) fn host_has_amx() -> bool {
    use std::arch::is_x86_feature_detected as has;
    let leaf7 = __cpuid_count(7, 0);
    let tiles = (leaf7.edx >> 22) & 1 == 1 && (leaf7.edx >> 24) & 1 == 1;
    tiles && has!("avx512bf16") && has!("avx512bw") && has!("avx512vl") && request_tile_data()
}

/// Asks the kernel for permission to use the tile data state, once for the
/// whole process (every thread, the pool's included, may then run tiles).
fn request_tile_data() -> bool {
    #[cfg(target_os = "linux")]
    {
        const SYS_ARCH_PRCTL: i64 = 158;
        const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
        const XFEATURE_XTILEDATA: i64 = 18;
        extern "C" {
            fn syscall(number: i64, ...) -> i64;
        }
        // SAFETY: libc's `syscall` (std links libc on this target) with
        // `arch_prctl`'s number and two integer arguments; this request only
        // enlarges the process's permitted xsave state and touches no memory
        // of ours. A kernel without AMX support returns an error, not a
        // signal.
        unsafe { syscall(SYS_ARCH_PRCTL, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// One operand of a bf16 product as it is stored: one or two row-major
/// `rows × cols` blocks of `f32` or `F16`, side by side (`[x_t | agg]`, a
/// `rows × 2·cols` matrix) or stacked (`[W_self; W_neigh]`, `2·rows × cols`).
#[derive(Clone, Copy)]
pub(crate) struct Blocks<'a> {
    parts: &'a [FeatureRows<'a>],
    rows: usize,
    cols: usize,
    stacked: bool,
}

impl<'a> Blocks<'a> {
    /// `parts` side by side, each `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics unless there are one or two parts of `rows × cols` values.
    pub(crate) fn side_by_side(parts: &'a [FeatureRows<'a>], rows: usize, cols: usize) -> Self {
        Self::new(parts, rows, cols, false)
    }

    /// `parts` stacked, each `rows × cols`.
    ///
    /// # Panics
    ///
    /// As for [`Blocks::side_by_side`].
    pub(crate) fn stacked(parts: &'a [FeatureRows<'a>], rows: usize, cols: usize) -> Self {
        Self::new(parts, rows, cols, true)
    }

    fn new(parts: &'a [FeatureRows<'a>], rows: usize, cols: usize, stacked: bool) -> Self {
        assert!((1..=2).contains(&parts.len()), "a bf16 operand is one or two blocks");
        assert!(parts.iter().all(|p| p.len() == rows * cols), "bf16 operand block/shape mismatch");
        Blocks { parts, rows, cols, stacked }
    }

    /// The whole matrix's `(rows, cols)`.
    fn dims(&self) -> (usize, usize) {
        let p = self.parts.len();
        if self.stacked {
            (p * self.rows, self.cols)
        } else {
            (self.rows, p * self.cols)
        }
    }

    /// `(m, k)` of the product's left operand: this matrix, or (`ta`) its
    /// transpose.
    pub(crate) fn op_dims(&self, ta: bool) -> (usize, usize) {
        let (r, c) = self.dims();
        if ta {
            (c, r)
        } else {
            (r, c)
        }
    }

    /// Where columns `[c0, c0 + 16)` of the whole matrix come from, worked
    /// out once for many rows: a run per part they cross, or — stacked
    /// parts all hold every column, the row picks the part — a run per part.
    fn window(&self, c0: usize) -> Window {
        let mut w = Window { runs: [Run { lane0: Lane0::Full(std::ptr::null()), mask: 0 }; 2], len: 0 };
        for (p, part) in self.parts.iter().enumerate() {
            // The part's first column in the whole matrix.
            let pc = if self.stacked { 0 } else { p * self.cols };
            let (lo, hi) = (c0.max(pc), (c0 + 16).min(pc + self.cols));
            let mask = if lo < hi { (((1u32 << (hi - lo)) - 1) << (lo - c0)) as __mmask16 } else { 0 };
            if mask == 0 && !self.stacked {
                continue;
            }
            // Lane 0 is column `c0 - pc` of the part's row 0: before the row
            // when the run starts mid-window, where its lanes are masked.
            let at = c0 as isize - pc as isize;
            let lane0 = match part {
                FeatureRows::Full(x) => Lane0::Full(x.as_ptr().wrapping_offset(at)),
                FeatureRows::Half(x) => Lane0::Half(x.as_ptr().wrapping_offset(at) as *const i16),
            };
            w.runs[w.len] = Run { lane0, mask };
            w.len += 1;
        }
        w
    }

    /// The window's sixteen columns of row `r` of the whole matrix, zero
    /// where they fall outside it.
    ///
    /// # Safety
    ///
    /// The CPU must have the rung ([`host_has_amx`]), and `w` must be a
    /// window of this operand.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn load(&self, w: &Window, r: usize) -> __m512 {
        let mut v = _mm512_setzero_ps();
        if r >= self.dims().0 {
            return v;
        }
        let (runs, row) = match self.stacked {
            true => (&w.runs[r / self.rows..=r / self.rows], r % self.rows),
            false => (&w.runs[..w.len], r),
        };
        // Live lanes lie inside the part's row; masked ones are never read.
        let at = row * self.cols;
        for run in runs {
            v = match run.lane0 {
                Lane0::Full(x) => _mm512_mask_loadu_ps(v, run.mask, x.wrapping_add(at)),
                Lane0::Half(x) => {
                    _mm512_mask_mov_ps(v, run.mask, _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(run.mask, x.wrapping_add(at))))
                }
            };
        }
        v
    }

    /// Row `r` of the whole matrix as bf16 into `line`, `2·kq` half-words:
    /// each part's stretch of the row converted 32 values at a time, then
    /// zeros up to the end of the line.
    ///
    /// # Safety
    ///
    /// The CPU must have the rung, and `line` must hold `2·kq >= cols`
    /// half-words of the whole matrix.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512bf16")]
    unsafe fn row_bf16(&self, r: usize, line: *mut u16, kq: usize) {
        let (rows, width) = self.dims();
        let written = if r < rows { width } else { 0 };
        for (p, part) in self.parts.iter().enumerate() {
            let (row, pc) = match self.stacked {
                true if r < rows && r / self.rows == p => (r % self.rows, 0),
                false if r < rows => (r, p * self.cols),
                _ => continue,
            };
            for c in (0..self.cols).step_by(32) {
                let live = (self.cols - c).min(32);
                let (m_lo, m_hi) = (lanes(live.min(16)), lanes(live.saturating_sub(16)));
                let at = row * self.cols + c;
                let (lo, hi) = match part {
                    FeatureRows::Full(x) => {
                        let x = x.as_ptr().add(at);
                        (_mm512_maskz_loadu_ps(m_lo, x), _mm512_maskz_loadu_ps(m_hi, x.wrapping_add(16)))
                    }
                    FeatureRows::Half(x) => {
                        let h = x.as_ptr().add(at) as *const i16;
                        let half = |m, h| _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(m, h));
                        (half(m_lo, h), half(m_hi, h.wrapping_add(16)))
                    }
                };
                let live32 = (u64::MAX >> (64 - live)) as __mmask32;
                _mm512_mask_storeu_epi16(line.add(pc + c) as *mut i16, live32, pairs_along(lo, hi));
            }
        }
        for c in (written..2 * kq).step_by(32) {
            let live32 = (u64::MAX >> (64 - (2 * kq - c).min(32))) as __mmask32;
            _mm512_mask_storeu_epi16(line.add(c) as *mut i16, live32, _mm512_setzero_si512());
        }
    }
}

/// The first `n` (0..=16) lanes.
#[inline]
fn lanes(n: usize) -> __mmask16 {
    ((1u32 << n) - 1) as __mmask16
}

/// Where lane 0 of a [`Run`] reads in row 0 of its part.
#[derive(Clone, Copy)]
enum Lane0 {
    Full(*const f32),
    Half(*const i16),
}

/// One part's share of a [`Window`]: its lanes, and where lane 0 reads.
#[derive(Clone, Copy)]
struct Run {
    lane0: Lane0,
    mask: __mmask16,
}

/// Sixteen columns of a [`Blocks`] operand, as one or two [`Run`]s.
struct Window {
    runs: [Run; 2],
    len: usize,
}

/// Sixteen words of bf16 pairs from 32 consecutive values: word `q` is
/// `(v[2q], v[2q + 1])`, `lo` holding `v[0..16]` and `hi` `v[16..32]`.
///
/// # Safety
///
/// The CPU must have the rung.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn pairs_along(lo: __m512, hi: __m512) -> __m512i {
    // SAFETY: `__m512bh` and `__m512i` are the same 64 bytes.
    unsafe { std::mem::transmute::<__m512bh, __m512i>(_mm512_cvtne2ps_pbh(hi, lo)) }
}

/// Sixteen words of bf16 pairs from two rows: word `l` is `(v0[l], v1[l])`.
///
/// # Safety
///
/// The CPU must have the rung.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn pairs_across(v0: __m512, v1: __m512) -> __m512i {
    // Word 2l takes half-word l (v0's), word 2l + 1 half-word 16 + l (v1's).
    const IDX: [i16; 32] = {
        let mut idx = [0i16; 32];
        let mut l = 0;
        while l < 16 {
            idx[2 * l] = l as i16;
            idx[2 * l + 1] = 16 + l as i16;
            l += 1;
        }
        idx
    };
    _mm512_permutexvar_epi16(_mm512_loadu_si512(IDX.as_ptr() as *const _), pairs_along(v0, v1))
}

/// Transposes sixteen vectors of sixteen words in place: afterwards
/// `v[c]` lane `r` is what `v[r]` lane `c` was.
///
/// # Safety
///
/// The CPU must have AVX-512F.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose16(v: &mut [__m512i; 16]) {
    let mut a = [_mm512_setzero_si512(); 16];
    for i in 0..8 {
        a[2 * i] = _mm512_unpacklo_epi32(v[2 * i], v[2 * i + 1]);
        a[2 * i + 1] = _mm512_unpackhi_epi32(v[2 * i], v[2 * i + 1]);
    }
    // In each 128-bit lane `s`, b[4i + j] holds rows 4i..4i + 4 at column
    // 4s + j.
    let mut b = [_mm512_setzero_si512(); 16];
    for i in 0..4 {
        b[4 * i] = _mm512_unpacklo_epi64(a[4 * i], a[4 * i + 2]);
        b[4 * i + 1] = _mm512_unpackhi_epi64(a[4 * i], a[4 * i + 2]);
        b[4 * i + 2] = _mm512_unpacklo_epi64(a[4 * i + 1], a[4 * i + 3]);
        b[4 * i + 3] = _mm512_unpackhi_epi64(a[4 * i + 1], a[4 * i + 3]);
    }
    for j in 0..4 {
        let even = [_mm512_shuffle_i32x4::<0x88>(b[j], b[4 + j]), _mm512_shuffle_i32x4::<0x88>(b[8 + j], b[12 + j])];
        let odd = [_mm512_shuffle_i32x4::<0xdd>(b[j], b[4 + j]), _mm512_shuffle_i32x4::<0xdd>(b[8 + j], b[12 + j])];
        v[j] = _mm512_shuffle_i32x4::<0x88>(even[0], even[1]);
        v[8 + j] = _mm512_shuffle_i32x4::<0xdd>(even[0], even[1]);
        v[4 + j] = _mm512_shuffle_i32x4::<0x88>(odd[0], odd[1]);
        v[12 + j] = _mm512_shuffle_i32x4::<0xdd>(odd[0], odd[1]);
    }
}

/// Packs `nl` lines from line `l0` on (`nl` a multiple of 16), `kq` pairs
/// each (a multiple of 16), of `x` into `dst`: line `i` is row `l0 + i` of
/// `x` with pair `q` = `(x[i][2q], x[i][2q + 1])`, or — `across` — column
/// `l0 + i` with pair `q` = `(x[2q][i], x[2q + 1][i])`. Whatever falls
/// outside `x` packs as zero. `dst` is line-major (`dst[i·kq + q]`, an A
/// pack) or — `pair_major` — VNNI pairs in panels of 32 lines, each
/// panel's pair rows contiguous (`dst[(i / 32)·32·kq + q·32 + i % 32]`, a B
/// pack: a tile row of B is 64 bytes of one panel, 128 bytes from the next).
///
/// Rows into line-major lines are converted a row at a time; otherwise
/// sixteen lines × sixteen pairs at a time, through [`Window`]s worked out
/// once per line group (`across`) or pair block, and a block whose vectors
/// run the other way than `dst` is transposed in registers.
///
/// # Safety
///
/// The CPU must have the rung, and `dst` must hold `nl · kq` words (with
/// `nl` a multiple of 32 when `pair_major`).
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512bf16")]
unsafe fn pack(x: &Blocks<'_>, across: bool, (l0, nl): (usize, usize), kq: usize, dst: *mut u32, pair_major: bool) {
    if !across && !pair_major {
        for i in 0..nl {
            x.row_bf16(l0 + i, dst.add(i * kq) as *mut u16, kq);
        }
        return;
    }
    for ib in (0..nl).step_by(16) {
        let lines = x.window(l0 + ib);
        for qb in (0..kq).step_by(16) {
            let mut v = [_mm512_setzero_si512(); 16];
            if across {
                // Pair qb + t of lines ib..ib + 16.
                for (t, v) in v.iter_mut().enumerate() {
                    let r = 2 * (qb + t);
                    *v = pairs_across(x.load(&lines, r), x.load(&lines, r + 1));
                }
            } else {
                // Pairs qb..qb + 16 of line ib + t.
                let (lo, hi) = (x.window(2 * qb), x.window(2 * qb + 16));
                for (t, v) in v.iter_mut().enumerate() {
                    let r = l0 + ib + t;
                    *v = pairs_along(x.load(&lo, r), x.load(&hi, r));
                }
            }
            if across != pair_major {
                transpose16(&mut v);
            }
            for (t, v) in v.iter().enumerate() {
                let at = if pair_major { ib / 32 * 32 * kq + (qb + t) * 32 + ib % 32 } else { (ib + t) * kq + qb };
                _mm512_storeu_si512(dst.add(at) as *mut _, *v);
            }
        }
    }
}

/// A product's right operand `op(b)` (`k × n`) in VNNI pairs: `kq` pair rows
/// (`k` rounded up to 32, halved) in panels of 32 columns (`n` rounded up
/// to 32), in pooled scratch. Packed once per product on the calling thread
/// and read by every chunk.
pub(crate) struct BPanel {
    words: Vec<u32>,
    k: usize,
    n: usize,
    kq: usize,
}

impl BPanel {
    /// Packs `op(b)`: `b` itself (`k × n`), or — `tb` — the transpose of
    /// the `n × k` matrix `b` is.
    ///
    /// # Panics
    ///
    /// Panics unless the amx rung is this process's.
    pub(crate) fn pack(b: &Blocks<'_>, tb: bool) -> BPanel {
        assert!(level() == Level::Amx, "a bf16 pack off the amx rung");
        let (k, n) = b.op_dims(tb);
        let (kq, np) = (k.div_ceil(32) * 16, n.div_ceil(32) * 32);
        let mut words = take_u32(kq * np);
        // SAFETY: the rung is there (asserted), `words` has room for the
        // kq·np words `pack` writes — every one of them — before the length
        // covers them. Lines are the columns of `op(b)`: of `b` when it is
        // stored as is, across its rows.
        unsafe {
            pack(b, !tb, (0, np), kq, words.as_mut_ptr(), true);
            words.set_len(kq * np);
        }
        BPanel { words, k, n, kq }
    }
}

impl Drop for BPanel {
    fn drop(&mut self) {
        put_u32(std::mem::take(&mut self.words));
    }
}

/// A tile configuration: palette 1, every tile 16 rows × 64 bytes.
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

const TILES: TileConfig = {
    let mut cfg = [0u8; 64];
    cfg[0] = 1;
    let mut t = 0;
    while t < 8 {
        cfg[16 + 2 * t] = 64;
        cfg[48 + t] = 16;
        t += 1;
    }
    TileConfig(cfg)
};

/// `tileloadd tmm$t, [p + stride]`: 16 rows of 64 bytes, `stride` bytes
/// apart.
macro_rules! tile_load {
    ($t:literal, $p:expr, $stride:expr) => {
        asm!(concat!("tileloadd tmm", $t, ", [{p} + {s}*1]"), p = in(reg) $p, s = in(reg) $stride, options(nostack, readonly, preserves_flags))
    };
}

/// `tilestored [p + stride], tmm$t`.
macro_rules! tile_store {
    ($t:literal, $p:expr, $stride:expr) => {
        asm!(concat!("tilestored [{p} + {s}*1], tmm", $t), p = in(reg) $p, s = in(reg) $stride, options(nostack, preserves_flags))
    };
}

/// `tdpbf16ps tmm$c, tmm$a, tmm$b`: `C += A · B` over 32 bf16 of K.
macro_rules! tile_dot {
    ($c:literal, $a:literal, $b:literal) => {
        asm!(concat!("tdpbf16ps tmm", $c, ", tmm", $a, ", tmm", $b), options(nostack, nomem, preserves_flags))
    };
}

/// `tilezero tmm$t`.
macro_rules! tile_zero {
    ($t:literal) => {
        asm!(concat!("tilezero tmm", $t), options(nostack, nomem, preserves_flags))
    };
}

/// Loads (`load`) or stores the accumulator tiles of a `rm × rn` block of
/// C at `c`, `ldc` bytes a row: tile `(i, j)` is `tmm(2i + j)`.
///
/// # Safety
///
/// Tiles are configured, and `c` covers `16·rm` rows of `16·rn` floats.
#[inline(always)]
unsafe fn c_tiles(load: bool, c: *mut f32, ldc: usize, (rm, rn): (usize, usize)) {
    let at = |i: usize, j: usize| c.wrapping_add(16 * i * (ldc / 4) + 16 * j);
    // SAFETY: the caller's extent covers every tile of the block; tiles
    // beyond `rm × rn` are neither loaded nor stored.
    unsafe {
        match load {
            true => {
                tile_load!(0, at(0, 0), ldc);
                if rn == 2 {
                    tile_load!(1, at(0, 1), ldc);
                }
                if rm == 2 {
                    tile_load!(2, at(1, 0), ldc);
                    if rn == 2 {
                        tile_load!(3, at(1, 1), ldc);
                    }
                }
            }
            false => {
                tile_store!(0, at(0, 0), ldc);
                if rn == 2 {
                    tile_store!(1, at(0, 1), ldc);
                }
                if rm == 2 {
                    tile_store!(2, at(1, 0), ldc);
                    if rn == 2 {
                        tile_store!(3, at(1, 1), ldc);
                    }
                }
            }
        }
    }
}

/// How many K steps (16 pair rows of B each) ahead of the tiles the B
/// panel is prefetched.
const B_PREFETCH_STEPS: usize = 4;

/// A 32 × 32 block of C that does not fill its tiles, staged.
type Stage = [f32; 32 * 32];

/// `c[0..mb][0..n] = ap · b` (or `+=` when `acc`) for one block of at most
/// 32 output rows: `ap` holds 32 packed lines of `b.kq` pairs, `c` rows are
/// `ldc` floats apart. Column blocks of 32 (16 at a tail) left to right; a
/// block that does not fill its tiles goes through `stage`.
///
/// # Safety
///
/// Tiles are configured ([`TILES`]), `ap` holds 32 · `b.kq` words and `c`
/// covers `mb` rows of `b.n` floats that nobody else touches.
unsafe fn block(ap: *const u32, b: &BPanel, (c, ldc): (*mut f32, usize), mb: usize, acc: bool, stage: &mut Stage) {
    let (kq, n) = (b.kq, b.n);
    let (lda, ldb) = (kq * 4, 32 * size_of::<u32>());
    let rm = if mb > 16 { 2 } else { 1 };
    for j in (0..n).step_by(32) {
        let nb = (n - j).min(32);
        let rn = if nb > 16 { 2 } else { 1 };
        let direct = mb == 16 * rm && nb == 16 * rn;
        let (cp, ldcb) = if direct { (c.add(j), ldc * 4) } else { (stage.as_mut_ptr(), 32 * 4) };
        // SAFETY: the tiles are configured; `ap` holds 32 lines of kq
        // words and `b` a panel of kq pair rows of 32 words from column j
        // on, so every tile load below stays inside them (the prefetch
        // never faults); `cp` covers the block's 16·rm × 16·rn floats — C
        // itself only when they all lie inside its mb × n, else the stage —
        // and the copies move the block's mb × nb floats of C.
        unsafe {
            if acc {
                if !direct {
                    for i in 0..mb {
                        std::ptr::copy_nonoverlapping(c.add(i * ldc + j), stage.as_mut_ptr().add(i * 32), nb);
                    }
                }
                c_tiles(true, cp, ldcb, (rm, rn));
            } else {
                tile_zero!(0);
                tile_zero!(1);
                tile_zero!(2);
                tile_zero!(3);
            }
            for q in (0..kq).step_by(16) {
                let (a, bq) = (ap.add(q), b.words.as_ptr().add(j * kq + q * 32));
                // A tile load stalls on what is not in L1; the panels are
                // one stream, so the pair rows a few steps on (the next
                // column block's at the end of this one) are asked for now.
                let ahead = bq.wrapping_add(B_PREFETCH_STEPS * 16 * 32);
                for line in 0..16 * 32 * 4 / 64 {
                    super::prefetch_read(ahead.wrapping_add(line * 16));
                }
                tile_load!(4, a, lda);
                tile_load!(6, bq, ldb);
                tile_dot!(0, 4, 6);
                if rn == 2 {
                    tile_load!(7, bq.add(16), ldb);
                    tile_dot!(1, 4, 7);
                }
                if rm == 2 {
                    tile_load!(5, a.add(16 * kq), lda);
                    tile_dot!(2, 5, 6);
                    if rn == 2 {
                        tile_dot!(3, 5, 7);
                    }
                }
            }
            c_tiles(false, cp, ldcb, (rm, rn));
            if !direct {
                for i in 0..mb {
                    std::ptr::copy_nonoverlapping(stage.as_ptr().add(i * 32), c.add(i * ldc + j), nb);
                }
            }
        }
    }
}

/// Rows `[i0, i1)` of `op(a) · b` into `out`, which holds exactly those
/// rows (`b.n` wide): written first, or — `acc` — added to what it holds,
/// continuing each element's chain in the tiles. The body of one parallel
/// chunk, 32 rows at a time: pack them, then every column block.
///
/// # Panics
///
/// Panics off the amx rung, or on operands whose shapes disagree.
pub(crate) fn bf16_rows(out: &mut [f32], acc: bool, a: &Blocks<'_>, ta: bool, b: &BPanel, (i0, i1): (usize, usize)) {
    let (m, k) = a.op_dims(ta);
    assert!(level() == Level::Amx, "a bf16 product off the amx rung");
    assert_eq!(k, b.k, "bf16 product inner dimension mismatch");
    assert!(i0 <= i1 && i1 <= m && out.len() == (i1 - i0) * b.n, "bf16 product rows/shape mismatch");
    if i0 == i1 || b.n == 0 {
        return;
    }
    let (mut ap, mut stage) = (take_u32(32 * b.kq), [0.0f32; 32 * 32]);
    // SAFETY: the rung is there (asserted above): the configuration is
    // loaded before the first tile instruction and the tiles released after
    // the last. `ap` has room for the 32 lines × kq words `pack` writes
    // before `block` reads them, and each block's rows [ib, ib + mb) lie in
    // `out`, which this call borrows exclusively.
    unsafe {
        asm!("ldtilecfg [{}]", in(reg) TILES.0.as_ptr(), options(nostack, readonly, preserves_flags));
        for ib in (i0..i1).step_by(32) {
            let mb = (i1 - ib).min(32);
            // Lines are the rows of op(a): of `a` as stored, across its
            // rows when transposed.
            pack(a, ta, (ib, 32), b.kq, ap.as_mut_ptr(), false);
            block(ap.as_ptr(), b, (out.as_mut_ptr().add((ib - i0) * b.n), b.n), mb, acc, &mut stage);
        }
        asm!("tilerelease", options(nostack, nomem, preserves_flags));
    }
    put_u32(ap);
}

/// `out = op(a) · b` (or `+=` when `acc`) for all `m` rows: [`bf16_rows`]
/// over chunks of at least [`super::MIN_CHUNK_FLOPS`], one pool dispatch a
/// product, bitwise the same at any pool width.
///
/// # Panics
///
/// As for [`bf16_rows`].
pub(crate) fn bf16_gemm(out: &mut [f32], acc: bool, a: &Blocks<'_>, ta: bool, b: &BPanel) {
    let (m, k) = a.op_dims(ta);
    let n = b.n;
    assert_eq!(out.len(), m * n, "bf16 product output/shape mismatch");
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(m, min_chunk_rows(2 * n * k), &|i0, i1| {
        // SAFETY: `out` holds m·n floats (asserted above) and the chunks
        // [i0, i1) ⊆ [0, m) are disjoint, so each slice of whole rows is in
        // bounds and unaliased.
        let rows = unsafe { out_ptr.slice_mut(i0 * n, (i1 - i0) * n) };
        bf16_rows(rows, acc, a, ta, b, (i0, i1));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose16_swaps_rows_and_columns() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            eprintln!("transpose16: this host has no AVX-512F; nothing to check");
            return;
        }
        let words: Vec<u32> = (0..256).collect();
        let mut out = [0u32; 256];
        // SAFETY: AVX-512F is there (checked); every load and store covers
        // one row of 16 words inside the 256-word buffers.
        unsafe {
            let mut v = [_mm512_setzero_si512(); 16];
            for (r, v) in v.iter_mut().enumerate() {
                *v = _mm512_loadu_si512(words.as_ptr().add(16 * r) as *const _);
            }
            transpose16(&mut v);
            for (r, v) in v.iter().enumerate() {
                _mm512_storeu_si512(out.as_mut_ptr().add(16 * r) as *mut _, *v);
            }
        }
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(out[16 * r + c], words[16 * c + r], "({r}, {c})");
            }
        }
    }
}
