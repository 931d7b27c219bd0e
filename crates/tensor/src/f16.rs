//! IEEE 754 binary16 ("half") floating point, implemented from scratch.
//!
//! SALIENT stores node features in host memory as half precision to halve the
//! bytes moved during slicing and CPU→GPU transfer (§3, conventional
//! optimization (iii)). GPU compute still happens in `f32`, so the only
//! operations needed are conversion to/from `f32` plus ordering/formatting.
//!
//! Conversions between whole rows go through the bulk kernels
//! [`widen_into`] / [`narrow_into`], which use the x86 F16C unit
//! (`vcvtph2ps` / `vcvtps2ph`, 8 lanes per instruction) when the CPU has it
//! and fall back to the portable scalar implementation otherwise. The
//! workspace may not call the scalar [`F16::to_f32`] / [`F16::from_f32`]
//! outside this module without a stated reason (`clippy.toml` lists both
//! under `disallowed-methods`), so the vectorized path is the only one the
//! pipeline exercises on row-shaped data.
//!
//! One hardware caveat, pinned by tests: the F16C unit handles NaN payloads
//! differently from the scalar code (`vcvtps2ph` keeps the top ten payload
//! bits where [`F16::from_f32`] canonicalizes; `vcvtph2ps` quietens
//! signaling NaNs where [`F16::to_f32`] shifts the payload verbatim). Both
//! results are always NaN, and the pipeline never stores NaN features, so the
//! bulk kernels only promise "NaN in → NaN out", not a specific payload;
//! for every non-NaN input they are bit-identical to the scalar path.

#![expect(
    clippy::disallowed_methods,
    reason = "this module is the scalar conversion: the operators, the portable fallback and the tails of the bulk kernels are written with it"
)]

use std::cmp::Ordering;
use std::fmt;

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// Conversion from `f32` uses round-to-nearest-even, matching hardware
/// `F32 -> F16` conversion semantics.
///
/// `repr(transparent)` over the raw `u16` is a guarantee the SIMD conversion
/// kernels rely on: a `&[F16]` may be reinterpreted as a `*const u16` for
/// `vcvtph2ps` loads.
///
/// # Equality
///
/// `PartialEq` follows IEEE 754 *semantic* equality, like `f32`:
/// `+0.0 == -0.0` and `NaN != NaN` (so `F16` is deliberately **not** `Eq` or
/// `Hash`). The earlier derived bitwise implementation got both cases wrong.
/// Code that needs a total order over the full value set (sorting buffers
/// that may contain NaN) should use [`F16::total_cmp`]; code that needs
/// bit-level identity should compare [`F16::to_bits`].
///
/// # Examples
///
/// ```
/// use salient_tensor::F16;
///
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// assert_eq!(F16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
/// assert_eq!(F16::from_f32(0.0), F16::from_f32(-0.0));
/// assert_ne!(F16::from_f32(f32::NAN), F16::from_f32(f32::NAN));
/// ```
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// The largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);

    /// Creates an `F16` from its raw bit pattern.
    pub(crate) const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// `len` positive zeros, zeroed by the allocator rather than by a store per
    /// element: `vec![F16::ZERO; len]` writes all of them (the standard library
    /// asks for zeroed memory only for its own numeric types), which for a
    /// staging buffer of a few MB is page faults and milliseconds spent on bytes
    /// the first slice overwrites. Fresh pages stay untouched until used.
    pub fn zeros(len: usize) -> Vec<F16> {
        let mut bits = std::mem::ManuallyDrop::new(vec![0u16; len]);
        // SAFETY: `F16` is `repr(transparent)` over `u16`, so the two element
        // types share size and alignment and every bit pattern is a valid `F16`;
        // pointer, length and capacity come from a live `Vec<u16>` whose
        // destructor is suppressed, so ownership passes to the new vector.
        unsafe { Vec::from_raw_parts(bits.as_mut_ptr().cast::<F16>(), bits.len(), bits.capacity()) }
    }

    /// Converts an `f32` to `F16` with round-to-nearest-even.
    ///
    /// Values whose magnitude exceeds [`F16::MAX`] become infinity; values
    /// below the subnormal range flush to (signed) zero; NaN stays NaN.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN. Preserve a quiet-NaN payload bit so NaN stays NaN.
            let nan_payload = if man != 0 { 0x0200 } else { 0 };
            return F16(sign | EXP_MASK | nan_payload);
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return F16(sign | EXP_MASK);
        }
        if unbiased >= -14 {
            // Normal range. 13 mantissa bits must be rounded away.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_man = (man >> 13) as u16;
            let round_bits = man & 0x1FFF;
            let mut h = sign | half_exp | half_man;
            // Round to nearest even.
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half_man & 1) == 1) {
                h = h.wrapping_add(1); // may carry into exponent: correct (rounds up to next binade or inf)
            }
            return F16(h);
        }
        if unbiased >= -25 {
            // Subnormal half. Shift the implicit leading 1 into the mantissa.
            // The unit in the last place of a subnormal half is 2^-24, so the
            // 24-bit significand (1 implicit + 23 explicit bits, worth
            // 2^(unbiased-23) per bit) must shift right by -(unbiased+1).
            let full_man = man | 0x0080_0000;
            let s = (-unbiased - 1) as u32; // 14..=24
            let half_man = (full_man >> s) as u16;
            let round_mask = (1u32 << s) - 1;
            let round_bits = full_man & round_mask;
            let halfway = 1u32 << (s - 1);
            let mut h = sign | half_man;
            if round_bits > halfway || (round_bits == halfway && (half_man & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return F16(h);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Converts this half back to `f32` exactly (every `F16` value is
    /// representable in `f32`).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 & EXP_MASK) >> 10) as u32;
        let man = (self.0 & MAN_MASK) as u32;
        let bits = match (exp, man) {
            (0, 0) => sign,
            (0, m) => {
                // Subnormal: normalize.
                let mut e = -14i32;
                let mut m = m;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }

    /// Whether this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// Whether this value is finite (neither infinite nor NaN).
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// IEEE 754 `totalOrder` over binary16, mirroring [`f32::total_cmp`]:
    /// `-NaN < -Inf < … < -0.0 < +0.0 < … < +Inf < +NaN`, with NaNs further
    /// ordered by payload. This is the tool for sorting or deduplicating
    /// buffers that may contain NaN, where semantic `PartialEq`/`PartialOrd`
    /// (which treat NaN as unordered) would be unusable.
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        // Standard sign-magnitude → two's-complement trick: flipping all
        // bits of negative values (and only the sign bit of positives) maps
        // the IEEE total order onto the integer order.
        let mut a = self.0 as i16;
        let mut b = other.0 as i16;
        a ^= (((a >> 15) as u16) >> 1) as i16;
        b ^= (((b >> 15) as u16) >> 1) as i16;
        a.cmp(&b)
    }
}

impl PartialEq for F16 {
    /// IEEE semantic equality: `+0.0 == -0.0`, `NaN != NaN` (matches `f32`).
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Element type of a feature buffer: what the `salient` binary's
/// `SALIENT_DTYPE` variable names.
///
/// The pipeline stores and ships node features either as packed binary16
/// (`Half`, the paper's configuration — half the slice/transfer bytes) or as
/// plain `f32` (`Full`, the exact baseline the mixed-precision bench compares
/// against). Compute is always fp32; the dtype only governs storage and the
/// bytes a transfer moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dtype {
    /// IEEE binary16 storage ([`F16`]), widened to `f32` at the consumer.
    F16,
    /// Plain `f32` storage; no conversion anywhere.
    F32,
}

impl Dtype {
    /// Bytes per element.
    pub const fn size_of(self) -> usize {
        match self {
            Dtype::F16 => 2,
            Dtype::F32 => 4,
        }
    }

    /// Parses a dtype name: `f16`/`half` or `f32`/`float` (case-insensitive).
    pub fn parse(s: &str) -> Option<Dtype> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f16" | "half" | "float16" => Some(Dtype::F16),
            "f32" | "full" | "float" | "float32" => Some(Dtype::F32),
            _ => None,
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dtype::F16 => write!(f, "f16"),
            Dtype::F32 => write!(f, "f32"),
        }
    }
}

/// A borrowed, dtype-tagged run of packed feature values.
#[derive(Debug, Clone, Copy)]
pub enum FeatureRows<'a> {
    /// Binary16 values.
    Half(&'a [F16]),
    /// Full-precision values.
    Full(&'a [f32]),
}

impl<'a> FeatureRows<'a> {
    /// The element dtype.
    pub fn dtype(&self) -> Dtype {
        match self {
            FeatureRows::Half(_) => Dtype::F16,
            FeatureRows::Full(_) => Dtype::F32,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            FeatureRows::Half(v) => v.len(),
            FeatureRows::Full(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the viewed values occupy (what copying them would move).
    pub fn bytes(&self) -> usize {
        self.len() * self.dtype().size_of()
    }

    /// Widens the values into `out` — bulk F16C for half rows, a plain copy
    /// for full rows.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn widen_into(&self, out: &mut [f32]) {
        match self {
            FeatureRows::Half(v) => widen_into(v, out),
            FeatureRows::Full(v) => out.copy_from_slice(v),
        }
    }

    /// The values widened into a fresh `Vec<f32>`.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.widen_into(&mut out);
        out
    }

    /// Sub-view of `len` values starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[expect(clippy::indexing_slicing, reason = "documented range contract (# Panics)")]
    pub fn view(&self, start: usize, len: usize) -> FeatureRows<'a> {
        match self {
            FeatureRows::Half(v) => FeatureRows::Half(&v[start..start + len]),
            FeatureRows::Full(v) => FeatureRows::Full(&v[start..start + len]),
        }
    }
}

/// Value equality after widening (so a half view and a full view holding the
/// same representable values compare equal). Inherits `f32` semantics:
/// `-0.0 == +0.0`, `NaN != NaN`.
impl PartialEq for FeatureRows<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.to_f32_vec() == other.to_f32_vec()
    }
}

/// Widens halves to `f32`, writing into `out` (the "GPU-side upcast" in the
/// SALIENT transfer path: features are sliced and shipped as binary16 and
/// widened once at the consumer).
///
/// Uses F16C `vcvtph2ps` (8 lanes/instruction) when the CPU supports it and
/// the scalar [`F16::to_f32`] otherwise — widening is exact, so the two
/// paths agree bit-for-bit on every non-NaN input pattern (hardware quietens
/// signaling-NaN payloads; both paths keep NaN as NaN).
///
/// # Panics
///
/// Panics if `out.len() != src.len()`.
pub fn widen_into(src: &[F16], out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "widen length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::f16c_available() {
        // SAFETY: the F16C probe above passed, and the slices have equal
        // length by the assert.
        unsafe { simd::widen_f16c(src, out) };
        return;
    }
    for (o, v) in out.iter_mut().zip(src.iter()) {
        *o = v.to_f32();
    }
}

/// Narrows `f32` values to halves with round-to-nearest-even, writing into
/// `out`. The inverse of [`widen_into`]; used when quantizing a feature
/// matrix or staging fp32 data into a half-precision slab.
///
/// Uses F16C `vcvtps2ph` when available, scalar [`F16::from_f32`] otherwise.
/// The two paths agree bit-for-bit on all non-NaN inputs; for NaN both
/// produce NaN but may differ in payload (hardware keeps the top ten f32
/// payload bits, the scalar path canonicalizes).
///
/// # Panics
///
/// Panics if `out.len() != src.len()`.
pub fn narrow_into(src: &[f32], out: &mut [F16]) {
    assert_eq!(src.len(), out.len(), "narrow length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::f16c_available() {
        // SAFETY: the F16C probe above passed, and the slices have equal
        // length by the assert.
        unsafe { simd::narrow_f16c(src, out) };
        return;
    }
    for (o, v) in out.iter_mut().zip(src.iter()) {
        *o = F16::from_f32(*v);
    }
}

/// Converts a slice of `f32` into a freshly allocated vector of halves
/// (bulk-vectorized; see [`narrow_into`]).
pub fn quantize(values: &[f32]) -> Vec<F16> {
    let mut out = F16::zeros(values.len());
    narrow_into(values, &mut out);
    out
}

/// F16C-accelerated conversion kernels (x86-64 only, runtime-detected).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::F16;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether the CPU supports F16C (`vcvtph2ps`/`vcvtps2ph`).
    pub(crate) fn f16c_available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("f16c"))
    }

    /// Bulk f16 → f32 widening, 8 lanes per `vcvtph2ps`.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`f16c_available`] and that
    /// `src.len() == out.len()`.
    #[target_feature(enable = "f16c")]
    pub(crate) unsafe fn widen_f16c(src: &[F16], out: &mut [f32]) {
        let n = src.len();
        // F16 is repr(transparent) over u16, so the slice reinterprets.
        let sp = src.as_ptr() as *const u16;
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY (covered by the fn contract): i + 8 <= n, so both the
            // 128-bit load and the 256-bit store stay inside their slices
            // (unaligned ops).
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            _mm256_storeu_ps(op.add(i), _mm256_cvtph_ps(h));
            i += 8;
        }
        while i < n {
            // Scalar tail (< 8 elements); bit-identical to the vector body.
            // SAFETY (covered by the fn contract): i < n on both slices.
            *op.add(i) = F16::from_bits(*sp.add(i)).to_f32();
            i += 1;
        }
    }

    /// Bulk f32 → f16 narrowing with round-to-nearest-even, 8 lanes per
    /// `vcvtps2ph`.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`f16c_available`] and that
    /// `src.len() == out.len()`.
    #[target_feature(enable = "f16c")]
    pub(crate) unsafe fn narrow_f16c(src: &[f32], out: &mut [F16]) {
        // vcvtps2ph imm8: bits 1:0 = rounding control (0b00 = round to
        // nearest even, the same rounding the scalar path implements),
        // bit 2 clear = use the immediate rather than MXCSR.
        const RN: i32 = _MM_FROUND_TO_NEAREST_INT;
        let n = src.len();
        let sp = src.as_ptr();
        let op = out.as_mut_ptr() as *mut u16;
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY (covered by the fn contract): i + 8 <= n, so the 256-bit
            // load and the 128-bit store stay inside their slices (unaligned).
            let v = _mm256_loadu_ps(sp.add(i));
            _mm_storeu_si128(op.add(i) as *mut __m128i, _mm256_cvtps_ph::<RN>(v));
            i += 8;
        }
        while i < n {
            // Scalar tail (< 8 elements); bit-identical to the vector body
            // for all non-NaN inputs (NaN payloads may differ, see module docs).
            // SAFETY (covered by the fn contract): i < n on both slices.
            *op.add(i) = F16::from_f32(*sp.add(i)).to_bits();
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "value {f}");
        }
    }

    #[test]
    fn powers_of_two_round_trip() {
        for e in -14..=15 {
            let f = (2.0f32).powi(e);
            assert_eq!(F16::from_f32(f).to_f32(), f);
            assert_eq!(F16::from_f32(-f).to_f32(), -f);
        }
    }

    #[test]
    fn constants() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(F16::from_f32(1e6).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(-1e6).to_f32(), f32::NEG_INFINITY);
        // Values just above MAX round to infinity; just below stay finite.
        assert_eq!(F16::from_f32(65520.0).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(65472.0).to_f32(), 65472.0);
    }

    #[test]
    fn nan_is_preserved() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals() {
        let tiny = (2.0f32).powi(-24); // smallest positive subnormal half
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        let sub = 3.0 * (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(F16::from_f32((2.0f32).powi(-26)).to_f32(), 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; ties go to
        // even mantissa, i.e. down to 1.0.
        let halfway = 1.0 + (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + (2.0f32).powi(-11) + (2.0f32).powi(-16);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + (2.0f32).powi(-10));
    }

    #[test]
    fn quantize_dequantize_slices() {
        let xs = [0.0f32, 1.0, -2.5, 100.25, 0.099975586];
        let q = quantize(&xs);
        let mut out = vec![0.0f32; xs.len()];
        widen_into(&q, &mut out);
        for (a, b) in xs.iter().zip(out.iter()) {
            assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quantization_relative_error_bound() {
        // Round-to-nearest: relative error at most 2^-11 for normal values.
        let mut x = 1.0f32;
        while x < 60000.0 {
            let h = F16::from_f32(x).to_f32();
            assert!((h - x).abs() <= x * (2.0f32).powi(-11) + f32::EPSILON);
            x *= 1.37;
        }
    }

    // ---- semantic equality / total order (satellite: Eq fix) ----

    #[test]
    fn signed_zeros_compare_equal() {
        let pz = F16::from_f32(0.0);
        let nz = F16::from_f32(-0.0);
        assert_ne!(pz.to_bits(), nz.to_bits(), "distinct representations");
        assert_eq!(pz, nz, "semantic equality identifies +0.0 and -0.0");
    }

    #[test]
    fn nan_is_not_equal_to_itself() {
        let nan = F16::from_f32(f32::NAN);
        assert_ne!(nan, nan);
        assert_eq!(nan.partial_cmp(&nan), None);
    }

    #[test]
    fn total_cmp_orders_the_full_value_set() {
        use std::cmp::Ordering;
        // -NaN < -Inf < -1 < -0 < +0 < 1 < +Inf < +NaN
        let seq = [
            F16::from_bits(0xFE00), // -NaN
            F16::NEG_INFINITY,
            F16::from_f32(-1.0),
            F16::from_bits(0x8000), // -0.0
            F16::ZERO,
            F16::from_f32(1.0),
            F16::INFINITY,
            F16::from_bits(0x7E00), // +NaN
        ];
        for w in seq.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less, "{:?} < {:?}", w[0], w[1]);
        }
        for v in seq {
            assert_eq!(v.total_cmp(&v), Ordering::Equal);
        }
    }

    #[test]
    fn total_cmp_matches_f32_total_cmp_on_samples() {
        let mut rng = StdRng::seed_from_u64(0xF16);
        for _ in 0..20_000 {
            let a = F16::from_bits(rng.random::<u32>() as u16);
            let b = F16::from_bits(rng.random::<u32>() as u16);
            // f32::total_cmp agrees except that distinct f16 NaN payloads all
            // widen to distinct f32 payloads in the same order, so the orders
            // coincide on every pair.
            assert_eq!(
                a.total_cmp(&b),
                a.to_f32().total_cmp(&b.to_f32()),
                "a={:#06x} b={:#06x}",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    // ---- exhaustive bit-pattern sweeps (satellite: property tests) ----

    #[test]
    fn all_bit_patterns_round_trip_exactly() {
        // Every non-NaN half widens to f32 and narrows back to the identical
        // bit pattern (widening is exact; the value is its own nearest half).
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "NaN pattern {bits:#06x} must stay NaN");
            } else {
                assert_eq!(back.to_bits(), bits, "pattern {bits:#06x}");
            }
        }
    }

    #[test]
    fn bulk_widen_matches_scalar_on_all_patterns() {
        // Runs both the F16C path (when the CPU has it) and the scalar
        // fallback through the public entry point; they must agree bitwise on
        // every non-NaN input. For NaN inputs hardware `vcvtph2ps` quietens
        // signaling NaNs (sets the f32 quiet bit) where the scalar path
        // shifts the payload verbatim, so there the contract is NaN → NaN.
        let src: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let mut bulk = vec![0.0f32; src.len()];
        widen_into(&src, &mut bulk);
        for (i, (&h, &w)) in src.iter().zip(bulk.iter()).enumerate() {
            if h.is_nan() {
                assert!(w.is_nan(), "pattern {i:#06x}: NaN must widen to NaN");
            } else {
                assert_eq!(
                    w.to_bits(),
                    h.to_f32().to_bits(),
                    "pattern {i:#06x}: bulk widen diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn bulk_narrow_matches_scalar_on_f16_boundary_grid() {
        // For every half h and small ULP offsets around its f32 image, the
        // bulk narrow must agree with scalar RTNE bit-for-bit (non-NaN).
        let mut src = Vec::new();
        for bits in (0..=u16::MAX).step_by(7) {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let f = h.to_f32();
            src.push(f);
            src.push(f32::from_bits(f.to_bits().wrapping_add(1)));
            src.push(f32::from_bits(f.to_bits().wrapping_sub(1)));
        }
        let mut bulk = vec![F16::ZERO; src.len()];
        narrow_into(&src, &mut bulk);
        for (&f, &h) in src.iter().zip(bulk.iter()) {
            let scalar = F16::from_f32(f);
            if scalar.is_nan() {
                assert!(h.is_nan(), "input {:#010x}: NaN must stay NaN", f.to_bits());
            } else {
                assert_eq!(
                    h.to_bits(),
                    scalar.to_bits(),
                    "input {:#010x}: bulk narrow diverged from scalar RTNE",
                    f.to_bits()
                );
            }
        }
    }

    #[test]
    fn bulk_narrow_matches_scalar_on_random_f32(){
        // Random f32 bit patterns: every class (normals, subnormals, huge,
        // tiny, inf, NaN) appears; hardware vcvtps2ph and the scalar RTNE
        // implementation must agree on all non-NaN inputs.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let src: Vec<f32> = (0..100_000)
            .map(|_| f32::from_bits(rng.random::<u32>()))
            .collect();
        let mut bulk = vec![F16::ZERO; src.len()];
        narrow_into(&src, &mut bulk);
        for (&f, &h) in src.iter().zip(bulk.iter()) {
            let scalar = F16::from_f32(f);
            if f.is_nan() {
                assert!(h.is_nan());
            } else {
                assert_eq!(h.to_bits(), scalar.to_bits(), "input {:#010x}", f.to_bits());
            }
        }
    }

    #[test]
    fn property_rtne_picks_the_nearest_half() {
        // For random finite f32 inputs inside the half range, the rounded
        // result must be one of the two bracketing halves, and strictly the
        // nearer one when the input is not exactly halfway.
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50_000 {
            let x = (rng.random::<f32>() - 0.5) * 130_000.0;
            let h = F16::from_f32(x);
            if !h.is_finite() {
                // Overflow: |x| must be beyond the midpoint between MAX and
                // the next (unrepresentable) binade value 65536.
                assert!(x.abs() >= 65520.0, "{x} overflowed too early");
                continue;
            }
            let up = F16::from_bits(h.to_bits().wrapping_add(1));
            let down = F16::from_bits(h.to_bits().wrapping_sub(1));
            let err = (h.to_f32() - x).abs();
            for n in [up, down] {
                if n.is_finite() && (n > h) != (n < h) {
                    let other = (n.to_f32() - x).abs();
                    assert!(
                        err <= other,
                        "{x}: rounded to {h:?} but {n:?} is nearer (err {err} vs {other})"
                    );
                }
            }
        }
    }

    #[test]
    fn property_subnormal_ladder_is_exact() {
        // Every multiple of 2^-24 up to the normal threshold is exactly
        // representable as a subnormal half and must round-trip.
        let ulp = (2.0f32).powi(-24);
        for k in 0..1024 {
            let x = k as f32 * ulp;
            assert_eq!(F16::from_f32(x).to_f32(), x, "subnormal {k} * 2^-24");
            assert_eq!(F16::from_f32(-x).to_f32(), -x, "subnormal -{k} * 2^-24");
        }
    }

    #[test]
    fn property_widen_narrow_random_roundtrip_error() {
        // Quantize → dequantize of uniform features stays within the RTNE
        // relative-error bound 2^-11 (the bound DESIGN.md documents).
        let mut rng = StdRng::seed_from_u64(7);
        let src: Vec<f32> = (0..65_536).map(|_| (rng.random::<f32>() - 0.5) * 8.0).collect();
        let q = quantize(&src);
        let mut back = vec![0.0f32; src.len()];
        widen_into(&q, &mut back);
        for (&x, &y) in src.iter().zip(back.iter()) {
            assert!(
                (x - y).abs() <= x.abs() * (2.0f32).powi(-11) + (2.0f32).powi(-24),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn dtype_parse_and_sizes() {
        assert_eq!(Dtype::parse("f16"), Some(Dtype::F16));
        assert_eq!(Dtype::parse("HALF"), Some(Dtype::F16));
        assert_eq!(Dtype::parse("f32"), Some(Dtype::F32));
        assert_eq!(Dtype::parse(" Float32 "), Some(Dtype::F32));
        assert_eq!(Dtype::parse("bf16"), None);
        assert_eq!(Dtype::F16.size_of(), 2);
        assert_eq!(Dtype::F32.size_of(), 4);
        assert_eq!(Dtype::F16.to_string(), "f16");
        assert_eq!(Dtype::F32.to_string(), "f32");
    }
}
