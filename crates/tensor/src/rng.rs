//! In-repo pseudo-random number generation (no external `rand` crate).
//!
//! The workspace is dependency-free by design: every crate that needs
//! randomness (weight init, dropout, neighborhood sampling, synthetic graph
//! generation) uses this module. The generator is xoshiro256** — the same
//! family `rand`'s `SmallRng` uses — seeded through SplitMix64 so that any
//! `u64` seed (including 0) expands to a full 256-bit state. A child stream
//! is named by the fields that tell it apart (an epoch, a batch, an attempt)
//! and derived from its parent's seed with [`derive`], the one derivation
//! the workspace uses.
//!
//! The API mirrors the subset of `rand` the codebase uses (`random`,
//! `random_range`, `shuffle`) so call sites read the same as before.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: expands/advances a 64-bit state with strong avalanche.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types that can be drawn uniformly from an [`Rng`].
pub trait Sample {
    /// Draws one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for i32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32 as i32
    }
}

impl Sample for i64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` using the top 24 bits of the stream.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits of the stream.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that can be sampled uniformly. Implemented for the integer and
/// float range types used across the workspace.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                let span = (self.end - self.start) as u64;
                // Lemire-style rejection keeps the draw unbiased.
                self.start + (uniform_u64_below(rng, span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sampling range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // Full-width range.
                    return <$t>::sample(rng);
                }
                lo + (uniform_u64_below(rng, span) as $t)
            }
        }
    )*};
}

int_range_impl!(u32, u64, usize, i32, i64);

macro_rules! float_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                self.start + <$t>::sample(rng) * (self.end - self.start)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sampling range");
                lo + <$t>::sample(rng) * (hi - lo)
            }
        }
    )*};
}

float_range_impl!(f32, f64);

/// Unbiased uniform draw in `[0, bound)` by multiply-shift with rejection.
#[inline]
fn uniform_u64_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let (hi, lo) = mul_wide(x, bound);
        if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
            return hi;
        }
    }
}

/// 64×64 → 128-bit multiply returning (high, low) words.
#[inline]
fn mul_wide(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

/// The uniform-generation interface (a minimal stand-in for `rand::Rng`).
pub trait Rng {
    /// The next 64 raw bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Draws one uniform value of type `T` (`f32`/`f64` in `[0,1)`).
    #[inline]
    fn random<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws uniformly from `range` (half-open or inclusive).
    #[inline]
    fn random_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// In-place Fisher–Yates shuffle, as a slice extension so call sites read
/// `xs.shuffle(&mut rng)` (the `rand::seq::SliceRandom` idiom).
pub trait SliceRandom {
    /// Shuffles the slice uniformly in place.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_u64_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

/// xoshiro256** — the workspace standard generator. Fast (one rotate, one
/// shift, two xors per draw), 256-bit state, passes BigCrush.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Deterministic construction from a 64-bit seed, expanded through
    /// SplitMix64 (the construction recommended by the xoshiro authors, and
    /// what `rand`'s `seed_from_u64` does).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The seed of the child stream of `seed` named by `fields`. Each field is
/// mixed in after the generator's own seeding has scrambled what came
/// before, so no field can cancel another's bits and the parent seed may
/// vary in any bit. Derivation composes: `derive(derive(s, a), b)` is
/// `derive(s, a ++ b)`, so a stream derived from an epoch's seed is the
/// run's stream named by the epoch's fields and its own.
pub fn derive(seed: u64, fields: &[u64]) -> u64 {
    fields.iter().fold(seed, |seed, &field| StdRng::seed_from_u64(seed).next_u64() ^ field)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let mut r = StdRng::seed_from_u64(8);
        for _ in 0..1000 {
            let x: f32 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn integer_ranges_are_bounded_and_cover() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.random_range(0u32..10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
        for _ in 0..1000 {
            let v = r.random_range(5usize..=9);
            assert!((5..=9).contains(&v));
        }
        for _ in 0..1000 {
            let v = r.random_range(-3i64..3);
            assert!((-3..3).contains(&v));
        }
    }

    #[test]
    fn float_ranges_are_bounded() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = r.random_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&v));
            let w = r.random_range(-1.0f32..=1.0);
            assert!((-1.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..100).collect();
        xs.shuffle(&mut r);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn derivation_composes_and_tells_fields_apart() {
        assert_eq!(derive(9, &[]), 9);
        assert_eq!(derive(derive(9, &[1, 2]), &[3]), derive(9, &[1, 2, 3]));
        // Neither the order of the fields nor a field that shifts into
        // another's bits (as `seed ^ x << k` folds did) names the same stream.
        assert_ne!(derive(9, &[1, 2]), derive(9, &[2, 1]));
        assert_ne!(derive(9 ^ 1 << 16, &[0, 1]), derive(9, &[1 << 8, 1]));
        let mut parent = StdRng::seed_from_u64(9);
        let mut child = StdRng::seed_from_u64(derive(9, &[0]));
        let overlap = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| r.random_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
