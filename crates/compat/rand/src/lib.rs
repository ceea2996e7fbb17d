//! Offline drop-in for the subset of the `rand` 0.8 API this workspace
//! uses: `StdRng`, `SeedableRng::seed_from_u64`, `Rng::gen` for `f64`/`bool`,
//! and `Rng::gen_range` over integer and float ranges.
//!
//! The build environment has no registry access, so the real `rand` crate
//! cannot be fetched. Stream *quality* matters here (the workload generator
//! calibrates sparsity statistics against tight tolerances) but bit-for-bit
//! equality with upstream `StdRng` does not: every consumer in the workspace
//! only relies on seeded self-consistency. The generator is xoshiro256++
//! seeded through SplitMix64, both public-domain reference algorithms.

#![warn(missing_docs)]

use core::ops::{Range, RangeInclusive};

/// Namespace mirror of `rand::rngs`.
pub mod rngs {
    pub use crate::StdRng;
}

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates an RNG from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The standard seeded RNG: xoshiro256++ with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the full 256-bit state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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

/// Types samplable by [`Rng::gen`] (the `Standard` distribution of upstream
/// `rand`).
pub trait Standard: Sized {
    /// Draws one value from the RNG.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 != 0
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// A draw uniform in `0..span` for a span in `1..=2^64`: the next word
/// modulo the span, taken in `u64` (a span of `2^64` keeps the word whole).
fn remainder<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    let x = rng.next_u64();
    u64::try_from(span).map_or(x, |span| x % span) as u128
}

macro_rules! int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + remainder(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + remainder(rng, span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_is_uniform_unit_interval() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = rng.gen_range(0usize..4);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..200 {
            let v = rng.gen_range(-20i8..=20);
            assert!((-20..=20).contains(&v));
        }
        for _ in 0..200 {
            let v = rng.gen_range(1u16..16);
            assert!((1..16).contains(&v));
        }
    }

    #[test]
    fn u64_remainder_equals_the_u128_one() {
        // Words and spans from the generator itself, plus every span edge:
        // 1, powers of two, and the full 2^64 of a whole-type range.
        let mut draws = StdRng::seed_from_u64(11);
        let edges = [1, 2, 3, 16, 127, 255, 1 << 32, u64::MAX as u128, 1 << 64];
        for i in 0..20_000 {
            let span = match edges.get(i % 16) {
                Some(&edge) => edge,
                None => (draws.next_u64() >> (i % 64)).max(1) as u128,
            };
            let seed = draws.next_u64();
            let expected = (StdRng::seed_from_u64(seed).next_u64() as u128) % span;
            let actual = remainder(&mut StdRng::seed_from_u64(seed), span);
            assert_eq!(actual, expected, "span {span}");
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(9);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "{trues}");
    }
}
