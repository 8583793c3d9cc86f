//! Hermetic in-tree shim for [`rand`](https://docs.rs/rand) (0.9-era API).
//!
//! The workspace builds with `--offline` and zero registry dependencies
//! (DESIGN.md § "Hermetic build"), so the subset of `rand` this repo uses
//! is reimplemented here:
//!
//! * [`rngs::StdRng`] — a xoshiro256\*\* core, seeded from a `u64` through
//!   SplitMix64 (the seeding scheme recommended by the xoshiro authors);
//! * [`SeedableRng::seed_from_u64`] / [`SeedableRng::from_seed`];
//! * [`Rng::random_range`] (and the pre-0.9 spelling [`Rng::gen_range`])
//!   over half-open and inclusive integer ranges, plus [`Rng::random`]
//!   for primitive types via [`Fill`];
//! * [`thread_rng`] / [`rng`] returning a per-thread generator seeded from
//!   the system clock and a thread-local counter.
//!
//! The stream is *not* bit-compatible with crates.io `rand`'s `StdRng`
//! (which is ChaCha12); everything in this repo that cares about
//! determinism only requires that the same seed yields the same stream
//! across runs of *this* code, which xoshiro256\*\* guarantees.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Core generator: SplitMix64 (seeding) + xoshiro256** (stream)
// ---------------------------------------------------------------------------

/// SplitMix64 step: the recommended seed-expansion function for xoshiro.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\* — Blackman & Vigna's all-purpose 256-bit generator.
#[derive(Clone, Debug)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 random bits (upper half of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

// ---------------------------------------------------------------------------
// SeedableRng
// ---------------------------------------------------------------------------

/// Construction from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed;

    /// Build from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64`, expanding it with SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be produced uniformly at random ([`Rng::random`]).
pub trait Fill {
    /// Draw one uniformly random value from `rng`.
    fn fill_from(rng: &mut dyn RngCore) -> Self;
}

/// Object-safe source of random bits (the `rand_core::RngCore` analogue).
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

macro_rules! impl_fill_int {
    ($($t:ty),*) => {$(
        impl Fill for $t {
            fn fill_from(rng: &mut dyn RngCore) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_fill_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Fill for bool {
    fn fill_from(rng: &mut dyn RngCore) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Fill for f64 {
    fn fill_from(rng: &mut dyn RngCore) -> f64 {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Fill for f32 {
    fn fill_from(rng: &mut dyn RngCore) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

// ---------------------------------------------------------------------------
// Uniform ranges
// ---------------------------------------------------------------------------

/// Ranges that can be sampled uniformly (the `SampleRange` analogue).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics if empty.
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = uniform_u128(rng, span);
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = uniform_u128(rng, span);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform value in `[0, span)` (span ≤ 2^64 here), by Lemire's widening
/// multiplication with a rejection step to remove modulo bias.
fn uniform_u128(rng: &mut dyn RngCore, span: u128) -> u128 {
    debug_assert!(span > 0 && span <= u64::MAX as u128 + 1);
    let s = span as u64; // wraps to 0 exactly when span == 2^64
    if s == 0 {
        // span == 2^64: every u64 is fair.
        return rng.next_u64() as u128;
    }
    let threshold = s.wrapping_neg() % s; // (2^64 - s) mod s
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (s as u128);
        if (m as u64) >= threshold {
            return m >> 64;
        }
    }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

/// The user-facing trait, mirroring `rand::Rng`'s subset used in-tree.
pub trait Rng: RngCore {
    /// Uniform sample from an integer range (`rand` 0.9 name).
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Uniform sample from an integer range (pre-0.9 name, kept so both
    /// spellings work against the shim).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Uniformly random value of a primitive type (`rand` 0.9 name).
    fn random<T: Fill>(&mut self) -> T
    where
        Self: Sized,
    {
        T::fill_from(self)
    }

    /// Probability-`p` coin flip.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::fill_from(self) < p
    }
}

impl<R: RngCore> Rng for R {}

// ---------------------------------------------------------------------------
// rngs::StdRng
// ---------------------------------------------------------------------------

/// Named engines, mirroring `rand::rngs`.
pub mod rngs {
    use super::*;

    /// The standard seedable engine (xoshiro256\*\* here; ChaCha12 in the
    /// real crate — see the crate docs for why that difference is fine).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        core: Xoshiro256StarStar,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.core.next_u64()
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // xoshiro's one illegal state; nudge deterministically.
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng {
                core: Xoshiro256StarStar { s },
            }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng {
                core: Xoshiro256StarStar { s },
            }
        }
    }

    /// Per-thread generator handle returned by [`crate::thread_rng`].
    #[derive(Clone, Debug)]
    pub struct ThreadRng;

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            THREAD_RNG.with(|r| r.borrow_mut().next_u64())
        }
    }

    thread_local! {
        pub(super) static THREAD_RNG: RefCell<StdRng> = RefCell::new({
            use std::time::{SystemTime, UNIX_EPOCH};
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED);
            // Mix in a per-thread component so simultaneous threads differ.
            let tid = {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                use std::hash::{Hash, Hasher};
                std::thread::current().id().hash(&mut h);
                h.finish()
            };
            StdRng::seed_from_u64(nanos ^ tid.rotate_left(32))
        });
    }
}

/// A lazily-seeded per-thread generator (`rand::thread_rng`).
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}

/// `rand` 0.9 spelling of [`thread_rng`].
pub fn rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}

/// Convenience free function: one uniformly random value off the
/// thread-local engine (`rand::random`).
pub fn random<T: Fill>() -> T {
    T::fill_from(&mut rngs::ThreadRng)
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::{StdRng, ThreadRng};
    pub use crate::{random, rng, thread_rng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(2016);
        let mut b = StdRng::seed_from_u64(2016);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(3..=8usize);
            assert!((3..=8).contains(&v));
            let w = r.random_range(0..36usize);
            assert!(w < 36);
            let n = r.random_range(-50i64..50);
            assert!((-50..50).contains(&n));
        }
    }

    #[test]
    fn all_range_values_reachable() {
        let mut r = StdRng::seed_from_u64(42);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[r.random_range(0..6usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform sampler misses values: {seen:?}"
        );
    }

    #[test]
    fn single_value_range() {
        let mut r = StdRng::seed_from_u64(1);
        assert_eq!(r.random_range(5..=5u32), 5);
        assert_eq!(r.random_range(5..6u32), 5);
    }

    #[test]
    fn full_u64_range_via_random() {
        let mut r = StdRng::seed_from_u64(9);
        // Smoke: draws are not all equal and bool flips both ways.
        let draws: Vec<u64> = (0..16).map(|_| r.random()).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
        let flips: Vec<bool> = (0..64).map(|_| r.random()).collect();
        assert!(flips.contains(&true) && flips.contains(&false));
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn thread_rng_progresses() {
        let mut t = thread_rng();
        assert_ne!(t.next_u64(), t.next_u64());
    }
}
