//! Offline drop-in subset of the [`rand`](https://crates.io/crates/rand) 0.8
//! API surface used by this workspace.
//!
//! The build environment has no registry access, so instead of the real crate
//! we vendor the handful of items the tuner relies on: the [`Rng`] /
//! [`RngCore`] / [`SeedableRng`] traits, range sampling via [`SampleRange`],
//! and a deterministic [`rngs::StdRng`] (xoshiro256++ seeded with SplitMix64).
//!
//! Determinism is a hard requirement of the tuner (fixed-seed runs must
//! reproduce identical evaluation sequences), so the generator here is fully
//! specified and has no platform- or thread-dependent behavior. The stream is
//! *not* identical to the real crate's `StdRng` (ChaCha12); it does not need
//! to be, since every consumer in the workspace goes through this shim.

use std::ops::{Range, RangeInclusive};

/// Deterministic pseudo-random generators.
pub mod rngs {
    pub use crate::std_rng::StdRng;
}

/// The minimal core of a random generator: a source of 64 random bits.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits (upper half of
    /// [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Samples a value of `T` from its standard distribution
    /// (`f64`/`f32`: uniform `[0, 1)`; integers: uniform over the type;
    /// `bool`: fair coin).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types with a standard distribution (see [`Rng::gen`]).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range {self:?}");
        let u = f64::sample(rng);
        // Clamp guards against rounding up to `end` when the span is huge.
        (self.start + u * (self.end - self.start)).min(self.end.next_down())
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range {self:?}");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Unbiased-enough integer range sampling via Lemire's widening multiply.
/// (The modulo bias of a 64-bit multiply against the tiny spans used in this
/// workspace is below 2⁻⁵⁰ and irrelevant for a tuner.)
fn sample_span<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    (rng.next_u64() as u128 * span) >> 64
}

macro_rules! int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range {self:?}");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + sample_span(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range {self:?}");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + sample_span(rng, span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

mod std_rng {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ generator seeded through SplitMix64.
    ///
    /// Fast, passes BigCrush, and — crucially for the tuner — a pure function
    /// of the seed on every platform.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding procedure.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl StdRng {
        /// The generator's full internal state, for checkpointing.
        ///
        /// Together with [`StdRng::from_state`] this lets callers persist a
        /// generator mid-stream and later continue it bit-for-bit — the
        /// foundation of crash-safe resumable tuning runs.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a state captured by [`StdRng::state`].
        /// The restored stream continues exactly where the captured one
        /// stopped.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let av: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut a = StdRng::seed_from_u64(9);
        for _ in 0..7 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        let av: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&x), "{x}");
            let y: f64 = rng.gen();
            assert!((0.0..1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn int_ranges_cover_endpoints() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
        let mut lo_hit = false;
        let mut hi_hit = false;
        for _ in 0..1000 {
            match rng.gen_range(-1i64..=1) {
                -1 => lo_hit = true,
                1 => hi_hit = true,
                _ => {}
            }
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn works_through_unsized_refs() {
        fn takes_dyn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(4);
        let x = takes_dyn(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(5i64..5);
    }
}
