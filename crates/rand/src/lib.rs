//! Offline drop-in subset of the `rand` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the (small) slice of the `rand 0.8` API the workspace
//! actually uses: [`Rng`] with `gen`, `gen_range` and `gen_bool`,
//! [`SeedableRng::seed_from_u64`], and [`rngs::StdRng`].
//!
//! `StdRng` is a xoshiro256** generator seeded through SplitMix64 —
//! deterministic, fast and statistically solid for simulation
//! workloads. Streams do **not** match upstream `rand`'s ChaCha-based
//! `StdRng`; all in-repo consumers treat seeds as opaque, so only
//! determinism (same seed → same stream) matters.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Types that can be sampled uniformly from the generator's raw
/// output (the `Standard` distribution of upstream `rand`).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a value can be drawn from uniformly (the `SampleRange`
/// trait of upstream `rand`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_u64(rng, span) as i64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i64).wrapping_add(uniform_u64(rng, span + 1) as i64) as $t
            }
        }
    )*};
}
impl_sample_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

/// Uniform draw from `[0, bound)` with rejection to kill modulo bias.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

/// The raw entropy source: everything else is derived from
/// [`RngCore::next_u64`].
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of any [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0,1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator from OS entropy. This offline shim derives
    /// it from the system clock and address-space layout instead —
    /// non-cryptographic, but unique enough per process.
    fn from_entropy() -> Self {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let aslr = &t as *const _ as u64;
        Self::seed_from_u64(t ^ aslr.rotate_left(32))
    }
}

/// Namespaced generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator:
    /// xoshiro256** seeded via SplitMix64.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// A small, fast generator; here identical to [`StdRng`].
    pub type SmallRng = StdRng;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro
            // authors for seeding from narrow state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** step.
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
    }
}

/// A single random value from an entropy-seeded [`rngs::StdRng`]
/// (mirrors `rand::random`).
pub fn random<T: Standard>() -> T {
    let mut rng = rngs::StdRng::from_entropy();
    T::sample(&mut rng)
}

/// `rand::thread_rng` stand-in: an entropy-seeded [`rngs::StdRng`]
/// (fresh per call rather than thread-cached).
pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng::from_entropy()
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::{random, thread_rng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(43);
        let vc: Vec<u64> = (0..16).map(|_| c.gen()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u64 = rng.gen_range(0..=5);
            assert!(y <= 5);
            let z: i32 = rng.gen_range(-4..5);
            assert!((-4..5).contains(&z));
            let f: f64 = rng.gen_range(0.0..100.0);
            assert!((0.0..100.0).contains(&f));
        }
    }

    #[test]
    fn range_coverage_is_complete() {
        // Every value of a small range appears (sanity against
        // off-by-one or bias bugs).
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn bool_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(3);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4000..6000).contains(&trues), "trues={trues}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        use super::RngCore;
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
