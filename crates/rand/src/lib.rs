//! Vendored, offline subset of the `rand` API used by this workspace:
//! `rngs::StdRng`, `SeedableRng::seed_from_u64` and
//! `RngExt::random_range` over half-open ranges.
//!
//! The generator is SplitMix64 — deterministic, seedable, passes through
//! the workspace's "builders are deterministic" property tests. It is NOT
//! cryptographically secure, which is fine: every use in this repo is test
//! fixtures and synthetic matrix generation.

/// Minimal RNG core: a source of uniform `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Range sampling, mirroring rand's `Rng::random_range`.
pub trait RngExt: RngCore {
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<T: RngCore> RngExt for T {}

/// A half-open range a value can be drawn from.
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // A range of a type at most 64 bits wide is narrower than
                // 2^64, so the draw reduces in u64: the same value as the
                // u128 remainder, without its library call.
                let width = (self.end as i128 - self.start as i128) as u64;
                let v = rng.next_u64() % width;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // 53 uniform mantissa bits in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let v = self.start as f64 + unit * (self.end as f64 - self.start as f64);
                v as $t
            }
        }
    )*};
}

float_range!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random_range(0usize..1000), b.random_range(0usize..1000));
        }
        let mut c = StdRng::seed_from_u64(43);
        let same: usize = (0..100)
            .filter(|_| a.random_range(0u64..1 << 40) == c.random_range(0u64..1 << 40))
            .count();
        assert!(same < 5, "different seeds must diverge");
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let f = rng.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.random_range(0usize..17);
            assert!(u < 17);
            let i = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn u64_reduction_matches_the_u128_formula() {
        use super::RngCore;
        fn wide(start: i128, end: i128, x: u64) -> i128 {
            start + (x as u128 % (end - start) as u128) as i128
        }
        let mut widths = StdRng::seed_from_u64(3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let w = (widths.next_u64() >> (widths.next_u64() % 64)).max(1);
            let x = rng.clone().next_u64();
            assert_eq!(rng.random_range(0..w) as i128, wide(0, w as i128, x), "width {w}");
            let s = (widths.next_u64() >> 2) as i64 - (1 << 61);
            let e = s.saturating_add((w >> 1).max(1) as i64);
            let x = rng.clone().next_u64();
            assert_eq!(rng.random_range(s..e) as i128, wide(s as i128, e as i128, x), "{s}..{e}");
        }
        // Width 1, the full u64 width and the widest signed range.
        for _ in 0..100 {
            let x = rng.clone().next_u64();
            assert_eq!(rng.random_range(7u64..8) as i128, wide(7, 8, x));
            let x = rng.clone().next_u64();
            assert_eq!(rng.random_range(0..u64::MAX) as i128, wide(0, u64::MAX as i128, x));
            let x = rng.clone().next_u64();
            let (lo, hi) = (i64::MIN as i128, i64::MAX as i128);
            assert_eq!(rng.random_range(i64::MIN..i64::MAX) as i128, wide(lo, hi, x));
            let x = rng.clone().next_u64();
            assert_eq!(rng.random_range(i8::MIN..i8::MAX) as i128, wide(-128, 127, x));
        }
    }

    #[test]
    fn floats_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for _ in 0..1000 {
            let v = rng.random_range(0.0..1.0);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.05 && hi > 0.95, "poor coverage: [{lo}, {hi}]");
    }
}
