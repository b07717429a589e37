//! Stand-in for `rand` 0.10: the handful of items the workspace uses
//! (`StdRng`, `SeedableRng::seed_from_u64`, `RngExt::random_range`,
//! `SliceRandom::shuffle`) over a SplitMix64-seeded xoshiro256++
//! generator. Streams differ from the published crate's; they are
//! deterministic per seed, which is all the callers rely on.

/// Core generator interface.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types `random_range` can sample.
pub trait SampleUniform: Copy {
    /// Uniform in `[low, high)`; panics on an empty range.
    fn sample_below<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_below<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "random_range: empty range");
                let span = (high - low) as u64;
                // Lemire's multiply-shift with rejection: unbiased.
                let threshold = span.wrapping_neg() % span;
                loop {
                    let m = u128::from(rng.next_u64()) * u128::from(span);
                    if (m as u64) >= threshold {
                        return low + (m >> 64) as $t;
                    }
                }
            }
        }
    )*};
}
sample_uniform!(u8, u16, u32, u64, usize);

/// Convenience sampling methods on every [`Rng`].
pub trait RngExt: Rng {
    /// Uniform sample from a half-open range.
    fn random_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_below(self, range.start, range.end)
    }
}
impl<R: Rng + ?Sized> RngExt for R {}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ seeded through SplitMix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    use super::{Rng, RngExt};

    /// In-place slice shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}
