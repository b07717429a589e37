//! The workspace's one seeded generator.
//!
//! Every seeded artifact — random topologies, degraded fabrics, traffic
//! patterns, chaos schedules, fuzz mutations, property-test cases — draws
//! from here, so its bytes are a function of the seed and of this file
//! alone. The algorithms are the published ones and are pinned by
//! known-answer tests: xoshiro256++ (Blackman & Vigna) seeded from four
//! SplitMix64 outputs, Lemire's multiply-shift with rejection for
//! unbiased ranges, Fisher–Yates from the top for shuffles. Changing any
//! of them redraws every fabric the benchmark boots.

use std::ops::{Bound, RangeBounds};

/// A SplitMix64 stream: the state advances by the golden-ratio increment
/// and each output is a finalizer of the advanced state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One stateless SplitMix64 step: a well-mixed hash of `x`, for callers
/// that need a reproducible draw without threading a generator through.
pub fn splitmix64(x: u64) -> u64 {
    SplitMix64(x).next_u64()
}

/// The top 53 bits of `bits` as a float uniform in `[0, 1)`.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Integers [`Rng::range`] can sample: any type that converts to and from
/// `u64` — in practice the unsigned ones, a bound must not be negative.
pub trait UniformInt: Copy + TryFrom<u64> + TryInto<u64> {}
impl<T: Copy + TryFrom<u64> + TryInto<u64>> UniformInt for T {}

/// xoshiro256++; the stream is a function of the seed alone.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose state is the first four outputs of the
    /// SplitMix64 stream started at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform sample from `range` (`a..b` or `a..=b`), unbiased.
    ///
    /// # Panics
    /// Panics on an empty range, or one with no upper end.
    pub fn range<T: UniformInt>(&mut self, range: impl RangeBounds<T>) -> T {
        let widen = |x: T| x.try_into().ok().expect("range: negative bound");
        let narrow = |x: u64| {
            T::try_from(x)
                .ok()
                .expect("range: draw fits the bounds' type")
        };
        let low = match range.start_bound() {
            Bound::Included(&s) => widen(s),
            Bound::Excluded(&s) => widen(s).checked_add(1).expect("range: empty range"),
            Bound::Unbounded => 0,
        };
        let high = match range.end_bound() {
            Bound::Included(&e) => widen(e),
            Bound::Excluded(&e) => widen(e).checked_sub(1).expect("range: empty range"),
            Bound::Unbounded => panic!("range: unbounded end"),
        };
        assert!(low <= high, "range: empty range");
        // Zero only for the full 64-bit domain, where every draw is fair.
        let span = (high - low).wrapping_add(1);
        if span == 0 {
            return narrow(self.next_u64());
        }
        // Lemire's multiply-shift; reject the low products that would
        // over-represent the first `2^64 mod span` values.
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if (m as u64) >= threshold {
                return narrow(low + (m >> 64) as u64);
            }
        }
    }

    /// Uniform in `[0, 1)`, from one draw.
    pub fn unit_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// `true` with probability `p`: never for `p <= 0`, always for `p >= 1`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle, from the last element down.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range(0..=i);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers: xoshiro256++ over a SplitMix64-expanded seed. The
    /// first row is the reference implementation's published vector for
    /// seed 0; the others pin the streams the benchmark's fabrics come
    /// from.
    #[test]
    fn first_outputs_are_pinned() {
        let expect: [(u64, [u64; 4]); 3] = [
            (
                0,
                [
                    0x5317_5d61_490b_23df,
                    0x61da_6f3d_c380_d507,
                    0x5c0f_df91_ec9a_7bfc,
                    0x02ee_bf8c_3bbe_5e1a,
                ],
            ),
            (
                1,
                [
                    0xcfc5_d07f_6f03_c29b,
                    0xbf42_4132_963f_e08d,
                    0x19a3_7d57_57aa_f520,
                    0xbf08_119f_05cd_56d6,
                ],
            ),
            (
                42,
                [
                    0xd076_4d4f_4476_689f,
                    0x519e_4174_576f_3791,
                    0xfbe0_7cfb_0c24_ed8c,
                    0xb37d_9f60_0cd8_35b8,
                ],
            ),
        ];
        for (seed, outputs) in expect {
            let mut rng = Rng::seed_from_u64(seed);
            assert_eq!(outputs.map(|_| rng.next_u64()), outputs, "seed {seed}");
        }
    }

    #[test]
    fn stateless_step_is_the_stream_s_first_output() {
        // Vigna's reference vector for state 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        let mut sm = SplitMix64(0);
        assert_eq!(sm.next_u64(), splitmix64(0));
        assert_eq!(sm.next_u64(), splitmix64(0x9E37_79B9_7F4A_7C15));
    }

    #[test]
    fn range_draws_are_pinned_and_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        let drawn: Vec<u32> = (0..8).map(|_| rng.range(0u32..10)).collect();
        assert_eq!(drawn, [0, 1, 7, 4, 9, 4, 7, 3]);
        // A half-open range and its inclusive twin consume the stream
        // identically.
        let (mut a, mut b) = (Rng::seed_from_u64(9), Rng::seed_from_u64(9));
        for _ in 0..1000 {
            assert_eq!(a.range(3usize..17), b.range(3usize..=16));
        }
        let mut seen = [false; 6];
        for _ in 0..1000 {
            assert_eq!(rng.range(0u64..1), 0);
            assert_eq!(rng.range(5u8..=5), 5);
            let x = rng.range(250u8..=255);
            assert!(x >= 250);
            seen[usize::from(x - 250)] = true;
            let _: u64 = rng.range(0..=u64::MAX);
            assert!((10..20).contains(&rng.range(10u16..20)));
        }
        assert!(seen.iter().all(|&s| s), "inclusive end never drawn");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_at_zero_panics() {
        Rng::seed_from_u64(0).range(0usize..0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        Rng::seed_from_u64(7).shuffle(&mut a);
        assert_eq!(a, [3, 8, 9, 4, 6, 7, 2, 5, 1, 0]);
        let mut big: Vec<u32> = (0..1000).collect();
        Rng::seed_from_u64(1).shuffle(&mut big);
        let mut again: Vec<u32> = (0..1000).collect();
        Rng::seed_from_u64(1).shuffle(&mut again);
        assert_eq!(big, again);
        big.sort_unstable();
        assert!(big.iter().copied().eq(0..1000));
        Rng::seed_from_u64(1).shuffle::<u32>(&mut []);
    }

    #[test]
    fn unit_f64_and_chance_stay_in_range() {
        let mut rng = Rng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
            hits += usize::from(rng.chance(0.25));
        }
        assert!((2_000..3_000).contains(&hits), "chance(0.25) hit {hits}");
    }

    /// Node count, live channel count and FNV-1a of the text-format dump.
    fn fingerprint(net: &crate::Network) -> (usize, usize, u64) {
        let text = crate::format::write_network(net);
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (net.num_nodes(), net.num_live_channels(), hash)
    }

    /// The fabrics the benchmark boots (`boot-irregular`'s spec) and
    /// degrades, as the build that has always run drew them. A change to
    /// the generator, the range reduction, the shuffle or either
    /// consumer's draw order shows up here, not as a silent shift in
    /// every measured number.
    #[test]
    fn seeded_fabrics_are_pinned() {
        let spec = crate::topo::RandomTopoSpec {
            switches: 64,
            radix: 24,
            terminals_per_switch: 8,
            interswitch_links: 160,
        };
        let text_hashes: [u64; 8] = [
            0x56f1_393c_ea4b_d085,
            0x1ea3_5d1a_8dd4_f4f1,
            0x9fea_4660_9056_7ee1,
            0x104d_84d7_7439_2b47,
            0x91a7_fedf_6d38_3a2e,
            0xcae9_eb40_e9e8_0b34,
            0x654b_71f8_5b7a_a1f5,
            0xadfd_d665_2929_abf6,
        ];
        for (seed, hash) in (1u64..).zip(text_hashes) {
            let net = crate::topo::random_topology(&spec, seed);
            assert_eq!(fingerprint(&net), (576, 1344, hash), "seed {seed}");
        }
        let tree = crate::topo::kary_ntree(16, 2);
        let (worn, removed) = crate::degrade::fail_random_cables(&tree, 10, 7);
        assert_eq!(removed, 10);
        assert_eq!(fingerprint(&worn), (288, 1004, 0x3e5b_4646_f28e_adec));
    }
}
