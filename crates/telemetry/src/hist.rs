//! A fixed-shape log₂ histogram.
//!
//! Bucket `0` holds the value `0`; bucket `b ≥ 1` holds values in
//! `[2^(b-1), 2^b)`. 65 buckets cover the whole `u64` range, so the
//! shape — and therefore the manifest schema — never depends on the
//! data. Exact `count`/`sum`/`min`/`max` ride along; quantiles are
//! bucket-resolution estimates, which is plenty for the skew questions
//! the paper's figures ask (is the edge-load tail long? are path
//! lengths flat?).

use crate::json::Writer;

/// Number of buckets: one for zero plus one per bit of `u64`.
pub const NUM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Bucket counts, trailing zeros trimmed (see [`NUM_BUCKETS`]).
    pub log2_buckets: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            log2_buckets: Vec::new(),
        }
    }
}

/// Bucket index of `value`: 0 for 0, else `floor(log2(value)) + 1`.
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let b = bucket_of(value);
        if b >= self.log2_buckets.len() {
            self.log2_buckets.resize(b + 1, 0);
        }
        self.log2_buckets[b] += 1;
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observed value, `None` when empty (the serialized `min`
    /// field is `u64::MAX` for an empty histogram).
    pub fn min_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Bucket-resolution quantile estimate: the *upper edge* of the
    /// bucket holding the `q`-quantile observation, clamped to the true
    /// `max`. `q` is clamped to `[0, 1]`; returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.log2_buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Write this histogram as the next value of `w`: an object, the
    /// exact `u64` statistics first, the buckets on one line.
    pub fn write_json(&self, w: &mut Writer) {
        w.obj();
        for (key, n) in [
            ("count", self.count),
            ("sum", self.sum),
            ("min", self.min),
            ("max", self.max),
        ] {
            w.key(key).u64(n);
        }
        w.key("log2_buckets")
            .u64s(self.log2_buckets.iter().copied());
        w.end();
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.log2_buckets.len() > self.log2_buckets.len() {
            self.log2_buckets.resize(other.log2_buckets.len(), 0);
        }
        for (b, &n) in other.log2_buckets.iter().enumerate() {
            self.log2_buckets[b] += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Hist::new();
        for v in [0u64, 1, 5, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 111);
        assert_eq!(h.min_value(), Some(0));
        assert_eq!(h.max, 100);
        assert!((h.mean() - 22.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        // The median 500 lives in bucket [256, 512); upper edge 511.
        assert_eq!(p50, 511);
        assert_eq!(h.quantile(1.0).unwrap(), 1000);
        assert_eq!(h.quantile(0.0).unwrap(), 1);
        assert!(Hist::new().quantile(0.5).is_none());
    }

    #[test]
    fn merge_is_sum() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for v in [1u64, 2, 3] {
            a.observe(v);
        }
        for v in [10u64, 20] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 36);
        assert_eq!(a.max, 20);
        assert_eq!(a.min_value(), Some(1));
    }

    #[test]
    fn json_round_trip() {
        let mut h = Hist::new();
        for v in [0u64, 7, 7, 4096] {
            h.observe(v);
        }
        // Empty histograms round-trip too (min is the u64::MAX sentinel).
        for h in [h, Hist::new()] {
            let mut w = Writer::default();
            h.write_json(&mut w);
            let v = json::parse(&w.finish()).unwrap();
            let field = |key: &str| v.get(key).and_then(Value::as_u64);
            assert_eq!(field("count"), Some(h.count));
            assert_eq!(field("sum"), Some(h.sum));
            assert_eq!(field("min"), Some(h.min));
            assert_eq!(field("max"), Some(h.max));
            let buckets: Vec<u64> = v
                .get("log2_buckets")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|b| b.as_u64().unwrap())
                .collect();
            assert_eq!(buckets, h.log2_buckets);
        }
        assert_eq!(Hist::new().min, u64::MAX);
    }
}
