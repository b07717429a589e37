//! Order statistics over in-memory samples.

/// Sort ascending; samples are finite by construction (durations, rates).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (mean of the two middle samples for even counts);
/// `0.0` for no samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail statistic: the `wanted` percentile when at least ten samples
/// lie beyond it, otherwise the highest percentile that still has ten
/// beyond it (never below the median). Returns `(percentile, value)`.
pub fn tail(v: &[f64], wanted: f64) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len() as f64;
    let supported = if n > 0.0 {
        100.0 * (1.0 - 10.0 / n)
    } else {
        0.0
    };
    let p = wanted.min(supported).max(50.0);
    (p, percentile(&s, p))
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them (the
/// exclusive method), so `perf compare` judges spread the way the
/// benchmark driver does. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some([q(1), q(2), q(3)])
}

/// Distance between the first and third quartile as a share of the
/// median; `None` below two samples or for a zero median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (99.0, 990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (90.0, 90.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0).0, 50.0);
    }
}
