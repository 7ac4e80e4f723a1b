//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is a quantile of the raw
//! microsecond (or nanosecond) samples, never of a bucketed histogram, so
//! a median can move by less than a factor of two and still show.

/// Quantile `p` (0..=1) of `xs` by linear interpolation between the two
/// nearest order statistics (the "type 7" definition).  `None` when empty.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (h - lo as f64) * (v[hi] - v[lo]))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The highest quantile level with at least ten samples beyond it, never
/// below the median: `1 - 10/n`.  A p99 needs a thousand samples before
/// it says anything about the tail rather than about one outlier.
pub fn tail_level(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).max(0.5)
}

/// [`quantile`] at [`tail_level`].
pub fn tail(xs: &[f64]) -> Option<f64> {
    quantile(xs, tail_level(xs.len()))
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match those computed by a script over the same records.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let k = (i + 1) * m;
                let j = (k / 4).clamp(1, n - 1);
                let delta = k as f64 - (j * 4) as f64;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_not_bucketed() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64 * 1000.0).collect();
        assert_eq!(median(&xs), Some(5000.0));
        assert_eq!(quantile(&xs, 0.0), Some(1000.0));
        assert_eq!(quantile(&xs, 1.0), Some(9000.0));
        // Halfway between the 2nd and 3rd order statistics.
        assert_eq!(quantile(&xs, 0.1875), Some(2500.0));
        // A log2 histogram would put 8192 and 9000 in one bucket.
        assert_eq!(median(&[8192.0, 9000.0]), Some(8596.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(48), 1.0 - 10.0 / 48.0);
        assert_eq!(tail_level(12), 0.5, "never below the median");
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(xs.iter().filter(|&&x| x > t).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
    }
}
