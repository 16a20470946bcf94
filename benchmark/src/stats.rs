//! Order statistics shared by the workloads and `compare`.

/// Samples a tail percentile must leave above it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank position (1-based) of the `p`-th percentile among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`;
/// `NaN` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    sorted(samples)[rank(samples.len(), p) - 1]
}

/// How many of `n` samples lie above the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` that leaves at least [`TAIL_SUPPORT`] of `n`
/// samples above it, if any does.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= TAIL_SUPPORT)
        .max_by(f64::total_cmp)
}

/// The median (mean of the two middle values for an even count); `NaN`
/// when there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default exclusive method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is judged against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `v` with five significant digits, for tables.
pub fn show(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let candidates = [50.0, 90.0, 95.0, 99.0];
        // 1000 samples: p99 leaves exactly 10 above it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000, &candidates), Some(99.0));
        // 999 samples: p99 is rank 990 (9 above), so p95 is the tail.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(999, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(200, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(199, &candidates), Some(90.0));
        // Twelve training epochs support no tail, not even the median.
        assert_eq!(highest_supported_percentile(12, &candidates), None);
        assert_eq!(highest_supported_percentile(20, &candidates), Some(50.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn five_significant_digits() {
        assert_eq!(show(1960.9112), "1960.9");
        assert_eq!(show(0.000095427), "0.000095427");
        assert_eq!(show(12.5), "12.500");
        assert_eq!(show(0.0), "0");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }
}
