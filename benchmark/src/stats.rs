//! Order statistics used by every reported number.

/// Sorts `samples` in place and returns the nearest-rank percentile picker's
/// value for `q` in `[0, 1]`: the element at `ceil(q * n) - 1`, i.e. the
/// smallest sample with at least a share `q` of the set at or below it.
/// `None` for an empty set.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(samples, q)
}

/// [`percentile`] over an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median as the mean of the two middle samples for even counts (the
/// definition Python's `statistics.median` uses, so `compare` agrees with
/// the driver).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let mid = median(samples)?;
    Some(if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.50), Some(50.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut v, 1.0), Some(100.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 0.99), Some(7.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, 0.5), Some(3.0));
        assert_eq!(percentile(&mut v, 0.99), Some(5.0));
    }

    #[test]
    fn p99_of_1000_leaves_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&mut v, 0.99).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), Some(5.5));
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!((relative_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
