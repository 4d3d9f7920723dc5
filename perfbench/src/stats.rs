//! Order statistics and rate arithmetic behind every reported figure.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// The three quartile cut points of `xs` by the exclusive method — the
/// same numbers Python's `statistics.quantiles(xs, n=4)` gives, so the
/// spreads this benchmark reports match the ones computed from its output.
/// A single value is its own quartiles; an empty slice gives `NaN`s.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a metric's bound is compared with.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// Throughput of a family of timed batches: total requests over total
/// seconds. A mean of per-batch rates would weight a fast small batch as
/// much as a slow large one.
pub fn family_rate(batches: &[(u64, f64)]) -> f64 {
    let requests: u64 = batches.iter().map(|b| b.0).sum();
    let secs: f64 = batches.iter().map(|b| b.1).sum();
    requests as f64 / secs
}

/// The smallest of `xs`; infinity for none.
pub fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile `q` of an ascending slice, with the number of
/// samples strictly beyond the returned rank.
pub fn rank_quantile(sorted: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_rate_is_total_requests_over_total_time() {
        // 100 requests in 1 s and 100 in 3 s: 50 req/s, whereas the mean
        // of the two rates would claim 66.7.
        let rate = family_rate(&[(100, 1.0), (100, 3.0)]);
        assert!((rate - 50.0).abs() < 1e-12, "{rate}");
        let unequal = family_rate(&[(1_000, 1.0), (10, 1.0)]);
        assert!((unequal - 505.0).abs() < 1e-9, "{unequal}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest([0.5, 0.25, 0.75]), 0.25);
        assert_eq!(fastest(std::iter::empty()), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
        // Two points: the clamp keeps the cut points inside the data,
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_is_quartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn rank_quantile_counts_samples_beyond() {
        let xs: Vec<u64> = (1..=160_000).collect();
        let (p999, beyond) = rank_quantile(&xs, 0.999);
        assert_eq!(p999, 159_840);
        assert_eq!(beyond, 160);
        assert_eq!(rank_quantile(&[5], 0.999), (5, 0));
        assert_eq!(rank_quantile(&[1, 2, 3, 4], 0.5), (2, 2));
    }
}
