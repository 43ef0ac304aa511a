//! Order statistics over rounds and samples.

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method), so a spread printed here is the spread the driver computes.
/// Fewer than two values give that value (or 0) three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let cut = |k: usize| {
                // Rank (n + 1) * k / 4, one-based; the neighbours are
                // clamped into the data and the line through them is
                // followed past the ends, as Python does.
                let j = ((n + 1) * k / 4).clamp(1, n - 1);
                let delta = ((n + 1) * k) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `q`-quantile (`q` in `[0, 1]`) of an ascending slice of whole
/// nanoseconds, by nearest rank; 0 when empty. Samples are whole numbers
/// only because the clock reports them so: a run of `n` equal samples
/// `v` is taken to be spread evenly over `[v, v + 1)`, and the quantile
/// is placed within it by rank, which keeps the digits a median of a
/// million 277 ns readings would otherwise throw away.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    let v = sorted[rank];
    let first = sorted.partition_point(|x| *x < v);
    let ties = sorted.partition_point(|x| *x <= v) - first;
    f64::from(v) + (rank - first) as f64 / ties as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        // Ties are spread over [v, v + 1): the median of eight 7s sits at
        // the fourth of them, 3/8 of the way through.
        assert_eq!(quantile_sorted(&[7; 8], 0.5), 7.375);
        assert_eq!(quantile_sorted(&[1, 7, 7, 7, 7, 9], 0.5), 7.25);
    }
}
