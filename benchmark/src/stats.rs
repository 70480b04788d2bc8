//! Order statistics used by the harness: medians and nearest-rank
//! percentiles for the metrics, and Python-compatible quartiles for the
//! `aa` table (the acceptance procedure is defined in terms of
//! `statistics.quantiles(values, n=4)`).

/// Sorts ascending; the harness never feeds NaN (durations and counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of ascending `sorted`
/// values; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the
/// acceptance procedure compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
