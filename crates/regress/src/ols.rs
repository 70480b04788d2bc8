//! Ordinary least-squares linear fits of time series (paper Section 3.1).
//!
//! A *linear fit* of `z(t) : t ∈ [t_b, t_e]` is `ẑ(t) = α̂ + β̂ t`. The
//! least-square-error (LSE) parameters are given by **Lemma 3.1**:
//!
//! ```text
//! β̂ = Σ_t [(t - t̄)/SVS] · z(t)        (slope)
//! α̂ = z̄ - β̂ t̄                        (base)
//! ```
//!
//! where `SVS = Σ (t - t̄)²` is the *sum of variance squares* of `t`, which
//! for `n` consecutive integers has the closed form `(n³ - n)/12`
//! (**Lemma 3.2**, see [`svs`]).

use crate::error::RegressError;
use crate::series::TimeSeries;
use crate::Result;

/// Sum of variance squares of `n` consecutive integer ticks:
/// `Σ_{j=i}^{i+n-1} (j - j̄)² = (n³ - n) / 12` (Lemma 3.2).
///
/// Independent of the interval's position `i`.
#[inline]
pub fn svs(n: u64) -> f64 {
    let nf = n as f64;
    (nf * nf * nf - nf) / 12.0
}

/// The least-squares linear fit `ẑ(t) = base + slope · t` of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// The base `α̂` (intercept at `t = 0`).
    pub base: f64,
    /// The slope `β̂`.
    pub slope: f64,
}

impl LinearFit {
    /// Computes the LSE linear fit of `series` using Lemma 3.1.
    ///
    /// A single-observation series has an undefined slope under LSE; in
    /// keeping with the stream setting (a brand-new cell with one tick of
    /// history shows "no trend yet") we define it as slope `0` with base
    /// equal to the lone observation.
    pub fn fit(series: &TimeSeries) -> LinearFit {
        LinearFit::fit_values(series.start(), series.values())
    }

    /// [`fit`](Self::fit) of the series `values` observed at the ticks
    /// `start, start + 1, …`, read in place. `values` is not empty.
    pub(crate) fn fit_values(start: i64, values: &[f64]) -> LinearFit {
        let n = values.len() as u64;
        if n == 1 {
            return LinearFit {
                base: values[0],
                slope: 0.0,
            };
        }
        // The same arithmetic as `TimeSeries::{mean_t, mean, iter}`.
        let end = start + values.len() as i64 - 1;
        let t_bar = (start as f64 + end as f64) / 2.0;
        let z_bar = values.iter().sum::<f64>() / values.len() as f64;
        let svs_n = svs(n);
        // β̂ = Σ (t - t̄) z(t) / SVS; subtracting z̄ is unnecessary because
        // Σ (t - t̄) = 0 (the paper's Equation 1 notes the same).
        let mut num = 0.0;
        for (i, &z) in values.iter().enumerate() {
            let t = start + i as i64;
            num += (t as f64 - t_bar) * z;
        }
        let slope = num / svs_n;
        LinearFit {
            base: z_bar - slope * t_bar,
            slope,
        }
    }

    /// Predicted value `ẑ(t)`.
    #[inline]
    pub fn predict(&self, t: i64) -> f64 {
        self.base + self.slope * t as f64
    }

    /// Residual `z(t) - ẑ(t)` for every observation of `series`.
    pub fn residuals(&self, series: &TimeSeries) -> Vec<f64> {
        series.iter().map(|(t, z)| z - self.predict(t)).collect()
    }

    /// Residual sum of squares `RSS(α̂, β̂) = Σ [z(t) - ẑ(t)]²`
    /// (Definition 1).
    pub fn rss(&self, series: &TimeSeries) -> f64 {
        series
            .iter()
            .map(|(t, z)| {
                let r = z - self.predict(t);
                r * r
            })
            .sum()
    }

    /// Coefficient of determination `R² = 1 - RSS / TSS`.
    ///
    /// Returns `1.0` for a constant series fitted exactly and `0.0` for a
    /// constant series with residual error (degenerate `TSS = 0` cases).
    pub fn r_squared(&self, series: &TimeSeries) -> f64 {
        let mean = series.mean();
        let tss: f64 = series
            .iter()
            .map(|(_, z)| {
                let d = z - mean;
                d * d
            })
            .sum();
        let rss = self.rss(series);
        if tss == 0.0 {
            if rss == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - rss / tss
        }
    }
}

/// Convenience wrapper mirroring the fallible constructors elsewhere in
/// the crate. A [`TimeSeries`] is never empty, so this cannot fail today;
/// the `Result` keeps the signature stable if stricter validation (e.g.
/// minimum observation counts) is added.
///
/// # Errors
/// None currently; see above.
pub fn fit(series: &TimeSeries) -> Result<LinearFit> {
    let _ = RegressError::EmptySeries; // the reserved failure mode
    Ok(LinearFit::fit(series))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(start: i64, v: &[f64]) -> TimeSeries {
        TimeSeries::new(start, v.to_vec()).unwrap()
    }

    #[test]
    fn svs_matches_direct_summation() {
        for n in 1u64..=50 {
            for offset in [-7i64, 0, 3] {
                let t_bar = ((offset + offset + n as i64 - 1) as f64) / 2.0;
                let direct: f64 = (0..n as i64)
                    .map(|j| {
                        let t = (offset + j) as f64;
                        (t - t_bar) * (t - t_bar)
                    })
                    .sum();
                assert!(
                    (svs(n) - direct).abs() < 1e-9,
                    "svs({n}) offset {offset}: {} vs {direct}",
                    svs(n)
                );
            }
        }
    }

    #[test]
    fn perfect_line_is_recovered_exactly() {
        let z = TimeSeries::from_fn(5, 20, |t| 3.25 - 0.5 * t as f64).unwrap();
        let f = LinearFit::fit(&z);
        assert!((f.slope - (-0.5)).abs() < 1e-12);
        assert!((f.base - 3.25).abs() < 1e-12);
        assert!(f.rss(&z) < 1e-18);
        assert!((f.r_squared(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_passes_through_the_centroid() {
        let z = series(
            0,
            &[0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56],
        );
        let f = LinearFit::fit(&z);
        let at_centroid = f.predict(0) + f.slope * z.mean_t(); // α̂ + β̂ t̄
        assert!((at_centroid - z.mean()).abs() < 1e-12);
    }

    #[test]
    fn example2_figure1_series_has_mild_positive_trend() {
        // The Example 2 / Figure 1 series from the paper.
        let z = series(
            0,
            &[0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56],
        );
        let f = LinearFit::fit(&z);
        // Hand-computed: z̄ = 0.686, Σ(t-4.5)z = 1.99, SVS = 82.5.
        assert!((f.slope - 1.99 / 82.5).abs() < 1e-9);
        assert!((f.base - (0.686 - 1.99 / 82.5 * 4.5)).abs() < 1e-9);
        assert!(f.slope > 0.0 && f.slope < 0.1);
    }

    #[test]
    fn single_point_series_gets_zero_slope() {
        let z = series(42, &[7.5]);
        let f = LinearFit::fit(&z);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.base, 7.5);
        assert_eq!(f.predict(42), 7.5);
    }

    #[test]
    fn residuals_sum_to_zero() {
        let z = series(0, &[1.0, 5.0, 2.0, 8.0, 3.0]);
        let f = LinearFit::fit(&z);
        let sum: f64 = f.residuals(&z).iter().sum();
        assert!(sum.abs() < 1e-10);
    }

    #[test]
    fn rss_is_minimal_among_perturbations() {
        let z = series(0, &[2.0, 1.0, 4.0, 3.0, 6.0, 5.0]);
        let f = LinearFit::fit(&z);
        let best = f.rss(&z);
        for (db, ds) in [
            (0.1, 0.0),
            (-0.1, 0.0),
            (0.0, 0.05),
            (0.0, -0.05),
            (0.1, -0.05),
        ] {
            let candidate = LinearFit {
                base: f.base + db,
                slope: f.slope + ds,
            };
            assert!(candidate.rss(&z) >= best);
        }
    }

    #[test]
    fn r_squared_handles_constant_series() {
        let z = series(0, &[3.0, 3.0, 3.0]);
        let f = LinearFit::fit(&z);
        assert_eq!(f.r_squared(&z), 1.0);

        let bad = LinearFit {
            base: 0.0,
            slope: 0.0,
        };
        assert_eq!(bad.r_squared(&z), 0.0);
    }

    #[test]
    fn fit_is_invariant_to_value_scaling() {
        let z = series(0, &[1.0, 4.0, 2.0, 5.0]);
        let scaled = TimeSeries::new(0, z.values().iter().map(|v| v * 3.0).collect()).unwrap();
        let f = LinearFit::fit(&z);
        let g = LinearFit::fit(&scaled);
        assert!((g.slope - 3.0 * f.slope).abs() < 1e-12);
        assert!((g.base - 3.0 * f.base).abs() < 1e-12);
    }
}
