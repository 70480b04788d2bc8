//! Compressed regression representations (paper Section 3.2).
//!
//! For linear regression analysis, a cell's time series can be replaced by
//! either of two equivalent 4-number representations:
//!
//! * **ISB** — `([t_b, t_e], α̂, β̂)`: *I*nterval, *S*lope, *B*ase.
//! * **IntVal** — `([t_b, t_e], z_b, z_e)`: interval plus the fitted values
//!   at the endpoints.
//!
//! Theorem 3.1 shows ISB is *lossless for regression warehousing* (the ISB
//! of every ancestor cell is derivable from base-cell ISBs) and *minimal*
//! (no proper subset of its four components suffices). Whether fewer than 4
//! numbers could ever work is open — the theorem only rules out subsets.

use crate::error::RegressError;
use crate::ols::{svs, LinearFit};
use crate::series::TimeSeries;
use crate::Result;
use std::fmt;

/// The ISB representation `([t_b, t_e], α̂, β̂)` of a time series' LSE
/// linear fit.
///
/// This is the measure warehoused in every regression-cube cell. All
/// aggregation theorems of the paper operate on this type; see
/// [`crate::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Isb {
    start: i64,
    end: i64,
    base: f64,
    slope: f64,
}

impl Isb {
    /// Assembles an ISB from raw components.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] when `end < start`.
    pub fn new(start: i64, end: i64, base: f64, slope: f64) -> Result<Self> {
        if end < start {
            return Err(RegressError::InvalidParameter {
                name: "interval",
                detail: format!("end {end} precedes start {start}"),
            });
        }
        Ok(Isb {
            start,
            end,
            base,
            slope,
        })
    }

    /// Fits `series` with LSE regression and returns its ISB.
    ///
    /// # Errors
    /// Construction invariants only (a `TimeSeries` is never empty).
    pub fn fit(series: &TimeSeries) -> Result<Self> {
        Isb::fit_values(series.start(), series.values())
    }

    /// Fits the series `values` observed at the ticks `start, start + 1,
    /// …` — [`fit`](Self::fit), bit for bit, without building a
    /// [`TimeSeries`] (the values are read in place).
    ///
    /// # Errors
    /// [`RegressError::EmptySeries`] when `values` is empty.
    pub fn fit_values(start: i64, values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(RegressError::EmptySeries);
        }
        let f = LinearFit::fit_values(start, values);
        Isb::new(start, start + values.len() as i64 - 1, f.base, f.slope)
    }

    /// First tick `t_b`.
    #[inline]
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Last tick `t_e`.
    #[inline]
    pub fn end(&self) -> i64 {
        self.end
    }

    /// The closed interval `[t_b, t_e]`.
    #[inline]
    pub fn interval(&self) -> (i64, i64) {
        (self.start, self.end)
    }

    /// The base `α̂`.
    #[inline]
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The slope `β̂` — the quantity exception thresholds test.
    #[inline]
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Number of ticks `n = t_e - t_b + 1`.
    #[inline]
    pub fn n(&self) -> u64 {
        (self.end - self.start + 1) as u64
    }

    /// The time centroid `t̄ = (t_b + t_e)/2`.
    #[inline]
    pub fn mean_t(&self) -> f64 {
        (self.start as f64 + self.end as f64) / 2.0
    }

    /// Fitted value `ẑ(t) = α̂ + β̂ t`.
    #[inline]
    pub fn predict(&self, t: i64) -> f64 {
        self.base + self.slope * t as f64
    }

    /// The series mean `z̄`, recovered via Equation 2: because the LSE line
    /// passes through the centroid, `z̄ = α̂ + β̂ t̄`.
    #[inline]
    pub fn mean_z(&self) -> f64 {
        self.base + self.slope * self.mean_t()
    }

    /// The segment sum `S = Σ z(t) = n · z̄` — the quantity Theorem 3.3
    /// needs from each descendant, derivable from the ISB alone.
    #[inline]
    pub fn sum_z(&self) -> f64 {
        self.n() as f64 * self.mean_z()
    }

    /// `Σ t·z(t)`, the other sufficient statistic of the fit:
    /// `Σ (t - t̄) z = β̂·SVS(n)` plus `t̄·S`.
    #[inline]
    pub fn sum_tz(&self) -> f64 {
        self.slope * svs(self.n()) + self.mean_t() * self.sum_z()
    }

    /// The fit as a [`LinearFit`] (dropping the interval).
    #[inline]
    pub fn linear_fit(&self) -> LinearFit {
        LinearFit {
            base: self.base,
            slope: self.slope,
        }
    }

    /// Converts to the equivalent IntVal representation.
    pub fn to_intval(&self) -> IntVal {
        IntVal {
            start: self.start,
            end: self.end,
            z_start: self.predict(self.start),
            z_end: self.predict(self.end),
        }
    }

    /// Re-fits this ISB as if `delta` had been added to the observed value
    /// at tick `t`, without access to the original series.
    ///
    /// The LSE coefficients are *linear* in the observed values over a
    /// fixed dense tick design, so the correction is exact:
    ///
    /// ```text
    /// Δβ̂ = δ·(t − t̄) / SVS(n)      Δα̂ = δ/n − Δβ̂·t̄
    /// ```
    ///
    /// with the [`crate::ols::LinearFit`] single-tick convention (`n = 1`
    /// keeps slope `0` and absorbs `δ` into the base). This is what lets a
    /// late-arriving stream record amend an already-warehoused cell fit in
    /// O(1), instead of replaying the unit's series.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] when `t` lies outside
    /// `[t_b, t_e]` — an amendment cannot extend the fitted interval.
    pub fn amend_tick(&self, t: i64, delta: f64) -> Result<Self> {
        if t < self.start || t > self.end {
            return Err(RegressError::InvalidParameter {
                name: "amend_tick",
                detail: format!(
                    "tick {t} outside fitted interval [{}, {}]",
                    self.start, self.end
                ),
            });
        }
        let n = self.n();
        if n == 1 {
            return Isb::new(self.start, self.end, self.base + delta, self.slope);
        }
        let d_slope = delta * (t as f64 - self.mean_t()) / svs(n);
        let d_base = delta / n as f64 - d_slope * self.mean_t();
        Isb::new(
            self.start,
            self.end,
            self.base + d_base,
            self.slope + d_slope,
        )
    }

    /// `true` when the two ISBs cover the same interval.
    #[inline]
    pub fn same_interval(&self, other: &Isb) -> bool {
        self.interval() == other.interval()
    }

    /// Approximate equality on all four components.
    pub fn approx_eq(&self, other: &Isb, tol: f64) -> bool {
        self.interval() == other.interval()
            && (self.base - other.base).abs() <= tol
            && (self.slope - other.slope).abs() <= tol
    }
}

impl fmt::Display for Isb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "([{}, {}], {:.6}, {:.6})",
            self.start, self.end, self.base, self.slope
        )
    }
}

/// The IntVal representation `([t_b, t_e], z_b, z_e)`: the interval plus
/// the fitted line's values at both endpoints.
///
/// Equivalent to [`Isb`] — each is derivable from the other (Section 3.2);
/// the cube implementation warehouses ISB and offers IntVal for display
/// and interoperability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntVal {
    start: i64,
    end: i64,
    z_start: f64,
    z_end: f64,
}

impl IntVal {
    /// Assembles an IntVal from raw components.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] when `end < start`.
    pub fn new(start: i64, end: i64, z_start: f64, z_end: f64) -> Result<Self> {
        if end < start {
            return Err(RegressError::InvalidParameter {
                name: "interval",
                detail: format!("end {end} precedes start {start}"),
            });
        }
        Ok(IntVal {
            start,
            end,
            z_start,
            z_end,
        })
    }

    /// First tick `t_b`.
    #[inline]
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Last tick `t_e`.
    #[inline]
    pub fn end(&self) -> i64 {
        self.end
    }

    /// Fitted value at `t_b`.
    #[inline]
    pub fn z_start(&self) -> f64 {
        self.z_start
    }

    /// Fitted value at `t_e`.
    #[inline]
    pub fn z_end(&self) -> f64 {
        self.z_end
    }

    /// Converts back to the ISB representation.
    ///
    /// A single-tick interval carries no slope information; it converts to
    /// slope `0`, matching [`LinearFit::fit`]'s convention.
    pub fn to_isb(&self) -> Isb {
        if self.start == self.end {
            return Isb {
                start: self.start,
                end: self.end,
                base: self.z_start,
                slope: 0.0,
            };
        }
        let slope = (self.z_end - self.z_start) / (self.end - self.start) as f64;
        let base = self.z_start - slope * self.start as f64;
        Isb {
            start: self.start,
            end: self.end,
            base,
            slope,
        }
    }
}

impl fmt::Display for IntVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "([{}, {}], {:.6}, {:.6})",
            self.start, self.end, self.z_start, self.z_end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_produces_consistent_isb() {
        let z = TimeSeries::from_fn(0, 9, |t| 1.0 + 0.25 * t as f64).unwrap();
        let isb = Isb::fit(&z).unwrap();
        assert_eq!(isb.interval(), (0, 9));
        assert!((isb.slope() - 0.25).abs() < 1e-12);
        assert!((isb.base() - 1.0).abs() < 1e-12);
        assert_eq!(isb.n(), 10);
        assert_eq!(isb.mean_t(), 4.5);
    }

    #[test]
    fn invalid_intervals_are_rejected() {
        assert!(Isb::new(5, 4, 0.0, 0.0).is_err());
        assert!(IntVal::new(5, 4, 0.0, 0.0).is_err());
        assert!(matches!(
            Isb::fit_values(3, &[]),
            Err(RegressError::EmptySeries)
        ));
    }

    #[test]
    fn fitting_values_in_place_is_fitting_the_series() {
        let values = [0.1, -0.0, 1e16, 3.5, -1e16];
        let isb = Isb::fit_values(-2, &values).unwrap();
        assert_eq!(isb.interval(), (-2, 2));
        // Lemma 3.1 written over the series' own statistics.
        let z = TimeSeries::new(-2, values.to_vec()).unwrap();
        let (t_bar, z_bar) = (z.mean_t(), z.mean());
        let mut num = 0.0;
        for (t, v) in z.iter() {
            num += (t as f64 - t_bar) * v;
        }
        let slope = num / svs(5);
        assert_eq!(isb.slope().to_bits(), slope.to_bits());
        assert_eq!(isb.base().to_bits(), (z_bar - slope * t_bar).to_bits());
    }

    #[test]
    fn mean_and_sum_are_recovered_from_the_isb() {
        let z = TimeSeries::new(3, vec![2.0, 7.0, 1.0, 4.0, 9.0]).unwrap();
        let isb = Isb::fit(&z).unwrap();
        assert!((isb.mean_z() - z.mean()).abs() < 1e-12);
        assert!((isb.sum_z() - z.sum()).abs() < 1e-12);
        assert!((isb.sum_tz() - z.sum_tz()).abs() < 1e-9);
    }

    #[test]
    fn isb_intval_round_trip() {
        let isb = Isb::new(10, 30, -2.5, 0.125).unwrap();
        let iv = isb.to_intval();
        assert!((iv.z_start() - isb.predict(10)).abs() < 1e-12);
        assert!((iv.z_end() - isb.predict(30)).abs() < 1e-12);
        let back = iv.to_isb();
        assert!(back.approx_eq(&isb, 1e-12));
    }

    #[test]
    fn intval_round_trip_single_tick() {
        let isb = Isb::new(7, 7, 3.0, 0.0).unwrap();
        let back = isb.to_intval().to_isb();
        assert_eq!(back, isb);
    }

    #[test]
    fn display_formats_like_the_paper() {
        let isb = Isb::new(0, 19, 0.540995, 0.0318379).unwrap();
        assert_eq!(format!("{isb}"), "([0, 19], 0.540995, 0.031838)");
        let iv = IntVal::new(0, 1, 1.0, 2.0).unwrap();
        assert!(format!("{iv}").starts_with("([0, 1]"));
    }

    #[test]
    fn amend_tick_matches_a_refit_of_the_amended_series() {
        let values = vec![2.0, 7.0, 1.0, 4.0, 9.0, -3.0];
        for t in 3..9 {
            let delta = 2.75;
            let z = TimeSeries::new(3, values.clone()).unwrap();
            let amended = Isb::fit(&z).unwrap().amend_tick(t, delta).unwrap();
            let mut patched = values.clone();
            patched[(t - 3) as usize] += delta;
            let refit = Isb::fit(&TimeSeries::new(3, patched).unwrap()).unwrap();
            assert!(
                amended.approx_eq(&refit, 1e-12),
                "t={t}: {amended} vs refit {refit}"
            );
        }
    }

    #[test]
    fn amend_tick_single_tick_absorbs_delta_into_base() {
        let isb = Isb::new(5, 5, 3.0, 0.0).unwrap();
        let amended = isb.amend_tick(5, -1.5).unwrap();
        assert_eq!(amended.base(), 1.5);
        assert_eq!(amended.slope(), 0.0);
    }

    #[test]
    fn amend_tick_rejects_out_of_interval_ticks() {
        let isb = Isb::new(5, 9, 1.0, 0.5).unwrap();
        assert!(isb.amend_tick(4, 1.0).is_err());
        assert!(isb.amend_tick(10, 1.0).is_err());
    }

    #[test]
    fn same_interval_and_approx_eq() {
        let a = Isb::new(0, 9, 1.0, 2.0).unwrap();
        let b = Isb::new(0, 9, 1.0 + 1e-9, 2.0).unwrap();
        let c = Isb::new(0, 8, 1.0, 2.0).unwrap();
        assert!(a.same_interval(&b));
        assert!(!a.same_interval(&c));
        assert!(a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&c, 1e-6));
        assert!(!a.approx_eq(&Isb::new(0, 9, 2.0, 2.0).unwrap(), 1e-6));
    }
}
