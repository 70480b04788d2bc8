//! Streaming OLS over irregular time ticks.
//!
//! Section 3 of the paper restricts exposition to consecutive integer
//! ticks and notes that "the general case of multiple linear regression
//! for general stream data with more than one regression variable and/or
//! with **irregular time ticks**" is handled by the same machinery. This
//! module provides that case for simple linear regression: a constant-
//! space accumulator of the sufficient statistics that
//!
//! * accepts observations at arbitrary (gapped, unordered, repeated)
//!   abscissae,
//! * merges with any other accumulator over disjoint observations (the
//!   irregular-tick analogue of Theorem 3.3), and
//! * emits the exact LSE fit at any moment.
//!
//! The statistics are kept **centred**: `n`, the means `t̄` and `z̄`, and
//! the co-moments `Σ(t − t̄)²` and `Σ(t − t̄)(z − z̄)`, updated by
//! Welford's recurrence on [`RunningFit::push`] and Chan's pairwise
//! formula on [`RunningFit::merge`]. The uncentred form
//! `Σt² − (Σt)²/n` cancels every digit of the spread at epoch-scale
//! ticks (around `1e9`), where the centred one keeps them.

use crate::error::RegressError;
use crate::ols::LinearFit;
use crate::series::TimeSeries;
use crate::Result;

/// A constant-space streaming least-squares fitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningFit {
    n: u64,
    mean_t: f64,
    mean_z: f64,
    /// `Σ(t − t̄)²`.
    m_tt: f64,
    /// `Σ(t − t̄)(z − z̄)`.
    m_tz: f64,
    min_t: f64,
    max_t: f64,
}

impl Default for RunningFit {
    fn default() -> Self {
        RunningFit::new()
    }
}

impl RunningFit {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningFit {
            n: 0,
            mean_t: 0.0,
            mean_z: 0.0,
            m_tt: 0.0,
            m_tz: 0.0,
            min_t: f64::INFINITY,
            max_t: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a dense series (for cross-checks).
    pub fn from_series(series: &TimeSeries) -> Self {
        let mut fit = RunningFit::new();
        for (t, z) in series.iter() {
            fit.push(t as f64, z);
        }
        fit
    }

    /// Folds one observation `(t, z)` in. Ticks may arrive out of order,
    /// with gaps, or repeatedly (a repeated tick is a second observation
    /// at the same abscissa, not an overwrite).
    pub fn push(&mut self, t: f64, z: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dt = t - self.mean_t;
        self.mean_t += dt / n;
        self.mean_z += (z - self.mean_z) / n;
        self.m_tt += dt * (t - self.mean_t);
        self.m_tz += dt * (z - self.mean_z);
        self.min_t = self.min_t.min(t);
        self.max_t = self.max_t.max(t);
    }

    /// Number of observations folded in.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The observed abscissa range, or `None` when empty.
    pub fn t_range(&self) -> Option<(f64, f64)> {
        (self.n > 0).then_some((self.min_t, self.max_t))
    }

    /// Merges another accumulator over a **disjoint** set of observations.
    /// Unlike Theorem 3.3 there is no contiguity requirement — irregular
    /// ticks have no adjacency to preserve.
    pub fn merge(&mut self, other: &RunningFit) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let (dt, dz) = (other.mean_t - self.mean_t, other.mean_z - self.mean_z);
        self.mean_t += dt * nb / n;
        self.mean_z += dz * nb / n;
        self.m_tt += other.m_tt + dt * dt * na * nb / n;
        self.m_tz += other.m_tz + dt * dz * na * nb / n;
        self.n += other.n;
        self.min_t = self.min_t.min(other.min_t);
        self.max_t = self.max_t.max(other.max_t);
    }

    /// The exact LSE fit of everything folded in so far.
    ///
    /// # Errors
    /// * [`RegressError::NotEnoughData`] when empty.
    /// * [`RegressError::InvalidParameter`] when all abscissae coincide
    ///   (the slope is undefined; unlike dense integer series there is no
    ///   natural zero-slope convention for a *repeated* single abscissa
    ///   with scattered values).
    pub fn fit(&self) -> Result<LinearFit> {
        if self.n == 0 {
            return Err(RegressError::NotEnoughData { have: 0, need: 1 });
        }
        if self.n == 1 {
            // One observation: flat line through it (matches LinearFit::fit).
            return Ok(LinearFit {
                base: self.mean_z,
                slope: 0.0,
            });
        }
        if self.min_t == self.max_t || !(self.m_tt.is_finite() && self.m_tt > 0.0) {
            return Err(RegressError::InvalidParameter {
                name: "abscissae",
                detail: "all observations share one tick; slope undefined".into(),
            });
        }
        let slope = self.m_tz / self.m_tt;
        let base = self.mean_z - slope * self.mean_t;
        Ok(LinearFit { base, slope })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_fit_on_dense_series() {
        let z = TimeSeries::new(3, vec![1.0, 4.0, 2.0, 8.0, 5.0]).unwrap();
        let batch = LinearFit::fit(&z);
        let streaming = RunningFit::from_series(&z).fit().unwrap();
        assert!((batch.base - streaming.base).abs() < 1e-10);
        assert!((batch.slope - streaming.slope).abs() < 1e-10);
    }

    #[test]
    fn handles_irregular_and_unordered_ticks() {
        // Exact line sampled at gapped, shuffled, non-integer abscissae.
        let mut fit = RunningFit::new();
        for &t in &[10.0, 2.5, 100.0, 7.0, 33.3] {
            fit.push(t, 1.5 - 0.25 * t);
        }
        let f = fit.fit().unwrap();
        assert!((f.base - 1.5).abs() < 1e-9);
        assert!((f.slope + 0.25).abs() < 1e-10);
        assert_eq!(fit.t_range(), Some((2.5, 100.0)));
        assert_eq!(fit.n(), 5);
    }

    #[test]
    fn repeated_abscissae_average() {
        let mut fit = RunningFit::new();
        fit.push(0.0, 1.0);
        fit.push(0.0, 3.0); // two observations at t = 0, mean 2
        fit.push(2.0, 6.0);
        let f = fit.fit().unwrap();
        // LSE through {(0,1),(0,3),(2,6)}: slope 2, base 2.
        assert!((f.slope - 2.0).abs() < 1e-10);
        assert!((f.base - 2.0).abs() < 1e-10);
    }

    #[test]
    fn merge_equals_pooled_stream() {
        let mut a = RunningFit::new();
        let mut b = RunningFit::new();
        let mut pooled = RunningFit::new();
        for i in 0..20 {
            let (t, z) = (i as f64 * 1.7, (i % 5) as f64 - 0.3 * i as f64);
            if i % 2 == 0 {
                a.push(t, z);
            } else {
                b.push(t, z);
            }
            pooled.push(t, z);
        }
        a.merge(&b);
        let (fa, fp) = (a.fit().unwrap(), pooled.fit().unwrap());
        assert!((fa.base - fp.base).abs() < 1e-9);
        assert!((fa.slope - fp.slope).abs() < 1e-10);
        assert_eq!(a.n(), pooled.n());
    }

    #[test]
    fn slope_survives_epoch_scale_ticks() {
        // Eight distinct irregular ticks on an exact line, shifted far from
        // zero. At 1e9 the uncentred Σt² − (Σt)²/n reads 1024 instead of
        // 96.625, below the cutoff at which ticks count as coincident.
        // The slope error stays within one ulp of the offset (measured:
        // about 0.04 of it), pushed in one pass or merged from halves.
        let ticks = [0.0, 0.5, 1.5, 2.0, 3.0, 7.75, 8.25, 9.0];
        for offset in [0.0, 1e6, 1e9, 1e12] {
            let (mut pooled, mut north, mut south) =
                (RunningFit::new(), RunningFit::new(), RunningFit::new());
            for (i, &u) in ticks.iter().enumerate() {
                let (t, z) = (offset + u, 4.0 + 0.6 * u);
                pooled.push(t, z);
                if i % 2 == 0 { &mut north } else { &mut south }.push(t, z);
            }
            north.merge(&south);
            let tol = 1e-12 + f64::EPSILON * offset;
            for fit in [pooled, north] {
                let f = fit.fit().unwrap();
                assert!((f.slope - 0.6).abs() <= tol, "offset {offset}: {f:?}");
                let at_offset = f.base + f.slope * offset;
                assert!(
                    (at_offset - 4.0).abs() <= 4.0 * tol,
                    "offset {offset}: {f:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_error() {
        let empty = RunningFit::new();
        assert!(matches!(
            empty.fit(),
            Err(RegressError::NotEnoughData { .. })
        ));
        assert_eq!(empty.t_range(), None);

        let mut single = RunningFit::new();
        single.push(5.0, 7.0);
        let f = single.fit().unwrap();
        assert_eq!((f.base, f.slope), (7.0, 0.0));

        // One repeated tick stays an error, also far from zero and when
        // the repeats arrive through a merge.
        for t in [1.0, 1e9 + 0.5] {
            let mut repeated = RunningFit::new();
            repeated.push(t, 0.0);
            repeated.push(t, 5.0);
            let mut other = RunningFit::new();
            other.push(t, 2.0);
            let mut merged = repeated;
            merged.merge(&other);
            for fit in [repeated, merged] {
                assert!(matches!(
                    fit.fit(),
                    Err(RegressError::InvalidParameter { .. })
                ));
            }
        }
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(RunningFit::default(), RunningFit::new());

        // An empty side of a merge is the identity.
        let mut fit = RunningFit::new();
        fit.push(2.0, 1.0);
        fit.push(5.0, 3.0);
        let mut empty = RunningFit::new();
        empty.merge(&fit);
        assert_eq!(empty, fit);
        fit.merge(&RunningFit::new());
        assert_eq!(empty, fit);
    }
}
