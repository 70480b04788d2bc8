//! Multiple linear regression measures (paper Section 6.2, "general
//! theory ... applicable to regression analysis ... with more than one
//! regression variable").
//!
//! For a model `z = β₀ + β₁ x₁ + … + β_{k-1} x_{k-1}` the compressed,
//! losslessly-aggregatable measure is the pair of sufficient statistics
//! `(XᵀX, Xᵀz)` (plus `n`, and `zᵀz` for the residual sum of squares):
//!
//! * **time-style merges** (disjoint unions of observation rows — e.g.
//!   merging adjacent time windows, or pooling sensors that are modeled
//!   jointly) simply add all components;
//! * **standard-dimension merges** (point-wise sum of responses observed
//!   at *identical* design rows — the multi-variable generalization of
//!   Theorem 3.2) share `XᵀX` and add `Xᵀz`.
//!
//! [`MlrMeasure`] stores these statistics; [`MlrMeasure::solve`] recovers
//! the coefficient vector from the normal equations `XᵀX β = Xᵀz` by a
//! Cholesky factorisation of the `k × k` matrix `XᵀX`. The simple ISB of
//! Section 3 is the special case `k = 2`, `x₁ = t` — property-tested in
//! `tests/proptests.rs`.

use crate::error::RegressError;
use crate::series::TimeSeries;
use crate::Result;

/// Sufficient statistics of a multiple linear regression, the warehoused
/// cell measure for multi-variable models.
#[derive(Debug, Clone, PartialEq)]
pub struct MlrMeasure {
    /// Number of coefficients `k` (including the intercept column).
    k: usize,
    /// Number of observation rows folded in.
    n: u64,
    /// `XᵀX`, a `k x k` symmetric matrix stored row-major.
    xtx: Vec<f64>,
    /// `Xᵀz`, length `k`.
    xtz: Vec<f64>,
    /// `zᵀz`, for the residual sum of squares.
    ztz: f64,
}

impl MlrMeasure {
    /// An empty measure for models with `k` coefficients.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] when `k == 0`.
    pub fn empty(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(RegressError::InvalidParameter {
                name: "k",
                detail: "a regression needs at least one coefficient".into(),
            });
        }
        Ok(MlrMeasure {
            k,
            n: 0,
            xtx: vec![0.0; k * k],
            xtz: vec![0.0; k],
            ztz: 0.0,
        })
    }

    /// Builds the time-regression measure (`k = 2`, columns `[1, t]`) of a
    /// time series — the MLR view of the ISB representation.
    ///
    /// # Errors
    /// Never fails for a valid series; signature kept fallible for parity
    /// with [`Self::empty`].
    pub fn from_time_series(series: &TimeSeries) -> Result<Self> {
        let mut m = MlrMeasure::empty(2)?;
        for (t, z) in series.iter() {
            m.push_row(&[1.0, t as f64], z)?;
        }
        Ok(m)
    }

    /// Folds one observation row into the statistics.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] when the row length differs
    /// from `k`.
    pub fn push_row(&mut self, row: &[f64], z: f64) -> Result<()> {
        if row.len() != self.k {
            return Err(RegressError::InvalidParameter {
                name: "row",
                detail: format!("length {} != k = {}", row.len(), self.k),
            });
        }
        for (i, &xi) in row.iter().enumerate() {
            for (j, &xj) in row.iter().enumerate() {
                self.xtx[i * self.k + j] += xi * xj;
            }
            self.xtz[i] += xi * z;
        }
        self.ztz += z * z;
        self.n += 1;
        Ok(())
    }

    /// Number of coefficients.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of folded observations.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Merges a measure built over a **disjoint set of observation rows**
    /// (the MLR analogue of a time-dimension roll-up): every statistic adds.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] on mismatched `k`.
    pub fn merge_disjoint(&mut self, other: &MlrMeasure) -> Result<()> {
        if self.k != other.k {
            return Err(RegressError::InvalidParameter {
                name: "other",
                detail: format!("k mismatch: {} vs {}", self.k, other.k),
            });
        }
        for (a, b) in self.xtx.iter_mut().zip(&other.xtx) {
            *a += b;
        }
        for (a, b) in self.xtz.iter_mut().zip(&other.xtz) {
            *a += b;
        }
        self.ztz += other.ztz;
        self.n += other.n;
        Ok(())
    }

    /// Merges a measure observed at the **same design rows** whose
    /// responses are summed point-wise (the MLR analogue of Theorem 3.2).
    /// `XᵀX` and `n` must agree and stay fixed; `Xᵀz` adds. `zᵀz` of a
    /// point-wise sum is *not* derivable (cross terms are lost), so it is
    /// invalidated to `NaN`; [`Self::solve`] remains exact.
    ///
    /// The two `XᵀX` are compared relative to their largest entry: sums of
    /// `t²` at realistic tick magnitudes differ in the last bits with the
    /// order the rows were folded in, and that is still one design.
    ///
    /// # Errors
    /// [`RegressError::InvalidParameter`] when `k`, `n` or `XᵀX` differ.
    pub fn merge_same_design(&mut self, other: &MlrMeasure) -> Result<()> {
        if self.k != other.k || self.n != other.n {
            return Err(RegressError::InvalidParameter {
                name: "other",
                detail: format!(
                    "shape mismatch: k {} vs {}, n {} vs {}",
                    self.k, other.k, self.n, other.n
                ),
            });
        }
        let scale = self
            .xtx
            .iter()
            .chain(&other.xtx)
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let same = self
            .xtx
            .iter()
            .zip(&other.xtx)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * scale);
        if !same {
            return Err(RegressError::InvalidParameter {
                name: "other",
                detail: "designs differ (XᵀX mismatch)".into(),
            });
        }
        for (a, b) in self.xtz.iter_mut().zip(other.xtz.iter()) {
            *a += b;
        }
        self.ztz = f64::NAN;
        Ok(())
    }

    /// Solves the normal equations for the coefficient vector `β̂`.
    ///
    /// # Errors
    /// * [`RegressError::NotEnoughData`] when `n < k`.
    /// * [`RegressError::Collinear`] when `XᵀX` is not positive definite
    ///   (collinear design).
    pub fn solve(&self) -> Result<Vec<f64>> {
        if (self.n as usize) < self.k {
            return Err(RegressError::NotEnoughData {
                have: self.n as usize,
                need: self.k,
            });
        }
        cholesky_solve(&self.xtx, &self.xtz, self.k)
    }

    /// Residual sum of squares `zᵀz - β̂ᵀXᵀz`, available when `zᵀz` is
    /// known (i.e. no same-design merge occurred).
    ///
    /// # Errors
    /// Propagates [`Self::solve`] errors.
    pub fn rss(&self) -> Result<Option<f64>> {
        if self.ztz.is_nan() {
            return Ok(None);
        }
        let beta = self.solve()?;
        let explained: f64 = beta.iter().zip(self.xtz.iter()).map(|(b, x)| b * x).sum();
        // Clamp tiny negatives from floating-point cancellation.
        Ok(Some((self.ztz - explained).max(0.0)))
    }
}

/// Solves `A x = b` for the symmetric positive-definite `k × k` matrix
/// `a` (row-major; only its lower triangle is read) through `A = L Lᵀ`.
///
/// A pivot must be finite and above `1e-12 ×` its own diagonal entry of
/// `a`; otherwise the matrix is singular, indefinite or numerically
/// collinear (duplicate design columns cancel to a pivot of a few ulps
/// of their entry). Each pivot answers only for its own column: the
/// intercept's entry of a `[1, t]` design is `n` whatever the ticks'
/// magnitude, so a rule scaled by the largest entry (`Σt²`) would
/// reject it for every design with ticks beyond about 1e6.
fn cholesky_solve(a: &[f64], b: &[f64], k: usize) -> Result<Vec<f64>> {
    let mut l = vec![0.0; k * k];
    for j in 0..k {
        let entry = a[j * k + j];
        let mut diag = entry;
        for p in 0..j {
            diag -= l[j * k + p] * l[j * k + p];
        }
        if !(diag.is_finite() && diag > 1e-12 * entry.abs()) {
            return Err(RegressError::Collinear { pivot: j });
        }
        let d = diag.sqrt();
        l[j * k + j] = d;
        for i in (j + 1)..k {
            let mut v = a[i * k + j];
            for p in 0..j {
                v -= l[i * k + p] * l[j * k + p];
            }
            l[i * k + j] = v / d;
        }
    }
    // Forward substitution L y = b, then back substitution Lᵀ x = y.
    let mut x = b.to_vec();
    for i in 0..k {
        for p in 0..i {
            x[i] -= l[i * k + p] * x[p];
        }
        x[i] /= l[i * k + i];
    }
    for i in (0..k).rev() {
        for p in (i + 1)..k {
            x[i] -= l[p * k + i] * x[p];
        }
        x[i] /= l[i * k + i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn time_series_measure_matches_isb_fit() {
        let z = TimeSeries::new(0, vec![1.0, 2.5, 2.0, 4.0, 5.5]).unwrap();
        let m = MlrMeasure::from_time_series(&z).unwrap();
        let beta = m.solve().unwrap();
        let isb = crate::isb::Isb::fit(&z).unwrap();
        assert!((beta[0] - isb.base()).abs() < 1e-10);
        assert!((beta[1] - isb.slope()).abs() < 1e-10);
    }

    #[test]
    fn disjoint_merge_equals_pooled_fit() {
        let z =
            TimeSeries::from_fn(0, 19, |t| 2.0 + 0.3 * t as f64 + ((t % 3) as f64) * 0.1).unwrap();
        let (a, b) = (z.window(0, 9).unwrap(), z.window(10, 19).unwrap());
        let mut ma = MlrMeasure::from_time_series(&a).unwrap();
        let mb = MlrMeasure::from_time_series(&b).unwrap();
        ma.merge_disjoint(&mb).unwrap();

        let pooled = MlrMeasure::from_time_series(&z).unwrap();
        assert!(approx_eq(
            &ma.solve().unwrap(),
            &pooled.solve().unwrap(),
            1e-9
        ));
        assert_eq!(ma.n(), 20);
        let (r1, r2) = (ma.rss().unwrap().unwrap(), pooled.rss().unwrap().unwrap());
        assert!((r1 - r2).abs() < 1e-8);
    }

    #[test]
    fn same_design_merge_adds_coefficients() {
        // The MLR generalization of Theorem 3.2: identical designs, summed
        // responses => summed coefficient vectors.
        let z1 = TimeSeries::new(0, vec![1.0, 2.0, 3.5, 3.0]).unwrap();
        let z2 = TimeSeries::new(0, vec![0.5, 1.5, 0.0, 2.0]).unwrap();
        let mut m = MlrMeasure::from_time_series(&z1).unwrap();
        m.merge_same_design(&MlrMeasure::from_time_series(&z2).unwrap())
            .unwrap();
        let merged = m.solve().unwrap();

        let sum = z1.pointwise_sum(&z2).unwrap();
        let direct = MlrMeasure::from_time_series(&sum).unwrap().solve().unwrap();
        assert!(approx_eq(&merged, &direct, 1e-9));
        // RSS is intentionally unavailable after a same-design merge.
        assert!(m.rss().unwrap().is_none());
    }

    /// Two siblings over the same `n` ticks `t0 + step·i`, design `[1, t]`:
    /// the first pushed in one pass, the second built from two halves
    /// joined by `merge_disjoint`, and `a` merged with `b` by the
    /// same-design rule. Returns that merge and the measure of the summed
    /// responses pushed directly.
    fn merged_siblings(t0: f64, step: f64, n: usize) -> (MlrMeasure, MlrMeasure) {
        let mut a = MlrMeasure::empty(2).unwrap();
        let (mut b, mut b_tail, mut summed) = (a.clone(), a.clone(), a.clone());
        for i in 0..n {
            let t = t0 + step * i as f64;
            let (za, zb) = (
                1.0 + 0.25 * i as f64,
                3.0 - 0.125 * i as f64 + (i % 5) as f64,
            );
            a.push_row(&[1.0, t], za).unwrap();
            let half = if i < n / 2 { &mut b } else { &mut b_tail };
            half.push_row(&[1.0, t], zb).unwrap();
            summed.push_row(&[1.0, t], za + zb).unwrap();
        }
        b.merge_disjoint(&b_tail).unwrap();
        assert_ne!(a.xtx, b.xtx, "the two fold orders round differently");
        a.merge_same_design(&b).unwrap();
        let scale = summed.xtz.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(approx_eq(&a.xtz, &summed.xtz, 1e-12 * scale));
        (a, summed)
    }

    #[test]
    fn same_design_merge_accepts_a_design_folded_in_another_order() {
        // 10,000 integer ticks from 1e6: the two Σt² differ by 536 of
        // about 1e16, and the merge must still see one design. Half
        // ticks from 5e5 make Σt² round at 2.5e15 already. Either way
        // the merged coefficients are the summed series'.
        for (t0, step) in [(1e6, 1.0), (5e5, 0.5)] {
            let (merged, summed) = merged_siblings(t0, step, 10_000);
            let (merged, direct) = (merged.solve().unwrap(), summed.solve().unwrap());
            for (m, d) in merged.iter().zip(&direct) {
                assert!(
                    (m - d).abs() <= 1e-9 * d.abs().max(1.0),
                    "from {t0}: {merged:?} vs {direct:?}"
                );
            }
        }
    }

    #[test]
    fn line_fits_recover_the_intercept_far_from_tick_zero() {
        // z = 3 + 0.5 t over 1,000 ticks spanning [t0, 2 t0): the
        // intercept's pivot is n = 1000 against Σt² of about 2e15 and
        // 2e21, which a pivot rule scaled by the largest diagonal entry
        // rejected.
        for (t0, tol) in [(1e6, 1e-7), (1e9, 1e-4)] {
            let mut m = MlrMeasure::empty(2).unwrap();
            for i in 0..1000 {
                let t = t0 + t0 * i as f64 / 1000.0;
                m.push_row(&[1.0, t], 3.0 + 0.5 * t).unwrap();
            }
            let beta = m.solve().unwrap();
            assert!((beta[0] - 3.0).abs() <= tol, "from {t0}: {beta:?}");
            assert!((beta[1] - 0.5).abs() <= 1e-12, "from {t0}: {beta:?}");
        }
    }

    #[test]
    fn merge_validation() {
        let a = MlrMeasure::empty(2).unwrap();
        let b = MlrMeasure::empty(3).unwrap();
        let mut a2 = a.clone();
        assert!(a2.merge_disjoint(&b).is_err());
        assert!(a2.merge_same_design(&b).is_err());

        // Same k but different designs must be rejected by same-design merge.
        let z1 = TimeSeries::new(0, vec![1.0, 2.0]).unwrap();
        let z2 = TimeSeries::new(5, vec![1.0, 2.0]).unwrap();
        let mut m1 = MlrMeasure::from_time_series(&z1).unwrap();
        let m2 = MlrMeasure::from_time_series(&z2).unwrap();
        assert!(m1.merge_same_design(&m2).is_err());
    }

    #[test]
    fn underdetermined_and_collinear_systems_error() {
        let mut m = MlrMeasure::empty(2).unwrap();
        m.push_row(&[1.0, 0.0], 1.0).unwrap();
        assert!(matches!(m.solve(), Err(RegressError::NotEnoughData { .. })));

        // Two identical rows: XᵀX singular even though n = k.
        let mut c = MlrMeasure::empty(2).unwrap();
        c.push_row(&[1.0, 1.0], 1.0).unwrap();
        c.push_row(&[1.0, 1.0], 2.0).unwrap();
        assert_eq!(c.solve(), Err(RegressError::Collinear { pivot: 1 }));
    }

    #[test]
    fn push_row_validates_width() {
        let mut m = MlrMeasure::empty(2).unwrap();
        assert!(m.push_row(&[1.0], 0.0).is_err());
        assert!(MlrMeasure::empty(0).is_err());
    }

    #[test]
    fn spatial_regression_example() {
        // The paper's sensor-network motivation: regress on time AND a
        // spatial coordinate. z = 3 + 0.5 t - 1.5 s.
        let mut m = MlrMeasure::empty(3).unwrap();
        for t in 0..6 {
            for s in 0..4 {
                let z = 3.0 + 0.5 * t as f64 - 1.5 * s as f64;
                m.push_row(&[1.0, t as f64, s as f64], z).unwrap();
            }
        }
        let beta = m.solve().unwrap();
        assert!(approx_eq(&beta, &[3.0, 0.5, -1.5], 1e-9));
        assert!(m.rss().unwrap().unwrap() < 1e-10);
    }
}
