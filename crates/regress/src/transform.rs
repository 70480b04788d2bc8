//! Non-linear regression through basis/response transforms (paper
//! Section 6.2: "this theory is applicable to regression analysis using
//! non-linear functions, such as the log function, polynomial functions,
//! and exponential functions").
//!
//! Each fit reduces to (multiple) linear regression after a deterministic
//! transform, so the warehousing results of Section 3 / [`crate::mlr`]
//! carry over: the transformed sufficient statistics aggregate losslessly.

use crate::error::RegressError;
use crate::mlr::MlrMeasure;
use crate::series::TimeSeries;
use crate::Result;

/// A fitted polynomial model `ẑ(t) = c₀ + c₁ t + … + c_d t^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFit {
    /// Coefficients, lowest degree first.
    pub coeffs: Vec<f64>,
}

impl PolyFit {
    /// Predicted value at tick `t` (Horner evaluation).
    pub fn predict(&self, t: i64) -> f64 {
        let tf = t as f64;
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * tf + c)
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }
}

/// Fits a degree-`degree` polynomial to `series` by least squares.
///
/// # Errors
/// * [`RegressError::InvalidParameter`] when the series has fewer than
///   `degree + 1` observations.
/// * [`RegressError::Collinear`] for numerically degenerate designs.
pub fn fit_polynomial(series: &TimeSeries, degree: usize) -> Result<PolyFit> {
    let k = degree + 1;
    if k > series.len() {
        return Err(RegressError::InvalidParameter {
            name: "degree",
            detail: format!("degree {degree} needs > {degree} observations"),
        });
    }
    let mut m = MlrMeasure::empty(k)?;
    let mut row = vec![0.0; k];
    for (t, z) in series.iter() {
        let mut p = 1.0;
        for x in &mut row {
            *x = p;
            p *= t as f64;
        }
        m.push_row(&row, z)?;
    }
    Ok(PolyFit { coeffs: m.solve()? })
}

/// A fitted logarithmic model `ẑ(t) = a + b·ln(t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogFit {
    /// Additive constant `a`.
    pub a: f64,
    /// Log coefficient `b`.
    pub b: f64,
}

impl LogFit {
    /// Predicted value at tick `t > 0`.
    ///
    /// # Errors
    /// [`RegressError::DomainViolation`] for `t <= 0`.
    pub fn predict(&self, t: i64) -> Result<f64> {
        if t <= 0 {
            return Err(RegressError::DomainViolation {
                transform: "log",
                value: t as f64,
            });
        }
        Ok(self.a + self.b * (t as f64).ln())
    }
}

/// Fits `z(t) = a + b·ln(t)` by linear regression on the transformed
/// abscissa `ln(t)`.
///
/// # Errors
/// * [`RegressError::DomainViolation`] when any tick is `<= 0`.
/// * [`RegressError::NotEnoughData`] for fewer than 2 observations.
/// * [`RegressError::Collinear`] for degenerate designs.
pub fn fit_log(series: &TimeSeries) -> Result<LogFit> {
    if series.len() < 2 {
        return Err(RegressError::NotEnoughData {
            have: series.len(),
            need: 2,
        });
    }
    if series.start() <= 0 {
        return Err(RegressError::DomainViolation {
            transform: "log",
            value: series.start() as f64,
        });
    }
    let mut m = MlrMeasure::empty(2)?;
    for (t, z) in series.iter() {
        m.push_row(&[1.0, (t as f64).ln()], z)?;
    }
    let beta = m.solve()?;
    Ok(LogFit {
        a: beta[0],
        b: beta[1],
    })
}

/// A fitted exponential model `ẑ(t) = A·e^{b t}` (with `A > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpFit {
    /// Amplitude `A`.
    pub amplitude: f64,
    /// Growth rate `b`.
    pub rate: f64,
}

impl ExpFit {
    /// Predicted value at tick `t`.
    pub fn predict(&self, t: i64) -> f64 {
        self.amplitude * (self.rate * t as f64).exp()
    }
}

/// Fits `z(t) = A·e^{bt}` by linear regression of `ln z` on `t`
/// (log-response transform).
///
/// # Errors
/// * [`RegressError::DomainViolation`] when any observation is `<= 0`.
/// * [`RegressError::NotEnoughData`] for fewer than 2 observations.
pub fn fit_exponential(series: &TimeSeries) -> Result<ExpFit> {
    if series.len() < 2 {
        return Err(RegressError::NotEnoughData {
            have: series.len(),
            need: 2,
        });
    }
    for (_, z) in series.iter() {
        if z <= 0.0 {
            return Err(RegressError::DomainViolation {
                transform: "exp",
                value: z,
            });
        }
    }
    let log_series = TimeSeries::new(
        series.start(),
        series.values().iter().map(|z| z.ln()).collect(),
    )?;
    let fit = crate::ols::LinearFit::fit(&log_series);
    Ok(ExpFit {
        amplitude: fit.base.exp(),
        rate: fit.slope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_fit_is_exact_on_polynomial_data() {
        let z =
            TimeSeries::from_fn(0, 11, |t| 2.0 + 1.5 * t as f64 - 0.25 * (t * t) as f64).unwrap();
        let fit = fit_polynomial(&z, 2).unwrap();
        assert_eq!(fit.degree(), 2);
        for t in [0, 5, 11] {
            assert!((fit.predict(t) - z.value_at(t).unwrap()).abs() < 1e-7);
        }
        // Twelve points do not determine a degree-12 polynomial.
        assert!(matches!(
            fit_polynomial(&z, 12),
            Err(RegressError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn polynomial_degree_one_matches_ols() {
        let z = TimeSeries::new(0, vec![1.0, 3.0, 2.0, 5.0]).unwrap();
        let p = fit_polynomial(&z, 1).unwrap();
        let l = crate::ols::LinearFit::fit(&z);
        assert!((p.coeffs[0] - l.base).abs() < 1e-9);
        assert!((p.coeffs[1] - l.slope).abs() < 1e-9);
    }

    #[test]
    fn log_fit_recovers_parameters() {
        let z = TimeSeries::from_fn(1, 64, |t| 4.0 - 1.25 * (t as f64).ln()).unwrap();
        let fit = fit_log(&z).unwrap();
        assert!((fit.a - 4.0).abs() < 1e-8);
        assert!((fit.b + 1.25).abs() < 1e-8);
        assert!((fit.predict(10).unwrap() - z.value_at(10).unwrap()).abs() < 1e-8);
        assert!(fit.predict(0).is_err());
    }

    #[test]
    fn log_fit_domain_checks() {
        let at_zero = TimeSeries::new(0, vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            fit_log(&at_zero),
            Err(RegressError::DomainViolation {
                transform: "log",
                ..
            })
        ));
        let single = TimeSeries::new(1, vec![1.0]).unwrap();
        assert!(matches!(
            fit_log(&single),
            Err(RegressError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn exponential_fit_recovers_parameters() {
        let z = TimeSeries::from_fn(0, 20, |t| 2.5 * (0.11 * t as f64).exp()).unwrap();
        let fit = fit_exponential(&z).unwrap();
        assert!((fit.amplitude - 2.5).abs() < 1e-8);
        assert!((fit.rate - 0.11).abs() < 1e-9);
        assert!((fit.predict(7) - z.value_at(7).unwrap()).abs() < 1e-7);
    }

    #[test]
    fn exponential_fit_domain_checks() {
        let nonpositive = TimeSeries::new(0, vec![1.0, -0.5, 2.0]).unwrap();
        assert!(matches!(
            fit_exponential(&nonpositive),
            Err(RegressError::DomainViolation {
                transform: "exp",
                ..
            })
        ));
        let single = TimeSeries::new(0, vec![1.0]).unwrap();
        assert!(matches!(
            fit_exponential(&single),
            Err(RegressError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn horner_prediction_matches_naive_evaluation() {
        let fit = PolyFit {
            coeffs: vec![1.0, -2.0, 0.5, 0.125],
        };
        for t in [-3i64, 0, 2, 9] {
            let tf = t as f64;
            let naive = 1.0 - 2.0 * tf + 0.5 * tf * tf + 0.125 * tf * tf * tf;
            assert!((fit.predict(t) - naive).abs() < 1e-9);
        }
    }
}
