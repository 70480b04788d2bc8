//! Error type for the regression layer.

use std::fmt;

/// Errors produced by series construction, fitting and aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressError {
    /// A time series must contain at least one observation.
    EmptySeries,
    /// Two series/ISBs were expected to share the same time interval.
    IntervalMismatch {
        /// First interval `[t_b, t_e]`.
        left: (i64, i64),
        /// Second interval `[t_b, t_e]`.
        right: (i64, i64),
    },
    /// Segments passed to a time-dimension merge do not form a contiguous
    /// partition of a larger interval.
    NotAPartition {
        /// Description of the gap/overlap found.
        detail: String,
    },
    /// An aggregation was called with no inputs.
    NoInputs,
    /// The operation needs more observations than the series contains.
    NotEnoughData {
        /// Observations available.
        have: usize,
        /// Observations required.
        need: usize,
    },
    /// A transform's domain was violated (e.g. `log` of a non-positive
    /// value).
    DomainViolation {
        /// Which transform failed.
        transform: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A parameter was out of its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violation.
        detail: String,
    },
    /// A multiple-regression design is collinear: the Cholesky pivot of
    /// `XᵀX` at column `pivot` is not finite or not above `1e-12 ×` its
    /// largest diagonal entry, so the coefficients are not identifiable.
    Collinear {
        /// Index of the column whose pivot failed.
        pivot: usize,
    },
}

impl fmt::Display for RegressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressError::EmptySeries => write!(f, "time series is empty"),
            RegressError::IntervalMismatch { left, right } => write!(
                f,
                "interval mismatch: [{}, {}] vs [{}, {}]",
                left.0, left.1, right.0, right.1
            ),
            RegressError::NotAPartition { detail } => {
                write!(f, "segments do not partition the interval: {detail}")
            }
            RegressError::NoInputs => write!(f, "aggregation called with no inputs"),
            RegressError::NotEnoughData { have, need } => {
                write!(f, "not enough data: have {have}, need {need}")
            }
            RegressError::DomainViolation { transform, value } => {
                write!(
                    f,
                    "domain violation in {transform} transform at value {value}"
                )
            }
            RegressError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter {name}: {detail}")
            }
            RegressError::Collinear { pivot } => {
                write!(f, "collinear design: XᵀX is singular at pivot {pivot}")
            }
        }
    }
}

impl std::error::Error for RegressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<RegressError> = vec![
            RegressError::EmptySeries,
            RegressError::IntervalMismatch {
                left: (0, 1),
                right: (2, 3),
            },
            RegressError::NotAPartition {
                detail: "gap".into(),
            },
            RegressError::NoInputs,
            RegressError::NotEnoughData { have: 1, need: 2 },
            RegressError::DomainViolation {
                transform: "log",
                value: -1.0,
            },
            RegressError::InvalidParameter {
                name: "degree",
                detail: "zero".into(),
            },
            RegressError::Collinear { pivot: 0 },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
