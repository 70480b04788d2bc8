//! Error type for the linear-algebra substrate.

use std::fmt;

/// Errors produced by matrix construction and decomposition routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The requested shape is empty or inconsistent with the supplied data.
    BadShape {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// Two operands have incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
        /// Name of the attempted operation.
        op: &'static str,
    },
    /// The matrix is not positive definite (Cholesky breakdown).
    NotPositiveDefinite {
        /// Diagonal index at which a non-positive pivot appeared.
        index: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::BadShape { detail } => write!(f, "bad matrix shape: {detail}"),
            LinalgError::DimensionMismatch { left, right, op } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotPositiveDefinite { index } => {
                write!(
                    f,
                    "matrix is not positive definite (diagonal index {index})"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "mul",
        };
        let s = e.to_string();
        assert!(s.contains("mul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));

        assert!(LinalgError::NotPositiveDefinite { index: 2 }
            .to_string()
            .contains("positive definite"));
        assert!(LinalgError::BadShape { detail: "x".into() }
            .to_string()
            .contains("bad matrix shape"));
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let e = LinalgError::NotPositiveDefinite { index: 1 };
        assert_eq!(e.clone(), e);
    }
}
