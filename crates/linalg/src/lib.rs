//! Small dense linear-algebra substrate for `regcube`.
//!
//! The VLDB 2002 paper generalizes its warehousing result from simple linear
//! regression to *multiple* linear regression (several regression variables,
//! e.g. spatial coordinates of sensors in addition to time). Solving the
//! normal equations for those models needs a dense matrix toolkit. The
//! offline dependency policy of this repository excludes `nalgebra`/`ndarray`,
//! so this crate provides the small, well-tested subset `regcube_regress::mlr`
//! needs:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic,
//! * [`cholesky`] — Cholesky factorization/solve for symmetric
//!   positive-definite systems (the `XᵀX` normal equations).
//!
//! All routines are deterministic, allocation-conscious and pure Rust; no
//! `unsafe` is used anywhere in the crate.
//!
//! # Example
//!
//! ```
//! use regcube_linalg::cholesky::Cholesky;
//! use regcube_linalg::Matrix;
//!
//! // Solve the SPD system [[4, 2], [2, 3]] x = [10, 8].
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
//! let x = Cholesky::factor(&a).unwrap().solve(&[10.0, 8.0]).unwrap();
//! assert!((x[0] - 1.75).abs() < 1e-12);
//! assert!((x[1] - 1.5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cholesky;
pub mod error;
pub mod matrix;
pub mod vecops;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
