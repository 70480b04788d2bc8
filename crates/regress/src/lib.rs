//! Regression mathematics for `regcube` — the theoretical foundation of
//! *Chen, Dong, Han, Wah, Wang: "Multi-Dimensional Regression Analysis of
//! Time-Series Data Streams" (VLDB 2002)*, Section 3.
//!
//! The paper's key observation is that the least-squares linear fit of a
//! time series can be *warehoused*: a cell of a data cube needs to keep only
//! the 4-number **ISB representation** `([t_b, t_e], α̂, β̂)` of its series,
//! and the ISB of any aggregated cell is derivable **exactly** (no loss of
//! precision) from the ISBs of its descendant cells:
//!
//! * **Theorem 3.2** — roll-up on a *standard* dimension sums the series
//!   point-wise, and both the base `α̂` and the slope `β̂` simply add
//!   ([`aggregate::merge_standard`]).
//! * **Theorem 3.3** — roll-up on the *time* dimension concatenates disjoint
//!   intervals, and the aggregate fit is a weighted combination of segment
//!   fits plus segment sums, all recoverable from the ISBs
//!   ([`aggregate::merge_time`], with the paper's verbatim formula in
//!   [`aggregate::merge_time_theorem33`]).
//!
//! This crate implements those results plus the extensions sketched in the
//! paper's Section 6.2, one module per claim: **folding** time aggregation
//! ([`fold`]), **multiple linear regression** with lossless
//! sufficient-statistics measures and their own `k × k` Cholesky solve
//! ([`mlr`]), **non-linear fits** through basis transforms
//! ([`transform`]), and **irregular time ticks** through a constant-space
//! streaming fit with centred co-moments ([`running`]).
//!
//! # Quick example
//!
//! ```
//! use regcube_regress::{TimeSeries, Isb, aggregate};
//!
//! // Two sibling cells observed over the same interval ...
//! let a = TimeSeries::new(0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! let b = TimeSeries::new(0, vec![4.0, 3.0, 2.0, 1.0]).unwrap();
//!
//! // ... warehoused as ISBs ...
//! let isb_a = Isb::fit(&a).unwrap();
//! let isb_b = Isb::fit(&b).unwrap();
//!
//! // ... aggregate exactly without touching the raw series (Theorem 3.2):
//! let merged = aggregate::merge_standard(&[isb_a, isb_b]).unwrap();
//! let direct = Isb::fit(&a.pointwise_sum(&b).unwrap()).unwrap();
//! assert!((merged.slope() - direct.slope()).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod error;
pub mod fold;
pub mod isb;
pub mod mlr;
pub mod ols;
pub mod running;
pub mod series;
pub mod transform;

pub use error::RegressError;
pub use isb::{IntVal, Isb};
pub use ols::LinearFit;
pub use running::RunningFit;
pub use series::TimeSeries;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RegressError>;
