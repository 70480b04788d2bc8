//! `regcube-core` — regression(-measured) cubes over time-series streams.
//!
//! This crate is the primary contribution of *Chen, Dong, Han, Wah, Wang:
//! "Multi-Dimensional Regression Analysis of Time-Series Data Streams"
//! (VLDB 2002)*, assembled from the substrates:
//!
//! * the ISB regression measures and lossless aggregation theorems of
//!   [`regcube_regress`],
//! * the dimensions / cuboid lattice / H-tree machinery of
//!   [`regcube_olap`],
//! * the tilt time frame of [`regcube_tilt`].
//!
//! # The computation model (Framework 4.1)
//!
//! A full regression cube is unaffordable in a stream setting, so the cube
//! materializes exactly:
//!
//! 1. the **m-layer** (minimal interesting layer) — every cell, aggregated
//!    directly from the stream;
//! 2. the **o-layer** (observation layer) — every cell, the analyst's
//!    watch deck;
//! 3. between the two, **only exception cells**: cells whose regression
//!    slope magnitude passes a threshold ([`exception::ExceptionPolicy`]).
//!
//! Two algorithms realize the framework, faithful to the paper's
//! Section 4.4:
//!
//! * [`mo_cubing`] (**Algorithm 1**): computes *every* cell of every
//!   cuboid between the layers by shared bottom-up aggregation, retaining
//!   only the exceptions;
//! * [`popular_path`] (**Algorithm 2**): rolls up only the cuboids along a
//!   *popular path* (stored in the non-leaf nodes of a path-ordered
//!   H-tree), then drills from the o-layer downward, computing only the
//!   children of exception cells in off-path cuboids.
//!
//! Both return a [`result::CubeResult`] with identical critical layers;
//! Algorithm 1 retains a superset of Algorithm 2's exceptions (the paper's
//! footnote 7), which the cross-algorithm tests in `tests/` verify.
//!
//! Beyond the paper, both algorithms run behind the
//! [`engine::CubingEngine`] trait, so they compose with streaming
//! exception consumers ([`alarm`]). Every cuboid is one row table
//! ([`table::CuboidTable`], a hash map from cell key to measure). The
//! repository-level `ARCHITECTURE.md` maps every paper section to its
//! module and documents where a new engine plugs in.
//!
//! ```
//! use regcube_core::prelude::*;
//! use regcube_olap::{CubeSchema, CuboidSpec};
//! use regcube_regress::{Isb, TimeSeries};
//!
//! // A 2-dimension schema, 2 levels each, fanout 3.
//! let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
//! let layers = CriticalLayers::new(
//!     &schema,
//!     CuboidSpec::new(vec![1, 0]),  // o-layer: (A1, *)
//!     CuboidSpec::new(vec![2, 2]),  // m-layer: (A2, B2)
//! ).unwrap();
//!
//! // Four m-layer streams with known trends.
//! let mut tuples = Vec::new();
//! for (a, b, slope) in [(0u32, 0u32, 0.9), (1, 3, 0.0), (4, 7, -0.8), (8, 8, 0.1)] {
//!     let series = TimeSeries::from_fn(0, 19, |t| slope * t as f64).unwrap();
//!     tuples.push(MTuple::new(vec![a, b], Isb::fit(&series).unwrap()));
//! }
//!
//! let policy = ExceptionPolicy::slope_threshold(0.5);
//! let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
//! assert_eq!(cube.m_layer_cells(), 4);
//! assert!(cube.total_exception_cells() > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod alarm;
pub mod drill;
pub mod engine;
pub mod error;
pub mod exception;
pub mod layers;
pub mod measure;
pub mod mo_cubing;
pub mod popular_path;
pub mod query;
pub mod result;
pub mod stats;
pub mod table;

pub use alarm::{
    AlarmContext, AlarmLog, AlarmSink, DashboardSummary, LateAmendment, SinkSet, ThresholdEscalator,
};
pub use engine::{CubingEngine, MoCubingEngine, PopularPathEngine, UnitDelta};
pub use error::CoreError;
pub use exception::ExceptionPolicy;
pub use layers::CriticalLayers;
pub use measure::MTuple;
pub use result::CubeResult;
pub use stats::RunStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::alarm::{
        AlarmContext, AlarmLog, AlarmSink, DashboardSummary, Episode, Escalation, SinkSet,
        ThresholdEscalator,
    };
    pub use crate::engine::{CubingEngine, MoCubingEngine, PopularPathEngine, UnitDelta};
    pub use crate::exception::ExceptionPolicy;
    pub use crate::layers::CriticalLayers;
    pub use crate::measure::MTuple;
    pub use crate::result::CubeResult;
    pub use crate::{mo_cubing, popular_path};
}
