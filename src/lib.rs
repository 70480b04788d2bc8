//! # regcube — multi-dimensional regression analysis of time-series data streams
//!
//! A production-quality Rust reproduction of *Chen, Dong, Han, Wah, Wang:
//! "Multi-Dimensional Regression Analysis of Time-Series Data Streams"
//! (VLDB 2002)*: **regression cubes** that warehouse only compact ISB
//! regression measures per cell, aggregate them losslessly across both
//! standard and time dimensions, and keep stream analysis affordable with
//! a **tilt time frame**, two **critical layers** and **exception-driven
//! cubing** (m/o-cubing and popular-path cubing).
//!
//! This crate is an umbrella: it re-exports the workspace's subsystem
//! crates under stable module names and offers a [`prelude`].
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`regress`] | `regcube-regress` | time series, OLS, ISB, Theorems 3.2/3.3, folding, MLR, transforms, irregular ticks |
//! | [`olap`] | `regcube-olap` | dimensions, hierarchies, cells, cuboid lattices, popular paths, the paper's H-tree |
//! | [`tilt`] | `regcube-tilt` | tilt time frames with lossless slot promotion |
//! | [`core`] | `regcube-core` | critical layers, exception policies, Algorithms 1 & 2, drilling |
//! | [`stream`] | `regcube-stream` | raw-record ingestion, the online engine, channel sources |
//! | [`serve`] | `regcube-serve` | multi-tenant serving: snapshot cells, backpressure, pump lanes |
//! | [`datagen`] | `regcube-datagen` | `D3L3C10T100K`-style synthetic stream datasets |
//!
//! # Quickstart
//!
//! ```
//! use regcube::prelude::*;
//!
//! // Warehouse two sibling streams as ISBs and aggregate them exactly.
//! let a = TimeSeries::new(0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! let b = TimeSeries::new(0, vec![2.0, 2.0, 2.0, 2.0]).unwrap();
//! let merged = regcube::regress::aggregate::merge_standard(&[
//!     Isb::fit(&a).unwrap(),
//!     Isb::fit(&b).unwrap(),
//! ]).unwrap();
//! assert!((merged.slope() - 1.0).abs() < 1e-12);
//! ```
//!
//! See `examples/` for full scenarios (power grid monitoring, network
//! traffic, sensor fields) and `ARCHITECTURE.md` for the
//! paper-reproduction map.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use regcube_core as core;
pub use regcube_datagen as datagen;
pub use regcube_olap as olap;
pub use regcube_regress as regress;
pub use regcube_serve as serve;
pub use regcube_stream as stream;
pub use regcube_tilt as tilt;

/// Glue between the generator and the online pipeline: turn a generated
/// dataset into a replayable raw-record stream.
pub mod sim {
    use regcube_datagen::Dataset;
    use regcube_stream::{RawRecord, ReplaySource, StreamError};

    /// Expands a dataset's fitted streams into per-tick raw records
    /// (tick-major order) covering the dataset's window, sampling each
    /// stream's fitted line. With `ticks_per_unit` dividing the window,
    /// the records replay as `window / ticks_per_unit` full units.
    pub fn dataset_records(dataset: &Dataset) -> Vec<RawRecord> {
        let (wb, we) = dataset.window();
        let mut records = Vec::with_capacity(dataset.tuples.len() * (we - wb + 1) as usize);
        for t in wb..=we {
            for tuple in &dataset.tuples {
                records.push(RawRecord::new(tuple.ids.clone(), t, tuple.isb.predict(t)));
            }
        }
        records
    }

    /// Builds a ready-to-run replay source from a dataset.
    ///
    /// # Errors
    /// [`StreamError::BadConfig`] for a zero `ticks_per_unit`.
    pub fn dataset_source(
        dataset: &Dataset,
        ticks_per_unit: usize,
    ) -> Result<ReplaySource, StreamError> {
        ReplaySource::new(dataset_records(dataset), ticks_per_unit)
    }
}

/// The most frequently used types, re-exported flat.
pub mod prelude {
    pub use regcube_core::{
        mo_cubing, popular_path, CriticalLayers, CubeResult, CubingEngine, ExceptionPolicy, MTuple,
        MoCubingEngine, PopularPathEngine,
    };
    pub use regcube_datagen::{Dataset, DatasetSpec};
    pub use regcube_olap::{
        cell::CellKey, CubeSchema, CuboidSpec, Dimension, Hierarchy, Lattice, PopularPath,
    };
    pub use regcube_regress::{aggregate, fold::FoldOp, IntVal, Isb, LinearFit, TimeSeries};
    pub use regcube_serve::{ServeConfig, Server, TenantId};
    pub use regcube_stream::{
        Alarm, CubeSnapshot, EngineConfig, OnlineEngine, RawRecord, ReplaySource, WatermarkPolicy,
    };
    pub use regcube_tilt::{TiltFrame, TiltSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_compose() {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let policy = ExceptionPolicy::slope_threshold(0.5);
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        let z = TimeSeries::from_fn(0, 9, |t| t as f64).unwrap();
        let tuples = vec![MTuple::new(vec![0, 0], Isb::fit(&z).unwrap())];
        let cube = mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        assert_eq!(cube.exceptional_o_cells().len(), 1);
    }
}
