//! Synthetic hierarchical stream generator for `regcube` — the stand-in
//! for the paper's data generator ("similar in spirit to the IBM data
//! generator designed for testing data mining algorithms").
//!
//! Dataset names follow the paper's convention: **`D3L3C10T100K`** means
//! 3 dimensions, 3 levels per dimension *from the m-layer to the o-layer
//! inclusive*, node fan-out (cardinality) 10, and 100K merged m-layer
//! tuples ([`spec::DatasetSpec`] parses and prints the notation).
//!
//! Each generated tuple is one *merged m-layer data stream*: random member
//! coordinates at the m-layer plus a noisy linear trend drawn from one
//! fixed mixture — mostly quiet streams with a 5% share of strongly
//! trending ones, so exception thresholds at different quantiles produce
//! the exception rates the paper's Figure 8 sweeps ([`calibrate`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod error;
pub mod generate;
pub mod hierarchy_gen;
mod series;
pub mod spec;

pub use error::DatagenError;
pub use generate::{Dataset, GenTuple};
pub use hierarchy_gen::{ragged_hierarchy, ragged_schema};
pub use spec::DatasetSpec;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatagenError>;
