//! OLAP data-cube substrate for `regcube`.
//!
//! This crate provides the *structured environment* the paper places its
//! regression measures into (Sections 2.1, 4.4):
//!
//! * [`hierarchy`] / [`dimension`] / [`schema`] — standard dimensions with
//!   multi-level concept hierarchies (`* > A1 > A2 > A3`);
//! * [`cell`] — cells in the multi-dimensional space with the paper's
//!   ancestor / descendant / sibling relations;
//! * [`cuboid`] / [`lattice`] — the cuboid lattice spanned between the
//!   m-layer and the o-layer (Figure 6: `2·3·2 = 12` cuboids for
//!   Example 5);
//! * [`path`] — monotone *popular paths* through that lattice, the drilling
//!   backbone of Algorithm 2;
//! * [`htree`] — the **H-tree**, the hyper-linked tree structure (after
//!   Han et al., SIGMOD'01, the paper's reference 18) with header tables
//!   the paper stages both cubing algorithms through (no engine builds one
//!   any more; see its module docs);
//! * [`fxhash`] — an in-repo Fx-style fast hasher (the dependency policy
//!   excludes `rustc-hash`), used for all member-id keyed maps.
//!
//! The crate is measure-agnostic: it stores any payload type `M` in tree
//! nodes and knows nothing about regression. `regcube-core` layers the
//! ISB measures and exception logic on top.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod cuboid;
pub mod dimension;
pub mod error;
pub mod fxhash;
pub mod hierarchy;
pub mod htree;
pub mod lattice;
pub mod path;
pub mod schema;

pub use cell::{Cell, CellKey};
pub use cuboid::CuboidSpec;
pub use dimension::Dimension;
pub use error::OlapError;
pub use hierarchy::Hierarchy;
pub use htree::HTree;
pub use lattice::Lattice;
pub use path::PopularPath;
pub use schema::CubeSchema;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OlapError>;
