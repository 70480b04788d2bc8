//! Tilt time frame substrate (paper Section 4.1).
//!
//! In stream analysis "people are often interested in recent changes at a
//! fine scale, but long term changes at a coarse scale". A **tilt time
//! frame** registers time at multiple granularities: the most recent time
//! at the finest granularity, progressively older time at coarser ones.
//! The paper's Figure 4 frame keeps 4 quarters (of an hour), 24 hours,
//! 31 days and 12 months — `4 + 24 + 31 + 12 = 71` slots instead of the
//! `366 · 24 · 4 = 35,136` quarter slots of a flat year, "a saving of
//! about 495 times" (Example 3).
//!
//! * [`scale::TiltSpec`] describes the granularity ladder;
//! * [`frame::TiltFrame`] holds the slots and performs **promotion**: when
//!   a coarser-unit boundary fills (e.g. 4 quarters complete an hour), the
//!   fine slots are merged — for regression measures via Theorem 3.3,
//!   losslessly — and pushed one level up (Section 4.5);
//! * [`mergeable::TimeMergeable`] is the measure contract (implemented for
//!   [`regcube_regress::Isb`]), keeping the frame generic;
//! * [`family::FrameFamily`] holds every frame of one layer on one clock,
//!   slot-major: one shared column per retained slot instead of one
//!   frame per cell, so a unit close writes what changed and a snapshot
//!   shares the rest. Its columns are the slots of one `TiltFrame` whose
//!   measure is a column, so promotion, expiry and the amendment lookup
//!   are written once, in [`frame`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod family;
pub mod frame;
pub mod mergeable;
pub mod scale;

pub use error::TiltError;
pub use family::{FamilySnapshot, FrameFamily, Ladder, LevelSlots};
pub use frame::{AmendOutcome, TiltFrame, TiltSlot, TiltStats};
pub use mergeable::TimeMergeable;
pub use scale::{LevelSpec, TiltSpec};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TiltError>;
