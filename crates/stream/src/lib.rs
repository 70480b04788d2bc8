//! Stream substrate for `regcube` — the "always-grow" on-line side of the
//! paper (Section 4.5).
//!
//! The paper's pipeline: raw records arrive continuously at the primitive
//! layer (individual user, street address, minute); they are accumulated
//! into the corresponding H-tree leaf cells; "since the time granularity
//! of the m-layer is quarter, the aggregated data will trigger the cube
//! computation once every 15 minutes"; tilt-frame slots promote to coarser
//! granularities as they fill.
//!
//! * [`record`] — raw stream records below the m-layer, and their packed
//!   form: each record's primitive ids become one mixed-radix `u64` as
//!   it enters an engine, so queues and the reorder buffer hold 32-byte
//!   `Copy` values and the canonical order compares integers;
//! * [`ingest`] — per-unit accumulation and roll-up of raw records into
//!   m-layer ISB tuples (standard dimensions via hierarchy projection,
//!   time via per-unit OLS fits);
//! * [`online`] — the [`online::OnlineEngine`]: one `close_unit()` per
//!   m-layer time unit feeds the unit's tuples to a pluggable
//!   [`CubingEngine`](regcube_core::engine::CubingEngine) (generic
//!   parameter `E`; Algorithm 1 or 2 out of the box —
//!   [`online::EngineConfig::with_algorithm`]), maintains per-cell
//!   tilt frames, raises o-layer alarms (a slope at or above the
//!   threshold, Section 4.3), and fans every unit's sorted
//!   [`UnitDelta`](regcube_core::engine::UnitDelta) out to registered
//!   [`AlarmSink`](regcube_core::alarm::AlarmSink)s
//!   ([`online::EngineConfig::with_sinks`]) so consumers react to
//!   exception transitions without rescanning any layer;
//! * [`reorder`] — the bounded reordering buffer and low-watermark state
//!   behind [`online::EngineConfig::with_reordering`]: out-of-order
//!   records within the allowed lateness ingest bit-identically to
//!   sorted replay, records for already-closed units amend the
//!   warehoused tilt frames exactly (OLS linearity), and
//!   beyond-lateness records are counted in
//!   [`RunStats::late_dropped`](regcube_core::RunStats) — never
//!   silently lost;
//! * [`snapshot`] — immutable unit-boundary [`snapshot::CubeSnapshot`]s
//!   ([`online::OnlineEngine::snapshot`]): cube, tilt ladders and alarm
//!   state captured as one consistent value that answers drill and
//!   dashboard queries **byte-identically** to the live engine without
//!   borrowing it — the publication seam the `regcube_serve`
//!   multi-tenant serving layer swaps behind an `Arc` so readers never
//!   block writers;
//! * [`checkpoint`] — versioned, checksummed checkpoint/recovery for
//!   the engine ([`checkpoint::write_checkpoint`] /
//!   [`checkpoint::restore`]): tilt ladders, alarms, the reorder
//!   buffer and the lateness counters round-trip to a single
//!   self-validating file; torn or corrupt files yield typed
//!   [`StreamError::Checkpoint`] errors, never a half-restored
//!   engine;
//! * [`source`] — replay and mpsc-channel event sources for driving an
//!   engine from another thread.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod ingest;
pub mod online;
pub mod record;
pub mod reorder;
pub mod snapshot;
pub mod source;

pub use checkpoint::{checkpoint_bytes, restore, restore_bytes, write_checkpoint};
pub use error::StreamError;
pub use ingest::Ingestor;
pub use online::{Alarm, BoxedEngine, EngineConfig, OnlineEngine, TiltHit, UnitReport};
pub use record::{PackedRecord, RawRecord, RecordPacker};
pub use reorder::{CanonicalOrder, ReorderConfig, ReorderState, WatermarkPolicy};
pub use snapshot::CubeSnapshot;
pub use source::{run_engine, ReplaySource, StreamEvent};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StreamError>;
