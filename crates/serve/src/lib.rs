//! Multi-tenant serving layer for `regcube` — dashboards that never
//! block the stream.
//!
//! The paper's engine is single-writer by construction: `close_unit`
//! takes `&mut self`, so a dashboard querying the live engine
//! serializes with ingestion. This crate breaks that coupling for a
//! fleet of independent cubes:
//!
//! * [`server::Server`] hosts many **tenants**, each a private
//!   [`OnlineEngine`](regcube_stream::OnlineEngine) built from its own
//!   [`EngineConfig`](regcube_stream::EngineConfig). A tenant lives
//!   on one **pump lane** — a long-lived thread that runs every drain,
//!   close and flush of the tenants bound to it, so a tenant's
//!   snapshots are built and freed by the same thread;
//! * at every unit boundary the tenant publishes an immutable
//!   [`CubeSnapshot`](regcube_stream::CubeSnapshot) through a
//!   double-buffered, epoch-swapped [`cell::SnapshotCell`] — readers
//!   clone an `Arc` and then drill, scan and inspect alarms entirely
//!   without locks, byte-identically to the live engine at that
//!   boundary;
//! * ingest admission is a **bounded queue** per tenant: a full queue
//!   is the typed [`ServeError::Overloaded`](error::ServeError) back
//!   to the producer — accepted records are never lost, rejections are
//!   counted in
//!   [`RunStats::overload_rejections`](regcube_core::RunStats), and a
//!   saturated tenant cannot stall another tenant's unit closes;
//! * per-tenant [`AlarmSink`](regcube_core::alarm::AlarmSink) fan-out
//!   via [`server::Server::add_sink`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod dashboard;
pub mod error;
mod lane;
pub mod server;
pub mod tenant;

pub use cell::SnapshotCell;
pub use dashboard::DashboardSummary;
pub use error::ServeError;
pub use server::{ServeConfig, Server, TenantReader};
pub use tenant::{TenantId, TenantPump};
