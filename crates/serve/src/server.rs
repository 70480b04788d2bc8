//! The multi-tenant [`Server`]: admission control and the pump lanes
//! that own the tenants.

use crate::cell::SnapshotCell;
use crate::dashboard::DashboardSummary;
use crate::error::ServeError;
use crate::lane::Lanes;
use crate::tenant::{PumpOp, Tenant, TenantId, TenantPump};
use regcube_core::alarm::SharedSink;
use regcube_core::RunStats;
use regcube_stream::{
    BoxedEngine, CubeSnapshot, EngineConfig, OnlineEngine, RawRecord, StreamError,
};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Server-wide knobs. All defaults are safe for tests and examples;
/// real deployments size `max_tenants` / `queue_capacity` to their
/// memory budget.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-control cap on concurrently hosted tenants.
    pub max_tenants: usize,
    /// Bounded per-tenant ingest-queue capacity, in records; a full
    /// queue rejects with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Pump lanes: the threads that mutate tenant engines. Each tenant
    /// is bound to one lane at admission (the lane owning the fewest
    /// tenants), so more lanes than tenants leaves lanes idle.
    pub pump_threads: usize,
    /// The count the deprecated
    /// [`with_cubing_threads`](Self::with_cubing_threads) was given;
    /// admission refuses any but 1.
    cubing_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_tenants: 4096,
            queue_capacity: 1024,
            pump_threads: default_threads(),
            cubing_threads: 1,
        }
    }
}

/// The machine's available parallelism (fallback 1).
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ServeConfig {
    /// Starts from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tenant admission cap (clamped to at least 1).
    #[must_use]
    pub fn with_max_tenants(mut self, max_tenants: usize) -> Self {
        self.max_tenants = max_tenants.max(1);
        self
    }

    /// Sets the per-tenant queue capacity (clamped to at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the number of pump lanes (clamped to at least 1).
    #[must_use]
    pub fn with_pump_threads(mut self, threads: usize) -> Self {
        self.pump_threads = threads.max(1);
        self
    }

    /// A tenant's cube is folded on the pump lane that closes its unit;
    /// the lanes are how a `Server` uses more than one core. This
    /// method accepts only 1, which changes nothing; with any other
    /// count every admission fails with
    /// [`StreamError::BadConfig`] as [`ServeError::Stream`]. It exists
    /// because the `benchmark` package still calls
    /// `with_cubing_threads(1)`, and goes once that call does.
    #[deprecated(note = "cubing runs on the pump lanes; only `with_cubing_threads(1)` is accepted")]
    #[must_use]
    pub fn with_cubing_threads(mut self, threads: usize) -> Self {
        self.cubing_threads = threads;
        self
    }
}

/// A multi-tenant cube server.
///
/// Each tenant owns a private [`OnlineEngine`] plus a bounded ingest
/// queue and a snapshot cell, and lives on one **pump lane**: a
/// long-lived thread, chosen at admission as the lane owning the
/// fewest tenants (lowest index on ties), on which every drain, unit
/// close and flush of that tenant runs — whether it came from
/// [`pump`](Self::pump) or from a by-id call. The thread that
/// builds a tenant's snapshots is therefore the one that frees the
/// snapshots they replace, which keeps a quiet tenant's publish inside
/// one allocator arena. Ownership balances tenant *count*, not load: a
/// hot tenant delays its lane-mates where a shared queue would have
/// spread them, and tenants are never moved between lanes.
///
/// A tenant's unit close, cubing included, runs on its lane. An alarm
/// sink runs there too, so it must not call a write method of the
/// `Server` that hosts it.
///
/// Reads ([`snapshot`](Self::snapshot), or a held
/// [`TenantReader`]) never take an engine lock: they clone an `Arc`
/// out of the tenant's snapshot cell, so dashboards keep
/// answering at full speed while ingestion and unit closes run.
pub struct Server {
    config: ServeConfig,
    lanes: Lanes,
    fleet: RwLock<Fleet>,
}

/// A hosted tenant and the lane that owns it.
#[derive(Clone)]
struct Hosted {
    tenant: Arc<Tenant>,
    lane: usize,
}

/// The tenant map and, kept in step with it under the same lock, how
/// many tenants each lane owns.
struct Fleet {
    tenants: BTreeMap<TenantId, Hosted>,
    lane_load: Vec<usize>,
}

impl Server {
    /// Creates a server with the given configuration.
    pub fn new(config: ServeConfig) -> Self {
        let lanes = Lanes::new(config.pump_threads);
        let fleet = Fleet {
            tenants: BTreeMap::new(),
            lane_load: vec![0; lanes.len()],
        };
        Server {
            config,
            lanes,
            fleet: RwLock::new(fleet),
        }
    }

    /// Admits a new tenant whose cube is described by `config`.
    ///
    /// # Errors
    /// [`ServeError::AdmissionDenied`] at the tenant cap,
    /// [`ServeError::DuplicateTenant`] on an id collision, and any
    /// engine-construction failure as [`ServeError::Stream`].
    pub fn create_tenant(
        &self,
        id: impl Into<TenantId>,
        config: EngineConfig,
    ) -> Result<(), ServeError> {
        self.admit(id.into(), config, EngineConfig::build)
    }

    /// Writes a durable checkpoint of one tenant's engine to `path`
    /// (see [`regcube_stream::checkpoint`]). The write serializes with
    /// the tenant's pumps on its engine lock; queued-but-unpumped
    /// records are *not* in the checkpoint — call
    /// [`pump_tenant`](Self::pump_tenant) first to capture them.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`], [`ServeError::TenantFailed`], or
    /// the engine's typed
    /// [`StreamError::Checkpoint`](regcube_stream::StreamError) as
    /// [`ServeError::Stream`] (mid-unit strict-order engine, I/O).
    pub fn checkpoint_tenant(
        &self,
        id: &TenantId,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), ServeError> {
        self.tenant(id)?.write_checkpoint(path)
    }

    /// Admits a tenant restored from a checkpoint file written by
    /// [`checkpoint_tenant`](Self::checkpoint_tenant) (or
    /// [`OnlineEngine::write_checkpoint`](regcube_stream::OnlineEngine::write_checkpoint)).
    /// Admission control is identical to [`create_tenant`](Self::create_tenant);
    /// `config` must describe the same analysis as the checkpointed
    /// engine. The restored state is published as the tenant's first
    /// snapshot, so readers see the recovered cube immediately.
    ///
    /// # Errors
    /// [`ServeError::AdmissionDenied`] / [`ServeError::DuplicateTenant`]
    /// as for creation, and a missing, torn, corrupt or incompatible
    /// checkpoint as [`ServeError::Stream`] — in which case no tenant
    /// is admitted (restore is all-or-nothing).
    pub fn restore_tenant(
        &self,
        id: impl Into<TenantId>,
        config: EngineConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), ServeError> {
        self.admit(id.into(), config, |config| config.restore(path))
    }

    /// Admission, shared by creation and restore. The engine is built
    /// (and a checkpoint read and decoded) with no lock held, so a slow
    /// admission never stalls another tenant's `ingest` or by-id reads:
    /// the id and the cap are checked under the read lock before paying
    /// for the build, and again under the write lock when inserting.
    /// Whoever loses a race gets the typed error and its engine is
    /// dropped; nothing of it was ever visible.
    fn admit(
        &self,
        id: TenantId,
        config: EngineConfig,
        build: impl FnOnce(EngineConfig) -> Result<OnlineEngine<BoxedEngine>, StreamError>,
    ) -> Result<(), ServeError> {
        let threads = self.config.cubing_threads;
        if threads != 1 {
            return Err(ServeError::Stream(StreamError::BadConfig {
                detail: format!(
                    "with_cubing_threads({threads}): cubing runs on the pump lanes, \
                     only 1 is accepted"
                ),
            }));
        }
        self.admissible(&self.fleet.read().expect("tenant map lock"), &id)?;
        let ticks_per_unit = config.ticks_per_unit as i64;
        let engine = build(config)?;
        let tenant = Arc::new(Tenant::new(
            id.clone(),
            ticks_per_unit,
            engine,
            self.config.queue_capacity,
        ));
        let mut fleet = self.fleet.write().expect("tenant map lock");
        self.admissible(&fleet, &id)?;
        let lane = (0..fleet.lane_load.len())
            .min_by_key(|&lane| fleet.lane_load[lane])
            .expect("a server has at least one lane");
        fleet.lane_load[lane] += 1;
        fleet.tenants.insert(id, Hosted { tenant, lane });
        Ok(())
    }

    fn admissible(&self, fleet: &Fleet, id: &TenantId) -> Result<(), ServeError> {
        if fleet.tenants.contains_key(id) {
            return Err(ServeError::DuplicateTenant { tenant: id.clone() });
        }
        if fleet.tenants.len() >= self.config.max_tenants {
            return Err(ServeError::AdmissionDenied {
                max_tenants: self.config.max_tenants,
            });
        }
        Ok(())
    }

    /// Removes a tenant and gives its place on its lane back. In-flight
    /// readers holding its snapshots or a [`TenantReader`] keep working
    /// off their `Arc`s; the tenant just stops being servable by id.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] if no such tenant exists.
    pub fn drop_tenant(&self, id: &TenantId) -> Result<(), ServeError> {
        let mut fleet = self.fleet.write().expect("tenant map lock");
        let hosted = fleet
            .tenants
            .remove(id)
            .ok_or_else(|| ServeError::UnknownTenant { tenant: id.clone() })?;
        fleet.lane_load[hosted.lane] -= 1;
        // The engine may be large: free it after the map is unlocked.
        drop(fleet);
        Ok(())
    }

    /// Enqueues one record for a tenant. The record is validated against
    /// the tenant's primitive layer and packed here, on the caller's
    /// thread; the queue holds it as a
    /// [`PackedRecord`](regcube_stream::PackedRecord). Non-blocking: a
    /// rejected record — malformed, or refused by a full queue — is
    /// *not* accepted, and nothing previously accepted is disturbed.
    ///
    /// # Errors
    /// * [`ServeError::UnknownTenant`].
    /// * [`ServeError::Stream`] with [`StreamError::BadRecord`] when the
    ///   record's ids do not fit the tenant's primitive layer (wrong
    ///   arity, member out of range).
    /// * [`ServeError::Overloaded`] when the tenant's queue is full.
    pub fn ingest(&self, id: &TenantId, record: &RawRecord) -> Result<(), ServeError> {
        let fleet = self.fleet.read().expect("tenant map lock");
        let hosted = fleet
            .tenants
            .get(id)
            .ok_or_else(|| ServeError::UnknownTenant { tenant: id.clone() })?;
        hosted.tenant.try_enqueue(record)
    }

    /// Pumps every tenant with queued records: one job per lane that
    /// owns a busy tenant, the lanes running in parallel and each
    /// draining its tenants in id order. Returns once every lane is
    /// done, one [`TenantPump`] per busy tenant in tenant-id order. A
    /// tenant's stream errors — and a panic inside its pump, as
    /// [`ServeError::TenantFailed`] — are contained in its own
    /// `TenantPump`; a saturated, erroring or failed tenant never stops
    /// the others.
    pub fn pump(&self) -> Vec<TenantPump> {
        let mut batches = vec![Vec::new(); self.lanes.len()];
        for hosted in self.fleet.read().expect("tenant map lock").tenants.values() {
            if hosted.tenant.queued() > 0 {
                batches[hosted.lane].push(Arc::clone(&hosted.tenant));
            }
        }
        let busy = batches
            .into_iter()
            .enumerate()
            .filter(|(_, tenants)| !tenants.is_empty());
        let mut pumps = self.lanes.run(busy, PumpOp::Drain);
        pumps.sort_unstable_by(|a, b| a.tenant.cmp(&b.tenant));
        pumps
    }

    /// Pumps one tenant on its lane and waits for it.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`].
    pub fn pump_tenant(&self, id: &TenantId) -> Result<TenantPump, ServeError> {
        self.run_on_lane(id, PumpOp::Drain)
    }

    /// Drains a tenant's queue, closes its open unit (empty units
    /// close too — the paper's clock tick), and publishes the new
    /// boundary snapshot. Runs on the tenant's lane; the caller waits.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`].
    pub fn close_unit(&self, id: &TenantId) -> Result<TenantPump, ServeError> {
        self.run_on_lane(id, PumpOp::CloseUnit)
    }

    /// Drains a tenant's queue and flushes its engine (reorder buffer
    /// included), publishing the final boundary. Runs on the tenant's
    /// lane; the caller waits.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`].
    pub fn flush(&self, id: &TenantId) -> Result<TenantPump, ServeError> {
        self.run_on_lane(id, PumpOp::Flush)
    }

    fn run_on_lane(&self, id: &TenantId, op: PumpOp) -> Result<TenantPump, ServeError> {
        let Hosted { tenant, lane } = self.hosted(id)?;
        let mut pumps = self.lanes.run([(lane, vec![tenant])], op);
        Ok(pumps.pop().expect("one pump per tenant sent"))
    }

    /// The tenant's most recently published boundary snapshot — the
    /// lock-free read path.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`].
    pub fn snapshot(&self, id: &TenantId) -> Result<Arc<CubeSnapshot>, ServeError> {
        Ok(self.tenant(id)?.snapshot())
    }

    /// Digests one tenant's latest published snapshot into a
    /// [`DashboardSummary`] — a pure read off the snapshot cell.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`].
    pub fn summary(&self, id: &TenantId) -> Result<DashboardSummary, ServeError> {
        let tenant = self.tenant(id)?;
        Ok(DashboardSummary::of(id.clone(), &tenant.snapshot()))
    }

    /// Digests every tenant, sorted by id — the fleet overview query.
    pub fn summaries(&self) -> Vec<DashboardSummary> {
        let tenants: Vec<Arc<Tenant>> = {
            let fleet = self.fleet.read().expect("tenant map lock");
            let hosted = fleet.tenants.values();
            hosted.map(|h| Arc::clone(&h.tenant)).collect()
        };
        tenants
            .iter()
            .map(|t| DashboardSummary::of(t.id().clone(), &t.snapshot()))
            .collect()
    }

    /// A standalone read handle on one tenant: cheap to clone, usable
    /// from any thread, bypasses the tenant map on every read (no
    /// shared lock at all on the hot read path).
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`].
    pub fn reader(&self, id: &TenantId) -> Result<TenantReader, ServeError> {
        Ok(TenantReader {
            tenant: self.tenant(id)?,
        })
    }

    /// Per-tenant statistics: the engine's counters with the serving
    /// counters ([`RunStats::snapshot_reads`],
    /// [`RunStats::overload_rejections`]) filled in.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`], or [`ServeError::TenantFailed`].
    pub fn tenant_stats(&self, id: &TenantId) -> Result<RunStats, ServeError> {
        self.tenant(id)?.stats()
    }

    /// How many units one tenant's cubing engine wrote into a retired
    /// result of its own. A probe for tests; not part of the stable API.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`], or [`ServeError::TenantFailed`].
    #[doc(hidden)]
    pub fn units_recycled(&self, id: &TenantId) -> Result<u64, ServeError> {
        self.tenant(id)?.units_recycled()
    }

    /// Registers an alarm sink on one tenant's engine — the per-tenant
    /// fan-out point for exception notifications.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`], or [`ServeError::TenantFailed`].
    pub fn add_sink(&self, id: &TenantId, sink: SharedSink) -> Result<(), ServeError> {
        self.tenant(id)?.add_sink(sink)
    }

    /// The ids of all hosted tenants, sorted.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let fleet = self.fleet.read().expect("tenant map lock");
        fleet.tenants.keys().cloned().collect()
    }

    /// How many tenants are currently hosted.
    pub fn tenant_count(&self) -> usize {
        self.fleet.read().expect("tenant map lock").tenants.len()
    }

    fn tenant(&self, id: &TenantId) -> Result<Arc<Tenant>, ServeError> {
        Ok(self.hosted(id)?.tenant)
    }

    fn hosted(&self, id: &TenantId) -> Result<Hosted, ServeError> {
        let fleet = self.fleet.read().expect("tenant map lock");
        let hosted = fleet.tenants.get(id).cloned();
        hosted.ok_or_else(|| ServeError::UnknownTenant { tenant: id.clone() })
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("tenants", &self.tenant_count())
            .finish_non_exhaustive()
    }
}

/// A cloneable, lock-free read handle on one tenant's published
/// snapshots. Holding one keeps the tenant's state readable even if
/// the tenant is dropped from the server.
#[derive(Clone)]
pub struct TenantReader {
    tenant: Arc<Tenant>,
}

impl TenantReader {
    /// Whose snapshots this handle reads.
    pub fn id(&self) -> &TenantId {
        self.tenant.id()
    }

    /// The most recently published boundary snapshot.
    pub fn snapshot(&self) -> Arc<CubeSnapshot> {
        self.tenant.snapshot()
    }

    /// Digests the latest published snapshot.
    pub fn summary(&self) -> DashboardSummary {
        DashboardSummary::of(self.tenant.id().clone(), &self.tenant.snapshot())
    }

    /// The cell behind the handle — exposed for tests and benchmarks
    /// that want the raw read counter.
    pub fn cell(&self) -> &SnapshotCell {
        &self.tenant.cell
    }
}

impl std::fmt::Debug for TenantReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantReader")
            .field("tenant", self.tenant.id())
            .finish()
    }
}
