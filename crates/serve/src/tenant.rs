//! One tenant: a private cube engine, a bounded ingest queue, and a
//! snapshot cell.
//!
//! Writes (pump, close, flush) run on the tenant's pump lane (see
//! [`Server`](crate::server::Server)) and serialize on the tenant's
//! engine lock, which also admits the occasional foreign thread
//! (checkpoint, statistics, sink registration); reads never touch that
//! lock — they go through the tenant's [`SnapshotCell`]. The ingest
//! queue is bounded: a full queue is a typed
//! [`ServeError::Overloaded`] back to the producer, never a silent
//! drop, and every record that *was* accepted is ingested by the next
//! pump in arrival order. Records are validated and packed on the
//! producer's thread, so the queue holds `Copy`
//! [`PackedRecord`]s and a malformed record is refused before it is
//! queued.

use crate::cell::SnapshotCell;
use crate::error::ServeError;
use regcube_core::RunStats;
use regcube_stream::{
    BoxedEngine, CubeSnapshot, OnlineEngine, PackedRecord, RawRecord, RecordPacker, UnitReport,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A tenant identifier — any non-empty UTF-8 name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId(s.to_owned())
    }
}

impl From<String> for TenantId {
    fn from(s: String) -> Self {
        TenantId(s)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The outcome of pumping one tenant: the unit reports of every unit
/// the pump closed, plus any stream errors (contained here so one
/// tenant's failures never abort another tenant's pump).
#[derive(Debug)]
pub struct TenantPump {
    /// Whose pump this is.
    pub tenant: TenantId,
    /// One report per unit closed by this pump, in close order.
    pub reports: Vec<UnitReport>,
    /// Stream errors hit while draining (a reorder overflow, a record
    /// outside the open unit, a failed close); the offending records
    /// are accounted for, not lost. Malformed records never get here:
    /// [`Server::ingest`](crate::server::Server::ingest) rejects them.
    pub errors: Vec<ServeError>,
}

/// What a pump does after draining the queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PumpOp {
    /// Nothing more: units close only where a drained record implies it.
    Drain,
    /// Close the (possibly empty) open unit and publish.
    CloseUnit,
    /// Flush the engine (reorder buffer included) and publish the
    /// final boundary.
    Flush,
}

pub(crate) struct Tenant {
    id: TenantId,
    /// Raw ticks per m-layer unit — used to decide when a queued
    /// record implies closing the open unit (reorder-disabled mode).
    ticks_per_unit: i64,
    capacity: usize,
    /// Packs records on the producer's thread, before the queue lock.
    packer: RecordPacker,
    queue: Mutex<VecDeque<PackedRecord>>,
    /// Poisoned only by a panic inside a pump; every later lock then
    /// reports [`ServeError::TenantFailed`].
    engine: Mutex<LaneState>,
    pub(crate) cell: SnapshotCell,
    rejected: AtomicU64,
}

/// What the tenant's lane owns behind the engine lock: the engine, and
/// the queue buffer a pump swaps in for the one it drains. The two
/// buffers trade places on every pump and keep their capacity, so a
/// steady stream allocates no queue memory.
struct LaneState {
    engine: OnlineEngine<BoxedEngine>,
    spare: VecDeque<PackedRecord>,
}

impl Tenant {
    /// Wraps a built (or checkpoint-restored) engine and publishes its
    /// state as the tenant's first snapshot, so readers see a restored
    /// cube immediately.
    pub(crate) fn new(
        id: TenantId,
        ticks_per_unit: i64,
        engine: OnlineEngine<BoxedEngine>,
        capacity: usize,
    ) -> Self {
        let cell = SnapshotCell::new(Arc::new(engine.snapshot()));
        Tenant {
            id,
            ticks_per_unit,
            capacity,
            packer: engine.packer().clone(),
            queue: Mutex::new(VecDeque::new()),
            engine: Mutex::new(LaneState {
                engine,
                spare: VecDeque::new(),
            }),
            cell,
            rejected: AtomicU64::new(0),
        }
    }

    pub(crate) fn id(&self) -> &TenantId {
        &self.id
    }

    /// The engine, or the typed failure if an earlier pump panicked
    /// while holding it (its state is then unknown, so nothing may
    /// touch it again; the last published snapshot stays readable).
    fn engine(&self) -> Result<MutexGuard<'_, LaneState>, ServeError> {
        self.engine.lock().map_err(|_| self.failure())
    }

    fn failure(&self) -> ServeError {
        ServeError::TenantFailed {
            tenant: self.id.clone(),
        }
    }

    /// The pump of a tenant whose engine is lost to a panic.
    pub(crate) fn failed(&self) -> TenantPump {
        TenantPump {
            tenant: self.id.clone(),
            reports: Vec::new(),
            errors: vec![self.failure()],
        }
    }

    /// Writes a durable checkpoint of the tenant's engine, serialized
    /// against writers on the engine lock (the queue is *not* drained
    /// first — pump before checkpointing to capture queued records).
    pub(crate) fn write_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), ServeError> {
        self.engine()?
            .engine
            .write_checkpoint(path)
            .map_err(ServeError::from)
    }

    /// Packs one record and enqueues it, or rejects it: a malformed
    /// record with the typed stream error, a full queue with the typed
    /// backpressure error. Never blocks on the engine lock — producers
    /// stay decoupled from pumping.
    pub(crate) fn try_enqueue(&self, record: &RawRecord) -> Result<(), ServeError> {
        let packed = self.packer.pack(record)?;
        let mut queue = self.queue.lock().expect("tenant queue lock");
        if queue.len() >= self.capacity {
            drop(queue);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                tenant: self.id.clone(),
                capacity: self.capacity,
            });
        }
        queue.push_back(packed);
        Ok(())
    }

    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().expect("tenant queue lock").len()
    }

    /// Drains the queue into the engine, publishing one snapshot per
    /// closed unit, then does what `op` adds. Takes the engine lock for
    /// the whole pump so it serializes with foreign lockers and keeps
    /// arrival order. Called on the tenant's lane only.
    pub(crate) fn run(&self, op: PumpOp) -> TenantPump {
        let Ok(mut lane) = self.engine() else {
            return self.failed();
        };
        let (mut reports, mut errors) = self.pump_locked(&mut lane);
        let engine = &mut lane.engine;
        let more = match op {
            PumpOp::Drain => Ok(Vec::new()),
            PumpOp::CloseUnit => engine.close_unit().map(|report| vec![report]),
            PumpOp::Flush => engine.flush(),
        };
        match more {
            Ok(more) => {
                if !more.is_empty() {
                    self.publish(engine);
                }
                reports.extend(more);
            }
            Err(e) => errors.push(e.into()),
        }
        TenantPump {
            tenant: self.id.clone(),
            reports,
            errors,
        }
    }

    /// Per-tenant statistics: the engine's own counters plus the
    /// serving-layer ones (snapshot reads served, records rejected by
    /// backpressure).
    pub(crate) fn stats(&self) -> Result<RunStats, ServeError> {
        let mut stats = self.engine()?.engine.stats();
        stats.snapshot_reads = self.cell.reads();
        stats.overload_rejections = self.rejected.load(Ordering::Relaxed);
        Ok(stats)
    }

    /// Units the tenant's cubing engine wrote into a retired result of
    /// its own.
    pub(crate) fn units_recycled(&self) -> Result<u64, ServeError> {
        Ok(self.engine()?.engine.cubing().units_recycled())
    }

    pub(crate) fn add_sink(&self, sink: regcube_core::alarm::SharedSink) -> Result<(), ServeError> {
        self.engine()?.engine.add_sink(sink);
        Ok(())
    }

    /// The body of a pump with the engine lock already held. The queue
    /// is swapped with the lane's empty spare under its own (briefly
    /// held) lock, so producers keep enqueuing while the drain runs.
    fn pump_locked(&self, lane: &mut LaneState) -> (Vec<UnitReport>, Vec<ServeError>) {
        let LaneState { engine, spare } = lane;
        std::mem::swap(&mut *self.queue.lock().expect("tenant queue lock"), spare);
        let mut reports = Vec::new();
        let mut errors = Vec::new();
        let reordering = engine.reordering().is_some();
        for record in spare.drain(..) {
            if reordering {
                // Watermark mode: the engine buffers and decides when
                // units are closable; publish at every ready boundary.
                if let Err(e) = engine.ingest_packed(&record) {
                    errors.push(e.into());
                    continue;
                }
                match engine.drain_ready() {
                    Ok(ready) => {
                        if !ready.is_empty() {
                            self.publish(engine);
                        }
                        reports.extend(ready);
                    }
                    Err(e) => errors.push(e.into()),
                }
            } else {
                // Strict-order mode: a record for a later unit implies
                // closing every unit before it, publishing each.
                let unit = record.tick.div_euclid(self.ticks_per_unit);
                let mut closed_ok = true;
                while engine.open_unit() < unit {
                    match engine.close_unit() {
                        Ok(report) => {
                            self.publish(engine);
                            reports.push(report);
                        }
                        Err(e) => {
                            errors.push(e.into());
                            closed_ok = false;
                            break;
                        }
                    }
                }
                if closed_ok {
                    if let Err(e) = engine.ingest_packed(&record) {
                        errors.push(e.into());
                    }
                }
            }
        }
        (reports, errors)
    }

    /// Publishes the engine's current boundary state. Caller must hold
    /// the engine lock (single-writer contract of the cell).
    fn publish(&self, engine: &OnlineEngine<BoxedEngine>) {
        self.cell.publish(Arc::new(engine.snapshot()));
    }

    pub(crate) fn snapshot(&self) -> Arc<CubeSnapshot> {
        self.cell.load()
    }
}
