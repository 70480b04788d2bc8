//! The online engine: one cube recomputation per m-layer time unit,
//! per-cell tilt frames, and o-layer alarms (paper Sections 4.3 / 4.5).

use crate::error::StreamError;
use crate::ingest::Ingestor;
use crate::record::{PackedRecord, RawRecord, RecordPacker};
use crate::reorder::{ReorderConfig, ReorderState, WatermarkPolicy};
use crate::snapshot::{drill_frames_at, drill_frames_history, CubeSnapshot};
use crate::Result;
use regcube_core::alarm::{
    AlarmContext, AlarmRevision, LateAmendment, RevisionKind, SharedSink, SinkError, SinkSet,
};
use regcube_core::drill::{drill_children, drill_descendants, DrillHit};
use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine, UnitDelta};
use regcube_core::measure::exception_score;
use regcube_core::result::Algorithm;
use regcube_core::{CoreError, CriticalLayers, CubeResult, ExceptionPolicy, RunStats};
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::fxhash::FxHasher;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_tilt::{AmendOutcome, FrameFamily, TiltError, TiltFrame, TiltSpec};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tilt frames of one layer as the engine holds them: one
/// [frame family](regcube_tilt::family) on the engine's unit clock.
pub(crate) type LayerFamily = FrameFamily<CellKey, Isb, BuildHasherDefault<FxHasher>>;

/// One generation of a layer's frames: what a [`CubeSnapshot`] holds of
/// them, and what a [`LayerFamily`] dereferences to for reads.
pub(crate) type LayerFrames = <LayerFamily as std::ops::Deref>::Target;

/// The families' idle test: zero usage is a zero base and slope (NaN is
/// not zero). A cell whose every retained slot is zero usage retires in
/// the first unit it is silent in — which decides the keys a checkpoint
/// holds.
pub(crate) fn zero_usage(measure: &Isb) -> bool {
    measure.base() == 0.0 && measure.slope() == 0.0
}

/// The type-erased cubing engine [`EngineConfig::build`] assembles at
/// runtime from [`EngineConfig::algorithm`].
pub type BoxedEngine = Box<dyn CubingEngine + Send>;

/// One o-layer alarm raised at a unit close.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// The exceptional o-layer cell.
    pub key: CellKey,
    /// Its regression over the closed unit.
    pub measure: Isb,
    /// The score that fired: the magnitude of the measure's slope.
    pub score: f64,
    /// The threshold it passed.
    pub threshold: f64,
}

/// The report of one closed m-layer unit.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// The closed unit index.
    pub unit: i64,
    /// Distinct m-cells active in the unit.
    pub m_cells: usize,
    /// Alarms raised at the o-layer, hottest first.
    pub alarms: Vec<Alarm>,
    /// Exception cells retained between the layers.
    pub exception_cells: u64,
    /// Time spent recomputing the cube.
    pub recompute_time: Duration,
    /// What the cubing engine reported for the unit's batch (`None` for
    /// an empty unit, which never reaches the engine).
    pub cube_delta: Option<UnitDelta>,
    /// Failures from alarm sinks consuming the unit's delta. A failing
    /// sink never fails the unit — the cube is already updated when
    /// sinks run, so each error is surfaced exactly once, here.
    pub sink_errors: Vec<SinkError>,
    /// Late-record corrections applied to the warehoused tilt frames
    /// since the previous report (watermark mode only — see
    /// [`EngineConfig::with_reordering`]). Also fanned out to the alarm
    /// sinks via
    /// [`AlarmSink::on_late_amendments`](regcube_core::alarm::AlarmSink::on_late_amendments).
    pub late_amendments: Vec<LateAmendment>,
    /// Alarm revisions the unit's late amendments produced: a late
    /// record that flips a warehoused slot's exception verdict (or
    /// changes a still-exceptional score) is re-screened against the
    /// policy and surfaced here — and fanned out to the alarm sinks via
    /// [`AlarmSink::on_revision`](regcube_core::alarm::AlarmSink::on_revision)
    /// — so episode history never contradicts the amended frames.
    pub alarm_revisions: Vec<AlarmRevision>,
    /// Records that arrived beyond the allowed lateness since the
    /// previous report — deterministically counted and dropped, never
    /// silently lost. Cumulative figure:
    /// [`OnlineEngine::late_dropped`] /
    /// [`RunStats::late_dropped`](regcube_core::RunStats).
    pub late_dropped: u64,
    /// The publication epoch this close advanced the engine to (the
    /// total closed-unit count): a [`CubeSnapshot`] taken after this
    /// close carries exactly this [`CubeSnapshot::epoch`], which is how
    /// serving layers correlate published snapshots with unit reports.
    pub snapshot_epoch: u64,
}

/// Configuration of an [`OnlineEngine`], built fluently:
///
/// ```
/// use regcube_stream::online::EngineConfig;
/// use regcube_core::ExceptionPolicy;
/// use regcube_olap::{CubeSchema, CuboidSpec};
///
/// let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
/// let config = EngineConfig::new(
///     schema,
///     CuboidSpec::new(vec![0, 0]),   // o-layer
///     CuboidSpec::new(vec![2, 2]),   // m-layer
/// )
/// .with_policy(ExceptionPolicy::slope_threshold(1.0))
/// .with_ticks_per_unit(15);
/// assert!(config.build().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cube schema (standard dimensions).
    pub schema: CubeSchema,
    /// Primitive stream layer the raw records arrive at; defaults to the
    /// m-layer (pre-aggregated input).
    pub primitive: CuboidSpec,
    /// Observation layer.
    pub o_layer: CuboidSpec,
    /// Minimal interesting layer.
    pub m_layer: CuboidSpec,
    /// Exception policy (per-cuboid, per-depth and cube-wide
    /// thresholds); defaults to a cube-wide threshold of 1.
    pub policy: ExceptionPolicy,
    /// Tilt frame shape; defaults to the paper's Figure 4 frame.
    pub tilt_spec: TiltSpec,
    /// Raw ticks per m-layer time unit; defaults to 15 (minutes/quarter).
    pub ticks_per_unit: usize,
    /// Cubing algorithm; defaults to m/o-cubing.
    pub algorithm: Algorithm,
    /// Alarm sinks receiving every unit's [`UnitDelta`] (sorted by
    /// `(cuboid, cell)`); defaults to none. Sinks are
    /// shared (`Arc<Mutex<_>>`), so cloning the config shares them.
    pub sinks: SinkSet,
    /// Out-of-order handling: `None` (the default) means disabled, as
    /// does a zero capacity; see
    /// [`with_reordering`](Self::with_reordering). Disabled reordering
    /// leaves the ingest path byte-identical to the strictly-ordered
    /// engine.
    pub reordering: Option<ReorderConfig>,
    /// The count the deprecated [`with_shards`](Self::with_shards) was
    /// given; [`build_with`](Self::build_with) refuses any but 1.
    shards: usize,
}

impl EngineConfig {
    /// Starts a configuration with paper-style defaults (see field docs).
    pub fn new(schema: CubeSchema, o_layer: CuboidSpec, m_layer: CuboidSpec) -> Self {
        EngineConfig {
            schema,
            primitive: m_layer.clone(),
            o_layer,
            m_layer,
            policy: ExceptionPolicy::slope_threshold(1.0),
            tilt_spec: TiltSpec::paper_figure4(),
            ticks_per_unit: 15,
            algorithm: Algorithm::MoCubing,
            sinks: SinkSet::new(),
            reordering: None,
            shards: 1,
        }
    }

    /// Enables watermark-based out-of-order ingestion: records may
    /// arrive in any order as long as they land within `lateness` units
    /// of the maximum observed tick. The engine buffers up to
    /// `capacity` distinct units (the open one plus future ones),
    /// folds each unit at close as if sorted into a canonical order — so
    /// any in-lateness arrival order is **bit-identical** to sorted
    /// replay — and turns records for already-closed units into exact
    /// tilt-frame amendments via the OLS linearity of Theorem 3.3
    /// mergeability (see [`TiltFrame::amend_slot`] and
    /// [`Isb::amend_tick`](regcube_regress::Isb::amend_tick)). Records
    /// older than the allowed lateness are counted in
    /// [`RunStats::late_dropped`](regcube_core::RunStats) — never
    /// silently lost. `capacity == 0` disables reordering.
    #[must_use]
    pub fn with_reordering(mut self, capacity: usize, lateness: i64) -> Self {
        let policy = self
            .reordering
            .map_or(WatermarkPolicy::Global, |c| c.policy);
        self.reordering = Some(ReorderConfig::new(capacity, lateness).with_policy(policy));
        self
    }

    /// Sets the watermark policy of the reordering stage (order relative
    /// to [`with_reordering`](Self::with_reordering) does not matter).
    /// [`WatermarkPolicy::PerSource`] keys the low watermark on the
    /// minimum over live [`RawRecord::source`] maxima instead of the
    /// global frontier, so a slow source holds closes back until it
    /// catches up — or idles beyond `idle_units` and is evicted. The
    /// policy takes effect only once
    /// [`with_reordering`](Self::with_reordering) enables the stage.
    #[must_use]
    pub fn with_watermark_policy(mut self, policy: WatermarkPolicy) -> Self {
        let cfg = self.reordering.unwrap_or_default();
        self.reordering = Some(cfg.with_policy(policy));
        self
    }

    /// Sets the primitive layer raw records arrive at.
    #[must_use]
    pub fn with_primitive(mut self, primitive: CuboidSpec) -> Self {
        self.primitive = primitive;
        self
    }

    /// Sets the exception policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ExceptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the tilt frame specification.
    #[must_use]
    pub fn with_tilt(mut self, spec: TiltSpec) -> Self {
        self.tilt_spec = spec;
        self
    }

    /// Sets the number of raw ticks per m-layer unit.
    #[must_use]
    pub fn with_ticks_per_unit(mut self, ticks: usize) -> Self {
        self.ticks_per_unit = ticks;
        self
    }

    /// Sets the cubing algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Cubing is unsharded: one engine cubes each unit, on the thread
    /// that closes it. This method accepts only 1, which changes
    /// nothing; any other count makes [`build`](Self::build) (and so
    /// [`restore`](Self::restore)) fail with [`StreamError::BadConfig`].
    /// It exists because the `benchmark` package still calls
    /// `with_shards(1)`, and goes once that call does.
    #[deprecated(note = "cubing is unsharded; only `with_shards(1)` is accepted")]
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Registers alarm sinks: every closed non-empty unit's
    /// [`UnitDelta`] is fanned out to them (in registration order)
    /// right after the cube is updated, together with an
    /// [`AlarmContext`] for score lookups. Wrap each sink with
    /// [`regcube_core::alarm::shared`] and keep a clone to query it
    /// while the engine runs. See [`regcube_core::alarm`] for the
    /// ready-made sinks (log, escalator, dashboard).
    ///
    /// ```
    /// use regcube_stream::online::EngineConfig;
    /// use regcube_core::alarm::{self, AlarmLog, DashboardSummary, SharedSink};
    /// use regcube_olap::{CubeSchema, CuboidSpec};
    ///
    /// let log = alarm::shared(AlarmLog::new(128));
    /// let dash = alarm::shared(DashboardSummary::new());
    /// let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    /// let config = EngineConfig::new(
    ///     schema,
    ///     CuboidSpec::new(vec![0, 0]),
    ///     CuboidSpec::new(vec![2, 2]),
    /// )
    /// .with_sinks([log.clone() as SharedSink, dash.clone() as SharedSink]);
    /// assert!(config.build().is_ok());
    /// assert_eq!(dash.lock().unwrap().active_cells(), 0);
    /// ```
    #[must_use]
    pub fn with_sinks(mut self, sinks: impl IntoIterator<Item = SharedSink>) -> Self {
        for sink in sinks {
            self.sinks.push(sink);
        }
        self
    }

    /// Registers one alarm sink (see [`with_sinks`](Self::with_sinks)).
    #[must_use]
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Builds the engine, selecting the cubing strategy at runtime from
    /// [`algorithm`](Self::algorithm) (type-erased behind
    /// [`BoxedEngine`]).
    ///
    /// # Errors
    /// [`StreamError::BadConfig`] for a shard count other than 1, and
    /// when the primitive or the m-layer's cell space does not fit
    /// a 64-bit id (records are packed into one `u64` key on arrival —
    /// see [`RecordPacker`]); otherwise configuration validation from
    /// the ingestor and cube substrates.
    pub fn build(self) -> Result<OnlineEngine<BoxedEngine>> {
        match self.algorithm {
            Algorithm::MoCubing => self
                .build_with(|s, l, p| Ok(Box::new(MoCubingEngine::new(s, l, p)?) as BoxedEngine)),
            Algorithm::PopularPath => self.build_with(|s, l, p| {
                Ok(Box::new(PopularPathEngine::new(s, l, p, None)?) as BoxedEngine)
            }),
        }
    }

    /// Builds the engine and restores it from a checkpoint file written
    /// by [`OnlineEngine::write_checkpoint`] (see
    /// [`crate::checkpoint::restore`]). The configuration must describe
    /// the same analysis as the checkpointed engine; sinks are free to
    /// differ.
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] for a missing, torn, corrupt or
    /// incompatible checkpoint (all-or-nothing: no partially restored
    /// engine escapes); otherwise the same configuration validation as
    /// [`build`](Self::build).
    pub fn restore(self, path: impl AsRef<std::path::Path>) -> Result<OnlineEngine<BoxedEngine>> {
        crate::checkpoint::restore(self, path)
    }

    /// Builds an engine around any [`CubingEngine`] the caller
    /// constructs — the seam for custom (instrumented, …) cubing
    /// engines.
    ///
    /// # Errors
    /// [`StreamError::BadConfig`] for a shard count other than 1 and for
    /// a primitive or m-layer beyond a 64-bit id (see
    /// [`build`](Self::build)); otherwise configuration validation from
    /// the ingestor and cube substrates.
    pub fn build_with<E: CubingEngine>(
        self,
        make: impl FnOnce(CubeSchema, CriticalLayers, ExceptionPolicy) -> regcube_core::Result<E>,
    ) -> Result<OnlineEngine<E>> {
        let EngineConfig {
            schema,
            primitive,
            o_layer,
            m_layer,
            policy,
            tilt_spec,
            ticks_per_unit,
            algorithm: _,
            sinks,
            reordering,
            shards,
        } = self;
        if shards != 1 {
            return Err(StreamError::BadConfig {
                detail: format!("with_shards({shards}): cubing is unsharded, only 1 is accepted"),
            });
        }
        let reorder_cfg = reordering.unwrap_or_default();
        let ingestor = Ingestor::new(schema.clone(), primitive, m_layer.clone(), ticks_per_unit)?;
        let layers = CriticalLayers::new(&schema, o_layer.clone(), m_layer.clone())
            .map_err(StreamError::from)?;
        let cubing = make(schema.clone(), layers, policy.clone()).map_err(StreamError::from)?;
        Ok(OnlineEngine {
            ingestor,
            schema: Arc::new(schema),
            cubing,
            computed: false,
            frames: LayerFamily::new(tilt_spec.clone(), zero_usage),
            o_frames: LayerFamily::new(tilt_spec, zero_usage),
            ticks_per_unit,
            sinks,
            m_layer: Arc::new(m_layer),
            o_layer: Arc::new(o_layer),
            policy: Arc::new(policy),
            reorder: reorder_cfg
                .enabled()
                .then(|| ReorderState::new(reorder_cfg)),
            pending_amendments: Vec::new(),
            pending_revisions: Vec::new(),
            late_amended_total: 0,
            last_alarms: Vec::new(),
            snapshots_published: AtomicU64::new(0),
        })
    }
}

/// The online analysis engine, generic over the cubing strategy `E`.
///
/// Feed raw records with [`ingest`](Self::ingest); call
/// [`close_unit`](Self::close_unit) at every m-layer time-unit boundary
/// (e.g. every quarter of an hour). The engine keeps one clock, the
/// open unit ([`units_closed`](Self::units_closed)), and every close —
/// of an empty, a refused or a cubed unit — runs one sequence: it rolls
/// the unit's records up to m-layer ISB tuples and pushes them into the
/// m-layer's frame family (one new slot column; absent cells read its
/// zero-usage fill), hands a non-empty unit's tuples — the window's
/// complete m-layer — to the [`CubingEngine`], which cubes it once,
/// pushes the cube's o-layer (or a zero fill) into the o-layer's
/// family, and raises an alarm for every o-layer cell whose unit
/// regression is exceptional: its slope's magnitude is at least the
/// o-layer's threshold.
///
/// `E` defaults to the runtime-selected [`BoxedEngine`] that
/// [`EngineConfig::build`] produces; [`EngineConfig::build_with`] plugs
/// in any other [`CubingEngine`] implementation statically.
#[derive(Debug)]
pub struct OnlineEngine<E: CubingEngine = BoxedEngine> {
    pub(crate) ingestor: Ingestor,
    /// The schema, and below it the layer specs and the policy: what
    /// never changes over an engine's life sits behind `Arc`s built
    /// once, so every [`CubeSnapshot`] shares them by reference count.
    pub(crate) schema: Arc<CubeSchema>,
    pub(crate) cubing: E,
    /// Whether at least one non-empty unit reached the cubing engine.
    pub(crate) computed: bool,
    /// The m-cells' tilt frames (the warehoused stream history), all on
    /// the engine's one clock: the ingestor's open unit.
    pub(crate) frames: LayerFamily,
    /// The o-cells' tilt frames — "the cuboids at the o-layer should be
    /// computed dynamically according to the tilt time frame model as
    /// well" (Example 4): the observation deck at every granularity.
    pub(crate) o_frames: LayerFamily,
    pub(crate) ticks_per_unit: usize,
    /// Alarm sinks receiving the merged, sorted per-unit delta.
    sinks: SinkSet,
    /// The m-layer spec (for projecting late records to their o-cell).
    pub(crate) m_layer: Arc<CuboidSpec>,
    /// The o-layer spec (late-amendment projection and drill scoring).
    pub(crate) o_layer: Arc<CuboidSpec>,
    /// The exception policy (time-travel drill scoring).
    pub(crate) policy: Arc<ExceptionPolicy>,
    /// Bounded reordering + watermark state; `None` when disabled (the
    /// strictly-ordered ingest path, byte-identical to the pre-watermark
    /// engine).
    pub(crate) reorder: Option<ReorderState<PackedRecord>>,
    /// Late-record tilt amendments applied since the last unit report.
    pub(crate) pending_amendments: Vec<LateAmendment>,
    /// Alarm revisions produced by late amendments since the last unit
    /// report (see [`UnitReport::alarm_revisions`]).
    pub(crate) pending_revisions: Vec<AlarmRevision>,
    /// Late amendments applied since construction (cumulative — the
    /// [`RunStats::late_amendments`](regcube_core::RunStats) figure).
    pub(crate) late_amended_total: u64,
    /// The last closed unit's alarms — captured into snapshots so the
    /// serving layer's published view carries the alarm state of its
    /// unit boundary.
    pub(crate) last_alarms: Vec<Alarm>,
    /// Snapshots taken from this engine ([`snapshot`](Self::snapshot)),
    /// surfaced as [`RunStats::snapshots_published`]. Atomic so the
    /// shared-reference snapshot hook can count without `&mut self`.
    snapshots_published: AtomicU64,
}

impl<E: CubingEngine> OnlineEngine<E> {
    /// Ingests one raw record: packs it with
    /// [`packer`](Self::packer) and hands it to
    /// [`ingest_packed`](Self::ingest_packed) — the one fold path.
    ///
    /// # Errors
    /// [`StreamError::BadRecord`] for arity/member violations, and
    /// whatever [`ingest_packed`](Self::ingest_packed) returns.
    pub fn ingest(&mut self, record: &RawRecord) -> Result<()> {
        let packed = self.ingestor.packer().pack(record)?;
        self.ingest_packed(&packed)
    }

    /// The packer of this engine's primitive layer: what turns a
    /// [`RawRecord`] into the [`PackedRecord`]
    /// [`ingest_packed`](Self::ingest_packed) takes. Cheap to clone, so
    /// a producer can pack on its own thread.
    pub fn packer(&self) -> &RecordPacker {
        self.ingestor.packer()
    }

    /// Ingests one record packed by this engine's
    /// [`packer`](Self::packer).
    ///
    /// With reordering disabled (the default) the record must belong to
    /// the open unit. With [`EngineConfig::with_reordering`] the record
    /// may arrive out of order: open-or-future units are buffered
    /// (folded at close as if sorted canonically), units within the
    /// allowed lateness of the open one amend the warehoused tilt frames
    /// exactly, and older records are counted in
    /// [`late_dropped`](Self::late_dropped) and dropped.
    ///
    /// # Errors
    /// * [`StreamError::OutOfWindow`] — reordering disabled and the
    ///   tick is outside the open unit.
    /// * [`StreamError::ReorderOverflow`] — the bounded buffer cannot
    ///   admit another future unit (close ready units first, e.g. via
    ///   [`drain_ready`](Self::drain_ready)).
    /// * [`StreamError::BadRecord`] — a key beyond the primitive layer
    ///   (a record another packer made), refused before it is buffered.
    pub fn ingest_packed(&mut self, record: &PackedRecord) -> Result<()> {
        let Some(st) = self.reorder.as_mut() else {
            return self.ingestor.ingest_packed(record);
        };
        self.ingestor.packer().check(record)?;
        let unit = record.tick.div_euclid(self.ticks_per_unit as i64);
        let open = self.ingestor.open_unit();
        st.observe_from(unit, record.source);
        if unit >= open {
            return st.buffer(unit, *record);
        }
        if unit < 0 || unit < open - st.config().lateness {
            st.count_drop();
            return Ok(());
        }
        self.amend_late(unit, record)
    }

    /// Applies an in-lateness record for an already-closed unit as an
    /// exact amendment of the affected m- and o-layer tilt frames: the
    /// fitted slot holding the record's unit absorbs the value delta via
    /// OLS linearity ([`Isb::amend_tick`](regcube_regress::Isb::amend_tick)),
    /// which is the same ISB a refit of the corrected series would
    /// produce (Theorem 3.3 mergeability keeps coarser slots exact too,
    /// because the amendment lands *before* promotion or is applied to
    /// the promoted slot directly). The amendment is reported through
    /// the next [`UnitReport::late_amendments`] and fanned out to the
    /// alarm sinks; a verdict it changes, through
    /// [`UnitReport::alarm_revisions`].
    fn amend_late(&mut self, unit: i64, record: &PackedRecord) -> Result<()> {
        let ids = self.ingestor.packer().ids(record.key);
        let m_key = self.ingestor.project_to_m(&ids);
        let o_key = CellKey::new(project_key(
            &self.schema,
            &self.m_layer,
            m_key.ids(),
            &self.o_layer,
        ));
        let (tick, delta) = (record.tick, record.value);
        let amend = |m: &Isb| m.amend_tick(tick, delta).map_err(TiltError::Merge);
        // A cell without a frame (never seen, or retired) is given one
        // back-filled from the epoch, so the amendment has a slot to
        // land in.
        let m_level = match self
            .frames
            .amend(&m_key, unit as u64, amend)
            .map_err(StreamError::from)?
        {
            AmendOutcome::Amended { level, .. } => level,
            AmendOutcome::Expired => {
                // The unit already rolled off the coarsest tilt level:
                // deterministic drop, same accounting as beyond-lateness.
                self.reorder.as_mut().expect("reorder enabled").count_drop();
                return Ok(());
            }
        };
        let mut measures: Option<(Isb, Isb)> = None;
        let outcome = self
            .o_frames
            .amend(&o_key, unit as u64, |m| {
                let amended = amend(m)?;
                measures = Some((*m, amended));
                Ok(amended)
            })
            .map_err(StreamError::from)?;
        let (o_level, slot_unit) = match outcome {
            AmendOutcome::Amended { level, slot_unit } => (level, Some(slot_unit)),
            // Same spec, same clock: if the m-frame still holds the
            // unit, so does the o-frame.
            AmendOutcome::Expired => (m_level, None),
        };
        self.pending_amendments.push(LateAmendment {
            m_cell: m_key,
            o_cell: o_key.clone(),
            unit: unit as u64,
            tick,
            delta,
            m_level,
            o_level,
        });
        self.late_amended_total += 1;
        // Re-screen the amended o-slot with the one test. No other slot's
        // score moved, so no other verdict can have changed.
        if let (Some(slot_unit), Some((old, new))) = (slot_unit, measures) {
            let threshold = self.policy.threshold_for(&self.o_layer);
            let (old_score, new_score) = (exception_score(&old), exception_score(&new));
            if let Some(kind) = classify_revision(old_score, new_score, threshold) {
                let revision = AlarmRevision {
                    kind,
                    cuboid: (*self.o_layer).clone(),
                    cell: o_key,
                    unit: slot_unit,
                    level: o_level,
                    old_score,
                    new_score,
                };
                self.patch_frontier_alarms(&revision, new, threshold);
                self.pending_revisions.push(revision);
            }
        }
        Ok(())
    }

    /// Applies one revision to [`Self::last_alarms`] when it targets the
    /// frontier (finest-level slot of the last closed unit) — the alarm
    /// list captured into snapshots and unit reports must agree with
    /// the amended frames it is published alongside.
    fn patch_frontier_alarms(&mut self, rev: &AlarmRevision, measure: Isb, threshold: f64) {
        if rev.level != 0 || rev.unit + 1 != self.units_closed() {
            return;
        }
        let cell = &rev.cell;
        match rev.kind {
            RevisionKind::Retracted => {
                self.last_alarms.retain(|a| &a.key != cell);
            }
            RevisionKind::Raised => {
                if rev.new_score.is_finite() {
                    self.last_alarms.retain(|a| &a.key != cell);
                    self.last_alarms.push(Alarm {
                        key: cell.clone(),
                        measure,
                        score: rev.new_score,
                        threshold,
                    });
                }
            }
            RevisionKind::Rescored => {
                if let Some(alarm) = self.last_alarms.iter_mut().find(|a| &a.key == cell) {
                    alarm.measure = measure;
                    alarm.score = rev.new_score;
                }
            }
        }
        self.last_alarms.sort_by(alarm_order);
    }

    /// The currently open unit index.
    #[inline]
    pub fn open_unit(&self) -> i64 {
        self.ingestor.open_unit()
    }

    /// Units closed so far: the engine's one clock, which every unit
    /// index, epoch and frame family reads. Units are numbered from 0,
    /// so this is the open unit.
    #[inline]
    pub fn units_closed(&self) -> u64 {
        self.ingestor.open_unit() as u64
    }

    /// The tilt frame of an m-layer cell, if the cell has ever been
    /// active (and has not retired as all-zero since): the paper's
    /// per-cell structure, materialised from the layer's columns — the
    /// caller owns it.
    pub fn tilt_frame(&self, key: &CellKey) -> Option<TiltFrame<Isb>> {
        self.frames.frame(key)
    }

    /// The most recent cube result.
    ///
    /// # Errors
    /// [`StreamError::Core`] before the first non-empty unit close.
    pub fn cube(&self) -> Result<&CubeResult> {
        if !self.computed {
            return Err(StreamError::from(CoreError::NotMaterialized {
                detail: "no unit with data has been closed yet".into(),
            }));
        }
        Ok(self.cubing.result())
    }

    /// The cubing strategy driving the cube (e.g. to read its
    /// [`stats`](CubingEngine::stats)).
    pub fn cubing(&self) -> &E {
        &self.cubing
    }

    /// Registers an alarm sink after construction (the fluent path is
    /// [`EngineConfig::with_sinks`]). The sink starts receiving deltas
    /// with the next closed non-empty unit.
    pub fn add_sink(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }

    /// Number of registered alarm sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Closes the open unit. An empty, a refused and a cubed unit all
    /// run one sequence:
    ///
    /// 1. close the unit's tuples (in watermark mode, after folding its
    ///    buffered records);
    /// 2. push them into the m-layer's frame family;
    /// 3. cube the unit, unless it is empty;
    /// 4. push the cube's o-layer into the o-layer family — a zero fill
    ///    when there is no cube, so both families stay on the one clock;
    /// 5. set the alarms, none when there is no cube;
    /// 6. return the cubing engine's error for a refused unit;
    /// 7. fan the pending amendments and revisions, then the delta, out
    ///    to the alarm sinks;
    /// 8. report.
    ///
    /// # Errors
    /// Propagates substrate failures. A unit the cubing engine refuses
    /// is returned as that error once, at step 6: the unit is spent (the
    /// cube stays on the previous unit), its pending amendments,
    /// revisions and drop count wait for the next report, and the next
    /// close proceeds normally.
    pub fn close_unit(&mut self) -> Result<UnitReport> {
        // Watermark mode: fold the open unit's buffered records in
        // arrival order. The ingestor re-sums every slot two records
        // share in the canonical order, so the fitted ISBs are
        // bit-identical to a fold of the sorted unit, whatever the
        // arrival permutation. A bucket it refuses goes back unchanged.
        if let Some(st) = self.reorder.as_mut() {
            let open = self.ingestor.open_unit();
            if let Some(bucket) = st.units.remove(&open) {
                if let Err(e) = self.ingestor.ingest_bucket(&bucket) {
                    st.units.insert(open, bucket);
                    return Err(e);
                }
            }
        }
        let window = self.ingestor.open_window();
        // The unit's tuples, in key order: the one vector the m-frames
        // and the cubing engine both read.
        let (unit, tuples) = self.ingestor.close_tuples()?;
        let zero_fill = Isb::new(window.0, window.1, 0.0, 0.0).map_err(StreamError::from)?;
        self.frames
            .push_unit(zero_fill, tuples.iter().map(|t| (t.key(), *t.isb())))
            .map_err(StreamError::from)?;

        // One call per non-empty unit: the tuples are the window's
        // complete m-layer, and the window is later than any the engine
        // has seen. Sinks see the delta sorted (the trait's contract,
        // verified in O(n); only a foreign engine that breaks it pays
        // the sort).
        let m_cells = tuples.len();
        let mut recompute_time = Duration::ZERO;
        let cubed = if tuples.is_empty() {
            Ok(None)
        } else {
            let started = Instant::now();
            let cubed = self.cubing.ingest_unit(tuples).map(|mut delta| {
                delta.sort_cells();
                Some(delta)
            });
            recompute_time = started.elapsed();
            cubed
        };
        self.ingestor.release_tuples();
        let result = matches!(cubed, Ok(Some(_))).then(|| self.cubing.result());
        self.computed |= result.is_some();

        // The observation deck at every granularity, and the one test on
        // every o-cell's unit regression, hottest first.
        let o_cells = result.into_iter().flat_map(|r| r.o_table().iter());
        self.o_frames
            .push_unit(zero_fill, o_cells.map(|(key, isb)| (key, *isb)))
            .map_err(StreamError::from)?;
        self.last_alarms = result.map_or_else(Vec::new, |result| {
            let threshold = result.policy().threshold_for(result.layers().o_layer());
            result
                .exceptional_o_cells()
                .into_iter()
                .map(|(key, measure)| Alarm {
                    key: key.clone(),
                    measure: *measure,
                    score: exception_score(measure),
                    threshold,
                })
                .collect()
        });
        let exception_cells = result.map_or(0, CubeResult::total_exception_cells);
        // The unit is spent either way: the ingestor has rolled over and
        // both families hold it.
        let delta = cubed?;

        // Sinks see the post-unit cube; their failures are collected,
        // never allowed to fail the unit.
        let late_amendments = std::mem::take(&mut self.pending_amendments);
        let alarm_revisions = std::mem::take(&mut self.pending_revisions);
        let mut sink_errors = self.sinks.dispatch_amendments(&late_amendments);
        sink_errors.extend(self.sinks.dispatch_revisions(&alarm_revisions));
        if let Some(delta) = delta.as_ref().filter(|_| !self.sinks.is_empty()) {
            let ctx = AlarmContext::new(self.cubing.result(), delta);
            sink_errors.extend(self.sinks.dispatch(delta, &ctx));
        }
        Ok(UnitReport {
            unit,
            m_cells,
            alarms: self.last_alarms.clone(),
            exception_cells,
            recompute_time,
            cube_delta: delta,
            sink_errors,
            late_amendments,
            alarm_revisions,
            late_dropped: self
                .reorder
                .as_mut()
                .map_or(0, ReorderState::take_dropped_since_report),
            snapshot_epoch: self.units_closed(),
        })
    }

    /// The low watermark in units: everything strictly below it is
    /// final (no in-lateness record can change it any more). With
    /// reordering disabled this is simply the open unit.
    pub fn watermark_unit(&self) -> i64 {
        match &self.reorder {
            Some(st) => self.ingestor.open_unit() - st.config().lateness,
            None => self.ingestor.open_unit(),
        }
    }

    /// Whether the watermark guarantees the open unit is complete —
    /// every record within the allowed lateness of the maximum observed
    /// tick has either been buffered or would arrive as an amendment.
    /// Always `false` with reordering disabled (the caller's clock
    /// decides there).
    pub fn close_ready(&self) -> bool {
        self.reorder
            .as_ref()
            .is_some_and(|st| st.close_ready(self.ingestor.open_unit()))
    }

    /// Closes every unit the watermark has sealed (see
    /// [`close_ready`](Self::close_ready)) and returns their reports —
    /// the watermark-driven replacement for calling
    /// [`close_unit`](Self::close_unit) on an external clock.
    ///
    /// # Errors
    /// Propagates the first failing close.
    pub fn drain_ready(&mut self) -> Result<Vec<UnitReport>> {
        let mut reports = Vec::new();
        while self.close_ready() {
            reports.push(self.close_unit()?);
        }
        Ok(reports)
    }

    /// Closes units until nothing is left: no buffered records, no open
    /// accumulation, no unreported amendments (end-of-stream flush —
    /// the watermark never seals the trailing units on its own).
    ///
    /// # Errors
    /// Propagates the first failing close.
    pub fn flush(&mut self) -> Result<Vec<UnitReport>> {
        let mut reports = Vec::new();
        loop {
            let open = self.ingestor.open_unit();
            let buffered = self
                .reorder
                .as_ref()
                .and_then(ReorderState::max_buffered_unit)
                .is_some_and(|u| u >= open);
            if !buffered && self.ingestor.open_cells() == 0 && self.pending_amendments.is_empty() {
                break;
            }
            reports.push(self.close_unit()?);
        }
        Ok(reports)
    }

    /// The reordering configuration, if the watermark stage is enabled.
    pub fn reordering(&self) -> Option<&ReorderConfig> {
        self.reorder.as_ref().map(ReorderState::config)
    }

    /// Records dropped for arriving beyond the allowed lateness since
    /// construction (0 with reordering disabled).
    pub fn late_dropped(&self) -> u64 {
        self.reorder.as_ref().map_or(0, ReorderState::dropped_total)
    }

    /// Records currently held in the reordering buffer.
    pub fn buffered_records(&self) -> usize {
        self.reorder
            .as_ref()
            .map_or(0, ReorderState::buffered_records)
    }

    /// Late-record amendments applied to the warehoused tilt frames
    /// since construction (0 with reordering disabled).
    pub fn late_amended(&self) -> u64 {
        self.late_amended_total
    }

    /// The cubing strategy's run statistics with the stream layer's
    /// lateness figures filled in ([`late_dropped`](RunStats::late_dropped),
    /// [`late_amendments`](RunStats::late_amendments),
    /// [`watermark_held_units`](RunStats::watermark_held_units),
    /// [`sources_evicted`](RunStats::sources_evicted)).
    pub fn stats(&self) -> RunStats {
        let mut stats = *self.cubing.stats();
        stats.late_dropped = self.late_dropped();
        stats.late_amendments = self.late_amended_total;
        if let Some(st) = &self.reorder {
            stats.watermark_held_units = st.watermark_held_units();
            stats.sources_evicted = st.sources_evicted();
        }
        stats.snapshots_published = self.snapshots_published.load(Ordering::Relaxed);
        stats
    }

    /// Captures an immutable [`CubeSnapshot`] of everything queryable —
    /// cube, both tilt-ladder families, the last unit's alarms and the
    /// run statistics — as one internally consistent value. Nothing but
    /// the alarm list is copied: the cube and each family's slot columns
    /// are shared by reference count, and the engine's next writes copy
    /// only what they touch (a late amendment the one column it lands
    /// in, a new cell the key index).
    ///
    /// This is the serving-side publication hook, and the fix for the
    /// engine's query/ingest blocking hazard: every query method on the
    /// engine borrows it, so a dashboard reader polling
    /// [`drill_at`](Self::drill_at) or [`cube`](Self::cube) directly
    /// must serialize with [`ingest`](Self::ingest) /
    /// [`close_unit`](Self::close_unit) — under a lock, readers block
    /// writers. Take a snapshot at each unit boundary instead (as
    /// `regcube_serve` does, behind a one-slot cell each publish
    /// swaps) and point readers at it: snapshot queries
    /// return **the same bytes** as the engine-blocking path for every
    /// closed unit — `drill_at`/`drill_history` share one
    /// implementation with the engine, pinned by
    /// `crates/stream/tests/snapshot.rs` — and never touch the engine
    /// again.
    ///
    /// Call it right after [`close_unit`](Self::close_unit) so the
    /// snapshot's [`epoch`](CubeSnapshot::epoch) matches the report's
    /// [`snapshot_epoch`](UnitReport::snapshot_epoch). Each call counts
    /// into [`RunStats::snapshots_published`].
    pub fn snapshot(&self) -> CubeSnapshot {
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
        CubeSnapshot {
            epoch: self.units_closed(),
            schema: Arc::clone(&self.schema),
            cube: self.computed.then(|| self.cubing.shared_result()),
            frames: self.frames.snapshot(),
            o_frames: self.o_frames.snapshot(),
            policy: Arc::clone(&self.policy),
            m_layer: Arc::clone(&self.m_layer),
            o_layer: Arc::clone(&self.o_layer),
            alarms: self.last_alarms.clone(),
            stats: self.stats(),
        }
    }

    /// Writes a durable checkpoint of the engine to `path` (see
    /// [`crate::checkpoint::write_checkpoint`]). Restore with
    /// [`EngineConfig::restore`].
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] for I/O failures or when called
    /// mid-unit in strict-order mode (checkpoint at unit boundaries).
    pub fn write_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        crate::checkpoint::write_checkpoint(self, path)
    }

    /// Serializes the engine's resumable state into checkpoint bytes
    /// (see [`crate::checkpoint::checkpoint_bytes`]).
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] when called mid-unit in strict-order
    /// mode (checkpoint at unit boundaries).
    pub fn checkpoint_bytes(&self) -> Result<Vec<u8>> {
        crate::checkpoint::checkpoint_bytes(self)
    }

    /// Drills one step down from a retained cell of the current cube
    /// (see [`regcube_core::drill`]).
    ///
    /// # Errors
    /// [`StreamError::Core`] before the first non-empty unit close.
    pub fn drill_children(&self, cuboid: &CuboidSpec, key: &CellKey) -> Result<Vec<DrillHit>> {
        Ok(drill_children(&self.schema, self.cube()?, cuboid, key))
    }

    /// Finds all retained exceptional descendants of a cell of the
    /// current cube.
    ///
    /// # Errors
    /// [`StreamError::Core`] before the first non-empty unit close.
    pub fn drill_descendants(&self, cuboid: &CuboidSpec, key: &CellKey) -> Result<Vec<DrillHit>> {
        Ok(drill_descendants(&self.schema, self.cube()?, cuboid, key))
    }

    /// The tilt frame of an o-layer cell: its regression history at every
    /// granularity the spec registers (e.g. "this city's last day at hour
    /// precision" via [`TiltFrame::merge_level`]), owned like
    /// [`tilt_frame`](Self::tilt_frame).
    pub fn o_layer_frame(&self, key: &CellKey) -> Option<TiltFrame<Isb>> {
        self.o_frames.frame(key)
    }

    /// Time-travel drill: the retained history of one cell at one tilt
    /// granularity, each slot screened with the engine's exception
    /// policy — "was this cell exceptional three hours ago?" long after
    /// the cube moved on. The cell is looked up in the m-layer frames
    /// first, then the o-layer frames, so an o-cell whose ids equal a
    /// warehoused m-cell's is drilled as that m-cell (read o-cells
    /// through [`o_layer_frame`](Self::o_layer_frame)); a cell with no
    /// warehoused history yields an empty list. Slots are returned
    /// oldest first; amendments from late records
    /// ([`EngineConfig::with_reordering`]) are visible here immediately.
    ///
    /// # Errors
    /// [`StreamError::Tilt`] for a level the tilt spec does not define.
    pub fn drill_at(&self, level: usize, key: &CellKey) -> Result<Vec<TiltHit<'_>>> {
        drill_frames_at(
            &self.frames,
            &self.o_frames,
            &self.policy,
            &self.m_layer,
            &self.o_layer,
            level,
            key,
        )
    }

    /// Time-travel drill across the whole ladder: every retained slot of
    /// the cell from the coarsest granularity down to the finest, each
    /// level scored as in [`drill_at`](Self::drill_at) — and looked up
    /// the same way, m-layer frames first. The concatenation reads as
    /// the cell's full warehoused timeline.
    ///
    /// # Errors
    /// None: it walks only the levels the spec defines. The `Result` is
    /// [`drill_at`](Self::drill_at)'s, kept so the two read alike.
    pub fn drill_history(&self, key: &CellKey) -> Result<Vec<TiltHit<'_>>> {
        drill_frames_history(
            &self.frames,
            &self.o_frames,
            &self.policy,
            &self.m_layer,
            &self.o_layer,
            key,
        )
    }
}

/// One slot of a time-travel drill ([`OnlineEngine::drill_at`]): a
/// warehoused regression with its exception verdict re-derived from the
/// engine's policy. Borrows from the engine or snapshot it was drilled
/// on, so a drill allocates its result `Vec` and nothing per slot.
#[derive(Debug, Clone, PartialEq)]
pub struct TiltHit<'a> {
    /// Tilt level the slot lives at (0 = finest).
    pub level: usize,
    /// The level's name (e.g. `"hour"`), borrowed from the [`TiltSpec`]
    /// of the engine or snapshot the drill read.
    pub level_name: &'a str,
    /// The slot's index in level granularity (promoted slots cover
    /// `finest_units_per(level)` fine units each).
    pub slot_unit: u64,
    /// The warehoused regression of the slot's span.
    pub measure: Isb,
    /// The slot's exception score: the magnitude of its slope.
    pub score: f64,
    /// Whether the score passes the layer's threshold.
    pub exceptional: bool,
}

/// The canonical alarm order: hottest first, ties by key — the order
/// `CubeResult::exceptional_o_cells` lists a unit's alarms in.
fn alarm_order(a: &Alarm, b: &Alarm) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.key.cmp(&b.key))
}

/// How a re-screened slot's verdict changed, or `None` when the
/// amendment left the verdict (and, for a still-standing exception, the
/// exact score bits) unchanged. Scores compare by IEEE bits so
/// "unchanged" means bit-identical — the same witness the snapshot
/// suites pin.
fn classify_revision(old_score: f64, new_score: f64, threshold: f64) -> Option<RevisionKind> {
    match (old_score >= threshold, new_score >= threshold) {
        (true, false) => Some(RevisionKind::Retracted),
        (false, true) => Some(RevisionKind::Raised),
        (true, true) if old_score.to_bits() != new_score.to_bits() => Some(RevisionKind::Rescored),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 dims (depth 2, fanout 2); primitive = m-layer; o-layer = apex;
    /// 4 ticks per unit; small tilt frame.
    fn engine(policy: ExceptionPolicy) -> OnlineEngine {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(policy)
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(4)
        .build()
        .unwrap()
    }

    fn feed_unit<E: CubingEngine>(e: &mut OnlineEngine<E>, unit: i64, slope: f64) {
        let t0 = unit * 4;
        for t in t0..t0 + 4 {
            e.ingest(&RawRecord::new(vec![0, 0], t, slope * (t - t0) as f64))
                .unwrap();
            e.ingest(&RawRecord::new(vec![3, 2], t, 1.0)).unwrap();
        }
    }

    #[test]
    fn quiet_stream_raises_no_alarms() {
        let mut e = engine(ExceptionPolicy::slope_threshold(1.0));
        feed_unit(&mut e, 0, 0.1);
        let report = e.close_unit().unwrap();
        assert_eq!(report.unit, 0);
        assert_eq!(report.m_cells, 2);
        assert!(report.alarms.is_empty());
        assert_eq!(e.units_closed(), 1);
    }

    #[test]
    fn hot_stream_raises_an_alarm() {
        let mut e = engine(ExceptionPolicy::slope_threshold(1.0));
        feed_unit(&mut e, 0, 2.0);
        let report = e.close_unit().unwrap();
        assert_eq!(report.alarms.len(), 1);
        let alarm = &report.alarms[0];
        assert!(alarm.score >= 1.0);
        assert_eq!(alarm.threshold, 1.0);
        assert_eq!(alarm.key.ids(), &[0, 0], "apex cell");
    }

    #[test]
    fn o_layer_frames_track_the_observation_deck() {
        let mut e = engine(ExceptionPolicy::never());
        for u in 0..5 {
            feed_unit(&mut e, u, 0.5);
            e.close_unit().unwrap();
        }
        // The apex o-cell has a frame spanning all 5 units (4 ticks each).
        let apex = CellKey::new(vec![0, 0]);
        let frame = e.o_layer_frame(&apex).expect("o-frame exists");
        assert_eq!(frame.next_unit(), 5);
        let merged = frame.merge_all().unwrap().unwrap();
        assert_eq!(merged.interval(), (0, 19));
        // The per-unit sawtooth has a strong within-unit trend but a flat
        // cross-unit one; the newest fine slot shows the within-unit ramp.
        let newest = frame.merge_recent(0, 1).unwrap().unwrap();
        assert!(newest.slope() > 0.4, "slope {}", newest.slope());
        assert!(merged.slope().abs() < newest.slope());
        // Unknown o-cells have no frame.
        assert!(e.o_layer_frame(&CellKey::new(vec![9, 9])).is_none());
    }

    #[test]
    fn tilt_frames_track_cells_across_units() {
        let mut e = engine(ExceptionPolicy::never());
        feed_unit(&mut e, 0, 0.5);
        e.close_unit().unwrap();
        // Unit 1: only cell (0,0) active; (3,2) gets a zero fill.
        let t0 = 4;
        for t in t0..t0 + 4 {
            e.ingest(&RawRecord::new(vec![0, 0], t, 1.0)).unwrap();
        }
        e.close_unit().unwrap();

        let f_active = e.tilt_frame(&CellKey::new(vec![0, 0])).unwrap();
        assert_eq!(f_active.next_unit(), 2);
        let f_idle = e.tilt_frame(&CellKey::new(vec![3, 2])).unwrap();
        assert_eq!(f_idle.next_unit(), 2);
        let merged = f_idle.merge_all().unwrap().unwrap();
        assert_eq!(merged.interval(), (0, 7));
        // Unknown cells have no frame.
        assert!(e.tilt_frame(&CellKey::new(vec![1, 1])).is_none());
    }

    #[test]
    fn late_cells_get_backfilled_frames() {
        let mut e = engine(ExceptionPolicy::never());
        feed_unit(&mut e, 0, 0.5);
        e.close_unit().unwrap();
        // A brand-new cell appears in unit 1.
        for t in 4..8 {
            e.ingest(&RawRecord::new(vec![1, 1], t, 2.0)).unwrap();
            e.ingest(&RawRecord::new(vec![0, 0], t, 0.1)).unwrap();
        }
        e.close_unit().unwrap();
        let f = e.tilt_frame(&CellKey::new(vec![1, 1])).unwrap();
        let merged = f.merge_all().unwrap().unwrap();
        assert_eq!(merged.interval(), (0, 7), "backfilled from the epoch");
    }

    #[test]
    fn empty_units_are_benign() {
        let mut e = engine(ExceptionPolicy::always());
        let report = e.close_unit().unwrap();
        assert_eq!(report.m_cells, 0);
        assert!(report.alarms.is_empty());
        assert!(e.cube().is_err(), "no cube before the first active unit");
        // Next unit works normally.
        feed_unit(&mut e, 1, 0.2);
        let r1 = e.close_unit().unwrap();
        assert_eq!(r1.m_cells, 2);
        assert!(e.cube().is_ok());
    }

    /// Compile-time Send audit: serving layers move whole online engines
    /// across worker threads.
    #[test]
    fn engines_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BoxedEngine>();
        assert_send::<OnlineEngine<BoxedEngine>>();
    }

    #[test]
    #[allow(deprecated)]
    fn with_shards_accepts_only_one() {
        let config = || {
            let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
            EngineConfig::new(
                schema,
                CuboidSpec::new(vec![0, 0]),
                CuboidSpec::new(vec![2, 2]),
            )
            .with_ticks_per_unit(4)
        };
        let mut saved = config().with_shards(1).build().unwrap();
        feed_unit(&mut saved, 0, 2.0);
        saved.close_unit().unwrap();
        let bytes = saved.checkpoint_bytes().unwrap();
        for count in [0, 2, 3, 7] {
            let refused = |built: Result<OnlineEngine>| match built {
                Err(StreamError::BadConfig { detail }) => detail,
                Err(e) => panic!("with_shards({count}): expected BadConfig, got {e}"),
                Ok(_) => panic!("with_shards({count}): built an engine"),
            };
            let detail = refused(config().with_shards(count).build());
            assert!(detail.contains("unsharded"), "{detail}");
            refused(crate::restore_bytes(config().with_shards(count), &bytes));
            refused(
                config().with_shards(count).build_with(|s, l, p| {
                    Ok(Box::new(MoCubingEngine::new(s, l, p)?) as BoxedEngine)
                }),
            );
        }
        assert!(crate::restore_bytes(config().with_shards(1), &bytes).is_ok());
    }

    #[test]
    fn layers_beyond_a_64_bit_key_are_a_bad_config() {
        let detail = |built: Result<OnlineEngine>| match built {
            Err(StreamError::BadConfig { detail }) => detail,
            Err(e) => panic!("expected BadConfig, got {e}"),
            Ok(_) => panic!("built an engine"),
        };
        // 6 dimensions of 2048² primitive members: 2^132 cells.
        let schema = CubeSchema::synthetic(6, 2, 2048).unwrap();
        let built = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0; 6]),
            CuboidSpec::new(vec![2; 6]),
        )
        .build();
        assert!(detail(built).contains("primitive layer"));
        // Ragged: 70,000 members on level 1 and one on level 2, so the
        // primitive layer (level 2) has one cell and the m-layer
        // (level 1) 70,000^5 > 2^64.
        let ragged = regcube_olap::Hierarchy::from_parents(vec![vec![0; 70_000], vec![0]]).unwrap();
        let dims = (0..5)
            .map(|d| regcube_olap::Dimension::new(format!("d{d}"), ragged.clone()))
            .collect();
        let schema = CubeSchema::new(dims).unwrap();
        let built = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0; 5]),
            CuboidSpec::new(vec![1; 5]),
        )
        .with_primitive(CuboidSpec::new(vec![2; 5]))
        .build();
        assert!(detail(built).contains("m-layer"));
    }

    #[test]
    fn sinks_consume_every_unit_delta() {
        use regcube_core::alarm::{self, AlarmLog, DashboardSummary, SharedSink};
        let log = alarm::shared(AlarmLog::new(32));
        let dash = alarm::shared(DashboardSummary::new());
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut e = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(1.0))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(4)
        .with_sinks([log.clone() as SharedSink, dash.clone() as SharedSink])
        .build()
        .unwrap();
        assert_eq!(e.sink_count(), 2);

        // Unit 0 hot, unit 1 calm: one full episode.
        feed_unit(&mut e, 0, 2.0);
        let r0 = e.close_unit().unwrap();
        assert!(r0.sink_errors.is_empty());
        feed_unit(&mut e, 1, 0.0);
        e.close_unit().unwrap();

        let log = log.lock().unwrap();
        assert!(log.opened_total() > 0);
        assert_eq!(log.open_count(), 0, "calm unit closed every episode");
        for ep in log.closed_episodes() {
            assert_eq!(ep.raised_at, 0);
            assert_eq!(ep.cleared_at, Some(1));
        }
        let dash = dash.lock().unwrap();
        assert_eq!(dash.units_seen(), 2);
        assert_eq!(dash.active_cells(), 0);
        assert_eq!(dash.appeared_total(), dash.cleared_total());
    }

    /// A foreign engine that violates the sorted-delta contract: wraps
    /// Algorithm 1 but reverses the transition lists. The stream layer
    /// must re-sort before sinks observe the delta.
    struct UnsortedEngine(MoCubingEngine);
    impl CubingEngine for UnsortedEngine {
        fn algorithm(&self) -> regcube_core::result::Algorithm {
            self.0.algorithm()
        }
        fn ingest_unit(
            &mut self,
            tuples: &[regcube_core::MTuple],
        ) -> regcube_core::Result<UnitDelta> {
            let mut delta = self.0.ingest_unit(tuples)?;
            delta.appeared.reverse();
            delta.cleared.reverse();
            Ok(delta)
        }
        fn result(&self) -> &regcube_core::CubeResult {
            self.0.result()
        }
        fn stats(&self) -> &regcube_core::RunStats {
            self.0.stats()
        }
    }

    #[test]
    fn unsorted_foreign_engines_still_deliver_sorted_deltas() {
        use regcube_core::alarm::{AlarmContext, AlarmSink, SharedSink};
        use regcube_core::CoreError;

        /// Records what it observes; fails if a delta arrives unsorted.
        struct SortAsserting {
            deltas_seen: usize,
        }
        impl AlarmSink for SortAsserting {
            fn name(&self) -> &'static str {
                "sort-asserting"
            }
            fn on_unit(
                &mut self,
                delta: &UnitDelta,
                _ctx: &AlarmContext<'_>,
            ) -> regcube_core::Result<()> {
                for list in [&delta.appeared, &delta.cleared] {
                    if list.windows(2).any(|w| w[0] > w[1]) {
                        return Err(CoreError::BadInput {
                            detail: "unsorted delta reached a sink".into(),
                        });
                    }
                }
                self.deltas_seen += 1;
                Ok(())
            }
        }

        let sink = regcube_core::alarm::shared(SortAsserting { deltas_seen: 0 });
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut e = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.5))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(4)
        .with_sink(sink.clone() as SharedSink)
        .build_with(|schema, layers, policy| {
            MoCubingEngine::transient(schema, layers, policy).map(UnsortedEngine)
        })
        .unwrap();

        for unit in 0..3 {
            feed_unit(&mut e, unit, if unit == 1 { 2.0 } else { 0.1 });
            let report = e.close_unit().unwrap();
            assert!(report.sink_errors.is_empty(), "unit {unit}");
            // The report's delta is the re-sorted one, too.
            let delta = report.cube_delta.unwrap();
            for list in [&delta.appeared, &delta.cleared] {
                assert!(list.windows(2).all(|w| w[0] <= w[1]));
            }
        }
        assert_eq!(sink.lock().unwrap().deltas_seen, 3);
    }

    #[test]
    fn failing_sinks_surface_once_without_poisoning_the_unit() {
        use regcube_core::alarm::{self, AlarmContext, AlarmLog, AlarmSink, SharedSink};
        use regcube_core::CoreError;

        struct AlwaysFails;
        impl AlarmSink for AlwaysFails {
            fn name(&self) -> &'static str {
                "always-fails"
            }
            fn on_unit(&mut self, _: &UnitDelta, _: &AlarmContext<'_>) -> regcube_core::Result<()> {
                Err(CoreError::BadInput {
                    detail: "broken sink".into(),
                })
            }
        }

        let log = alarm::shared(AlarmLog::new(8));
        let mut e = engine(ExceptionPolicy::slope_threshold(1.0));
        e.add_sink(alarm::shared(AlwaysFails) as SharedSink);
        e.add_sink(log.clone() as SharedSink);

        feed_unit(&mut e, 0, 2.0);
        let report = e.close_unit().unwrap();
        // The unit succeeded: delta applied, alarms raised, one error.
        assert_eq!(report.alarms.len(), 1);
        assert!(report.cube_delta.is_some());
        assert_eq!(report.sink_errors.len(), 1);
        assert_eq!(report.sink_errors[0].sink, "always-fails");
        assert!(report.sink_errors[0].message.contains("broken sink"));
        // Later sinks in the set still ran.
        assert!(log.lock().unwrap().opened_total() > 0);
        // The engine keeps working (and keeps surfacing one error per unit).
        feed_unit(&mut e, 1, 0.1);
        let r1 = e.close_unit().unwrap();
        assert_eq!(r1.sink_errors.len(), 1);
        assert!(e.cube().is_ok());
    }

    /// Algorithm 1, except that the `fail_on`-th `ingest_unit` call
    /// (1-based) is rejected before it reaches the engine.
    struct FailsOnce {
        inner: MoCubingEngine,
        calls: usize,
        fail_on: usize,
    }
    impl CubingEngine for FailsOnce {
        fn algorithm(&self) -> regcube_core::result::Algorithm {
            self.inner.algorithm()
        }
        fn ingest_unit(
            &mut self,
            tuples: &[regcube_core::MTuple],
        ) -> regcube_core::Result<UnitDelta> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(CoreError::BadInput {
                    detail: "injected".into(),
                });
            }
            self.inner.ingest_unit(tuples)
        }
        fn result(&self) -> &regcube_core::CubeResult {
            self.inner.result()
        }
        fn stats(&self) -> &regcube_core::RunStats {
            self.inner.stats()
        }
    }

    /// Every close, a refused one included, leaves the engine on one
    /// clock: the open unit, the snapshot's epoch and unit, the report's
    /// epoch and both families' clocks agree with `units_closed`.
    fn assert_one_clock<E: CubingEngine>(e: &OnlineEngine<E>, report: Option<&UnitReport>) {
        let clock = e.units_closed();
        let snapshot = e.snapshot();
        assert_eq!(e.open_unit(), clock as i64);
        assert_eq!(snapshot.epoch(), clock);
        assert_eq!(snapshot.unit(), Some(clock as i64 - 1));
        assert_eq!(report.map_or(clock, |r| r.snapshot_epoch), clock);
        assert_eq!(e.frames.next_unit(), clock);
        assert_eq!(e.o_frames.next_unit(), clock);
    }

    #[test]
    fn a_failed_cubing_close_surfaces_once_without_poisoning_the_engine() {
        let build = |reordering: bool| {
            let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
            let config = EngineConfig::new(
                schema,
                CuboidSpec::new(vec![0, 0]),
                CuboidSpec::new(vec![2, 2]),
            )
            .with_policy(ExceptionPolicy::slope_threshold(1.0))
            .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
            .with_ticks_per_unit(4);
            let config = if reordering {
                config.with_reordering(4, 2)
            } else {
                config
            };
            config
                .build_with(|schema, layers, policy| {
                    MoCubingEngine::transient(schema, layers, policy).map(|inner| FailsOnce {
                        inner,
                        calls: 0,
                        fail_on: 2,
                    })
                })
                .unwrap()
        };

        // In order, unit 1 is refused. With reordering, unit 1 is empty
        // and unit 2 refused, and a late record for unit 0 arrives ahead
        // of the refused close: the close after it reports the amendment.
        for reordering in [false, true] {
            let mut e = build(reordering);
            let (empty, refused) = if reordering { (Some(1), 2) } else { (None, 1) };
            for unit in 0..5 {
                if empty != Some(unit) {
                    feed_unit(&mut e, unit, 2.0);
                }
                if reordering && unit == refused {
                    e.ingest(&RawRecord::new(vec![0, 0], 1, 8.0)).unwrap();
                }
                let closed = e.close_unit();
                assert_eq!(
                    e.units_closed(),
                    unit as u64 + 1,
                    "a unit is spent, not retried"
                );
                let report = match closed {
                    Ok(report) => report,
                    Err(err) => {
                        assert_eq!(unit, refused);
                        assert!(
                            matches!(&err, StreamError::Core(CoreError::BadInput { detail }) if detail == "injected"),
                            "{err}"
                        );
                        assert_one_clock(&e, None);
                        continue;
                    }
                };
                assert_ne!(unit, refused);
                assert_eq!(report.unit, unit);
                let alarms = usize::from(empty != Some(unit));
                assert_eq!(report.alarms.len(), alarms, "unit {unit}");
                let amended: Vec<u64> = report.late_amendments.iter().map(|a| a.unit).collect();
                let expected = if reordering && unit == refused + 1 {
                    vec![0]
                } else {
                    vec![]
                };
                assert_eq!(amended, expected, "unit {unit}");
                assert_one_clock(&e, Some(&report));
            }

            // Both frame clocks advanced through the failed unit, so the
            // apex o-cell's ladder reads as one gapless timeline.
            let apex = CellKey::new(vec![0, 0]);
            assert_eq!(e.o_layer_frame(&apex).unwrap().next_unit(), 5);
            assert_eq!(
                e.tilt_frame(&CellKey::new(vec![0, 0])).unwrap().next_unit(),
                5
            );
            let ladder = e.drill_history(&apex).unwrap();
            let spans: Vec<(i64, i64)> = ladder.iter().map(|hit| hit.measure.interval()).collect();
            assert_eq!(spans.first().map(|s| s.0), Some(0));
            assert_eq!(spans.last().map(|s| s.1), Some(19));
            for pair in spans.windows(2) {
                assert_eq!(pair[0].1 + 1, pair[1].0, "gap in the ladder: {spans:?}");
            }
        }
    }

    /// The reorder-enabled twin of [`engine`].
    fn reorder_engine(cap: usize, lateness: i64) -> OnlineEngine {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(1.0))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(4)
        .with_reordering(cap, lateness)
        .build()
        .unwrap()
    }

    /// The sorted 6-unit stream the watermark tests permute: two cells
    /// per tick, unit 3 hot.
    fn sorted_stream() -> Vec<RawRecord> {
        let mut records = Vec::new();
        for unit in 0..6i64 {
            let slope = if unit == 3 { 2.0 } else { 0.1 };
            let t0 = unit * 4;
            for t in t0..t0 + 4 {
                records.push(RawRecord::new(vec![0, 0], t, slope * (t - t0) as f64));
                records.push(RawRecord::new(vec![3, 2], t, 1.0));
            }
        }
        records
    }

    /// A close that refuses its bucket spends nothing: the records wait
    /// in the buffer, and the unit stays open and empty.
    #[test]
    fn a_refused_bucket_stays_buffered() {
        let mut e = reorder_engine(4, 2);
        for r in sorted_stream().iter().take(8) {
            e.ingest(r).unwrap();
        }
        let stray = PackedRecord {
            tick: 9,
            ..e.packer()
                .pack(&RawRecord::new(vec![1, 1], 0, 1.0))
                .unwrap()
        };
        let bucket = e.reorder.as_mut().unwrap().units.get_mut(&0).unwrap();
        bucket.insert(3, stray);
        let state = |e: &OnlineEngine| {
            let ing = &e.ingestor;
            (
                e.buffered_records(),
                e.open_unit(),
                ing.open_cells(),
                ing.records_seen(),
                e.units_closed(),
            )
        };
        let before = state(&e);
        assert_eq!(before, (9, 0, 0, 0, 0));
        for _ in 0..2 {
            assert!(matches!(
                e.close_unit(),
                Err(StreamError::OutOfWindow {
                    tick: 9,
                    window: (0, 3)
                })
            ));
            assert_eq!(state(&e), before);
        }
        let bucket = e.reorder.as_mut().unwrap().units.get_mut(&0).unwrap();
        assert_eq!(bucket.remove(3), stray, "the bucket keeps its order");
        let report = e.close_unit().unwrap();
        assert_eq!((report.unit, report.m_cells), (0, 2));
        assert_eq!(state(&e), (0, 1, 0, 8, 1));
    }

    #[test]
    fn watermark_reordered_stream_is_bit_identical_to_sorted_replay() {
        // Baseline: the strictly-ordered engine on the sorted stream
        // with explicit unit-boundary closes.
        let mut sorted = engine(ExceptionPolicy::slope_threshold(1.0));
        let mut sorted_reports = Vec::new();
        for (i, r) in sorted_stream().iter().enumerate() {
            if i > 0 && i % 8 == 0 {
                sorted_reports.push(sorted.close_unit().unwrap());
            }
            sorted.ingest(r).unwrap();
        }
        sorted_reports.push(sorted.close_unit().unwrap());

        // Out-of-order run: reverse each 2-unit chunk (displacement of
        // up to 2 units — within the allowed lateness), watermark-driven
        // closes plus a final flush.
        let mut shuffled = sorted_stream();
        for chunk in shuffled.chunks_mut(16) {
            chunk.reverse();
        }
        let mut e = reorder_engine(4, 2);
        let mut reports = Vec::new();
        for r in &shuffled {
            e.ingest(r).unwrap();
            reports.extend(e.drain_ready().unwrap());
        }
        reports.extend(e.flush().unwrap());
        assert_eq!(e.buffered_records(), 0);
        assert_eq!(e.late_dropped(), 0, "everything was within lateness");

        assert_eq!(reports.len(), sorted_reports.len());
        for (a, b) in reports.iter().zip(&sorted_reports) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.m_cells, b.m_cells, "unit {}", a.unit);
            assert_eq!(a.alarms, b.alarms, "unit {}", a.unit);
            assert!(a.late_amendments.is_empty());
            let (da, db) = (a.cube_delta.as_ref(), b.cube_delta.as_ref());
            assert_eq!(da.unwrap().appeared, db.unwrap().appeared);
            assert_eq!(da.unwrap().cleared, db.unwrap().cleared);
        }
        // The warehoused frames are bitwise equal, cell by cell.
        for key in [CellKey::new(vec![0, 0]), CellKey::new(vec![3, 2])] {
            let (fa, fb) = (
                e.tilt_frame(&key).unwrap(),
                sorted.tilt_frame(&key).unwrap(),
            );
            assert_eq!(fa.timeline(), fb.timeline(), "cell {key}");
        }
        // And so is the cube's o-layer.
        let (ca, cb) = (e.cube().unwrap(), sorted.cube().unwrap());
        assert_eq!(ca.o_table().len(), cb.o_table().len());
        for (key, m) in ca.o_table() {
            assert_eq!(cb.o_table().get(key), Some(m), "o-cell {key}");
        }
    }

    #[test]
    fn late_records_amend_closed_units_exactly() {
        let mut e = reorder_engine(4, 2);
        feed_unit(&mut e, 0, 0.5);
        e.close_unit().unwrap();
        feed_unit(&mut e, 1, 0.5);
        e.close_unit().unwrap();

        // A record for closed unit 0 (tick 1) within the lateness of 2.
        e.ingest(&RawRecord::new(vec![0, 0], 1, 8.0)).unwrap();
        feed_unit(&mut e, 2, 0.5);
        let report = e.close_unit().unwrap();
        assert_eq!(report.late_amendments.len(), 1);
        let am = &report.late_amendments[0];
        assert_eq!((am.unit, am.tick, am.delta), (0, 1, 8.0));
        assert_eq!(am.m_cell.ids(), &[0, 0]);
        assert_eq!(am.o_cell.ids(), &[0, 0], "apex o-layer");
        assert_eq!(report.late_dropped, 0);

        // The amended slot is the exact refit of the corrected series:
        // compare against a sorted replay that had the record on time.
        let mut oracle = reorder_engine(4, 2);
        feed_unit(&mut oracle, 0, 0.5);
        oracle.ingest(&RawRecord::new(vec![0, 0], 1, 8.0)).unwrap();
        oracle.close_unit().unwrap();
        feed_unit(&mut oracle, 1, 0.5);
        oracle.close_unit().unwrap();
        feed_unit(&mut oracle, 2, 0.5);
        oracle.close_unit().unwrap();
        for key in [CellKey::new(vec![0, 0]), CellKey::new(vec![3, 2])] {
            let (fa, fb) = (
                e.tilt_frame(&key).unwrap(),
                oracle.tilt_frame(&key).unwrap(),
            );
            let (ta, tb) = (fa.timeline(), fb.timeline());
            assert_eq!(ta.len(), tb.len(), "cell {key}");
            for ((la, sa), (lb, sb)) in ta.iter().zip(&tb) {
                assert_eq!((la, sa.unit), (lb, sb.unit));
                assert!(
                    sa.measure.approx_eq(&sb.measure, 1e-9),
                    "cell {key}: {:?} vs {:?}",
                    sa.measure,
                    sb.measure
                );
            }
        }
        let (oa, ob) = (
            e.o_layer_frame(&CellKey::new(vec![0, 0])).unwrap(),
            oracle.o_layer_frame(&CellKey::new(vec![0, 0])).unwrap(),
        );
        for ((_, sa), (_, sb)) in oa.timeline().iter().zip(&ob.timeline()) {
            assert!(sa.measure.approx_eq(&sb.measure, 1e-9));
        }
    }

    #[test]
    fn foreign_packed_keys_are_refused_before_they_are_buffered() {
        for mut e in [engine(ExceptionPolicy::never()), reorder_engine(4, 1)] {
            let good = e
                .packer()
                .pack(&RawRecord::new(vec![3, 3], 1, 1.0))
                .unwrap();
            let foreign = PackedRecord { key: 16, ..good };
            assert!(matches!(
                e.ingest_packed(&foreign),
                Err(StreamError::BadRecord { .. })
            ));
            assert_eq!(e.buffered_records(), 0);
            e.ingest_packed(&good).unwrap();
            let report = e.flush().unwrap().pop().or_else(|| e.close_unit().ok());
            assert_eq!(report.map(|r| r.m_cells), Some(1));
        }
    }

    #[test]
    fn beyond_lateness_records_are_counted_never_silent() {
        let mut e = reorder_engine(4, 1);
        for unit in 0..3 {
            feed_unit(&mut e, unit, 0.5);
            e.close_unit().unwrap();
        }
        // Open unit is 3, lateness 1: unit 1 and older are beyond.
        e.ingest(&RawRecord::new(vec![0, 0], 4, 1.0)).unwrap(); // unit 1
        e.ingest(&RawRecord::new(vec![0, 0], 0, 1.0)).unwrap(); // unit 0
        e.ingest(&RawRecord::new(vec![0, 0], -5, 1.0)).unwrap(); // pre-epoch
        assert_eq!(e.late_dropped(), 3);
        feed_unit(&mut e, 3, 0.5);
        let report = e.close_unit().unwrap();
        assert_eq!(report.late_dropped, 3);
        assert!(report.late_amendments.is_empty());
        assert_eq!(e.stats().late_dropped, 3);
        // The next report starts a fresh per-report count.
        feed_unit(&mut e, 4, 0.5);
        assert_eq!(e.close_unit().unwrap().late_dropped, 0);
        assert_eq!(e.late_dropped(), 3, "the cumulative figure persists");
    }

    #[test]
    fn reorder_buffer_overflow_is_an_error_not_a_loss() {
        let mut e = reorder_engine(2, 1);
        e.ingest(&RawRecord::new(vec![0, 0], 0, 1.0)).unwrap(); // unit 0
        e.ingest(&RawRecord::new(vec![0, 0], 5, 1.0)).unwrap(); // unit 1
        let err = e.ingest(&RawRecord::new(vec![0, 0], 9, 1.0)).unwrap_err();
        assert!(matches!(err, StreamError::ReorderOverflow { .. }), "{err}");
        // Draining the ready unit frees a slot.
        e.drain_ready().unwrap();
        e.ingest(&RawRecord::new(vec![0, 0], 9, 1.0)).unwrap();
    }

    #[test]
    fn all_zero_frames_are_retired_and_recreated_identically() {
        let mut e = engine(ExceptionPolicy::never());
        // Unit 0: cell (0,0) has usage; cell (3,2) exists but is all
        // zero (its records carry value 0).
        for t in 0..4 {
            e.ingest(&RawRecord::new(vec![0, 0], t, 1.0)).unwrap();
            e.ingest(&RawRecord::new(vec![3, 2], t, 0.0)).unwrap();
        }
        e.close_unit().unwrap();
        assert!(e.tilt_frame(&CellKey::new(vec![3, 2])).is_some());
        // Unit 1: (3,2) goes silent -> its all-zero ladder is retired.
        for t in 4..8 {
            e.ingest(&RawRecord::new(vec![0, 0], t, 1.0)).unwrap();
        }
        e.close_unit().unwrap();
        assert!(
            e.tilt_frame(&CellKey::new(vec![3, 2])).is_none(),
            "all-zero ladder reclaimed"
        );
        assert!(
            e.tilt_frame(&CellKey::new(vec![0, 0])).is_some(),
            "cells with history stay"
        );
        // Unit 2: the cell returns; its recreated frame spans the epoch.
        for t in 8..12 {
            e.ingest(&RawRecord::new(vec![0, 0], t, 1.0)).unwrap();
            e.ingest(&RawRecord::new(vec![3, 2], t, 2.0)).unwrap();
        }
        e.close_unit().unwrap();
        let f = e.tilt_frame(&CellKey::new(vec![3, 2])).unwrap();
        assert_eq!(f.next_unit(), 3);
        assert_eq!(f.merge_all().unwrap().unwrap().interval(), (0, 11));
    }

    #[test]
    fn o_frames_stay_contiguous_through_empty_units() {
        let mut e = engine(ExceptionPolicy::never());
        feed_unit(&mut e, 0, 0.5);
        e.close_unit().unwrap();
        // An empty unit used to skip the o-frame zero fill, making this
        // close fail with a tilt out-of-order error.
        e.close_unit().unwrap();
        feed_unit(&mut e, 2, 0.5);
        e.close_unit().unwrap();
        let apex = CellKey::new(vec![0, 0]);
        let frame = e.o_layer_frame(&apex).expect("o-frame survives");
        assert_eq!(frame.next_unit(), 3);
        assert_eq!(frame.merge_all().unwrap().unwrap().interval(), (0, 11));
    }

    #[test]
    fn drill_at_time_travels_through_the_ladder() {
        let mut e = reorder_engine(4, 2);
        for unit in 0..3 {
            feed_unit(&mut e, unit, if unit == 1 { 2.0 } else { 0.1 });
            e.close_unit().unwrap();
        }
        // Cell (0,0) resolves to the m-layer frame (m before o). Three
        // units in, nothing has promoted: all three sit at the fine
        // level.
        let key = CellKey::new(vec![0, 0]);
        let fine = e.drill_at(0, &key).unwrap();
        assert_eq!(fine.len(), 3);
        assert_eq!(fine[0].level, 0);
        assert_eq!(fine[0].level_name, "unit");
        assert!(fine.windows(2).all(|w| w[0].slot_unit < w[1].slot_unit));
        // The hot unit is still visible — and still exceptional — after
        // the cube moved on.
        let hot = fine.iter().find(|h| h.slot_unit == 1).expect("unit 1");
        assert!(hot.exceptional, "score {}", hot.score);
        assert!(fine
            .iter()
            .filter(|h| h.slot_unit != 1)
            .all(|h| !h.exceptional));
        // Two more units promote the oldest four into a coarse slot:
        // the hot unit's history now lives one level up.
        for unit in 3..5 {
            feed_unit(&mut e, unit, 0.1);
            e.close_unit().unwrap();
        }
        let coarse = e.drill_at(1, &key).unwrap();
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].level_name, "coarse");
        assert_eq!(coarse[0].slot_unit, 0, "units 0-3 promoted");
        // The full ladder reads coarsest-to-finest and covers every slot.
        let frame = e.tilt_frame(&key).unwrap();
        let all = e.drill_history(&key).unwrap();
        assert_eq!(all.len(), frame.retained_slots());
        // Unknown cells have no history; unknown levels are an error.
        assert!(e.drill_at(0, &CellKey::new(vec![1, 1])).unwrap().is_empty());
        assert!(e.drill_at(9, &key).is_err());
        assert!(e.drill_at(9, &CellKey::new(vec![1, 1])).is_err());
    }

    #[test]
    fn watermark_accessors_reflect_the_configuration() {
        let e = engine(ExceptionPolicy::never());
        assert!(e.reordering().is_none());
        assert_eq!(e.watermark_unit(), 0);
        assert!(!e.close_ready());

        let mut e = reorder_engine(3, 2);
        assert_eq!(e.reordering().unwrap().capacity, 3);
        assert_eq!(e.watermark_unit(), -2);
        assert!(!e.close_ready());
        e.ingest(&RawRecord::new(vec![0, 0], 13, 1.0)).unwrap(); // unit 3
        assert!(e.close_ready(), "unit 3 seen, lateness 2: unit 0 sealed");
        let reports = e.drain_ready().unwrap();
        assert_eq!(reports.len(), 1, "only unit 0 is sealed");
        assert_eq!(e.open_unit(), 1);
        let tail = e.flush().unwrap();
        assert_eq!(
            tail.last().unwrap().unit,
            3,
            "flush closes through the data"
        );
        assert_eq!(e.buffered_records(), 0);
    }

    #[test]
    fn popular_path_engine_works_too() {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let mut e = EngineConfig::new(
            schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .with_policy(ExceptionPolicy::slope_threshold(0.5))
        .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
        .with_ticks_per_unit(4)
        .with_algorithm(Algorithm::PopularPath)
        .build()
        .unwrap();
        feed_unit(&mut e, 0, 2.0);
        let report = e.close_unit().unwrap();
        assert_eq!(report.alarms.len(), 1);
        assert_eq!(e.cube().unwrap().algorithm(), Algorithm::PopularPath);
    }
}
