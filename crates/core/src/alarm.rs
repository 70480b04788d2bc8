//! Streaming consumers of [`UnitDelta`]s: the alarm subsystem.
//!
//! The paper's goal is monitoring "unusual changes of trends" *online*,
//! but computing the cube is only half of that — something must react
//! when cells become (or stop being) exceptional. The engines already
//! report exactly those transitions per ingested batch through
//! [`UnitDelta::appeared`]/[`UnitDelta::cleared`], sorted and
//! byte-identical on either table layout, so a consumer can maintain live
//! alarm state purely from the deltas with **no o-layer or
//! exception-store rescans** in the per-unit hot path.
//!
//! This module is that reaction layer:
//!
//! * [`AlarmSink`] — the consumer trait: one
//!   [`on_unit`](AlarmSink::on_unit) call per ingested batch, receiving
//!   the delta plus an [`AlarmContext`] for score lookups into the cube;
//! * [`AlarmLog`] — a ring-buffered, queryable history of exception
//!   *episodes* (`raised_at`/`cleared_at`/`peak_score` per
//!   `(cuboid, cell)`);
//! * [`ThresholdEscalator`] — promotes cells that stay exceptional for
//!   ≥ k units, or flap (raise/clear) ≥ f times within a sliding window
//!   of units, into [`Escalation`]s;
//! * [`DashboardSummary`] — O(1)-per-delta running counts per cuboid
//!   depth plus top-k hottest cells by residual score;
//! * [`SinkSet`] — shared-ownership fan-out used by the stream layer's
//!   `EngineConfig::with_sinks`: sinks live behind `Arc<Mutex<_>>` so
//!   the caller keeps a queryable handle while the engine drives them.
//!
//! A sink error never poisons the pipeline: [`SinkSet::dispatch`]
//! delivers the delta to every sink and collects the failures as
//! [`SinkError`]s for the caller to surface once.
//!
//! # Example
//!
//! ```
//! use regcube_core::alarm::{AlarmContext, AlarmLog, AlarmSink};
//! use regcube_core::{CriticalLayers, ExceptionPolicy, MTuple, MoCubingEngine};
//! use regcube_core::engine::CubingEngine;
//! use regcube_olap::{CubeSchema, CuboidSpec};
//! use regcube_regress::Isb;
//!
//! let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
//! let layers = CriticalLayers::new(
//!     &schema,
//!     CuboidSpec::new(vec![0, 0]),
//!     CuboidSpec::new(vec![2, 2]),
//! ).unwrap();
//! let mut engine = MoCubingEngine::new(
//!     schema, layers, ExceptionPolicy::slope_threshold(0.4),
//! ).unwrap();
//! let mut log = AlarmLog::new(64);
//!
//! // One hot stream: the covering coarse cells raise episodes.
//! let tuples = vec![MTuple::new(vec![0, 0], Isb::new(0, 9, 1.0, 0.9).unwrap())];
//! let delta = engine.ingest_unit(&tuples).unwrap();
//! log.on_unit(&delta, &AlarmContext::new(engine.result(), &delta)).unwrap();
//! assert!(!log.open_episodes().is_empty());
//! assert!(log.open_episodes().iter().all(|e| e.raised_at == 0));
//! ```

use crate::engine::UnitDelta;
use crate::measure::exception_score;
use crate::result::CubeResult;
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::CuboidSpec;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A between-layer cell address, the unit alarm state is keyed by.
pub type CellAddr = (CuboidSpec, CellKey);

/// What a sink can look up while consuming one delta: the engine's cube
/// after the batch was applied, plus the batch's unit clock.
///
/// The unit ordinal is the **cubing engine's** (increments per opened
/// window; empty stream units never reach the engine or its sinks).
#[derive(Debug, Clone, Copy)]
pub struct AlarmContext<'a> {
    result: &'a CubeResult,
    unit: u64,
    window: (i64, i64),
}

impl<'a> AlarmContext<'a> {
    /// Builds the context for one delta against the post-batch cube.
    pub fn new(result: &'a CubeResult, delta: &UnitDelta) -> Self {
        AlarmContext {
            result,
            unit: delta.unit,
            window: delta.window,
        }
    }

    /// The unit ordinal the delta belongs to.
    #[inline]
    pub fn unit(&self) -> u64 {
        self.unit
    }

    /// The unit's tick interval.
    #[inline]
    pub fn window(&self) -> (i64, i64) {
        self.window
    }

    /// The cube after the batch was applied.
    #[inline]
    pub fn result(&self) -> &'a CubeResult {
        self.result
    }

    /// The residual (exception) score of a retained cell — |slope| of
    /// its regression, the quantity thresholds test. `None` when the
    /// cube retains no such cell.
    pub fn score(&self, cuboid: &CuboidSpec, cell: &CellKey) -> Option<f64> {
        self.result.get(cuboid, cell).map(exception_score)
    }
}

/// A streaming consumer of [`UnitDelta`]s.
///
/// Implementations maintain whatever live view they need (episode logs,
/// dashboards, escalation state) strictly from the per-batch
/// appeared/cleared transitions — the contract that makes them cheap.
/// Deltas arrive in unit order and with `appeared`/`cleared` sorted by
/// `(cuboid, cell)`.
///
/// # Errors
/// A sink may fail ([`on_unit`](Self::on_unit) returns the crate error);
/// dispatchers treat that as the sink's problem, not the engine's — the
/// batch stays applied and the error is surfaced once to the caller.
///
/// ```
/// use regcube_core::alarm::{AlarmContext, AlarmSink};
/// use regcube_core::engine::{CubingEngine, MoCubingEngine, UnitDelta};
/// use regcube_core::{CriticalLayers, ExceptionPolicy, MTuple};
/// use regcube_olap::{CubeSchema, CuboidSpec};
/// use regcube_regress::Isb;
///
/// // The smallest useful sink: count exception transitions.
/// struct Counter {
///     raised: usize,
///     cleared: usize,
/// }
/// impl AlarmSink for Counter {
///     fn name(&self) -> &'static str {
///         "counter"
///     }
///     fn on_unit(
///         &mut self,
///         delta: &UnitDelta,
///         _ctx: &AlarmContext<'_>,
///     ) -> regcube_core::Result<()> {
///         self.raised += delta.appeared.len();
///         self.cleared += delta.cleared.len();
///         Ok(())
///     }
/// }
///
/// let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
/// let layers = CriticalLayers::new(
///     &schema,
///     CuboidSpec::new(vec![0, 0]),
///     CuboidSpec::new(vec![2, 2]),
/// ).unwrap();
/// let mut engine = MoCubingEngine::new(
///     schema,
///     layers,
///     ExceptionPolicy::slope_threshold(0.5),
/// ).unwrap();
/// let delta = engine
///     .ingest_unit(&[MTuple::new(vec![0, 0], Isb::new(0, 9, 1.0, 0.9).unwrap())])
///     .unwrap();
/// let mut sink = Counter { raised: 0, cleared: 0 };
/// sink.on_unit(&delta, &AlarmContext::new(engine.result(), &delta)).unwrap();
/// assert!(sink.raised > 0 && sink.cleared == 0);
/// ```
pub trait AlarmSink: Send {
    /// A short static name identifying the sink in error reports.
    fn name(&self) -> &'static str {
        "sink"
    }

    /// Consumes one batch's delta.
    ///
    /// # Errors
    /// Implementation-defined; see the trait docs for how dispatchers
    /// handle failures.
    fn on_unit(&mut self, delta: &UnitDelta, ctx: &AlarmContext<'_>) -> Result<()>;

    /// Consumes the late-record corrections applied since the previous
    /// batch (watermark-based out-of-order ingestion only; see
    /// [`LateAmendment`]). The default implementation ignores them —
    /// sinks that only track exception transitions need not care that
    /// warehoused history was corrected.
    ///
    /// # Errors
    /// Implementation-defined, handled like [`on_unit`](Self::on_unit).
    fn on_late_amendments(&mut self, amendments: &[LateAmendment]) -> Result<()> {
        let _ = amendments;
        Ok(())
    }

    /// Consumes one alarm revision: a late amendment changed a
    /// warehoused unit's exception verdict (or its score), so the
    /// exception history the sink derived from past deltas is stale for
    /// that `(cell, unit)`. The default implementation ignores
    /// revisions — sinks that only care about the live frontier need
    /// not replay history. [`AlarmLog`] and [`DashboardSummary`] patch
    /// their state so episode history and active sets never contradict
    /// the amended tilt frames.
    ///
    /// # Errors
    /// Implementation-defined, handled like [`on_unit`](Self::on_unit).
    fn on_revision(&mut self, revision: &AlarmRevision) -> Result<()> {
        let _ = revision;
        Ok(())
    }
}

/// One late-record correction applied to a cell's warehoused tilt-frame
/// history.
///
/// When a record arrives for a unit that has already closed but is still
/// newer than the low watermark, the stream layer amends the affected
/// m-layer and o-layer tilt-frame slots in place (exact by linearity of
/// the LSE fit — `Isb::amend_tick`) instead of dropping the record. Each
/// such correction is reported so downstream consumers see *corrections
/// rather than silence*: dashboards can re-render the amended span,
/// auditors can log it.
#[derive(Debug, Clone, PartialEq)]
pub struct LateAmendment {
    /// The m-layer cell whose history absorbed the record.
    pub m_cell: CellKey,
    /// The o-layer projection of that cell, amended alongside.
    pub o_cell: CellKey,
    /// The (already closed) stream unit the record belonged to.
    pub unit: u64,
    /// The record's tick.
    pub tick: i64,
    /// The record's value — the delta folded into the warehoused fits.
    pub delta: f64,
    /// Tilt level of the m-cell frame slot that absorbed the amendment.
    pub m_level: usize,
    /// Tilt level of the o-cell frame slot that absorbed the amendment.
    pub o_level: usize,
}

impl fmt::Display for LateAmendment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "late {} @ tick {} (unit {}): m-cell {} level {}, o-cell {} level {}",
            self.delta, self.tick, self.unit, self.m_cell, self.m_level, self.o_cell, self.o_level
        )
    }
}

/// How a late amendment changed a warehoused slot's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevisionKind {
    /// The slot was exceptional before the amendment and is not any
    /// more: the alarm it raised must be withdrawn.
    Retracted,
    /// The slot was not exceptional before the amendment and now is:
    /// an alarm that should have fired.
    Raised,
    /// The slot was and stays exceptional, but its score moved: the
    /// alarm stands with a corrected magnitude.
    Rescored,
}

/// A change to a warehoused unit's exception verdict caused by a late
/// amendment.
///
/// When a late record amends a closed unit's tilt-frame slot, the
/// amended slot is re-screened with the engine's policy. A verdict that
/// flips or moves is published as one of these through
/// [`AlarmSink::on_revision`], so downstream exception history can be
/// patched instead of silently contradicting the amended frames.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmRevision {
    /// Whether the verdict was retracted, raised or rescored.
    pub kind: RevisionKind,
    /// The cuboid of the revised cell (the o-layer for engine-raised
    /// alarms).
    pub cuboid: CuboidSpec,
    /// The revised cell.
    pub cell: CellKey,
    /// The slot's unit at its tilt level (at level 0, the finest stream
    /// unit whose verdict changed).
    pub unit: u64,
    /// Tilt level of the re-screened slot (0 = finest; coarser slots
    /// aggregate several units).
    pub level: usize,
    /// The residual score before the amendment.
    pub old_score: f64,
    /// The residual score after the amendment.
    pub new_score: f64,
}

impl fmt::Display for AlarmRevision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            RevisionKind::Retracted => "retracted",
            RevisionKind::Raised => "raised",
            RevisionKind::Rescored => "rescored",
        };
        write!(
            f,
            "revision {kind} {}{} unit {} L{} score {:.6} -> {:.6}",
            self.cuboid, self.cell, self.unit, self.level, self.old_score, self.new_score
        )
    }
}

// ---------------------------------------------------------------------------
// AlarmLog
// ---------------------------------------------------------------------------

/// One exception episode of a between-layer cell: from the unit its
/// exception status appeared to the unit it cleared (open while `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// The cuboid of the exceptional cell.
    pub cuboid: CuboidSpec,
    /// The cell key within the cuboid.
    pub cell: CellKey,
    /// Unit ordinal the episode was raised at. Stable across unit
    /// rollovers: a cell that stays exceptional into the next window is
    /// reported in neither `appeared` nor `cleared`, so its episode
    /// simply stays open.
    pub raised_at: u64,
    /// Unit ordinal the episode cleared at (`None` while open).
    pub cleared_at: Option<u64>,
    /// The largest residual score observed while the episode was open.
    pub peak_score: f64,
}

impl Episode {
    /// Whether the episode is still open.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.cleared_at.is_none()
    }
}

impl fmt::Display for Episode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} raised_at={} cleared_at={} peak={:.6}",
            self.cuboid,
            self.cell,
            self.raised_at,
            match self.cleared_at {
                Some(u) => u.to_string(),
                None => "open".to_string(),
            },
            self.peak_score
        )
    }
}

/// A ring-buffered, queryable history of exception episodes.
///
/// Open episodes are tracked per `(cuboid, cell)`; each `cleared`
/// transition closes the matching episode and moves it into a bounded
/// ring of closed history (oldest evicted first). Peak scores of open
/// episodes are refreshed every unit from the cube's retained cells —
/// O(open episodes) per unit, never a table scan.
///
/// Cells whose residual score is missing or NaN (broken-sensor streams)
/// **never open episodes**; the suppression is counted in
/// [`suppressed`](Self::suppressed).
#[derive(Debug, Clone)]
pub struct AlarmLog {
    capacity: usize,
    open: FxHashMap<CellAddr, Episode>,
    closed: VecDeque<Episode>,
    opened_total: u64,
    closed_total: u64,
    evicted: u64,
    suppressed: u64,
    /// Episode patches applied by alarm revisions (late amendments that
    /// flipped or rescored a warehoused unit's verdict).
    revised_total: u64,
    /// The unit of the last consumed delta — the live frontier, used to
    /// decide whether a revised raise opens a live episode or lands in
    /// the closed ring as history.
    last_unit: Option<u64>,
}

impl AlarmLog {
    /// Creates a log retaining at most `capacity` closed episodes
    /// (clamped to at least 1). Open episodes are unbounded — they
    /// mirror the cube's live exception set.
    pub fn new(capacity: usize) -> Self {
        AlarmLog {
            capacity: capacity.max(1),
            open: FxHashMap::default(),
            closed: VecDeque::new(),
            opened_total: 0,
            closed_total: 0,
            evicted: 0,
            suppressed: 0,
            revised_total: 0,
            last_unit: None,
        }
    }

    /// Open episodes, sorted by `(cuboid, cell)`.
    pub fn open_episodes(&self) -> Vec<&Episode> {
        let mut out: Vec<&Episode> = self.open.values().collect();
        out.sort_unstable_by(|a, b| (&a.cuboid, &a.cell).cmp(&(&b.cuboid, &b.cell)));
        out
    }

    /// Closed episodes still in the ring, oldest first.
    pub fn closed_episodes(&self) -> impl Iterator<Item = &Episode> {
        self.closed.iter()
    }

    /// The episode currently open for a cell, if any.
    pub fn open_episode(&self, cuboid: &CuboidSpec, cell: &CellKey) -> Option<&Episode> {
        self.open.get(&(cuboid.clone(), cell.clone()))
    }

    /// Episodes (open first, then ring history oldest-first) of one cell.
    pub fn episodes_for(&self, cuboid: &CuboidSpec, cell: &CellKey) -> Vec<&Episode> {
        let mut out: Vec<&Episode> = self.open_episode(cuboid, cell).into_iter().collect();
        out.extend(
            self.closed
                .iter()
                .filter(|e| &e.cuboid == cuboid && &e.cell == cell),
        );
        out
    }

    /// Episodes ever opened.
    #[inline]
    pub fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Episodes ever closed.
    #[inline]
    pub fn closed_total(&self) -> u64 {
        self.closed_total
    }

    /// Closed episodes evicted from the ring by newer ones.
    #[inline]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// `appeared` transitions suppressed because the cell had no finite
    /// residual score (NaN/missing measures never alarm).
    #[inline]
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Number of currently open episodes.
    #[inline]
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Episode patches applied because of alarm revisions (see
    /// [`AlarmSink::on_revision`]).
    #[inline]
    pub fn revised_total(&self) -> u64 {
        self.revised_total
    }
}

impl AlarmSink for AlarmLog {
    fn name(&self) -> &'static str {
        "alarm-log"
    }

    fn on_unit(&mut self, delta: &UnitDelta, ctx: &AlarmContext<'_>) -> Result<()> {
        let unit = ctx.unit();
        self.last_unit = Some(unit);
        for (cuboid, cell) in &delta.appeared {
            let score = ctx.score(cuboid, cell).unwrap_or(f64::NAN);
            if !score.is_finite() {
                self.suppressed += 1;
                continue;
            }
            // Re-raising an open episode keeps its original raise point.
            self.open
                .entry((cuboid.clone(), cell.clone()))
                .or_insert_with(|| {
                    self.opened_total += 1;
                    Episode {
                        cuboid: cuboid.clone(),
                        cell: cell.clone(),
                        raised_at: unit,
                        cleared_at: None,
                        peak_score: score,
                    }
                });
        }
        // Refresh peaks of everything open from the post-batch cube: a
        // persisting episode's score keeps moving between its raise and
        // clear transitions.
        for ((cuboid, cell), episode) in &mut self.open {
            if let Some(score) = ctx.score(cuboid, cell) {
                if score > episode.peak_score {
                    episode.peak_score = score;
                }
            }
        }
        for (cuboid, cell) in &delta.cleared {
            // Cleared transitions without an open episode are the
            // suppressed (non-finite) raises; ignore them.
            if let Some(mut episode) = self.open.remove(&(cuboid.clone(), cell.clone())) {
                episode.cleared_at = Some(unit);
                self.closed_total += 1;
                if self.closed.len() == self.capacity {
                    self.closed.pop_front();
                    self.evicted += 1;
                }
                self.closed.push_back(episode);
            }
        }
        Ok(())
    }

    fn on_revision(&mut self, revision: &AlarmRevision) -> Result<()> {
        // Episode history is unit-grained; coarser slots aggregate many
        // units, so only finest-level revisions map onto episodes.
        if revision.level != 0 {
            return Ok(());
        }
        let addr = (revision.cuboid.clone(), revision.cell.clone());
        let (unit, new_score) = (revision.unit, revision.new_score);
        match revision.kind {
            RevisionKind::Retracted => {
                let mut patched = false;
                if let Some(episode) = self.open.get_mut(&addr) {
                    if episode.raised_at == unit {
                        // The raise itself was invalidated. An episode
                        // still open past the revised unit stayed
                        // exceptional at every later unit (no cleared
                        // transition), so it survives from the next
                        // unit on; an episode whose only unit was the
                        // revised one disappears entirely.
                        if self.last_unit.is_some_and(|last| last > unit) {
                            episode.raised_at = unit + 1;
                        } else {
                            self.open.remove(&addr);
                        }
                        patched = true;
                    }
                }
                let before = self.closed.len();
                // A one-unit closed episode covering exactly the
                // revised unit was raised by the now-retracted verdict.
                self.closed.retain(|e| {
                    !(e.cuboid == addr.0
                        && e.cell == addr.1
                        && e.raised_at == unit
                        && e.cleared_at == Some(unit + 1))
                });
                patched |= self.closed.len() != before;
                if patched {
                    self.revised_total += 1;
                }
            }
            RevisionKind::Raised => {
                if !new_score.is_finite() {
                    self.suppressed += 1;
                    return Ok(());
                }
                if let Some(episode) = self.open.get_mut(&addr) {
                    // The episode now started earlier than first seen.
                    if unit < episode.raised_at {
                        episode.raised_at = unit;
                    }
                    if new_score > episode.peak_score {
                        episode.peak_score = new_score;
                    }
                    self.revised_total += 1;
                } else if self.last_unit.map_or(true, |last| unit >= last) {
                    // The revised unit is the live frontier: the alarm
                    // should be burning right now.
                    self.opened_total += 1;
                    self.revised_total += 1;
                    self.open.insert(
                        addr.clone(),
                        Episode {
                            cuboid: addr.0,
                            cell: addr.1,
                            raised_at: unit,
                            cleared_at: None,
                            peak_score: new_score,
                        },
                    );
                } else {
                    // Historical: the verdict held for that one unit
                    // only (later units reported no transition), so the
                    // patched record is a closed one-unit episode.
                    self.opened_total += 1;
                    self.closed_total += 1;
                    self.revised_total += 1;
                    if self.closed.len() == self.capacity {
                        self.closed.pop_front();
                        self.evicted += 1;
                    }
                    self.closed.push_back(Episode {
                        cuboid: addr.0,
                        cell: addr.1,
                        raised_at: unit,
                        cleared_at: Some(unit + 1),
                        peak_score: new_score,
                    });
                }
            }
            RevisionKind::Rescored => {
                if let Some(episode) = self.open.get_mut(&addr) {
                    if new_score.is_finite() && new_score > episode.peak_score {
                        episode.peak_score = new_score;
                        self.revised_total += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ThresholdEscalator
// ---------------------------------------------------------------------------

/// Why a cell was escalated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscalationReason {
    /// The cell stayed exceptional for at least this many consecutive
    /// units.
    Persistent {
        /// Consecutive exceptional units at escalation time.
        units: u64,
    },
    /// The cell's exception status flipped (raise or clear) at least
    /// this many times within the sliding window.
    Flapping {
        /// Raise/clear transitions observed inside the window.
        transitions: u32,
    },
}

/// One promoted condition: a cell whose exception episodes crossed the
/// escalator's persistence or flap limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Escalation {
    /// The cuboid of the escalated cell.
    pub cuboid: CuboidSpec,
    /// The cell key within the cuboid.
    pub cell: CellKey,
    /// Unit ordinal the escalation fired at.
    pub unit: u64,
    /// What crossed the limit.
    pub reason: EscalationReason,
}

#[derive(Debug, Clone, Default)]
struct CellTrack {
    /// Unit the current open episode was raised at.
    raised_at: Option<u64>,
    /// Units of raise/clear transitions inside the sliding window.
    transitions: VecDeque<u64>,
    /// The current open episode already escalated as persistent.
    persist_escalated: bool,
    /// Last unit a flapping escalation fired (re-fires only after a
    /// full window passes — flapping is chronic by nature).
    last_flap: Option<u64>,
}

/// Escalates cells whose episodes are *persistent* (exceptional for
/// ≥ `persist_units` consecutive units) or *flapping* (≥ `flap_limit`
/// raise/clear transitions within the last `flap_window` units).
///
/// Episode lifecycle is carried across unit-window rollovers for free:
/// the engines report a cell that stays exceptional into the next
/// window in neither `appeared` nor `cleared`, so its raise point —
/// like a tilted-time-frame slot — survives the rollover, and
/// persistence accumulates across windows. The flap window slides in
/// the same finest units the tilt frame ingests, aging transitions out
/// exactly like expiring fine slots.
///
/// Per-unit cost is O(|delta|) for the transition bookkeeping plus
/// O(tracked cells) for the persistence sweep, where tracked cells are
/// the open episodes and recently-flapped cells — never a table scan.
#[derive(Debug, Clone)]
pub struct ThresholdEscalator {
    persist_units: u64,
    flap_limit: u32,
    flap_window: u64,
    cells: FxHashMap<CellAddr, CellTrack>,
    escalations: Vec<Escalation>,
}

impl ThresholdEscalator {
    /// Creates an escalator: persistence after `persist_units`
    /// consecutive exceptional units (clamped to ≥ 1), flapping after
    /// `flap_limit` transitions (clamped to ≥ 2) within `flap_window`
    /// units (clamped to ≥ 1).
    pub fn new(persist_units: u64, flap_limit: u32, flap_window: u64) -> Self {
        ThresholdEscalator {
            persist_units: persist_units.max(1),
            flap_limit: flap_limit.max(2),
            flap_window: flap_window.max(1),
            cells: FxHashMap::default(),
            escalations: Vec::new(),
        }
    }

    /// All escalations so far, in firing order (within one unit, sorted
    /// by `(cuboid, cell)`, so deterministic).
    pub fn escalations(&self) -> &[Escalation] {
        &self.escalations
    }

    /// Removes and returns all recorded escalations.
    pub fn drain_escalations(&mut self) -> Vec<Escalation> {
        std::mem::take(&mut self.escalations)
    }

    /// Cells currently tracked (open or recently flapped).
    #[inline]
    pub fn tracked_cells(&self) -> usize {
        self.cells.len()
    }
}

impl AlarmSink for ThresholdEscalator {
    fn name(&self) -> &'static str {
        "threshold-escalator"
    }

    fn on_unit(&mut self, delta: &UnitDelta, ctx: &AlarmContext<'_>) -> Result<()> {
        let unit = ctx.unit();
        for (cuboid, cell) in &delta.appeared {
            if !ctx.score(cuboid, cell).unwrap_or(f64::NAN).is_finite() {
                continue; // mirror AlarmLog: NaN never opens an episode
            }
            let track = self
                .cells
                .entry((cuboid.clone(), cell.clone()))
                .or_default();
            if track.raised_at.is_none() {
                track.raised_at = Some(unit);
                track.transitions.push_back(unit);
            }
        }
        for (cuboid, cell) in &delta.cleared {
            if let Some(track) = self.cells.get_mut(&(cuboid.clone(), cell.clone())) {
                if track.raised_at.take().is_some() {
                    track.persist_escalated = false;
                    track.transitions.push_back(unit);
                }
            }
        }

        // Age the flap window, evaluate limits, drop dead tracks.
        let horizon = (unit + 1).saturating_sub(self.flap_window);
        let mut fired: Vec<Escalation> = Vec::new();
        self.cells.retain(|(cuboid, cell), track| {
            while track.transitions.front().is_some_and(|&t| t < horizon) {
                track.transitions.pop_front();
            }
            if let Some(raised) = track.raised_at {
                let span = unit - raised + 1;
                if !track.persist_escalated && span >= self.persist_units {
                    track.persist_escalated = true;
                    fired.push(Escalation {
                        cuboid: cuboid.clone(),
                        cell: cell.clone(),
                        unit,
                        reason: EscalationReason::Persistent { units: span },
                    });
                }
            }
            let flaps = track.transitions.len() as u32;
            if flaps >= self.flap_limit
                && track
                    .last_flap
                    .map_or(true, |last| unit >= last + self.flap_window)
            {
                track.last_flap = Some(unit);
                fired.push(Escalation {
                    cuboid: cuboid.clone(),
                    cell: cell.clone(),
                    unit,
                    reason: EscalationReason::Flapping { transitions: flaps },
                });
            }
            track.raised_at.is_some() || !track.transitions.is_empty()
        });
        // Hash-map sweep order is arbitrary; keep the record deterministic.
        fired.sort_unstable_by(|a, b| {
            (
                &a.cuboid,
                &a.cell,
                matches!(a.reason, EscalationReason::Flapping { .. }),
            )
                .cmp(&(
                    &b.cuboid,
                    &b.cell,
                    matches!(b.reason, EscalationReason::Flapping { .. }),
                ))
        });
        self.escalations.extend(fired);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DashboardSummary
// ---------------------------------------------------------------------------

/// O(1)-per-delta running dashboard of the live exception set.
///
/// Maintains, purely from appeared/cleared transitions:
///
/// * the count of active exception cells per cuboid **depth** (total
///   lattice depth — the drill level an analyst watches),
/// * the residual score of every active cell (refreshed on raise), for
///   top-k "hottest cells" queries,
/// * appeared/cleared/unit counters.
///
/// The per-unit update cost is O(|delta|): no o-layer or
/// exception-store rescans ever happen here. ([`hottest`](Self::hottest)
/// sorts the active set at *query* time, off the hot path.)
#[derive(Debug, Clone, Default)]
pub struct DashboardSummary {
    active: FxHashMap<CellAddr, f64>,
    by_depth: FxHashMap<u32, u64>,
    units_seen: u64,
    appeared_total: u64,
    cleared_total: u64,
    /// Alarm revisions consumed (frontier patches and historical ones).
    revisions_seen: u64,
    /// The unit of the last consumed delta — revisions of that unit
    /// patch the active set; older ones only count.
    last_unit: Option<u64>,
}

impl DashboardSummary {
    /// Creates an empty dashboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Currently active exception cells.
    #[inline]
    pub fn active_cells(&self) -> u64 {
        self.active.len() as u64
    }

    /// Active exception cells whose cuboid has the given total depth.
    pub fn active_at_depth(&self, depth: u32) -> u64 {
        self.by_depth.get(&depth).copied().unwrap_or(0)
    }

    /// `(depth, active count)` pairs, sorted by depth.
    pub fn depth_counts(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .by_depth
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&d, &n)| (d, n))
            .collect();
        out.sort_unstable();
        out
    }

    /// The `k` hottest active cells, hottest first, ties broken by
    /// `(cuboid, cell)`.
    ///
    /// Cells are ranked by their residual score **at raise time** — the
    /// price of the strict O(|delta|) hot path is that a cell ramping
    /// further *after* it raised keeps its entry score (its status
    /// never transitions, so no delta mentions it). For live scores use
    /// [`AlarmLog`]'s per-episode `peak_score` (refreshed every unit)
    /// or re-score the returned cells against the current cube.
    pub fn hottest(&self, k: usize) -> Vec<(&CuboidSpec, &CellKey, f64)> {
        let mut cells: Vec<(&CuboidSpec, &CellKey, f64)> = self
            .active
            .iter()
            .map(|((cuboid, cell), &score)| (cuboid, cell, score))
            .collect();
        cells.sort_unstable_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        cells.truncate(k);
        cells
    }

    /// Units consumed.
    #[inline]
    pub fn units_seen(&self) -> u64 {
        self.units_seen
    }

    /// Appeared transitions consumed (including suppressed ones).
    #[inline]
    pub fn appeared_total(&self) -> u64 {
        self.appeared_total
    }

    /// Cleared transitions that closed an active cell.
    #[inline]
    pub fn cleared_total(&self) -> u64 {
        self.cleared_total
    }

    /// Alarm revisions consumed (see [`AlarmSink::on_revision`]).
    #[inline]
    pub fn revisions_seen(&self) -> u64 {
        self.revisions_seen
    }
}

impl AlarmSink for DashboardSummary {
    fn name(&self) -> &'static str {
        "dashboard-summary"
    }

    fn on_unit(&mut self, delta: &UnitDelta, ctx: &AlarmContext<'_>) -> Result<()> {
        self.units_seen += 1;
        self.last_unit = Some(ctx.unit());
        for (cuboid, cell) in &delta.appeared {
            self.appeared_total += 1;
            let score = ctx.score(cuboid, cell).unwrap_or(f64::NAN);
            if !score.is_finite() {
                continue; // mirror AlarmLog: NaN never activates a cell
            }
            if self
                .active
                .insert((cuboid.clone(), cell.clone()), score)
                .is_none()
            {
                *self.by_depth.entry(cuboid.total_depth()).or_insert(0) += 1;
            }
        }
        for (cuboid, cell) in &delta.cleared {
            if self
                .active
                .remove(&(cuboid.clone(), cell.clone()))
                .is_some()
            {
                self.cleared_total += 1;
                if let Some(n) = self.by_depth.get_mut(&cuboid.total_depth()) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        Ok(())
    }

    fn on_revision(&mut self, revision: &AlarmRevision) -> Result<()> {
        self.revisions_seen += 1;
        // Only frontier-unit, base-resolution revisions can change what
        // "active right now" means; historical ones were already
        // superseded by later deltas and are only counted.
        if revision.level != 0 || Some(revision.unit) != self.last_unit {
            return Ok(());
        }
        let addr = (revision.cuboid.clone(), revision.cell.clone());
        let new_score = revision.new_score;
        match revision.kind {
            RevisionKind::Retracted => {
                if self.active.remove(&addr).is_some() {
                    self.cleared_total += 1;
                    if let Some(n) = self.by_depth.get_mut(&addr.0.total_depth()) {
                        *n = n.saturating_sub(1);
                    }
                }
            }
            RevisionKind::Raised => {
                self.appeared_total += 1;
                if new_score.is_finite() && self.active.insert(addr.clone(), new_score).is_none() {
                    *self.by_depth.entry(addr.0.total_depth()).or_insert(0) += 1;
                }
            }
            RevisionKind::Rescored => {
                if new_score.is_finite() {
                    if let Some(score) = self.active.get_mut(&addr) {
                        *score = new_score;
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SinkSet — shared-ownership fan-out
// ---------------------------------------------------------------------------

/// A sink shared between the engine (which drives it) and the caller
/// (who queries it): any [`AlarmSink`] behind `Arc<Mutex<_>>`.
pub type SharedSink = Arc<Mutex<dyn AlarmSink + Send>>;

/// Wraps a sink for shared ownership: the returned handle stays
/// queryable after a clone of it is registered with an engine.
///
/// ```
/// use regcube_core::alarm::{self, AlarmLog, SharedSink};
///
/// let log = alarm::shared(AlarmLog::new(16));
/// let registered: SharedSink = log.clone();   // give this to the engine
/// assert_eq!(log.lock().unwrap().open_count(), 0);
/// # let _ = registered;
/// ```
pub fn shared<S: AlarmSink + 'static>(sink: S) -> Arc<Mutex<S>> {
    Arc::new(Mutex::new(sink))
}

/// One sink failure surfaced by [`SinkSet::dispatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError {
    /// The failing sink's [`AlarmSink::name`].
    pub sink: &'static str,
    /// The rendered error.
    pub message: String,
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink {}: {}", self.sink, self.message)
    }
}

/// An ordered set of shared sinks, dispatched to in registration order.
#[derive(Clone, Default)]
pub struct SinkSet {
    sinks: Vec<SharedSink>,
}

impl fmt::Debug for SinkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SinkSet({} sinks)", self.sinks.len())
    }
}

impl SinkSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sink.
    pub fn push(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }

    /// Number of registered sinks.
    #[inline]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Delivers one delta to every sink. A failing (or even panicked —
    /// poisoned-mutex) sink never stops the fan-out: each failure is
    /// collected as a [`SinkError`] and the remaining sinks still run,
    /// so the caller surfaces errors exactly once and the engine's own
    /// state is untouched.
    pub fn dispatch(&self, delta: &UnitDelta, ctx: &AlarmContext<'_>) -> Vec<SinkError> {
        let mut errors = Vec::new();
        for sink in &self.sinks {
            let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = guard.on_unit(delta, ctx) {
                errors.push(SinkError {
                    sink: guard.name(),
                    message: e.to_string(),
                });
            }
        }
        errors
    }

    /// Delivers a batch of late-record corrections to every sink, with
    /// the same error isolation as [`dispatch`](Self::dispatch). An
    /// empty batch is a no-op (sinks are not called).
    pub fn dispatch_amendments(&self, amendments: &[LateAmendment]) -> Vec<SinkError> {
        let mut errors = Vec::new();
        if amendments.is_empty() {
            return errors;
        }
        for sink in &self.sinks {
            let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = guard.on_late_amendments(amendments) {
                errors.push(SinkError {
                    sink: guard.name(),
                    message: e.to_string(),
                });
            }
        }
        errors
    }

    /// Delivers a batch of alarm revisions (one call per revision per
    /// sink, in batch order) with the same error isolation as
    /// [`dispatch`](Self::dispatch). An empty batch is a no-op.
    pub fn dispatch_revisions(&self, revisions: &[AlarmRevision]) -> Vec<SinkError> {
        let mut errors = Vec::new();
        if revisions.is_empty() {
            return errors;
        }
        for sink in &self.sinks {
            let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
            for revision in revisions {
                if let Err(e) = guard.on_revision(revision) {
                    errors.push(SinkError {
                        sink: guard.name(),
                        message: e.to_string(),
                    });
                }
            }
        }
        errors
    }
}

impl FromIterator<SharedSink> for SinkSet {
    fn from_iter<I: IntoIterator<Item = SharedSink>>(iter: I) -> Self {
        SinkSet {
            sinks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CubingEngine, MoCubingEngine};
    use crate::{CriticalLayers, ExceptionPolicy, MTuple};
    use regcube_olap::CubeSchema;
    use regcube_regress::Isb;

    fn setup() -> MoCubingEngine {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        MoCubingEngine::new(schema, layers, ExceptionPolicy::slope_threshold(0.4)).unwrap()
    }

    fn unit_tuples(unit: i64, slope: f64) -> Vec<MTuple> {
        let (s, e) = (unit * 10, unit * 10 + 9);
        vec![
            MTuple::new(vec![0, 0], Isb::new(s, e, 1.0, slope).unwrap()),
            MTuple::new(vec![3, 3], Isb::new(s, e, 1.0, 0.0).unwrap()),
        ]
    }

    /// Runs `units` slopes through a fresh engine and every given sink.
    fn drive(sinks: &SinkSet, slopes: &[f64]) -> Vec<Vec<SinkError>> {
        let mut engine = setup();
        slopes
            .iter()
            .enumerate()
            .map(|(u, &slope)| {
                let delta = engine.ingest_unit(&unit_tuples(u as i64, slope)).unwrap();
                sinks.dispatch(&delta, &AlarmContext::new(engine.result(), &delta))
            })
            .collect()
    }

    #[test]
    fn alarm_log_tracks_episode_lifecycle() {
        let log = shared(AlarmLog::new(8));
        let sinks: SinkSet = [log.clone() as SharedSink].into_iter().collect();
        // Hot for units 0-2, calm at 3, hot again at 4.
        let errors = drive(&sinks, &[0.9, 0.9, 0.9, 0.0, 0.9]);
        assert!(errors.iter().all(Vec::is_empty));

        let log = log.lock().unwrap();
        assert!(log.open_count() > 0);
        // Episodes raised at unit 0 survived the rollovers to unit 2.
        for e in log.open_episodes() {
            assert_eq!(e.raised_at, 4, "second episode opened at unit 4");
        }
        for e in log.closed_episodes() {
            assert_eq!(e.raised_at, 0, "first episode raised at 0: {e}");
            assert_eq!(e.cleared_at, Some(3), "cleared at the calm unit: {e}");
            assert!(e.peak_score > 0.0);
        }
        assert_eq!(
            log.opened_total(),
            log.closed_total() + log.open_count() as u64
        );
        assert_eq!(log.suppressed(), 0);
    }

    #[test]
    fn alarm_log_peak_follows_the_score() {
        let log = shared(AlarmLog::new(8));
        let sinks: SinkSet = [log.clone() as SharedSink].into_iter().collect();
        drive(&sinks, &[0.5, 1.5, 0.8]);
        let log = log.lock().unwrap();
        for e in log.open_episodes() {
            assert_eq!(e.raised_at, 0);
            assert!(
                e.peak_score >= 1.0,
                "peak {} must capture the unit-1 spike",
                e.peak_score
            );
        }
    }

    #[test]
    fn alarm_log_ring_evicts_oldest() {
        let log = shared(AlarmLog::new(1));
        let sinks: SinkSet = [log.clone() as SharedSink].into_iter().collect();
        // Two full episodes per cell: raise/clear, raise/clear.
        drive(&sinks, &[0.9, 0.0, 0.9, 0.0]);
        let log = log.lock().unwrap();
        assert_eq!(log.closed_episodes().count(), 1, "ring capacity 1");
        assert!(log.evicted() > 0);
        assert_eq!(log.open_count(), 0);
    }

    #[test]
    fn missing_scores_never_open_episodes() {
        let mut engine = setup();
        let delta = engine.ingest_unit(&unit_tuples(0, 0.0)).unwrap();
        // Hand-crafted delta naming a cell the cube does not retain.
        let fake = UnitDelta {
            appeared: vec![(CuboidSpec::new(vec![1, 1]), CellKey::new(vec![9, 9]))],
            ..delta.clone()
        };
        let mut log = AlarmLog::new(4);
        log.on_unit(&fake, &AlarmContext::new(engine.result(), &fake))
            .unwrap();
        assert_eq!(log.open_count(), 0);
        assert_eq!(log.suppressed(), 1);
        // The matching cleared transition is ignored, not mis-closed.
        let fake_clear = UnitDelta {
            appeared: Vec::new(),
            cleared: vec![(CuboidSpec::new(vec![1, 1]), CellKey::new(vec![9, 9]))],
            ..delta
        };
        log.on_unit(
            &fake_clear,
            &AlarmContext::new(engine.result(), &fake_clear),
        )
        .unwrap();
        assert_eq!(log.closed_total(), 0);
    }

    #[test]
    fn escalator_promotes_persistent_cells_once() {
        let esc = shared(ThresholdEscalator::new(3, 99, 8));
        let sinks: SinkSet = [esc.clone() as SharedSink].into_iter().collect();
        drive(&sinks, &[0.9, 0.9, 0.9, 0.9]);
        let esc = esc.lock().unwrap();
        assert!(!esc.escalations().is_empty());
        for e in esc.escalations() {
            assert_eq!(e.unit, 2, "k=3 units of persistence fire at unit 2");
            assert_eq!(e.reason, EscalationReason::Persistent { units: 3 });
        }
        // One escalation per cell, not one per unit.
        let mut cells: Vec<_> = esc
            .escalations()
            .iter()
            .map(|e| (&e.cuboid, &e.cell))
            .collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), esc.escalations().len());
    }

    #[test]
    fn escalator_detects_flapping() {
        let esc = shared(ThresholdEscalator::new(99, 3, 6));
        let sinks: SinkSet = [esc.clone() as SharedSink].into_iter().collect();
        // raise, clear, raise: 3 transitions within the window.
        drive(&sinks, &[0.9, 0.0, 0.9]);
        let esc = esc.lock().unwrap();
        assert!(!esc.escalations().is_empty());
        for e in esc.escalations() {
            assert!(matches!(
                e.reason,
                EscalationReason::Flapping { transitions: 3 }
            ));
        }
    }

    #[test]
    fn escalator_window_forgets_old_transitions() {
        let esc = shared(ThresholdEscalator::new(99, 3, 2));
        let sinks: SinkSet = [esc.clone() as SharedSink].into_iter().collect();
        // Transitions at units 0, 3, 6 — never 3 inside a 2-unit window.
        drive(&sinks, &[0.9, 0.9, 0.9, 0.0, 0.0, 0.0, 0.9]);
        let esc = esc.lock().unwrap();
        assert!(
            esc.escalations().is_empty(),
            "spread-out transitions must not flap: {:?}",
            esc.escalations()
        );
    }

    #[test]
    fn escalator_drains_and_prunes() {
        let esc = shared(ThresholdEscalator::new(2, 99, 2));
        let sinks: SinkSet = [esc.clone() as SharedSink].into_iter().collect();
        drive(&sinks, &[0.9, 0.9, 0.0, 0.0, 0.0, 0.0]);
        let mut esc = esc.lock().unwrap();
        let drained = esc.drain_escalations();
        assert!(!drained.is_empty());
        assert!(esc.escalations().is_empty());
        assert_eq!(esc.tracked_cells(), 0, "idle cells age out of the window");
    }

    #[test]
    fn dashboard_counts_match_a_full_rescan() {
        let dash = shared(DashboardSummary::new());
        let sinks: SinkSet = [dash.clone() as SharedSink].into_iter().collect();
        let mut engine = setup();
        for (u, slope) in [0.9, 0.0, 1.5, 0.9, 0.0].into_iter().enumerate() {
            let delta = engine.ingest_unit(&unit_tuples(u as i64, slope)).unwrap();
            sinks.dispatch(&delta, &AlarmContext::new(engine.result(), &delta));
            // From-scratch rescan of the retained exception stores.
            let dash = dash.lock().unwrap();
            let rescan = engine.result().total_exception_cells();
            assert_eq!(dash.active_cells(), rescan, "unit {u}");
            let mut by_depth: FxHashMap<u32, u64> = FxHashMap::default();
            for (c, _, _) in engine.result().iter_exceptions() {
                *by_depth.entry(c.total_depth()).or_insert(0) += 1;
            }
            for (depth, count) in dash.depth_counts() {
                assert_eq!(by_depth.get(&depth), Some(&count), "depth {depth}");
            }
            assert_eq!(dash.units_seen(), u as u64 + 1);
        }
    }

    #[test]
    fn dashboard_hottest_ranks_by_score() {
        let dash = shared(DashboardSummary::new());
        let sinks: SinkSet = [dash.clone() as SharedSink].into_iter().collect();
        drive(&sinks, &[2.0]);
        let dash = dash.lock().unwrap();
        let top = dash.hottest(3);
        assert!(!top.is_empty());
        assert!(top.len() <= 3);
        for pair in top.windows(2) {
            assert!(pair[0].2 >= pair[1].2, "hottest first");
        }
        assert!(dash.hottest(0).is_empty());
    }

    #[test]
    fn sink_errors_are_collected_not_propagated() {
        struct Failing;
        impl AlarmSink for Failing {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn on_unit(&mut self, _: &UnitDelta, _: &AlarmContext<'_>) -> Result<()> {
                Err(crate::CoreError::BadInput {
                    detail: "sink exploded".into(),
                })
            }
        }
        let log = shared(AlarmLog::new(4));
        let mut sinks = SinkSet::new();
        sinks.push(shared(Failing));
        sinks.push(log.clone());
        assert_eq!(sinks.len(), 2);
        let errors = drive(&sinks, &[0.9]);
        // The failure is surfaced once per dispatch...
        assert_eq!(errors[0].len(), 1);
        assert_eq!(errors[0][0].sink, "failing");
        assert!(errors[0][0].message.contains("sink exploded"));
        assert!(errors[0][0].to_string().contains("failing"));
        // ...and the later sink still consumed the delta.
        assert!(log.lock().unwrap().open_count() > 0);
    }

    #[test]
    fn context_exposes_unit_window_and_result() {
        let mut engine = setup();
        let delta = engine.ingest_unit(&unit_tuples(2, 0.9)).unwrap();
        let ctx = AlarmContext::new(engine.result(), &delta);
        assert_eq!(ctx.unit(), 0, "first engine unit");
        assert_eq!(ctx.window(), (20, 29));
        assert_eq!(
            ctx.result().total_exception_cells(),
            engine.result().total_exception_cells()
        );
        let (cuboid, cell) = &delta.appeared[0];
        let score = ctx.score(cuboid, cell).unwrap();
        assert!(score >= 0.4, "appeared cells pass the threshold");
    }
}
