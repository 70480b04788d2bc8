//! Immutable unit-boundary snapshots of the online engine — the
//! serving-side view of a cube.
//!
//! [`OnlineEngine::close_unit`](crate::online::OnlineEngine::close_unit)
//! mutates the engine, so a dashboard query running against the live
//! engine must serialize with ingestion — one `&mut self` borrow blocks
//! every reader. A [`CubeSnapshot`] breaks that coupling: at any unit
//! boundary [`OnlineEngine::snapshot`](crate::online::OnlineEngine::snapshot)
//! captures everything queryable — the [`CubeResult`], both tilt-frame
//! families (the warehoused m- and o-layer ladders), the last unit's
//! alarms and the run statistics — into one immutable value that can be
//! shared behind an [`std::sync::Arc`] and read from any number of
//! threads while the engine keeps ingesting.
//!
//! The snapshot answers the same queries as the engine and **returns
//! the same bytes** for any unit the snapshot covers:
//! [`drill_at`](CubeSnapshot::drill_at) /
//! [`drill_history`](CubeSnapshot::drill_history) share one
//! implementation with the engine-blocking path (pinned by
//! `crates/stream/tests/snapshot.rs`), and
//! [`drill_children`](CubeSnapshot::drill_children) /
//! [`drill_descendants`](CubeSnapshot::drill_descendants) run the exact
//! core drill over the captured cube.
//!
//! `regcube_serve` publishes one snapshot per closed unit through a
//! double-buffered epoch-swapped cell, which is what makes multi-tenant
//! dashboard serving lock-free for readers.

use crate::error::StreamError;
use crate::online::{Alarm, LayerFrames, TiltHit};
use crate::Result;
use regcube_core::drill::{drill_children, drill_descendants, DrillHit};
use regcube_core::measure::exception_score;
use regcube_core::{CoreError, CubeResult, ExceptionPolicy, RunStats};
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_tilt::{Ladder, TiltFrame};
use std::fmt::Write as _;
use std::sync::Arc;

/// An immutable, internally consistent view of one engine at one unit
/// boundary: cube, tilt ladders, alarm state and statistics, all from
/// the same [`epoch`](Self::epoch). Cheap to share (`Arc`), never
/// mutated after construction — readers can hold one for as long as
/// they like without blocking ingestion.
///
/// Cheap to take, too: apart from the alarm list everything is shared
/// with the engine by reference count. The tilt ladders are one
/// generation of each layer's [frame family](regcube_tilt::family) —
/// a `Vec` of column pointers and the key index — so consecutive
/// snapshots share every slot column no promotion or late amendment
/// touched in between.
#[derive(Debug, Clone)]
pub struct CubeSnapshot {
    pub(crate) epoch: u64,
    pub(crate) unit: Option<i64>,
    pub(crate) schema: Arc<CubeSchema>,
    pub(crate) cube: Option<Arc<CubeResult>>,
    pub(crate) frames: LayerFrames,
    pub(crate) o_frames: LayerFrames,
    pub(crate) policy: Arc<ExceptionPolicy>,
    pub(crate) m_layer: Arc<CuboidSpec>,
    pub(crate) o_layer: Arc<CuboidSpec>,
    pub(crate) alarms: Vec<Alarm>,
    pub(crate) stats: RunStats,
}

impl CubeSnapshot {
    /// The publication epoch: the number of units the engine had closed
    /// when the snapshot was taken. Strictly monotone across the
    /// snapshots of one engine — the serving layer's consistency token.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last closed unit index (`None` before the first close).
    #[inline]
    pub fn unit(&self) -> Option<i64> {
        self.unit
    }

    /// The captured cube.
    ///
    /// # Errors
    /// [`StreamError::Core`] if no non-empty unit had closed when the
    /// snapshot was taken — the same error the live engine returns.
    pub fn cube(&self) -> Result<&CubeResult> {
        self.cube.as_deref().ok_or_else(|| {
            StreamError::from(CoreError::NotMaterialized {
                detail: "no unit with data had been closed when this snapshot was taken".into(),
            })
        })
    }

    /// The captured cube, if any non-empty unit had closed.
    #[inline]
    pub fn try_cube(&self) -> Option<&CubeResult> {
        self.cube.as_deref()
    }

    /// The schema the cube is built over.
    #[inline]
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// The o-layer alarms of the last closed unit, hottest first —
    /// exactly [`UnitReport::alarms`](crate::online::UnitReport) of
    /// that close.
    #[inline]
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// The engine's run statistics at capture time (serving counters
    /// included).
    #[inline]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The captured tilt frame of an m-layer cell, if the cell had ever
    /// been active — materialised from the layer's columns, so the
    /// caller owns it.
    pub fn tilt_frame(&self, key: &CellKey) -> Option<TiltFrame<Isb>> {
        self.frames.frame(key)
    }

    /// The captured tilt frame of an o-layer cell.
    pub fn o_layer_frame(&self, key: &CellKey) -> Option<TiltFrame<Isb>> {
        self.o_frames.frame(key)
    }

    /// Time-travel drill over the captured ladders — byte-identical to
    /// [`OnlineEngine::drill_at`](crate::online::OnlineEngine::drill_at)
    /// on the engine the snapshot was taken from (one shared
    /// implementation), m-layer frames first: read an o-cell whose ids
    /// equal a warehoused m-cell's through
    /// [`o_layer_frame`](Self::o_layer_frame).
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

    /// Time-travel drill across the whole captured ladder, coarsest
    /// level first — byte-identical to
    /// [`OnlineEngine::drill_history`](crate::online::OnlineEngine::drill_history),
    /// with the same m-layer-first lookup as [`drill_at`](Self::drill_at).
    ///
    /// # Errors
    /// Propagates [`drill_at`](Self::drill_at) failures.
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

    /// Drills one step down from a retained cell of the captured cube.
    ///
    /// # Errors
    /// [`StreamError::Core`] if the snapshot predates the first
    /// non-empty unit close.
    pub fn drill_children(&self, cuboid: &CuboidSpec, key: &CellKey) -> Result<Vec<DrillHit>> {
        Ok(drill_children(&self.schema, self.cube()?, cuboid, key))
    }

    /// Finds all retained exceptional descendants of a cell of the
    /// captured cube.
    ///
    /// # Errors
    /// [`StreamError::Core`] if the snapshot predates the first
    /// non-empty unit close.
    pub fn drill_descendants(&self, cuboid: &CuboidSpec, key: &CellKey) -> Result<Vec<DrillHit>> {
        Ok(drill_descendants(&self.schema, self.cube()?, cuboid, key))
    }

    /// A canonical, deterministic serialization of everything the
    /// snapshot can answer: cube tables (sorted), exception tables,
    /// both tilt-ladder families (every slot's measure rendered through
    /// its IEEE-754 bits, so two snapshots render identically **iff**
    /// their queryable state is bit-identical) and the alarm state.
    /// Timing fields are deliberately excluded. This is the equality
    /// witness of the concurrency suites: a reader-observed snapshot
    /// must render byte-for-byte like the single-threaded reference at
    /// the same epoch.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "epoch {} unit {:?}", self.epoch, self.unit);
        match &self.cube {
            None => {
                let _ = writeln!(out, "cube: none");
            }
            Some(cube) => {
                let mut m: Vec<_> = cube.m_table().iter().collect();
                m.sort_by(|a, b| a.0.cmp(b.0));
                for (k, isb) in m {
                    let _ = writeln!(out, "m {k} {}", fmt_isb(isb));
                }
                let mut o: Vec<_> = cube.o_table().iter().collect();
                o.sort_by(|a, b| a.0.cmp(b.0));
                for (k, isb) in o {
                    let _ = writeln!(out, "o {k} {}", fmt_isb(isb));
                }
                let mut exc: Vec<_> = cube.iter_exceptions().collect();
                exc.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
                for (cuboid, k, isb) in exc {
                    let _ = writeln!(out, "exc {cuboid}{k} {}", fmt_isb(isb));
                }
                let mut paths: Vec<_> = cube.path_tables().iter().collect();
                paths.sort_by(|a, b| a.0.cmp(b.0));
                for (cuboid, table) in paths {
                    let mut cells: Vec<_> = table.iter().collect();
                    cells.sort_by(|a, b| a.0.cmp(b.0));
                    for (k, isb) in cells {
                        let _ = writeln!(out, "path {cuboid}{k} {}", fmt_isb(isb));
                    }
                }
            }
        }
        for (tag, frames) in [("mframe", &self.frames), ("oframe", &self.o_frames)] {
            let mut ladders: Vec<_> = frames.ladders().collect();
            ladders.sort_by(|a, b| a.0.cmp(b.0));
            for (key, ladder) in ladders {
                for (level, unit, measure) in ladder.timeline() {
                    let _ = writeln!(out, "{tag} {key} L{level} u{unit} {}", fmt_isb(measure));
                }
            }
        }
        for a in &self.alarms {
            let _ = writeln!(
                out,
                "alarm {} score={:016x} threshold={:016x} {}",
                a.key,
                a.score.to_bits(),
                a.threshold.to_bits(),
                fmt_isb(&a.measure)
            );
        }
        out
    }
}

/// Renders one ISB with bit-exact float fields.
fn fmt_isb(isb: &Isb) -> String {
    format!(
        "[{},{}] b={:016x} s={:016x}",
        isb.start(),
        isb.end(),
        isb.base().to_bits(),
        isb.slope().to_bits()
    )
}

/// The frame a time-travel drill reads for `key`, and the layer whose
/// threshold scores it: the m-layer frames are looked up first, then
/// the o-layer frames.
fn drilled_ladder<'a, 'c>(
    frames: &'a LayerFrames,
    o_frames: &'a LayerFrames,
    m_layer: &'c CuboidSpec,
    o_layer: &'c CuboidSpec,
    key: &CellKey,
) -> Option<(Ladder<'a, Isb>, &'c CuboidSpec)> {
    match frames.ladder(key) {
        Some(ladder) => Some((ladder, m_layer)),
        None => o_frames.ladder(key).map(|ladder| (ladder, o_layer)),
    }
}

/// Screens every slot `ladder` retains at `level` with the one test,
/// oldest first.
fn drill_level<'a>(
    ladder: Ladder<'a, Isb>,
    threshold: f64,
    level: usize,
    out: &mut Vec<TiltHit<'a>>,
) -> Result<()> {
    let slots = ladder.slots(level).map_err(StreamError::from)?;
    let level_name = ladder.spec().levels()[level].name.as_str();
    out.reserve(slots.len());
    for (slot_unit, measure) in slots.iter() {
        let score = exception_score(measure);
        out.push(TiltHit {
            level,
            level_name,
            slot_unit,
            measure: *measure,
            score,
            exceptional: score >= threshold,
        });
    }
    Ok(())
}

/// The one shared time-travel drill implementation: the row of `key`
/// is resolved once and its slots at `level` are read straight from the
/// layer's columns. The engine-blocking
/// [`OnlineEngine::drill_at`](crate::online::OnlineEngine::drill_at)
/// and the lock-free [`CubeSnapshot::drill_at`] both call this, which
/// is what makes "snapshot ≡ live" hold by construction.
pub(crate) fn drill_frames_at<'a>(
    frames: &'a LayerFrames,
    o_frames: &'a LayerFrames,
    policy: &ExceptionPolicy,
    m_layer: &CuboidSpec,
    o_layer: &CuboidSpec,
    level: usize,
    key: &CellKey,
) -> Result<Vec<TiltHit<'a>>> {
    let mut out = Vec::new();
    match drilled_ladder(frames, o_frames, m_layer, o_layer, key) {
        Some((ladder, cuboid)) => {
            drill_level(ladder, policy.threshold_for(cuboid), level, &mut out)?;
        }
        None => {
            // Validate the level anyway so typos don't read as
            // "no history".
            frames
                .spec()
                .finest_units_per(level)
                .map_err(StreamError::from)?;
        }
    }
    Ok(out)
}

/// [`drill_frames_at`] for every level, coarsest first — the cell's
/// whole warehoused timeline in one pass over its row.
pub(crate) fn drill_frames_history<'a>(
    frames: &'a LayerFrames,
    o_frames: &'a LayerFrames,
    policy: &ExceptionPolicy,
    m_layer: &CuboidSpec,
    o_layer: &CuboidSpec,
    key: &CellKey,
) -> Result<Vec<TiltHit<'a>>> {
    let mut out = Vec::new();
    if let Some((ladder, cuboid)) = drilled_ladder(frames, o_frames, m_layer, o_layer, key) {
        let threshold = policy.threshold_for(cuboid);
        out.reserve(frames.retained_slots());
        for level in (0..frames.spec().num_levels()).rev() {
            drill_level(ladder, threshold, level, &mut out)?;
        }
    }
    Ok(out)
}
