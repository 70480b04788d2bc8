//! The per-unit cubing seam — one trait, two algorithms.
//!
//! Framework 4.1 treats m/o-cubing (Algorithm 1) and popular-path cubing
//! (Algorithm 2) as interchangeable strategies over the same
//! critical-layer contract, so this module gives them one seam: a
//! [`CubingEngine`] holds the regression cube of **one m-layer time
//! unit** and recomputes it once per unit (the paper's per-quarter
//! trigger, Sections 4.3 / 4.5). One
//! [`ingest_unit`](CubingEngine::ingest_unit) call is one unit: the
//! batch is that window's *complete* m-layer, the engine computes the
//! window's cube from it and replaces the cube it held. Whatever
//! arrives inside a unit is accumulated below this seam (by
//! `regcube-stream`'s `Ingestor`), so a second batch for the window an
//! engine already holds has no meaning here and is refused with a typed
//! error — never merged, never silently substituted.
//!
//! Both algorithms run on one engine,
//! [`PlanEngine`](crate::mo_cubing::PlanEngine) ([`crate::mo_cubing`]):
//! one list of kept roll-up plans, one replay, one spare result. It is
//! generic over what a unit keeps between its critical layers:
//! [`MoCubingEngine`] screens every roll-up step into exception stores,
//! and [`PopularPathEngine`] keeps its popular path's tables whole and
//! drills from them ([`crate::popular_path`]). Both are re-exported
//! here. The batch entry points
//! [`crate::mo_cubing::compute`] and [`crate::popular_path::compute`]
//! are thin wrappers that build an engine, ingest one unit and return
//! the result. The stream engine (`regcube-stream`) and the bench
//! harness (`regcube-bench`) are generic over the trait.
//! What is left in this module is what the engines share: the trait,
//! [`UnitDelta`] and a few helpers.
//!
//! The cross-algorithm contract (the paper's footnote 7) holds for the
//! engines exactly as for the batch paths: after identical ingestion,
//! Algorithm 1's exception set is a superset of Algorithm 2's, and both
//! agree on the critical layers. `crates/core/tests/engine_contract.rs`
//! runs every engine-level contract over every engine.

use crate::error::CoreError;
use crate::measure::MTuple;
use crate::result::{Algorithm, CubeResult};
use crate::stats::RunStats;
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::CuboidSpec;
use std::sync::Arc;

pub use crate::mo_cubing::MoCubingEngine;
pub use crate::popular_path::PopularPathEngine;

/// What one [`CubingEngine::ingest_unit`] call changed: the unit it
/// cubed and how the exception set moved against the unit before it.
#[derive(Debug, Clone)]
pub struct UnitDelta {
    /// 0-based ordinal of the unit among those the engine has cubed.
    pub unit: u64,
    /// The unit's tick interval.
    pub window: (i64, i64),
    /// Tuples in the unit's batch.
    pub tuples: usize,
    /// Distinct `(cuboid, cell)` entries computed for the unit.
    pub cells_touched: u64,
    /// Between-layer cells that are exceptions in this unit and were
    /// not in the previous one. Sorted by `(cuboid, cell)` — the
    /// ordering is deterministic regardless of hash-map iteration
    /// order, so the deltas of two engines compare directly.
    pub appeared: Vec<(CuboidSpec, CellKey)>,
    /// The previous unit's exceptions that do not recur in this one, so
    /// consumers can maintain a live alarm set purely from
    /// appeared/cleared deltas. Sorted by `(cuboid, cell)` like
    /// [`appeared`](Self::appeared).
    pub cleared: Vec<(CuboidSpec, CellKey)>,
}

impl UnitDelta {
    /// The delta of an engine that held `before` and has just cubed
    /// `after` for `window` as its `unit`-th unit: the two results'
    /// exception stores diffed both ways, each side sorted.
    pub(crate) fn between(
        unit: u64,
        window: (i64, i64),
        tuples: usize,
        before: &CubeResult,
        after: &CubeResult,
    ) -> Self {
        let only_in = |a: &CubeResult, b: &CubeResult| {
            let mut cells: Vec<(CuboidSpec, CellKey)> = Vec::new();
            for (cuboid, table) in a.exception_tables() {
                // One lookup per cuboid, not per cell.
                let other = b.exceptions_in(cuboid);
                cells.extend(
                    table
                        .keys()
                        .filter(|k| !other.is_some_and(|t| t.contains_key(*k)))
                        .map(|k| (cuboid.clone(), k.clone())),
                );
            }
            cells.sort_unstable();
            cells
        };
        UnitDelta {
            unit,
            window,
            tuples,
            cells_touched: after.stats().cells_computed,
            appeared: only_in(after, before),
            cleared: only_in(before, after),
        }
    }

    /// Sorts `appeared`/`cleared` by `(cuboid, cell)` so the delta is
    /// byte-for-byte reproducible regardless of hash-map iteration
    /// order. The built-in engines build their deltas in
    /// this order; consumers can rely on it. Public so external
    /// [`CubingEngine`] implementations can uphold the same sorted-delta
    /// contract.
    ///
    /// A delta that is already sorted is detected in one O(n) pass and
    /// left untouched, so re-asserting the invariant on a conforming
    /// delta is cheap — the stream layer uses exactly that to skip its
    /// defensive re-sort for the built-in engines and only pay the sort
    /// for foreign engines that violate the contract.
    pub fn sort_cells(&mut self) {
        if self.is_sorted() {
            return;
        }
        self.appeared.sort_unstable();
        self.cleared.sort_unstable();
    }

    /// Whether `appeared`/`cleared` are sorted by `(cuboid, cell)` —
    /// the invariant [`sort_cells`](Self::sort_cells) establishes and
    /// every built-in engine guarantees on returned deltas.
    pub fn is_sorted(&self) -> bool {
        self.appeared.windows(2).all(|w| w[0] <= w[1])
            && self.cleared.windows(2).all(|w| w[0] <= w[1])
    }
}

/// A per-unit cubing strategy over fixed critical layers.
///
/// Implementations own the cube of the last unit they were given:
/// `ingest_unit` computes the next unit's cube and replaces it (see the
/// module docs for the unit semantics), `result` exposes the
/// materialized cube and `stats` the work/memory accounting of
/// computing it.
///
/// ```
/// use regcube_core::engine::{CubingEngine, MoCubingEngine};
/// use regcube_core::{CoreError, CriticalLayers, ExceptionPolicy, MTuple};
/// use regcube_olap::{CubeSchema, CuboidSpec};
/// use regcube_regress::Isb;
///
/// let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
/// let layers = CriticalLayers::new(
///     &schema,
///     CuboidSpec::new(vec![0, 0]),   // o-layer: the apex
///     CuboidSpec::new(vec![2, 2]),   // m-layer: the finest levels
/// ).unwrap();
/// let mut engine = MoCubingEngine::new(
///     schema,
///     layers,
///     ExceptionPolicy::slope_threshold(0.5),
/// ).unwrap();
///
/// // One unit: a hot stream and a quiet one.
/// let unit = [
///     MTuple::new(vec![0, 0], Isb::new(0, 14, 1.0, 0.9).unwrap()),
///     MTuple::new(vec![3, 3], Isb::new(0, 14, 1.0, 0.1).unwrap()),
/// ];
/// let delta = engine.ingest_unit(&unit).unwrap();
/// assert!(delta.unit == 0 && delta.is_sorted());
/// assert_eq!(engine.result().m_layer_cells(), 2);
///
/// // The window is cubed: a second batch for it is refused.
/// let again = engine.ingest_unit(&unit[..1]);
/// assert!(matches!(again, Err(CoreError::BadInput { .. })));
/// assert_eq!(engine.result().m_layer_cells(), 2);
/// ```
pub trait CubingEngine {
    /// Which algorithm the engine realizes.
    fn algorithm(&self) -> Algorithm;

    /// Cubes one unit: `tuples` is the complete m-layer of a window the
    /// engine does not hold, and the window's cube replaces the held
    /// one.
    ///
    /// **Sorted-delta contract**: the returned [`UnitDelta`] must have
    /// `appeared`/`cleared` sorted by `(cuboid, cell)` — call
    /// [`UnitDelta::sort_cells`] before returning. All built-in engines
    /// guarantee this; the stream layer verifies it in O(n) and only
    /// re-sorts deltas of foreign engines that violate it.
    ///
    /// # Errors
    /// [`crate::CoreError::BadInput`] for an empty or structurally invalid
    /// batch, and for a batch whose window is the one the engine
    /// already holds (a unit is cubed once); substrate errors for
    /// schema/layer inconsistencies. After any error the engine is
    /// exactly as it was before the call — cube, statistics and window.
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta>;

    /// The materialized cube of the held unit (empty before the first
    /// one).
    fn result(&self) -> &CubeResult;

    /// Work and memory statistics of computing the held unit's cube.
    fn stats(&self) -> &RunStats;

    /// The held unit's cube as a shared handle — what a serving
    /// snapshot keeps. The built-in engines hold their result behind an
    /// [`Arc`] and hand out a reference count (a result is written again
    /// only once no handle to it is left but the engine's, so sharing is
    /// free); the default clones [`result`](Self::result), so an engine
    /// that does not override this keeps working, one deep copy per
    /// call.
    fn shared_result(&self) -> Arc<CubeResult> {
        Arc::new(self.result().clone())
    }

    /// How many units the engine wrote into a retired result of its own
    /// instead of into new tables. A probe for tests; not part of the
    /// stable API.
    #[doc(hidden)]
    fn units_recycled(&self) -> u64 {
        0
    }
}

impl<E: CubingEngine + ?Sized> CubingEngine for Box<E> {
    fn algorithm(&self) -> Algorithm {
        (**self).algorithm()
    }
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        (**self).ingest_unit(tuples)
    }
    fn result(&self) -> &CubeResult {
        (**self).result()
    }
    fn stats(&self) -> &RunStats {
        (**self).stats()
    }
    fn shared_result(&self) -> Arc<CubeResult> {
        (**self).shared_result()
    }
    fn units_recycled(&self) -> u64 {
        (**self).units_recycled()
    }
}

/// The window of a validated, non-empty batch, refused when it is the
/// window the engine already `held`: that unit is cubed, and a second
/// batch for it can be neither merged nor taken as a replacement.
pub(crate) fn next_window(held: Option<(i64, i64)>, tuples: &[MTuple]) -> Result<(i64, i64)> {
    let window = tuples[0].isb().interval();
    if held == Some(window) {
        return Err(CoreError::BadInput {
            detail: format!(
                "window [{}, {}] is already cubed: one ingest_unit call is one unit, \
                 and its batch must be the window's complete m-layer",
                window.0, window.1
            ),
        });
    }
    Ok(window)
}
