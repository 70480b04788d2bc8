//! The incremental cubing seam — one trait, two algorithms.
//!
//! Framework 4.1 treats m/o-cubing (Algorithm 1) and popular-path cubing
//! (Algorithm 2) as interchangeable strategies over the same
//! critical-layer contract, so this module gives them one seam: a
//! [`CubingEngine`] maintains a regression cube **incrementally per
//! m-layer time unit**. Each [`ingest_unit`](CubingEngine::ingest_unit)
//! call delivers one batch of m-layer tuples:
//!
//! * a batch whose time interval differs from the engine's current window
//!   **opens a new unit** — the cube is recomputed for the new window
//!   (the paper's per-quarter trigger);
//! * a batch with the **same** interval is folded into the open unit
//!   *incrementally*: because ISB aggregation is linear (Theorem 3.2),
//!   new tuples merge directly into every affected cuboid cell, and only
//!   the touched cells have their exception status re-evaluated — no
//!   cuboid is recomputed from scratch.
//!
//! Each algorithm is one module with one engine:
//! [`MoCubingEngine`] ([`crate::mo_cubing`], over either table
//! [`Backend`]) and [`PopularPathEngine`] ([`crate::popular_path`]);
//! both are re-exported here. The batch entry points
//! [`crate::mo_cubing::compute`] and [`crate::popular_path::compute`]
//! are thin wrappers that build an engine, ingest one batch and return
//! the result. The stream engine (`regcube-stream`) and the bench
//! harness (`regcube-bench`) are generic over the trait, and
//! [`crate::shard::ShardedEngine`] implements it over any inner engine.
//! What is left in this module is what the engines share: the trait,
//! [`UnitDelta`], the layout selector and a few helpers.
//!
//! The cross-algorithm contract (the paper's footnote 7) holds for the
//! engines exactly as for the batch paths: after identical ingestion,
//! Algorithm 1's exception set is a superset of Algorithm 2's, and both
//! agree on the critical layers. `crates/core/tests/engine_contract.rs`
//! runs every engine-level contract over every engine.

use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, MTuple};
use crate::result::{Algorithm, CubeResult};
use crate::stats::RunStats;
use crate::table::{table_bytes, CuboidTable};
use crate::Result;
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::{CubeSchema, CuboidSpec};
use std::sync::Arc;

pub use crate::mo_cubing::MoCubingEngine;
pub use crate::popular_path::PopularPathEngine;

/// The physical layout a cube's cell tables are computed over —
/// selected per engine, orthogonal to the [`Algorithm`].
///
/// Both layouts produce the same cell sets, counts, [`UnitDelta`]s and
/// alarm episodes, with bit-identical m-layer measures (the contract
/// and golden suites pin it at shard counts 1, 2, 3 and 7). Aggregated
/// measures are equal only up to reassociation of `f64` sums — Row
/// folds siblings in hash order, Columnar in sorted cell-id order — so
/// on non-dyadic data they may differ in the last ulp
/// (`layouts_agree_up_to_f64_reassociation` in
/// `tests/engine_contract.rs`). Byte identity is guaranteed only for
/// one layout against itself, which is what checkpoints and the
/// benchmark's `canonical_text()` digests rely on. See
/// `ARCHITECTURE.md` ("Choosing a backend") for the trade-offs and
/// `BENCHMARK.json`'s workloads for measured numbers.
///
/// ```
/// use regcube_core::engine::Backend;
///
/// // Row is the default; Columnar opts into the struct-of-arrays path.
/// assert_eq!(Backend::default(), Backend::Row);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Hash-map row layout ([`CuboidTable`]): one `CellKey → Isb` entry
    /// per cell. Cheap point updates; the default and the layout every
    /// retained [`CubeResult`] exposes.
    #[default]
    Row,
    /// Struct-of-arrays layout
    /// ([`ColumnarTable`](crate::columnar::ColumnarTable)): a sorted
    /// dense cell-id index plus one vector per ISB component. The
    /// cache-friendly choice for the full-table tier roll-up, selected
    /// with [`MoCubingEngine::with_backend`].
    Columnar,
}

/// What one [`CubingEngine::ingest_unit`] call changed.
#[derive(Debug, Clone)]
pub struct UnitDelta {
    /// 0-based ordinal of the unit the batch belongs to (increments every
    /// time a batch opens a new window).
    pub unit: u64,
    /// The unit's tick interval.
    pub window: (i64, i64),
    /// Whether this batch opened a new unit (full recomputation) rather
    /// than folding into the open one (incremental merge).
    pub opened_unit: bool,
    /// Tuples ingested by the batch.
    pub tuples: usize,
    /// Distinct `(cuboid, cell)` entries the batch created or updated.
    pub cells_touched: u64,
    /// Between-layer cells that became exceptions with this batch
    /// (relative to the engine's state before it, across rollovers).
    /// Sorted by `(cuboid, cell)` — the ordering is deterministic
    /// regardless of hash-map iteration or shard merge order, so
    /// sharded and single-engine runs are directly comparable.
    pub appeared: Vec<(CuboidSpec, CellKey)>,
    /// Between-layer cells that stopped being exceptions with this
    /// batch; on a unit rollover this includes the closed window's
    /// exceptions that do not recur in the new window, so consumers can
    /// maintain a live alarm set purely from appeared/cleared deltas.
    /// Sorted by `(cuboid, cell)` like [`appeared`](Self::appeared).
    pub cleared: Vec<(CuboidSpec, CellKey)>,
}

impl UnitDelta {
    pub(crate) fn for_batch(window: (i64, i64), opened_unit: bool, tuples: usize) -> Self {
        UnitDelta {
            unit: 0,
            window,
            opened_unit,
            tuples,
            cells_touched: 0,
            appeared: Vec::new(),
            cleared: Vec::new(),
        }
    }

    /// Sorts `appeared`/`cleared` by `(cuboid, cell)` so the delta is
    /// byte-for-byte reproducible regardless of hash-map iteration or
    /// shard merge order. Every engine calls this before returning a
    /// delta; consumers can rely on the ordering. Public so external
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

/// An incremental cubing strategy over fixed critical layers.
///
/// Implementations own the cube state; `ingest_unit` advances it one
/// tuple batch at a time (see the module docs for the unit semantics),
/// `result` exposes the materialized cube of the open unit and `stats`
/// the work/memory accounting accumulated over that unit.
///
/// ```
/// use regcube_core::engine::{CubingEngine, MoCubingEngine};
/// use regcube_core::{CriticalLayers, ExceptionPolicy, MTuple};
/// use regcube_olap::{CubeSchema, CuboidSpec};
/// use regcube_regress::Isb;
///
/// let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
/// let layers = CriticalLayers::new(
///     &schema,
///     CuboidSpec::new(vec![0, 0]),   // o-layer: the apex
///     CuboidSpec::new(vec![2, 2]),   // m-layer: the finest levels
/// ).unwrap();
/// let mut engine = MoCubingEngine::transient(
///     schema,
///     layers,
///     ExceptionPolicy::slope_threshold(0.5),
/// ).unwrap();
///
/// // One unit's batch: a hot stream and a quiet one.
/// let delta = engine.ingest_unit(&[
///     MTuple::new(vec![0, 0], Isb::new(0, 14, 1.0, 0.9).unwrap()),
///     MTuple::new(vec![3, 3], Isb::new(0, 14, 1.0, 0.1).unwrap()),
/// ]).unwrap();
/// assert!(delta.opened_unit && delta.is_sorted());
/// assert_eq!(engine.result().m_layer_cells(), 2);
/// ```
pub trait CubingEngine {
    /// Which algorithm the engine realizes.
    fn algorithm(&self) -> Algorithm;

    /// Folds one batch of m-layer tuples into the cube.
    ///
    /// **Sorted-delta contract**: the returned [`UnitDelta`] must have
    /// `appeared`/`cleared` sorted by `(cuboid, cell)` — call
    /// [`UnitDelta::sort_cells`] before returning. All built-in engines
    /// guarantee this (and debug-assert it); the stream layer verifies
    /// it in O(n) and only re-sorts deltas of foreign engines that
    /// violate it.
    ///
    /// # Errors
    /// [`crate::CoreError::BadInput`] for an empty or structurally invalid
    /// batch; substrate errors for schema/layer inconsistencies. After
    /// an error the engine stays on its previous unit (a failed
    /// rollover leaves no half-open window).
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta>;

    /// The materialized cube of the open unit (empty before the first
    /// ingested batch).
    fn result(&self) -> &CubeResult;

    /// Work and memory statistics accumulated over the open unit.
    fn stats(&self) -> &RunStats;

    /// The open unit's cube as a shared handle — what a serving
    /// snapshot keeps. The built-in engines hold their result behind an
    /// [`Arc`] and hand out a reference count (a later same-window
    /// batch copies the result only if such a handle is still alive);
    /// the default clones [`result`](Self::result), so an engine that
    /// does not override this keeps working, one deep copy per call.
    fn shared_result(&self) -> Arc<CubeResult> {
        Arc::new(self.result().clone())
    }

    /// The full tables of every strictly-between cuboid of the open
    /// unit, when the engine retains them all (`None` otherwise — the
    /// default). An engine that answers `Some` lets a
    /// [`crate::shard::ShardedEngine`] merge complete per-shard cubes
    /// directly and run its inner engines with a no-op exception
    /// policy, instead of forcing retain-everything screening through
    /// the exception stores. `Some` of an empty map is a valid answer
    /// for a fresh engine and still signals the capability.
    fn full_between_tables(&self) -> Option<&FxHashMap<CuboidSpec, CuboidTable>> {
        None
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
    fn full_between_tables(&self) -> Option<&FxHashMap<CuboidSpec, CuboidTable>> {
        (**self).full_between_tables()
    }
}

/// An empty result for a fresh engine (no unit ingested yet).
pub(crate) fn empty_result(
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    algorithm: Algorithm,
) -> Arc<CubeResult> {
    Arc::new(CubeResult::new(
        layers.clone(),
        policy.clone(),
        algorithm,
        CuboidTable::default(),
        CuboidTable::default(),
        FxHashMap::default(),
        FxHashMap::default(),
        RunStats::default(),
    ))
}

/// Takes a result back out of its shared handle: moved when the engine
/// held the only reference, copied when a snapshot still holds one.
pub(crate) fn unshare_result(result: Arc<CubeResult>) -> CubeResult {
    Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone())
}

/// The window of a validated, non-empty batch.
pub(crate) fn batch_window(tuples: &[MTuple]) -> (i64, i64) {
    tuples[0].isb().interval()
}

/// Folds each tuple's measure into the cell of `cuboid` its m-layer ids
/// project to — the one incremental merge both engines share (exact by
/// Theorem 3.2's linearity). Returns the touched keys and how many cells
/// the fold created.
pub(crate) fn fold_tuples_into(
    schema: &CubeSchema,
    m_layer: &CuboidSpec,
    cuboid: &CuboidSpec,
    table: &mut CuboidTable,
    tuples: &[MTuple],
) -> Result<(FxHashSet<CellKey>, u64)> {
    let mut touched: FxHashSet<CellKey> = FxHashSet::default();
    let mut created: u64 = 0;
    for t in tuples {
        let ids = project_key(schema, m_layer, t.ids(), cuboid);
        let key = CellKey::new(ids);
        match table.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                merge_sibling(e.get_mut(), t.isb())?;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(*t.isb());
                created += 1;
            }
        }
        touched.insert(key);
    }
    Ok((touched, created))
}

/// Total analytical bytes of a result's exception stores.
pub(crate) fn exception_bytes(result: &CubeResult, dims: usize) -> usize {
    result
        .exceptions_map()
        .values()
        .map(|t| table_bytes(t, dims))
        .sum()
}

/// A result's retained between-layer exception cells as owned
/// `(cuboid, cell)` pairs — what the engines diff before and after a
/// batch to report [`UnitDelta::appeared`] / [`UnitDelta::cleared`].
pub(crate) fn exception_cells(result: &CubeResult) -> FxHashSet<(CuboidSpec, CellKey)> {
    result
        .iter_exceptions()
        .map(|(c, k, _)| (c.clone(), k.clone()))
        .collect()
}
