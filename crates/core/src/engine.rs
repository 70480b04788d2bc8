//! The incremental cubing engine — one trait, two algorithms.
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
//! [`MoCubingEngine`] and [`PopularPathEngine`] implement the trait; the
//! batch entry points [`crate::mo_cubing::compute`] and
//! [`crate::popular_path::compute`] are thin wrappers that build an
//! engine, ingest one batch and return the result. The stream engine
//! (`regcube-stream`) and the bench harness (`regcube-bench`) are generic
//! over the trait, which is the plug-in point for future sharded or
//! parallel cubing backends.
//!
//! Algorithm 1's incremental path keeps every between-layer cuboid's
//! full table alive, which costs memory. [`MoCubingEngine::transient`]
//! trades that away: it keeps only the critical layers and exceptions
//! (dropping each depth tier's tables as soon as the next tier is
//! built, like the original batch algorithm) and services a same-window
//! batch by folding it into the m-layer and recomputing — the batch
//! wrappers and the online per-unit pipeline use this mode, so their
//! peak memory matches the paper's memory model.
//!
//! The cross-algorithm contract (the paper's footnote 7) holds for the
//! engines exactly as for the batch paths: after identical ingestion,
//! Algorithm 1's exception set is a superset of Algorithm 2's, and both
//! agree on the critical layers. `crates/core/tests/engine_contract.rs`
//! pins both properties at the trait level.

use crate::error::CoreError;
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, validate_tuples, MTuple};
use crate::pool::WorkerPool;
use crate::popular_path::{DrillFrontier, Frontier};
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{
    aggregate_from, collect_exceptions, drill_aggregate, table_bytes, CuboidTable, Projector,
};
use crate::Result;
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::htree::{attrs_for_path, expand_tuple, HTree};
use regcube_olap::{CubeSchema, CuboidSpec, PopularPath};
use regcube_regress::Isb;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

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
    /// cache-friendly choice for the full-table tier roll-up
    /// ([`crate::columnar::ColumnarCubingEngine`]).
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
    /// [`CoreError::BadInput`] for an empty or structurally invalid
    /// batch; substrate errors for schema/layer inconsistencies. After
    /// an error the engine stays on its previous unit (a failed
    /// rollover leaves no half-open window).
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta>;

    /// The materialized cube of the open unit (empty before the first
    /// ingested batch).
    fn result(&self) -> &CubeResult;

    /// Work and memory statistics accumulated over the open unit.
    fn stats(&self) -> &RunStats;

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
    fn full_between_tables(&self) -> Option<&FxHashMap<CuboidSpec, CuboidTable>> {
        (**self).full_between_tables()
    }
}

/// An empty result for a fresh engine (no unit ingested yet).
pub(crate) fn empty_result(
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    algorithm: Algorithm,
) -> CubeResult {
    CubeResult::new(
        layers.clone(),
        policy.clone(),
        algorithm,
        CuboidTable::default(),
        CuboidTable::default(),
        FxHashMap::default(),
        FxHashMap::default(),
        RunStats::default(),
    )
}

/// The window of a validated, non-empty batch.
pub(crate) fn batch_window(tuples: &[MTuple]) -> (i64, i64) {
    tuples[0].isb().interval()
}

/// Groups every cuboid strictly above the m-layer into depth *tiers*
/// (bottom-up, same total depth per tier) — the roll-up order both the
/// row and columnar backends walk.
pub(crate) fn depth_tiers(layers: &CriticalLayers) -> Vec<Vec<CuboidSpec>> {
    let m_spec = layers.lattice().m_layer();
    let mut tiers: Vec<(u32, Vec<CuboidSpec>)> = Vec::new();
    for cuboid in layers.lattice().bottom_up_order() {
        if &cuboid == m_spec {
            continue;
        }
        let depth = cuboid.total_depth();
        match tiers.last_mut() {
            Some((d, group)) if *d == depth => group.push(cuboid),
            _ => tiers.push((depth, vec![cuboid])),
        }
    }
    tiers.into_iter().map(|(_, group)| group).collect()
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

// ---------------------------------------------------------------------------
// Algorithm 1 — m/o-cubing
// ---------------------------------------------------------------------------

/// One cuboid of a depth tier with its chosen aggregation source —
/// resolved before the tier fans out so pool tasks are self-contained.
struct TierPlan {
    cuboid: CuboidSpec,
    source: CuboidSpec,
    table: Arc<CuboidTable>,
}

/// Algorithm 1 as an incremental engine.
///
/// In the default (incremental) mode every cuboid between the layers is
/// kept as a **full table** across batches of the open unit, so a
/// same-window batch merges straight into the affected cells (Theorem
/// 3.2) and only those cells are re-screened against the exception
/// policy. Opening a new unit recomputes bottom-up in depth tiers, each
/// cuboid aggregated from its closest computed descendant — exactly the
/// work-sharing of the batch algorithm.
///
/// [`transient`](Self::transient) mode keeps no between-layer tables
/// (each tier is dropped once the next is built), matching the batch
/// algorithm's peak memory; same-window batches then fold into the
/// m-layer and recompute.
#[derive(Debug, Clone)]
pub struct MoCubingEngine {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    /// Drop between-layer tables after each unit (batch memory model)?
    transient: bool,
    /// When attached, cuboids of one depth tier (independent of each
    /// other) are aggregated on the pool instead of sequentially.
    pool: Option<Arc<WorkerPool>>,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Full tables of the strictly-between cuboids (empty in transient
    /// mode; the m- and o-layer live in `result`).
    tables: FxHashMap<CuboidSpec, CuboidTable>,
    stats: RunStats,
    mem: MemoryAccountant,
    result: CubeResult,
}

impl MoCubingEngine {
    /// Creates an engine in incremental mode (between-layer tables are
    /// retained so same-window batches merge in place).
    ///
    /// # Errors
    /// Currently infallible; `Result` keeps room for config validation
    /// and parity with [`PopularPathEngine::new`].
    pub fn new(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
    ) -> Result<Self> {
        let result = empty_result(&layers, &policy, Algorithm::MoCubing);
        Ok(MoCubingEngine {
            schema: Arc::new(schema),
            layers,
            policy,
            transient: false,
            pool: None,
            window: None,
            units_opened: 0,
            tables: FxHashMap::default(),
            stats: RunStats::default(),
            mem: MemoryAccountant::new(),
            result,
        })
    }

    /// Creates an engine in transient mode: between-layer tables are
    /// dropped tier by tier as the batch algorithm computes, so retained
    /// memory is exactly critical layers + exception cells. Same-window
    /// batches fold into the m-layer and recompute instead of merging in
    /// place. This is what the batch wrapper and the per-unit online
    /// pipeline use.
    ///
    /// # Errors
    /// See [`new`](Self::new).
    pub fn transient(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
    ) -> Result<Self> {
        let mut engine = Self::new(schema, layers, policy)?;
        engine.transient = true;
        Ok(engine)
    }

    /// Attaches a worker pool for the tier roll-up: cuboids at the same
    /// lattice depth are independent (each aggregates from an already
    /// computed finer tier), so [`open_unit`](Self::ingest_unit)
    /// computes every tier's tables in parallel on the pool. Results are
    /// merged in deterministic lattice order, so the cube is identical
    /// to a sequential run.
    ///
    /// Do **not** attach the pool a [`crate::shard::ShardedEngine`] runs
    /// on to its inner engines — see the nesting rule in [`crate::pool`].
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The critical layers the engine cubes for.
    pub fn layers(&self) -> &CriticalLayers {
        &self.layers
    }

    /// Consumes the engine, returning the final cube result.
    pub fn into_result(self) -> CubeResult {
        self.result
    }

    /// Full recomputation for a new unit window (the batch algorithm).
    fn open_unit(&mut self, tuples: &[MTuple]) -> Result<()> {
        let dims = self.schema.num_dims();
        self.tables.clear();
        self.stats = RunStats::default();
        self.mem = MemoryAccountant::new();

        // Step 1: one scan of the batch into the H-tree / m-layer.
        let (m_table, tree_bytes) =
            crate::mo_cubing::build_m_layer(&self.schema, &self.layers, tuples)?;
        self.mem.add(tree_bytes);
        self.mem.add(table_bytes(&m_table, dims));
        self.mem.remove(tree_bytes);
        self.stats.rows_folded += tuples.len() as u64;
        self.stats.cells_computed += m_table.len() as u64;
        self.stats.cuboids_computed += 1;

        // Step 2: the rest of the lattice (shared with pool workers, so
        // the m-table travels behind an Arc and is unwrapped after).
        let m_table = Arc::new(m_table);
        let (o_table, exceptions) = self.compute_uppers(&m_table)?;
        let m_table = Arc::try_unwrap(m_table).unwrap_or_else(|shared| (*shared).clone());
        self.result = CubeResult::new(
            self.layers.clone(),
            self.policy.clone(),
            Algorithm::MoCubing,
            m_table,
            o_table,
            exceptions,
            FxHashMap::default(),
            self.stats,
        );
        Ok(())
    }

    /// Computes every cuboid above the m-layer bottom-up in depth
    /// *tiers*, each aggregated from its closest computed descendant (a
    /// one-step-finer table from the previous tier). Cuboids within one
    /// tier are independent, so a tier is fanned out on the attached
    /// [`WorkerPool`] (when present) and merged back in lattice order —
    /// the parallel hot path of the single-engine roll-up. Returns the
    /// o-layer table and the exception stores; between-layer full
    /// tables go to `self.tables` (incremental mode) or are dropped as
    /// soon as the next tier no longer needs them (transient mode).
    fn compute_uppers(
        &mut self,
        m_table: &Arc<CuboidTable>,
    ) -> Result<(CuboidTable, FxHashMap<CuboidSpec, CuboidTable>)> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let o_spec = self.layers.lattice().o_layer().clone();

        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        // Full tables of the previous tier (the aggregation sources).
        let mut cache: FxHashMap<CuboidSpec, Arc<CuboidTable>> = FxHashMap::default();
        for tier in depth_tiers(&self.layers) {
            // Pick each cuboid's aggregation source first (the choice
            // needs the whole previous tier), then aggregate the tier.
            let plans: Vec<TierPlan> = tier
                .into_iter()
                .map(|cuboid| {
                    let (source, table) = self
                        .layers
                        .lattice()
                        .closest_computed_descendant(&cuboid, cache.keys())
                        .map(|c| (c.clone(), Arc::clone(&cache[c])))
                        .unwrap_or_else(|| (m_spec.clone(), Arc::clone(m_table)));
                    TierPlan {
                        cuboid,
                        source,
                        table,
                    }
                })
                .collect();

            let mut next_cache: FxHashMap<CuboidSpec, Arc<CuboidTable>> = FxHashMap::default();
            for item in self.compute_tier(plans) {
                let (cuboid, full, rows) = item?;
                self.stats.rows_folded += rows;
                self.stats.cells_computed += full.len() as u64;
                self.stats.cuboids_computed += 1;
                self.mem.add(table_bytes(&full, dims));

                if cuboid == o_spec {
                    o_table = full;
                    continue;
                }
                let exc = collect_exceptions(&self.policy, &cuboid, &full);
                if !exc.is_empty() {
                    self.mem.add(table_bytes(&exc, dims));
                    exceptions.insert(cuboid.clone(), exc);
                }
                next_cache.insert(cuboid, Arc::new(full));
            }
            // The old tier is no longer reachable as a source: drop it
            // (transient) or move it to the retained incremental state.
            self.retire_tier(&mut cache, dims);
            cache = next_cache;
        }
        self.retire_tier(&mut cache, dims);
        Ok((o_table, exceptions))
    }

    /// Aggregates one depth tier. With a pool attached and more than one
    /// cuboid in the tier, the aggregations fan out to the workers; the
    /// results come back **in plan order** either way, so stats and
    /// exception screening stay deterministic.
    fn compute_tier(&self, plans: Vec<TierPlan>) -> Vec<Result<(CuboidSpec, CuboidTable, u64)>> {
        match &self.pool {
            Some(pool) if plans.len() > 1 => {
                let tasks: Vec<_> = plans
                    .into_iter()
                    .map(|plan| {
                        let schema = Arc::clone(&self.schema);
                        move || {
                            aggregate_from(&schema, &plan.source, &plan.table, &plan.cuboid, None)
                                .map(|(full, rows)| (plan.cuboid, full, rows))
                        }
                    })
                    .collect();
                pool.run(tasks)
            }
            _ => plans
                .into_iter()
                .map(|plan| {
                    aggregate_from(&self.schema, &plan.source, &plan.table, &plan.cuboid, None)
                        .map(|(full, rows)| (plan.cuboid, full, rows))
                })
                .collect(),
        }
    }

    /// Releases a finished tier's tables: dropped in transient mode,
    /// moved into the retained incremental state otherwise. The Arcs are
    /// sole owners by now (all aggregation tasks completed), so the
    /// unwrap is free.
    fn retire_tier(&mut self, cache: &mut FxHashMap<CuboidSpec, Arc<CuboidTable>>, dims: usize) {
        for (cuboid, table) in cache.drain() {
            if self.transient {
                self.mem.remove(table_bytes(&table, dims));
            } else {
                let table = Arc::try_unwrap(table).unwrap_or_else(|shared| (*shared).clone());
                self.tables.insert(cuboid, table);
            }
        }
    }

    /// Same-window batch, incremental mode: fold into the m/o tables and
    /// every retained between-layer table in place, re-screening only
    /// the touched cells.
    fn merge_batch_incremental(&mut self, tuples: &[MTuple], delta: &mut UnitDelta) -> Result<()> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let o_spec = self.layers.lattice().o_layer().clone();

        // Critical layers, maintained directly in the exposed result.
        for is_o in [false, true] {
            let spec = if is_o { &o_spec } else { &m_spec };
            let table = if is_o {
                self.result.o_table_mut()
            } else {
                self.result.m_table_mut()
            };
            let before = table_bytes(table, dims);
            let (touched, created) = fold_tuples_into(&self.schema, &m_spec, spec, table, tuples)?;
            self.mem
                .add(table_bytes(table, dims).saturating_sub(before));
            self.stats.rows_folded += tuples.len() as u64;
            self.stats.cells_computed += created;
            delta.cells_touched += touched.len() as u64;
        }

        // Between-layer cuboids: fold, then re-screen exactly the
        // touched cells (exception status can flip either way). The
        // exception stores are bracketed so the accountant tracks their
        // growth/shrinkage too.
        let exc_before = exception_bytes(&self.result, dims);
        let exceptions = self.result.exceptions_mut();
        for (cuboid, table) in &mut self.tables {
            let before = table_bytes(table, dims);
            let (touched, created) =
                fold_tuples_into(&self.schema, &m_spec, cuboid, table, tuples)?;
            self.mem
                .add(table_bytes(table, dims).saturating_sub(before));
            self.stats.rows_folded += tuples.len() as u64;
            self.stats.cells_computed += created;
            delta.cells_touched += touched.len() as u64;

            let exc = exceptions.entry(cuboid.clone()).or_default();
            for key in touched {
                let isb = table[&key];
                let is_exception = self.policy.is_exception(cuboid, &isb);
                let was_exception = exc.contains_key(&key);
                if is_exception {
                    exc.insert(key.clone(), isb);
                    if !was_exception {
                        delta.appeared.push((cuboid.clone(), key));
                    }
                } else if was_exception {
                    exc.remove(&key);
                    delta.cleared.push((cuboid.clone(), key));
                }
            }
        }
        exceptions.retain(|_, t| !t.is_empty());
        let exc_after = exception_bytes(&self.result, dims);
        self.mem.add(exc_after.saturating_sub(exc_before));
        self.mem.remove(exc_before.saturating_sub(exc_after));
        Ok(())
    }

    /// Same-window batch, transient mode: fold into the retained m-layer
    /// and recompute everything above it (there are no retained tables
    /// to merge into).
    fn merge_batch_transient(&mut self, tuples: &[MTuple], delta: &mut UnitDelta) -> Result<()> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let mut m_table = std::mem::take(self.result.m_table_mut());
        let before: FxHashSet<(CuboidSpec, CellKey)> = self
            .result
            .iter_exceptions()
            .map(|(c, k, _)| (c.clone(), k.clone()))
            .collect();

        let m_bytes = table_bytes(&m_table, dims);
        let (touched, created) =
            fold_tuples_into(&self.schema, &m_spec, &m_spec, &mut m_table, tuples)?;
        self.mem
            .add(table_bytes(&m_table, dims).saturating_sub(m_bytes));
        self.stats.rows_folded += tuples.len() as u64;
        self.stats.cells_computed += created;
        delta.cells_touched += touched.len() as u64;

        let m_table = Arc::new(m_table);
        let (o_table, exceptions) = self.compute_uppers(&m_table)?;
        let m_table = Arc::try_unwrap(m_table).unwrap_or_else(|shared| (*shared).clone());
        delta.appeared = exceptions
            .iter()
            .flat_map(|(c, t)| t.keys().map(move |k| (c.clone(), k.clone())))
            .filter(|cell| !before.contains(cell))
            .collect();
        delta.cleared = before
            .into_iter()
            .filter(|(c, k)| !exceptions.get(c).is_some_and(|t| t.contains_key(k)))
            .collect();
        // The replaced o-table and exception stores die with the old
        // result; release their analytical bytes so the accountant's
        // live set (and therefore future peaks) stays truthful.
        self.mem
            .remove(table_bytes(self.result.o_table(), dims) + exception_bytes(&self.result, dims));
        self.result = CubeResult::new(
            self.layers.clone(),
            self.policy.clone(),
            Algorithm::MoCubing,
            m_table,
            o_table,
            exceptions,
            FxHashMap::default(),
            self.stats,
        );
        Ok(())
    }

    /// Refreshes the retention statistics and publishes them into the
    /// exposed result. Incremental mode genuinely retains the
    /// between-layer full tables across batches, so they count toward
    /// `cells_retained`/`retained_bytes` (in transient mode
    /// `self.tables` is empty and the figures reduce to the batch
    /// algorithm's critical-layers-plus-exceptions).
    fn refresh_stats(&mut self) {
        let dims = self.schema.num_dims();
        let result = &self.result;
        self.stats.exception_cells = result.total_exception_cells();
        self.stats.cells_retained = result.m_layer_cells() as u64
            + result.o_layer_cells() as u64
            + self.stats.exception_cells
            + self.tables.values().map(|t| t.len() as u64).sum::<u64>();
        self.stats.retained_bytes = table_bytes(result.m_table(), dims)
            + table_bytes(result.o_table(), dims)
            + exception_bytes(result, dims)
            + self
                .tables
                .values()
                .map(|t| table_bytes(t, dims))
                .sum::<usize>();
        self.stats.peak_bytes = self.mem.peak();
        self.result.set_stats(self.stats);
    }
}

/// Total analytical bytes of a result's exception stores.
pub(crate) fn exception_bytes(result: &CubeResult, dims: usize) -> usize {
    result
        .exceptions_map()
        .values()
        .map(|t| table_bytes(t, dims))
        .sum()
}

impl CubingEngine for MoCubingEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MoCubing
    }

    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        let started = Instant::now();
        let window = batch_window(tuples);
        let opened_unit = self.window != Some(window);
        let mut delta = UnitDelta::for_batch(window, opened_unit, tuples.len());
        if opened_unit {
            // The old window closes with the rollover: exceptions that
            // do not recur in the new window are reported as cleared, so
            // appeared/cleared consumers can maintain a live alarm set
            // across units.
            let before: FxHashSet<(CuboidSpec, CellKey)> = self
                .result
                .iter_exceptions()
                .map(|(c, k, _)| (c.clone(), k.clone()))
                .collect();
            // Commit the window only after a successful rollover: a
            // failed one leaves the engine on its previous unit and the
            // next batch re-opens from scratch.
            self.window = None;
            self.open_unit(tuples)?;
            self.window = Some(window);
            self.units_opened += 1;
            delta.cells_touched = self.stats.cells_computed;
            let after: FxHashSet<(CuboidSpec, CellKey)> = self
                .result
                .iter_exceptions()
                .map(|(c, k, _)| (c.clone(), k.clone()))
                .collect();
            delta.appeared = after.difference(&before).cloned().collect();
            delta.cleared = before.difference(&after).cloned().collect();
        } else if self.transient {
            self.merge_batch_transient(tuples, &mut delta)?;
        } else {
            self.merge_batch_incremental(tuples, &mut delta)?;
        }
        delta.unit = self.units_opened.saturating_sub(1);
        delta.sort_cells();
        debug_assert!(delta.is_sorted());
        self.stats.elapsed += started.elapsed();
        self.refresh_stats();
        Ok(delta)
    }

    fn result(&self) -> &CubeResult {
        &self.result
    }

    fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Incremental mode keeps every between-layer full table for the
    /// open unit, which is exactly what a sharded merge needs; transient
    /// mode drops them and must answer `None`.
    fn full_between_tables(&self) -> Option<&FxHashMap<CuboidSpec, CuboidTable>> {
        if self.transient {
            None
        } else {
            Some(&self.tables)
        }
    }
}

// ---------------------------------------------------------------------------
// Algorithm 2 — popular-path cubing
// ---------------------------------------------------------------------------

/// Algorithm 2 as an incremental engine: the full tables along the
/// popular path (the paper's retained state) live in the exposed
/// result. A same-window batch merges into every path table directly
/// (the extracted equivalent of inserting into the path-ordered H-tree
/// and re-aggregating the insert path); exception-guided drilling over
/// the off-path cuboids is then brought up to date **incrementally**:
/// the engine retains a per-cuboid exception [`Frontier`] plus the full
/// drilled off-path tables ([`DrillFrontier`]), re-screens only the
/// path cells the batch touched, and re-aggregates an off-path cuboid
/// only when a parent frontier changed or the batch touched its
/// qualifying region — every other cuboid's drill output is reused
/// verbatim, so per-batch step-3 work is proportional to the *delta*
/// (touched cells + frontier churn), not the cube. Opening a new unit
/// rebuilds the H-tree, path tables and frontier state from scratch.
///
/// [`with_full_drill_replay`](Self::with_full_drill_replay) restores
/// the pre-frontier behavior (replay all of step 3 per batch) as the
/// reference baseline; both modes produce byte-identical cubes.
#[derive(Debug, Clone)]
pub struct PopularPathEngine {
    schema: CubeSchema,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    path: PopularPath,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Cells computed along the path (steps 1+2), excluding drilling —
    /// lets the drilling replay restate `cells_computed` exactly.
    path_cells: u64,
    /// Retained step-3 state: per-cuboid frontiers + drilled tables.
    drill: DrillFrontier,
    /// Replay all of step 3 on every batch (the reference baseline)
    /// instead of the frontier-dirty incremental walk.
    full_replay: bool,
    stats: RunStats,
    mem: MemoryAccountant,
    result: CubeResult,
}

impl PopularPathEngine {
    /// Creates an engine drilling along `path` (or the default
    /// dimension-order path when `None`).
    ///
    /// # Errors
    /// [`CoreError::Olap`] for a path that does not span the lattice.
    pub fn new(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        path: Option<PopularPath>,
    ) -> Result<Self> {
        let path = match path {
            Some(p) => p,
            None => PopularPath::default_for(layers.lattice())?,
        };
        let result = empty_result(&layers, &policy, Algorithm::PopularPath);
        Ok(PopularPathEngine {
            schema,
            layers,
            policy,
            path,
            window: None,
            units_opened: 0,
            path_cells: 0,
            drill: DrillFrontier::default(),
            full_replay: false,
            stats: RunStats::default(),
            mem: MemoryAccountant::new(),
            result,
        })
    }

    /// The popular path the engine drills along.
    pub fn path(&self) -> &PopularPath {
        &self.path
    }

    /// Switches the engine to the pre-frontier behavior: replay **all**
    /// of step 3 (exception-guided drilling over every off-path cuboid)
    /// on every same-window batch, instead of restricting the replay to
    /// cuboids whose exception frontier changed. Cubes are
    /// byte-identical either way — this mode exists as the reference
    /// baseline for the equivalence tests and the `incremental` bench
    /// experiment's speedup measurement.
    #[must_use]
    pub fn with_full_drill_replay(mut self) -> Self {
        self.full_replay = true;
        self
    }

    /// The retained step-3 state of the open unit: per-cuboid exception
    /// frontiers and the drilled off-path tables.
    pub fn drill_state(&self) -> &DrillFrontier {
        &self.drill
    }

    /// Consumes the engine, returning the final cube result.
    pub fn into_result(self) -> CubeResult {
        self.result
    }

    /// Full recomputation for a new unit window: path-ordered H-tree
    /// roll-up (steps 1 & 2 of the batch algorithm), then drilling.
    fn open_unit(&mut self, tuples: &[MTuple]) -> Result<()> {
        let dims = self.schema.num_dims();
        let lattice = self.layers.lattice();
        self.stats = RunStats::default();
        self.mem = MemoryAccountant::new();

        let attrs = attrs_for_path(lattice, &self.path);
        let mut tree: HTree<Isb> = HTree::new(attrs)?;
        for t in tuples {
            let values = expand_tuple(&self.schema, lattice.m_layer(), t.ids(), tree.order());
            let leaf = tree.insert_path(&values)?;
            match tree.payload_mut(leaf) {
                Some(acc) => merge_sibling(acc, t.isb())?,
                slot @ None => *slot = Some(*t.isb()),
            }
        }
        self.stats.rows_folded += tuples.len() as u64;
        tree.aggregate_bottom_up(
            |m| *m,
            |acc, next| {
                merge_sibling(acc, next).expect("one validated window");
            },
        );
        self.mem.add(tree.approx_bytes());

        // Path cuboid i corresponds to tree depth `o_attrs + i`.
        let o_attrs = (0..dims)
            .filter(|&d| lattice.o_layer().level(d) > 0)
            .count();
        let depth_of: FxHashMap<usize, &CuboidSpec> = self
            .path
            .cuboids()
            .iter()
            .enumerate()
            .map(|(i, c)| (o_attrs + i, c))
            .collect();
        let mut path_tables: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        for cuboid in self.path.cuboids() {
            path_tables.insert(cuboid.clone(), CuboidTable::default());
        }
        crate::popular_path::extract_path_tables(
            &self.schema,
            &tree,
            lattice.m_layer(),
            &depth_of,
            &mut path_tables,
        )?;
        self.path_cells = path_tables.values().map(|t| t.len() as u64).sum();
        for table in path_tables.values() {
            self.mem.add(table_bytes(table, dims));
        }
        self.stats.cells_computed += self.path_cells;
        self.stats.cuboids_computed += self.path.cuboids().len() as u32;
        let tree_bytes = tree.approx_bytes();
        drop(tree);
        self.mem.remove(tree_bytes);

        // The m- and o-layer tables live in the path tables too; expose
        // them as the critical layers (this duplication is the batch
        // algorithm's result shape).
        let m_table = path_tables[lattice.m_layer()].clone();
        self.mem.add(table_bytes(&m_table, dims));
        let o_table = path_tables[lattice.o_layer()].clone();
        self.mem.add(table_bytes(&o_table, dims));
        self.result = CubeResult::new(
            self.layers.clone(),
            self.policy.clone(),
            Algorithm::PopularPath,
            m_table,
            o_table,
            FxHashMap::default(),
            path_tables,
            self.stats,
        );
        self.drill_full()
    }

    /// Incremental merge of a same-window batch into every path table
    /// (and the critical-layer mirrors), then the step-3 update —
    /// frontier-dirty by default, a full replay in baseline mode.
    fn merge_batch(&mut self, tuples: &[MTuple], delta: &mut UnitDelta) -> Result<()> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let o_spec = self.layers.lattice().o_layer().clone();
        let path_specs: Vec<CuboidSpec> = self.path.cuboids().to_vec();

        self.stats.rows_folded += tuples.len() as u64;
        let mut touched_all: FxHashMap<CuboidSpec, FxHashSet<CellKey>> = FxHashMap::default();
        let mut m_updates: Vec<(CellKey, Isb)> = Vec::new();
        let mut o_updates: Vec<(CellKey, Isb)> = Vec::new();
        for cuboid in &path_specs {
            let table = self
                .result
                .path_tables_mut()
                .get_mut(cuboid)
                .expect("path tables are pre-created per unit");
            let before = table_bytes(table, dims);
            let (touched, created) =
                fold_tuples_into(&self.schema, &m_spec, cuboid, table, tuples)?;
            self.mem
                .add(table_bytes(table, dims).saturating_sub(before));
            self.path_cells += created;
            delta.cells_touched += touched.len() as u64;
            // The critical layers are always on the path; remember their
            // touched cells so the m/o mirror tables can be synced below
            // without re-folding the batch.
            if cuboid == &m_spec {
                m_updates = touched
                    .iter()
                    .map(|k| {
                        let isb = table[k];
                        (k.clone(), isb)
                    })
                    .collect();
            } else if cuboid == &o_spec {
                o_updates = touched
                    .iter()
                    .map(|k| {
                        let isb = table[k];
                        (k.clone(), isb)
                    })
                    .collect();
            }
            // The incremental drill re-screens exactly these cells.
            touched_all.insert(cuboid.clone(), touched);
        }
        for spec_is_m in [true, false] {
            let (updates, mirror) = if spec_is_m {
                (&m_updates, self.result.m_table_mut())
            } else {
                (&o_updates, self.result.o_table_mut())
            };
            let before = table_bytes(mirror, dims);
            for (key, isb) in updates {
                mirror.insert(key.clone(), *isb);
            }
            self.mem
                .add(table_bytes(mirror, dims).saturating_sub(before));
        }
        if self.full_replay {
            self.drill_full()
        } else {
            self.drill_incremental(&touched_all)
        }
    }

    /// Step 3, from scratch: exception-guided drilling over every
    /// off-path cuboid, aggregated from the (updated) path tables.
    /// Coarse-to-fine, so every cuboid's one-step-coarser parents are
    /// screened first; an off-path cell is computed only when at least
    /// one parent projection lies on that parent's exception frontier.
    /// Rebuilds the retained [`DrillFrontier`] state the incremental
    /// walk ([`drill_incremental`](Self::drill_incremental)) updates on
    /// later batches.
    fn drill_full(&mut self) -> Result<()> {
        let dims = self.schema.num_dims();
        let lattice = self.layers.lattice();
        let is_m_or_o = |c: &CuboidSpec| c == lattice.m_layer() || c == lattice.o_layer();
        let mut top_down = lattice.bottom_up_order();
        top_down.reverse();

        for table in self.drill.tables.values() {
            self.mem.remove(table_bytes(table, dims));
        }
        self.drill.clear();

        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut drilled_rows: u64 = 0;

        for cuboid in top_down {
            if let Some(full) = self.result.path_tables().get(&cuboid) {
                let keep = !is_m_or_o(&cuboid);
                let mut keys = FxHashSet::default();
                let mut exc = CuboidTable::default();
                for (key, isb) in full {
                    if self.policy.is_exception(&cuboid, isb) {
                        keys.insert(key.clone());
                        if keep {
                            exc.insert(key.clone(), *isb);
                        }
                    }
                }
                self.drill
                    .frontiers
                    .insert(cuboid.clone(), Frontier::from_cells(keys));
                if !exc.is_empty() {
                    exceptions.insert(cuboid, exc);
                }
                continue;
            }

            let parents = lattice.parents(&cuboid);
            if !self.has_drill_candidates(&parents) {
                self.drill
                    .frontiers
                    .insert(cuboid.clone(), Frontier::default());
                continue;
            }
            let (computed, frontier, exc, rows) = self.drill_cuboid(&cuboid, &parents)?;
            drilled_rows += rows;
            self.drill.frontiers.insert(cuboid.clone(), frontier);
            if !exc.is_empty() {
                exceptions.insert(cuboid.clone(), exc);
            }
            self.mem.add(table_bytes(&computed, dims));
            self.drill.tables.insert(cuboid, computed);
        }

        // Swap the replayed exception stores in, keeping the analytical
        // accounting balanced.
        for table in exceptions.values() {
            self.mem.add(table_bytes(table, dims));
        }
        let old = std::mem::replace(self.result.exceptions_mut(), exceptions);
        for table in old.values() {
            self.mem.remove(table_bytes(table, dims));
        }

        self.stats.rows_folded += drilled_rows;
        self.stats.drill_replayed_cuboids += self.drill.tables.len() as u64;
        self.restate_drill_counters();
        Ok(())
    }

    /// Step 3, frontier-dirty: brings the retained drill state up to
    /// date after a same-window batch touching `touched` path cells.
    ///
    /// 1. Path frontiers and exception stores are re-screened **only at
    ///    the touched cells** (everything else is provably unchanged).
    /// 2. Off-path cuboids are walked coarse-to-fine; one is
    ///    re-aggregated only when a parent frontier changed this batch
    ///    (newly exceptional ancestors drill down, cleared ancestors
    ///    retract their drilled subtree) or the batch touched a cell of
    ///    its qualifying region (stale drilled values). Unchanged
    ///    frontiers keep their prior off-path tables verbatim — and
    ///    because [`drill_aggregate`] folds in a deterministic sorted
    ///    order, the retained tables are byte-identical to what a full
    ///    replay would recompute.
    fn drill_incremental(
        &mut self,
        touched: &FxHashMap<CuboidSpec, FxHashSet<CellKey>>,
    ) -> Result<()> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let o_spec = self.layers.lattice().o_layer().clone();
        self.drill.changed.clear();
        let exc_before = exception_bytes(&self.result, dims);

        // Phase 1: path frontiers + exception stores, touched cells only.
        let mut exc_updates: Vec<(CuboidSpec, CellKey, Option<Isb>)> = Vec::new();
        for cuboid in self.path.cuboids() {
            let Some(keys) = touched.get(cuboid) else {
                continue;
            };
            let table = &self.result.path_tables()[cuboid];
            let keep = cuboid != &m_spec && cuboid != &o_spec;
            let frontier = self.drill.frontiers.entry(cuboid.clone()).or_default();
            let mut changed = false;
            for key in keys {
                let isb = table[key];
                if self
                    .policy
                    .screen_frontier_cell(cuboid, frontier.cells_mut(), key, &isb)
                    .is_some()
                {
                    changed = true;
                }
                if keep {
                    let is_exc = frontier.contains(key);
                    exc_updates.push((cuboid.clone(), key.clone(), is_exc.then_some(isb)));
                }
            }
            if changed {
                self.drill.changed.insert(cuboid.clone());
            }
        }

        // Phase 2: the off-path walk. `touch_memo` caches, per parent
        // cuboid, whether any touched m-cell projects onto its frontier
        // — the "did the batch touch this cuboid's qualifying region?"
        // half of the dirty test, shared by all of the parent's
        // children.
        let lattice = self.layers.lattice();
        let mut top_down = lattice.bottom_up_order();
        top_down.reverse();
        let m_touched = touched.get(&m_spec);
        let mut touch_memo: FxHashMap<CuboidSpec, bool> = FxHashMap::default();
        let mut replayed: u64 = 0;
        let mut skipped: u64 = 0;
        let mut exc_replacements: Vec<(CuboidSpec, Option<CuboidTable>)> = Vec::new();

        for cuboid in top_down {
            if self.result.path_tables().contains_key(&cuboid) {
                continue;
            }
            let parents = lattice.parents(&cuboid);
            if !self.has_drill_candidates(&parents) {
                // Cleared ancestors: retract the drilled subtree.
                let had_frontier = self
                    .drill
                    .frontiers
                    .get(&cuboid)
                    .is_some_and(|f| !f.is_empty());
                if let Some(old) = self.drill.tables.remove(&cuboid) {
                    self.mem.remove(table_bytes(&old, dims));
                    exc_replacements.push((cuboid.clone(), None));
                    replayed += 1;
                } else {
                    skipped += 1;
                }
                if had_frontier {
                    self.drill.changed.insert(cuboid.clone());
                }
                self.drill.frontiers.insert(cuboid, Frontier::default());
                continue;
            }

            let parent_changed = parents.iter().any(|p| self.drill.changed.contains(p));
            let batch_touches = parents.iter().any(|p| {
                *touch_memo.entry(p.clone()).or_insert_with(|| {
                    let Some(keys) = m_touched else {
                        return false;
                    };
                    let Some(frontier) = self.drill.frontiers.get(p) else {
                        return false;
                    };
                    if frontier.is_empty() {
                        return false;
                    }
                    let projector = Projector::new(&self.schema, &m_spec, p);
                    let mut out = vec![0u32; dims];
                    keys.iter().any(|k| {
                        projector.project_into(k.ids(), &mut out);
                        frontier.contains_ids(&out)
                    })
                })
            });
            if !parent_changed && !batch_touches {
                // Unchanged frontier, untouched region: the retained
                // table (and its exception store) is exact verbatim.
                skipped += 1;
                continue;
            }

            // Re-drill this cuboid — the identical code path the full
            // replay runs, so reuse-vs-replay can never diverge.
            let (computed, new_frontier, exc, rows) = self.drill_cuboid(&cuboid, &parents)?;
            self.stats.rows_folded += rows;
            replayed += 1;

            if self.drill.frontiers.get(&cuboid) != Some(&new_frontier) {
                self.drill.changed.insert(cuboid.clone());
            }
            self.drill.frontiers.insert(cuboid.clone(), new_frontier);
            exc_replacements.push((cuboid.clone(), (!exc.is_empty()).then_some(exc)));
            self.mem.add(table_bytes(&computed, dims));
            if let Some(old) = self.drill.tables.insert(cuboid, computed) {
                self.mem.remove(table_bytes(&old, dims));
            }
        }

        // Apply the collected exception-store updates in one pass.
        let exceptions = self.result.exceptions_mut();
        for (cuboid, key, value) in exc_updates {
            match value {
                Some(isb) => {
                    exceptions.entry(cuboid).or_default().insert(key, isb);
                }
                None => {
                    if let Some(t) = exceptions.get_mut(&cuboid) {
                        t.remove(&key);
                    }
                }
            }
        }
        for (cuboid, replacement) in exc_replacements {
            match replacement {
                Some(table) => {
                    exceptions.insert(cuboid, table);
                }
                None => {
                    exceptions.remove(&cuboid);
                }
            }
        }
        exceptions.retain(|_, t| !t.is_empty());
        let exc_after = exception_bytes(&self.result, dims);
        self.mem.add(exc_after.saturating_sub(exc_before));
        self.mem.remove(exc_before.saturating_sub(exc_after));

        self.stats.drill_replayed_cuboids += replayed;
        self.stats.drill_skipped_cuboids += skipped;
        self.restate_drill_counters();
        Ok(())
    }

    /// Whether any of `parents` has a non-empty exception frontier —
    /// the step-3 precondition for drilling a cuboid at all.
    fn has_drill_candidates(&self, parents: &[CuboidSpec]) -> bool {
        parents
            .iter()
            .any(|p| self.drill.frontiers.get(p).is_some_and(|f| !f.is_empty()))
    }

    /// Drills one off-path cuboid from its closest path source,
    /// qualifying cells against the parents' current frontiers, and
    /// screens the result. This is the **single** drill-one-cuboid code
    /// path — the full replay and the frontier-dirty walk both call it,
    /// so "re-drills exactly as the replay would" holds by
    /// construction. Returns the computed full table, its frontier, its
    /// exception store and the source rows folded.
    fn drill_cuboid(
        &self,
        cuboid: &CuboidSpec,
        parents: &[CuboidSpec],
    ) -> Result<(CuboidTable, Frontier, CuboidTable, u64)> {
        let lattice = self.layers.lattice();
        let probe = QualifyProbe::new(&self.schema, cuboid, parents, &self.drill.frontiers);
        let source = lattice
            .closest_computed_descendant(cuboid, self.path.cuboids().iter())
            .ok_or_else(|| CoreError::NotMaterialized {
                detail: format!("no path cuboid below {cuboid}"),
            })?;
        let source_table = &self.result.path_tables()[source];
        let (computed, rows) =
            drill_aggregate(&self.schema, source, source_table, cuboid, |ids| {
                probe.qualifies(ids)
            })?;
        let mut keys = FxHashSet::default();
        let mut exc = CuboidTable::default();
        for (key, isb) in &computed {
            if self.policy.is_exception(cuboid, isb) {
                keys.insert(key.clone());
                exc.insert(key.clone(), *isb);
            }
        }
        Ok((computed, Frontier::from_cells(keys), exc, rows))
    }

    /// Restates the drilled share of the work counters from the
    /// retained drill state (drilling is a replay: the counters
    /// describe the *current* cube, they do not accumulate across
    /// same-window batches).
    fn restate_drill_counters(&mut self) {
        self.stats.cuboids_computed =
            self.path.cuboids().len() as u32 + self.drill.tables.len() as u32;
        self.stats.cells_computed = self.path_cells + self.drill.drilled_cells();
    }

    /// Refreshes the retention statistics and publishes them into the
    /// exposed result. The drilled off-path tables are genuinely
    /// retained across a unit's batches (that is what makes the
    /// frontier-dirty replay incremental), so they count toward the
    /// retention figures alongside the path tables and exceptions.
    fn refresh_stats(&mut self) {
        let dims = self.schema.num_dims();
        let result = &self.result;
        self.stats.exception_cells = result.total_exception_cells();
        self.stats.cells_retained = result
            .path_tables()
            .values()
            .map(|t| t.len() as u64)
            .sum::<u64>()
            + self.stats.exception_cells
            + self.drill.drilled_cells();
        self.stats.retained_bytes = result
            .path_tables()
            .values()
            .map(|t| table_bytes(t, dims))
            .sum::<usize>()
            + exception_bytes(result, dims)
            + self
                .drill
                .tables
                .values()
                .map(|t| table_bytes(t, dims))
                .sum::<usize>();
        self.stats.peak_bytes = self.mem.peak();
        self.result.set_stats(self.stats);
    }

    /// All retained between-layer exception cells as owned pairs.
    fn exception_cells(&self) -> FxHashSet<(CuboidSpec, CellKey)> {
        self.result
            .iter_exceptions()
            .map(|(c, k, _)| (c.clone(), k.clone()))
            .collect()
    }
}

/// Alloc-free drill qualification for one off-path cuboid: a target
/// cell qualifies when its projection into at least one parent cuboid
/// lands on that parent's exception frontier. Parents with empty
/// frontiers are dropped up front, projections run through the PR-4
/// [`Projector`] LUTs into one reusable scratch buffer, and the
/// frontier probe is the `Borrow<[u32]>` slice lookup — no per-row
/// key allocation anywhere on the drill path.
struct QualifyProbe<'a> {
    /// `(frontier, target → parent projector)` per non-empty parent.
    parents: Vec<(&'a Frontier, Projector<'a>)>,
    scratch: RefCell<Vec<u32>>,
}

impl<'a> QualifyProbe<'a> {
    fn new(
        schema: &'a CubeSchema,
        cuboid: &CuboidSpec,
        parent_specs: &[CuboidSpec],
        frontiers: &'a FxHashMap<CuboidSpec, Frontier>,
    ) -> Self {
        let parents = parent_specs
            .iter()
            .filter_map(|p| {
                frontiers
                    .get(p)
                    .filter(|f| !f.is_empty())
                    .map(|f| (f, Projector::new(schema, cuboid, p)))
            })
            .collect();
        QualifyProbe {
            parents,
            scratch: RefCell::new(vec![0u32; schema.num_dims()]),
        }
    }

    /// Tests one target cell's coordinates against the parent frontiers.
    fn qualifies(&self, ids: &[u32]) -> bool {
        let mut scratch = self.scratch.borrow_mut();
        self.parents.iter().any(|(frontier, projector)| {
            projector.project_into(ids, &mut scratch);
            frontier.contains_ids(&scratch)
        })
    }
}

impl CubingEngine for PopularPathEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::PopularPath
    }

    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        let started = Instant::now();
        let window = batch_window(tuples);
        let opened_unit = self.window != Some(window);
        // Diffed against the post-batch state below; on a rollover this
        // reports the closed window's lapsed exceptions as cleared.
        let before = self.exception_cells();
        let mut delta = UnitDelta::for_batch(window, opened_unit, tuples.len());
        if opened_unit {
            // Commit the window only after a successful rollover (see
            // the trait docs).
            self.window = None;
            self.open_unit(tuples)?;
            self.window = Some(window);
            self.units_opened += 1;
            delta.cells_touched = self.stats.cells_computed;
        } else {
            self.merge_batch(tuples, &mut delta)?;
        }
        delta.unit = self.units_opened.saturating_sub(1);
        let after = self.exception_cells();
        delta.appeared = after.difference(&before).cloned().collect();
        delta.cleared = before.difference(&after).cloned().collect();
        delta.sort_cells();
        debug_assert!(delta.is_sorted());
        self.stats.elapsed += started.elapsed();
        self.refresh_stats();
        Ok(delta)
    }

    fn result(&self) -> &CubeResult {
        &self.result
    }

    fn stats(&self) -> &RunStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_regress::TimeSeries;

    fn isb(slope: f64, base: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| base + slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

    fn setup() -> (CubeSchema, CriticalLayers, ExceptionPolicy) {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        (schema, layers, ExceptionPolicy::slope_threshold(0.4))
    }

    fn dense_tuples() -> Vec<MTuple> {
        let mut tuples = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                tuples.push(MTuple::new(vec![a, b], isb((a + b) as f64 / 10.0, 1.0)));
            }
        }
        tuples
    }

    /// Same keys, measures equal up to merge-order rounding.
    fn tables_approx_eq(a: &CuboidTable, b: &CuboidTable) {
        assert_eq!(a.len(), b.len());
        for (key, m) in a {
            let other = b.get(key).unwrap_or_else(|| panic!("missing cell {key}"));
            assert!(m.approx_eq(other, 1e-9), "{key}: {m} vs {other}");
        }
    }

    #[test]
    fn fresh_engine_exposes_an_empty_result() {
        let (schema, layers, policy) = setup();
        let e = MoCubingEngine::new(schema, layers, policy).unwrap();
        assert_eq!(e.result().m_layer_cells(), 0);
        assert_eq!(e.result().total_exception_cells(), 0);
        assert_eq!(e.stats().cells_computed, 0);
    }

    #[test]
    fn single_batch_matches_batch_compute() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut e = MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap();
        let delta = e.ingest_unit(&tuples).unwrap();
        assert!(delta.opened_unit);
        assert_eq!(delta.unit, 0);
        assert_eq!(delta.tuples, 16);

        let batch = crate::mo_cubing::compute(&schema, &layers, &policy, &tuples).unwrap();
        assert_eq!(e.result().m_layer_cells(), batch.m_layer_cells());
        assert_eq!(
            e.result().total_exception_cells(),
            batch.total_exception_cells()
        );
        assert_eq!(e.stats().cells_computed, batch.stats().cells_computed);
    }

    #[test]
    fn same_window_batches_merge_incrementally() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut split =
            MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap();
        let d0 = split.ingest_unit(&tuples[..4]).unwrap();
        let d1 = split.ingest_unit(&tuples[4..]).unwrap();
        assert!(d0.opened_unit);
        assert!(!d1.opened_unit, "same interval folds into the open unit");
        assert_eq!(d1.unit, 0);

        let mut whole = MoCubingEngine::new(schema, layers, policy).unwrap();
        whole.ingest_unit(&tuples).unwrap();
        let (a, b) = (split.result(), whole.result());
        tables_approx_eq(a.m_table(), b.m_table());
        tables_approx_eq(a.o_table(), b.o_table());
        assert_eq!(a.total_exception_cells(), b.total_exception_cells());
    }

    #[test]
    fn transient_mode_matches_incremental_mode() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut transient =
            MoCubingEngine::transient(schema.clone(), layers.clone(), policy.clone()).unwrap();
        let mut incremental = MoCubingEngine::new(schema, layers, policy).unwrap();
        for batch in tuples.chunks(6) {
            transient.ingest_unit(batch).unwrap();
            incremental.ingest_unit(batch).unwrap();
        }
        let (a, b) = (transient.result(), incremental.result());
        tables_approx_eq(a.m_table(), b.m_table());
        tables_approx_eq(a.o_table(), b.o_table());
        assert_eq!(a.total_exception_cells(), b.total_exception_cells());
        // Transient mode retains no between-layer full tables.
        assert!(transient.tables.is_empty());
        assert!(!incremental.tables.is_empty());
    }

    #[test]
    fn new_window_opens_a_new_unit() {
        let (schema, layers, policy) = setup();
        let mut e = MoCubingEngine::new(schema, layers, policy).unwrap();
        e.ingest_unit(&dense_tuples()).unwrap();
        let shifted: Vec<MTuple> = (0..4u32)
            .map(|a| MTuple::new(vec![a, a], Isb::new(10, 19, 1.0, 0.9).unwrap()))
            .collect();
        let delta = e.ingest_unit(&shifted).unwrap();
        assert!(delta.opened_unit);
        assert_eq!(delta.unit, 1);
        assert_eq!(delta.window, (10, 19));
        assert_eq!(e.result().m_layer_cells(), 4, "old unit replaced");
    }

    #[test]
    fn transient_merge_does_not_leak_peak_bytes() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut e = MoCubingEngine::transient(schema, layers, policy).unwrap();
        e.ingest_unit(&tuples).unwrap();
        let first_peak = e.stats().peak_bytes;
        // Re-merging the same cells grows no retained state; with
        // balanced accounting the peak stabilizes (old + new coexist
        // once, then the old side is released every batch).
        for _ in 0..6 {
            e.ingest_unit(&tuples).unwrap();
        }
        assert!(
            e.stats().peak_bytes <= first_peak * 3,
            "peak {} drifted from first-batch peak {}",
            e.stats().peak_bytes,
            first_peak
        );
    }

    #[test]
    fn incremental_mode_reports_its_extra_retained_memory() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut transient =
            MoCubingEngine::transient(schema.clone(), layers.clone(), policy.clone()).unwrap();
        let mut incremental = MoCubingEngine::new(schema, layers, policy).unwrap();
        transient.ingest_unit(&tuples).unwrap();
        incremental.ingest_unit(&tuples).unwrap();
        // Incremental mode retains the between-layer full tables; its
        // retention figures must say so.
        assert!(incremental.stats().retained_bytes > transient.stats().retained_bytes);
        assert!(incremental.stats().cells_retained > transient.stats().cells_retained);
    }

    #[test]
    fn failed_rollover_does_not_poison_the_engine() {
        let (schema, layers, policy) = setup();
        let mut e = MoCubingEngine::new(schema, layers, policy).unwrap();
        e.ingest_unit(&dense_tuples()).unwrap();
        // A structurally invalid batch (wrong arity) fails validation...
        let bad = vec![MTuple::new(vec![0], isb(0.1, 0.0))];
        assert!(e.ingest_unit(&bad).is_err());
        // ...and a valid batch for a fresh window still works afterwards.
        let next: Vec<MTuple> = (0..3u32)
            .map(|a| MTuple::new(vec![a, a], Isb::new(10, 19, 1.0, 0.2).unwrap()))
            .collect();
        let delta = e.ingest_unit(&next).unwrap();
        assert!(delta.opened_unit);
        assert_eq!(e.result().m_layer_cells(), 3);
    }

    #[test]
    fn incremental_exceptions_can_clear() {
        let (schema, layers, _) = setup();
        // Threshold 0.4: a lone +0.5 slope cell is exceptional; merging a
        // -0.5 sibling into the same coarse cells cancels it out.
        let policy = ExceptionPolicy::slope_threshold(0.4);
        let mut e = MoCubingEngine::new(schema, layers, policy).unwrap();
        let up = vec![MTuple::new(vec![0, 0], isb(0.5, 1.0))];
        let down = vec![MTuple::new(vec![1, 1], isb(-0.5, 1.0))];
        let d0 = e.ingest_unit(&up).unwrap();
        assert!(!d0.appeared.is_empty());
        let d1 = e.ingest_unit(&down).unwrap();
        assert!(
            !d1.cleared.is_empty(),
            "coarse cells covering both streams lose exception status"
        );
    }

    #[test]
    fn popular_path_engine_single_batch_matches_batch_compute() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut e =
            PopularPathEngine::new(schema.clone(), layers.clone(), policy.clone(), None).unwrap();
        e.ingest_unit(&tuples).unwrap();
        let batch = crate::popular_path::compute(&schema, &layers, &policy, None, &tuples).unwrap();
        assert_eq!(e.result().m_layer_cells(), batch.m_layer_cells());
        assert_eq!(e.result().path_tables().len(), batch.path_tables().len());
        assert_eq!(
            e.result().total_exception_cells(),
            batch.total_exception_cells()
        );
        assert_eq!(e.stats().cuboids_computed, batch.stats().cuboids_computed);
    }

    #[test]
    fn popular_path_incremental_equals_whole_batch() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut split =
            PopularPathEngine::new(schema.clone(), layers.clone(), policy.clone(), None).unwrap();
        for chunk in tuples.chunks(5) {
            split.ingest_unit(chunk).unwrap();
        }
        let mut whole = PopularPathEngine::new(schema, layers, policy, None).unwrap();
        whole.ingest_unit(&tuples).unwrap();
        let (a, b) = (split.result(), whole.result());
        tables_approx_eq(a.m_table(), b.m_table());
        tables_approx_eq(a.o_table(), b.o_table());
        for (cuboid, table) in b.path_tables() {
            tables_approx_eq(&a.path_tables()[cuboid], table);
        }
        assert_eq!(a.total_exception_cells(), b.total_exception_cells());
    }

    #[test]
    fn boxed_engines_dispatch_dynamically() {
        let (schema, layers, policy) = setup();
        let mut engines: Vec<Box<dyn CubingEngine>> = vec![
            Box::new(MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone()).unwrap()),
            Box::new(PopularPathEngine::new(schema, layers, policy, None).unwrap()),
        ];
        let tuples = dense_tuples();
        for e in &mut engines {
            e.ingest_unit(&tuples).unwrap();
            assert_eq!(e.result().m_layer_cells(), 16);
        }
        assert_eq!(engines[0].algorithm(), Algorithm::MoCubing);
        assert_eq!(engines[1].algorithm(), Algorithm::PopularPath);
        // Footnote 7 at the trait level: A1 retains a superset of A2.
        assert!(
            engines[0].result().total_exception_cells()
                >= engines[1].result().total_exception_cells()
        );
    }

    #[test]
    fn empty_batches_are_rejected() {
        let (schema, layers, policy) = setup();
        let mut e = MoCubingEngine::new(schema, layers, policy).unwrap();
        assert!(e.ingest_unit(&[]).is_err());
    }
}
