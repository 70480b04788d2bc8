//! Sharded parallel cubing: partition the m-layer across N engines.
//!
//! Theorem 3.2 makes ISB aggregation **linear**, so cube construction is
//! embarrassingly partitionable: split a unit's m-layer tuples into
//! disjoint groups, cube each group independently, and every cell of the
//! merged cube is the sibling-merge of the per-shard cells — exactly the
//! value a single engine would have computed. [`ShardedEngine`] realizes
//! that: it hash-partitions each batch by m-layer
//! [`CellKey`](regcube_olap::cell::CellKey) across `N`
//! inner [`CubingEngine`]s, runs their `ingest_unit`s concurrently on a
//! [`WorkerPool`], and merges the per-shard [`CubeResult`]s (and
//! [`UnitDelta`]s) back in **deterministic shard order**. The merge
//! itself is parallel too: each cuboid's tables are independent, so they
//! are merged and screened as separate pool jobs.
//!
//! # Exactness
//!
//! A cell above the m-layer aggregates tuples from *several* shards, so
//! no shard can judge exceptionality on its own (two sub-threshold shard
//! partials may merge into an exception, and vice versa). The sharded
//! engine therefore makes its inner engines retain **every**
//! between-layer cell and screens exceptions *after* the merge with the
//! real policy — which is precisely Algorithm 1's definition (compute
//! every between-layer cell, retain the exceptional ones). Engines that
//! keep full between-layer tables anyway (a table-retaining
//! [`MoCubingEngine`], detected via
//! [`CubingEngine::full_between_tables`]) run with a no-op policy and
//! zero extra retention; others (e.g. [`PopularPathEngine`]) run under
//! [`ExceptionPolicy::always`] so their exception stores carry the full
//! tables to the merge. Consequently:
//!
//! * `ShardedEngine<MoCubingEngine>` produces the **same cube** as an
//!   unsharded [`MoCubingEngine`] for every shard count, on either
//!   table layout (the contract tests pin n ∈ {1, 2, 3, 7});
//! * `ShardedEngine<PopularPathEngine>` keeps the critical layers and
//!   path tables exact, but its exception set is Algorithm 1's — a
//!   superset of the unsharded engine's drilled set (the footnote-7
//!   invariant, now from the other side). With a single shard the inner
//!   engine runs the real policy unmodified, so `n = 1` is a true
//!   passthrough for *any* engine.
//!
//! The merged [`UnitDelta`] is derived here, by diffing the *merged*
//! exception stores of the previous unit and this one — never from a
//! shard's own delta, which only sees its partition of the data.
//!
//! Like every [`CubingEngine`], a sharded engine cubes a unit once: the
//! batch is the window's complete m-layer, each shard receives its
//! whole partition of it in one call, and a second batch for the held
//! window is refused.
//!
//! # Topology
//!
//! The shard pool is the system's parallelism backbone: shard-level
//! `ingest_unit` calls and per-cuboid merge jobs run on it, and the
//! inner engines are built **without** pools of their own (see the
//! nesting rule in [`crate::pool`]). An *unsharded* [`MoCubingEngine`]
//! may instead take a pool via [`MoCubingEngine::with_pool`] to
//! parallelize its per-tier roll-up — the two strategies compose with
//! the same primitives but are never nested.

use crate::engine::{empty_result, next_window, unshare_result, Backend, CubingEngine, UnitDelta};
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, validate_tuples, MTuple};
use crate::pool::{self, WorkerPool};
use crate::result::{Algorithm, CubeResult};
use crate::stats::RunStats;
use crate::table::{table_bytes, CuboidTable};
use crate::{MoCubingEngine, PopularPathEngine, Result};
use regcube_olap::fxhash::{FxHashMap, FxHasher};
use regcube_olap::{CubeSchema, CuboidSpec};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A cubing engine that partitions every unit across `N` inner engines
/// and merges their cubes under Theorem 3.2 linearity.
///
/// Implements [`CubingEngine`] itself, so it slots in wherever a single
/// engine does — the online stream engine, the bench harness, the batch
/// wrappers. See the module docs for the exactness contract.
pub struct ShardedEngine<E: CubingEngine + Send + Sync + 'static> {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    /// The *real* policy — inner shards retain everything; this screens
    /// the merged cube.
    policy: Arc<ExceptionPolicy>,
    /// Writer lock for `ingest_unit`, shared readers for the merge.
    shards: Vec<Arc<RwLock<E>>>,
    /// Window of the last unit each shard successfully cubed. Only
    /// shards on the current window join the merge: a shard whose key
    /// range was silent in a unit still holds an older unit's cube and
    /// must not leak it into the new window.
    shard_windows: Vec<Option<(i64, i64)>>,
    /// Rebuilds one inner engine (with `inner_policy`) — used to reset
    /// shards that advanced into a unit another shard then failed, so
    /// the failed unit leaves no trace and can be retried (the trait's
    /// "after any error the engine is as it was" contract).
    #[allow(clippy::type_complexity)]
    factory: Arc<dyn Fn(CubeSchema, CriticalLayers, ExceptionPolicy) -> Result<E> + Send + Sync>,
    /// The policy the inner engines actually run (see
    /// [`with_factory`](Self::with_factory)).
    inner_policy: ExceptionPolicy,
    /// What the shard fans and per-cuboid merges run on: the pool given
    /// to [`with_shared_pool`](Self::with_shared_pool), else a private
    /// one created by the first unit that needs it (a single-shard
    /// passthrough never does).
    pool: Option<Arc<WorkerPool>>,
    algorithm: Algorithm,
    window: Option<(i64, i64)>,
    units_opened: u64,
    stats: RunStats,
    /// Shared with every snapshot taken of the held unit.
    result: Arc<CubeResult>,
}

impl<E: CubingEngine + Send + Sync + 'static> std::fmt::Debug for ShardedEngine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("algorithm", &self.algorithm)
            .field("window", &self.window)
            .field("units_opened", &self.units_opened)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ShardedEngine<MoCubingEngine> {
    /// Sharded Algorithm 1 on the row layout — see
    /// [`mo_cubing_on`](Self::mo_cubing_on).
    ///
    /// # Errors
    /// Construction errors of the inner engines.
    pub fn mo_cubing(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        shards: usize,
    ) -> Result<Self> {
        Self::mo_cubing_on(Backend::Row, schema, layers, policy, shards)
    }

    /// Sharded Algorithm 1 over the given table layout. Produces the
    /// same cube as one unsharded engine for any `shards`: a single
    /// shard is a transient-mode passthrough; more shards run
    /// table-retaining engines whose between-layer tables feed the
    /// merge directly.
    ///
    /// # Errors
    /// Construction errors of the inner engines.
    pub fn mo_cubing_on(
        backend: Backend,
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        shards: usize,
    ) -> Result<Self> {
        Self::with_factory(schema, layers, policy, shards, move |s, l, p| {
            let engine = if shards <= 1 {
                MoCubingEngine::transient(s, l, p)
            } else {
                MoCubingEngine::new(s, l, p)
            };
            engine?.with_backend(backend)
        })
    }
}

impl ShardedEngine<PopularPathEngine> {
    /// Sharded Algorithm 2: `shards` [`PopularPathEngine`]s on their
    /// default paths. Critical layers and path tables are exact; with
    /// more than one shard the exception set follows Algorithm 1's
    /// definition (see the module docs).
    ///
    /// # Errors
    /// Construction errors of the inner engines.
    pub fn popular_path(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        shards: usize,
    ) -> Result<Self> {
        Self::with_factory(schema, layers, policy, shards, |schema, layers, policy| {
            PopularPathEngine::new(schema, layers, policy, None)
        })
    }
}

impl<E: CubingEngine + Send + Sync + 'static> ShardedEngine<E> {
    /// Builds a sharded engine over `shards` inner engines produced by
    /// `make` (clamped to at least 1).
    ///
    /// With one shard `make` receives the real `policy` (true
    /// passthrough). With more, the inner policy depends on a probe of
    /// the engine's [`full_between_tables`] capability: engines that
    /// retain every between-layer table get [`ExceptionPolicy::never`]
    /// (the merge reads the tables directly), the rest get
    /// [`ExceptionPolicy::always`] so their exception stores carry
    /// every computed cell to the post-merge screen.
    ///
    /// [`full_between_tables`]: CubingEngine::full_between_tables
    ///
    /// # Errors
    /// Whatever `make` returns.
    pub fn with_factory(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        shards: usize,
        make: impl Fn(CubeSchema, CriticalLayers, ExceptionPolicy) -> Result<E> + Send + Sync + 'static,
    ) -> Result<Self> {
        let shards = shards.max(1);
        let inner_policy = if shards == 1 {
            policy.clone()
        } else {
            let probe = make(schema.clone(), layers.clone(), ExceptionPolicy::never())?;
            if probe.full_between_tables().is_some() {
                ExceptionPolicy::never()
            } else {
                ExceptionPolicy::always()
            }
        };
        let engines: Vec<Arc<RwLock<E>>> = (0..shards)
            .map(|_| {
                make(schema.clone(), layers.clone(), inner_policy.clone())
                    .map(|e| Arc::new(RwLock::new(e)))
            })
            .collect::<Result<_>>()?;
        let algorithm = read(&engines[0]).algorithm();
        let result = empty_result(&layers, &policy, algorithm);
        Ok(ShardedEngine {
            schema: Arc::new(schema),
            layers,
            policy: Arc::new(policy),
            shard_windows: vec![None; shards],
            factory: Arc::new(make),
            inner_policy,
            pool: None,
            shards: engines,
            algorithm,
            window: None,
            units_opened: 0,
            stats: RunStats::default(),
            result,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs the per-unit shard fans and per-cuboid merges on `pool`
    /// instead of a private pool — the multiplexing seam for serving
    /// layers that host many tenant engines over one bounded worker set
    /// (thousands of tenants must not mean thousands of threads; see
    /// `regcube_serve`).
    ///
    /// The pool is used via [`WorkerPool::run`] from the thread calling
    /// [`ingest_unit`](CubingEngine::ingest_unit), so the usual nesting
    /// rule applies: never share the same pool that *dispatches* work
    /// to this engine (a pool job that blocks on its own queue can
    /// deadlock) — give the cubing layer its own shared pool, distinct
    /// from any dispatch pool above it.
    #[must_use]
    pub fn with_shared_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool the shard fans and merges run on — the shared one, or
    /// the private one, spawned here the first time it is asked for.
    fn pool(&mut self) -> Arc<WorkerPool> {
        let shards = self.shards.len();
        let private = || Arc::new(WorkerPool::new(shards.min(pool::default_threads())));
        Arc::clone(self.pool.get_or_insert_with(private))
    }

    /// The critical layers the engine cubes for.
    pub fn layers(&self) -> &CriticalLayers {
        &self.layers
    }

    /// Consumes the engine, returning the final merged cube result.
    pub fn into_result(self) -> CubeResult {
        unshare_result(self.result)
    }

    /// Partitions a validated batch by hashing each tuple's m-layer key.
    /// The hash is [`FxHasher`] — deterministic across runs and
    /// processes, so a key always lands on the same shard.
    fn partition(&self, tuples: &[MTuple]) -> Vec<Vec<MTuple>> {
        let n = self.shards.len();
        let mut parts: Vec<Vec<MTuple>> = (0..n).map(|_| Vec::new()).collect();
        for t in tuples {
            parts[shard_of(t.ids(), n)].push(t.clone());
        }
        parts
    }

    /// Replaces every shard holding `window` with a fresh inner engine
    /// that holds no unit.
    fn reset_shards_on(&mut self, window: (i64, i64)) -> Result<()> {
        for i in 0..self.shards.len() {
            if self.shard_windows[i] == Some(window) {
                let fresh = (self.factory)(
                    (*self.schema).clone(),
                    self.layers.clone(),
                    self.inner_policy.clone(),
                )?;
                self.shards[i] = Arc::new(RwLock::new(fresh));
                self.shard_windows[i] = None;
            }
        }
        Ok(())
    }

    /// Runs every non-empty partition's `ingest_unit` concurrently on
    /// the pool and records which shards now hold `window`.
    ///
    /// On a partial failure the shards that already advanced into the
    /// failed unit are rebuilt empty before the error propagates, so
    /// the engine honors the trait contract: the failed unit leaves no
    /// trace, and a retry cubes every partition from scratch instead of
    /// being refused by the shards that had succeeded.
    fn ingest_partitions(
        &mut self,
        pool: &WorkerPool,
        parts: Vec<Vec<MTuple>>,
        window: (i64, i64),
    ) -> Result<()> {
        // The engine does not hold `window`, so a shard that does has
        // been silent since an earlier unit of that same window: its
        // cube must neither join this unit's merge nor make the shard
        // refuse its partition as already cubed.
        self.reset_shards_on(window)?;
        let tasks: Vec<_> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(i, part)| {
                let shard = Arc::clone(&self.shards[i]);
                move || {
                    let mut engine = shard.write().unwrap_or_else(|e| e.into_inner());
                    engine.ingest_unit(&part).map(|_| i)
                }
            })
            .collect();
        let mut first_err = None;
        for outcome in pool.run(tasks) {
            match outcome {
                Ok(i) => self.shard_windows[i] = Some(window),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(()),
            Some(err) => {
                self.reset_shards_on(window)?;
                Err(err)
            }
        }
    }

    /// Shard indices whose cube belongs to the current `window`.
    fn active_shards(&self, window: (i64, i64)) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shard_windows[i] == Some(window))
            .collect()
    }

    /// Merges the cubes of every shard on the current window and screens
    /// exceptions with the real policy. Tables of different cuboids are
    /// independent, so each [`MergeKey`] is merged as its own pool job;
    /// within a job shards merge in index order, and the key set is
    /// collected into a [`BTreeSet`] — both deterministic, so the merged
    /// measures never depend on scheduling. Returns the merged unit,
    /// its statistics (timed from `started`) included.
    fn merge_shards(
        &self,
        pool: &WorkerPool,
        window: (i64, i64),
        started: Instant,
    ) -> Result<CubeResult> {
        let dims = self.schema.num_dims();
        let active = Arc::new(self.active_shards(window));

        // The union of table keys across active shards, in stable order.
        let mut keys: BTreeSet<MergeKey> = BTreeSet::new();
        keys.insert(MergeKey::M);
        keys.insert(MergeKey::O);
        let mut stats = RunStats::default();
        for &i in active.iter() {
            let engine = read(&self.shards[i]);
            let result = engine.result();
            match engine.full_between_tables() {
                Some(tables) => keys.extend(tables.keys().cloned().map(MergeKey::Between)),
                None => keys.extend(
                    result
                        .exceptions_map()
                        .keys()
                        .cloned()
                        .map(MergeKey::Between),
                ),
            }
            keys.extend(result.path_tables().keys().cloned().map(MergeKey::Path));

            let s = engine.stats();
            stats.rows_folded += s.rows_folded;
            stats.rows_folded_simd += s.rows_folded_simd;
            stats.rows_folded_scalar += s.rows_folded_scalar;
            stats.cells_computed += s.cells_computed;
            stats.cuboids_computed = stats.cuboids_computed.max(s.cuboids_computed);
            stats.late_dropped += s.late_dropped;
            stats.late_amendments += s.late_amendments;
            stats.watermark_held_units += s.watermark_held_units;
            stats.sources_evicted += s.sources_evicted;
            // Serving counters sum like the stream counters: each shard
            // would report its own share (inner engines leave them zero
            // today — the stream/serving layers fill them in above the
            // shard merge).
            stats.snapshots_published += s.snapshots_published;
            stats.snapshot_reads += s.snapshot_reads;
            stats.overload_rejections += s.overload_rejections;
            // Upper bound of the concurrent high-water mark: every shard
            // could hit its peak at the same instant.
            stats.peak_bytes += s.peak_bytes;
        }

        // Fan the per-cuboid merges out; results return in key order.
        // (Only the multi-shard path reaches here — a single shard is
        // the passthrough in `ingest_unit`.)
        let shard_list = Arc::new(self.shards.clone());
        let tasks: Vec<_> = keys
            .into_iter()
            .map(|key| {
                let shards = Arc::clone(&shard_list);
                let active = Arc::clone(&active);
                let policy = Arc::clone(&self.policy);
                move || merge_one_key(key, &shards, &active, &policy)
            })
            .collect();
        let merged = pool.run(tasks);

        let mut m_table = CuboidTable::default();
        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut path_tables: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        for item in merged {
            let (key, table) = item?;
            match key {
                MergeKey::M => m_table = table,
                MergeKey::O => o_table = table,
                MergeKey::Between(cuboid) => {
                    if !table.is_empty() {
                        exceptions.insert(cuboid, table);
                    }
                }
                MergeKey::Path(cuboid) => {
                    path_tables.insert(cuboid, table);
                }
            }
        }

        stats.exception_cells = exceptions.values().map(|t| t.len() as u64).sum();
        stats.cells_retained = m_table.len() as u64
            + o_table.len() as u64
            + stats.exception_cells
            + path_tables.values().map(|t| t.len() as u64).sum::<u64>();
        stats.retained_bytes = table_bytes(&m_table, dims)
            + table_bytes(&o_table, dims)
            + exceptions
                .values()
                .map(|t| table_bytes(t, dims))
                .sum::<usize>()
            + path_tables
                .values()
                .map(|t| table_bytes(t, dims))
                .sum::<usize>();
        stats.elapsed = started.elapsed();
        Ok(CubeResult::new(
            self.layers.clone(),
            (*self.policy).clone(),
            self.algorithm,
            m_table,
            o_table,
            exceptions,
            path_tables,
            stats,
        ))
    }
}

impl<E: CubingEngine + Send + Sync + 'static> CubingEngine for ShardedEngine<E> {
    fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        let window = next_window(self.window, tuples)?;
        let started = Instant::now();

        // Single shard: a true passthrough (real policy, caller thread).
        let delta = if self.shards.len() == 1 {
            let mut engine = self.shards[0].write().unwrap_or_else(|e| e.into_inner());
            let mut delta = engine.ingest_unit(tuples)?;
            delta.unit = self.units_opened;
            self.result = engine.shared_result();
            self.stats = *engine.stats();
            delta
        } else {
            let pool = self.pool();
            let parts = self.partition(tuples);
            self.ingest_partitions(&pool, parts, window)?;
            let result = self.merge_shards(&pool, window, started)?;
            let delta = UnitDelta::between(
                self.units_opened,
                window,
                tuples.len(),
                &self.result,
                &result,
            );
            self.stats = *result.stats();
            self.result = Arc::new(result);
            delta
        };
        self.window = Some(window);
        self.units_opened += 1;
        Ok(delta)
    }

    fn result(&self) -> &CubeResult {
        &self.result
    }

    fn shared_result(&self) -> Arc<CubeResult> {
        Arc::clone(&self.result)
    }

    fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// One independent unit of merge work: a cuboid table of the merged
/// cube. Ordered (`BTreeSet`) so the job list is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum MergeKey {
    /// The m-layer table.
    M,
    /// The o-layer table.
    O,
    /// A strictly-between cuboid (screened with the real policy after
    /// the merge).
    Between(CuboidSpec),
    /// A popular-path table (retained in full, never screened).
    Path(CuboidSpec),
}

/// Merges one [`MergeKey`]'s table across the active shards (in index
/// order) and screens `Between` tables with the real policy. Runs as a
/// pool job; shard access is a read lock, so all keys merge
/// concurrently.
fn merge_one_key<E: CubingEngine>(
    key: MergeKey,
    shards: &[Arc<RwLock<E>>],
    active: &[usize],
    policy: &ExceptionPolicy,
) -> Result<(MergeKey, CuboidTable)> {
    let mut table = CuboidTable::default();
    for &i in active {
        let engine = read(&shards[i]);
        let result = engine.result();
        let source = match &key {
            MergeKey::M => Some(result.m_table()),
            MergeKey::O => Some(result.o_table()),
            MergeKey::Between(cuboid) => match engine.full_between_tables() {
                Some(tables) => tables.get(cuboid),
                None => result.exceptions_map().get(cuboid),
            },
            MergeKey::Path(cuboid) => result.path_tables().get(cuboid),
        };
        if let Some(source) = source {
            merge_table_into(&mut table, source)?;
        }
    }
    if let MergeKey::Between(cuboid) = &key {
        table.retain(|_, isb| policy.is_exception(cuboid, isb));
    }
    Ok((key, table))
}

/// Read-locks a shard, riding over poisoning (a panicked pool job is
/// already re-raised by the pool; the state behind the lock is about to
/// be discarded by the caller's error path).
fn read<E>(shard: &Arc<RwLock<E>>) -> std::sync::RwLockReadGuard<'_, E> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

/// The shard a (validated) m-layer key routes to: deterministic FxHash
/// of the ids, modulo the shard count.
fn shard_of(ids: &[u32], shards: usize) -> usize {
    let mut hasher = FxHasher::default();
    ids.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// Cell-wise sibling merge of `src` into `dst` (Theorem 3.2).
///
/// # Errors
/// Interval mismatches — impossible for shards fed from one validated
/// window.
fn merge_table_into(dst: &mut CuboidTable, src: &CuboidTable) -> Result<()> {
    for (key, isb) in src {
        match dst.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                merge_sibling(e.get_mut(), isb)?;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(*isb);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_regress::{Isb, TimeSeries};

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

    fn tables_approx_eq(label: &str, a: &CuboidTable, b: &CuboidTable) {
        assert_eq!(a.len(), b.len(), "{label}: cell counts differ");
        for (key, m) in a {
            let other = b
                .get(key)
                .unwrap_or_else(|| panic!("{label}: cell {key} missing"));
            assert!(m.approx_eq(other, 1e-9), "{label} {key}: {m} vs {other}");
        }
    }

    #[test]
    fn multi_shard_inner_engines_skip_exception_retention() {
        // MoCubing shards retain full between-layer tables on either
        // layout, so the probe must select the no-op inner policy: no
        // shard stores exception cells of its own, yet the merged cube
        // screens correctly.
        for backend in [Backend::Row, Backend::Columnar] {
            let (schema, layers, policy) = setup();
            let mut e = ShardedEngine::mo_cubing_on(backend, schema, layers, policy, 3).unwrap();
            e.ingest_unit(&dense_tuples()).unwrap();
            assert!(e.result().total_exception_cells() > 0, "merged screen");
            for shard in &e.shards {
                let engine = read(shard);
                assert!(engine.full_between_tables().is_some());
                assert_eq!(engine.result().total_exception_cells(), 0);
            }
        }
    }

    #[test]
    fn sharded_popular_path_keeps_critical_layers_exact() {
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let mut reference =
            PopularPathEngine::new(schema.clone(), layers.clone(), policy.clone(), None).unwrap();
        reference.ingest_unit(&tuples).unwrap();
        let mut sharded = ShardedEngine::popular_path(schema, layers, policy, 3).unwrap();
        sharded.ingest_unit(&tuples).unwrap();
        let (a, b) = (sharded.result(), reference.result());
        tables_approx_eq("pp/m", a.m_table(), b.m_table());
        tables_approx_eq("pp/o", a.o_table(), b.o_table());
        // Exceptions follow Algorithm 1's rule: a superset of the
        // unsharded drilled set (footnote 7).
        assert!(a.total_exception_cells() >= b.total_exception_cells());
        for (cuboid, key, _) in b.iter_exceptions() {
            assert!(
                a.exceptions_in(cuboid).is_some_and(|t| t.contains_key(key)),
                "unsharded exception {cuboid}{key} missing from sharded cube"
            );
        }
        assert_eq!(a.algorithm(), Algorithm::PopularPath);
    }

    /// Delegates to an inner engine but fails one `ingest_unit` on
    /// command — exercises the partial-failure rollback.
    struct FlakyEngine {
        inner: MoCubingEngine,
        trip: Arc<std::sync::atomic::AtomicBool>,
    }

    impl CubingEngine for FlakyEngine {
        fn algorithm(&self) -> Algorithm {
            self.inner.algorithm()
        }
        fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
            let marked = tuples.iter().any(|t| t.ids() == [0, 0]);
            if marked && self.trip.swap(false, std::sync::atomic::Ordering::SeqCst) {
                return Err(crate::CoreError::BadInput {
                    detail: "injected shard failure".into(),
                });
            }
            self.inner.ingest_unit(tuples)
        }
        fn result(&self) -> &CubeResult {
            self.inner.result()
        }
        fn stats(&self) -> &RunStats {
            self.inner.stats()
        }
        fn full_between_tables(&self) -> Option<&FxHashMap<CuboidSpec, CuboidTable>> {
            self.inner.full_between_tables()
        }
    }

    #[test]
    fn a_failed_unit_can_be_retried() {
        // One shard fails its partition; the shards that had already
        // cubed theirs must be reset, so retrying the same batch is not
        // refused by them and yields exactly the unsharded cube.
        let (schema, layers, policy) = setup();
        let tuples = dense_tuples();
        let trip = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let handle = Arc::clone(&trip);
        let mut e = ShardedEngine::with_factory(
            schema.clone(),
            layers.clone(),
            policy.clone(),
            4,
            move |schema, layers, policy| {
                Ok(FlakyEngine {
                    inner: MoCubingEngine::new(schema, layers, policy)?,
                    trip: Arc::clone(&handle),
                })
            },
        )
        .unwrap();
        assert!(e.ingest_unit(&tuples).is_err(), "injected failure");
        e.ingest_unit(&tuples).unwrap();

        let mut reference = MoCubingEngine::transient(schema, layers, policy).unwrap();
        reference.ingest_unit(&tuples).unwrap();
        let (a, b) = (e.result(), reference.result());
        tables_approx_eq("retry/m", a.m_table(), b.m_table());
        tables_approx_eq("retry/o", a.o_table(), b.o_table());
        assert_eq!(a.total_exception_cells(), b.total_exception_cells());
    }

    /// `tuples` moved into the window of `unit` (10 ticks each).
    fn in_unit(tuples: &[MTuple], unit: i64) -> Vec<MTuple> {
        let at = |t: &MTuple| {
            Isb::new(unit * 10, unit * 10 + 9, t.isb().base(), t.isb().slope()).unwrap()
        };
        tuples
            .iter()
            .map(|t| MTuple::new(t.ids().to_vec(), at(t)))
            .collect()
    }

    #[test]
    fn the_private_pool_is_created_by_the_first_unit_that_fans_out() {
        let make = |shards| {
            let (schema, layers, policy) = setup();
            ShardedEngine::mo_cubing(schema, layers, policy, shards).unwrap()
        };
        let shared = Arc::new(WorkerPool::new(2));
        let mut passthrough = make(1);
        let mut pooled = make(3).with_shared_pool(Arc::clone(&shared));
        let mut private = make(3);
        let mut first_private = None;
        for unit in 0..3 {
            let tuples = in_unit(&dense_tuples(), unit);
            for engine in [&mut passthrough, &mut pooled, &mut private] {
                engine.ingest_unit(&tuples).unwrap();
            }
            let pool = private.pool.as_ref().expect("created on first use");
            let first = first_private.get_or_insert_with(|| Arc::clone(pool));
            assert!(Arc::ptr_eq(first, pool), "unit {unit}: one private pool");
        }
        assert!(make(3).pool.is_none(), "nothing is spawned at construction");
        assert!(passthrough.pool.is_none(), "one shard never fans out");
        assert!(Arc::ptr_eq(pooled.pool.as_ref().unwrap(), &shared));
    }

    #[test]
    fn a_window_that_recurs_finds_no_stale_shard_cube() {
        // Unit A activates every shard, unit B a single key, then A's
        // window comes round again with another single key: the shards
        // still holding the first A must neither refuse the window as
        // already cubed nor leak their old cells into the merge.
        let (schema, layers, policy) = setup();
        let mut e = ShardedEngine::mo_cubing(schema, layers, policy, 7).unwrap();
        e.ingest_unit(&dense_tuples()).unwrap();
        e.ingest_unit(&in_unit(&dense_tuples()[..1], 1)).unwrap();
        for tuple in dense_tuples().into_iter().skip(3).step_by(4) {
            let delta = e.ingest_unit(&[tuple]).unwrap();
            assert_eq!(delta.window, (0, 9));
            assert_eq!(e.result().m_layer_cells(), 1, "only the new unit");
            e.ingest_unit(&in_unit(&dense_tuples()[..1], 1)).unwrap();
        }
    }

    #[test]
    fn shard_routing_is_deterministic() {
        for n in 1..9usize {
            for ids in [[0u32, 1], [3, 2], [7, 7]] {
                let a = shard_of(&ids, n);
                assert!(a < n);
                assert_eq!(a, shard_of(&ids, n), "same key, same shard");
            }
        }
    }
}
