//! **Algorithm 1 — m/o H-cubing**: compute regressions for *every* cell of
//! every cuboid from the m-layer up to the o-layer; retain only exception
//! cells in between (all cells at the two critical layers).
//!
//! Step 1 follows the paper: one scan of the input aggregates the stream
//! into the m-layer, merged under Theorems 3.2/3.3
//! ([`TableStorage::from_tuples`]). The row layout folds each tuple
//! straight into its m-cell in arrival order. The paper stages this scan
//! through an H-tree, but its node-links and header tables are never
//! read here, and the tree's leaves are created in the same
//! first-arrival order, so a tree would only be built and thrown away.
//!
//! Step 2 computes the lattice bottom-up in depth order. Every cuboid's
//! full table is aggregated from its **closest computed descendant** — a
//! one-step-finer cuboid — which is the work-sharing that H-cubing's
//! shared header tables achieve (the paper's own H-cubing departs from
//! its reference 18 too (footnote 6); the computed and retained cell
//! sets here are identical to Algorithm 1's).
//!
//! [`MoCubingEngine`] is the algorithm, written **once**: the per-unit
//! sequence validate → compute → diff → commit, the tier roll-up and
//! the statistics are layout-agnostic, and everything a table layout
//! does differently sits behind [`TableStorage`]. The [`Backend`] an
//! engine is given only picks which implementation of that trait the
//! tiers are folded into. [`compute`] is the batch wrapper that cubes
//! one unit and returns its result.
//!
//! What an engine keeps of a unit is the paper's memory model —
//! critical layers + exception cells: each depth tier's full tables
//! are dropped as soon as the next tier is built, like the original
//! batch algorithm.
//!
//! **Recurring units.** In the paper's setting a fixed population of
//! streams reports every unit, and the stream layer hands each unit's
//! tuples over sorted by key, so unit after unit arrives with the same
//! key sequence and only the measures change. On the row layout the
//! roll-up is then the same every unit: a table's iteration order
//! follows from its keys and their insertion sequence, so which rows
//! fold into which target, in which order, and where each target sits
//! is fixed by the key sequence. The engine compares each unit's key
//! sequence with the held unit's. When a sequence repeats, it reads a
//! *roll-up plan* off the cold unit's finished tables: for every step,
//! the source it is folded from and, per source row in iteration order,
//! the index of its target row in the target's iteration order. From
//! the third consecutive unit of the sequence on, it replays that plan
//! instead of hashing: each target folds the same rows in the same order
//! (the first copied, the rest through [`merge_sibling`]), the critical
//! layers are clones of the held unit's tables — same buckets — with
//! their values overwritten in iteration order, and exception stores are
//! filled in target iteration order. The cold fold stays the only
//! definition of order, and a replayed unit is the cold unit bit for bit,
//! statistics included (but `elapsed`). A unit with any other key
//! sequence drops the plan and runs cold; the columnar layout always
//! runs cold.

use crate::columnar::ColumnarTable;
use crate::engine::{empty_result, next_window, unshare_result, Backend, CubingEngine, UnitDelta};
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, validate_tuples, MTuple};
use crate::pool::WorkerPool;
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{table_bytes, CuboidTable, Projector, TableStorage};
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::sync::Arc;
use std::time::Instant;

/// Source rows a depth tier must fold before it is fanned out on the
/// pool rather than aggregated on the caller's thread.
///
/// A [`WorkerPool::run`] round trip — boxing the jobs, one channel send
/// and one parked-worker wake-up per job, the results coming back over a
/// second channel — was measured at 47–50 µs (median of 20,000 runs of
/// 2–4 empty tasks on a 2-worker pool, 2-vCPU VM). A tier folds a source
/// row in 33–37 ns on the columnar layout and 170–200 ns on the row
/// layout (`ingest_unit` over 256–16,384 tuples, time per
/// `rows_folded`). Two workers at best halve a tier, so the hand-off
/// pays for itself once `rows × 35 ns / 2 > 48 µs`, about 2,700 rows on
/// the cheaper layout; the next power of two leaves a margin for the
/// uneven split of real tiers. Below it — a quiet tenant's 16-row unit —
/// the hand-off is several times the work it hands off.
///
/// These costs are the cold roll-up's; a replayed unit (see the module
/// docs) folds on the caller's thread and never reaches the pool.
const FAN_OUT_MIN_ROWS: usize = 4096;

/// Groups every cuboid strictly above the m-layer into depth *tiers*
/// (bottom-up, same total depth per tier) — the roll-up order.
fn depth_tiers(layers: &CriticalLayers) -> Vec<Vec<CuboidSpec>> {
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

/// One cuboid of a depth tier with its chosen aggregation source —
/// resolved before the tier fans out so pool tasks are self-contained.
struct TierPlan<T> {
    cuboid: CuboidSpec,
    source: CuboidSpec,
    table: Arc<T>,
}

/// One unit's computation in progress: its counters and its analytical
/// memory. Local to a call — the engine commits the finished unit only
/// when all of it succeeded.
#[derive(Default)]
struct UnitWork {
    stats: RunStats,
    mem: MemoryAccountant,
}

impl UnitWork {
    /// Counts one cuboid's finished full table and the source rows
    /// folded into it.
    fn count_cuboid(&mut self, rows: u64, cells: usize) {
        self.stats.rows_folded += rows;
        self.stats.cells_computed += cells as u64;
        self.stats.cuboids_computed += 1;
    }
}

/// Algorithm 1 as a per-unit engine, over either table layout.
///
/// Every unit is computed bottom-up in depth tiers, each cuboid
/// aggregated from its closest computed descendant — exactly the
/// work-sharing of the batch algorithm — and replaces the unit before
/// it. Each tier's full tables are dropped once the next tier is built,
/// so the engine's peak memory is the batch algorithm's and what it
/// retains is the paper's: critical layers + exception cells.
///
/// The tiers are rolled up in the layout [`with_backend`](Self::with_backend)
/// selects (row by default). Whatever the layout, everything the engine
/// *retains* — the result's critical layers and exception stores — is
/// in the row form [`CubeResult`] exposes, so the engine composes
/// identically with every consumer.
#[derive(Debug, Clone)]
pub struct MoCubingEngine {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    /// The layout the tiers are folded into.
    backend: Backend,
    /// When attached, cuboids of one depth tier (independent of each
    /// other) are aggregated on the pool instead of sequentially.
    pool: Option<Arc<WorkerPool>>,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Units computed by replaying a roll-up plan rather than cold.
    units_replayed: u64,
    /// The held unit's key sequence, and its roll-up plan once it
    /// recurred (row layout only).
    recurrence: Recurrence,
    /// Shared with every snapshot taken of the held unit.
    result: Arc<CubeResult>,
}

impl MoCubingEngine {
    /// Creates an engine on the row layout, with no pool.
    ///
    /// # Errors
    /// Currently infallible; `Result` keeps room for config validation
    /// and parity with [`crate::PopularPathEngine::new`].
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
            backend: Backend::Row,
            pool: None,
            window: None,
            units_opened: 0,
            units_replayed: 0,
            recurrence: Recurrence::default(),
            result,
        })
    }

    /// The same as [`new`](Self::new). It remains because the
    /// `benchmark` package's replay harness calls it by this name.
    ///
    /// # Errors
    /// See [`new`](Self::new).
    pub fn transient(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
    ) -> Result<Self> {
        Self::new(schema, layers, policy)
    }

    /// Selects the table layout the tiers are folded into. Both layouts
    /// produce the same cells, counts and [`UnitDelta`]s; see
    /// [`Backend`] for what "same" means for the measures.
    ///
    /// # Errors
    /// [`crate::CoreError::BadInput`] when the layout cannot represent a
    /// cuboid of the lattice (the columnar layout needs every cell
    /// space to fit a dense 64-bit id) — checked here so `ingest_unit`
    /// cannot fail mid-roll-up.
    pub fn with_backend(mut self, backend: Backend) -> Result<Self> {
        match backend {
            Backend::Row => CuboidTable::check_lattice(&self.schema, &self.layers)?,
            Backend::Columnar => ColumnarTable::check_lattice(&self.schema, &self.layers)?,
        }
        self.backend = backend;
        self.recurrence = Recurrence::default();
        Ok(self)
    }

    /// Attaches a worker pool for the tier roll-up: cuboids at the same
    /// lattice depth are independent (each aggregates from an already
    /// computed finer tier), so [`ingest_unit`](CubingEngine::ingest_unit)
    /// computes a tier's tables in parallel on the pool — when the pool
    /// has more than one worker and the tier folds enough source rows
    /// to pay for the hand-off; a small tier is aggregated on the
    /// caller's thread. Results are merged in deterministic lattice
    /// order, so the cube is identical to a sequential run either way.
    ///
    /// Never call `ingest_unit` from a job of the pool attached here —
    /// see the nesting rule in [`crate::pool`].
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
        unshare_result(self.result)
    }

    /// How many units this engine computed by replaying a roll-up plan
    /// instead of cold. A probe for tests; not part of the stable API.
    #[doc(hidden)]
    pub fn units_replayed(&self) -> u64 {
        self.units_replayed
    }

    /// One unit, on layout `T` — the whole of
    /// [`ingest_unit`](CubingEngine::ingest_unit) behind the backend
    /// dispatch: validate, compute the unit beside the held one, diff
    /// the two, commit.
    fn ingest_on<T: TableStorage>(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        let window = next_window(self.window, tuples)?;
        let recurs = self.backend == Backend::Row && self.recurrence.recurs(tuples);
        let plan = self.recurrence.plan.as_ref().filter(|_| recurs);
        let replayed = plan.is_some();
        let (result, captured) = match plan {
            Some(plan) => (self.replay_unit(plan, tuples)?, None),
            None => self.open_unit::<T>(tuples, recurs)?,
        };
        // The held unit's exceptions that do not recur come back as
        // cleared, so appeared/cleared consumers can maintain a live
        // alarm set across units.
        let delta = UnitDelta::between(
            self.units_opened,
            window,
            tuples.len(),
            &self.result,
            &result,
        );
        self.window = Some(window);
        self.units_opened += 1;
        self.result = Arc::new(result);
        // The plan state follows the committed unit only.
        if replayed {
            self.units_replayed += 1;
        } else if recurs {
            self.recurrence.plan = captured;
        } else if self.backend == Backend::Row {
            self.recurrence.restart(tuples);
        }
        Ok(delta)
    }

    /// Computes one unit (the batch algorithm) without touching the
    /// held one: the finished result, statistics included, and — when
    /// asked to `capture` on the row layout — the roll-up plan read off
    /// the unit's finished tables.
    fn open_unit<T: TableStorage>(
        &self,
        tuples: &[MTuple],
        capture: bool,
    ) -> Result<(CubeResult, Option<RollUpPlan>)> {
        let started = Instant::now();
        let dims = self.schema.num_dims();
        let mut work = UnitWork::default();

        // Step 1: one scan of the batch into the m-layer.
        let (m_table, rows) = T::from_tuples(&self.schema, &self.layers, tuples, &mut work.mem)?;
        work.count_cuboid(rows, m_table.len());
        let mut capture = (capture && tuples.len() < FIRST as usize)
            .then(|| PlanCapture::new(tuples, &m_table, dims));

        // Step 2: the rest of the lattice. The m-table is shared with
        // pool workers, so it travels behind an `Arc` and is unwrapped —
        // moved, on the row layout — into the result after.
        let m_table = Arc::new(m_table);
        let (o_table, exceptions) = self.compute_uppers(&mut work, &m_table, capture.as_mut())?;
        let m_table = Arc::try_unwrap(m_table).unwrap_or_else(|shared| (*shared).clone());
        let m_table = m_table.into_row_table(dims, &mut work.mem);

        let UnitWork { stats, mem } = work;
        let o_spec = self.layers.lattice().o_layer();
        let plan = capture.map(|capture| capture.finish(o_spec));
        let result = self.retain(started, stats, &mem, m_table, o_table, exceptions);
        Ok((result, plan))
    }

    /// Recomputes a unit whose key sequence is `plan`'s — the held
    /// unit's — by replaying the plan's index maps over the unit's
    /// measures: no key is hashed or projected except an exceptional
    /// cell's. Every target row folds the same rows in the same order as
    /// the cold roll-up (the first copied, the rest through
    /// [`merge_sibling`]), the critical layers are the held unit's tables
    /// with their values overwritten in iteration order, and exception
    /// stores are filled in target iteration order, so the result —
    /// statistics too, but `elapsed` — is the cold computation's.
    fn replay_unit(&self, plan: &RollUpPlan, tuples: &[MTuple]) -> Result<CubeResult> {
        let started = Instant::now();
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer();
        let o_spec = self.layers.lattice().o_layer();
        let mut mem = MemoryAccountant::default();

        // values[0] is the m-layer's; values[k + 1] is step k's target.
        let mut values = Vec::with_capacity(plan.steps.len() + 1);
        values.push(fold_indexed(
            tuples.iter().map(MTuple::isb),
            &plan.m_of,
            plan.m_rows,
        )?);
        mem.add(plan.m_bytes);
        let m_table = overwrite(self.result.m_table(), &values[0]);

        let mut o_values = Vec::new();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        for step in &plan.steps {
            let folded = fold_indexed(values[step.source].iter(), &step.target_of, step.rows)?;
            mem.add(step.bytes);
            if step.frees_source {
                values[step.source] = Vec::new();
            }
            if step.cuboid == *o_spec {
                o_values = folded;
                values.push(Vec::new());
            } else {
                let exc = step.exceptions(&self.schema, m_spec, &self.policy, tuples, &folded);
                if !exc.is_empty() {
                    mem.add(table_bytes(&exc, dims));
                    exceptions.insert(step.cuboid.clone(), exc);
                }
                values.push(if step.read_later { folded } else { Vec::new() });
            }
            mem.remove(step.retire);
        }
        let o_table = overwrite(self.result.o_table(), &o_values);
        // The held unit has the plan's key sequence, so it folded the
        // same rows into the same cells.
        let held = self.result.stats();
        let counters = RunStats {
            rows_folded: held.rows_folded,
            cells_computed: held.cells_computed,
            cuboids_computed: held.cuboids_computed,
            ..RunStats::default()
        };
        Ok(self.retain(started, counters, &mem, m_table, o_table, exceptions))
    }

    /// Assembles a finished unit's result — critical layers +
    /// exceptions — and completes `stats` (the cube counters) with what
    /// is retained and when it finished.
    fn retain(
        &self,
        started: Instant,
        mut stats: RunStats,
        mem: &MemoryAccountant,
        m_table: CuboidTable,
        o_table: CuboidTable,
        exceptions: FxHashMap<CuboidSpec, CuboidTable>,
    ) -> CubeResult {
        let dims = self.schema.num_dims();
        let retained = || [&m_table, &o_table].into_iter().chain(exceptions.values());
        stats.exception_cells = exceptions.values().map(|t| t.len() as u64).sum();
        stats.cells_retained = retained().map(|t| t.len() as u64).sum();
        stats.retained_bytes = retained().map(|t| table_bytes(t, dims)).sum();
        stats.peak_bytes = mem.peak();
        stats.elapsed = started.elapsed();
        CubeResult::new(
            self.layers.clone(),
            self.policy.clone(),
            Algorithm::MoCubing,
            m_table,
            o_table,
            exceptions,
            FxHashMap::default(),
            stats,
        )
    }

    /// Computes every cuboid above the m-layer bottom-up in depth
    /// *tiers*, each aggregated from its closest computed descendant (a
    /// one-step-finer table from the previous tier). Cuboids within one
    /// tier are independent, so a large enough tier is fanned out on
    /// the attached [`WorkerPool`] and merged back in lattice order —
    /// the parallel hot path of the roll-up. Returns the o-layer table
    /// and the exception stores; between-layer full tables are dropped
    /// as soon as the next tier no longer needs them. A `capture` reads
    /// each finished table into the roll-up plan before it goes.
    fn compute_uppers<T: TableStorage>(
        &self,
        work: &mut UnitWork,
        m_table: &Arc<T>,
        mut capture: Option<&mut PlanCapture>,
    ) -> Result<(CuboidTable, FxHashMap<CuboidSpec, CuboidTable>)> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let o_spec = self.layers.lattice().o_layer().clone();

        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        // Full tables of the previous tier (the aggregation sources).
        let mut cache: FxHashMap<CuboidSpec, Arc<T>> = FxHashMap::default();
        for tier in depth_tiers(&self.layers) {
            // Pick each cuboid's aggregation source first (the choice
            // needs the whole previous tier), then aggregate the tier.
            let plans: Vec<TierPlan<T>> = tier
                .iter()
                .map(|cuboid| {
                    let (source, table) = self
                        .layers
                        .lattice()
                        .closest_computed_descendant(cuboid, cache.keys())
                        .map(|c| (c.clone(), Arc::clone(&cache[c])))
                        .unwrap_or_else(|| (m_spec.clone(), Arc::clone(m_table)));
                    TierPlan {
                        cuboid: cuboid.clone(),
                        source,
                        table,
                    }
                })
                .collect();
            // A capture reads each cuboid's source after the tier folds.
            let sources: Vec<(CuboidSpec, Arc<T>)> = match capture {
                Some(_) => plans
                    .iter()
                    .map(|plan| (plan.source.clone(), Arc::clone(&plan.table)))
                    .collect(),
                None => Vec::new(),
            };

            let mut next_cache: FxHashMap<CuboidSpec, Arc<T>> = FxHashMap::default();
            // The i-th result is the i-th cuboid's table.
            for (i, (cuboid, item)) in tier.into_iter().zip(self.compute_tier(plans)).enumerate() {
                let (full, rows) = item?;
                work.count_cuboid(rows, full.len());
                let bytes = full.approx_bytes(dims);
                work.mem.add(bytes);
                if let Some(capture) = capture.as_deref_mut() {
                    let (source, table) = &sources[i];
                    capture.step(&self.schema, source, &**table, &cuboid, &full, bytes);
                }

                if cuboid == o_spec {
                    o_table = full.into_row_table(dims, &mut work.mem);
                    continue;
                }
                let exc = full.exceptions(&self.policy, &cuboid);
                if !exc.is_empty() {
                    work.mem.add(table_bytes(&exc, dims));
                    exceptions.insert(cuboid.clone(), exc);
                }
                next_cache.insert(cuboid, Arc::new(full));
            }
            // The old tier is no longer reachable as a source.
            let retired = retire_tier(&mut work.mem, &cache, dims);
            if let Some(capture) = capture.as_deref_mut() {
                capture.retire(retired);
            }
            cache = next_cache;
        }
        retire_tier(&mut work.mem, &cache, dims);
        Ok((o_table, exceptions))
    }

    /// Aggregates one depth tier — on the attached pool when the tier is
    /// worth the hand-off ([`FAN_OUT_MIN_ROWS`]), on the caller's thread
    /// otherwise. The results come back **in plan order** either way —
    /// on the pool, because [`WorkerPool::run`] keeps task order — and
    /// the caller matches them to their cuboids by position.
    fn compute_tier<T: TableStorage>(&self, plans: Vec<TierPlan<T>>) -> Vec<Result<(T, u64)>> {
        let aggregate = |schema: &CubeSchema, plan: TierPlan<T>| {
            plan.table.roll_up(schema, &plan.source, &plan.cuboid)
        };
        let fan_out = self.pool.as_ref().filter(|pool| {
            // One worker would run the tier serially while the caller
            // blocks on it: a hand-off with nothing to win.
            pool.threads() > 1
                && plans.len() > 1
                && plans.iter().map(|plan| plan.table.len()).sum::<usize>() >= FAN_OUT_MIN_ROWS
        });
        match fan_out {
            Some(pool) => {
                let tasks: Vec<_> = plans
                    .into_iter()
                    .map(|plan| {
                        let schema = Arc::clone(&self.schema);
                        move || aggregate(&schema, plan)
                    })
                    .collect();
                pool.run(tasks)
            }
            None => plans
                .into_iter()
                .map(|plan| aggregate(&self.schema, plan))
                .collect(),
        }
    }
}

/// Books a finished tier's tables out of the analytical memory and
/// returns their bytes; the caller drops them.
fn retire_tier<T: TableStorage>(
    mem: &mut MemoryAccountant,
    tier: &FxHashMap<CuboidSpec, Arc<T>>,
    dims: usize,
) -> usize {
    let bytes = tier.values().map(|table| table.approx_bytes(dims)).sum();
    mem.remove(bytes);
    bytes
}

/// Flags a `target_of` entry whose source row is the first to reach its
/// target row: a replay copies that row, as the cold fold inserts it,
/// and merges every later one.
const FIRST: u32 = 1 << 31;

/// The last committed unit's m-tuple key sequence, and the roll-up plan
/// once a unit repeated it.
///
/// `Ingestor::close_unit` emits a unit's tuples sorted by key, so a
/// fixed population of streams hands the engine the same key sequence
/// every unit. The row layout's roll-up is then the same every unit —
/// which rows fold into which, in which order, into which table layout
/// — and only the measures differ.
#[derive(Debug, Clone, Default)]
struct Recurrence {
    /// The last unit's tuples' ids, concatenated in arrival order. Every
    /// tuple carries one id per dimension, so equal concatenations mean
    /// equal tuple counts.
    keys: Vec<u32>,
    /// Present only while every unit since it was captured had `keys`.
    plan: Option<RollUpPlan>,
}

impl Recurrence {
    /// Whether `tuples` carry exactly the last unit's key sequence.
    fn recurs(&self, tuples: &[MTuple]) -> bool {
        tuples.iter().flat_map(MTuple::ids).eq(&self.keys)
    }

    /// Records a unit that broke the sequence: its keys become the ones
    /// to repeat, and the plan (another sequence's) goes.
    fn restart(&mut self, tuples: &[MTuple]) {
        self.keys.clear();
        self.keys.extend(tuples.iter().flat_map(MTuple::ids));
        self.plan = None;
    }
}

/// A row-layout unit's roll-up as index maps, read off a cold unit's
/// finished tables by [`PlanCapture`]. Replaying it on a unit with the
/// same key sequence folds the same rows into the same targets in the
/// same order, without hashing.
#[derive(Debug, Clone)]
struct RollUpPlan {
    /// The m-row, in m-table iteration order, each tuple folds into
    /// ([`FIRST`]-flagged).
    m_of: Vec<u32>,
    m_rows: usize,
    /// The m-table's analytical bytes.
    m_bytes: usize,
    /// One step per cuboid above the m-layer, in tier order.
    steps: Vec<PlanStep>,
}

/// One cuboid of a [`RollUpPlan`].
#[derive(Debug, Clone)]
struct PlanStep {
    cuboid: CuboidSpec,
    /// The values this step folds: 0 for the m-layer, `k + 1` for step
    /// `k`'s target.
    source: usize,
    /// For each source row, in the source table's iteration order, its
    /// target row's index in the target table's iteration order
    /// ([`FIRST`]-flagged).
    target_of: Vec<u32>,
    rows: usize,
    /// For each target row, a tuple whose m-key projects onto the row's
    /// key. Empty for the o-layer, whose keys are in its table.
    rep: Vec<u32>,
    /// The full table's analytical bytes.
    bytes: usize,
    /// Bytes the cold roll-up retires after this step: the previous
    /// tier's, on the last step of a tier.
    retire: usize,
    /// No later step reads this step's source.
    frees_source: bool,
    /// A later step reads this step's target.
    read_later: bool,
}

impl PlanStep {
    /// The exceptional rows among a replay's `values`, keyed by their
    /// representative tuple's m-key projected onto the cuboid and
    /// inserted in target iteration order, as [`collect_exceptions`]
    /// does on the cold path.
    ///
    /// [`collect_exceptions`]: crate::table::collect_exceptions
    fn exceptions(
        &self,
        schema: &CubeSchema,
        m_spec: &CuboidSpec,
        policy: &ExceptionPolicy,
        tuples: &[MTuple],
        values: &[Isb],
    ) -> CuboidTable {
        let threshold = policy.threshold_for(&self.cuboid);
        let mut exc = CuboidTable::default();
        let mut projector = None;
        let mut key = vec![0u32; schema.num_dims()];
        for (isb, &rep) in values.iter().zip(&self.rep) {
            if ExceptionPolicy::is_exception_at(threshold, isb) {
                projector
                    .get_or_insert_with(|| Projector::new(schema, m_spec, &self.cuboid))
                    .project_into(tuples[rep as usize].ids(), &mut key);
                exc.insert(CellKey::new(&key), *isb);
            }
        }
        exc
    }
}

/// Folds `source` rows into `rows` target rows by a plan's `target_of`
/// map: a [`FIRST`]-flagged row is copied, every other merged with
/// [`merge_sibling`], in source order.
fn fold_indexed<'a>(
    source: impl Iterator<Item = &'a Isb>,
    target_of: &[u32],
    rows: usize,
) -> Result<Vec<Isb>> {
    let mut source = source.peekable();
    let Some(&&fill) = source.peek() else {
        return Ok(Vec::new());
    };
    // Every slot is written by its first row before any merge reads it.
    let mut out = vec![fill; rows];
    for (isb, &to) in source.zip(target_of) {
        let slot = &mut out[(to & !FIRST) as usize];
        if to & FIRST != 0 {
            *slot = *isb;
        } else {
            merge_sibling(slot, isb)?;
        }
    }
    Ok(out)
}

/// A copy of `table` — same buckets, so the same iteration order —
/// holding `values` in iteration order.
fn overwrite(table: &CuboidTable, values: &[Isb]) -> CuboidTable {
    debug_assert_eq!(table.len(), values.len());
    let mut out = table.clone();
    for (slot, value) in out.values_mut().zip(values) {
        *slot = *value;
    }
    out
}

/// Each row's index in a finished table's iteration order.
fn row_index<T: TableStorage>(table: &T) -> FxHashMap<CellKey, u32> {
    let mut index = FxHashMap::default();
    index.reserve(table.len());
    table
        .try_for_each_cell(|ids, _| {
            index.insert(CellKey::new(ids), index.len() as u32);
            Ok(())
        })
        .expect("indexing never fails");
    index
}

/// Links source rows to target rows in source order, flagging each
/// target's first row and keeping its representative tuple.
struct Linker {
    target_of: Vec<u32>,
    rep: Vec<u32>,
}

impl Linker {
    fn new(sources: usize, rows: usize) -> Self {
        Linker {
            target_of: Vec::with_capacity(sources),
            rep: vec![u32::MAX; rows],
        }
    }

    fn link(&mut self, row: u32, rep: u32) {
        let first = &mut self.rep[row as usize];
        if *first == u32::MAX {
            *first = rep;
            self.target_of.push(row | FIRST);
        } else {
            self.target_of.push(row);
        }
    }
}

/// Builds a [`RollUpPlan`] during a cold unit, from each table the
/// moment it is finished.
struct PlanCapture {
    plan: RollUpPlan,
    /// The m-layer's representative tuple per m-row.
    m_rep: Vec<u32>,
    /// The values slot of each cuboid captured so far.
    slots: FxHashMap<CuboidSpec, usize>,
}

impl PlanCapture {
    fn new<T: TableStorage>(tuples: &[MTuple], m_table: &T, dims: usize) -> Self {
        let index = row_index(m_table);
        let mut linker = Linker::new(tuples.len(), m_table.len());
        for (i, t) in tuples.iter().enumerate() {
            linker.link(index[t.ids()], i as u32);
        }
        PlanCapture {
            plan: RollUpPlan {
                m_of: linker.target_of,
                m_rows: m_table.len(),
                m_bytes: m_table.approx_bytes(dims),
                steps: Vec::new(),
            },
            m_rep: linker.rep,
            slots: FxHashMap::default(),
        }
    }

    /// Captures one cuboid: `full` was folded from `table`, the finished
    /// table of `source`.
    fn step<T: TableStorage>(
        &mut self,
        schema: &CubeSchema,
        source: &CuboidSpec,
        table: &T,
        cuboid: &CuboidSpec,
        full: &T,
        bytes: usize,
    ) {
        let slot = self.slots.get(source).copied().unwrap_or(0);
        let source_rep = match slot {
            0 => &self.m_rep,
            k => &self.plan.steps[k - 1].rep,
        };
        let index = row_index(full);
        let projector = Projector::new(schema, source, cuboid);
        let mut key = vec![0u32; schema.num_dims()];
        let mut linker = Linker::new(table.len(), full.len());
        let mut row = 0;
        table
            .try_for_each_cell(|ids, _| {
                projector.project_into(ids, &mut key);
                linker.link(index[key.as_slice()], source_rep[row]);
                row += 1;
                Ok(())
            })
            .expect("linking never fails");
        self.plan.steps.push(PlanStep {
            cuboid: cuboid.clone(),
            source: slot,
            target_of: linker.target_of,
            rows: full.len(),
            rep: linker.rep,
            bytes,
            retire: 0,
            frees_source: false,
            read_later: false,
        });
        self.slots.insert(cuboid.clone(), self.plan.steps.len());
    }

    /// Books the bytes the cold roll-up retires after the last step.
    fn retire(&mut self, bytes: usize) {
        if let Some(step) = self.plan.steps.last_mut() {
            step.retire = bytes;
        }
    }

    /// The finished plan.
    fn finish(self, o_spec: &CuboidSpec) -> RollUpPlan {
        let mut plan = self.plan;
        let mut last_reader = vec![None; plan.steps.len() + 1];
        for (k, step) in plan.steps.iter().enumerate() {
            last_reader[step.source] = Some(k);
        }
        for (k, step) in plan.steps.iter_mut().enumerate() {
            step.frees_source = last_reader[step.source] == Some(k);
            step.read_later = last_reader[k + 1].is_some();
            if step.cuboid == *o_spec {
                step.rep = Vec::new();
            }
        }
        plan
    }
}

impl CubingEngine for MoCubingEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MoCubing
    }

    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        match self.backend {
            Backend::Row => self.ingest_on::<CuboidTable>(tuples),
            Backend::Columnar => self.ingest_on::<ColumnarTable>(tuples),
        }
    }

    fn result(&self) -> &CubeResult {
        &self.result
    }

    fn stats(&self) -> &RunStats {
        self.result.stats()
    }

    fn shared_result(&self) -> Arc<CubeResult> {
        Arc::clone(&self.result)
    }
}

/// Runs Algorithm 1 and returns the materialized cube.
///
/// This is a thin batch wrapper over [`MoCubingEngine`]: it builds an
/// engine for the given layers, ingests `tuples` as one unit and returns
/// the engine's result.
///
/// # Errors
/// * [`crate::CoreError::BadInput`] for structurally invalid tuples.
/// * Substrate errors for inconsistent schema/layers.
pub fn compute(
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    tuples: &[MTuple],
) -> Result<CubeResult> {
    let mut engine = MoCubingEngine::new(schema.clone(), layers.clone(), policy.clone())?;
    engine.ingest_unit(tuples)?;
    Ok(engine.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::aggregate_from;
    use regcube_olap::cell::CellKey;
    use regcube_regress::{Isb, TimeSeries};

    fn isb(slope: f64, base: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| base + slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

    /// 2 dims, 2 levels, fanout 2: m-layer (L2, L2) has 16 possible cells.
    fn small_setup() -> (CubeSchema, CriticalLayers) {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        let layers = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![0, 0]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        (schema, layers)
    }

    fn dense_tuples() -> Vec<MTuple> {
        // All 16 m-layer cells, slope = (a + b)/10, base = 1.
        let mut tuples = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                tuples.push(MTuple::new(vec![a, b], isb((a + b) as f64 / 10.0, 1.0)));
            }
        }
        tuples
    }

    #[test]
    fn m_layer_merges_duplicate_tuples() {
        let (schema, layers) = small_setup();
        let tuples = vec![
            MTuple::new(vec![0, 0], isb(0.1, 0.0)),
            MTuple::new(vec![0, 0], isb(0.2, 0.0)),
            MTuple::new(vec![1, 1], isb(0.3, 0.0)),
        ];
        let cube = compute(&schema, &layers, &ExceptionPolicy::never(), &tuples).unwrap();
        assert_eq!(cube.m_layer_cells(), 2);
        let merged = cube.m_table().get(&CellKey::new(vec![0, 0])).unwrap();
        assert!((merged.slope() - 0.3).abs() < 1e-10, "0.1 + 0.2 merged");
    }

    #[test]
    fn apex_aggregation_is_exact() {
        let (schema, layers) = small_setup();
        let tuples = dense_tuples();
        let cube = compute(&schema, &layers, &ExceptionPolicy::never(), &tuples).unwrap();
        // The o-layer here is the apex (*, *): one cell holding the sum of
        // all 16 ISBs (Theorem 3.2): slope = Σ (a+b)/10 = 4.8, base = 16.
        assert_eq!(cube.o_layer_cells(), 1);
        let apex = cube.o_table().get(&CellKey::new(vec![0, 0])).unwrap();
        assert!((apex.slope() - 4.8).abs() < 1e-9, "slope {}", apex.slope());
        assert!((apex.base() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn all_cuboids_are_computed_and_counted() {
        let (schema, layers) = small_setup();
        let cube = compute(&schema, &layers, &ExceptionPolicy::never(), &dense_tuples()).unwrap();
        // Lattice: 3 x 3 = 9 cuboids.
        assert_eq!(cube.stats().cuboids_computed, 9);
        // Cells: m (16) + (L2,L1) 8 + (L1,L2) 8 + (L2,*) 4 + (*,L2) 4 +
        // (L1,L1) 4 + (L1,*) 2 + (*,L1) 2 + apex 1 = 49.
        assert_eq!(cube.stats().cells_computed, 49);
        assert_eq!(cube.total_exception_cells(), 0);
        assert_eq!(
            cube.stats().cells_retained,
            16 + 1,
            "never-policy retains only the critical layers"
        );
    }

    #[test]
    fn always_policy_retains_every_between_cell() {
        let (schema, layers) = small_setup();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::always(),
            &dense_tuples(),
        )
        .unwrap();
        // All 49 cells minus m-layer(16) minus o-layer(1) = 32 exceptions.
        assert_eq!(cube.total_exception_cells(), 32);
        assert_eq!(cube.stats().cells_retained, 49);
    }

    #[test]
    fn exception_cells_match_brute_force() {
        let (schema, layers) = small_setup();
        let threshold = 0.45;
        let policy = ExceptionPolicy::slope_threshold(threshold);
        let tuples = dense_tuples();
        let cube = compute(&schema, &layers, &policy, &tuples).unwrap();

        // Brute force: for every between-cuboid, aggregate from the m-layer
        // directly and compare exception sets.
        for cuboid in layers.lattice().enumerate() {
            if cuboid == *layers.m_layer() || cuboid == *layers.o_layer() {
                continue;
            }
            let (full, _) =
                aggregate_from(&schema, layers.m_layer(), cube.m_table(), &cuboid, None).unwrap();
            let expected: std::collections::BTreeSet<_> = full
                .iter()
                .filter(|(_, m)| m.slope().abs() >= threshold)
                .map(|(k, _)| k.clone())
                .collect();
            let got: std::collections::BTreeSet<_> = cube
                .exceptions_in(&cuboid)
                .map(|t| t.keys().cloned().collect())
                .unwrap_or_default();
            assert_eq!(got, expected, "cuboid {cuboid}");
            // And the retained measures must equal the brute-force ones.
            if let Some(table) = cube.exceptions_in(&cuboid) {
                for (k, m) in table {
                    assert!(m.approx_eq(&full[k], 1e-9));
                }
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let (schema, layers) = small_setup();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::slope_threshold(0.3),
            &dense_tuples(),
        )
        .unwrap();
        let s = cube.stats();
        assert!(s.rows_folded >= 16);
        assert!(s.peak_bytes > 0);
        assert!(s.retained_bytes > 0);
        assert!(s.peak_bytes >= s.retained_bytes - table_bytes(&CuboidTable::default(), 2));
        assert_eq!(cube.algorithm(), Algorithm::MoCubing);
    }

    #[test]
    fn empty_input_is_rejected() {
        let (schema, layers) = small_setup();
        assert!(compute(&schema, &layers, &ExceptionPolicy::never(), &[]).is_err());
    }

    fn engine(policy: ExceptionPolicy) -> MoCubingEngine {
        let (schema, layers) = small_setup();
        MoCubingEngine::new(schema, layers, policy).unwrap()
    }

    #[test]
    fn fresh_engine_exposes_an_empty_result() {
        let e = engine(ExceptionPolicy::slope_threshold(0.4));
        assert_eq!(e.result().m_layer_cells(), 0);
        assert_eq!(e.result().total_exception_cells(), 0);
        assert_eq!(e.stats().cells_computed, 0);
    }

    #[test]
    fn columnar_working_set_undercuts_the_row_layout() {
        let mut row = engine(ExceptionPolicy::slope_threshold(0.4));
        let mut col = engine(ExceptionPolicy::slope_threshold(0.4))
            .with_backend(Backend::Columnar)
            .unwrap();
        row.ingest_unit(&dense_tuples()).unwrap();
        col.ingest_unit(&dense_tuples()).unwrap();
        assert!(
            col.stats().peak_bytes < row.stats().peak_bytes,
            "columnar peak {} must undercut row peak {}",
            col.stats().peak_bytes,
            row.stats().peak_bytes
        );
    }
}
