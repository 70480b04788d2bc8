//! **Algorithm 1 — m/o H-cubing**: compute regressions for *every* cell of
//! every cuboid from the m-layer up to the o-layer; retain only exception
//! cells in between (all cells at the two critical layers).
//!
//! Step 1 follows the paper: one scan of the input aggregates the stream
//! into the m-layer, merged under Theorems 3.2/3.3: each tuple is
//! folded straight into its m-cell in arrival order. The paper stages this scan
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
//! [`MoCubingEngine`] is the algorithm: the per-unit sequence validate
//! → compute → diff → commit, the tier roll-up over [`CuboidTable`]s
//! and the statistics. [`compute`] is the batch wrapper that cubes one
//! unit and returns its result.
//!
//! What an engine keeps of a unit is the paper's memory model —
//! critical layers + exception cells: each depth tier's full tables
//! are dropped as soon as the next tier is built, like the original
//! batch algorithm.
//!
//! **Recurring units.** In the paper's setting a fixed population of
//! streams reports every unit, and the stream layer hands each unit's
//! tuples over sorted by key, so key sequences recur — the same one
//! every unit, or a few in turn when the active streams rotate — and
//! only the measures change. The roll-up of one key sequence is always
//! the same: a table's iteration order follows from
//! its keys and their insertion sequence, so which rows fold into which
//! target, in which order, and where each target sits is fixed by the
//! key sequence. The engine keeps up to [`SHAPES`] such *roll-up
//! shapes*, keyed by a 64-bit hash of the sequence and evicted least
//! recently used first. A sequence seen once is remembered by its hash
//! alone. The next unit with that hash runs cold and reads the shape's
//! *roll-up plan* off its finished tables: per step, per source row in
//! iteration order, the index of its target row in the target's
//! iteration order. Every later unit whose key sequence equals a
//! resident plan's — compared in full, so a hash collision is only a
//! miss — replays that plan instead of hashing: each target folds the
//! same rows in the same order (the first copied, the rest through
//! [`merge_sibling`]), and exception stores are filled in target
//! iteration order. The critical layers come out with the cold fold's
//! buckets: when the held unit has the shape, as clones of its tables
//! with the values overwritten in iteration order; otherwise as fresh
//! tables into which the cold fold's keys are re-inserted in its
//! first-arrival order. The cold fold stays the only definition of
//! order, and a replayed unit is the cold unit bit for bit, statistics
//! included (but `elapsed`).

use crate::engine::{empty_result, next_window, unshare_result, CubingEngine, UnitDelta};
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, validate_tuples, MTuple};
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{
    aggregate_from, collect_exceptions, merge_row, table_bytes, CuboidTable, Projector,
};
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHasher};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The most roll-up shapes one engine keeps (see the module docs).
///
/// A rotating population needs one shape per key sequence in its
/// rotation: the benchmark's `quiet_fleet` tenants cycle through 16. A
/// shape costs only the sequences that occur — a plan is its key
/// sequence plus one `u32` per tuple, per source row and per target row
/// of every step, about 1.3 KB on `quiet_fleet`'s 16-tuple units and
/// eight-step lattice — so room for twice that rotation costs a fixed
/// population nothing.
pub const SHAPES: usize = 32;

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

/// The roll-up order of one lattice: every cuboid above the m-layer in
/// depth tiers, each with the table it is aggregated from. It depends on
/// the lattice alone, so an engine derives it once; every cold unit
/// folds along it, and every roll-up plan is laid out along it.
///
/// Tables are named by *slot*: 0 is the m-layer, `k + 1` is step `k`'s.
#[derive(Debug)]
struct Schedule {
    m_layer: CuboidSpec,
    steps: Vec<Step>,
    /// Each depth tier's range of `steps`, bottom-up.
    tiers: Vec<Range<usize>>,
}

/// One cuboid of a [`Schedule`].
#[derive(Debug)]
struct Step {
    cuboid: CuboidSpec,
    /// The slot it is folded from: its closest computed descendant, a
    /// one-step-finer cuboid of the tier before (the m-layer for the
    /// first tier).
    source: usize,
    /// The o-layer: kept whole, never screened, never a source.
    o_layer: bool,
    /// No later step reads this step's source.
    frees_source: bool,
    /// A later step reads this step's table.
    read_later: bool,
}

impl Schedule {
    fn new(layers: &CriticalLayers) -> Self {
        let lattice = layers.lattice();
        let mut steps: Vec<Step> = Vec::new();
        let mut tiers: Vec<Range<usize>> = Vec::new();
        for tier in depth_tiers(layers) {
            let start = steps.len();
            let previous = tiers.last().cloned().unwrap_or(0..0);
            for cuboid in tier {
                let computed = &steps[previous.clone()];
                let sources = computed.iter().filter(|s| !s.o_layer).map(|s| &s.cuboid);
                let source = lattice
                    .closest_computed_descendant(&cuboid, sources)
                    .and_then(|c| computed.iter().position(|s| &s.cuboid == c))
                    .map_or(0, |k| previous.start + k + 1);
                steps.push(Step {
                    o_layer: &cuboid == lattice.o_layer(),
                    cuboid,
                    source,
                    frees_source: false,
                    read_later: false,
                });
            }
            tiers.push(start..steps.len());
        }
        let mut last_reader = vec![None; steps.len() + 1];
        for (k, step) in steps.iter().enumerate() {
            last_reader[step.source] = Some(k);
        }
        for (k, step) in steps.iter_mut().enumerate() {
            step.frees_source = last_reader[step.source] == Some(k);
            step.read_later = last_reader[k + 1].is_some();
        }
        Schedule {
            m_layer: lattice.m_layer().clone(),
            steps,
            tiers,
        }
    }

    /// The cuboid of table `slot`.
    fn cuboid(&self, slot: usize) -> &CuboidSpec {
        match slot {
            0 => &self.m_layer,
            k => &self.steps[k - 1].cuboid,
        }
    }
}

/// The slots of a tier's tables.
fn slots(tier: &Range<usize>) -> Range<usize> {
    tier.start + 1..tier.end + 1
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

/// Algorithm 1 as a per-unit engine.
///
/// Every unit is computed bottom-up in depth tiers, each cuboid
/// aggregated from its closest computed descendant — exactly the
/// work-sharing of the batch algorithm — and replaces the unit before
/// it. Each tier's full tables are dropped once the next tier is built,
/// so the engine's peak memory is the batch algorithm's and what it
/// retains is the paper's: critical layers + exception cells.
#[derive(Debug, Clone)]
pub struct MoCubingEngine {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    /// The lattice's roll-up order, shared by every unit.
    schedule: Arc<Schedule>,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Units computed by replaying a roll-up plan rather than cold.
    units_replayed: u64,
    /// The key sequences of recent units and their roll-up plans.
    shapes: ShapeCache,
    /// Shared with every snapshot taken of the held unit.
    result: Arc<CubeResult>,
}

impl MoCubingEngine {
    /// Creates an engine.
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
            schedule: Arc::new(Schedule::new(&layers)),
            layers,
            policy,
            window: None,
            units_opened: 0,
            units_replayed: 0,
            shapes: ShapeCache::default(),
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

    /// Computes one unit (the batch algorithm) without touching the
    /// held one: the finished result, statistics included, and — when
    /// asked to `capture` — the roll-up plan read off the unit's
    /// finished tables.
    fn open_unit(
        &self,
        tuples: &[MTuple],
        capture: bool,
    ) -> Result<(CubeResult, Option<RollUpPlan>)> {
        let started = Instant::now();
        let dims = self.schema.num_dims();
        let mut work = UnitWork::default();

        // Step 1: one scan of the batch into the m-layer. A cell enters
        // the table when its first tuple arrives and its duplicates merge
        // into it in arrival order; that first-arrival order fixes the
        // fold order further up the lattice. It is also the order the
        // paper's H-tree creates its leaves in, so staging the batch
        // through a tree first would build this same table.
        let mut m_table = CuboidTable::default();
        for t in tuples {
            merge_row(&mut m_table, t.ids(), t.isb())?;
        }
        work.mem.add(table_bytes(&m_table, dims));
        work.count_cuboid(tuples.len() as u64, m_table.len());
        let mut capture = (capture && tuples.len() < FIRST as usize)
            .then(|| PlanCapture::new(tuples, &m_table, dims));

        // Step 2: the rest of the lattice.
        let (m_table, o_table, exceptions) =
            self.compute_uppers(&mut work, m_table, capture.as_mut())?;

        let UnitWork { stats, mem } = work;
        let plan = capture.map(PlanCapture::finish);
        let result = self.retain(started, stats, &mem, m_table, o_table, exceptions);
        Ok((result, plan))
    }

    /// Recomputes a unit whose key sequence is `plan`'s by replaying the
    /// plan's index maps over the unit's measures: no key is hashed or
    /// projected except an exceptional cell's and, unless the `held`
    /// unit has the plan's shape, a critical-layer cell's. Every target
    /// row folds the same rows in the same order as the cold roll-up
    /// (the first copied, the rest through [`merge_sibling`]), the
    /// critical layers have the cold tables' buckets ([`overwrite`] or
    /// [`rebuild`]), and exception stores are filled in target
    /// iteration order, so the result — statistics too, but `elapsed` —
    /// is the cold computation's.
    fn replay_unit(&self, plan: &RollUpPlan, held: bool, tuples: &[MTuple]) -> Result<CubeResult> {
        let started = Instant::now();
        let schedule = &*self.schedule;
        let dims = self.schema.num_dims();
        let mut mem = MemoryAccountant::default();
        let (m_of, mut maps) = plan.maps();

        // values[slot] holds the slot's folded measures in iteration
        // order, while a later step reads them.
        let mut values = Vec::with_capacity(schedule.steps.len() + 1);
        values.push(fold_indexed(
            tuples.iter().map(MTuple::isb),
            m_of,
            plan.rows(0),
        )?);
        mem.add(plan.bytes(0));
        let m_table = if held {
            overwrite(self.result.m_table(), &values[0])
        } else {
            rebuild(m_of, &values[0], |i, _| CellKey::new(tuples[i].ids()))
        };

        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut previous = 0..0;
        for tier in &schedule.tiers {
            for k in tier.clone() {
                let step = &schedule.steps[k];
                let (target_of, rest) = maps.split_at(plan.rows(step.source));
                let (rep, rest) = rest.split_at(plan.rows(k + 1));
                maps = rest;
                let folded = fold_indexed(values[step.source].iter(), target_of, rep.len())?;
                mem.add(plan.bytes(k + 1));
                if step.frees_source {
                    values[step.source] = Vec::new();
                }
                if step.o_layer {
                    o_table = if held {
                        overwrite(self.result.o_table(), &folded)
                    } else {
                        let projector =
                            Projector::walking(&self.schema, &schedule.m_layer, &step.cuboid);
                        let mut key = vec![0u32; dims];
                        rebuild(target_of, &folded, |_, row| {
                            projector.project_into(tuples[rep[row] as usize].ids(), &mut key);
                            CellKey::new(&key)
                        })
                    };
                    values.push(Vec::new());
                    continue;
                }
                let exc = self.replay_exceptions(&step.cuboid, tuples, rep, &folded);
                if !exc.is_empty() {
                    mem.add(table_bytes(&exc, dims));
                    exceptions.insert(step.cuboid.clone(), exc);
                }
                values.push(if step.read_later { folded } else { Vec::new() });
            }
            // The cold roll-up retires the tier before once this one is
            // built.
            mem.remove(previous.map(|slot| plan.bytes(slot)).sum());
            previous = slots(tier);
        }
        Ok(self.retain(
            started,
            plan.counters(schedule),
            &mem,
            m_table,
            o_table,
            exceptions,
        ))
    }

    /// The exceptional rows among a replay's `values` of `cuboid`, keyed
    /// by their representative tuple's m-key projected onto the cuboid
    /// and inserted in target iteration order, as
    /// [`collect_exceptions`] does on the cold path.
    ///
    /// [`collect_exceptions`]: crate::table::collect_exceptions
    fn replay_exceptions(
        &self,
        cuboid: &CuboidSpec,
        tuples: &[MTuple],
        rep: &[u32],
        values: &[Isb],
    ) -> CuboidTable {
        let threshold = self.policy.threshold_for(cuboid);
        let mut exc = CuboidTable::default();
        // Built at the first exceptional row: most steps have none.
        let mut projection = None;
        for (isb, &rep) in values.iter().zip(rep) {
            if ExceptionPolicy::is_exception_at(threshold, isb) {
                let (projector, key) = projection.get_or_insert_with(|| {
                    let projector =
                        Projector::walking(&self.schema, &self.schedule.m_layer, cuboid);
                    (projector, vec![0u32; self.schema.num_dims()])
                });
                projector.project_into(tuples[rep as usize].ids(), key);
                exc.insert(CellKey::new(key), *isb);
            }
        }
        exc
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

    /// Computes every cuboid above the m-layer bottom-up in the
    /// [`Schedule`]'s depth *tiers*, each aggregated from its closest
    /// computed descendant (a one-step-finer table from the previous
    /// tier). Returns the m-layer table it was given, the o-layer table
    /// and the exception stores; between-layer full tables are dropped as
    /// soon as the next tier no longer needs them. A `capture` reads each
    /// finished table into the roll-up plan.
    fn compute_uppers(
        &self,
        work: &mut UnitWork,
        m_table: CuboidTable,
        mut capture: Option<&mut PlanCapture>,
    ) -> Result<(CuboidTable, CuboidTable, FxHashMap<CuboidSpec, CuboidTable>)> {
        let dims = self.schema.num_dims();
        let schedule = &*self.schedule;

        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        // The full tables a later tier may still fold, by slot.
        let mut tables: Vec<Option<CuboidTable>> = vec![None; schedule.steps.len() + 1];
        tables[0] = Some(m_table);
        let mut previous = 0..0;
        for tier in &schedule.tiers {
            for k in tier.clone() {
                let step = &schedule.steps[k];
                let from = tables[step.source]
                    .as_ref()
                    .expect("a source outlives its tier");
                let (full, rows) = aggregate_from(
                    &self.schema,
                    schedule.cuboid(step.source),
                    from,
                    &step.cuboid,
                    None,
                )?;
                work.count_cuboid(rows, full.len());
                let bytes = table_bytes(&full, dims);
                work.mem.add(bytes);
                if let Some(capture) = capture.as_deref_mut() {
                    capture.step(&self.schema, schedule, k, from, &full, bytes);
                }

                if step.o_layer {
                    o_table = full;
                    continue;
                }
                let exc = collect_exceptions(&self.policy, &step.cuboid, &full);
                if !exc.is_empty() {
                    work.mem.add(table_bytes(&exc, dims));
                    exceptions.insert(step.cuboid.clone(), exc);
                }
                tables[k + 1] = Some(full);
            }
            // The old tier is no longer reachable as a source.
            retire_tier(&mut work.mem, &mut tables[previous], dims);
            previous = slots(tier);
        }
        retire_tier(&mut work.mem, &mut tables[previous], dims);
        let m_table = tables[0].take().expect("the m-layer is never retired");
        Ok((m_table, o_table, exceptions))
    }
}

/// Drops a finished tier's tables and books them out of the analytical
/// memory.
fn retire_tier(mem: &mut MemoryAccountant, tier: &mut [Option<CuboidTable>], dims: usize) {
    let bytes = tier
        .iter_mut()
        .filter_map(Option::take)
        .map(|table| table_bytes(&table, dims))
        .sum();
    mem.remove(bytes);
}

/// Flags a `target_of` entry whose source row is the first to reach its
/// target row: a replay copies that row, as the cold fold inserts it,
/// and merges every later one.
const FIRST: u32 = 1 << 31;

/// The 64-bit Fx hash a unit's m-key sequence is looked up by.
fn sequence_hash(tuples: &[MTuple]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_usize(tuples.len());
    for id in tuples.iter().flat_map(MTuple::ids) {
        hasher.write_u32(*id);
    }
    hasher.finish()
}

/// The roll-up shapes of recent units: up to [`SHAPES`] m-key sequences,
/// least recently used first.
///
/// `Ingestor::close_unit` emits a unit's tuples sorted by key, so a
/// population of streams that report in a fixed pattern hands the
/// engine a few key sequences over and over. The roll-up of one
/// sequence is the same every time it recurs — which rows fold into
/// which, in which order, and where each target row sits — and only
/// the measures differ.
#[derive(Debug, Clone, Default)]
struct ShapeCache {
    shapes: Vec<Shape>,
    /// The hash of the held unit's key sequence.
    held: Option<u64>,
}

/// One key sequence the cache remembers.
#[derive(Debug, Clone)]
struct Shape {
    hash: u64,
    /// Captured by the second unit with this hash; absent while the
    /// sequence was seen only once.
    plan: Option<RollUpPlan>,
}

/// What the cache holds for a unit's key sequence.
enum Lookup<'a> {
    /// A resident plan of exactly this sequence; `held` when the held
    /// unit has it too.
    Replay { plan: &'a RollUpPlan, held: bool },
    /// The hash was seen once: run cold and capture the plan.
    Capture,
    /// A new hash, or a plan of another sequence under this one: run
    /// cold.
    Cold,
}

impl ShapeCache {
    fn lookup(&self, hash: u64, tuples: &[MTuple]) -> Lookup<'_> {
        match self.shapes.iter().find(|shape| shape.hash == hash) {
            None => Lookup::Cold,
            Some(Shape { plan: None, .. }) => Lookup::Capture,
            Some(Shape {
                plan: Some(plan), ..
            }) if plan.matches(tuples) => Lookup::Replay {
                plan,
                held: self.held == Some(hash),
            },
            Some(_) => Lookup::Cold,
        }
    }

    /// Records a committed unit with key-sequence hash `hash`: its shape
    /// becomes the most recently used and the held unit's. A cold unit
    /// leaves the shape with the plan it `captured`, if any — a unit
    /// whose sequence missed a resident plan under the same hash
    /// replaces it by the hash alone.
    fn commit(&mut self, hash: u64, replayed: bool, captured: Option<RollUpPlan>) {
        let mut shape = match self.shapes.iter().position(|shape| shape.hash == hash) {
            Some(at) => self.shapes.remove(at),
            None => Shape { hash, plan: None },
        };
        if !replayed {
            shape.plan = captured;
        }
        self.shapes.push(shape);
        if self.shapes.len() > SHAPES {
            self.shapes.remove(0);
        }
        self.held = Some(hash);
    }
}

/// A unit's roll-up as index maps, read off a cold unit's
/// finished tables by [`PlanCapture`] and laid out along the engine's
/// [`Schedule`]. Replaying it on a unit with the same key sequence folds
/// the same rows into the same targets in the same order, without
/// hashing.
#[derive(Debug, Clone)]
struct RollUpPlan {
    tuples: usize,
    /// The key sequence's length.
    keys: usize,
    /// Everything in one allocation: the key sequence (every tuple's
    /// ids, concatenated); `m_of`, the m-row each tuple folds into; then
    /// per step its `target_of` — for each source row, in the source's
    /// iteration order, its target row's index in the target's iteration
    /// order — and its `rep`, per target row a tuple whose m-key
    /// projects onto the row's key. Rows are [`FIRST`]-flagged in
    /// `m_of` and every `target_of`.
    arena: Box<[u32]>,
    /// Per slot: the table's rows and its analytical bytes.
    tables: Box<[(usize, usize)]>,
}

impl RollUpPlan {
    /// Whether `tuples` carry exactly this plan's key sequence.
    fn matches(&self, tuples: &[MTuple]) -> bool {
        tuples.len() == self.tuples
            && tuples
                .iter()
                .flat_map(MTuple::ids)
                .eq(&self.arena[..self.keys])
    }

    /// `m_of`, and the steps' maps after it.
    fn maps(&self) -> (&[u32], &[u32]) {
        self.arena[self.keys..].split_at(self.tuples)
    }

    fn rows(&self, slot: usize) -> usize {
        self.tables[slot].0
    }

    fn bytes(&self, slot: usize) -> usize {
        self.tables[slot].1
    }

    /// The cube counters of a unit of this shape: every tuple folded into
    /// the m-layer, every source row into its step's target.
    fn counters(&self, schedule: &Schedule) -> RunStats {
        let sources: usize = schedule.steps.iter().map(|s| self.rows(s.source)).sum();
        RunStats {
            rows_folded: (self.tuples + sources) as u64,
            cells_computed: self.tables.iter().map(|&(rows, _)| rows as u64).sum(),
            cuboids_computed: self.tables.len() as u32,
            ..RunStats::default()
        }
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
/// holding `values` in iteration order. A replay whose held unit has
/// the shape gets its critical layers this way.
fn overwrite(table: &CuboidTable, values: &[Isb]) -> CuboidTable {
    debug_assert_eq!(table.len(), values.len());
    let mut out = table.clone();
    for (slot, value) in out.values_mut().zip(values) {
        *slot = *value;
    }
    out
}

/// A critical-layer table built as the cold fold built it, holding
/// `values` (in the cold table's iteration order). Walking `target_of`
/// in source order, each [`FIRST`]-flagged entry inserts its row's key,
/// `key_of(source position, row)`: the cold fold's inserts, in its
/// first-arrival order. Neither the m-layer fold nor [`aggregate_from`]
/// pre-sizes a table, so the same inserts into an empty table grow the
/// same buckets and give the same iteration order.
fn rebuild(
    target_of: &[u32],
    values: &[Isb],
    mut key_of: impl FnMut(usize, usize) -> CellKey,
) -> CuboidTable {
    let mut out = CuboidTable::default();
    for (i, &to) in target_of.iter().enumerate() {
        if to & FIRST != 0 {
            let row = (to & !FIRST) as usize;
            out.insert(key_of(i, row), values[row]);
        }
    }
    out
}

/// Fills `index` with each row's index in a finished table's iteration
/// order.
fn fill_index(index: &mut FxHashMap<CellKey, u32>, table: &CuboidTable) {
    index.clear();
    index.reserve(table.len());
    for key in table.keys() {
        index.insert(key.clone(), index.len() as u32);
    }
}

/// Links a source row to target row `to`: the `target_of` entry,
/// [`FIRST`]-flagged when the row is the target's first, which also
/// makes `source_rep` the target's representative in `rep`.
fn link(rep: &mut [u32], to: u32, source_rep: u32) -> u32 {
    let first = &mut rep[to as usize];
    if *first == u32::MAX {
        *first = source_rep;
        to | FIRST
    } else {
        to
    }
}

/// Builds a [`RollUpPlan`] during a cold unit, from each table the
/// moment it is finished.
struct PlanCapture {
    tuples: usize,
    keys: usize,
    arena: Vec<u32>,
    tables: Vec<(usize, usize)>,
    /// The m-layer's representative tuple per m-row.
    m_rep: Vec<u32>,
    /// Where each step's `rep` starts in `arena`.
    rep_at: Vec<usize>,
    /// Scratch: the row index of the table being captured.
    index: FxHashMap<CellKey, u32>,
}

impl PlanCapture {
    fn new(tuples: &[MTuple], m_table: &CuboidTable, dims: usize) -> Self {
        let mut index = FxHashMap::default();
        fill_index(&mut index, m_table);
        let mut arena = Vec::with_capacity(tuples.len() * (dims + 1));
        arena.extend(tuples.iter().flat_map(MTuple::ids));
        let keys = arena.len();
        let mut m_rep = vec![u32::MAX; m_table.len()];
        for (i, t) in tuples.iter().enumerate() {
            arena.push(link(&mut m_rep, index[t.ids()], i as u32));
        }
        PlanCapture {
            tuples: tuples.len(),
            keys,
            arena,
            tables: vec![(m_table.len(), table_bytes(m_table, dims))],
            m_rep,
            rep_at: Vec::new(),
            index,
        }
    }

    /// Captures step `k`: `full` was folded from `source`, the finished
    /// table of the step's source slot.
    fn step(
        &mut self,
        schema: &CubeSchema,
        schedule: &Schedule,
        k: usize,
        source: &CuboidTable,
        full: &CuboidTable,
        bytes: usize,
    ) {
        let step = &schedule.steps[k];
        fill_index(&mut self.index, full);
        let projector = Projector::walking(schema, schedule.cuboid(step.source), &step.cuboid);
        let at = self.arena.len();
        let (sources, rows) = (source.len(), full.len());
        self.arena.resize(at + sources + rows, u32::MAX);
        let (done, new) = self.arena.split_at_mut(at);
        let (target_of, rep) = new.split_at_mut(sources);
        let source_rep = match step.source {
            0 => &self.m_rep[..],
            slot => &done[self.rep_at[slot - 1]..][..sources],
        };
        let index = &self.index;
        let mut key = vec![0u32; schema.num_dims()];
        for (row, ids) in source.keys().enumerate() {
            projector.project_into(ids.ids(), &mut key);
            target_of[row] = link(rep, index[key.as_slice()], source_rep[row]);
        }
        self.rep_at.push(at + sources);
        self.tables.push((rows, bytes));
    }

    /// The finished plan.
    fn finish(self) -> RollUpPlan {
        RollUpPlan {
            tuples: self.tuples,
            keys: self.keys,
            arena: self.arena.into_boxed_slice(),
            tables: self.tables.into_boxed_slice(),
        }
    }
}

impl CubingEngine for MoCubingEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MoCubing
    }

    /// One unit: validate, compute the unit beside the held one —
    /// replayed when its key sequence has a resident plan, cold
    /// otherwise — diff the two, commit.
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        let window = next_window(self.window, tuples)?;
        let hash = sequence_hash(tuples);
        let lookup = self.shapes.lookup(hash, tuples);
        let replayed = matches!(lookup, Lookup::Replay { .. });
        let (result, captured) = match lookup {
            Lookup::Replay { plan, held } => (self.replay_unit(plan, held, tuples)?, None),
            Lookup::Capture => self.open_unit(tuples, true)?,
            Lookup::Cold => self.open_unit(tuples, false)?,
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
        // The shapes follow the committed unit only.
        self.shapes.commit(hash, replayed, captured);
        self.units_replayed += u64::from(replayed);
        Ok(delta)
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

    /// `tuples` moved to window `w`.
    fn in_unit(tuples: &[MTuple], w: i64) -> Vec<MTuple> {
        tuples
            .iter()
            .map(|t| {
                let m = t.isb();
                let isb = Isb::new(10 * w, 10 * w + 9, m.base(), m.slope()).unwrap();
                MTuple::new(t.ids().to_vec(), isb)
            })
            .collect()
    }

    /// The full key comparison is the only guard against a hash
    /// collision: a plan of another sequence planted under a unit's hash
    /// must miss, and the unit must come out as it does cold.
    #[test]
    fn a_plan_under_a_colliding_hash_misses() {
        let policy = ExceptionPolicy::slope_threshold(0.4);
        let planted = dense_tuples();
        let unit = in_unit(&planted[1..], 2);
        let mut e = engine(policy.clone());
        e.ingest_unit(&in_unit(&planted, 0)).unwrap();
        e.ingest_unit(&in_unit(&planted, 1)).unwrap();
        let shape = e.shapes.shapes.last_mut().unwrap();
        assert!(shape.plan.is_some(), "the second unit captures");
        assert_ne!(shape.hash, sequence_hash(&unit));
        shape.hash = sequence_hash(&unit);

        let hash = sequence_hash(&unit);
        assert!(matches!(e.shapes.lookup(hash, &unit), Lookup::Cold));
        e.ingest_unit(&unit).unwrap();
        assert_eq!(e.units_replayed(), 0);
        let shape = e.shapes.shapes.last().unwrap();
        assert_eq!(shape.hash, hash);
        assert!(shape.plan.is_none(), "the miss leaves the hash alone");

        let (schema, layers) = small_setup();
        let cold = compute(&schema, &layers, &policy, &unit).unwrap();
        let cells = |t: &CuboidTable| -> Vec<(CellKey, Isb)> {
            t.iter().map(|(k, m)| (k.clone(), *m)).collect()
        };
        assert_eq!(cells(e.result().m_table()), cells(cold.m_table()));
        assert_eq!(cells(e.result().o_table()), cells(cold.o_table()));
        assert_eq!(
            e.result().total_exception_cells(),
            cold.total_exception_cells()
        );
    }
}
