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
//! → compute → diff → commit, the tier roll-up and the statistics.
//! [`compute`] is the batch wrapper that cubes one unit and returns its
//! result.
//!
//! What an engine keeps of a unit is the paper's memory model —
//! critical layers + exception cells — and its analytical memory counts
//! each depth tier's full tables until the next tier is built, like the
//! original batch algorithm.
//!
//! **One fold.** A unit is cubed in two passes. The first builds the
//! *roll-up plan* of its key sequence: the keys are hashed once per
//! table — the m-layer's in arrival order, every other table's from its
//! source table in the source's iteration order — so each table's keys
//! go in in first-arrival order, and each finished table's rows are
//! numbered in its iteration order. The plan records, per tuple, its
//! m-row and, per step, per source row in iteration order, its target
//! row, along with every table's keys in its iteration order, read off
//! the walk that numbers it. The second pass folds the unit's measures
//! by the plan as `(base, slope)` pairs, every table of the plan in one
//! buffer the engine reuses from unit to unit: each target copies its
//! first row and adds every later one with the two adds
//! [`merge_sibling`] performs. The interval is not re-checked per row:
//! [`validate_tuples`] has held every tuple to the unit's window at the
//! door. An [`Isb`] is built only for a retained cell. Exception stores
//! are filled in target iteration order, screened on each pair's slope
//! and keyed by the plan's keys. The plan's build is the only definition
//! of order: which rows fold into which target, in which order, and
//! where each target sits.
//!
//! **Recurring units.** In the paper's setting a fixed population of
//! streams reports every unit, and the stream layer hands each unit's
//! tuples over sorted by key, so key sequences recur — the same one
//! every unit, or a few in turn when the active streams rotate — and
//! only the measures change. A table's iteration order follows from its
//! keys and their insertion sequence, so the plan of one key sequence
//! is always the same. The engine keeps up to [`SHAPES`] such *roll-up
//! shapes*, keyed by a 64-bit hash of the sequence and evicted least
//! recently used first. A sequence seen once is remembered by its hash
//! alone. The next unit with that hash keeps the plan it builds. Every
//! later unit whose key sequence equals a resident plan's — compared in
//! full, so a hash collision is only a miss — folds by that plan
//! without hashing. The critical layers come out with the buckets of
//! tables built by inserting the plan's keys in first-arrival order,
//! whichever of two ways they are written: into the spare result of the
//! same plan, in place; otherwise as fresh tables into which those keys
//! are inserted in that order. Either way the values are rewritten in
//! iteration order. A unit that folds by a kept plan is therefore the
//! unit that builds its own, bit for bit — NaN payloads included, as
//! both run the one fold — and its statistics are too (but `elapsed`).
//!
//! **The spare result.** Every plan has an identity of its own, and the
//! engine knows which plan laid out the held unit's critical tables (the
//! one it replayed or captured). When a unit of the same plan replaces
//! the held one, the old result is kept, with that identity, as the
//! spare; a unit of another shape drops it, so a rotating population
//! keeps none. A replay of the held shape takes the spare if it is of
//! its plan — matched by identity, not by hash — and `Arc::get_mut`
//! grants it, so no snapshot holds it any more, and writes the unit into
//! it: its m- and o-tables are overwritten in place, and its exception
//! stores and statistics replaced. A result any reader holds is never
//! written; a replay that finds the spare held rebuilds. A serving layer
//! that publishes each unit's snapshot in place of the last one holds
//! only the held unit, so the spare — one unit back — is free. The spare
//! is not counted in the unit's statistics: `peak_bytes` and
//! `retained_bytes` stay the analytical bytes of one unit's tables, as a
//! unit that builds its plan counts them.
//!
//! [`merge_sibling`]: crate::measure::merge_sibling

use crate::engine::{empty_result, next_window, unshare_result, CubingEngine, UnitDelta};
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{validate_tuples, MTuple};
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{table_bytes, table_bytes_at, CuboidTable, Projector};
use crate::{CoreError, Result};
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
/// sequence plus one `u32` per tuple and per source row of every step,
/// and every table's keys — so room for twice that rotation costs a
/// fixed population nothing.
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
/// the lattice alone, so an engine derives it once; every roll-up plan
/// is built and laid out along it.
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
                });
            }
            tiers.push(start..steps.len());
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

/// Algorithm 1 as a per-unit engine.
///
/// Every unit is computed bottom-up in depth tiers, each cuboid
/// aggregated from its closest computed descendant — exactly the
/// work-sharing of the batch algorithm — and replaces the unit before
/// it. Each tier's tables are counted out of the analytical memory once
/// the next tier is built, so the engine's peak is the batch
/// algorithm's and what it retains is the paper's: critical layers +
/// exception cells.
#[derive(Debug, Clone)]
pub struct MoCubingEngine {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    /// The lattice's roll-up order, shared by every unit.
    schedule: Arc<Schedule>,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Units folded by a kept roll-up plan rather than one they built.
    units_replayed: u64,
    /// The key sequences of recent units and their roll-up plans.
    shapes: ShapeCache,
    /// Units whose result was written into a retired one.
    units_recycled: u64,
    /// The fold buffer, reused from unit to unit: every table of a
    /// plan, slot after slot, as `(base, slope)` pairs.
    pairs: Vec<Pair>,
    /// Shared with every snapshot taken of the held unit.
    result: Arc<CubeResult>,
    /// The result the held one replaced, with the plan its critical
    /// tables are laid out by — always the held unit's plan.
    spare: Option<(u64, Arc<CubeResult>)>,
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
            units_recycled: 0,
            shapes: ShapeCache::default(),
            pairs: Vec::new(),
            result,
            spare: None,
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

    /// How many units this engine folded by a roll-up plan it kept from
    /// an earlier unit instead of building one. A probe for tests; not
    /// part of the stable API.
    #[doc(hidden)]
    pub fn units_replayed(&self) -> u64 {
        self.units_replayed
    }

    /// Cubes a unit whose key sequence is `plan`'s by folding its
    /// measures along the plan's index maps as `(base, slope)` pairs in
    /// `pairs` ([`fold_pairs`]): no key is projected, and none is hashed
    /// but an exceptional cell's and, unless the `recycled` result is
    /// written, a critical-layer cell's — each read from the plan's
    /// keys. The critical layers get the buckets of the plan's build
    /// ([`overwrite`] or [`rebuild`]) and exception stores are filled in
    /// target iteration order, so the result — statistics too, but
    /// `elapsed`, counted from `started` — is the same whether the plan
    /// was built for this unit or kept from an earlier one. `tuples` are
    /// validated: they share one window.
    ///
    /// A `recycled` result is the spare, laid out by `plan`, that
    /// nothing else holds: the unit is written into it, its critical
    /// tables overwritten in place, and it is returned.
    fn replay_unit(
        &self,
        started: Instant,
        plan: &RollUpPlan,
        mut recycled: Option<Arc<CubeResult>>,
        tuples: &[MTuple],
        pairs: &mut Vec<Pair>,
    ) -> Arc<CubeResult> {
        let schedule = &*self.schedule;
        let dims = self.schema.num_dims();
        let window = tuples[0].isb().interval();
        let mut mem = MemoryAccountant::default();
        let (m_of, maps) = plan.maps();
        let (m_keys, mut maps) = maps.split_at(plan.rows(0) * dims);
        // Every row is written by its target's first source row before
        // anything reads it, so the buffer is only ever grown.
        if pairs.len() < plan.pairs() {
            pairs.resize(plan.pairs(), [0.0; 2]);
        }
        let (mut spare_m, mut spare_o) = recycled
            .as_mut()
            .map(|result| unshared(result).take_critical())
            .unzip();

        let m_rows = &mut pairs[plan.range(0)];
        fold_pairs(
            tuples.iter().map(|t| [t.isb().base(), t.isb().slope()]),
            m_of,
            m_rows,
        );
        mem.add(plan.bytes(0));
        let m_table = match spare_m.take() {
            Some(table) => overwrite(table, window, m_rows),
            None => rebuild(m_of, m_keys, dims, window, m_rows),
        };

        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut previous = 0..0;
        for tier in &schedule.tiers {
            for k in tier.clone() {
                let step = &schedule.steps[k];
                let (target_of, rest) = maps.split_at(plan.rows(step.source));
                let (keys, rest) = rest.split_at(plan.rows(k + 1) * dims);
                maps = rest;
                // A source slot always precedes its target's.
                let target = plan.range(k + 1);
                let (done, rest) = pairs.split_at_mut(target.start);
                let rows = &mut rest[..target.len()];
                let source = done[plan.range(step.source)].iter().copied();
                fold_pairs(source, target_of, rows);
                mem.add(plan.bytes(k + 1));
                if step.o_layer {
                    o_table = match spare_o.take() {
                        Some(table) => overwrite(table, window, rows),
                        None => rebuild(target_of, keys, dims, window, rows),
                    };
                    continue;
                }
                let exc = self.replay_exceptions(&step.cuboid, window, keys, rows);
                if !exc.is_empty() {
                    mem.add(table_bytes(&exc, dims));
                    exceptions.insert(step.cuboid.clone(), exc);
                }
            }
            // The batch roll-up retires the tier before once this one is
            // built.
            mem.remove(previous.map(|slot| plan.bytes(slot)).sum());
            previous = slots(tier);
        }
        let stats = self.unit_stats(
            started,
            plan.counters(schedule),
            &mem,
            [&m_table, &o_table],
            &exceptions,
        );
        match recycled {
            Some(mut result) => {
                unshared(&mut result).replace_unit(m_table, o_table, exceptions, stats);
                result
            }
            None => Arc::new(self.new_result(m_table, o_table, exceptions, stats)),
        }
    }

    /// The exceptional rows among a unit's `rows` of `cuboid`, keyed by
    /// the plan's `keys` of the cuboid (a row's ids at `row × dims`) and
    /// inserted in target iteration order.
    fn replay_exceptions(
        &self,
        cuboid: &CuboidSpec,
        window: (i64, i64),
        keys: &[u32],
        rows: &[Pair],
    ) -> CuboidTable {
        let threshold = self.policy.threshold_for(cuboid);
        let mut exc = CuboidTable::default();
        for (&pair, key) in rows.iter().zip(keys.chunks_exact(self.schema.num_dims())) {
            if ExceptionPolicy::slope_is_exception_at(threshold, pair[1]) {
                exc.insert(CellKey::new(key), isb_of(window, pair));
            }
        }
        exc
    }

    /// Completes a finished unit's `stats` (the cube counters) with what
    /// it retains — critical layers + exceptions — and when it finished.
    fn unit_stats(
        &self,
        started: Instant,
        mut stats: RunStats,
        mem: &MemoryAccountant,
        critical: [&CuboidTable; 2],
        exceptions: &FxHashMap<CuboidSpec, CuboidTable>,
    ) -> RunStats {
        let dims = self.schema.num_dims();
        let retained = || critical.into_iter().chain(exceptions.values());
        stats.exception_cells = exceptions.values().map(|t| t.len() as u64).sum();
        stats.cells_retained = retained().map(|t| t.len() as u64).sum();
        stats.retained_bytes = retained().map(|t| table_bytes(t, dims)).sum();
        stats.peak_bytes = mem.peak();
        stats.elapsed = started.elapsed();
        stats
    }

    /// A finished unit's result: critical layers + exceptions.
    fn new_result(
        &self,
        m_table: CuboidTable,
        o_table: CuboidTable,
        exceptions: FxHashMap<CuboidSpec, CuboidTable>,
        stats: RunStats,
    ) -> CubeResult {
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
}

/// Flags a `target_of` entry whose source row is the first to reach its
/// target row: the fold copies that row, as the row's first arrival
/// opens it, and merges every later one.
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
    /// The plan the held unit's critical tables are laid out by: the one
    /// it replayed or kept.
    held: Option<u64>,
    /// The identity the next kept plan gets.
    next_plan: u64,
}

/// One key sequence the cache remembers.
#[derive(Debug, Clone)]
struct Shape {
    hash: u64,
    /// Kept by the second unit with this hash; absent while the
    /// sequence was seen only once.
    plan: Option<RollUpPlan>,
}

/// What the cache holds for a unit's key sequence.
enum Lookup<'a> {
    /// A resident plan of exactly this sequence.
    Replay(&'a RollUpPlan),
    /// The hash was seen once: build the plan and keep it.
    Capture,
    /// A new hash, or a plan of another sequence under this one: build
    /// the plan and drop it.
    Cold,
}

impl ShapeCache {
    fn lookup(&self, hash: u64, tuples: &[MTuple]) -> Lookup<'_> {
        match self.shapes.iter().find(|shape| shape.hash == hash) {
            None => Lookup::Cold,
            Some(Shape { plan: None, .. }) => Lookup::Capture,
            Some(Shape {
                plan: Some(plan), ..
            }) if plan.matches(tuples) => Lookup::Replay(plan),
            Some(_) => Lookup::Cold,
        }
    }

    /// Records a committed unit with key-sequence hash `hash`: its shape
    /// becomes the most recently used and the held unit's. A unit that
    /// built its plan leaves the shape with the plan, if `kept`, under a
    /// new identity — a unit whose sequence missed a resident plan under
    /// the same hash replaces it by the hash alone.
    fn commit(&mut self, hash: u64, replayed: bool, kept: Option<RollUpPlan>) {
        let mut shape = match self.shapes.iter().position(|shape| shape.hash == hash) {
            Some(at) => self.shapes.remove(at),
            None => Shape { hash, plan: None },
        };
        if !replayed {
            shape.plan = kept.map(|plan| {
                self.next_plan += 1;
                RollUpPlan {
                    id: self.next_plan,
                    ..plan
                }
            });
        }
        self.held = shape.plan.as_ref().map(|plan| plan.id);
        self.shapes.push(shape);
        if self.shapes.len() > SHAPES {
            self.shapes.remove(0);
        }
    }
}

/// A unit's roll-up as index maps, laid out along the engine's
/// [`Schedule`] and [built](RollUpPlan::build) by hashing the unit's
/// keys once per table. Every unit folds its measures by one: a unit of
/// a new key sequence by the plan it just built, a recurring one by the
/// plan its sequence left, without hashing.
#[derive(Debug, Clone)]
struct RollUpPlan {
    /// Unique within an engine: a result laid out by this plan is
    /// matched to it by identity, never by hash.
    id: u64,
    tuples: usize,
    /// The key sequence's length.
    sequence: usize,
    /// Everything in one allocation: the key sequence (every tuple's
    /// ids, concatenated); `m_of`, the m-row each tuple folds into, and
    /// the m-layer's keys; then per step its `target_of` — for each
    /// source row, in the source's iteration order, its target row's
    /// index in the target's iteration order — and its keys. A table's
    /// keys are every row's ids in its iteration order, `dims` a row.
    /// Rows are [`FIRST`]-flagged in `m_of` and every `target_of`.
    arena: Box<[u32]>,
    /// Where each slot's rows lie in the pair buffer: slot `s`
    /// holds `at[s]..at[s + 1]`, so the last entry is the plan's rows.
    at: Box<[usize]>,
    /// Per slot: the table's analytical bytes.
    bytes: Box<[usize]>,
}

impl RollUpPlan {
    /// The plan of `tuples`' key sequence, built in one hashing walk per
    /// table, in the order the lattice is rolled up. The m-layer takes
    /// the tuples' keys in arrival order and every step its source
    /// table's keys, read off the plan in the source's iteration order
    /// and projected with the LUT [`Projector`]: a key not yet in the
    /// table opens its row, so a table's keys go in in first-arrival
    /// order. Each finished table's rows are then [`number`]ed in its
    /// iteration order, its keys written to the plan in that order and
    /// its index dropped. `tuples` are fewer than [`FIRST`].
    fn build(schema: &CubeSchema, schedule: &Schedule, tuples: &[MTuple]) -> RollUpPlan {
        let dims = schema.num_dims();
        let mut arena: Vec<u32> = Vec::with_capacity(tuples.len() * (2 * dims + 1));
        arena.extend(tuples.iter().flat_map(MTuple::ids));
        let sequence = arena.len();
        let mut m = Index::default();
        for t in tuples {
            arena.push(open_row(&mut m, t.ids()));
        }
        let mut at = vec![0, m.len()];
        let mut bytes = vec![table_bytes_at(m.capacity(), m.len(), dims)];
        // Per slot: where its keys start in the arena.
        let mut keys_at = vec![number(m, &mut arena, sequence, dims)];

        let mut key = vec![0u32; dims];
        for step in &schedule.steps {
            let projector = Projector::new(schema, schedule.cuboid(step.source), &step.cuboid);
            let source = keys_at[step.source];
            let mut target = Index::default();
            let start = arena.len();
            for row in 0..at[step.source + 1] - at[step.source] {
                let ids = source + row * dims;
                projector.project_into(&arena[ids..ids + dims], &mut key);
                arena.push(open_row(&mut target, &key));
            }
            at.push(at[at.len() - 1] + target.len());
            bytes.push(table_bytes_at(target.capacity(), target.len(), dims));
            keys_at.push(number(target, &mut arena, start, dims));
        }
        RollUpPlan {
            id: 0,
            tuples: tuples.len(),
            sequence,
            arena: arena.into_boxed_slice(),
            at: at.into_boxed_slice(),
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Whether `tuples` carry exactly this plan's key sequence.
    fn matches(&self, tuples: &[MTuple]) -> bool {
        tuples.len() == self.tuples
            && tuples
                .iter()
                .flat_map(MTuple::ids)
                .eq(&self.arena[..self.sequence])
    }

    /// `m_of`, and the m-layer's keys and the steps' maps and keys
    /// after it.
    fn maps(&self) -> (&[u32], &[u32]) {
        self.arena[self.sequence..].split_at(self.tuples)
    }

    fn range(&self, slot: usize) -> Range<usize> {
        self.at[slot]..self.at[slot + 1]
    }

    fn rows(&self, slot: usize) -> usize {
        self.range(slot).len()
    }

    /// Every table's rows: the length of the pair buffer it needs.
    fn pairs(&self) -> usize {
        self.at[self.at.len() - 1]
    }

    fn bytes(&self, slot: usize) -> usize {
        self.bytes[slot]
    }

    /// The cube counters of a unit of this shape: every tuple folded into
    /// the m-layer, every source row into its step's target.
    fn counters(&self, schedule: &Schedule) -> RunStats {
        let sources: usize = schedule.steps.iter().map(|s| self.rows(s.source)).sum();
        RunStats {
            rows_folded: (self.tuples + sources) as u64,
            cells_computed: self.pairs() as u64,
            cuboids_computed: self.bytes.len() as u32,
            ..RunStats::default()
        }
    }
}

/// A table while a plan is built: each key's row, numbered in
/// insertion order.
type Index = FxHashMap<CellKey, u32>;

/// The `target_of` entry of a source row with key `ids`: the key's row
/// in `index`, opened — and [`FIRST`]-flagged — if the key is new. A hit
/// probes by slice and builds no key.
fn open_row(index: &mut Index, ids: &[u32]) -> u32 {
    match index.get(ids) {
        Some(&row) => row,
        None => {
            let row = index.len() as u32;
            index.insert(CellKey::new(ids), row);
            row | FIRST
        }
    }
}

/// Numbers a finished table's rows in its iteration order: rewrites
/// the `target_of` entries from `start` to the end of the `arena` — rows
/// numbered in insertion order — as positions in `index`'s iteration
/// order, keeping their [`FIRST`] flags, and appends the table's keys in
/// that order, `dims` ids a row. Both are read off one walk of the
/// table; nothing is hashed. Returns where the keys start.
fn number(index: Index, arena: &mut Vec<u32>, start: usize, dims: usize) -> usize {
    let keys = arena.len();
    arena.resize(keys + index.len() * dims, 0);
    let (target_of, out) = arena[start..].split_at_mut(keys - start);
    let mut position = vec![0u32; index.len()];
    for ((at, (key, &row)), slot) in index.iter().enumerate().zip(out.chunks_exact_mut(dims)) {
        position[row as usize] = at as u32;
        slot.copy_from_slice(key.ids());
    }
    for to in target_of {
        *to = position[(*to & !FIRST) as usize] | (*to & FIRST);
    }
    keys
}

/// A measure as the fold carries it: `[base, slope]`. Every measure of
/// a unit spans the unit's window, so the interval is left out.
type Pair = [f64; 2];

/// The measure of a replayed row of a unit over `window`.
fn isb_of(window: (i64, i64), [base, slope]: Pair) -> Isb {
    Isb::new(window.0, window.1, base, slope).expect("a unit's window is an interval")
}

/// Folds `source` rows into the target `rows` by a plan's `target_of`
/// map, in source order: a [`FIRST`]-flagged row is copied, as its
/// first arrival opens the target, and every other is added to its
/// target with the two adds of [`merge_sibling`], in its operand order.
/// It is Algorithm 1's only measure fold.
///
/// [`merge_sibling`]: crate::measure::merge_sibling
fn fold_pairs(source: impl Iterator<Item = Pair>, target_of: &[u32], rows: &mut [Pair]) {
    for (pair, &to) in source.zip(target_of) {
        let row = &mut rows[(to & !FIRST) as usize];
        if to & FIRST != 0 {
            *row = pair;
        } else {
            row[0] += pair[0];
            row[1] += pair[1];
        }
    }
}

/// `table` — a critical layer laid out by the replayed plan — holding
/// `rows` in iteration order instead of its own values: same buckets,
/// so the same iteration order.
fn overwrite(mut table: CuboidTable, window: (i64, i64), rows: &[Pair]) -> CuboidTable {
    debug_assert_eq!(table.len(), rows.len());
    for (slot, &pair) in table.values_mut().zip(rows) {
        *slot = isb_of(window, pair);
    }
    table
}

/// The result a replay writes into: the spare, held by nothing but the
/// replay.
fn unshared(result: &mut Arc<CubeResult>) -> &mut CubeResult {
    Arc::get_mut(result).expect("a recycled result is held by the engine alone")
}

/// A critical-layer table keyed as the plan's build keyed it, holding
/// `rows` (in that table's iteration order). Walking `target_of` in
/// source order, each [`FIRST`]-flagged entry inserts its row's key
/// from `keys` (the table's, `dims` ids a row): the build's inserts, in
/// its first-arrival order. The build pre-sizes no table, so the same
/// inserts into an empty table grow the same buckets and give the same
/// iteration order — a hash map's iteration order follows from its keys
/// and their insert sequence, not from its value type.
fn rebuild(
    target_of: &[u32],
    keys: &[u32],
    dims: usize,
    window: (i64, i64),
    rows: &[Pair],
) -> CuboidTable {
    let mut out = CuboidTable::default();
    for &to in target_of {
        if to & FIRST != 0 {
            let row = (to & !FIRST) as usize;
            let key = CellKey::new(&keys[row * dims..(row + 1) * dims]);
            out.insert(key, isb_of(window, rows[row]));
        }
    }
    out
}

impl CubingEngine for MoCubingEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MoCubing
    }

    /// One unit: validate, compute the unit beside the held one — folded
    /// by its key sequence's resident plan, or by one it builds — diff
    /// the two, commit.
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        if tuples.len() >= FIRST as usize {
            return Err(CoreError::BadInput {
                detail: format!(
                    "a unit of {} tuples: a roll-up plan indexes fewer than {FIRST}",
                    tuples.len()
                ),
            });
        }
        let window = next_window(self.window, tuples)?;
        let started = Instant::now();
        let hash = sequence_hash(tuples);
        let lookup = self.shapes.lookup(hash, tuples);
        let replayed = matches!(lookup, Lookup::Replay(_));
        let mut recycled = false;
        let mut pairs = std::mem::take(&mut self.pairs);
        let (result, kept) = match lookup {
            Lookup::Replay(plan) => {
                // A snapshot still being read keeps the spare out of
                // reach.
                let spare = self.spare.take().and_then(|(laid_out_by, mut result)| {
                    (laid_out_by == plan.id && Arc::get_mut(&mut result).is_some())
                        .then_some(result)
                });
                recycled = spare.is_some();
                let result = self.replay_unit(started, plan, spare, tuples, &mut pairs);
                (result, None)
            }
            // Any other unit builds its plan and folds by it; the cache
            // keeps the plan only on its sequence's second sight.
            lookup => {
                let plan = RollUpPlan::build(&self.schema, &self.schedule, tuples);
                let result = self.replay_unit(started, &plan, None, tuples, &mut pairs);
                (result, matches!(lookup, Lookup::Capture).then_some(plan))
            }
        };
        self.pairs = pairs;
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
        let retiring = std::mem::replace(&mut self.result, result);
        let laid_out_by = self.shapes.held;
        // The shapes follow the committed unit only.
        self.shapes.commit(hash, replayed, kept);
        // Only a replay of the held shape writes into the spare, so only
        // a result of the held plan is kept: a rotation keeps none.
        let held = self.shapes.held;
        self.spare = laid_out_by
            .filter(|_| laid_out_by == held)
            .map(|plan| (plan, retiring));
        self.units_replayed += u64::from(replayed);
        self.units_recycled += u64::from(recycled);
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

    fn units_recycled(&self) -> u64 {
        self.units_recycled
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

    /// The counters, bytes included, as literals: `peak_bytes` and
    /// `retained_bytes` are the analytical bytes of the tables a unit
    /// folds and keeps (`table_bytes`), each tier counted until the next
    /// is built.
    #[test]
    fn all_cuboids_are_computed_and_counted() {
        let (schema, layers) = small_setup();
        // (policy, exception cells, cells retained, peak, retained bytes).
        let cases = [
            (ExceptionPolicy::never(), 0, 16 + 1, 5016, 2052),
            (ExceptionPolicy::always(), 32, 49, 8208, 5700),
        ];
        for (policy, exceptions, retained, peak_bytes, retained_bytes) in cases {
            let cube = compute(&schema, &layers, &policy, &dense_tuples()).unwrap();
            let stats = cube.stats();
            // Lattice: 3 x 3 = 9 cuboids.
            assert_eq!(stats.cuboids_computed, 9);
            // Cells: m (16) + (L2,L1) 8 + (L1,L2) 8 + (L2,*) 4 + (*,L2) 4 +
            // (L1,L1) 4 + (L1,*) 2 + (*,L1) 2 + apex 1 = 49.
            assert_eq!(stats.cells_computed, 49);
            // Rows: 16 tuples into the m-layer, then each step's source
            // rows, tier by tier: two steps from m, three from 8-cell
            // tables, two from 4-cell tables and the apex from a 2-cell
            // one.
            assert_eq!(
                stats.rows_folded,
                16 + (16 + 16) + (8 + 8 + 8) + (4 + 4) + 2
            );
            assert_eq!(cube.total_exception_cells(), exceptions);
            assert_eq!(stats.cells_retained, retained);
            assert_eq!(stats.peak_bytes, peak_bytes);
            assert_eq!(stats.retained_bytes, retained_bytes);
        }
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
