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
//! [`PlanEngine`] is the per-unit engine of both algorithms: the
//! sequence validate → compute → diff → commit, the roll-up by kept
//! plans, the spare result and the statistics. [`MoCubingEngine`] runs
//! it along Algorithm 1's depth tiers and screens each step's rows into
//! exception stores; [`PopularPathEngine`] runs it along Algorithm 2's
//! popular path, keeps every path table whole and drills from them
//! ([`crate::popular_path`]). [`compute`] is the batch wrapper that
//! cubes one unit and returns its result.
//!
//! What an engine keeps of a unit is the paper's memory model —
//! critical layers + exception cells, and Algorithm 2's path tables —
//! and Algorithm 1's analytical memory counts each depth tier's full
//! tables until the next tier is built, like the original batch
//! algorithm.
//!
//! **One fold.** A unit is cubed in two passes: the first builds the
//! roll-up plan of its key sequence along the engine's schedule
//! (`plan.rs`), the second folds the unit's measures by it as
//! `(base, slope)` pairs, every table of the plan in one buffer the
//! engine reuses from unit to unit. An [`Isb`] is built only for a
//! retained cell. Algorithm 1's exception stores are filled in target
//! iteration order, screened on each pair's slope and keyed by the
//! plan's keys; Algorithm 2's path tables are rebuilt from them.
//!
//! **Recurring units.** In the paper's setting a fixed population of
//! streams reports every unit, and the stream layer hands each unit's
//! tuples over sorted by key, so key sequences recur — the same one
//! every unit, or a few in turn when the active streams rotate — and
//! only the measures change. A table's iteration order follows from its
//! keys and their insertion sequence, so the plan of one key sequence
//! is always the same. Either engine keeps the plans of up to
//! [`SHAPES`] recent key sequences, least recently used first. A unit
//! folds by the resident plan whose key sequence equals its own,
//! compared id by id; otherwise it builds its plan, and the engine keeps
//! that plan at once. The critical layers come out with the buckets of
//! tables built by inserting the plan's keys in first-arrival order,
//! whichever of two ways they are written: into the spare result of the
//! same plan, in place; otherwise as fresh tables into which those keys
//! are inserted in that order. Either way the values are rewritten in
//! iteration order. A unit that folds by a kept plan is therefore the
//! unit that builds its own, bit for bit — NaN payloads included, as
//! both run the one fold — and its statistics are too (but `elapsed`).
//!
//! **The spare result.** The held unit's plan is the most recently used
//! one. When a unit of that same plan replaces the held unit, the old
//! result, laid out by the plan, is kept as the spare; a unit of another
//! plan drops it, so a rotating population keeps none. A unit of the
//! held plan takes the spare if `Arc::get_mut` grants it — no snapshot
//! holds it any more — and writes itself into it: its m- and o-tables
//! are overwritten in place, and its exception stores, path tables and
//! statistics replaced. A result any reader holds is never written; a
//! unit that finds the spare held rebuilds. A serving layer that
//! publishes each unit's snapshot in place of the last one holds only
//! the held unit, so the spare — one unit back — is free. The spare is
//! not counted in the unit's statistics: `peak_bytes` and
//! `retained_bytes` stay the analytical bytes of one unit's tables, as a
//! unit that builds its plan counts them.
//!
//! [`Isb`]: regcube_regress::Isb
//! [`PopularPathEngine`]: crate::PopularPathEngine

use crate::engine::{next_window, CubingEngine, UnitDelta};
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{validate_tuples, MTuple};
use crate::plan::{isb_of, rebuild, slots, Pair, RollUpPlan, Schedule};
use crate::popular_path::drill;
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{table_bytes, CuboidTable};
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::{CubeSchema, CuboidSpec};
use std::sync::Arc;
use std::time::Instant;

/// The most roll-up plans one engine keeps (see the module docs).
///
/// A rotating population needs one plan per key sequence in its
/// rotation: the benchmark's `quiet_fleet` tenants cycle through 16. A
/// plan costs only the sequences that occur — its key sequence plus one
/// `u32` per tuple and per source row of every step, and every table's
/// keys — so room for twice that rotation costs a fixed population
/// nothing. The worst case is a population whose key sequence changes
/// every unit: the engine then holds `SHAPES` plans that are never
/// replayed, some 32 × 2 MB on the benchmark's `dense_cube` lattice. No
/// benchmark workload does this. A unit whose sequence has no resident
/// plan is compared against at most `SHAPES` plans, each comparison
/// stopping at the first differing id.
pub const SHAPES: usize = 32;

/// Algorithm 1 as a per-unit engine.
///
/// Every unit is computed bottom-up in depth tiers, each cuboid
/// aggregated from its closest computed descendant — exactly the
/// work-sharing of the batch algorithm — and replaces the unit before
/// it. Each tier's tables are counted out of the analytical memory once
/// the next tier is built, so the engine's peak is the batch
/// algorithm's and what it retains is the paper's: critical layers +
/// exception cells.
pub type MoCubingEngine = PlanEngine<false>;

/// The per-unit engine of both algorithms (see the module docs): it
/// folds every unit by a roll-up plan along its schedule — kept from an
/// earlier unit of the same key sequence, or built — and replaces the
/// unit before it. `DRILL` picks what a unit keeps between its critical
/// layers: the exception cells of every step ([`MoCubingEngine`]), or
/// every path table whole, drilled from afterwards
/// ([`PopularPathEngine`](crate::PopularPathEngine)).
#[derive(Debug, Clone)]
pub struct PlanEngine<const DRILL: bool> {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    /// The lattice's (or path's) roll-up order, shared by every unit.
    schedule: Arc<Schedule>,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Units folded by a kept roll-up plan rather than one they built.
    units_replayed: u64,
    /// The roll-up plans of recent units.
    shapes: ShapeCache,
    /// Units whose result was written into a retired one.
    units_recycled: u64,
    /// The fold buffer, reused from unit to unit: every table of a
    /// plan, slot after slot, as `(base, slope)` pairs.
    pairs: Vec<Pair>,
    /// Shared with every snapshot taken of the held unit.
    result: Arc<CubeResult>,
    /// The result the held one replaced, while its critical tables are
    /// laid out by the held unit's plan.
    spare: Option<Arc<CubeResult>>,
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
        let schedule = Schedule::new(&layers);
        Ok(Self::with_schedule(schema, layers, policy, schedule))
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
}

impl<const DRILL: bool> PlanEngine<DRILL> {
    const ALGORITHM: Algorithm = if DRILL {
        Algorithm::PopularPath
    } else {
        Algorithm::MoCubing
    };

    /// An engine that rolls every unit up along `schedule`, holding an
    /// empty result until its first unit.
    pub(crate) fn with_schedule(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        schedule: Schedule,
    ) -> Self {
        let result = CubeResult::new(
            layers.clone(),
            policy.clone(),
            Self::ALGORITHM,
            CuboidTable::default(),
            CuboidTable::default(),
            FxHashMap::default(),
            FxHashMap::default(),
            RunStats::default(),
        );
        PlanEngine {
            schema: Arc::new(schema),
            schedule: Arc::new(schedule),
            layers,
            policy,
            window: None,
            units_opened: 0,
            units_replayed: 0,
            units_recycled: 0,
            shapes: ShapeCache::default(),
            pairs: Vec::new(),
            result: Arc::new(result),
            spare: None,
        }
    }

    /// The critical layers the engine cubes for.
    pub fn layers(&self) -> &CriticalLayers {
        &self.layers
    }

    /// Consumes the engine, returning the final cube result: moved when
    /// the engine holds the only reference, copied when a snapshot
    /// still holds one.
    pub fn into_result(self) -> CubeResult {
        Arc::try_unwrap(self.result).unwrap_or_else(|shared| (*shared).clone())
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
    /// `pairs` (`fold_pairs`): no key is projected, and none is hashed
    /// but a kept cell's — an exception cell's, a path table's and,
    /// unless the `recycled` result is written, a critical-layer cell's
    /// — each read from the plan's keys. The critical layers get the
    /// buckets of the plan's build ([`overwrite`] or [`rebuild`]), and
    /// so do Algorithm 2's path tables, which it then [`drill`]s from;
    /// Algorithm 1's exception stores are filled in target iteration
    /// order. The result — statistics too, but `elapsed`, counted from
    /// `started` — is therefore the same whether the plan was built for
    /// this unit or kept from an earlier one. `tuples` are validated:
    /// they share one window.
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
        let mut stats = plan.counters(schedule);
        let mut mem = MemoryAccountant::default();
        // Every row is written by its target's first source row before
        // anything reads it, so the buffer is only ever grown.
        if pairs.len() < plan.pairs() {
            pairs.resize(plan.pairs(), [0.0; 2]);
        }
        let (mut spare_m, mut spare_o) = recycled
            .as_mut()
            .map(|result| unshared(result).take_critical())
            .unzip();
        let critical =
            |spare: Option<CuboidTable>, map: &[u32], keys: &[u32], rows: &[Pair]| match spare {
                Some(table) => overwrite(table, window, rows),
                None => rebuild(map, keys, dims, window, rows),
            };

        let mut tables = plan.tables(schedule, dims);
        let (m_of, m_keys) = tables.next().expect("a plan has the m-layer's slot");
        let m_rows = plan.fold(schedule, 0, m_of, tuples, pairs);
        mem.add(plan.bytes(0));
        let m_table = critical(spare_m.take(), m_of, m_keys, m_rows);
        // A lattice of one cuboid: the m-layer is the o-layer.
        let mut o_table = match schedule.o_slot() {
            0 => critical(spare_o.take(), m_of, m_keys, m_rows),
            _ => CuboidTable::default(),
        };
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut path_tables: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut previous = 0..0;
        for tier in &schedule.tiers {
            for (slot, (target_of, keys)) in slots(tier).zip(&mut tables) {
                let step = &schedule.steps[slot - 1];
                let rows = plan.fold(schedule, slot, target_of, tuples, pairs);
                mem.add(plan.bytes(slot));
                if step.o_layer {
                    o_table = critical(spare_o.take(), target_of, keys, rows);
                } else if DRILL {
                    let table = rebuild(target_of, keys, dims, window, rows);
                    path_tables.insert(step.cuboid.clone(), table);
                } else {
                    let exc = self.replay_exceptions(&step.cuboid, window, keys, rows);
                    if !exc.is_empty() {
                        mem.add(table_bytes(&exc, dims));
                        exceptions.insert(step.cuboid.clone(), exc);
                    }
                }
            }
            // The batch roll-up retires the tier before once this one is
            // built; Algorithm 2 keeps every path table.
            if !DRILL {
                mem.remove(previous.map(|slot| plan.bytes(slot)).sum());
                previous = slots(tier);
            }
        }
        if DRILL {
            // The m- and o-layer tables live in the path tables too: the
            // batch algorithm's result shape.
            for (slot, table) in [(0, &m_table), (schedule.o_slot(), &o_table)] {
                mem.add(table_bytes(table, dims));
                path_tables.insert(schedule.cuboid(slot).clone(), table.clone());
            }
            exceptions = drill(
                &self.schema,
                &self.layers,
                &self.policy,
                &path_tables,
                &mut stats,
                &mut mem,
            );
        }

        // What the unit retains: its critical layers (Algorithm 2's are
        // among its path tables) and exceptions.
        let retained = || {
            let critical = [&m_table, &o_table].into_iter().filter(|_| !DRILL);
            let kept = critical.chain(path_tables.values());
            kept.chain(exceptions.values())
        };
        stats.exception_cells = exceptions.values().map(|t| t.len() as u64).sum();
        stats.cells_retained = retained().map(|t| t.len() as u64).sum();
        stats.retained_bytes = retained().map(|t| table_bytes(t, dims)).sum();
        stats.peak_bytes = mem.peak();
        stats.elapsed = started.elapsed();
        match recycled {
            Some(mut result) => {
                unshared(&mut result).replace_unit(
                    m_table,
                    o_table,
                    exceptions,
                    path_tables,
                    stats,
                );
                result
            }
            None => Arc::new(CubeResult::new(
                self.layers.clone(),
                self.policy.clone(),
                Self::ALGORITHM,
                m_table,
                o_table,
                exceptions,
                path_tables,
                stats,
            )),
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
}

/// The roll-up plans of recent units: up to [`SHAPES`], least recently
/// used first, so the held unit's plan is the last.
///
/// `Ingestor::close_unit` emits a unit's tuples sorted by key, so a
/// population of streams that report in a fixed pattern hands the
/// engine a few key sequences over and over. The roll-up of one
/// sequence is the same every time it recurs — which rows fold into
/// which, in which order, and where each target row sits — and only
/// the measures differ.
#[derive(Debug, Clone, Default)]
struct ShapeCache {
    plans: Vec<Arc<RollUpPlan>>,
}

impl ShapeCache {
    /// The plan `tuples` fold by, made the most recently used: the
    /// resident plan of their key sequence, searched newest first, or
    /// the one `build` returns, kept at once. Whether it was resident
    /// comes with it.
    fn plan_of(
        &mut self,
        tuples: &[MTuple],
        build: impl FnOnce() -> RollUpPlan,
    ) -> (Arc<RollUpPlan>, bool) {
        let (plan, resident) = match self.plans.iter().rposition(|plan| plan.matches(tuples)) {
            Some(at) => (self.plans.remove(at), true),
            None => (Arc::new(build()), false),
        };
        self.plans.push(Arc::clone(&plan));
        if self.plans.len() > SHAPES {
            self.plans.remove(0);
        }
        (plan, resident)
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

impl<const DRILL: bool> CubingEngine for PlanEngine<DRILL> {
    fn algorithm(&self) -> Algorithm {
        Self::ALGORITHM
    }

    /// One unit: validate, compute the unit beside the held one — folded
    /// by its key sequence's resident plan, or by one it builds and keeps
    /// — diff the two, commit. Nothing after the plan's lookup fails, so
    /// the plans follow committed units only.
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        RollUpPlan::admit(tuples)?;
        let window = next_window(self.window, tuples)?;
        let started = Instant::now();
        let held = self.shapes.plans.last().cloned();
        let (plan, replayed) = self.shapes.plan_of(tuples, || {
            RollUpPlan::build(&self.schema, &self.schedule, tuples)
        });
        // Only a unit of the held plan keeps the spare, and writes into it
        // unless a snapshot still being read holds it.
        let repeats = held.is_some_and(|held| Arc::ptr_eq(&held, &plan));
        let spare = self
            .spare
            .take()
            .filter(|_| repeats)
            .and_then(|mut result| Arc::get_mut(&mut result).is_some().then_some(result));
        let recycled = spare.is_some();
        let mut pairs = std::mem::take(&mut self.pairs);
        let result = self.replay_unit(started, &plan, spare, tuples, &mut pairs);
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
        // The retired result is laid out by the held plan: it stays as
        // the spare only while units repeat that plan, so a rotation
        // keeps none.
        self.spare = repeats.then_some(retiring);
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
}
