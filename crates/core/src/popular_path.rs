//! **Algorithm 2 — popular-path cubing**: roll the m-layer up to the
//! o-layer along one *popular drilling path*, keeping the full table of
//! every path cuboid; then drill from the o-layer downward, computing in
//! off-path cuboids **only the children of exception cells**, each
//! aggregated from the closest computed lower cuboid (a path cuboid).
//!
//! The paper stores the path's aggregates in the non-leaf nodes of an
//! H-tree built in the path's order. Here the path is a roll-up order of
//! its own, one cuboid above the other, and a unit folds along it by the
//! roll-up plan Algorithm 1 folds by: the path tables are the plan's
//! tables. A path table's iteration order, and so every drilled fold,
//! follows from the unit's key sequence alone.
//!
//! Per the paper's footnote 7, this computes *fewer* exception cells than
//! Algorithm 1: only those reachable from the o-layer through a chain of
//! exceptional ancestors.
//!
//! [`PopularPathEngine`] is the algorithm as a per-unit
//! [`CubingEngine`]: every unit is one path roll-up and one drill pass,
//! and what stays of it is the paper's memory model for Algorithm 2 —
//! the path cuboids and the exception cells. [`compute`] is the batch
//! wrapper that cubes one unit and returns the result.

use crate::engine::{empty_result, next_window, unshare_result, CubingEngine, UnitDelta};
use crate::error::CoreError;
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{validate_tuples, MTuple};
use crate::plan::{rebuild, RollUpPlan, Schedule};
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{aggregate_from, collect_exceptions, table_bytes, CuboidTable, Projector};
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::{CubeSchema, CuboidSpec, PopularPath};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The **exception frontiers** of one drill pass: per cuboid, the cells
/// that passed the exception policy — exactly the cells whose
/// descendants step 3 drills into. A cuboid without exceptional cells
/// has no entry.
type Frontiers = FxHashMap<CuboidSpec, FxHashSet<CellKey>>;

/// Algorithm 2 as a per-unit engine: the full tables along the popular
/// path (the paper's retained state) live in the exposed result, next
/// to the exception cells the drill found. Every unit builds its path
/// plan, folds the path tables by it, drills its exceptions and replaces
/// the unit before it.
#[derive(Debug, Clone)]
pub struct PopularPathEngine {
    schema: CubeSchema,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    path: PopularPath,
    /// The path's roll-up order, shared by every unit.
    schedule: Arc<Schedule>,
    window: Option<(i64, i64)>,
    units_opened: u64,
    /// Shared with every snapshot taken of the held unit.
    result: Arc<CubeResult>,
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
            Some(p) => PopularPath::new(layers.lattice(), p.cuboids().to_vec())?,
            None => PopularPath::default_for(layers.lattice())?,
        };
        let result = empty_result(&layers, &policy, Algorithm::PopularPath);
        Ok(PopularPathEngine {
            schedule: Arc::new(Schedule::path(&layers, &path)),
            schema,
            layers,
            policy,
            path,
            window: None,
            units_opened: 0,
            result,
        })
    }

    /// The popular path the engine drills along.
    pub fn path(&self) -> &PopularPath {
        &self.path
    }

    /// Consumes the engine, returning the final cube result.
    pub fn into_result(self) -> CubeResult {
        unshare_result(self.result)
    }

    /// Computes one unit without touching the held one: the path
    /// rolled up by the unit's plan (steps 1 & 2 of the batch
    /// algorithm), then the drill pass (step 3), then the finished
    /// result with its statistics. `tuples` are validated: they share
    /// one window.
    fn open_unit(&self, tuples: &[MTuple]) -> Result<CubeResult> {
        let started = Instant::now();
        let dims = self.schema.num_dims();
        let lattice = self.layers.lattice();
        let window = tuples[0].isb().interval();
        let mut mem = MemoryAccountant::new();

        let schedule = &*self.schedule;
        let plan = RollUpPlan::build(&self.schema, schedule, tuples);
        let mut stats = plan.counters(schedule);
        let mut pairs = vec![[0.0; 2]; plan.pairs()];
        let mut path_tables: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        for (slot, (map, keys)) in plan.tables(schedule, dims).enumerate() {
            let rows = plan.fold(schedule, slot, map, tuples, &mut pairs);
            mem.add(plan.bytes(slot));
            let table = rebuild(map, keys, dims, window, rows);
            path_tables.insert(schedule.cuboid(slot).clone(), table);
        }
        let path_cells = stats.cells_computed;

        // The m- and o-layer tables live in the path tables too; expose
        // them as the critical layers (this duplication is the batch
        // algorithm's result shape).
        let m_table = path_tables[lattice.m_layer()].clone();
        mem.add(table_bytes(&m_table, dims));
        let o_table = path_tables[lattice.o_layer()].clone();
        mem.add(table_bytes(&o_table, dims));

        let exceptions = self.drill(&path_tables, &mut stats, &mut mem)?;

        stats.exception_cells = exceptions.values().map(|t| t.len() as u64).sum();
        stats.cells_retained = path_cells + stats.exception_cells;
        stats.retained_bytes = path_tables
            .values()
            .chain(exceptions.values())
            .map(|t| table_bytes(t, dims))
            .sum();
        stats.peak_bytes = mem.peak();
        stats.elapsed = started.elapsed();
        Ok(CubeResult::new(
            self.layers.clone(),
            self.policy.clone(),
            Algorithm::PopularPath,
            m_table,
            o_table,
            exceptions,
            path_tables,
            stats,
        ))
    }

    /// Step 3: exception-guided drilling over every off-path cuboid,
    /// aggregated from the path tables. Coarse-to-fine, so every
    /// cuboid's one-step-coarser parents are screened first; an
    /// off-path cell is computed only when at least one parent
    /// projection lies on that parent's exception frontier. A drilled
    /// full table lives only until it is screened. Returns the
    /// exception stores of the strictly-between cuboids.
    fn drill(
        &self,
        path_tables: &FxHashMap<CuboidSpec, CuboidTable>,
        stats: &mut RunStats,
        mem: &mut MemoryAccountant,
    ) -> Result<FxHashMap<CuboidSpec, CuboidTable>> {
        let dims = self.schema.num_dims();
        let lattice = self.layers.lattice();
        let mut top_down = lattice.bottom_up_order();
        top_down.reverse();

        let mut frontiers = Frontiers::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        for cuboid in top_down {
            // Nothing is finer than the m-layer: it has no frontier to
            // drill under and, as a critical layer, no exception store.
            if &cuboid == lattice.m_layer() {
                continue;
            }
            let exc = match path_tables.get(&cuboid) {
                Some(full) => collect_exceptions(&self.policy, &cuboid, full),
                None => {
                    let parents = lattice.parents(&cuboid);
                    let Some(probe) =
                        QualifyProbe::new(&self.schema, &cuboid, &parents, &frontiers)
                    else {
                        continue;
                    };
                    let (full, rows) = self.drill_cuboid(path_tables, &cuboid, &probe)?;
                    stats.rows_folded += rows;
                    stats.cells_computed += full.len() as u64;
                    stats.cuboids_computed += 1;
                    let exc = collect_exceptions(&self.policy, &cuboid, &full);
                    // The full table is dropped once screened; its
                    // high-water mark is the moment both exist.
                    let transient = table_bytes(&full, dims) + table_bytes(&exc, dims);
                    mem.add(transient);
                    mem.remove(transient);
                    exc
                }
            };
            if exc.is_empty() {
                continue;
            }
            frontiers.insert(cuboid.clone(), exc.keys().cloned().collect());
            if &cuboid != lattice.o_layer() {
                mem.add(table_bytes(&exc, dims));
                exceptions.insert(cuboid, exc);
            }
        }
        Ok(exceptions)
    }

    /// Drills one off-path cuboid from its closest path source, keeping
    /// the cells `probe` qualifies — the **single** drill-one-cuboid
    /// code path. Returns the computed full table and the source rows
    /// folded.
    fn drill_cuboid(
        &self,
        path_tables: &FxHashMap<CuboidSpec, CuboidTable>,
        cuboid: &CuboidSpec,
        probe: &QualifyProbe<'_>,
    ) -> Result<(CuboidTable, u64)> {
        let source = self
            .layers
            .lattice()
            .closest_computed_descendant(cuboid, self.path.cuboids().iter())
            .ok_or_else(|| CoreError::NotMaterialized {
                detail: format!("no path cuboid below {cuboid}"),
            })?;
        let qualifies = |ids: &[u32]| probe.qualifies(ids);
        aggregate_from(
            &self.schema,
            source,
            &path_tables[source],
            cuboid,
            Some(&qualifies),
        )
    }
}

/// Alloc-free drill qualification for one off-path cuboid: a target
/// cell qualifies when its projection into at least one parent cuboid
/// lands on that parent's exception frontier. Projections run through
/// the [`Projector`] LUTs into one reusable scratch buffer, and the
/// frontier probe is the `CellKey: Borrow<[u32]>` slice lookup — no
/// per-row key allocation anywhere on the drill path.
struct QualifyProbe<'a> {
    /// `(frontier, target → parent projector)` per parent with one.
    parents: Vec<(&'a FxHashSet<CellKey>, Projector<'a>)>,
    scratch: RefCell<Vec<u32>>,
}

impl<'a> QualifyProbe<'a> {
    /// The probe of `cuboid` against its parents' frontiers — `None`
    /// when no parent has one, the step-3 precondition for drilling a
    /// cuboid at all.
    fn new(
        schema: &'a CubeSchema,
        cuboid: &CuboidSpec,
        parent_specs: &[CuboidSpec],
        frontiers: &'a Frontiers,
    ) -> Option<Self> {
        let parents: Vec<_> = parent_specs
            .iter()
            .filter_map(|p| {
                frontiers
                    .get(p)
                    .map(|f| (f, Projector::new(schema, cuboid, p)))
            })
            .collect();
        (!parents.is_empty()).then(|| QualifyProbe {
            parents,
            scratch: RefCell::new(vec![0u32; schema.num_dims()]),
        })
    }

    /// Tests one target cell's coordinates against the parent frontiers.
    fn qualifies(&self, ids: &[u32]) -> bool {
        let mut scratch = self.scratch.borrow_mut();
        self.parents.iter().any(|(frontier, projector)| {
            projector.project_into(ids, &mut scratch);
            frontier.contains(&scratch[..])
        })
    }
}

impl CubingEngine for PopularPathEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::PopularPath
    }

    fn ingest_unit(&mut self, tuples: &[MTuple]) -> Result<UnitDelta> {
        validate_tuples(&self.schema, self.layers.lattice().m_layer(), tuples)?;
        RollUpPlan::admit(tuples)?;
        let window = next_window(self.window, tuples)?;
        let result = self.open_unit(tuples)?;
        // The held unit's exceptions that do not recur come back as
        // cleared (see `UnitDelta::cleared`).
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
        Ok(delta)
    }

    fn result(&self) -> &CubeResult {
        &self.result
    }

    fn shared_result(&self) -> Arc<CubeResult> {
        Arc::clone(&self.result)
    }

    fn stats(&self) -> &RunStats {
        self.result.stats()
    }
}

/// Runs Algorithm 2 with the given path (or the default dimension-order
/// path when `path` is `None`).
///
/// This is a thin batch wrapper over [`PopularPathEngine`]: it builds an
/// engine for the given layers and path, ingests `tuples` as one unit
/// and returns the engine's result (the m- and o-layer tables live in
/// the retained path tables too — the memory the paper attributes to
/// popular-path cubing).
///
/// # Errors
/// * [`CoreError::BadInput`] for structurally invalid tuples.
/// * [`CoreError::Olap`] for a path that does not span the lattice.
pub fn compute(
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    path: Option<&PopularPath>,
    tuples: &[MTuple],
) -> Result<CubeResult> {
    let mut engine = PopularPathEngine::new(
        schema.clone(),
        layers.clone(),
        policy.clone(),
        path.cloned(),
    )?;
    engine.ingest_unit(tuples)?;
    Ok(engine.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Algorithm;
    use crate::table::aggregate_from;
    use regcube_olap::cell::project_key;
    use regcube_regress::{Isb, TimeSeries};

    fn isb(slope: f64, base: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| base + slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

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
        let mut tuples = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                tuples.push(MTuple::new(vec![a, b], isb((a + b) as f64 / 10.0, 1.0)));
            }
        }
        tuples
    }

    #[test]
    fn path_tables_match_direct_aggregation() {
        let (schema, layers) = small_setup();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::never(),
            None,
            &dense_tuples(),
        )
        .unwrap();
        // Default path: (0,0) -> (1,0) -> (2,0) -> (2,1) -> (2,2).
        assert_eq!(cube.path_tables().len(), 5);
        for (cuboid, table) in cube.path_tables() {
            let (expected, _) =
                aggregate_from(&schema, layers.m_layer(), cube.m_table(), cuboid, None).unwrap();
            assert_eq!(table.len(), expected.len(), "cuboid {cuboid}");
            for (k, m) in table {
                assert!(
                    m.approx_eq(&expected[k], 1e-9),
                    "cuboid {cuboid} cell {k}: {m} vs {}",
                    expected[k]
                );
            }
        }
    }

    #[test]
    fn critical_layers_are_full() {
        let (schema, layers) = small_setup();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::slope_threshold(0.3),
            None,
            &dense_tuples(),
        )
        .unwrap();
        assert_eq!(cube.m_layer_cells(), 16);
        assert_eq!(cube.o_layer_cells(), 1);
        let apex = cube.o_table().get(&CellKey::new(vec![0, 0])).unwrap();
        assert!((apex.slope() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn drilled_exceptions_have_exception_ancestors() {
        let (schema, layers) = small_setup();
        let policy = ExceptionPolicy::slope_threshold(0.35);
        let cube = compute(&schema, &layers, &policy, None, &dense_tuples()).unwrap();
        // Every retained off-path exception must have at least one parent
        // (one-step coarser cell) that is an exception in the result.
        for (cuboid, key, _) in cube.iter_exceptions() {
            if cube.path_tables().contains_key(cuboid) {
                continue;
            }
            let parents = layers.lattice().parents(cuboid);
            let mut found = false;
            for p in &parents {
                let projected = CellKey::new(project_key(&schema, cuboid, key.ids(), p));
                let parent_measure = cube.get(p, &projected);
                if let Some(m) = parent_measure {
                    if policy.is_exception(p, m) {
                        found = true;
                        break;
                    }
                }
            }
            assert!(found, "exception {cuboid}{key} has no exception parent");
        }
    }

    #[test]
    fn never_policy_drills_nothing() {
        let (schema, layers) = small_setup();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::never(),
            None,
            &dense_tuples(),
        )
        .unwrap();
        assert_eq!(cube.total_exception_cells(), 0);
        // Only the 5 path cuboids are computed; nothing is drilled.
        assert_eq!(cube.stats().cuboids_computed, 5);
    }

    #[test]
    fn explicit_path_is_honored() {
        let (schema, layers) = small_setup();
        let path = PopularPath::from_drill_order(layers.lattice(), &[1, 1, 0, 0]).unwrap();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::never(),
            Some(&path),
            &dense_tuples(),
        )
        .unwrap();
        assert!(cube
            .path_tables()
            .contains_key(&CuboidSpec::new(vec![0, 2])));
        assert!(!cube
            .path_tables()
            .contains_key(&CuboidSpec::new(vec![2, 0])));
    }

    #[test]
    fn a_path_of_another_lattice_is_refused() {
        let (schema, layers) = small_setup();
        let other = CriticalLayers::new(
            &schema,
            CuboidSpec::new(vec![1, 1]),
            CuboidSpec::new(vec![2, 2]),
        )
        .unwrap();
        let path = PopularPath::default_for(other.lattice()).unwrap();
        let policy = ExceptionPolicy::never();
        let engine = PopularPathEngine::new(schema, layers, policy, Some(path));
        assert!(matches!(engine, Err(CoreError::Olap(_))));
    }

    #[test]
    fn stats_and_algorithm_tag() {
        let (schema, layers) = small_setup();
        let cube = compute(
            &schema,
            &layers,
            &ExceptionPolicy::always(),
            None,
            &dense_tuples(),
        )
        .unwrap();
        assert_eq!(cube.algorithm(), Algorithm::PopularPath);
        assert!(cube.stats().peak_bytes > 0);
        assert!(cube.stats().cells_computed >= 16);
        assert!(cube.stats().elapsed.as_nanos() > 0);
    }
}
