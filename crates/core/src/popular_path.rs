//! **Algorithm 2 — popular-path cubing**: roll the m-layer up to the
//! o-layer along one *popular drilling path*, keeping the full table of
//! every path cuboid; then drill from the o-layer downward, computing in
//! off-path cuboids **only the children of exception cells**, each
//! aggregated from the closest computed lower cuboid (a path cuboid).
//!
//! The paper stores the path's aggregates in the non-leaf nodes of an
//! H-tree built in the path's order. Here the path is a roll-up order of
//! its own, one cuboid above the other (`Schedule::path`), and
//! [`PopularPathEngine`] is Algorithm 1's per-unit engine
//! ([`PlanEngine`]) run along it: a unit folds by the roll-up plan of
//! its key sequence, kept from an earlier unit or built, and the path
//! tables are the plan's tables. A path table's iteration order, and so
//! every drilled fold, follows from the unit's key sequence alone. What
//! this module adds is the drill pass (`drill`) and its qualification
//! probe.
//!
//! Per the paper's footnote 7, this computes *fewer* exception cells than
//! Algorithm 1: only those reachable from the o-layer through a chain of
//! exceptional ancestors.
//!
//! What stays of a unit is the paper's memory model for Algorithm 2 —
//! the path cuboids and the exception cells. [`compute`] is the batch
//! wrapper that cubes one unit and returns the result.

use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::MTuple;
use crate::mo_cubing::PlanEngine;
use crate::plan::Schedule;
use crate::result::CubeResult;
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{aggregate_from, collect_exceptions, table_bytes, CuboidTable, Projector};
use crate::{CubingEngine, Result};
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::{CubeSchema, CuboidSpec, PopularPath};
use std::cell::RefCell;

/// The **exception frontiers** of one drill pass: per cuboid, the cells
/// that passed the exception policy — exactly the cells whose
/// descendants step 3 drills into. A cuboid without exceptional cells
/// has no entry.
type Frontiers = FxHashMap<CuboidSpec, FxHashSet<CellKey>>;

/// Algorithm 2 as a per-unit engine: the full tables along the popular
/// path (the paper's retained state) live in the exposed result, next
/// to the exception cells the drill found. Every unit folds the path
/// tables by its key sequence's plan, kept or built, drills its
/// exceptions and replaces the unit before it.
pub type PopularPathEngine = PlanEngine<true>;

impl PopularPathEngine {
    /// Creates an engine drilling along `path` (or the default
    /// dimension-order path when `None`).
    ///
    /// # Errors
    /// [`CoreError::Olap`](crate::CoreError::Olap) for a path that does
    /// not span the lattice.
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
        let schedule = Schedule::path(&layers, &path);
        Ok(Self::with_schedule(schema, layers, policy, schedule))
    }
}

/// Step 3: exception-guided drilling over every off-path cuboid,
/// aggregated from a unit's `path_tables` (the m- and o-layer's
/// included). Coarse-to-fine, so every cuboid's one-step-coarser
/// parents are screened first; an off-path cell is computed only when
/// at least one parent projection lies on that parent's exception
/// frontier. A drilled full table lives only until it is screened; its
/// work is added to `stats` and its bytes to `mem`. Returns the
/// exception stores of the strictly-between cuboids.
pub(crate) fn drill(
    schema: &CubeSchema,
    layers: &CriticalLayers,
    policy: &ExceptionPolicy,
    path_tables: &FxHashMap<CuboidSpec, CuboidTable>,
    stats: &mut RunStats,
    mem: &mut MemoryAccountant,
) -> FxHashMap<CuboidSpec, CuboidTable> {
    let dims = schema.num_dims();
    let lattice = layers.lattice();
    let mut top_down = lattice.bottom_up_order();
    top_down.reverse();

    let mut frontiers = Frontiers::default();
    let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
    for cuboid in top_down {
        // Nothing is finer than the m-layer: it has no frontier to drill
        // under and, as a critical layer, no exception store.
        if &cuboid == lattice.m_layer() {
            continue;
        }
        let exc = match path_tables.get(&cuboid) {
            Some(full) => collect_exceptions(policy, &cuboid, full),
            None => {
                let parents = lattice.parents(&cuboid);
                let Some(probe) = QualifyProbe::new(schema, &cuboid, &parents, &frontiers) else {
                    continue;
                };
                // The closest path table below the cuboid: ties break by
                // level vector, so the map's order does not matter.
                let source = lattice
                    .closest_computed_descendant(&cuboid, path_tables.keys())
                    .expect("the m-layer is on every path and below every cuboid");
                let qualifies = |ids: &[u32]| probe.qualifies(ids);
                let (full, rows) = aggregate_from(
                    schema,
                    source,
                    &path_tables[source],
                    &cuboid,
                    Some(&qualifies),
                )
                .expect("a unit's path tables hold measures of its one window");
                stats.rows_folded += rows;
                stats.cells_computed += full.len() as u64;
                stats.cuboids_computed += 1;
                let exc = collect_exceptions(policy, &cuboid, &full);
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
    exceptions
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
/// * [`CoreError::BadInput`](crate::CoreError::BadInput) for
///   structurally invalid tuples.
/// * [`CoreError::Olap`](crate::CoreError::Olap) for a path that does
///   not span the lattice.
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
    use crate::error::CoreError;
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
