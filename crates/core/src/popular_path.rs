//! **Algorithm 2 — popular-path cubing**: roll the m-layer up to the
//! o-layer along one *popular drilling path*, storing the aggregated
//! regressions in the non-leaf nodes of a path-ordered H-tree; then drill
//! from the o-layer downward, computing in off-path cuboids **only the
//! children of exception cells**, each aggregated from the closest
//! computed lower cuboid (a path cuboid).
//!
//! Per the paper's footnote 7, this computes *fewer* exception cells than
//! Algorithm 1: only those reachable from the o-layer through a chain of
//! exceptional ancestors.
//!
//! [`PopularPathEngine`] is the algorithm as an incremental
//! [`CubingEngine`]; [`compute`] is the batch wrapper that ingests one
//! unit and returns the result.

use crate::engine::{
    batch_window, empty_result, exception_bytes, exception_cells, fold_tuples_into, unshare_result,
    CubingEngine, UnitDelta,
};
use crate::error::CoreError;
use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, validate_tuples, MTuple};
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{drill_aggregate, table_bytes, CuboidTable, Projector};
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::htree::{attrs_for_path, expand_tuple, HTree, NodeId};
use regcube_olap::{CubeSchema, CuboidSpec, PopularPath};
use regcube_regress::Isb;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The **exception frontier** of one cuboid: the set of its cells that
/// currently pass the exception policy — exactly the cells whose
/// descendants step 3 of Algorithm 2 drills into. The incremental drill
/// replay keeps one frontier per cuboid and re-aggregates an off-path
/// cuboid only when a parent frontier changed (or a batch touched its
/// qualifying region), so comparing frontiers — not whole tables — is
/// what bounds per-batch drilling work by the delta instead of the cube.
///
/// Probing is allocation-free: [`contains_ids`](Self::contains_ids)
/// accepts a plain projected id slice via the `CellKey: Borrow<[u32]>`
/// lookup, so the hot qualification path never boxes a key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frontier {
    cells: FxHashSet<CellKey>,
}

impl Frontier {
    /// Builds a frontier from an owned cell set.
    pub(crate) fn from_cells(cells: FxHashSet<CellKey>) -> Self {
        Frontier { cells }
    }

    /// Whether the cell with these (projected) member ids is on the
    /// frontier — the alloc-free probe of the drill qualification path.
    #[inline]
    pub fn contains_ids(&self, ids: &[u32]) -> bool {
        self.cells.contains(ids)
    }

    /// Whether `key`'s cell is on the frontier.
    #[inline]
    pub fn contains(&self, key: &CellKey) -> bool {
        self.cells.contains(key)
    }

    /// Number of frontier cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the frontier is empty (nothing to drill under).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates the frontier cells (hash order).
    pub fn iter(&self) -> impl Iterator<Item = &CellKey> {
        self.cells.iter()
    }

    /// Mutable access for the engine's per-cell re-screening.
    pub(crate) fn cells_mut(&mut self) -> &mut FxHashSet<CellKey> {
        &mut self.cells
    }
}

/// Retained state of the **frontier-dirty** incremental step-3 replay:
/// one [`Frontier`] per cuboid, the full drilled tables of every
/// off-path cuboid that had drill candidates, and the set of cuboids
/// whose frontier changed in the current batch (the dirt that propagates
/// down the lattice walk).
///
/// A [`PopularPathEngine`] rebuilds this state on every
/// unit rollover (full drill) and updates it in place for same-window
/// batches: path frontiers are re-screened only at the cells the batch
/// touched, and an off-path cuboid is re-aggregated only when a parent
/// frontier changed or the batch touched a cell of its qualifying
/// region — otherwise its retained table (and therefore its exception
/// store) is reused verbatim. The retained tables are byte-identical to
/// what a from-scratch step-3 replay would compute, because the drill
/// aggregation ([`crate::table::drill_aggregate`]) folds source cells
/// in a deterministic sorted order independent of when it runs.
#[derive(Debug, Clone, Default)]
pub struct DrillFrontier {
    /// Per-cuboid exception frontiers (path and off-path cuboids).
    pub(crate) frontiers: FxHashMap<CuboidSpec, Frontier>,
    /// Retained full drilled tables of off-path cuboids with candidates
    /// (an empty table still marks the cuboid as drilled).
    pub(crate) tables: FxHashMap<CuboidSpec, CuboidTable>,
    /// Cuboids whose frontier changed in the current batch.
    pub(crate) changed: FxHashSet<CuboidSpec>,
}

impl DrillFrontier {
    /// Forgets everything (unit rollover).
    pub(crate) fn clear(&mut self) {
        self.frontiers.clear();
        self.tables.clear();
        self.changed.clear();
    }

    /// The current exception frontier of `cuboid`, if one was recorded.
    pub fn frontier(&self, cuboid: &CuboidSpec) -> Option<&Frontier> {
        self.frontiers.get(cuboid)
    }

    /// Whether `cuboid`'s frontier changed in the current batch.
    pub fn frontier_changed(&self, cuboid: &CuboidSpec) -> bool {
        self.changed.contains(cuboid)
    }

    /// Number of off-path cuboids currently holding a drilled table.
    pub fn drilled_cuboids(&self) -> usize {
        self.tables.len()
    }

    /// Total cells across the retained drilled tables.
    pub fn drilled_cells(&self) -> u64 {
        self.tables.values().map(|t| t.len() as u64).sum()
    }

    /// The retained drilled table of one off-path cuboid.
    pub fn drilled_table(&self, cuboid: &CuboidSpec) -> Option<&CuboidTable> {
        self.tables.get(cuboid)
    }
}

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
    /// Shared with every snapshot taken of the open unit.
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
        unshare_result(self.result)
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
        extract_path_tables(
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
        self.result = Arc::new(CubeResult::new(
            self.layers.clone(),
            self.policy.clone(),
            Algorithm::PopularPath,
            m_table,
            o_table,
            FxHashMap::default(),
            path_tables,
            self.stats,
        ));
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
            let table = Arc::make_mut(&mut self.result)
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
                (&m_updates, Arc::make_mut(&mut self.result).m_table_mut())
            } else {
                (&o_updates, Arc::make_mut(&mut self.result).o_table_mut())
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
        let old = std::mem::replace(Arc::make_mut(&mut self.result).exceptions_mut(), exceptions);
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
        let exceptions = Arc::make_mut(&mut self.result).exceptions_mut();
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
        Arc::make_mut(&mut self.result).set_stats(self.stats);
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
        let before = exception_cells(&self.result);
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
        let after = exception_cells(&self.result);
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

    fn shared_result(&self) -> Arc<CubeResult> {
        Arc::clone(&self.result)
    }

    fn stats(&self) -> &RunStats {
        &self.stats
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

/// Extracts the cells materialized at the path depths of the rolled-up
/// H-tree into per-cuboid tables. A DFS tracks the value stack; at every
/// depth that corresponds to a path cuboid the node's aggregated payload
/// becomes one cell.
pub(crate) fn extract_path_tables(
    schema: &CubeSchema,
    tree: &HTree<Isb>,
    m_layer: &CuboidSpec,
    depth_of: &FxHashMap<usize, &CuboidSpec>,
    out: &mut FxHashMap<CuboidSpec, CuboidTable>,
) -> Result<()> {
    // Map each path cuboid to its key-building recipe: for each dimension
    // with level > 0, which attribute position in the order supplies it.
    let order = tree.order();
    let dims = m_layer.num_dims();
    let mut recipes: FxHashMap<usize, Vec<(usize, usize)>> = FxHashMap::default();
    for (&depth, cuboid) in depth_of {
        let mut recipe = Vec::new();
        for d in 0..dims {
            let level = cuboid.level(d);
            if level == 0 {
                continue;
            }
            let pos = order[..depth]
                .iter()
                .position(|a| a.dim == d && a.level == level)
                .ok_or_else(|| CoreError::BadInput {
                    detail: format!(
                        "path attribute order misses dim {d} level {level} by depth {depth}"
                    ),
                })?;
            recipe.push((d, pos));
        }
        recipes.insert(depth, recipe);
    }
    let _ = schema; // the recipes already encode the projection

    // Iterative DFS.
    let mut stack: Vec<(NodeId, usize)> = vec![(0, 0)];
    let mut values: Vec<u32> = Vec::with_capacity(tree.depth());
    // `values` mirrors the current root path; we manage it via depths.
    while let Some((node, depth)) = stack.pop() {
        values.truncate(depth.saturating_sub(1));
        if node != 0 {
            values.push(tree.node_value(node));
        }
        if let Some(cuboid) = depth_of.get(&depth) {
            if let Some(payload) = tree.payload(node) {
                let recipe = &recipes[&depth];
                let mut key = vec![0u32; dims];
                for &(d, pos) in recipe {
                    key[d] = values[pos];
                }
                out.get_mut(*cuboid)
                    .expect("table pre-created")
                    .insert(CellKey::new(key), *payload);
            }
        }
        for (_, child) in tree.children(node) {
            stack.push((child, depth + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Algorithm;
    use crate::table::aggregate_from;
    use regcube_olap::cell::project_key;
    use regcube_regress::TimeSeries;

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
