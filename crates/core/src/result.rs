//! The output of a cube computation, shared by both algorithms.

use crate::exception::ExceptionPolicy;
use crate::layers::CriticalLayers;
use crate::stats::RunStats;
use crate::table::CuboidTable;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::CuboidSpec;
use regcube_regress::Isb;

/// Which algorithm produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1: m/o-cubing (all cells computed, exceptions retained).
    MoCubing,
    /// Algorithm 2: popular-path cubing (path + drilled exceptions).
    PopularPath,
}

/// A materialized regression cube per Framework 4.1: both critical layers
/// in full, exception cells in between, plus (for popular-path) the full
/// tables along the drilling path.
#[derive(Debug, Clone)]
pub struct CubeResult {
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    algorithm: Algorithm,
    m_table: CuboidTable,
    o_table: CuboidTable,
    /// Exception cells per strictly-between cuboid.
    exceptions: FxHashMap<CuboidSpec, CuboidTable>,
    /// Full tables retained along the popular path (empty for m/o-cubing).
    path_tables: FxHashMap<CuboidSpec, CuboidTable>,
    stats: RunStats,
}

impl CubeResult {
    /// Assembles a result (used by the algorithm modules).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        algorithm: Algorithm,
        m_table: CuboidTable,
        o_table: CuboidTable,
        exceptions: FxHashMap<CuboidSpec, CuboidTable>,
        path_tables: FxHashMap<CuboidSpec, CuboidTable>,
        stats: RunStats,
    ) -> Self {
        CubeResult {
            layers,
            policy,
            algorithm,
            m_table,
            o_table,
            exceptions,
            path_tables,
            stats,
        }
    }

    /// Takes the critical-layer tables out, leaving empty ones behind: a
    /// replay that recycles this result overwrites them in place and
    /// hands them back through [`replace_unit`](Self::replace_unit).
    pub(crate) fn take_critical(&mut self) -> (CuboidTable, CuboidTable) {
        (
            std::mem::take(&mut self.m_table),
            std::mem::take(&mut self.o_table),
        )
    }

    /// Makes this the result of another unit of the same engine: its
    /// critical tables, exception stores, path tables and statistics.
    /// The layers, policy and algorithm are the engine's and stay.
    pub(crate) fn replace_unit(
        &mut self,
        m_table: CuboidTable,
        o_table: CuboidTable,
        exceptions: FxHashMap<CuboidSpec, CuboidTable>,
        path_tables: FxHashMap<CuboidSpec, CuboidTable>,
        stats: RunStats,
    ) {
        self.m_table = m_table;
        self.o_table = o_table;
        self.exceptions = exceptions;
        self.path_tables = path_tables;
        self.stats = stats;
    }

    /// The critical layers the cube was computed for.
    #[inline]
    pub fn layers(&self) -> &CriticalLayers {
        &self.layers
    }

    /// The exception policy in force.
    #[inline]
    pub fn policy(&self) -> &ExceptionPolicy {
        &self.policy
    }

    /// Which algorithm produced this result.
    #[inline]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The full m-layer table.
    #[inline]
    pub fn m_table(&self) -> &CuboidTable {
        &self.m_table
    }

    /// The full o-layer table.
    #[inline]
    pub fn o_table(&self) -> &CuboidTable {
        &self.o_table
    }

    /// Number of m-layer cells.
    pub fn m_layer_cells(&self) -> usize {
        self.m_table.len()
    }

    /// Number of o-layer cells.
    pub fn o_layer_cells(&self) -> usize {
        self.o_table.len()
    }

    /// Retained exception cells of one strictly-between cuboid, if any.
    pub fn exceptions_in(&self, cuboid: &CuboidSpec) -> Option<&CuboidTable> {
        self.exceptions_at(cuboid.levels())
    }

    /// [`exceptions_in`](Self::exceptions_in) the cuboid with these
    /// levels, for callers that hold them in a buffer.
    pub(crate) fn exceptions_at(&self, levels: &[u8]) -> Option<&CuboidTable> {
        self.exceptions.get(levels)
    }

    /// Iterates `(cuboid, table)` over the exception stores between the
    /// layers.
    pub(crate) fn exception_tables(&self) -> impl Iterator<Item = (&CuboidSpec, &CuboidTable)> {
        self.exceptions.iter()
    }

    /// Iterates `(cuboid, key, measure)` over all retained exception cells
    /// between the layers.
    pub fn iter_exceptions(&self) -> impl Iterator<Item = (&CuboidSpec, &CellKey, &Isb)> {
        self.exception_tables()
            .flat_map(|(c, table)| table.iter().map(move |(k, m)| (c, k, m)))
    }

    /// Total retained exception cells between the layers.
    pub fn total_exception_cells(&self) -> u64 {
        self.exceptions.values().map(|t| t.len() as u64).sum()
    }

    /// Full tables retained along the popular path (empty for m/o-cubing).
    pub fn path_tables(&self) -> &FxHashMap<CuboidSpec, CuboidTable> {
        &self.path_tables
    }

    /// Looks a cell up in everything the cube retained: critical layers,
    /// path tables, then exception stores.
    pub fn get(&self, cuboid: &CuboidSpec, key: &CellKey) -> Option<&Isb> {
        self.tables_of(cuboid).get(key)
    }

    /// What the cube retained of one cuboid, found once for any number
    /// of [`get`](Self::get)-equivalent lookups in it.
    pub(crate) fn tables_of(&self, cuboid: &CuboidSpec) -> CuboidCells<'_> {
        if cuboid == self.layers.m_layer() {
            return CuboidCells([Some(&self.m_table), None]);
        }
        if cuboid == self.layers.o_layer() {
            return CuboidCells([Some(&self.o_table), None]);
        }
        CuboidCells([self.path_tables.get(cuboid), self.exceptions.get(cuboid)])
    }

    /// Run statistics.
    #[inline]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// O-layer cells that pass the exception policy — the analyst's alarm
    /// list, the starting points of exception-guided drilling.
    pub fn exceptional_o_cells(&self) -> Vec<(&CellKey, &Isb)> {
        let threshold = self.policy.threshold_for(self.layers.o_layer());
        let mut cells: Vec<(&CellKey, &Isb)> = self
            .o_table
            .iter()
            .filter(|(_, m)| ExceptionPolicy::is_exception_at(threshold, m))
            .collect();
        cells.sort_by(|a, b| {
            crate::measure::exception_score(b.1)
                .partial_cmp(&crate::measure::exception_score(a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        cells
    }
}

/// The tables a [`CubeResult`] retains of one cuboid, in the order
/// [`CubeResult::get`] reads them.
pub(crate) struct CuboidCells<'a>([Option<&'a CuboidTable>; 2]);

impl<'a> CuboidCells<'a> {
    /// The cell's measure: what [`CubeResult::get`] returns for it.
    pub(crate) fn get(&self, key: &CellKey) -> Option<&'a Isb> {
        self.0.iter().flatten().find_map(|table| table.get(key))
    }
}
