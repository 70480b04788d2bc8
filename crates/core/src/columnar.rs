//! The columnar regression-table backend: struct-of-arrays cuboid
//! tables and a [`CubingEngine`] that rolls the cube up over them.
//!
//! # Why a second layout
//!
//! The cube roll-up spends nearly all of its time in the group-by-
//! projection aggregation ([`crate::table::aggregate_into`], Theorem
//! 3.2 compression of ISB aggregates tier to tier). The row layout pays
//! a hash probe, a key allocation and a scattered heap write per source
//! row; for a pass that touches *every* cell of a table that is the
//! textbook case for a struct-of-arrays layout. A [`ColumnarTable`]
//! stores one cuboid as:
//!
//! * a **sorted dense cell-id index** (`Vec<u64>`, one mixed-radix id
//!   per cell — ascending id order is exactly ascending key order), and
//! * **one vector per ISB component** (`t_b`/`t_e` interval bounds,
//!   base, slope), parallel to the index.
//!
//! Merging a row is an append to the staged tail (no per-row
//! allocation, no hashing); [`finish`](TableStorage::finish) compacts
//! the stage with one sort + two-run merge. Both layouts implement
//! [`TableStorage`], so the merge/exception code path is shared with
//! the row backend — byte layout is the *only* difference.
//!
//! # The engine
//!
//! [`ColumnarCubingEngine`] is Algorithm 1 (m/o-cubing) with the tier
//! roll-up running entirely over columnar tables; the retained result
//! (critical layers + exception stores) is materialized in the row
//! layout so every consumer — [`crate::shard::ShardedEngine`], the
//! stream engine, alarms, drilling — composes unchanged. It follows the
//! transient memory model (each tier is dropped as soon as the next is
//! built), so retained memory matches the paper's model while the
//! working set is the compact columnar form.
//!
//! Select it per [`Backend`](crate::engine::Backend):
//!
//! ```
//! use regcube_core::engine::Backend;
//! assert_eq!(Backend::default(), Backend::Row);
//! assert_ne!(Backend::Columnar, Backend::Row);
//! ```
//!
//! or construct it directly:
//!
//! ```
//! use regcube_core::columnar::ColumnarCubingEngine;
//! use regcube_core::engine::CubingEngine;
//! use regcube_core::{CriticalLayers, ExceptionPolicy, MTuple};
//! use regcube_olap::{CubeSchema, CuboidSpec};
//! use regcube_regress::Isb;
//!
//! let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
//! let layers = CriticalLayers::new(
//!     &schema,
//!     CuboidSpec::new(vec![0, 0]),
//!     CuboidSpec::new(vec![2, 2]),
//! ).unwrap();
//! let mut engine = ColumnarCubingEngine::new(
//!     schema,
//!     layers,
//!     ExceptionPolicy::slope_threshold(0.5),
//! ).unwrap();
//! let tuples = vec![
//!     MTuple::new(vec![0, 0], Isb::new(0, 9, 1.0, 0.9).unwrap()),
//!     MTuple::new(vec![3, 2], Isb::new(0, 9, 1.0, 0.1).unwrap()),
//! ];
//! let delta = engine.ingest_unit(&tuples).unwrap();
//! assert!(delta.opened_unit);
//! assert_eq!(engine.result().m_layer_cells(), 2);
//! ```

use crate::engine::{
    batch_window, depth_tiers, empty_result, exception_bytes, fold_tuples_into, CubingEngine,
    UnitDelta,
};
use crate::exception::ExceptionPolicy;
use crate::kernel::{self, FoldColumns, FoldOutput, KernelMode};
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, validate_tuples, MTuple};
use crate::result::{Algorithm, CubeResult};
use crate::stats::{MemoryAccountant, RunStats};
use crate::table::{
    aggregate_into, collect_exceptions, table_bytes, CuboidTable, Projector, TableStorage,
};

pub use crate::table::DenseCellCodec;
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::fxhash::{FxHashMap, FxHashSet};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// ColumnarTable
// ---------------------------------------------------------------------------

/// Struct-of-arrays cell store of one cuboid (see the module docs).
///
/// Rows merged in via [`TableStorage::merge_row`] land in a staged tail;
/// [`TableStorage::finish`] sorts the stage, folds duplicate ids
/// left-to-right in arrival order (the same order the row layout merges
/// collisions) and two-run-merges it with the compacted region. Reads
/// ([`get`](Self::get), iteration) address the compacted region only.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    /// Dense mixed-radix cell-id codec (shared with the kernel layer):
    /// ascending id order is ascending key order.
    codec: DenseCellCodec,
    /// Sorted dense cell ids; rows `compacted..` are the staged tail.
    index: Vec<u64>,
    /// ISB component columns, parallel to `index`.
    starts: Vec<i64>,
    ends: Vec<i64>,
    bases: Vec<f64>,
    slopes: Vec<f64>,
    /// Length of the sorted, duplicate-free prefix.
    compacted: usize,
    /// Which implementation [`TableStorage::finish`] runs (see
    /// [`crate::kernel`]).
    kernel: KernelMode,
}

impl ColumnarTable {
    /// Creates an empty table for one cuboid of `schema`, running the
    /// chunked kernels ([`KernelMode::Auto`]).
    ///
    /// # Errors
    /// [`CoreError::BadInput`](crate::CoreError::BadInput) when the cuboid's cell space does not fit
    /// a dense 64-bit id (astronomical cardinalities only).
    pub fn new(schema: &CubeSchema, cuboid: &CuboidSpec) -> Result<Self> {
        Ok(ColumnarTable {
            codec: DenseCellCodec::new(schema, cuboid)?,
            index: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            bases: Vec::new(),
            slopes: Vec::new(),
            compacted: 0,
            kernel: KernelMode::Auto,
        })
    }

    /// Selects which implementation the table's compaction runs
    /// (builder form; see [`crate::kernel::KernelMode`]).
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// The table's dense cell-id codec.
    #[inline]
    pub fn codec(&self) -> &DenseCellCodec {
        &self.codec
    }

    /// The dense cell id of a key (mixed-radix over the cuboid levels).
    #[inline]
    fn encode(&self, ids: &[u32]) -> u64 {
        self.codec.encode(ids)
    }

    /// Decodes a dense cell id into per-dimension member ids.
    #[inline]
    fn decode_into(&self, id: u64, out: &mut [u32]) {
        self.codec.decode_into(id, out)
    }

    /// The stored measure of row `i`.
    #[inline]
    fn isb_at(&self, i: usize) -> Isb {
        Isb::new(self.starts[i], self.ends[i], self.bases[i], self.slopes[i])
            .expect("stored rows are valid ISBs")
    }

    fn push_row(&mut self, id: u64, isb: &Isb) {
        self.index.push(id);
        self.starts.push(isb.start());
        self.ends.push(isb.end());
        self.bases.push(isb.base());
        self.slopes.push(isb.slope());
    }

    /// The measure of the cell at `ids`, if materialized (compacted
    /// region only — [`TableStorage::finish`] first).
    pub fn get(&self, ids: &[u32]) -> Option<Isb> {
        debug_assert_eq!(self.compacted, self.index.len(), "finish() before reads");
        let id = self.encode(ids);
        self.index[..self.compacted]
            .binary_search(&id)
            .ok()
            .map(|i| self.isb_at(i))
    }

    /// Materializes the table in the row layout (for the retained
    /// [`CubeResult`] every downstream consumer reads).
    pub fn to_row_table(&self) -> CuboidTable {
        let mut out = CuboidTable::with_capacity_and_hasher(self.compacted, Default::default());
        let mut ids = vec![0u32; self.codec.num_dims()];
        for i in 0..self.compacted {
            self.decode_into(self.index[i], &mut ids);
            out.insert(CellKey::new(ids.clone()), self.isb_at(i));
        }
        out
    }

    /// Compacts the staged tail: stable-sort by id (duplicates keep
    /// arrival order), fold duplicates left-to-right, merge with the
    /// compacted run. Returns `true` when the kernel path ran (the
    /// dispatch-counter attribution the engine reports).
    fn compact(&mut self) -> Result<bool> {
        if self.compacted == self.index.len() {
            // Nothing staged: every merged row hit the compacted region
            // in place (scalar per-row merges), so no kernel ran.
            return Ok(false);
        }
        if self.kernel.use_kernel() && self.index.len() - self.compacted <= u32::MAX as usize {
            self.compact_kernel()?;
            return Ok(true);
        }
        self.compact_scalar()?;
        Ok(false)
    }

    /// The scalar compaction (the kernel layer's fallback): row-at-a-
    /// time via [`Isb`] round trips, the pre-kernel code path.
    fn compact_scalar(&mut self) -> Result<()> {
        let mut staged: Vec<(u64, Isb)> = (self.compacted..self.index.len())
            .map(|i| (self.index[i], self.isb_at(i)))
            .collect();
        self.truncate_to_compacted();
        staged.sort_by_key(|&(id, _)| id); // stable: arrival order on ties
        let mut merged: Vec<(u64, Isb)> = Vec::with_capacity(staged.len());
        for (id, isb) in staged {
            match merged.last_mut() {
                Some((last, acc)) if *last == id => merge_sibling(acc, &isb)?,
                _ => merged.push((id, isb)),
            }
        }

        if self.compacted == 0 {
            for (id, isb) in merged {
                self.push_row(id, &isb);
            }
        } else {
            let old = std::mem::replace(self, ColumnarTable::empty_like(self));
            self.reserve(old.compacted + merged.len());
            let mut staged = merged.into_iter().peekable();
            for i in 0..old.compacted {
                let id = old.index[i];
                let mut acc = old.isb_at(i);
                while staged.peek().is_some_and(|&(sid, _)| sid < id) {
                    let (sid, isb) = staged.next().expect("peeked");
                    self.push_row(sid, &isb);
                }
                if staged.peek().is_some_and(|&(sid, _)| sid == id) {
                    let (_, isb) = staged.next().expect("peeked");
                    merge_sibling(&mut acc, &isb)?;
                }
                self.push_row(id, &acc);
            }
            for (sid, isb) in staged {
                self.push_row(sid, &isb);
            }
        }
        self.compacted = self.index.len();
        Ok(())
    }

    /// Kernel compaction: the staged tail folds column-to-column (no
    /// per-row [`Isb`] round trips, no 40-byte sort entries — the sort
    /// permutes `(id, index)` pairs, and an already-sorted stage skips
    /// it entirely), then span-merges with the compacted run. Bit-exact
    /// with [`compact_scalar`](Self::compact_scalar): same stable
    /// order, same left-to-right sums, same mismatch errors.
    fn compact_kernel(&mut self) -> Result<()> {
        let split = self.compacted;
        let staged_ids = &self.index[split..];
        let staged = FoldColumns {
            ids: staged_ids,
            starts: &self.starts[split..],
            ends: &self.ends[split..],
            bases: &self.bases[split..],
            slopes: &self.slopes[split..],
        };
        let mut folded = FoldOutput::with_capacity(staged_ids.len());
        if kernel::is_nondecreasing_u64(staged_ids) {
            kernel::fold_sorted_runs(staged_ids, &staged, &mut folded)?;
        } else {
            let mut pairs: Vec<(u64, u32)> = staged_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i as u32))
                .collect();
            pairs.sort_by_key(|&(id, _)| id); // stable: arrival order on ties
            kernel::fold_permuted_runs(&pairs, &staged, &mut folded)?;
        }
        if split == 0 {
            self.index = folded.ids;
            self.starts = folded.starts;
            self.ends = folded.ends;
            self.bases = folded.bases;
            self.slopes = folded.slopes;
        } else {
            let compacted = FoldColumns {
                ids: &self.index[..split],
                starts: &self.starts[..split],
                ends: &self.ends[..split],
                bases: &self.bases[..split],
                slopes: &self.slopes[..split],
            };
            let folded_cols = FoldColumns {
                ids: &folded.ids,
                starts: &folded.starts,
                ends: &folded.ends,
                bases: &folded.bases,
                slopes: &folded.slopes,
            };
            let mut merged = FoldOutput::with_capacity(split + folded.ids.len());
            kernel::merge_two_runs(&compacted, &folded_cols, &mut merged)?;
            self.index = merged.ids;
            self.starts = merged.starts;
            self.ends = merged.ends;
            self.bases = merged.bases;
            self.slopes = merged.slopes;
        }
        self.compacted = self.index.len();
        Ok(())
    }

    /// An empty table with the same shape (codec) and kernel mode.
    fn empty_like(other: &ColumnarTable) -> Self {
        ColumnarTable {
            codec: other.codec.clone(),
            index: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            bases: Vec::new(),
            slopes: Vec::new(),
            compacted: 0,
            kernel: other.kernel,
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.starts.reserve(additional);
        self.ends.reserve(additional);
        self.bases.reserve(additional);
        self.slopes.reserve(additional);
    }

    fn truncate_to_compacted(&mut self) {
        self.index.truncate(self.compacted);
        self.starts.truncate(self.compacted);
        self.ends.truncate(self.compacted);
        self.bases.truncate(self.compacted);
        self.slopes.truncate(self.compacted);
    }

    /// [`TableStorage::finish`] that also reports which path compacted
    /// the stage: `true` for the kernel path, `false` for the scalar
    /// fallback — the engine feeds this into the
    /// [`RunStats::rows_folded_simd`](crate::stats::RunStats::rows_folded_simd)
    /// / `rows_folded_scalar` dispatch counters.
    ///
    /// # Errors
    /// Deferred merge failures from staged duplicate rows.
    pub fn finish_with_path(&mut self) -> Result<bool> {
        self.compact()
    }
}

impl TableStorage for ColumnarTable {
    fn len(&self) -> usize {
        debug_assert_eq!(self.compacted, self.index.len(), "finish() before reads");
        self.compacted
    }

    fn merge_row(&mut self, ids: &[u32], isb: &Isb) -> Result<()> {
        let id = self.encode(ids);
        // Hits in the compacted region merge in place; everything else —
        // including repeats of a staged id — lands on the staged tail and
        // is folded by `finish` in arrival order.
        if let Ok(i) = self.index[..self.compacted].binary_search(&id) {
            let mut acc = self.isb_at(i);
            merge_sibling(&mut acc, isb)?;
            self.starts[i] = acc.start();
            self.ends[i] = acc.end();
            self.bases[i] = acc.base();
            self.slopes[i] = acc.slope();
            return Ok(());
        }
        self.push_row(id, isb);
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.compact().map(|_| ())
    }

    fn try_for_each_cell<F: FnMut(&[u32], &Isb) -> Result<()>>(&self, mut f: F) -> Result<()> {
        debug_assert_eq!(self.compacted, self.index.len(), "finish() before reads");
        let mut ids = vec![0u32; self.codec.num_dims()];
        for i in 0..self.compacted {
            self.decode_into(self.index[i], &mut ids);
            let isb = self.isb_at(i);
            f(&ids, &isb)?;
        }
        Ok(())
    }

    fn approx_bytes(&self, _num_dims: usize) -> usize {
        // One u64 id + two i64 bounds + two f64 components per row; the
        // columns are dense vectors, so there is no container slack to
        // model beyond the vectors themselves.
        self.index.len()
            * (std::mem::size_of::<u64>()
                + 2 * std::mem::size_of::<i64>()
                + 2 * std::mem::size_of::<f64>())
    }
}

// ---------------------------------------------------------------------------
// Kernel-path aggregation and screening
// ---------------------------------------------------------------------------

/// Columnar→columnar group-by-projection on the kernel layer: the
/// source id column is pushed block-at-a-time through the fused
/// per-dimension ancestor LUTs
/// ([`Projector::block_projector`]), and the projected rows fold
/// column-to-column ([`crate::kernel::fold_sorted_runs`] /
/// [`fold_permuted_runs`](crate::kernel::fold_permuted_runs)) straight
/// into the target's compacted region — no staging, no per-row binary
/// search, no [`Isb`] round trips. Synthetic hierarchies project
/// monotonically, so the sortedness check usually skips the sort too.
///
/// Returns `Some(rows_folded)` when the kernel path ran, `None` when
/// it cannot apply (scalar-forced target, per-row hierarchy walks,
/// row counts beyond `u32`) — the caller falls back to the generic
/// [`aggregate_into`]. Bit-exact with that fallback by construction:
/// same stable fold order, same f64 add order, same mismatch errors.
///
/// # Errors
/// Measure merge failures (interval mismatches — impossible for tables
/// built from one validated tuple window).
fn aggregate_columnar_kernel(
    schema: &CubeSchema,
    source_cuboid: &CuboidSpec,
    source: &ColumnarTable,
    target_cuboid: &CuboidSpec,
    target: &mut ColumnarTable,
) -> Result<Option<u64>> {
    debug_assert_eq!(source.compacted, source.index.len(), "finish() the source");
    debug_assert!(
        target.index.is_empty(),
        "kernel aggregation fills a fresh table"
    );
    if !target.kernel.use_kernel() || source.compacted > u32::MAX as usize {
        return Ok(None);
    }
    let projector = Projector::new(schema, source_cuboid, target_cuboid);
    let Some(block) = projector.block_projector(source.codec(), target.codec()) else {
        return Ok(None);
    };
    let n = source.compacted;
    let mut projected = vec![0u64; n];
    block.project_into(&source.index[..n], &mut projected);

    let src = FoldColumns {
        ids: &source.index[..n],
        starts: &source.starts[..n],
        ends: &source.ends[..n],
        bases: &source.bases[..n],
        slopes: &source.slopes[..n],
    };
    let mut out = FoldOutput::with_capacity(n.min(1 << 20));
    if kernel::is_nondecreasing_u64(&projected) {
        kernel::fold_sorted_runs(&projected, &src, &mut out)?;
    } else {
        let mut pairs: Vec<(u64, u32)> = projected
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        pairs.sort_by_key(|&(id, _)| id); // stable: source order on ties
        kernel::fold_permuted_runs(&pairs, &src, &mut out)?;
    }
    target.index = out.ids;
    target.starts = out.starts;
    target.ends = out.ends;
    target.bases = out.bases;
    target.slopes = out.slopes;
    target.compacted = target.index.len();
    Ok(Some(n as u64))
}

/// The columnar exception screen: a chunked `|slope| >= threshold`
/// scan over the slope column ([`crate::kernel::screen_ge_abs`]), then
/// key decoding for the (sparse) hits only. Falls back to the generic
/// [`collect_exceptions`] on scalar-forced tables. Bit-exact with the
/// scalar screen: the same predicate per cell
/// ([`ExceptionPolicy::is_exception`] resolves to one threshold per
/// cuboid), with NaN scores never qualifying.
fn collect_exceptions_columnar(
    policy: &ExceptionPolicy,
    cuboid: &CuboidSpec,
    table: &ColumnarTable,
) -> CuboidTable {
    debug_assert_eq!(table.compacted, table.index.len(), "finish() before reads");
    if !table.kernel.use_kernel() || table.compacted > u32::MAX as usize {
        return collect_exceptions(policy, cuboid, table);
    }
    let threshold = policy.threshold_for(cuboid);
    let mut hits: Vec<u32> = Vec::new();
    kernel::screen_ge_abs(&table.slopes[..table.compacted], threshold, &mut hits);
    let mut exc = CuboidTable::with_capacity_and_hasher(hits.len(), Default::default());
    let mut ids = vec![0u32; table.codec.num_dims()];
    for &i in &hits {
        let i = i as usize;
        table.decode_into(table.index[i], &mut ids);
        exc.insert(CellKey::new(ids.clone()), table.isb_at(i));
    }
    exc
}

// ---------------------------------------------------------------------------
// ColumnarCubingEngine
// ---------------------------------------------------------------------------

/// Algorithm 1 (m/o-cubing) over the columnar layout — see the module
/// docs for the design and
/// [`Backend::Columnar`](crate::engine::Backend::Columnar) for the
/// configuration
/// seam.
///
/// Semantically this engine is a drop-in for a transient-mode
/// [`crate::MoCubingEngine`]: identical cube, exception set and
/// [`UnitDelta`] stream (the contract tests pin it, the golden suite
/// byte-for-byte). It keeps no between-layer tables across batches
/// ([`full_between_tables`](CubingEngine::full_between_tables) answers
/// `None`), so a [`crate::shard::ShardedEngine`] composes with it
/// through the always-retain fallback, exactly like the popular-path
/// engine.
#[derive(Debug, Clone)]
pub struct ColumnarCubingEngine {
    schema: Arc<CubeSchema>,
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    kernel: KernelMode,
    window: Option<(i64, i64)>,
    units_opened: u64,
    stats: RunStats,
    mem: MemoryAccountant,
    result: CubeResult,
}

impl ColumnarCubingEngine {
    /// Creates a columnar engine for the given layers and policy.
    ///
    /// # Errors
    /// [`CoreError::BadInput`](crate::CoreError::BadInput) when a cuboid of the lattice overflows
    /// the dense 64-bit cell-id space (see [`ColumnarTable::new`]).
    pub fn new(
        schema: CubeSchema,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
    ) -> Result<Self> {
        // Validate the whole lattice up front so `ingest_unit` cannot
        // fail mid-roll-up on an oversized cuboid.
        for cuboid in layers.lattice().bottom_up_order() {
            ColumnarTable::new(&schema, &cuboid)?;
        }
        let result = empty_result(&layers, &policy, Algorithm::MoCubing);
        Ok(ColumnarCubingEngine {
            schema: Arc::new(schema),
            layers,
            policy,
            kernel: KernelMode::Auto,
            window: None,
            units_opened: 0,
            stats: RunStats::default(),
            mem: MemoryAccountant::new(),
            result,
        })
    }

    /// Selects which implementation the engine's hot loops run — the
    /// chunked [`crate::kernel`] layer (`Auto`, the default) or the
    /// scalar fallback (`Scalar`). Both produce byte-identical cubes,
    /// exceptions and deltas (the kernel-parity suite pins it); the
    /// split is reported in
    /// [`RunStats::rows_folded_simd`](crate::stats::RunStats::rows_folded_simd)
    /// / `rows_folded_scalar`.
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// The configured kernel mode.
    #[inline]
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// The critical layers the engine cubes for.
    pub fn layers(&self) -> &CriticalLayers {
        &self.layers
    }

    /// A fresh columnar table for `cuboid`, carrying the engine's
    /// kernel mode.
    fn new_table(&self, cuboid: &CuboidSpec) -> Result<ColumnarTable> {
        Ok(ColumnarTable::new(&self.schema, cuboid)?.with_kernel_mode(self.kernel))
    }

    /// Attributes `rows` folded source rows to the kernel or scalar
    /// dispatch counter (keeping `rows_folded` equal to their sum).
    fn count_folded(&mut self, rows: u64, kernel_path: bool) {
        self.stats.rows_folded += rows;
        if kernel_path {
            self.stats.rows_folded_simd += rows;
        } else {
            self.stats.rows_folded_scalar += rows;
        }
    }

    /// Consumes the engine, returning the final cube result.
    pub fn into_result(self) -> CubeResult {
        self.result
    }

    /// Bottom-up tier roll-up over columnar tables. Each cuboid
    /// aggregates from its closest computed descendant (the previous
    /// tier); finished tiers are dropped as soon as the next no longer
    /// needs them (the transient memory model). Returns the o-layer
    /// table and the exception stores in the row layout.
    fn compute_uppers(
        &mut self,
        m_col: &ColumnarTable,
    ) -> Result<(CuboidTable, FxHashMap<CuboidSpec, CuboidTable>)> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let o_spec = self.layers.lattice().o_layer().clone();

        let mut o_table = CuboidTable::default();
        let mut exceptions: FxHashMap<CuboidSpec, CuboidTable> = FxHashMap::default();
        let mut cache: FxHashMap<CuboidSpec, ColumnarTable> = FxHashMap::default();
        for tier in depth_tiers(&self.layers) {
            let mut next_cache: FxHashMap<CuboidSpec, ColumnarTable> = FxHashMap::default();
            for cuboid in tier {
                let source_spec: Option<CuboidSpec> = self
                    .layers
                    .lattice()
                    .closest_computed_descendant(&cuboid, cache.keys())
                    .cloned();
                let mut table = self.new_table(&cuboid)?;
                let (source_table, src_spec): (&ColumnarTable, &CuboidSpec) = match &source_spec {
                    Some(spec) => (&cache[spec], spec),
                    None => (m_col, &m_spec),
                };
                // Block-projected kernel fold when the projector supports
                // it; the generic per-row fold otherwise. Both are
                // bit-exact; only the dispatch counter differs.
                let (rows, kernel_path) = match aggregate_columnar_kernel(
                    &self.schema,
                    src_spec,
                    source_table,
                    &cuboid,
                    &mut table,
                )? {
                    Some(rows) => (rows, true),
                    None => (
                        aggregate_into(
                            &self.schema,
                            src_spec,
                            source_table,
                            &cuboid,
                            &mut table,
                            None,
                        )?,
                        false,
                    ),
                };
                self.count_folded(rows, kernel_path);
                self.stats.cells_computed += table.len() as u64;
                self.stats.cuboids_computed += 1;
                self.mem.add(table.approx_bytes(dims));

                if cuboid == o_spec {
                    o_table = table.to_row_table();
                    self.mem.add(table_bytes(&o_table, dims));
                    self.mem.remove(table.approx_bytes(dims));
                    continue;
                }
                let exc = collect_exceptions_columnar(&self.policy, &cuboid, &table);
                if !exc.is_empty() {
                    self.mem.add(table_bytes(&exc, dims));
                    exceptions.insert(cuboid.clone(), exc);
                }
                next_cache.insert(cuboid, table);
            }
            for (_, table) in cache.drain() {
                self.mem.remove(table.approx_bytes(dims));
            }
            cache = next_cache;
        }
        for (_, table) in cache.drain() {
            self.mem.remove(table.approx_bytes(dims));
        }
        Ok((o_table, exceptions))
    }

    /// Full recomputation for a new unit window.
    fn open_unit(&mut self, tuples: &[MTuple]) -> Result<()> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        self.stats = RunStats::default();
        self.mem = MemoryAccountant::new();

        // Step 1: fold the batch into the columnar m-layer. Duplicate
        // m-cells merge in arrival order, like the H-tree scan.
        let mut m_col = self.new_table(&m_spec)?;
        for t in tuples {
            m_col.merge_row(t.ids(), t.isb())?;
        }
        let kernel_path = m_col.finish_with_path()?;
        self.mem.add(m_col.approx_bytes(dims));
        self.count_folded(tuples.len() as u64, kernel_path);
        self.stats.cells_computed += m_col.len() as u64;
        self.stats.cuboids_computed += 1;

        // Step 2: the rest of the lattice, columnar tier by tier.
        let (o_table, exceptions) = self.compute_uppers(&m_col)?;
        let m_table = m_col.to_row_table();
        self.mem.add(table_bytes(&m_table, dims));
        self.mem.remove(m_col.approx_bytes(dims));
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

    /// Same-window batch: fold into the retained row m-layer, rebuild
    /// the columnar working copy and recompute everything above it (the
    /// transient model keeps no between-layer tables to merge into).
    fn merge_batch(&mut self, tuples: &[MTuple], delta: &mut UnitDelta) -> Result<()> {
        let dims = self.schema.num_dims();
        let m_spec = self.layers.lattice().m_layer().clone();
        let mut m_table = std::mem::take(self.result.m_table_mut());

        let m_bytes = table_bytes(&m_table, dims);
        let (touched, created) =
            fold_tuples_into(&self.schema, &m_spec, &m_spec, &mut m_table, tuples)?;
        self.mem
            .add(table_bytes(&m_table, dims).saturating_sub(m_bytes));
        // Row-layout hash-map fold: always the scalar path.
        self.count_folded(tuples.len() as u64, false);
        self.stats.cells_computed += created;
        delta.cells_touched += touched.len() as u64;

        // Rebuild the columnar m-layer (identity projection through the
        // shared aggregation path) and recompute the lattice.
        let mut m_col = self.new_table(&m_spec)?;
        aggregate_into(&self.schema, &m_spec, &m_table, &m_spec, &mut m_col, None)?;
        self.mem.add(m_col.approx_bytes(dims));
        let (o_table, exceptions) = self.compute_uppers(&m_col)?;
        self.mem.remove(m_col.approx_bytes(dims));

        // The replaced o-table and exception stores die with the old
        // result; release their analytical bytes.
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
    /// exposed result (transient model: critical layers + exceptions).
    fn refresh_stats(&mut self) {
        let dims = self.schema.num_dims();
        let result = &self.result;
        self.stats.exception_cells = result.total_exception_cells();
        self.stats.cells_retained = result.m_layer_cells() as u64
            + result.o_layer_cells() as u64
            + self.stats.exception_cells;
        self.stats.retained_bytes = table_bytes(result.m_table(), dims)
            + table_bytes(result.o_table(), dims)
            + exception_bytes(result, dims);
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

impl CubingEngine for ColumnarCubingEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MoCubing
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
            // Commit the window only after a successful rollover (the
            // trait's "no half-open window" contract).
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
    use crate::{CoreError, MoCubingEngine};
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
    fn staged_rows_compact_sorted_and_deduplicated() {
        let (schema, _, _) = setup();
        let mut t = ColumnarTable::new(&schema, &CuboidSpec::new(vec![2, 2])).unwrap();
        t.merge_row(&[3, 1], &isb(0.3, 1.0)).unwrap();
        t.merge_row(&[0, 2], &isb(0.1, 1.0)).unwrap();
        t.merge_row(&[3, 1], &isb(0.2, 1.0)).unwrap();
        t.finish().unwrap();
        assert_eq!(TableStorage::len(&t), 2);
        let merged = t.get(&[3, 1]).unwrap();
        assert!((merged.slope() - 0.5).abs() < 1e-12, "duplicates folded");
        // Iteration is ascending key order.
        let mut seen = Vec::new();
        t.try_for_each_cell(|ids, _| {
            seen.push(ids.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![vec![0, 2], vec![3, 1]]);
    }

    #[test]
    fn incremental_merges_hit_the_compacted_region() {
        let (schema, _, _) = setup();
        let mut t = ColumnarTable::new(&schema, &CuboidSpec::new(vec![2, 2])).unwrap();
        t.merge_row(&[1, 1], &isb(0.1, 1.0)).unwrap();
        t.finish().unwrap();
        // In-place merge (compacted hit) plus a fresh staged row.
        t.merge_row(&[1, 1], &isb(0.2, 1.0)).unwrap();
        t.merge_row(&[2, 0], &isb(0.4, 1.0)).unwrap();
        t.finish().unwrap();
        assert_eq!(TableStorage::len(&t), 2);
        assert!((t.get(&[1, 1]).unwrap().slope() - 0.3).abs() < 1e-12);
        assert!((t.get(&[2, 0]).unwrap().slope() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn row_round_trip_preserves_every_cell() {
        let (schema, _, _) = setup();
        let cuboid = CuboidSpec::new(vec![2, 1]);
        let mut col = ColumnarTable::new(&schema, &cuboid).unwrap();
        let mut row = CuboidTable::default();
        for (ids, slope) in [([0u32, 0u32], 0.2), ([3, 1], -0.7), ([2, 1], 0.05)] {
            let m = isb(slope, 2.0);
            col.merge_row(&ids, &m).unwrap();
            row.merge_row(&ids, &m).unwrap();
        }
        col.finish().unwrap();
        tables_approx_eq("round-trip", &col.to_row_table(), &row);
    }

    #[test]
    fn oversized_cuboids_are_rejected_up_front() {
        // 6 dimensions with ~10^5 leaves each overflow u64 at the m-layer.
        let schema = CubeSchema::synthetic(6, 2, 2048).unwrap();
        let spec = CuboidSpec::new(vec![2; 6]);
        assert!(matches!(
            ColumnarTable::new(&schema, &spec),
            Err(CoreError::BadInput { .. })
        ));
    }

    #[test]
    fn columnar_engine_matches_row_engine_per_unit() {
        let (schema, layers, policy) = setup();
        let mut row =
            MoCubingEngine::transient(schema.clone(), layers.clone(), policy.clone()).unwrap();
        let mut col = ColumnarCubingEngine::new(schema, layers, policy).unwrap();
        let tuples = dense_tuples();
        // Unit 0 in two same-window chunks, then a rollover unit.
        for batch in [&tuples[..10], &tuples[10..]] {
            let dr = row.ingest_unit(batch).unwrap();
            let dc = col.ingest_unit(batch).unwrap();
            assert_eq!(dr.opened_unit, dc.opened_unit);
            assert_eq!(dr.appeared, dc.appeared);
            assert_eq!(dr.cleared, dc.cleared);
        }
        let next: Vec<MTuple> = (0..3u32)
            .map(|a| MTuple::new(vec![a, a], Isb::new(10, 19, 1.0, 0.9).unwrap()))
            .collect();
        let dr = row.ingest_unit(&next).unwrap();
        let dc = col.ingest_unit(&next).unwrap();
        assert!(dr.opened_unit && dc.opened_unit);
        assert_eq!(dr.unit, dc.unit);
        assert_eq!(dr.appeared, dc.appeared);
        assert_eq!(dr.cleared, dc.cleared);
        let (a, b) = (col.result(), row.result());
        tables_approx_eq("m", a.m_table(), b.m_table());
        tables_approx_eq("o", a.o_table(), b.o_table());
        assert_eq!(a.total_exception_cells(), b.total_exception_cells());
        assert_eq!(col.stats().cells_computed, row.stats().cells_computed);
        assert_eq!(col.stats().rows_folded, row.stats().rows_folded);
    }

    #[test]
    fn columnar_retains_fewer_working_bytes() {
        let (schema, layers, policy) = setup();
        let mut row =
            MoCubingEngine::transient(schema.clone(), layers.clone(), policy.clone()).unwrap();
        let mut col = ColumnarCubingEngine::new(schema, layers, policy).unwrap();
        row.ingest_unit(&dense_tuples()).unwrap();
        col.ingest_unit(&dense_tuples()).unwrap();
        assert!(
            col.stats().peak_bytes < row.stats().peak_bytes,
            "columnar peak {} must undercut row peak {}",
            col.stats().peak_bytes,
            row.stats().peak_bytes
        );
    }

    #[test]
    fn failed_rollover_does_not_poison_the_engine() {
        let (schema, layers, policy) = setup();
        let mut e = ColumnarCubingEngine::new(schema, layers, policy).unwrap();
        e.ingest_unit(&dense_tuples()).unwrap();
        let bad = vec![MTuple::new(vec![0], isb(0.1, 0.0))];
        assert!(e.ingest_unit(&bad).is_err());
        let next: Vec<MTuple> = (0..3u32)
            .map(|a| MTuple::new(vec![a, a], Isb::new(10, 19, 1.0, 0.2).unwrap()))
            .collect();
        let delta = e.ingest_unit(&next).unwrap();
        assert!(delta.opened_unit);
        assert_eq!(e.result().m_layer_cells(), 3);
    }

    #[test]
    fn empty_batches_are_rejected() {
        let (schema, layers, policy) = setup();
        let mut e = ColumnarCubingEngine::new(schema, layers, policy).unwrap();
        assert!(e.ingest_unit(&[]).is_err());
    }
}
