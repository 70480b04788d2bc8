//! The columnar regression-table layout: struct-of-arrays cuboid tables
//! for Algorithm 1's tier roll-up.
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
//! the stage with one sort + two-run merge.
//!
//! # Behind the seam
//!
//! [`crate::MoCubingEngine`] is Algorithm 1 for every layout; this
//! module is [`ColumnarTable`]'s [`TableStorage`] implementation — the
//! m-layer build, the block-projected kernel fold ([`crate::kernel`];
//! the generic per-row [`aggregate_into`] stands in, folding in the
//! same order, only where a hierarchy is resolved by per-row walks),
//! the chunked exception screen and the conversion to the row tables a
//! [`crate::CubeResult`] exposes, so
//! every consumer — the stream engine, alarms, drilling — composes
//! unchanged. Select it per engine with
//! [`Backend::Columnar`](crate::engine::Backend::Columnar):
//!
//! ```
//! use regcube_core::engine::{Backend, CubingEngine, MoCubingEngine};
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
//! let mut engine = MoCubingEngine::new(
//!     schema,
//!     layers,
//!     ExceptionPolicy::slope_threshold(0.5),
//! )
//! .unwrap()
//! .with_backend(Backend::Columnar)
//! .unwrap();
//! let tuples = vec![
//!     MTuple::new(vec![0, 0], Isb::new(0, 9, 1.0, 0.9).unwrap()),
//!     MTuple::new(vec![3, 2], Isb::new(0, 9, 1.0, 0.1).unwrap()),
//! ];
//! let delta = engine.ingest_unit(&tuples).unwrap();
//! assert_eq!(delta.unit, 0);
//! assert_eq!(engine.result().m_layer_cells(), 2);
//! ```

use crate::exception::ExceptionPolicy;
use crate::kernel::{self, FoldColumns, FoldOutput};
use crate::layers::CriticalLayers;
use crate::measure::{merge_sibling, MTuple};
use crate::stats::MemoryAccountant;
use crate::table::{aggregate_into, table_bytes, CuboidTable, Projector, TableStorage};

pub use crate::table::DenseCellCodec;
use crate::Result;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;

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
}

impl ColumnarTable {
    /// Creates an empty table for one cuboid of `schema`.
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
        })
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
    /// [`crate::CubeResult`] every downstream consumer reads).
    pub fn to_row_table(&self) -> CuboidTable {
        let mut out = CuboidTable::with_capacity_and_hasher(self.compacted, Default::default());
        let mut ids = vec![0u32; self.codec.num_dims()];
        for i in 0..self.compacted {
            self.decode_into(self.index[i], &mut ids);
            out.insert(CellKey::new(&ids), self.isb_at(i));
        }
        out
    }

    /// Compacts the staged tail on the kernel layer: the stage folds
    /// column-to-column (no per-row [`Isb`] round trips, no 40-byte sort
    /// entries — the sort permutes `(id, index)` pairs, and an
    /// already-sorted stage skips it entirely), duplicates left-to-right
    /// in arrival order, then span-merges with the compacted run, whose
    /// older cell folds first on a collision.
    fn compact(&mut self) -> Result<()> {
        if self.compacted == self.index.len() {
            // Nothing staged: every merged row hit the compacted region
            // in place.
            return Ok(());
        }
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
            let mut pairs: Vec<(u64, usize)> = staged_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
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
        self.compact()
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

    /// Every cuboid must fit the dense 64-bit cell-id space.
    fn check_lattice(schema: &CubeSchema, layers: &CriticalLayers) -> Result<()> {
        for cuboid in layers.lattice().bottom_up_order() {
            DenseCellCodec::new(schema, &cuboid)?;
        }
        Ok(())
    }

    fn from_tuples(
        schema: &CubeSchema,
        layers: &CriticalLayers,
        tuples: &[MTuple],
        mem: &mut MemoryAccountant,
    ) -> Result<(Self, u64)> {
        let mut m = ColumnarTable::new(schema, layers.lattice().m_layer())?;
        for t in tuples {
            m.merge_row(t.ids(), t.isb())?;
        }
        m.compact()?;
        mem.add(m.approx_bytes(schema.num_dims()));
        Ok((m, tuples.len() as u64))
    }

    /// The block-projected kernel fold when the projector supports it,
    /// the generic per-row [`aggregate_into`] fold for hierarchies
    /// resolved by per-row walks. Both fold in the same order, so both
    /// give the same bits.
    fn roll_up(
        &self,
        schema: &CubeSchema,
        source: &CuboidSpec,
        target: &CuboidSpec,
    ) -> Result<(Self, u64)> {
        let mut table = ColumnarTable::new(schema, target)?;
        let rows = match aggregate_columnar_kernel(schema, source, self, target, &mut table)? {
            Some(rows) => rows,
            None => aggregate_into(schema, source, self, target, &mut table, None)?,
        };
        Ok((table, rows))
    }

    /// A chunked `|slope| >= threshold` scan over the slope column
    /// ([`crate::kernel::screen_ge_abs`]), then key decoding for the
    /// (sparse) hits only. The same predicate per cell as
    /// [`ExceptionPolicy::is_exception`] (which resolves to one
    /// threshold per cuboid), with NaN scores never qualifying.
    fn exceptions(&self, policy: &ExceptionPolicy, cuboid: &CuboidSpec) -> CuboidTable {
        debug_assert_eq!(self.compacted, self.index.len(), "finish() before reads");
        let threshold = policy.threshold_for(cuboid);
        let mut hits = Vec::new();
        kernel::screen_ge_abs(&self.slopes[..self.compacted], threshold, &mut hits);
        let mut exc = CuboidTable::with_capacity_and_hasher(hits.len(), Default::default());
        let mut ids = vec![0u32; self.codec.num_dims()];
        for &i in &hits {
            self.decode_into(self.index[i], &mut ids);
            exc.insert(CellKey::new(&ids), self.isb_at(i));
        }
        exc
    }

    /// Converts (both forms coexist for the moment of the conversion).
    fn into_row_table(self, num_dims: usize, mem: &mut MemoryAccountant) -> CuboidTable {
        let rows = self.to_row_table();
        mem.add(table_bytes(&rows, num_dims));
        mem.remove(self.approx_bytes(num_dims));
        rows
    }
}

// ---------------------------------------------------------------------------
// Kernel-path aggregation
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
/// a dimension resolves ancestors by per-row hierarchy walks (no
/// [`Projector::block_projector`]) — the caller then folds with the
/// generic [`aggregate_into`]. Both fold each target cell's source rows
/// in ascending source-id order, so they agree bit for bit.
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
        let mut pairs: Vec<(u64, usize)> = projected
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use regcube_regress::TimeSeries;

    fn isb(slope: f64, base: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| base + slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

    fn schema() -> CubeSchema {
        CubeSchema::synthetic(2, 2, 2).unwrap()
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
        let schema = schema();
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
        let schema = schema();
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
        let schema = schema();
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
}
