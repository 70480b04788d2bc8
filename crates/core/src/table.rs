//! Cuboid tables: the one cell store both algorithms compute into.
//!
//! A cuboid's cells live in a [`CuboidTable`], a hash map from
//! [`CellKey`] to [`Isb`]. A table is built by folding rows into it
//! under Theorem 3.2 (a new key opens its cell, a known one merges), so
//! its iteration order follows from its keys and the order they first
//! arrived in. Both algorithms fold a unit by a roll-up plan whose index
//! maps are built that way — Algorithm 1 ([`crate::mo_cubing`]) over the
//! whole lattice, Algorithm 2 ([`crate::popular_path`]) along its popular
//! path, whose tables are the plan's. [`aggregate_from`] rolls any cuboid
//! up from a finer table: Algorithm 2 drills with it, filtered to the
//! children of exception cells, and screens finished tables with
//! [`collect_exceptions`]; queries roll up with it.
//!
//! ```
//! use regcube_core::table::{aggregate_from, CuboidTable};
//! use regcube_olap::cell::CellKey;
//! use regcube_olap::{CubeSchema, CuboidSpec};
//! use regcube_regress::Isb;
//!
//! let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
//! let fine = CuboidSpec::new(vec![2, 2]);
//! let mut table = CuboidTable::default();
//! table.insert(CellKey::new(vec![0, 1]), Isb::new(0, 9, 1.0, 0.5).unwrap());
//! table.insert(CellKey::new(vec![1, 1]), Isb::new(0, 9, 1.0, 0.25).unwrap());
//!
//! // Roll both cells up to the apex: their ISBs merge under Theorem 3.2.
//! let apex = CuboidSpec::new(vec![0, 0]);
//! let (out, rows) = aggregate_from(&schema, &fine, &table, &apex, None).unwrap();
//! assert_eq!((rows, out.len()), (2, 1));
//! assert_eq!(out[&CellKey::new(vec![0, 0])].slope(), 0.75);
//! ```

use crate::error::CoreError;
use crate::exception::ExceptionPolicy;
use crate::measure::merge_sibling;
use crate::Result;
use regcube_olap::cell::{CellKey, INLINE_IDS};
use regcube_olap::fxhash::FxHashMap;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;

/// The row-oriented cell store of one cuboid: a hash map from cell keys
/// to measures.
pub type CuboidTable = FxHashMap<CellKey, Isb>;

/// A predicate over projected target-cell coordinates, deciding which
/// cells an aggregation materializes (Algorithm 2's drilling filter).
pub type CellFilter<'a> = &'a dyn Fn(&[u32]) -> bool;

/// Folds one row into the cell at `ids`, creating it if absent and
/// merging under Theorem 3.2 otherwise.
///
/// # Errors
/// Measure merge failures (interval mismatches — impossible for tables
/// built from one validated tuple window).
pub(crate) fn merge_row(table: &mut CuboidTable, ids: &[u32], isb: &Isb) -> Result<()> {
    // Probing by slice first keeps the hot hit path from building a
    // key; only a genuinely new cell builds one.
    match table.get_mut(ids) {
        Some(acc) => merge_sibling(acc, isb),
        None => {
            table.insert(CellKey::new(ids), *isb);
            Ok(())
        }
    }
}

/// Approximate retained bytes of a row table (keys + measures + map
/// overhead), used by the analytical memory accounting in
/// [`crate::stats`].
///
/// Layout-aware rather than a flat slack factor: the hash map's bucket
/// array is sized from the table's reported *capacity* (a power of two
/// holding the capacity at ≤ 7/8 load, one `(CellKey, Isb)` slot plus
/// one control byte per bucket — the SwissTable layout `std::HashMap`
/// uses). A key of up to [`INLINE_IDS`] dimensions lives in its slot;
/// beyond that each occupied entry additionally owns its boxed key ids
/// on the heap. The bench suite checks this analytical figure against
/// real allocator measurements within a tolerance band, on both sides
/// of the inline bound.
pub fn table_bytes(table: &CuboidTable, num_dims: usize) -> usize {
    table_bytes_at(table.capacity(), table.len(), num_dims)
}

/// [`table_bytes`] of a table of `capacity` holding `len` cells: a
/// table's figure follows from those two alone.
pub(crate) fn table_bytes_at(capacity: usize, len: usize, num_dims: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = ((capacity * 8).div_ceil(7)).next_power_of_two();
    let slot = std::mem::size_of::<(CellKey, Isb)>() + 1;
    let key_heap = if num_dims > INLINE_IDS {
        num_dims * std::mem::size_of::<u32>()
    } else {
        0
    };
    buckets * slot + len * key_heap
}

/// Dense mixed-radix cell-id codec of one cuboid: per-dimension
/// cardinalities at the cuboid's levels plus the strides that map a
/// member-id tuple onto a single `u64` (`id = Σ ids[d] · strides[d]`,
/// last dimension fastest — ascending id order is ascending key order).
///
/// The stream layer packs record and m-cell keys with it. Construction
/// applies the u64-overflow guard once, so every id the codec produces
/// is valid.
#[derive(Debug, Clone)]
pub struct DenseCellCodec {
    /// Per-dimension cardinality at the cuboid's levels.
    radices: Box<[u32]>,
    /// Mixed-radix strides, last dimension fastest.
    strides: Box<[u64]>,
}

impl DenseCellCodec {
    /// Builds the codec for one cuboid of `schema`.
    ///
    /// # Errors
    /// [`CoreError::BadInput`] when the cuboid's cell space does not fit
    /// a dense 64-bit id (astronomical cardinalities only).
    pub fn new(schema: &CubeSchema, cuboid: &CuboidSpec) -> Result<Self> {
        let radices: Box<[u32]> = (0..schema.num_dims())
            .map(|d| schema.dims()[d].hierarchy().cardinality(cuboid.level(d)))
            .collect();
        let mut strides = vec![0u64; radices.len()].into_boxed_slice();
        let mut stride: u64 = 1;
        for d in (0..radices.len()).rev() {
            strides[d] = stride;
            stride =
                stride
                    .checked_mul(u64::from(radices[d]))
                    .ok_or_else(|| CoreError::BadInput {
                        detail: format!("cuboid {cuboid} cell space overflows a dense 64-bit id"),
                    })?;
        }
        Ok(DenseCellCodec { radices, strides })
    }

    /// The dense cell id of a key (mixed-radix over the cuboid levels).
    #[inline]
    pub fn encode(&self, ids: &[u32]) -> u64 {
        ids.iter()
            .zip(self.strides.iter())
            .map(|(&id, &stride)| u64::from(id) * stride)
            .sum()
    }

    /// Decodes a dense cell id into per-dimension member ids.
    #[inline]
    pub fn decode_into(&self, id: u64, out: &mut [u32]) {
        for ((slot, &stride), &radix) in out.iter_mut().zip(self.strides.iter()).zip(&self.radices)
        {
            *slot = ((id / stride) % u64::from(radix)) as u32;
        }
    }

    /// Per-dimension cardinalities at the cuboid's levels.
    #[inline]
    pub fn radices(&self) -> &[u32] {
        &self.radices
    }

    /// Number of dimensions the codec spans.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.radices.len()
    }
}

/// The largest per-dimension cardinality [`Projector`] materializes as
/// a lookup table; beyond it the projection falls back to per-row
/// hierarchy walks (bounding the table at 4 MiB per dimension).
const PROJECTOR_LUT_MAX: u32 = 1 << 20;

/// How one dimension of a [`Projector`] resolves ancestors.
enum DimProj<'a> {
    /// Source and target level coincide: the member is its own ancestor.
    Identity,
    /// `lut[member]` is the ancestor at the target level.
    Lut(Vec<u32>),
    /// Per-row hierarchy walk (huge cardinalities).
    Walk {
        hierarchy: &'a regcube_olap::Hierarchy,
        from: u8,
        to: u8,
    },
}

/// Per-dimension ancestor lookup tables for one `source → target`
/// cuboid projection: `lut[d][member]` is the member's ancestor at the
/// target level. Built once per aggregation (O(Σ cardinalities)), so
/// the per-row projection is a plain indexed load instead of a
/// hierarchy walk.
pub struct Projector<'a> {
    dims: Vec<DimProj<'a>>,
}

impl<'a> Projector<'a> {
    /// Builds the lookup tables for projecting `source`-cuboid cells to
    /// the (ancestor-or-equal) `target` cuboid.
    pub fn new(schema: &'a CubeSchema, source: &CuboidSpec, target: &CuboidSpec) -> Self {
        let dims = (0..schema.num_dims())
            .map(|d| {
                let hierarchy = schema.dims()[d].hierarchy();
                let (from, to) = (source.level(d), target.level(d));
                let card = hierarchy.cardinality(from);
                if from == to {
                    DimProj::Identity
                } else if card <= PROJECTOR_LUT_MAX {
                    DimProj::Lut(
                        (0..card)
                            .map(|m| hierarchy.ancestor_unchecked(from, m, to))
                            .collect(),
                    )
                } else {
                    DimProj::Walk {
                        hierarchy,
                        from,
                        to,
                    }
                }
            })
            .collect();
        Projector { dims }
    }

    /// Projects one source key into `out` (same arity as the schema).
    #[inline]
    pub fn project_into(&self, ids: &[u32], out: &mut [u32]) {
        for ((&id, slot), dim) in ids.iter().zip(out.iter_mut()).zip(&self.dims) {
            *slot = match dim {
                DimProj::Identity => id,
                DimProj::Lut(lut) => lut[id as usize],
                DimProj::Walk {
                    hierarchy,
                    from,
                    to,
                } => hierarchy.ancestor_unchecked(*from, id, *to),
            };
        }
    }
}

/// Aggregates a new table for `target_cuboid` from a (descendant)
/// `source` table by projecting every source cell to the target cuboid
/// and merging collisions under Theorem 3.2, in the source's iteration
/// order — the group-by-projection primitive. It folds in the order
/// Algorithm 1's roll-up plan is built in, so it computes the cells
/// Algorithm 1 computes. `filter` decides which *target* cells to
/// materialize: `None` computes every cell, `Some(pred)` only
/// qualifying ones.
///
/// Returns the new table and the number of *source rows* folded (the
/// work measure reported in run statistics).
///
/// # Errors
/// Propagates measure merge failures (interval mismatches — impossible
/// for tables built from one validated tuple window).
pub fn aggregate_from(
    schema: &CubeSchema,
    source_cuboid: &CuboidSpec,
    source: &CuboidTable,
    target_cuboid: &CuboidSpec,
    filter: Option<CellFilter<'_>>,
) -> Result<(CuboidTable, u64)> {
    let projector = Projector::new(schema, source_cuboid, target_cuboid);
    let mut projected = vec![0u32; schema.num_dims()];
    let mut out = CuboidTable::default();
    let mut rows: u64 = 0;
    for (key, isb) in source {
        projector.project_into(key.ids(), &mut projected);
        if let Some(pred) = filter {
            if !pred(&projected) {
                continue;
            }
        }
        rows += 1;
        merge_row(&mut out, &projected, isb)?;
    }
    Ok((out, rows))
}

/// Screens a finished full table against the exception policy and
/// returns the exceptional cells, inserted in the table's iteration
/// order — Algorithm 2's screening pass.
pub fn collect_exceptions(
    policy: &ExceptionPolicy,
    cuboid: &CuboidSpec,
    table: &CuboidTable,
) -> CuboidTable {
    let threshold = policy.threshold_for(cuboid);
    let mut exc = CuboidTable::default();
    for (key, isb) in table {
        if ExceptionPolicy::is_exception_at(threshold, isb) {
            exc.insert(key.clone(), *isb);
        }
    }
    exc
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcube_olap::cell::project_key;
    use regcube_regress::TimeSeries;

    fn isb(slope: f64) -> Isb {
        let z = TimeSeries::from_fn(0, 9, |t| slope * t as f64).unwrap();
        Isb::fit(&z).unwrap()
    }

    fn schema() -> CubeSchema {
        CubeSchema::synthetic(2, 2, 3).unwrap()
    }

    #[test]
    fn aggregation_groups_by_ancestor() {
        let s = schema();
        let fine = CuboidSpec::new(vec![2, 2]);
        let coarse = CuboidSpec::new(vec![1, 0]);
        let mut src = CuboidTable::default();
        // Members 0 and 1 at L2 share L1 parent 0 (fanout 3); 3 has parent 1.
        src.insert(CellKey::new(vec![0, 5]), isb(0.1));
        src.insert(CellKey::new(vec![1, 7]), isb(0.2));
        src.insert(CellKey::new(vec![3, 5]), isb(0.4));

        let (out, rows) = aggregate_from(&s, &fine, &src, &coarse, None).unwrap();
        assert_eq!(rows, 3);
        assert_eq!(out.len(), 2);
        let a = out.get(&CellKey::new(vec![0, 0])).unwrap();
        assert!((a.slope() - 0.3).abs() < 1e-12, "0.1 + 0.2 grouped");
        let b = out.get(&CellKey::new(vec![1, 0])).unwrap();
        assert!((b.slope() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn identity_projection_copies() {
        let s = schema();
        let c = CuboidSpec::new(vec![2, 2]);
        let mut src = CuboidTable::default();
        src.insert(CellKey::new(vec![4, 4]), isb(-0.5));
        let (out, _) = aggregate_from(&s, &c, &src, &c, None).unwrap();
        assert_eq!(out.len(), 1);
        assert!((out[&CellKey::new(vec![4, 4])].slope() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn filter_restricts_materialized_cells() {
        let s = schema();
        let fine = CuboidSpec::new(vec![2, 2]);
        let coarse = CuboidSpec::new(vec![1, 0]);
        let mut src = CuboidTable::default();
        src.insert(CellKey::new(vec![0, 5]), isb(0.1));
        src.insert(CellKey::new(vec![3, 5]), isb(0.4));

        let keep = |ids: &[u32]| ids[0] == 1;
        let (out, rows) = aggregate_from(&s, &fine, &src, &coarse, Some(&keep)).unwrap();
        assert_eq!(rows, 1, "filtered source rows are not folded");
        assert_eq!(out.len(), 1);
        assert!(out.contains_key(&CellKey::new(vec![1, 0])));
    }

    #[test]
    fn byte_accounting_tracks_layout() {
        // Three dimensions keep their ids in the key's slot; six spill
        // them to the heap, one boxed slice per entry.
        for (dims, key_heap) in [(3, 0), (6, 6 * std::mem::size_of::<u32>())] {
            let mut t = CuboidTable::default();
            assert_eq!(table_bytes(&t, dims), 0, "no capacity, no bytes");
            t.insert(CellKey::new(vec![0; dims]), isb(0.0));
            let one = table_bytes(&t, dims);
            assert!(one > 0);
            // Growth is monotone in entries (capacity never shrinks on
            // insert) and the estimate stays within the physical layout's
            // ballpark: between the tight packed size and a generous upper
            // bound that covers a freshly-doubled, half-empty bucket array.
            let mut prev = one;
            for v in 1..=512u32 {
                t.insert(CellKey::new(vec![v; dims]), isb(0.0));
                let now = table_bytes(&t, dims);
                assert!(now >= prev, "{dims} dims: estimate shrank at {v} entries");
                prev = now;
            }
            let n = t.len();
            let packed = n * (std::mem::size_of::<(CellKey, Isb)>() + 1 + key_heap);
            assert!(
                prev >= packed,
                "{dims} dims: estimate below the packed minimum"
            );
            assert!(
                prev <= packed * 3,
                "{dims} dims: estimate above 3x the packed size: {prev} vs {packed}"
            );
        }
    }

    #[test]
    fn projector_matches_project_key() {
        let s = schema();
        let fine = CuboidSpec::new(vec![2, 1]);
        for coarse in [
            CuboidSpec::new(vec![1, 0]),
            CuboidSpec::new(vec![0, 1]),
            CuboidSpec::new(vec![2, 1]),
        ] {
            let p = Projector::new(&s, &fine, &coarse);
            let mut out = vec![0u32; 2];
            for a in 0..9u32 {
                for b in 0..3u32 {
                    p.project_into(&[a, b], &mut out);
                    assert_eq!(out, project_key(&s, &fine, &[a, b], &coarse), "({a},{b})");
                }
            }
        }
    }

    #[test]
    fn merge_row_hits_without_allocating_a_key() {
        let mut t = CuboidTable::default();
        merge_row(&mut t, &[1, 2], &isb(0.1)).unwrap();
        merge_row(&mut t, &[1, 2], &isb(0.2)).unwrap();
        assert_eq!(t.len(), 1);
        let m = t.get([1u32, 2].as_slice()).unwrap();
        assert!((m.slope() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn codec_round_trips_and_guards_overflow() {
        let s = schema();
        let codec = DenseCellCodec::new(&s, &CuboidSpec::new(vec![2, 1])).unwrap();
        assert_eq!(codec.radices(), &[9, 3]);
        // Mixed radix, last dimension fastest.
        assert_eq!((codec.encode(&[0, 1]), codec.encode(&[1, 0])), (1, 3));
        let mut out = vec![0u32; 2];
        for a in 0..9u32 {
            for b in 0..3u32 {
                let id = codec.encode(&[a, b]);
                codec.decode_into(id, &mut out);
                assert_eq!(out, vec![a, b]);
            }
        }
        // 6 dimensions with ~10^5 leaves each overflow u64.
        let big = CubeSchema::synthetic(6, 2, 2048).unwrap();
        assert!(DenseCellCodec::new(&big, &CuboidSpec::new(vec![2; 6])).is_err());
    }

    #[test]
    fn collect_exceptions_screens_with_the_policy() {
        let cuboid = CuboidSpec::new(vec![1, 1]);
        let mut t = CuboidTable::default();
        t.insert(CellKey::new(vec![0, 0]), isb(0.9));
        t.insert(CellKey::new(vec![1, 1]), isb(0.1));
        let exc = collect_exceptions(&ExceptionPolicy::slope_threshold(0.5), &cuboid, &t);
        assert_eq!(exc.len(), 1);
        assert!(exc.contains_key(&CellKey::new(vec![0, 0])));
    }
}
