//! Per-unit accumulation of raw records into m-layer regression tuples.
//!
//! Records at the primitive layer are projected to their m-layer ancestor
//! cell (standard-dimension roll-up via the concept hierarchies) and their
//! values accumulated per tick. When the open unit closes, each touched
//! cell's per-tick sums are fitted with OLS and emitted as one
//! [`MTuple`] — the m-layer aggregation Step 1 of both algorithms expects
//! ("the m-layer should be the layer aggregated directly from the stream
//! data").
//!
//! The accumulation works on packed ids ([`PackedRecord`]): a record's
//! primitive key is its m-cell's key when the two layers coincide (and
//! is decoded, rolled up and re-encoded when they do not), one hash
//! probe finds the cell's row of the
//! open unit's slab — `rows × ticks_per_unit` sums in one buffer — and
//! the value is added to the row's tick. No key is built and nothing is
//! allocated for a cell a row is kept for.
//!
//! **Rows are kept from unit to unit.** In the paper's setting a fixed
//! population of streams reports every unit, so the same m-cells close
//! every unit in the same key order. A cell's row — its packed m-id,
//! its decoded [`CellKey`] and its place in key order — lives while the
//! cell reports every unit: a close drops the rows no record touched,
//! and sorts and renumbers the rows only when some were added or
//! dropped. A close in which every kept cell reported and no new one
//! did fits each row's sums into the tuple the last close left at the
//! row's place, and nothing is decoded, sorted or allocated. A close in
//! which no kept cell reported (a rotating population) lets the rows
//! go, and the next close keeps them again only if its cells are this
//! one's. The rows are a
//! cache: what a close emits does not depend on them, a restored engine
//! starts without them, and no checkpoint holds them.
//!
//! Records arrive in one of two ways. A strictly ordered engine adds
//! each one as it comes ([`Ingestor::ingest_packed`]), so the sums
//! follow the arrival order. A reordering engine hands over a whole
//! unit's buffered records at close (`ingest_bucket`), whose sums must
//! be those of the records sorted by `(tick, key, value bits)`. Only the
//! records that share a `(row, tick)` slot can tell the two orders
//! apart, so the bucket is folded in arrival order and just those slots
//! are summed again, each in the canonical order — no sort of the unit.

use crate::error::StreamError;
use crate::record::{PackedRecord, RawRecord, RecordPacker};
use crate::Result;
use regcube_core::table::DenseCellCodec;
use regcube_core::MTuple;
use regcube_olap::cell::{project_key, CellKey};
use regcube_olap::fxhash::{FxHashMap, FxHasher};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use std::hash::Hasher;

/// How a packed primitive key becomes its m-cell's packed key.
#[derive(Debug, Clone)]
enum ToM {
    /// The primitive layer is the m-layer: the key is the m-cell's.
    Identity,
    /// The primitive layer is below the m-layer: decode, walk the
    /// hierarchies, encode.
    Walk,
}

/// A slab slot no record of the bucket has landed in yet
/// ([`Ingestor::ingest_bucket`]).
const EMPTY: u32 = u32::MAX;
/// A slab slot two or more records of the bucket share.
const SHARED: u32 = u32::MAX - 1;

/// Accumulates raw records for one m-layer time unit at a time.
#[derive(Debug, Clone)]
pub struct Ingestor {
    schema: CubeSchema,
    primitive: CuboidSpec,
    m_layer: CuboidSpec,
    ticks_per_unit: usize,
    open_unit: i64,
    packer: RecordPacker,
    m_codec: DenseCellCodec,
    to_m: ToM,
    /// Packed m-id → slab row: the `kept` rows of the last close,
    /// numbered in key order, then the open unit's new m-cells in
    /// arrival order.
    rows: FxHashMap<u64, u32>,
    /// The packed m-id of each slab row.
    keys: Vec<u64>,
    /// The unit each slab row was last touched in.
    touched_in: Vec<i64>,
    /// Rows touched in the open unit.
    touched: usize,
    /// How many rows the last close kept: row `i < kept` is the cell of
    /// tuple `i`. Zero when it let them go.
    kept: usize,
    /// The last close's tuples, in key order; emptied by
    /// [`release_tuples`](Self::release_tuples) when its rows were let
    /// go.
    tuples: Vec<MTuple>,
    /// A hash of the last close's m-ids, in key order.
    population: u64,
    /// Per-tick value sums of the open unit, `ticks_per_unit` per row,
    /// all `0.0` when the unit opens.
    slab: Vec<f64>,
    /// Per slab slot, the index of the bucket record that landed there
    /// first, [`EMPTY`] or [`SHARED`] ([`ingest_bucket`](Self::ingest_bucket)).
    heads: Vec<u32>,
    records_seen: u64,
}

impl Ingestor {
    /// Creates an ingestor.
    ///
    /// # Errors
    /// [`StreamError::BadConfig`] when the primitive layer is not a
    /// descendant-or-equal of the m-layer, when either layer's cell
    /// space does not fit a 64-bit key, or when `ticks_per_unit == 0`.
    pub fn new(
        schema: CubeSchema,
        primitive: CuboidSpec,
        m_layer: CuboidSpec,
        ticks_per_unit: usize,
    ) -> Result<Self> {
        if ticks_per_unit == 0 {
            return Err(StreamError::BadConfig {
                detail: "ticks_per_unit must be positive".into(),
            });
        }
        schema.check_cuboid(&primitive).map_err(StreamError::from)?;
        schema.check_cuboid(&m_layer).map_err(StreamError::from)?;
        if !m_layer.is_ancestor_or_equal(&primitive) {
            return Err(StreamError::BadConfig {
                detail: format!("primitive layer {primitive} is not below the m-layer {m_layer}"),
            });
        }
        // Both layers are checked: a ragged hierarchy can have more
        // members on a coarser level than on a finer one.
        let packer = RecordPacker::new(&schema, &primitive)?;
        let m_codec =
            DenseCellCodec::new(&schema, &m_layer).map_err(|e| StreamError::BadConfig {
                detail: format!("m-layer {m_layer}: {e}"),
            })?;
        let to_m = if primitive == m_layer {
            ToM::Identity
        } else {
            ToM::Walk
        };
        Ok(Ingestor {
            schema,
            primitive,
            m_layer,
            ticks_per_unit,
            open_unit: 0,
            packer,
            m_codec,
            to_m,
            rows: FxHashMap::default(),
            keys: Vec::new(),
            touched_in: Vec::new(),
            touched: 0,
            kept: 0,
            tuples: Vec::new(),
            population: 0,
            slab: Vec::new(),
            heads: Vec::new(),
            records_seen: 0,
        })
    }

    /// The currently open unit index.
    #[inline]
    pub fn open_unit(&self) -> i64 {
        self.open_unit
    }

    /// Repositions the open unit — the checkpoint-restore seam. Only
    /// valid with empty buffers (a restored engine resumes at a unit
    /// boundary); callers in this crate uphold that. The kept rows go:
    /// they belong to the units before.
    pub(crate) fn set_open_unit(&mut self, unit: i64) {
        debug_assert_eq!(self.touched, 0, "repositioning a non-empty unit");
        self.rows.clear();
        self.keys.clear();
        self.touched_in.clear();
        self.kept = 0;
        self.tuples.clear();
        self.population = 0;
        self.slab.clear();
        self.open_unit = unit;
    }

    /// The open unit's tick interval `[first, last]`.
    pub fn open_window(&self) -> (i64, i64) {
        let first = self.open_unit * self.ticks_per_unit as i64;
        (first, first + self.ticks_per_unit as i64 - 1)
    }

    /// Records ingested since construction.
    #[inline]
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Number of distinct m-cells touched in the open unit.
    #[inline]
    pub fn open_cells(&self) -> usize {
        self.touched
    }

    /// The packer of this ingestor's primitive layer.
    #[inline]
    pub fn packer(&self) -> &RecordPacker {
        &self.packer
    }

    /// Validates a record's coordinates against the primitive layer
    /// (arity and member range) without touching the open window — the
    /// check [`RecordPacker::pack`] runs when a record is packed.
    ///
    /// # Errors
    /// [`StreamError::BadRecord`] for arity/member violations.
    pub fn validate(&self, record: &RawRecord) -> Result<()> {
        self.packer.pack(record).map(drop)
    }

    /// The primitive layer records arrive at (checkpoint fingerprint).
    pub(crate) fn primitive(&self) -> &CuboidSpec {
        &self.primitive
    }

    /// Projects a primitive record's coordinates to its m-layer cell.
    pub(crate) fn project_to_m(&self, ids: &[u32]) -> CellKey {
        CellKey::new(project_key(
            &self.schema,
            &self.primitive,
            ids,
            &self.m_layer,
        ))
    }

    /// Ingests one raw record into the open unit: [`RecordPacker::pack`]
    /// and [`ingest_packed`](Self::ingest_packed).
    ///
    /// # Errors
    /// * [`StreamError::BadRecord`] for arity/member violations.
    /// * [`StreamError::OutOfWindow`] when the record's tick is outside
    ///   the open unit (close the unit first).
    pub fn ingest(&mut self, record: &RawRecord) -> Result<()> {
        let packed = self.packer.pack(record)?;
        self.ingest_packed(&packed)
    }

    /// Ingests one record packed by this ingestor's
    /// [`packer`](Self::packer) into the open unit: one hash probe for
    /// the m-cell's row, one add into its tick.
    ///
    /// # Errors
    /// * [`StreamError::BadRecord`] for a key beyond the primitive layer
    ///   ([`RecordPacker::check`]).
    /// * [`StreamError::OutOfWindow`] when the record's tick is outside
    ///   the open unit (close the unit first).
    pub fn ingest_packed(&mut self, record: &PackedRecord) -> Result<()> {
        self.check(record)?;
        let slot = self.slot(record);
        self.slab[slot] += record.value;
        self.records_seen += 1;
        Ok(())
    }

    /// Folds one unit's buffered records, in arrival order, into the
    /// open unit — with the sums a fold of the records sorted by
    /// `(tick, key, value bits)` writes, bit for bit (but for the payload
    /// of a sum of two NaNs, which Rust leaves unspecified).
    ///
    /// Two records' order matters only when they land in the same
    /// `(row, tick)` slot. A slot with one record takes `0.0 + value`,
    /// as the sorted fold's does. A slot with more is summed again from
    /// `0.0` over its records sorted by `(primitive key, value bits)`:
    /// the canonical order restricted to the slot. Rows are numbered by
    /// first arrival (after the kept ones);
    /// [`close_unit`](Self::close_unit) emits them in key order either
    /// way.
    ///
    /// Every record is checked before any is folded, so an error leaves
    /// the ingestor as it was.
    ///
    /// # Errors
    /// What [`ingest_packed`](Self::ingest_packed) returns for the first
    /// record it would refuse.
    ///
    /// # Panics
    /// When the open unit already holds records (the re-sum starts from
    /// `0.0`), or the bucket has `u32::MAX - 1` records or more.
    pub(crate) fn ingest_bucket(&mut self, records: &[PackedRecord]) -> Result<()> {
        assert_eq!(self.touched, 0, "a bucket into a non-empty unit");
        assert!(records.len() < SHARED as usize, "bucket too long");
        for record in records {
            self.check(record)?;
        }
        self.heads.clear();
        // (slot, key, value bits) of every record in a shared slot.
        let mut shared: Vec<(usize, u64, u64)> = Vec::new();
        let entry = |slot: usize, r: &PackedRecord| (slot, r.key, r.value.to_bits());
        for (i, record) in records.iter().enumerate() {
            let slot = self.slot(record);
            if slot >= self.heads.len() {
                self.heads.resize(self.slab.len(), EMPTY);
            }
            match self.heads[slot] {
                EMPTY => {
                    self.heads[slot] = i as u32;
                    self.slab[slot] += record.value;
                }
                SHARED => shared.push(entry(slot, record)),
                head => {
                    self.heads[slot] = SHARED;
                    shared.push(entry(slot, &records[head as usize]));
                    shared.push(entry(slot, record));
                }
            }
        }
        shared.sort_unstable();
        let mut rest = shared.as_slice();
        while let Some(&(slot, ..)) = rest.first() {
            let n = rest.iter().take_while(|e| e.0 == slot).count();
            self.slab[slot] = rest[..n]
                .iter()
                .fold(0.0, |sum, &(_, _, bits)| sum + f64::from_bits(bits));
            rest = &rest[n..];
        }
        self.records_seen += records.len() as u64;
        Ok(())
    }

    /// Refuses a record [`ingest_packed`](Self::ingest_packed) cannot
    /// fold: a key beyond the primitive layer, or a tick outside the
    /// open unit.
    #[inline]
    fn check(&self, record: &PackedRecord) -> Result<()> {
        self.packer.check(record)?;
        let window = self.open_window();
        if record.tick < window.0 || record.tick > window.1 {
            return Err(StreamError::OutOfWindow {
                tick: record.tick,
                window,
            });
        }
        Ok(())
    }

    /// The slab index of a checked record's `(row, tick)` slot: one hash
    /// probe for its m-cell's row, which a new m-cell is given at the
    /// end of the slab.
    #[inline]
    fn slot(&mut self, record: &PackedRecord) -> usize {
        let m_key = match &self.to_m {
            ToM::Identity => record.key,
            ToM::Walk => self
                .m_codec
                .encode(self.project_to_m(&self.packer.ids(record.key)).ids()),
        };
        let ticks = self.ticks_per_unit;
        let fresh = self.rows.len() as u32;
        let row = *self.rows.entry(m_key).or_insert(fresh);
        if row == fresh {
            self.keys.push(m_key);
            self.touched_in.push(self.open_unit - 1);
            self.slab.resize(self.slab.len() + ticks, 0.0);
        }
        let touched_in = &mut self.touched_in[row as usize];
        if *touched_in != self.open_unit {
            *touched_in = self.open_unit;
            self.touched += 1;
        }
        let first = self.open_unit * ticks as i64;
        row as usize * ticks + (record.tick - first) as usize
    }

    /// Closes the open unit: fits one ISB per touched m-cell over the
    /// unit's ticks, advances to the next unit, and returns the cells
    /// (sorted by key for determinism). The cells are a copy of the
    /// tuples the online engine's close reads in place.
    ///
    /// The close is **error-atomic**: a failed close leaves the sums,
    /// the rows and the open unit exactly as they were.
    ///
    /// # Errors
    /// Propagates fit errors (cannot occur for a positive unit width).
    pub fn close_unit(&mut self) -> Result<(i64, Vec<(CellKey, Isb)>)> {
        let (unit, tuples) = self.close_tuples()?;
        let cells = tuples.iter().map(|t| (t.key().clone(), *t.isb())).collect();
        self.release_tuples();
        Ok((unit, cells))
    }

    /// Closes the open unit: fits one ISB per touched m-cell over the
    /// unit's ticks, advances to the next unit, and returns the unit and
    /// its tuples, sorted by key — the one tuple vector the frame family
    /// and the cubing engine both read. It lives in the ingestor until
    /// the next close.
    ///
    /// When every kept row was touched and no new one was added, each
    /// fit goes into the tuple of its row's last close. Otherwise the
    /// touched rows are sorted by key into new tuples (a kept row lends
    /// its decoded key), then renumbered in key order and kept — if the
    /// cells are the last close's (by a hash of their m-ids: a collision
    /// only keeps rows a while), or some kept row reported again — or
    /// let go, as a rotating population's are: keeping them would cost
    /// a rebuilt index every unit and save nothing. The caller hands
    /// let-go tuples back with [`release_tuples`](Self::release_tuples)
    /// once it has read them.
    ///
    /// The close is **error-atomic** for the stream state: nothing but
    /// the measures of the returned tuples is written before every fit
    /// has succeeded, so a failed close leaves the sums, the rows and
    /// the open unit exactly as they were (an earlier version drained
    /// the buffers while fitting — a mid-drain error discarded the
    /// remaining cells and left `open_unit` un-advanced, corrupting the
    /// stream state).
    ///
    /// # Errors
    /// Propagates fit errors (cannot occur for a positive unit width).
    pub(crate) fn close_tuples(&mut self) -> Result<(i64, &[MTuple])> {
        let (first, _) = self.open_window();
        let unit = self.open_unit;
        let ticks = self.ticks_per_unit;
        let kept = self.kept;
        let fit = |sums: &[f64]| Isb::fit_values(first, sums).map_err(StreamError::from);
        if kept > 0 && self.touched == kept && self.keys.len() == kept {
            for (tuple, sums) in self.tuples.iter_mut().zip(self.slab.chunks_exact(ticks)) {
                tuple.set_isb(fit(sums)?);
            }
        } else {
            // Packed m-ids order as the keys' ids do.
            let (keys, touched_in) = (&self.keys, &self.touched_in);
            let mut order: Vec<u32> = Vec::with_capacity(self.touched);
            order.extend((0..keys.len() as u32).filter(|&row| touched_in[row as usize] == unit));
            order.sort_unstable_by_key(|&row| keys[row as usize]);
            let mut ids = vec![0; self.m_codec.num_dims()];
            let mut tuples = Vec::with_capacity(order.len());
            for &row in &order {
                let row = row as usize;
                let key = if row < kept {
                    self.tuples[row].key().clone()
                } else {
                    self.m_codec.decode_into(keys[row], &mut ids);
                    CellKey::new(ids.as_slice())
                };
                tuples.push(MTuple::from_key(
                    key,
                    fit(&self.slab[row * ticks..][..ticks])?,
                ));
            }
            // Whether to keep the rows is a guess about the next unit, so
            // a hash of the cells is enough to tell them from the last
            // close's: the rows are renumbered from `order` either way.
            let mut hasher = FxHasher::default();
            hasher.write_usize(order.len());
            for &row in &order {
                hasher.write_u64(keys[row as usize]);
            }
            let population = hasher.finish();
            let repeated = population == self.population;
            let survived = order.iter().any(|&row| (row as usize) < kept);
            self.population = population;
            self.tuples = tuples;
            self.rows.clear();
            if repeated || survived {
                let ids: Vec<u64> = order.iter().map(|&row| keys[row as usize]).collect();
                self.rows
                    .extend(ids.iter().enumerate().map(|(row, &id)| (id, row as u32)));
                self.touched_in.clear();
                self.touched_in.resize(ids.len(), unit);
                self.slab.truncate(ids.len() * ticks);
                self.kept = ids.len();
                self.keys = ids;
            } else {
                self.keys.clear();
                self.touched_in.clear();
                self.slab.clear();
                self.kept = 0;
            }
        }
        self.slab.fill(0.0);
        self.touched = 0;
        self.open_unit += 1;
        Ok((unit, &self.tuples))
    }

    /// Drops the last close's tuples if that close let its rows go: a
    /// rotating population's tuples are not read again, and dropped
    /// right after the close that read them they are still in cache.
    pub(crate) fn release_tuples(&mut self) {
        if self.kept == 0 {
            self.tuples = Vec::new();
        }
    }

    /// Converts closed-unit cells into the [`MTuple`] form the cubing
    /// algorithms consume.
    pub fn to_mtuples(cells: &[(CellKey, Isb)]) -> Vec<MTuple> {
        cells
            .iter()
            .map(|(k, isb)| MTuple::from_key(k.clone(), *isb))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// 2 dims, depth 2, fanout 2; primitive = m-layer = (2, 2); 4 ticks
    /// per unit.
    fn ingestor() -> Ingestor {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        Ingestor::new(
            schema,
            CuboidSpec::new(vec![2, 2]),
            CuboidSpec::new(vec![2, 2]),
            4,
        )
        .unwrap()
    }

    /// Primitive one level below the m-layer on both dims.
    fn rollup_ingestor() -> Ingestor {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        Ingestor::new(
            schema,
            CuboidSpec::new(vec![2, 2]),
            CuboidSpec::new(vec![1, 1]),
            4,
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
        assert!(Ingestor::new(
            schema.clone(),
            CuboidSpec::new(vec![2, 2]),
            CuboidSpec::new(vec![2, 2]),
            0,
        )
        .is_err());
        // Primitive coarser than m-layer is invalid.
        assert!(Ingestor::new(
            schema,
            CuboidSpec::new(vec![1, 1]),
            CuboidSpec::new(vec![2, 2]),
            4,
        )
        .is_err());
    }

    #[test]
    fn per_tick_accumulation_and_fit() {
        let mut ing = ingestor();
        // Cell (0,0): values 1, 2, 3, 4 over ticks 0..3 -> slope 1.
        for t in 0..4 {
            ing.ingest(&RawRecord::new(vec![0, 0], t, (t + 1) as f64))
                .unwrap();
        }
        // Two records on the same tick accumulate.
        ing.ingest(&RawRecord::new(vec![3, 3], 1, 2.0)).unwrap();
        ing.ingest(&RawRecord::new(vec![3, 3], 1, 3.0)).unwrap();
        assert_eq!(ing.open_cells(), 2);
        assert_eq!(ing.records_seen(), 6);

        let (unit, cells) = ing.close_unit().unwrap();
        assert_eq!(unit, 0);
        assert_eq!(cells.len(), 2);
        let (k0, isb0) = &cells[0];
        assert_eq!(k0.ids(), &[0, 0]);
        assert!((isb0.slope() - 1.0).abs() < 1e-12);
        assert_eq!(isb0.interval(), (0, 3));
        // Missing ticks read as zero usage.
        let (_, isb1) = &cells[1];
        assert_eq!(isb1.interval(), (0, 3));
        assert!((isb1.sum_z() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cells_close_in_key_order_whatever_the_arrival() {
        for keys in [[[0, 1], [2, 0], [3, 3]], [[3, 3], [0, 1], [2, 0]]] {
            let mut ing = ingestor();
            for (t, ids) in keys.iter().enumerate() {
                ing.ingest(&RawRecord::new(ids.to_vec(), t as i64, 1.0))
                    .unwrap();
            }
            let (_, cells) = ing.close_unit().unwrap();
            let closed: Vec<&[u32]> = cells.iter().map(|(k, _)| k.ids()).collect();
            assert_eq!(closed, [[0, 1], [2, 0], [3, 3]]);
            assert_eq!(cells[2].1.interval(), (0, 3));
        }
    }

    #[test]
    fn units_advance_and_windows_shift() {
        let mut ing = ingestor();
        ing.ingest(&RawRecord::new(vec![0, 0], 2, 1.0)).unwrap();
        let _ = ing.close_unit().unwrap();
        assert_eq!(ing.open_unit(), 1);
        assert_eq!(ing.open_window(), (4, 7));
        // Old ticks now rejected; new window accepted.
        assert!(matches!(
            ing.ingest(&RawRecord::new(vec![0, 0], 2, 1.0)),
            Err(StreamError::OutOfWindow { .. })
        ));
        ing.ingest(&RawRecord::new(vec![0, 0], 6, 1.0)).unwrap();
        let (unit, cells) = ing.close_unit().unwrap();
        assert_eq!(unit, 1);
        assert_eq!(cells[0].1.interval(), (4, 7));
    }

    #[test]
    fn primitive_records_roll_up_to_m_cells() {
        let mut ing = rollup_ingestor();
        // L2 members 0 and 1 share L1 parent 0 (fanout 2).
        for t in 0..4 {
            ing.ingest(&RawRecord::new(vec![0, 2], t, 1.0)).unwrap();
            ing.ingest(&RawRecord::new(vec![1, 3], t, 2.0)).unwrap();
        }
        let (_, cells) = ing.close_unit().unwrap();
        // Both primitive streams land in m-cell (0, 1).
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0.ids(), &[0, 1]);
        assert!((cells[0].1.sum_z() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn bad_records_are_rejected() {
        let mut ing = ingestor();
        assert!(matches!(
            ing.ingest(&RawRecord::new(vec![0], 0, 1.0)),
            Err(StreamError::BadRecord { .. })
        ));
        assert!(matches!(
            ing.ingest(&RawRecord::new(vec![0, 9], 0, 1.0)),
            Err(StreamError::BadRecord { .. })
        ));
    }

    /// SplitMix64: a seeded stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// Values whose sums depend on the order of the additions, or on the
    /// first addition starting from `0.0`.
    const HOSTILE: [f64; 12] = [
        1e16,
        1.0,
        -1e16,
        -0.0,
        0.0,
        0.1,
        -2.5,
        f64::MIN_POSITIVE / 4.0,
        -5e-324,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
    ];

    /// A value from [`HOSTILE`], or a NaN with a payload of its own
    /// (quiet or signalling, either sign).
    fn hostile(rng: &mut Rng) -> f64 {
        match rng.below(16) {
            i @ 0..=11 => HOSTILE[i as usize],
            i => {
                let sign = (i & 1) << 63;
                let quiet = (i & 2) << 50;
                f64::from_bits(sign | 0x7ff0_0000_0000_0000 | quiet | (1 + rng.below(1 << 20)))
            }
        }
    }

    /// The open unit's slab as `(m-key, tick) -> sum bits`, and the
    /// closed unit's cells with their ISBs as bits.
    type Folded = (BTreeMap<(u64, usize), u64>, Vec<(CellKey, [u64; 2])>);

    /// A float's bits, with every NaN as one. Rust leaves the payload of
    /// a NaN that arithmetic returns unspecified: when both addends are
    /// NaNs, which one survives follows the operand order the compiler
    /// picked for that add, not the fold.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn close_bits(ing: &mut Ingestor) -> Folded {
        let ticks = ing.ticks_per_unit;
        let mut slab = BTreeMap::new();
        for (row, &key) in ing.keys.iter().enumerate() {
            for tick in 0..ticks {
                slab.insert((key, tick), bits(ing.slab[row * ticks + tick]));
            }
        }
        let (_, cells) = ing.close_unit().unwrap();
        let cells = cells
            .into_iter()
            .map(|(key, isb)| (key, [bits(isb.base()), bits(isb.slope())]))
            .collect();
        (slab, cells)
    }

    /// Folds `bucket` both ways into unit 1 of a copy of `ing`: in
    /// arrival order, and with `ingest_packed` over the bucket sorted by
    /// `(tick, key, value bits)`.
    fn fold_both_ways(ing: &Ingestor, bucket: &[PackedRecord]) -> (Folded, Folded) {
        let mut arrival = ing.clone();
        arrival.set_open_unit(1);
        let mut sorted = arrival.clone();
        arrival.ingest_bucket(bucket).unwrap();
        let mut canonical = bucket.to_vec();
        canonical.sort_by_key(|r| (r.tick, r.key, r.value.to_bits()));
        for record in &canonical {
            sorted.ingest_packed(record).unwrap();
        }
        assert_eq!(arrival.records_seen(), sorted.records_seen());
        assert_eq!(arrival.open_cells(), sorted.open_cells());
        (close_bits(&mut arrival), close_bits(&mut sorted))
    }

    /// The arrival-order fold writes the sorted fold's sums, bit for bit:
    /// slots hit once to four times, by one primitive cell or by several
    /// that share an m-cell, with signed zeros, NaN payloads, subnormals
    /// and `1e16, 1, -1e16`.
    #[test]
    fn a_bucket_folds_as_its_canonical_sort_does() {
        for (name, ing) in [("identity", ingestor()), ("walk", rollup_ingestor())] {
            let (first, _) = {
                let mut at_one = ing.clone();
                at_one.set_open_unit(1);
                at_one.open_window()
            };
            let pack = |ids: [u32; 2], tick: i64, value: f64| {
                ing.packer()
                    .pack(&RawRecord::new(ids.to_vec(), first + tick, value))
                    .unwrap()
            };
            // Fixed cases: a lone -0.0; a triple on one primitive cell;
            // the triple on three cells of one m-cell in the order where
            // the keys and the value bits disagree (1e16 ahead of 1 by
            // key, behind it by bits).
            let fixed: [Vec<PackedRecord>; 3] = [
                vec![pack([1, 2], 3, -0.0)],
                vec![
                    pack([0, 0], 0, -1e16),
                    pack([0, 0], 0, 1.0),
                    pack([0, 0], 0, 1e16),
                ],
                vec![
                    pack([1, 1], 2, 1.0),
                    pack([0, 1], 2, -1e16),
                    pack([0, 0], 2, 1e16),
                ],
            ];
            for (case, bucket) in fixed.iter().enumerate() {
                let (arrival, sorted) = fold_both_ways(&ing, bucket);
                assert_eq!(arrival, sorted, "{name}: fixed case {case}");
            }
            for seed in 0..200u64 {
                let mut rng = Rng(seed);
                let mut bucket = Vec::new();
                for _ in 0..1 + rng.below(12) {
                    let (a, b, tick) = (rng.below(4), rng.below(4), rng.below(4) as i64);
                    for _ in 0..1 + rng.below(4) {
                        // A sibling under the same m-cell when the
                        // layers differ; the same cell otherwise.
                        let ids = [(a ^ rng.below(2)) as u32, (b ^ rng.below(2)) as u32];
                        bucket.push(pack(ids, tick, hostile(&mut rng)));
                    }
                }
                for i in (1..bucket.len()).rev() {
                    bucket.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let (arrival, sorted) = fold_both_ways(&ing, &bucket);
                assert_eq!(arrival, sorted, "{name}: seed {seed}");
            }
        }
    }

    /// Kept rows change nothing a close emits. A seeded population of
    /// cells joins, goes silent, returns and holds still for runs of
    /// units; each unit reaches one long-lived ingestor both record by
    /// record and as a bucket, and each close must emit — keys, order
    /// and bits — what a fresh ingestor opened at that unit emits for
    /// the same records, with `open_cells` counting only the cells the
    /// open unit touched. The schedule keeps rows, lets them go and
    /// keeps them again.
    #[test]
    fn kept_rows_close_as_a_fresh_ingestor_does() {
        let (mut kept, mut let_go) = (0, 0);
        for (name, ing) in [("identity", ingestor()), ("walk", rollup_ingestor())] {
            for seed in 0..40u64 {
                let mut rng = Rng(seed);
                let (mut packed, mut bucketed) = (ing.clone(), ing.clone());
                let mut population: Vec<[u32; 2]> = Vec::new();
                for unit in 0..24i64 {
                    // Most units keep the population; others add, drop
                    // or swap cells, or replace it.
                    match rng.below(7) {
                        0 if population.len() < 12 => {
                            population.push([rng.below(4) as u32, rng.below(4) as u32]);
                        }
                        1 if !population.is_empty() => {
                            population.remove(rng.below(population.len() as u64) as usize);
                        }
                        2 if !population.is_empty() => {
                            let at = rng.below(population.len() as u64) as usize;
                            population[at] = [rng.below(4) as u32, rng.below(4) as u32];
                        }
                        3 => {
                            for ids in &mut population {
                                *ids = [rng.below(4) as u32, rng.below(4) as u32];
                            }
                        }
                        _ => {}
                    }
                    let (first, _) = packed.open_window();
                    let mut records = Vec::new();
                    for ids in &population {
                        for _ in 0..1 + rng.below(3) {
                            let tick = first + rng.below(4) as i64;
                            let value = if rng.below(8) == 0 {
                                hostile(&mut rng)
                            } else {
                                rng.below(100) as f64 / 8.0
                            };
                            let record = RawRecord::new(ids.to_vec(), tick, value);
                            records.push(ing.packer().pack(&record).unwrap());
                        }
                    }
                    for i in (1..records.len()).rev() {
                        records.swap(i, rng.below(i as u64 + 1) as usize);
                    }

                    let mut fresh = ing.clone();
                    fresh.set_open_unit(unit);
                    for record in &records {
                        packed.ingest_packed(record).unwrap();
                        fresh.ingest_packed(record).unwrap();
                    }
                    bucketed.ingest_bucket(&records).unwrap();
                    let mut fresh_bucket = ing.clone();
                    fresh_bucket.set_open_unit(unit);
                    fresh_bucket.ingest_bucket(&records).unwrap();
                    let at = format!("{name}: seed {seed} unit {unit}");
                    assert_eq!(packed.open_cells(), fresh.open_cells(), "{at}");
                    assert_eq!(bucketed.open_cells(), fresh.open_cells(), "{at}");
                    assert_eq!(close_bits(&mut packed).1, close_bits(&mut fresh).1, "{at}");
                    assert_eq!(
                        close_bits(&mut bucketed).1,
                        close_bits(&mut fresh_bucket).1,
                        "{at}"
                    );
                    assert_eq!(packed.open_cells(), 0, "{at}");
                    assert_eq!(packed.kept, bucketed.kept, "{at}");
                    if packed.kept > 0 {
                        kept += 1;
                    } else if !population.is_empty() {
                        let_go += 1;
                    }
                }
            }
        }
        assert!(kept > 500 && let_go > 200, "kept {kept}, let go {let_go}");
    }

    #[test]
    fn a_refused_bucket_leaves_the_unit_untouched() {
        let mut ing = ingestor();
        let pack = |ids: Vec<u32>, tick: i64| ing.packer().pack(&RawRecord::new(ids, tick, 1.0));
        let good = pack(vec![0, 0], 1).unwrap();
        let late = pack(vec![1, 1], 4).unwrap();
        let beyond = PackedRecord { key: 16, ..good };
        assert!(matches!(
            ing.ingest_bucket(&[good, late]),
            Err(StreamError::OutOfWindow { tick: 4, .. })
        ));
        assert!(matches!(
            ing.ingest_bucket(&[good, beyond]),
            Err(StreamError::BadRecord { .. })
        ));
        assert_eq!((ing.open_cells(), ing.records_seen()), (0, 0));
        ing.ingest_bucket(&[good, good]).unwrap();
        assert_eq!((ing.open_cells(), ing.records_seen()), (1, 2));
    }

    #[test]
    fn mtuple_conversion() {
        let mut ing = ingestor();
        ing.ingest(&RawRecord::new(vec![2, 1], 0, 1.0)).unwrap();
        let (_, cells) = ing.close_unit().unwrap();
        let tuples = Ingestor::to_mtuples(&cells);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].ids(), &[2, 1]);
    }
}
