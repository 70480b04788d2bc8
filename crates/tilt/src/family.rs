//! Frame families: every tilt frame of one layer, stored slot-major.
//!
//! The paper registers all cells of a layer under *one* tilt time frame
//! (Section 4.2, Figure 4), and "regression always keeps up to the most
//! recent granularity time unit at each layer" (Section 4.5): the frames
//! of a layer advance on one clock and have one shape. A
//! [`FrameFamily`] stores them that way — not one [`TiltFrame`] per
//! cell, but one **column** per retained slot of the shared ladder,
//! holding that slot's measure for every cell. A column holds a
//! **window** of rows, `lo..lo + len`; every row outside it reads the
//! column's fill:
//!
//! ```text
//!              timeline order: coarsest level first, oldest first
//!            ┌────────┬────────┬────────┬────────┬────────┬────────┐
//!  columns   │ day  0 │ hour 24│ hour 25│ qtr 104│ qtr 105│ qtr 106│   one Arc each
//!            ├────────┼────────┼────────┼────────┼────────┼────────┤
//!  fill      │   ∅    │   ∅    │   ∅    │   ∅    │   ∅    │   ∅    │   a never-active cell
//!  row 0     │   m    │   m    │   m    │        │        │   m    │
//!  row 1     │   m    │   m    │   m    │   m    │        │   m    │   absent = fill,
//!  row 2     │        │        │        │   m    │   m    │        │   before `lo` or past
//!  row 3     │        │        │        │        │   m    │        │   the window's end
//!            └────────┴────────┴────────┴────────┴────────┴────────┘
//!  index     key → row, behind one Arc
//! ```
//!
//! * **Pushing a unit** appends one column, spanning the unit's active
//!   rows from the lowest to the highest, and carries promotions
//!   exactly as [`TiltFrame::push`] does, row by row through the same
//!   [`TimeMergeable::merge_run`] on the same operands in the same
//!   order. A promotion merges only the rows some constituent holds; a
//!   row outside every constituent's window would merge their fills,
//!   which is the merged column's fill. A unit either lands in every
//!   row or in none.
//! * **A column costs the rows its slot saw.** Rows are numbered by
//!   first arrival, so cells that start reporting together sit next to
//!   each other and a unit in which a rotating block reports holds that
//!   block. Activity scattered over the layer spans it: the window is
//!   then every row, never more.
//! * **Every frame is back-filled from the epoch**, which is why
//!   lockstep holds: a cell first seen at unit `u` reads, in every
//!   column written before it had a row, that column's `fill` — what a
//!   frame that only ever took idle fills holds in that slot. By
//!   induction over pushes (same `merge_run`, same inputs) that is what
//!   replaying `u` fills through an empty [`TiltFrame`] produces, so a
//!   new cell costs one index entry and no merge at all.
//! * **A snapshot shares, a write copies one column.** A
//!   [`FamilySnapshot`] is a `Vec` of `Arc` bumps plus the index `Arc`;
//!   a column no promotion touched is the same allocation in
//!   consecutive generations. Writers go through [`Arc::make_mut`]: a
//!   late amendment copies at most the column it lands in, a new key
//!   copies the index only while a snapshot still shares it.
//!
//! [`TiltFrame`] stays the single-cell structure of Section 4.2: what
//! [`FamilySnapshot::frame`] hands out, the unit of checkpoint
//! encoding, and the bit-for-bit oracle of the family
//! (`tests/family_model.rs`).

use crate::error::TiltError;
use crate::frame::{AmendOutcome, TiltFrame, TiltSlot};
use crate::mergeable::TimeMergeable;
use crate::scale::TiltSpec;
use crate::Result;
use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// One slot of the shared ladder, for every row of the family.
#[derive(Debug, Clone)]
struct Column<M> {
    /// The slot's unit index at its level.
    unit: u64,
    /// What a row that was never active in the slot holds.
    fill: M,
    /// The first row of the window `rows` holds (`0` when it is empty).
    lo: usize,
    /// Measures of rows `lo..lo + rows.len()`; every other row reads as
    /// `fill`.
    rows: Vec<M>,
}

impl<M> Column<M> {
    /// A column of `fill` over `window`: an empty window holds no row.
    fn filled(unit: u64, fill: M, window: Range<usize>) -> Self
    where
        M: Clone,
    {
        Column {
            unit,
            rows: vec![fill.clone(); window.len()],
            lo: if window.is_empty() { 0 } else { window.start },
            fill,
        }
    }

    #[inline]
    fn get(&self, row: usize) -> &M {
        // A row before `lo` wraps past every window's end.
        self.rows
            .get(row.wrapping_sub(self.lo))
            .unwrap_or(&self.fill)
    }

    /// The rows the column holds.
    #[inline]
    fn window(&self) -> Range<usize> {
        self.lo..self.lo + self.rows.len()
    }

    /// The held measure of `row`, the window first widened to it with
    /// fills.
    fn widen_to(&mut self, row: usize) -> &mut M
    where
        M: Clone,
    {
        if self.rows.is_empty() {
            self.lo = row;
        } else if row < self.lo {
            let lead = std::iter::repeat(self.fill.clone()).take(self.lo - row);
            self.rows.splice(0..0, lead);
            self.lo = row;
        }
        if row >= self.lo + self.rows.len() {
            self.rows.resize(row + 1 - self.lo, self.fill.clone());
        }
        &mut self.rows[row - self.lo]
    }
}

/// One immutable generation of a [`FrameFamily`]: the layer's clock,
/// its key → row index and its columns, all shared by reference count.
/// Cloning allocates one `Vec` of pointers and copies no measure, which
/// is what makes it the value a published snapshot holds.
#[derive(Debug)]
pub struct FamilySnapshot<K, M, S = RandomState> {
    spec: TiltSpec,
    next_unit: u64,
    index: Arc<HashMap<K, usize, S>>,
    /// Every retained slot in timeline order (coarsest level first,
    /// oldest first within a level) — the order of
    /// [`TiltFrame::history`].
    columns: Vec<Arc<Column<M>>>,
    /// Where each level's slots lie in `columns`: level `l` holds
    /// `edges[l + 1]..edges[l]`, so `edges[0]` is the column count and
    /// the last edge is `0`. Recorded whenever the clock advances, so a
    /// read finds a level without deriving the ladder's shape.
    edges: Arc<[usize]>,
}

impl<K, M, S> Clone for FamilySnapshot<K, M, S> {
    fn clone(&self) -> Self {
        FamilySnapshot {
            spec: self.spec.clone(),
            next_unit: self.next_unit,
            index: Arc::clone(&self.index),
            columns: self.columns.clone(),
            edges: Arc::clone(&self.edges),
        }
    }
}

impl<K, M, S> FamilySnapshot<K, M, S> {
    /// The specification every frame of the family follows.
    #[inline]
    pub fn spec(&self) -> &TiltSpec {
        &self.spec
    }

    /// The family's clock: the finest-unit index the next push covers,
    /// and [`TiltFrame::next_unit`] of every frame it holds.
    #[inline]
    pub fn next_unit(&self) -> u64 {
        self.next_unit
    }

    /// Number of cells that have a frame.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no cell has a frame (the clock may still have advanced).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Slots every frame of the family retains.
    #[inline]
    pub fn retained_slots(&self) -> usize {
        self.columns.len()
    }

    /// The rows each retained column holds, in timeline order; every row
    /// outside a column's window reads its fill. A probe of the layout.
    #[doc(hidden)]
    pub fn held_windows(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.columns.iter().map(|column| column.window())
    }

    /// The rows all retained columns hold together: the sum of
    /// [`held_windows`](Self::held_windows)' lengths.
    #[doc(hidden)]
    pub fn held_rows(&self) -> usize {
        self.held_windows().map(|window| window.len()).sum()
    }

    /// Finest units that have aged out of the coarsest level — a
    /// function of the spec and the clock, the same for every frame.
    pub fn expired_units(&self) -> u64 {
        self.spec.expired_units(self.next_unit)
    }

    /// The retained slot covering finest unit `fine_unit`, as `(level,
    /// slot unit at that level, column)`; `None` once it has aged out.
    /// Levels cover disjoint spans, so at most one slot holds the unit.
    fn locate(&self, fine_unit: u64) -> Option<(usize, u64, usize)> {
        let mut end = self.columns.len();
        for (level, shape) in self.spec.shape(self.next_unit).enumerate() {
            let start = end - shape.len;
            let first = shape.completed - shape.len as u64;
            let slot_unit = fine_unit / shape.per;
            if (first..shape.completed).contains(&slot_unit) {
                return Some((level, slot_unit, start + (slot_unit - first) as usize));
            }
            end = start;
        }
        None
    }

    fn ladder_of(&self, row: usize) -> Ladder<'_, M> {
        Ladder {
            spec: &self.spec,
            next_unit: self.next_unit,
            columns: &self.columns,
            edges: &self.edges,
            row,
        }
    }

    /// Every cell with a frame, in no particular order.
    pub fn ladders(&self) -> impl Iterator<Item = (&K, Ladder<'_, M>)> + '_ {
        self.index
            .iter()
            .map(|(key, &row)| (key, self.ladder_of(row)))
    }
}

impl<K: Hash + Eq, M, S: BuildHasher> FamilySnapshot<K, M, S> {
    /// Read access to one cell's frame, without materialising it.
    pub fn ladder<Q>(&self, key: &Q) -> Option<Ladder<'_, M>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).map(|&row| self.ladder_of(row))
    }

    /// One cell's frame as the paper's single-cell structure, owned:
    /// bit for bit the [`TiltFrame`] that took the cell's measures (and
    /// an idle fill for every unit it was silent, from the epoch on)
    /// one push at a time.
    pub fn frame<Q>(&self, key: &Q) -> Option<TiltFrame<M>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        M: TimeMergeable,
    {
        self.ladder(key).map(|ladder| ladder.to_frame())
    }
}

/// One row of a family read in place: the slots of one cell's frame,
/// gathered from the columns on demand.
#[derive(Debug)]
pub struct Ladder<'a, M> {
    spec: &'a TiltSpec,
    next_unit: u64,
    columns: &'a [Arc<Column<M>>],
    edges: &'a [usize],
    row: usize,
}

impl<M> Clone for Ladder<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Ladder<'_, M> {}

impl<'a, M> Ladder<'a, M> {
    /// The specification the frame follows.
    #[inline]
    pub fn spec(&self) -> &'a TiltSpec {
        self.spec
    }

    fn level_slots(&self, range: Range<usize>) -> LevelSlots<'a, M> {
        LevelSlots {
            columns: &self.columns[range],
            row: self.row,
        }
    }

    /// Slots at `level`, oldest first — [`TiltFrame::slots`].
    ///
    /// # Errors
    /// [`TiltError::UnknownLevel`] for an out-of-range level.
    pub fn slots(&self, level: usize) -> Result<LevelSlots<'a, M>> {
        if level >= self.spec.num_levels() {
            return Err(TiltError::UnknownLevel {
                level,
                count: self.spec.num_levels(),
            });
        }
        Ok(self.level_slots(self.edges[level + 1]..self.edges[level]))
    }

    /// Every level's slots, finest level first — [`TiltFrame::levels`].
    /// The levels run from the columns' tail to their head; reversed,
    /// they walk the ladder coarsest level first.
    pub fn levels(
        &self,
    ) -> impl DoubleEndedIterator<Item = LevelSlots<'a, M>> + ExactSizeIterator + 'a {
        let ladder = *self;
        self.edges
            .windows(2)
            .map(move |edge| ladder.level_slots(edge[1]..edge[0]))
    }

    /// Every retained slot as `(level, unit at that level, measure)`,
    /// oldest → newest — [`TiltFrame::timeline`].
    pub fn timeline(&self) -> Vec<(usize, u64, &'a M)> {
        let mut out: Vec<(usize, u64, &'a M)> = self
            .levels()
            .enumerate()
            .flat_map(|(level, slots)| slots.iter().rev().map(move |(unit, m)| (level, unit, m)))
            .collect();
        out.reverse();
        out
    }

    /// The row as an owned [`TiltFrame`].
    pub fn to_frame(&self) -> TiltFrame<M>
    where
        M: TimeMergeable,
    {
        let slots = self
            .columns
            .iter()
            .map(|column| TiltSlot {
                unit: column.unit,
                measure: column.get(self.row).clone(),
            })
            .collect();
        TiltFrame::from_parts(
            self.spec.clone(),
            slots,
            self.next_unit,
            self.spec.expired_units(self.next_unit),
        )
        .expect("a family's columns follow the shape of its spec and clock")
    }
}

/// The slots one row holds at one level, oldest first.
#[derive(Debug)]
pub struct LevelSlots<'a, M> {
    columns: &'a [Arc<Column<M>>],
    row: usize,
}

impl<M> Clone for LevelSlots<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for LevelSlots<'_, M> {}

impl<'a, M> LevelSlots<'a, M> {
    /// Slots retained at the level.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the level retains no slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The `idx`-th oldest slot as `(unit at the level, measure)`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<(u64, &'a M)> {
        let column = self.columns.get(idx)?;
        Some((column.unit, column.get(self.row)))
    }

    /// Where the slot of `unit` sits, if the level retains it. A
    /// level's slots are consecutive units, so this is arithmetic.
    pub fn position(&self, unit: u64) -> Option<usize> {
        let first = self.columns.first()?.unit;
        let idx = usize::try_from(unit.checked_sub(first)?).ok()?;
        (idx < self.columns.len()).then_some(idx)
    }

    /// `(unit at the level, measure)` of every slot, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &'a M)> + ExactSizeIterator + 'a {
        let row = self.row;
        self.columns
            .iter()
            .map(move |column| (column.unit, column.get(row)))
    }
}

/// What the writer knows about a row beyond its cells.
#[derive(Debug, Clone, Copy)]
struct RowState {
    /// Retained slots in which the row holds a non-idle measure.
    busy: u32,
    /// The clock after the last unit the row was active in; `0` for
    /// never, [`FREE`] for a row on the free list.
    active_at: u64,
}

/// [`RowState::active_at`] of a row no key maps to.
const FREE: u64 = u64::MAX;

/// The tilt frames of one layer: one clock, one ladder, one column per
/// retained slot (see the [module docs](self)). This is the writer's
/// side; [`snapshot`](Self::snapshot) hands out the shareable,
/// immutable [`FamilySnapshot`], which it also dereferences to for
/// reads.
///
/// `idle` says whether a measure carries no usage. Every `fill` given to
/// [`push_unit`](Self::push_unit) must be idle, and merging idle
/// measures must give an idle one (for [`regcube_regress::Isb`]: a zero
/// base and slope). A cell whose every retained slot is idle **retires**
/// in the first unit it is silent in — its frame holds nothing the fills
/// cannot reproduce — and gets its frame back, identical to one replayed
/// from the epoch, when it returns.
#[derive(Debug)]
pub struct FrameFamily<K, M, S = RandomState> {
    current: FamilySnapshot<K, M, S>,
    idle: fn(&M) -> bool,
    /// By row, free rows included.
    rows: Vec<RowState>,
    /// Retired rows, handed out again before the family grows.
    free: Vec<usize>,
    /// The active keys of the last push, in its order, with their rows
    /// (see [`push_unit`](Self::push_unit)).
    sequence: Vec<(K, usize)>,
    /// The active cells of the unit being pushed (reused buffer).
    cells: Vec<(usize, M)>,
    /// The operands of one `merge_run` call (reused buffer).
    run: Vec<M>,
}

impl<K, M, S> Deref for FrameFamily<K, M, S> {
    type Target = FamilySnapshot<K, M, S>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.current
    }
}

/// What one unit does to the columns, built beside them.
struct BuiltUnit<M> {
    /// Columns `keep..` are consumed by promotion.
    keep: usize,
    /// The column that replaces them.
    carry: Column<M>,
    /// Whether the carry reached the coarsest level.
    reached_top: bool,
}

impl<K, M, S> FrameFamily<K, M, S>
where
    K: Hash + Eq + Clone,
    M: TimeMergeable,
    S: BuildHasher + Default + Clone,
{
    /// An empty family for `spec` at the epoch.
    pub fn new(spec: TiltSpec, idle: fn(&M) -> bool) -> Self {
        Self::empty_at(&TiltFrame::new(spec), idle, 0)
    }

    /// A family without keys at the clock of `never_active`, whose
    /// slots become the columns' fills.
    fn empty_at(never_active: &TiltFrame<M>, idle: fn(&M) -> bool, rows: usize) -> Self {
        let columns = never_active
            .history()
            .iter()
            .map(|slot| {
                debug_assert!(idle(&slot.measure), "a never-active frame holds idle fills");
                Arc::new(Column::filled(slot.unit, slot.measure.clone(), 0..0))
            })
            .collect();
        let spec = never_active.spec();
        let mut edges = vec![0; spec.num_levels() + 1];
        level_edges(spec, never_active.next_unit(), &mut edges);
        FrameFamily {
            current: FamilySnapshot {
                spec: spec.clone(),
                next_unit: never_active.next_unit(),
                index: Arc::new(HashMap::with_capacity_and_hasher(rows, S::default())),
                columns,
                edges: edges.into(),
            },
            idle,
            rows: Vec::with_capacity(rows),
            free: Vec::new(),
            sequence: Vec::new(),
            cells: Vec::new(),
            run: Vec::new(),
        }
    }

    /// Rebuilds a family from captured frames — the restore seam. Each
    /// frame comes as its key and its retained slots in timeline order,
    /// as [`TiltFrame::history`] reports them. A capture carries frames,
    /// not fills, so the caller supplies `never_active`: the frame of a
    /// cell that only ever took idle fills
    /// ([`TiltFrame::backfilled`]). Its spec and clock are the family's
    /// and its slots are the columns' fills.
    ///
    /// A frame's shape is a function of the spec and the clock, so every
    /// frame is held to `never_active`'s, exactly as
    /// [`TiltFrame::from_parts`] would hold it: a frame from another
    /// clock cannot join, however valid for its own.
    ///
    /// Rows are numbered in the order the frames come. Each column holds
    /// the window from its first to its last row whose slot is not
    /// bit-identical to the column's fill; the rows outside it read the
    /// fill, as they would have held it.
    ///
    /// # Errors
    /// [`TiltError::BadSpec`], naming the key, for a frame with a slot
    /// too few or too many, a slot whose unit is not the one its
    /// position holds on the family's clock, and for a key listed twice.
    pub fn from_rows<I, R>(
        never_active: &TiltFrame<M>,
        idle: fn(&M) -> bool,
        frames: I,
    ) -> Result<Self>
    where
        K: std::fmt::Debug,
        I: IntoIterator<Item = (K, R)>,
        R: IntoIterator<Item = TiltSlot<M>>,
    {
        let frames = frames.into_iter();
        let listed = frames.size_hint().0;
        let mut family = Self::empty_at(never_active, idle, listed);
        let bad = |detail: String| Err(TiltError::BadSpec { detail });
        let current = &mut family.current;
        let next_unit = current.next_unit;
        let index = Arc::get_mut(&mut current.index).expect("not shared yet");
        let mut columns: Vec<&mut Column<M>> = current
            .columns
            .iter_mut()
            .map(|column| Arc::get_mut(column).expect("not shared yet"))
            .collect();
        for (key, slots) in frames {
            let mut slots = slots.into_iter();
            let mut busy = 0;
            for column in &mut columns {
                match slots.next() {
                    Some(slot) if slot.unit == column.unit => {
                        busy += u32::from(!idle(&slot.measure));
                        if !slot.measure.same_bits(&column.fill) {
                            // Rows come in order: the window grows at its
                            // end. Its first row reserves room for every
                            // row listed after it; the end gives back what
                            // the window did not take.
                            let row = family.rows.len();
                            if column.rows.is_empty() {
                                column.lo = row;
                                column.rows.reserve_exact(listed.saturating_sub(row));
                            }
                            column.rows.resize(row - column.lo, column.fill.clone());
                            column.rows.push(slot.measure);
                        }
                    }
                    Some(slot) => {
                        return bad(format!(
                            "the frame of {key:?} holds unit {} where unit {} belongs \
                             after {next_unit} ingested units",
                            slot.unit, column.unit
                        ));
                    }
                    None => {
                        return bad(format!(
                            "the frame of {key:?} holds too few slots for {next_unit} \
                             ingested units"
                        ));
                    }
                }
            }
            if slots.next().is_some() {
                return bad(format!(
                    "the frame of {key:?} holds more slots than {next_unit} ingested \
                     units retain"
                ));
            }
            match index.entry(key) {
                Entry::Occupied(held) => {
                    return bad(format!("the frame of {:?} is listed twice", held.key()));
                }
                Entry::Vacant(free) => free.insert(family.rows.len()),
            };
            family.rows.push(RowState { busy, active_at: 0 });
        }
        for column in columns {
            column.rows.shrink_to_fit();
        }
        Ok(family)
    }

    /// The current generation, shareable: a `Vec` of `Arc` bumps.
    pub fn snapshot(&self) -> FamilySnapshot<K, M, S> {
        self.current.clone()
    }

    /// Pushes the next finest unit into every frame of the family:
    /// `active` cells take their measure, every other cell takes `fill`,
    /// and promotion cascades as in [`TiltFrame::push`]. A key seen for
    /// the first time gets a frame back-filled from the epoch (see the
    /// [module docs](self)) at the cost of one index entry; cells left
    /// idle end to end retire.
    ///
    /// A population that reports every unit pushes the same key sequence
    /// again and again, so the family remembers the last push's active
    /// keys and their rows: a key equal to the one the last push listed
    /// at its position takes that row without probing the index. Only a
    /// key leaving the index can make a remembered row stale. A
    /// retirement never does: each push cuts the sequence to its own
    /// length, so a remembered key was active in the last push, and only
    /// rows silent in it retire. A rolled-back push, which takes its new
    /// keys out of the index, forgets the sequence.
    ///
    /// The push is all-or-nothing: every new column is built before
    /// anything is committed, so a failed push leaves the family as it
    /// was and the next valid unit pushes normally.
    ///
    /// # Errors
    /// * [`TiltError::OutOfOrder`] when `fill` or an active measure does
    ///   not continue the family's newest finest slot, or a key is
    ///   listed twice.
    /// * Merge errors from promotion.
    pub fn push_unit<'a, I>(&mut self, fill: M, active: I) -> Result<()>
    where
        K: 'a,
        I: IntoIterator<Item = (&'a K, M)>,
    {
        let known_rows = self.rows.len();
        let mut added: Vec<&'a K> = Vec::new();
        match self.build_unit(fill, active, &mut added) {
            Ok(built) => {
                self.commit_unit(built);
                Ok(())
            }
            Err(e) => {
                // Take back the rows handed to new keys; nothing else
                // has been written.
                for (row, _) in self.cells.drain(..) {
                    self.rows[row].active_at = 0;
                }
                self.sequence.clear();
                if !added.is_empty() {
                    let index = Arc::make_mut(&mut self.current.index);
                    for key in added.into_iter().rev() {
                        let row = index.remove(key).expect("added by this push");
                        if row < known_rows {
                            self.rows[row].active_at = FREE;
                            self.free.push(row);
                        }
                    }
                    self.rows.truncate(known_rows);
                }
                Err(e)
            }
        }
    }

    /// Resolves the unit's rows and builds its columns without touching
    /// a retained one. Keys registered on the way are listed in `added`
    /// for [`push_unit`](Self::push_unit) to take back on failure.
    fn build_unit<'a, I>(
        &mut self,
        fill: M,
        active: I,
        added: &mut Vec<&'a K>,
    ) -> Result<BuiltUnit<M>>
    where
        K: 'a,
        I: IntoIterator<Item = (&'a K, M)>,
    {
        debug_assert!((self.idle)(&fill), "the fill of a unit must be idle");
        let pushed = self.current.next_unit + 1;
        let out_of_order = |what: &str| TiltError::OutOfOrder {
            detail: format!("finest unit {}: {what}", pushed - 1),
        };
        // One clock, one check: every cell of the newest finest column
        // spans what its fill spans.
        let finest = self
            .current
            .spec
            .shape(self.current.next_unit)
            .next()
            .expect("a spec has at least one level");
        let newest_fill = self
            .current
            .columns
            .last()
            .filter(|_| finest.len > 0)
            .map(|newest| newest.fill.clone());
        let continues = |measure: &M| newest_fill.as_ref().map_or(true, |f| f.continues(measure));
        if !continues(&fill) {
            return Err(out_of_order("the fill does not continue the family"));
        }

        self.cells.clear();
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (at, (key, measure)) in active.into_iter().enumerate() {
            if !continues(&measure) {
                return Err(out_of_order("a measure does not continue the family"));
            }
            let row = match self.sequence.get(at) {
                Some((last, row)) if last == key => *row,
                _ => {
                    let (row, new) = self.assign_row(key);
                    if new {
                        added.push(key);
                    }
                    let entry = (key.clone(), row);
                    match self.sequence.get_mut(at) {
                        Some(slot) => *slot = entry,
                        None => self.sequence.push(entry),
                    }
                    row
                }
            };
            if self.rows[row].active_at == pushed {
                return Err(out_of_order("a key is active twice in one unit"));
            }
            self.rows[row].active_at = pushed;
            lo = lo.min(row);
            hi = hi.max(row + 1);
            self.cells.push((row, measure));
        }
        // Keys of the last push beyond this one's may go silent and
        // retire: they leave the sequence now.
        self.sequence.truncate(self.cells.len());
        // The new column spans the unit's active rows, lowest to highest.
        let mut carry = Column::filled(self.current.next_unit, fill, lo..hi);
        for (row, measure) in &self.cells {
            carry.rows[row - carry.lo] = measure.clone();
        }

        // Carry the new column up the ladder, as `TiltFrame::push`
        // carries a slot: every level its arrival completes is merged,
        // with the carried column as the run's newest member, into one
        // column of the next level.
        let columns = &self.current.columns;
        let levels = self.current.spec.levels();
        let top = levels.len() - 1;
        let mut keep = columns.len();
        let mut level = 0;
        let mut per = 1u64;
        while level < top {
            let group = levels[level].group;
            per = per.saturating_mul(group as u64);
            if pushed % per != 0 {
                break;
            }
            let start = keep - (group - 1);
            carry = merge_columns(&mut self.run, &columns[start..keep], &carry, group)?;
            keep = start;
            level += 1;
        }
        Ok(BuiltUnit {
            keep,
            carry,
            reached_top: level == top,
        })
    }

    /// Swaps the built columns in and settles what follows from them:
    /// the busy counts, the coarsest level's expiry, retirement.
    fn commit_unit(&mut self, built: BuiltUnit<M>) {
        let idle = self.idle;
        let current = &mut self.current;
        let rows = &mut self.rows;
        for column in current.columns.drain(built.keep..) {
            forget_column(rows, &column, idle);
        }
        for (state, measure) in rows[built.carry.window()].iter_mut().zip(&built.carry.rows) {
            state.busy += u32::from(!idle(measure));
        }
        current.columns.push(Arc::new(built.carry));
        current.next_unit += 1;
        // The coarsest level retains `group` slots and ages out its
        // oldest on overflow. When the carry reached it every finer
        // level is empty, so the columns are the coarsest level alone.
        let top_group = current.spec.levels()[current.spec.num_levels() - 1].group;
        if built.reached_top && current.columns.len() > top_group {
            forget_column(rows, &current.columns.remove(0), idle);
        }
        level_edges(
            &current.spec,
            current.next_unit,
            Arc::make_mut(&mut current.edges),
        );
        debug_assert_eq!(current.edges[0], current.columns.len());

        // A row silent in this unit and idle end to end holds nothing
        // the fills cannot reproduce: retire it, so transient cells do
        // not pin a key and a row forever.
        let pushed = current.next_unit;
        let mut retired = false;
        for (row, state) in rows.iter_mut().enumerate() {
            if state.busy == 0 && state.active_at != pushed && state.active_at != FREE {
                state.active_at = FREE;
                self.free.push(row);
                retired = true;
            }
        }
        if retired {
            Arc::make_mut(&mut current.index).retain(|_, row| rows[*row].active_at != FREE);
        }
    }

    /// The row of `key`, and whether it was assigned just now because
    /// the key had none: a retired row reset to the fills, else a new
    /// one past every column's end. Either way the row reads, in every
    /// retained slot, what a frame back-filled from the epoch holds
    /// there.
    fn assign_row(&mut self, key: &K) -> (usize, bool) {
        if let Some(&row) = self.current.index.get(key) {
            return (row, false);
        }
        let fresh = RowState {
            busy: 0,
            active_at: 0,
        };
        let row = match self.free.pop() {
            Some(row) => {
                for column in &mut self.current.columns {
                    if column.window().contains(&row) {
                        let column = Arc::make_mut(column);
                        column.rows[row - column.lo] = column.fill.clone();
                    }
                }
                self.rows[row] = fresh;
                row
            }
            None => {
                self.rows.push(fresh);
                self.rows.len() - 1
            }
        };
        Arc::make_mut(&mut self.current.index).insert(key.clone(), row);
        (row, true)
    }

    /// Amends the retained slot covering finest unit `fine_unit` of
    /// `key`'s frame in place — [`TiltFrame::amend_slot`] on one row. A
    /// key without a frame is given one first (back-filled from the
    /// epoch, so the amendment always has a slot to land in), also when
    /// the unit then turns out to have expired; left idle, that frame
    /// retires with the next unit. Only the column the amendment lands
    /// in is written, and copied first if a snapshot still shares it.
    ///
    /// # Errors
    /// * [`TiltError::OutOfOrder`] when `fine_unit` has not been pushed
    ///   yet; the family is unchanged then.
    /// * Whatever `f` returns.
    pub fn amend<F>(&mut self, key: &K, fine_unit: u64, f: F) -> Result<AmendOutcome>
    where
        F: FnOnce(&M) -> Result<M>,
    {
        if fine_unit >= self.current.next_unit {
            return Err(TiltError::OutOfOrder {
                detail: format!(
                    "cannot amend finest unit {fine_unit}: the family has only ingested {}",
                    self.current.next_unit
                ),
            });
        }
        let (row, _) = self.assign_row(key);
        let Some((level, slot_unit, at)) = self.current.locate(fine_unit) else {
            return Ok(AmendOutcome::Expired);
        };
        let column = &mut self.current.columns[at];
        let old = column.get(row);
        let new = f(old)?;
        let state = &mut self.rows[row];
        state.busy -= u32::from(!(self.idle)(old));
        state.busy += u32::from(!(self.idle)(&new));
        *Arc::make_mut(column).widen_to(row) = new;
        Ok(AmendOutcome::Amended { level, slot_unit })
    }
}

/// Writes [`FamilySnapshot::edges`] for a family of `spec` after
/// `next_unit` pushes: the levels' lengths, finest first, laid from the
/// columns' tail to their head.
fn level_edges(spec: &TiltSpec, next_unit: u64, edges: &mut [usize]) {
    let total: usize = spec.shape(next_unit).map(|shape| shape.len).sum();
    edges[0] = total;
    for (level, shape) in spec.shape(next_unit).enumerate() {
        edges[level + 1] = edges[level] - shape.len;
    }
}

/// Takes a column that leaves the family out of the busy counts.
fn forget_column<M>(rows: &mut [RowState], column: &Column<M>, idle: fn(&M) -> bool) {
    for (state, measure) in rows[column.window()].iter_mut().zip(&column.rows) {
        state.busy -= u32::from(!idle(measure));
    }
}

/// Merges the `group - 1` retained columns of a completed level and the
/// carried column — the run's newest member — into one column of the
/// next level, row by row over the union of their windows. A row outside
/// every window is not merged: it reads the merged fill, the same
/// `merge_run` over the same fills.
fn merge_columns<M: TimeMergeable>(
    run: &mut Vec<M>,
    older: &[Arc<Column<M>>],
    newest: &Column<M>,
    group: usize,
) -> Result<Column<M>> {
    let constituents = || older.iter().map(|column| &**column).chain([newest]);
    let fill = merge_cells(run, constituents().map(|column| &column.fill))?;
    let (lo, hi) = constituents()
        .filter(|column| !column.rows.is_empty())
        .map(|column| column.window())
        .fold((usize::MAX, 0), |(lo, hi), w| {
            (lo.min(w.start), hi.max(w.end))
        });
    let mut rows = Vec::with_capacity(hi.saturating_sub(lo));
    for row in lo..hi {
        rows.push(merge_cells(
            run,
            constituents().map(|column| column.get(row)),
        )?);
    }
    Ok(Column {
        unit: older[0].unit / group as u64,
        fill,
        lo: if rows.is_empty() { 0 } else { lo },
        rows,
    })
}

/// One `merge_run` over `cells`, oldest first, gathered into `run`.
fn merge_cells<'c, M: TimeMergeable + 'c>(
    run: &mut Vec<M>,
    cells: impl Iterator<Item = &'c M>,
) -> Result<M> {
    run.clear();
    run.extend(cells.cloned());
    M::merge_run(run)
}
