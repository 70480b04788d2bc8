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
//! * **The columns are one [`TiltFrame`]**, whose measure is a column:
//!   promotion, expiry, amendment lookup and level ranges are the
//!   frame's, run once per column instead of once per cell. Merging a
//!   run of columns merges their fills once, then each row some
//!   constituent holds, through the same [`TimeMergeable::merge_run`] on
//!   the same operands in the same order as the cell's own frame would; a
//!   row outside every constituent's window would merge their fills,
//!   which is the merged column's fill. Pushing a unit appends one
//!   column, spanning the unit's active rows from the lowest to the
//!   highest. A unit either lands in every row or in none.
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
//! The family itself keeps only what concerns rows: the key → row
//! index, the windows, the per-row count of non-idle slots that decides
//! retirement, the remembered key sequence and the rollback of a failed
//! push. [`TiltFrame`] stays the single-cell structure of Section 4.2
//! too: what [`FamilySnapshot::frame`] hands out, the unit of checkpoint
//! encoding, and, as a map of one frame per cell, the bit-for-bit
//! oracle of the family (`tests/family_model.rs`).

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
    fn filled(fill: M, window: Range<usize>) -> Self
    where
        M: Clone,
    {
        Column {
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

/// A column as the measure of the family's frame: a clone is a
/// reference-count bump, and a merge is a promotion of every row.
type Col<M> = Arc<Column<M>>;

impl<M: TimeMergeable> TimeMergeable for Col<M> {
    /// Merges the fills once, then each row over the hull of the
    /// windows, oldest column first. A row outside every window is not
    /// merged: it reads the merged fill, the same `merge_run` over the
    /// same fills.
    fn merge_run(run: &[Self]) -> Result<Self> {
        let mut cells = Vec::with_capacity(run.len());
        let fill = merge_cells(&mut cells, run.iter().map(|column| &column.fill))?;
        let (lo, hi) = run
            .iter()
            .filter(|column| !column.rows.is_empty())
            .map(|column| column.window())
            .fold((usize::MAX, 0), |(lo, hi), w| {
                (lo.min(w.start), hi.max(w.end))
            });
        let mut rows = Vec::with_capacity(hi.saturating_sub(lo));
        for row in lo..hi {
            rows.push(merge_cells(
                &mut cells,
                run.iter().map(|column| column.get(row)),
            )?);
        }
        Ok(Arc::new(Column {
            fill,
            lo: if rows.is_empty() { 0 } else { lo },
            rows,
        }))
    }

    /// Every row of a column spans what its fill spans.
    fn continues(&self, next: &Self) -> bool {
        self.fill.continues(&next.fill)
    }
}

/// One immutable generation of a [`FrameFamily`]: the layer's clock,
/// its key → row index and its columns, all shared by reference count.
/// Cloning allocates one `Vec` of slots (a unit and an `Arc` each) and
/// copies no measure, which is what makes it the value a published
/// snapshot holds.
#[derive(Debug)]
pub struct FamilySnapshot<K, M, S = RandomState> {
    index: Arc<HashMap<K, usize, S>>,
    /// The layer's one frame: a column per retained slot, in timeline
    /// order (coarsest level first, oldest first within a level).
    frame: TiltFrame<Col<M>>,
    /// Where each level's columns lie in the frame
    /// ([`TiltFrame::edges`]), recorded whenever the clock advances, so
    /// a read finds a level without deriving the ladder's shape.
    edges: Arc<[usize]>,
}

impl<K, M, S> Clone for FamilySnapshot<K, M, S> {
    fn clone(&self) -> Self {
        FamilySnapshot {
            index: Arc::clone(&self.index),
            frame: self.frame.clone(),
            edges: Arc::clone(&self.edges),
        }
    }
}

impl<K, M, S> FamilySnapshot<K, M, S> {
    /// The specification every frame of the family follows.
    #[inline]
    pub fn spec(&self) -> &TiltSpec {
        self.frame.spec()
    }

    /// The family's clock: the finest-unit index the next push covers,
    /// and [`TiltFrame::next_unit`] of every frame it holds.
    #[inline]
    pub fn next_unit(&self) -> u64 {
        self.frame.next_unit()
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
        self.frame.retained_slots()
    }

    /// The rows each retained column holds, in timeline order; every row
    /// outside a column's window reads its fill. A probe of the layout.
    #[doc(hidden)]
    pub fn held_windows(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.frame
            .history()
            .iter()
            .map(|slot| slot.measure.window())
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
        self.frame.stats().expired_units
    }

    fn ladder_of(&self, row: usize) -> Ladder<'_, M> {
        Ladder {
            frame: &self.frame,
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
        M: Clone,
    {
        self.ladder(key).map(|ladder| ladder.to_frame())
    }
}

/// One row of a family read in place: the slots of one cell's frame,
/// gathered from the columns on demand.
#[derive(Debug)]
pub struct Ladder<'a, M> {
    frame: &'a TiltFrame<Col<M>>,
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
        self.frame.spec()
    }

    fn level_slots(&self, range: Range<usize>) -> LevelSlots<'a, M> {
        LevelSlots {
            slots: &self.frame.history()[range],
            row: self.row,
        }
    }

    /// Slots at `level`, oldest first — [`TiltFrame::slots`].
    ///
    /// # Errors
    /// [`TiltError::UnknownLevel`] for an out-of-range level.
    pub fn slots(&self, level: usize) -> Result<LevelSlots<'a, M>> {
        let count = self.spec().num_levels();
        if level >= count {
            return Err(TiltError::UnknownLevel { level, count });
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
        M: Clone,
    {
        self.frame.map(|column| column.get(self.row).clone())
    }
}

/// The slots one row holds at one level, oldest first.
#[derive(Debug)]
pub struct LevelSlots<'a, M> {
    slots: &'a [TiltSlot<Col<M>>],
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
        self.slots.len()
    }

    /// Whether the level retains no slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `idx`-th oldest slot as `(unit at the level, measure)`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<(u64, &'a M)> {
        let slot = self.slots.get(idx)?;
        Some((slot.unit, slot.measure.get(self.row)))
    }

    /// Where the slot of `unit` sits, if the level retains it. A
    /// level's slots are consecutive units, so this is arithmetic.
    pub fn position(&self, unit: u64) -> Option<usize> {
        let first = self.slots.first()?.unit;
        let idx = usize::try_from(unit.checked_sub(first)?).ok()?;
        (idx < self.slots.len()).then_some(idx)
    }

    /// `(unit at the level, measure)` of every slot, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &'a M)> + ExactSizeIterator + 'a {
        let row = self.row;
        self.slots
            .iter()
            .map(move |slot| (slot.unit, slot.measure.get(row)))
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
}

impl<K, M, S> Deref for FrameFamily<K, M, S> {
    type Target = FamilySnapshot<K, M, S>;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.current
    }
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
        let frame = never_active.map(|fill| {
            debug_assert!(idle(fill), "a never-active frame holds idle fills");
            Arc::new(Column::filled(fill.clone(), 0..0))
        });
        let mut edges = vec![0; frame.spec().num_levels() + 1];
        frame.edges(&mut edges);
        FrameFamily {
            current: FamilySnapshot {
                index: Arc::new(HashMap::with_capacity_and_hasher(rows, S::default())),
                frame,
                edges: edges.into(),
            },
            idle,
            rows: Vec::with_capacity(rows),
            free: Vec::new(),
            sequence: Vec::new(),
            cells: Vec::new(),
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
    /// frame is held to `never_active`'s, slot unit by slot unit: a frame
    /// from another clock cannot join, however valid for its own.
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
        let next_unit = never_active.next_unit();
        let current = &mut family.current;
        let index = Arc::get_mut(&mut current.index).expect("not shared yet");
        let mut columns: Vec<(u64, &mut Column<M>)> = Vec::new();
        for slot in current.frame.history_mut() {
            columns.push((
                slot.unit,
                Arc::get_mut(&mut slot.measure).expect("not shared yet"),
            ));
        }
        for (key, slots) in frames {
            let mut slots = slots.into_iter();
            let mut busy = 0;
            for (unit, column) in &mut columns {
                match slots.next() {
                    Some(slot) if slot.unit == *unit => {
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
                            slot.unit, unit
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
        for (_, column) in columns {
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
    ///   not continue the family's newest slot, or a key is listed twice.
    /// * Merge errors from promotion.
    pub fn push_unit<'a, I>(&mut self, fill: M, active: I) -> Result<()>
    where
        K: 'a,
        I: IntoIterator<Item = (&'a K, M)>,
    {
        let known_rows = self.rows.len();
        let mut added: Vec<&'a K> = Vec::new();
        let column = self.unit_column(fill, active, &mut added);
        let (rows, idle) = (&mut self.rows, self.idle);
        let gone = |slot: TiltSlot<Col<M>>| forget_column(rows, &slot.measure, idle);
        if let Err(e) = column.and_then(|column| self.current.frame.push_with(column, gone)) {
            // Take back the rows handed to new keys; nothing else has
            // been written.
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
            return Err(e);
        }
        self.commit_unit();
        Ok(())
    }

    /// Resolves the unit's rows and builds its column, the fill over the
    /// active rows' span with their measures written over it, without
    /// touching a retained one. Keys registered on the way are listed in
    /// `added` for [`push_unit`](Self::push_unit) to take back on failure.
    fn unit_column<'a, I>(&mut self, fill: M, active: I, added: &mut Vec<&'a K>) -> Result<Col<M>>
    where
        K: 'a,
        I: IntoIterator<Item = (&'a K, M)>,
    {
        debug_assert!((self.idle)(&fill), "the fill of a unit must be idle");
        let unit = self.current.next_unit();
        let pushed = unit + 1;
        let out_of_order = |what: &str| TiltError::OutOfOrder {
            detail: format!("finest unit {unit}: {what}"),
        };
        // One clock, one check: every cell of the newest column, at
        // whatever level it sits, spans what its fill spans.
        let newest_fill = self
            .current
            .frame
            .history()
            .last()
            .map(|newest| newest.measure.fill.clone());
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
        let mut column = Column::filled(fill, lo..hi);
        for (row, measure) in &self.cells {
            column.rows[row - column.lo] = measure.clone();
        }
        Ok(Arc::new(column))
    }

    /// Settles what follows from a pushed unit: its column's busy
    /// counts, the level edges, retirement.
    fn commit_unit(&mut self) {
        let idle = self.idle;
        let current = &mut self.current;
        let rows = &mut self.rows;
        let newest = &current.frame.history().last().expect("just pushed").measure;
        for (state, measure) in rows[newest.window()].iter_mut().zip(&newest.rows) {
            state.busy += u32::from(!idle(measure));
        }
        current.frame.edges(Arc::make_mut(&mut current.edges));

        // A row silent in this unit and idle end to end holds nothing
        // the fills cannot reproduce: retire it, so transient cells do
        // not pin a key and a row forever.
        let pushed = current.frame.next_unit();
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
                for slot in self.current.frame.history_mut() {
                    if slot.measure.window().contains(&row) {
                        let column = Arc::make_mut(&mut slot.measure);
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
        let found = self.current.frame.locate(fine_unit)?;
        let (row, _) = self.assign_row(key);
        let Some((level, slot_unit, at)) = found else {
            return Ok(AmendOutcome::Expired);
        };
        let column = &mut self.current.frame.history_mut()[at].measure;
        let old = column.get(row);
        let new = f(old)?;
        let state = &mut self.rows[row];
        state.busy -= u32::from(!(self.idle)(old));
        state.busy += u32::from(!(self.idle)(&new));
        *Arc::make_mut(column).widen_to(row) = new;
        Ok(AmendOutcome::Amended { level, slot_unit })
    }
}

/// Takes a column that leaves the family out of the busy counts.
fn forget_column<M>(rows: &mut [RowState], column: &Column<M>, idle: fn(&M) -> bool) {
    for (state, measure) in rows[column.window()].iter_mut().zip(&column.rows) {
        state.busy -= u32::from(!idle(measure));
    }
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
