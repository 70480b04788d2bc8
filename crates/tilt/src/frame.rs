//! The tilt time frame proper: slots, ingestion, promotion, queries.

use crate::error::TiltError;
use crate::mergeable::TimeMergeable;
use crate::scale::TiltSpec;
use crate::Result;
use std::ops::Range;

/// One registered slot: a measure covering one unit of its level.
#[derive(Debug, Clone, PartialEq)]
pub struct TiltSlot<M> {
    /// Absolute unit index at this slot's level (unit 0 starts the epoch).
    pub unit: u64,
    /// The slot's measure.
    pub measure: M,
}

/// Where a late amendment landed inside a frame.
///
/// Returned by [`TiltFrame::amend_slot`]: the finest unit being corrected
/// may still sit at the finest level, may already have been promoted into a
/// coarser slot, or may have aged out of the frame entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmendOutcome {
    /// The amendment was applied to the retained slot covering the unit.
    Amended {
        /// Level index of the slot that absorbed the amendment.
        level: usize,
        /// The slot's unit index *at that level*.
        slot_unit: u64,
    },
    /// The unit has expired from the coarsest level; nothing to amend.
    Expired,
}

/// Occupancy and compression statistics of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiltStats {
    /// Slots currently held across all levels.
    pub retained_slots: usize,
    /// Maximum slots the spec can hold.
    pub capacity_slots: usize,
    /// Finest units ingested so far.
    pub ingested_units: u64,
    /// Finest units that have aged out of the coarsest level entirely.
    pub expired_units: u64,
}

/// A tilt time frame over measures of type `M`.
///
/// Push one measure per finest unit with [`TiltFrame::push`]; the frame
/// cascades promotions as coarser units complete and ages the oldest data
/// out of the coarsest level. All merge operations go through
/// [`TimeMergeable::merge_run`], so with ISB measures every slot at every
/// level holds the *exact* regression of its span (Section 4.5: "regression
/// always keeps up to the most recent granularity time unit at each
/// layer").
///
/// A frame is one heap block: every retained slot lives in a single
/// buffer in timeline order (coarsest level first, oldest first within a
/// level), and the [`TiltSpec`] is shared. How many slots each level
/// holds, and how many finest units have aged out, are functions of the
/// spec and [`next_unit`](Self::next_unit) (`TiltSpec::shape`), so they
/// are derived, not stored. A level only ever fills when every finer
/// level is empty, which puts the slots a promotion consumes at the
/// buffer's tail: promotion is truncate and push.
///
/// A [`FrameFamily`](crate::FrameFamily) is one of these too, whose
/// measure is a column of every cell's slot: this is the only promotion,
/// expiry and amendment lookup of the crate.
#[derive(Debug, Clone, PartialEq)]
pub struct TiltFrame<M> {
    spec: TiltSpec,
    /// Every retained slot, oldest → newest.
    slots: Vec<TiltSlot<M>>,
    next_unit: u64,
}

impl<M> TiltFrame<M> {
    /// Creates an empty frame for `spec`.
    pub fn new(spec: TiltSpec) -> Self {
        TiltFrame {
            spec,
            slots: Vec::new(),
            next_unit: 0,
        }
    }

    /// The frame's specification.
    #[inline]
    pub fn spec(&self) -> &TiltSpec {
        &self.spec
    }

    /// The finest-unit index the next [`push`](Self::push) must cover.
    #[inline]
    pub fn next_unit(&self) -> u64 {
        self.next_unit
    }

    /// Where each level's slots sit in the buffer, finest level first
    /// (so the ranges run from the buffer's tail to its head).
    fn level_ranges(&self) -> impl Iterator<Item = (Range<usize>, u64)> + '_ {
        let mut end = self.slots.len();
        self.spec.shape(self.next_unit).map(move |shape| {
            let start = end - shape.len;
            let range = start..end;
            end = start;
            (range, shape.per)
        })
    }

    /// Writes where each level's slots lie in [`history`](Self::history):
    /// level `l` holds `edges[l + 1]..edges[l]`, so `edges[0]` is the
    /// slot count and the last edge is `0`.
    pub(crate) fn edges(&self, edges: &mut [usize]) {
        edges[0] = self.slots.len();
        for (edge, (range, _)) in edges[1..].iter_mut().zip(self.level_ranges()) {
            *edge = range.start;
        }
    }

    /// Slots at `level`, oldest first.
    ///
    /// # Errors
    /// [`TiltError::UnknownLevel`] for an out-of-range level.
    pub fn slots(&self, level: usize) -> Result<&[TiltSlot<M>]> {
        match self.level_ranges().nth(level) {
            Some((range, _)) => Ok(&self.slots[range]),
            None => Err(TiltError::UnknownLevel {
                level,
                count: self.spec.num_levels(),
            }),
        }
    }

    /// Every level's slots (oldest first within a level), finest level
    /// first — [`slots`](Self::slots) for each level in turn, in one
    /// walk of the frame's shape.
    pub fn levels(&self) -> impl Iterator<Item = &[TiltSlot<M>]> + '_ {
        self.level_ranges().map(|(range, _)| &self.slots[range])
    }

    /// Every retained slot ordered oldest → newest (coarsest level
    /// first): [`timeline`](Self::timeline) without the level tags, and
    /// without allocating.
    #[inline]
    pub fn history(&self) -> &[TiltSlot<M>] {
        &self.slots
    }

    /// [`history`](Self::history), writable in place: the slots' units
    /// and the frame's shape stay the frame's.
    pub(crate) fn history_mut(&mut self) -> &mut [TiltSlot<M>] {
        &mut self.slots
    }

    /// The frame whose every slot holds `f` of this frame's: the same
    /// spec, clock and units.
    pub(crate) fn map<N>(&self, mut f: impl FnMut(&M) -> N) -> TiltFrame<N> {
        TiltFrame {
            spec: self.spec.clone(),
            slots: self
                .slots
                .iter()
                .map(|slot| TiltSlot {
                    unit: slot.unit,
                    measure: f(&slot.measure),
                })
                .collect(),
            next_unit: self.next_unit,
        }
    }

    /// The retained slot covering finest unit `fine_unit`: its level, its
    /// unit at that level and its index in [`history`](Self::history);
    /// `None` once it has aged out. Levels cover disjoint spans of
    /// consecutive units, so at most one slot holds the unit, and finding
    /// it is arithmetic. [`amend_slot`](Self::amend_slot) and
    /// `FrameFamily::amend` both look slots up here.
    ///
    /// # Errors
    /// [`TiltError::OutOfOrder`] when `fine_unit` has not been pushed
    /// yet: amendment never extends history.
    pub(crate) fn locate(&self, fine_unit: u64) -> Result<Option<(usize, u64, usize)>> {
        if fine_unit >= self.next_unit {
            return Err(TiltError::OutOfOrder {
                detail: format!(
                    "cannot amend finest unit {fine_unit}: frame has only ingested {}",
                    self.next_unit
                ),
            });
        }
        Ok(self
            .level_ranges()
            .enumerate()
            .find_map(|(level, (range, per))| {
                let slot_unit = fine_unit / per;
                let first = self.slots[range.clone()].first()?.unit;
                let at = usize::try_from(slot_unit.checked_sub(first)?).ok()?;
                (at < range.len()).then_some((level, slot_unit, range.start + at))
            }))
    }

    /// All retained measures ordered oldest → newest (coarsest level
    /// first), with their level index — the analyst's full observation
    /// deck.
    pub fn timeline(&self) -> Vec<(usize, &TiltSlot<M>)> {
        // The levels come finest first, from the buffer's tail: tag the
        // slots newest → oldest, then turn the deck around.
        let mut out: Vec<(usize, &TiltSlot<M>)> = self
            .level_ranges()
            .enumerate()
            .flat_map(|(level, (range, _))| {
                self.slots[range]
                    .iter()
                    .rev()
                    .map(move |slot| (level, slot))
            })
            .collect();
        out.reverse();
        out
    }

    /// Number of slots currently held.
    #[inline]
    pub fn retained_slots(&self) -> usize {
        self.slots.len()
    }

    /// Occupancy/compression statistics.
    pub fn stats(&self) -> TiltStats {
        TiltStats {
            retained_slots: self.retained_slots(),
            capacity_slots: self.spec.capacity_slots(),
            ingested_units: self.next_unit,
            expired_units: self.spec.expired_units(self.next_unit),
        }
    }
}

impl<M: TimeMergeable> TiltFrame<M> {
    /// The frame of a cell that took `fill_of(unit)` in every finest
    /// unit before `next_unit` — what pushing those measures one by one
    /// from the epoch leaves behind, bit for bit, at the cost of the
    /// retained span only. Whatever aged out of the coarsest level left
    /// no trace in a retained slot, and the oldest retained slot starts
    /// on a boundary of every level, so replaying from there merges the
    /// same runs in the same order.
    ///
    /// # Errors
    /// Whatever `fill_of` returns, and [`push`](Self::push) errors for
    /// fills that do not continue each other.
    pub fn backfilled(
        spec: TiltSpec,
        next_unit: u64,
        mut fill_of: impl FnMut(u64) -> Result<M>,
    ) -> Result<Self> {
        let expired_units = spec.expired_units(next_unit);
        let mut frame = TiltFrame::new(spec);
        for unit in expired_units..next_unit {
            frame.push(fill_of(unit)?)?;
        }
        // The replay's clock started at zero: move it, and every slot's
        // unit at its level, to where the replay really began.
        let ranges: Vec<(Range<usize>, u64)> = frame.level_ranges().collect();
        for (range, per) in ranges {
            for slot in &mut frame.slots[range] {
                slot.unit += expired_units / per;
            }
        }
        frame.next_unit = next_unit;
        Ok(frame)
    }

    /// Ingests the measure of the next finest unit and cascades promotion.
    ///
    /// The caller supplies measures in strict unit order; contiguity with
    /// the newest retained slot, at whatever level it sits, is validated
    /// through [`TimeMergeable::continues`]. A failed push leaves the
    /// frame as it was.
    ///
    /// # Errors
    /// * [`TiltError::OutOfOrder`] when the measure does not continue the
    ///   frame's newest slot.
    /// * Merge errors from promotion.
    pub fn push(&mut self, measure: M) -> Result<()> {
        self.push_with(measure, |_| {})
    }

    /// [`push`](Self::push), handing each slot the push consumes by
    /// promotion or ages out of the coarsest level to `gone`, once every
    /// merge has succeeded.
    pub(crate) fn push_with(
        &mut self,
        measure: M,
        mut gone: impl FnMut(TiltSlot<M>),
    ) -> Result<()> {
        if let Some(newest) = self.slots.last() {
            if !newest.measure.continues(&measure) {
                return Err(TiltError::OutOfOrder {
                    detail: format!("finest unit {} does not continue the frame", self.next_unit),
                });
            }
        }
        // Carry the new slot up the ladder: every level its arrival
        // completes is merged, with the carried slot as the run's newest
        // member, into one slot of the next level. The consumed slots
        // are the tail of the buffer beyond `keep`; nothing is written
        // until every merge has succeeded.
        let pushed = self.next_unit + 1;
        let levels = self.spec.levels();
        let top = levels.len() - 1;
        let mut carry = TiltSlot {
            unit: self.next_unit,
            measure,
        };
        let mut keep = self.slots.len();
        let mut level = 0;
        let mut per = 1u64;
        while level < top {
            let group = levels[level].group;
            per *= group as u64;
            if pushed % per != 0 {
                break;
            }
            let start = keep - (group - 1);
            let run: Vec<M> = self.slots[start..keep]
                .iter()
                .map(|s| s.measure.clone())
                .chain(std::iter::once(carry.measure))
                .collect();
            carry = TiltSlot {
                unit: self.slots[start].unit / group as u64,
                measure: M::merge_run(&run)?,
            };
            keep = start;
            level += 1;
        }
        self.slots.drain(keep..).for_each(&mut gone);
        self.slots.push(carry);
        self.next_unit = pushed;
        // The coarsest level retains `group` slots and ages out its
        // oldest on overflow: the frame deliberately forgets the distant
        // past. When the carry reached it every finer level is empty,
        // so the buffer is the coarsest level alone.
        if level == top && self.slots.len() > levels[top].group {
            gone(self.slots.remove(0));
        }
        Ok(())
    }

    /// Amends the retained slot covering finest unit `fine_unit` in place.
    ///
    /// Tilt promotion merges contiguous segments (Theorem 3.3), and the
    /// merged measure is a *function of its constituents* — so a correction
    /// to one finest unit can be folded into whichever slot that unit lives
    /// in today, whether it is still at the finest level or already
    /// promoted into an hour/day/month slot. `f` receives the current slot
    /// measure and returns the corrected one (for ISB measures, typically
    /// [`regcube_regress::Isb::amend_tick`] — exact by linearity of the
    /// LSE fit).
    ///
    /// Every level covers a disjoint span of finest units, so the unit is
    /// found in at most one slot. Units that have aged out of the coarsest
    /// level return [`AmendOutcome::Expired`] without calling `f`.
    ///
    /// # Errors
    /// * [`TiltError::OutOfOrder`] when `fine_unit` has not been pushed
    ///   yet (`fine_unit >= next_unit`) — amendment never extends history.
    /// * Whatever `f` returns.
    pub fn amend_slot<F>(&mut self, fine_unit: u64, f: F) -> Result<AmendOutcome>
    where
        F: FnOnce(&M) -> Result<M>,
    {
        let Some((level, slot_unit, at)) = self.locate(fine_unit)? else {
            return Ok(AmendOutcome::Expired);
        };
        let slot = &mut self.slots[at];
        slot.measure = f(&slot.measure)?;
        Ok(AmendOutcome::Amended { level, slot_unit })
    }

    /// Merges a non-empty run of retained slots into one measure.
    fn merge_slots(run: &[TiltSlot<M>]) -> Result<Option<M>> {
        if run.is_empty() {
            return Ok(None);
        }
        let run: Vec<M> = run.iter().map(|s| s.measure.clone()).collect();
        Ok(Some(M::merge_run(&run)?))
    }

    /// Merges all slots currently registered at `level` into one measure
    /// (e.g. "the last day with the precision of hour"), or `None` when
    /// the level is empty.
    ///
    /// # Errors
    /// [`TiltError::UnknownLevel`] / merge errors.
    pub fn merge_level(&self, level: usize) -> Result<Option<M>> {
        Self::merge_slots(self.slots(level)?)
    }

    /// Merges the most recent `k` slots of `level` ("the last 2 hours at
    /// hour precision"); fewer than `k` slots merge whatever is present;
    /// `None` when the level is empty or `k == 0`.
    ///
    /// # Errors
    /// [`TiltError::UnknownLevel`] / merge errors.
    pub fn merge_recent(&self, level: usize, k: usize) -> Result<Option<M>> {
        let slots = self.slots(level)?;
        Self::merge_slots(&slots[slots.len() - k.min(slots.len())..])
    }

    /// Merges the frame's **entire retained history** into one measure,
    /// walking coarsest → finest (oldest data first). `None` for an empty
    /// frame.
    ///
    /// # Errors
    /// Merge errors (cannot occur for measures ingested through
    /// [`push`](Self::push)).
    pub fn merge_all(&self) -> Result<Option<M>> {
        Self::merge_slots(&self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mergeable::CountSum;
    use crate::scale::TiltSpec;
    use regcube_regress::{Isb, TimeSeries};

    /// A small 3-level spec: 3 fine units per mid, 4 mid per coarse,
    /// retain 2 coarse.
    fn small_spec() -> TiltSpec {
        TiltSpec::new(vec![("fine", 3), ("mid", 4), ("coarse", 2)]).unwrap()
    }

    fn unit_isb(u: u64, ticks_per_unit: i64) -> Isb {
        let start = u as i64 * ticks_per_unit;
        let series =
            TimeSeries::from_fn(start, start + ticks_per_unit - 1, |t| 0.1 * t as f64 + 1.0)
                .unwrap();
        Isb::fit(&series).unwrap()
    }

    #[test]
    fn promotion_cascades_on_boundaries() {
        let mut f: TiltFrame<CountSum> = TiltFrame::new(small_spec());
        // 3 fine units complete one mid unit.
        for u in 0..3 {
            f.push(CountSum::unit(u, 1.0)).unwrap();
        }
        assert_eq!(f.slots(0).unwrap().len(), 0, "fine level cleared");
        assert_eq!(f.slots(1).unwrap().len(), 1, "one mid slot promoted");
        let mid = &f.slots(1).unwrap()[0];
        assert_eq!(mid.measure.units, 3);
        assert_eq!(mid.unit, 0);

        // 12 fine units complete one coarse unit (4 mids).
        for u in 3..12 {
            f.push(CountSum::unit(u, 1.0)).unwrap();
        }
        assert_eq!(f.slots(1).unwrap().len(), 0);
        assert_eq!(f.slots(2).unwrap().len(), 1);
        assert_eq!(f.slots(2).unwrap()[0].measure.units, 12);
    }

    #[test]
    fn coarsest_level_ages_out() {
        let mut f: TiltFrame<CountSum> = TiltFrame::new(small_spec());
        // Capacity at coarse level is 2; the third coarse unit (36 fine
        // units) evicts the first.
        for u in 0..36 {
            f.push(CountSum::unit(u, 1.0)).unwrap();
        }
        assert_eq!(
            f.slots(2).unwrap().len(),
            2,
            "third coarse slot evicted the first"
        );
        let stats = f.stats();
        assert_eq!(stats.ingested_units, 36);
        assert_eq!(stats.expired_units, 12);
        assert!(stats.retained_slots <= stats.capacity_slots);
    }

    #[test]
    fn out_of_order_pushes_are_rejected() {
        let mut f: TiltFrame<CountSum> = TiltFrame::new(small_spec());
        f.push(CountSum::unit(0, 1.0)).unwrap();
        let err = f.push(CountSum::unit(5, 1.0)).unwrap_err();
        assert!(matches!(err, TiltError::OutOfOrder { .. }));
        // A gap right after a promotion, when the finest level is empty,
        // is refused at the push too: the newest slot is the promoted
        // one. The frame does not wedge: every contiguous push after it
        // is accepted.
        for u in 1..3 {
            f.push(CountSum::unit(u, 1.0)).unwrap();
        }
        assert!(f.slots(0).unwrap().is_empty());
        let before = f.clone();
        let err = f.push(CountSum::unit(10, 1.0)).unwrap_err();
        assert!(matches!(err, TiltError::OutOfOrder { .. }), "{err}");
        assert_eq!(f, before);
        for u in 3..40 {
            f.push(CountSum::unit(u, 1.0)).unwrap();
        }
        assert_eq!(f.next_unit(), 40);
    }

    #[test]
    fn isb_frame_tracks_exact_regressions() {
        // Push 11 unit-ISBs (5 ticks each) and compare merge_all against a
        // brute-force fit over all 55 ticks.
        let mut f: TiltFrame<Isb> = TiltFrame::new(small_spec());
        for u in 0..11 {
            f.push(unit_isb(u, 5)).unwrap();
        }
        let merged = f.merge_all().unwrap().unwrap();
        let full = TimeSeries::from_fn(0, 54, |t| 0.1 * t as f64 + 1.0).unwrap();
        let direct = Isb::fit(&full).unwrap();
        assert!(merged.approx_eq(&direct, 1e-9), "{merged} vs {direct}");
    }

    #[test]
    fn merge_level_exposes_the_observation_deck() {
        let mut f: TiltFrame<Isb> = TiltFrame::new(small_spec());
        for u in 0..5 {
            f.push(unit_isb(u, 4)).unwrap();
        }
        // 5 units: 3 promoted to one mid slot; 2 remain fine.
        assert_eq!(f.slots(0).unwrap().len(), 2);
        assert_eq!(f.slots(1).unwrap().len(), 1);
        let fine = f.merge_level(0).unwrap().unwrap();
        assert_eq!(fine.interval(), (12, 19));
        let mid = f.merge_level(1).unwrap().unwrap();
        assert_eq!(mid.interval(), (0, 11));
        assert!(f.merge_level(2).unwrap().is_none());
        assert!(f.merge_level(9).is_err());
    }

    #[test]
    fn timeline_is_oldest_first_and_contiguous() {
        let mut f: TiltFrame<Isb> = TiltFrame::new(small_spec());
        for u in 0..8 {
            f.push(unit_isb(u, 3)).unwrap();
        }
        let timeline = f.timeline();
        assert_eq!(timeline.len(), f.retained_slots());
        for pair in timeline.windows(2) {
            let (_, a) = pair[0];
            let (_, b) = pair[1];
            assert_eq!(b.measure.start(), a.measure.end() + 1);
        }
    }

    #[test]
    fn empty_frame_queries() {
        let f: TiltFrame<Isb> = TiltFrame::new(small_spec());
        assert!(f.merge_all().unwrap().is_none());
        assert!(f.merge_recent(0, 3).unwrap().is_none());
        assert_eq!(f.retained_slots(), 0);
        assert_eq!(f.next_unit(), 0);
        assert!(f.slots(3).is_err());
    }

    #[test]
    fn merge_recent_takes_the_newest_slots() {
        let mut f: TiltFrame<Isb> = TiltFrame::new(small_spec());
        // 2 fine slots (after one promotion at 3): push 5 units.
        for u in 0..5 {
            f.push(unit_isb(u, 4)).unwrap();
        }
        assert_eq!(f.slots(0).unwrap().len(), 2);
        let last_one = f.merge_recent(0, 1).unwrap().unwrap();
        assert_eq!(last_one.interval(), (16, 19));
        let last_two = f.merge_recent(0, 2).unwrap().unwrap();
        assert_eq!(last_two.interval(), (12, 19));
        // k beyond the population merges everything at the level.
        let all = f.merge_recent(0, 99).unwrap().unwrap();
        assert_eq!(all.interval(), (12, 19));
        assert!(f.merge_recent(0, 0).unwrap().is_none());
    }

    #[test]
    fn amend_slot_finds_the_unit_at_any_level() {
        // Mirror frame (never amended) rebuilt from patched inputs proves
        // amend_slot ≡ ingesting the corrected series from scratch.
        let tpu = 5i64;
        let delta = 3.25;
        for late_unit in [0u64, 2, 3, 7] {
            let mut amended: TiltFrame<Isb> = TiltFrame::new(small_spec());
            let mut rebuilt: TiltFrame<Isb> = TiltFrame::new(small_spec());
            for u in 0..9 {
                amended.push(unit_isb(u, tpu)).unwrap();
                let mut isb = unit_isb(u, tpu);
                if u == late_unit {
                    isb = isb.amend_tick(u as i64 * tpu + 1, delta).unwrap();
                }
                rebuilt.push(isb).unwrap();
            }
            let outcome = amended
                .amend_slot(late_unit, |m| {
                    m.amend_tick(late_unit as i64 * tpu + 1, delta)
                        .map_err(TiltError::Merge)
                })
                .unwrap();
            assert!(matches!(outcome, AmendOutcome::Amended { .. }));
            let a = amended.timeline();
            let b = rebuilt.timeline();
            assert_eq!(a.len(), b.len());
            for ((la, sa), (lb, sb)) in a.iter().zip(b.iter()) {
                assert_eq!(la, lb);
                assert_eq!(sa.unit, sb.unit);
                assert!(
                    sa.measure.approx_eq(&sb.measure, 1e-9),
                    "unit {late_unit}: {} vs {}",
                    sa.measure,
                    sb.measure
                );
            }
        }
    }

    #[test]
    fn amend_slot_reports_promoted_slot_coordinates() {
        let mut f: TiltFrame<Isb> = TiltFrame::new(small_spec());
        for u in 0..7 {
            f.push(unit_isb(u, 4)).unwrap();
        }
        // Units 0..3 were promoted to mid slot 0; unit 6 is still fine.
        let promoted = f.amend_slot(1, |m| Ok(*m)).unwrap();
        assert_eq!(
            promoted,
            AmendOutcome::Amended {
                level: 1,
                slot_unit: 0
            }
        );
        let fine = f.amend_slot(6, |m| Ok(*m)).unwrap();
        assert_eq!(
            fine,
            AmendOutcome::Amended {
                level: 0,
                slot_unit: 6
            }
        );
    }

    #[test]
    fn amend_slot_expired_and_future_units() {
        let mut f: TiltFrame<CountSum> = TiltFrame::new(small_spec());
        for u in 0..36 {
            f.push(CountSum::unit(u, 1.0)).unwrap();
        }
        // Units 0..12 expired out of the coarsest level.
        assert_eq!(f.amend_slot(3, |m| Ok(*m)).unwrap(), AmendOutcome::Expired);
        // Future units are a caller error, not silence.
        assert!(f.amend_slot(36, |m| Ok(*m)).is_err());
    }

    #[test]
    fn backfilled_is_the_replay_from_the_epoch() {
        // Across every promotion boundary and well past the first
        // expiry of the coarsest level (36 units).
        let mut replayed: TiltFrame<Isb> = TiltFrame::new(small_spec());
        for next_unit in 0..120u64 {
            let built =
                TiltFrame::backfilled(small_spec(), next_unit, |u| Ok(unit_isb(u, 5))).unwrap();
            assert_eq!(built, replayed, "after {next_unit} units");
            assert_eq!(built.stats(), replayed.stats());
            replayed.push(unit_isb(next_unit, 5)).unwrap();
        }
        // It replays the retained span, not the stream's age.
        let mut calls = 0u64;
        let old = TiltFrame::backfilled(small_spec(), 1 << 40, |u| {
            calls += 1;
            Ok(CountSum::unit(u, 1.0))
        })
        .unwrap();
        assert!(calls <= small_spec().span_finest_units(), "{calls} fills");
        assert_eq!(old.next_unit(), 1 << 40);
        assert_eq!(old.stats().expired_units + calls, 1 << 40);
        // A failing fill is the caller's error, passed through.
        let err = TiltFrame::<CountSum>::backfilled(small_spec(), 3, |_| {
            Err(TiltError::BadSpec { detail: "x".into() })
        });
        assert!(matches!(err, Err(TiltError::BadSpec { .. })));
    }

    /// A run-length measure whose merge fails when the merged run
    /// reaches `breaks_at` units, i.e. at one chosen promotion.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Brittle {
        start_unit: u64,
        units: u64,
        breaks_at: u64,
    }

    impl TimeMergeable for Brittle {
        fn merge_run(run: &[Self]) -> Result<Self> {
            let mut acc = run[0];
            for next in &run[1..] {
                acc.units += next.units;
                acc.breaks_at = acc.breaks_at.max(next.breaks_at);
            }
            if acc.units == acc.breaks_at {
                return Err(TiltError::BadSpec {
                    detail: format!("breaks at {} units", acc.units),
                });
            }
            Ok(acc)
        }

        fn continues(&self, next: &Self) -> bool {
            next.start_unit == self.start_unit + self.units
        }
    }

    #[test]
    fn a_failed_promotion_leaves_the_frame_untouched() {
        let brittle = |start_unit, breaks_at| Brittle {
            start_unit,
            units: 1,
            breaks_at,
        };
        // Unit 11 completes a mid slot (units 9..12) and then the coarse
        // slot of units 0..12; the second merge fails, after the first
        // has succeeded.
        let mut f: TiltFrame<Brittle> = TiltFrame::new(small_spec());
        for u in 0..11 {
            f.push(brittle(u, 0)).unwrap();
        }
        let before = f.clone();
        let err = f.push(brittle(11, 12)).unwrap_err();
        assert!(matches!(err, TiltError::BadSpec { .. }), "{err}");
        assert_eq!(f, before);
        // The next valid unit pushes normally, and promotes.
        f.push(brittle(11, 0)).unwrap();
        assert_eq!(f.slots(2).unwrap()[0].measure.units, 12);
    }

    #[test]
    fn figure4_frame_capacity_is_71() {
        let mut f: TiltFrame<CountSum> = TiltFrame::new(TiltSpec::paper_figure4());
        // Push a full year of quarters; retained slots never exceed 71.
        let mut max_retained = 0;
        for u in 0..(366 * 24 * 4) {
            f.push(CountSum::unit(u, 1.0)).unwrap();
            max_retained = max_retained.max(f.retained_slots());
        }
        assert!(max_retained <= 71, "retained {max_retained} > 71");
        // The frame's span covers more than a year, so nothing ingested in
        // the last year has fully expired in a 12-"month" retention of
        // 31-day months... but some early data has:
        let stats = f.stats();
        assert_eq!(stats.ingested_units, 35_136);
        assert_eq!(stats.capacity_slots, 71);
    }
}
