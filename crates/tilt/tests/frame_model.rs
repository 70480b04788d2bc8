//! The one-block [`TiltFrame`] against a deliberately naive reference:
//! one deque per level, promotion by "push, then merge the level if it is
//! full" — the implementation the flat frame replaced, kept here only as
//! the model. Random specs and random push/amend sequences must leave
//! both with the same slots, bit for bit.

use proptest::prelude::*;
use regcube_regress::Isb;
use regcube_tilt::{AmendOutcome, FrameFamily, TiltFrame, TiltSlot, TiltSpec, TimeMergeable};
use std::collections::VecDeque;

/// Raw ticks per finest unit of the generated measures.
const TICKS: i64 = 4;

struct ModelFrame {
    groups: Vec<usize>,
    levels: Vec<VecDeque<TiltSlot<Isb>>>,
    next_unit: u64,
    expired_units: u64,
}

impl ModelFrame {
    fn new(groups: &[usize]) -> Self {
        ModelFrame {
            groups: groups.to_vec(),
            levels: groups.iter().map(|_| VecDeque::new()).collect(),
            next_unit: 0,
            expired_units: 0,
        }
    }

    fn finest_units_per(&self, level: usize) -> u64 {
        self.groups[..level].iter().map(|&g| g as u64).product()
    }

    fn push(&mut self, measure: Isb) {
        let unit = self.next_unit;
        self.levels[0].push_back(TiltSlot { unit, measure });
        self.next_unit += 1;
        self.cascade(0);
    }

    fn cascade(&mut self, level: usize) {
        let group = self.groups[level];
        if level + 1 == self.levels.len() {
            while self.levels[level].len() > group {
                self.levels[level].pop_front();
                self.expired_units += self.finest_units_per(level);
            }
            return;
        }
        if self.levels[level].len() < group {
            return;
        }
        let run: Vec<Isb> = self.levels[level].iter().map(|s| s.measure).collect();
        let merged = Isb::merge_run(&run).unwrap();
        let coarse_unit = self.levels[level][0].unit / group as u64;
        self.levels[level].clear();
        self.levels[level + 1].push_back(TiltSlot {
            unit: coarse_unit,
            measure: merged,
        });
        self.cascade(level + 1);
    }

    /// `None` for a unit that has not been pushed yet.
    fn amend_slot(&mut self, fine_unit: u64, tick: i64, delta: f64) -> Option<AmendOutcome> {
        if fine_unit >= self.next_unit {
            return None;
        }
        for level in 0..self.levels.len() {
            let slot_unit = fine_unit / self.finest_units_per(level);
            if let Some(slot) = self.levels[level].iter_mut().find(|s| s.unit == slot_unit) {
                slot.measure = slot.measure.amend_tick(tick, delta).unwrap();
                return Some(AmendOutcome::Amended { level, slot_unit });
            }
        }
        Some(AmendOutcome::Expired)
    }

    fn timeline(&self) -> Vec<(usize, TiltSlot<Isb>)> {
        let mut out = Vec::new();
        for (level, dq) in self.levels.iter().enumerate().rev() {
            out.extend(dq.iter().map(|slot| (level, slot.clone())));
        }
        out
    }

    fn merge(run: Vec<Isb>) -> Option<Isb> {
        (!run.is_empty()).then(|| Isb::merge_run(&run).unwrap())
    }

    fn merge_recent(&self, level: usize, k: usize) -> Option<Isb> {
        let dq = &self.levels[level];
        Self::merge(
            dq.iter()
                .skip(dq.len() - k.min(dq.len()))
                .map(|s| s.measure)
                .collect(),
        )
    }

    fn merge_all(&self) -> Option<Isb> {
        Self::merge(
            self.timeline()
                .into_iter()
                .map(|(_, s)| s.measure)
                .collect(),
        )
    }
}

/// The bits of a measure: equality here is bit identity.
fn bits(isb: &Isb) -> (i64, i64, u64, u64) {
    (
        isb.start(),
        isb.end(),
        isb.base().to_bits(),
        isb.slope().to_bits(),
    )
}

fn slot_bits(slot: &TiltSlot<Isb>) -> (u64, (i64, i64, u64, u64)) {
    (slot.unit, bits(&slot.measure))
}

fn assert_same(
    frame: &TiltFrame<Isb>,
    model: &ModelFrame,
    spec: &TiltSpec,
) -> Result<(), TestCaseError> {
    for (level, dq) in model.levels.iter().enumerate() {
        let got: Vec<_> = frame.slots(level).unwrap().iter().map(slot_bits).collect();
        let want: Vec<_> = dq.iter().map(slot_bits).collect();
        prop_assert_eq!(got, want, "slots({})", level);
        prop_assert_eq!(
            frame.merge_level(level).unwrap().as_ref().map(bits),
            model.merge_recent(level, usize::MAX).as_ref().map(bits)
        );
        for k in 0..=dq.len() + 1 {
            prop_assert_eq!(
                frame.merge_recent(level, k).unwrap().as_ref().map(bits),
                model.merge_recent(level, k).as_ref().map(bits)
            );
        }
    }
    prop_assert!(frame.slots(model.levels.len()).is_err());
    let got: Vec<_> = frame
        .timeline()
        .into_iter()
        .map(|(level, slot)| (level, slot_bits(slot)))
        .collect();
    let want: Vec<_> = model
        .timeline()
        .iter()
        .map(|(level, slot)| (*level, slot_bits(slot)))
        .collect();
    prop_assert_eq!(&got, &want, "timeline");
    let history: Vec<_> = frame.history().iter().map(slot_bits).collect();
    prop_assert_eq!(history, want.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    prop_assert_eq!(
        frame.merge_all().unwrap().as_ref().map(bits),
        model.merge_all().as_ref().map(bits)
    );
    let stats = frame.stats();
    prop_assert_eq!(frame.next_unit(), model.next_unit);
    prop_assert_eq!(stats.ingested_units, model.next_unit);
    prop_assert_eq!(stats.expired_units, model.expired_units);
    prop_assert_eq!(stats.retained_slots, want.len());
    prop_assert_eq!(frame.retained_slots(), want.len());
    // A capture of the frame rebuilds the frame: the one-row family
    // restored from it, as a checkpoint restores a layer, reads it back.
    let never_active = TiltFrame::backfilled(spec.clone(), frame.next_unit(), |unit| {
        let start = unit as i64 * TICKS;
        Ok(Isb::new(start, start + TICKS - 1, 0.0, 0.0)?)
    })
    .unwrap();
    let rebuilt = FrameFamily::<u32, Isb>::from_rows(
        &never_active,
        |m| m.base() == 0.0 && m.slope() == 0.0,
        [(0, frame.history().to_vec())],
    )
    .unwrap();
    prop_assert_eq!(rebuilt.frame(&0), Some(frame.clone()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_frame_matches_the_deque_per_level_model(
        groups in prop::collection::vec(2usize..6, 2..5),
        // (is an amendment?, base, slope, amend target, tick in unit)
        ops in prop::collection::vec(
            (0u8..4, -50.0..50.0f64, -2.0..2.0f64, 0u64..1_000_000, 0i64..TICKS),
            40..400,
        ),
    ) {
        let names: Vec<String> = (0..groups.len()).map(|i| format!("l{i}")).collect();
        let spec = TiltSpec::new(
            names.iter().map(String::as_str).zip(groups.iter().copied()).collect(),
        ).unwrap();
        let mut frame: TiltFrame<Isb> = TiltFrame::new(spec.clone());
        let mut model = ModelFrame::new(&groups);
        for (step, (kind, base, slope, target, tick_in_unit)) in ops.into_iter().enumerate() {
            if kind == 0 {
                // Amend any pushed unit, or (rarely) one just beyond.
                let fine_unit = target % (model.next_unit + 2);
                let tick = fine_unit as i64 * TICKS + tick_in_unit;
                let got = frame.amend_slot(fine_unit, |m| Ok(m.amend_tick(tick, base)?));
                match model.amend_slot(fine_unit, tick, base) {
                    Some(want) => prop_assert_eq!(got, Ok(want)),
                    None => prop_assert!(got.is_err()),
                }
            } else {
                let start = model.next_unit as i64 * TICKS;
                let isb = Isb::new(start, start + TICKS - 1, base, slope).unwrap();
                frame.push(isb).unwrap();
                model.push(isb);
            }
            // The full comparison is quadratic in the run; sample it,
            // and always check the final state.
            if step % 7 == 0 {
                assert_same(&frame, &model, &spec)?;
            }
        }
        assert_same(&frame, &model, &spec)?;
        // Long enough to have aged slots out of the top level whenever
        // the spec's span allows it.
        if model.next_unit > spec.span_finest_units() {
            prop_assert!(model.expired_units > 0);
        }
    }
}
