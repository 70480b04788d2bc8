//! The slot-major [`FrameFamily`] against the map it replaced.
//!
//! [`Oracle`] is the per-cell bookkeeping `OnlineEngine` used to do over
//! a `HashMap<K, TiltFrame<M>>` (`support/frame_map.rs`, shared with the
//! stream layer's `family_twin.rs`). Random specs and random unit /
//! amendment sequences must leave the family with the same keys and, per
//! key, the same frame, bit for bit.

#[path = "support/frame_map.rs"]
mod frame_map;

use proptest::prelude::*;
use regcube_regress::Isb;
use regcube_tilt::{
    AmendOutcome, FamilySnapshot, FrameFamily, TiltError, TiltFrame, TiltSlot, TiltSpec,
    TimeMergeable,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;

type Result<T> = std::result::Result<T, TiltError>;

/// The per-cell frame map, on this suite's keys.
type Oracle<M> = frame_map::FrameMap<u32, M>;

// ---------------------------------------------------------------------------
// Isb: the production measure
// ---------------------------------------------------------------------------

/// Raw ticks per finest unit of the generated measures.
const TICKS: i64 = 4;

fn isb(unit: u64, base: f64, slope: f64) -> Isb {
    let start = unit as i64 * TICKS;
    Isb::new(start, start + TICKS - 1, base, slope).unwrap()
}

fn isb_zero_fill(unit: u64) -> Isb {
    isb(unit, 0.0, 0.0)
}

/// The engine's retirement rule: zero base and slope (NaN is not zero).
fn isb_is_zero(m: &Isb) -> bool {
    m.base() == 0.0 && m.slope() == 0.0
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

/// Everything observable of a set of frames, keyed and ordered.
type Rendering = BTreeMap<u32, Vec<(usize, u64, (i64, i64, u64, u64))>>;

fn render_frames<'a>(frames: impl Iterator<Item = (u32, &'a TiltFrame<Isb>)>) -> Rendering {
    frames
        .map(|(key, frame)| {
            let timeline = frame
                .timeline()
                .into_iter()
                .map(|(level, slot)| (level, slot.unit, bits(&slot.measure)))
                .collect();
            (key, timeline)
        })
        .collect()
}

/// A family generation rendered through its read-in-place API only.
fn render_snapshot(snapshot: &FamilySnapshot<u32, Isb>) -> Rendering {
    snapshot
        .ladders()
        .map(|(key, ladder)| {
            let timeline = ladder
                .timeline()
                .into_iter()
                .map(|(level, unit, m)| (level, unit, bits(m)))
                .collect();
            (*key, timeline)
        })
        .collect()
}

fn assert_same(
    family: &FrameFamily<u32, Isb>,
    oracle: &Oracle<Isb>,
    units: u64,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(family.next_unit(), units);
    let mut keys: Vec<u32> = family.ladders().map(|(key, _)| *key).collect();
    keys.sort_unstable();
    let mut want_keys: Vec<u32> = oracle.frames.keys().copied().collect();
    want_keys.sort_unstable();
    prop_assert_eq!(&keys, &want_keys, "key set");
    prop_assert_eq!(family.len(), want_keys.len());
    prop_assert_eq!(family.is_empty(), want_keys.is_empty());
    for key in &keys {
        let want = &oracle.frames[key];
        prop_assert_eq!(want.next_unit(), units, "the oracle's own lockstep");
        // The materialised frame.
        let got = family.frame(key).expect("listed key");
        let history: Vec<_> = got.history().iter().map(slot_bits).collect();
        let want_history: Vec<_> = want.history().iter().map(slot_bits).collect();
        prop_assert_eq!(&history, &want_history, "history of {}", key);
        for (level, (a, b)) in got.levels().zip(want.levels()).enumerate() {
            let a: Vec<_> = a.iter().map(slot_bits).collect();
            let b: Vec<_> = b.iter().map(slot_bits).collect();
            prop_assert_eq!(a, b, "level {} of {}", level, key);
        }
        prop_assert_eq!(got.stats(), want.stats(), "stats of {}", key);
        prop_assert_eq!(family.expired_units(), want.stats().expired_units);
        prop_assert_eq!(family.retained_slots(), want.retained_slots());
        // The same row read in place.
        let ladder = family.ladder(key).expect("listed key");
        for level in 0..family.spec().num_levels() {
            let slots = ladder.slots(level).unwrap();
            let want_slots = want.slots(level).unwrap();
            prop_assert_eq!(slots.len(), want_slots.len());
            prop_assert_eq!(slots.is_empty(), want_slots.is_empty());
            let read: Vec<_> = slots.iter().map(|(unit, m)| (unit, bits(m))).collect();
            let held: Vec<_> = want_slots.iter().map(slot_bits).collect();
            prop_assert_eq!(&read, &held);
            for (idx, (unit, m)) in held.iter().enumerate() {
                prop_assert_eq!(slots.position(*unit), Some(idx));
                prop_assert_eq!(slots.get(idx).map(|(u, x)| (u, bits(x))), Some((*unit, *m)));
            }
            prop_assert_eq!(slots.get(held.len()).map(|(u, _)| u), None);
            if let Some((first, _)) = held.first() {
                prop_assert_eq!(slots.position(first + held.len() as u64), None);
                prop_assert_eq!(first.checked_sub(1).and_then(|u| slots.position(u)), None);
            }
        }
        prop_assert!(ladder.slots(family.spec().num_levels()).is_err());
    }
    prop_assert_eq!(
        render_snapshot(family),
        render_frames(oracle.frames.iter().map(|(k, f)| (*k, f)))
    );
    prop_assert!(family.frame(&u32::MAX).is_none());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn family_matches_the_frame_per_cell_map(
        groups in prop::collection::vec(2usize..5, 2..5),
        // (kind, active mask, zero-valued mask, key, target unit, value, tick)
        ops in prop::collection::vec(
            (0u8..8, 0u32..4096, 0u32..4096, 0u32..14, 0u64..1_000_000, -4.0..4.0f64, 0i64..TICKS),
            30..160,
        ),
    ) {
        let names: Vec<String> = (0..groups.len()).map(|i| format!("l{i}")).collect();
        let spec = TiltSpec::new(
            names.iter().map(String::as_str).zip(groups.iter().copied()).collect(),
        ).unwrap();
        let mut family: FrameFamily<u32, Isb> = FrameFamily::new(spec.clone(), isb_is_zero);
        let mut oracle = Oracle::new(spec, isb_zero_fill, isb_is_zero);
        let mut units = 0u64;
        // Generations held across later writes, with what they showed
        // when they were taken.
        let mut held: Vec<(FamilySnapshot<u32, Isb>, Rendering)> = Vec::new();

        for (step, (kind, mask, zero_mask, key, target, value, tick_in_unit)) in
            ops.into_iter().enumerate()
        {
            match kind {
                // A late amendment: any pushed unit (retained or long
                // expired) of any key (known, retired or never seen).
                0 | 1 if units > 0 => {
                    let fine_unit = target % units;
                    let tick = fine_unit as i64 * TICKS + tick_in_unit;
                    let delta = if kind == 0 { value } else { 0.0 };
                    let got = family.amend(&key, fine_unit, |m| Ok(m.amend_tick(tick, delta)?));
                    let want = oracle
                        .ensure_backfilled_frame(&key, units)
                        .unwrap()
                        .amend_slot(fine_unit, |m| Ok(m.amend_tick(tick, delta)?));
                    prop_assert_eq!(&got, &want, "amend outcome at step {}", step);
                    let landed = matches!(got, Ok(AmendOutcome::Amended { .. }));
                    prop_assert!(landed || got == Ok(AmendOutcome::Expired));
                }
                // A quiet stretch: a few units nobody is active in, so
                // zero-valued cells retire and old usage ages out.
                2 => {
                    for _ in 0..=(mask % 4) {
                        family.push_unit(isb_zero_fill(units), []).unwrap();
                        oracle.push_unit_into_frames(&[], units).unwrap();
                        units += 1;
                    }
                }
                // One unit: the cells of `mask` are active, those also
                // in `zero_mask` with a zero-valued measure. The key
                // range is wider than the mask, so some keys only ever
                // arrive through amendments.
                _ => {
                    let active: Vec<(u32, Isb)> = (0..12u32)
                        .filter(|k| mask & (1 << k) != 0)
                        .map(|k| {
                            let measure = if zero_mask & (1 << k) != 0 {
                                // Zero usage, but not the fill's bits: a
                                // retired row must not leak it to the
                                // next key it is handed to.
                                isb(units, -0.0, 0.0)
                            } else {
                                isb(units, value + f64::from(k), value * 0.25 - f64::from(k))
                            };
                            (k, measure)
                        })
                        .collect();
                    family
                        .push_unit(isb_zero_fill(units), active.iter().map(|(k, m)| (k, *m)))
                        .unwrap();
                    oracle.push_unit_into_frames(&active, units).unwrap();
                    units += 1;
                }
            }
            assert_same(&family, &oracle, units)?;
            if step % 5 == 0 {
                let snapshot = family.snapshot();
                let rendering = render_snapshot(&snapshot);
                held.push((snapshot, rendering));
            }
        }
        // Copy-on-write never leaks a later write into a held generation.
        for (snapshot, rendering) in &held {
            prop_assert_eq!(&render_snapshot(snapshot), rendering);
        }
    }
}

#[test]
fn future_units_cannot_be_amended_and_leave_no_trace() {
    let spec = TiltSpec::new(vec![("unit", 2), ("top", 2)]).unwrap();
    let mut family: FrameFamily<u32, Isb> = FrameFamily::new(spec, isb_is_zero);
    family
        .push_unit(isb_zero_fill(0), [(&1, isb(0, 1.0, 0.5))])
        .unwrap();
    let err = family.amend(&7, 1, |m| Ok(*m)).unwrap_err();
    assert!(matches!(err, TiltError::OutOfOrder { .. }), "{err}");
    assert!(
        family.frame(&7).is_none(),
        "the unknown key was not registered"
    );
    assert_eq!(family.len(), 1);
}

#[test]
fn from_rows_rebuilds_the_family_and_rejects_what_cannot_be_one() {
    let spec = TiltSpec::new(vec![("unit", 2), ("mid", 3), ("top", 2)]).unwrap();
    let mut family: FrameFamily<u32, Isb> = FrameFamily::new(spec.clone(), isb_is_zero);
    let mut never_active = TiltFrame::new(spec.clone());
    for unit in 0..23u64 {
        let active: Vec<(u32, Isb)> = (0..5u32)
            .filter(|k| (unit + u64::from(*k)) % 3 != 0)
            .map(|k| (k, isb(unit, 1.0 + f64::from(k), 0.125 * unit as f64)))
            .collect();
        family
            .push_unit(isb_zero_fill(unit), active.iter().map(|(k, m)| (k, *m)))
            .unwrap();
        never_active.push(isb_zero_fill(unit)).unwrap();
    }
    let frames = |family: &FrameFamily<u32, Isb>| -> Vec<(u32, TiltFrame<Isb>)> {
        let mut keys: Vec<u32> = family.ladders().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (k, family.frame(&k).unwrap()))
            .collect()
    };
    let captured = frames(&family);
    assert_eq!(captured.len(), 5);

    let rows = |frames: Vec<(u32, TiltFrame<Isb>)>| {
        frames
            .into_iter()
            .map(|(key, frame)| (key, frame.history().to_vec()))
    };
    let mut rebuilt: FrameFamily<u32, Isb> =
        FrameFamily::from_rows(&never_active, isb_is_zero, rows(captured.clone())).unwrap();
    assert_eq!(render_snapshot(&rebuilt), render_snapshot(&family));
    // Both keep evolving identically, late joiners included: the fills
    // were rebuilt, not only the cells.
    for unit in 23..40u64 {
        let active = [(9u32, isb(unit, 2.0, -0.5)), (1, isb(unit, 0.5, 0.0))];
        for f in [&mut family, &mut rebuilt] {
            f.push_unit(isb_zero_fill(unit), active.iter().map(|(k, m)| (k, *m)))
                .unwrap();
        }
        assert_eq!(
            render_snapshot(&rebuilt),
            render_snapshot(&family),
            "unit {unit}"
        );
    }

    let rebuild = |frames: Vec<(u32, TiltFrame<Isb>)>| {
        FrameFamily::<u32, Isb>::from_rows(&never_active, isb_is_zero, rows(frames))
            .map(|_| ())
            .unwrap_err()
            .to_string()
    };
    // A key listed twice.
    let mut twice = captured.clone();
    twice.push(captured[2].clone());
    assert!(rebuild(twice).contains("listed twice"));
    // A frame one unit behind the layer's clock, or one ahead: valid on
    // its own, not the shape 23 units leave.
    let at_clock = |units: u64| {
        let mut frame = TiltFrame::new(spec.clone());
        for unit in 0..units {
            frame.push(isb(unit, 1.0, 0.0)).unwrap();
        }
        frame
    };
    let err = rebuild(vec![(3, at_clock(22))]);
    assert!(err.contains("of 3 holds too few slots for 23"), "{err}");
    let err = rebuild(vec![(3, at_clock(24))]);
    assert!(
        err.contains("of 3 holds unit 2 where unit 1 belongs"),
        "{err}"
    );
    // Two slots of one level in the wrong order.
    let mut swapped = captured[0].1.history().to_vec();
    swapped.swap(2, 3);
    let err = FrameFamily::<u32, Isb>::from_rows(&never_active, isb_is_zero, [(0, swapped)])
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(err.contains("holds unit 10 where unit 9 belongs"), "{err}");
    // A slot too many.
    let mut long = captured[0].1.history().to_vec();
    long.push(long[0].clone());
    let err = FrameFamily::<u32, Isb>::from_rows(&never_active, isb_is_zero, [(0, long)])
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(err.contains("more slots than 23"), "{err}");
}

// ---------------------------------------------------------------------------
// A test measure: counts its merges, and fails them on demand
// ---------------------------------------------------------------------------

thread_local! {
    /// `merge_run` calls made on this thread.
    static MERGES: Cell<u64> = const { Cell::new(0) };
}

/// A counting measure whose merge can be made to fail: a run that
/// contains a member with `breaks_at == n` fails when it merges to
/// exactly `n` finest units — i.e. at one chosen promotion.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Probe {
    start_unit: u64,
    units: u64,
    sum: f64,
    breaks_at: u64,
}

impl Probe {
    fn unit(start_unit: u64, sum: f64) -> Probe {
        Probe {
            start_unit,
            units: 1,
            sum,
            breaks_at: 0,
        }
    }

    fn zero_fill(unit: u64) -> Probe {
        Probe::unit(unit, 0.0)
    }

    fn is_zero(&self) -> bool {
        self.sum == 0.0
    }
}

impl TimeMergeable for Probe {
    fn merge_run(run: &[Self]) -> Result<Self> {
        MERGES.with(|m| m.set(m.get() + 1));
        let mut acc = run[0];
        for next in &run[1..] {
            assert!(acc.continues(next), "the family gathered a broken run");
            acc.units += next.units;
            acc.sum += next.sum;
            acc.breaks_at = acc.breaks_at.max(next.breaks_at);
        }
        if acc.breaks_at == acc.units {
            return Err(TiltError::OutOfOrder {
                detail: format!("probe breaks at {} units", acc.units),
            });
        }
        Ok(acc)
    }

    fn continues(&self, next: &Self) -> bool {
        next.start_unit == self.start_unit + self.units
    }
}

fn probe_frames(family: &FrameFamily<u32, Probe>) -> BTreeMap<u32, TiltFrame<Probe>> {
    family
        .ladders()
        .map(|(key, ladder)| (*key, ladder.to_frame()))
        .collect()
}

/// A unit whose promotion fails on one row — at the first or at the
/// second level it would carry into — changes nothing: not the rows
/// ahead of the failing one, not the clock, not the key set. The
/// per-cell map this replaced returned from the middle of its loop.
#[test]
fn a_failed_push_leaves_the_family_as_it_was() {
    let spec = TiltSpec::new(vec![("unit", 2), ("mid", 2), ("top", 3)]).unwrap();
    for breaks_at in [2u64, 4] {
        let mut family: FrameFamily<u32, Probe> = FrameFamily::new(spec.clone(), Probe::is_zero);
        let mut oracle = Oracle::new(spec.clone(), Probe::zero_fill, Probe::is_zero);
        // Three units of history for keys 1..=3; the fourth unit
        // completes a `unit` slot pair and a `mid` slot pair at once.
        for unit in 0..3u64 {
            let active: Vec<(u32, Probe)> = (1..=3)
                .map(|k| (k, Probe::unit(unit, f64::from(k))))
                .collect();
            family
                .push_unit(Probe::zero_fill(unit), active.iter().map(|(k, m)| (k, *m)))
                .unwrap();
            oracle.push_unit_into_frames(&active, unit).unwrap();
        }
        let before = probe_frames(&family);
        let held = family.snapshot();

        // Key 2 is the chosen row; key 1 is ahead of it in every
        // order, key 9 is new in the failing unit.
        let poisoned: Vec<(u32, Probe)> = [1u32, 2, 3, 9]
            .into_iter()
            .map(|k| {
                let mut m = Probe::unit(3, f64::from(k));
                m.breaks_at = if k == 2 { breaks_at } else { 0 };
                (k, m)
            })
            .collect();
        let err = family
            .push_unit(Probe::zero_fill(3), poisoned.iter().map(|(k, m)| (k, *m)))
            .unwrap_err();
        assert!(matches!(err, TiltError::OutOfOrder { .. }), "{err}");
        assert_eq!(family.next_unit(), 3);
        assert_eq!(probe_frames(&family), before, "breaks at {breaks_at}");
        assert!(family.frame(&9).is_none(), "the new key is not registered");

        // The next valid unit pushes normally, and promotes.
        let healthy: Vec<(u32, Probe)> = poisoned
            .iter()
            .map(|(k, m)| (*k, Probe::unit(m.start_unit, m.sum)))
            .collect();
        family
            .push_unit(Probe::zero_fill(3), healthy.iter().map(|(k, m)| (k, *m)))
            .unwrap();
        assert_eq!(family.next_unit(), 4);
        for (key, frame) in probe_frames(&family) {
            assert_eq!(frame.next_unit(), 4);
            let top = frame.slots(2).unwrap();
            assert_eq!((top.len(), top[0].measure.units), (1, 4), "key {key}");
            let sum = if key == 9 { 9.0 } else { 4.0 * f64::from(key) };
            assert_eq!(top[0].measure.sum, sum);
        }
        // The generation taken before the failure still reads as then.
        assert_eq!(
            held.ladders()
                .map(|(k, l)| (*k, l.to_frame()))
                .collect::<BTreeMap<_, _>>(),
            before
        );

        // The same scenario against the map: it stops at the failing
        // frame with the frames visited before it already advanced.
        let mut sorted = poisoned.clone();
        sorted.sort_by_key(|(k, _)| *k);
        assert!(oracle.push_unit_into_frames(&sorted, 3).is_err());
        let clocks: Vec<u64> = (1..=3).map(|k| oracle.frames[&k].next_unit()).collect();
        assert_eq!(clocks, vec![4, 3, 3], "half-pushed");
        // And skewed for good: the retry is refused by the frame that got
        // ahead, whose newest slot already covers unit 3.
        assert!(oracle.push_unit_into_frames(&healthy, 3).is_err());
    }
}

/// A unit listing a key twice, or carrying a measure of another unit,
/// is refused whole.
#[test]
fn malformed_units_are_refused_whole() {
    let spec = TiltSpec::new(vec![("unit", 3), ("top", 2)]).unwrap();
    let mut family: FrameFamily<u32, Probe> = FrameFamily::new(spec, Probe::is_zero);
    family
        .push_unit(Probe::zero_fill(0), [(&1, Probe::unit(0, 1.0))])
        .unwrap();
    let before = probe_frames(&family);
    let (a, b, stale) = (
        Probe::unit(1, 2.0),
        Probe::unit(1, 3.0),
        Probe::unit(0, 2.0),
    );
    for unit in [
        vec![(&5, a), (&1, a), (&5, b)],
        vec![(&1, a), (&6, stale)],
        vec![(&6, a), (&1, b), (&1, a)],
    ] {
        assert!(family.push_unit(Probe::zero_fill(1), unit).is_err());
        assert_eq!(probe_frames(&family), before);
    }
    assert!(family.push_unit(Probe::zero_fill(5), []).is_err(), "a gap");
    family
        .push_unit(Probe::zero_fill(1), [(&5, a), (&1, b)])
        .unwrap();
    assert_eq!(family.len(), 2);
    // Unit 2 promotes units 0..3, which empties the finest level: a gap
    // right after it, in the fill or in a measure, is refused too.
    family
        .push_unit(Probe::zero_fill(2), [(&1, Probe::unit(2, 1.0))])
        .unwrap();
    let before = probe_frames(&family);
    assert!(family.push_unit(Probe::zero_fill(4), []).is_err());
    let gap = Probe::unit(4, 1.0);
    assert!(family.push_unit(Probe::zero_fill(3), [(&1, gap)]).is_err());
    assert_eq!(probe_frames(&family), before);
    family.push_unit(Probe::zero_fill(3), []).unwrap();
    assert_eq!(family.next_unit(), 4);
}

fn merges_of(f: impl FnOnce()) -> u64 {
    let before = MERGES.with(Cell::get);
    f();
    MERGES.with(Cell::get) - before
}

/// A cell first seen at unit 50,000 costs no merge of its own: the unit
/// it arrives in performs exactly as many `merge_run` calls as the same
/// unit without it, and from then on exactly as many as if the cell had
/// been known since the epoch. (The map replayed 50,000 fills through
/// an empty frame first.)
#[test]
fn a_late_cell_costs_no_merge() {
    const LATE: u64 = 50_000;
    let spec = TiltSpec::paper_figure4();
    let build = |known: &[u32]| {
        let mut family: FrameFamily<u32, Probe> = FrameFamily::new(spec.clone(), Probe::is_zero);
        for unit in 0..LATE {
            family
                .push_unit(
                    Probe::zero_fill(unit),
                    known.iter().map(|k| (k, Probe::unit(unit, 1.0))),
                )
                .unwrap();
        }
        family
    };
    let push = |family: &mut FrameFamily<u32, Probe>, unit: u64, keys: &[u32]| {
        merges_of(|| {
            family
                .push_unit(
                    Probe::zero_fill(unit),
                    keys.iter().map(|k| (k, Probe::unit(unit, 1.0))),
                )
                .unwrap()
        })
    };
    let mut without = build(&[1, 2]);
    let mut joins_late = build(&[1, 2]);
    let mut always_known = build(&[1, 2, 3]);

    assert_eq!(push(&mut without, LATE, &[1, 2]), 0, "no promotion due");
    assert_eq!(push(&mut joins_late, LATE, &[1, 2, 3]), 0);
    assert_eq!(push(&mut always_known, LATE, &[1, 2, 3]), 0);
    let late_frame = joins_late.frame(&3).unwrap();
    assert_eq!(late_frame.next_unit(), LATE + 1);
    assert_eq!(
        late_frame.merge_all().unwrap().unwrap().units,
        LATE + 1 - late_frame.stats().expired_units
    );
    // Through the next hour and day boundaries: a promotion merges one
    // run per row and one for the fill, late row or not.
    let mut promoted = 0;
    for unit in LATE + 1..LATE + 200 {
        let base = push(&mut without, unit, &[1, 2]);
        let late = push(&mut joins_late, unit, &[1, 2, 3]);
        let known = push(&mut always_known, unit, &[1, 2, 3]);
        assert_eq!(late, known, "unit {unit}");
        assert_eq!(late, base / 3 * 4, "unit {unit}: three runs became four");
        promoted += u64::from(late > 0);
    }
    assert!(promoted >= 49, "the stretch crossed {promoted} promotions");
}

/// A family and the per-cell frame map it must equal, on one clock.
struct Twin {
    family: FrameFamily<u32, Isb>,
    oracle: Oracle<Isb>,
    units: u64,
}

impl Twin {
    fn new(spec: TiltSpec) -> Self {
        Twin {
            family: FrameFamily::new(spec.clone(), isb_is_zero),
            oracle: Oracle::new(spec, isb_zero_fill, isb_is_zero),
            units: 0,
        }
    }

    /// Pushes one unit in which `keys` are active, in this order.
    fn push(&mut self, keys: &[u32]) {
        self.push_with(keys, &[]);
    }

    /// Pushes one unit in which `keys` are active, in this order, those
    /// also in `zeroed` with zero usage that is not the fill's bits.
    fn push_with(&mut self, keys: &[u32], zeroed: &[u32]) {
        let unit = self.units;
        let active: Vec<(u32, Isb)> = keys
            .iter()
            .map(|&k| {
                let measure = if zeroed.contains(&k) {
                    isb(unit, -0.0, 0.0)
                } else {
                    isb(unit, f64::from(k) + 0.5, unit as f64 - f64::from(k))
                };
                (k, measure)
            })
            .collect();
        self.family
            .push_unit(isb_zero_fill(unit), active.iter().map(|(k, m)| (k, *m)))
            .unwrap();
        self.oracle.push_unit_into_frames(&active, unit).unwrap();
        self.units += 1;
        assert_same(&self.family, &self.oracle, self.units).unwrap();
    }

    /// Pushes `keys` until `silent` has retired.
    fn retire(&mut self, keys: &[u32], silent: u32) {
        for _ in 0..16 {
            self.push(keys);
            if self.family.frame(&silent).is_none() {
                assert!(!self.oracle.frames.contains_key(&silent));
                return;
            }
        }
        panic!("{silent} never retired");
    }

    /// Amends `key`'s newest finest unit.
    fn amend(&mut self, key: u32) {
        let fine_unit = self.units - 1;
        let tick = fine_unit as i64 * TICKS + 1;
        let got = self
            .family
            .amend(&key, fine_unit, |m| Ok(m.amend_tick(tick, 0.75)?));
        let want = self
            .oracle
            .ensure_backfilled_frame(&key, self.units)
            .unwrap()
            .amend_slot(fine_unit, |m| Ok(m.amend_tick(tick, 0.75)?));
        assert_eq!(got, want);
        assert_same(&self.family, &self.oracle, self.units).unwrap();
    }
}

/// Recurring key sequences take their rows by position (the family
/// remembers the last push's keys and rows), interleaved with what can
/// change a key's row: a cell that goes silent until it retires and
/// then returns at its old position, a new key that takes a retired
/// row, a refused push that listed a new key twice, and late
/// amendments (one of them to a retired key, which takes a freed row).
/// Every step is held to the per-cell frame map, bit for bit.
#[test]
fn recurring_sequences_push_by_position() {
    let mut twin = Twin::new(TiltSpec::new(vec![("unit", 2), ("top", 2)]).unwrap());
    for _ in 0..3 {
        twin.push(&[1, 2, 3]);
    }
    // Key 3 falls off the end of the sequence, retires, and returns at
    // the position it had.
    twin.retire(&[1, 2], 3);
    for _ in 0..3 {
        twin.push(&[1, 2, 3]);
    }
    // Key 3 retires again and new key 9 takes its row, at its position.
    twin.retire(&[1, 2], 3);
    for _ in 0..3 {
        twin.push(&[1, 2, 9]);
    }
    // A refused push registers new key 7 twice; the same sequence with
    // 7 listed once must register it afresh.
    let before = render_snapshot(&twin.family);
    let unit = twin.units;
    let refused = [1u32, 2, 9, 7, 7].map(|k| (k, isb(unit, 1.0, 1.0)));
    assert!(twin
        .family
        .push_unit(isb_zero_fill(unit), refused.iter().map(|(k, m)| (k, *m)))
        .is_err());
    assert_eq!(render_snapshot(&twin.family), before);
    assert!(twin.family.frame(&7).is_none());
    for _ in 0..3 {
        twin.push(&[1, 2, 9, 7]);
    }
    // Late amendments: to a key of the sequence, and to retired key 3.
    twin.amend(2);
    twin.amend(3);
    for _ in 0..2 {
        twin.push(&[1, 2, 9, 7]);
    }
    for _ in 0..2 {
        twin.push(&[1, 2, 9, 7, 3]);
    }
}

// ---------------------------------------------------------------------------
// The windowed layout: a column holds only the rows its slot saw
// ---------------------------------------------------------------------------

/// Every retained column as `(level, unit at that level, window)`, in
/// timeline order.
fn columns(family: &FrameFamily<u32, Isb>) -> Vec<(usize, u64, Range<usize>)> {
    let (_, ladder) = family.ladders().next().expect("a key to read the clock by");
    let windows: Vec<Range<usize>> = family.held_windows().collect();
    assert_eq!(
        family.held_rows(),
        windows.iter().map(Range::len).sum::<usize>()
    );
    ladder
        .timeline()
        .into_iter()
        .zip(windows)
        .map(|((level, unit, _), window)| (level, unit, window))
        .collect()
}

/// The window of the newest column.
fn newest(family: &FrameFamily<u32, Isb>) -> Range<usize> {
    family.held_windows().last().expect("a retained column")
}

/// 256 cells report in 16 blocks of 16, one block a unit, in rotation;
/// the first rotation numbers the rows block by block. A unit column
/// holds exactly its block's rows, a column of four units the four
/// blocks', and only a column of a whole rotation the whole layer.
#[test]
fn rotating_blocks_hold_only_their_rows() {
    const BLOCKS: u64 = 16;
    const BLOCK: usize = 16;
    let spec = TiltSpec::new(vec![("unit", 4), ("mid", 4), ("top", 4)]).unwrap();
    let mut twin = Twin::new(spec);
    // Each level's slot spans `4^level` units, so `4^level` blocks.
    let span = |level: usize| 4usize.pow(level as u32);
    for unit in 0..100u64 {
        let block = (unit % BLOCKS) as usize;
        let keys: Vec<u32> = (block * BLOCK..(block + 1) * BLOCK)
            .map(|row| row as u32)
            .collect();
        twin.push(&keys);
        let mut held = [0usize; 3];
        for (level, slot_unit, window) in columns(&twin.family) {
            let blocks = span(level);
            let first = (slot_unit as usize * blocks) % BLOCKS as usize;
            let want = if blocks >= BLOCKS as usize {
                0..BLOCKS as usize * BLOCK
            } else {
                first * BLOCK..(first + blocks) * BLOCK
            };
            assert_eq!(window, want, "unit {unit}: level {level} slot {slot_unit}");
            held[level] += 1;
        }
        if unit % 4 != 3 {
            // No promotion: the newest column is the unit's own, exactly
            // its lowest to its highest active row.
            assert_eq!(newest(&twin.family), block * BLOCK..(block + 1) * BLOCK);
        }
        // The stated bound: a unit column holds 16 rows, a mid column 64,
        // a top column 256 — at most 1,344 rows over 4 + 4 + 4 slots,
        // where columns spanning every row from 0 up would hold up to
        // 3,072.
        let bound = held[0] * 16 + held[1] * 64 + held[2] * 256;
        assert_eq!(twin.family.held_rows(), bound, "unit {unit}");
        assert!(bound <= 1_344);
    }
    assert!(twin.family.held_rows() < twin.family.retained_slots() * 256);
}

/// Activity at both ends of the layer spans it: every window is the
/// whole layer, the layout of columns that hold every row from 0 up.
#[test]
fn scattered_activity_degrades_to_whole_columns() {
    let spec = TiltSpec::new(vec![("unit", 3), ("top", 2)]).unwrap();
    let mut twin = Twin::new(spec);
    let all: Vec<u32> = (0..256).collect();
    twin.push(&all);
    for unit in 1..20u64 {
        let keys = if unit % 2 == 0 { [0, 255] } else { [255, 0] };
        twin.push(&keys);
        assert!(
            twin.family.held_windows().all(|window| window == (0..256)),
            "unit {unit}"
        );
        assert_eq!(twin.family.held_rows(), twin.family.retained_slots() * 256);
    }
}

/// A unit nobody is active in holds no row, and promotions over it
/// hold what the other constituents hold — nothing, if none holds any.
#[test]
fn an_empty_unit_holds_no_row() {
    let spec = TiltSpec::new(vec![("unit", 2), ("mid", 2), ("top", 2)]).unwrap();
    let mut twin = Twin::new(spec);
    twin.push(&[3, 4, 5]);
    twin.push(&[]);
    // The pair merged into one mid column: the first unit's rows.
    assert_eq!(newest(&twin.family), 0..3);
    twin.push(&[]);
    assert!(newest(&twin.family).is_empty());
    twin.push(&[]);
    // Two empty units merge into an empty column, and the mid pair into
    // a top column holding the first unit's rows.
    assert_eq!(newest(&twin.family), 0..3);
    for _ in 0..4 {
        twin.push(&[]);
        assert!(newest(&twin.family).is_empty());
    }
    twin.push(&[4]);
    assert_eq!(newest(&twin.family), 1..2);
}

/// A late amendment outside a column's window widens it to the amended
/// row — before the window, after it, and on a key with no row yet.
#[test]
fn amendments_widen_the_window_they_land_outside() {
    let spec = TiltSpec::new(vec![("unit", 4), ("top", 2)]).unwrap();
    let mut twin = Twin::new(spec);
    let all: Vec<u32> = (0..10).collect();
    twin.push(&all);
    twin.push(&[4, 5, 6]);
    assert_eq!(newest(&twin.family), 4..7);
    twin.amend(5);
    assert_eq!(newest(&twin.family), 4..7, "inside: no widening");
    twin.amend(1);
    assert_eq!(newest(&twin.family), 1..7, "before");
    twin.amend(9);
    assert_eq!(newest(&twin.family), 1..10, "after");
    twin.amend(20);
    assert_eq!(newest(&twin.family), 1..11, "a new key's row");
    for keys in [&[4u32, 5][..], &[6], &[], &[5, 20]] {
        twin.push(keys);
    }
}

/// A retired row handed to a new key is reset to the fill in every
/// column whose window holds it — zero usage with a sign bit included —
/// and read as the fill, untouched, wherever it lies outside.
#[test]
fn a_recycled_row_reads_the_fill_inside_and_outside_windows() {
    let spec = TiltSpec::new(vec![("unit", 4), ("top", 2)]).unwrap();
    let mut twin = Twin::new(spec);
    // Key 1 (row 1) and key 3 (row 3) only ever report zero usage with a
    // sign bit, so each retires in the first unit it is silent in.
    twin.push_with(&[0, 1, 2], &[1]);
    twin.push_with(&[0, 2, 3], &[3]);
    assert!(twin.family.frame(&1).is_none(), "key 1 retired");
    twin.push(&[0, 2]);
    assert!(twin.family.frame(&3).is_none(), "key 3 retired");
    let windows: Vec<Range<usize>> = twin.family.held_windows().collect();
    assert_eq!(windows, vec![0..3, 0..4, 0..3]);
    // Row 3 lies inside the second window only, row 1 inside all three;
    // the new keys take them (in that order) and must read the fill.
    twin.push(&[0, 2, 7, 8]);
    for _ in 0..6 {
        twin.push(&[0, 2, 7, 8]);
    }
}

/// A promotion over disjoint windows holds their hull; the rows between
/// them read the merged fill.
#[test]
fn a_promotion_over_disjoint_windows_holds_their_hull() {
    let spec = TiltSpec::new(vec![("unit", 2), ("top", 3)]).unwrap();
    let mut twin = Twin::new(spec);
    let all: Vec<u32> = (0..8).collect();
    twin.push(&all);
    twin.push(&[0, 1]);
    twin.push(&[0, 1]);
    assert_eq!(newest(&twin.family), 0..2);
    twin.push(&[5, 6]);
    let windows: Vec<Range<usize>> = twin.family.held_windows().collect();
    assert_eq!(windows, vec![0..8, 0..7]);
    for keys in [&[5u32][..], &[2], &[7, 0]] {
        twin.push(keys);
    }
}

/// A family rebuilt from its frames, numbered in key order (as a
/// checkpoint lists them), leaves each column's leading and trailing
/// fills out: the rotation's windows come back no wider than they were,
/// and every read is the same.
#[test]
fn a_rebuilt_family_holds_windows_too() {
    let spec = TiltSpec::new(vec![("unit", 4), ("mid", 4), ("top", 4)]).unwrap();
    let mut twin = Twin::new(spec.clone());
    let mut never_active = TiltFrame::new(spec);
    for unit in 0..45u64 {
        let block = (unit % 16) as u32;
        // The last unit's block reports zero usage with a sign bit: idle,
        // not the fill, and still a unit column of its own.
        let keys: Vec<u32> = (block * 16..block * 16 + 16).collect();
        twin.push_with(&keys, if unit == 44 { &keys } else { &[] });
        never_active.push(isb_zero_fill(unit)).unwrap();
    }
    let before: Vec<Range<usize>> = twin.family.held_windows().collect();
    let mut keys: Vec<u32> = twin.family.ladders().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    let rows = keys.iter().map(|&k| {
        let frame = twin.family.frame(&k).unwrap();
        (k, frame.history().to_vec())
    });
    let rebuilt: FrameFamily<u32, Isb> =
        FrameFamily::from_rows(&never_active, isb_is_zero, rows).unwrap();
    assert_eq!(render_snapshot(&rebuilt), render_snapshot(&twin.family));
    let after: Vec<Range<usize>> = rebuilt.held_windows().collect();
    assert_eq!(after.len(), before.len());
    for (column, (was, is)) in before.iter().zip(&after).enumerate() {
        assert!(
            is.len() <= was.len(),
            "column {column}: {is:?} wider than {was:?}"
        );
    }
    assert!(rebuilt.held_rows() < rebuilt.retained_slots() * 256 / 2);
    // The sign-bit zeros are not the fill: the last unit's column is
    // held, not dropped.
    assert_eq!(after.last(), Some(&(192..208)));
}
