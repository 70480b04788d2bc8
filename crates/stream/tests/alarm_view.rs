//! Alarms and revisions are the o-family's verdicts.
//!
//! §4.3's one test — a regression line is exceptional if its slope is
//! ≥ the threshold — applied to the o-layer's tilt frames must reproduce
//! everything the engine publishes about alarms:
//!
//! * after every unit close and after every late record, the snapshot's
//!   alarm list is the screen of every o-frame's level-0 slot for the
//!   last closed unit, hottest first, ties by key — while that unit
//!   still has a slot of its own (the close that completes a level-0
//!   group promotes it, and until the next close the list is that
//!   close's verdict);
//! * the revisions a late record adds (read from the next unit report)
//!   are exactly the verdict changes across all o-frame slots between a
//!   snapshot taken before its `ingest` and one taken after.
//!
//! The stream is seeded and shuffled so in-lateness stragglers amend
//! closed units at both tilt levels, and the threshold is a score the
//! stream itself reaches, so `>=` and `>` tell apart.

use regcube_core::alarm::AlarmRevision;
use regcube_core::measure::exception_score;
use regcube_core::ExceptionPolicy;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_stream::{CubeSnapshot, EngineConfig, OnlineEngine, RawRecord};
use regcube_tilt::TiltSpec;
use std::collections::{BTreeMap, BTreeSet};

const TPU: i64 = 4;
const UNITS: i64 = 24;
const LATENESS: i64 = 2;
const SEED: u64 = 20_020_820;

/// SplitMix64: a seeded, dependency-free stream of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn o_layer() -> CuboidSpec {
    CuboidSpec::new(vec![1, 1])
}

/// Fanout 3, depth 2: 81 m-cells (the primitive layer) under 9 o-cells.
fn engine(policy: ExceptionPolicy) -> OnlineEngine {
    EngineConfig::new(
        CubeSchema::synthetic(2, 2, 3).unwrap(),
        o_layer(),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(policy)
    .with_tilt(TiltSpec::new(vec![("unit", 8), ("coarse", 4)]).unwrap())
    .with_ticks_per_unit(TPU as usize)
    .with_reordering(8, LATENESS)
    .build()
    .unwrap()
}

/// Every o-cell the schema has: the test enumerates them instead of
/// asking the engine which ones it holds.
fn o_keys() -> Vec<CellKey> {
    (0..3u32)
        .flat_map(|a| (0..3u32).map(move |b| CellKey::new(vec![a, b])))
        .collect()
}

/// Per unit, every o-cell draws a trend its m-cells follow; records
/// then move by up to `HORIZON` places, so some arrive after their unit
/// closed (amendments) and some beyond the lateness (drops).
fn stream(seed: u64) -> Vec<RawRecord> {
    const HORIZON: u64 = 150;
    let mut rng = Rng(seed);
    let mut records = Vec::new();
    for unit in 0..UNITS {
        let slopes: Vec<f64> = (0..9)
            .map(|_| (rng.below(41) as f64 - 20.0) / 8.0)
            .collect();
        for _ in 0..30 {
            let ids = vec![rng.below(9) as u32, rng.below(9) as u32];
            let offset = rng.below(TPU as u64) as i64;
            let slope = slopes[(ids[0] / 3 * 3 + ids[1] / 3) as usize];
            let noise = (rng.below(9) as f64 - 4.0) / 4.0;
            records.push(RawRecord::new(
                ids,
                unit * TPU + offset,
                slope * offset as f64 + noise,
            ));
        }
    }
    let mut keyed: Vec<(u64, RawRecord)> = records
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as u64 + rng.below(HORIZON), r))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, r)| r).collect()
}

fn isb_bits(isb: &Isb) -> (i64, i64, u64, u64) {
    (
        isb.start(),
        isb.end(),
        isb.base().to_bits(),
        isb.slope().to_bits(),
    )
}

type AlarmBits = (CellKey, (i64, i64, u64, u64), u64);

/// The published alarm list, floats as bits.
fn published(snapshot: &CubeSnapshot) -> Vec<AlarmBits> {
    snapshot
        .alarms()
        .iter()
        .map(|a| (a.key.clone(), isb_bits(&a.measure), a.score.to_bits()))
        .collect()
}

/// The one test over every o-frame's level-0 slot for the last closed
/// unit, hottest first, ties by key; `None` once that unit was promoted
/// out of level 0 (the frames share one clock, so either every frame
/// holds it there or none does).
fn screen(snapshot: &CubeSnapshot, threshold: f64) -> Option<Vec<AlarmBits>> {
    let Some(unit) = snapshot.unit() else {
        return Some(Vec::new());
    };
    let mut hits: Vec<(f64, CellKey, Isb)> = Vec::new();
    for key in o_keys() {
        let Some(frame) = snapshot.o_layer_frame(&key) else {
            continue;
        };
        let slots = frame.slots(0).unwrap();
        let slot = slots.iter().find(|s| s.unit == unit as u64)?;
        let score = exception_score(&slot.measure);
        if score >= threshold {
            hits.push((score, key, slot.measure));
        }
    }
    hits.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    Some(
        hits.into_iter()
            .map(|(score, key, measure)| (key, isb_bits(&measure), score.to_bits()))
            .collect(),
    )
}

/// `(cell, level, slot unit)`: one slot of the o-family.
type Slot = (CellKey, usize, u64);

/// Every slot of every o-frame.
fn o_slots(snapshot: &CubeSnapshot) -> BTreeMap<Slot, Isb> {
    let mut slots = BTreeMap::new();
    for key in o_keys() {
        if let Some(frame) = snapshot.o_layer_frame(&key) {
            for (level, slot) in frame.timeline() {
                slots.insert((key.clone(), level, slot.unit), slot.measure);
            }
        }
    }
    slots
}

/// `(cell, level, slot unit, old score, new score)` for every slot whose
/// measure moved between two snapshots, in `(cell, level, unit)` order.
fn moved_slots(before: &CubeSnapshot, after: &CubeSnapshot) -> Vec<(Slot, f64, f64)> {
    let before = o_slots(before);
    o_slots(after)
        .into_iter()
        .filter_map(|(slot, new)| {
            // A frame the amendment back-filled read the zero-usage
            // fill before it: slope 0.
            let old = before.get(&slot).map_or(0.0, exception_score);
            let new = exception_score(&new);
            (old.to_bits() != new.to_bits()).then_some((slot, old, new))
        })
        .collect()
}

/// `(kind, cell, unit, level, old score bits, new score bits)`.
type RevisionBits = (&'static str, CellKey, u64, usize, u64, u64);

/// The verdict changes among `moved` under `threshold`.
fn verdict_changes(moved: &[(Slot, f64, f64)], threshold: f64) -> Vec<RevisionBits> {
    moved
        .iter()
        .filter_map(|((cell, level, unit), old, new)| {
            let kind = match (*old >= threshold, *new >= threshold) {
                (true, false) => "retracted",
                (false, true) => "raised",
                (true, true) => "rescored",
                (false, false) => return None,
            };
            Some((
                kind,
                cell.clone(),
                *unit,
                *level,
                old.to_bits(),
                new.to_bits(),
            ))
        })
        .collect()
}

/// The engine's revision, in the form [`verdict_changes`] computes.
fn revision_bits(revision: &AlarmRevision) -> RevisionBits {
    assert_eq!(revision.cuboid, o_layer(), "{revision}");
    let kind = match revision.kind {
        regcube_core::alarm::RevisionKind::Retracted => "retracted",
        regcube_core::alarm::RevisionKind::Raised => "raised",
        regcube_core::alarm::RevisionKind::Rescored => "rescored",
    };
    (
        kind,
        revision.cell.clone(),
        revision.unit,
        revision.level,
        revision.old_score.to_bits(),
        revision.new_score.to_bits(),
    )
}

/// One engine screening at `threshold`, and what the checks saw.
struct Run {
    engine: OnlineEngine,
    threshold: f64,
    /// Revisions the late records since the last close must report.
    expected: Vec<RevisionBits>,
    /// Every amended slot's score change.
    moved: Vec<(Slot, f64, f64)>,
    kinds: BTreeSet<&'static str>,
    screened: usize,
}

impl Run {
    fn new(threshold: f64) -> Self {
        Run {
            engine: engine(ExceptionPolicy::slope_threshold(threshold)),
            threshold,
            expected: Vec::new(),
            moved: Vec::new(),
            kinds: BTreeSet::new(),
            screened: 0,
        }
    }

    fn check_alarms(&mut self, snapshot: &CubeSnapshot, at: &str) {
        if let Some(screened) = screen(snapshot, self.threshold) {
            assert_eq!(published(snapshot), screened, "{at}");
            self.screened += 1;
        }
    }

    fn close(&mut self) {
        let report = self.engine.close_unit().unwrap();
        let got: Vec<RevisionBits> = report.alarm_revisions.iter().map(revision_bits).collect();
        assert_eq!(
            got,
            std::mem::take(&mut self.expected),
            "unit {}",
            report.unit
        );
        self.kinds.extend(got.iter().map(|r| r.0));
        let snapshot = self.engine.snapshot();
        self.check_alarms(&snapshot, &format!("close of unit {}", report.unit));
    }

    fn ingest(&mut self, record: &RawRecord) {
        if record.tick.div_euclid(TPU) >= self.engine.open_unit() {
            self.engine.ingest(record).unwrap();
            return;
        }
        let before = self.engine.snapshot();
        self.engine.ingest(record).unwrap();
        let after = self.engine.snapshot();
        let moved = moved_slots(&before, &after);
        self.expected
            .extend(verdict_changes(&moved, self.threshold));
        self.moved.extend(moved);
        self.check_alarms(&after, &format!("late record {record:?}"));
    }
}

/// Drives `records` through an engine screening at `threshold`,
/// checking both views after every close and every late record.
fn drive(records: &[RawRecord], threshold: f64) -> Run {
    let mut run = Run::new(threshold);
    for record in records {
        run.ingest(record);
        while run.engine.close_ready() {
            run.close();
        }
    }
    while run.engine.buffered_records() > 0 || run.engine.units_closed() < UNITS as u64 {
        run.close();
    }
    // The trailing amendments reach the report of one more close.
    run.close();
    assert!(run.expected.is_empty());
    assert!(
        run.screened > 2 * UNITS as usize,
        "{} screens",
        run.screened
    );
    assert!(
        run.engine.late_dropped() > 0,
        "the stream must also drop records"
    );
    run
}

#[test]
fn alarms_and_revisions_are_the_o_family_verdicts() {
    let records = stream(SEED);
    // The o-family does not depend on the threshold: a first pass under
    // `never` finds the scores late records move, and the threshold is
    // one of them — a level-0 slot raised to exactly it.
    let probe = drive(&records, f64::INFINITY);
    assert!(probe.kinds.is_empty());
    let moved = probe.moved;
    assert!(
        moved.iter().any(|((_, level, _), ..)| *level > 0),
        "coarse slots amended too"
    );
    let mut raised: Vec<f64> = moved
        .iter()
        .filter(|((_, level, _), old, new)| *level == 0 && old < new && *new > 0.0)
        .map(|&(_, _, new)| new)
        .collect();
    raised.sort_by(f64::total_cmp);
    assert!(raised.len() > 10, "{} raising amendments", raised.len());
    let threshold = raised[raised.len() / 2];

    let run = drive(&records, threshold);
    assert_eq!(run.moved.len(), moved.len());
    assert_eq!(
        run.kinds,
        BTreeSet::from(["raised", "rescored", "retracted"]),
        "threshold {threshold}"
    );
}
