//! `drill_at` / `drill_history` against the owned frames they read.
//!
//! The oracle materialises the drilled cell's [`TiltFrame`] — through
//! `tilt_frame`, or `o_layer_frame` when the m-layer never saw the key,
//! the same m-layer-first lookup the drills make — and screens every
//! slot of [`TiltFrame::levels`] with §4.3's one test,
//! `exception_score(measure) >= policy.threshold_for(layer)`.
//! `drill_at(level)` must return that level's slots oldest first, and
//! `drill_history` every level coarsest first, on the live engine and on
//! a snapshot, at every unit boundary of a run whose ladder fills,
//! promotes into its coarsest level and ages slots out of it.

use regcube_core::measure::exception_score;
use regcube_core::ExceptionPolicy;
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_regress::Isb;
use regcube_stream::{EngineConfig, OnlineEngine, RawRecord, StreamError, TiltHit};
use regcube_tilt::{TiltError, TiltFrame, TiltSpec};

const TPU: usize = 4;
/// Four finest slots, three middle ones, two coarsest: the coarsest
/// level first fills at unit 12 and ages a slot out from unit 36 on.
const UNITS: i64 = 40;
const LEVELS: usize = 3;

fn m_layer() -> CuboidSpec {
    CuboidSpec::new(vec![2, 2])
}

fn o_layer() -> CuboidSpec {
    CuboidSpec::new(vec![1, 1])
}

/// The o-layer's threshold differs from the m-layer's, so a drill that
/// scores a cell with the other layer's threshold shows.
fn policy() -> ExceptionPolicy {
    ExceptionPolicy::slope_threshold(0.8)
        .with_cuboid_threshold(o_layer(), 2.5)
        .unwrap()
}

fn engine() -> OnlineEngine {
    EngineConfig::new(
        CubeSchema::synthetic(2, 2, 3).unwrap(),
        o_layer(),
        m_layer(),
    )
    .with_policy(policy())
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("mid", 3), ("coarse", 2)]).unwrap())
    .with_ticks_per_unit(TPU)
    .build()
    .unwrap()
}

/// The m-cells that ever report: a block under o-cells `(1..=2, 1..=2)`,
/// plus `[1, 2]`, whose ids equal an o-cell's.
fn m_cells() -> Vec<[u32; 2]> {
    let mut cells = vec![[1, 2]];
    for a in 3..8 {
        for b in 4..9 {
            cells.push([a, b]);
        }
    }
    cells
}

/// One unit: each cell reports in three units of four, with a slope
/// that moves from unit to unit, so slots on both sides of either
/// threshold are warehoused and cells retire and come back.
fn feed_unit(engine: &mut OnlineEngine, unit: i64) {
    for t in unit * TPU as i64..(unit + 1) * TPU as i64 {
        for [a, b] in m_cells() {
            if (i64::from(a + b) + unit) % 4 == 0 {
                continue;
            }
            let slope = ((i64::from(a * 7 + b * 3) + unit) % 7) as f64 * 0.6;
            let v = 1.0 + f64::from(b) + slope * (t % TPU as i64) as f64;
            engine.ingest(&RawRecord::new(vec![a, b], t, v)).unwrap();
        }
    }
}

/// m-keys, o-keys (`[1, 2]` among them, drilled as the m-cell), and keys
/// no layer ever saw.
fn keys() -> Vec<CellKey> {
    let mut keys: Vec<CellKey> = m_cells().into_iter().map(CellKey::new).collect();
    for a in 0..3u32 {
        for b in 0..3u32 {
            keys.push(CellKey::new([a, b]));
        }
    }
    keys.push(CellKey::new([8, 0]));
    keys.push(CellKey::new([9, 9]));
    keys.push(CellKey::new([1, 1, 1]));
    keys
}

/// A hit as comparable values, every float by its bits.
type Slot = (usize, String, u64, [u64; 2], [i64; 2], u64, bool);

fn slot(level: usize, name: &str, unit: u64, measure: &Isb, score: f64, exc: bool) -> Slot {
    (
        level,
        name.to_string(),
        unit,
        [measure.base().to_bits(), measure.slope().to_bits()],
        [measure.start(), measure.end()],
        score.to_bits(),
        exc,
    )
}

fn hits(hits: &[TiltHit<'_>]) -> Vec<Slot> {
    hits.iter()
        .map(|h| {
            slot(
                h.level,
                h.level_name,
                h.slot_unit,
                &h.measure,
                h.score,
                h.exceptional,
            )
        })
        .collect()
}

/// Every level of the frame the drills read for `key`, finest first,
/// each slot screened with the one test.
fn oracle_levels(
    m_frame: Option<TiltFrame<Isb>>,
    o_frame: Option<TiltFrame<Isb>>,
) -> Option<Vec<Vec<Slot>>> {
    let policy = policy();
    let (frame, layer) = match (m_frame, o_frame) {
        (Some(frame), _) => (frame, m_layer()),
        (None, Some(frame)) => (frame, o_layer()),
        (None, None) => return None,
    };
    let threshold = policy.threshold_for(&layer);
    let names = frame.spec().levels();
    let levels = frame
        .levels()
        .enumerate()
        .map(|(level, slots)| {
            slots
                .iter()
                .map(|s| {
                    let score = exception_score(&s.measure);
                    let name = &names[level].name;
                    slot(level, name, s.unit, &s.measure, score, score >= threshold)
                })
                .collect()
        })
        .collect();
    Some(levels)
}

/// Both drills of one reader against the oracle for every key, plus the
/// typed error for a level the spec does not define. Returns how many
/// keys read an m-frame, how many an o-frame, and how many of the slots
/// read were exceptional and how many not.
fn check_reader(
    what: &str,
    frames: impl Fn(&CellKey) -> (Option<TiltFrame<Isb>>, Option<TiltFrame<Isb>>),
    drill_at: impl Fn(usize, &CellKey) -> Result<Vec<Slot>, StreamError>,
    drill_history: impl Fn(&CellKey) -> Result<Vec<Slot>, StreamError>,
) -> (usize, usize, usize, usize) {
    let (mut m_seen, mut o_seen, mut exceptional, mut calm) = (0, 0, 0, 0);
    for key in keys() {
        let (m_frame, o_frame) = frames(&key);
        m_seen += usize::from(m_frame.is_some());
        o_seen += usize::from(m_frame.is_none() && o_frame.is_some());
        let levels = oracle_levels(m_frame, o_frame);
        for level in 0..LEVELS {
            let want = levels.as_ref().map_or(Vec::new(), |l| l[level].clone());
            assert_eq!(
                drill_at(level, &key).unwrap(),
                want,
                "{what} drill_at({level}, {key})"
            );
        }
        let want: Vec<Slot> = levels
            .map(|l| l.into_iter().rev().flatten().collect())
            .unwrap_or_default();
        let hot = want.iter().filter(|slot| slot.6).count();
        exceptional += hot;
        calm += want.len() - hot;
        assert_eq!(
            drill_history(&key).unwrap(),
            want,
            "{what} drill_history({key})"
        );
        for level in [LEVELS, usize::MAX] {
            match drill_at(level, &key) {
                Err(StreamError::Tilt(TiltError::UnknownLevel { level: l, count })) => {
                    assert_eq!((l, count), (level, LEVELS), "{what} {key}");
                }
                other => panic!("{what} drill_at({level}, {key}): {other:?}"),
            }
        }
    }
    (m_seen, o_seen, exceptional, calm)
}

#[test]
fn drills_read_what_the_owned_frames_hold() {
    let mut engine = engine();
    let (mut coarsest_seen, mut slots) = (false, (0, 0));
    for unit in 0..UNITS {
        feed_unit(&mut engine, unit);
        engine.close_unit().unwrap();
        let snapshot = engine.snapshot();
        let seen = check_reader(
            "engine",
            |k| (engine.tilt_frame(k), engine.o_layer_frame(k)),
            |level, k| engine.drill_at(level, k).map(|h| hits(&h)),
            |k| engine.drill_history(k).map(|h| hits(&h)),
        );
        let (m_seen, o_seen, exceptional, calm) = seen;
        assert!(
            m_seen > 0 && o_seen > 0,
            "unit {unit}: {m_seen} m, {o_seen} o"
        );
        slots.0 += exceptional;
        slots.1 += calm;
        assert_eq!(
            check_reader(
                "snapshot",
                |k| (snapshot.tilt_frame(k), snapshot.o_layer_frame(k)),
                |level, k| snapshot.drill_at(level, k).map(|h| hits(&h)),
                |k| snapshot.drill_history(k).map(|h| hits(&h)),
            ),
            seen
        );
        let frame = engine.tilt_frame(&CellKey::new([1, 2])).unwrap();
        let lens: Vec<usize> = frame.levels().map(<[_]>::len).collect();
        coarsest_seen |= lens[LEVELS - 1] > 0 && lens[..LEVELS - 1].iter().any(|&n| n > 0);
    }
    // The run left finer levels partly filled over a non-empty coarsest
    // level, and the coarsest level aged its unit 0 out.
    assert!(coarsest_seen);
    assert!(
        slots.0 > 0 && slots.1 > 0,
        "{slots:?} exceptional / calm slots"
    );
    let frame = engine.tilt_frame(&CellKey::new([1, 2])).unwrap();
    let coarsest: Vec<u64> = frame
        .slots(LEVELS - 1)
        .unwrap()
        .iter()
        .map(|s| s.unit)
        .collect();
    assert_eq!(coarsest, [1, 2]);
}
