//! Regression tests for the query/ingest blocking hazard: a published
//! [`CubeSnapshot`] must answer drills and cube queries with the
//! **same bytes** as the engine-blocking path at the same unit
//! boundary, and must stay frozen while the engine moves on.

use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine};
use regcube_core::{CriticalLayers, ExceptionPolicy};
use regcube_olap::cell::CellKey;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_stream::{CubeSnapshot, EngineConfig, OnlineEngine, RawRecord};
use regcube_tilt::TiltSpec;

const TPU: usize = 4;

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.8))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU)
}

fn engine() -> OnlineEngine {
    config().build().unwrap()
}

/// A deterministic mixed-traffic unit: drifting cells, one steep cell.
fn feed_unit<E: CubingEngine>(e: &mut OnlineEngine<E>, unit: i64) {
    for t in unit * TPU as i64..(unit + 1) * TPU as i64 {
        for a in 0..3u32 {
            for b in 0..3u32 {
                let steep = a == 2 && b == 1;
                let v = if steep {
                    5.0 * (t % TPU as i64) as f64
                } else {
                    1.0 + 0.2 * f64::from(a) + 0.05 * (t % TPU as i64) as f64 * f64::from(b)
                };
                e.ingest(&RawRecord::new(vec![a, b], t, v)).unwrap();
            }
        }
    }
}

fn all_keys() -> Vec<CellKey> {
    let mut keys = Vec::new();
    for a in 0..4u32 {
        for b in 0..4u32 {
            keys.push(CellKey::new(vec![a, b]));
        }
    }
    keys
}

/// Byte-exact equality witness for drill results.
fn drill_bytes(hits: &[regcube_stream::TiltHit<'_>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for h in hits {
        let _ = writeln!(
            out,
            "{} {} u{} [{},{}] b={:016x} s={:016x} score={:016x} exc={}",
            h.level,
            h.level_name,
            h.slot_unit,
            h.measure.start(),
            h.measure.end(),
            h.measure.base().to_bits(),
            h.measure.slope().to_bits(),
            h.score.to_bits(),
            h.exceptional
        );
    }
    out
}

/// At every unit boundary, for every cell and every tilt level, the
/// snapshot's drill answers are byte-identical to the live engine's —
/// the two paths share one implementation, and this pins it.
#[test]
fn snapshot_drills_match_live_engine_bytes() {
    let mut e = engine();
    for unit in 0..6 {
        feed_unit(&mut e, unit);
        let report = e.close_unit().unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.epoch(), report.snapshot_epoch);
        assert_eq!(snap.unit(), Some(unit));
        for key in all_keys() {
            for level in 0..2 {
                let live = e.drill_at(level, &key).unwrap();
                let frozen = snap.drill_at(level, &key).unwrap();
                assert_eq!(live, frozen, "unit={unit} {key} L{level}");
                assert_eq!(drill_bytes(&live), drill_bytes(&frozen));
            }
            assert_eq!(
                drill_bytes(&e.drill_history(&key).unwrap()),
                drill_bytes(&snap.drill_history(&key).unwrap()),
                "unit={unit} {key} history"
            );
        }
        // Cube parity: same m-/o-tables, bit for bit.
        let (live, frozen) = (e.cube().unwrap(), snap.cube().unwrap());
        assert_eq!(live.m_table().len(), frozen.m_table().len());
        for (key, isb) in live.m_table() {
            let got = frozen.m_table().get(key).unwrap();
            assert_eq!(isb.base().to_bits(), got.base().to_bits());
            assert_eq!(isb.slope().to_bits(), got.slope().to_bits());
        }
        // Alarm parity with the close that published this epoch.
        assert_eq!(snap.alarms(), report.alarms.as_slice());
    }
}

/// A held snapshot is frozen: the engine ingesting and closing more
/// units never changes what an old snapshot answers.
#[test]
fn snapshot_is_immutable_under_further_ingest() {
    let mut e = engine();
    for unit in 0..3 {
        feed_unit(&mut e, unit);
        e.close_unit().unwrap();
    }
    let snap = e.snapshot();
    let before = snap.canonical_text();
    let key = CellKey::new(vec![2, 1]);
    let drills_before = drill_bytes(&snap.drill_history(&key).unwrap());

    for unit in 3..7 {
        feed_unit(&mut e, unit);
        e.close_unit().unwrap();
    }
    assert_eq!(
        snap.canonical_text(),
        before,
        "snapshot changed under ingest"
    );
    assert_eq!(
        drill_bytes(&snap.drill_history(&key).unwrap()),
        drills_before
    );
    assert_eq!(snap.epoch(), 3);
    assert_eq!(e.snapshot().epoch(), 7);
    assert_ne!(e.snapshot().canonical_text(), before);
}

/// Takes a snapshot at unit 2 and holds it while the engine cubes four
/// more units and takes late amendments to units the snapshot covers.
/// What the snapshot shares with the engine (the cube, by reference
/// count) is never written again, and what it copied (the frames) must
/// be its own.
fn held_snapshot_survives<E: CubingEngine>(
    name: &str,
    make: impl FnOnce(CubeSchema, CriticalLayers, ExceptionPolicy) -> regcube_core::Result<E>,
) {
    let mut e = config().with_reordering(8, 2).build_with(make).unwrap();
    for unit in 0..3 {
        feed_unit(&mut e, unit);
        e.close_unit().unwrap();
    }
    let held = e.snapshot();
    let text = held.canonical_text();
    let key = CellKey::new(vec![2, 1]);
    let drills = drill_bytes(&held.drill_history(&key).unwrap());

    for unit in 3..7 {
        feed_unit(&mut e, unit);
        // Stragglers for the two units behind the open one.
        for lag in 1..=2 {
            let tick = (unit - lag) * TPU as i64 + 1;
            e.ingest(&RawRecord::new(vec![2, 1], tick, 40.0)).unwrap();
        }
        e.close_unit().unwrap();
    }
    assert_eq!(e.late_amended(), 8, "{name}: every straggler amended");

    assert_eq!(held.canonical_text(), text, "{name}: held snapshot changed");
    assert_eq!(drill_bytes(&held.drill_history(&key).unwrap()), drills);
    assert_eq!(held.epoch(), 3);
    assert_ne!(e.snapshot().canonical_text(), text);
}

#[test]
fn held_snapshot_never_changes_on_any_engine() {
    held_snapshot_survives("m/o-cubing", MoCubingEngine::new);
    held_snapshot_survives("popular path", |s, l, p| {
        PopularPathEngine::new(s, l, p, None)
    });
}

/// Before the first close the snapshot mirrors the engine's
/// not-materialized error; empty units close and publish like the
/// live engine (epoch advances, no cube).
#[test]
fn snapshot_error_parity_and_empty_units() {
    let mut e = engine();
    let snap = e.snapshot();
    assert_eq!(snap.epoch(), 0);
    assert_eq!(snap.unit(), None);
    assert!(snap.cube().is_err());
    assert!(e.cube().is_err());
    assert!(snap.try_cube().is_none());

    e.close_unit().unwrap(); // empty unit
    let snap = e.snapshot();
    assert_eq!(snap.epoch(), 1);
    assert_eq!(snap.unit(), Some(0));
    assert!(snap.cube().is_err(), "empty close materializes nothing");

    feed_unit(&mut e, 1);
    e.close_unit().unwrap();
    let snap = e.snapshot();
    assert_eq!(snap.epoch(), 2);
    assert!(snap.cube().is_ok());
}

/// `canonical_text` is a faithful equality witness: equal state renders
/// equal, different state renders different.
#[test]
fn canonical_text_discriminates() {
    let mk = |units: i64| -> CubeSnapshot {
        let mut e = engine();
        for unit in 0..units {
            feed_unit(&mut e, unit);
            e.close_unit().unwrap();
        }
        e.snapshot()
    };
    assert_eq!(mk(3).canonical_text(), mk(3).canonical_text());
    assert_ne!(mk(3).canonical_text(), mk(4).canonical_text());
}

/// Snapshot epochs correlate with `UnitReport::snapshot_epoch` — the
/// serving layer's join key between closes and publications.
#[test]
fn report_epoch_matches_snapshot_epoch() {
    let mut e = engine();
    for unit in 0..4 {
        feed_unit(&mut e, unit);
        let report = e.close_unit().unwrap();
        assert_eq!(report.snapshot_epoch, (unit + 1) as u64);
        assert_eq!(e.snapshot().epoch(), report.snapshot_epoch);
    }
}
