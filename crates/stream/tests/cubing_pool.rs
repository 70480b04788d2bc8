//! A cubing pool never changes a served byte.
//!
//! The same stream goes through two engines built from one
//! [`EngineConfig`]: one rolls its depth tiers up on the calling
//! thread, the other on a 2-worker [`WorkerPool`]. Every unit has
//! thousands of m-cells, so the first tier of each is large enough for
//! the pooled engine to fan it out. The stream arrives shuffled within
//! the allowed lateness, carries stragglers that amend closed units and
//! one record beyond the lateness that is counted and dropped, and
//! half-way the pooled engine is checkpointed and restored. After every
//! close both engines must report the same unit, bit for bit, and
//! publish snapshots with the same `canonical_text()`.

use regcube_core::{ExceptionPolicy, WorkerPool};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_stream::{restore_bytes, EngineConfig, OnlineEngine, RawRecord, UnitReport};
use regcube_tilt::TiltSpec;
use std::fmt::Write as _;
use std::sync::Arc;

const TPU: i64 = 4;
const UNITS: i64 = 8;
const LATENESS: i64 = 2;
/// Leaves per dimension: a 64 × 64 m-layer.
const SIDE: u32 = 64;

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 8).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(6.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU as usize)
    .with_reordering(8, LATENESS)
}

/// A deterministic scramble of `x`.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// The stream in arrival order. Unit `u` holds about 70 % of the 4,096
/// m-cells, so its first depth tier folds some 5,700 source rows; a few
/// cells ramp steeply. Every record arrives up to one unit late.
fn arrivals() -> Vec<RawRecord> {
    let mut records: Vec<(i64, RawRecord)> = Vec::new();
    for unit in 0..UNITS {
        for a in 0..SIDE {
            for b in 0..SIDE {
                let cell = u64::from(a * SIDE + b);
                let seed = mix(cell ^ ((unit as u64) << 20));
                if seed % 10 >= 7 {
                    continue;
                }
                let slope = if seed % 97 == 0 {
                    12.0
                } else {
                    (seed % 13) as f64 * 0.05
                };
                let base = 1.0 + (seed % 7) as f64;
                for tick in unit * TPU..(unit + 1) * TPU {
                    let value = base + slope * (tick - unit * TPU) as f64;
                    let jitter = (mix(seed ^ tick as u64) % TPU as u64) as i64;
                    records.push((tick + jitter, RawRecord::new(vec![a, b], tick, value)));
                }
            }
        }
    }
    records.sort_by_key(|(arrival, _)| *arrival);
    records.into_iter().map(|(_, record)| record).collect()
}

/// Everything a report serves, measures by their bits. The delta's
/// ordinal is left out: a restored engine counts its cubing calls
/// from the restore.
fn report_bits(r: &UnitReport) -> String {
    assert!(r.sink_errors.is_empty());
    let mut out = format!(
        "unit {} m {} exc {} dropped {} epoch {}\n",
        r.unit, r.m_cells, r.exception_cells, r.late_dropped, r.snapshot_epoch
    );
    for alarm in &r.alarms {
        let m = &alarm.measure;
        writeln!(
            out,
            "alarm {} {:?} {:x} {:x} {:x} {:x}",
            alarm.key,
            m.interval(),
            m.base().to_bits(),
            m.slope().to_bits(),
            alarm.score.to_bits(),
            alarm.threshold.to_bits()
        )
        .unwrap();
    }
    if let Some(d) = &r.cube_delta {
        writeln!(
            out,
            "delta {:?} {} {} {:?} {:?}",
            d.window, d.tuples, d.cells_touched, d.appeared, d.cleared
        )
        .unwrap();
    }
    for amendment in &r.late_amendments {
        writeln!(out, "{amendment:?} {:x}", amendment.delta.to_bits()).unwrap();
    }
    for revision in &r.alarm_revisions {
        writeln!(out, "{revision:?}").unwrap();
    }
    out
}

/// Feeds `record` to both engines, checks every report it closes and
/// returns the plain engine's.
fn feed(
    plain: &mut OnlineEngine,
    pooled: &mut OnlineEngine,
    record: &RawRecord,
) -> Vec<UnitReport> {
    plain.ingest(record).unwrap();
    pooled.ingest(record).unwrap();
    let (a, b) = (plain.drain_ready().unwrap(), pooled.drain_ready().unwrap());
    assert_eq!(a.len(), b.len(), "closes at tick {}", record.tick);
    for (x, y) in a.iter().zip(&b) {
        assert!(
            x.m_cells * 2 >= 4096,
            "unit {}: too small to fan out",
            x.unit
        );
        assert_eq!(report_bits(x), report_bits(y));
        assert_eq!(
            plain.snapshot().canonical_text(),
            pooled.snapshot().canonical_text(),
            "unit {}",
            x.unit
        );
    }
    a
}

#[test]
fn a_cubing_pool_never_changes_a_served_byte() {
    let pool = Arc::new(WorkerPool::new(2));
    let pooled_config = || config().with_cubing_pool(Arc::clone(&pool));
    let mut plain = config().build().unwrap();
    let mut pooled = pooled_config().build().unwrap();

    let (mut reports, mut amended, mut restored) = (Vec::new(), 0, false);
    let mut last_unit = 0;
    for record in arrivals() {
        let unit = record.tick.div_euclid(TPU);
        if unit > last_unit {
            last_unit = unit;
            // A straggler for the newest closed unit amends its slot.
            let open = plain.open_unit();
            if open >= 1 {
                let straggler = RawRecord::new(vec![5, 9], (open - 1) * TPU + 1, 40.0);
                reports.extend(feed(&mut plain, &mut pooled, &straggler));
                amended += 1;
            }
            if unit == UNITS / 2 && !restored {
                let bytes = pooled.checkpoint_bytes().unwrap();
                pooled = restore_bytes(pooled_config(), &bytes).unwrap();
                restored = true;
            }
        }
        reports.extend(feed(&mut plain, &mut pooled, &record));
    }
    // A record for unit 0, long beyond the lateness: counted and
    // dropped by both.
    let dropped = RawRecord::new(vec![0, 0], 1, 9.0);
    reports.extend(feed(&mut plain, &mut pooled, &dropped));
    let (a, b) = (plain.flush().unwrap(), pooled.flush().unwrap());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(report_bits(x), report_bits(y));
    }
    reports.extend(a);
    assert_eq!(
        plain.snapshot().canonical_text(),
        pooled.snapshot().canonical_text()
    );

    // The stream exercised what it is meant to.
    assert!(restored);
    assert_eq!(reports.len(), UNITS as usize);
    assert!(reports.iter().any(|r| !r.alarms.is_empty()));
    assert!(reports.iter().any(|r| !r.alarm_revisions.is_empty()));
    assert_eq!(pooled.late_amended(), amended);
    assert_eq!(pooled.late_dropped(), 1);
    let (s, t) = (plain.stats(), pooled.stats());
    assert_eq!(
        (s.late_dropped, s.late_amendments, s.watermark_held_units),
        (t.late_dropped, t.late_amendments, t.watermark_held_units)
    );
}
