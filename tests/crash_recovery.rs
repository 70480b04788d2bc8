//! The crash-recovery drill CI runs on every push: run a jittered
//! multi-source workload to the midpoint,
//! checkpoint, throw the engine away as a crash would, restore from the
//! file, finish — and require the revived run byte-identical to the
//! uninterrupted one: every report, alarm, amendment, revision, drill
//! and counter.

use regcube::prelude::*;
use regcube::stream::UnitReport;
use std::fmt::Write as _;

const TPU: usize = 4;

/// A watermark engine with per-source eviction.
fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(1.0))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU)
    .with_reordering(32, 2)
    .with_watermark_policy(WatermarkPolicy::PerSource { idle_units: 4 })
}

/// A deterministic jittered feed: shuffled-within-lateness ticks,
/// rotating sources, a value mix that keeps several cells alarming,
/// and one beyond-lateness straggler that must be counted as dropped.
fn records() -> Vec<RawRecord> {
    let mut out: Vec<RawRecord> = (0..160i64)
        .map(|i| {
            let ids = vec![(i % 4) as u32, ((i / 2) % 4) as u32];
            let jitter = [0, 3, 1, 5, 2, 0, 4, 1][(i % 8) as usize];
            let value = ((i % 11) - 5) as f64 * 0.7 + (i % 3) as f64;
            RawRecord::new(ids, (i / 2 - jitter).max(0), value).with_source((i % 3) as u32)
        })
        .collect();
    // An ancient record lands late in the stream: a counted drop.
    out.insert(150, RawRecord::new(vec![0, 0], 0, 42.0).with_source(0));
    out
}

/// Serializes everything a report promises, floats by exact bits.
fn render(reports: &[UnitReport]) -> String {
    let mut out = String::new();
    for r in reports {
        writeln!(
            out,
            "unit {} m_cells={} exc={} dropped={} epoch={}",
            r.unit, r.m_cells, r.exception_cells, r.late_dropped, r.snapshot_epoch
        )
        .unwrap();
        for a in &r.alarms {
            writeln!(
                out,
                "  alarm {} score={:016x} slope={:016x}",
                a.key,
                a.score.to_bits(),
                a.measure.slope().to_bits()
            )
            .unwrap();
        }
        for amendment in &r.late_amendments {
            writeln!(out, "  {amendment}").unwrap();
        }
        for revision in &r.alarm_revisions {
            writeln!(out, "  {revision}").unwrap();
        }
    }
    out
}

fn drills(engine: &regcube::stream::OnlineEngine) -> String {
    let mut out = String::new();
    for ids in [[0u32, 0], [1, 2], [3, 3]] {
        let key = CellKey::new(ids);
        for hit in engine.drill_history(&key).unwrap_or_default() {
            writeln!(
                out,
                "{key} {} u{} slope={:016x} score={:016x}",
                hit.level_name,
                hit.slot_unit,
                hit.measure.slope().to_bits(),
                hit.score.to_bits()
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn interrupted_run_finishes_byte_identical_to_uninterrupted() {
    let feed = records();
    let half = feed.len() / 2;

    // Uninterrupted reference.
    let mut reference = config().build().unwrap();
    let mut ref_reports = Vec::new();
    for r in &feed {
        reference.ingest(r).unwrap();
        ref_reports.extend(reference.drain_ready().unwrap());
    }
    ref_reports.extend(reference.flush().unwrap());

    // Interrupted run: midpoint checkpoint, crash, restore, finish.
    let dir = std::env::temp_dir().join(format!("regcube-crash-drill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drill.rgck");
    let mut revived_reports = Vec::new();
    {
        let mut victim = config().build().unwrap();
        for r in &feed[..half] {
            victim.ingest(r).unwrap();
            revived_reports.extend(victim.drain_ready().unwrap());
        }
        victim.write_checkpoint(&path).unwrap();
        // The "crash": the engine drops here with open units, a primed
        // reorder buffer and live per-source watermarks.
    }
    let mut revived = config().restore(&path).unwrap();
    for r in &feed[half..] {
        revived.ingest(r).unwrap();
        revived_reports.extend(revived.drain_ready().unwrap());
    }
    revived_reports.extend(revived.flush().unwrap());

    assert_eq!(
        render(&ref_reports),
        render(&revived_reports),
        "reports diverged after recovery"
    );
    assert_eq!(
        reference.snapshot().canonical_text(),
        revived.snapshot().canonical_text(),
        "final snapshots diverged after recovery"
    );
    assert_eq!(drills(&reference), drills(&revived), "drills diverged");

    let (a, b) = (reference.stats(), revived.stats());
    assert_eq!(a.late_dropped, b.late_dropped);
    assert!(a.late_dropped >= 1, "the ancient straggler must be counted");
    assert_eq!(a.late_amendments, b.late_amendments);
    assert_eq!(a.sources_evicted, b.sources_evicted);
    assert_eq!(a.watermark_held_units, b.watermark_held_units);

    // And the file survives a reread (it was not consumed or mangled).
    let again = config().restore(&path);
    assert!(again.is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
