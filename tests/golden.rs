//! Golden-file regression test: a deterministic quickstart-style
//! pipeline — multi-unit stream, cubing, o-layer alarms, alarm sinks —
//! serialized in full and pinned against `tests/golden/pipeline.txt`.
//!
//! The serialization covers every per-unit report (alarms, deltas), the
//! final retained exception set, the alarm log's episode list, the
//! escalations and the dashboard, so a refactor that silently shifts
//! any of them fails here with a line diff.
//!
//! Regenerate the snapshot after an intended behavior change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use regcube::core::alarm::{self, AlarmLog, DashboardSummary, SharedSink, ThresholdEscalator};
use regcube::prelude::*;
use regcube::stream::online::EngineConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

const TICKS_PER_UNIT: usize = 5;
const UNITS: i64 = 6;

/// The monitored streams: a quiet field, one persistent runaway, one
/// flapping cell and one late riser.
fn slope_for(cell: (u32, u32), unit: i64) -> f64 {
    match cell {
        // Persistent: hot from unit 1, recovers at unit 4.
        (1, 2) if (1..4).contains(&unit) => 1.6,
        (1, 2) => 0.02,
        // Flapping: hot on even units only.
        (8, 8) => {
            if unit % 2 == 0 {
                1.2
            } else {
                0.01
            }
        }
        // Late riser: hot for the last two units.
        (4, 7) => {
            if unit >= 4 {
                2.5
            } else {
                0.03
            }
        }
        _ => 0.02,
    }
}

/// Runs the pipeline and serializes
/// everything observable: reports, deltas, final cube, episodes,
/// escalations, dashboard.
fn run_pipeline() -> String {
    let cells: [(u32, u32); 7] = [(0, 0), (1, 2), (2, 5), (3, 6), (4, 7), (7, 1), (8, 8)];
    let log = alarm::shared(AlarmLog::new(64));
    let escalator = alarm::shared(ThresholdEscalator::new(2, 3, 4));
    let dashboard = alarm::shared(DashboardSummary::new());

    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.8))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TICKS_PER_UNIT)
    .with_sinks([
        log.clone() as SharedSink,
        escalator.clone() as SharedSink,
        dashboard.clone() as SharedSink,
    ])
    .build()
    .unwrap();

    let mut out = String::new();
    for unit in 0..UNITS {
        let t0 = unit * TICKS_PER_UNIT as i64;
        for t in t0..t0 + TICKS_PER_UNIT as i64 {
            for &(a, b) in &cells {
                let value = 1.0 + slope_for((a, b), unit) * (t - t0) as f64;
                engine
                    .ingest(&RawRecord::new(vec![a, b], t, value))
                    .unwrap();
            }
        }
        let report = engine.close_unit().unwrap();
        writeln!(
            out,
            "unit {} m_cells={} exception_cells={}",
            report.unit, report.m_cells, report.exception_cells
        )
        .unwrap();
        for alarm in &report.alarms {
            writeln!(
                out,
                "  ALARM {} score={:.6} threshold={:.6} slope={:.6}",
                alarm.key,
                alarm.score,
                alarm.threshold,
                alarm.measure.slope()
            )
            .unwrap();
        }
        let delta = report.cube_delta.as_ref().unwrap();
        for (cuboid, cell) in &delta.appeared {
            writeln!(out, "  appeared {cuboid}{cell}").unwrap();
        }
        for (cuboid, cell) in &delta.cleared {
            writeln!(out, "  cleared {cuboid}{cell}").unwrap();
        }
        assert!(report.sink_errors.is_empty(), "built-in sinks never fail");
    }

    // The full retained exception set of the final cube, sorted.
    writeln!(out, "final exceptions").unwrap();
    let cube = engine.cube().unwrap();
    let mut exceptions: Vec<(CuboidSpec, CellKey, Isb)> = cube
        .iter_exceptions()
        .map(|(c, k, m)| (c.clone(), k.clone(), *m))
        .collect();
    exceptions.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    for (cuboid, cell, isb) in &exceptions {
        writeln!(
            out,
            "  {cuboid}{cell} slope={:.6} base={:.6}",
            isb.slope(),
            isb.base()
        )
        .unwrap();
    }

    // The alarm log's full episode history.
    writeln!(out, "episodes").unwrap();
    let log = log.lock().unwrap();
    for e in log.open_episodes() {
        writeln!(out, "  open {e}").unwrap();
    }
    for e in log.closed_episodes() {
        writeln!(out, "  closed {e}").unwrap();
    }
    writeln!(
        out,
        "  totals opened={} closed={} suppressed={}",
        log.opened_total(),
        log.closed_total(),
        log.suppressed()
    )
    .unwrap();

    writeln!(out, "escalations").unwrap();
    let escalator = escalator.lock().unwrap();
    for e in escalator.escalations() {
        writeln!(
            out,
            "  unit {} {}{} {:?}",
            e.unit, e.cuboid, e.cell, e.reason
        )
        .unwrap();
    }

    writeln!(out, "dashboard").unwrap();
    let dashboard = dashboard.lock().unwrap();
    writeln!(
        out,
        "  units={} active={} appeared={} cleared={}",
        dashboard.units_seen(),
        dashboard.active_cells(),
        dashboard.appeared_total(),
        dashboard.cleared_total()
    )
    .unwrap();
    for (depth, count) in dashboard.depth_counts() {
        writeln!(out, "  depth {depth}: {count}").unwrap();
    }
    for (cuboid, cell, score) in dashboard.hottest(5) {
        writeln!(out, "  hot {cuboid}{cell} score={score:.6}").unwrap();
    }
    out
}

/// The lateness phase: the same analysis through a watermark-reordering
/// engine with per-source eviction, fed a silent source, in-lateness
/// stragglers whose amendments **flip exception verdicts** (one
/// retraction, one raise), and one beyond-lateness drop. Serializes the
/// reports with their amendments and typed alarm revisions, plus the
/// lateness counters — pinning the whole robustness path byte-for-byte.
fn run_lateness_pipeline() -> String {
    const LATENESS: i64 = 2;
    let cell_a: [u32; 2] = [0, 0];
    let cell_b: [u32; 2] = [1, 2];
    // Apex slope per unit = slope_a + slope_b against threshold 0.8:
    // unit 1 alarms at 0.9 (then a late -1.0 retracts it to 0.7),
    // unit 2 is quiet at 0.7 (then a late +1.0 raises it to 0.9).
    let slopes: [(f64, f64); 6] = [
        (0.1, 0.1),
        (0.5, 0.4),
        (0.35, 0.35),
        (0.1, 0.1),
        (0.1, 0.1),
        (0.1, 0.1),
    ];

    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.8))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TICKS_PER_UNIT)
    .with_reordering(8, LATENESS)
    .with_watermark_policy(WatermarkPolicy::PerSource { idle_units: 2 })
    .build()
    .unwrap();

    let mut out = String::new();
    let mut reports = Vec::new();
    let feed = |engine: &mut regcube::stream::OnlineEngine,
                reports: &mut Vec<regcube::stream::UnitReport>,
                record: &RawRecord| {
        engine.ingest(record).unwrap();
        reports.extend(engine.drain_ready().unwrap());
    };

    for unit in 0..UNITS {
        let (sa, sb) = slopes[unit as usize];
        let t0 = unit * TICKS_PER_UNIT as i64;
        for t in t0..t0 + TICKS_PER_UNIT as i64 {
            // Source 2 speaks exactly once (cell A's first record) and
            // then falls silent: it pins the per-source low watermark
            // until the frontier passes `idle_units` and evicts it.
            let a_source = if t == 0 { 2 } else { 0 };
            let a = RawRecord::new(cell_a.to_vec(), t, 1.0 + sa * (t - t0) as f64)
                .with_source(a_source);
            let b = RawRecord::new(cell_b.to_vec(), t, 1.0 + sb * (t - t0) as f64).with_source(1);
            feed(&mut engine, &mut reports, &a);
            feed(&mut engine, &mut reports, &b);
        }
        // Stragglers, injected right after their target unit closed
        // (unit `u` closes once the low watermark passes
        // `u + LATENESS`, so unit 1 is closed-and-amendable here at the
        // end of unit 4, unit 2 at the end of unit 5).
        if unit == 4 {
            // Retract unit 1's alarm: -1.0 on cell A's last unit-1 tick
            // drops its warehoused slope by 0.2, the apex to 0.7.
            let tick = 2 * TICKS_PER_UNIT as i64 - 1;
            feed(
                &mut engine,
                &mut reports,
                &RawRecord::new(cell_a.to_vec(), tick, -1.0),
            );
            // The frontier patch is immediate: unit 1 is the engine's
            // last closed unit, so its live alarm set (what snapshots
            // serve) drops the retracted alarm right now.
            writeln!(
                out,
                "alarms after retraction: {}",
                engine.snapshot().alarms().len()
            )
            .unwrap();
        }
        if unit == 5 {
            // Raise one on quiet unit 2: +1.0 on the same slot position
            // lifts the apex from 0.7 to 0.9.
            let tick = 3 * TICKS_PER_UNIT as i64 - 1;
            feed(
                &mut engine,
                &mut reports,
                &RawRecord::new(cell_a.to_vec(), tick, 1.0),
            );
            writeln!(
                out,
                "alarms after raise: {}",
                engine.snapshot().alarms().len()
            )
            .unwrap();
            // And one record from before the allowed lateness: counted
            // as dropped, never applied.
            feed(
                &mut engine,
                &mut reports,
                &RawRecord::new(cell_a.to_vec(), 2, 9.0),
            );
        }
    }
    reports.extend(engine.flush().unwrap());

    writeln!(out, "lateness pipeline").unwrap();
    for report in &reports {
        writeln!(
            out,
            "unit {} m_cells={} late_dropped={}",
            report.unit, report.m_cells, report.late_dropped
        )
        .unwrap();
        for alarm in &report.alarms {
            writeln!(
                out,
                "  ALARM {} score={:.6} threshold={:.6} slope={:.6}",
                alarm.key,
                alarm.score,
                alarm.threshold,
                alarm.measure.slope()
            )
            .unwrap();
        }
        for amendment in &report.late_amendments {
            writeln!(out, "  {amendment}").unwrap();
        }
        for revision in &report.alarm_revisions {
            writeln!(out, "  {revision}").unwrap();
        }
    }
    let stats = engine.stats();
    writeln!(
        out,
        "lateness totals dropped={} amendments={} evicted={} held={}",
        stats.late_dropped,
        stats.late_amendments,
        stats.sources_evicted,
        stats.watermark_held_units
    )
    .unwrap();
    // The frontier patch: after the retraction/raise, the engine's live
    // alarm set (what snapshots serve) must agree with the amended
    // frames.
    writeln!(out, "final alarms").unwrap();
    for alarm in engine.snapshot().alarms() {
        writeln!(
            out,
            "  {} score={:.6} threshold={:.6}",
            alarm.key, alarm.score, alarm.threshold
        )
        .unwrap();
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("pipeline.txt")
}

/// A line-oriented diff of expected vs. actual, readable in CI logs.
fn line_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0usize;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            if shown == 0 {
                out.push_str("first mismatching lines (expected vs actual):\n");
            }
            writeln!(out, "  line {:>4} - {}", i + 1, e.unwrap_or("<missing>")).unwrap();
            writeln!(out, "  line {:>4} + {}", i + 1, a.unwrap_or("<missing>")).unwrap();
            shown += 1;
            if shown >= 20 {
                out.push_str("  ... (more differences truncated)\n");
                break;
            }
        }
    }
    writeln!(
        out,
        "expected {} lines, actual {} lines",
        exp.len(),
        act.len()
    )
    .unwrap();
    out
}

#[test]
fn pipeline_matches_golden_snapshot() {
    let actual = run_pipeline() + &run_lateness_pipeline();

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("updated golden snapshot at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden snapshot {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "pipeline output diverged from {} — if the change is intended, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden`\n{}",
        path.display(),
        line_diff(&expected, &actual)
    );
}
