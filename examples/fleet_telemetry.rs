//! Fleet telemetry with out-of-order uplinks: vehicles report fuel burn
//! per minute over cellular links that batch, delay and occasionally
//! lose messages. The engine runs with watermark-based reordering
//! (`EngineConfig::with_reordering`), so:
//!
//! * uplinks displaced by up to the allowed lateness are re-sorted into
//!   their hour and produce **bit-identical** analysis to an ordered
//!   feed;
//! * uplinks for an hour that already closed **amend** the warehoused
//!   tilt frames exactly (OLS linearity — the same ISB a refit would
//!   give) and are reported as `LateAmendment`s;
//! * uplinks beyond the lateness are **counted** in `late_dropped` —
//!   never silently lost;
//! * analysts can **time-travel**: `drill_at` re-scores any cell's
//!   warehoused history at any tilt granularity, long after the cube
//!   moved on.
//!
//! ```text
//! cargo run --example fleet_telemetry
//! ```

use regcube::prelude::*;
use regcube::stream::UnitReport;

/// Minutes per hour-unit.
const TPU: usize = 60;
/// Allowed lateness in hours.
const LATENESS: i64 = 2;
/// Hours simulated (a day plus the morning after).
const HOURS: i64 = 26;

/// The sorted telemetry: per-minute fuel burn for 16 vehicles x 4
/// depots with day-scale seasonality (quiet nights, busy middays) and a
/// stuck-throttle vehicle group at depot 2 during hour 25 — the morning
/// after, once the first day's hours have been promoted into a day
/// slot.
fn telemetry() -> Vec<RawRecord> {
    let mut records = Vec::new();
    for minute in 0..HOURS * TPU as i64 {
        let hour = minute / TPU as i64;
        let day_phase = (minute % 1440) as f64 / 1440.0;
        let season = 1.0 + 0.8 * (std::f64::consts::TAU * (day_phase - 0.25)).sin();
        for vehicle in 0..16u32 {
            for depot in 0..4u32 {
                let anomaly = hour == 25 && depot == 2 && vehicle % 4 == 0;
                let burn = if anomaly {
                    4.0 + 2.5 * (minute % TPU as i64) as f64
                } else {
                    season * (1.0 + 0.1 * (vehicle % 3) as f64)
                };
                records.push(RawRecord::new(vec![vehicle, depot], minute, burn));
            }
        }
    }
    records
}

/// A deliverable feed: most uplinks jittered within the lateness, a
/// slice displaced past their hour's close (amendments), a few stuck in
/// a dead zone until the end of the day (drops).
fn uplink_feed(sorted: &[RawRecord]) -> Vec<RawRecord> {
    let span = LATENESS * TPU as i64;
    let mut keyed: Vec<(i64, usize, RawRecord)> = Vec::with_capacity(sorted.len());
    let mut dead_zone = Vec::new();
    for (i, r) in sorted.iter().enumerate() {
        if i % 5000 == 1700 && r.tick < 12 * TPU as i64 {
            // Lost until the vehicle returns to coverage at end of day.
            dead_zone.push(r.clone());
        } else if i % 701 == 0 {
            // Batched uplink flushed (LATENESS + 1) hours late: its hour
            // has closed, still amendable.
            keyed.push((r.tick + (LATENESS + 1) * TPU as i64, i, r.clone()));
        } else {
            // Normal cellular jitter, bounded under the lateness.
            keyed.push((r.tick + (i as i64 * 37) % span, i, r.clone()));
        }
    }
    keyed.sort_by_key(|(k, i, _)| (*k, *i));
    let mut feed: Vec<RawRecord> = keyed.into_iter().map(|(_, _, r)| r).collect();
    feed.extend(dead_zone);
    feed
}

fn main() {
    // vehicle: * > group(4) > vehicle(16);  site: * > region(2) > depot(4)
    let vehicle = Dimension::with_level_names(
        "vehicle",
        Hierarchy::balanced(2, 4).unwrap(),
        vec!["group".into(), "vehicle".into()],
    )
    .unwrap();
    let site = Dimension::with_level_names(
        "site",
        Hierarchy::balanced(2, 2).unwrap(),
        vec!["region".into(), "depot".into()],
    )
    .unwrap();
    let schema = CubeSchema::new(vec![vehicle, site]).unwrap();

    let mut engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 1]), // o-layer: (*, region)
        CuboidSpec::new(vec![1, 2]), // m-layer: (group, depot)
    )
    .with_primitive(CuboidSpec::new(vec![2, 2]))
    .with_policy(ExceptionPolicy::slope_threshold(2.0))
    .with_tilt(TiltSpec::new(vec![("hour", 24), ("day", 7)]).unwrap())
    .with_ticks_per_unit(TPU)
    .with_reordering(LATENESS as usize + 3, LATENESS)
    .build()
    .unwrap();

    let sorted = telemetry();
    let feed = uplink_feed(&sorted);
    println!(
        "Replaying {} out-of-order uplinks ({} vehicles x {} depots, {} hours, lateness {} h) ...\n",
        feed.len(),
        16,
        4,
        HOURS,
        LATENESS
    );

    // The watermark drives the closes: no external clock needed.
    let mut amendments = 0u64;
    let mut narrate = |watermark: i64, reports: &[UnitReport]| {
        for report in reports {
            amendments += report.late_amendments.len() as u64;
            if !report.alarms.is_empty() || !report.late_amendments.is_empty() {
                println!(
                    "hour {:>2}: {} m-cells, {} alarms, {} late amendments, {} dropped (watermark at hour {watermark})",
                    report.unit,
                    report.m_cells,
                    report.alarms.len(),
                    report.late_amendments.len(),
                    report.late_dropped,
                );
            }
            for alarm in &report.alarms {
                println!(
                    "   ALARM region cell {}: burn slope {:.2}/min (threshold {})",
                    alarm.key,
                    alarm.measure.slope(),
                    alarm.threshold
                );
            }
            for am in &report.late_amendments {
                println!("   AMEND {am}");
            }
        }
    };
    for record in &feed {
        engine.ingest(record).unwrap();
        let ready = engine.drain_ready().unwrap();
        narrate(engine.watermark_unit(), &ready);
    }
    let tail = engine.flush().unwrap();
    narrate(engine.watermark_unit(), &tail);

    println!(
        "\nStream accounting: {} hours closed, {} late amendments applied, {} uplinks beyond lateness dropped (RunStats::late_dropped = {})",
        engine.units_closed(),
        amendments,
        engine.late_dropped(),
        engine.stats().late_dropped
    );

    // ---- Time travel: was depot 2's group exceptional during hour 25? ----
    let hot_cell = CellKey::new(vec![0, 2]); // (group 0, depot 2) at the m-layer
    println!("\nTime-travel drill of m-cell {hot_cell} (hour granularity):");
    for hit in engine.drill_at(0, &hot_cell).unwrap() {
        println!(
            "  {} {:>2}: slope {:>6.2}  score {:>6.2}  {}",
            hit.level_name,
            hit.slot_unit,
            hit.measure.slope(),
            hit.score,
            if hit.exceptional { "EXCEPTIONAL" } else { "ok" }
        );
    }
    println!("Full warehoused ladder of {hot_cell} (coarsest first):");
    for hit in engine.drill_history(&hot_cell).unwrap() {
        println!(
            "  level {} ({}) slot {:>2}: interval [{}, {}], slope {:.2}",
            hit.level,
            hit.level_name,
            hit.slot_unit,
            hit.measure.interval().0,
            hit.measure.interval().1,
            hit.measure.slope()
        );
    }

    // ---- The amended frames match an ordered replay exactly ---------------
    // (The proptest suite proves bit-identity for in-lateness permutations;
    // here we just show the warehoused history is complete.)
    if let Some(frame) = engine.tilt_frame(&hot_cell) {
        println!(
            "\nTilt frame of {hot_cell}: {} slots warehoused over {} hours",
            frame.retained_slots(),
            frame.next_unit()
        );
    }
}
