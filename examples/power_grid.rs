//! The paper's running Example 1/4: a power supply station collecting
//! per-(user, street, minute) usage streams, analyzed online at the
//! critical layers
//!
//! * m-layer: `(user-group, street-block)` per quarter of an hour,
//! * o-layer: `(*, city)` per quarter,
//!
//! with exception alarms, a **sink-driven** episode log / dashboard fed
//! one `UnitDelta` per quarter (no per-unit layer rescans), and
//! exception-guided drill-down.
//!
//! ```text
//! cargo run --example power_grid
//! ```

use regcube::core::alarm::{self, AlarmLog, DashboardSummary, SharedSink, ThresholdEscalator};
use regcube::core::result::Algorithm;
use regcube::olap::Dimension;
use regcube::prelude::*;

fn main() {
    // ---- Schema: user and location hierarchies ---------------------------
    // user:     * > user-group(4) > individual-user(16)
    // location: * > city(2) > street-block(8) > street-address(32)
    let user = Dimension::with_level_names(
        "user",
        Hierarchy::balanced(2, 4).unwrap(),
        vec!["user-group".into(), "individual-user".into()],
    )
    .unwrap();
    let location = Dimension::with_level_names(
        "location",
        Hierarchy::balanced(3, 2).unwrap(),
        vec![
            "city".into(),
            "street-block".into(),
            "street-address".into(),
        ],
    )
    .unwrap();
    let schema = CubeSchema::new(vec![user, location]).unwrap();

    // Critical layers per Example 4 (time handled by the quarter units):
    // m-layer (user-group, street-block), o-layer (*, city).
    let m_layer = CuboidSpec::new(vec![1, 2]);
    let o_layer = CuboidSpec::new(vec![0, 1]);
    // The primitive stream layer: (individual-user, street-address).
    let primitive = CuboidSpec::new(vec![2, 3]);

    // Reaction layer: episode log, persistence/flap escalator, dashboard.
    let log = alarm::shared(AlarmLog::new(128));
    let escalator = alarm::shared(ThresholdEscalator::new(2, 4, 8));
    let dashboard = alarm::shared(DashboardSummary::new());

    let minutes_per_quarter = 15usize;
    let mut engine = regcube::stream::online::EngineConfig::new(schema, o_layer, m_layer)
        .with_primitive(primitive)
        .with_policy(ExceptionPolicy::slope_threshold(6.0))
        .with_tilt(TiltSpec::paper_figure4())
        .with_ticks_per_unit(minutes_per_quarter)
        .with_algorithm(Algorithm::MoCubing)
        .with_sinks([
            log.clone() as SharedSink,
            escalator.clone() as SharedSink,
            dashboard.clone() as SharedSink,
        ])
        .build()
        .unwrap();

    // ---- Simulate three quarters of minute-level usage -------------------
    // City 1's street-block 3 develops a runaway load in quarter 2 (e.g. a
    // failing transformer bank drawing ever more power).
    println!("Simulating 3 quarters of per-minute usage for 16 users x 8 addresses ...\n");
    for quarter in 0..3i64 {
        for minute in (quarter * 15)..(quarter * 15 + 15) {
            for user_id in 0..16u32 {
                for addr in 0..8u32 {
                    let block = addr / 2;
                    let runaway = quarter == 2 && block == 3;
                    let base_load = 1.0 + (user_id % 3) as f64 * 0.2;
                    let trend = if runaway {
                        0.8 * (minute - quarter * 15) as f64
                    } else {
                        0.01 * (minute % 5) as f64
                    };
                    engine
                        .ingest(&RawRecord::new(
                            vec![user_id, addr],
                            minute,
                            base_load + trend,
                        ))
                        .unwrap();
                }
            }
        }
        let report = engine.close_unit().unwrap();
        println!(
            "quarter {}: {} m-cells, {} exception cells, recompute {:?}",
            report.unit, report.m_cells, report.exception_cells, report.recompute_time
        );
        for alarm in &report.alarms {
            println!(
                "  ALARM city cell {}: usage slope {:.2} kWh/min (threshold {})",
                alarm.key,
                alarm.measure.slope(),
                alarm.threshold
            );
        }
        if report.alarms.is_empty() {
            println!("  no alarms — city-level usage trends are normal");
        }
    }

    // ---- The sinks carry the reaction state — no rescans needed ----------
    let dashboard = dashboard.lock().unwrap();
    println!(
        "\nDashboard after {} quarters: {} active exception cells",
        dashboard.units_seen(),
        dashboard.active_cells()
    );
    for (depth, count) in dashboard.depth_counts() {
        println!("  depth {depth}: {count} active cells");
    }

    let log = log.lock().unwrap();
    println!(
        "Alarm log: {} episodes opened, {} open now",
        log.opened_total(),
        log.open_count()
    );
    for episode in log.open_episodes() {
        println!("  OPEN {episode}");
    }
    let escalator = escalator.lock().unwrap();
    for esc in escalator.escalations() {
        println!(
            "  ESCALATED quarter {}: {} {} ({:?})",
            esc.unit, esc.cuboid, esc.cell, esc.reason
        );
    }

    // ---- Exception-guided drilling ---------------------------------------
    println!("\nDrilling the hottest exception down to its supporters:");
    if let Some((cuboid, cell, score)) = dashboard.hottest(1).first() {
        println!("  {cuboid} {cell}: score {score:.2}");
        for hit in engine.drill_descendants(cuboid, cell).unwrap() {
            println!(
                "    {} {} slope {:.2}",
                hit.cuboid,
                hit.key,
                hit.measure.slope()
            );
        }
    }

    // ---- Tilt frames keep per-cell history at mixed granularity ----------
    let hot_cell = CellKey::new(vec![0, 3]);
    if let Some(frame) = engine.tilt_frame(&hot_cell) {
        println!(
            "\nTilt frame of m-cell {hot_cell}: {} slots over {} quarters",
            frame.retained_slots(),
            frame.next_unit()
        );
        if let Some(whole) = frame.merge_all().unwrap() {
            println!(
                "  regression over the whole retained history: slope {:.3}",
                whole.slope()
            );
        }
    }
}
