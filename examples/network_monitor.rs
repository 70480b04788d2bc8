//! Network-traffic monitoring with **popular-path cubing** and an
//! mpsc-channel pipeline: a producer thread replays flow records,
//! the engine closes one m-layer unit per simulated minute-of-16-ticks,
//! and the consumer reacts through **alarm sinks** — an episode log, a
//! flap/persistence escalator and a running dashboard fed one
//! `UnitDelta` per minute — instead of rescanning cube layers.
//!
//! Dimensions: `pop` (point of presence: region > router) and `proto`
//! (class > protocol). A DDoS-like ramp hits one router's UDP traffic.
//!
//! ```text
//! cargo run --example network_monitor
//! ```

use regcube::core::alarm::{self, AlarmLog, DashboardSummary, SharedSink, ThresholdEscalator};
use regcube::core::result::Algorithm;
use regcube::olap::Dimension;
use regcube::prelude::*;
use regcube::stream::{run_engine, StreamEvent};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

fn main() {
    // pop: * > region(3) > router(9); proto: * > class(2) > protocol(6).
    let pop = Dimension::with_level_names(
        "pop",
        Hierarchy::balanced(2, 3).unwrap(),
        vec!["region".into(), "router".into()],
    )
    .unwrap();
    let proto = Dimension::with_level_names(
        "proto",
        Hierarchy::balanced(2, 3).unwrap(),
        vec!["class".into(), "protocol".into()],
    )
    .unwrap();
    let schema = CubeSchema::new(vec![pop, proto]).unwrap();

    let m_layer = CuboidSpec::new(vec![2, 2]); // (router, protocol)
    let o_layer = CuboidSpec::new(vec![1, 0]); // (region, *)
    let ticks_per_unit = 16usize;

    // The reaction layer: all three sinks consume the per-minute
    // UnitDelta; none of them ever rescans the o-layer or the
    // exception stores.
    let log = alarm::shared(AlarmLog::new(256));
    let escalator = alarm::shared(ThresholdEscalator::new(2, 4, 8));
    let dashboard = alarm::shared(DashboardSummary::new());

    let engine = Arc::new(Mutex::new(
        regcube::stream::online::EngineConfig::new(schema, o_layer, m_layer)
            .with_policy(ExceptionPolicy::slope_threshold(4.0))
            .with_tilt(TiltSpec::new(vec![("minute", 4), ("5-min", 12), ("hour", 24)]).unwrap())
            .with_ticks_per_unit(ticks_per_unit)
            .with_algorithm(Algorithm::PopularPath)
            .with_sinks([
                log.clone() as SharedSink,
                escalator.clone() as SharedSink,
                dashboard.clone() as SharedSink,
            ])
            .build()
            .unwrap(),
    ));

    // ---- Produce three units of flow volume records ----------------------
    let mut records = Vec::new();
    for unit in 0..3i64 {
        for tick in (unit * 16)..(unit * 16 + 16) {
            for router in 0..9u32 {
                for protocol in 0..9u32 {
                    // Router 4's protocol 7 (a UDP flood) ramps in unit >= 1.
                    let attack = unit >= 1 && router == 4 && protocol == 7;
                    let volume = if attack {
                        10.0 + 8.0 * (tick - unit * 16) as f64
                    } else {
                        5.0 + ((router + protocol) % 4) as f64 * 0.3
                    };
                    records.push(RawRecord::new(vec![router, protocol], tick, volume));
                }
            }
        }
    }

    let source = ReplaySource::new(records, ticks_per_unit).unwrap();
    let (tx, rx) = mpsc::channel::<StreamEvent>();
    let producer = std::thread::spawn(move || source.send_all(&tx));

    let reports = run_engine(&engine, &rx).unwrap();
    producer.join().unwrap().unwrap();

    // ---- Inspect the run --------------------------------------------------
    for report in &reports {
        println!(
            "minute {}: {} active (router, protocol) cells, {} drilled exceptions",
            report.unit, report.m_cells, report.exception_cells
        );
        for alarm in &report.alarms {
            println!(
                "  ALARM region {}: traffic slope {:.1} MB/tick (score {:.1})",
                alarm.key.ids()[0],
                alarm.measure.slope(),
                alarm.score
            );
        }
    }

    // ---- The sink-driven view: no layer was rescanned to build this ------
    let dashboard = dashboard.lock().unwrap();
    println!(
        "\nDashboard after {} minutes: {} active exception cells",
        dashboard.units_seen(),
        dashboard.active_cells()
    );
    for (depth, count) in dashboard.depth_counts() {
        println!("  depth {depth}: {count} active cells");
    }
    println!("hottest cells by residual score at raise:");
    for (cuboid, cell, score) in dashboard.hottest(3) {
        println!("  {cuboid} {cell}  score {score:.1}");
    }

    let log = log.lock().unwrap();
    println!(
        "\nAlarm log: {} episodes opened, {} still open",
        log.opened_total(),
        log.open_count()
    );
    for episode in log.open_episodes() {
        println!("  OPEN  {episode}");
    }
    for episode in log.closed_episodes() {
        println!("  ended {episode}");
    }

    let escalator = escalator.lock().unwrap();
    for esc in escalator.escalations() {
        println!(
            "ESCALATED minute {}: {} {} ({:?})",
            esc.unit, esc.cuboid, esc.cell, esc.reason
        );
    }

    // Drill the hottest episode (ranked by live peak score, which
    // tracks the ramping attack) down to the attacking streams.
    let engine = engine.lock().unwrap();
    let mut open = log.open_episodes();
    open.sort_by(|a, b| b.peak_score.total_cmp(&a.peak_score));
    if let Some(episode) = open.first() {
        println!(
            "\nexception supporters under {} {}:",
            episode.cuboid, episode.cell
        );
        for hit in engine
            .drill_descendants(&episode.cuboid, &episode.cell)
            .unwrap()
        {
            println!(
                "  {} {} slope {:.1}",
                hit.cuboid,
                hit.key,
                hit.measure.slope()
            );
        }
    }
}
