//! Pins the examples' alarm behavior: the `network_monitor` and
//! `power_grid` scenarios must produce **identical alarm output** from
//! the sink-driven path (AlarmLog/DashboardSummary fed per-unit
//! `UnitDelta`s) and the old rescan path (diffing full exception-store
//! scans after every unit).

use regcube::core::alarm::{self, AlarmLog, DashboardSummary, SharedSink};
use regcube::core::result::Algorithm;
use regcube::olap::Dimension;
use regcube::prelude::*;
use regcube::stream::online::{EngineConfig, OnlineEngine};
use regcube::stream::BoxedEngine;
use std::collections::{BTreeMap, BTreeSet};

type Addr = (CuboidSpec, CellKey);

/// The old consumer: after every unit, rescan the retained exception
/// stores and derive raises/clears by diffing against the previous scan.
#[derive(Default)]
struct RescanView {
    live: BTreeSet<Addr>,
    /// (cuboid, cell) -> raise unit of the open run.
    open_since: BTreeMap<Addr, u64>,
    /// Closed runs: (addr, raised_at, cleared_at).
    closed: Vec<(Addr, u64, u64)>,
}

impl RescanView {
    fn on_unit(&mut self, cube: &CubeResult, unit: u64) {
        let now: BTreeSet<Addr> = cube
            .iter_exceptions()
            .map(|(c, k, _)| (c.clone(), k.clone()))
            .collect();
        for addr in now.difference(&self.live) {
            self.open_since.insert(addr.clone(), unit);
        }
        for addr in self.live.difference(&now) {
            let raised = self.open_since.remove(addr).expect("was live");
            self.closed.push((addr.clone(), raised, unit));
        }
        self.live = now;
    }
}

/// Runs a scenario, asserts that both paths agree after every unit and
/// at the end, and returns the per-unit o-layer alarm lines followed by
/// the episodes.
fn run_scenario(
    make: impl Fn() -> EngineConfig,
    records_for_unit: impl Fn(i64) -> Vec<RawRecord>,
    units: i64,
) -> String {
    let log = alarm::shared(AlarmLog::new(1024));
    let dash = alarm::shared(DashboardSummary::new());
    let mut engine: OnlineEngine<BoxedEngine> = make()
        .with_sinks([log.clone() as SharedSink, dash.clone() as SharedSink])
        .build()
        .unwrap();

    let mut rescan = RescanView::default();
    let mut alarm_lines = String::new();
    for unit in 0..units {
        for record in records_for_unit(unit) {
            engine.ingest(&record).unwrap();
        }
        let report = engine.close_unit().unwrap();
        assert!(report.sink_errors.is_empty());
        for alarm in &report.alarms {
            alarm_lines.push_str(&format!(
                "unit {} alarm {} score={:.6}\n",
                report.unit, alarm.key, alarm.score
            ));
        }
        let delta = report.cube_delta.expect("non-empty unit");
        rescan.on_unit(engine.cube().unwrap(), delta.unit);

        // The live sets must agree after *every* unit, not just at the end.
        let log_guard = log.lock().unwrap();
        let sink_live: BTreeSet<Addr> = log_guard
            .open_episodes()
            .iter()
            .map(|e| (e.cuboid.clone(), e.cell.clone()))
            .collect();
        assert_eq!(sink_live, rescan.live, "unit {unit}");
        assert_eq!(
            dash.lock().unwrap().active_cells(),
            rescan.live.len() as u64,
            "unit {unit}"
        );
    }

    // Serialize the sink-driven episodes and the rescan-derived ones in
    // the same shape: `cuboid cell raised..cleared`.
    let log = log.lock().unwrap();
    let mut sink_out: Vec<String> = log
        .open_episodes()
        .iter()
        .map(|e| format!("{}{} {}..open", e.cuboid, e.cell, e.raised_at))
        .collect();
    sink_out.extend(log.closed_episodes().map(|e| {
        format!(
            "{}{} {}..{}",
            e.cuboid,
            e.cell,
            e.raised_at,
            e.cleared_at.unwrap()
        )
    }));
    sink_out.sort();

    let mut rescan_out: Vec<String> = rescan
        .open_since
        .iter()
        .map(|((c, k), raised)| format!("{c}{k} {raised}..open"))
        .collect();
    rescan_out.extend(
        rescan
            .closed
            .iter()
            .map(|((c, k), raised, cleared)| format!("{c}{k} {raised}..{cleared}")),
    );
    rescan_out.sort();

    assert_eq!(sink_out, rescan_out, "sink-driven vs rescan episodes");
    alarm_lines + &sink_out.join("\n")
}

/// The network_monitor example's schema/stream (popular-path cubing,
/// a UDP flood ramping on router 4 / protocol 7 from unit 1).
fn network_monitor_config() -> EngineConfig {
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
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(4.0))
    .with_tilt(TiltSpec::new(vec![("minute", 4), ("5-min", 12)]).unwrap())
    .with_ticks_per_unit(16)
    .with_algorithm(Algorithm::PopularPath)
}

fn network_monitor_records(unit: i64) -> Vec<RawRecord> {
    let mut records = Vec::new();
    for tick in (unit * 16)..(unit * 16 + 16) {
        for router in 0..9u32 {
            for protocol in 0..9u32 {
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
    records
}

/// The power_grid example's schema/stream (m/o-cubing, a runaway load
/// in city 1's street-block 3 during quarter 2).
fn power_grid_config() -> EngineConfig {
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
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 1]),
        CuboidSpec::new(vec![1, 2]),
    )
    .with_primitive(CuboidSpec::new(vec![2, 3]))
    .with_policy(ExceptionPolicy::slope_threshold(6.0))
    .with_tilt(TiltSpec::paper_figure4())
    .with_ticks_per_unit(15)
    .with_algorithm(Algorithm::MoCubing)
}

fn power_grid_records(quarter: i64) -> Vec<RawRecord> {
    let mut records = Vec::new();
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
                records.push(RawRecord::new(
                    vec![user_id, addr],
                    minute,
                    base_load + trend,
                ));
            }
        }
    }
    records
}

#[test]
fn network_monitor_sink_output_matches_rescan() {
    let output = run_scenario(network_monitor_config, network_monitor_records, 3);
    assert!(
        output.contains("alarm"),
        "the flood must raise o-layer alarms"
    );
}

#[test]
fn power_grid_sink_output_matches_rescan() {
    let output = run_scenario(power_grid_config, power_grid_records, 3);
    assert!(
        output.contains("alarm"),
        "the runaway load must raise o-layer alarms"
    );
}
