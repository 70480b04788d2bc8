//! Property tests for the alarm lifecycle: for random unit streams, the
//! sink-maintained state (episodes, dashboard) must agree with the
//! cube's retained exception stores after every unit.

use proptest::prelude::*;
use regcube::core::alarm::{self, AlarmLog, DashboardSummary, SharedSink};
use regcube::prelude::*;
use regcube::stream::online::{EngineConfig, OnlineEngine};
use regcube::stream::BoxedEngine;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const TICKS: usize = 4;
/// The m-layer cells of the random streams (synthetic(2, 2, 2): ids 0..4).
const CELLS: [(u32, u32); 5] = [(0, 0), (1, 2), (2, 1), (3, 3), (0, 3)];

type Sinks = (Arc<Mutex<AlarmLog>>, Arc<Mutex<DashboardSummary>>);

fn build() -> (OnlineEngine<BoxedEngine>, Sinks) {
    let log = alarm::shared(AlarmLog::new(256));
    let dash = alarm::shared(DashboardSummary::new());
    let schema = CubeSchema::synthetic(2, 2, 2).unwrap();
    let engine = EngineConfig::new(
        schema,
        CuboidSpec::new(vec![0, 0]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.5))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TICKS)
    .with_sinks([log.clone() as SharedSink, dash.clone() as SharedSink])
    .build()
    .unwrap();
    (engine, (log, dash))
}

/// Feeds one unit of per-cell linear streams with the given slopes.
fn feed_unit(engine: &mut OnlineEngine<BoxedEngine>, unit: usize, slopes: &[f64]) {
    let t0 = (unit * TICKS) as i64;
    for t in t0..t0 + TICKS as i64 {
        for (&(a, b), &slope) in CELLS.iter().zip(slopes) {
            let value = 1.0 + slope * (t - t0) as f64;
            engine
                .ingest(&RawRecord::new(vec![a, b], t, value))
                .unwrap();
        }
    }
}

/// The cube's live exception set as a sorted, comparable key list.
fn rescan(engine: &OnlineEngine<BoxedEngine>) -> Vec<(CuboidSpec, CellKey)> {
    let mut live: Vec<(CuboidSpec, CellKey)> = engine
        .cube()
        .map(|cube| {
            cube.iter_exceptions()
                .map(|(c, k, _)| (c.clone(), k.clone()))
                .collect()
        })
        .unwrap_or_default();
    live.sort();
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every unit: every `appeared` has a matching open episode,
    /// every `cleared` closed one, and the open-episode set equals the
    /// cube's retained exception set.
    #[test]
    fn episodes_track_the_exception_set(
        units in prop::collection::vec(
            prop::collection::vec(-1.5..1.5f64, CELLS.len()),
            1..6,
        ),
    ) {
        let (mut engine, (log, dash)) = build();
        for (u, slopes) in units.iter().enumerate() {
            feed_unit(&mut engine, u, slopes);
            let report = engine.close_unit().unwrap();
            prop_assert!(report.sink_errors.is_empty());
            let delta = report.cube_delta.expect("non-empty unit");
            let log = log.lock().unwrap();
            for (cuboid, cell) in &delta.appeared {
                let episode = log.open_episode(cuboid, cell);
                prop_assert!(episode.is_some(), "appeared {cuboid}{cell} has no open episode");
                prop_assert_eq!(episode.unwrap().raised_at, delta.unit);
            }
            for (cuboid, cell) in &delta.cleared {
                prop_assert!(
                    log.open_episode(cuboid, cell).is_none(),
                    "cleared {cuboid}{cell} still open"
                );
            }
            // Open episodes == live exception set, exactly.
            let mut open: Vec<(CuboidSpec, CellKey)> = log
                .open_episodes()
                .iter()
                .map(|e| (e.cuboid.clone(), e.cell.clone()))
                .collect();
            open.sort();
            prop_assert_eq!(open, rescan(&engine), "unit {}", u);
            // Dashboard counters: active set and per-depth counts match
            // a from-scratch rescan of the retained stores.
            let dash = dash.lock().unwrap();
            let cube = engine.cube().unwrap();
            prop_assert_eq!(dash.active_cells(), cube.total_exception_cells());
            let mut by_depth: BTreeMap<u32, u64> = BTreeMap::new();
            for (c, _, _) in cube.iter_exceptions() {
                *by_depth.entry(c.total_depth()).or_insert(0) += 1;
            }
            let counted: BTreeMap<u32, u64> = dash.depth_counts().into_iter().collect();
            prop_assert_eq!(counted, by_depth, "unit {}", u);
        }
        // Conservation: everything opened is either closed or open.
        let log = log.lock().unwrap();
        prop_assert_eq!(
            log.opened_total(),
            log.closed_total() + log.open_count() as u64
        );
    }
}
