//! Pins the traffic an [`OnlineEngine`] sends through the
//! [`CubingEngine`] seam: **one `ingest_unit` call per non-empty closed
//! unit**, carrying exactly that unit's m-cells, each for a window
//! strictly later than the call before it on the same engine instance.
//!
//! That is what lets an engine cube a unit once and refuse a second
//! batch for the window it holds: no input to an `OnlineEngine` — in
//! order, shuffled, late, after a failed close or across a checkpoint —
//! makes it send one. A recording wrapper sits where the engine sits
//! and checks every call as it arrives.

use regcube_core::engine::{CubingEngine, MoCubingEngine, PopularPathEngine, UnitDelta};
use regcube_core::result::Algorithm;
use regcube_core::{CoreError, CriticalLayers, CubeResult, ExceptionPolicy, MTuple, RunStats};
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_stream::online::BoxedEngine;
use regcube_stream::{restore_bytes, EngineConfig, OnlineEngine, RawRecord};
use regcube_tilt::TiltSpec;
use std::sync::{Arc, Mutex};

const TPU: i64 = 4;

/// One `ingest_unit` call as the wrapper saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Call {
    window: (i64, i64),
    tuples: usize,
}

type Log = Arc<Mutex<Vec<Call>>>;

/// Delegates to `inner` and records every call, checking as it goes
/// that the batch is one window and that the window is later than the
/// previous call's. The `fail_on`-th call is refused without reaching
/// `inner` (a failed close).
struct Recording {
    inner: BoxedEngine,
    log: Log,
    fail_on: Option<usize>,
}

impl CubingEngine for Recording {
    fn algorithm(&self) -> Algorithm {
        self.inner.algorithm()
    }
    fn ingest_unit(&mut self, tuples: &[MTuple]) -> regcube_core::Result<UnitDelta> {
        let window = tuples[0].isb().interval();
        assert!(
            tuples.iter().all(|t| t.isb().interval() == window),
            "a batch spans one window"
        );
        let calls = {
            let mut log = self.log.lock().unwrap();
            if let Some(prev) = log.last() {
                assert!(
                    window.0 > prev.window.1,
                    "window {window:?} is not later than the previous call's {:?}",
                    prev.window
                );
            }
            log.push(Call {
                window,
                tuples: tuples.len(),
            });
            log.len()
        };
        if self.fail_on == Some(calls) {
            return Err(CoreError::BadInput {
                detail: "injected".into(),
            });
        }
        self.inner.ingest_unit(tuples)
    }
    fn result(&self) -> &CubeResult {
        self.inner.result()
    }
    fn stats(&self) -> &RunStats {
        self.inner.stats()
    }
    fn shared_result(&self) -> Arc<CubeResult> {
        self.inner.shared_result()
    }
}

/// An engine under test: how to build it directly (to wrap it) and how
/// to ask `EngineConfig::build` for the same one (to restore into it).
struct Subject {
    name: &'static str,
    make: fn(CubeSchema, CriticalLayers, ExceptionPolicy) -> regcube_core::Result<BoxedEngine>,
    configure: fn(EngineConfig) -> EngineConfig,
}

fn subjects() -> Vec<Subject> {
    vec![
        Subject {
            name: "m/o-cubing",
            make: |s, l, p| Ok(Box::new(MoCubingEngine::new(s, l, p)?)),
            configure: |c| c,
        },
        Subject {
            name: "popular path",
            make: |s, l, p| Ok(Box::new(PopularPathEngine::new(s, l, p, None)?)),
            configure: |c| c.with_algorithm(Algorithm::PopularPath),
        },
    ]
}

fn config() -> EngineConfig {
    let schema = CubeSchema::synthetic(2, 2, 3).unwrap();
    EngineConfig::new(
        schema,
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_policy(ExceptionPolicy::slope_threshold(0.8))
    .with_tilt(TiltSpec::new(vec![("unit", 4), ("coarse", 3)]).unwrap())
    .with_ticks_per_unit(TPU as usize)
}

/// `subject`'s engine behind a recorder, in an `OnlineEngine` of
/// `config`; the log is the test's view of the calls.
fn recorded(
    subject: &Subject,
    config: EngineConfig,
    fail_on: Option<usize>,
) -> (OnlineEngine<Recording>, Log) {
    let log = Log::default();
    let engine = config
        .build_with(|schema, layers, policy| {
            Ok(Recording {
                inner: (subject.make)(schema, layers, policy)?,
                log: Arc::clone(&log),
                fail_on,
            })
        })
        .unwrap();
    (engine, log)
}

/// How many m-cells unit `unit` is fed: it varies, so a call carrying
/// another unit's tuples (or part of a unit's) cannot pass for it.
fn cells_in(unit: i64) -> usize {
    3 + (unit % 4) as usize
}

/// Unit `unit`'s records, tick-major: `cells_in(unit)` cells, the first
/// of them steep.
fn unit_records(unit: i64) -> Vec<RawRecord> {
    let mut records = Vec::new();
    for t in unit * TPU..(unit + 1) * TPU {
        for cell in 0..cells_in(unit) as u32 {
            let slope = if cell == 0 { 5.0 } else { 0.1 };
            let value = 1.0 + slope * (t % TPU) as f64;
            records.push(RawRecord::new(vec![cell, (cell * 2) % 9], t, value));
        }
    }
    records
}

fn window_of(unit: i64) -> (i64, i64) {
    (unit * TPU, (unit + 1) * TPU - 1)
}

/// The calls an engine must have seen after the non-empty `units` were
/// closed in that order: one each, for the unit's window, with the
/// unit's m-cells.
fn calls_for(units: impl IntoIterator<Item = i64>) -> Vec<Call> {
    let call = |unit| Call {
        window: window_of(unit),
        tuples: cells_in(unit),
    };
    units.into_iter().map(call).collect()
}

#[test]
fn strict_order_closes_send_one_call_per_non_empty_unit() {
    for subject in subjects() {
        let name = subject.name;
        // The third call is unit 3's (unit 2 is empty) and is refused.
        let (mut e, log) = recorded(&subject, config(), Some(3));
        let mut fed = Vec::new();
        for unit in 0..8 {
            let empty = unit == 2 || unit == 5;
            if !empty {
                fed.push(unit);
                for record in unit_records(unit) {
                    e.ingest(&record).unwrap();
                }
            }
            let outcome = e.close_unit();
            assert_eq!(outcome.is_err(), unit == 3, "{name}: the injected failure");
            if let Ok(report) = outcome {
                assert_eq!(report.unit, unit, "{name}");
                let cells = if empty { 0 } else { cells_in(unit) };
                assert_eq!(report.m_cells, cells, "{name}: unit {unit}");
                assert_eq!(report.cube_delta.is_some(), !empty, "{name}: unit {unit}");
            }
            // An empty unit sends nothing; any other — the refused one
            // included — exactly its own call.
            assert_eq!(*log.lock().unwrap(), calls_for(fed.clone()), "{name}");
        }
    }
}

#[test]
fn shuffled_and_late_arrivals_never_reach_the_engine_twice() {
    for subject in subjects() {
        let name = subject.name;
        let (mut e, log) = recorded(&subject, config().with_reordering(8, 2), None);

        // Units 0..8 (unit 4 empty), every record displaced by a
        // deterministic jitter of less than two units — inside the
        // allowed lateness, so all of them are buffered, none amended.
        let mut records: Vec<(i64, RawRecord)> = (0..8)
            .filter(|&unit| unit != 4)
            .flat_map(unit_records)
            .enumerate()
            .map(|(i, r)| {
                let jitter = (i as i64).wrapping_mul(2_654_435_761) % (2 * TPU);
                (r.tick + jitter, r)
            })
            .collect();
        records.sort_by_key(|(arrival, _)| *arrival);
        let mut reports = Vec::new();
        for (_, record) in &records {
            e.ingest(record).unwrap();
            reports.extend(e.drain_ready().unwrap());
        }
        assert!(!reports.is_empty(), "{name}: the watermark closed units");
        assert_eq!(e.late_amended(), 0, "{name}");

        // Stragglers for the two units behind the open one: tilt-frame
        // amendments, not batches for windows the engine has cubed.
        let open = e.open_unit();
        assert!(open >= 2, "{name}");
        for lag in 1..=2 {
            let tick = (open - lag) * TPU + 1;
            e.ingest(&RawRecord::new(vec![0, 0], tick, 40.0)).unwrap();
            reports.extend(e.drain_ready().unwrap());
        }
        assert_eq!(e.late_amended(), 2, "{name}");
        reports.extend(e.flush().unwrap());

        let units: Vec<i64> = reports.iter().map(|r| r.unit).collect();
        assert_eq!(units, (0..8).collect::<Vec<_>>(), "{name}");
        for report in &reports {
            let cells = if report.unit == 4 {
                0
            } else {
                cells_in(report.unit)
            };
            assert_eq!(report.m_cells, cells, "{name}: unit {}", report.unit);
        }
        let fed = (0..8).filter(|&unit| unit != 4);
        assert_eq!(*log.lock().unwrap(), calls_for(fed), "{name}");
    }
}

#[test]
fn restore_cubes_the_saved_window_once_and_continues_after_it() {
    for subject in subjects() {
        let name = subject.name;
        let (mut e, log) = recorded(&subject, config(), None);
        for unit in 0..4 {
            for record in unit_records(unit) {
                e.ingest(&record).unwrap();
            }
            e.close_unit().unwrap();
        }
        assert_eq!(*log.lock().unwrap(), calls_for(0..4), "{name}");
        let bytes = e.checkpoint_bytes().unwrap();

        // A restored engine is `EngineConfig::build`'s own, so no
        // recorder fits around it; its `UnitDelta::unit` — the count of
        // units the instance has cubed — records the calls instead.
        let mut revived = restore_bytes((subject.configure)(config()), &bytes).unwrap();
        let cube = revived.cube().unwrap();
        assert_eq!(cube.m_layer_cells(), cells_in(3), "{name}");
        assert!(
            cube.m_table()
                .values()
                .all(|m| m.interval() == window_of(3)),
            "{name}: the one restored batch is the last closed window"
        );
        for unit in 4..8 {
            let empty = unit == 5;
            if !empty {
                for record in unit_records(unit) {
                    revived.ingest(&record).unwrap();
                }
            }
            let report = revived.close_unit().unwrap();
            assert_eq!(report.cube_delta.is_some(), !empty, "{name}");
            if let Some(delta) = &report.cube_delta {
                // Restore made call 0; units 4, 6 and 7 are calls 1–3.
                let earlier = (4..unit).filter(|&u| u != 5).count() as u64;
                assert_eq!(delta.unit, 1 + earlier, "{name}: unit {unit}");
                assert_eq!(delta.window, window_of(unit), "{name}");
                assert_eq!(delta.tuples, report.m_cells, "{name}");
                assert_eq!(delta.tuples, cells_in(unit), "{name}");
            }
        }
    }
}
